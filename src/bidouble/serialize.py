"""Fixed JSON views of the domain objects, and strict parsers back.

Fields that scale like the square of the branch-curve degree (everything in
a discriminant profile except the multiple and 3m+1) are serialized as
decimal strings; consumers limited to double-width floats would otherwise
silently round them.  All other fields are plain JSON integers.  Parsers are
strict and raise :class:`SchemaMismatch` on any shape or type drift.

A search run's outputs (JSON, CSV and catalog lines) are streamed from its
kernel pass (:class:`~bidouble.search.SearchScan`) without an object per
tuple.  Which tuples a run emits is decided by
:meth:`~bidouble.search.SearchScan.buckets` alone, which hands over each
bucket with its count of kept tuples.  Each output is its text of one
tuple, cut once into pieces at its slots (:func:`_cut`), and each bucket's
text is one join of those pieces, by a plan built once per index shape
(:func:`_search_chunks`).  Every output is written in the chunks that
function yields, the catalog's included.  A run that keeps at least
:data:`FORK_MIN_TUPLES` tuples is rendered on two processes: a forked child
renders the upper half of the buckets into a temporary file while this
process renders and yields the lower half, then the file's text.  The text
is the same as from one process, which renders the whole when the child
cannot run or fails; only where it is cut into chunks differs.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
from functools import cache, partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from .catalog import RECORDS_PER_CHUNK, CatalogRecord, record_to_line
from .covers import CoverType, DerivedParams, SurfaceInvariants
from .discriminant import ArgumentStep, DiscriminantProfile, ZariskiCertificate
from .errors import SchemaMismatch, int_from_text, is_int
from .paper_check import PaperExampleReport
from .search import CataneseTuple, SearchScan, _forked
from .topology import HomeoClassKey, TupleVerdict

#: The fewest kept tuples for which a search output is rendered in two
#: processes, read at run time so that tests can lower it.  On a 2-core x86-64
#: VM the JSON of bound 60 (6,856 tuples) gained 5 ms in two processes on one
#: day and lost 6 ms on another; that of bound 80 (30,911 tuples) and above
#: gained in every run.
FORK_MIN_TUPLES = 20_000

#: The most bytes of a child's rendered text held at once, less than one chunk
#: of a JSON search output at k = 2 (about 350 KB).
_PIECE_BYTES = 1 << 18

_PROFILE_BIG_FIELDS = ("deg_f", "deg_b", "half_deg", "genus", "cusps", "nodes")
_TYPE_FIELDS = tuple(field.name for field in dataclasses.fields(CoverType))


def cover_type_to_json(t: CoverType) -> dict[str, int]:
    return dict(zip(_TYPE_FIELDS, t.as_tuple()))


def key_to_json(key: HomeoClassKey) -> dict[str, int]:
    return {"kk": key.kk, "chi": key.chi}


def params_to_json(p: DerivedParams) -> dict[str, int]:
    return {"u": p.u, "v": p.v, "w": p.w, "z": p.z}


def invariants_to_json(t: CoverType, p: DerivedParams, inv: SurfaceInvariants) -> dict[str, Any]:
    return {
        "type": cover_type_to_json(t),
        "params": params_to_json(p),
        "kk": inv.kk,
        "chi": inv.chi,
        "euler": inv.euler,
        "sigma": inv.sigma,
        "b2": inv.b2,
        "b_plus": inv.b_plus,
        "b_minus": inv.b_minus,
        "p_g": inv.p_g,
        "r": inv.r,
    }


def profile_to_json(profile: DiscriminantProfile) -> dict[str, Any]:
    payload: dict[str, Any] = {"mult": profile.mult, "ram_mult": profile.ram_mult}
    for field in _PROFILE_BIG_FIELDS:
        payload[field] = str(getattr(profile, field))
    return payload


def tuple_to_json(t: CataneseTuple) -> dict[str, Any]:
    return tuple_row_to_json(*t.key, map(CoverType.as_tuple, t.members), t.indices)


def tuple_row_to_json(
    kk: int, chi: int, members: Iterable[Iterable[int]], indices: Iterable[int]
) -> dict[str, Any]:
    """:func:`tuple_to_json` of a tuple given by its key, member field tuples and indices."""
    return {
        "key": key_to_json(HomeoClassKey(kk, chi)),
        "members": [dict(zip(_TYPE_FIELDS, fields)) for fields in members],
        "indices": list(indices),
    }


#: The CSV columns of a tuple of types, which :func:`tuple_row_to_cells` fills.
TUPLE_COLUMNS = ["kk", "chi", "members", "indices"]


def tuple_row_to_cells(
    kk: int, chi: int, members: Iterable[Iterable[int]], indices: Iterable[int]
) -> list[Any]:
    """kk, chi, then members ``a,b,m2,n2`` and indices, each joined by ``;``."""
    members_cell = ";".join(",".join(map(str, fields)) for fields in members)
    return [kk, chi, members_cell, ";".join(map(str, indices))]


def search_to_json_chunks(run: SearchScan) -> Iterator[str]:
    """The JSON view of one search run in pieces, as ``json.dumps(view, indent=2)`` renders it.

    The view is the run's config and counts followed by ``"tuples"``, a list
    of :func:`tuple_to_json` objects.  :mod:`json` renders the view with no
    tuple once, and its text up to ``"tuples": [`` is the first chunk; the
    tuples follow from :func:`_search_chunks`, and the last chunk closes the
    list and the object.  A run with no tuple is one chunk.
    """
    config, stats = run.config, run.stats
    text = json.dumps(
        {
            "config": {
                "bound": config.bound,
                "k": config.k,
                "max_results": config.max_results,
                # Fixed, as the search runs as one shard; the field stays so
                # that the view's bytes and the digests pinned on them hold.
                "shard_count": 1,
            },
            "type_count": stats.types,
            "bucket_count": stats.buckets,
            "tuple_count": stats.tuples,
            "truncated_buckets": [key_to_json(key) for key in run.truncated_buckets],
            "clipped": stats.clipped,
            "tuples": [],
        },
        indent=2,
    )
    if not stats.tuples:
        yield text
        return
    # The text up to "tuples": [, without the list's "]\n}".
    yield text[:-3]
    yield from _search_chunks(run, _cut(_json_tuple, config.k), b",")
    yield "\n  ]\n}"


def _json_tuple(*row: Any) -> str:
    """A tuple's text in the search view, at its depth there, leading newline included."""
    text = json.dumps({"tuples": [tuple_row_to_json(*row)]}, indent=2)
    return text[len('{\n  "tuples": [') : -len("\n  ]\n}")]


def search_to_csv_chunks(run: SearchScan) -> Iterator[str]:
    """The CSV of one search run in pieces: the :data:`TUPLE_COLUMNS` line,
    then each tuple's :func:`tuple_row_to_cells` line, as :mod:`csv` writes
    them with ``lineterminator="\\n"``."""
    yield ",".join(TUPLE_COLUMNS) + "\n"
    if run.stats.tuples:
        yield from _search_chunks(run, _cut(_csv_tuple, run.config.k))


def _csv_tuple(*row: Any) -> str:
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(tuple_row_to_cells(*row))
    return line.getvalue()


def search_to_catalog_chunks(run: SearchScan, created_at: str) -> Iterator[str]:
    """The run's tuples as catalog lines, stamped ``created_at``, in chunks.

    A line equals :func:`~bidouble.catalog.record_to_line` of the ``"tuple"``
    record of the tuple's :func:`tuple_row_to_json` payload, and ends with a
    newline.  The chunks are :func:`_search_chunks` output as it comes, for
    :func:`~bidouble.catalog.write_chunks`.  A run with no tuple has no chunk.
    """
    if not run.stats.tuples:
        return
    *head, constants, planner = _cut(_catalog_line, run.config.k)
    # The cut renders an empty stamp, which sort_keys puts first.  The stamp
    # goes in after the cut, so that no stamp text can be taken for a slot.
    stamp = b'"created_at":%b' % json.dumps(created_at).encode("ascii")
    first = constants[0].replace(b'"created_at":""', stamp, 1)
    yield from _search_chunks(run, (*head, (first, *constants[1:]), planner))


def _catalog_line(*row: Any) -> str:
    return record_to_line(CatalogRecord("tuple", tuple_row_to_json(*row))) + "\n"


#: What :func:`_cut` makes of an output's render function.
_Cut = tuple[bytes, slice, bytes, tuple[bytes, ...], Callable[[bytes, int], bytearray]]

#: Slot i of the tuple :func:`_cut` renders holds ``_SENTINEL + i``: 16
#: digits, which no other text of a rendered tuple holds.
_SENTINEL = 10**15


# Kept for each output and k a process asks for; a k above the most distinct
# indices of a bucket (9 up to bound 253) has no tuple to render.
@cache
def _cut(render: Callable[..., str], k: int) -> _Cut:
    """One tuple as ``render`` makes it, cut at its slots into ASCII bytes pieces.

    ``render(kk, chi, members, indices)`` is an output's text of a tuple
    with members as field tuples (a, b, m2, n2).  It is called once, with a
    distinct sentinel in every slot.  The slots of the key, of each member
    and of each index lie together, and each of those 2k + 1 groups is cut
    out as a template, its slots ``%d`` in text order: the key's as
    ``order`` takes them from (kk, chi), a member's in field order, every
    member alike.  The key template takes in the text on both sides of the
    key, and the rest of the text around the groups makes 2k constants.

    The planner turns a bucket's member ``positions``, k per tuple, as
    :func:`~bidouble.search.walk` gives them for a bucket of ``cells``
    members, into its plan: the index of each piece of the bucket's text in
    ``(constants, last, key text, members, index texts)``, as
    :func:`_search_chunks` lays them out.  Constants are 0 to 2k - 1;
    ``last``, the last constant and the separator, is 2k and ends every
    tuple but the bucket's last; the key text is 2k + 1, member i is
    2k + 2 + i and its index text 2k + 2 + cells + i.
    """
    slots = range(_SENTINEL, _SENTINEL + 2 + 5 * k)
    members = [slots[2 + 4 * j : 6 + 4 * j] for j in range(k)]
    text = render(slots[0], slots[1], members, slots[2 + 4 * k :]).encode("ascii")
    # Each slot's group: 0 the key, 1 to k the members, k + 1 to 2k the indices.
    group = [0, 0, *(1 + j for j in range(k) for _ in range(4)), *range(k + 1, 2 * k + 1)]
    ids = sorted(range(len(slots)), key=lambda i: text.index(b"%d" % slots[i]))
    # The text in order: a constant, a group, a constant, ..., a group, a constant.
    parts: list[bytes | int] = []
    templates: dict[int, bytes] = {}
    for position, i in enumerate(ids):
        before, text = text.split(b"%d" % slots[i], 1)
        if position and group[i] == parts[-1]:
            templates[group[i]] += before + b"%d"
        else:
            parts += (before, group[i])
            templates[group[i]] = b"%d"
    parts.append(text)
    order = slice(None, None, 1 if ids.index(0) < ids.index(1) else -1)
    # The key takes in the text on both sides: two pieces fewer per tuple of a plan.
    at = parts.index(0)
    key_template = parts[at - 1] + templates[0] + parts[at + 1]
    parts[at - 1 : at + 2] = [0]
    # One tuple's pieces, its member and index slots still to fill.
    constants: list[bytes] = []
    one_tuple = bytearray()
    offset: dict[int, int] = {}
    for part in parts:
        if isinstance(part, bytes):
            one_tuple.append(len(constants))
            constants.append(part)
        else:
            offset[part] = len(one_tuple)
            one_tuple.append(2 * k + 1)
    one_tuple[-1] = 2 * k
    width, first_member = len(one_tuple), 2 * k + 2
    # Position i to its member's piece.
    to_member = bytes(range(first_member, 256)).ljust(256, b"\0")

    def build(positions: bytes, cells: int) -> bytearray:
        # Position i to its index's piece.  bytes() refuses a piece past 255,
        # which takes a bucket of over 110 members; up to bound 253 a bucket
        # has 23 at most.
        to_index = bytes(range(first_member + cells, first_member + 2 * cells)).ljust(256, b"\0")
        plan = one_tuple * (len(positions) // k)
        for j in range(k):
            column = positions[j::k]
            plan[offset[1 + j] :: width] = column.translate(to_member)
            plan[offset[1 + k + j] :: width] = column.translate(to_index)
        plan[-1] = 2 * k - 1
        return plan

    return key_template, order, templates[1], tuple(constants), build


def _search_chunks(run: SearchScan, cut: _Cut, separator: bytes = b"") -> Iterator[str]:
    """The run's tuples as text, in chunks, by the pieces ``cut`` from an output.

    Tuples come sorted by key and then by members, as
    :meth:`SearchScan.buckets` hands them over, ``max_results`` applied, and
    are rendered by :func:`_rendered`.  A run that keeps at least
    :data:`FORK_MIN_TUPLES` tuples is rendered in two processes: its buckets
    are split where the kept tuples pass half, and a child forked by
    :func:`~bidouble.search._forked`, which holds the finished run as this
    process does, renders the upper buckets into a temporary file while this
    process renders and yields the lower ones.  The file's text follows, in
    pieces of at most :data:`_PIECE_BYTES`; should the child fail, this
    process renders the upper buckets itself.  The text is the same either
    way; only where it is cut into chunks differs.
    """
    render = partial(_rendered, run, cut, separator)
    split = _split_at_half(run) if run.stats.tuples >= FORK_MIN_TUPLES else None
    if split is None:
        yield from map(bytes.decode, render())
        return
    with _forked(lambda handle: handle.writelines(render(split, None, True))) as finish:
        yield from map(bytes.decode, render(0, split if finish else None))
        if finish is None:
            return
        written = finish()
        if written is None:
            yield from map(bytes.decode, render(split, None, True))
        else:
            yield from map(bytes.decode, iter(partial(written.read, _PIECE_BYTES), b""))


def _split_at_half(run: SearchScan) -> int | None:
    """The first bucket after those that keep half the run's tuples, or None
    when the buckets after it keep none.

    The running total is taken as it goes, not held: a list of it would
    hold an integer object per bucket, about 20 MB at bound 200.
    """
    kept = itertools.accumulate(map(run.tuple_counts.__getitem__, run.patterns))
    half = (run.stats.tuples + 1) // 2
    split, total = next((i, total) for i, total in enumerate(kept, 1) if total >= half)
    return split if total < run.stats.tuples and split < len(run.patterns) else None


def _rendered(
    run: SearchScan,
    cut: _Cut,
    separator: bytes,
    first: int = 0,
    stop: int | None = None,
    leading: bool = False,
) -> Iterator[bytes]:
    """The text of the run's buckets ``first`` to ``stop`` (exclusive, None for
    all), in ASCII chunks; the separator leads the first chunk too when ``leading``.

    Each member text of a bucket handed over is rendered once, and each
    index once.  A bucket's text, its tuples separated by ``separator``, is
    one join of those pieces by the plan ``buckets`` prepares with the
    planner of ``cut``: one ``%`` for its key, one ``itemgetter`` and one
    ``b"".join``, and no per-tuple object.  A chunk holds whole buckets, at
    most :data:`~bidouble.catalog.RECORDS_PER_CHUNK` tuples unless one bucket holds
    more, and is joined once.  The separator leads every chunk
    after the first, so no chunk waits for the next, and at most one chunk's text
    is alive at a time when the caller takes each before asking for another.
    """
    key_template, order, member_template, constants, planner = cut
    pieces = (*constants, constants[-1] + separator)
    # Each index's text, at its own position.
    digits = [b"%d" % r for r in range(max(map(max, run.index_tuples)) + 1)]
    chunk: list[bytes] = [b""] if leading else []
    in_chunk = 0
    buckets = run.buckets(planner, member_template.__mod__, first, stop)
    for kk, chi, indices, members, plan, count in buckets:
        if in_chunk + count > RECORDS_PER_CHUNK and in_chunk:
            text = separator.join(chunk)
            chunk, in_chunk = [b""], 0
            yield text
            # Its bytes go before the next chunk is built.
            del text
        parts = (*pieces, key_template % (kk, chi)[order], *members, *map(digits.__getitem__, indices))
        chunk.append(b"".join(itemgetter(*plan)(parts)))
        in_chunk += count
    text = separator.join(chunk)
    del chunk
    yield text


def verdict_to_json(verdict: TupleVerdict) -> dict[str, Any]:
    return {
        "is_catanese": verdict.is_catanese,
        "shared_key": key_to_json(verdict.shared_key) if verdict.shared_key else None,
        "indices": list(verdict.indices),
        "failures": list(verdict.failures),
    }


def certificate_to_json(cert: ZariskiCertificate) -> dict[str, Any]:
    return {
        "members": [cover_type_to_json(m) for m in cert.members],
        "shared": key_to_json(cert.shared),
        "indices": list(cert.indices),
        "profiles": [profile_to_json(p) for p in cert.profiles],
        "argument": [
            {"step": s.step, "name": s.name, "statement": s.statement}
            for s in cert.argument
        ],
    }


def report_to_json(report: PaperExampleReport) -> dict[str, Any]:
    return {
        "entries": [
            {
                "field": e.field,
                "paper_printed": str(e.paper_printed),
                "computed": str(e.computed),
                "match": e.match,
                "note": e.note,
            }
            for e in report.entries
        ],
        "pattern_ok": report.pattern_ok(),
    }


def _require_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise SchemaMismatch(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _int_field(obj: Mapping[str, Any], field: str, where: str) -> int:
    value = obj.get(field)
    if not is_int(value):
        raise SchemaMismatch(f"{where}: field {field!r} must be an integer, got {value!r}")
    return value


def _int_item(value: Any, where: str) -> int:
    if not is_int(value):
        raise SchemaMismatch(f"{where} must be an integer, got {value!r}")
    return value


def _big_field(obj: Mapping[str, Any], field: str, where: str) -> int:
    value = obj.get(field)
    if not isinstance(value, str):
        raise SchemaMismatch(f"{where}: field {field!r} must be a decimal string, got {value!r}")
    try:
        return int_from_text(value)
    except ValueError:
        pass
    raise SchemaMismatch(f"{where}: field {field!r} is not a decimal string: {value!r}")


def _str_field(obj: Mapping[str, Any], field: str, where: str) -> str:
    value = obj.get(field)
    if not isinstance(value, str):
        raise SchemaMismatch(f"{where}: field {field!r} must be a string, got {value!r}")
    return value


def _list_field(obj: Mapping[str, Any], field: str, where: str) -> list[Any]:
    value = obj.get(field)
    if not isinstance(value, list):
        raise SchemaMismatch(f"{where}: field {field!r} must be an array, got {value!r}")
    return value


def _items(
    obj: Mapping[str, Any], field: str, where: str, parse: Callable[[Any, str], Any]
) -> tuple[Any, ...]:
    """Each element of the array ``field``, parsed at ``{where}.{field}[i]``."""
    items = _list_field(obj, field, where)
    return tuple(parse(item, f"{where}.{field}[{i}]") for i, item in enumerate(items))


def cover_type_from_json(payload: Any, where: str = "type") -> CoverType:
    obj = _require_mapping(payload, where)
    return CoverType(*(_int_field(obj, f, where) for f in _TYPE_FIELDS))


def key_from_json(payload: Any, where: str = "key") -> HomeoClassKey:
    obj = _require_mapping(payload, where)
    return HomeoClassKey(_int_field(obj, "kk", where), _int_field(obj, "chi", where))


def profile_from_json(payload: Any, where: str = "profile") -> DiscriminantProfile:
    obj = _require_mapping(payload, where)
    big = {f: _big_field(obj, f, where) for f in _PROFILE_BIG_FIELDS}
    return DiscriminantProfile(
        mult=_int_field(obj, "mult", where),
        ram_mult=_int_field(obj, "ram_mult", where),
        **big,
    )


def _step_from_json(payload: Any, where: str) -> ArgumentStep:
    step = _require_mapping(payload, where)
    return ArgumentStep(
        step=_int_field(step, "step", where),
        name=_str_field(step, "name", where),
        statement=_str_field(step, "statement", where),
    )


def _indices(obj: Mapping[str, Any], members: tuple[Any, ...], where: str) -> tuple[int, ...]:
    """The array ``indices``, one integer per member."""
    indices = _items(obj, "indices", where, _int_item)
    if len(indices) != len(members):
        raise SchemaMismatch(f"{where}: {len(indices)} indices for {len(members)} members")
    return indices


def tuple_from_json(payload: Any, where: str = "tuple") -> CataneseTuple:
    obj = _require_mapping(payload, where)
    members = _items(obj, "members", where, cover_type_from_json)
    return CataneseTuple(
        key=key_from_json(obj.get("key"), f"{where}.key"),
        members=members,
        indices=_indices(obj, members, where),
    )


def certificate_from_json(payload: Any, where: str = "certificate") -> ZariskiCertificate:
    obj = _require_mapping(payload, where)
    members = _items(obj, "members", where, cover_type_from_json)
    profiles = _items(obj, "profiles", where, profile_from_json)
    argument = _items(obj, "argument", where, _step_from_json)
    return ZariskiCertificate(
        members=members,
        shared=key_from_json(obj.get("shared"), f"{where}.shared"),
        indices=_indices(obj, members, where),
        profiles=profiles,
        argument=argument,
    )
