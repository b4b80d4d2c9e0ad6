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
function yields, the catalog's included.  This module only renders text,
a range of buckets at a time (:func:`_rendered`);
:meth:`~bidouble.search.SearchScan.emit` decides which ranges are rendered
in which process, and the text does not depend on it.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from collections import abc
from functools import cache, partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from .catalog import RECORDS_PER_CHUNK, CatalogRecord, record_to_line
from .covers import CoverType, DerivedParams, SurfaceInvariants
from .discriminant import ArgumentStep, DiscriminantProfile, ZariskiCertificate
from .errors import SchemaMismatch, int_from_text, is_int
from .paper_check import PaperExampleReport
from .search import CataneseTuple, SearchScan
from .topology import HomeoClassKey, TupleVerdict

_PROFILE_BIG_FIELDS = ("deg_f", "deg_b", "half_deg", "genus", "cusps", "nodes")
#: A profile's fields in the order they are checked, and the exact type of
#: each: for its two int fields, is_int's rule.
_PROFILE_CHECKED = (*_PROFILE_BIG_FIELDS, "mult", "ram_mult")
_PROFILE_TYPES = [str] * len(_PROFILE_BIG_FIELDS) + [int, int]
_TYPE_FIELDS = tuple(field.name for field in dataclasses.fields(CoverType))


def cover_type_to_json(t: CoverType) -> dict[str, int]:
    return {"a": t.a, "b": t.b, "m2": t.m2, "n2": t.n2}


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


def profile_to_json(p: DiscriminantProfile) -> dict[str, Any]:
    """The profile with its :data:`_PROFILE_BIG_FIELDS` as decimal strings, in field order."""
    return {
        "mult": p.mult,
        "ram_mult": p.ram_mult,
        "deg_f": str(p.deg_f),
        "deg_b": str(p.deg_b),
        "half_deg": str(p.half_deg),
        "genus": str(p.genus),
        "cusps": str(p.cusps),
        "nodes": str(p.nodes),
    }


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
    are rendered by :func:`_rendered`, a range of buckets at a time, as
    :meth:`~bidouble.search.SearchScan.emit` asks: that method decides
    whether the ranges are rendered in one process or two.
    """
    return map(bytes.decode, run.emit(partial(_rendered, run, cut, separator)))


def _rendered(
    run: SearchScan, cut: _Cut, separator: bytes, first: int = 0, stop: int | None = None
) -> Iterator[bytes]:
    """The text of the run's buckets ``first`` to ``stop`` (exclusive, None for
    all), in ASCII chunks; the separator leads the first chunk too when
    ``first`` is not 0, as the text follows that of the buckets before.

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
    chunk: list[bytes] = [b""] if first else []
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
    # A dict first, then collections.abc's check: that of typing.Mapping runs
    # in Python.
    if type(value) is dict or isinstance(value, abc.Mapping):
        return value
    raise SchemaMismatch(f"{where}: expected an object, got {type(value).__name__}")


#: Each kind of field :func:`_field` reads: the type its value must have, an
#: int by :func:`~bidouble.errors.is_int`'s rule, and the noun a refusal
#: names.
_INT = (int, "an integer")
_STR = (str, "a string")
_LIST = (list, "an array")
_DECIMAL = (str, "a decimal string")


def _field(obj: Mapping[str, Any], field: str, kind: tuple[type, str], where: str) -> Any:
    """The value of ``field`` in ``obj``, refused unless it is of ``kind``."""
    value = obj.get(field)
    cls, noun = kind
    if not (is_int(value) if cls is int else isinstance(value, cls)):
        raise SchemaMismatch(f"{where}: field {field!r} must be {noun}, got {value!r}")
    return value


def _decimal_field(obj: Mapping[str, Any], field: str, where: str) -> int:
    """The int that the string ``field`` of ``obj`` spells, as
    :func:`~bidouble.errors.int_from_text` reads it."""
    text = _field(obj, field, _DECIMAL, where)
    try:
        return int_from_text(text)
    except ValueError:
        pass
    raise SchemaMismatch(f"{where}: field {field!r} is not a decimal string: {text!r}")


def _int_fields(obj: Mapping[str, Any], fields: tuple[str, ...], where: str) -> list[int]:
    """Each of ``fields`` as :func:`_field` reads an int; the first one refused is reported."""
    values = list(map(obj.get, fields))
    if all(map(is_int, values)):
        return values
    return [_field(obj, field, _INT, where) for field in fields]


def _int_item(value: Any, where: str = "index") -> int:
    if not is_int(value):
        raise SchemaMismatch(f"{where} must be an integer, got {value!r}")
    return value


def _items(
    obj: Mapping[str, Any], field: str, where: str, parse: Callable[..., Any]
) -> tuple[Any, ...]:
    """Each element of the array ``field``, parsed at ``{where}.{field}[i]``.

    The elements are parsed first under ``parse``'s own default path, so
    that no path is built for an element that parses.  ``parse`` is a pure
    function of the element, so when one is refused, parsing them again,
    each under its path, refuses the same element in the same words.
    """
    items = _field(obj, field, _LIST, where)
    try:
        return tuple(map(parse, items))
    except SchemaMismatch:
        pass
    return tuple(parse(item, f"{where}.{field}[{i}]") for i, item in enumerate(items))


def cover_type_from_json(payload: Any, where: str = "type") -> CoverType:
    return CoverType(*_int_fields(_require_mapping(payload, where), _TYPE_FIELDS, where))


def key_from_json(payload: Any, where: str = "key") -> HomeoClassKey:
    return HomeoClassKey(*_int_fields(_require_mapping(payload, where), ("kk", "chi"), where))


def profile_from_json(payload: Any, where: str = "profile") -> DiscriminantProfile:
    """The profile at ``where``; the six decimal strings are checked before
    ``mult`` and ``ram_mult``.

    All eight fields are read at once when each has its exact type and each
    string spells its int as :func:`~bidouble.errors.int_from_text`
    requires, and one by one otherwise, so that the first fault is the one
    reported.
    """
    obj = _require_mapping(payload, where)
    values = list(map(obj.get, _PROFILE_CHECKED))
    if list(map(type, values)) == _PROFILE_TYPES:
        texts = values[:6]
        try:
            big = list(map(int, texts))
        except ValueError:  # not a number, or more digits than int() reads
            big = None
        if big is not None and list(map(str, big)) == texts:
            return DiscriminantProfile(values[6], values[7], *big)
    big = [_decimal_field(obj, field, where) for field in _PROFILE_BIG_FIELDS]
    mult, ram_mult = _int_fields(obj, ("mult", "ram_mult"), where)
    return DiscriminantProfile(mult, ram_mult, *big)


def _step_from_json(payload: Any, where: str = "step") -> ArgumentStep:
    step = _require_mapping(payload, where)
    return ArgumentStep(
        _field(step, "step", _INT, where),
        _field(step, "name", _STR, where),
        _field(step, "statement", _STR, where),
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
