"""Fixed JSON views of the domain objects, and strict parsers back.

Fields that scale like the square of the branch-curve degree (everything in
a discriminant profile except the multiple and 3m+1) are serialized as
decimal strings; consumers limited to double-width floats would otherwise
silently round them.  All other fields are plain JSON integers.  Parsers are
strict and raise :class:`SchemaMismatch` on any shape or type drift.

A search run's views are streamed from its kernel pass
(:class:`~bidouble.search.SearchScan`) without a dict per tuple.  The
JSON view joins each bucket's text at once, by a plan of byte positions
built once per index shape (:func:`search_to_json_chunks`); the catalog
lines fill one template per row of :meth:`~bidouble.search.SearchScan.rows`
(:func:`search_to_catalog_lines`).
"""

from __future__ import annotations

import dataclasses
import json
import re
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from .catalog import CatalogRecord, record_to_line
from .covers import CoverType, DerivedParams, SurfaceInvariants
from .discriminant import ArgumentStep, DiscriminantProfile, ZariskiCertificate
from .errors import SchemaMismatch
from .paper_check import PaperExampleReport
from .search import CataneseTuple, SearchScan, walk
from .topology import HomeoClassKey, TupleVerdict

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
    """:func:`tuple_to_json` of a tuple given as a search row: members as field tuples."""
    return {
        "key": key_to_json(HomeoClassKey(kk, chi)),
        "members": [dict(zip(_TYPE_FIELDS, fields)) for fields in members],
        "indices": list(indices),
    }


#: The most tuples per chunk of the search view, unless one bucket holds
#: more: with k = 2 at bound 60, 1024 tuples are about 350 KB of text.
TUPLES_PER_CHUNK = 1024


def search_to_json_chunks(run: SearchScan) -> Iterator[str]:
    """The JSON view of one search run in pieces, as ``json.dumps(view, indent=2)`` renders it.

    The view is the run's config and counts followed by ``"tuples"``, a list
    of :func:`tuple_to_json` objects.  :mod:`json` renders the view with no
    tuple once, and its text up to ``"tuples": [`` is the first chunk.  A
    tuple's text comes in ASCII ``bytes`` pieces (:func:`_tuple_pieces`): a
    key template, a member template and the constant pieces between the
    member and index slots.  Each stored cell's member text is rendered
    once (:meth:`SearchScan.buckets`), and each index once, from a table of
    the run's indices.

    A bucket's text is then one join: its tuples, comma-separated, are
    pieces of ``(constants, key text, members, index texts)``, and the
    positions of those pieces depend only on the bucket's
    :func:`~bidouble.search.shape`, so they are built once per shape from
    its :func:`~bidouble.search.walk`, into a plan (:func:`_bucket_planner`).
    A bucket costs one ``%`` for its key, one ``itemgetter`` of its plan's
    positions and one ``b"".join``; no per-tuple object is built and no
    member is formatted twice.  When ``max_results`` cuts a bucket, it gets
    a plan of just the tuples kept.  A chunk holds whole buckets, at most
    :data:`TUPLES_PER_CHUNK` tuples unless one bucket holds more, and is
    joined as bytes and decoded once; the last chunk closes the list and
    the object.  At most one chunk's text is alive at a time when the
    caller writes each chunk before asking for the next.  A run with no
    tuple is rendered whole, as one chunk, with no tuple pieces: their size
    grows with k, and a huge k leaves no bucket with k distinct indices.
    """
    config, stats = run.config, run.stats
    k = config.k
    text = json.dumps(
        {
            "config": {
                "bound": config.bound,
                "k": k,
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
    key_template, member_template, constants = _tuple_pieces(k)
    # Each index's text, at its own position.
    digits = [b"%d" % r for r in range(max(map(max, run.index_tuples)) + 1)]
    # The text up to "tuples": [, without the list's "]\n}".
    yield text[:-3]
    chunk: list[bytes] = []
    in_chunk, left = 0, stats.tuples
    planner = _bucket_planner(k)
    buckets = run.buckets(planner, member_template.__mod__)
    for kk, chi, pattern, members, plan in buckets:
        indices = run.index_tuples[pattern]
        count = run.tuple_counts[pattern]
        if count >= left:
            # The run's last tuples: max_results may cut this bucket.
            if count > left:
                plan = planner(walk(indices, k, left), len(indices))
            count = left
        if in_chunk + count > TUPLES_PER_CHUNK and in_chunk:
            yield from _joined(chunk)
            in_chunk = 0
        parts = (*constants, key_template % (kk, chi), *members, *map(digits.__getitem__, indices))
        chunk.append(b"".join(itemgetter(*plan)(parts)))
        in_chunk += count
        left -= count
        if not left:
            break
    yield from _joined(chunk)
    yield "\n  ]\n}"


# Both per-k helpers are kept for each k a process asks for; a k above the
# most distinct indices of a bucket (9 up to bound 253) has no tuple to render.
@cache
def _tuple_pieces(k: int) -> tuple[bytes, bytes, tuple[bytes, ...]]:
    """One tuple of the search view, cut at its slots, as ASCII bytes.

    :mod:`json` renders the tuple, at its depth in the view, as a
    :func:`tuple_row_to_json` object with a ``%d`` slot in each integer
    field; its leading newline and indentation are part of it.  It is cut
    into the key template, with the two key slots, up to the first member;
    the member template, with its four ``%d`` slots; and the constant
    pieces after each member and then each index, and once more the last
    with the comma that separates a bucket's tuples.
    """
    slot = "%d"
    slotted = tuple_row_to_json(slot, slot, [(slot,) * 4] * k, (slot,) * k)  # type: ignore[arg-type]
    text = json.dumps({"tuples": [slotted]}, indent=2).replace(f'"{slot}"', slot)
    template = re.fullmatch(r'\{\n  "tuples": \[(.*)\n  \]\n\}', text, re.S).group(1)
    # Every member object of the tuple has the same text; the key object
    # has no "a" field.
    member = re.search(r'\{[^{}]*"a": %d[^{}]*\}', template).group().encode("ascii")
    key_template, rest = template.encode("ascii").split(member, 1)
    constants = rest.replace(member, b"%d").split(b"%d")
    return key_template, member, (*constants, constants[-1] + b",")


def _joined(chunk: list[bytes]) -> Iterator[str]:
    """The texts in ``chunk`` as one comma-separated chunk; ``chunk`` is emptied
    before the chunk is decoded, and holds the comma that starts the next one."""
    text = b",".join(chunk)
    chunk[:] = [b""]
    yield text.decode("ascii")


@cache
def _bucket_planner(k: int) -> Callable[[bytes, int], bytearray]:
    """The plan of a bucket's text, for tuples of k members.

    A plan says where each piece of the bucket's text comes from, for the
    tuples whose member positions, k per tuple, are ``positions``, as
    :func:`~bidouble.search.walk` gives them, in a bucket of ``cells``
    members.  It indexes the pieces ``(constants, key text, members, index
    texts)`` of :func:`search_to_json_chunks`: constants 0 to k - 1 follow
    the members of a tuple, k to 2k - 1 its indices, and 2k is the last
    with a comma; the key text is piece 2k + 1, member i piece 2k + 2 + i
    and its index text piece 2k + 2 + cells + i.  A tuple's text is the
    key, each member and its constant, then each index and its constant;
    every tuple but the bucket's last ends with the comma.
    """
    width, first_member = 4 * k + 1, 2 * k + 2
    # One tuple's pieces, its member and index slots still to fill.
    pieces = [2 * k + 1]
    for j in range(k):
        pieces += (0, j)
    for j in range(k):
        pieces += (0, k + j)
    pieces[-1] = 2 * k
    one_tuple = bytearray(pieces)
    # Position i to its member's piece.
    to_member = bytes(range(first_member, 256)).ljust(256, b"\0")

    def build(positions: bytes, cells: int) -> bytearray:
        # Position i to its index's piece.  bytes() refuses a piece past 255,
        # which takes a bucket of over 120 members; up to bound 253 a bucket
        # has 23 at most.
        to_index = bytes(range(first_member + cells, first_member + 2 * cells)).ljust(256, b"\0")
        plan = one_tuple * (len(positions) // k)
        for j in range(k):
            column = positions[j::k]
            plan[1 + 2 * j :: width] = column.translate(to_member)
            plan[2 * k + 1 + 2 * j :: width] = column.translate(to_index)
        plan[-1] = 2 * k - 1
        return plan

    return build


def search_to_catalog_lines(run: SearchScan, created_at: str) -> Iterator[str]:
    """Each tuple of the emit pass as its catalog line, stamped ``created_at``.

    A line equals :func:`~bidouble.catalog.record_to_line` of the ``"tuple"``
    record of the tuple's :func:`tuple_row_to_json` payload.  That line is
    rendered once with a positional slot in every integer field and in the
    stamp, and each row fills the slots, so no per-tuple object is built.
    A run with no tuple yields no line and renders no template.
    """
    if not run.stats.tuples:
        return
    k = run.config.k
    slots = [f"{{{i}}}" for i in range(2 + 5 * k + 1)]
    members = [slots[2 + 4 * j : 6 + 4 * j] for j in range(k)]
    shape = tuple_row_to_json(slots[0], slots[1], members, slots[2 + 4 * k : -1])  # type: ignore[arg-type]
    line = record_to_line(CatalogRecord("tuple", shape, slots[-1]))
    # Escape every brace, then turn each quoted slot back into a bare one.
    escaped = line.replace("{", "{{").replace("}", "}}")
    template = re.sub(r'"\{\{(\d+)\}\}"', r"{\1}", escaped)
    stamp = json.dumps(created_at)
    for kk, chi, fields, indices in run.rows():
        yield template.format(kk, chi, *chain.from_iterable(fields), *indices, stamp)


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
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaMismatch(f"{where}: field {field!r} must be an integer, got {value!r}")
    return value


def _big_field(obj: Mapping[str, Any], field: str, where: str) -> int:
    value = obj.get(field)
    if not isinstance(value, str):
        raise SchemaMismatch(f"{where}: field {field!r} must be a decimal string, got {value!r}")
    try:
        number = int(value, 10)
    except ValueError:
        number = None
    # int() also reads spaces, "_", "+", leading zeros and non-ASCII digits;
    # only the spelling that str() writes is a decimal string here.
    if number is None or str(number) != value:
        raise SchemaMismatch(f"{where}: field {field!r} is not a decimal string: {value!r}")
    return number


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


def _indices_from_json(obj: Mapping[str, Any], where: str) -> tuple[int, ...]:
    indices = []
    for i, value in enumerate(_list_field(obj, "indices", where)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaMismatch(f"{where}: indices[{i}] must be an integer, got {value!r}")
        indices.append(value)
    return tuple(indices)


def _step_from_json(payload: Any, where: str) -> ArgumentStep:
    step = _require_mapping(payload, where)
    return ArgumentStep(
        step=_int_field(step, "step", where),
        name=_str_field(step, "name", where),
        statement=_str_field(step, "statement", where),
    )


def tuple_from_json(payload: Any, where: str = "tuple") -> CataneseTuple:
    obj = _require_mapping(payload, where)
    members = _items(obj, "members", where, cover_type_from_json)
    return CataneseTuple(
        key=key_from_json(obj.get("key"), f"{where}.key"),
        members=members,
        indices=_indices_from_json(obj, where),
    )


def certificate_from_json(payload: Any, where: str = "certificate") -> ZariskiCertificate:
    obj = _require_mapping(payload, where)
    members = _items(obj, "members", where, cover_type_from_json)
    profiles = _items(obj, "profiles", where, profile_from_json)
    argument = _items(obj, "argument", where, _step_from_json)
    return ZariskiCertificate(
        members=members,
        shared=key_from_json(obj.get("shared"), f"{where}.shared"),
        indices=_indices_from_json(obj, where),
        profiles=profiles,
        argument=argument,
    )
