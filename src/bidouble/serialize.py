"""Fixed JSON views of the domain objects, and strict parsers back.

Fields that scale like the square of the branch-curve degree (everything in
a discriminant profile except the multiple and 3m+1) are serialized as
decimal strings; consumers limited to double-width floats would otherwise
silently round them.  All other fields are plain JSON integers.  Parsers are
strict and raise :class:`SchemaMismatch` on any shape or type drift.
"""

from __future__ import annotations

import dataclasses
import json
import re
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Mapping

from .catalog import CatalogRecord, record_to_line
from .covers import CoverType, DerivedParams, SurfaceInvariants
from .discriminant import ArgumentStep, DiscriminantProfile, ZariskiCertificate
from .errors import SchemaMismatch
from .paper_check import PaperExampleReport
from .search import CataneseTuple, SearchScan
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


#: Tuples rendered per chunk of the search view: with k = 2 at bound 60, a
#: chunk is about 350 KB of text.
TUPLES_PER_CHUNK = 1024


def search_to_json_chunks(run: SearchScan) -> Iterator[str]:
    """The JSON view of one search run in pieces, as ``json.dumps(view, indent=2)`` renders it.

    The view is the run's config and counts followed by ``"tuples"``, a list
    of :func:`tuple_to_json` objects.  :mod:`json` renders it once, its only
    tuple a :func:`tuple_row_to_json` object with a ``%d`` slot in each
    integer field.  The text up to ``"tuples": [`` is the first chunk; the
    tuple's text, leading newline and indentation included, is the template
    each row of the emit pass (:meth:`SearchScan.rows`) fills, so no
    per-tuple object is built.  Rows come :data:`TUPLES_PER_CHUNK` per
    chunk, and the last chunk closes the list and the object.  At most one
    chunk's text is alive at a time when the caller writes each chunk before
    asking for the next.  A run with no tuple is rendered whole, as one
    chunk, with no template: a template's size grows with k, and a huge k
    leaves no bucket with k distinct indices.
    """
    config, stats = run.config, run.stats
    slot, k = "%d", config.k
    shape = (
        [tuple_row_to_json(slot, slot, [(slot,) * 4] * k, (slot,) * k)]  # type: ignore[arg-type]
        if stats.tuples
        else []
    )
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
            "tuples": shape,
        },
        indent=2,
    ).replace(f'"{slot}"', slot)
    if not shape:
        yield text
        return
    head, template, close = re.fullmatch(r'(.*"tuples": \[)(.*)(\n  \]\n\})', text, re.S).groups()
    yield head
    rows = run.rows()
    separator = ""
    while batch := list(islice(rows, TUPLES_PER_CHUNK)):
        yield separator + ",".join(
            template % (kk, chi, *chain.from_iterable(members), *indices)
            for kk, chi, members, indices in batch
        )
        separator = ","
    yield close


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
