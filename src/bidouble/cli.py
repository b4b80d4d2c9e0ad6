"""Command line front end.

One subcommand per library operation; structured output (JSON by default,
CSV via ``--format csv``) goes to stdout, progress notes to stderr.  Stdout
never carries timestamps, so two identical invocations produce identical
bytes.  ``invariants``, ``search`` and ``certify`` take ``--out``, which
appends records to a JSONL catalog, stamped unless ``--no-timestamp`` is
given; no other command accepts either flag.  Exit codes: 0 success, 1
domain error (reported as a JSON error object on stdout), 2 usage error:
a flag argparse rejects, a ``--type`` count off the command's arity, or a
``search`` range that :class:`~bidouble.search.SearchConfig` refuses.

JSON output is ``json.dumps(payload, indent=2)``, except for ``search``:
its view, which can run to hundreds of megabytes, is rendered by
:func:`bidouble.serialize.search_to_json_chunks`, byte-identical to
``json.dumps`` of the same view but with no per-tuple dict, and written one
chunk of tuples at a time, so the text of the whole view is never held in
memory.  The search kernel itself runs with the cyclic garbage collector
paused (see :func:`bidouble.search.search`).

CSV rows are read off the same views, so each field is declared once:
nested objects flatten into columns and each view in a list is a row.
``search`` fills the columns it shares with ``certify`` straight from its
tuples, with no dict per row.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from . import catalog, serialize
from .covers import CoverType, derive_params, surface_invariants, validate_type
from .discriminant import discriminant_profile, zariski_certificate
from .errors import BidoubleError, ConstraintViolation, NotCatanese
from .paper_check import verify_paper_example
from .search import SearchConfig, search
from .topology import (
    are_homeomorphic,
    diffeo_obstruction,
    homeo_class_key,
    is_catanese_tuple,
)

#: Multiples used by verify-paper-example when no --m flag is given.
DEFAULT_REPORT_MULTS = (5, 6, 7)

CsvRows = tuple[list[str], Iterable[list[Any]]]


def cover_type_argument(text: str) -> CoverType:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected four comma-separated integers a,b,m2,n2, got {text!r}"
        )
    try:
        numbers = [int(part) for part in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected four comma-separated integers a,b,m2,n2, got {text!r}"
        ) from None
    return CoverType(*numbers)


def _timestamp(args: argparse.Namespace) -> str:
    if args.no_timestamp:
        return ""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _append_records(
    args: argparse.Namespace, kind: str, payloads: Iterable[dict[str, Any]]
) -> None:
    if args.out is None:
        return
    stamp = _timestamp(args)
    records = (
        catalog.CatalogRecord(kind=kind, payload=payload, created_at=stamp)
        for payload in payloads
    )
    written = catalog.write_catalog(records, args.out)
    print(f"appended {written} {kind} record(s) to {args.out}", file=sys.stderr)


def _validated(t: CoverType) -> CoverType:
    return validate_type(t.a, t.b, t.m2, t.n2)


def _table(rows: list[dict[str, Any]]) -> CsvRows:
    """CSV header and rows of flat views that share their fields, in order."""
    return list(rows[0]), [list(row.values()) for row in rows]


def _flattened(view: dict[str, Any]) -> dict[str, Any]:
    """The view with each nested object's fields spliced in its place."""
    flat: dict[str, Any] = {}
    for field, value in view.items():
        if isinstance(value, dict):
            flat.update(value)
        else:
            flat[field] = value
    return flat


def _numbered(views: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """The fields of each view, suffixed ``_1``, ``_2``, ... by position."""
    return {
        f"{field}_{i}": value
        for i, view in enumerate(views, 1)
        for field, value in view.items()
    }


# The leading CSV columns of a tuple of types, which _tuple_cells fills.
_TUPLE_COLUMNS = ["kk", "chi", "members", "indices"]


def _tuple_cells(
    kk: int, chi: int, members: Iterable[Iterable[int]], indices: Iterable[int]
) -> list[Any]:
    """kk, chi, then members ``a,b,m2,n2`` and indices, each joined by ``;``."""
    members_cell = ";".join(",".join(map(str, fields)) for fields in members)
    return [kk, chi, members_cell, ";".join(map(str, indices))]


def cmd_invariants(args: argparse.Namespace) -> tuple[dict[str, Any], CsvRows, int]:
    t = _validated(args.types[0])
    payload = serialize.invariants_to_json(t, derive_params(t), surface_invariants(t))
    _append_records(args, "invariants", [payload])
    return payload, _table([_flattened(payload)]), 0


def cmd_check_pair(args: argparse.Namespace) -> tuple[dict[str, Any], CsvRows, int]:
    t1, t2 = (_validated(t) for t in args.types)
    inv1, inv2 = surface_invariants(t1), surface_invariants(t2)
    homeomorphic = are_homeomorphic(inv1, inv2)
    obstruction = diffeo_obstruction(inv1, inv2).value if homeomorphic else None
    payload = {
        "types": [serialize.cover_type_to_json(t) for t in (t1, t2)],
        "keys": [serialize.key_to_json(homeo_class_key(inv)) for inv in (inv1, inv2)],
        "indices": [inv1.r, inv2.r],
        "homeomorphic": homeomorphic,
        "obstruction": obstruction,
    }
    row = {
        **_numbered(payload["types"]),
        **_numbered(payload["keys"]),
        **_numbered({"r": r} for r in payload["indices"]),
        "homeomorphic": homeomorphic,
        "obstruction": obstruction,
    }
    return payload, _table([row]), 0


def cmd_check_tuple(args: argparse.Namespace) -> tuple[dict[str, Any], CsvRows, int]:
    types = [_validated(t) for t in args.types]
    payload = serialize.verdict_to_json(is_catanese_tuple(types))
    payload["members"] = [serialize.cover_type_to_json(t) for t in types]
    failures = " | ".join(payload["failures"])
    is_catanese = payload["is_catanese"]
    rows = [
        {"member": i, **member, "r": r, "is_catanese": is_catanese, "failures": failures}
        for i, (member, r) in enumerate(zip(payload["members"], payload["indices"]))
    ]
    return payload, _table(rows), 0


def cmd_discriminant(args: argparse.Namespace) -> tuple[dict[str, Any], CsvRows, int]:
    t = _validated(args.types[0])
    inv = surface_invariants(t)
    profiles = [discriminant_profile(inv, mult) for mult in args.mults]
    payload = {
        "type": serialize.cover_type_to_json(t),
        "kk": inv.kk,
        "chi": inv.chi,
        "euler": inv.euler,
        "profiles": [serialize.profile_to_json(p) for p in profiles],
    }
    return payload, _table(payload["profiles"]), 0


def cmd_search(args: argparse.Namespace) -> tuple[Iterator[str], CsvRows, int]:
    config = args.config
    result = search(config)
    # Two generators: JSON output renders only the chunks, CSV output only
    # the rows.
    chunks = serialize.search_to_json_chunks(config, result)
    rows = (
        _tuple_cells(*t.key, map(CoverType.as_tuple, t.members), t.indices)
        for t in result.tuples
    )
    _append_records(args, "tuple", (serialize.tuple_to_json(t) for t in result.tuples))
    return chunks, (_TUPLE_COLUMNS, rows), 0


# The profile fields of each certify CSV row, after _TUPLE_COLUMNS.
_CERTIFY_PROFILE_COLUMNS = ["mult", "deg_b", "genus", "cusps", "nodes"]


def cmd_certify(args: argparse.Namespace) -> tuple[dict[str, Any], CsvRows, int]:
    types = [_validated(t) for t in args.types]
    payload = serialize.certificate_to_json(zariski_certificate(types, args.mults))
    base = _tuple_cells(
        *payload["shared"].values(),
        (member.values() for member in payload["members"]),
        payload["indices"],
    )
    rows = [
        [*base, *(profile[field] for field in _CERTIFY_PROFILE_COLUMNS)]
        for profile in payload["profiles"]
    ] or [[*base, *[""] * len(_CERTIFY_PROFILE_COLUMNS)]]
    _append_records(args, "certificate", [payload])
    return payload, ([*_TUPLE_COLUMNS, *_CERTIFY_PROFILE_COLUMNS], rows), 0


def cmd_verify_paper_example(
    args: argparse.Namespace,
) -> tuple[dict[str, Any], CsvRows, int]:
    mults = args.mults if args.mults is not None else list(DEFAULT_REPORT_MULTS)
    payload = serialize.report_to_json(verify_paper_example(mults))
    return payload, _table(payload["entries"]), 0 if payload["pattern_ok"] else 1


def _type_count_text(low: int, high: int | None) -> str:
    return f"exactly {low}" if high == low else f"at least {low}"


def _add_type_flag(parser: argparse.ArgumentParser, low: int, high: int | None) -> None:
    """``--type``, repeated ``low`` to ``high`` (None: any number of) times."""
    parser.add_argument(
        "--type",
        dest="types",
        action="append",
        default=[],
        type=cover_type_argument,
        metavar="a,b,m2,n2",
        help=f"a cover type (give {_type_count_text(low, high)})",
    )
    parser.set_defaults(arity=(low, high))


def _add_mult_flag(parser: argparse.ArgumentParser, help_text: str, **count: Any) -> None:
    """``--m``; ``count`` is ``required=True`` or the ``default`` when absent."""
    parser.add_argument(
        "--m",
        dest="mults",
        action="append",
        type=int,
        metavar="MULT",
        help=help_text,
        **count,
    )


def _add_common_flags(parser: argparse.ArgumentParser, *, out: bool = False) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format on stdout (default json)",
    )
    if out:
        parser.add_argument(
            "--no-timestamp",
            action="store_true",
            help="write empty created_at fields in catalog records",
        )
        parser.add_argument(
            "--out",
            type=Path,
            metavar="CATALOG",
            help="append result records to this JSONL catalog",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidouble",
        description=(
            "Invariants, homeomorphism classes, and Catanese tuples of simple "
            "bidouble covers of the quadric, with Zariski certificates for "
            "their pluricanonical discriminant curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "invariants", help="derived parameters and surface invariants of one type"
    )
    _add_type_flag(p, 1, 1)
    _add_common_flags(p, out=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser(
        "check-pair", help="homeomorphism and diffeomorphism verdict for two types"
    )
    _add_type_flag(p, 2, 2)
    _add_common_flags(p)
    p.set_defaults(func=cmd_check_pair)

    p = sub.add_parser(
        "check-tuple", help="Catanese verdict for two or more types"
    )
    _add_type_flag(p, 2, None)
    _add_common_flags(p)
    p.set_defaults(func=cmd_check_tuple)

    p = sub.add_parser(
        "discriminant", help="discriminant-curve profiles of one type"
    )
    _add_type_flag(p, 1, 1)
    _add_mult_flag(p, "canonical multiple >= 5 (repeatable, required)", required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_discriminant)

    p = sub.add_parser(
        "search", help="enumerate types up to a bound and extract Catanese k-tuples"
    )
    p.add_argument("--bound", type=int, required=True, help="field bound, >= 3")
    p.add_argument("--k", type=int, default=2, help="tuple size (default 2)")
    p.add_argument(
        "--max-results", type=int, default=None, help="truncate the sorted output"
    )
    _add_common_flags(p, out=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "certify", help="Zariski certificate for a Catanese tuple"
    )
    _add_type_flag(p, 2, None)
    _add_mult_flag(p, "canonical multiple >= 5 (repeatable)", default=[])
    _add_common_flags(p, out=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "verify-paper-example",
        help="recompute the published worked example and report the match pattern",
    )
    _add_mult_flag(
        p, f"canonical multiple >= 5 (repeatable, default {list(DEFAULT_REPORT_MULTS)})"
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify_paper_example)

    return parser


def _check_usage(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """The usage rules argparse cannot state: ``--type`` counts and search ranges."""
    if "arity" in args:
        low, high = args.arity
        got = len(args.types)
        if got < low or (high is not None and got != high):
            wanted = _type_count_text(low, high)
            parser.error(f"{args.command} takes {wanted} --type flag(s), got {got}")
    if args.command == "search":
        try:
            args.config = SearchConfig(args.bound, args.k, args.max_results)
        except ValueError as exc:
            parser.error(str(exc))


def _emit(payload: dict[str, Any] | Iterable[str], rows: CsvRows, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        header, body = rows
        writer.writerow(header)
        writer.writerows(body)
    elif isinstance(payload, dict):
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        write = sys.stdout.write
        for chunk in payload:
            write(chunk)
        write("\n")


def _emit_error(exc: BidoubleError) -> None:
    payload: dict[str, Any] = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConstraintViolation):
        payload["violations"] = exc.violations
    if isinstance(exc, NotCatanese):
        payload["failures"] = exc.failures
    print(json.dumps(payload, indent=2))
    print(f"error: {exc}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_usage(parser, args)
    try:
        payload, rows, code = args.func(args)
    except BidoubleError as exc:
        _emit_error(exc)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IoError", "message": str(exc)}, indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, rows, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
