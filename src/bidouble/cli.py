"""Command line front end.

One subcommand per library operation; structured output (JSON by default,
CSV via ``--format csv``) goes to stdout, progress notes to stderr.  Stdout
never carries timestamps, so two identical invocations produce identical
bytes; ``--out`` appends records to a JSONL catalog, stamped unless
``--no-timestamp`` is given.  Exit codes: 0 success, 1 domain error
(reported as a JSON error object on stdout), 2 usage error.

JSON output is ``json.dumps(payload, indent=2)``, except for ``search``:
its view, which can run to hundreds of megabytes, is rendered by
:func:`bidouble.serialize.search_to_json_chunks`, byte-identical to
``json.dumps`` of the same view but with no per-tuple dict, and written one
chunk of tuples at a time, so the text of the whole view is never held in
memory.  The search kernel itself runs with the cyclic garbage collector
paused (see :func:`bidouble.search.search`).
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
from .paper_check import PaperExampleReport, verify_paper_example
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
    records = [
        catalog.CatalogRecord(kind=kind, payload=payload, created_at=stamp)
        for payload in payloads
    ]
    written = catalog.write_catalog(records, args.out)
    print(f"appended {written} {kind} record(s) to {args.out}", file=sys.stderr)


def _validated(t: CoverType) -> CoverType:
    return validate_type(t.a, t.b, t.m2, t.n2)


def cmd_invariants(args: argparse.Namespace) -> tuple[dict[str, Any], CsvRows, int]:
    t = _validated(args.types[0])
    params = derive_params(t)
    inv = surface_invariants(t)
    payload = serialize.invariants_to_json(t, params, inv)
    header = ["a", "b", "m2", "n2", "u", "v", "w", "z", "kk", "chi", "euler",
              "sigma", "b2", "b_plus", "b_minus", "p_g", "r"]
    row = [t.a, t.b, t.m2, t.n2, params.u, params.v, params.w, params.z,
           inv.kk, inv.chi, inv.euler, inv.sigma, inv.b2, inv.b_plus,
           inv.b_minus, inv.p_g, inv.r]
    _append_records(args, "invariants", [payload])
    return payload, (header, [row]), 0


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
    header = ["a_1", "b_1", "m2_1", "n2_1", "a_2", "b_2", "m2_2", "n2_2",
              "kk_1", "chi_1", "kk_2", "chi_2", "r_1", "r_2",
              "homeomorphic", "obstruction"]
    row = [*t1.as_tuple(), *t2.as_tuple(), inv1.kk, inv1.chi, inv2.kk,
           inv2.chi, inv1.r, inv2.r, homeomorphic, obstruction or ""]
    return payload, (header, [row]), 0


def cmd_check_tuple(args: argparse.Namespace) -> tuple[dict[str, Any], CsvRows, int]:
    types = [_validated(t) for t in args.types]
    verdict = is_catanese_tuple(types)
    payload = serialize.verdict_to_json(verdict)
    payload["members"] = [serialize.cover_type_to_json(t) for t in types]
    header = ["member", "a", "b", "m2", "n2", "r", "is_catanese", "failures"]
    failures = " | ".join(verdict.failures)
    rows = [
        [i, *t.as_tuple(), r, verdict.is_catanese, failures]
        for i, (t, r) in enumerate(zip(types, verdict.indices))
    ]
    return payload, (header, rows), 0


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
    header = ["mult", "ram_mult", "deg_f", "deg_b", "half_deg", "genus",
              "cusps", "nodes"]
    rows = [
        [p.mult, p.ram_mult, str(p.deg_f), str(p.deg_b), str(p.half_deg),
         str(p.genus), str(p.cusps), str(p.nodes)]
        for p in profiles
    ]
    return payload, (header, rows), 0


def cmd_search(args: argparse.Namespace) -> tuple[Iterator[str], CsvRows, int]:
    config = SearchConfig(
        bound=args.bound,
        k=args.k,
        max_results=args.max_results,
        shard_count=args.shards,
    )
    result = search(config)
    # Two generators: JSON output renders only the chunks, CSV output only
    # the rows.
    chunks = serialize.search_to_json_chunks(config, result)
    header = ["kk", "chi", "members", "indices"]
    rows = (
        [t.key.kk, t.key.chi,
         ";".join(",".join(map(str, m.as_tuple())) for m in t.members),
         ";".join(map(str, t.indices))]
        for t in result.tuples
    )
    _append_records(args, "tuple", (serialize.tuple_to_json(t) for t in result.tuples))
    return chunks, (header, rows), 0


def cmd_certify(args: argparse.Namespace) -> tuple[dict[str, Any], CsvRows, int]:
    types = [_validated(t) for t in args.types]
    cert = zariski_certificate(types, args.mults)
    payload = serialize.certificate_to_json(cert)
    header = ["kk", "chi", "members", "indices", "mult", "deg_b", "genus",
              "cusps", "nodes"]
    members = ";".join(",".join(map(str, m.as_tuple())) for m in cert.members)
    indices = ";".join(map(str, cert.indices))
    base = [cert.shared.kk, cert.shared.chi, members, indices]
    if cert.profiles:
        rows = [
            [*base, p.mult, str(p.deg_b), str(p.genus), str(p.cusps), str(p.nodes)]
            for p in cert.profiles
        ]
    else:
        rows = [[*base, "", "", "", "", ""]]
    _append_records(args, "certificate", [payload])
    return payload, (header, rows), 0


def cmd_verify_paper_example(
    args: argparse.Namespace,
) -> tuple[dict[str, Any], CsvRows, int]:
    mults = args.mults if args.mults is not None else list(DEFAULT_REPORT_MULTS)
    report = verify_paper_example(mults)
    payload = _report_to_json(report)
    header = ["field", "paper_printed", "computed", "match", "note"]
    rows = [
        [e.field, str(e.paper_printed), str(e.computed), e.match, e.note]
        for e in report.entries
    ]
    return payload, (header, rows), 0 if report.pattern_ok() else 1


def _report_to_json(report: PaperExampleReport) -> dict[str, Any]:
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


def _add_type_flag(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--type",
        dest="types",
        action="append",
        type=cover_type_argument,
        metavar="a,b,m2,n2",
        help=help_text,
    )


def _add_mult_flag(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--m",
        dest="mults",
        action="append",
        type=int,
        metavar="MULT",
        help=help_text,
    )


def _add_common_flags(parser: argparse.ArgumentParser, *, out: bool = False) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format on stdout (default json)",
    )
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="write empty created_at fields in catalog records",
    )
    if out:
        parser.add_argument(
            "--out",
            type=Path,
            metavar="CATALOG",
            help="append result records to this JSONL catalog",
        )
    else:
        parser.set_defaults(out=None)


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
    _add_type_flag(p, "the cover type (exactly one)")
    _add_common_flags(p, out=True)
    p.set_defaults(func=cmd_invariants, arity=(1, 1))

    p = sub.add_parser(
        "check-pair", help="homeomorphism and diffeomorphism verdict for two types"
    )
    _add_type_flag(p, "a cover type (exactly twice)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_check_pair, arity=(2, 2))

    p = sub.add_parser(
        "check-tuple", help="Catanese verdict for two or more types"
    )
    _add_type_flag(p, "a cover type (at least twice)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_check_tuple, arity=(2, None))

    p = sub.add_parser(
        "discriminant", help="discriminant-curve profiles of one type"
    )
    _add_type_flag(p, "the cover type (exactly one)")
    _add_mult_flag(p, "canonical multiple >= 5 (repeatable, at least one)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_discriminant, arity=(1, 1), mult_arity=(1, None))

    p = sub.add_parser(
        "search", help="enumerate types up to a bound and extract Catanese k-tuples"
    )
    p.add_argument("--bound", type=int, required=True, help="field bound, >= 3")
    p.add_argument("--k", type=int, default=2, help="tuple size (default 2)")
    p.add_argument(
        "--max-results", type=int, default=None, help="truncate the sorted output"
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard count, echoed in the output; no effect yet (default 1)",
    )
    _add_common_flags(p, out=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "certify", help="Zariski certificate for a Catanese tuple"
    )
    _add_type_flag(p, "a cover type (at least twice)")
    _add_mult_flag(p, "canonical multiple >= 5 (repeatable)")
    _add_common_flags(p, out=True)
    p.set_defaults(func=cmd_certify, arity=(2, None), mult_arity=(0, None))

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


def _check_arity(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    arity = getattr(args, "arity", None)
    if arity is not None:
        low, high = arity
        got = len(args.types or [])
        if got < low or (high is not None and got != high):
            wanted = f"exactly {low}" if high == low else f"at least {low}"
            parser.error(f"{args.command} takes {wanted} --type flag(s), got {got}")
    mult_arity = getattr(args, "mult_arity", None)
    if mult_arity is not None:
        low, _ = mult_arity
        got = len(args.mults or [])
        if got < low:
            parser.error(f"{args.command} needs at least {low} --m flag(s), got {got}")
        if args.mults is None:
            args.mults = []
    if args.command == "search":
        if args.bound < 3:
            parser.error("--bound must be >= 3")
        if args.k < 2:
            parser.error("--k must be >= 2")
        if args.shards < 1:
            parser.error("--shards must be >= 1")
        if args.max_results is not None and args.max_results < 0:
            parser.error("--max-results must be >= 0")


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
    _check_arity(parser, args)
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
