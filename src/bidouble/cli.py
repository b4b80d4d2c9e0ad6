"""Command line front end.

One subcommand per library operation; structured output (JSON by default,
CSV via ``--format csv``) goes to stdout, progress notes to stderr.  Stdout
never carries timestamps, so two identical invocations produce identical
bytes.  ``invariants``, ``search`` and ``certify`` take ``--out``, which
appends records to a JSONL catalog, stamped unless ``--no-timestamp`` is
given; no other command accepts either flag.  Exit codes: 0 success; 1 a
domain or I/O error (an ``error:`` line on stderr and a JSON error object on
stdout, whatever the ``--format``) or a reader of stdout gone early; 2 a usage
error: an unknown or abbreviated option, a flag argparse rejects, an integer
not spelt as ``str()`` writes it (:func:`~bidouble.errors.int_from_text`), a
``--type`` count off the command's arity, or a ``search`` range that
:class:`~bidouble.search.SearchConfig` refuses, each reported under the
subcommand's usage line.  Only ``_emit`` writes stdout, under one guard, so a
closed stdout never ends in a traceback.

Every option is declared once, in ``_COMMANDS``.  A valid command line is
read from it in one pass (:func:`_read_argv`); any other goes to argparse,
which words every refusal and ``--help``.  The parser is built from the same
table once per process, on the first refusal or ``--help``, and holds no
command function: each call looks ``cmd_<command>`` up by name when it runs.

JSON output is ``json.dumps(payload, indent=2)``, except for ``search``,
which streams.  It runs the kernel pass (:func:`bidouble.search.scan`),
which fills every count of the JSON head and stores the multi-index
buckets in flat arrays; then the emit pass renders the tuples straight
from them as it writes, in one text stream for the ``--format``:
:func:`bidouble.serialize.search_to_json_chunks` (byte-identical to
``json.dumps`` of the view) or :func:`bidouble.serialize.search_to_csv_chunks`
(byte-identical to :mod:`csv` rows).  With ``--out`` it runs once more
before that, through :func:`bidouble.serialize.search_to_catalog_chunks`
(byte-identical to :func:`bidouble.catalog.record_to_line` lines), and
:func:`bidouble.catalog.write_chunks` appends those chunks as they come,
under one lock.  No cover type or tuple object is built and the whole
output is never held in memory.  A large run makes each pass on two
processes, with the same bytes (:mod:`bidouble.search`).  Every
``search`` then writes one JSON line on stderr, after any ``appended``
note: the run's counts, ``workers`` (1 or 2: the processes the kernel pass
ran in, so that a fallback to one shows) and the wall time of the kernel
pass and of the stdout emit pass.

CSV rows are read off the same views, so each field is declared once:
nested objects flatten into columns and each view in a list is a row.
``search`` and ``certify`` share the columns of a tuple
(:func:`bidouble.serialize.tuple_row_to_cells`).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import fields
from datetime import datetime, timezone
from functools import cache
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import catalog, serialize
from .covers import CoverType, derive_params, surface_invariants, validate_type
from .discriminant import discriminant_profile, zariski_certificate
from .errors import BidoubleError, ConstraintViolation, NotCatanese, int_from_text
from .paper_check import verify_paper_example
from .search import SearchConfig, SearchScan, scan
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
    try:
        a, b, m2, n2 = map(int_from_text, text.split(","))
    except ValueError:  # a field int_from_text refuses, or not four of them
        raise argparse.ArgumentTypeError(
            f"expected four comma-separated integers a,b,m2,n2, got {text!r}"
        ) from None
    return CoverType(a, b, m2, n2)


def integer_argument(text: str) -> int:
    try:
        return int_from_text(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None


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
    _appended(args, kind, catalog.write_catalog(records, args.out))


def _appended(args: argparse.Namespace, kind: str, written: int) -> None:
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
    verdict = is_catanese_tuple(types)
    payload = serialize.verdict_to_json(verdict)
    payload["members"] = [serialize.cover_type_to_json(t) for t in types]
    # Each row carries only the failures that name its member.
    named: list[list[str]] = [[] for _ in types]
    for pair, failure in zip(verdict.pairs, verdict.failures):
        for member in pair:
            named[member].append(failure)
    rows = [
        {"member": i, **member, "r": r, "is_catanese": verdict.is_catanese,
         "failures": " | ".join(named[i])}
        for i, (member, r) in enumerate(zip(payload["members"], verdict.indices))
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


def cmd_search(args: argparse.Namespace) -> tuple[Iterator[str], None, int]:
    begun = time.perf_counter()
    run = scan(args.config)
    kernel_s = time.perf_counter() - begun
    if args.out is not None:
        chunks = serialize.search_to_catalog_chunks(run, _timestamp(args))
        _appended(args, "tuple", catalog.write_chunks(chunks, args.out))
    if args.format == "csv":
        text = serialize.search_to_csv_chunks(run)
    else:
        text = chain(serialize.search_to_json_chunks(run), ["\n"])
    return _then_report(text, run, kernel_s), None, 0


def _then_report(items: Iterator[str], run: SearchScan, kernel_s: float) -> Iterator[str]:
    """``items``, then the run's report on stderr: one JSON line of its
    :class:`~bidouble.search.SearchStats` fields, ``workers``, ``kernel_s``
    and ``emit_s``.

    ``workers`` is the number of processes the kernel pass ran in.
    ``emit_s`` runs from the first item asked for to the last, so it covers
    the stdout rendering and not a catalog write made before.
    """
    begun = time.perf_counter()
    yield from items
    report = {field.name: getattr(run.stats, field.name) for field in fields(run.stats)}
    report.update(
        workers=run.workers,
        kernel_s=round(kernel_s, 6),
        emit_s=round(time.perf_counter() - begun, 6),
    )
    print(json.dumps(report), file=sys.stderr)


# The profile fields of each certify CSV row, after the tuple columns.
_CERTIFY_PROFILE_COLUMNS = ["mult", "deg_b", "genus", "cusps", "nodes"]


def cmd_certify(args: argparse.Namespace) -> tuple[dict[str, Any], CsvRows, int]:
    types = [_validated(t) for t in args.types]
    payload = serialize.certificate_to_json(zariski_certificate(types, args.mults))
    base = serialize.tuple_row_to_cells(
        *payload["shared"].values(),
        (member.values() for member in payload["members"]),
        payload["indices"],
    )
    rows = [
        [*base, *(profile[field] for field in _CERTIFY_PROFILE_COLUMNS)]
        for profile in payload["profiles"]
    ] or [[*base, *[""] * len(_CERTIFY_PROFILE_COLUMNS)]]
    _append_records(args, "certificate", [payload])
    return payload, ([*serialize.TUPLE_COLUMNS, *_CERTIFY_PROFILE_COLUMNS], rows), 0


def cmd_verify_paper_example(
    args: argparse.Namespace,
) -> tuple[dict[str, Any], CsvRows, int]:
    mults = args.mults if args.mults is not None else list(DEFAULT_REPORT_MULTS)
    payload = serialize.report_to_json(verify_paper_example(mults))
    return payload, _table(payload["entries"]), 0 if payload["pattern_ok"] else 1


def _type_count_text(low: int, high: int | None) -> str:
    return f"exactly {low}" if high == low else f"at least {low}"


class _Option(NamedTuple):
    """One option of a subcommand, as :func:`_read_argv` reads it and as
    argparse declares it, each field but ``flag`` under its argparse keyword
    (None: not given): ``action`` is ``store`` (one value), ``append`` (one
    value, repeatable) or ``store_true`` (a flag)."""

    flag: str
    dest: str
    action: str = "store"
    type: Callable[[str], Any] | None = None
    default: Any = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    metavar: str | None = None
    help: str | None = None


class _Command(NamedTuple):
    """A subcommand's help, its options in declared order and, for a command
    that reads ``--type``, how many it takes: ``(low, high)``, high None for
    any number."""

    help: str
    options: tuple[_Option, ...]
    arity: tuple[int, int | None] | None = None


def _typed(help_text: str, low: int, high: int | None, *options: _Option) -> _Command:
    """A command that reads ``--type`` ``low`` to ``high`` times, then ``options``."""
    types = _Option(
        "--type", "types", "append", cover_type_argument, [], metavar="a,b,m2,n2",
        help=f"a cover type (give {_type_count_text(low, high)})",
    )
    return _Command(help_text, (types, *options), (low, high))


def _mults(help_text: str, **count: Any) -> _Option:
    """``--m``; ``count`` is ``required=True`` or the ``default`` when absent."""
    return _Option("--m", "mults", "append", integer_argument, metavar="MULT",
                   help=help_text, **count)


_FORMAT = _Option("--format", "format", default="json", choices=("json", "csv"),
                  help="output format on stdout (default json)")
_CATALOG = (
    _Option("--no-timestamp", "no_timestamp", "store_true", default=False,
            help="write empty created_at fields in catalog records"),
    _Option("--out", "out", metavar="CATALOG",
            help="append result records to this JSONL catalog"),
)

#: Every subcommand and its options, the one declaration that both
#: :func:`build_parser` and :func:`_read_argv` read.
_COMMANDS = {
    "invariants": _typed(
        "derived parameters and surface invariants of one type", 1, 1,
        _FORMAT, *_CATALOG,
    ),
    "check-pair": _typed(
        "homeomorphism and diffeomorphism verdict for two types", 2, 2, _FORMAT,
    ),
    "check-tuple": _typed("Catanese verdict for two or more types", 2, None, _FORMAT),
    "discriminant": _typed(
        "discriminant-curve profiles of one type", 1, 1,
        _mults("canonical multiple >= 5 (repeatable, required)", required=True),
        _FORMAT,
    ),
    "search": _Command(
        "enumerate types up to a bound and extract Catanese k-tuples",
        (
            _Option("--bound", "bound", type=integer_argument, required=True,
                    help="field bound, >= 3"),
            _Option("--k", "k", type=integer_argument, default=2,
                    help="tuple size (default 2)"),
            _Option("--max-results", "max_results", type=integer_argument,
                    help="truncate the sorted output"),
            _FORMAT,
            *_CATALOG,
        ),
    ),
    "certify": _typed(
        "Zariski certificate for a Catanese tuple", 2, None,
        _mults("canonical multiple >= 5 (repeatable)", default=[]),
        _FORMAT, *_CATALOG,
    ),
    "verify-paper-example": _Command(
        "recompute the published worked example and report the match pattern",
        (
            _mults(f"canonical multiple >= 5 (repeatable, default {list(DEFAULT_REPORT_MULTS)})"),
            _FORMAT,
        ),
    ),
}
_OPTIONS = {name: {o.flag: o for o in command.options} for name, command in _COMMANDS.items()}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built from ``_COMMANDS`` on the first refusal
    or ``--help`` and shared by every later one.

    Options are read only as declared, never by a prefix.  Parsing does not
    change the parser: each call fills a new namespace, and an ``append``
    flag copies its default list before it appends.  A call without the flag
    gets the default list itself, so commands only read ``args.types`` and
    ``args.mults``.  Each subparser reports usage errors itself and holds no
    command function.
    """
    parser = argparse.ArgumentParser(
        prog="bidouble",
        allow_abbrev=False,
        description=(
            "Invariants, homeomorphism classes, and Catanese tuples of simple "
            "bidouble covers of the quadric, with Zariski certificates for "
            "their pluricanonical discriminant curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        p.set_defaults(command_parser=p)
        for option in command.options:
            declared = {k: v for k, v in option._asdict().items() if v is not None}
            p.add_argument(declared.pop("flag"), **declared)
        if command.arity is not None:
            p.set_defaults(arity=command.arity)
    return parser


def _read_argv(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace that argparse and :func:`_check_usage` give ``argv``, read
    in one pass; None for a command line not read exactly as argparse reads it.

    Read: an exact subcommand name, then exact option strings, each but a flag
    followed by one value that does not start with ``-`` and that its
    ``type`` and ``choices`` accept, with every required option present and
    the ``--type`` count and search range passing.  Anything else (``-h``,
    ``--opt=value``, ``--``, a value such as ``-5``, an unknown option, a bad
    value) is None, and goes to argparse, so that argparse alone words every
    refusal and ``--help``.  Linear in ``argv``, where argparse's scan for the
    next option is quadratic in the number of options.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, options = _COMMANDS[argv[0]], _OPTIONS[argv[0]]
    given: dict[str, Any] = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        option = options.get(flag)
        if option is None:
            return None
        if option.action == "store_true":
            given[option.dest] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = text if option.type is None else option.type(text)
        except argparse.ArgumentTypeError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        if option.action == "append":
            if option.dest not in given:  # as argparse, a copy of the default
                given[option.dest] = list(option.default or ())
            given[option.dest].append(value)
        else:
            given[option.dest] = value
    if any(o.required and o.dest not in given for o in command.options):
        return None
    args = argparse.Namespace(
        command=argv[0], **{o.dest: given.get(o.dest, o.default) for o in command.options}
    )
    if command.arity is not None:
        args.arity = command.arity
    return None if _usage_fault(args) is not None else args


def _usage_fault(args: argparse.Namespace) -> str | None:
    """The fault argparse leaves to the caller in a parsed command line, a
    ``--type`` count off the command's arity or a search range that
    :class:`~bidouble.search.SearchConfig` refuses, or None; a search's
    ``args.config`` is set."""
    if "arity" in args:
        low, high = args.arity
        got = len(args.types)
        if got < low or (high is not None and got != high):
            wanted = _type_count_text(low, high)
            return f"{args.command} takes {wanted} --type flag(s), got {got}"
    if args.command == "search":
        try:
            args.config = SearchConfig(args.bound, args.k, args.max_results)
        except ValueError as exc:
            return str(exc)
    return None


def _check_usage(args: argparse.Namespace, extras: list[str]) -> None:
    """The usage rules argparse leaves to the caller: unknown options and
    :func:`_usage_fault`.

    Reported through the subcommand's parser, as argparse reports its own
    errors, so the usage line printed is the subcommand's.
    """
    parser = args.command_parser
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    fault = _usage_fault(args)
    if fault is not None:
        parser.error(fault)


def _emit(payload: dict[str, Any] | Iterable[str], rows: CsvRows | None, fmt: str) -> None:
    """The one writer of stdout: CSV ``rows`` under ``--format csv``, else the
    JSON ``payload`` and a newline; an error view has no rows, and the text
    stream of ``search`` comes as it is written, newline included."""
    if fmt == "csv" and rows is not None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        header, body = rows
        writer.writerow(header)
        writer.writerows(body)
        return
    chunks = [json.dumps(payload, indent=2), "\n"] if isinstance(payload, dict) else payload
    write = sys.stdout.write
    for chunk in chunks:
        write(chunk)


def _error_view(exc: BidoubleError | OSError) -> dict[str, Any]:
    """The JSON error object of a domain error, or of an I/O error as ``IoError``."""
    name = "IoError" if isinstance(exc, OSError) else type(exc).__name__
    view: dict[str, Any] = {"error": name, "message": str(exc)}
    if isinstance(exc, ConstraintViolation):
        view["violations"] = exc.violations
    if isinstance(exc, NotCatanese):
        view["failures"] = exc.failures
    return view


def main(argv: Sequence[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        args, extras = build_parser().parse_known_args(argv)
        _check_usage(args, extras)
    # Looked up on every call, so a command patched after the first call runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        payload, rows, code = command(args)
    except (BidoubleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        payload, rows, code = _error_view(exc), None, 1
    try:
        _emit(payload, rows, args.format)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader left early; as the Python docs advise, quiet the exit flush.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
