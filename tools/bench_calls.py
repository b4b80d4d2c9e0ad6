"""Alternate whole ``cli.main`` calls of two checkouts in one process, per command line.

Usage (standard library only):

    python3 tools/bench_calls.py PARENT CHANGE ARGV_JSON --rounds 20

PARENT and CHANGE are the roots of two checkouts, and ARGV_JSON is a file
holding a JSON list of command lines, each a list of strings as
``cli.main`` takes them, such as ``["search", "--bound", "20", "--k",
"3"]``.  This process loads each checkout's ``src/bidouble`` under a name
of its own, ``bidouble_parent`` and ``bidouble_change``: the package's
modules import each other relatively, so each side runs its own code, and
both sides share one interpreter, one heap and one machine state, which
fresh processes do not.

Each command line is first run once on each side, and the run is refused,
with a non-zero exit and a message naming the command line, unless both
sides write the same stdout and return the same exit code.  Then each round
calls every command line once on each side, in turn; odd rounds call the
parent first and even rounds the change first.  A call is timed with
``time.perf_counter`` around ``cli.main``, its stdout going to a sink that
keeps only a digest and its stderr (which holds ``search``'s report line,
with its times) to a buffer that is dropped.

The result is one JSON object on stdout: for each command line, each side's
median milliseconds a call and the change's ratio to the parent's median;
and the ratio of the change's total time to the parent's, over all calls.
Times depend on the machine and its load; stdout digests do not.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType

SIDES = ("parent", "change")


class Sink(io.TextIOBase):
    """A text stream that keeps only the SHA-256 of what is written to it."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)


def load_cli(root: Path, name: str) -> ModuleType:
    """``root/src/bidouble`` imported as the package ``name``, and its ``cli`` module."""
    package = root / "src" / "bidouble"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no package at {package}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def call(cli: ModuleType, argv: list[str]) -> tuple[float, int, str]:
    """One ``cli.main(argv)``: its wall time in seconds, exit code and stdout digest."""
    real = sys.stdout, sys.stderr
    sink = Sink()
    sys.stdout, sys.stderr = sink, io.StringIO()
    begun = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        elapsed = time.perf_counter() - begun
        sys.stdout, sys.stderr = real
    return elapsed, code, sink.sha.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("argv_json", type=Path, help="JSON list of command lines")
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    lines = json.loads(args.argv_json.read_text(encoding="utf-8"))
    if not (isinstance(lines, list) and lines and all(
        isinstance(line, list) and all(isinstance(word, str) for word in line) for line in lines
    )):
        raise SystemExit(f"{args.argv_json} holds no list of command lines")
    if args.rounds < 1:
        raise SystemExit("--rounds must be at least 1")
    clis = {side: load_cli(root.resolve(), f"bidouble_{side}")
            for side, root in zip(SIDES, (args.parent, args.change))}
    for line in lines:
        outcomes = {side: call(clis[side], line)[1:] for side in SIDES}
        if outcomes["parent"] != outcomes["change"]:
            raise SystemExit(f"refused: {line} gives exit code and stdout digest {outcomes}")
    times: dict[str, list[list[float]]] = {side: [[] for _ in lines] for side in SIDES}
    for round_ in range(args.rounds):
        order = SIDES if round_ % 2 == 0 else SIDES[::-1]
        for position, line in enumerate(lines):
            for side in order:
                times[side][position].append(call(clis[side], line)[0])
    calls = []
    for position, line in enumerate(lines):
        medians = {side: 1000 * statistics.median(times[side][position]) for side in SIDES}
        calls.append({"argv": line, "parent_ms": medians["parent"],
                      "change_ms": medians["change"],
                      "ratio": medians["change"] / medians["parent"]})
    totals = {side: sum(map(sum, times[side])) for side in SIDES}
    report = {
        "rounds": args.rounds,
        "calls": calls,
        "total_ratio": totals["change"] / totals["parent"],
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
