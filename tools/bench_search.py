"""Time and size `bidouble search` at fixed bounds, one fresh process per bound.

Usage (from the root of a checkout; standard library only):

    python3 tools/bench_search.py 40 60 100 140 200
    python3 tools/bench_search.py --repeat 5 40 60 100
    python3 tools/bench_search.py --src OTHER_CHECKOUT/src 40 60
    python3 tools/bench_search.py --k 3 140
    python3 tools/bench_search.py --format csv 100 140
    python3 tools/bench_search.py --catalog 100 140

For each bound a child interpreter, started inside ``--src`` (default:
this checkout's ``src``), imports ``bidouble`` through the relative path
entry ``.``, runs ``cli.main(["search", "--bound", B, "--k", K,
"--format", F])`` ``--repeat`` times (default once), with K from ``--k``
(default 2) and F from ``--format`` (default json), stdout going to a sink
that keeps only a digest, and reports for the first call:

- ``stats``: the report line ``search`` writes on stderr, less its times
  (``workers`` included: the processes its kernel pass ran in)
- ``types``, ``buckets``, ``tuples``: the counts from that line, so that
  runs of two versions can be checked to have done the same work
- ``stdout_bytes`` and ``stdout_sha256``
- ``kernel_s`` and ``emit_s``: the wall times of the kernel pass and of the
  stdout emit pass, as that line gives them, to the microsecond
- ``total_s``, to the microsecond

and for the whole child ``peak_rss_mb``: the larger of its own
``ru_maxrss`` and that of its reaped children, so that a process forked by
``search`` counts.  With ``--repeat N`` above 1, ``rest_median`` gives the
median ``kernel_s``, ``emit_s`` and ``total_s`` of calls 2 to N: the first
call pays for cold caches and a growing heap, and one cold call cannot
resolve a few percent.  The heap grows across the calls, so ``peak_rss_mb``
is then the peak of all N (93.0 MB over five calls at bound 200, against
64.6 MB for one), and ``first_call_peak_rss_mb``, the same peak read once
the first call has returned, is the one to compare with a single call's.
The run is refused unless every call's stdout digest (and catalog digest)
is equal.

A version whose search writes no report line is refused: the script exits
non-zero with a message that says so.  With ``--catalog`` each call
also appends its tuples with ``--out`` to a catalog in a temporary
directory, emptied before the call, as ``search --out CATALOG
--no-timestamp``, and the run reports ``catalog_bytes`` and
``catalog_sha256``; the catalog write is the part of ``total_s`` outside
both passes.

The result is one JSON object on stdout.  Times depend on the machine and
its load; counts and digests do not.

Peak RSS is set by heap layout, which the lengths of incidental strings
move, and its noise floor is one 1 MiB pymalloc arena.  The child runs
inside the source tree so that the paths it holds are the tree's real
path, however ``--src`` is spelled: over twelve spellings of one tree
(symlinks of six lengths, each relative and absolute), ``--k 5 200`` read
26.1-27.5 MB when the child put ``--src`` as given on its path, and
26.2-26.5 MB from inside the tree, and copies of the tree at real paths
of 25 to 104 characters read 26.3-26.4 MB (Python 3.11, 2-core x86-64
VM).  A peak RSS difference below one arena is still no finding.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import hashlib, io, json, os, resource, statistics, sys, time
sys.path.insert(0, ".")
from bidouble import cli

class Sink(io.TextIOBase):
    def __init__(self):
        self.sha, self.size = hashlib.sha256(), 0
    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)
        return len(text)

def digest(path):
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        while block := handle.read(1 << 20):
            sha.update(block)
    return os.path.getsize(path), sha.hexdigest()

bound, k, fmt, repeat, out = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5:]
argv = ["search", "--bound", bound, "--k", k, "--format", fmt]
argv += ["--out", out[0], "--no-timestamp"] if out else []
real = sys.stdout, sys.stderr

def peak_kb():
    # A process forked by search counts once reaped: the larger peak is the run's.
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

calls = []
for _ in range(repeat):
    if out:
        open(out[0], "wb").close()
    sink, err = Sink(), io.StringIO()
    sys.stdout, sys.stderr = sink, err
    begun = time.perf_counter()
    code = cli.main(argv)
    total = time.perf_counter() - begun
    sys.stdout, sys.stderr = real
    stats = next(
        (json.loads(line) for line in err.getvalue().splitlines() if line.startswith("{")),
        None,
    )
    if stats is None:
        sys.exit(f"search --bound {bound} wrote no report line on stderr")
    times = {name: stats.pop(name) for name in ("kernel_s", "emit_s")}
    call = {
        "exit_code": code,
        "stdout_bytes": sink.size,
        "stdout_sha256": sink.sha.hexdigest(),
        **times,
        "total_s": round(total, 6),
        "stats": stats,
    }
    if out:
        call["catalog_bytes"], call["catalog_sha256"] = digest(out[0])
    calls.append(call)
    if len(calls) == 1:
        first_peak = peak_kb()
first = calls[0]
for name in ("stdout_sha256", "catalog_sha256"):
    if len({call.get(name) for call in calls}) > 1:
        sys.exit(f"search --bound {bound}: {name} differs between the {repeat} calls")
report = {
    "bound": int(bound),
    "k": int(k),
    "format": fmt,
    "exit_code": first["exit_code"],
    "types": first["stats"]["types"],
    "buckets": first["stats"]["buckets"],
    "tuples": first["stats"]["tuples"],
    **{name: first[name] for name in ("stdout_bytes", "stdout_sha256", "kernel_s", "emit_s", "total_s")},
    "peak_rss_mb": round(peak_kb() / 1024, 1),
    "stats": first["stats"],
}
if out:
    report.update(catalog_bytes=first["catalog_bytes"], catalog_sha256=first["catalog_sha256"])
if repeat > 1:
    report["first_call_peak_rss_mb"] = round(first_peak / 1024, 1)
    report["rest_median"] = {
        name: round(statistics.median(call[name] for call in calls[1:]), 6)
        for name in ("kernel_s", "emit_s", "total_s")
    }
print(json.dumps(report))
"""


def run_bound(src: Path, bound: int, k: int, fmt: str, catalog: bool, repeat: int) -> dict:
    """One fresh interpreter searching ``repeat`` times at ``bound`` for k-tuples in ``fmt``;
    its report as a dict."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "catalog.jsonl"
        argv = [sys.executable, "-c", CHILD, str(bound), str(k), fmt, str(repeat)]
        done = subprocess.run(
            argv + ([str(out)] if catalog else []),
            cwd=src,
            capture_output=True,
            text=True,
        )
    if done.returncode:
        raise SystemExit(f"bench_search: {done.stderr.strip()}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bounds", type=int, nargs="+", metavar="BOUND")
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="directory holding the bidouble package"
    )
    parser.add_argument("--k", type=int, default=2, help="tuple size, passed on as search --k")
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="stdout format, passed on as search --format",
    )
    parser.add_argument(
        "--catalog",
        action="store_true",
        help="also append the tuples to a new catalog with --out and report its digest",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="calls per bound in its one process (default 1); times of the first and the rest",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    report = {
        "src": str(args.src),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "catalog": args.catalog,
        "repeat": args.repeat,
        "runs": [
            run_bound(args.src, bound, args.k, args.format, args.catalog, args.repeat)
            for bound in args.bounds
        ],
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
