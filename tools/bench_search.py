"""Time and size `bidouble search` at fixed bounds, one fresh process per bound.

Usage (from the root of a checkout; standard library only):

    python3 tools/bench_search.py 40 60 100 140 200
    python3 tools/bench_search.py --src OTHER_CHECKOUT/src 40 60
    python3 tools/bench_search.py --k 3 140
    python3 tools/bench_search.py --format csv 100 140
    python3 tools/bench_search.py --catalog 100 140

For each bound a child interpreter, started inside ``--src`` (default:
this checkout's ``src``), imports ``bidouble`` through the relative path
entry ``.``, runs ``cli.main(["search", "--bound", B, "--k", K,
"--format", F])`` once, with K from ``--k`` (default 2) and F from
``--format`` (default json), stdout going to a sink that keeps only a
digest, and reports:

- ``stats``: the report line ``search`` writes on stderr, less its times
- ``types``, ``buckets``, ``tuples``: the counts from that line, so that
  runs of two versions can be checked to have done the same work
- ``stdout_bytes`` and ``stdout_sha256``
- ``kernel_s`` and ``emit_s``: the wall times of the kernel pass and of the
  stdout emit pass, as that line gives them, to the microsecond
- ``total_s``, to the microsecond, and ``peak_rss_mb`` (the child's own
  ``ru_maxrss``)

A version whose search writes no report line is refused: the script exits
non-zero with a message that says so.  With ``--catalog`` each run
also appends its tuples with ``--out`` to a new catalog in a temporary
directory, as ``search --out CATALOG --no-timestamp``, and reports
``catalog_bytes`` and ``catalog_sha256``; the catalog write is the part of
``total_s`` outside both passes.

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
import hashlib
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import hashlib, io, json, resource, sys, time
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

bound, k, fmt, out = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
argv = ["search", "--bound", bound, "--k", k, "--format", fmt]
argv += ["--out", out[0], "--no-timestamp"] if out else []
sink, err, real = Sink(), io.StringIO(), (sys.stdout, sys.stderr)
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
print(json.dumps({
    "bound": int(bound),
    "k": int(k),
    "format": fmt,
    "exit_code": code,
    "types": stats["types"],
    "buckets": stats["buckets"],
    "tuples": stats["tuples"],
    "stdout_bytes": sink.size,
    "stdout_sha256": sink.sha.hexdigest(),
    **times,
    "total_s": round(total, 6),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "stats": stats,
}))
"""


def run_bound(src: Path, bound: int, k: int, fmt: str, catalog: bool) -> dict:
    """One fresh interpreter searching at ``bound`` for k-tuples in ``fmt``; its report as a dict."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "catalog.jsonl"
        argv = [sys.executable, "-c", CHILD, str(bound), str(k), fmt]
        done = subprocess.run(
            argv + ([str(out)] if catalog else []),
            cwd=src,
            capture_output=True,
            text=True,
        )
        if done.returncode:
            raise SystemExit(f"bench_search: {done.stderr.strip()}")
        report = json.loads(done.stdout)
        if catalog:
            sha = hashlib.sha256()
            with open(out, "rb") as handle:
                while block := handle.read(1 << 20):
                    sha.update(block)
            report["catalog_bytes"] = out.stat().st_size
            report["catalog_sha256"] = sha.hexdigest()
    return report


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
    args = parser.parse_args(argv)
    report = {
        "src": str(args.src),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "catalog": args.catalog,
        "runs": [
            run_bound(args.src, bound, args.k, args.format, args.catalog) for bound in args.bounds
        ],
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
