"""Time and size `bidouble search` at fixed bounds, one fresh process per bound.

Usage (from the root of a checkout; standard library only):

    python3 tools/bench_search.py 40 60 100 140 200
    python3 tools/bench_search.py --src OTHER_CHECKOUT/src 40 60
    python3 tools/bench_search.py --catalog 100 140

For each bound a child interpreter imports ``bidouble`` from ``--src``
(default: this checkout's ``src``), runs ``cli.main(["search", "--bound",
B])`` once with stdout going to a sink that keeps only a digest, and
reports:

- ``types``, ``buckets``, ``tuples``: the counts in the JSON head, so that
  runs of two versions can be checked to have done the same work
- ``stdout_bytes`` and ``stdout_sha256``
- ``stats``: the report line ``search`` writes on stderr, less its times
- ``kernel_s`` and ``emit_s``: the wall times of the kernel pass and of the
  stdout emit pass, from the same line
- ``total_s`` and ``peak_rss_mb`` (the child's own ``ru_maxrss``)

Versions that write no report line report ``null`` for ``stats``,
``kernel_s`` and ``emit_s``.  Commits ``c89fd10`` to ``e16921f`` write it
only behind ``search --stats``; to time their two passes, run the copy of
this script in that checkout.  With ``--catalog`` each run
also appends its tuples with ``--out`` to a new catalog in a temporary
directory, as ``search --out CATALOG --no-timestamp``, and reports
``catalog_bytes`` and ``catalog_sha256``; the catalog write is the part of
``total_s`` outside both passes.

The result is one JSON object on stdout.  Times depend on the machine and
its load; counts and digests do not.
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
import hashlib, io, json, re, resource, sys, time
sys.path.insert(0, sys.argv[1])
from bidouble import cli

class Sink(io.TextIOBase):
    def __init__(self):
        self.sha, self.size, self.head = hashlib.sha256(), 0, ""
    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)
        if len(self.head) < 4096:
            self.head += text[:4096]
        return len(text)

bound, out = sys.argv[2], sys.argv[3:]
argv = ["search", "--bound", bound, *(["--out", out[0], "--no-timestamp"] if out else [])]
sink, err, real = Sink(), io.StringIO(), (sys.stdout, sys.stderr)
sys.stdout, sys.stderr = sink, err
begun = time.perf_counter()
code = cli.main(argv)
total = time.perf_counter() - begun
sys.stdout, sys.stderr = real
counts = dict(re.findall(r'"(type_count|bucket_count|tuple_count)": (\d+)', sink.head))
stats = next(
    (json.loads(line) for line in err.getvalue().splitlines() if line.startswith("{")),
    None,
)
times = {"kernel_s": None, "emit_s": None}
if stats is not None:
    times = {name: round(stats.pop(name), 3) for name in times}
print(json.dumps({
    "bound": int(bound),
    "exit_code": code,
    "types": int(counts["type_count"]),
    "buckets": int(counts["bucket_count"]),
    "tuples": int(counts["tuple_count"]),
    "stdout_bytes": sink.size,
    "stdout_sha256": sink.sha.hexdigest(),
    **times,
    "total_s": round(total, 3),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "stats": stats,
}))
"""


def run_bound(src: Path, bound: int, catalog: bool) -> dict:
    """One fresh interpreter searching at ``bound``; its report as a dict."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "catalog.jsonl"
        done = subprocess.run(
            [sys.executable, "-c", CHILD, str(src), str(bound), *([str(out)] if catalog else [])],
            check=True,
            capture_output=True,
            text=True,
        )
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
        "runs": [run_bound(args.src, bound, args.catalog) for bound in args.bounds],
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
