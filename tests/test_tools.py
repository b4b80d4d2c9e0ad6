"""Smoke test of the search bench script in tools/."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_search(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_search.py"), *args],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(done.stdout)


def test_bench_search_reports_the_bound_20_counts() -> None:
    (run,) = bench_search("20")["runs"]
    assert (run["bound"], run["exit_code"]) == (20, 0)
    assert (run["types"], run["buckets"], run["tuples"]) == (406, 356, 6)
    # The counts and times come from the report line search writes on stderr.
    stats = run["stats"]
    assert (stats["types"], stats["buckets"], stats["tuples"]) == (406, 356, 6)
    assert stats["multi_index_buckets"] <= stats["cells"]
    assert run["kernel_s"] >= 0 and run["emit_s"] >= 0
    assert run["peak_rss_mb"] > 0
    assert "catalog_bytes" not in run


def test_bench_search_digests_the_catalog_it_writes() -> None:
    (run,) = bench_search("--catalog", "20")["runs"]
    assert (run["exit_code"], run["tuples"]) == (0, 6)
    assert run["catalog_bytes"] > 0 and len(run["catalog_sha256"]) == 64


STUB_CLI = '''
import sys

def main(argv):
    sys.stdout.write(
        '{\\n  "type_count": 406,\\n  "bucket_count": 356,\\n  "tuple_count": 6,\\n  "tuples": []\\n}\\n'
    )
    return 0 if argv == ["search", "--bound", "20"] else 2
'''


def test_bench_search_reads_a_version_without_a_report(tmp_path: Path) -> None:
    # A bidouble whose search writes its JSON head and no report line.
    package = tmp_path / "bidouble"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI)
    (run,) = bench_search("--src", str(tmp_path), "20")["runs"]
    assert (run["exit_code"], run["types"], run["buckets"], run["tuples"]) == (0, 406, 356, 6)
    assert (run["stats"], run["kernel_s"], run["emit_s"]) == (None, None, None)
