"""Smoke test of the search bench script in tools/."""

from __future__ import annotations

import importlib.util
import json
import os
import py_compile
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


def test_bench_search_passes_k_on_to_search() -> None:
    (run,) = bench_search("--k", "3", "40")["runs"]
    assert (run["bound"], run["k"], run["exit_code"]) == (40, 3, 0)
    assert (run["types"], run["buckets"], run["tuples"]) == (11781, 8416, 33)
    assert (run["stats"]["multi_index_buckets"], run["stats"]["cells"]) == (18, 65)


def test_bench_search_passes_format_on_to_search() -> None:
    (run,) = bench_search("--format", "csv", "20")["runs"]
    assert (run["bound"], run["format"], run["exit_code"]) == (20, "csv", 0)
    assert (run["types"], run["buckets"], run["tuples"]) == (406, 356, 6)
    # The header and six rows of `search --bound 20 --format csv`.
    assert run["stdout_bytes"] == 231
    assert run["stdout_sha256"] == (
        "09f1663cd7e404d02717608ae13db6710a6001db40daf2901b2dc3d86634ed65"
    )


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
    return 0 if argv == ["search", "--bound", "20", "--k", "2", "--format", "json"] else 2
'''


def test_bench_search_refuses_a_version_without_a_report(tmp_path: Path) -> None:
    # A bidouble whose search writes its JSON head and no report line: the
    # counts are read from that line alone, so the run cannot be reported.
    package = tmp_path / "bidouble"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_search.py"), "--src", str(tmp_path), "20"],
        capture_output=True,
        text=True,
    )
    assert done.returncode != 0 and done.stdout == ""
    assert "search --bound 20 wrote no report line on stderr" in done.stderr
    assert "Traceback" not in done.stderr


STUB_REPORTING_CLI = '''
import json, os, sys

def main(argv):
    report = {"types": 406, "buckets": 356, "tuples": 6, "kernel_s": 0.0, "emit_s": 0.0}
    report.update(cwd=os.getcwd(), entry=sys.path[0], file=__file__)
    print(json.dumps(report), file=sys.stderr)
    return 0
'''


def test_bench_search_runs_the_child_inside_the_tree_however_src_is_spelled(
    tmp_path: Path,
) -> None:
    # The paths a child holds move its heap layout, and so its peak RSS:
    # they must be the tree's real path, whatever spelling --src is given.
    tree = tmp_path / "tree"
    package = tree / "bidouble"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_REPORTING_CLI)
    (tmp_path / "a").symlink_to(tree)
    (tmp_path / "a-much-longer-spelling").symlink_to(tree)
    real = os.path.realpath(tree)
    seen = []
    for src in (tree, tmp_path / "a", tmp_path / "a-much-longer-spelling"):
        (run,) = bench_search("--src", str(src), "20")["runs"]
        seen.append(run["stats"])
    assert seen[0] == seen[1] == seen[2]
    assert seen[0]["entry"] == "."
    assert seen[0]["cwd"] == real
    assert seen[0]["file"] == os.path.join(real, "bidouble", "cli.py")


STUB_TIMED_CLI = '''
import json, sys

def main(argv):
    report = {"types": 406, "buckets": 356, "tuples": 6, "kernel_s": 0.000537, "emit_s": 0.001204}
    print(json.dumps(report), file=sys.stderr)
    return 0
'''


def test_bench_search_keeps_the_report_line_times_to_the_microsecond(tmp_path: Path) -> None:
    # At bounds 20-30 the kernel pass takes about a millisecond, so times
    # cut to 3 decimals would hide a 10% change.
    package = tmp_path / "bidouble"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_TIMED_CLI)
    (run,) = bench_search("--src", str(tmp_path), "20")["runs"]
    assert (run["kernel_s"], run["emit_s"]) == (0.000537, 0.001204)
    assert run["total_s"] == round(run["total_s"], 6)
    assert "kernel_s" not in run["stats"] and "emit_s" not in run["stats"]


STUB_FORKING_CLI = '''
import json, os, sys

def main(argv):
    # A child that holds 64 MiB, as a process forked by search holds its part.
    pid = os.fork()
    if pid == 0:
        block = bytearray(64 << 20)
        block[::4096] = b"\\1" * len(block[::4096])
        os._exit(0)
    os.waitpid(pid, 0)
    report = {"types": 406, "buckets": 356, "tuples": 6, "kernel_s": 0.0, "emit_s": 0.0}
    print(json.dumps(report), file=sys.stderr)
    return 0
'''


def test_bench_search_counts_the_memory_of_a_forked_child(tmp_path: Path) -> None:
    package = tmp_path / "bidouble"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_FORKING_CLI)
    (run,) = bench_search("--src", str(tmp_path), "20")["runs"]
    assert run["peak_rss_mb"] >= 64


def test_bench_search_repeats_the_calls_in_one_process() -> None:
    report = bench_search("--repeat", "3", "--catalog", "20")
    assert report["repeat"] == 3
    (run,) = report["runs"]
    assert (run["types"], run["buckets"], run["tuples"]) == (406, 356, 6)
    assert run["stdout_sha256"] == (
        "a1264d036001e0cd653d060b1b12719e05896fb2d01805a618bf0e11c7f4e331"
    )
    # Each call writes a catalog of its own six lines.
    assert run["catalog_bytes"] == 1078
    assert set(run["rest_median"]) == {"kernel_s", "emit_s", "total_s"}
    assert all(value >= 0 for value in run["rest_median"].values())
    assert 0 < run["first_call_peak_rss_mb"] <= run["peak_rss_mb"]
    single = bench_search("20")["runs"][0]
    assert "rest_median" not in single and "first_call_peak_rss_mb" not in single


STUB_GROWING_CLI = '''
import json, sys

held = []

def main(argv):
    # Each call keeps 16 MiB more, as a heap that grows between calls does.
    block = bytearray(16 << 20)
    block[::4096] = b"\\1" * len(block[::4096])
    held.append(block)
    sys.stdout.write("tuples\\n")
    report = {"types": 406, "buckets": 356, "tuples": 6, "kernel_s": 0.0, "emit_s": 0.0}
    print(json.dumps(report), file=sys.stderr)
    return 0
'''


def test_bench_search_reports_the_first_call_peak_beside_that_of_all(tmp_path: Path) -> None:
    package = tmp_path / "bidouble"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_GROWING_CLI)
    (run,) = bench_search("--src", str(tmp_path), "--repeat", "3", "20")["runs"]
    (single,) = bench_search("--src", str(tmp_path), "20")["runs"]
    # Three calls hold 48 MiB, the first 16 MiB, as one call alone does.
    assert run["peak_rss_mb"] - run["first_call_peak_rss_mb"] >= 30
    assert abs(run["first_call_peak_rss_mb"] - single["peak_rss_mb"]) < 4


STUB_DRIFTING_CLI = '''
import json, sys

calls = []

def main(argv):
    calls.append(1)
    sys.stdout.write("call %d\\n" % len(calls))
    report = {"types": 406, "buckets": 356, "tuples": 6, "kernel_s": 0.0, "emit_s": 0.0}
    print(json.dumps(report), file=sys.stderr)
    return 0
'''


def test_bench_search_refuses_calls_whose_stdout_differs(tmp_path: Path) -> None:
    package = tmp_path / "bidouble"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_DRIFTING_CLI)
    argv = [sys.executable, str(ROOT / "tools" / "bench_search.py"), "--src", str(tmp_path)]
    done = subprocess.run([*argv, "--repeat", "2", "20"], capture_output=True, text=True)
    assert done.returncode != 0 and done.stdout == ""
    assert "stdout_sha256 differs between the 2 calls" in done.stderr
    assert bench_search("--src", str(tmp_path), "20")["runs"][0]["stdout_bytes"] == 7


def bench_pairs(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), *args],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(done.stdout)


def test_bench_pairs_runs_this_checkout_against_itself() -> None:
    report = bench_pairs(
        str(ROOT), str(ROOT), "--workload", "cli-mix", "--seeds", "1", "--seconds", "0.1", "--smoke"
    )
    assert report["invalid"] == []
    (pair,) = report["pairs"]
    assert (pair["seed"], pair["first"]) == (1, "parent")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(report["metrics"]) == [metric["name"] for metric in spec["end_to_end"]]
    for row in report["metrics"].values():
        assert (row["parent"]["n"], row["change"]["n"], row["pairs"]) == (1, 1, 1)
        assert row["parent"]["median"] > 0 and row["change"]["median"] > 0
        # One pair is too few to claim a gain.
        assert row["gain"] is False


# A stand-in harness: its result line for each seed, or None for no line.
STUB_RUN = '''
import json, sys
RESULTS = {results!r}
result = RESULTS[sys.argv[sys.argv.index("--seed") + 1]]
if result is None:
    sys.exit(1)
print("# report")
print(json.dumps(result))
'''


def stub_checkout(root: Path, results: dict[str, dict | None]) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(results=results))
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return root


def stub_result(ops_per_s: float, p50: float, correct: bool = True) -> dict:
    metrics = {"setup_s": 0.1, "op_p50_ms": p50, "op_p95_ms": 2 * p50,
               "ops_per_s": ops_per_s, "peak_rss_mb": 22.0}
    return {"correct": correct, "attempted": 100, "failed": 0 if correct else 1,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}


def test_bench_pairs_leaves_invalid_runs_out(tmp_path: Path) -> None:
    parent = stub_checkout(tmp_path / "parent", {
        "1": stub_result(700.0, 1.2),
        "2": stub_result(-34.91, 1.2),  # impossible
        "3": stub_result(700.0, 1.1, correct=False),
        "4": stub_result(750.0, 1.1),
    })
    change = stub_checkout(tmp_path / "change", {
        "1": stub_result(3000.0, 0.2),
        "2": stub_result(3000.0, 0.2),
        "3": stub_result(3000.0, 0.2),
        "4": None,  # no result line
    })
    report = bench_pairs(str(parent), str(change), "--workload", "cli-mix", "--seeds", "1-4",
                         "--seconds", "1")
    assert [(p["seed"], p["first"]) for p in report["pairs"]] == [
        (1, "parent"), (2, "change"), (3, "parent"), (4, "change"),
    ]
    assert [(i["seed"], i["side"]) for i in report["invalid"]] == [
        (2, "parent"), (3, "parent"), (4, "change"),
    ]
    rate = report["metrics"]["ops_per_s"]
    assert (rate["parent"]["n"], rate["change"]["n"], rate["pairs"]) == (2, 3, 1)
    assert rate["parent"]["median"] == 725.0 and rate["change"]["median"] == 3000.0
    assert rate["change_wins"] == 1 and rate["gain"] is False
    assert report["metrics"]["op_p50_ms"]["change_wins"] == 1
    assert report["metrics"]["peak_rss_mb"]["change_wins"] == 0  # a tie


# A stand-in harness that is correct only when the checkout's src/mod.py has
# bytecode that matches it: the timestamp pyc header holds the source mtime.
STUB_RUN_FRESH = '''
import importlib.util, json, pathlib, struct
source = pathlib.Path("src/mod.py")
pyc = pathlib.Path(importlib.util.cache_from_source(str(source)))
fresh = pyc.exists() and struct.unpack("<I", pyc.read_bytes()[8:12])[0] == int(source.stat().st_mtime)
result = {results!r}["1"]
result["correct"] = fresh
print(json.dumps(result))
'''


def test_bench_pairs_compiles_each_checkout_before_the_first_pair(tmp_path: Path) -> None:
    # Copied checkouts can carry __pycache__ files older than their sources.
    roots = []
    for side in ("parent", "change"):
        root = stub_checkout(tmp_path / side, {"1": stub_result(700.0, 1.2)})
        (root / "perfbench" / "run.py").write_text(
            STUB_RUN_FRESH.format(results={"1": stub_result(700.0, 1.2)})
        )
        source = root / "src" / "mod.py"
        source.parent.mkdir()
        source.write_text("VALUE = 1\n")
        py_compile.compile(str(source))
        mtime = source.stat().st_mtime + 100
        os.utime(source, (mtime, mtime))
        pyc = Path(importlib.util.cache_from_source(str(source)))
        assert int.from_bytes(pyc.read_bytes()[8:12], "little") != int(mtime)
        roots.append(str(root))
    report = bench_pairs(*roots, "--workload", "cli-mix", "--seeds", "1", "--seconds", "1")
    assert report["invalid"] == []
    assert report["metrics"]["ops_per_s"]["pairs"] == 1


# The same stand-in, which also moves the mtime of src/mod.py after seed 1,
# as an edit while the pairs run would.
STUB_RUN_TOUCH = STUB_RUN_FRESH + '''
import os, sys
if sys.argv[sys.argv.index("--seed") + 1] == "1":
    mtime = source.stat().st_mtime + 100
    os.utime(source, (mtime, mtime))
'''


def test_bench_pairs_compiles_each_checkout_before_every_run(tmp_path: Path) -> None:
    roots = []
    for side in ("parent", "change"):
        root = stub_checkout(tmp_path / side, {"1": stub_result(700.0, 1.2)})
        (root / "perfbench" / "run.py").write_text(
            STUB_RUN_TOUCH.format(results={"1": stub_result(700.0, 1.2)})
        )
        (root / "src").mkdir()
        (root / "src" / "mod.py").write_text("VALUE = 1\n")
        roots.append(str(root))
    report = bench_pairs(*roots, "--workload", "cli-mix", "--seeds", "1-2", "--seconds", "1")
    assert report["invalid"] == []
    assert report["metrics"]["ops_per_s"]["pairs"] == 2
