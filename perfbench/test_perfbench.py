"""Checks of the benchmark harness itself, in seconds: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and done.stdout == ""


def test_oracle_agrees_with_the_package():
    from bidouble import CoverType, SearchConfig, search, surface_invariants

    rng = random.Random(0)
    for _ in range(200):
        t = inputs.random_type(rng)
        inv = surface_invariants(CoverType(*t))
        assert inputs.admissible(t) and inputs.invariants(t) == (inv.kk, inv.chi, inv.r)
        assert not inputs.admissible(inputs.inadmissible_type(rng))
    for bound in (20, 27):
        assert inputs.type_count(bound) == search(SearchConfig(bound=bound)).type_count


def test_inputs_depend_only_on_the_seed():
    pool = [{"key": [1, 1], "members": [[16, 22, 52, 4], [28, 10, 28, 10]], "indices": [18, 36]},
            {"key": [2, 2], "members": [[9, 3, 7, 3], [11, 3, 9, 5]], "indices": [2, 4]}]
    first = inputs.certify_requests(random.Random("s"), pool, 500)
    assert first == inputs.certify_requests(random.Random("s"), pool, 500)
    refused = sum(r["expect"] is None for r in first) / len(first)
    assert 0.05 < refused < 0.15


def test_tracer_self_time_excludes_nested_spans():
    import bidouble
    from bidouble import covers, discriminant, topology

    tracer = Tracer()
    original = topology.is_catanese_tuple
    tracer.install("bidouble.topology", "is_catanese_tuple", tracer.span("topology.is_catanese_tuple"))
    tracer.install("bidouble.discriminant", "zariski_certificate", tracer.span("discriminant.zariski_certificate"))
    tracer.install("bidouble.covers", "surface_invariants", tracer.counter("covers.surface_invariants"))
    try:
        # zariski_certificate finds is_catanese_tuple in its own module, so that copy is wrapped too.
        assert discriminant.is_catanese_tuple is not original
        bidouble.zariski_certificate([covers.CoverType(16, 22, 52, 4), covers.CoverType(28, 10, 28, 10)], [5])
    finally:
        tracer.uninstall()
    assert discriminant.is_catanese_tuple is original and topology.is_catanese_tuple is original
    summary = tracer.summary()
    inner, outer = summary["topology.is_catanese_tuple"], summary["discriminant.zariski_certificate"]
    assert inner["calls"] == outer["calls"] == 1
    assert inner["self_s"] == pytest.approx(inner["s"])
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    assert tracer.counts["covers.surface_invariants.calls"] == 4
