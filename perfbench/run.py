"""Benchmark of the bidouble package: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload search-b80 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a checkout; the package is imported from ``src``.
Each repetition runs in a fresh child interpreter (``worker.py``), one child
at a time, and its peak RSS is that child's own ``ru_maxrss`` from
``os.wait4``.  Repetitions start until ``--seconds`` have passed, and at
least three run.  With ``--trace 1`` repetitions alternate between traced
and untraced, starting traced; per-layer metrics come from the traced ones
and the tracing overhead is traced minus untraced.  End-to-end times are
divided by the machine's slowness, measured by speed probes that run while
each repetition works (see README.md).  ``--smoke`` shrinks every workload so
that the harness itself can be checked in seconds.

Everything else this prints is a report; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Working files
(catalogs, span traces, the full result with its environment) go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from math import ceil
from pathlib import Path

import inputs  # the benchmark's own module, next to this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
MIN_REPS = 3
#: Every run, repetitions included, ends within this many seconds.
RUN_DEADLINE_S = 170.0
IMPORT_PROBE = "import time; t = time.perf_counter(); import bidouble.cli; print(time.perf_counter() - t)"

#: Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("search-b80", "certify-roundtrip", "cli-mix")

#: Sizes per workload, full and --smoke.
SIZES = {
    False: {"search_bound": 80, "certify_pool_bound": 60, "certify_batch": 2000, "read_every": 1000,
            "cli_pool_bound": 40, "cli_batch": 210},
    True: {"search_bound": 20, "certify_pool_bound": 30, "certify_batch": 40, "read_every": 10,
           "cli_pool_bound": 30, "cli_batch": 40},
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(pct / 100 * len(ordered)) - 1)]


def unit_of(name: str) -> str:
    """Unit of a figure that only the report prints, from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_mb", "MB"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "peak_rss": "ru_maxrss of each repetition's own child, read with os.wait4; median over repetitions",
    }


def build_pool(bound: int, expected: dict) -> tuple[list[dict], str | None]:
    """Catanese pairs and triples found by search at ``bound``, checked by the oracle."""
    from bidouble import SearchConfig, search

    pool, error = [], None
    for k in (2, 3):
        tuples = search(SearchConfig(bound=bound, k=k)).tuples
        if len(tuples) != expected["pool_sizes"][f"{bound}/{k}"]:
            error = f"search at bound {bound}, k={k} found {len(tuples)} tuples"
        pool += [{"key": [t.key.kk, t.key.chi], "members": [list(m.as_tuple()) for m in t.members],
                  "indices": list(t.indices)} for t in tuples]
    return pool, error or inputs.pool_error(pool)


def run_child(job: dict, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter; add its set-up time and peak RSS."""
    with open(WORK / "worker.stderr", "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=CHILD_ENV, text=True)
        timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            try:
                proc.stdin.write(json.dumps(job))
                proc.stdin.close()
            except BrokenPipeError:
                pass
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            line = proc.stdout.readline()
            proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        tail = (WORK / "worker.stderr").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"repetition {job['rep']} of {job['workload']} exited {proc.returncode}:\n{tail}")
    result = json.loads(line)
    result.update(setup_s=setup_s - result["setup_probing_s"], maxrss_kb=usage.ru_maxrss, traced=job["trace"])
    return result


def cold_sample(rng: random.Random, pool: list[dict], deadline: float) -> dict:
    """Bare interpreter, package import, and one cold ``python -m bidouble.cli invariants``."""

    def timed(argv):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=ROOT,
                              env=CHILD_ENV, timeout=max(1.0, deadline - time.perf_counter()))
        return time.perf_counter() - start, done

    interpreter_s, _ = timed(["-c", "pass"])
    _, probe = timed(["-c", IMPORT_PROBE])
    t = rng.choice(rng.choice(pool)["members"])
    call_s, done = timed(["-m", "bidouble.cli", "invariants", "--type", ",".join(map(str, t))])
    kk, chi, r = inputs.invariants(t)
    try:
        got = json.loads(done.stdout)
        ok = done.returncode == 0 and (got["kk"], got["chi"], got["r"]) == (kk, chi, r)
    except (ValueError, KeyError, TypeError):
        ok = False
    return {"interpreter_s": interpreter_s, "import_s": float(probe.stdout or "nan"), "call_s": call_s,
            "error": None if ok else f"cold invariants {t}: exit {done.returncode}, {done.stdout[:200]!r}"}


def make_job(workload: str, size: dict, expected: dict, seed: int, rep: int, traced: bool,
             pool: list[dict]) -> dict:
    rng = random.Random(f"{workload}/{seed}/{rep}")
    job = {"workload": workload, "rep": rep, "trace": traced,
           "trace_file": str(WORK / f"trace-{workload}.jsonl")}
    if workload == "search-b80":
        job.update(bound=size["search_bound"], expect=expected["search_cli"][str(size["search_bound"])])
    elif workload == "certify-roundtrip":
        job.update(catalog=str(WORK / "certify-catalog.jsonl"), read_every=size["read_every"],
                   requests=inputs.certify_requests(rng, pool, size["certify_batch"]))
    else:
        counts = expected["search_counts"]
        # The same warm-up in every repetition and for every seed, so that set-up times compare.
        block = inputs.cli_calls(random.Random("warmup"), pool, counts, 70)
        warmup = [c for command in inputs.COMMANDS for c in [c for c in block if c["command"] == command][:2]]
        job.update(calls=inputs.cli_calls(rng, pool, counts, size["cli_batch"]), warmup=warmup)
    return job


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """All repetitions of one workload: raw samples, attempted operations and failures."""
    size = SIZES[smoke]
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    pool, pool_s, errors, attempted = [], 0.0, [], 0
    if workload != "search-b80":
        bound = size["certify_pool_bound" if workload == "certify-roundtrip" else "cli_pool_bound"]
        start = time.perf_counter()
        pool, error = build_pool(bound, expected)
        pool_s = time.perf_counter() - start
        attempted += 1
        errors += [error] if error else []
    (WORK / f"trace-{workload}.jsonl").write_text("", encoding="utf-8")
    cold_rng = random.Random(f"cold/{seed}")
    reps, cold = [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        traced = trace and len(reps) % 2 == 0
        reps.append(run_child(make_job(workload, size, expected, seed, len(reps), traced, pool), deadline))
        if workload == "cli-mix":
            cold.append(cold_sample(cold_rng, pool, deadline))
    failed = len(errors) + sum(r["failed"] for r in reps) + sum(s["error"] is not None for s in cold)
    errors += [e for r in reps for e in r["errors"]] + [s["error"] for s in cold if s["error"]]
    attempted += sum(r["attempted"] for r in reps) + len(cold)
    return {"reps": reps, "cold": cold, "pool_build_s": pool_s, "attempted": attempted,
            "failed": failed, "errors": errors}


def slowness(rep: dict) -> float:
    """How much slower than the reference the machine ran during a repetition.

    The median of the repetition's speed probes over their time at the
    reference speed (``worker.PROBE_REF_S``).  On a shared host the same work
    can take twice as long for minutes at a time; dividing times by this
    factor keeps most of that drift out of the figures.
    """
    return statistics.median(rep["probe_s"]) / rep["probe_ref_s"]


def setup_slowness(rep: dict) -> float:
    """Slowness during set-up: the median of the probes at its start and end."""
    return statistics.median(rep["setup_probe_s"]) / rep["setup_probe_ref_s"]


def op_slowness(rep: dict) -> list[float]:
    """Slowness around each operation: the probes that ran during it and the one on each side.

    Their mean, not their median: an operation's time adds up the slowness of
    every moment it runs, bursts included.
    """
    probes = rep["probe_s"]
    return [statistics.fmean(probes[max(0, first - 1):last + 1]) / rep["probe_ref_s"]
            for first, last in rep["op_probes"]]


def end_to_end(reps: list[dict], scaled: bool = True) -> dict[str, tuple[float, int]]:
    """(value, sample count) of each end-to-end metric over the given repetitions.

    ``op_p99_ms`` is printed in the report but is not in BENCHMARK.json: on a
    shared host the slowest 1% of sub-millisecond requests is set by the
    host's bursts more than by the program, and it spread by 9-26% between
    runs of the same code.

    Unless ``scaled`` is false, each operation's time is divided by the
    slowness around it, set-up time by the slowness during set-up, and other
    busy time by the repetition's.
    """
    ops, busy, setup = [], 0.0, []
    for rep in reps:
        factor = slowness(rep) if scaled else 1.0
        own = [s / f for s, f in zip(rep["op_s"], op_slowness(rep))] if scaled else rep["op_s"]
        ops += own
        busy += (rep["busy_s"] - sum(rep["op_s"])) / factor + sum(own)
        setup.append(rep["setup_s"] / (setup_slowness(rep) if scaled else 1.0))
    return {
        "setup_s": (statistics.median(setup), len(reps)),
        "op_p50_ms": (statistics.median(ops) * 1e3, len(ops)),
        "op_p95_ms": (percentile(ops, 95) * 1e3, len(ops)),
        "op_p99_ms": (percentile(ops, 99) * 1e3, len(ops)),
        "ops_per_s": (len(ops) / busy, len(ops)),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in reps) / 1024, len(reps)),
    }


def workload_view(workload: str, run: dict, reps: list[dict]) -> dict[str, tuple[float, int]]:
    """The end-to-end figures under the names the workload's users know them by."""
    e2e = end_to_end(reps)
    p50, p99, rate = e2e["op_p50_ms"], e2e["op_p99_ms"], e2e["ops_per_s"]
    out = {"failed_ratio": (run["failed"] / run["attempted"], run["attempted"])}
    if workload == "search-b80":
        out["search_s"] = (p50[0] / 1e3, p50[1])
    elif workload == "certify-roundtrip":
        read_s = sum(r["extra"]["read_s"] / slowness(r) for r in reps)
        records = sum(r["extra"]["records_read"] for r in reps)
        out.update(cert_p50_ms=p50, cert_p99_ms=p99, certs_per_s=rate,
                   read_records_per_s=(records / read_s if read_s else 0.0, records))
    else:
        cold = run["cold"]
        out.update(call_p50_ms=p50, call_p99_ms=p99, calls_per_s=rate,
                   cold_call_s=(statistics.median(s["call_s"] for s in cold), len(cold)))
    return out


def per_layer(workload: str, run: dict) -> dict[str, tuple[float, int]]:
    """Per-layer metrics: span and count totals per traced repetition, plus the tracing overhead."""
    traced = [r for r in run["reps"] if r["traced"]]
    plain = [r for r in run["reps"] if not r["traced"]]
    n = len(traced)
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for rep in traced:
        for name, row in rep["layers"].items():
            total = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field, value in row.items():
                total[field] += value
        for name, value in rep["counts"].items():
            counts[name] = counts.get(name, 0) + value
    out = {f"{name}.{field}": (value / n, n) for name, row in spans.items() for field, value in row.items()}
    out.update({name: (value / n, n) for name, value in counts.items()})
    extract_calls = spans.get("search.extract_k_tuples", {}).get("calls", 0)
    out["search.extract_k_tuples.yield_ratio"] = (
        counts["search.extract_k_tuples.yielding"] / extract_calls if extract_calls else 0.0, n)
    out["catalog.write_catalog.bytes"] = (sum(r["extra"].get("catalog_bytes", 0) for r in traced) / n, n)
    cold = run["cold"]
    for field in ("interpreter_s", "import_s", "call_s"):
        out[f"cold.{field}"] = (statistics.median(s[field] for s in cold) if cold else 0.0, len(cold))
    plain_view = workload_view(workload, run, plain)
    out["read_records_per_s"] = plain_view.get("read_records_per_s", (0.0, 0))
    traced_p50, plain_p50 = end_to_end(traced)["op_p50_ms"], end_to_end(plain)["op_p50_ms"]
    out["trace.overhead_ms"] = (traced_p50[0] - plain_p50[0], min(traced_p50[1], plain_p50[1]))
    return out


def report(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> dict:
    """Run one workload, print its report and return the result for the last line."""
    run = run_workload(workload, seed, seconds, trace, smoke)
    reps = [r for r in run["reps"] if not r["traced"]]
    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = per_layer(workload, run) if trace else end_to_end(reps)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    env = environment()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"# workload {workload} ({why[workload]})")
    print(f"# seed {seed}, {seconds:g} s, trace {int(trace)}{', smoke' if smoke else ''}; "
          f"{len(run['reps'])} repetitions, {sum(r['traced'] for r in run['reps'])} traced; "
          f"pool build {run['pool_build_s']:.3f} s")
    print("# env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for m in wanted:
        value, count = measured[m["name"]]
        print(f"{m['name']:<44} {value:>16.6g} {m['unit']:<6} n={count}")
    if not trace:
        for name, (value, count) in end_to_end(reps, scaled=False).items():
            print(f"# unscaled {name:<33} {value:>16.6g} {unit_of(name):<6} n={count}")
    print(f"# slowness {statistics.median(map(slowness, run['reps'])):.4g} (median probe over its reference time), "
          f"per repetition {[round(slowness(r), 3) for r in run['reps']]}")
    for name, (value, count) in workload_view(workload, run, reps).items():
        print(f"# {name:<42} {value:>16.6g} {unit_of(name):<6} n={count}")
    for error in run["errors"][:10]:
        print(f"# FAILED: {error}")
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in wanted}
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}
    full = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
            "environment": env, "result": result, "pool_build_s": run["pool_build_s"],
            "samples": {name: count for name, (_, count) in measured.items()},
            "workload_view": workload_view(workload, run, reps) if reps else {},
            "errors": run["errors"],
            "unscaled": end_to_end(reps, scaled=False) if reps else {},
            "repetitions": [{k: r[k] for k in ("setup_s", "maxrss_kb", "traced", "busy_s", "attempted",
                                               "failed", "extra", "probe_s")}
                            | {"ops": len(r["op_s"]), "slowness": slowness(r)} for r in run["reps"]]}
    (WORK / f"result-{workload}-trace{int(trace)}.json").write_text(json.dumps(full, indent=1),
                                                                   encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run (ignored with --workload all, which runs both)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, to check the harness itself")
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "bidouble" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/bidouble and BENCHMARK.json (looked in {ROOT})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bidouble

    if Path(bidouble.__file__).resolve().parent != SRC / "bidouble":
        print(f"error: imported bidouble from {bidouble.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            result = report(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, spec)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (False, True):
                    part = report(workload, args.seed, args.seconds, trace, args.smoke, spec)
                    result["correct"] &= part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    result["metrics"].update({f"{workload}/{k}": v for k, v in part["metrics"].items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
