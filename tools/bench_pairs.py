"""Alternating parent/change runs of the perfbench harness, summarised per metric.

Usage (standard library only):

    python3 tools/bench_pairs.py PARENT CHANGE --workload cli-mix --seeds 1-10 --seconds 30
    python3 tools/bench_pairs.py . . --workload cli-mix --seeds 1 --seconds 0.1 --smoke

PARENT and CHANGE are the roots of two checkouts.  Before every run, the
checkout's ``src`` is byte-compiled with ``compileall``, by this script's
interpreter, which also runs the harness: a checkout whose ``__pycache__``
no longer matches its sources, because it was copied or because a source
changed while the pairs ran, would otherwise recompile the package in
every run (under ``PYTHONDONTWRITEBYTECODE``), and its ``setup_s`` would
read the compiler, not the code.  ``compileall`` skips the files whose
bytecode is current, so this costs little.  For each seed the script
runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
(plus ``--smoke`` if given) once in each checkout, one run at a time, each
with its own checkout's harness; odd pairs run the parent first and even
pairs the change first.  From each run it reads the last line of stdout,
the harness's result object.

A run is invalid, and is listed with its reason and left out of every
median and every pair, when it exits non-zero or prints no result line,
when its result says ``correct`` is false, or when a metric is impossible:
negative or not finite, or ``ops_per_s`` at or below 0.

The result is one JSON object on stdout.  For each end-to-end metric of
``BENCHMARK.json`` (read from CHANGE) it gives each side's median and
quartiles over its valid runs, the change's ratio to the parent's median,
and the pairs the change won, ties counting for neither side.  ``gain`` is
true when there are at least ten valid pairs, the change won at least nine
tenths of them, and its median is better than the parent's by more than the
distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

#: Valid pairs needed before a gain can be claimed.
MIN_PAIRS_FOR_GAIN = 10


def seed_list(text: str) -> list[int]:
    """``1-10`` or ``1,2,5`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def compile_sources(root: Path) -> None:
    """Byte-compile ``root/src``, if there is one, as the harness's imports would."""
    if (root / "src").is_dir():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                       check=True, capture_output=True)


def run_once(root: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One harness run in ``root``: its metric values, or the reason it is invalid."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", *(["--smoke"] if smoke else [])]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {name: float(m["value"]) for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return {"invalid": f"exit {done.returncode}, no result line; stderr {done.stderr[-300:]!r}"}
    if done.returncode != 0:
        return {"invalid": f"exit {done.returncode}"}
    if result.get("correct") is not True:
        return {"invalid": f"correct is {result.get('correct')!r}, failed {result.get('failed')}"}
    bad = {name: v for name, v in values.items() if not math.isfinite(v) or v < 0}
    if values.get("ops_per_s", 1.0) <= 0:
        bad["ops_per_s"] = values["ops_per_s"]
    if bad:
        return {"invalid": f"impossible values {bad}"}
    return {"metrics": values, "attempted": result["attempted"], "failed": result["failed"]}


def spread(values: list[float]) -> dict:
    """Median, quartiles and count; all null when there are no values."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summary(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's spread over its valid runs and the pairs the change won."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        sides = {side: [p[side]["metrics"][name] for p in pairs if "metrics" in p[side]]
                 for side in ("parent", "change")}
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name])
                for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
        wins = sum(sign * (new - old) > 0 for old, new in both)
        parent, change = spread(sides["parent"]), spread(sides["change"])
        row = {"better": metric["better"], "parent": parent, "change": change,
               "ratio": None, "change_wins": wins, "pairs": len(both), "gain": False}
        if parent["median"] and change["median"] is not None:
            row["ratio"] = change["median"] / parent["median"]
            margin = sign * (change["median"] - parent["median"])
            row["gain"] = (len(both) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(both)
                           and margin > parent["q3"] - parent["q1"])
        out[name] = row
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 1,3,7")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true", help="pass --smoke to the harness")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair: dict = {"seed": seed, "first": order[0]}
        for side in order:
            compile_sources(roots[side])
            pair[side] = run_once(roots[side], args.workload, seed, args.seconds, args.smoke)
            print(f"# seed {seed} {side}: {pair[side].get('invalid') or pair[side]['metrics']}",
                  file=sys.stderr)
        pairs.append(pair)
    invalid = [{"seed": p["seed"], "side": side, "reason": p[side]["invalid"]}
               for p in pairs for side in ("parent", "change") if "invalid" in p[side]]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "invalid": invalid,
        "metrics": summary(pairs, spec["end_to_end"]),
        "pairs": pairs,
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
