"""Time a certificate's round trip through the catalog, layer by layer, in one process.

Usage (from the root of a checkout; standard library only):

    python3 tools/bench_certify.py
    python3 tools/bench_certify.py --src OTHER_CHECKOUT/src

A child interpreter, started inside ``--src`` (default: this checkout's
``src``), imports ``bidouble`` through the relative path entry ``.``, as
``tools/bench_search.py`` does, so that the paths it holds are the tree's
real path however ``--src`` is spelled.  It draws 400 certify requests
with ``random.Random(1)``: each is a pair or a
triple, either with even odds, drawn from the tuples of ``search --bound
60`` at that k, its members shuffled and each branch-swapped with even odds,
certified at the eight multiples 5 to 12; none is refused.  Each round then
times every layer over all the records in turn, each layer taking what the
one before it made:

- ``verdict``: ``topology.is_catanese_tuple`` of the members
- ``certificate``: ``discriminant.zariski_certificate`` (its own verdict included)
- ``view``: ``serialize.certificate_to_json``
- ``line``: ``catalog.record_to_line`` of the ``"certificate"`` record
- ``append``: ``catalog.write_chunks`` of one line to a catalog emptied
  before the round (open, lock, write, unlock, close)
- ``read_catalog``: ``catalog.read_catalog`` of that catalog, per line
- ``parse``: ``serialize.certificate_from_json`` of each payload read

The result is one JSON object on stdout: ``us_per_record`` gives each layer's
microseconds per record, the least over 15 rounds, as the least is the
round that other load disturbed least.  The run is refused, with a non-zero
exit, unless every verdict holds and every parsed certificate equals the
one made.  Times depend on the machine and its
load; alternate runs of two checkouts to compare them.
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
ROUNDS = 15
RECORDS = 400
SEED = 1

CHILD = r"""
import json, random, sys, time
sys.path.insert(0, ".")
from bidouble import catalog, discriminant, serialize, topology
from bidouble.covers import CoverType
from bidouble.search import SearchConfig, scan

path = sys.argv[1]
mults = list(range(5, 13))
pools = {
    k: json.loads("".join(serialize.search_to_json_chunks(scan(SearchConfig(bound=60, k=k)))))["tuples"]
    for k in (2, 3)
}
rng = random.Random(SEED)
requests = []
for _ in range(RECORDS):
    members = [CoverType(**member) for member in rng.choice(pools[rng.choice((2, 3))])["members"]]
    rng.shuffle(members)
    requests.append([CoverType(t.m2, t.n2, t.a, t.b) if rng.random() < 0.5 else t for t in members])

def timed(layer, make, inputs):
    # Per record: read_catalog is one call over all of them.
    begun = time.perf_counter()
    made = [make(item) for item in inputs]
    best[layer] = min(best.get(layer, float("inf")), (time.perf_counter() - begun) / RECORDS)
    return made

best = {}
for _ in range(ROUNDS):
    verdicts = timed("verdict", topology.is_catanese_tuple, requests)
    certificates = timed("certificate", lambda members: discriminant.zariski_certificate(members, mults), requests)
    views = timed("view", serialize.certificate_to_json, certificates)
    lines = timed("line", lambda view: catalog.record_to_line(catalog.CatalogRecord("certificate", view)), views)
    open(path, "wb").close()
    timed("append", lambda line: catalog.write_chunks([line + "\n"], path), lines)
    (records,) = timed("read_catalog", catalog.read_catalog, [path])
    parsed = timed("parse", lambda record: serialize.certificate_from_json(record.payload), records)
    if not all(verdict.is_catanese for verdict in verdicts):
        sys.exit("a request was refused")
    if parsed != certificates:
        sys.exit("a parsed certificate differs from the one made")
print(json.dumps({layer: round(seconds * 1e6, 1) for layer, seconds in best.items()}))
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="directory holding the bidouble package"
    )
    args = parser.parse_args(argv)
    child = f"ROUNDS, RECORDS, SEED = {ROUNDS}, {RECORDS}, {SEED}\n{CHILD}"
    with tempfile.TemporaryDirectory() as scratch:
        done = subprocess.run(
            [sys.executable, "-c", child, str(Path(scratch) / "catalog")],
            cwd=args.src,
            capture_output=True,
            text=True,
        )
    if done.returncode:
        raise SystemExit(f"bench_certify: {done.stderr.strip()}")
    report = {
        "src": str(args.src),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": ROUNDS,
        "records": RECORDS,
        "seed": SEED,
        "us_per_record": json.loads(done.stdout),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
