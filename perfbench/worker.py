"""One benchmark repetition, run by run.py in a fresh interpreter.

Protocol: a JSON job arrives on stdin; the worker imports the package from
the checkout's ``src``, prepares its inputs, prints ``ready``, runs the job
and prints one JSON result line.  Only the calls into the package are timed;
the checks of every output run between them, outside the timed regions.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import re
import signal
import sys
import time
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402  (the benchmark's own module, next to this file)
from tracer import Tracer  # noqa: E402

MAX_ERRORS = 5
#: Seconds of wall time between two speed probes that interrupt a long call.
PROBE_EVERY_S = 0.25
#: Rows of the small speed probe that runs between two short calls.
SMALL_PROBE_SIZE = 120
#: Duration of ``speed_probe(size)`` at the reference machine speed (a 2-core
#: x86-64 VM at 2 GHz when its host was quiet): about the fastest each probe
#: ran there inside a repetition.
PROBE_REF_S = {1000: 0.0013, SMALL_PROBE_SIZE: 0.00013}
#: Small probes at the start and again at the end of set-up.
SETUP_PROBES = 5


class _Row:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: str) -> None:
        self.a, self.b, self.c = a, b, c


def speed_probe(size: int = 1000) -> float:
    """Seconds taken by a fixed pure-Python task that does not touch the package.

    Objects, a sort, JSON, dict-of-set bucketing and gcd on ``size`` rows: the
    kinds of work the package does.  The collector is paused so the package's
    heap cannot slow it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [_Row(i, i * 3 % 101, str(i)) for i in range(size)]
        rows.sort(key=lambda r: (r.b, r.a))
        text = json.dumps([{"a": r.a, "b": r.b, "c": r.c} for r in rows[:size // 4]])
        groups: dict[int, set[int]] = {}
        for r in rows:
            groups.setdefault(r.b, set()).add(r.a << 16 | r.b)
        len(text) + len(groups) + sum(gcd(r.a, 1440) for r in rows)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


class _DigestSink(io.TextIOBase):
    """Discards what is written, keeping its SHA-256, its size and its head."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.size = 0
        self.head = ""

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.size += len(data)
        if len(self.head) < 4096:
            self.head += text[:4096]
        return len(text)


class Outcome:
    """Timed operations, failures and speed probes of one repetition.

    With ``between_ops`` (workloads of many short calls) a small
    ``speed_probe`` runs once before the first operation and again after each
    one ends, outside every timed region.  The machine's speed changes within
    milliseconds, so the probes on either side of a short call are what best
    tells how fast the machine ran it.  Otherwise (one long call) a SIGALRM
    handler runs the full probe every ``PROBE_EVERY_S``, in the middle of the
    call.  Timings leave out the time spent in probes, and each operation
    notes which probes ran before and after it.
    """

    def __init__(self, between_ops: bool) -> None:
        self.between_ops = between_ops
        self.probe_size = SMALL_PROBE_SIZE if between_ops else 1000
        self.op_s: list[float] = []
        self.op_probes: list[tuple[int, int]] = []
        self.busy_s = 0.0
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0
        self.extra: dict[str, float] = {}
        self.probe_s: list[float] = []
        self._probing_s = 0.0

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.probe_s.append(speed_probe(self.probe_size))
        self._probing_s += time.perf_counter() - start

    def begin(self) -> tuple[float, int]:
        return time.perf_counter() - self._probing_s, len(self.probe_s)

    def end(self, begun: tuple[float, int], is_op: bool = True) -> float:
        """Add the time since ``begin`` to the busy time, and to the operations if ``is_op``."""
        start, first_probe = begun
        elapsed = time.perf_counter() - self._probing_s - start
        self.busy_s += elapsed
        if is_op:
            self.op_s.append(elapsed)
            self.op_probes.append((first_probe, len(self.probe_s)))
        if self.between_ops:
            self._probe()
        return elapsed

    @contextlib.contextmanager
    def probing(self):
        if self.between_ops:
            self._probe()
            yield
        else:
            signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
            try:
                yield
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):  # a repetition shorter than the interval still gets probes
            self._probe()

    def check(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(error)

    def as_json(self) -> dict:
        return {"op_s": self.op_s, "op_probes": self.op_probes, "busy_s": self.busy_s,
                "attempted": self.attempted, "failed": self.failed, "errors": self.errors,
                "extra": self.extra, "probe_s": self.probe_s, "probe_ref_s": PROBE_REF_S[self.probe_size]}


def install_tracer() -> Tracer:
    """Wrap the layers of every workload; unused wrappers cost nothing."""
    tracer = Tracer()
    counts = tracer.counts

    def count_buckets(result):
        counts["search.group_by_homeo_class.buckets"] += len(result)

    def count_tuples(result):
        tuples, _ = result
        counts["search.extract_k_tuples.tuples"] += len(tuples)
        counts["search.extract_k_tuples.yielding"] += bool(tuples)

    def count_rejected(verdict):
        counts["topology.is_catanese_tuple.rejected"] += not verdict.is_catanese

    def count_records(records):
        counts["catalog.read_catalog.records"] += len(records)

    for key in ("search.group_by_homeo_class.buckets", "search.extract_k_tuples.tuples",
                "search.extract_k_tuples.yielding", "topology.is_catanese_tuple.rejected",
                "catalog.read_catalog.records"):
        counts[key] += 0
    spans = [
        ("bidouble.cli", "main", None),
        ("bidouble.cli", "build_parser", None),
        *[("bidouble.cli", "cmd_" + c.replace("-", "_"), None) for c in inputs.COMMANDS],
        ("bidouble.search", "search", None),
        ("bidouble.search", "group_by_homeo_class", count_buckets),
        ("bidouble.search", "extract_k_tuples", count_tuples),
        ("bidouble.serialize", "tuple_to_json", None),
        ("bidouble.serialize", "certificate_to_json", None),
        ("bidouble.serialize", "certificate_from_json", None),
        ("bidouble.topology", "is_catanese_tuple", count_rejected),
        ("bidouble.discriminant", "zariski_certificate", None),
        ("bidouble.catalog", "write_catalog", None),
        ("bidouble.catalog", "read_catalog", count_records),
        ("bidouble.paper_check", "verify_paper_example", None),
    ]
    for module, attr, after in spans:
        tracer.install(module, attr, tracer.span(f"{module[len('bidouble.'):]}.{attr}", after))
    tracer.install("bidouble.search", "enumerate_admissible", tracer.iterator("search.enumerate_admissible",
                                                                          "search.enumerate_admissible.types"))
    tracer.install("bidouble.covers", "surface_invariants", tracer.counter("covers.surface_invariants"))
    tracer.install("bidouble.discriminant", "discriminant_profile",
                   tracer.counter("discriminant.discriminant_profile"))
    return tracer


def setup_search(job):
    from bidouble import cli

    bound, want = job["bound"], job["expect"]

    def run(outcome: Outcome) -> None:
        sink = _DigestSink()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(_Discard()):
            begun = outcome.begin()
            code = cli.main(["search", "--bound", str(bound)])
            outcome.end(begun)
        counts = {k: int(v) for k, v in re.findall(r'"(type_count|bucket_count|tuple_count)": (\d+)', sink.head)}
        error = None
        if code != 0:
            error = f"search exited {code}"
        elif counts.get("type_count") != inputs.type_count(bound):
            error = f"type_count {counts.get('type_count')} != |P|(|P|+1)/2 = {inputs.type_count(bound)}"
        else:
            got = {"sha256": sink.sha.hexdigest(), "bytes": sink.size, **counts}
            bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
            if bad:
                error = f"search stdout differs from the frozen output: {bad}"
        outcome.check(error)

    return run


def _certificate_error(cert: dict, want: dict) -> str | None:
    kk, chi = want["key"]
    if cert["shared"] != {"kk": kk, "chi": chi}:
        return f"shared key {cert['shared']} != {want['key']}"
    if [list(m.values()) for m in cert["members"]] != want["members"] or cert["indices"] != want["indices"]:
        return f"members/indices {cert['members']} {cert['indices']} != {want['members']} {want['indices']}"
    if [p["mult"] for p in cert["profiles"]] != list(inputs.CERT_MULTS):
        return f"profiles cover multiples {[p['mult'] for p in cert['profiles']]}"
    if [s["step"] for s in cert["argument"]] != [1, 2, 3, 4, 5]:
        return "argument chain does not have steps 1..5"
    for p in cert["profiles"]:
        error = inputs.profile_error(p, kk, chi, p["mult"])
        if error:
            return error
    return None


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def setup_certify(job):
    from bidouble import catalog, discriminant, serialize, topology
    from bidouble.covers import CoverType
    from bidouble.errors import NotCatanese

    path = Path(job["catalog"])
    path.unlink(missing_ok=True)
    requests = [([CoverType(*m) for m in r["members"]], r["expect"]) for r in job["requests"]]
    mults = list(inputs.CERT_MULTS)
    read_every = job["read_every"]

    def read_back(outcome: Outcome, payloads: list, certs: list) -> None:
        begun = outcome.begin()
        records = catalog.read_catalog(path)
        parsed = [serialize.certificate_from_json(r.payload) for r in records]
        outcome.extra["read_s"] += outcome.end(begun, is_op=False)
        outcome.extra["records_read"] += len(records)
        error = None
        if [r.kind for r in records] != ["certificate"] * len(payloads):
            error = f"read {len(records)} records, wrote {len(payloads)} certificates"
        elif [_canonical(r.payload) for r in records] != payloads or list(map(repr, parsed)) != certs:
            error = "catalog read does not return what was written"
        outcome.check(error)

    def run(outcome: Outcome) -> None:
        outcome.extra.update(refused=0, read_s=0.0, records_read=0)
        payloads, certs = [], []
        for i, (types, want) in enumerate(requests, start=1):
            refused = verdict = None
            begun = outcome.begin()
            try:
                verdict = topology.is_catanese_tuple(types)
                cert = discriminant.zariski_certificate(types, mults)
                payload = serialize.certificate_to_json(cert)
                catalog.write_catalog([catalog.CatalogRecord(kind="certificate", payload=payload)], path)
            except Exception as exc:  # NotCatanese is expected; anything else fails the request
                refused = exc
            outcome.end(begun, is_op=want is not None and refused is None)
            if want is None:
                outcome.extra["refused"] += 1
                ok = isinstance(refused, NotCatanese) and verdict is not None and not verdict.is_catanese
                outcome.check(None if ok else f"request {i} should be refused, got {refused!r}")
            elif refused is not None:
                outcome.check(f"request {i} failed: {refused!r}")
            else:
                # Kept as strings, which the collector does not track, so that
                # what the harness keeps does not slow the collections inside
                # later requests.  repr of the frozen dataclasses is complete.
                payloads.append(_canonical(payload))
                certs.append(repr(cert))
                outcome.check(_certificate_error(payload, want) if verdict.is_catanese
                              else f"request {i}: verdict says not Catanese")
            if i % read_every == 0 or i == len(requests):
                read_back(outcome, payloads, certs)
        outcome.extra["catalog_bytes"] = path.stat().st_size if path.exists() else 0

    return run


def _cli_error(call: dict, code, text: str) -> str | None:
    want = call["expect"]
    where = " ".join(call["argv"])
    if code != want["code"]:
        return f"{where}: exit code {code}, want {want['code']}"
    table = want["csv"]
    if call["format"] == "csv" and table is not None:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or len(rows) - 1 != table["rows"]:
            return f"{where}: {len(rows) - 1} CSV rows, want {table['rows']}"
        if table["column"] is not None:
            if table["column"] not in rows[0]:
                return f"{where}: CSV header {rows[0]} lacks {table['column']}"
            col = rows[0].index(table["column"])
            if [row[col] for row in rows[1:]] != table["values"]:
                return f"{where}: CSV column {table['column']} != {table['values']}"
        return None
    try:
        got = json.loads(text)
    except ValueError:
        return f"{where}: output is not JSON"
    for path, value in want["json"]:
        node = got
        try:
            for key in path:
                node = node[key]
        except (KeyError, IndexError, TypeError):
            return f"{where}: JSON lacks {path}"
        if node != value:
            return f"{where}: JSON {path} = {node!r}, want {value!r}"
    return None


def setup_cli(job):
    from bidouble import cli

    def call(argv, outcome: Outcome | None = None):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(_Discard()):
            begun = outcome.begin() if outcome else None
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            if outcome:
                outcome.end(begun)
        return code, buffer.getvalue()

    for warm in job["warmup"]:
        call(warm["argv"])

    def run(outcome: Outcome) -> None:
        for spec in job["calls"]:
            code, text = call(spec["argv"], outcome)
            outcome.check(_cli_error(spec, code, text))

    return run


SETUPS = {"search-b80": setup_search, "certify-roundtrip": setup_certify, "cli-mix": setup_cli}


def main() -> None:
    # Small probes at both ends of set-up tell how fast the machine ran it.
    begun = time.perf_counter()
    setup_probes = [speed_probe(SMALL_PROBE_SIZE) for _ in range(SETUP_PROBES)]
    probing_s = time.perf_counter() - begun
    job = json.load(sys.stdin)
    import bidouble

    if Path(bidouble.__file__).resolve().parent != HERE.parent / "src" / "bidouble":
        raise SystemExit(f"imported bidouble from {bidouble.__file__}, not from this checkout")
    run = SETUPS[job["workload"]](job)
    tracer = install_tracer() if job["trace"] else None
    begun = time.perf_counter()
    setup_probes += [speed_probe(SMALL_PROBE_SIZE) for _ in range(SETUP_PROBES)]
    probing_s += time.perf_counter() - begun
    print("ready", flush=True)
    outcome = Outcome(between_ops=job["workload"] != "search-b80")
    with outcome.probing():
        run(outcome)
    result = outcome.as_json()
    result.update(setup_probe_s=setup_probes, setup_probing_s=probing_s,
                  setup_probe_ref_s=PROBE_REF_S[SMALL_PROBE_SIZE])
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
        with open(job["trace_file"], "a", encoding="utf-8") as handle:
            tracer.write(handle, job["rep"])
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
