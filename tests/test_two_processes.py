"""The kernel and emit passes of a large search, run in two processes.

Whatever the processes do, a run's arrays, tables, counts and output bytes
must be those of one process, and no child may outlive the call that
forked it.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest

import bidouble
from bidouble.cli import main
from bidouble.search import DEFAULT_TUPLES_PER_BUCKET, SearchConfig, SearchScan, scan
from bidouble.serialize import (
    search_to_catalog_chunks,
    search_to_csv_chunks,
    search_to_json_chunks,
)

search_module = importlib.import_module("bidouble.search")
serialize_module = importlib.import_module("bidouble.serialize")

#: `search --bound 80` on stdout, as the benchmark pins it.
BOUND_80_JSON = "7885e3a1d96a6edc9d5000ad48ed839b9a0f76f1630dd0f7a5c4225bbd1897a2"

NEVER = 10**18


def no_child_left() -> None:
    """This process has no child, running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def each_test_leaves_no_child() -> Iterator[None]:
    no_child_left()
    yield
    no_child_left()


def forking(monkeypatch: pytest.MonkeyPatch, kernel: bool, emit: bool) -> None:
    """Fork the kernel pass, the emit pass, both or neither, whatever the run's size."""
    monkeypatch.setattr(search_module, "FORK_MIN_TYPES", 0 if kernel else NEVER)
    monkeypatch.setattr(search_module, "FORK_MIN_TUPLES", 0 if emit else NEVER)


def cap_buckets_at(monkeypatch: pytest.MonkeyPatch, cap: int) -> None:
    monkeypatch.setattr(search_module, "DEFAULT_TUPLES_PER_BUCKET", cap)


def both_ways(monkeypatch: pytest.MonkeyPatch, config: SearchConfig) -> tuple[SearchScan, SearchScan]:
    forking(monkeypatch, kernel=False, emit=False)
    one = scan(config)
    forking(monkeypatch, kernel=True, emit=False)
    two = scan(config)
    return one, two


def split_product(config: SearchConfig) -> int:
    """The first product :func:`scan` leaves to the child."""
    classes = search_module._s_classes(config.bound)
    s_values = sorted(classes)
    by_product: dict[int, list[tuple[int, int]]] = {}
    for position, sa in enumerate(s_values):
        for sb in s_values[position:]:
            by_product.setdefault(sa * sb, []).append((sa, sb))
    costs = [len(pairs) for _, pairs in sorted(by_product.items())]
    return sorted(by_product)[search_module._half(costs, sum(costs))]


@pytest.mark.parametrize("cap", [2, DEFAULT_TUPLES_PER_BUCKET])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("bound", [40, 60, 80])
def test_scan_in_two_processes_equals_one_process(
    bound: int, k: int, cap: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    cap_buckets_at(monkeypatch, cap)
    config = SearchConfig(bound=bound, k=k)
    one, two = both_ways(monkeypatch, config)
    assert (one.workers, two.workers) == (1, 2)
    for name in SearchScan.__dataclass_fields__:
        if name != "workers":
            assert getattr(two, name) == getattr(one, name), name
    assert two == one
    if k == 2:
        # Stored buckets, and with a cap of 2 truncated ones, fall on both
        # sides of the split.
        boundary = 8 * split_product(config)
        assert one.keys[0] < boundary <= one.keys[-2]
        if cap == 2:
            assert min(one.truncated_buckets)[0] < boundary <= max(one.truncated_buckets)[0]


def test_scan_of_a_few_products_is_equal_either_way(monkeypatch: pytest.MonkeyPatch) -> None:
    # From one product, which leaves the child nothing, to a few.
    for bound in (7, 8, 9, 10, 12):
        one, two = both_ways(monkeypatch, SearchConfig(bound=bound))
        assert two == one


def kept_before_split(run: SearchScan) -> int:
    split = search_module._half(map(run.tuple_counts.__getitem__, run.patterns), run.stats.tuples)
    assert split is not None
    return sum(run.tuple_counts[pattern] for pattern in run.patterns[:split])


OUTPUTS: dict[str, Callable[[SearchScan], Iterator[str]]] = {
    "json": search_to_json_chunks,
    "csv": search_to_csv_chunks,
    "catalog": lambda run: search_to_catalog_chunks(run, "2026-10-20T00:00:00+00:00"),
}


@pytest.mark.parametrize("output", list(OUTPUTS))
def test_emit_in_two_processes_gives_the_bytes_of_one(
    output: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    render = OUTPUTS[output]
    whole = scan(SearchConfig(bound=60))
    at_split, last = kept_before_split(whole), whole.stats.tuples
    for limit in sorted({0, 1, at_split - 1, at_split, at_split + 1, last - 1, last}) + [None]:
        run = scan(SearchConfig(bound=60, max_results=limit))
        forking(monkeypatch, kernel=False, emit=False)
        one = "".join(render(run))
        forking(monkeypatch, kernel=False, emit=True)
        assert "".join(render(run)) == one, limit


def test_half_splits_the_products_where_the_kernel_split_them() -> None:
    # The kernel's rule before _half served it: a bisect over the prefix
    # sums of each product's class pairs, with no fork when the split
    # leaves the child no product.
    for bound in range(7, 254):
        s_values = sorted(search_module._s_classes(bound))
        pairs = Counter(sa * sb for sa, sb in itertools.combinations_with_replacement(s_values, 2))
        costs = [pairs[product] for product in sorted(pairs)]
        sums = list(itertools.accumulate(costs))
        split = bisect.bisect_left(sums, sums[-1] / 2) + 1
        expected = split if split < len(costs) else None
        assert search_module._half(iter(costs), sums[-1]) == expected, bound


def split_at_half(run: SearchScan) -> int | None:
    """The emit's rule before _half served it."""
    kept = itertools.accumulate(map(run.tuple_counts.__getitem__, run.patterns))
    half = (run.stats.tuples + 1) // 2
    split, total = next((i, total) for i, total in enumerate(kept, 1) if total >= half)
    return split if total < run.stats.tuples and split < len(run.patterns) else None


@pytest.mark.parametrize("bound", [40, 60, 80])
def test_half_splits_the_buckets_where_the_emit_split_them(bound: int) -> None:
    whole = scan(SearchConfig(bound=bound))
    at_split = sum(whole.tuple_counts[p] for p in whole.patterns[: split_at_half(whole)])
    last = whole.stats.tuples
    for limit in [None, 0, 1, at_split - 1, at_split, at_split + 1, last - 1, last]:
        run = scan(SearchConfig(bound=bound, max_results=limit))
        costs = map(run.tuple_counts.__getitem__, run.patterns)
        assert search_module._half(costs, run.stats.tuples) == split_at_half(run), limit


def test_buckets_of_two_ranges_are_the_buckets_of_the_whole() -> None:
    run = scan(SearchConfig(bound=60, k=3, max_results=300))

    def taken(*bounds: int | None) -> list[tuple]:
        return [
            (kk, chi, indices, members, count)
            for kk, chi, indices, members, _, count in run.buckets(
                lambda positions, cells: positions, lambda fields: fields, *bounds
            )
        ]

    whole = taken()
    for split in (0, 1, len(whole) // 2, len(whole) - 1, len(whole), len(run.patterns)):
        assert taken(0, split) + taken(split) == whole
    assert sum(count for *_, count in whole) == 300


def call(argv: list[str], stdout: Any) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)`` writing to ``stdout``."""
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, io.StringIO()
    try:
        code = main(argv)
        err = sys.stderr.getvalue()
    finally:
        sys.stdout, sys.stderr = real
    return code, err


class Digest(io.TextIOBase):
    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)


def report(err: str) -> dict[str, Any]:
    return json.loads(err.splitlines()[-1])


def test_search_at_bound_80_runs_on_two_processes_and_reaps_them() -> None:
    sink = Digest()
    code, err = call(["search", "--bound", "80"], sink)
    assert code == 0
    assert sink.sha.hexdigest() == BOUND_80_JSON
    assert report(err)["workers"] == 2


def test_a_failing_fork_runs_the_search_in_one_process(monkeypatch: pytest.MonkeyPatch) -> None:
    def failing_fork() -> int:
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    sink = Digest()
    code, err = call(["search", "--bound", "80"], sink)
    assert code == 0
    assert sink.sha.hexdigest() == BOUND_80_JSON
    assert report(err)["workers"] == 1


def test_no_temporary_file_runs_the_search_in_one_process(monkeypatch: pytest.MonkeyPatch) -> None:
    import tempfile

    def failing_file() -> Any:
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", failing_file)
    sink = Digest()
    code, err = call(["search", "--bound", "80"], sink)
    assert code == 0
    assert sink.sha.hexdigest() == BOUND_80_JSON
    assert report(err)["workers"] == 1


def test_a_missing_fork_runs_the_search_in_one_process(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delattr(os, "fork")
    sink = Digest()
    assert call(["search", "--bound", "80"], sink)[0] == 0
    assert sink.sha.hexdigest() == BOUND_80_JSON


def test_another_thread_keeps_the_search_in_one_process() -> None:
    # A forked child would hold only the thread that forked it.
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        sink = Digest()
        code, err = call(["search", "--bound", "80"], sink)
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert code == 0
    assert sink.sha.hexdigest() == BOUND_80_JSON
    assert report(err)["workers"] == 1


def in_child_only(real: Callable[..., Any]) -> Callable[..., Any]:
    """``real``, which fails when called in a process forked from this one."""
    parent = os.getpid()

    def wrapped(*args: Any, **kwargs: Any) -> Any:
        if os.getpid() != parent:
            raise RuntimeError("the child failed")
        return real(*args, **kwargs)

    return wrapped


def test_a_child_that_exits_1_leaves_its_range_to_the_parent(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(search_module._Kernel, "send", in_child_only(search_module._Kernel.send))
    monkeypatch.setattr(serialize_module, "_rendered", in_child_only(serialize_module._rendered))
    sink = Digest()
    code, err = call(["search", "--bound", "80"], sink)
    assert code == 0
    assert sink.sha.hexdigest() == BOUND_80_JSON
    assert report(err)["workers"] == 1


def failing_file() -> Any:
    raise OSError(28, "No space left on device")


#: Each way an emit that would fork renders its upper buckets in this process.
#: The test makes every emit child fail, so the last needs no patch of its own.
EMIT_FALLBACKS: dict[str, Callable[[pytest.MonkeyPatch], None]] = {
    "no os.fork": lambda patch: patch.delattr(os, "fork"),
    "no temporary file": lambda patch: patch.setattr(tempfile, "TemporaryFile", failing_file),
    "a child that exits 1": lambda patch: None,
}


@pytest.mark.parametrize("output", list(OUTPUTS))
def test_every_emit_fallback_is_one_path(output: str, monkeypatch: pytest.MonkeyPatch) -> None:
    render = OUTPUTS[output]
    run = scan(SearchConfig(bound=80))
    with monkeypatch.context() as patch:
        forking(patch, kernel=False, emit=False)
        whole = "".join(render(run))
    if output == "json":
        # The command writes a newline after the view.
        assert hashlib.sha256(f"{whole}\n".encode()).hexdigest() == BOUND_80_JSON
    split = search_module._half(map(run.tuple_counts.__getitem__, run.patterns), run.stats.tuples)
    assert split is not None
    ranges: list[tuple[int, int | None]] = []
    real_rendered = serialize_module._rendered

    def rendered(run: SearchScan, cut: Any, separator: bytes, *first_stop: Any) -> Any:
        ranges.append(first_stop)
        return real_rendered(run, cut, separator, *first_stop)

    monkeypatch.setattr(serialize_module, "_rendered", in_child_only(rendered))
    chunk_lists = []
    for fallback in EMIT_FALLBACKS.values():
        ranges.clear()
        with monkeypatch.context() as patch:
            fallback(patch)
            chunks = list(render(run))
        # The lower buckets, then the upper ones, both rendered here.
        assert ranges == [(0, split), (split, None)]
        assert "".join(chunks) == whole
        chunk_lists.append(chunks)
    assert chunk_lists[1] == chunk_lists[0] and chunk_lists[2] == chunk_lists[0]


#: Where a kernel child's part is cut short.
SHORT_PARTS = [
    "to nothing", "inside the head", "inside the keys", "inside the fields",
    "inside the patterns", "by its last byte",
]


def kernel_state(kernel: Any) -> tuple:
    return (
        kernel.keys.tobytes(), kernel.fields.tobytes(), kernel.patterns.tobytes(),
        list(kernel.pattern_ids.items()), list(kernel.e_ks), list(kernel.truncated),
        kernel.bucket_count, kernel.tuple_count,
    )


@pytest.mark.parametrize("cut", SHORT_PARTS)
def test_a_child_that_sends_short_output_leaves_its_range_to_the_parent(
    cut: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    real_send, real_join = search_module._Kernel.send, search_module._Kernel.join

    def short_send(self: Any, handle: Any) -> None:
        real_send(self, handle)
        # The head, then the three arrays.
        total = handle.tell()
        keys, fields, patterns = (len(a) * a.itemsize for a in (self.keys, self.fields, self.patterns))
        # A failed assertion is an exit code 1, which join sees as no handle.
        assert keys and fields and patterns
        head = total - keys - fields - patterns
        ends = dict(zip(SHORT_PARTS, (
            0, head // 2, head + keys // 2, head + keys + fields // 2, total - patterns // 2,
            total - 1,
        )))
        handle.truncate(ends[cut])

    joins = []

    def checked_join(self: Any, handle: Any) -> bool:
        before = kernel_state(self)
        joined = real_join(self, handle)
        joins.append((handle is not None, joined, kernel_state(self) == before))
        return joined

    monkeypatch.setattr(search_module._Kernel, "send", short_send)
    monkeypatch.setattr(search_module._Kernel, "join", checked_join)
    config = SearchConfig(bound=80, k=3)
    forking(monkeypatch, kernel=False, emit=False)
    one = scan(config)
    joins.clear()
    forking(monkeypatch, kernel=True, emit=False)
    two = scan(config)
    # The child exited 0 and its part was refused, leaving the kernel as it was.
    assert joins == [(True, False, True)]
    assert two == one and two.workers == 1


def test_half_of_no_costs_is_no_split() -> None:
    assert search_module._half(iter(()), 0) is None
    assert search_module._half([], 10) is None


def test_a_stdout_closed_early_leaves_no_child(monkeypatch: pytest.MonkeyPatch) -> None:
    # As `bidouble search --bound 80 | head -c 100`: the reader is gone
    # while the emit's child still renders.
    outcomes = []
    for emit in (False, True):
        forking(monkeypatch, kernel=True, emit=emit)
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", closefd=True) as stdout:
            outcomes.append(call(["search", "--bound", "80"], stdout))
        no_child_left()
    assert outcomes[0] == outcomes[1]
    code, err = outcomes[1]
    assert code == 1 and err.startswith("error: [Errno 32] Broken pipe")


def test_an_out_write_failing_midway_leaves_no_child(
    monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    catalog_module = importlib.import_module("bidouble.catalog")
    real_write_chunks = catalog_module.write_chunks

    def failing_after_one_chunk(chunks: Iterator[str], path: Any) -> int:
        def taken() -> Iterator[str]:
            yield next(iter(chunks))
            raise OSError(28, "No space left on device")

        return real_write_chunks(taken(), path)

    monkeypatch.setattr(catalog_module, "write_chunks", failing_after_one_chunk)
    outcomes = []
    for emit in (False, True):
        forking(monkeypatch, kernel=True, emit=emit)
        path = tmp_path / f"catalog-{emit}.jsonl"
        path.write_text("")
        stdout = io.StringIO()
        code, err = call(["search", "--bound", "80", "--out", str(path)], stdout)
        no_child_left()
        assert path.read_text() == ""
        outcomes.append((code, stdout.getvalue(), err.replace(str(path), "PATH")))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[1]
    assert code == 1 and json.loads(out)["error"] == "IoError"
    assert err == "error: [Errno 28] No space left on device\n"


def test_the_child_flushes_nothing_of_the_parent_and_runs_no_atexit(tmp_path: Path) -> None:
    # Text left in the stdout buffer before the fork, and an atexit
    # handler, each appear once: the child leaves by os._exit.
    src = Path(bidouble.__file__).resolve().parent.parent
    script = (
        "import atexit, sys\n"
        "from bidouble import cli\n"
        "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
        "sys.stdout.write('before ')\n"
        "sys.exit(cli.main(['search', '--bound', '80']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
    )
    assert done.returncode == 0
    assert done.stdout.startswith(b"before {")
    assert hashlib.sha256(done.stdout[len(b"before ") :]).hexdigest() == BOUND_80_JSON
    err = done.stderr.decode()
    assert err.count("atexit ran") == 1
    assert json.loads(err.splitlines()[0])["workers"] == 2
