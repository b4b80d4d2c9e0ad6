"""Bounded search for Catanese tuples, kernel on pairs of s-classes.

The admissibility constraints factor through the two pairs (a, n2) and
(m2, b): each must lie in P(bound) = {(x, y): y >= 3, x > 2*y, x <= bound,
x == y (mod 2)}, with no cross conditions.  A cover type is therefore an
ordered pair of members of P(bound), and the branch-swap involution exchanges
the two, so unordered pairs of P(bound) visit every involution orbit exactly
once and a run has exactly |P|(|P|+1)/2 types.

Every invariant the search needs depends on two even integers per branch
pair, s = x + y - 2 and d = x - y: the type built from pairs i <= j has
u, v, w, z = s_i, s_j, d_i, d_j, hence the key (K^2, chi) =
(8*s_i*s_j, (3*s_i*s_j - d_i*d_j)/2 + s_i + s_j + 2) and the index
r = gcd(s_i, s_j).  Within one value of s, d names the pair, so the kernel
works on s-classes, and each s-class is every even d in an interval, held as
a range.  For an unordered pair of s values sa <= sb, every cell has the
product P = sa*sb, the same index r and 2*chi = top - da*db, with
top = 3P + 2(sa + sb + 2), so each row da of the pair holds its 2*chi
values as an arithmetic progression of step 2*da.  As s and d are even,
every 2*chi is 0 mod 4.  For each P in ascending order the kernel lays out
each of the product's class pairs once, as one tuple that holds its index,
its top and its rows, and gives each value from the product's lowest 2*chi
upward, in steps of 4, a byte lane; each row sets its values with one
extended slice of lanes.  The product's keys are its lanes that are set.
When its class pairs carry at least k distinct indices, each index group
fills its own lane array, and the arrays added as integers count the groups
of each lane; the lanes that at least k groups share are the multi-index
keys.  One pass over the same class pair tuples recovers their cells
(:func:`_shared_buckets`): the members (x, y, d) of each s-class are built
once per run, d descending, and each row picks its cells from them with its
slice of those lanes.  A diagonal class pair (sa == sb) keeps only the cells
with db >= da, as its cells are unordered.

:func:`scan` is that kernel pass.  It stores each bucket with at least k
distinct indices as plain integers in flat arrays (its key, its cells'
fields in member order, and one pattern id) and fills every count of the
run without building a tuple.  Each product's cells are flattened into one
list once, from which the fields array takes them in one call and each
bucket its index tuple by a slice.  The pattern id names the bucket's tuple of
member indices in a table of the run's distinct ones: many buckets share
one (1,759 tuples for the 11,168 buckets at bound 80).  A bucket whose
index groups have sizes n_1, ..., n_g holds e_k(n_1, ..., n_g) tuples,
e_k being the k-th elementary symmetric polynomial, so it emits
min(cap, e_k) of them and is truncated exactly when e_k > cap; the kernel
computes that count once per table entry and stores it there.

A bucket's tuples are its k-subsets of members with pairwise distinct
indices, in member order, and a truncated bucket keeps the first ``cap``
of that walk, as ``max_results`` keeps the first tuples of the run.  The
walk depends only on the bucket's *shape*, its index tuple relabelled by
first occurrence ((18, 18, 36) becomes (0, 0, 1); 284 shapes at bound 80),
so :func:`walk` is run once per shape and gives the member positions of
every tuple.  :meth:`SearchScan.buckets` is the emit pass, and alone
decides which tuples a run emits: it takes each bucket's cells off one
cursor per array, in key order, up to the run's last tuple, with what its
caller prepares once per shape, so no global sort is needed and nothing
holds the whole result.  :func:`search` picks each tuple's members from
its bucket by its shape's positions into :class:`CataneseTuple` objects;
every output of the command line joins each bucket's text at once from a
plan of its shape (:mod:`bidouble.serialize`).

This module alone decides how a pass runs on processes, and both passes run
alike: :func:`scan` from :data:`FORK_MIN_TYPES` types, and
:meth:`SearchScan.emit` of an output's text, which :mod:`bidouble.serialize`
renders a range of buckets at a time, from :data:`FORK_MIN_TUPLES` kept
tuples.  :func:`_half` splits the costs in order (products by their class
pairs, buckets by their kept tuples) where they first reach half.  A child
forked by :func:`_forked` does the upper part while this process does the
lower one, then takes the child's part, or does the upper part itself when
``os.fork`` is missing or fails, no temporary file can be made, another
thread runs or the child fails.  :func:`_forked` owns the child's life: a
fork, an exit by ``os._exit`` that runs no ``atexit`` handler and writes
nothing of this process's buffers, the child's part handed back through an
unlinked temporary file under ``TMPDIR``, and a reap on every way out, a
killed one when the caller stops early.  :meth:`_Kernel.join` maps the
kernel child's pattern ids into this process's table, so what a run returns
and writes never depends on how many processes made it.

The kernel is the package's only path to the buckets.  The readable path,
which lists P(bound), pairs its members into canonical cover types and
buckets them by (K^2, chi) through :mod:`bidouble.covers` and
:mod:`bidouble.topology`, is the tests' oracle and lives with them.  The
tests check the kernel's buckets against it, and its tuples against every
k-subset of a bucket with pairwise distinct indices.  :func:`search` stays
because the benchmark harness builds its certificate inputs from it and
checks its type count.
"""

from __future__ import annotations

import gc
import itertools
import os
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from math import gcd
from operator import itemgetter
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

from .covers import DEFAULT_FIELD_CAP, CoverType
from .errors import BoundTooLarge, int_text, is_int
from .topology import HomeoClassKey

#: The per-bucket emission cap, read at run time so that tests can lower it.
DEFAULT_TUPLES_PER_BUCKET = 10_000

#: The most types a search may visit, read at run time so that tests can
#: lower it.  Bound 253 (29,556,516 types) is the largest admitted; bound 250
#: (28,151,256 types) took 22 s and 110 MB on a 2-core x86-64 VM.
MAX_SEARCH_TYPES = 30_000_000

#: The fewest types for which :func:`scan` runs in two processes, read at run
#: time so that tests can lower it.  A fork and a reap, with the copy-on-write
#: faults that follow, cost a few milliseconds on a 2-core x86-64 VM: bound 40
#: (11,781 types) lost 3 ms in two processes, bound 60 (71,631 types) gained
#: 5 ms on one day and lost 7 ms on another, and bound 80 (247,456 types) and
#: above gained in every run.
FORK_MIN_TYPES = 100_000

#: The fewest kept tuples for which :meth:`SearchScan.emit` renders in two
#: processes, read at run time so that tests can lower it.  On a 2-core x86-64
#: VM the JSON of bound 60 (6,856 tuples) gained 5 ms in two processes on one
#: day and lost 6 ms on another; that of bound 80 (30,911 tuples) and above
#: gained in every run.
FORK_MIN_TUPLES = 20_000

#: The most bytes of an emit child's text held at once, less than one chunk
#: of a JSON search output at k = 2 (about 350 KB).
_PIECE_BYTES = 1 << 18

#: What a caller of :meth:`SearchScan.buckets` prepares once per shape.
Prepared = TypeVar("Prepared")


@dataclass(frozen=True, slots=True)
class SearchConfig:
    """Parameters of one search run.

    ``bound`` (>= 3) caps every branch-data field; ``k`` (>= 2) is the tuple
    size; ``max_results`` (>= 0) truncates the sorted output when set.
    Construction raises :class:`ValueError` for a value that is not an
    ``int`` (a ``bool`` included) or is out of those ranges.
    Each homeomorphism class emits at most :data:`DEFAULT_TUPLES_PER_BUCKET`
    tuples, the first ones in member order.
    """

    bound: int
    k: int = 2
    max_results: int | None = None

    def __post_init__(self) -> None:
        for name in ("bound", "k", "max_results"):
            value = getattr(self, name)
            # A float k or max_results would fail only after the kernel pass.
            if not is_int(value) and not (name == "max_results" and value is None):
                raise ValueError(f"{name} must be an int, not {type(value).__name__}")
        if self.bound < 3:
            raise ValueError("bound must be >= 3")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.max_results is not None and self.max_results < 0:
            raise ValueError("max_results must be >= 0")


@dataclass(frozen=True, slots=True)
class CataneseTuple:
    """k canonical types sharing a key, with pairwise distinct indices."""

    key: HomeoClassKey
    members: tuple[CoverType, ...]
    indices: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class SearchResult:
    """Sorted tuples plus run statistics.

    ``truncated_buckets`` lists the keys whose per-bucket cap was hit;
    ``clipped`` reports whether ``max_results`` cut the sorted output.
    """

    tuples: tuple[CataneseTuple, ...]
    type_count: int
    bucket_count: int
    truncated_buckets: tuple[HomeoClassKey, ...]
    clipped: bool


@dataclass(frozen=True, slots=True)
class SearchStats:
    """The counts of one search run, all known when the kernel pass ends.

    ``pairs`` branch pairs make ``types`` = pairs*(pairs+1)/2 types under
    ``buckets`` homeomorphism keys; ``multi_index_buckets`` of those keys
    have at least k distinct indices, and ``cells`` types between them.
    ``tuples`` is the number of tuples emitted, after ``max_results``;
    ``truncated`` counts the buckets whose per-bucket cap was hit, and
    ``clipped`` reports whether ``max_results`` cut the output.
    """

    pairs: int
    types: int
    buckets: int
    multi_index_buckets: int
    cells: int
    tuples: int
    truncated: int
    clipped: bool


@dataclass(frozen=True, slots=True)
class SearchScan:
    """One kernel pass: the run's counts and its multi-index buckets as integers.

    Built by :func:`scan`.  Bucket b has the key ``keys[2b], keys[2b+1]``
    (K^2, chi) and the pattern ``patterns[b]``: its cells' indices, in
    member order, are ``index_tuples[patterns[b]]``, and it emits
    ``tuple_counts[patterns[b]]`` tuples, min(cap, e_k).  Its cells follow
    those of the buckets before it: cell c has the fields
    ``fields[4c:4c+4]``, and the cells of a bucket are in member order.
    Fields are 16-bit, which :data:`~bidouble.covers.DEFAULT_FIELD_CAP`
    keeps in range.  ``workers`` is the number of processes the kernel pass
    ran in, 1 or 2; it takes no part in equality, as nothing else of the run
    depends on it.
    """

    config: SearchConfig
    stats: SearchStats
    truncated_buckets: tuple[HomeoClassKey, ...]
    keys: array
    fields: array
    patterns: array
    index_tuples: tuple[tuple[int, ...], ...]
    tuple_counts: tuple[int, ...]
    workers: int = field(default=1, compare=False)

    def buckets(
        self,
        prepare: Callable[[bytes, int], Prepared],
        member: Callable[[tuple[int, int, int, int]], Any],
        first: int = 0,
        stop: int | None = None,
    ) -> Iterator[tuple[int, int, tuple[int, ...], tuple[Any, ...], Prepared, int]]:
        """The buckets of the run's tuples as ``(kk, chi, indices, members, prepared, count)``.

        Buckets come in key order, up to the run's last tuple, and the run
        keeps ``count`` tuples of each; only buckets ``first`` to ``stop``
        (exclusive, None for all) are handed over, with the counts the whole
        run gives them.  ``members`` are ``member`` of each
        cell's fields (a, b, m2, n2) in member order, called once per cell
        yielded.  ``prepared`` is ``prepare(positions, cells)``: the member
        positions of the first ``count`` tuples of the bucket's :func:`walk`,
        k per tuple, and its number of members.  It is called once per
        :func:`shape`, and once more for a bucket that ``max_results`` cuts.
        """
        k, index_tuples, tuple_counts = self.config.k, self.index_tuples, self.tuple_counts
        before = memoryview(self.patterns)[:first]
        cells = sum(map(len, map(index_tuples.__getitem__, before)))
        left = self.stats.tuples - sum(map(tuple_counts.__getitem__, before))
        # One cursor per array, each from bucket ``first``: each bucket takes
        # its cells off the front.
        keys = zip(*[iter(memoryview(self.keys)[2 * first :])] * 2)
        members = map(member, zip(*[iter(memoryview(self.fields)[4 * cells :])] * 4))
        by_shape: dict[bytes, Prepared] = {}
        by_pattern: list[Prepared | None] = [None] * len(index_tuples)
        for (kk, chi), pattern in zip(keys, memoryview(self.patterns)[first:stop]):
            if left <= 0:
                return
            indices = index_tuples[pattern]
            count = tuple_counts[pattern]
            if count > left:
                # max_results ends the run inside this bucket.
                count, prepared = left, prepare(walk(indices, k, left), len(indices))
            else:
                prepared = by_pattern[pattern]
                if prepared is None:
                    labels = shape(indices)
                    prepared = by_shape.get(labels)
                    if prepared is None:
                        positions = walk(labels, k, count)
                        prepared = by_shape[labels] = prepare(positions, len(labels))
                    by_pattern[pattern] = prepared
            left -= count
            yield kk, chi, indices, tuple(itertools.islice(members, len(indices))), prepared, count

    def emit(self, render: Callable[[int, int | None], Iterable[bytes]]) -> Iterator[bytes]:
        """The run's text in chunks, by ``render(first, stop)``: the text of buckets
        ``first`` to ``stop`` (exclusive, None for all), as it follows those before.

        A run that keeps at least :data:`FORK_MIN_TUPLES` tuples is split by
        :func:`_half` where its kept tuples first reach half, and a child
        forked by :func:`_forked` renders the upper buckets while this process
        renders and yields the lower ones.  The child's text follows in pieces
        of at most :data:`_PIECE_BYTES`; with no child, or a failed one, this
        process renders the upper buckets itself.  The text is the same either
        way; only its chunks differ.  ``workers`` does not count this pass.
        """
        split = None
        if self.stats.tuples >= FORK_MIN_TUPLES:
            split = _half(map(self.tuple_counts.__getitem__, self.patterns), self.stats.tuples)
        child = None if split is None else lambda handle: handle.writelines(render(split, None))
        with _forked(child) as finish:
            yield from render(0, split)
            written = finish and finish()
            if written is not None:
                yield from iter(partial(written.read, _PIECE_BYTES), b"")
            elif split is not None:
                yield from render(split, None)


def shape(indices: tuple[int, ...]) -> bytes:
    """``indices`` relabelled by first occurrence: (18, 18, 36) is bytes (0, 0, 1).

    A bucket has fewer than 256 distinct indices: its product has 10 index
    groups at most up to bound 253, the largest admitted.
    """
    labels = {r: label for label, r in enumerate(dict.fromkeys(indices))}
    return bytes(map(labels.__getitem__, indices))


def walk(labels: Sequence[int], k: int, limit: int) -> bytes:
    """The member positions of a bucket's first ``limit`` tuples, k per tuple.

    By definition a bucket's tuples are its k-subsets of members whose
    ``labels`` (indices, or their :func:`shape`) are pairwise distinct,
    taken in member order.  A position fits in a byte: a bucket has 23
    members at most up to bound 253.
    """
    chosen = itertools.compress(
        itertools.combinations(range(len(labels)), k),
        map(k.__eq__, map(len, map(set, itertools.combinations(labels, k)))),
    )
    return bytes(itertools.chain.from_iterable(itertools.islice(chosen, limit)))


def _s_classes(bound: int) -> dict[int, range]:
    """The s-classes of P(bound): each s = x + y - 2 with the d = x - y of its pairs.

    As (x, y) = ((s + 2 + d)/2, (s + 2 - d)/2), y >= 3, x > 2*y and x <= bound
    say (s + 2)/3 < d <= min(s - 4, 2*bound - s - 2), and equal parity says d
    is even; s is even too.  So each class is every even d in that interval,
    held as a range, and a class exists exactly when the interval holds one.
    """
    classes: dict[int, range] = {}
    # s runs from 8, at (x, y) = (7, 3), to below 1.5 * bound.
    for s in range(8, 2 * bound, 2):
        first = (s + 2) // 3 + 1
        ds = range(first + first % 2, min(s - 4, 2 * bound - s - 2) + 1, 2)
        if ds:
            classes[s] = ds
    return classes


def _elementary_symmetric(values: Iterable[int], k: int) -> int:
    """e_k(values): the sum over k-subsets of the product of their values."""
    e = [1] + [0] * k
    for value in values:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * value
    return e[k]


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; its state comes back on any exit.

    Everything a search builds is acyclic and freed by reference counting,
    so no memory waits on the collector; left running, it would walk the
    growing heap again and again.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _forked(
    work: Callable[[BinaryIO], object] | None,
) -> Iterator[Callable[[], BinaryIO | None] | None]:
    """Run ``work(handle)`` in a forked child while the body runs; ``handle``
    is an unlinked temporary file.

    Yields None, and forks nothing, when there is no ``work``, when
    ``os.fork`` is missing or raises, when no temporary file can be made, or
    when other threads run (a child would hold only this one).  Otherwise
    yields ``finish``: it waits for the child and returns ``handle`` at its
    start, or None when the child did not exit with 0.  The child never
    returns: it leaves by ``os._exit``, so it runs no ``atexit`` handler and
    flushes no buffer of this process, stdout's included, and an error in
    ``work`` is its exit code 1.  On any exit from the body, a generator
    closed early included, a child not yet waited for is killed and reaped.
    """
    threading = sys.modules.get("threading")
    if work is None or not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        yield None
        return
    import tempfile

    try:
        handle = tempfile.TemporaryFile()
    except OSError:
        yield None
        return
    with handle:
        try:
            pid = os.fork()
        except OSError:
            yield None
            return
        if pid == 0:
            code = 1
            try:
                work(handle)
                handle.flush()
                code = 0
            finally:
                os._exit(code)
        status: int | None = None

        def finish() -> BinaryIO | None:
            nonlocal status
            status = os.waitpid(pid, 0)[1]
            if os.waitstatus_to_exitcode(status):
                return None
            handle.seek(0)
            return handle

        try:
            yield finish
        finally:
            if status is None:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def scan(config: SearchConfig) -> SearchScan:
    """The kernel pass: bucket s-class pairs by product and store multi-index buckets.

    Each product's keys are counted on byte lanes, one per 2*chi, as the
    module docstring describes, from one row layout per class pair, built
    once per product and read again by :func:`_shared_buckets`.  The cells
    of a product's shared keys come from it in key and member order and are
    flattened once: the fields go into their array in one call, and each
    bucket's index tuple is a slice of the indices.  Every count of the run
    is known when it returns; no tuple is built until
    :meth:`SearchScan.buckets` is walked.

    A run of at least :data:`FORK_MIN_TYPES` types scans its products in
    two processes: :func:`_half` splits them in ascending order where their
    estimated cost reaches half of the whole, a child forked by
    :func:`_forked` scans the upper ones while this process scans the lower
    ones, and :meth:`_Kernel.join` appends the child's part as one process
    would have built it.  When the child cannot run or fails, this process
    scans the upper products itself.  The result is equal either way;
    ``workers`` says which way it went.

    Raises :class:`BoundTooLarge` above the global field cap, before any
    work, or when the run would visit more than :data:`MAX_SEARCH_TYPES`
    types, counted from :func:`_s_classes` before any lane work;
    :class:`SearchConfig` has already checked the other ranges.
    The pass runs under :func:`_collector_paused`.
    """
    if config.bound > DEFAULT_FIELD_CAP:
        raise BoundTooLarge(
            f"bound {int_text(config.bound)} exceeds the field cap {DEFAULT_FIELD_CAP}"
        )
    classes = _s_classes(config.bound)
    pair_count = sum(map(len, classes.values()))
    type_count = pair_count * (pair_count + 1) // 2
    if type_count > MAX_SEARCH_TYPES:
        raise BoundTooLarge(
            f"bound {config.bound} gives {type_count} types, "
            f"above the limit of {MAX_SEARCH_TYPES}"
        )
    s_values = sorted(classes)
    by_product: dict[int, list[tuple[int, int]]] = {}
    for position, sa in enumerate(s_values):
        for sb in s_values[position:]:
            by_product.setdefault(sa * sb, []).append((sa, sb))
    products = sorted(by_product)
    split = None
    if type_count >= FORK_MIN_TYPES:
        # A product's cost is estimated by its class pairs: at bounds 60 to
        # 200, the products below the half of that estimate took 47 to 49% of
        # the kernel's time, and those below the half of their types 68 to 75%.
        pairs = map(len, map(by_product.__getitem__, products))
        split = _half(pairs, sum(map(len, by_product.values())))
    lower, upper = (products, []) if split is None else (products[:split], products[split:])
    layout = (by_product, classes, config.k, DEFAULT_TUPLES_PER_BUCKET)
    kernel = _Kernel(*layout)
    workers = 1
    child = None if split is None else lambda handle: _Kernel(*layout).scan(upper).send(handle)
    with _collector_paused(), _forked(child) as finish:
        kernel.scan(lower)
        if finish is not None and kernel.join(finish()):
            workers = 2
        else:
            kernel.scan(upper)
    limit, cap = config.max_results, kernel.cap
    clipped = limit is not None and kernel.tuple_count > limit
    stats = SearchStats(
        pairs=pair_count,
        types=type_count,
        buckets=kernel.bucket_count,
        multi_index_buckets=len(kernel.patterns),
        cells=len(kernel.fields) // 4,
        tuples=limit if clipped else kernel.tuple_count,
        truncated=len(kernel.truncated),
        clipped=clipped,
    )
    return SearchScan(
        config,
        stats,
        tuple(kernel.truncated),
        kernel.keys,
        kernel.fields,
        kernel.patterns,
        tuple(kernel.pattern_ids),
        tuple(min(cap, e_k) for e_k in kernel.e_ks),
        workers,
    )


def _half(costs: Iterable[int], total: int) -> int | None:
    """How many of ``costs``, in order, first reach half of ``total``, or None
    when the costs after them hold nothing of it.

    The running sum is taken as it goes, not held: a list of it would hold
    an integer object per bucket, about 20 MB at bound 200.
    """
    held = 0
    for count, cost in enumerate(costs, 1):
        held += cost
        if 2 * held >= total:
            return count if held < total else None
    return None


class _Kernel:
    """What the kernel pass has built over the products scanned so far.

    The arrays, the truncated keys and the counts are those of
    :class:`SearchScan` and :class:`SearchStats`.  ``pattern_ids`` numbers
    the distinct index tuples met, in the order first met, and ``e_ks``
    holds the e_k of each: it depends only on a bucket's member indices,
    and many buckets share them.
    """

    __slots__ = (
        "by_product", "classes", "ends", "k", "cap", "keys", "fields", "patterns",
        "truncated", "bucket_count", "tuple_count", "pattern_ids", "e_ks",
    )

    def __init__(
        self, by_product: dict[int, list[tuple[int, int]]], classes: dict[int, range], k: int,
        cap: int,
    ) -> None:
        self.by_product, self.classes, self.k, self.cap = by_product, classes, k, cap
        # Each s-class's member ends (x, y, d), d descending as the lanes of
        # a row ascend: pair (s, d) is (x, y) = ((s + 2 + d)/2, (s + 2 - d)/2).
        self.ends = {
            s: [((s + 2 + d) // 2, (s + 2 - d) // 2, d) for d in ds[::-1]]
            for s, ds in classes.items()
        }
        self.keys, self.fields, self.patterns = array("q"), array("H"), array("L")
        self.truncated: list[HomeoClassKey] = []
        self.bucket_count = self.tuple_count = 0
        self.pattern_ids: dict[tuple[int, ...], int] = {}
        self.e_ks: list[int] = []

    def scan(self, products: list[int]) -> _Kernel:
        """Scan ``products``, ascending and above every product scanned before."""
        by_product, classes, ends, k, cap = (
            self.by_product, self.classes, self.ends, self.k, self.cap
        )
        keys, fields, patterns, truncated = self.keys, self.fields, self.patterns, self.truncated
        pattern_ids, e_ks = self.pattern_ids, self.e_ks
        bucket_count, tuple_count = self.bucket_count, self.tuple_count
        # Maps a lane's count of index groups to 1 when it is at least k.
        at_least_k = bytes(min(k, 256)).ljust(256, b"\x01")
        for product in products:
            # One row layout per class pair, which the lane fill and
            # _shared_buckets both read: (r, top, ds_a, last, span, diagonal,
            # ends_a, ends_b).  Cell (da, db) has the index r and 2*chi =
            # top - da*db, and db runs down the class of sb from its ``last``
            # d in ``span`` steps of 2.
            rows: list[tuple] = []
            by_index: dict[int, list[tuple]] = {}
            lowest: list[int] = []
            highest: list[int] = []
            for sa, sb in by_product[product]:
                r = gcd(sa, sb)
                ds_a, ds_b = classes[sa], classes[sb]
                top = 3 * product + 2 * (sa + sb + 2)
                last = ds_b[-1]
                row = (r, top, ds_a, last, len(ds_b) - 1, sa == sb, ends[sa], ends[sb])
                rows.append(row)
                by_index.setdefault(r, []).append(row)
                lowest.append(top - ds_a[-1] * last)
                highest.append(top - ds_a[0] * ds_b[0])
            # Lane 0 is the product's lowest 2*chi; the last lane its highest.
            base = min(lowest)
            size = (max(highest) - base) // 4 + 1
            # A byte lane per 2*chi, set to 1 where a cell has it: one lane
            # array per index group when there are at least k groups, else
            # one for the whole product, as fewer groups share no key.  Row
            # da sets its lanes (top - da*db - base)/4 with one extended slice.
            filled: list[bytearray] = []
            for group in by_index.values() if len(by_index) >= k else (rows,):
                lanes = bytearray(size)
                for _, top, ds_a, last, span, _, _, _ in group:
                    shift = top - base
                    ones = b"\x01" * (span + 1)
                    for da in ds_a:
                        step = da // 2
                        start = (shift - da * last) // 4
                        lanes[start : start + step * span + 1 : step] = ones
                filled.append(lanes)
            if len(by_index) < k:
                bucket_count += size - lanes.count(0)
                continue
            # Added as integers, the arrays give each lane its number of
            # groups.  A product has fewer than 256 groups (10 at most up to
            # bound 253, the largest admitted), so no lane carries into the next.
            total = sum(int.from_bytes(lanes, "little") for lanes in filled)
            groups_of = total.to_bytes(size, "little")
            bucket_count += size - groups_of.count(0)
            shared = groups_of.translate(at_least_k)
            twice_chis, buckets = _shared_buckets(shared, base, rows)
            sizes = list(map(len, buckets))
            # All the product's cells, flattened once: every fifth entry is
            # an index, the rest go into the fields array in one call.  Each
            # structure is dropped once the next is built, so that the
            # product's cells are held at most twice.
            flat = list(itertools.chain.from_iterable(itertools.chain.from_iterable(buckets)))
            del buckets
            indices = flat[4::5]
            del flat[4::5]
            fields.fromlist(flat)
            del flat
            kk = 8 * product
            product_keys = [kk, 0] * len(sizes)
            product_keys[1::2] = [twice_chi // 2 for twice_chi in twice_chis]
            keys.fromlist(product_keys)
            product_patterns: list[int] = []
            position = 0
            for twice_chi, cell_count in zip(twice_chis, sizes):
                cell_indices = tuple(indices[position : position + cell_count])
                position += cell_count
                pattern = pattern_ids.get(cell_indices)
                if pattern is None:
                    pattern = pattern_ids[cell_indices] = len(e_ks)
                    e_ks.append(
                        _elementary_symmetric(map(cell_indices.count, set(cell_indices)), k)
                    )
                count = e_ks[pattern]
                if count > cap:
                    truncated.append(HomeoClassKey(kk, twice_chi // 2))
                    count = cap
                tuple_count += count
                product_patterns.append(pattern)
            patterns.fromlist(product_patterns)
        self.bucket_count, self.tuple_count = bucket_count, tuple_count
        return self

    def send(self, handle: BinaryIO) -> None:
        """Write what was built to ``handle``, for :meth:`join` in another process."""
        import marshal

        head = marshal.dumps((
            len(self.keys), len(self.fields), len(self.patterns), tuple(self.pattern_ids),
            self.e_ks, list(itertools.chain.from_iterable(self.truncated)),
            self.bucket_count, self.tuple_count,
        ))
        # Its length first, so that join reads it in one call.
        handle.write(len(head).to_bytes(8, "little") + head)
        for built in (self.keys, self.fields, self.patterns):
            built.tofile(handle)

    def join(self, handle: BinaryIO | None) -> bool:
        """Append what :meth:`send` wrote to ``handle``, from a kernel over higher products.

        The result is what scanning those products here would have built:
        the sender's pattern ids are mapped through this table, and the
        index tuples new to it are appended in the sender's order, which is
        the order they were first met.  Returns False, with nothing changed,
        when ``handle`` is None or holds less than :meth:`send` writes.
        """
        if handle is None:
            return False
        import marshal

        lengths = len(self.keys), len(self.fields)
        patterns = array("L")
        try:
            head = handle.read(int.from_bytes(handle.read(8), "little"))
            key_count, field_count, pattern_count, tuples, e_ks, truncated, buckets, kept = (
                marshal.loads(head)
            )
            self.keys.fromfile(handle, key_count)
            self.fields.fromfile(handle, field_count)
            patterns.fromfile(handle, pattern_count)
        except (EOFError, ValueError, TypeError):
            del self.keys[lengths[0] :], self.fields[lengths[1] :]
            return False
        pattern_ids = self.pattern_ids
        remap = []
        for indices, e_k in zip(tuples, e_ks):
            pattern = pattern_ids.get(indices)
            if pattern is None:
                pattern = pattern_ids[indices] = len(self.e_ks)
                self.e_ks.append(e_k)
            remap.append(pattern)
        self.patterns.fromlist(list(map(remap.__getitem__, patterns)))
        self.truncated += itertools.starmap(HomeoClassKey, zip(*[iter(truncated)] * 2))
        self.bucket_count += buckets
        self.tuple_count += kept
        return True


def search(config: SearchConfig) -> SearchResult:
    """Run :func:`scan` and collect its tuples; the order is deterministic.

    Tuples are sorted by key and then by members, and ``max_results`` is
    applied after sorting; a truncated bucket keeps the first
    :data:`DEFAULT_TUPLES_PER_BUCKET` tuples of its :func:`walk`.
    Raises :class:`BoundTooLarge` as :func:`scan` does;
    :class:`SearchConfig` has already checked the other ranges.

    The collection, like the kernel pass, runs under
    :func:`_collector_paused`.  Members are cover types shared by the tuples
    of a bucket, and so are the keys.
    """
    run = scan(config)
    # A getter of the positions of a bucket's tuples, one per shape.
    buckets = run.buckets(
        lambda positions, cells: itemgetter(*positions), lambda fields: CoverType(*fields)
    )
    with _collector_paused():
        tuples = itertools.chain.from_iterable(
            # The getter hands back k entries per tuple, end to end.
            zip(
                itertools.repeat(HomeoClassKey(kk, chi)),
                zip(*[iter(select(members))] * config.k),
                zip(*[iter(select(indices))] * config.k),
            )
            for kk, chi, indices, members, select, _ in buckets
        )
        collected = tuple(itertools.starmap(CataneseTuple, tuples))
    return SearchResult(
        tuples=collected,
        type_count=run.stats.types,
        bucket_count=run.stats.buckets,
        truncated_buckets=run.truncated_buckets,
        clipped=run.stats.clipped,
    )


def _shared_buckets(
    shared: bytes, base: int, rows: list[tuple]
) -> tuple[list[int], list[list[tuple[int, int, int, int, int]]]]:
    """The 2*chi values whose lane is 1 in ``shared``, ascending, and each one's cells.

    Lane i of ``shared`` stands for 2*chi = base + 4*i, and ``rows`` are the
    product's class pairs as :func:`scan` lays them out.  A cell is
    ``(a, b, m2, n2, r)``, its canonical type and its index, and each 2*chi's
    cells are sorted, which is member order.  Each class pair is scanned
    once: each of its rows picks its cells from the member ends (x, y, d) of
    the class of sb, d descending, with the row's slice of ``shared``.  A
    diagonal class pair (sa == sb) keeps db >= da, since its cells are
    unordered, so its row da is cut to its first (last - da)/2 + 1 lanes.
    """
    cells: dict[int, list[tuple[int, int, int, int, int]]] = {}
    for r, top, _, last, span, diagonal, ends_a, ends_b in rows:
        shift = top - base
        for x1, y1, da in ends_a:
            step = da // 2
            start = (shift - da * last) // 4
            stop = start + step * ((last - da) // 2 if diagonal else span) + 1
            for x2, y2, db in itertools.compress(ends_b, shared[start:stop:step]):
                # The canonical type is the lex-min of (x1, y2, x2, y1) and
                # (x2, y1, x1, y2), as covers.canonicalize takes it; the
                # first two fields decide, since equal ones make them equal.
                if x1 < x2 or (x1 == x2 and y2 <= y1):
                    cell = (x1, y2, x2, y1, r)
                else:
                    cell = (x2, y1, x1, y2, r)
                twice_chi = top - da * db
                bucket = cells.get(twice_chi)
                if bucket is None:
                    cells[twice_chi] = [cell]
                else:
                    bucket.append(cell)
    twice_chis = sorted(cells)
    buckets = list(map(cells.__getitem__, twice_chis))
    for bucket in buckets:
        # Cells order as CoverType does, and no two cells share their fields.
        bucket.sort()
    return twice_chis, buckets
