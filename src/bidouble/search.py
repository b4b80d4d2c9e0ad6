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
product P = sa*sb, the index gcd(sa, sb) and
2*chi = 3P + 2(sa + sb + 2) - da*db, so each row da of the pair holds its
2*chi values as one range of step -2*da.  For each P in ascending order the
kernel counts the keys from those row ranges, skips P when its class pairs
carry fewer than k distinct indices, keeps the chi values that at least k
index groups share, and recovers their cells in one pass over each class
pair that holds one of them: each row's range meets the wanted values in
one intersection.

:func:`scan` is that kernel pass.  It stores each bucket with at least k
distinct indices as plain integers in flat arrays (its key, its cells'
fields and indices in member order, its end offset) and fills every count
of the run without building a tuple: a bucket whose index groups have sizes
n_1, ..., n_g holds e_k(n_1, ..., n_g) tuples, e_k being the k-th
elementary symmetric polynomial, so it emits min(cap, e_k) of them and is
truncated exactly when e_k > cap.  The count depends only on the bucket's
tuple of member indices, and many buckets share one, so the kernel computes
it once per distinct index tuple of the run.  :meth:`SearchScan.rows` is the
emit pass: it walks the stored buckets in key order and yields each tuple
as a row of plain integers, sorted by members within its bucket, so no
global sort is needed and nothing holds the whole result.  The command
line renders its output straight from those rows; :func:`search` collects
them into :class:`CataneseTuple` objects.  A bucket within the cap is
walked by the definition, its k-subsets in member order filtered to those
with pairwise distinct indices; :func:`_index_subsets` is the cap's
selection rule and runs only for a truncated bucket.

The kernel is the package's only path to the buckets.  The readable path,
which lists P(bound), pairs its members into canonical cover types and
buckets them by (K^2, chi) through :mod:`bidouble.covers` and
:mod:`bidouble.topology`, is the tests' oracle and lives with them, so
``enumerate_admissible``, ``group_by_homeo_class`` and ``HomeoClassBucket``
are no longer public names.  The tests check the kernel's buckets against
it, and its tuples against every k-subset of a bucket with pairwise distinct
indices.  :func:`search` stays because the benchmark harness builds its
certificate inputs from it and checks its type count.
"""

from __future__ import annotations

import gc
import itertools
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from .covers import DEFAULT_FIELD_CAP, CoverType
from .errors import BoundTooLarge, int_text
from .topology import HomeoClassKey

#: The per-bucket emission cap, read at run time so that tests can lower it.
DEFAULT_TUPLES_PER_BUCKET = 10_000

#: The most types a search may visit, read at run time so that tests can
#: lower it.  Bound 253 (29,556,516 types) is the largest admitted; bound 250
#: (28,151,256 types) took 22 s and 110 MB on a 2-core x86-64 VM.
MAX_SEARCH_TYPES = 30_000_000

#: One tuple as the emit pass yields it: kk, chi, the members (field tuples
#: a, b, m2, n2 unless :meth:`SearchScan.rows` is given a member type) and
#: their indices.
Row = tuple[int, int, tuple[Any, ...], tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class SearchConfig:
    """Parameters of one search run.

    ``bound`` (>= 3) caps every branch-data field; ``k`` (>= 2) is the tuple
    size; ``max_results`` (>= 0) truncates the sorted output when set.
    Construction raises :class:`ValueError` for a value out of those ranges.
    Each homeomorphism class emits at most :data:`DEFAULT_TUPLES_PER_BUCKET`.
    """

    bound: int
    k: int = 2
    max_results: int | None = None

    def __post_init__(self) -> None:
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
    (K^2, chi) and the cells ``ends[b-1]`` (0 for the first) to ``ends[b]``:
    cell c has the index ``indices[c]`` and the fields ``fields[4c:4c+4]``,
    and the cells of a bucket are in member order.  Fields and indices are
    16-bit, which :data:`~bidouble.covers.DEFAULT_FIELD_CAP` keeps in range
    (an index divides s = x + y - 2 < 1.5 * bound).
    """

    config: SearchConfig
    stats: SearchStats
    truncated_buckets: tuple[HomeoClassKey, ...]
    keys: array
    fields: array
    indices: array
    ends: array

    def rows(self, member: Callable[[int, int, int, int], Any] | None = None) -> Iterator[Row]:
        """The emit pass: every tuple of the run as a :data:`Row`, in output order.

        Tuples come sorted by key and then by members, and ``max_results``
        clips the stream.  Each member is its field tuple, or
        ``member(a, b, m2, n2)``, built once per bucket cell and shared by
        the rows of that bucket.  A bucket within the cap yields its
        k-subsets of members with pairwise distinct indices, by definition;
        a truncated bucket yields those :func:`_index_subsets` selects.
        """
        rows = self._bucket_rows(member)
        limit = self.config.max_results
        return rows if limit is None else itertools.islice(rows, limit)

    def _bucket_rows(self, member: Callable[..., Any] | None) -> Iterator[Row]:
        k, cap = self.config.k, DEFAULT_TUPLES_PER_BUCKET
        keys, fields, indices = self.keys, self.fields, self.indices
        start = 0
        truncated = set(self.truncated_buckets)
        for bucket, end in enumerate(self.ends):
            kk, chi = keys[2 * bucket], keys[2 * bucket + 1]
            cell_indices = indices[start:end].tolist()
            cells = zip(*[iter(fields[4 * start : 4 * end])] * 4)
            members = list(cells if member is None else itertools.starmap(member, cells))
            start = end
            if (kk, chi) in truncated:
                # The cap's selection rule decides which tuples a capped bucket keeps.
                for positions in _index_subsets(cell_indices, k, cap):
                    take = itemgetter(*positions)  # k >= 2 items, so it returns a tuple
                    yield kk, chi, take(members), take(cell_indices)
            else:
                # Every k-subset with pairwise distinct indices, by definition;
                # members are stored sorted, so the subsets come in member order.
                subsets = itertools.combinations(cell_indices, k)
                yield from itertools.compress(
                    zip(
                        itertools.repeat(kk),
                        itertools.repeat(chi),
                        itertools.combinations(members, k),
                        itertools.combinations(cell_indices, k),
                    ),
                    map(k.__eq__, map(len, map(set, subsets))),
                )


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


def _index_subsets(indices: Sequence[int], k: int, cap: int) -> list[tuple[int, ...]]:
    """The cap's selection rule: which ``cap`` tuples a truncated bucket keeps.

    ``indices`` are a bucket's member indices in member order.  Positions
    are grouped by index, the groups taken in ascending index, and the
    subsets are the products over each combination of k groups, in the
    order of those combinations and products; the first ``cap`` are kept.
    Sorted, the position subsets are the tuples in member order.  A bucket
    within the cap is walked by the definition instead.
    """
    by_index: dict[int, list[int]] = {}
    for position, r in enumerate(indices):
        by_index.setdefault(r, []).append(position)
    groups = [by_index[r] for r in sorted(by_index)]
    subsets = (
        tuple(sorted(positions))
        for chosen in itertools.combinations(groups, k)
        for positions in itertools.product(*chosen)
    )
    return sorted(itertools.islice(subsets, cap))


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


def scan(config: SearchConfig) -> SearchScan:
    """The kernel pass: bucket s-class pairs by product and store multi-index buckets.

    Every count of the run is known when it returns; no tuple is built until
    :meth:`SearchScan.rows` is walked.  Raises :class:`BoundTooLarge`, before
    any work, above the global field cap or when the run would visit more
    than :data:`MAX_SEARCH_TYPES` types; :class:`SearchConfig` has already
    checked the other ranges.  The pass runs under :func:`_collector_paused`.
    """
    if config.bound > DEFAULT_FIELD_CAP:
        raise BoundTooLarge(
            f"bound {int_text(config.bound)} exceeds the field cap {DEFAULT_FIELD_CAP}"
        )
    # |P(bound)|: each y from 3 has the x of its parity from 2*y + 1 to the bound.
    pair_count = sum(
        len(range(2 * y + 2 - y % 2, config.bound + 1, 2)) for y in range(3, config.bound // 2 + 1)
    )
    type_count = pair_count * (pair_count + 1) // 2
    if type_count > MAX_SEARCH_TYPES:
        raise BoundTooLarge(
            f"bound {config.bound} gives {type_count} types, "
            f"above the limit of {MAX_SEARCH_TYPES}"
        )
    classes = _s_classes(config.bound)
    s_values = sorted(classes)
    by_product: dict[int, list[tuple[int, int]]] = {}
    for position, sa in enumerate(s_values):
        for sb in s_values[position:]:
            by_product.setdefault(sa * sb, []).append((sa, sb))
    k, cap = config.k, DEFAULT_TUPLES_PER_BUCKET
    keys, fields, indices, ends = array("q"), array("H"), array("H"), array("q")
    truncated: list[HomeoClassKey] = []
    bucket_count = tuple_count = 0
    # e_k depends only on a bucket's member indices, and many buckets share them.
    counts: dict[tuple[int, ...], int] = {}
    with _collector_paused():
        for product in sorted(by_product):
            class_pairs = by_product[product]
            twice_chis = [_twice_chi_values(sa, sb, classes) for sa, sb in class_pairs]
            by_index: dict[int, set[int]] = {}
            for (sa, sb), values in zip(class_pairs, twice_chis):
                by_index.setdefault(gcd(sa, sb), set()).update(values)
            if len(by_index) < k:
                bucket_count += len(set().union(*by_index.values()))
                continue
            groups_of: Counter[int] = Counter()
            for values in by_index.values():
                groups_of.update(values)
            bucket_count += len(groups_of)
            shared = {value for value, groups in groups_of.items() if groups >= k}
            # The product's buckets go into the arrays in one call each.
            product_keys: list[int] = []
            product_fields: list[int] = []
            product_indices: list[int] = []
            product_ends: list[int] = []
            for twice_chi, cells in _shared_buckets(shared, class_pairs, twice_chis, classes):
                cell_fields, cell_indices = zip(*cells)
                count = counts.get(cell_indices)
                if count is None:
                    count = counts[cell_indices] = _elementary_symmetric(
                        map(cell_indices.count, set(cell_indices)), k
                    )
                if count > cap:
                    truncated.append(HomeoClassKey(8 * product, twice_chi // 2))
                    count = cap
                tuple_count += count
                product_keys += (8 * product, twice_chi // 2)
                product_fields.extend(itertools.chain.from_iterable(cell_fields))
                product_indices += cell_indices
                product_ends.append(len(indices) + len(product_indices))
            keys.fromlist(product_keys)
            fields.fromlist(product_fields)
            indices.fromlist(product_indices)
            ends.fromlist(product_ends)
    limit = config.max_results
    clipped = limit is not None and tuple_count > limit
    stats = SearchStats(
        pairs=pair_count,
        types=type_count,
        buckets=bucket_count,
        multi_index_buckets=len(ends),
        cells=len(indices),
        tuples=limit if clipped else tuple_count,
        truncated=len(truncated),
        clipped=clipped,
    )
    return SearchScan(config, stats, tuple(truncated), keys, fields, indices, ends)


def search(config: SearchConfig) -> SearchResult:
    """Run :func:`scan` and collect its rows; the order is deterministic.

    Tuples are sorted by key and then by members, and ``max_results`` is
    applied after sorting.  Raises :class:`BoundTooLarge` as :func:`scan`
    does; :class:`SearchConfig` has already checked the other ranges.

    The collection, like the kernel pass, runs under
    :func:`_collector_paused`.  Members are cover types shared by the tuples
    of a bucket, and so are the keys.
    """
    run = scan(config)
    with _collector_paused():
        collected: list[CataneseTuple] = []
        key = None
        for kk, chi, members, member_indices in run.rows(CoverType):
            if key != (kk, chi):
                key = HomeoClassKey(kk, chi)
            collected.append(CataneseTuple(key, members, member_indices))
    return SearchResult(
        tuples=tuple(collected),
        type_count=run.stats.types,
        bucket_count=run.stats.buckets,
        truncated_buckets=run.truncated_buckets,
        clipped=run.stats.clipped,
    )


def _twice_chi_shift(sa: int, sb: int) -> int:
    """3P + 2(sa + sb + 2), P = sa*sb: cell (da, db) has 2*chi = this - da*db."""
    return 3 * sa * sb + 2 * (sa + sb + 2)


def _twice_chi_values(sa: int, sb: int, classes: dict[int, range]) -> set[int]:
    """2*chi of every cell of the class pair (sa, sb), one range per row.

    Row da of the pair holds 2*chi = shift - da*db for db in the class of sb,
    an arithmetic progression of step -2*da from shift - da*first.
    """
    ds_b = classes[sb]
    first, last = ds_b[0], ds_b[-1]
    shift = _twice_chi_shift(sa, sb)
    values: set[int] = set()
    for da in classes[sa]:
        values.update(range(shift - da * first, shift - da * last - 1, -2 * da))
    return values


def _shared_buckets(
    shared: set[int],
    class_pairs: list[tuple[int, int]],
    twice_chis: list[set[int]],
    classes: dict[int, range],
) -> Iterator[tuple[int, list[tuple[tuple[int, int, int, int], int]]]]:
    """The cells of the keys (8*sa*sb, chi) with 2*chi in ``shared``.

    Yields ``(2*chi, cells)`` in ascending order of chi, where the cells are
    the ``(fields, r)`` of the key's canonical types in member order.  Each
    class pair holding one of those keys is scanned once: the wanted values
    are met with each row da's range of 2*chi values (as in
    :func:`_twice_chi_values`) in one intersection.  A diagonal class pair
    (sa == sb) keeps db >= da, since its cells are unordered.  All class
    pairs have the same product sa*sb.
    """
    cells: dict[int, list[tuple[tuple[int, int, int, int], int]]] = {}
    for (sa, sb), values in zip(class_pairs, twice_chis):
        hits = shared.intersection(values)
        if not hits:
            continue
        r = gcd(sa, sb)
        shift = _twice_chi_shift(sa, sb)
        ds_b = classes[sb]
        first, last = ds_b[0], ds_b[-1]
        for da in classes[sa]:
            # Pair (s, d) is (x, y) = ((s + 2 + d)/2, (s + 2 - d)/2).
            x1, y1 = (sa + 2 + da) // 2, (sa + 2 - da) // 2
            for twice_chi in hits.intersection(
                range(shift - da * first, shift - da * last - 1, -2 * da)
            ):
                db = (shift - twice_chi) // da
                if sa == sb and db < da:
                    continue
                x2, y2 = (sb + 2 + db) // 2, (sb + 2 - db) // 2
                # The canonical type is the lex-min of the two orderings, as
                # covers.canonicalize takes it; the first two fields decide,
                # since equal ones make the orderings equal.
                fields = (x1, y2, x2, y1) if (x1, y2) <= (x2, y1) else (x2, y1, x1, y2)
                cells.setdefault(twice_chi, []).append((fields, r))
    for twice_chi in sorted(cells):
        # Field tuples order as CoverType does, and no two cells share one.
        yield twice_chi, sorted(cells[twice_chi])
