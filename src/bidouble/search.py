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
r = gcd(s_i, s_j).  Within one value of s, d names the pair, so
:func:`search` works on s-classes.  For an unordered pair of s values
sa <= sb, every cell has the product P = sa*sb, the index gcd(sa, sb) and
2*chi = 3P + 2(sa + sb + 2) - da*db.  For each P in ascending order the
kernel counts the keys from set products of the classes' d values, skips P
when its class pairs carry fewer than k distinct indices, keeps the chi
values that at least k index groups share, and recovers their cells in one
pass over each class pair that holds one of them: each row da meets the
wanted products da*db in one set intersection.  It builds each member's
:class:`CoverType` once and hands each such bucket to
:func:`extract_k_tuples`, which returns its tuples sorted by members.  Keys
are walked in order, so no global sort is needed.

:func:`enumerate_admissible` and :func:`group_by_homeo_class` remain the
readable path through :mod:`bidouble.covers`; the tests check the kernel
against them.  Buckets hold their members as cover types in lexicographic
order.  Tuple extraction walks combinations of distinct-index groups rather
than filtering all k-subsets, so buckets with many members but few distinct
indices cost nothing.
"""

from __future__ import annotations

import gc
import itertools
from collections import Counter
from dataclasses import dataclass
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator

from .covers import (
    DEFAULT_FIELD_CAP,
    CoverType,
    canonicalize,
    surface_invariants,
)
from .errors import BoundTooLarge
from .topology import HomeoClassKey

DEFAULT_TUPLES_PER_BUCKET = 10_000


@dataclass(frozen=True, slots=True)
class SearchConfig:
    """Parameters of one search run.

    ``bound`` caps every branch-data field; ``k`` is the tuple size;
    ``max_results`` (>= 0) truncates the sorted output when set;
    ``tuples_per_bucket`` caps emission per homeomorphism class.
    """

    bound: int
    k: int = 2
    max_results: int | None = None
    tuples_per_bucket: int = DEFAULT_TUPLES_PER_BUCKET


@dataclass(frozen=True, slots=True)
class HomeoClassBucket:
    """The canonical types of one homeomorphism key.

    :func:`group_by_homeo_class` builds one bucket per key of the types it is
    given; :func:`search` builds one only for a key whose types have at least
    k distinct indices.  ``types`` holds the members sorted (lexicographically)
    and deduplicated; ``indices`` is the divisibility index of each member,
    aligned by position.
    """

    key: HomeoClassKey
    types: tuple[CoverType, ...]
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.types)

    def members(self) -> list[tuple[CoverType, int]]:
        return list(zip(self.types, self.indices))


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


def branch_pairs(bound: int) -> list[tuple[int, int]]:
    """P(bound): all (x, y) with y >= 3, x > 2*y, x <= bound, equal parity."""
    pairs: list[tuple[int, int]] = []
    for y in range(3, bound // 2 + 1):
        # First x > 2*y with x == y (mod 2): 2*y+1 for odd y, 2*y+2 for even y.
        start = 2 * y + 1 if y % 2 else 2 * y + 2
        pairs.extend((x, y) for x in range(start, bound + 1, 2))
    return pairs


def enumerate_admissible(bound: int) -> Iterator[CoverType]:
    """Yield each admissibility class exactly once, in canonical form.

    Unordered pairs i <= j of :func:`branch_pairs` are visited in index
    order, so the iteration order is deterministic.
    """
    pairs = branch_pairs(bound)
    for i, (x1, y1) in enumerate(pairs):
        for x2, y2 in pairs[i:]:
            # (a, n2) = (x1, y1), (m2, b) = (x2, y2); canonical form is the
            # lex-min of the two orderings of the unordered pair.
            first = (x1, y2, x2, y1)
            second = (x2, y1, x1, y2)
            yield CoverType(*(first if first <= second else second))


def group_by_homeo_class(
    types: Iterable[CoverType],
) -> dict[HomeoClassKey, HomeoClassBucket]:
    """Bucket types by (K^2, chi); members end up canonical, sorted, unique."""
    accumulator: dict[HomeoClassKey, dict[CoverType, int]] = {}
    for t in types:
        canonical = canonicalize(t)
        inv = surface_invariants(canonical)
        key = HomeoClassKey(inv.kk, inv.chi)
        accumulator.setdefault(key, {})[canonical] = inv.r
    buckets: dict[HomeoClassKey, HomeoClassBucket] = {}
    for key, index_of in accumulator.items():
        members = tuple(sorted(index_of))
        indices = tuple(index_of[t] for t in members)
        buckets[key] = HomeoClassBucket(key=key, types=members, indices=indices)
    return buckets


def extract_k_tuples(
    bucket: HomeoClassBucket, k: int, *, cap: int = DEFAULT_TUPLES_PER_BUCKET
) -> tuple[list[CataneseTuple], bool]:
    """All size-k subsets of the bucket with pairwise distinct indices.

    Only valid subsets are ever generated: members are grouped by index and
    subsets are products over k distinct groups.  Emission stops at ``cap``
    subsets, taken in the order of those combinations and products; the
    second return value reports whether anything was cut off.  The subsets
    kept are returned sorted by members.  Raises :class:`ValueError` for a k
    below 2 or a ``cap`` below 1.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    by_index: dict[int, list[int]] = {}
    for position, r in enumerate(bucket.indices):
        by_index.setdefault(r, []).append(position)
    if len(by_index) < k:
        return [], False
    groups = [by_index[r] for r in sorted(by_index)]
    subsets = (
        tuple(sorted(positions))
        for chosen in itertools.combinations(groups, k)
        for positions in itertools.product(*chosen)
    )
    picked = list(itertools.islice(subsets, cap + 1))
    truncated = len(picked) > cap
    if truncated:
        del picked[cap:]
    # Members are sorted and unique, so position order is member order.
    picked.sort()
    out: list[CataneseTuple] = []
    for positions in picked:
        take = itemgetter(*positions)  # k >= 2 items, so it returns a tuple
        out.append(CataneseTuple(bucket.key, take(bucket.types), take(bucket.indices)))
    return out, truncated


def search(config: SearchConfig) -> SearchResult:
    """Bucket s-class pairs by product and extract; the order is deterministic.

    Tuples are sorted by key and then by members, and ``max_results`` is
    applied after sorting.  Raises :class:`BoundTooLarge` above the global
    field cap, and :class:`ValueError` for a bound below 3, a k below 2, a
    negative ``max_results``, or a ``tuples_per_bucket`` below 1.

    Bucketing and extraction run with the cyclic garbage collector paused,
    and its previous state is restored on the way out, also when they raise.
    Everything they build (ints, sets, lists, tuples, frozen slotted
    dataclasses) is acyclic and freed by reference counting, so no memory
    waits on the collector; left running, it would walk the growing heap
    again and again.
    """
    if config.bound > DEFAULT_FIELD_CAP:
        raise BoundTooLarge(
            f"bound {config.bound} exceeds the field cap {DEFAULT_FIELD_CAP}"
        )
    if config.bound < 3:
        raise ValueError("bound must be >= 3")
    if config.k < 2:
        raise ValueError("k must be >= 2")
    if config.tuples_per_bucket < 1:
        raise ValueError("tuples_per_bucket must be >= 1")
    if config.max_results is not None and config.max_results < 0:
        raise ValueError("max_results must be >= 0")
    # The s-class of s: the d of every branch pair with that s.
    classes: dict[int, set[int]] = {}
    count = 0
    for x, y in branch_pairs(config.bound):
        classes.setdefault(x + y - 2, set()).add(x - y)
        count += 1
    s_values = sorted(classes)
    by_product: dict[int, list[tuple[int, int]]] = {}
    for position, sa in enumerate(s_values):
        for sb in s_values[position:]:
            by_product.setdefault(sa * sb, []).append((sa, sb))
    k = config.k
    bucket_count = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        collected: list[CataneseTuple] = []
        truncated: list[HomeoClassKey] = []
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
            for bucket in _shared_buckets(
                product, shared, class_pairs, twice_chis, classes
            ):
                tuples, was_truncated = extract_k_tuples(
                    bucket, k, cap=config.tuples_per_bucket
                )
                collected.extend(tuples)
                if was_truncated:
                    truncated.append(bucket.key)
    finally:
        if enabled:
            gc.enable()
    clipped = config.max_results is not None and len(collected) > config.max_results
    if clipped:
        collected = collected[: config.max_results]
    return SearchResult(
        tuples=tuple(collected),
        type_count=count * (count + 1) // 2,
        bucket_count=bucket_count,
        truncated_buckets=tuple(truncated),
        clipped=clipped,
    )


def _twice_chi_shift(sa: int, sb: int) -> int:
    """3P + 2(sa + sb + 2), P = sa*sb: cell (da, db) has 2*chi = this - da*db."""
    return 3 * sa * sb + 2 * (sa + sb + 2)


def _twice_chi_values(sa: int, sb: int, classes: dict[int, set[int]]) -> set[int]:
    """2*chi of every cell of the class pair (sa, sb), one set product per row."""
    ds_b = classes[sb]
    prods: set[int] = set()
    for da in classes[sa]:
        prods.update(map(da.__mul__, ds_b))
    return set(map(_twice_chi_shift(sa, sb).__sub__, prods))


def _shared_buckets(
    product: int,
    shared: set[int],
    class_pairs: list[tuple[int, int]],
    twice_chis: list[set[int]],
    classes: dict[int, set[int]],
) -> list[HomeoClassBucket]:
    """The canonical buckets of the keys (8*product, chi) with 2*chi in ``shared``.

    Each class pair holding one of those keys is scanned once: its row da
    meets the targets da*db = 3P + 2(sa + sb + 2) - 2*chi in one set
    intersection.  A diagonal class pair (sa == sb) keeps db >= da, since its
    cells are unordered.  The buckets come in ascending order of chi.
    """
    cells: dict[int, list[tuple[tuple[int, int, int, int], int]]] = {}
    for (sa, sb), values in zip(class_pairs, twice_chis):
        hits = shared.intersection(values)
        if not hits:
            continue
        r = gcd(sa, sb)
        shift = _twice_chi_shift(sa, sb)
        targets = set(map(shift.__sub__, hits))
        ds_b = classes[sb]
        for da in classes[sa]:
            for target in targets.intersection(map(da.__mul__, ds_b)):
                db = target // da
                if sa == sb and db < da:
                    continue
                # Pair (s, d) is (x, y) = ((s + 2 + d)/2, (s + 2 - d)/2); the
                # canonical type is the lex-min of the two orderings, as in
                # enumerate_admissible.
                x1, y1 = (sa + 2 + da) // 2, (sa + 2 - da) // 2
                x2, y2 = (sb + 2 + db) // 2, (sb + 2 - db) // 2
                fields = min((x1, y2, x2, y1), (x2, y1, x1, y2))
                cells.setdefault(shift - target, []).append((fields, r))
    buckets: list[HomeoClassBucket] = []
    for twice_chi in sorted(cells):
        # Field tuples order as CoverType does, and no two cells share one.
        members = sorted(cells[twice_chi])
        buckets.append(
            HomeoClassBucket(
                key=HomeoClassKey(8 * product, twice_chi // 2),
                types=tuple([CoverType(*fields) for fields, _ in members]),
                indices=tuple([r for _, r in members]),
            )
        )
    return buckets
