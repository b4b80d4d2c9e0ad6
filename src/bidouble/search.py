"""Bounded search for Catanese tuples, kernel on branch-pair indices.

The admissibility constraints factor through the two pairs (a, n2) and
(m2, b): each must lie in P(bound) = {(x, y): y >= 3, x > 2*y, x <= bound,
x == y (mod 2)}, with no cross conditions.  A cover type is therefore an
ordered pair of members of P(bound), and the branch-swap involution exchanges
the two, so unordered pairs of P(bound) visit every involution orbit exactly
once and a run has exactly |P|(|P|+1)/2 types.

Every invariant the search needs depends on two integers per branch pair,
s = x + y - 2 and d = x - y: the type built from pairs i <= j has
u, v, w, z = s_i, s_j, d_i, d_j, hence the key (K^2, chi) =
(8*s_i*s_j, (3*s_i*s_j - d_i*d_j)/2 + s_i + s_j + 2) and the index
r = gcd(s_i, s_j).  :func:`search` buckets the index cells (i, j) by that
key directly and builds :class:`CoverType` objects only for buckets holding
at least k distinct indices.  Each such bucket's tuples are sorted by
members and the keys are walked in order, so no global sort is needed.

:func:`enumerate_admissible` and :func:`group_by_homeo_class` remain the
readable path through :mod:`bidouble.covers`; the tests check the kernel
against them.  Buckets store members as packed integers, four 16-bit lanes
in field order, so numeric order on packed values equals lexicographic
order on types.  Tuple extraction walks combinations of distinct-index
groups rather than filtering all k-subsets, so buckets with many members
but few distinct indices cost nothing.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass
from math import gcd
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

_LANE = 16
_LANE_MASK = (1 << _LANE) - 1

# The search kernel's integer key is (K^2/8) << _CHI_BITS | chi.  Fields at
# most DEFAULT_FIELD_CAP give s = x + y - 2 < 1.5*cap, so 0 < chi < 2**32.
_CHI_BITS = 32
_CHI_MASK = (1 << _CHI_BITS) - 1


def pack(t: CoverType) -> int:
    """Pack a type into one 64-bit integer, preserving lexicographic order."""
    return t.a << (3 * _LANE) | t.b << (2 * _LANE) | t.m2 << _LANE | t.n2


def unpack(packed: int) -> CoverType:
    return CoverType(
        packed >> (3 * _LANE) & _LANE_MASK,
        packed >> (2 * _LANE) & _LANE_MASK,
        packed >> _LANE & _LANE_MASK,
        packed & _LANE_MASK,
    )


@dataclass(frozen=True, slots=True)
class SearchConfig:
    """Parameters of one search run.

    ``bound`` caps every branch-data field; ``k`` is the tuple size;
    ``max_results`` (>= 0) truncates the sorted output when set;
    ``tuples_per_bucket`` caps emission per homeomorphism class.
    ``shard_count`` is validated and echoed by the CLI but has no effect: the
    pair-indexed kernel runs as one shard.
    """

    bound: int
    k: int = 2
    max_results: int | None = None
    shard_count: int = 1
    tuples_per_bucket: int = DEFAULT_TUPLES_PER_BUCKET


@dataclass(frozen=True, slots=True)
class HomeoClassBucket:
    """The canonical types of one homeomorphism key.

    :func:`group_by_homeo_class` builds one bucket per key of the types it is
    given; :func:`search` builds one only for a key whose types have at least
    k distinct indices.  ``packed`` holds the members sorted and deduplicated;
    ``indices`` is the divisibility index of each member, aligned by position.
    """

    key: HomeoClassKey
    packed: tuple[int, ...]
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.packed)

    def members(self) -> list[tuple[CoverType, int]]:
        return [(unpack(p), r) for p, r in zip(self.packed, self.indices)]


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


def enumerate_admissible(bound: int, *, shard_count: int = 1) -> Iterator[CoverType]:
    """Yield each admissibility class exactly once, in canonical form.

    The outer pair index is partitioned round-robin over ``shard_count``
    shards, drained in shard order, so the iteration order is deterministic
    for a fixed shard count and the union over shards never repeats a class.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    pairs = branch_pairs(bound)
    count = len(pairs)
    for shard in range(shard_count):
        for i in range(shard, count, shard_count):
            x1, y1 = pairs[i]
            for j in range(i, count):
                x2, y2 = pairs[j]
                # (a, n2) = pairs[i], (m2, b) = pairs[j]; canonical form is
                # the lex-min of the two orderings of the unordered pair.
                first = (x1, y2, x2, y1)
                second = (x2, y1, x1, y2)
                yield CoverType(*(first if first <= second else second))


def group_by_homeo_class(
    types: Iterable[CoverType],
) -> dict[HomeoClassKey, HomeoClassBucket]:
    """Bucket types by (K^2, chi); members end up canonical, sorted, unique."""
    accumulator: dict[HomeoClassKey, dict[int, int]] = {}
    for t in types:
        canonical = canonicalize(t)
        inv = surface_invariants(canonical)
        key = HomeoClassKey(inv.kk, inv.chi)
        accumulator.setdefault(key, {})[pack(canonical)] = inv.r
    buckets: dict[HomeoClassKey, HomeoClassBucket] = {}
    for key, index_of in accumulator.items():
        packed = tuple(sorted(index_of))
        indices = tuple(index_of[p] for p in packed)
        buckets[key] = HomeoClassBucket(key=key, packed=packed, indices=indices)
    return buckets


def extract_k_tuples(
    bucket: HomeoClassBucket, k: int, *, cap: int = DEFAULT_TUPLES_PER_BUCKET
) -> tuple[list[CataneseTuple], bool]:
    """All size-k subsets of the bucket with pairwise distinct indices.

    Only valid subsets are ever generated: members are grouped by index and
    subsets are products over k distinct groups.  Emission stops at ``cap``
    subsets; the second return value reports whether anything was cut off.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    by_index: dict[int, list[int]] = {}
    for position, r in enumerate(bucket.indices):
        by_index.setdefault(r, []).append(position)
    if len(by_index) < k:
        return [], False
    groups = [by_index[r] for r in sorted(by_index)]
    out: list[CataneseTuple] = []
    for chosen in itertools.combinations(groups, k):
        for positions in itertools.product(*chosen):
            if len(out) >= cap:
                return out, True
            ordered = sorted(positions)
            out.append(
                CataneseTuple(
                    key=bucket.key,
                    members=tuple(unpack(bucket.packed[p]) for p in ordered),
                    indices=tuple(bucket.indices[p] for p in ordered),
                )
            )
    return out, False


def search(config: SearchConfig) -> SearchResult:
    """Bucket branch-pair cells by key and extract; the order is deterministic.

    Tuples are sorted by key and then by members, and ``max_results`` is
    applied after sorting.  ``shard_count`` is validated and has no effect.
    Raises :class:`BoundTooLarge` above the global field cap, and
    :class:`ValueError` for a bound below 3, a k below 2, a negative
    ``max_results``, or a ``shard_count`` or ``tuples_per_bucket`` below 1.

    Bucketing and extraction run with the cyclic garbage collector paused,
    and its previous state is restored on the way out, also when they raise.
    Everything they build (ints, lists, tuples, frozen slotted dataclasses)
    is acyclic and freed by reference counting, so no memory waits on the
    collector; left running, it would walk the growing heap again and again.
    """
    if config.bound > DEFAULT_FIELD_CAP:
        raise BoundTooLarge(
            f"bound {config.bound} exceeds the field cap {DEFAULT_FIELD_CAP}"
        )
    if config.bound < 3:
        raise ValueError("bound must be >= 3")
    if config.k < 2:
        raise ValueError("k must be >= 2")
    if config.shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if config.tuples_per_bucket < 1:
        raise ValueError("tuples_per_bucket must be >= 1")
    if config.max_results is not None and config.max_results < 0:
        raise ValueError("max_results must be >= 0")
    pairs = branch_pairs(config.bound)
    s = [x + y - 2 for x, y in pairs]
    d = [x - y for x, y in pairs]
    count = len(pairs)
    enabled = gc.isenabled()
    gc.disable()
    try:
        # Cell i*count + j, i <= j, is the type with (a, n2) = pairs[i] and
        # (m2, b) = pairs[j], so u, v, w, z = s_i, s_j, d_i, d_j (see
        # surface_invariants).  Its key packs s_i*s_j = K^2/8 above chi.
        cells: dict[int, list[int]] = {}
        for i in range(count):
            si, di = s[i], d[i]
            row = i * count
            for j in range(i, count):
                sj = s[j]
                uv = si * sj
                key = uv << _CHI_BITS | (3 * uv - di * d[j]) // 2 + si + sj + 2
                bucket_cells = cells.get(key)
                if bucket_cells is None:
                    cells[key] = [row + j]
                else:
                    bucket_cells.append(row + j)
        collected: list[CataneseTuple] = []
        truncated: list[HomeoClassKey] = []
        candidates = sorted(key for key, found in cells.items() if len(found) >= config.k)
        for key in candidates:
            homeo_key = HomeoClassKey(8 * (key >> _CHI_BITS), key & _CHI_MASK)
            bucket = _pair_bucket(homeo_key, cells[key], pairs, s, config.k)
            if bucket is None:
                continue
            tuples, was_truncated = extract_k_tuples(
                bucket, config.k, cap=config.tuples_per_bucket
            )
            tuples.sort(key=lambda t: t.members)
            collected.extend(tuples)
            if was_truncated:
                truncated.append(homeo_key)
    finally:
        if enabled:
            gc.enable()
    clipped = config.max_results is not None and len(collected) > config.max_results
    if clipped:
        collected = collected[: config.max_results]
    return SearchResult(
        tuples=tuple(collected),
        type_count=count * (count + 1) // 2,
        bucket_count=len(cells),
        truncated_buckets=tuple(truncated),
        clipped=clipped,
    )


def _pair_bucket(
    key: HomeoClassKey,
    cells: list[int],
    pairs: list[tuple[int, int]],
    s: list[int],
    k: int,
) -> HomeoClassBucket | None:
    """The bucket of one key's cells, or None with fewer than k indices."""
    count = len(pairs)
    ij = [divmod(cell, count) for cell in cells]
    indices = [gcd(s[i], s[j]) for i, j in ij]
    if len(set(indices)) < k:
        return None
    members = []
    for (i, j), r in zip(ij, indices):
        (x1, y1), (x2, y2) = pairs[i], pairs[j]
        # Canonical form: the lex-min of the two orderings, as in
        # enumerate_admissible.
        members.append((min((x1, y2, x2, y1), (x2, y1, x1, y2)), r))
    members.sort()
    return HomeoClassBucket(
        key=key,
        packed=tuple(pack(CoverType(*t)) for t, _ in members),
        indices=tuple(r for _, r in members),
    )
