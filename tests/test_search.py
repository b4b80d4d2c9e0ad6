"""Bounded enumeration, bucketing, and tuple extraction."""

from __future__ import annotations

import gc
import importlib
from functools import lru_cache

import pytest

from bidouble import (
    BoundTooLarge,
    CoverType,
    HomeoClassBucket,
    HomeoClassKey,
    SearchConfig,
    SearchResult,
    enumerate_admissible,
    extract_k_tuples,
    group_by_homeo_class,
    is_catanese_tuple,
    search,
)
from bidouble.search import (
    DEFAULT_TUPLES_PER_BUCKET,
    CataneseTuple,
    branch_pairs,
)

TYPE_1 = CoverType(16, 22, 52, 4)
TYPE_2 = CoverType(28, 10, 28, 10)


def brute_force_canonical(bound: int) -> set[CoverType]:
    """Quadruple loop over the raw constraints, independent of the library."""
    found: set[CoverType] = set()
    for a in range(3, bound + 1):
        for b in range(3, bound + 1):
            for m2 in range(3, bound + 1):
                for n2 in range(3, bound + 1):
                    if (
                        a > 2 * n2
                        and m2 > 2 * b
                        and (a - n2) % 2 == 0
                        and (b - m2) % 2 == 0
                    ):
                        t = CoverType(a, b, m2, n2)
                        s = CoverType(m2, n2, a, b)
                        found.add(min(t, s))
    return found


def test_branch_pairs_small_bounds() -> None:
    assert branch_pairs(7) == [(7, 3)]
    assert branch_pairs(9) == [(7, 3), (9, 3)]
    assert branch_pairs(6) == []


def test_enumerate_smallest_bound_with_a_type() -> None:
    assert list(enumerate_admissible(7)) == [CoverType(7, 3, 7, 3)]


def test_enumerate_below_threshold_is_empty() -> None:
    assert list(enumerate_admissible(2)) == []
    assert list(enumerate_admissible(6)) == []


def test_enumerate_emits_canonical_forms_only() -> None:
    types = list(enumerate_admissible(9))
    assert CoverType(7, 3, 9, 3) in types
    assert CoverType(9, 3, 7, 3) not in types
    assert len(types) == 3


def test_enumerate_matches_brute_force_oracle() -> None:
    for bound in (7, 12, 21):
        assert set(enumerate_admissible(bound)) == brute_force_canonical(bound)


def test_enumerate_never_repeats_a_class() -> None:
    types = list(enumerate_admissible(30))
    assert len(types) == len(set(types))


def test_enumerate_is_monotone_in_the_bound() -> None:
    assert set(enumerate_admissible(20)) <= set(enumerate_admissible(30))


def test_group_by_homeo_class_merges_the_worked_example() -> None:
    buckets = group_by_homeo_class([TYPE_1, TYPE_2])
    assert set(buckets) == {HomeoClassKey(10368, 1856)}
    bucket = buckets[HomeoClassKey(10368, 1856)]
    assert bucket.members() == [(TYPE_1, 18), (TYPE_2, 36)]


def test_group_by_homeo_class_separates_distinct_keys() -> None:
    buckets = group_by_homeo_class([CoverType(7, 3, 7, 3), CoverType(9, 3, 9, 3)])
    assert set(buckets) == {HomeoClassKey(512, 106), HomeoClassKey(800, 154)}
    assert all(len(b) == 1 for b in buckets.values())


def test_group_by_homeo_class_canonicalizes_and_dedupes() -> None:
    buckets = group_by_homeo_class([TYPE_1, CoverType(52, 4, 16, 22)])
    (bucket,) = buckets.values()
    assert bucket.members() == [(TYPE_1, 18)]


def test_group_by_homeo_class_empty_input() -> None:
    assert group_by_homeo_class([]) == {}


def repeated_index_bucket() -> HomeoClassBucket:
    # Three admissible types sharing key (2304, 422): indices 4, 12, 12.
    types = [CoverType(7, 5, 33, 3), CoverType(10, 5, 21, 4), CoverType(11, 7, 19, 3)]
    buckets = group_by_homeo_class(types)
    (bucket,) = buckets.values()
    return bucket


def test_extract_pairs_with_index_multiplicity() -> None:
    bucket = repeated_index_bucket()
    assert sorted(bucket.indices) == [4, 12, 12]
    tuples, truncated = extract_k_tuples(bucket, 2)
    assert not truncated
    # Two members share index 12, so only the {4, 12} combinations survive.
    assert len(tuples) == 2
    for t in tuples:
        assert sorted(t.indices) == [4, 12]
        assert is_catanese_tuple(list(t.members)).is_catanese


def test_extract_when_distinct_indices_are_scarce() -> None:
    bucket = repeated_index_bucket()
    tuples, truncated = extract_k_tuples(bucket, 3)
    assert tuples == []
    assert not truncated


def test_extract_respects_the_emission_cap() -> None:
    bucket = repeated_index_bucket()
    tuples, truncated = extract_k_tuples(bucket, 2, cap=1)
    assert len(tuples) == 1
    assert truncated
    exact, truncated = extract_k_tuples(bucket, 2, cap=2)
    assert len(exact) == 2
    assert not truncated


def test_extract_rejects_degenerate_k() -> None:
    with pytest.raises(ValueError):
        extract_k_tuples(repeated_index_bucket(), 1)


@pytest.mark.parametrize("cap", [0, -1, -2])
def test_extract_rejects_a_cap_below_one(cap: int) -> None:
    # cap 0 and -1 used to return ([], True); -2 leaked islice's own message.
    with pytest.raises(ValueError, match="cap must be >= 1"):
        extract_k_tuples(repeated_index_bucket(), 2, cap=cap)


def three_index_bucket() -> HomeoClassBucket:
    # Key (2560, 458) at positions 0..3 with indices 8, 2, 4, 4: the index
    # groups in ascending order are [1], [2, 3], [0], so the subsets come
    # out of the combinations as (1,2), (1,3), (0,1), (0,2), (0,3).
    types = [
        CoverType(7, 3, 39, 3),
        CoverType(9, 6, 28, 3),
        CoverType(14, 5, 17, 4),
        CoverType(15, 6, 16, 3),
    ]
    (bucket,) = group_by_homeo_class(types).values()
    assert bucket.indices == (8, 2, 4, 4)
    return bucket


def test_extract_returns_tuples_sorted_by_members() -> None:
    bucket = three_index_bucket()
    members = [t for t, _ in bucket.members()]
    tuples, truncated = extract_k_tuples(bucket, 2)
    assert not truncated
    expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert [t.members for t in tuples] == [
        (members[i], members[j]) for i, j in expected
    ]
    assert [t.indices for t in tuples] == [(8, 2), (8, 4), (8, 4), (2, 4), (2, 4)]


def test_extract_caps_in_combination_order_then_sorts() -> None:
    bucket = three_index_bucket()
    members = [t for t, _ in bucket.members()]
    tuples, truncated = extract_k_tuples(bucket, 2, cap=3)
    assert truncated
    assert [t.members for t in tuples] == [
        (members[i], members[j]) for i, j in [(0, 1), (1, 2), (1, 3)]
    ]


def test_search_finds_the_worked_example_pair() -> None:
    result = search(SearchConfig(bound=60, k=2))
    wanted = [
        t
        for t in result.tuples
        if t.members == (TYPE_1, TYPE_2)
    ]
    assert len(wanted) == 1
    assert wanted[0].indices == (18, 36)
    assert wanted[0].key == HomeoClassKey(10368, 1856)


def test_search_single_type_yields_no_tuples() -> None:
    result = search(SearchConfig(bound=7, k=2))
    assert result.tuples == ()
    assert result.type_count == 1


def test_search_empty_family() -> None:
    result = search(SearchConfig(bound=3, k=2))
    assert result.tuples == ()
    assert result.type_count == 0
    assert result.bucket_count == 0


def test_search_every_tuple_passes_the_verdict() -> None:
    result = search(SearchConfig(bound=30, k=2))
    assert len(result.tuples) == 105
    for t in result.tuples:
        verdict = is_catanese_tuple(list(t.members))
        assert verdict.is_catanese
        assert verdict.shared_key == t.key


def test_search_results_grow_with_the_bound() -> None:
    small = {t.members for t in search(SearchConfig(bound=30)).tuples}
    large = {t.members for t in search(SearchConfig(bound=45)).tuples}
    assert small <= large
    assert len(small) < len(large)


def test_search_output_is_sorted() -> None:
    result = search(SearchConfig(bound=30))
    keys = [(t.key, t.members) for t in result.tuples]
    assert keys == sorted(keys)


def test_search_max_results_truncates_after_sorting() -> None:
    full = search(SearchConfig(bound=30))
    clipped = search(SearchConfig(bound=30, max_results=10))
    assert clipped.clipped
    assert clipped.tuples == full.tuples[:10]
    unclipped = search(SearchConfig(bound=30, max_results=10**6))
    assert not unclipped.clipped
    assert unclipped.tuples == full.tuples


def test_search_rejects_bound_above_cap() -> None:
    with pytest.raises(BoundTooLarge):
        search(SearchConfig(bound=10_001))


def test_search_rejects_degenerate_configs() -> None:
    with pytest.raises(ValueError):
        search(SearchConfig(bound=2))
    with pytest.raises(ValueError):
        search(SearchConfig(bound=30, k=1))
    # A negative slice would silently drop the tail (708 of 709 at bound 40).
    with pytest.raises(ValueError, match="max_results must be >= 0"):
        search(SearchConfig(bound=40, max_results=-1))


@pytest.mark.parametrize("enabled", [True, False])
def test_search_restores_the_collector_state(
    enabled: bool, monkeypatch: pytest.MonkeyPatch
) -> None:
    search_module = importlib.import_module("bidouble.search")
    real_extract = search_module.extract_k_tuples
    seen: list[bool] = []

    def watched_extract(*args, **kwargs):
        seen.append(gc.isenabled())
        return real_extract(*args, **kwargs)

    def failing_extract(*args, **kwargs):
        raise RuntimeError("extraction failed")

    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(search_module, "extract_k_tuples", watched_extract)
        assert search(SearchConfig(bound=40)).tuples
        assert gc.isenabled() is enabled
        assert seen and not any(seen)
        monkeypatch.setattr(search_module, "extract_k_tuples", failing_extract)
        with pytest.raises(RuntimeError, match="extraction failed"):
            search(SearchConfig(bound=40))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@lru_cache(maxsize=None)
def oracle_buckets(bound: int) -> dict[HomeoClassKey, HomeoClassBucket]:
    return group_by_homeo_class(enumerate_admissible(bound))


def oracle_search(config: SearchConfig) -> SearchResult:
    """The enumerate-bucket-extract path through covers.py, globally sorted."""
    buckets = oracle_buckets(config.bound)
    collected: list[CataneseTuple] = []
    truncated: list[HomeoClassKey] = []
    for key in sorted(buckets):
        tuples, was_truncated = extract_k_tuples(
            buckets[key], config.k, cap=config.tuples_per_bucket
        )
        collected.extend(tuples)
        if was_truncated:
            truncated.append(key)
    collected.sort(key=lambda t: (t.key, t.members))
    clipped = config.max_results is not None and len(collected) > config.max_results
    if clipped:
        collected = collected[: config.max_results]
    return SearchResult(
        tuples=tuple(collected),
        type_count=sum(len(b) for b in buckets.values()),
        bucket_count=len(buckets),
        truncated_buckets=tuple(truncated),
        clipped=clipped,
    )


@pytest.mark.parametrize("tuples_per_bucket", [1, 2, DEFAULT_TUPLES_PER_BUCKET])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("bound", [3, 7, 9, 20, 31, 40, 41, 42, 60])
def test_search_kernel_matches_the_oracle(
    bound: int, k: int, tuples_per_bucket: int
) -> None:
    config = SearchConfig(bound=bound, k=k, tuples_per_bucket=tuples_per_bucket)
    assert search(config) == oracle_search(config)


@pytest.mark.parametrize("tuples_per_bucket", [2, DEFAULT_TUPLES_PER_BUCKET])
def test_search_kernel_matches_the_oracle_when_clipped(tuples_per_bucket: int) -> None:
    config = SearchConfig(
        bound=40, k=2, max_results=100, tuples_per_bucket=tuples_per_bucket
    )
    result = search(config)
    assert result.clipped
    assert result == oracle_search(config)


def test_search_kernel_matches_the_oracle_when_clipped_at_bound_60() -> None:
    config = SearchConfig(bound=60, k=3, max_results=100, tuples_per_bucket=2)
    result = search(config)
    assert result.clipped and result.truncated_buckets
    assert result == oracle_search(config)


def test_search_kernel_hands_extract_the_oracle_buckets(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # The kernel builds its buckets from cells, not from group_by_homeo_class;
    # those it extracts from must be the oracle's buckets with at least k
    # distinct indices, member for member, in key order.
    search_module = importlib.import_module("bidouble.search")
    real_extract = search_module.extract_k_tuples
    seen: list[HomeoClassBucket] = []

    def watched_extract(bucket, *args, **kwargs):
        seen.append(bucket)
        return real_extract(bucket, *args, **kwargs)

    monkeypatch.setattr(search_module, "extract_k_tuples", watched_extract)
    buckets = oracle_buckets(40)
    for k in (2, 3):
        seen.clear()
        search(SearchConfig(bound=40, k=k))
        wanted = [
            buckets[key] for key in sorted(buckets) if len(set(buckets[key].indices)) >= k
        ]
        assert wanted
        assert [(b.key, b.types, b.indices) for b in seen] == [
            (b.key, b.types, b.indices) for b in wanted
        ]


def test_search_kernel_oracle_cases_reach_the_bucket_cap() -> None:
    assert search(SearchConfig(bound=40, k=2, tuples_per_bucket=1)).truncated_buckets
    assert search(SearchConfig(bound=40, k=3, tuples_per_bucket=2)).truncated_buckets


def test_search_kernel_class_facts_hold_up_to_bound_200() -> None:
    # The kernel keys cells by the s-classes of their two pairs: it needs s
    # and d even (exact halving of chi and of x, y), d >= 4 (a nonzero
    # divisor in the cell lookup), and (s, d) naming exactly one pair.
    for bound in range(3, 201):
        pairs = branch_pairs(bound)
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        for x, y in pairs:
            s, d = x + y - 2, x - y
            assert s % 2 == 0 and d % 2 == 0
            assert d >= 4
            assert seen.setdefault((s, d), (x, y)) == (x, y)
        assert len(seen) == len(pairs)


def test_search_pins_the_bound_80_counts() -> None:
    result = search(SearchConfig(bound=80))
    assert result.type_count == 247_456
    assert result.bucket_count == 149_119
    assert len(result.tuples) == 30_911
    assert not result.truncated_buckets and not result.clipped
