"""Bounded enumeration, bucketing, and tuple extraction."""

from __future__ import annotations

import gc
import importlib
import itertools
from collections import Counter
from functools import lru_cache
from math import prod

import pytest

from bidouble import (
    BoundTooLarge,
    CoverType,
    HomeoClassKey,
    SearchConfig,
    SearchResult,
    is_catanese_tuple,
    search,
)
from bidouble.search import (
    DEFAULT_TUPLES_PER_BUCKET,
    CataneseTuple,
    Row,
    SearchScan,
    SearchStats,
    _elementary_symmetric,
    _s_classes,
    scan,
)
from oracle import HomeoClassBucket, branch_pairs, enumerate_admissible, group_by_homeo_class

TYPE_1 = CoverType(16, 22, 52, 4)
TYPE_2 = CoverType(28, 10, 28, 10)


def cap_buckets_at(monkeypatch: pytest.MonkeyPatch, cap: int) -> None:
    """Lower the per-bucket emission cap that every run reads."""
    # By import path: the package's ``search`` function shadows the module.
    search_module = importlib.import_module("bidouble.search")
    monkeypatch.setattr(search_module, "DEFAULT_TUPLES_PER_BUCKET", cap)


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


def test_search_refuses_a_bound_past_the_digit_limit() -> None:
    with pytest.raises(BoundTooLarge, match=r"^bound <16610-bit integer> exceeds the field cap 10000$"):
        scan(SearchConfig(bound=10**5000))


def test_search_refuses_more_types_than_the_limit(monkeypatch: pytest.MonkeyPatch) -> None:
    search_module = importlib.import_module("bidouble.search")
    monkeypatch.setattr(search_module, "MAX_SEARCH_TYPES", 406)
    assert scan(SearchConfig(bound=20)).stats.types == 406
    with pytest.raises(BoundTooLarge, match="bound 21 gives 528 types, above the limit of 406"):
        scan(SearchConfig(bound=21))


def test_search_refuses_bound_10000_before_listing_a_pair(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    def no_pairs(bound: int) -> list[tuple[int, int]]:
        raise AssertionError(f"the pairs of bound {bound} were listed")

    search_module = importlib.import_module("bidouble.search")
    monkeypatch.setattr(search_module, "_s_classes", no_pairs)
    with pytest.raises(BoundTooLarge, match="77968871831256 types, above the limit of 30000000"):
        scan(SearchConfig(bound=10_000))


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
    # The kernel pass (watched through its per-product helper) and the
    # collection of its rows (watched through CataneseTuple) both run with
    # the collector off; its state comes back after a return and a raise.
    search_module = importlib.import_module("bidouble.search")
    real_buckets = search_module._shared_buckets
    real_tuple = search_module.CataneseTuple
    in_kernel: list[bool] = []
    in_collection: list[bool] = []

    def watched_buckets(*args, **kwargs):
        in_kernel.append(gc.isenabled())
        return real_buckets(*args, **kwargs)

    def watched_tuple(*args, **kwargs):
        in_collection.append(gc.isenabled())
        return real_tuple(*args, **kwargs)

    def failing_buckets(*args, **kwargs):
        raise RuntimeError("kernel failed")

    def failing_tuple(*args, **kwargs):
        raise RuntimeError("collection failed")

    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(search_module, "_shared_buckets", watched_buckets)
        monkeypatch.setattr(search_module, "CataneseTuple", watched_tuple)
        assert search(SearchConfig(bound=40)).tuples
        assert gc.isenabled() is enabled
        assert in_kernel and not any(in_kernel)
        assert in_collection and not any(in_collection)
        monkeypatch.setattr(search_module, "CataneseTuple", failing_tuple)
        with pytest.raises(RuntimeError, match="collection failed"):
            search(SearchConfig(bound=40))
        assert gc.isenabled() is enabled
        monkeypatch.setattr(search_module, "_shared_buckets", failing_buckets)
        with pytest.raises(RuntimeError, match="kernel failed"):
            search(SearchConfig(bound=40))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@lru_cache(maxsize=None)
def oracle_buckets(bound: int) -> dict[HomeoClassKey, HomeoClassBucket]:
    return group_by_homeo_class(enumerate_admissible(bound))


def reference_tuples(
    bucket: HomeoClassBucket, k: int, cap: int
) -> tuple[list[CataneseTuple], bool]:
    """The Catanese k-tuples of one bucket, and whether ``cap`` cut them.

    By definition these are the k-subsets of the bucket's members (one key)
    whose indices are pairwise distinct; taken in member order, they come
    sorted by members.  When there are more than ``cap`` of them, the first
    ``cap`` are kept.
    """
    members = bucket.members()
    chosen = [
        subset
        for subset in itertools.combinations(members, k)
        if len({r for _, r in subset}) == k
    ]
    truncated = len(chosen) > cap
    tuples = [
        CataneseTuple(bucket.key, tuple(t for t, _ in subset), tuple(r for _, r in subset))
        for subset in chosen[:cap]
    ]
    return tuples, truncated


def oracle_search(config: SearchConfig, cap: int) -> SearchResult:
    """The enumerate-bucket path through covers.py, tuples by definition, sorted."""
    buckets = oracle_buckets(config.bound)
    collected: list[CataneseTuple] = []
    truncated: list[HomeoClassKey] = []
    for key in sorted(buckets):
        tuples, was_truncated = reference_tuples(buckets[key], config.k, cap)
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


@pytest.mark.parametrize("cap", [1, 2, DEFAULT_TUPLES_PER_BUCKET])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("bound", [3, 7, 9, 20, 31, 40, 41, 42, 60])
def test_search_kernel_matches_the_oracle(
    bound: int, k: int, cap: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    cap_buckets_at(monkeypatch, cap)
    config = SearchConfig(bound=bound, k=k)
    assert search(config) == oracle_search(config, cap)


@pytest.mark.parametrize("cap", [1, 2, DEFAULT_TUPLES_PER_BUCKET])
@pytest.mark.parametrize(("bound", "tuples"), [(40, 1), (60, 34)])
def test_search_kernel_matches_the_oracle_at_k_4(
    bound: int, tuples: int, cap: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # At k = 4 the definition walk skips the most k-subsets, those that repeat an index.
    config = SearchConfig(bound=bound, k=4)
    assert len(search(config).tuples) == tuples
    cap_buckets_at(monkeypatch, cap)
    assert search(config) == oracle_search(config, cap)


@pytest.mark.parametrize("cap", [2, DEFAULT_TUPLES_PER_BUCKET])
def test_search_kernel_matches_the_oracle_when_clipped(
    cap: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    cap_buckets_at(monkeypatch, cap)
    config = SearchConfig(bound=40, k=2, max_results=100)
    result = search(config)
    assert result.clipped
    assert result == oracle_search(config, cap)


def test_search_kernel_matches_the_oracle_when_clipped_at_bound_60(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    cap_buckets_at(monkeypatch, 2)
    config = SearchConfig(bound=60, k=3, max_results=100)
    result = search(config)
    assert result.clipped and result.truncated_buckets
    assert result == oracle_search(config, 2)


def stored_buckets(run: SearchScan) -> list[tuple[HomeoClassKey, tuple[CoverType, ...], tuple[int, ...]]]:
    """The buckets the kernel pass stored, decoded from its arrays."""
    decoded = []
    start = 0
    for bucket, end in enumerate(run.ends):
        key = HomeoClassKey(run.keys[2 * bucket], run.keys[2 * bucket + 1])
        types = tuple(
            CoverType(*run.fields[4 * cell : 4 * cell + 4]) for cell in range(start, end)
        )
        decoded.append((key, types, tuple(run.indices[start:end])))
        start = end
    return decoded


def test_search_kernel_hands_extract_the_oracle_buckets() -> None:
    # The kernel builds its buckets from cells, not from group_by_homeo_class;
    # those it stores must be the oracle's buckets with at least k distinct
    # indices, member for member, in key order.
    buckets = oracle_buckets(40)
    for k in (2, 3):
        run = scan(SearchConfig(bound=40, k=k))
        wanted = [
            buckets[key] for key in sorted(buckets) if len(set(buckets[key].indices)) >= k
        ]
        assert wanted
        assert stored_buckets(run) == [(b.key, b.types, b.indices) for b in wanted]
        assert run.stats.multi_index_buckets == len(wanted)
        assert run.stats.cells == sum(len(b) for b in wanted)


@pytest.mark.parametrize("cap", [1, 2, DEFAULT_TUPLES_PER_BUCKET])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_head_counts_come_from_e_k_of_the_index_group_sizes(
    k: int, cap: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The kernel pass fills tuple_count and truncated_buckets without
    # building a tuple: a bucket holds e_k(sizes) tuples, so it emits
    # min(cap, e_k) of them and truncates exactly when e_k > cap.
    tuples = 0
    truncated = []
    for key, bucket in sorted(oracle_buckets(40).items()):
        sizes = Counter(bucket.indices).values()
        e_k = sum(prod(chosen) for chosen in itertools.combinations(sizes, k))
        assert _elementary_symmetric(sizes, k) == e_k
        extracted, was_truncated = reference_tuples(bucket, k, cap)
        assert len(extracted) == min(cap, e_k)
        assert was_truncated == (e_k > cap)
        tuples += len(extracted)
        if was_truncated:
            truncated.append(key)
    cap_buckets_at(monkeypatch, cap)
    run = scan(SearchConfig(bound=40, k=k))
    assert run.stats.tuples == tuples
    assert run.stats.truncated == len(truncated)
    assert run.truncated_buckets == tuple(truncated)


def test_search_kernel_oracle_cases_reach_the_bucket_cap(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    cap_buckets_at(monkeypatch, 1)
    assert search(SearchConfig(bound=40, k=2)).truncated_buckets
    cap_buckets_at(monkeypatch, 2)
    assert search(SearchConfig(bound=40, k=3)).truncated_buckets


@pytest.mark.parametrize("cap", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_a_capped_bucket_keeps_the_first_cap_tuples_of_its_walk(
    k: int, cap: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    def rows_by_key() -> dict[tuple[int, int], list[Row]]:
        by_key: dict[tuple[int, int], list[Row]] = {}
        for row in scan(SearchConfig(bound=40, k=k)).rows():
            by_key.setdefault(row[:2], []).append(row)
        return by_key

    uncapped = rows_by_key()
    assert any(len(rows) > cap for rows in uncapped.values())
    cap_buckets_at(monkeypatch, cap)
    capped = rows_by_key()
    assert capped.keys() == uncapped.keys()
    for key, rows in uncapped.items():
        assert capped[key] == rows[:cap]


def test_search_kernel_class_facts_hold_up_to_bound_200() -> None:
    # The kernel keys cells by the s-classes of their two pairs: it needs s
    # and d even (exact halving of chi and of x, y), d >= 4 (a nonzero
    # divisor in the cell lookup), and (s, d) naming exactly one pair.  It
    # holds each class as the even range (s+2)/3 < d <= min(s-4, 2*bound-s-2),
    # so a class with a gap, or other ends, would add or lose cells.
    for bound in range(3, 201):
        pairs = branch_pairs(bound)
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        classes: dict[int, set[int]] = {}
        for x, y in pairs:
            s, d = x + y - 2, x - y
            assert s % 2 == 0 and d % 2 == 0
            assert d >= 4
            assert seen.setdefault((s, d), (x, y)) == (x, y)
            classes.setdefault(s, set()).add(d)
        assert len(seen) == len(pairs)
        for s, ds in classes.items():
            closed_form = [
                d for d in range(0, min(s - 4, 2 * bound - s - 2) + 1, 2) if 3 * d > s + 2
            ]
            assert sorted(ds) == closed_form
        assert _s_classes(bound) == {s: range(min(ds), max(ds) + 1, 2) for s, ds in classes.items()}


@pytest.mark.parametrize("bound", range(3, 51))
def test_search_kernel_counts_match_the_oracle_at_every_bound_to_50(bound: int) -> None:
    # The class ranges' ends move with the parity of the bound, so every
    # bound up to 50 is checked: a bound-50 bucket cut down to the types
    # whose fields are all at most the bound is a bucket of that bound.
    buckets = [
        indices
        for bucket in oracle_buckets(50).values()
        if (indices := [r for t, r in bucket.members() if max(t.as_tuple()) <= bound])
    ]
    multi = [indices for indices in buckets if len(set(indices)) >= 2]
    stats = scan(SearchConfig(bound=bound)).stats
    assert stats.buckets == len(buckets)
    assert stats.multi_index_buckets == len(multi)
    assert stats.cells == sum(map(len, multi))


def test_search_counts_the_pairs_of_the_definition_at_every_bound_to_60() -> None:
    # scan counts P(bound) from one x range per y without listing it; the
    # oracle lists it from the definition.
    for bound in range(3, 61):
        pairs = len(branch_pairs(bound))
        stats = scan(SearchConfig(bound=bound)).stats
        assert (stats.pairs, stats.types) == (pairs, pairs * (pairs + 1) // 2)


def test_search_pins_the_bound_80_counts() -> None:
    result = search(SearchConfig(bound=80))
    assert result.type_count == 247_456
    assert result.bucket_count == 149_119
    assert len(result.tuples) == 30_911
    assert not result.truncated_buckets and not result.clipped
    assert scan(SearchConfig(bound=80)).stats == SearchStats(
        pairs=703,
        types=247_456,
        buckets=149_119,
        multi_index_buckets=11_168,
        cells=35_803,
        tuples=30_911,
        truncated=0,
        clipped=False,
    )


def test_search_stats_count_the_clipped_output(monkeypatch: pytest.MonkeyPatch) -> None:
    cap_buckets_at(monkeypatch, 2)
    stats = scan(SearchConfig(bound=60, k=3, max_results=100)).stats
    assert stats.tuples == 100
    assert stats.clipped and stats.truncated
