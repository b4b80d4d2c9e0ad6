"""Bounded enumeration, bucketing, and tuple extraction."""

from __future__ import annotations

import gc
import hashlib
import importlib
import itertools
from collections import Counter
from functools import lru_cache
from math import gcd, prod

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
    MAX_SEARCH_TYPES,
    CataneseTuple,
    SearchScan,
    SearchStats,
    _distinct_products,
    _elementary_symmetric,
    _s_classes,
    scan,
    shape,
    walk,
)
from oracle import (
    HomeoClassBucket,
    branch_pairs,
    brute_force_canonical,
    enumerate_admissible,
    group_by_homeo_class,
)

TYPE_1 = CoverType(16, 22, 52, 4)
TYPE_2 = CoverType(28, 10, 28, 10)


def cap_buckets_at(monkeypatch: pytest.MonkeyPatch, cap: int) -> None:
    """Lower the per-bucket emission cap that every run reads."""
    # By import path: the package's ``search`` function shadows the module.
    search_module = importlib.import_module("bidouble.search")
    monkeypatch.setattr(search_module, "DEFAULT_TUPLES_PER_BUCKET", cap)


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


def test_search_rejects_bound_above_cap(monkeypatch: pytest.MonkeyPatch) -> None:
    # The field cap is checked first, before the s-classes give the type count.
    def no_classes(bound: int) -> dict[int, range]:
        raise AssertionError(f"the s-classes of bound {bound} were built")

    monkeypatch.setattr(importlib.import_module("bidouble.search"), "_s_classes", no_classes)
    with pytest.raises(BoundTooLarge, match="^bound 10001 exceeds the field cap 10000$"):
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


def test_search_refuses_bound_10000_before_any_lane_work(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # The type count is read off the s-classes, and the refusal comes before
    # the product loop lays out its first row, which starts with the index.
    def no_rows(*args: object) -> int:
        raise AssertionError("a row of the lanes was laid out")

    search_module = importlib.import_module("bidouble.search")
    monkeypatch.setattr(search_module, "gcd", no_rows)
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


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        # Unchecked, a float bound raises a bare TypeError from the type count.
        ({"bound": 40.0}, "bound must be an int, not float"),
        # Unchecked, a float k runs the whole kernel pass, then fails in the emit.
        ({"k": 2.5}, "k must be an int, not float"),
        ({"k": 2.0}, "k must be an int, not float"),
        # Unchecked, a float max_results runs the kernel pass, then fails in islice.
        ({"max_results": 1.5}, "max_results must be an int, not float"),
        # Unchecked, max_results=True clips the run to one tuple without a word.
        ({"max_results": True}, "max_results must be an int, not bool"),
        ({"bound": True}, "bound must be an int, not bool"),
        ({"k": True}, "k must be an int, not bool"),
    ],
    ids=["bound-40.0", "k-2.5", "k-2.0", "max_results-1.5", "max_results-True", "bound-True", "k-True"],
)
def test_search_refuses_a_config_field_that_is_not_an_int(
    fields: dict[str, object], message: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    def no_classes(bound: int) -> dict[int, range]:
        raise AssertionError(f"the s-classes of bound {bound} were built")

    # Any kernel pass would fail here, so the refusal comes before any work.
    monkeypatch.setattr(importlib.import_module("bidouble.search"), "_s_classes", no_classes)
    with pytest.raises(ValueError, match=f"^{message}$"):
        search(SearchConfig(**{"bound": 40, **fields}))


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
    """The buckets the kernel pass stored, decoded from its arrays and pattern table."""
    decoded = []
    start = 0
    for bucket, pattern in enumerate(run.patterns):
        key = HomeoClassKey(run.keys[2 * bucket], run.keys[2 * bucket + 1])
        indices = run.index_tuples[pattern]
        end = start + len(indices)
        types = tuple(
            CoverType(*run.fields[4 * cell : 4 * cell + 4]) for cell in range(start, end)
        )
        decoded.append((key, types, indices))
        start = end
    assert start == len(run.fields) // 4
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


@pytest.mark.parametrize("cap", [2, DEFAULT_TUPLES_PER_BUCKET])
def test_search_pattern_table_at_bound_80(cap: int, monkeypatch: pytest.MonkeyPatch) -> None:
    # Each bucket stores one pattern id into the run's table of distinct
    # index tuples; an entry's count is min(cap, e_k), the length of the
    # bucket's walk by the definition, and its shape's walk picks the same
    # members.
    cap_buckets_at(monkeypatch, cap)
    run = scan(SearchConfig(bound=80))
    assert (len(run.index_tuples), len(run.patterns)) == (1_759, 11_168)
    assert len(set(run.index_tuples)) == len(run.index_tuples) == len(run.tuple_counts)
    assert set(run.patterns) == set(range(len(run.index_tuples)))
    assert len({shape(indices) for indices in run.index_tuples}) == 284
    assert shape((18, 18, 36)) == bytes((0, 0, 1))
    for indices, count in zip(run.index_tuples, run.tuple_counts):
        by_definition = [
            position
            for subset in itertools.combinations(range(len(indices)), 2)
            if indices[subset[0]] != indices[subset[1]]
            for position in subset
        ][: 2 * cap]
        assert count == len(by_definition) // 2
        assert list(walk(shape(indices), 2, count)) == by_definition


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
    def tuples_by_key() -> dict[HomeoClassKey, list[CataneseTuple]]:
        by_key: dict[HomeoClassKey, list[CataneseTuple]] = {}
        for t in search(SearchConfig(bound=40, k=k)).tuples:
            by_key.setdefault(t.key, []).append(t)
        return by_key

    uncapped = tuples_by_key()
    assert any(len(tuples) > cap for tuples in uncapped.values())
    cap_buckets_at(monkeypatch, cap)
    capped = tuples_by_key()
    assert capped.keys() == uncapped.keys()
    for key, tuples in uncapped.items():
        assert capped[key] == tuples[:cap]


@pytest.mark.parametrize("k", [2, 3])
def test_buckets_call_member_once_per_stored_cell(k: int) -> None:
    # member renders a cell once, however many tuples share it; its results
    # stand where the stored cells stand, in member order.
    run = scan(SearchConfig(bound=60, k=k))
    calls = Counter[tuple[int, int, int, int]]()

    def member(fields: tuple[int, int, int, int]) -> tuple[str, tuple[int, int, int, int]]:
        calls[fields] += 1
        return ("member", fields)

    def prepare(positions: bytes, cells: int) -> bytes:
        return positions

    rendered = list(run.buckets(prepare, member))
    assert sum(calls.values()) == run.stats.cells
    assert len(calls) == run.stats.cells
    counts = [run.tuple_counts[pattern] for pattern in run.patterns]
    assert rendered == [
        (
            *key,
            indices,
            tuple(("member", t.as_tuple()) for t in types),
            walk(shape(indices), k, count),
            count,
        )
        for (key, types, indices), count in zip(stored_buckets(run), counts)
    ]
    # The tuples hold more member places than there are cells, so a call
    # per member of a tuple would not match the count above.
    assert k * run.stats.tuples > run.stats.cells


@pytest.mark.parametrize("cap", [1, 2, DEFAULT_TUPLES_PER_BUCKET])
@pytest.mark.parametrize("k", [2, 3])
def test_buckets_yield_only_the_kept_tuples_at_every_max_results(
    k: int, cap: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # buckets alone decides which tuples a run emits: it stops at the run's
    # last tuple, renders no cell past it, and a bucket that max_results
    # cuts is prepared from the first tuples of its walk.
    cap_buckets_at(monkeypatch, cap)
    full = scan(SearchConfig(bound=30, k=k))
    stored = stored_buckets(full)
    counts = [full.tuple_counts[pattern] for pattern in full.patterns]
    if cap > 1:
        assert max(counts) > 1
    for limit in range(full.stats.tuples + 1):
        run = scan(SearchConfig(bound=30, k=k, max_results=limit))
        called: list[tuple[int, int, int, int]] = []

        def member(fields: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
            called.append(fields)
            return fields

        yielded = list(run.buckets(lambda positions, cells: (positions, cells), member))
        assert sum(count for *_, count in yielded) == run.stats.tuples == limit
        assert all(count > 0 for *_, count in yielded)
        assert called == [t.as_tuple() for _, types, _ in stored[: len(yielded)] for t in types]
        for position, bucket in enumerate(yielded):
            kk, chi, indices, members, (positions, cells), count = bucket
            key, types, stored_indices = stored[position]
            assert (kk, chi, indices, cells) == (*key, stored_indices, len(types))
            assert members == tuple(t.as_tuple() for t in types)
            # Only the run's last bucket may be cut.
            if position < len(yielded) - 1:
                assert count == counts[position]
            assert positions == walk(indices, k, counts[position])[: k * count]


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
    # Every k: a product of one class pair is counted apart from the lane
    # layout of the others, and so, at each k, are those of fewer than k
    # index groups.
    for k in range(2, 6):
        multi = [indices for indices in buckets if len(set(indices)) >= k]
        stats = scan(SearchConfig(bound=bound, k=k)).stats
        assert stats.buckets == len(buckets), k
        assert stats.multi_index_buckets == len(multi), k
        assert stats.cells == sum(map(len, multi)), k


def test_distinct_products_counts_every_class_pair_to_bound_120() -> None:
    # A single class pair's keys are its distinct 2*chi = top - da*db, so
    # their count is that of the distinct da*db.  Every pair sa <= sb is
    # checked, the diagonal ones and those with a one-member class among them.
    classes = _s_classes(120)
    s_values = sorted(classes)
    assert any(len(ds) == 1 for ds in classes.values())
    for position, sa in enumerate(s_values):
        for sb in s_values[position:]:
            ds_a, ds_b = classes[sa], classes[sb]
            brute = len({da * db for da in ds_a for db in ds_b})
            assert _distinct_products(ds_a, ds_b) == brute, (sa, sb)


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


@pytest.mark.parametrize(
    ("bound", "k", "cap", "digests"),
    [
        (100, 2, DEFAULT_TUPLES_PER_BUCKET, (
            "2aa877a4f08882234b0ade8973705acf81409c55eb22e4a560d1144ce7b491f4",
            "2676d89ac311ea351a748d0d2f2b2c96b7a5d0add06979954750ecc2ab9a2383",
            "4e3e7083f7aee6f73f729b101f3b8fa6f1dbf1b1cb234eff7d100b91f8494838",
            "a322fe848f76a862ae85c6612eb6d646199902340bc6fb677cd4723063b0ceea",
        )),
        # Cap 2 truncates 469 of the 962 stored buckets.
        (80, 3, 2, (
            "81e61aa1272d321a286dd0e6f62148cedadfd16d16db9cdcfb729df410691e7b",
            "441e7e60f2829069e396fee924b0dc61114475b7d5df2700212e83214c96a0e0",
            "c5b9896969fa5527c13d122b79ab74cb6eba7e34d2f39777dfe5a4d8e5441e81",
            "c6e7d0e75da53b5a212ca015ad8e939456acc11720fc12852a9e8fdb565894f5",
        )),
    ],
)
def test_search_kernel_arrays_are_pinned(
    bound: int, k: int, cap: int, digests: tuple[str, ...], monkeypatch: pytest.MonkeyPatch
) -> None:
    # SHA-256 of the kernel's flat arrays as machine bytes (little-endian,
    # 8-byte keys and patterns, 2-byte fields) and of its pattern table's repr.
    cap_buckets_at(monkeypatch, cap)
    run = scan(SearchConfig(bound=bound, k=k))
    arrays = (run.keys, run.fields, run.patterns)
    assert tuple(a.itemsize for a in arrays) == (8, 2, 8)
    got = [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]
    got.append(hashlib.sha256(repr((run.index_tuples, run.tuple_counts)).encode()).hexdigest())
    assert tuple(got) == digests
    assert run.stats.truncated == (469 if cap == 2 else 0)


def test_no_product_up_to_the_largest_bound_has_256_index_groups(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # scan adds a product's per-group byte-lane arrays as one integer each,
    # so a lane, which counts the groups that share it, must stay below 256.
    # Bound 253 is the largest that MAX_SEARCH_TYPES admits, and every lower
    # bound's products are restrictions of its products.
    pairs = len(branch_pairs(253))
    assert pairs * (pairs + 1) // 2 <= MAX_SEARCH_TYPES
    with pytest.raises(BoundTooLarge):
        scan(SearchConfig(bound=254))
    classes = _s_classes(253)
    s_values = sorted(classes)
    groups: dict[int, set[int]] = {}
    for position, sa in enumerate(s_values):
        for sb in s_values[position:]:
            groups.setdefault(sa * sb, set()).add(gcd(sa, sb))
    assert max(map(len, groups.values())) == 10


def test_search_stats_count_the_clipped_output(monkeypatch: pytest.MonkeyPatch) -> None:
    cap_buckets_at(monkeypatch, 2)
    stats = scan(SearchConfig(bound=60, k=3, max_results=100)).stats
    assert stats.tuples == 100
    assert stats.clipped and stats.truncated
