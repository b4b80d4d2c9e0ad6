"""Homeomorphism keys, the index obstruction, and Catanese verdicts."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bidouble import (
    CoverType,
    DiffeoVerdict,
    HomeoClassKey,
    InvalidMember,
    NotComparable,
    are_homeomorphic,
    diffeo_obstruction,
    homeo_class_key,
    is_catanese_tuple,
    surface_invariants,
)

TYPE_1 = CoverType(16, 22, 52, 4)
TYPE_2 = CoverType(28, 10, 28, 10)
SMALL = CoverType(7, 3, 7, 3)

INV_1 = surface_invariants(TYPE_1)
INV_2 = surface_invariants(TYPE_2)
INV_SMALL = surface_invariants(SMALL)


def test_homeo_class_key_values() -> None:
    assert homeo_class_key(INV_1) == HomeoClassKey(10368, 1856)
    assert homeo_class_key(INV_2) == HomeoClassKey(10368, 1856)
    assert homeo_class_key(INV_SMALL) == HomeoClassKey(512, 106)


def test_worked_example_pair_is_homeomorphic() -> None:
    assert are_homeomorphic(INV_1, INV_2)
    assert are_homeomorphic(INV_2, INV_1)


def test_distinct_keys_are_not_homeomorphic() -> None:
    assert not are_homeomorphic(INV_1, INV_SMALL)


def test_homeomorphism_is_reflexive() -> None:
    for inv in (INV_1, INV_2, INV_SMALL):
        assert are_homeomorphic(inv, inv)


def test_obstruction_separates_worked_example_pair() -> None:
    assert diffeo_obstruction(INV_1, INV_2) is DiffeoVerdict.NOT_DIFFEOMORPHIC
    assert diffeo_obstruction(INV_2, INV_1) is DiffeoVerdict.NOT_DIFFEOMORPHIC


def test_obstruction_is_inconclusive_on_equal_indices() -> None:
    assert diffeo_obstruction(INV_1, INV_1) is DiffeoVerdict.INCONCLUSIVE


def test_obstruction_requires_shared_key() -> None:
    with pytest.raises(NotComparable):
        diffeo_obstruction(INV_1, INV_SMALL)


def test_worked_example_pair_is_catanese() -> None:
    verdict = is_catanese_tuple([TYPE_1, TYPE_2])
    assert verdict.is_catanese
    assert verdict.shared_key == HomeoClassKey(10368, 1856)
    assert verdict.indices == (18, 36)
    assert verdict.failures == ()


def test_duplicate_member_fails_on_equal_index() -> None:
    verdict = is_catanese_tuple([TYPE_1, TYPE_1])
    assert not verdict.is_catanese
    assert verdict.shared_key == HomeoClassKey(10368, 1856)
    assert any("equal divisibility index 18" in f for f in verdict.failures)


def test_distinct_keys_fail_the_tuple_check() -> None:
    verdict = is_catanese_tuple([SMALL, CoverType(9, 3, 9, 3)])
    assert not verdict.is_catanese
    assert verdict.shared_key is None
    assert any("homeomorphism keys differ" in f for f in verdict.failures)


def test_verdict_names_each_fault_against_one_witness() -> None:
    verdict = is_catanese_tuple([TYPE_1, TYPE_1, TYPE_2])
    # Pair (0, 1) shares the index; pairs (0, 2) and (1, 2) are fine.
    assert len(verdict.failures) == 1
    assert verdict.pairs == ((0, 1),)
    # Members 1 and 2 are each checked against member 0, the first holder of
    # index 18, so the pair (1, 2) is not named as well.
    verdict = is_catanese_tuple([TYPE_1, TYPE_1, TYPE_1])
    assert verdict.failures == (
        "members 0 and 1: equal divisibility index 18",
        "members 0 and 2: equal divisibility index 18",
    )
    assert verdict.pairs == ((0, 1), (0, 2))


# Four members of key (2560, 458) with indices 8, 2, 4 and 4, a member of
# another key with index 8, and the worked example's pair.
POOL = [
    CoverType(7, 3, 39, 3),
    CoverType(9, 6, 28, 3),
    CoverType(14, 5, 17, 4),
    CoverType(15, 6, 16, 3),
    SMALL,
    TYPE_1,
    TYPE_2,
]


def pairwise_failures(types: list[CoverType]) -> dict[str, tuple[int, int]]:
    """The failure string of every failing pair of members, with the pair:
    the definition of a Catanese tuple, kept as the verdict's oracle."""
    invariants = [surface_invariants(t) for t in types]
    keys = [homeo_class_key(inv) for inv in invariants]
    failures: dict[str, tuple[int, int]] = {}
    for (i, ki), (j, kj) in combinations(enumerate(keys), 2):
        if ki != kj:
            failures[
                f"members {i} and {j}: homeomorphism keys differ "
                f"({tuple(ki)} vs {tuple(kj)})"
            ] = (i, j)
    for (i, vi), (j, vj) in combinations(enumerate(invariants), 2):
        if vi.r == vj.r:
            failures[f"members {i} and {j}: equal divisibility index {vi.r}"] = (i, j)
    return failures


@given(st.lists(st.sampled_from(POOL), min_size=2, max_size=8))
def test_verdict_agrees_with_the_pairwise_definition(types: list[CoverType]) -> None:
    verdict = is_catanese_tuple(types)
    oracle = pairwise_failures(types)
    assert verdict.is_catanese == (not oracle)
    assert len(verdict.failures) == len(verdict.pairs) <= 2 * (len(types) - 1)
    if len(types) == 2:
        assert list(verdict.failures) == list(oracle)
    # Each failure is the pairwise string of the two members its pair holds.
    for failure, pair in zip(verdict.failures, verdict.pairs):
        assert oracle[failure] == pair
    # Every failing pair of the definition has a member that a failure names.
    named = {member for pair in verdict.pairs for member in pair}
    assert all(named.intersection(pair) for pair in oracle.values())


def test_inadmissible_member_is_rejected() -> None:
    with pytest.raises(InvalidMember) as excinfo:
        is_catanese_tuple([TYPE_1, CoverType(16, 22, 52, 5)])
    assert "member 1" in str(excinfo.value)


def test_inadmissible_member_past_the_digit_limit_is_named() -> None:
    # str() refuses an int of more than 4300 digits, so the message names
    # such a field by its sign and bit length.
    with pytest.raises(InvalidMember) as excinfo:
        is_catanese_tuple([CoverType(-(10**5000), 3, 7, 3), SMALL])
    assert str(excinfo.value) == (
        "member 0 (-<16610-bit integer>, 3, 7, 3): "
        "a > 2*n2 (got a=-<16610-bit integer>, n2=3); "
        "a == n2 (mod 2) (got a=-<16610-bit integer>, n2=3)"
    )


def test_tuple_needs_at_least_two_members() -> None:
    with pytest.raises(ValueError):
        is_catanese_tuple([TYPE_1])


def test_verdict_flag_is_permutation_invariant() -> None:
    forward = is_catanese_tuple([TYPE_1, TYPE_2])
    backward = is_catanese_tuple([TYPE_2, TYPE_1])
    assert forward.is_catanese == backward.is_catanese
    assert forward.shared_key == backward.shared_key
    assert sorted(forward.indices) == sorted(backward.indices)
