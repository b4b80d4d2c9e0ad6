"""Homeomorphism keys, the index obstruction, and Catanese verdicts."""

from __future__ import annotations

import pytest

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


def test_verdict_reports_all_failing_pairs() -> None:
    verdict = is_catanese_tuple([TYPE_1, TYPE_1, TYPE_2])
    # Pair (0, 1) shares the index; pairs (0, 2) and (1, 2) are fine.
    assert len(verdict.failures) == 1


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
