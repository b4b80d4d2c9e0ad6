"""Branch-data validation, derived parameters, and surface invariants."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bidouble import (
    ConstraintViolation,
    CoverType,
    DerivedParams,
    OutOfRange,
    canonicalize,
    derive_params,
    divisibility_index,
    surface_invariants,
    swap,
    validate_type,
)

TYPE_1 = CoverType(16, 22, 52, 4)
TYPE_2 = CoverType(28, 10, 28, 10)


def test_validate_accepts_first_worked_example() -> None:
    assert validate_type(16, 22, 52, 4) == TYPE_1


def test_validate_accepts_smallest_odd_type() -> None:
    # 7 > 6 on both sides, both pairs odd.
    assert validate_type(7, 3, 7, 3) == CoverType(7, 3, 7, 3)


def test_validate_reports_single_parity_violation() -> None:
    with pytest.raises(ConstraintViolation) as excinfo:
        validate_type(16, 22, 52, 5)
    assert excinfo.value.violations == ["a == n2 (mod 2) (got a=16, n2=5)"]


def test_validate_reports_every_violation_at_once() -> None:
    # (3, 2, 3, 2) breaks all six constraints simultaneously.
    with pytest.raises(ConstraintViolation) as excinfo:
        validate_type(3, 2, 3, 2)
    assert len(excinfo.value.violations) == 6


def test_validate_reports_both_inequality_violations() -> None:
    with pytest.raises(ConstraintViolation) as excinfo:
        validate_type(5, 3, 5, 3)
    assert excinfo.value.violations == [
        "a > 2*n2 (got a=5, n2=3)",
        "m2 > 2*b (got m2=5, b=3)",
    ]


def test_validate_enforces_field_cap() -> None:
    with pytest.raises(OutOfRange):
        validate_type(10_001, 22, 52, 5)


def test_validate_names_fields_past_the_digit_limit() -> None:
    with pytest.raises(OutOfRange, match=r"^a=<16610-bit integer> exceeds the field cap 10000$"):
        validate_type(10**5000, 3, 7, 3)
    with pytest.raises(ConstraintViolation) as excinfo:
        validate_type(-(10**5000), 3, 7, 3)
    assert excinfo.value.violations == [
        "a > 2*n2 (got a=-<16610-bit integer>, n2=3)",
        "a == n2 (mod 2) (got a=-<16610-bit integer>, n2=3)",
    ]


def _violations(a: int, b: int, m2: int, n2: int) -> list[str]:
    """The six constraints' messages, restated here in order, kept where the constraint fails."""
    checks = [
        (a > 2 * n2, f"a > 2*n2 (got a={a}, n2={n2})"),
        (n2 >= 3, f"n2 >= 3 (got n2={n2})"),
        (m2 > 2 * b, f"m2 > 2*b (got m2={m2}, b={b})"),
        (b >= 3, f"b >= 3 (got b={b})"),
        ((a - n2) % 2 == 0, f"a == n2 (mod 2) (got a={a}, n2={n2})"),
        ((b - m2) % 2 == 0, f"b == m2 (mod 2) (got b={b}, m2={m2})"),
    ]
    return [message for ok, message in checks if not ok]


@given(st.tuples(*[st.integers(-5, 60)] * 4))
def test_validate_reports_exactly_the_failing_constraints_in_order(
    fields: tuple[int, int, int, int],
) -> None:
    expected = _violations(*fields)
    if not expected:
        assert validate_type(*fields) == CoverType(*fields)
        return
    with pytest.raises(ConstraintViolation) as excinfo:
        validate_type(*fields)
    assert excinfo.value.violations == expected
    assert str(excinfo.value) == "; ".join(expected)


def test_validate_rejects_non_integers() -> None:
    with pytest.raises(TypeError):
        validate_type(16.0, 22, 52, 4)  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        validate_type(True, 22, 52, 4)


def test_derive_params_worked_examples() -> None:
    assert derive_params(TYPE_1) == DerivedParams(u=18, v=72, w=12, z=30)
    assert derive_params(TYPE_2) == DerivedParams(u=36, v=36, w=18, z=18)
    assert derive_params(CoverType(7, 3, 7, 3)) == DerivedParams(u=8, v=8, w=4, z=4)


def test_derived_params_all_even_for_admissible_types() -> None:
    for t in (TYPE_1, TYPE_2, CoverType(7, 3, 9, 3), CoverType(9, 3, 9, 3)):
        p = derive_params(t)
        assert p.u % 2 == p.v % 2 == p.w % 2 == p.z % 2 == 0


def test_divisibility_index_worked_examples() -> None:
    assert divisibility_index(DerivedParams(18, 72, 12, 30)) == 18
    assert divisibility_index(DerivedParams(36, 36, 18, 18)) == 36
    # From type (9, 3, 7, 3): u = 10, v = 8.
    assert divisibility_index(derive_params(CoverType(9, 3, 7, 3))) == 2


def test_surface_invariants_first_member() -> None:
    inv = surface_invariants(TYPE_1)
    assert inv.kk == 10368
    assert inv.chi == 1856
    assert inv.euler == 11904
    assert inv.sigma == -4480
    assert inv.b2 == 11902
    assert inv.b_plus == 3711
    assert inv.b_minus == 8191
    assert inv.p_g == 1855
    assert inv.r == 18


def test_surface_invariants_second_member_shares_key() -> None:
    inv = surface_invariants(TYPE_2)
    assert (inv.kk, inv.chi) == (10368, 1856)
    assert inv.r == 36


def test_surface_invariants_small_types() -> None:
    inv = surface_invariants(CoverType(7, 3, 7, 3))
    assert (inv.kk, inv.chi, inv.r) == (512, 106, 8)
    inv = surface_invariants(CoverType(9, 3, 9, 3))
    assert (inv.kk, inv.chi) == (800, 154)


def test_betti_numbers_are_consistent() -> None:
    for t in (TYPE_1, TYPE_2, CoverType(7, 3, 7, 3)):
        inv = surface_invariants(t)
        assert inv.b_plus + inv.b_minus == inv.b2
        assert inv.b_plus - inv.b_minus == inv.sigma
        assert inv.b2 + 2 == inv.euler


def test_swap_exchanges_branch_curves() -> None:
    assert swap(TYPE_1) == CoverType(52, 4, 16, 22)
    assert swap(swap(TYPE_1)) == TYPE_1
    assert swap(TYPE_2) == TYPE_2


def test_canonicalize_picks_lex_min_of_orbit() -> None:
    assert canonicalize(CoverType(52, 4, 16, 22)) == TYPE_1
    assert canonicalize(TYPE_1) == TYPE_1
    assert canonicalize(CoverType(9, 3, 7, 3)) == CoverType(7, 3, 9, 3)
    assert canonicalize(TYPE_2) == TYPE_2


def test_swap_image_of_admissible_type_is_admissible() -> None:
    for t in (TYPE_1, TYPE_2, CoverType(7, 3, 9, 3)):
        s = swap(t)
        assert validate_type(s.a, s.b, s.m2, s.n2) == s
