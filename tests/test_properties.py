"""Structural properties over random and exhaustively enumerated types."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from bidouble import (
    CoverType,
    canonicalize,
    derive_params,
    homeo_class_key,
    are_homeomorphic,
    diffeo_obstruction,
    is_catanese_tuple,
    search,
    SearchConfig,
    surface_invariants,
    swap,
    validate_type,
)
from oracle import enumerate_admissible, group_by_homeo_class

MAX_FIELD = 500


def chi_polynomial(t: CoverType) -> int:
    """Closed form of chi in the raw branch data, independent of (u, v, w, z)."""
    a, b, m2, n2 = t.as_tuple()
    return (
        4
        + a * b
        + n2 * m2
        + (a + n2) * (b + m2)
        - 2 * (a + b + m2 + n2)
    )


@st.composite
def admissible_types(draw: st.DrawFn, max_field: int = MAX_FIELD) -> CoverType:
    def pair(inner: int, outer_max: int) -> tuple[int, int]:
        # First x > 2y with matching parity, then step by 2 up to the cap.
        start = 2 * inner + 1 if inner % 2 else 2 * inner + 2
        steps = (outer_max - start) // 2
        return start + 2 * draw(st.integers(0, steps)), inner

    n2 = draw(st.integers(3, (max_field - 2) // 2))
    b = draw(st.integers(3, (max_field - 2) // 2))
    a, n2 = pair(n2, max_field)
    m2, b = pair(b, max_field)
    return CoverType(a, b, m2, n2)


@given(admissible_types())
def test_generated_types_are_admissible(t: CoverType) -> None:
    assert validate_type(t.a, t.b, t.m2, t.n2) == t


@given(admissible_types())
def test_derived_params_are_even_and_positive(t: CoverType) -> None:
    p = derive_params(t)
    assert p.u > 0 and p.v > 0 and p.w > 0 and p.z > 0
    assert p.u % 2 == p.v % 2 == p.w % 2 == p.z % 2 == 0


@given(admissible_types())
def test_kk_is_divisible_by_32(t: CoverType) -> None:
    assert surface_invariants(t).kk % 32 == 0


@given(admissible_types())
def test_noether_identity(t: CoverType) -> None:
    inv = surface_invariants(t)
    assert 12 * inv.chi == inv.kk + inv.euler


@given(admissible_types())
def test_index_is_even_and_at_least_two(t: CoverType) -> None:
    inv = surface_invariants(t)
    assert inv.r >= 2
    assert inv.r % 2 == 0


@given(admissible_types())
def test_chi_matches_its_polynomial_form(t: CoverType) -> None:
    assert surface_invariants(t).chi == chi_polynomial(t)


@given(admissible_types())
def test_swap_preserves_admissibility_and_invariants(t: CoverType) -> None:
    s = swap(t)
    assert validate_type(s.a, s.b, s.m2, s.n2) == s
    assert surface_invariants(s) == surface_invariants(t)


@given(admissible_types())
def test_canonicalize_is_idempotent_and_orbit_constant(t: CoverType) -> None:
    c = canonicalize(t)
    assert canonicalize(c) == c
    assert canonicalize(swap(t)) == c
    assert c in (t, swap(t))


@given(admissible_types(), admissible_types())
def test_homeomorphism_reduces_to_key_equality(t1: CoverType, t2: CoverType) -> None:
    inv1, inv2 = surface_invariants(t1), surface_invariants(t2)
    assert are_homeomorphic(inv1, inv2) == (
        homeo_class_key(inv1) == homeo_class_key(inv2)
    )


@given(admissible_types())
def test_type_is_homeomorphic_to_its_swap(t: CoverType) -> None:
    inv, swapped = surface_invariants(t), surface_invariants(swap(t))
    assert are_homeomorphic(inv, swapped)
    assert diffeo_obstruction(inv, swapped) == diffeo_obstruction(swapped, inv)


@settings(deadline=None, max_examples=25)
@given(st.integers(3, 30))
def test_enumeration_yields_exactly_the_canonical_classes(bound: int) -> None:
    types = list(enumerate_admissible(bound))
    assert len(types) == len(set(types))
    for t in types:
        assert canonicalize(t) == t
        assert validate_type(t.a, t.b, t.m2, t.n2) == t
        assert max(t.as_tuple()) <= bound


def test_exhaustive_invariants_up_to_bound_40() -> None:
    seen = 0
    for t in enumerate_admissible(40):
        inv = surface_invariants(t)
        p = derive_params(t)
        assert p.u % 2 == p.v % 2 == p.w % 2 == p.z % 2 == 0
        assert inv.kk % 32 == 0
        assert 12 * inv.chi == inv.kk + inv.euler
        assert inv.chi == chi_polynomial(t)
        assert inv.r % 2 == 0 and inv.r >= 2
        assert inv.b_plus % 2 == 1 and inv.b_plus > 0
        # Observed over the enumerated family, not claimed in general.
        assert inv.sigma < 0
        assert surface_invariants(swap(t)) == inv
        seen += 1
    assert seen == 11781


def test_surface_inequalities_up_to_bound_40() -> None:
    # Checks that owe nothing to the formulas for the invariants.  The covers
    # are spin (r is even), so Rokhlin makes the signature K^2 - 8 chi a
    # multiple of 16; Bogomolov-Miyaoka-Yau and Noether bound K^2 by chi.
    # The largest K^2 / chi over these types is about 6.98.
    seen = 0
    for t in enumerate_admissible(40):
        inv = surface_invariants(t)
        assert inv.sigma == inv.kk - 8 * inv.chi
        assert inv.sigma % 16 == 0
        assert inv.kk <= 9 * inv.chi
        assert inv.kk >= 2 * inv.chi - 6
        seen += 1
    assert seen == 11781


def test_bucket_members_are_mutually_homeomorphic() -> None:
    buckets = group_by_homeo_class(enumerate_admissible(30))
    for key, bucket in buckets.items():
        invariants = [surface_invariants(t) for t, _ in bucket.members()]
        for inv in invariants:
            assert homeo_class_key(inv) == key
        for inv1, inv2 in combinations(invariants, 2):
            assert are_homeomorphic(inv1, inv2)


def test_cross_bucket_samples_are_not_homeomorphic() -> None:
    buckets = list(group_by_homeo_class(enumerate_admissible(30)).values())
    rng = random.Random(408)
    for _ in range(2000):
        b1, b2 = rng.sample(buckets, 2)
        t1, _ = b1.members()[rng.randrange(len(b1))]
        t2, _ = b2.members()[rng.randrange(len(b2))]
        assert not are_homeomorphic(surface_invariants(t1), surface_invariants(t2))


def test_catanese_verdict_is_permutation_invariant() -> None:
    rng = random.Random(409)
    result = search(SearchConfig(bound=30, k=2))
    sample = rng.sample(result.tuples, 25)
    for t in sample:
        members = list(t.members)
        baseline = is_catanese_tuple(members)
        shuffled = members[:]
        rng.shuffle(shuffled)
        # Swapping branch curves must not change the verdict either.
        disguised = [swap(m) if rng.random() < 0.5 else m for m in shuffled]
        verdict = is_catanese_tuple(disguised)
        assert verdict.is_catanese == baseline.is_catanese is True
        assert verdict.shared_key == baseline.shared_key
        assert sorted(verdict.indices) == sorted(baseline.indices)
