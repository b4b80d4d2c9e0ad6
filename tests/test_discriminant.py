"""Discriminant-curve profiles, singularity counts, and certificates."""

from __future__ import annotations

import json
import random

import pytest

from bidouble import (
    CoverType,
    MultTooSmall,
    NegativeNodes,
    NotCatanese,
    OutOfRange,
    SearchConfig,
    cusp_count_general,
    discriminant_profile,
    node_count,
    search,
    surface_invariants,
    swap,
    validate_type,
    zariski_certificate,
)
from bidouble.discriminant import MAX_MULT
from bidouble.serialize import profile_from_json, profile_to_json

TYPE_1 = CoverType(16, 22, 52, 4)
TYPE_2 = CoverType(28, 10, 28, 10)
INV = surface_invariants(TYPE_1)


def test_cusp_count_matches_cubic_surface_projection() -> None:
    # Projecting the cubic surface: degree 3, ramification curve of genus 4,
    # e = 9, branch sextic with six cusps.
    assert cusp_count_general(3, 4, 9) == 6


def test_cusp_count_vanishes_on_unbranched_profile() -> None:
    # 2g - 2 = e - 3N leaves nothing for cusps.
    assert cusp_count_general(10, 3, 34) == 0


def test_node_count_smooth_sextic() -> None:
    # The cusp contribution exhausts the genus drop of the branch sextic.
    assert node_count(6, 4, 6) == 0


def test_node_count_worked_example() -> None:
    assert node_count(829440, 1410049, 3585792) == 343979116800


def test_node_count_rejects_negative_residual() -> None:
    # deg 6 curve: (5*4)/2 = 10 = genus leaves -1 after one cusp.
    with pytest.raises(NegativeNodes):
        node_count(6, 10, 1)


def test_profile_worked_example_at_mult_five() -> None:
    profile = discriminant_profile(INV, 5)
    assert profile.mult == 5
    assert profile.ram_mult == 16
    assert profile.deg_f == 259200
    assert profile.deg_b == 829440
    assert profile.half_deg == 414720
    assert profile.genus == 1410049
    assert profile.cusps == 3585792
    assert profile.nodes == 343979116800


def test_profile_rejects_small_multiples() -> None:
    for mult in (0, 1, 4):
        with pytest.raises(MultTooSmall):
            discriminant_profile(INV, mult)


def test_profile_names_a_small_multiple_past_the_digit_limit() -> None:
    # str() refuses an int of more than 4300 digits, so the message names
    # such a multiple by its sign and bit length.
    with pytest.raises(MultTooSmall) as excinfo:
        discriminant_profile(INV, -(10**5000))
    assert str(excinfo.value) == "canonical multiple must be >= 5, got -<16610-bit integer>"


def test_profile_refuses_multiples_from_max_mult_on() -> None:
    for mult in (10**1000, 10**1100, 10**5000):
        with pytest.raises(OutOfRange, match=r"below 10\*\*1000$"):
            discriminant_profile(INV, mult)


def test_profile_below_max_mult_round_trips_at_the_largest_k_squared() -> None:
    # Every field of the largest admissible type is at or near the cap, so
    # K^2 = 8 * 14996^2 is the largest there is; nodes then has about 4020
    # digits, still within the int/str conversion limit.
    inv = surface_invariants(validate_type(10000, 4998, 10000, 4998))
    assert inv.kk == 8 * 14996**2
    profile = discriminant_profile(inv, MAX_MULT - 1)
    assert 4000 < len(str(profile.nodes)) < 4300
    assert profile_from_json(json.loads(json.dumps(profile_to_json(profile)))) == profile


def test_profile_closed_forms_over_a_mult_range() -> None:
    for mult in range(5, 21):
        profile = discriminant_profile(INV, mult)
        ram = 3 * mult + 1
        assert profile.deg_b == INV.kk * mult * ram
        assert profile.genus - 1 == INV.kk * ram * (ram + 1) // 2
        assert profile.deg_b * mult == profile.ram_mult * profile.deg_f
        assert profile.deg_b == 2 * profile.half_deg
        assert profile.nodes >= 0


def ciliberto_flamini_cusps(kk: int, chi: int, mult: int) -> int:
    """Cusps of the branch curve of a general projection by L = mK, after
    Ciliberto and Flamini (Trans. AMS 2011): 12L^2 + 9KL + 3K^2 - 12chi."""
    return kk * (12 * mult * mult + 9 * mult + 3) - 12 * chi


def test_cusps_agree_with_the_ciliberto_flamini_formula() -> None:
    # A second derivation of the count that cusp_count_general reaches
    # through the Euler characteristic: every member of every bound-40
    # Catanese tuple, at m = 5..12.
    members = {m for t in search(SearchConfig(bound=40)).tuples for m in t.members}
    assert len(members) == 1_068
    for member in members:
        inv = surface_invariants(member)
        for mult in range(5, 13):
            want = ciliberto_flamini_cusps(inv.kk, inv.chi, mult)
            assert discriminant_profile(inv, mult).cusps == want
    # The constant term of the paper's type, 3K^2 - 12chi.
    assert (INV.kk, INV.chi) == (10368, 1856)
    for mult in range(5, 13):
        cusps = discriminant_profile(INV, mult).cusps
        assert cusps - INV.kk * (12 * mult * mult + 9 * mult) == 8832


def test_profile_depends_only_on_key() -> None:
    other = surface_invariants(TYPE_2)
    for mult in (5, 9):
        assert discriminant_profile(INV, mult) == discriminant_profile(other, mult)


def test_certificate_for_worked_example_pair() -> None:
    cert = zariski_certificate([TYPE_2, TYPE_1], [5, 6])
    assert cert.members == (TYPE_1, TYPE_2)
    assert tuple(cert.shared) == (10368, 1856)
    assert cert.indices == (18, 36)
    assert [p.mult for p in cert.profiles] == [5, 6]
    assert cert.profiles[0].deg_b == 829440


def test_certificate_members_are_canonicalized() -> None:
    cert = zariski_certificate([CoverType(52, 4, 16, 22), TYPE_2], [5])
    assert cert.members == (TYPE_1, TYPE_2)
    # Every bound-40 tuple, members shuffled and some swapped: the
    # certificate lists the canonical members sorted, each with its index.
    rng = random.Random(40)
    for k in (2, 3):
        for t in search(SearchConfig(bound=40, k=k)).tuples:
            types = [swap(m) if rng.random() < 0.5 else m for m in t.members]
            rng.shuffle(types)
            for mults in ([], [5], [7, 5, 12]):
                cert = zariski_certificate(types, mults)
                assert cert.members == t.members
                assert cert.indices == t.indices
                assert cert.shared == t.key
                inv = surface_invariants(t.members[-1])
                assert cert.profiles == tuple(discriminant_profile(inv, m) for m in mults)
                assert cert == zariski_certificate(list(t.members), mults)


def test_certificate_argument_chain() -> None:
    cert = zariski_certificate([TYPE_1, TYPE_2], [5])
    assert [s.step for s in cert.argument] == [1, 2, 3, 4, 5]
    assert [s.name for s in cert.argument] == [
        "shared_curve_data",
        "hypothetical_lift",
        "index_equality_forced",
        "distinct_indices",
        "contradiction",
    ]
    assert "deg B=829440" in cert.argument[0].statement
    assert "[18, 36]" in cert.argument[3].statement


def test_certificate_without_multiples() -> None:
    cert = zariski_certificate([TYPE_1, TYPE_2], [])
    assert cert.profiles == ()
    assert cert.indices == (18, 36)
    assert len(cert.argument) == 5


def test_certificate_rejects_non_catanese_input() -> None:
    with pytest.raises(NotCatanese) as excinfo:
        zariski_certificate([CoverType(7, 3, 7, 3), CoverType(9, 3, 9, 3)], [5])
    assert excinfo.value.failures


def test_certificate_rejects_small_multiples() -> None:
    with pytest.raises(MultTooSmall):
        zariski_certificate([TYPE_1, TYPE_2], [4])
