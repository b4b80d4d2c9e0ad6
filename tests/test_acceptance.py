"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
expected value here is either a hand-checked constant, an independently
recomputed oracle (the quadruple-loop enumeration, the closed forms in m),
or a frozen output of the published worked example.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Callable

from bidouble import (
    CatalogRecord,
    CoverType,
    SearchConfig,
    cusp_count_general,
    derive_params,
    discriminant_profile,
    homeo_class_key,
    are_homeomorphic,
    is_catanese_tuple,
    node_count,
    read_catalog,
    search,
    surface_invariants,
    swap,
    write_catalog,
    zariski_certificate,
)
from bidouble.serialize import certificate_from_json, certificate_to_json
from bidouble.topology import HomeoClassKey
from oracle import brute_force_canonical, enumerate_admissible, group_by_homeo_class

TYPE_1 = CoverType(16, 22, 52, 4)
TYPE_2 = CoverType(28, 10, 28, 10)
PRINTED_CHI = 1456
SEED = 20260823


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _per_call_seconds(fn: Callable[[], object], loops: int = 200) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def _chi_polynomial(t: CoverType) -> int:
    a, b, m2, n2 = t.as_tuple()
    return 4 + a * b + n2 * m2 + (a + n2) * (b + m2) - 2 * (a + b + m2 + n2)


def _random_admissible(rng: random.Random, cap: int = 10_000) -> CoverType:
    def pick() -> tuple[int, int]:
        y = rng.randrange(3, (cap - 2) // 2 + 1)
        start = 2 * y + 1 if y % 2 else 2 * y + 2
        return rng.randrange(start, cap + 1, 2), y

    a, n2 = pick()
    m2, b = pick()
    return CoverType(a, b, m2, n2)


def test_criterion_1_kk_and_indices_of_the_worked_example() -> None:
    inv1 = surface_invariants(TYPE_1)
    inv2 = surface_invariants(TYPE_2)
    seconds = max(
        _per_call_seconds(lambda: surface_invariants(TYPE_1)),
        _per_call_seconds(lambda: surface_invariants(TYPE_2)),
    )
    ok = (
        inv1.kk == 10368
        and inv2.kk == 10368
        and inv1.r == 18
        and inv2.r == 36
        and seconds < 1e-3
    )
    _report(
        1,
        ok,
        f"kk=({inv1.kk}, {inv2.kk}) expected (10368, 10368), "
        f"r=({inv1.r}, {inv2.r}) expected (18, 36), "
        f"{seconds * 1e6:.1f} us per type (limit 1 ms)",
    )


def test_criterion_2_chi_recomputation_disagrees_with_the_printed_value() -> None:
    chi1 = surface_invariants(TYPE_1).chi
    chi2 = surface_invariants(TYPE_2).chi
    ok = chi1 == chi2 == 1856
    # The printed chi is reported as a delta, never asserted.
    _report(
        2,
        ok,
        f"chi=({chi1}, {chi2}) expected (1856, 1856); printed value "
        f"{PRINTED_CHI} differs from the recomputation by {chi1 - PRINTED_CHI}",
    )


def test_criterion_3_discriminant_closed_forms_for_small_multiples() -> None:
    inv = surface_invariants(TYPE_1)
    worst = 0.0
    ok = True
    for mult in range(5, 11):
        profile = discriminant_profile(inv, mult)
        ram = 3 * mult + 1
        ok = ok and profile.deg_b == 10368 * mult * ram
        ok = ok and profile.genus == 5184 * (ram + 1) * ram + 1
        worst = max(
            worst, _per_call_seconds(lambda: discriminant_profile(inv, mult))
        )
    ok = ok and worst < 1e-3
    _report(
        3,
        ok,
        f"deg_b and genus match the closed forms for m in 5..10, "
        f"worst {worst * 1e6:.1f} us per multiple (limit 1 ms)",
    )


def test_criterion_4_cusp_oracle_and_constant_offset() -> None:
    cubic_ok = cusp_count_general(3, 4, 9) == 6 and node_count(6, 4, 6) == 0
    inv = surface_invariants(TYPE_1)
    offsets = {
        discriminant_profile(inv, mult).cusps - 10368 * (12 * mult * mult + 9 * mult)
        for mult in range(5, 51)
    }
    ok = cubic_ok and len(offsets) == 1
    _report(
        4,
        ok,
        f"cubic-surface oracle (6 cusps, 0 nodes) holds; cusp count minus "
        f"10368*(12m^2+9m) over m in 5..50 is {sorted(offsets)} "
        f"(single constant required)",
    )


def test_criterion_5_bounded_search_recovers_the_worked_example_pair() -> None:
    start = time.perf_counter()
    result = search(SearchConfig(bound=60, k=2))
    elapsed = time.perf_counter() - start
    key = HomeoClassKey(10368, 1856)
    buckets = group_by_homeo_class(enumerate_admissible(60))
    members = {t for t, _ in buckets[key].members()} if key in buckets else set()
    example_pairs = [t for t in result.tuples if t.members == (TYPE_1, TYPE_2)]
    ok = (
        TYPE_1 in members
        and TYPE_2 in members
        and len(example_pairs) == 1
        and example_pairs[0].indices == (18, 36)
        and elapsed < 10.0
    )
    _report(
        5,
        ok,
        f"bucket (10368, 1856) holds both example types among "
        f"{len(members)} members, the example pair is emitted exactly once, "
        f"search took {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_6_enumeration_matches_the_brute_force_oracle() -> None:
    bound = 40
    brute = brute_force_canonical(bound)
    fast = set(enumerate_admissible(bound))
    ok = fast == brute and len(fast) == 11781
    _report(
        6,
        ok,
        f"enumeration at bound {bound} equals the quadruple-loop oracle "
        f"modulo the branch swap: {len(fast)} canonical classes "
        f"(oracle {len(brute)})",
    )


def test_criterion_7_property_suite() -> None:
    failures: list[str] = []

    def check(label: str, condition: bool) -> None:
        if not condition:
            failures.append(label)

    exhaustive = list(enumerate_admissible(40))
    for t in exhaustive:
        p = derive_params(t)
        inv = surface_invariants(t)
        check("evenness", not (p.u % 2 or p.v % 2 or p.w % 2 or p.z % 2))
        check("kk mod 32", inv.kk % 32 == 0)
        check("noether", 12 * inv.chi == inv.kk + inv.euler)
        check("chi polynomial", inv.chi == _chi_polynomial(t))
        check("involution", surface_invariants(swap(t)) == inv)
        if failures:
            break

    rng = random.Random(SEED)
    previous = None
    for _ in range(100_000):
        t = _random_admissible(rng)
        inv = surface_invariants(t)
        check("random chi polynomial", inv.chi == _chi_polynomial(t))
        check("random noether", 12 * inv.chi == inv.kk + inv.euler)
        check("random involution", surface_invariants(swap(t)).chi == inv.chi)
        if previous is not None:
            check(
                "key reduction",
                are_homeomorphic(previous, inv)
                == (homeo_class_key(previous) == homeo_class_key(inv)),
            )
        previous = inv
        if failures:
            break

    tuples = search(SearchConfig(bound=40, k=2)).tuples
    for t in rng.sample(tuples, 50):
        members = list(t.members)
        rng.shuffle(members)
        disguised = [swap(m) if rng.random() < 0.5 else m for m in members]
        verdict = is_catanese_tuple(disguised)
        check("permutation invariance", verdict.is_catanese)
        check("permutation key", verdict.shared_key == t.key)
        check("permutation indices", sorted(verdict.indices) == sorted(t.indices))
        if failures:
            break

    ok = not failures
    _report(
        7,
        ok,
        f"evenness, kk mod 32, Noether, chi polynomial, involution over "
        f"{len(exhaustive)} exhaustive types and 100000 seeded random types; "
        f"key reduction and tuple permutation invariance"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_8_certificate_round_trip(tmp_path: Path) -> None:
    cert = zariski_certificate([TYPE_1, TYPE_2], [5, 6])
    path = tmp_path / "catalog.jsonl"
    write_catalog(
        [CatalogRecord(kind="certificate", payload=certificate_to_json(cert))], path
    )
    (record,) = read_catalog(path)
    restored = certificate_from_json(record.payload)
    verdict = is_catanese_tuple(list(restored.members))
    ok = (
        restored == cert
        and verdict.is_catanese
        and [p.nodes for p in restored.profiles]
        == [p.nodes for p in cert.profiles]
        and restored.indices == (18, 36)
    )
    _report(
        8,
        ok,
        "certificate for the worked example survives the JSONL round trip "
        "bit for bit and re-verifies as a Catanese pair",
    )
