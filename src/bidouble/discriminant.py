"""Discriminant curves of pluricanonical projections and Zariski certificates.

A 3-dimensional subsystem of the m-th canonical system (m >= 5) gives a
generic morphism to the plane of degree N = m^2 K^2.  Its ramification curve
lies in (3m+1) times the canonical class, which pins down the degree and the
geometric genus of the branch curve B:

    deg B = m(3m+1) K^2,       2g - 2 = (3m+1)(3m+2) K^2.

The cusp count comes from an Euler-characteristic stratification of the
plane (curve complement, smooth branch points, nodes, cusps carry N, N-1,
N-2, N-2 preimages), which forces c = 3N + 2g - 2 - e(S); the classical
projection of the cubic surface (N=3, g=4, e=9, sextic branch curve with six
cusps) pins the formula.  Nodes are the leftover term of the plane-curve
genus formula.  Counts grow like the square of deg B, so everything stays
in exact integer arithmetic.

All this data depends only on (K^2, chi), so members of a Catanese tuple
have discriminant curves with identical numerical profiles for every m;
the divisibility indices then separate the pairs, and the resulting chain
of assertions is packaged as a machine-checkable Zariski certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .covers import CoverType, SurfaceInvariants, canonicalize, surface_invariants
from .errors import MultTooSmall, NegativeNodes, NotCatanese, OutOfRange, int_text
from .topology import HomeoClassKey, homeo_class_key, is_catanese_tuple

#: Smallest canonical multiple for which the projection is generic enough
#: for the fiber counts above to hold.
MIN_MULT = 5

#: Canonical multiples are below this, so that every profile field stays
#: within the 4300 digits Python converts between int and text: at the
#: largest admissible K^2 (8 * 14996^2) and m = MAX_MULT - 1, the largest
#: field, nodes, has about 4020 digits.
MAX_MULT = 10**1000


@dataclass(frozen=True, slots=True)
class DiscriminantProfile:
    """Numerical profile of the discriminant curve at one canonical multiple.

    ``deg_f`` is the degree of the projection, ``deg_b`` the degree of the
    branch curve, ``half_deg`` its half (deg_b is always even here), ``genus``
    the geometric genus, ``ram_mult`` = 3m+1 the canonical multiple cut out by
    the ramification curve.
    """

    mult: int
    ram_mult: int
    deg_f: int
    deg_b: int
    half_deg: int
    genus: int
    cusps: int
    nodes: int


@dataclass(frozen=True, slots=True)
class ArgumentStep:
    """One assertion in the certificate chain, with concrete numbers inlined."""

    step: int
    name: str
    statement: str


@dataclass(frozen=True, slots=True)
class ZariskiCertificate:
    """Machine-checkable witness that a Catanese tuple yields Zariski pairs.

    ``members`` are the canonical forms sorted lexicographically; ``profiles``
    hold the shared discriminant data, one entry per requested multiple;
    ``argument`` is the ordered assertion chain ending in the contradiction.
    """

    members: tuple[CoverType, ...]
    shared: HomeoClassKey
    indices: tuple[int, ...]
    profiles: tuple[DiscriminantProfile, ...]
    argument: tuple[ArgumentStep, ...]


def cusp_count_general(deg_f: int, genus: int, euler: int) -> int:
    """Cusps of the branch curve of a generic degree ``deg_f`` morphism.

    Stratifying the plane by the fiber cardinality (N off the branch curve,
    N-1 over smooth branch points, N-2 over nodes and cusps) and summing
    Euler characteristics leaves c = 3N + 2g - 2 - e, independent of the
    node count.
    """
    return 3 * deg_f + 2 * genus - 2 - euler


def node_count(deg_b: int, genus: int, cusps: int) -> int:
    """Nodes as the residual of the plane-curve genus formula.

    For an irreducible plane curve of degree d with only nodes and cusps,
    g = (d-1)(d-2)/2 - nodes - cusps.  A negative residual means the inputs
    cannot come from such a curve (:class:`NegativeNodes`).
    """
    nodes = (deg_b - 1) * (deg_b - 2) // 2 - genus - cusps
    if nodes < 0:
        raise NegativeNodes(
            f"node count {nodes} < 0 for deg_b={deg_b}, genus={genus}, cusps={cusps}"
        )
    return nodes


def discriminant_profile(inv: SurfaceInvariants, mult: int) -> DiscriminantProfile:
    """Profile of the discriminant curve of the ``mult``-canonical projection.

    Requires 5 <= ``mult`` < :data:`MAX_MULT` (:class:`MultTooSmall` below,
    :class:`OutOfRange` above); every output field is determined by (K^2,
    chi) and ``mult`` alone.
    """
    if mult < MIN_MULT:
        raise MultTooSmall(f"canonical multiple must be >= {MIN_MULT}, got {int_text(mult)}")
    if mult >= MAX_MULT:
        # str() of such a number may itself exceed the conversion limit.
        raise OutOfRange("canonical multiple must be below 10**1000")
    kk = inv.kk
    ram_mult = 3 * mult + 1
    deg_f = mult * mult * kk
    deg_b = mult * ram_mult * kk
    # kk is divisible by 32, so both halvings below are exact.
    genus = ram_mult * (ram_mult + 1) * kk // 2 + 1
    cusps = cusp_count_general(deg_f, genus, inv.euler)
    nodes = node_count(deg_b, genus, cusps)
    return DiscriminantProfile(
        mult=mult,
        ram_mult=ram_mult,
        deg_f=deg_f,
        deg_b=deg_b,
        half_deg=deg_b // 2,
        genus=genus,
        cusps=cusps,
        nodes=nodes,
    )


def zariski_certificate(
    types: Sequence[CoverType], mults: Sequence[int]
) -> ZariskiCertificate:
    """Assemble the certificate for a Catanese tuple at the given multiples.

    Raises :class:`NotCatanese` (with the per-pair failures) when the members
    do not form a Catanese tuple and, from :func:`discriminant_profile`,
    :class:`MultTooSmall` or :class:`OutOfRange` at the first multiple out of
    range.  Profiles are computed once from the shared (K^2, chi): by
    construction they apply verbatim to every member.
    """
    verdict = is_catanese_tuple(types)
    if not verdict.is_catanese:
        raise NotCatanese(verdict.failures)
    members = tuple(sorted(canonicalize(t) for t in types))
    invariants = [surface_invariants(t) for t in members]
    shared = homeo_class_key(invariants[0])
    indices = tuple(inv.r for inv in invariants)
    profiles = tuple(discriminant_profile(invariants[0], m) for m in mults)
    return ZariskiCertificate(
        members=members,
        shared=shared,
        indices=indices,
        profiles=profiles,
        argument=_argument_steps(shared, indices, profiles),
    )


def _argument_steps(
    shared: HomeoClassKey,
    indices: tuple[int, ...],
    profiles: tuple[DiscriminantProfile, ...],
) -> tuple[ArgumentStep, ...]:
    if profiles:
        data = "; ".join(
            f"m={p.mult}: deg B={p.deg_b}, genus={p.genus}, "
            f"cusps={p.cusps}, nodes={p.nodes}"
            for p in profiles
        )
        shared_stmt = (
            f"All members share K^2={shared.kk} and chi={shared.chi}, so their "
            f"discriminant curves carry identical numerical data at every listed "
            f"multiple ({data}); equal degree and singularity data make the "
            f"curves combinatorially indistinguishable in the plane."
        )
        ram_note = (
            " (here "
            + ", ".join(f"3m+1={p.ram_mult} for m={p.mult}" for p in profiles)
            + ")"
        )
    else:
        shared_stmt = (
            f"All members share K^2={shared.kk} and chi={shared.chi}; every "
            f"discriminant profile is a function of this pair alone, so the "
            f"curve data agree at any canonical multiple m >= {MIN_MULT}."
        )
        ram_note = ""
    steps = (
        ArgumentStep(1, "shared_curve_data", shared_stmt),
        ArgumentStep(
            2,
            "hypothetical_lift",
            "Suppose a homeomorphism of plane pairs carried the discriminant "
            "curve of one member to that of another.  Generic coverings of "
            "degree at least 5 are determined by their branch curves, so the "
            "homeomorphism would lift to one of the covering surfaces taking "
            "ramification curve to ramification curve.",
        ),
        ArgumentStep(
            3,
            "index_equality_forced",
            "The ramification curve of the m-canonical projection lies in "
            f"(3m+1) times the canonical class{ram_note}, so a lift matching "
            "ramification curves would identify the canonical classes in "
            "integral cohomology and force equal divisibility indices.",
        ),
        ArgumentStep(
            4,
            "distinct_indices",
            f"The computed divisibility indices are pairwise distinct: "
            f"{list(indices)}.",
        ),
        ArgumentStep(
            5,
            "contradiction",
            "Hence no such homeomorphism of pairs exists: the discriminant "
            "curves share all numerical data yet sit differently in the "
            "plane, a Zariski tuple.",
        ),
    )
    return steps
