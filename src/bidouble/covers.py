"""Branch data of simple bidouble covers of the quadric and their invariants.

A cover type is a quadruple (a, b, m2, n2) of positive integers recording the
bidegrees of the two smooth branch curves on the quadric.  The family studied
here is cut out by six constraints:

    a > 2*n2,   n2 >= 3,   m2 > 2*b,   b >= 3,
    a == n2 (mod 2),   b == m2 (mod 2),

and every numerical invariant of the covering surface is an exact integer
function of the quadruple, so this module never touches floating point.
The derived parameters

    u = n2 + a - 2,   v = m2 + b - 2,   w = a - n2,   z = m2 - b

are all even for admissible types, which makes the halvings in the chi
formula exact.  Exchanging the two branch curves, (a, b, m2, n2) ->
(m2, n2, a, b), swaps u with v and w with z, hence fixes every invariant;
the lexicographically smaller member of each orbit is the canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ConstraintViolation, OutOfRange, int_text, is_int

#: Inclusive cap applied to every branch-data field.  It also keeps the
#: search kernel's 16-bit array of fields in range.  It does
#: not keep a search small: bound 10000 means about 7.8e13 types, which
#: :data:`bidouble.search.MAX_SEARCH_TYPES` refuses.
DEFAULT_FIELD_CAP = 10_000


@dataclass(frozen=True, slots=True, order=True)
class CoverType:
    """Branch data (a, b, m2, n2) of a simple bidouble cover of the quadric.

    Ordering is lexicographic on the fields; construction does not validate,
    use :func:`validate_type` to enforce admissibility.
    """

    a: int
    b: int
    m2: int
    n2: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.m2, self.n2)


@dataclass(frozen=True, slots=True)
class DerivedParams:
    """The even parameters (u, v, w, z) attached to a cover type."""

    u: int
    v: int
    w: int
    z: int


@dataclass(frozen=True, slots=True)
class SurfaceInvariants:
    """Numerical invariants of the surface covering the quadric.

    ``kk`` is the self-intersection of the canonical class, ``chi`` the
    holomorphic Euler characteristic, ``euler`` the topological Euler number,
    ``sigma`` the signature, ``b2``/``b_plus``/``b_minus`` the middle Betti
    numbers, ``p_g`` the geometric genus (the covers are regular, so
    p_g = chi - 1), and ``r`` the divisibility index of the canonical class
    in integral cohomology.
    """

    kk: int
    chi: int
    euler: int
    sigma: int
    b2: int
    b_plus: int
    b_minus: int
    p_g: int
    r: int


def validate_type(a: int, b: int, m2: int, n2: int) -> CoverType:
    """Check admissibility of (a, b, m2, n2) and return the cover type.

    Raises :class:`OutOfRange` if any field exceeds :data:`DEFAULT_FIELD_CAP`
    and otherwise :class:`ConstraintViolation` carrying every violated
    constraint, not just the first, so a single call yields the complete
    diagnosis.
    """
    fields = (("a", a), ("b", b), ("m2", m2), ("n2", n2))
    for name, value in fields:
        if not is_int(value):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    for name, value in fields:
        if value > DEFAULT_FIELD_CAP:
            raise OutOfRange(f"{name}={int_text(value)} exceeds the field cap {DEFAULT_FIELD_CAP}")
    holds = (
        a > 2 * n2,
        n2 >= 3,
        m2 > 2 * b,
        b >= 3,
        (a - n2) % 2 == 0,
        (b - m2) % 2 == 0,
    )
    if not all(holds):
        # The messages, in the constraints' order, only once one fails.  Each
        # value is message text; str() refuses one of more than 4300 digits.
        a_, b_, m2_, n2_ = map(int_text, (a, b, m2, n2))
        messages = (
            f"a > 2*n2 (got a={a_}, n2={n2_})",
            f"n2 >= 3 (got n2={n2_})",
            f"m2 > 2*b (got m2={m2_}, b={b_})",
            f"b >= 3 (got b={b_})",
            f"a == n2 (mod 2) (got a={a_}, n2={n2_})",
            f"b == m2 (mod 2) (got b={b_}, m2={m2_})",
        )
        raise ConstraintViolation([m for ok, m in zip(holds, messages) if not ok])
    return CoverType(a, b, m2, n2)


def swap(t: CoverType) -> CoverType:
    """The involution exchanging the two branch curves.

    Sends (a, b, m2, n2) to (m2, n2, a, b); admissible types go to admissible
    types, and u <-> v, w <-> z, so all surface invariants are preserved.
    """
    return CoverType(t.m2, t.n2, t.a, t.b)


def canonicalize(t: CoverType) -> CoverType:
    """Lexicographically smaller of a type and its branch-swap image."""
    return min(t, swap(t))


def derive_params(t: CoverType) -> DerivedParams:
    """u = n2 + a - 2, v = m2 + b - 2, w = a - n2, z = m2 - b."""
    return DerivedParams(*_uvwz(t))


def _uvwz(t: CoverType) -> tuple[int, int, int, int]:
    return t.n2 + t.a - 2, t.m2 + t.b - 2, t.a - t.n2, t.m2 - t.b


def divisibility_index(p: DerivedParams) -> int:
    """Divisibility index of the canonical class: gcd(u, v).

    u and v are both even for admissible types, so the index is even and
    at least 2; the canonical class is never primitive in this family.
    """
    return gcd(p.u, p.v)


def surface_invariants(t: CoverType) -> SurfaceInvariants:
    """All numerical invariants of the cover with branch data ``t``.

    The two primary invariants are

        K^2 = 8*u*v,
        chi = (3/2)*u*v + (u + v) + 2 - (1/2)*w*z,

    exact because u, v, w, z are even.  Everything else follows from the
    pair (K^2, chi): e = 12*chi - K^2 by Noether's formula, sigma = K^2 -
    8*chi, b2 = e - 2, b+ = 2*chi - 1, b- = b2 - b+, p_g = chi - 1.
    """
    # The parameters of derive_params, without a DerivedParams object.
    u, v, w, z = _uvwz(t)
    half_3uv, rem_uv = divmod(3 * u * v, 2)
    half_wz, rem_wz = divmod(w * z, 2)
    if rem_uv or rem_wz:
        # Only reachable when the parity constraints were never checked.
        raise ValueError(f"type {t.as_tuple()} violates the parity constraints")
    kk = 8 * u * v
    chi = half_3uv + u + v + 2 - half_wz
    euler = 12 * chi - kk
    sigma = kk - 8 * chi
    b2 = euler - 2
    b_plus = 2 * chi - 1
    # In field order, ending in b_minus, p_g and r, the divisibility index gcd(u, v).
    return SurfaceInvariants(kk, chi, euler, sigma, b2, b_plus, b2 - b_plus, chi - 1, gcd(u, v))
