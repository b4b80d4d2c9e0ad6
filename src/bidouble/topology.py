"""Homeomorphism classification and the divisibility-index obstruction.

The covers in this family are simply connected with even intersection form
(the canonical class is 2-divisible), so by Freedman's classification the
oriented homeomorphism type is determined by rank and signature of the form,
equivalently by the pair (K^2, chi).  That pair is the homeomorphism key.

Within one key class the divisibility index r of the canonical class is the
only smooth obstruction used here: distinct indices rule out a
diffeomorphism, equal indices decide nothing.  A Catanese k-tuple is a set
of k admissible types sharing one key whose indices are pairwise distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .covers import CoverType, SurfaceInvariants, surface_invariants, validate_type
from .errors import BidoubleError, InvalidMember, NotComparable, int_text


class HomeoClassKey(NamedTuple):
    """The pair (K^2, chi) classifying the covers up to homeomorphism."""

    kk: int
    chi: int


class DiffeoVerdict(Enum):
    NOT_DIFFEOMORPHIC = "not_diffeomorphic"
    INCONCLUSIVE = "inconclusive"


def homeo_class_key(inv: SurfaceInvariants) -> HomeoClassKey:
    return HomeoClassKey(inv.kk, inv.chi)


def are_homeomorphic(inv1: SurfaceInvariants, inv2: SurfaceInvariants) -> bool:
    """Whether two covers share their oriented homeomorphism type.

    Equality of (K^2, chi) forces equal rank and signature of the even
    intersection forms, which is the whole classification for this family.
    """
    return homeo_class_key(inv1) == homeo_class_key(inv2)


def diffeo_obstruction(inv1: SurfaceInvariants, inv2: SurfaceInvariants) -> DiffeoVerdict:
    """Apply the divisibility-index obstruction to a homeomorphic pair.

    Raises :class:`NotComparable` when the homeomorphism keys differ; the
    obstruction only separates surfaces inside one topological class.
    """
    key1, key2 = homeo_class_key(inv1), homeo_class_key(inv2)
    if key1 != key2:
        raise NotComparable(
            f"homeomorphism keys differ: {tuple(key1)} vs {tuple(key2)}"
        )
    if inv1.r != inv2.r:
        return DiffeoVerdict.NOT_DIFFEOMORPHIC
    return DiffeoVerdict.INCONCLUSIVE


@dataclass(frozen=True, slots=True)
class TupleVerdict:
    """Outcome of a Catanese-tuple check.

    ``shared_key`` is the common homeomorphism key when all members agree on
    one, else None; ``indices`` lists the divisibility index of each member in
    input order.  ``failures`` states each fault once, against one witness:
    member j whose key differs from member 0's is paired with member 0, and
    member j whose index an earlier member holds with the first such member
    i.  ``pairs`` holds each failure's ``(i, j)``, aligned by position.
    """

    is_catanese: bool
    shared_key: HomeoClassKey | None
    indices: tuple[int, ...]
    failures: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]


def is_catanese_tuple(types: Sequence[CoverType]) -> TupleVerdict:
    """Decide whether the given types form a Catanese tuple.

    Every member must be admissible (:class:`InvalidMember` otherwise); the
    verdict then requires all pairs to share the homeomorphism key and all
    pairs to have distinct divisibility indices.  The boolean outcome does not
    depend on the ordering of ``types``.
    """
    if len(types) < 2:
        raise ValueError("a Catanese tuple needs at least two members")
    invariants: list[SurfaceInvariants] = []
    for position, t in enumerate(types):
        try:
            validate_type(t.a, t.b, t.m2, t.n2)
        except BidoubleError as exc:
            fields = ", ".join(map(int_text, t.as_tuple()))
            raise InvalidMember(f"member {position} ({fields}): {exc}") from exc
        invariants.append(surface_invariants(t))
    keys = [homeo_class_key(inv) for inv in invariants]
    # All keys equal member 0's exactly when they are pairwise equal, and no
    # index has an earlier holder exactly when the indices are pairwise
    # distinct, so these witnesses decide the pairwise definition.
    shared: HomeoClassKey | None = keys[0]
    first_holder: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    failures: list[str] = []
    for j, (key, inv) in enumerate(zip(keys, invariants)):
        if key != keys[0]:
            shared = None
            pairs.append((0, j))
            failures.append(
                f"members 0 and {j}: homeomorphism keys differ "
                f"({tuple(keys[0])} vs {tuple(key)})"
            )
        i = first_holder.setdefault(inv.r, j)
        if i != j:
            pairs.append((i, j))
            failures.append(f"members {i} and {j}: equal divisibility index {inv.r}")
    # Positional, in field order: is_catanese, shared_key, indices, failures, pairs.
    return TupleVerdict(
        not failures, shared, tuple(inv.r for inv in invariants), tuple(failures), tuple(pairs)
    )
