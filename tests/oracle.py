"""The brute-force path to the search buckets, kept as the tests' oracle.

:func:`branch_pairs` lists P(bound) from its definition,
:func:`enumerate_admissible` pairs its members into canonical cover types,
and :func:`group_by_homeo_class` buckets them by (K^2, chi) through
:mod:`bidouble.covers` and :mod:`bidouble.topology`.  None of it shares code
with the integer kernel in :mod:`bidouble.search`, which the tests check
against it.  :func:`brute_force_canonical` checks the enumeration in turn,
by a quadruple loop over the raw constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from bidouble.covers import CoverType, canonicalize, surface_invariants
from bidouble.topology import HomeoClassKey, homeo_class_key


@dataclass(frozen=True, slots=True)
class HomeoClassBucket:
    """The canonical types of one homeomorphism key.

    :func:`group_by_homeo_class` builds one bucket per key of the types it is
    given.  ``types`` holds the members sorted (lexicographically) and
    deduplicated; ``indices`` is the divisibility index of each member,
    aligned by position.
    """

    key: HomeoClassKey
    types: tuple[CoverType, ...]
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.types)

    def members(self) -> list[tuple[CoverType, int]]:
        return list(zip(self.types, self.indices))


def branch_pairs(bound: int) -> list[tuple[int, int]]:
    """P(bound): all (x, y) with y >= 3, 2*y < x <= bound and x == y (mod 2), by y then x."""
    return [
        (x, y)
        for y in range(3, bound + 1)
        for x in range(3, bound + 1)
        if 2 * y < x and (x - y) % 2 == 0
    ]


def brute_force_canonical(bound: int) -> set[CoverType]:
    """Every admissible type with fields up to ``bound``, in canonical form: a
    quadruple loop over the raw constraints, independent of the library."""
    found: set[CoverType] = set()
    for a in range(3, bound + 1):
        for n2 in range(3, bound + 1):
            if a <= 2 * n2 or (a - n2) % 2:
                continue
            for b in range(3, bound + 1):
                for m2 in range(3, bound + 1):
                    if m2 <= 2 * b or (b - m2) % 2:
                        continue
                    # The lesser of the type and its branch swap.
                    found.add(min(CoverType(a, b, m2, n2), CoverType(m2, n2, a, b)))
    return found


def enumerate_admissible(bound: int) -> Iterator[CoverType]:
    """Yield each admissibility class exactly once, in canonical form.

    Unordered pairs i <= j of :func:`branch_pairs` are visited in index
    order, so the iteration order is deterministic.
    """
    pairs = branch_pairs(bound)
    for i, (x1, y1) in enumerate(pairs):
        for x2, y2 in pairs[i:]:
            # (a, n2) = (x1, y1), (m2, b) = (x2, y2).
            yield canonicalize(CoverType(x1, y2, x2, y1))


def group_by_homeo_class(
    types: Iterable[CoverType],
) -> dict[HomeoClassKey, HomeoClassBucket]:
    """Bucket types by (K^2, chi); members end up canonical, sorted, unique."""
    accumulator: dict[HomeoClassKey, dict[CoverType, int]] = {}
    for t in types:
        canonical = canonicalize(t)
        inv = surface_invariants(canonical)
        accumulator.setdefault(homeo_class_key(inv), {})[canonical] = inv.r
    buckets: dict[HomeoClassKey, HomeoClassBucket] = {}
    for key, index_of in accumulator.items():
        members = tuple(sorted(index_of))
        indices = tuple(index_of[t] for t in members)
        buckets[key] = HomeoClassBucket(key=key, types=members, indices=indices)
    return buckets
