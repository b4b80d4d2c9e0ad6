"""Regression comparison against the published worked example.

The worked example this package grew out of prints a Catanese pair, branch
data (16, 22, 52, 4) and (28, 10, 28, 10), together with K^2 = 10368,
chi = 1456, divisibility indices 18 and 36, and closed forms in m for the
discriminant data: deg B = 10368 m (3m+1), genus = 5184 (3m+2)(3m+1) + 1,
cusps = 10368 (12 m^2 + 9m) - 13632.

Recomputation reproduces K^2, both indices, the degree, and the genus
exactly, but yields chi = 1856 for both members (the printed 1456 is off by
400) and a cusp count whose constant term, 3K^2 - 12 chi = 8832, exceeds the
printed one by 22464; the quadratic coefficients agree.  The printed -13632
equals 12 * 1456 - 3K^2, that constant with its sign flipped and computed
with the misprinted chi.  This module freezes that exact
match/mismatch pattern so that a regression in either direction, drifting
off the recomputed values or silently "repairing" them to the printed ones,
fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .covers import CoverType, surface_invariants
from .discriminant import discriminant_profile

EXAMPLE_TYPE_1 = CoverType(16, 22, 52, 4)
EXAMPLE_TYPE_2 = CoverType(28, 10, 28, 10)

PRINTED_KK = 10368
PRINTED_CHI = 1456
PRINTED_R_1 = 18
PRINTED_R_2 = 36
_PRINTED_CUSP_CONSTANT = -13632
_PRINTED_GENUS_HALF_KK = 5184

#: Expected match flag per entry kind: recomputation confirms everything the
#: example prints except chi and the cusp constant.
EXPECTED_MATCHES = {
    "kk": True,
    "chi": False,
    "r_1": True,
    "r_2": True,
    "deg_b": True,
    "genus": True,
    "cusps": False,
}


def printed_deg_b(mult: int) -> int:
    return PRINTED_KK * mult * (3 * mult + 1)


def printed_genus(mult: int) -> int:
    return _PRINTED_GENUS_HALF_KK * (3 * mult + 2) * (3 * mult + 1) + 1


def printed_cusps(mult: int) -> int:
    return PRINTED_KK * (12 * mult * mult + 9 * mult) + _PRINTED_CUSP_CONSTANT


@dataclass(frozen=True, slots=True)
class ReportEntry:
    """One printed-versus-computed comparison.

    ``field`` is the entry kind, suffixed with ``(m=...)`` for the per-mult
    curve data; ``note`` explains a mismatch when there is one.
    """

    field: str
    paper_printed: int
    computed: int
    match: bool
    note: str = ""

    def kind(self) -> str:
        return self.field.split("(", 1)[0]


@dataclass(frozen=True, slots=True)
class PaperExampleReport:
    """The full comparison table for one list of canonical multiples."""

    entries: tuple[ReportEntry, ...]

    def pattern_ok(self) -> bool:
        """True iff every entry matches exactly where recomputation says it must."""
        return all(e.match == EXPECTED_MATCHES[e.kind()] for e in self.entries)


def _compared(field: str, printed: int, *computed: int, note: str = "") -> ReportEntry:
    """``field`` against the first computed value; it matches iff every one does."""
    match = all(value == printed for value in computed)
    return ReportEntry(field, printed, computed[0], match, note)


def verify_paper_example(mults: Sequence[int] = ()) -> PaperExampleReport:
    """Recompute the published example and compare entry by entry.

    Always emits the kk, chi, r_1, r_2 entries, then deg_b, genus, cusps for
    each requested multiple (:class:`MultTooSmall` below 5, :class:`TypeError`
    for one that is not an ``int``).  An empty ``mults`` yields the
    invariants-only report.
    """
    inv1 = surface_invariants(EXAMPLE_TYPE_1)
    inv2 = surface_invariants(EXAMPLE_TYPE_2)
    chi_note = (
        f"both members recompute to chi = {inv1.chi}"
        if inv1.chi == inv2.chi
        else f"members disagree: {inv1.chi} vs {inv2.chi}"
    )
    entries = [
        _compared("kk", PRINTED_KK, inv1.kk, inv2.kk, note="K^2 of both members"),
        _compared("chi", PRINTED_CHI, inv1.chi, inv2.chi, note=chi_note),
        _compared("r_1", PRINTED_R_1, inv1.r),
        _compared("r_2", PRINTED_R_2, inv2.r),
    ]
    for mult in mults:
        profile = discriminant_profile(inv1, mult)
        excess = profile.cusps - printed_cusps(mult)
        cusps_note = (
            f"stratification count exceeds the printed closed form by {excess}"
            if excess
            else ""
        )
        entries += [
            _compared(f"deg_b(m={mult})", printed_deg_b(mult), profile.deg_b),
            _compared(f"genus(m={mult})", printed_genus(mult), profile.genus),
            _compared(
                f"cusps(m={mult})", printed_cusps(mult), profile.cusps, note=cusps_note
            ),
        ]
    return PaperExampleReport(entries=tuple(entries))
