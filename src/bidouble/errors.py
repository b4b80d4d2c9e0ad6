"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`BidoubleError`, so the CLI
can map domain failures to exit code 1 in one place.
"""

from __future__ import annotations


class BidoubleError(Exception):
    """Base class for every domain error raised by this package."""


class ConstraintViolation(BidoubleError):
    """One or more admissibility constraints failed.

    Carries the full list of violated constraints, not only the first one,
    so callers can report or prune on the complete violation set.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class OutOfRange(BidoubleError):
    """A value lies above the range the package computes with.

    Raised for a branch-data field above the configured per-field cap and
    for a canonical multiple of :data:`~bidouble.discriminant.MAX_MULT` or
    more.
    """


class NotComparable(BidoubleError):
    """The two surfaces lie in different homeomorphism classes."""


class InvalidMember(BidoubleError):
    """A tuple member is not an admissible cover type."""


class MultTooSmall(BidoubleError):
    """The canonical multiple must be at least 5."""


class NegativeNodes(BidoubleError):
    """The node count came out negative, signalling inconsistent curve data."""


class NotCatanese(BidoubleError):
    """The member list does not form a Catanese tuple.

    Carries the failure strings from the tuple verdict.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures) or "not a Catanese tuple")


class BoundTooLarge(BidoubleError):
    """The requested search bound exceeds the global cap."""


class SchemaMismatch(BidoubleError):
    """A serialized record or payload does not match the expected schema."""
