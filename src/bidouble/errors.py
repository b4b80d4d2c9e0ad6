"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`BidoubleError`, so the CLI
can map domain failures to exit code 1 in one place.  The module also owns
the integer rules: :func:`is_int`, what an integer input is;
:func:`int_from_text`, the integer that command-line text or a catalog's
decimal string spells; and :func:`int_text`, an integer as message text.
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

    Raised for a branch-data field above the per-field cap,
    :data:`~bidouble.covers.DEFAULT_FIELD_CAP`, and for a canonical multiple
    of :data:`~bidouble.discriminant.MAX_MULT` or more.
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
    """The requested search bound is above the search's limits.

    Raised for a bound above the global field cap
    :data:`~bidouble.covers.DEFAULT_FIELD_CAP` and for one whose run would
    visit more than :data:`~bidouble.search.MAX_SEARCH_TYPES` types.
    """


class SchemaMismatch(BidoubleError):
    """A serialized record or payload does not match the expected schema."""


def int_text(value: int) -> str:
    """``str(value)`` for an error message, even past Python's digit limit.

    Python refuses to convert an int of more digits than
    ``sys.get_int_max_str_digits()`` (4300 by default) to text; such a value
    is shown by its sign and bit length instead, as in ``-<16610-bit
    integer>``, so that raising the error does not raise :class:`ValueError`.
    """
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


def is_int(value: object) -> bool:
    """Whether ``value`` is an integer input: an ``int``, so not ``True`` or ``1.0``."""
    return type(value) is int


def int_from_text(text: str) -> int:
    """The int ``text`` spells as ``str()`` writes it, else :class:`ValueError`, also for
    the ``+``, spaces, ``_``, leading zeros, ``-0`` and non-ASCII digits ``int()`` reads."""
    number = int(text)
    if str(number) != text:
        raise ValueError(f"not an integer as str() writes it: {text!r}")
    return number
