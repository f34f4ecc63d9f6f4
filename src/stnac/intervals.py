"""Exact closed-interval arithmetic over integer time points.

Endpoints are 64-bit-range integers; a missing lower endpoint stands for
-inf and a missing upper endpoint for +inf.  The empty interval is a single
canonical value, so structural equality coincides with semantic equality.
All operations are side-effect free and values may be shared freely.
Interval is a frozen, slotted dataclass: it has no per-instance __dict__,
which keeps each value small.  Its __init__ is written by hand, because
the reader, the closures and the oracle build many intervals, about
20,000 over the eight n=200 nets of the central-consistent benchmark
workload: it checks the pair, then stores each field through its slot's
descriptor, bound once at import.  That skips the frozen dataclass's
per-field object.__setattr__ detour and its separate __post_init__ call
(0.37 against 0.59 us a construction for a plain frozen slotted
dataclass, CPython 3.11 on a Xeon core); assignment from outside still
raises FrozenInstanceError.
The text form is written by to_tokens(); reading it back, with the
magnitude cap on every finite endpoint, is stn.parse_interval's job.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BoundOverflowError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def _add(a: int | None, b: int | None) -> int | None:
    """Extended addition for same-side endpoints (None is the infinity)."""
    if a is None or b is None:
        return None
    s = a + b
    if s < INT64_MIN or s > INT64_MAX:
        raise BoundOverflowError(f"endpoint sum {s} leaves the 64-bit range")
    return s


@dataclass(frozen=True, slots=True, init=False)
class Interval:
    """Closed interval [lo, hi] over extended integers.

    ``lo is None`` encodes -inf and ``hi is None`` encodes +inf, so infinities
    only ever appear on their own side and sums never mix them.  Direct
    construction with finite lo > hi is rejected; build through interval(),
    which normalizes such pairs to EMPTY.

    The dataclass still generates eq, hash, fields(), pickling and replace();
    only __init__ is written here.  It stores through the slot descriptors
    (_set_lo, _set_hi, _set_empty), which bypass the frozen __setattr__, so
    building a value costs three stores, while assigning to one still
    raises FrozenInstanceError.
    """

    lo: int | None = None
    hi: int | None = None
    is_empty: bool = False

    def __init__(self, lo: int | None = None, hi: int | None = None, is_empty: bool = False):
        if is_empty:
            if lo is not None or hi is not None:
                raise ValueError("the empty interval carries no endpoints")
        elif lo is not None and hi is not None and lo > hi:
            raise ValueError("lo > hi; use interval() to normalize to EMPTY")
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_empty(self, is_empty)

    @property
    def is_finite(self) -> bool:
        """True when no endpoint is infinite (vacuously true for EMPTY)."""
        return self.is_empty or (self.lo is not None and self.hi is not None)

    def __contains__(self, t: int) -> bool:
        if self.is_empty:
            return False
        if self.lo is not None and t < self.lo:
            return False
        return self.hi is None or t <= self.hi

    def intersect(self, other: Interval) -> Interval:
        """Conjunction of the two constraints; EMPTY absorbs."""
        if self.is_empty or other.is_empty:
            return EMPTY
        if self.lo is None:
            lo = other.lo
        elif other.lo is None:
            lo = self.lo
        else:
            lo = self.lo if self.lo >= other.lo else other.lo
        if self.hi is None:
            hi = other.hi
        elif other.hi is None:
            hi = self.hi
        else:
            hi = self.hi if self.hi <= other.hi else other.hi
        return interval(lo, hi)

    def compose(self, other: Interval) -> Interval:
        """Endpoint-wise sum: the relation inferred across a two-edge path.

        EMPTY is absorbing on either side.  Raises BoundOverflowError when a
        finite sum leaves the 64-bit range, which signals inputs outside the
        supported magnitude.
        """
        if self.is_empty or other.is_empty:
            return EMPTY
        return Interval(_add(self.lo, other.lo), _add(self.hi, other.hi))

    def inverse(self) -> Interval:
        """Mirror across zero: [a, b] -> [-b, -a]."""
        if self.is_empty:
            return EMPTY
        if self.lo == INT64_MIN or self.hi == INT64_MIN:
            raise BoundOverflowError("negating -2**63 leaves the 64-bit range")
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return Interval(lo, hi)

    def __str__(self) -> str:
        if self.is_empty:
            return "empty"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo},{hi}]"

    def __repr__(self) -> str:
        return f"Interval({self})"

    def to_tokens(self) -> str:
        """Whitespace-separated endpoint form used by the file formats."""
        if self.is_empty:
            return "empty"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"{lo} {hi}"


_set_lo = Interval.__dict__["lo"].__set__
_set_hi = Interval.__dict__["hi"].__set__
_set_empty = Interval.__dict__["is_empty"].__set__

EMPTY = Interval(is_empty=True)


def interval(lo: int | None, hi: int | None) -> Interval:
    """Build [lo, hi], normalizing finite lo > hi to the canonical EMPTY."""
    if lo is not None and hi is not None and lo > hi:
        return EMPTY
    return Interval(lo, hi)
