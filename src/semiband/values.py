"""Exact and certified-enclosure number values.

Every predicate in this package must be a decision, not an approximation.
Norm values therefore come in three flavours:

* ``ExactValue``    -- a plain rational.
* ``SqrtValue``     -- the nonnegative square root of a rational, kept as the
                       exact square; all comparisons happen on squares.
* ``IntervalValue`` -- a certified rational enclosure for values that are not
                       expressible exactly (general p-norms); comparisons that
                       the enclosure cannot settle raise
                       ``IndeterminateComparisonError`` instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IndeterminateComparisonError

#: Enclosures are refined until they are at most this wide.
TARGET_WIDTH = Fraction(1, 10**30)


def as_fraction(x) -> Fraction:
    """x as a Fraction, kept as it is when it already is one."""
    return x if type(x) is Fraction else Fraction(x)


def int_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if n < 2 or k == 1:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def root_enclosure(x: Fraction, k: int, width: Fraction = TARGET_WIDTH) -> tuple[Fraction, Fraction]:
    """Certified enclosure [lo, hi] of x**(1/k) with hi - lo <= width.

    Exact when x is a perfect k-th power (lo == hi).
    """
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0), Fraction(0)
    num, den = x.numerator, x.denominator
    # x**(1/k) = (num*den**(k-1))**(1/k) / den
    base = num * den ** (k - 1)
    r = int_nth_root(base, k)
    if r**k == base:
        v = Fraction(r, den)
        return v, v
    shift = 1
    while Fraction(1, (1 << shift) * den) > width:
        shift += shift
    scaled = base << (k * shift)
    r = int_nth_root(scaled, k)
    lo = Fraction(r, (1 << shift) * den)
    hi = Fraction(r + 1, (1 << shift) * den)
    return lo, hi


def pow_enclosure(x: Fraction, e: Fraction, width: Fraction = TARGET_WIDTH) -> tuple[Fraction, Fraction]:
    """Certified enclosure of x**e for rational x > 0 (x == 0 needs e > 0)."""
    if x < 0:
        raise ValueError("negative base")
    if x == 0:
        if e <= 0:
            raise ValueError("0**e undefined for e <= 0")
        return Fraction(0), Fraction(0)
    a, b = e.numerator, e.denominator
    if a < 0:
        lo, hi = pow_enclosure(x, -e, width)
        # widen the reciprocal target then invert; refine via caller loop
        return 1 / hi, 1 / lo
    t = x**a
    return root_enclosure(t, b, width)


@dataclass(frozen=True)
class ExactValue:
    value: Fraction

    def enclosure(self, width: Fraction = TARGET_WIDTH) -> tuple[Fraction, Fraction]:
        return self.value, self.value

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class SqrtValue:
    """The value sqrt(square) with square a nonnegative rational."""

    square: Fraction

    def __post_init__(self):
        if self.square < 0:
            raise ValueError("square must be nonnegative")

    def enclosure(self, width: Fraction = TARGET_WIDTH) -> tuple[Fraction, Fraction]:
        return root_enclosure(self.square, 2, width)

    def __str__(self) -> str:
        return f"sqrt({self.square})"


def _decimal_str(x: Fraction, digits: int, round_up: bool) -> str:
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x.numerator * 10**digits
    q, r = divmod(scaled, x.denominator)
    if round_up and r:
        q += 1
    s = str(q).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}".rstrip("0").rstrip(".") or "0"


@dataclass(frozen=True)
class IntervalValue:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    def enclosure(self, width: Fraction = TARGET_WIDTH) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi

    def __str__(self) -> str:
        # display only; the exact endpoints live in the fields
        lo = _decimal_str(self.lo, 15, round_up=False)
        hi = _decimal_str(self.hi, 15, round_up=True)
        return f"[{lo}, {hi}]"


Value = ExactValue | SqrtValue | IntervalValue


def sqrt_value(square: Fraction) -> Value:
    """sqrt(square), simplified to an ExactValue for perfect squares."""
    square = Fraction(square)
    if square < 0:
        raise ValueError("square must be nonnegative")
    rn = int_nth_root(square.numerator, 2)
    rd = int_nth_root(square.denominator, 2)
    if rn * rn == square.numerator and rd * rd == square.denominator:
        return ExactValue(Fraction(rn, rd))
    return SqrtValue(square)


def exact(x) -> ExactValue:
    return ExactValue(Fraction(x))


def _coerce(x) -> Value:
    if isinstance(x, (ExactValue, SqrtValue, IntervalValue)):
        return x
    return ExactValue(Fraction(x))


def compare(a, b) -> int:
    """Trichotomy: -1, 0, +1 for a < b, a == b, a > b.

    Raises IndeterminateComparisonError when an enclosure cannot separate
    the operands.
    """
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, ExactValue) and isinstance(b, ExactValue):
        return (a.value > b.value) - (a.value < b.value)
    if isinstance(a, SqrtValue) and isinstance(b, SqrtValue):
        return (a.square > b.square) - (a.square < b.square)
    if isinstance(a, SqrtValue) and isinstance(b, ExactValue):
        if b.value < 0:
            return 1
        bb = b.value * b.value
        return (a.square > bb) - (a.square < bb)
    if isinstance(a, ExactValue) and isinstance(b, SqrtValue):
        return -compare(b, a)
    # at least one interval: compare enclosures
    alo, ahi = a.enclosure()
    blo, bhi = b.enclosure()
    if ahi < blo:
        return -1
    if alo > bhi:
        return 1
    if alo == ahi == blo == bhi:
        return 0
    raise IndeterminateComparisonError(
        f"cannot separate {a} and {b} at width {TARGET_WIDTH}"
    )


def multiply(a, b) -> Value:
    """Product of two nonnegative values, kept exact whenever possible."""
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, ExactValue) and isinstance(b, ExactValue):
        return ExactValue(a.value * b.value)
    if isinstance(a, ExactValue) and isinstance(b, SqrtValue):
        if a.value < 0:
            raise ValueError("negative factor for sqrt product")
        return sqrt_value(a.value * a.value * b.square)
    if isinstance(a, SqrtValue) and isinstance(b, ExactValue):
        return multiply(b, a)
    if isinstance(a, SqrtValue) and isinstance(b, SqrtValue):
        return sqrt_value(a.square * b.square)
    alo, ahi = a.enclosure()
    blo, bhi = b.enclosure()
    if alo < 0 or blo < 0:
        raise ValueError("interval product expects nonnegative operands")
    return IntervalValue(alo * blo, ahi * bhi)


def value_max(items) -> Value:
    """Maximum of a nonempty iterable of values.

    Exact whenever the comparisons decide it.  Where two enclosures cannot
    be separated the result is their certified hull: max is monotone, so it
    lies between the larger lower end and the larger upper end.
    """
    it = iter(items)
    best = _coerce(next(it))
    for x in it:
        x = _coerce(x)
        try:
            if compare(x, best) > 0:
                best = x
        except IndeterminateComparisonError:
            (blo, bhi), (xlo, xhi) = best.enclosure(), x.enclosure()
            best = IntervalValue(max(blo, xlo), max(bhi, xhi))
    return best
