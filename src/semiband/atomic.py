"""Finite purely atomic function lattices with weighted p-norms.

Vectors are tuples of ``Fraction`` over atoms 1..n.  Order-theoretic
relations (disjointness, band membership) reduce to support comparisons,
so every decision here is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DimensionMismatchError, ValidationError
from .values import (
    ExactValue,
    IntervalValue,
    TARGET_WIDTH,
    Value,
    pow_enclosure,
    sqrt_value,
)

INF = math.inf

Vector = tuple[Fraction, ...]


def vec(*entries) -> Vector:
    """Build a vector, coercing ints / strings like ``"-2/3"`` to Fractions."""
    return tuple(Fraction(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    """The atom e_i (1-indexed)."""
    if not 1 <= i <= n:
        raise DimensionMismatchError(f"atom {i} outside 1..{n}")
    return tuple(Fraction(1 if j == i else 0) for j in range(1, n + 1))


def vec_add(f: Vector, g: Vector) -> Vector:
    return tuple(a + b for a, b in zip(f, g))

def vec_scale(c, f: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in f)


@dataclass(frozen=True)
class SupportSet:
    """A subset of the atoms {1..n}, with bitset semantics; ``<=`` is
    subset inclusion."""

    atoms: frozenset[int]

    @staticmethod
    def of(*atoms: int) -> "SupportSet":
        return SupportSet(frozenset(atoms))

    @staticmethod
    def from_mask(mask: int) -> "SupportSet":
        atoms = set()
        i = 1
        while mask:
            if mask & 1:
                atoms.add(i)
            mask >>= 1
            i += 1
        return SupportSet(frozenset(atoms))

    @property
    def mask(self) -> int:
        m = 0
        for a in self.atoms:
            m |= 1 << (a - 1)
        return m

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.atoms))

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: int) -> bool:
        return atom in self.atoms

    def __or__(self, other: "SupportSet") -> "SupportSet":
        return SupportSet(self.atoms | other.atoms)

    def __and__(self, other: "SupportSet") -> "SupportSet":
        return SupportSet(self.atoms & other.atoms)

    def __sub__(self, other: "SupportSet") -> "SupportSet":
        return SupportSet(self.atoms - other.atoms)

    def __le__(self, other: "SupportSet") -> bool:
        return self.atoms <= other.atoms

    def __repr__(self) -> str:
        return "{" + ",".join(str(a) for a in sorted(self.atoms)) + "}"


@dataclass(frozen=True)
class NormSpec:
    """Weighted p-norm: (sum_i w_i |x_i|^p)^(1/p), or max_i w_i |x_i| for p = inf."""

    p: Fraction | float
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.p != INF:
            object.__setattr__(self, "p", Fraction(self.p))
            if self.p < 1:
                raise ValidationError("norm exponent must satisfy p >= 1")
        ws = tuple(Fraction(w) for w in self.weights)
        if any(w <= 0 for w in ws):
            raise ValidationError("norm weights must be positive")
        object.__setattr__(self, "weights", ws)


@dataclass(frozen=True)
class AtomicSpace:
    """n atoms together with a weighted p-norm."""

    n: int
    norm: NormSpec

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("atom count must be >= 1")
        if len(self.norm.weights) != self.n:
            raise ValidationError(
                f"norm carries {len(self.norm.weights)} weights for {self.n} atoms"
            )

    @staticmethod
    def lp(n: int, p, weights: Iterable | None = None) -> "AtomicSpace":
        if weights is None:
            weights = [Fraction(1)] * n
        p = INF if p in (INF, "inf") else Fraction(p)
        return AtomicSpace(n, NormSpec(p, tuple(Fraction(w) for w in weights)))

    def check_vector(self, v: Vector) -> None:
        if len(v) != self.n:
            raise DimensionMismatchError(f"vector of length {len(v)} in a {self.n}-atom space")


def support(v: Vector) -> SupportSet:
    """Indices of the nonzero coordinates (1-indexed)."""
    return SupportSet(frozenset(i + 1 for i, x in enumerate(v) if x != 0))


def support_mask(v: Vector) -> int:
    m = 0
    for i, x in enumerate(v):
        if x != 0:
            m |= 1 << i
    return m


def is_disjoint(f: Vector, g: Vector) -> bool:
    """f and g have disjoint supports (|f| /\\ |g| = 0)."""
    if len(f) != len(g):
        raise DimensionMismatchError("vectors live in different spaces")
    return all(a == 0 or b == 0 for a, b in zip(f, g))


def band_contains(g: Vector, f: Vector) -> bool:
    """f lies in the band generated by g, i.e. supp f is a subset of supp g."""
    if len(f) != len(g):
        raise DimensionMismatchError("vectors live in different spaces")
    return all(b != 0 or a == 0 for a, b in zip(f, g))


def _general_p_norm(
    p: Fraction, terms: list[tuple[Fraction, Fraction]], weight_exp: Fraction, width: Fraction
) -> Value:
    """Certified enclosure of (sum w**weight_exp * |x|**p)^(1/p); terms are
    (w, |x|) with x nonzero, and ``width`` is the first enclosure width of
    each power, divided by 2**10 until the result is narrow enough."""
    for _ in range(6):
        lo = Fraction(0)
        hi = Fraction(0)
        for w, x in terms:
            wl, wh = pow_enclosure(w, weight_exp, width)
            tl, th = pow_enclosure(x, p, width)
            lo += wl * tl
            hi += wh * th
        rl, _ = pow_enclosure(lo, 1 / p, width) if lo > 0 else (Fraction(0), Fraction(0))
        _, rh = pow_enclosure(hi, 1 / p, width)
        if rh - rl <= TARGET_WIDTH:
            if rl == rh:
                return ExactValue(rl)
            return IntervalValue(rl, rh)
        width /= 2**10
    raise AssertionError("enclosure refinement failed to converge")


def norm_value(space: AtomicSpace, v: Vector, side: str = "primal") -> Value:
    """The norm of v (side="primal") or of the functional v (side="dual").

    Exact for p in {1, inf}; an exact square (SqrtValue) for p = 2; a
    certified enclosure of width <= 1e-30 otherwise.  The dual norm uses
    the conjugate exponent with reciprocal-power weights.
    """
    space.check_vector(v)
    if side not in ("primal", "dual"):
        raise ValidationError("side must be 'primal' or 'dual'")
    p = space.norm.p
    w = space.norm.weights
    absv = [abs(x) for x in v]
    if all(x == 0 for x in absv):
        return ExactValue(Fraction(0))

    if side == "primal":
        if p == INF:
            return ExactValue(max(wi * x for wi, x in zip(w, absv)))
        if p == 1:
            return ExactValue(sum(wi * x for wi, x in zip(w, absv)))
        if p == 2:
            return sqrt_value(sum(wi * x * x for wi, x in zip(w, absv)))
        terms = [(wi, x) for wi, x in zip(w, absv) if x != 0]
        return _general_p_norm(p, terms, Fraction(1), TARGET_WIDTH / (4 * len(terms)))

    # dual side
    if p == 1:
        return ExactValue(max(x / wi for wi, x in zip(w, absv)))
    if p == INF:
        return ExactValue(sum(x / wi for wi, x in zip(w, absv)))
    if p == 2:
        return sqrt_value(sum(x * x / wi for wi, x in zip(w, absv)))
    # the conjugate exponent q with dual weights w**(1-q), irrational in
    # general, so enclosed alongside the powers
    q = p / (p - 1)
    terms = [(wi, x) for wi, x in zip(w, absv) if x != 0]
    return _general_p_norm(q, terms, 1 - q, TARGET_WIDTH / (4 * len(absv)))


@dataclass(frozen=True)
class MonotonicityResult:
    holds: bool
    witness: tuple[Vector, Vector] | None

    def __bool__(self) -> bool:
        return self.holds


def is_strictly_monotone(space: AtomicSpace) -> MonotonicityResult:
    """Whether ||x + y|| > ||x|| for all x, y > 0 on this space.

    Holds exactly when p < inf.  A sup-norm space with a single atom is the
    same space as the weighted 1-norm, hence also strictly monotone; for
    n >= 2 a witness pair with ||x + y|| = ||x|| is returned.
    """
    p = space.norm.p
    if p != INF or space.n == 1:
        return MonotonicityResult(True, None)
    w = space.norm.weights
    x = tuple(Fraction(1, w[0]) if i == 0 else Fraction(0) for i in range(space.n))
    y = tuple(Fraction(1, 2 * w[1]) if i == 1 else Fraction(0) for i in range(space.n))
    return MonotonicityResult(False, (x, y))
