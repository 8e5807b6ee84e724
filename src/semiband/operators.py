"""Matrix operators on atomic spaces: disjointness-type predicates and the
family of achievable range supports.

A candidate subset S of atoms is achievable exactly when the subspace of
range elements vanishing off S is not contained in any coordinate
hyperplane over S; over the rationals a finite union of proper subspaces
cannot cover a subspace, so this test is exact.  The semi laws are decided
on at most n + 1 supports, the range's own and the largest one avoiding
each atom (``linalg.avoiding_masks``), so SBP, SCP, the WCE form and the
norm enumerate nothing.  ``SigmaTable``, the set of all achievable
supports, is built only for its listing and the closure laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .atomic import (
    INF,
    AtomicSpace,
    SupportSet,
    Vector,
    basis_vector,
    band_contains,
    is_disjoint,
    mask_atoms,
    norm_value,
    support_mask,
    vec_scale,
    zero_vector,
)
from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    UnachievableSupportError,
    ValidationError,
)
from .values import ExactValue, IntervalValue, Value, multiply, pow_enclosure, sqrt_value, value_max


@dataclass(frozen=True)
class Operator:
    """An n x n rational matrix; column i is the image of atom e_i."""

    space: AtomicSpace
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = self.space.n
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise DimensionMismatchError("matrix shape does not match the space")
        object.__setattr__(
            self, "rows", tuple(tuple(Fraction(x) for x in r) for r in self.rows)
        )

    @staticmethod
    def from_rows(space: AtomicSpace, rows) -> "Operator":
        return Operator(space, tuple(map(tuple, rows)))

    @staticmethod
    def zero(space: AtomicSpace) -> "Operator":
        z = tuple((Fraction(0),) * space.n for _ in range(space.n))
        return Operator(space, z)

    @staticmethod
    def identity(space: AtomicSpace) -> "Operator":
        n = space.n
        return Operator(
            space,
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
            ),
        )

    @staticmethod
    def diagonal(space: AtomicSpace, entries) -> "Operator":
        d = [Fraction(x) for x in entries]
        n = space.n
        return Operator(
            space,
            tuple(tuple(d[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)),
        )

    @property
    def n(self) -> int:
        return self.space.n

    def column(self, i: int) -> Vector:
        """Column i (1-indexed), the image of atom e_i."""
        return tuple(r[i - 1] for r in self.rows)

    def entry(self, row: int, col: int) -> Fraction:
        return self.rows[row - 1][col - 1]


def apply(T: Operator, f: Vector) -> Vector:
    """Exact matrix-vector product."""
    if len(f) != T.n:
        raise DimensionMismatchError("vector length does not match the operator")
    live = [(j, x) for j, x in enumerate(f) if x]
    return tuple(sum((row[j] * x for j, x in live), Fraction(0)) for row in T.rows)


def is_projection(T: Operator) -> bool:
    """Whether T T = T exactly.

    With d the lcm of the entries' denominators and A = d T an integer
    matrix, T T = T exactly when A A = d A.
    """
    d = math.lcm(*(x.denominator for row in T.rows for x in row))
    A = [[x.numerator * (d // x.denominator) for x in row] for row in T.rows]
    cols = list(zip(*A))
    return all(
        sum(a * b for a, b in zip(row, col)) == d * x
        for row in A
        for col, x in zip(cols, row)
    )


class Witness(NamedTuple):
    """A concrete pair (f, g) violating a defining implication.

    The pair is stored in implication order: for SBP, f is perpendicular to
    Tg yet Tf is not; for SCP, f lies in the band of Tg yet Tf does not,
    and so on.  ``replay_witness`` re-evaluates the implication.
    """

    kind: str
    f: Vector
    g: Vector
    note: str


@dataclass(frozen=True)
class PredicateResult:
    holds: bool
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class SigmaTable:
    """The achievable range supports of an operator, their union, and the
    nonempty supports minimal under inclusion, ordered by their smallest
    atom (ties by bitmask)."""

    n: int
    masks: frozenset[int]
    s_t_mask: int
    minimal: tuple[int, ...]

    @property
    def s_t(self) -> SupportSet:
        return SupportSet.from_mask(self.s_t_mask)

    @property
    def supports(self) -> tuple[SupportSet, ...]:
        return tuple(SupportSet.from_mask(m) for m in sorted(self.masks))

    def __contains__(self, s) -> bool:
        m = s if isinstance(s, int) else s.mask
        return m in self.masks

    def __len__(self) -> int:
        return len(self.masks)


@linalg.per_operator
def _column_space(T: Operator) -> list[linalg.Item]:
    """Echelon items spanning the column space, each with a preimage."""
    n = T.n
    blocks = linalg.Blocks.atoms(n)
    columns = (linalg.item(T.column(j), basis_vector(n, j), blocks) for j in range(1, n + 1))
    return linalg.echelonize(columns, blocks)


@linalg.per_operator
def enumerate_sigma(T: Operator) -> SigmaTable:
    """All supports attained by range elements of T (kept on T).  Every
    block is one atom, so the minimal supports are the engine's
    one-dimensional masks."""
    items = _column_space(T)
    masks, lines = linalg.support_masks(items, linalg.Blocks.atoms(T.n))
    minimal = tuple(sorted(lines, key=lambda m: ((m & -m).bit_length(), m)))
    return SigmaTable(T.n, masks, linalg.union_mask(items), minimal)


def _realize(T: Operator, mask: int) -> Vector:
    """A vector g with supp(Tg) the atoms of ``mask``, realized by the
    engine from the echelon items of the column space (their order fixes
    g); raises if no range element has that support."""
    if mask == 0:
        return zero_vector(T.n)
    hit = linalg.realize(_column_space(T), mask, linalg.Blocks.atoms(T.n))
    if hit is None:
        raise UnachievableSupportError(f"support {SupportSet.from_mask(mask)!r} not achievable")
    return hit[1]


def realize_support(T: Operator, S: SupportSet) -> Vector:
    """A vector g with supp(Tg) = S; raises if S is not achievable, which is
    when the range constrained to vanish off S is not live on all of S."""
    return _realize(T, S.mask)


def minimal_supports(sigma: SigmaTable) -> tuple[SupportSet, ...]:
    """Nonempty members of the table minimal under inclusion, ordered by
    their smallest atom (ties by bitmask)."""
    return tuple(SupportSet.from_mask(m) for m in sigma.minimal)


@linalg.per_operator
def _column_masks(T: Operator) -> list[int]:
    return [support_mask(T.column(j)) for j in range(1, T.n + 1)]


def is_band_preserving(T: Operator) -> PredicateResult:
    """f disjoint from g forces Tf disjoint from g; holds iff T is diagonal."""
    n = T.n
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if i != k and T.entry(k, i) != 0:
                w = Witness(
                    "BP-violation",
                    basis_vector(n, i),
                    basis_vector(n, k),
                    f"entry ({k},{i}) is nonzero: T e_{i} meets atom {k}",
                )
                return PredicateResult(False, w)
    return PredicateResult(True)


def is_disjointness_preserving(T: Operator) -> PredicateResult:
    """Columns must have pairwise disjoint supports."""
    n = T.n
    masks = _column_masks(T)
    for i in range(n):
        for j in range(i + 1, n):
            if masks[i] & masks[j]:
                w = Witness(
                    "DP-violation",
                    basis_vector(n, i + 1),
                    basis_vector(n, j + 1),
                    f"columns {i + 1} and {j + 1} share an atom",
                )
                return PredicateResult(False, w)
    return PredicateResult(True)


def _canonical_integer_vector(v: Vector) -> Vector:
    """Scale to coprime integers with positive leading coordinate."""
    dens = [x.denominator for x in v if x != 0]
    if not dens:
        return v
    m = math.lcm(*dens)
    ints = [x * m for x in v]
    g = math.gcd(*(int(x) for x in ints if x != 0))
    ints = [x / g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def is_beta(T: Operator) -> PredicateResult:
    """Band inclusion f in band(g) forces Tf in band(Tg), for all f, g.

    Over an infinite scalar field this holds exactly when no row has two
    nonzero entries: a row k with support {j1, j2, ...} admits a vector g
    of full support on that set with (Tg)_k = 0, while f = e_{j1} keeps
    atom k in supp(Tf).
    """
    n = T.n
    blocks = linalg.Blocks.atoms(n)
    for k in range(1, n + 1):
        cols = [j for j in range(1, n + 1) if T.entry(k, j) != 0]
        if len(cols) < 2:
            continue
        j1 = cols[0]
        # kernel basis of the row functional restricted to the row support
        items = []
        for jm in cols[1:]:
            b = [Fraction(0)] * n
            b[j1 - 1] = T.entry(k, jm)
            b[jm - 1] = -T.entry(k, j1)
            bt = tuple(b)
            items.append(linalg.item(bt, bt, blocks))
        g, _ = linalg.combine_generic(items, blocks)
        g = _canonical_integer_vector(g)
        f = basis_vector(n, j1)
        w = Witness(
            "beta-violation",
            f,
            g,
            f"row {k} meets supp g yet (Tg)_{k} = 0 while (Tf)_{k} != 0",
        )
        return PredicateResult(False, w)
    return PredicateResult(True)


@linalg.per_operator
def _semi_masks(T: Operator) -> set[int]:
    """The supports the semi laws are decided on (``linalg.avoiding_masks``
    of the column space), kept on T for both laws."""
    return linalg.avoiding_masks(_column_space(T), linalg.Blocks.atoms(T.n))


def _first_atom_violation(T: Operator, inside: bool) -> tuple[int, Vector] | None:
    """(i, g) for the first support S = supp(Tg) and atom i that break the
    semi law ``linalg.first_violation`` names by ``inside``.

    The supports scanned are the range's own support and, per atom, the
    largest support avoiding it: a law broken at any support is broken at
    one of these, so no support is enumerated.
    """
    sources = [(1 << j, m) for j, m in enumerate(_column_masks(T))]
    hit = linalg.first_violation(_semi_masks(T), sources, inside)
    if hit is None:
        return None
    s_mask, j = hit
    return j + 1, _realize(T, s_mask)


@linalg.per_operator
def is_sbp(T: Operator) -> PredicateResult:
    """Semi band preserving: f disjoint from Tg forces Tf disjoint from Tg.

    Reduction: for every achievable support S and every atom i outside S,
    the column T e_i must avoid S (necessity with f = e_i; sufficiency by
    linearity and the union bound on supports).
    """
    hit = _first_atom_violation(T, inside=False)
    if hit is None:
        return PredicateResult(True)
    i, g = hit
    note = f"atom {i} lies off supp(Tg) but T e_{i} meets it"
    return PredicateResult(False, Witness("SBP-violation", basis_vector(T.n, i), g, note))


@linalg.per_operator
def is_scp(T: Operator) -> PredicateResult:
    """Semi containment preserving: f in band(Tg) forces Tf in band(Tg).

    Reduction: for every achievable support S and every atom i inside S,
    the column T e_i must stay inside S.
    """
    hit = _first_atom_violation(T, inside=True)
    if hit is None:
        return PredicateResult(True)
    i, g = hit
    note = f"atom {i} lies in supp(Tg) but T e_{i} escapes it"
    return PredicateResult(False, Witness("SCP-violation", basis_vector(T.n, i), g, note))


@dataclass(frozen=True)
class ClosureReport:
    union: bool
    intersection: bool
    complement: bool
    witness: Witness | None = None

    def all_hold(self) -> bool:
        return self.union and self.intersection and self.complement


def verify_sigma_closures(T: Operator, sigma: SigmaTable) -> ClosureReport:
    """Check the enumerated table for closure under pairwise union,
    pairwise intersection, and relative complement (A within B).

    The table is exactly the set of unions of its minimal supports (the
    support of a vector in a subspace is a union of circuits), so all
    three laws hold iff the minimal supports are pairwise disjoint.  Union
    always holds: for range elements f and g, supp(f + a g) is
    supp f | supp g for all but finitely many scalars a.  Disjoint minimal
    supports make the table the Boolean algebra they generate.  Two
    overlapping ones meet in a nonempty proper subset of each, which is
    not in the table, so intersection fails, and with it relative
    complement (A & B is A minus (A minus B)).  Only then is the table
    scanned pair by pair, to pick the first failing intersection as the
    witness.
    """
    seen = 0
    for m in sigma.minimal:
        if seen & m:
            break
        seen |= m
    else:
        return ClosureReport(True, True, True)
    masks = sorted(sigma.masks)
    for ai, a in enumerate(masks):
        for b in masks[ai:]:
            if (a & b) not in sigma.masks:
                witness = Witness(
                    "closure-violation",
                    _realize(T, a),
                    _realize(T, b),
                    f"intersection of {SupportSet.from_mask(a)!r} and "
                    f"{SupportSet.from_mask(b)!r} misses {SupportSet.from_mask(a & b)!r}",
                )
                return ClosureReport(True, False, False, witness)
    raise InternalConsistencyError("minimal supports overlap yet the table is closed under intersection")


def replay_witness(T: Operator, w: Witness) -> bool:
    """Re-evaluate the defining implication on the stored pair; True means
    the violation reproduces."""
    f, g = w.f, w.g
    if w.kind == "BP-violation":
        return is_disjoint(f, g) and not is_disjoint(apply(T, f), g)
    if w.kind == "DP-violation":
        return is_disjoint(f, g) and not is_disjoint(apply(T, f), apply(T, g))
    if w.kind == "beta-violation":
        return band_contains(g, f) and not band_contains(apply(T, g), apply(T, f))
    if w.kind == "SBP-violation":
        tg = apply(T, g)
        return is_disjoint(f, tg) and not is_disjoint(apply(T, f), tg)
    if w.kind == "SCP-violation":
        tg = apply(T, g)
        return band_contains(tg, f) and not band_contains(tg, apply(T, f))
    if w.kind == "closure-violation":
        items, blocks = _column_space(T), linalg.Blocks.atoms(T.n)

        def attained(m: int) -> bool:
            return m == 0 or linalg.realize(items, m, blocks) is not None

        # a and b are attained by Tf and Tg themselves
        a, b = support_mask(apply(T, f)), support_mask(apply(T, g))
        return not attained(a | b) or not attained(a & b) or (a & b == a and not attained(b & ~a))
    raise ValidationError(f"unknown witness kind {w.kind!r}")


@linalg.per_operator
def _column_blocks(T: Operator) -> tuple[tuple[int, Vector, Vector], ...] | None:
    """T as a sum of rank-one blocks u_j psi_j^T with the u_j pairwise
    disjoint and the psi_j pairwise disjoint, as (supp u_j, u_j, psi_j)
    ordered by lowest atom; None if T is no such sum.

    T is such a sum exactly when nonzero columns with one support are
    proportional and columns with different supports are disjoint.  Then
    u_j is a column of support j scaled to 1 at its lowest atom a, and
    psi_j is row a of T.
    """
    firsts: dict[int, tuple[int, Vector]] = {}
    seen = 0
    for col in zip(*T.rows):
        m = support_mask(col)
        if not m:
            continue
        if m in firsts:
            a, ref = firsts[m]
            if any(col[i - 1] * ref[a] != ref[i - 1] * col[a] for i in mask_atoms(m)):
                return None
        elif seen & m:
            return None
        else:
            firsts[m] = ((m & -m).bit_length() - 1, col)
            seen |= m
    ordered = sorted(firsts.items(), key=lambda kv: kv[0] & -kv[0])
    return tuple((m, vec_scale(1 / col[a], col), T.rows[a]) for m, (a, col) in ordered)


def block_sum_norm(space: AtomicSpace, pairs) -> Value:
    """max_j ||psi_j||_dual ||u_j|| over the (u_j, psi_j) of a sum of
    rank-one blocks with pairwise disjoint u_j and pairwise disjoint psi_j.

    Exact at every p: the disjoint u_j split ||Tf||^p, the disjoint psi_j
    split ||f||^p, and Holder applies block by block.
    """
    products = [multiply(norm_value(space, psi, "dual"), norm_value(space, u, "primal")) for u, psi in pairs]
    return value_max(products) if products else ExactValue(Fraction(0))


def operator_norm(space: AtomicSpace, T: Operator) -> Value:
    """The induced operator norm on the given space.

    Exact for p in {1, inf} (weighted column / row formulas).  At any other
    p exact (an exact square at p = 2) for a disjoint sum of rank-one
    blocks (``block_sum_norm``), rank-one and WCE forms among them; for
    any other matrix a certified interval.
    """
    if space.n != T.n:
        raise DimensionMismatchError("space and operator dimensions differ")
    p = space.norm.p
    w = space.norm.weights
    n = T.n
    if p == 1:
        return ExactValue(max(sum(wi * abs(x) for wi, x in zip(w, c)) / wj for c, wj in zip(zip(*T.rows), w)))
    if p == INF:
        return ExactValue(max(wi * sum(abs(x) / wj for x, wj in zip(r, w)) for r, wi in zip(T.rows, w)))
    blocks = _column_blocks(T)
    if blocks is not None:
        return block_sum_norm(space, ((u, psi) for _, u, psi in blocks))
    # certified bounds: columns give lower bounds, the triangle/Holder
    # estimate ||Tx|| <= sum |x_j| ||T e_j|| gives an upper bound.
    lo = Fraction(0)
    col_hi = []
    for j in range(1, n + 1):
        cl, ch = norm_value(space, T.column(j), "primal").enclosure()
        _, eh = norm_value(space, basis_vector(n, j), "primal").enclosure()
        lo = max(lo, cl / eh)
        col_hi.append(ch)
    if p == 2:
        # Frobenius-style bound on the weight-conjugated matrix; the sum
        # under the root is rational, so the bound is certified.
        frob = sum(wi * x * x / wj for r, wi in zip(T.rows, w) for x, wj in zip(r, w))
        _, hi = sqrt_value(frob).enclosure()
    else:
        # Holder: sum |x_j| a_j <= ||x||_{p,w} * (sum a_j^q w_j^(1-q))^(1/q)
        q = p / (p - 1)
        s_hi = Fraction(0)
        for wj, ch in zip(w, col_hi):
            if ch == 0:
                continue
            _, wh = pow_enclosure(wj, 1 - q)
            _, ah = pow_enclosure(ch, q)
            s_hi += wh * ah
        _, hi = pow_enclosure(s_hi, 1 / q) if s_hi > 0 else (Fraction(0), Fraction(0))
    if lo > hi:  # numerical safety; cannot happen for valid bounds
        raise AssertionError("certified bounds crossed")
    if lo == hi:
        return ExactValue(lo)
    return IntervalValue(lo, hi)
