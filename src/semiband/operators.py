"""Matrix operators on atomic spaces: disjointness-type predicates and the
family of achievable range supports.

A candidate subset S of atoms is achievable exactly when the subspace of
range elements vanishing off S is not contained in any coordinate
hyperplane over S; over the rationals a finite union of proper subspaces
cannot cover a subspace, so this test is exact.  ``SigmaTable``, the set
of all achievable supports, is built only for its listing and the closure
laws.  Atom a reads the range as g -> row_a . g, so SBP and SCP are read
off the classes of proportional rows (``_row_classes``) and the WCE form
and the norm off the columns (``_column_blocks``), with no elimination.
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


def realize_support(T: Operator, S: SupportSet) -> Vector:
    """A vector g with supp(Tg) = S, from the column-space echelon items
    (their order fixes g); raises if S is not achievable, which is when the
    range constrained to vanish off S is not live on all of S."""
    if not S.mask:
        return zero_vector(T.n)
    hit = linalg.realize(_column_space(T), S.mask, linalg.Blocks.atoms(T.n))
    if hit is None:
        raise UnachievableSupportError(f"support {S!r} not achievable")
    return hit[1]


def minimal_supports(sigma: SigmaTable) -> tuple[SupportSet, ...]:
    """Nonempty members of the table minimal under inclusion, ordered by
    their smallest atom (ties by bitmask)."""
    return tuple(SupportSet.from_mask(m) for m in sigma.minimal)


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
    masks = [support_mask(c) for c in zip(*T.rows)]
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
def _row_classes(T: Operator) -> tuple[int | None, ...]:
    """Per row, a class shared with its nonzero multiples (None for a zero
    row), keyed on the nonzero entries scaled to 1 at the first one."""
    ids: dict[tuple, int] = {}
    classes = []
    for row in T.rows:
        live = [(j, x) for j, x in enumerate(row) if x]
        key = tuple((j, x / live[0][1]) for j, x in live)
        classes.append(ids.setdefault(key, len(ids)) if key else None)
    return tuple(classes)


def _separating(live: Vector, dead: Vector) -> Vector:
    """A g with dead . g = 0 != live . g, for a nonzero row ``live`` that
    is no multiple of ``dead``.  With l the first atom of ``dead`` and k
    the first with live[k] dead[l] != live[l] dead[k] (k exists, or live
    would be a multiple of dead), g = dead[l] e_k - dead[k] e_l."""
    n = len(live)
    l = next((i for i, x in enumerate(dead) if x), None)
    if l is None:
        return basis_vector(n, next(j for j, x in enumerate(live) if x) + 1)
    k = next(k for k in range(n) if live[k] * dead[l] != live[l] * dead[k])
    g = [Fraction(0)] * n
    g[k], g[l] = dead[l], -dead[k]
    return tuple(g)


def _semi_breach(T: Operator, scp: bool) -> tuple[int, Vector] | None:
    """(b, g) for the first nonzero T[a][b], row-major, whose rows are in
    different classes (for SCP a zero row b is no breach), with b 1-indexed
    and Tg live at a and dead at b (SBP) or the reverse (SCP)."""
    classes = _row_classes(T)
    for a, row in enumerate(T.rows):
        for b, x in enumerate(row):
            if x and classes[b] != classes[a] and not (scp and classes[b] is None):
                live, dead = (T.rows[b], row) if scp else (row, T.rows[b])
                return b + 1, _separating(live, dead)
    return None


@linalg.per_operator
def is_sbp(T: Operator) -> PredicateResult:
    """Semi band preserving: f disjoint from Tg forces Tf disjoint from Tg.

    Some Tg vanishes at b and not at a exactly when row a is no multiple of
    row b, so SBP holds iff every nonzero T[a][b] has rows a and b in one
    class: else f = e_b breaks it, and if so, (Tf)_a != 0 needs some b in
    supp f with T[a][b] != 0, where (Tg)_b = 0 forces (Tg)_a = 0.
    """
    hit = _semi_breach(T, scp=False)
    if hit is None:
        return PredicateResult(True)
    i, g = hit
    note = f"atom {i} lies off supp(Tg) but T e_{i} meets it"
    return PredicateResult(False, Witness("SBP-violation", basis_vector(T.n, i), g, note))


@linalg.per_operator
def is_scp(T: Operator) -> PredicateResult:
    """Semi containment preserving: f in band(Tg) forces Tf in band(Tg).

    As for ``is_sbp`` with a and b swapped: SCP holds iff every nonzero
    T[a][b] has rows a and b in one class or row b zero.
    """
    hit = _semi_breach(T, scp=True)
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
    complement (A & B is A minus (A minus B)).  The witness is the first
    minimal support that meets an earlier one, realized with that one:
    their intersection is a nonempty proper subset of a minimal support.
    """
    seen = 0
    for i, a in enumerate(sigma.minimal):
        if seen & a:
            b = next(b for b in sigma.minimal[:i] if a & b)
            A, B = SupportSet.from_mask(a), SupportSet.from_mask(b)
            witness = Witness(
                "closure-violation",
                realize_support(T, B),
                realize_support(T, A),
                f"intersection of {B!r} and {A!r} misses {A & B!r}",
            )
            return ClosureReport(True, False, False, witness)
        seen |= a
    return ClosureReport(True, True, True)


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
