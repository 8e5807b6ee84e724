"""Symbolic nonatomic model: piecewise-polynomial functions on [0,1].

Functions are finite lists of polynomial pieces with rational breakpoints;
supports are finite unions of closed rational intervals, always handled
modulo null sets.  Finite-rank integral operators Tf = sum_k (int w_k f) phi_k
admit exact, universal semi-band / semi-containment decisions because both
conditions are linear in the achievable moment vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import linalg
from .errors import (
    BudgetExceededError,
    UnachievableSupportError,
    ValidationError,
)
from .values import as_fraction

MAX_DEGREE = 16
MAX_PIECES = 64

Poly = tuple[Fraction, ...]  # coefficients in ascending powers of t, stripped


def _strip(c: Poly) -> Poly:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def poly_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _strip(tuple(out))


def poly_scale(c, a: Poly) -> Poly:
    c = as_fraction(c)
    if c == 0:
        return ()
    return tuple(c * x for x in a)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(tuple(out))


def poly_eval(a: Poly, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * t + c
    return acc


def poly_integral(a: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    anti = tuple([Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)])
    return poly_eval(anti, hi) - poly_eval(anti, lo)


@dataclass(frozen=True)
class IntervalRegion:
    """A finite union of disjoint closed intervals in [0,1], modulo null sets.

    Canonical form: sorted, merged, no degenerate (single point) intervals.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @staticmethod
    def of(*pairs) -> "IntervalRegion":
        cleaned = []
        for lo, hi in pairs:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo > hi:
                raise ValidationError("interval endpoints out of order")
            if lo < hi:
                cleaned.append((lo, hi))
        cleaned.sort()
        merged: list[list[Fraction]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return IntervalRegion(tuple((lo, hi) for lo, hi in merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))

    def union(self, other: "IntervalRegion") -> "IntervalRegion":
        return IntervalRegion.of(*(self.intervals + other.intervals))

    def difference(self, other: "IntervalRegion") -> "IntervalRegion":
        out = []
        for alo, ahi in self.intervals:
            segs = [(alo, ahi)]
            for blo, bhi in other.intervals:
                nxt = []
                for lo, hi in segs:
                    if bhi <= lo or blo >= hi:
                        nxt.append((lo, hi))
                        continue
                    if blo > lo:
                        nxt.append((lo, blo))
                    if bhi < hi:
                        nxt.append((bhi, hi))
                segs = nxt
            out.extend(segs)
        return IntervalRegion.of(*out)

    def contains(self, other: "IntervalRegion") -> bool:
        """other is a subset of self, modulo null sets."""
        return other.difference(self).is_empty

    def complement(self) -> "IntervalRegion":
        return IntervalRegion.of((Fraction(0), Fraction(1))).difference(self)

    def __repr__(self) -> str:
        if not self.intervals:
            return "{}"
        return " u ".join(f"[{lo},{hi}]" for lo, hi in self.intervals)


EMPTY_REGION = IntervalRegion(())
FULL_REGION = IntervalRegion(((Fraction(0), Fraction(1)),))


@dataclass(frozen=True)
class PiecewisePoly:
    """A function on [0,1]: half-open polynomial pieces, the last one closed.

    Canonical form merges adjacent pieces carrying the same polynomial.
    """

    pieces: tuple[tuple[Fraction, Fraction, Poly], ...]

    def __post_init__(self):
        ps = self.pieces
        if not ps:
            raise ValidationError("a piecewise function needs at least one piece")
        if ps[0][0] != 0 or ps[-1][1] != 1:
            raise ValidationError("pieces must cover [0,1]")
        prev = Fraction(0)
        for lo, hi, _ in ps:
            if lo != prev:
                raise ValidationError("pieces must be contiguous")
            if lo >= hi:
                raise ValidationError("pieces must be non-degenerate")
            prev = hi
        if len(ps) > MAX_PIECES:
            raise BudgetExceededError(f"{len(ps)} pieces exceed the budget of {MAX_PIECES}")
        for _, _, c in ps:
            if len(c) > MAX_DEGREE + 1:
                raise BudgetExceededError(
                    f"degree {len(c) - 1} exceeds the budget of {MAX_DEGREE}"
                )

    @staticmethod
    def from_pieces(pieces: Iterable[tuple]) -> "PiecewisePoly":
        merged: list[tuple[Fraction, Fraction, Poly]] = []
        for lo, hi, coeffs in pieces:
            lo, hi, c = as_fraction(lo), as_fraction(hi), _strip(tuple(map(as_fraction, coeffs)))
            if merged and merged[-1][2] == c and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], hi, c)
            else:
                merged.append((lo, hi, c))
        return PiecewisePoly(tuple(merged))

    @staticmethod
    def zero() -> "PiecewisePoly":
        return PiecewisePoly.from_pieces([(0, 1, ())])

    @staticmethod
    def const(c) -> "PiecewisePoly":
        return PiecewisePoly.from_pieces([(0, 1, (Fraction(c),))])

    @staticmethod
    def on_interval(lo, hi, coeffs) -> "PiecewisePoly":
        """The polynomial with the given coefficients on [lo,hi), zero elsewhere."""
        lo, hi = Fraction(lo), Fraction(hi)
        pieces = []
        if lo > 0:
            pieces.append((0, lo, ()))
        pieces.append((lo, hi, coeffs))
        if hi < 1:
            pieces.append((hi, 1, ()))
        return PiecewisePoly.from_pieces(pieces)

    @staticmethod
    def indicator(lo, hi) -> "PiecewisePoly":
        return PiecewisePoly.on_interval(lo, hi, (1,))

    def is_zero(self) -> bool:
        return all(not c for _, _, c in self.pieces)


def _walk(fs: Sequence[PiecewisePoly]) -> Iterator[tuple[Fraction, Fraction, tuple[Poly, ...]]]:
    """The pieces of the common refinement of the functions, in order, each
    with every function's polynomial there: one merged pass over their
    sorted piece lists.  With no function, the one piece [0,1]."""
    pieces = [f.pieces for f in fs]
    at = [0] * len(pieces)
    lo = Fraction(0)
    while True:
        here = [ps[i] for ps, i in zip(pieces, at)]
        hi = min((p[1] for p in here), default=Fraction(1))
        yield lo, hi, tuple(p[2] for p in here)
        if hi == 1:
            return
        at = [i + (p[1] == hi) for i, p in zip(at, here)]
        lo = hi


def pp_map(op, *fs: PiecewisePoly) -> PiecewisePoly:
    """Apply a polynomial-level operation piecewise on the common refinement."""
    return PiecewisePoly.from_pieces((lo, hi, op(*polys)) for lo, hi, polys in _walk(fs))


def pp_restrict(f: PiecewisePoly, region: IntervalRegion) -> PiecewisePoly:
    """f times the indicator of the region (modulo null sets): the region's
    intervals and the gaps between them alternate as the pieces of a 0/1
    mask."""
    ends = [Fraction(0), *(e for iv in region.intervals for e in iv), Fraction(1)]
    mask = PiecewisePoly.from_pieces(
        (lo, hi, (k % 2,)) for k, (lo, hi) in enumerate(zip(ends, ends[1:])) if lo < hi
    )
    return pp_map(lambda a, m: a if m else (), f, mask)


def pp_support(f: PiecewisePoly) -> IntervalRegion:
    """Union of closures of the pieces whose polynomial is not identically
    zero (a nonzero polynomial vanishes only on a null set)."""
    return IntervalRegion.of(*((lo, hi) for lo, hi, c in f.pieces if c))


def pp_disjoint(f: PiecewisePoly, g: PiecewisePoly) -> bool:
    """No piece of the common refinement where both are nonzero."""
    return not any(a and b for _, _, (a, b) in _walk((f, g)))


def pp_band_contains(g: PiecewisePoly, f: PiecewisePoly) -> bool:
    """f lies in the band generated by g, supp f inside supp g mod null: no
    piece of the common refinement where f is nonzero and g is zero."""
    return not any(b and not a for _, _, (a, b) in _walk((g, f)))


def integrate(w: PiecewisePoly, f: PiecewisePoly) -> Fraction:
    """Exact integral of w*f over [0,1]."""
    total = Fraction(0)
    for lo, hi, (a, b) in _walk((w, f)):
        if a and b:
            total += poly_integral(poly_mul(a, b), lo, hi)
    return total


@dataclass(frozen=True)
class FiniteRankOp:
    """Tf = sum_k (int w_k f) phi_k with piecewise-polynomial data."""

    terms: tuple[tuple[PiecewisePoly, PiecewisePoly], ...]

    @staticmethod
    def of(*terms) -> "FiniteRankOp":
        return FiniteRankOp(tuple((w, phi) for w, phi in terms))


def frop_apply(T: FiniteRankOp, f: PiecewisePoly) -> PiecewisePoly:
    """Tf, literally: the moments int w_k f, then one pass over the images
    whose moment is nonzero, summing c_k phi_k on each piece."""
    live = [(c, phi) for c, (_, phi) in zip(frop_moments(T, f), T.terms) if c]

    def combine(*polys: Poly) -> Poly:
        acc: Poly = ()
        for (c, _), p in zip(live, polys):
            acc = poly_add(acc, poly_scale(c, p))
        return acc

    return pp_map(combine, *(phi for _, phi in live))


def frop_moments(T: FiniteRankOp, f: PiecewisePoly) -> tuple[Fraction, ...]:
    return tuple(integrate(w, f) for w, _ in T.terms)


# -- achievable supports and the two semi-preservation decisions -----------


@linalg.per_operator
def _segments(T: FiniteRankOp) -> list[tuple[Fraction, Fraction, tuple[Poly, ...]]]:
    """The pieces of the common refinement of all kernels and images, each
    with the polynomials of w_1, phi_1, w_2, phi_2, ... there."""
    return list(_walk([f for term in T.terms for f in term]))


def _moments(kernels: Sequence[Poly], lo: Fraction, hi: Fraction, nbumps: int) -> tuple[list[list[int]], int]:
    """The moments int_lo^hi w_k t^d of the bumps d < nbumps on one piece,
    as integer rows over one denominator.

    With w_k = sum_j a_kj t^j, lo = A/q and hi = B/q, the moment is
    sum_j a_kj (B^e - A^e) / (e q^e) with e = j + d + 1, and every e q^e
    divides L = lcm(1..emax) q^emax.
    """
    kden = math.lcm(*(c.denominator for k in kernels for c in k))
    q = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
    emax = 2 * nbumps - 1
    L = math.lcm(*range(1, emax + 1)) * q**emax
    power = [0] + [(b**e - a**e) * (L // (e * q**e)) for e in range(1, emax + 1)]
    rows = [
        [sum(c.numerator * (kden // c.denominator) * power[j + d + 1] for j, c in enumerate(k)) for k in kernels]
        for d in range(nbumps)
    ]
    return rows, kden * L


class _Bump(NamedTuple):
    piece: int
    degree: int  # the input is t^degree on the piece, zero elsewhere
    item: linalg.Item  # its image on the blocks; the mask is where it is nonzero


@linalg.per_operator
def _bumps(T: FiniteRankOp) -> tuple[list[_Bump], linalg.Blocks]:
    """Monomial bumps t^d on every kernel-active piece, with their images:
    t^d on [lo, hi) maps to sum_k (int_lo^hi w_k t^d) phi_k.

    A piece is a block with one coordinate per coefficient up to the
    highest degree some image reaches there.  Each image coefficient is an
    integer dot product of the bump's moment row with a column of the
    table of phi_k coefficients per piece and degree, all over one
    denominator."""
    segs = _segments(T)
    if not T.terms:
        return [], linalg.Blocks(())
    kernels = [polys[::2] for _, _, polys in segs]
    phis = [polys[1::2] for _, _, polys in segs]
    pden = math.lcm(*(c.denominator for polys in phis for p in polys for c in p))
    # every degree of every piece some phi_k reaches, with its phi_k column
    coords = [(pj, e) for pj, polys in enumerate(phis) for e in range(max(map(len, polys)))]
    cols = [
        [p[e].numerator * (pden // p[e].denominator) if e < len(p) else 0 for p in phis[pj]]
        for pj, e in coords
    ]
    raw = []
    for pi, (lo, hi, _) in enumerate(segs):
        nbumps = max(map(len, kernels[pi]))
        if nbumps:
            rows, mden = _moments(kernels[pi], lo, hi, nbumps)
            for d, row in enumerate(rows):
                raw.append((pi, d, [sum(map(mul, row, col)) for col in cols], mden * pden))
    # a piece keeps its degrees up to the highest some image reaches
    width: dict[int, int] = {}
    for c, (pj, e) in enumerate(coords):
        if any(image[c] for _, _, image, _ in raw):
            width[pj] = e + 1
    keep = [c for c, (pj, e) in enumerate(coords) if e < width.get(pj, 0)]
    blocks = linalg.Blocks(1 << coords[c][0] for c in keep)
    bumps = [_Bump(pi, d, linalg.lowest([image[c] for c in keep], [], den, blocks)) for pi, d, image, den in raw]
    return bumps, blocks


@linalg.per_operator
def _range_items(T: FiniteRankOp) -> list[linalg.Item]:
    """Echelon items spanning the range, the span of the bump images."""
    bumps, blocks = _bumps(T)
    return linalg.echelonize((b.item for b in bumps), blocks)


@linalg.per_operator
def _range_enumeration(T: FiniteRankOp) -> frozenset[int]:
    """All piece-masks of supports attained by range elements.  A piece is
    a block of several coordinates, so the engine's one-dimensional masks
    are not all the minimal supports and are not used."""
    masks, _ = linalg.support_masks(_range_items(T), _bumps(T)[1])
    return masks


def _runs(mask: int) -> list[tuple[int, int]]:
    """The runs of consecutive set bits of the mask, as (first, last)."""
    runs = []
    while mask:
        low = mask & -mask
        rest = mask & (mask + low)  # the lowest run cleared
        runs.append((low.bit_length() - 1, (mask ^ rest).bit_length() - 1))
        mask = rest
    return runs


def _region(segs, runs: list[tuple[int, int]]) -> IntervalRegion:
    """The canonical region of runs of pieces: one interval per run, since
    the pieces of a run touch and two runs do not."""
    return IntervalRegion(tuple((segs[i][0], segs[j][1]) for i, j in runs))


def _mask_region(segs, mask: int) -> IntervalRegion:
    return _region(segs, _runs(mask))


def frop_range_supports(T: FiniteRankOp) -> tuple[IntervalRegion, ...]:
    """All supports attainable by range elements, as canonical regions,
    ordered by measure and then by intervals.  Endpoints increase with the
    piece index, so the runs' index pairs order the intervals, and the
    measure is summed over the pieces' common denominator."""
    segs = _segments(T)
    den = math.lcm(*(hi.denominator for _, hi, _ in segs))
    at = [0] + [hi.numerator * (den // hi.denominator) for _, hi, _ in segs]
    keyed = []
    for m in _range_enumeration(T):
        runs = _runs(m)
        keyed.append((sum(at[j + 1] - at[i] for i, j in runs), runs))
    keyed.sort()
    return tuple(_region(segs, runs) for _, runs in keyed)


def _bump_input(T: FiniteRankOp, b: _Bump) -> PiecewisePoly:
    lo, hi, _ = _segments(T)[b.piece]
    return PiecewisePoly.on_interval(lo, hi, (0,) * b.degree + (1,))


def _bump_items(T: FiniteRankOp) -> list[linalg.Item]:
    """The bump images as engine items in bump order, each carrying its
    bump's unit coefficient vector.  They are not echelonized: constraining
    them pivots on the first live bump, so the items left are the kernel
    vectors with one free bump at 1 and the other free bumps at 0.  Built
    per call, not kept: the passengers are n x n for n bumps."""
    bumps, _ = _bumps(T)
    zeros = (0,) * len(bumps)
    return [b.item._replace(pre=zeros[:k] + (b.item.den,) + zeros[k + 1:]) for k, b in enumerate(bumps)]


def realize_range_support(T: FiniteRankOp, S: IntervalRegion) -> PiecewisePoly:
    """A function g with supp(Tg) equal to the region, exactly: a
    combination of the bumps realized by the engine; raises if the region
    is not a union of pieces or not achievable.  Each interval of the
    region is the run of pieces from the one starting at its lower end to
    the one ending at its upper end."""
    segs = _segments(T)
    starts = {lo: i for i, (lo, _, _) in enumerate(segs)}
    ends = {hi: i for i, (_, hi, _) in enumerate(segs)}
    target = 0
    for lo, hi in S.intervals:
        if lo not in starts or hi not in ends:
            raise UnachievableSupportError(f"range support {S!r} is not a union of pieces")
        target |= (2 << ends[hi]) - (1 << starts[lo])
    bumps, blocks = _bumps(T)
    hit = linalg.realize(_bump_items(T), target, blocks)
    if hit is None:
        raise UnachievableSupportError(f"range support {S!r} not achievable")
    per_piece: list[list[Fraction]] = [[] for _ in segs]
    for b, c in zip(bumps, hit[1]):
        per_piece[b.piece].append(c)
    return PiecewisePoly.from_pieces((lo, hi, cs) for (lo, hi, _), cs in zip(segs, per_piece))


class FropWitness(NamedTuple):
    kind: str
    f: PiecewisePoly
    g: PiecewisePoly
    note: str


@dataclass(frozen=True)
class FropCheck:
    holds: bool
    witness: FropWitness | None = None

    def __bool__(self) -> bool:
        return self.holds


@linalg.per_operator
def _semi_masks(T: FiniteRankOp) -> set[int]:
    """The supports the semi laws are decided on, kept on T for both laws:
    the range's union mask and, per live piece c, the largest support
    avoiding c.

    The supports avoiding c are those of the range constrained to vanish
    on c, and a generic element of that span attains their union.  So a
    semi law broken at a support S is also broken at the largest support
    avoiding the bump's piece (semi band) or the piece its image reaches
    off S (semi containment).  A piece the range never reaches is avoided
    by the union mask itself.  Masks ignore scale, so the denominators are
    dropped first.
    """
    _, blocks = _bumps(T)
    items = _range_items(T)
    full = linalg.union_mask(items)
    items = [linalg.Item(it.vec, it.mask, (), 1) for it in items]
    return {full, *(linalg.union_mask(linalg.constrain(items, c, blocks)) for c in blocks.coords if full & c)}


def _first_bump_violation(T: FiniteRankOp, inside: bool) -> tuple[_Bump, PiecewisePoly] | None:
    """(bump, g) for the first support S = supp(Tg) of ``_semi_masks``
    (ascending) and the first bump that break a semi law.  With ``inside``
    false the law is semi band preservation: the bump's piece is off S and
    its image meets S.  With ``inside`` true it is semi containment: the
    piece is in S and the image escapes S.  Linearity and the union bound
    on supports make one bump per spanning input complete."""
    bumps, _ = _bumps(T)
    for s in sorted(_semi_masks(T)):
        breach = ~s if inside else s
        for b in bumps:
            if (s >> b.piece & 1) == inside and b.item.mask & breach:
                return b, realize_range_support(T, _mask_region(_segments(T), s))
    return None


def frop_is_sbp(T: FiniteRankOp) -> FropCheck:
    """Semi band preserving, decided universally (no sampling).

    For every attainable range support S, every input supported off S must
    have an image vanishing a.e. on S; linearity in the moment vector makes
    checking monomial bumps complete.  The supports off a bump's piece all
    lie in the largest one, so only that support is checked per piece and
    no support is enumerated.
    """
    hit = _first_bump_violation(T, inside=False)
    if hit is None:
        return FropCheck(True)
    b, g = hit
    note = (
        f"bump on piece {_segments(T)[b.piece][:2]} is disjoint from supp(Tg) "
        f"yet its image meets it"
    )
    return FropCheck(False, FropWitness("SBP-violation", _bump_input(T, b), g, note))


def frop_is_scp(T: FiniteRankOp) -> FropCheck:
    """Semi containment preserving, decided universally."""
    hit = _first_bump_violation(T, inside=True)
    if hit is None:
        return FropCheck(True)
    b, g = hit
    note = (
        f"bump on piece {_segments(T)[b.piece][:2]} lies in the band of Tg "
        f"yet its image escapes supp(Tg)"
    )
    return FropCheck(False, FropWitness("SCP-violation", _bump_input(T, b), g, note))


def replay_frop_witness(T: FiniteRankOp, w: FropWitness) -> bool:
    tg = frop_apply(T, w.g)
    tf = frop_apply(T, w.f)
    if w.kind == "SBP-violation":
        return pp_disjoint(w.f, tg) and not pp_disjoint(tf, tg)
    if w.kind == "SCP-violation":
        return pp_band_contains(tg, w.f) and not pp_band_contains(tg, tf)
    raise ValidationError(f"unknown witness kind {w.kind!r}")


# -- gallery ----------------------------------------------------------------


def make_sbp_not_scp_operator() -> FiniteRankOp:
    """Rank-two operator with both functionals supported in [0,1/2]: the
    image of anything supported in [1/2,1] is zero, so the operator is semi
    band preserving, yet inputs can steer the constant term and break semi
    containment."""
    half = Fraction(1, 2)
    w1 = PiecewisePoly.on_interval(0, half, (2,))
    phi1 = PiecewisePoly.const(1)
    w2 = PiecewisePoly.on_interval(0, half, (0, 1))
    phi2 = PiecewisePoly.on_interval(0, half, (0, 1))
    return FiniteRankOp.of((w1, phi1), (w2, phi2))


def make_full_support_projection() -> FiniteRankOp:
    """A projection onto span{1, t}: kernels biorthogonal to (1, t).

    Every nonzero range element a + b t has at most one zero, hence full
    support; both semi-preservation conditions hold trivially.
    """
    w1 = PiecewisePoly.from_pieces([(0, 1, (Fraction(4), Fraction(-6)))])
    w2 = PiecewisePoly.from_pieces([(0, 1, (Fraction(-6), Fraction(12)))])
    phi1 = PiecewisePoly.const(1)
    phi2 = PiecewisePoly.from_pieces([(0, 1, (Fraction(0), Fraction(1)))])
    return FiniteRankOp.of((w1, phi1), (w2, phi2))


def rank_one_frop(w: PiecewisePoly, phi: PiecewisePoly) -> FiniteRankOp:
    return FiniteRankOp.of((w, phi))
