"""Independent oracles used to cross-check the decision procedures.

The decision oracles reuse neither the reductions from ``operators`` nor
the support engine (``sigma_realization_check`` has the engine's table as
its subject).  The symbolic oracle evaluates the defining implications on
concrete vectors built by kernel analysis of input strata; it runs on the
integer rows of a positive multiple of T and on support masks, which is
all the implications read.  The sampled oracles draw random pairs that can
confirm a violation but never overturn one.  The atomic sampler draws
with ``random.Random`` and takes its images on the same integer rows,
stopping at the first confirmed violation.  The module, like the rest of
the package, needs only the standard library.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence
from fractions import Fraction
from operator import itemgetter, mul

from .atomic import Vector, band_contains, is_disjoint, support_mask
from .interval import (
    FiniteRankOp,
    PiecewisePoly,
    frop_apply,
    pp_band_contains,
    pp_disjoint,
    pp_restrict,
    pp_support,
)
from .operators import Operator, apply


def nullspace(rows: list[tuple[Fraction, ...]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : R x = 0}, normalized with free variables set to 1: a
    plain Gauss-Jordan elimination, independent of the support engine."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -mat[ri][fc]
        basis.append(tuple(v))
    return basis


def _integral(v: Sequence[Fraction]) -> list[int]:
    """v scaled by the lcm of its denominators."""
    d = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v]


def _int_rows(T: Operator) -> list[list[int]]:
    """The rows of d*T, where d is the lcm of the entries' denominators.
    Scaling by d > 0 changes no support, so no implication changes."""
    flat = _integral([x for row in T.rows for x in row])
    return [flat[i : i + T.n] for i in range(0, len(flat), T.n)]


def _mask(v: Sequence[int]) -> int:
    m = 0
    for i, x in enumerate(v):
        if x:
            m |= 1 << i
    return m


def _image(rows: list[list[int]], f: Sequence[int]) -> list[int]:
    """(d*T) f, one dot product per integer row of d*T."""
    return [sum(map(mul, row, f)) for row in rows]


def _row_classes(rows: list[list[int]]) -> list[tuple[tuple[int, ...], int]]:
    """The nonzero rows up to a nonzero factor, each as its primitive row
    (gcd 1, leading entry positive) with the mask of the rows it stands
    for.  A row's dot product with f vanishes exactly when its primitive
    row's does, so one dot product per class decides them all."""
    classes: dict[tuple[int, ...], int] = {}
    for i, row in enumerate(rows):
        lead = next((x for x in row if x), 0)
        if lead:
            g = math.gcd(*row) if lead > 0 else -math.gcd(*row)
            key = tuple(x // g for x in row)
            classes[key] = classes.get(key, 0) | 1 << i
    return list(classes.items())


def _image_mask(classes: list[tuple[tuple[int, ...], int]], f: Sequence[int]) -> int:
    """The support mask of (d*T) f, taken in the pass of its dot products."""
    m = 0
    for row, bits in classes:
        if sum(map(mul, row, f)):
            m |= bits
    return m


def _generic_in_span(pairs: list[tuple[Sequence[int], Sequence[int]]], n: int) -> list[int]:
    """The preimage of a combination of integer (image, preimage) pairs whose
    image support is the union of the individual supports; small positive
    multipliers suffice, since each coordinate cancels for at most one of
    them."""
    acc_v, acc_p, acc_m = [0] * n, [0] * n, 0
    for v, pre in pairs:
        target = acc_m | _mask(v)
        if target == acc_m:
            continue
        for a in range(1, n + 2):
            cand = [x + a * y for x, y in zip(acc_v, v)]
            if _mask(cand) == target:
                acc_v, acc_m = cand, target
                acc_p = [x + a * y for x, y in zip(acc_p, pre)]
                break
        else:  # pragma: no cover
            raise AssertionError("no cancellation-free combination")
    return acc_p


def _input_strata(rows: list[list[int]]) -> dict[int, list[int]]:
    """For every input-support pattern, the achievable image supports with
    a concrete integer realizer each: kernel analysis of the coefficient
    space.  ``rows`` are the integer rows of d*T; keys are image masks."""
    n = len(rows)
    nzcols = [j for j in range(n) if any(row[j] for row in rows)]
    exact = [[Fraction(x) for x in row] for row in rows]
    strata: dict[int, list[int]] = {0: [0] * n}
    for r in range(1, len(nzcols) + 1):
        for combo in itertools.combinations(nzcols, r):
            hit_rows = [i for i in range(n) if any(rows[i][j] for j in combo)]
            for zr in range(len(hit_rows) + 1):
                for zero_rows in itertools.combinations(hit_rows, zr):
                    if zero_rows:
                        sub = [[exact[i][j] for j in combo] for i in zero_rows]
                        coeff_basis = [_integral(c) for c in nullspace(sub, r)]
                    else:
                        coeff_basis = [[int(t == s) for t in range(r)] for s in range(r)]
                    pairs = []
                    key = 0
                    for c in coeff_basis:
                        g = [0] * n
                        for coef, j in zip(c, combo):
                            g[j] = coef
                        v = _image(rows, g)
                        key |= _mask(v)
                        pairs.append((v, g))
                    if key in strata:
                        continue
                    pre = _generic_in_span(pairs, n)
                    if _mask(_image(rows, pre)) != key:  # pragma: no cover
                        raise AssertionError("stratum realizer failed to replay")
                    strata[key] = pre
    return strata


def _generic_per_pattern(rows: list[list[int]]) -> dict[int, list[int]]:
    """One generic representative f per input-support pattern, maximizing
    the image support within the pattern.  A column whose image support the
    earlier columns already cover gets coefficient zero, so supp f can be
    smaller than its pattern."""
    n = len(rows)
    cols = list(zip(*rows))
    nzcols = [j for j in range(n) if any(cols[j])]
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    reps: dict[int, list[int]] = {0: [0] * n}
    for r in range(1, len(nzcols) + 1):
        for combo in itertools.combinations(nzcols, r):
            pre = _generic_in_span([(cols[j], units[j]) for j in combo], n)
            reps[sum(1 << j for j in combo)] = pre
    return reps


def sbp_scp_exhaustive(T: Operator) -> tuple[bool, bool]:
    """Decide both semi-preservation conditions by direct implication checks
    over one generic representative per input pattern and every image
    stratum found by kernel analysis.  Exact; intended for small n.

    Both implications read supports only: f is disjoint from Tg iff
    supp f & supp Tg == 0, and Tg's band contains f iff
    supp f & ~supp Tg == 0.  So everything runs on the integer rows of
    d*T and on support masks."""
    rows = _int_rows(T)
    products = {
        (_mask(f), _mask(_image(rows, f))) for f in _generic_per_pattern(rows).values()
    }
    sbp = True
    scp = True
    for tg in _input_strata(rows):
        for f, tf in products:
            if not f & tg and tf & tg:
                sbp = False
            if not f & ~tg and tf & ~tg:
                scp = False
        if not (sbp or scp):
            break
    return sbp, scp


def beta_bruteforce(T: Operator) -> bool:
    """Direct check of the band-inclusion condition over all input patterns
    and rows, via kernel analysis; exact, intended for tiny n."""
    n = T.n
    for gmask in range(1, 1 << n):
        atoms = [j for j in range(1, n + 1) if gmask >> (j - 1) & 1]
        for k in range(1, n + 1):
            row = tuple(T.entry(k, j) for j in atoms)
            if all(x == 0 for x in row):
                continue
            kern = nullspace([row], len(atoms))
            # a full-support kernel vector exists iff no coordinate is
            # forced to zero across the kernel
            full = all(any(v[t] != 0 for v in kern) for t in range(len(atoms)))
            if full:
                return False
    return True


def sigma_realization_check(
    T: Operator, samples_per_pattern: int = 3, seed: int = 0
) -> tuple[bool, str]:
    """Two-sided check of an enumerated support table.

    Lower side: supports of images of random inputs must appear in the
    table.  Upper side: every tabulated support must be realized exactly by
    the deterministic realizer, verified through a plain matrix product.
    """
    from .operators import SupportSet, enumerate_sigma, realize_support

    n = T.n
    sigma = enumerate_sigma(T)
    rng = random.Random(f"sigma-oracle:{seed}:{n}")
    for fmask in range(1 << n):
        for _ in range(samples_per_pattern):
            f = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if fmask >> i & 1
                else Fraction(0)
                for i in range(n)
            )
            m = support_mask(apply(T, f))
            if m not in sigma.masks:
                return False, f"sampled support {m:b} missing from the table"
    for m in sigma.masks:
        g = realize_support(T, SupportSet.from_mask(m))
        if support_mask(apply(T, g)) != m:
            return False, f"tabulated support {m:b} failed to realize"
    return True, "ok"


#: An entry of a sampled vector: with probability 57/95 = 0.6 uniform in -9..9, else 0.
_DRAWS = [*range(-9, 10)] * 3 + [0] * 38


def sampled_implication_check(
    T: Operator, which: str, pairs: int, seed: int
) -> tuple[Vector, Vector] | None:
    """Draw random (f, g) pairs satisfying the antecedent by construction
    and return the first whose consequent fails, re-verified with rationals,
    or None.  The entries of g, and of f on the atoms the antecedent allows
    (off supp Tg for ``"sbp"``, inside it for ``"scp"``), come from
    ``_DRAWS``; image masks are taken on the integer rows of d*T, one dot
    product per class of proportional rows."""
    if which not in ("sbp", "scp"):
        raise ValueError("which must be 'sbp' or 'scp'")
    inside = which == "scp"
    law = band_contains if inside else is_disjoint  # law(Tg, f): the antecedent
    n = T.n
    classes = _row_classes(_int_rows(T))
    rng = random.Random(f"sampled-oracle:{seed}")
    for _ in range(pairs):
        g = rng.choices(_DRAWS, k=n)
        tg = _image_mask(classes, g)
        breach = ~tg if inside else tg
        if not ~breach & ((1 << n) - 1):
            continue  # the antecedent forces f = 0
        f = [0 if breach >> i & 1 else x for i, x in enumerate(rng.choices(_DRAWS, k=n))]
        if _image_mask(classes, f) & breach:
            f, g = tuple(map(Fraction, f)), tuple(map(Fraction, g))
            tf, tgv = apply(T, f), apply(T, g)
            if law(tgv, f) and not law(tgv, tf):
                return f, g
    return None


def small_matrix_family(n: int, max_nnz: int, values=(Fraction(-1), Fraction(1, 2), Fraction(1))):
    """Every n x n matrix with at most max_nnz nonzero entries drawn from the
    value set, deduplicated up to simultaneous row/column relabeling."""
    # entries are canonicalized as their ranks in the sorted value set; the
    # map preserves order, so the least relabeling is the least one of the
    # Fraction matrices too
    ranked = sorted({Fraction(0), *values})
    zero = ranked.index(0)
    ranks = [ranked.index(v) for v in values]
    # flat index maps: entry (i,j) of the relabeled matrix comes from p[i]*n+p[j];
    # itemgetter of one index returns a bare item, so n = 1 uses tuple
    relabelings = [
        itemgetter(*[p[i] * n + p[j] for i in range(n) for j in range(n)])
        for p in itertools.permutations(range(n))
    ] if n > 1 else [tuple]
    seen = set()
    out = []
    positions = list(range(n * n))
    for nnz in range(max_nnz + 1):
        for pos in itertools.combinations(positions, nnz):
            for vals in itertools.product(ranks, repeat=nnz):
                flat = [zero] * (n * n)
                for idx, v in zip(pos, vals):
                    flat[idx] = v
                canon = min(relabel(flat) for relabel in relabelings)
                if canon in seen:
                    continue
                seen.add(canon)
                out.append(tuple(tuple(ranked[canon[i * n + j]] for j in range(n)) for i in range(n)))
    return out


# -- sampled oracle for the interval model ----------------------------------

_GRID = [Fraction(k, 8) for k in range(9)]


def random_piecewise(rng: random.Random, max_pieces: int = 6, max_degree: int = 3) -> PiecewisePoly:
    interior = sorted(rng.sample(_GRID[1:-1], rng.randint(0, max_pieces - 1)))
    pts = [Fraction(0), *interior, Fraction(1)]
    pieces = []
    for lo, hi in zip(pts, pts[1:]):
        if rng.random() < 0.3:
            coeffs = ()
        else:
            coeffs = tuple(
                Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, max_degree + 1))
            )
        pieces.append((lo, hi, coeffs))
    return PiecewisePoly.from_pieces(pieces)


def sampled_frop_check(
    T: FiniteRankOp, which: str, pairs: int, seed: int
) -> tuple[PiecewisePoly, PiecewisePoly] | None:
    """Random antecedent-satisfying pairs for the interval model; returns a
    violating pair or None."""
    if which not in ("sbp", "scp"):
        raise ValueError("which must be 'sbp' or 'scp'")
    rng = random.Random(f"frop-oracle:{seed}")
    for _ in range(pairs):
        g = random_piecewise(rng)
        tg = frop_apply(T, g)
        s = pp_support(tg)
        f_raw = random_piecewise(rng)
        if which == "sbp":
            f = pp_restrict(f_raw, s.complement())
            if not pp_disjoint(frop_apply(T, f), tg):
                return f, g
        else:
            f = pp_restrict(f_raw, s)
            if not pp_band_contains(tg, frop_apply(T, f)):
                return f, g
    return None
