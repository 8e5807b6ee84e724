"""Weighted conditional expectation operators on atomic spaces.

An operator of this kind acts as ``Tf = sum_j <psi_j, f> u_j`` where the
blocks A_j are pairwise disjoint atom sets hosting both supp(u_j) and
supp(psi_j).  Blockwise averaging is the classical special case.  The
decomposition routine recovers this form from a raw matrix exactly when
the matrix is semi band preserving, reading it off the columns with
``operators._column_blocks``: the blocks are the distinct supports of
the nonzero columns, which are the minimal achievable supports, and no
support is enumerated.  The same column reading gives ``operator_norm``
its exact value, and ``wce_operator_norm`` shares its max-of-products
function, ``operators.block_sum_norm``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .atomic import (
    INF,
    AtomicSpace,
    SupportSet,
    Vector,
    basis_vector,
    is_strictly_monotone,
    norm_value,
    support,
    support_mask,
    vec_scale,
    zero_vector,
)
from .errors import IndeterminateComparisonError, InternalConsistencyError, ValidationError
from .operators import (
    Operator,
    Witness,
    _column_blocks,
    block_sum_norm,
    is_projection,
    is_sbp,
    is_scp,
    operator_norm,
    replay_witness,
)
from .values import compare, multiply


@dataclass(frozen=True)
class WceForm:
    """Blocks A_j with range vectors u_j and functionals psi_j.

    Canonical form: blocks sorted by their smallest atom, each u_j scaled
    so its first nonzero coordinate is 1 (psi_j absorbs the scale).
    """

    space: AtomicSpace
    blocks: tuple[SupportSet, ...]
    u: tuple[Vector, ...]
    psi: tuple[Vector, ...]

    def to_operator(self) -> Operator:
        n = self.space.n
        cols = []
        for i in range(1, n + 1):
            col = zero_vector(n)
            for uj, pj in zip(self.u, self.psi):
                c = pj[i - 1]
                if c != 0:
                    col = tuple(a + c * b for a, b in zip(col, uj))
            cols.append(col)
        rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        return Operator(self.space, rows)


def make_wce(
    space: AtomicSpace,
    blocks: Sequence[SupportSet],
    u: Sequence[Vector],
    psi: Sequence[Vector],
) -> WceForm:
    """Validate and canonicalize a weighted conditional expectation form.

    Validation asks only that supp(u_j) and supp(psi_j) lie in block j, so
    the forms accepted are wider than the paper's class: the operator is
    semi band preserving iff supp(psi_j) lies in supp(u_j) for every j.
    ``escape_projection`` is a valid form outside that class.
    """
    if not (len(blocks) == len(u) == len(psi)):
        raise ValidationError("blocks, u and psi must have equal lengths")
    seen = 0
    for b in blocks:
        if len(b) == 0:
            raise ValidationError("blocks must be nonempty")
        if any(a < 1 or a > space.n for a in b):
            raise ValidationError(f"block {b!r} escapes the atom range")
        if seen & b.mask:
            raise ValidationError(f"block {b!r} overlaps an earlier block")
        seen |= b.mask
    cu, cp = [], []
    for b, uj, pj in zip(blocks, u, psi):
        space.check_vector(uj)
        space.check_vector(pj)
        su = support(uj)
        if len(su) == 0:
            raise ValidationError("u_j must be nonzero")
        if not su <= b:
            raise ValidationError(f"range vector support {su!r} escapes block {b!r}")
        sp = support(pj)
        if not sp <= b:
            raise ValidationError(f"functional support {sp!r} escapes block {b!r}")
        lead = next(x for x in uj if x != 0)
        cu.append(vec_scale(1 / lead, uj))
        cp.append(vec_scale(lead, pj))
    order = sorted(range(len(blocks)), key=lambda j: (min(blocks[j]) if len(blocks[j]) else 0))
    return WceForm(
        space,
        tuple(blocks[j] for j in order),
        tuple(cu[j] for j in order),
        tuple(cp[j] for j in order),
    )


def make_averaging(space_or_n, partition: Sequence[SupportSet]) -> Operator:
    """The blockwise averaging operator of a partial partition of atoms.

    Atoms outside every block map to zero.
    """
    if isinstance(space_or_n, AtomicSpace):
        space = space_or_n
    else:
        space = AtomicSpace.lp(int(space_or_n), 2)
    n = space.n
    seen = 0
    for b in partition:
        if len(b) == 0:
            raise ValidationError("partition blocks must be nonempty")
        if any(a < 1 or a > n for a in b):
            raise ValidationError(f"block {b!r} escapes the atom range")
        if seen & b.mask:
            raise ValidationError(f"block {b!r} overlaps an earlier block")
        seen |= b.mask
    rows = [[Fraction(0)] * n for _ in range(n)]
    for b in partition:
        c = Fraction(1, len(b))
        for i in b:
            for j in b:
                rows[i - 1][j - 1] = c
    return Operator(space, tuple(tuple(r) for r in rows))


def averaging_form(space: AtomicSpace, partition: Sequence[SupportSet]) -> WceForm:
    """The averaging operator of a partition, as a validated form."""
    u = []
    psi = []
    for b in partition:
        ind = tuple(Fraction(1 if i in b else 0) for i in range(1, space.n + 1))
        u.append(ind)
        psi.append(vec_scale(Fraction(1, len(b)), ind))
    return make_wce(space, tuple(partition), tuple(u), tuple(psi))


@linalg.per_operator
def decompose_wce(T: Operator) -> WceForm | Witness:
    """Recover the weighted conditional expectation form of T.

    Succeeds exactly when T is semi band preserving (read off the row
    classes); otherwise the SBP violation witness is returned.  The form is
    T's column blocks (``operators._column_blocks``): the distinct supports
    of the nonzero columns, u_j a column of support block j scaled to a
    leading 1, psi_j the row of the block's lowest atom.  The checks below
    compare the two independent readings, rows and columns, entrywise.
    """
    check = is_sbp(T)
    if not check:
        return check.witness
    blocks = _column_blocks(T)
    if blocks is None:
        raise InternalConsistencyError("SBP matrix is not a sum of disjoint rank-one blocks")
    masks, us, psis = zip(*blocks) if blocks else ((), (), ())
    if any(support_mask(psi) & ~m for m, psi in zip(masks, psis)):
        raise InternalConsistencyError("a recovered functional escapes its block; decomposition defect")
    form = WceForm(T.space, tuple(map(SupportSet.from_mask, masks)), us, psis)
    if form.to_operator().rows != T.rows:
        raise InternalConsistencyError("reassembled matrix differs from the input")
    return form


def wce_operator_norm(space: AtomicSpace, form: WceForm) -> "Value":
    """max_j ||psi_j||_dual * ||u_j||; exact thanks to the disjoint blocks."""
    return block_sum_norm(space, zip(form.u, form.psi))


def rank_one(space: AtomicSpace, u: Vector, psi: Vector) -> Operator:
    """The operator f -> <psi, f> u."""
    space.check_vector(u)
    space.check_vector(psi)
    rows = tuple(tuple(u[i] * psi[j] for j in range(space.n)) for i in range(space.n))
    return Operator(space, rows)


def escape_projection() -> Operator:
    """Rank-one projection on the two-atom 1-norm space whose functional
    escapes the support of its range vector: f -> (f_1 + f_2/2) e_1."""
    space = AtomicSpace.lp(2, 1)
    return rank_one(space, basis_vector(2, 1), (Fraction(1), Fraction(1, 2)))


@dataclass(frozen=True)
class ProbeFinding:
    """A norm-one semi containment preserving projection on a strictly
    monotone space that nevertheless fails to decompose.  Every recorded
    fact re-verifies under exact arithmetic."""

    space: AtomicSpace
    operator: Operator
    norm_evidence: "Value"
    sbp_witness: Witness


def verify_probe_finding(finding: ProbeFinding) -> bool:
    """Re-derive all five facts of a finding from scratch, exactly."""
    T = finding.operator
    space = finding.space
    if not is_projection(T):
        return False
    try:
        if compare(operator_norm(space, T), 1) != 0:
            return False
    except IndeterminateComparisonError:
        return False
    if not is_scp(T):
        return False
    if not is_strictly_monotone(space):
        return False
    decomp = decompose_wce(T)
    if isinstance(decomp, WceForm):
        return False
    return replay_witness(T, decomp)


def _u_grids(size: int):
    """Small canonical grids for range vectors (leading entry fixed to 1)."""
    tail = [Fraction(1), Fraction(1, 2), Fraction(2)]
    if size == 1:
        yield (Fraction(1),)
        return
    for rest in itertools.product(tail, repeat=size - 1):
        yield (Fraction(1),) + rest


_PSI_EXTRA = [Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(-1, 2), Fraction(2)]


def probe_norm_one_projections(
    p,
    dims: Iterable[int],
    budget: int,
) -> list[ProbeFinding]:
    """Search structured candidate families for norm-one SCP projections on
    strictly monotone spaces that are not decomposable.

    Families: rank-one projections u (x) psi over small rational grids, and
    block-diagonal sums of norm-one rank-one projections.  Candidates whose
    norm-one check is not exactly decidable are skipped.  An empty result
    is a valid outcome.
    """
    p = INF if p in (INF, "inf") else Fraction(p)
    if p == INF:
        raise ValidationError("probe requires a strictly monotone space (p < inf)")
    candidates: list[tuple[AtomicSpace, Operator]] = []
    rank_one_units: dict[int, list[Operator]] = {}
    examined = 0
    for n in dims:
        space = AtomicSpace.lp(n, p)
        rank_one_units[n] = []
        for su_mask in range(1, 1 << n):
            su = sorted(SupportSet.from_mask(su_mask))
            if len(su) > 3:
                continue
            for uvals in _u_grids(len(su)):
                u = [Fraction(0)] * n
                for a, val in zip(su, uvals):
                    u[a - 1] = val
                u = tuple(u)
                # psi on supp(u) plus at most one escaping atom
                base_opts = itertools.product(_PSI_EXTRA + [Fraction(0)], repeat=len(su))
                extras = [None] + [a for a in range(1, n + 1) if a not in su]
                for base in base_opts:
                    for extra in extras:
                        for b in _PSI_EXTRA if extra is not None else [Fraction(0)]:
                            if examined >= budget:
                                break
                            examined += 1
                            psi = [Fraction(0)] * n
                            for a, val in zip(su, base):
                                psi[a - 1] = val
                            if extra is not None:
                                psi[extra - 1] = b
                            psi = tuple(psi)
                            pairing = sum(a * c for a, c in zip(psi, u))
                            if pairing != 1:
                                continue
                            nrm = multiply(
                                norm_value(space, psi, "dual"),
                                norm_value(space, u, "primal"),
                            )
                            try:
                                if compare(nrm, 1) != 0:
                                    continue
                            except IndeterminateComparisonError:
                                continue  # not exactly checkable: skip
                            T = rank_one(space, u, psi)
                            rank_one_units[n].append(T)
                            candidates.append((space, T))
        # block sums of previously accepted rank-one units with disjoint
        # column/row supports, capped to keep enumeration bounded
        units = rank_one_units[n]
        for a_idx in range(min(len(units), 12)):
            for b_idx in range(a_idx + 1, min(len(units), 12)):
                if examined >= budget:
                    break
                A, B = units[a_idx], units[b_idx]
                amask = 0
                bmask = 0
                for j in range(1, n + 1):
                    amask |= support_mask(A.column(j)) | support_mask(tuple(A.rows[j - 1]))
                    bmask |= support_mask(B.column(j)) | support_mask(tuple(B.rows[j - 1]))
                if amask & bmask:
                    continue
                examined += 1
                rows = tuple(
                    tuple(x + y for x, y in zip(ra, rb))
                    for ra, rb in zip(A.rows, B.rows)
                )
                candidates.append((space, Operator(space, rows)))

    def evaluate(item):
        space, T = item
        if not is_projection(T):
            return None
        try:
            nrm = operator_norm(space, T)
            if compare(nrm, 1) != 0:
                return None
        except IndeterminateComparisonError:
            return None
        if not is_scp(T):
            return None
        decomp = decompose_wce(T)
        if isinstance(decomp, WceForm):
            return None
        return ProbeFinding(space, T, nrm, decomp)

    findings = []
    seen = set()
    for f in map(evaluate, candidates):
        if f is None:
            continue
        key = (f.space.n, f.operator.rows)
        if key in seen:
            continue
        seen.add(key)
        findings.append(f)
    return findings
