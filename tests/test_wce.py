import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from semiband import (
    AtomicSpace,
    IndeterminateComparisonError,
    Operator,
    ProbeFinding,
    SupportSet,
    Witness,
    apply,
    averaging_form,
    decompose_wce,
    escape_projection,
    is_projection,
    is_sbp,
    is_scp,
    make_averaging,
    make_wce,
    norm_value,
    operator_norm,
    probe_norm_one_projections,
    rank_one,
    replay_witness,
    vec,
    verify_probe_finding,
    wce_operator_norm,
)
from semiband.atomic import support
from semiband.errors import ValidationError
from semiband.generators import gen_random_wce, perturb_off_block
from semiband.operators import _column_blocks, block_sum_norm
from semiband.values import ExactValue, IntervalValue, SqrtValue, compare, exact, multiply
from semiband.wce import WceForm


def test_make_averaging_matrices():
    M = make_averaging(3, [SupportSet.of(1, 2), SupportSet.of(3)])
    assert M.rows == (
        (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    I2 = make_averaging(2, [SupportSet.of(1), SupportSet.of(2)])
    assert I2.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    P = make_averaging(3, [SupportSet.of(1, 2)])
    assert P.rows[2] == (Fraction(0), Fraction(0), Fraction(0))
    with pytest.raises(ValidationError):
        make_averaging(3, [SupportSet.of(1, 2), SupportSet.of(2, 3)])


def test_make_wce_assembles_averaging_matrix():
    sp = AtomicSpace.lp(3, 2)
    form = make_wce(
        sp,
        [SupportSet.of(1, 2), SupportSet.of(3)],
        [vec(1, 1, 0), vec(0, 0, 1)],
        [vec("1/2", "1/2", 0), vec(0, 0, 1)],
    )
    M = make_averaging(3, [SupportSet.of(1, 2), SupportSet.of(3)])
    assert form.to_operator().rows == M.rows


def test_make_wce_validation_errors():
    sp = AtomicSpace.lp(3, 2)
    with pytest.raises(ValidationError):
        make_wce(
            sp,
            [SupportSet.of(1, 2)],
            [vec(1, 1, 0)],
            [vec("1/2", 0, "1/2")],  # functional support escapes the block
        )
    with pytest.raises(ValidationError):
        make_wce(sp, [SupportSet.of(1, 2)], [vec(0, 0, 0)], [vec(1, 0, 0)])
    with pytest.raises(ValidationError):
        make_wce(
            sp,
            [SupportSet.of(1, 2), SupportSet.of(2, 3)],
            [vec(1, 0, 0), vec(0, 0, 1)],
            [vec(1, 0, 0), vec(0, 0, 1)],
        )
    empty = make_wce(sp, [], [], [])
    assert empty.to_operator().rows == Operator.zero(sp).rows


def test_decompose_averaging_exact():
    M = make_averaging(3, [SupportSet.of(1, 2), SupportSet.of(3)])
    form = decompose_wce(M)
    assert isinstance(form, WceForm)
    assert form.blocks == (SupportSet.of(1, 2), SupportSet.of(3))
    assert form.u == (vec(1, 1, 0), vec(0, 0, 1))
    assert form.psi == (vec("1/2", "1/2", 0), vec(0, 0, 1))


def test_decompose_escape_projection_gives_witness():
    res = decompose_wce(escape_projection())
    assert isinstance(res, Witness)
    assert res.kind == "SBP-violation"
    assert (res.f, res.g) == (vec(0, 1), vec(1, 0))


def test_decompose_zero_operator():
    z = Operator.zero(AtomicSpace.lp(3, 2))
    form = decompose_wce(z)
    assert isinstance(form, WceForm)
    assert form.blocks == ()


def test_roundtrip_random_forms():
    for i in range(40):
        form = gen_random_wce(5000 + i, 2 + i % 9)
        T = form.to_operator()
        assert is_sbp(T).holds and is_scp(T).holds
        rec = decompose_wce(T)
        assert rec == form


def test_roundtrip_up_to_block_rescaling():
    # scaling one u_j and dividing its psi_j leaves the matrix unchanged,
    # so decomposition recovers the same canonical form
    sp = AtomicSpace.lp(4, 2)
    blocks = [SupportSet.of(1, 3), SupportSet.of(2)]
    base = make_wce(
        sp,
        blocks,
        [vec(2, 0, 3, 0), vec(0, 5, 0, 0)],
        [vec(1, 0, "1/2", 0), vec(0, "1/5", 0, 0)],
    )
    scaled = make_wce(
        sp,
        blocks,
        [vec(4, 0, 6, 0), vec(0, 1, 0, 0)],
        [vec("1/2", 0, "1/4", 0), vec(0, 1, 0, 0)],
    )
    assert base.to_operator().rows == scaled.to_operator().rows
    assert decompose_wce(base.to_operator()) == base == scaled


def test_escaping_functional_breaks_sbp():
    # a syntactically valid form whose functional escapes supp(u) is not
    # semi band preserving (the escape projection is exactly of this shape)
    sp = AtomicSpace.lp(2, 1)
    form = make_wce(sp, [SupportSet.of(1, 2)], [vec(1, 0)], [vec(1, "1/2")])
    T = form.to_operator()
    assert T.rows == escape_projection().rows
    assert not is_sbp(T).holds


def test_form_is_sbp_iff_functionals_stay_in_range_supports():
    # make_wce accepts any functional inside the block; the operator is SBP
    # exactly when every psi_j also stays inside supp(u_j)
    rng = random.Random("wce-class")
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        label = [rng.randrange(3) for _ in range(n)]
        blocks, us, psis = [], [], []
        for b in sorted(set(label)):
            atoms = [i for i in range(n) if label[i] == b]
            u = [Fraction(0)] * n
            psi = [Fraction(0)] * n
            for i in atoms:
                u[i] = Fraction(rng.choice((0, 0, 1, -2, 3)))
                psi[i] = Fraction(rng.choice((0, 1, Fraction(1, 2), -1)))
            u[rng.choice(atoms)] = Fraction(1)
            blocks.append(SupportSet.of(*(i + 1 for i in atoms)))
            us.append(tuple(u))
            psis.append(tuple(psi))
        form = make_wce(AtomicSpace.lp(n, 2), blocks, us, psis)
        inside = all(support(p) <= support(u) for u, p in zip(form.u, form.psi))
        assert is_sbp(form.to_operator()).holds == inside, (form.u, form.psi)
        verdicts.add(inside)
    assert verdicts == {True, False}


def test_perturbed_forms_yield_replayable_witnesses():
    for i in range(40):
        form = gen_random_wce(6000 + i, 2 + i % 9)
        perturbed = perturb_off_block(6000 + i, form)
        if perturbed is None:
            continue
        T, _pos = perturbed
        if is_sbp(T).holds:
            continue
        w = decompose_wce(T)
        assert isinstance(w, Witness)
        assert replay_witness(T, w)


def test_projection_iff_unit_pairings():
    sp = AtomicSpace.lp(4, 2)
    for pairings in itertools.product([Fraction(1), Fraction(1, 2)], repeat=2):
        u1 = vec(1, 1, 0, 0)
        u2 = vec(0, 0, 1, 2)
        psi1 = vec(pairings[0] / 2, pairings[0] / 2, 0, 0)
        psi2 = vec(0, 0, pairings[1] / 5, 2 * pairings[1] / 5)
        form = make_wce(sp, [SupportSet.of(1, 2), SupportSet.of(3, 4)], [u1, u2], [psi1, psi2])
        T = form.to_operator()
        expected = all(p == 1 for p in pairings)
        assert is_projection(T) == expected


def test_wce_operator_norm_blockwise():
    sp2 = AtomicSpace.lp(3, 2)
    form = averaging_form(sp2, [SupportSet.of(1, 2), SupportSet.of(3)])
    assert compare(wce_operator_norm(sp2, form), 1) == 0
    sp1 = AtomicSpace.lp(3, 1)
    assert compare(wce_operator_norm(sp1, form), 1) == 0
    doubled = WceForm(form.space, form.blocks, form.u, tuple(
        tuple(2 * x for x in p) for p in form.psi
    ))
    assert compare(wce_operator_norm(sp1, doubled), 2) == 0
    assert doubled.to_operator().rows != form.to_operator().rows


def test_wce_norm_agrees_with_operator_norm():
    for i in range(10):
        form = gen_random_wce(7100 + i, 2 + i % 6)
        T = form.to_operator()
        for p in (1, 2, "inf"):
            sp = AtomicSpace.lp(form.space.n, p)
            assert compare(wce_operator_norm(sp, form), operator_norm(sp, T)) == 0


_ENTRIES = st.sampled_from([Fraction(x) for x in (1, -1, 2, -3, "1/2", "-2/3", "5/4")])


@st.composite
def block_sums(draw, max_n=6):
    """(n, pairs): rank-one blocks u_j psi_j^T with pairwise disjoint u_j
    and pairwise disjoint psi_j, each psi_j free to leave supp u_j."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    u_label = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    psi_label = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    pairs = []
    for j in range(1, k + 1):
        if j not in u_label or j not in psi_label:
            continue
        u = tuple(draw(_ENTRIES) if lab == j else Fraction(0) for lab in u_label)
        psi = tuple(draw(_ENTRIES) if lab == j else Fraction(0) for lab in psi_label)
        pairs.append((u, psi))
    return n, pairs


def _block_sum(space, pairs) -> Operator:
    n = space.n
    return Operator(
        space,
        tuple(tuple(sum((u[i] * psi[j] for u, psi in pairs), Fraction(0)) for j in range(n)) for i in range(n)),
    )


@settings(max_examples=80, deadline=None)
@given(block_sums(), st.sampled_from([1, "inf"]), st.lists(st.sampled_from(["1", "2", "1/3"]), min_size=6, max_size=6))
def test_block_formula_equals_closed_formulas(case, p, weights):
    # the closed column (p = 1) and row (p = inf) formulas against the
    # blockwise max of products, including psi_j that escape supp u_j
    n, pairs = case
    sp = AtomicSpace.lp(n, p, weights[:n])
    T = _block_sum(sp, pairs)
    assert _column_blocks(T) is not None
    assert compare(block_sum_norm(sp, pairs), operator_norm(sp, T)) == 0


@settings(max_examples=40, deadline=None)
@given(block_sums(max_n=4))
def test_block_sum_norm_is_the_top_singular_value(case):
    # at p = 2 with unit weights the squared norm is the largest
    # eigenvalue of T^T T (sympy as the oracle)
    n, pairs = case
    sp = AtomicSpace.lp(n, 2)
    T = _block_sum(sp, pairs)
    nrm = operator_norm(sp, T)
    square = nrm.square if isinstance(nrm, SqrtValue) else nrm.value**2
    M = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in T.rows])
    top = max((M.T * M).eigenvals(), key=lambda e: float(e))
    assert sympy.Rational(square.numerator, square.denominator) == top


def test_block_sum_with_escaping_functional_has_exact_norm():
    sp = AtomicSpace.lp(3, 2)
    T = Operator.from_rows(sp, [[1, "1/2", 0], [0, 0, 0], [0, 0, 2]])
    assert not is_sbp(T)
    assert operator_norm(sp, T) == ExactValue(Fraction(2))


def test_column_blocks_refuse_non_block_sums():
    sp = AtomicSpace.lp(4, 2)
    assert _column_blocks(Operator.from_rows(sp, [[1, 1, 0, 0], [1, 2, 0, 0], [0] * 4, [0] * 4])) is None
    rows = [list(r) for r in make_averaging(sp, [SupportSet.of(1, 2), SupportSet.of(3, 4)]).rows]
    assert _column_blocks(Operator.from_rows(sp, rows)) is not None
    rows[0][2] = 1  # column 3 now meets block {1, 2} as well as {3, 4}
    assert _column_blocks(Operator.from_rows(sp, rows)) is None


def test_probe_p1_contains_escape_projection():
    findings = probe_norm_one_projections(1, [2], budget=400)
    assert findings
    assert any(f.operator.rows == escape_projection().rows for f in findings)
    assert all(verify_probe_finding(f) for f in findings)


def test_probe_p2_rank_one_grid_is_empty():
    assert probe_norm_one_projections(2, [2, 3], budget=400) == []


def test_verify_probe_finding_rejects_undecidable_norm():
    # the two block norms of this averaging projection at p = 3/2 have
    # overlapping enclosures, so its norm is a certified interval around 1
    # and its norm-one check is not decidable: the finding is rejected
    # instead of the error escaping
    sp = AtomicSpace.lp(4, Fraction(3, 2))
    T = make_averaging(sp, [SupportSet.of(1, 2), SupportSet.of(3, 4)])
    nrm = operator_norm(sp, T)
    assert isinstance(nrm, IntervalValue)
    assert nrm.lo <= 1 <= nrm.hi
    with pytest.raises(IndeterminateComparisonError):
        compare(nrm, 1)
    assert verify_probe_finding(ProbeFinding(sp, T, exact(1), None)) is False


def test_probe_rejects_sup_norm():
    with pytest.raises(ValidationError):
        probe_norm_one_projections("inf", [2], budget=10)


def test_probe_general_p_small_grid_empty():
    # for 1 < p < inf the dual norm is strictly convex, so escaping
    # functionals push the norm product above 1
    assert probe_norm_one_projections(Fraction(5, 2), [2], budget=200) == []


def test_norm_one_escape_impossible_on_sup_norm_grid():
    # on the two-atom sup-norm space, ||psi||_dual = |a| + |b| and the unit
    # pairing force b = 0: no norm-one escaping rank-one projection exists
    sp = AtomicSpace.lp(2, "inf")
    grid = [Fraction(n, 4) for n in range(-8, 9)]
    for b in grid:
        if b == 0:
            continue
        psi = vec(1, b)
        nrm = multiply(norm_value(sp, psi, "dual"), norm_value(sp, vec(1, 0), "primal"))
        assert compare(nrm, 1) > 0
