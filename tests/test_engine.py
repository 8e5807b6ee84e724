"""The integer support engine and its fast paths: golden report bytes, the
closure and minimal-support shortcuts and the SBP/SCP scan against their
literal definitions, the row-class SBP/SCP verdicts and the avoiding masks
against the scan over all of Σ, SBP against its matrix form and the WCE
blocks against the minimal supports, realizers over large coprime
denominators and against the enumerated supports, witness replay, the
shared enumeration budget and the decisions it does not guard, engine
state built once per operator, atomic semi laws that eliminate nothing,
and oracles that stay independent of the engine."""

import ast
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiband import (
    AtomicSpace,
    Operator,
    SupportSet,
    apply,
    decompose_wce,
    enumerate_sigma,
    is_sbp,
    make_averaging,
    minimal_supports,
    realize_support,
    replay_witness,
    verify_sigma_closures,
)
import semiband
from semiband import BudgetExceededError, linalg
from semiband.atomic import support_mask
from semiband.cli import main
from semiband.errors import UnachievableSupportError
from semiband.generators import gen_random_operator, gen_random_wce
from semiband.interval import (
    FiniteRankOp,
    PiecewisePoly,
    frop_is_sbp,
    frop_is_scp,
    frop_range_supports,
    make_sbp_not_scp_operator,
    replay_frop_witness,
)
from semiband.operators import Witness, _column_space, is_scp, operator_norm
from semiband.oracles import sbp_scp_exhaustive
from semiband.serialize import build_analysis_report, build_interval_report, parse_frop, parse_operator
from semiband.values import IntervalValue

GOLDEN = Path(__file__).resolve().parent / "golden"
ANALYZE = ["averaging3", "escape_projection", "lowrank8", "wce8", "perturbed8", "wce8_p32"]
INTERVAL = ["half_interval_pair", "full_support_projection", "leak8", "dense8"]


@pytest.mark.parametrize(
    "cmd,name", [("analyze", n) for n in ANALYZE] + [("interval", n) for n in INTERVAL]
)
def test_golden_report_bytes(cmd, name, tmp_path):
    out = tmp_path / "report.json"
    assert main([cmd, "--input", str(GOLDEN / f"{name}.json"), "--report", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.report.json").read_bytes()


# -- random operators, n <= 8 ---------------------------------------------------

SMALL = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7]))
# large pairwise coprime denominators, so every row needs gcd reduction
PRIMES = [10007, 65537, 999983, 2147483647]
LARGE = st.builds(Fraction, st.integers(-(10**6), 10**6), st.sampled_from(PRIMES))


def _low_rank(draw, n, entry):
    """A product of n x r and r x n factors over zero-heavy entries."""
    maybe_zero = st.one_of(st.just(Fraction(0)), entry)
    r = draw(st.integers(1, min(n, 4)))
    U = draw(st.lists(st.lists(maybe_zero, min_size=r, max_size=r), min_size=n, max_size=n))
    V = draw(st.lists(st.lists(maybe_zero, min_size=n, max_size=n), min_size=r, max_size=r))
    return [[sum(U[i][k] * V[k][j] for k in range(r)) for j in range(n)] for i in range(n)]


def _full_rank(draw, n, entry):
    """L U, with L unit lower triangular and U upper triangular with a
    nonzero diagonal."""
    L = [[draw(entry) if j < i else Fraction(i == j) for j in range(n)] for i in range(n)]
    U = [
        [draw(entry) if j > i else draw(entry.filter(bool)) if j == i else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    return [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@st.composite
def direct_sums(draw, entry=SMALL, max_n=8):
    """A block-diagonal operator of 2-3 low-rank or full-rank parts with its
    atoms relabeled, and each part with the atoms (0-based) it went to."""
    k = draw(st.integers(2, 3))
    sizes = [draw(st.integers(1, max_n // k)) for _ in range(k)]
    n = sum(sizes)
    where = draw(st.permutations(range(n)))
    rows = [[Fraction(0)] * n for _ in range(n)]
    parts = []
    for m in sizes:
        block = draw(st.sampled_from([_low_rank, _full_rank]))(draw, m, entry)
        at, where = where[:m], where[m:]
        for i in range(m):
            for j in range(m):
                rows[at[i]][at[j]] = block[i][j]
        parts.append((Operator.from_rows(AtomicSpace.lp(m, 2), block), at))
    return Operator.from_rows(AtomicSpace.lp(n, 2), rows), parts


@st.composite
def operators(draw, entry=SMALL, max_n=8):
    """Low-rank products over zero-heavy factors, WCE forms, WCE forms with
    one off-block entry, and direct sums of low-rank and full-rank parts."""
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from(["low-rank", "wce", "perturbed", "direct-sum"]))
    maybe_zero = st.one_of(st.just(Fraction(0)), entry)
    if kind == "direct-sum":
        return draw(direct_sums(entry, max_n))[0]
    if kind == "low-rank":
        rows = _low_rank(draw, n, entry)
    else:
        # block of each atom, -1 for atoms outside every block
        label = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        rows = [[Fraction(0)] * n for _ in range(n)]
        for b in set(label) - {-1}:
            atoms = [i for i in range(n) if label[i] == b]
            u = draw(st.lists(entry.filter(bool), min_size=len(atoms), max_size=len(atoms)))
            psi = draw(st.lists(maybe_zero, min_size=len(atoms), max_size=len(atoms)))
            for i, ui in zip(atoms, u):
                for j, pj in zip(atoms, psi):
                    rows[i][j] = ui * pj
        off = [(i, j) for i in range(n) for j in range(n) if label[i] == -1 or label[i] != label[j]]
        if kind == "perturbed" and off:
            i, j = draw(st.sampled_from(off))
            rows[i][j] = draw(entry.filter(bool))
    return Operator.from_rows(AtomicSpace.lp(n, 2), rows)


def quadratic_closures(sigma) -> tuple[bool, bool, bool]:
    """Union and intersection over every pair, relative complement over
    every nested pair."""
    masks = sorted(sigma.masks)
    upper = [(a, b) for i, a in enumerate(masks) for b in masks[i:]]
    union = all(a | b in sigma.masks for a, b in upper)
    inter = all(a & b in sigma.masks for a, b in upper)
    compl = all(b & ~a in sigma.masks for a in masks for b in masks if a & b == a)
    return union, inter, compl


@settings(max_examples=80)
@given(operators())
def test_closures_equal_quadratic_scan(T):
    sigma = enumerate_sigma(T)
    rep = verify_sigma_closures(T, sigma)
    assert (rep.union, rep.intersection, rep.complement) == quadratic_closures(sigma)
    assert (rep.witness is None) == rep.all_hold()
    if rep.witness is not None:
        # two overlapping minimal supports
        a, b = (support_mask(apply(T, v)) for v in (rep.witness.f, rep.witness.g))
        assert a & b and {a, b} <= set(sigma.minimal)
        assert replay_witness(T, rep.witness)


@settings(max_examples=80)
@given(operators())
def test_minimal_supports_literal(T):
    sigma = enumerate_sigma(T)
    nonempty = [m for m in sigma.masks if m]
    literal = [m for m in nonempty if not any(o != m and o & m == o for o in nonempty)]
    literal.sort(key=lambda m: (min(SupportSet.from_mask(m).atoms), m))
    assert minimal_supports(sigma) == tuple(SupportSet.from_mask(m) for m in literal)


def _moved(mask: int, at) -> int:
    """A part's mask on the atoms the part went to."""
    return sum(1 << at[i] for i in range(len(at)) if mask >> i & 1)


@settings(max_examples=80)
@given(direct_sums())
def test_sigma_of_a_direct_sum_is_made_of_its_parts(case):
    T, parts = case
    sigma = enumerate_sigma(T)
    tables = [[_moved(m, at) for m in enumerate_sigma(P).masks] for P, at in parts]
    assert sigma.masks == {sum(pick) for pick in itertools.product(*tables)}
    assert set(sigma.minimal) == {_moved(m, at) for P, at in parts for m in enumerate_sigma(P).minimal}
    for m in sigma.masks:
        g = realize_support(T, SupportSet.from_mask(m))
        assert support_mask(apply(T, g)) == m
    # each nonzero part spans one block group or more of its own
    groups = linalg.block_groups(_column_space(T))
    assert len(groups) >= sum(1 for P, _ in parts if any(map(any, P.rows)))


@st.composite
def sparse_operators(draw):
    """Matrices on 1-6 atoms whose entries are mostly zero."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, Fraction(1, 2), 3])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return Operator.from_rows(AtomicSpace.lp(n, 2), rows)


def structural_sbp(T) -> bool:
    """The paper's theorem as a matrix form: the nonzero columns have
    pairwise equal or disjoint supports, columns with equal supports are
    parallel, and each nonzero column i has T[i,i] != 0."""
    cols = [(i, c, support_mask(c)) for i, c in enumerate(zip(*T.rows)) if any(c)]
    for i, c, m in cols:
        if c[i] == 0:
            return False
        for _, d, k in cols:
            if m & k and (m != k or any(x * d[i] != y * c[i] for x, y in zip(c, d))):
                return False
    return True


@settings(max_examples=150)
@given(st.one_of(operators(), sparse_operators()))
def test_sbp_is_the_matrix_form_of_a_wce(T):
    sbp = is_sbp(T).holds
    assert structural_sbp(T) == sbp
    if T.n <= 4:
        assert sbp_scp_exhaustive(T)[0] == sbp
    if sbp:
        # the supports enumerated the long way are the reference for the
        # blocks read off the columns
        assert decompose_wce(T).blocks == minimal_supports(enumerate_sigma(T))


@settings(max_examples=40)
@given(operators(entry=LARGE))
def test_realizers_over_large_denominators(T):
    for m in enumerate_sigma(T).masks:
        g = realize_support(T, SupportSet.from_mask(m))
        assert support_mask(apply(T, g)) == m


@settings(max_examples=80)
@given(st.one_of(operators(max_n=6), sparse_operators()))
def test_realizer_decides_achievability_as_sigma_does(T):
    masks = enumerate_sigma(T).masks
    for m in range(1 << T.n):
        try:
            g = realize_support(T, SupportSet.from_mask(m))
        except UnachievableSupportError:
            assert m not in masks
        else:
            assert m in masks
            assert support_mask(apply(T, g)) == m


def test_item_and_elimination_stay_in_lowest_terms():
    blocks = linalg.Blocks.atoms(3)
    a = linalg.item((Fraction(-1, 10007), Fraction(2, 65537), 0), (1,), blocks)
    assert a.den == 10007 * 65537 and a.vec == (-65537, 2 * 10007, 0) and a.mask == 0b011
    b = linalg.item((Fraction(3, 65537), 0, Fraction(5, 7)), (0,), blocks)
    (c,) = linalg.constrain([a, b], 0b001, blocks)
    # b - (b[0] / a[0]) a, as fractions; the negative pivot entry makes the
    # cross-multiplied denominator negative before normalisation
    r = Fraction(3, 65537) / Fraction(-1, 10007)
    want = [Fraction(x, b.den) - r * Fraction(y, a.den) for x, y in zip(b.vec + b.pre, a.vec + a.pre)]
    assert linalg.fractions(c.vec + c.pre, c.den) == tuple(want)
    assert c.den > 0 and math.gcd(*c.vec, *c.pre, c.den) == 1


def test_forged_closure_witness_does_not_replay():
    M = make_averaging(3, [SupportSet.of(1, 2), SupportSet.of(3)])
    f12 = realize_support(M, SupportSet.of(1, 2))
    g3 = realize_support(M, SupportSet.of(3))
    g123 = realize_support(M, SupportSet.of(1, 2, 3))
    # both supports are tabulated and every law holds for the pair
    for f, g in ((f12, g3), (f12, g123), (g3, g123)):
        assert not replay_witness(M, Witness("closure-violation", f, g, "forged"))


def test_closure_witness_replays_golden():
    T = parse_operator(json.loads((GOLDEN / "lowrank8.json").read_text()))
    rep = verify_sigma_closures(T, enumerate_sigma(T))
    assert not rep.intersection and rep.witness is not None
    assert replay_witness(T, rep.witness)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(linalg, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(linalg, name, counted)
    return calls


def test_engine_state_built_once_per_operator(monkeypatch):
    ech = _counting(monkeypatch, "echelonize")
    masks = _counting(monkeypatch, "support_masks")
    rows = [[1, 0, 2, 0], [0, 1, 0, 0], [1, 1, 2, 0], [0, 0, 0, 3]]
    for space in (AtomicSpace.lp(4, 2), AtomicSpace.lp(4, Fraction(3, 2))):
        T = Operator.from_rows(space, rows)
        build_analysis_report(T)
        build_analysis_report(T)
        assert (len(ech), len(masks)) == (1, 1)
        ech.clear()
        masks.clear()
    build_interval_report(make_sbp_not_scp_operator())
    assert (len(ech), len(masks)) == (1, 1)
    # once SBP is decided, the WCE form is read off the columns: no
    # constrained span and no generic combination
    T = Operator.from_rows(AtomicSpace.lp(4, 2), [[1, 2, 0, 0], [3, 6, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5]])
    assert is_sbp(T)
    constrain = _counting(monkeypatch, "constrain")
    combine = _counting(monkeypatch, "combine_generic")
    assert decompose_wce(T).blocks == (SupportSet.of(1, 2), SupportSet.of(4))
    assert (constrain, combine) == ([], [])


# -- the one SBP/SCP scan ---------------------------------------------------------

BLOCK_BITS = st.sampled_from([1 << i for i in range(6)])


@settings(max_examples=200)
@given(
    masks=st.frozensets(st.integers(0, 63), max_size=12),
    sources=st.lists(st.tuples(BLOCK_BITS, st.integers(0, 63)), max_size=8),
    inside=st.booleans(),
)
def test_first_violation_is_the_literal_law(masks, sources, inside):
    # a source (supp f, supp Tf) against S = supp Tg.  Semi band: f disjoint
    # from Tg forces Tf disjoint from Tg.  Semi containment: f in the band
    # of Tg forces Tf in it.
    def breaks(s, f, tf):
        if inside:
            return f & s == f and tf & s != tf
        return f & s == 0 and tf & s != 0

    hits = [(s, k) for s in sorted(masks) for k, (f, tf) in enumerate(sources) if breaks(s, f, tf)]
    assert linalg.first_violation(masks, sources, inside) == (hits[0] if hits else None)


def _sigma_scan(T, inside):
    """The semi law scanned over every support of the range: the reference
    the row-class verdicts of ``is_sbp`` and ``is_scp`` are checked
    against, with the atoms as sources."""
    sources = [(1 << j, support_mask(c)) for j, c in enumerate(zip(*T.rows))]
    return linalg.first_violation(enumerate_sigma(T).masks, sources, inside)


@settings(max_examples=150)
@given(st.one_of(operators(), sparse_operators()))
def test_avoiding_masks_decide_as_the_sigma_scan(T):
    sigma = enumerate_sigma(T)
    assert linalg.avoiding_masks(_column_space(T), linalg.Blocks.atoms(T.n)) <= sigma.masks
    for check, inside in ((is_sbp, False), (is_scp, True)):
        res = check(T)
        assert res.holds == (_sigma_scan(T, inside) is None)
        if not res.holds:
            assert replay_witness(T, res.witness)
            # f is a unit vector e_b, g has at most two nonzero coordinates
            assert sorted(res.witness.f) == [0] * (T.n - 1) + [1]
            assert sum(map(bool, res.witness.g)) <= 2


# -- one enumeration budget for both models ----------------------------------------


def _stairs_frop(pieces: int) -> dict:
    """A rank-one interval operator file whose image is live on every piece."""
    def pw(coeffs):
        return {
            "pieces": [
                {"from": str(Fraction(i, pieces)), "to": str(Fraction(i + 1, pieces)), "coeffs": [str(c)]}
                for i, c in enumerate(coeffs)
            ]
        }

    return {"schema": 1, "terms": [{"kernel": pw([1] * pieces), "image": pw(range(1, pieces + 1))}]}


@pytest.mark.parametrize("pieces,code", [(20, 0), (21, 3)])
def test_interval_budget_counts_live_pieces(pieces, code, tmp_path):
    f = tmp_path / "stairs.json"
    f.write_text(json.dumps(_stairs_frop(pieces)))
    assert main(["interval", "--input", str(f), "--report", str(tmp_path / "r.json")]) == code


def test_atomic_budget_counts_live_atoms():
    n = 21
    live = [[Fraction(1) if j == 0 and i < 20 else Fraction(0) for j in range(n)] for i in range(n)]
    assert len(enumerate_sigma(Operator.from_rows(AtomicSpace.lp(n, 2), live))) == 2
    live[20][0] = Fraction(1)
    with pytest.raises(BudgetExceededError):
        enumerate_sigma(Operator.from_rows(AtomicSpace.lp(n, 2), live))


# -- the oracles check the engine, so they must not use it --------------------------


def test_oracles_do_not_import_the_engine():
    src = Path(__file__).resolve().parent.parent / "src" / "semiband" / "oracles.py"
    engine = []
    for node in ast.walk(ast.parse(src.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("semiband")]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("semiband")):
            names = [node.module or ""] + [a.name for a in node.names]
        else:
            continue
        engine += [name for name in names if "linalg" in name.split(".")]
    assert not engine


# -- decisions above the budget: only listings enumerate --------------------------


def test_wce_form_above_the_budget_decomposes():
    form = gen_random_wce(7, 24)
    T = form.to_operator()
    with pytest.raises(BudgetExceededError):
        enumerate_sigma(T)
    assert decompose_wce(T) == form
    assert is_sbp(T) and is_scp(T)


def test_norm_above_the_budget_is_a_bracket():
    T = gen_random_operator(3, 24, 1.0)
    with pytest.raises(BudgetExceededError):
        enumerate_sigma(T)
    assert isinstance(operator_norm(T.space, T), IntervalValue)
    for check in (is_sbp, is_scp):
        res = check(T)
        assert not res.holds and replay_witness(T, res.witness)


def _leaky_stairs(pieces: int) -> FiniteRankOp:
    """The stairs operator plus a term that carries the first piece's mass
    to the last piece: supports {last} and all but last break both laws."""
    T = parse_frop(_stairs_frop(pieces))
    last = Fraction(pieces - 1, pieces)
    leak = (PiecewisePoly.indicator(0, Fraction(1, pieces)), PiecewisePoly.indicator(last, 1))
    return FiniteRankOp(T.terms + (leak,))


@pytest.mark.parametrize("leak", [False, True])
def test_interval_laws_above_the_budget_decide(leak):
    T = _leaky_stairs(21) if leak else parse_frop(_stairs_frop(21))
    with pytest.raises(BudgetExceededError):
        frop_range_supports(T)
    for check in (frop_is_sbp, frop_is_scp):
        res = check(T)
        assert res.holds != leak
        if leak:
            assert replay_frop_witness(T, res.witness)


def test_norm_neither_eliminates_nor_decides_sbp(monkeypatch):
    ech = _counting(monkeypatch, "echelonize")
    sbp = []
    for module in (semiband.operators, semiband.wce):
        real = module.is_sbp
        monkeypatch.setattr(module, "is_sbp", lambda T, real=real: sbp.append(1) or real(T))
    dense = gen_random_operator(5, 4, 1.0).rows
    rank_one = [[1, 2, 0, 3], [2, 4, 0, 6], [0] * 4, [3, 6, 0, 9]]
    wce_form = [[1, 2, 0, 0], [3, 6, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5]]
    block_sum = [[1, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5], [0, 0, 0, 1]]
    for p in (2, Fraction(3, 2)):
        space = AtomicSpace.lp(4, p)
        for rows in (dense, rank_one, wce_form, block_sum):
            operator_norm(space, Operator.from_rows(space, rows))
    assert ech == [] and sbp == []


def test_atomic_semi_laws_eliminate_nothing(monkeypatch):
    engine = [_counting(monkeypatch, name) for name in ("echelonize", "constrain", "realize", "combine_generic")]
    dense = gen_random_operator(5, 4, 1.0).rows
    scp_not_sbp = [[1, Fraction(1, 2), 0, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
    wce_form = [[1, 2, 0, 0], [3, 6, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5]]
    zero_row = [[1, 2, 0, 1], [0, 0, 0, 0], [1, 3, 1, 0], [2, 4, 0, 2]]
    verdicts = []
    for rows in (dense, scp_not_sbp, wce_form, zero_row, [[0] * 4] * 4):
        T = Operator.from_rows(AtomicSpace.lp(4, 2), rows)
        sbp, scp = is_sbp(T), is_scp(T)
        verdicts.append((sbp.holds, scp.holds))
        for res in (sbp, scp):
            assert res.holds or replay_witness(T, res.witness)
    assert verdicts == [(False, False), (False, True), (True, True), (False, False), (True, True)]
    assert engine == [[]] * 4


def test_decisions_enumerate_no_supports(monkeypatch):
    masks = _counting(monkeypatch, "support_masks")
    space = AtomicSpace.lp(4, 2)
    # neither SBP nor rank one (a Frobenius bracket), then a WCE form
    not_sbp = [[1, 0, 2, 0], [0, 1, 0, 0], [1, 1, 2, 0], [0, 0, 0, 3]]
    wce = [[1, 2, 0, 0], [3, 6, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5]]
    for rows in (not_sbp, wce):
        T = Operator.from_rows(space, rows)
        is_sbp(T), is_scp(T), decompose_wce(T), operator_norm(space, T)
    for T in (make_sbp_not_scp_operator(), _leaky_stairs(4)):
        frop_is_sbp(T), frop_is_scp(T)
    assert masks == []
