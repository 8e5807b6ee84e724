import random
from fractions import Fraction

import pytest

from semiband import (
    AtomicSpace,
    Operator,
    SupportSet,
    apply,
    enumerate_sigma,
    is_band_preserving,
    is_beta,
    is_disjointness_preserving,
    is_projection,
    is_sbp,
    is_scp,
    make_averaging,
    minimal_supports,
    operator_norm,
    realize_support,
    replay_witness,
    support,
    vec,
    verify_sigma_closures,
)
from semiband.errors import UnachievableSupportError
from semiband.generators import gen_random_operator
from semiband.oracles import (
    beta_bruteforce,
    sampled_implication_check,
    sbp_scp_exhaustive,
    sigma_realization_check,
    small_matrix_family,
)
from semiband.values import ExactValue, SqrtValue, compare


def avg_m():
    return make_averaging(3, [SupportSet.of(1, 2), SupportSet.of(3)])


def q_op():
    from semiband import escape_projection

    return escape_projection()


def op(rows, p=2, weights=None):
    n = len(rows)
    return Operator(AtomicSpace.lp(n, p, weights), tuple(tuple(Fraction(x) for x in r) for r in rows))


def test_apply_examples():
    M = avg_m()
    assert apply(M, vec(1, 3, 5)) == vec(2, 2, 5)
    assert apply(M, vec(0, 0, 0)) == vec(0, 0, 0)
    I2 = Operator.identity(AtomicSpace.lp(2, 2))
    assert apply(I2, vec(7, -1)) == vec(7, -1)


def test_is_projection():
    assert is_projection(avg_m())
    assert is_projection(q_op())
    two_i = op([[2, 0], [0, 2]])
    assert not is_projection(two_i)


def test_enumerate_sigma_matches_sampling_oracle():
    M = avg_m()
    sigma = enumerate_sigma(M)
    got = {tuple(sorted(s.atoms)) for s in sigma.supports}
    assert got == {(), (1, 2), (3,), (1, 2, 3)}
    ok, msg = sigma_realization_check(M, samples_per_pattern=4)
    assert ok, msg


def test_sigma_trivial_cases():
    z = Operator.zero(AtomicSpace.lp(3, 2))
    assert {s.mask for s in enumerate_sigma(z).supports} == {0}
    i2 = Operator.identity(AtomicSpace.lp(2, 2))
    assert len(enumerate_sigma(i2).supports) == 4


def test_sigma_oracle_on_random_operators():
    for i in range(12):
        T = gen_random_operator(900 + i, 2 + i % 5, [0.3, 0.6, 1.0][i % 3])
        ok, msg = sigma_realization_check(T, samples_per_pattern=3, seed=i)
        assert ok, msg


def literal_sigma(T):
    """Independent oracle: per-candidate feasibility, straight from the
    definition.  S is achievable iff the subspace of range elements
    vanishing off S has, for every atom of S, some member nonzero there."""
    from semiband.oracles import nullspace

    n = T.n
    cols = [T.column(j) for j in range(1, n + 1)]
    s_t = 0
    for c in cols:
        for i in range(n):
            if c[i] != 0:
                s_t |= 1 << i
    bits = [i for i in range(n) if s_t >> i & 1]
    achievable = set()
    for k in range(1 << len(bits)):
        s_mask = 0
        for t, b in enumerate(bits):
            if k >> t & 1:
                s_mask |= 1 << b
        rows = [tuple(cols[j][i] for j in range(n)) for i in range(n) if not s_mask >> i & 1]
        coeffs = nullspace(rows, n) if rows else [
            tuple(Fraction(1 if a == b else 0) for a in range(n)) for b in range(n)
        ]
        members = [apply(T, c) for c in coeffs]
        if all(any(v[i] != 0 for v in members) for i in range(T.n) if s_mask >> i & 1):
            achievable.add(s_mask)
    return achievable


def test_sigma_agrees_with_literal_feasibility():
    cases = [avg_m(), q_op(), op([[1, 0], [1, 0]]), op([[1, 0, 0], [1, 1, 0], [0, 1, 0]])]
    for i in range(25):
        cases.append(gen_random_operator(4400 + i, 2 + i % 5, [0.25, 0.5, 0.9][i % 3]))
    for T in cases:
        assert set(enumerate_sigma(T).masks) == literal_sigma(T), T.rows


def test_realize_support():
    M = avg_m()
    g = realize_support(M, SupportSet.of(1, 2, 3))
    assert support(apply(M, g)) == SupportSet.of(1, 2, 3)
    g3 = realize_support(M, SupportSet.of(3))
    assert support(apply(M, g3)) == SupportSet.of(3)
    with pytest.raises(UnachievableSupportError):
        realize_support(M, SupportSet.of(1))


def test_minimal_supports():
    assert minimal_supports(enumerate_sigma(avg_m())) == (
        SupportSet.of(1, 2),
        SupportSet.of(3),
    )
    z = Operator.zero(AtomicSpace.lp(2, 2))
    assert minimal_supports(enumerate_sigma(z)) == ()
    i2 = Operator.identity(AtomicSpace.lp(2, 2))
    assert minimal_supports(enumerate_sigma(i2)) == (SupportSet.of(1), SupportSet.of(2))


def test_band_preserving():
    d = Operator.diagonal(AtomicSpace.lp(3, 2), [2, -1, 0])
    assert is_band_preserving(d).holds
    res = is_band_preserving(avg_m())
    assert not res.holds
    assert replay_witness(avg_m(), res.witness)
    assert is_band_preserving(Operator.zero(AtomicSpace.lp(2, 2))).holds


def test_disjointness_preserving():
    perm = op([[0, 1], [1, 0]])
    assert is_disjointness_preserving(perm).holds
    res = is_disjointness_preserving(avg_m())
    assert not res.holds
    assert replay_witness(avg_m(), res.witness)
    assert is_disjointness_preserving(op([[1, 0], [0, 0]])).holds


def test_beta():
    d = Operator.diagonal(AtomicSpace.lp(3, 2), [1, 2, 3])
    assert is_beta(d).holds
    res = is_beta(avg_m())
    assert not res.holds
    assert res.witness.g == vec(1, -1, 0)
    assert replay_witness(avg_m(), res.witness)
    assert is_beta(Operator.zero(AtomicSpace.lp(2, 2))).holds


def test_beta_agrees_with_bruteforce():
    rng = random.Random(5)
    for i in range(60):
        n = rng.choice([2, 3])
        T = gen_random_operator(7000 + i, n, rng.choice([0.3, 0.6, 1.0]))
        assert is_beta(T).holds == beta_bruteforce(T), T.rows


def test_sbp_examples():
    assert is_sbp(avg_m()).holds
    res = is_sbp(q_op())
    assert not res.holds
    assert res.witness.f == vec(0, 1) and res.witness.g == vec(1, 0)
    assert replay_witness(q_op(), res.witness)
    d = Operator.diagonal(AtomicSpace.lp(3, 2), [5, 0, -2])
    assert is_sbp(d).holds


def test_scp_examples():
    assert is_scp(q_op()).holds
    assert is_scp(avg_m()).holds
    T = op([[1, 0], [1, 0]])
    sigma = enumerate_sigma(T)
    assert {s.mask for s in sigma.supports} == {0, 0b11}
    assert is_scp(T).holds


def test_sbp_scp_against_symbolic_oracle_family():
    space2 = AtomicSpace.lp(2, 2)
    for rows in small_matrix_family(2, 4):
        T = Operator(space2, rows)
        o_sbp, o_scp = sbp_scp_exhaustive(T)
        assert is_sbp(T).holds == o_sbp, rows
        assert is_scp(T).holds == o_scp, rows


def test_sampled_oracle_confirms_violations():
    # a known violator: the sampled oracle should find pairs for Q
    hit = sampled_implication_check(q_op(), "sbp", 2000, seed=3)
    assert hit is not None
    # and must stay silent on the averaging projection
    assert sampled_implication_check(avg_m(), "sbp", 2000, seed=3) is None
    assert sampled_implication_check(avg_m(), "scp", 2000, seed=3) is None


def test_witnesses_replay_for_all_failed_predicates():
    rng = random.Random(11)
    checks = (is_band_preserving, is_disjointness_preserving, is_beta, is_sbp, is_scp)
    for i in range(40):
        T = gen_random_operator(3100 + i, 2 + i % 4, rng.choice([0.4, 0.8]))
        for fn in checks:
            res = fn(T)
            if not res.holds:
                assert replay_witness(T, res.witness), (fn.__name__, T.rows)


def test_sigma_closures():
    M = avg_m()
    rep = verify_sigma_closures(M, enumerate_sigma(M))
    assert rep.union and rep.intersection and rep.complement
    Q = q_op()
    repq = verify_sigma_closures(Q, enumerate_sigma(Q))
    assert repq.union
    i2 = Operator.identity(AtomicSpace.lp(2, 2))
    assert verify_sigma_closures(i2, enumerate_sigma(i2)).all_hold()


def test_sigma_closure_violation_reported():
    # range span{(1,1,0),(0,1,1)}: intersections of distinct pairs escape
    T = op([[1, 0, 0], [1, 1, 0], [0, 1, 0]])
    sigma = enumerate_sigma(T)
    rep = verify_sigma_closures(T, sigma)
    assert rep.union
    assert not rep.intersection and not rep.complement
    assert rep.witness is not None
    assert not is_sbp(T).holds  # closure laws only promised under SBP


def test_zero_operator_conventions():
    z = Operator.zero(AtomicSpace.lp(3, 2))
    assert is_band_preserving(z).holds
    assert is_disjointness_preserving(z).holds
    assert is_beta(z).holds
    assert is_sbp(z).holds
    assert is_scp(z).holds
    assert {s.mask for s in enumerate_sigma(z).supports} == {0}


def test_operator_norm_formulas():
    Q = q_op()
    assert operator_norm(AtomicSpace.lp(2, 1), Q) == ExactValue(Fraction(1))
    M = avg_m()
    assert operator_norm(AtomicSpace.lp(3, "inf"), M) == ExactValue(Fraction(1))
    assert compare(operator_norm(AtomicSpace.lp(3, 2), M), 1) == 0


def test_operator_norm_rank_one_by_squares():
    # T = u psi^T with u = (1,1), psi = (1,2) on the unweighted 2-norm:
    # norm^2 = (1+4)*(1+1) = 10
    T = op([[1, 2], [1, 2]])
    got = operator_norm(AtomicSpace.lp(2, 2), T)
    assert got == SqrtValue(Fraction(10))


def test_operator_norm_weighted_columns_rows():
    T = op([[1, "1/2"], [0, "1/3"]])
    sp1 = AtomicSpace.lp(2, 1, weights=[2, 3])
    # columns: (2*1)/2 = 1 and (2*1/2 + 3*1/3)/3 = 2/3
    assert operator_norm(sp1, T) == ExactValue(Fraction(1))
    spi = AtomicSpace.lp(2, "inf", weights=[2, 3])
    # rows: 2*(1/2 + (1/2)/3) = 4/3 and 3*((1/3)/3) = 1/3
    assert operator_norm(spi, T) == ExactValue(Fraction(4, 3))


def test_operator_norm_general_interval_bounds():
    T = op([[1, 1], [0, 1]])
    got = operator_norm(AtomicSpace.lp(2, 2), T)
    lo, hi = got.enclosure()
    # golden-ratio norm: ||T||^2 = (3 + sqrt(5))/2, about 1.618^2
    assert lo <= Fraction(1618, 1000) + Fraction(1, 100)
    assert hi >= Fraction(1618, 1000)
    assert lo >= 1
    assert hi <= 3


def test_budget_guard():
    from semiband.errors import BudgetExceededError

    n = 22
    rows = [[Fraction(1)] * n for _ in range(n)]
    rows = [[rows[i][j] if (i + j) % 2 else Fraction(1, 2) for j in range(n)] for i in range(n)]
    # rank-deficient so the fast path cannot apply
    rows[0] = [Fraction(1)] * n
    rows[1] = [Fraction(1)] * n
    T = Operator(AtomicSpace.lp(n, 2), tuple(tuple(r) for r in rows))
    with pytest.raises(BudgetExceededError):
        enumerate_sigma(T)
