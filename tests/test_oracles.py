"""The symbolic SBP/SCP oracle against the decision procedures, on the sparse
family and on operators over large prime denominators; its invariance
under scaling; replay of every stratum realizer; the sampled oracle past
the int64 range and its contract (determinism, silence on WCE forms,
antecedent and replay of every hit); the sparse family against a literal
Fraction canonicalization; and a package that needs only the standard
library."""

import ast
import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from semiband import AtomicSpace, Operator, Witness, apply, is_sbp, is_scp, replay_witness
from semiband.atomic import band_contains, is_disjoint, support_mask
from semiband.generators import gen_random_operator, gen_random_wce, random_partition
from semiband.oracles import (
    _image,
    _image_mask,
    _input_strata,
    _int_rows,
    _mask,
    _row_classes,
    sampled_implication_check,
    sbp_scp_exhaustive,
    small_matrix_family,
)
from semiband.wce import make_averaging

PRIMES = (65537, 2**31 - 1)


def _operator(rows) -> Operator:
    return Operator.from_rows(AtomicSpace.lp(len(rows), 2), rows)


def _family(max_n: int = 3) -> list[Operator]:
    budgets = {1: 1, 2: 4, 3: 3}
    return [_operator(rows) for n in range(1, max_n + 1) for rows in small_matrix_family(n, budgets[n])]


def _prime_operators(count: int = 200) -> list[Operator]:
    """Sparse, low-rank and block (WCE) operators on n = 3-5 atoms whose
    entries have denominators 65537 and 2^31 - 1."""
    rng = random.Random("oracle-primes")

    def entry() -> Fraction:
        return Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice(PRIMES))

    ops = []
    for i in range(count):
        n = 3 + i % 3
        kind = i % 4
        if kind == 0:  # sparse
            rows = [[entry() if rng.random() < 0.35 else 0 for _ in range(n)] for _ in range(n)]
        elif kind == 1:  # a product of n x r and r x n factors
            r = rng.randint(1, n - 1)
            A = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
            B = [[entry() if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(r)]
            rows = [[sum(A[a][k] * B[k][b] for k in range(r)) for b in range(n)] for a in range(n)]
        else:  # a WCE form, its columns rescaled, perturbed once when kind == 3
            form = gen_random_wce(i, n).to_operator()
            scale = [entry() for _ in range(n)]
            rows = [[x * abs(scale[b]) for b, x in enumerate(row)] for row in form.rows]
            if kind == 3:
                rows[rng.randrange(n)][rng.randrange(n)] += entry()
        ops.append(_operator(rows))
    return ops


def test_oracle_agrees_with_the_decisions_on_the_sparse_family():
    family = _family()
    assert len(family) == 606
    for T in family:
        assert sbp_scp_exhaustive(T) == (is_sbp(T).holds, is_scp(T).holds), T.rows


def test_oracle_agrees_with_the_decisions_over_large_prime_denominators():
    verdicts = []
    for T in _prime_operators():
        verdict = sbp_scp_exhaustive(T)
        assert verdict == (is_sbp(T).holds, is_scp(T).holds), T.rows
        verdicts.append(verdict)
    # every verdict pair that the theorem allows occurs, so no law is vacuous
    assert set(verdicts) == {(True, True), (False, True), (False, False)}


def test_oracle_verdict_is_invariant_under_scaling():
    scales = [Fraction(-1), Fraction(3), Fraction(1, 65537), Fraction(-(2**31 - 1), 7)]
    for T in _family(2) + _prime_operators(40):
        verdict = sbp_scp_exhaustive(T)
        for c in scales:
            scaled = _operator([[c * x for x in row] for row in T.rows])
            assert sbp_scp_exhaustive(scaled) == verdict, (c, T.rows)


def test_every_stratum_realizer_replays_to_its_key():
    for T in _family(2) + _prime_operators(60):
        strata = _input_strata(_int_rows(T))
        assert 0 in strata
        for key, pre in strata.items():
            assert all(isinstance(x, int) for x in pre)
            assert support_mask(apply(T, tuple(Fraction(x) for x in pre))) == key


def test_sampled_oracle_stays_exact_past_int64():
    # the lcm of the denominators, 65537 (2^31 - 1) 999983, is past 2^63
    p, q, r = Fraction(1, 65537), Fraction(1, 2**31 - 1), Fraction(1, 999983)
    kinds = {"sbp": "SBP-violation", "scp": "SCP-violation"}
    T = _operator([[p, q, 0], [0, r, 0], [0, 0, 1]])
    for which in kinds:
        sampled_implication_check(T, which, 10**4, 1)
    # columns 1 and 2 span the plane of atoms 1 and 2, and each meets the
    # other's atom: both laws fail, and the sampler confirms it
    T = _operator([[p, q, 0], [r, 0, 0], [0, 0, 1]])
    for which, kind in kinds.items():
        f, g = sampled_implication_check(T, which, 10**4, 1)
        assert replay_witness(T, Witness(kind, f, g, "sampled"))


def _literal_family(n, max_nnz, values=(Fraction(-1), Fraction(1, 2), Fraction(1))):
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for nnz in range(max_nnz + 1):
        for pos in itertools.combinations(range(n * n), nnz):
            for vals in itertools.product(values, repeat=nnz):
                flat = [Fraction(0)] * (n * n)
                for idx, v in zip(pos, vals):
                    flat[idx] = v
                canon = min(tuple(flat[p[i] * n + p[j]] for i in range(n) for j in range(n)) for p in perms)
                if canon not in seen:
                    seen.add(canon)
                    out.append(tuple(tuple(canon[i * n + j] for j in range(n)) for i in range(n)))
    return out


def test_sparse_family_matches_the_literal_fraction_canonicalization():
    for n, max_nnz in ((1, 1), (2, 4), (3, 3)):
        assert small_matrix_family(n, max_nnz) == _literal_family(n, max_nnz)
    assert small_matrix_family(2, 2, values=(Fraction(2), Fraction(-1, 3))) == _literal_family(
        2, 2, values=(Fraction(2), Fraction(-1, 3))
    )
    counts = [len(small_matrix_family(n, k)) for n, k in ((1, 1), (2, 4), (3, 3), (4, 3))]
    assert counts == [4, 136, 466, 789]


# -- the sampled oracle's contract ----------------------------------------------


def _violators() -> list[Operator]:
    ns, densities = range(2, 9), (0.4, 0.7, 1.0)
    ops = [gen_random_operator(5100 + i, ns[i % len(ns)], densities[i % 3]) for i in range(40)]
    return ops + _prime_operators(40)


def test_sampler_is_deterministic_per_seed():
    for T in _violators()[:20] + [gen_random_wce(3, 5).to_operator()]:
        for which in ("sbp", "scp"):
            first = sampled_implication_check(T, which, 500, 17)
            assert sampled_implication_check(T, which, 500, 17) == first


def test_image_mask_by_row_classes_is_the_mask_of_the_image():
    rng = random.Random("row-classes")
    for _ in range(300):
        n = rng.randint(1, 6)
        base = [[rng.choice([0, 0, 1, -2, 3]) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        # rows proportional to a few base rows (negative factors too), and zero rows
        rows = [[c * x for x in rng.choice(base)] for c in (rng.choice([0, 1, -1, 2, -3]) for _ in range(n))]
        classes = _row_classes(rows)
        assert len(classes) <= len(base)
        for _ in range(10):
            f = [rng.randint(-3, 3) for _ in range(n)]
            assert _image_mask(classes, f) == _mask(_image(rows, f))


def test_sampler_is_silent_on_wce_forms_and_averaging():
    ops = [gen_random_wce(i, 1 + i % 12).to_operator() for i in range(100)]
    rng = random.Random("sampler-averaging")
    ops += [make_averaging(n, random_partition(rng, n)) for n in range(1, 13)]
    for i, T in enumerate(ops):
        assert is_sbp(T).holds
        for which in ("sbp", "scp"):
            assert sampled_implication_check(T, which, 2000, i) is None, (which, T.rows)


def test_sampled_hits_satisfy_the_antecedent_and_replay():
    kinds = {"sbp": "SBP-violation", "scp": "SCP-violation"}
    hits = 0
    for i, T in enumerate(_violators()):
        for which, kind in kinds.items():
            hit = sampled_implication_check(T, which, 2000, i)
            if hit is None:
                continue
            hits += 1
            f, g = hit
            tg = apply(T, g)
            assert is_disjoint(f, tg) if which == "sbp" else band_contains(tg, f)
            assert replay_witness(T, Witness(kind, f, g, "sampled"))
    assert hits > 60


def test_sampler_rejects_an_unknown_law_before_drawing():
    T = gen_random_operator(1, 3, 1.0)
    for pairs in (0, 10):
        with pytest.raises(ValueError):
            sampled_implication_check(T, "bp", pairs, 1)


# -- the package needs only the standard library ---------------------------------

ROOT = Path(__file__).resolve().parent.parent


def test_no_module_imports_numpy():
    for path in sorted((ROOT / "src" / "semiband").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "numpy"], path.name
    # tomllib needs Python 3.11, and the package supports 3.10
    assert re.findall(r"^dependencies = .*$", (ROOT / "pyproject.toml").read_text(), re.M) == [
        "dependencies = []"
    ]


def test_sampler_runs_where_numpy_cannot_be_imported():
    # a None entry in sys.modules makes every import of numpy raise
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import semiband.selftest\n"
        "from semiband import AtomicSpace, Operator\n"
        "from semiband.oracles import sampled_implication_check\n"
        "T = Operator.from_rows(AtomicSpace.lp(2, 2), [[1, 1], [0, 1]])\n"
        "print(sampled_implication_check(T, 'sbp', 1000, 1) is not None)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert out.stdout == "True\n"
