"""Deterministic acceptance campaign.

Each criterion returns a single pass/fail line; the whole battery is pure
given the seed, so two runs produce byte-identical summaries.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable

from .atomic import AtomicSpace, support_mask
from .generators import gen_random_operator, gen_random_wce, perturb_off_block, random_partition
from .interval import (
    IntervalRegion,
    frop_is_sbp,
    frop_is_scp,
    frop_moments,
    frop_range_supports,
    integrate,
    make_full_support_projection,
    make_sbp_not_scp_operator,
    replay_frop_witness,
)
from .operators import (
    Operator,
    Witness,
    enumerate_sigma,
    is_projection,
    is_sbp,
    is_scp,
    operator_norm,
    replay_witness,
    verify_sigma_closures,
)
from .oracles import (
    sampled_implication_check,
    sbp_scp_exhaustive,
    small_matrix_family,
)
from .serialize import build_analysis_report, build_probe_report, dumps
from .values import compare
from .wce import (
    WceForm,
    decompose_wce,
    escape_projection,
    make_averaging,
    probe_norm_one_projections,
    verify_probe_finding,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    # wall time of the criterion; never part of the summary bytes
    seconds: float = field(default=0.0, compare=False)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.number:>2} {self.name}: {self.detail}"


def _forms(seed: int, count: int, ns: Iterable[int]) -> list[WceForm]:
    ns = list(ns)
    return [gen_random_wce(seed * 100000 + i, ns[i % len(ns)]) for i in range(count)]


def criterion_1_roundtrip(seed: int) -> tuple[CriterionResult, list[WceForm]]:
    forms = _forms(seed, 200, range(2, 13))

    def check(form: WceForm) -> str | None:
        T = form.to_operator()
        if not is_sbp(T):
            return "generated form is not semi band preserving"
        if not is_scp(T):
            return "generated form is not semi containment preserving"
        rec = decompose_wce(T)
        if not isinstance(rec, WceForm):
            return "decomposition returned a witness for a valid form"
        if rec != form:
            return "decomposition did not recover the canonical form"
        return None

    failures = [e for e in map(check, forms) if e]
    detail = f"{200 - len(failures)}/200 forms recovered exactly"
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CriterionResult(1, "wce-round-trip", not failures, detail), forms


def criterion_2_negative(seed: int, forms: list[WceForm]) -> CriterionResult:
    def check(item) -> str | None:
        i, form = item
        perturbed = perturb_off_block(seed * 100000 + i, form)
        if perturbed is None:
            return None  # one block covers every atom: nothing lies outside
        T, _pos = perturbed
        verdict = is_sbp(T)
        if verdict.holds:
            return None  # perturbation happened to keep the property
        rec = decompose_wce(T)
        if not isinstance(rec, Witness):
            return "non-SBP operator decomposed"
        if rec.kind != "SBP-violation":
            return f"unexpected witness kind {rec.kind}"
        if not replay_witness(T, rec):
            return "witness failed to replay"
        return "broken"  # counted, not a failure

    outcomes = [check(item) for item in enumerate(forms)]
    failures = [o for o in outcomes if o not in (None, "broken")]
    broken = sum(1 for o in outcomes if o == "broken")
    detail = f"{broken}/200 perturbations broke the property; all witnesses replayed"
    if failures:
        detail = f"failure: {failures[0]}"
    return CriterionResult(2, "sbp-negative-witnesses", not failures, detail)


def criterion_3_sbp_implies_scp(seed: int, forms: list[WceForm]) -> CriterionResult:
    ops = []
    densities = [0.15, 0.3, 0.5, 0.75, 1.0]
    ns = list(range(2, 9))
    for i in range(500):
        ops.append(
            gen_random_operator(seed * 100000 + i, ns[i % len(ns)], densities[i % len(densities)])
        )
    ops.extend(form.to_operator() for form in forms)

    def check(T: Operator) -> bool:
        return (not is_sbp(T).holds) or is_scp(T).holds

    oks = [check(T) for T in ops]
    bad = oks.count(False)
    return CriterionResult(
        3,
        "sbp-implies-scp",
        bad == 0,
        f"{len(ops) - bad}/{len(ops)} operators consistent",
    )


def criterion_4_sigma_laws(seed: int) -> CriterionResult:
    densities = [0.2, 0.4, 0.6, 0.8, 1.0]
    ns = list(range(2, 9))
    ops = [
        gen_random_operator(seed * 200000 + i, ns[i % len(ns)], densities[i % len(densities)])
        for i in range(300)
    ]

    def check(T: Operator) -> str | None:
        sigma = enumerate_sigma(T)
        rep = verify_sigma_closures(T, sigma)
        if not rep.union:
            return "union closure failed"
        if is_sbp(T).holds:
            if not rep.intersection:
                return "intersection closure failed for an SBP operator"
            if not rep.complement:
                return "complement closure failed for an SBP operator"
            for i in range(1, T.n + 1):
                if i not in sigma.s_t and support_mask(T.column(i)):
                    return "atom outside S_T has a nonzero image"
        return None

    failures = [e for e in map(check, ops) if e]
    detail = "300/300 operators satisfy the closure laws"
    if failures:
        detail = f"failure: {failures[0]}"
    return CriterionResult(4, "sigma-closure-laws", not failures, detail)


def criterion_5_oracle_agreement(seed: int) -> CriterionResult:
    family = []
    for n, max_nnz in ((1, 1), (2, 4), (3, 3), (4, 3)):
        space = AtomicSpace.lp(n, 2)
        for rows in small_matrix_family(n, max_nnz):
            family.append(Operator(space, rows))

    def check(T: Operator) -> str | None:
        o_sbp, o_scp = sbp_scp_exhaustive(T)
        if is_sbp(T).holds != o_sbp:
            return f"sbp mismatch on {T.rows}"
        if is_scp(T).holds != o_scp:
            return f"scp mismatch on {T.rows}"
        return None

    failures = [e for e in map(check, family) if e]

    ns = list(range(3, 13))
    densities = [0.4, 0.7, 1.0]
    rand_ops = [
        gen_random_operator(seed * 300000 + i, ns[i % len(ns)], densities[i % len(densities)])
        for i in range(50)
    ]

    def check_sampled(item) -> str | None:
        i, T = item
        for which, verdict in (("sbp", is_sbp(T).holds), ("scp", is_scp(T).holds)):
            hit = sampled_implication_check(T, which, 10**4, seed * 400000 + i)
            if verdict and hit is not None:
                return f"sampled {which} violation contradicts a true verdict"
        return None

    failures += [e for e in map(check_sampled, enumerate(rand_ops)) if e]
    detail = (
        f"{len(family)} small matrices agree with the symbolic oracle; "
        f"50 sampled operators consistent"
    )
    if failures:
        detail = f"failure: {failures[0]}"
    return CriterionResult(5, "oracle-agreement", not failures, detail)


def criterion_6_examples() -> CriterionResult:
    problems = []
    A = make_sbp_not_scp_operator()
    if not frop_is_sbp(A).holds:
        problems.append("rank-two interval operator should be semi band preserving")
    scp = frop_is_scp(A)
    if scp.holds or scp.witness is None:
        problems.append("rank-two interval operator should fail semi containment")
    else:
        if frop_moments(A, scp.witness.g) != (Fraction(0), Fraction(1, 96)):
            problems.append("witness pairings differ from (0, 1/96)")
        if not replay_frop_witness(A, scp.witness):
            problems.append("interval witness failed to replay")
    half = Fraction(1, 2)
    sup_a = set(frop_range_supports(A))
    expected = {
        IntervalRegion.of(),
        IntervalRegion.of((0, half)),
        IntervalRegion.of((0, 1)),
    }
    if sup_a != expected:
        problems.append(f"range supports {sup_a} differ from the expected three")
    if IntervalRegion.of((half, 1)) in sup_a:
        problems.append("[1/2,1] must be absent from the range supports")

    B = make_full_support_projection()
    if not frop_is_sbp(B).holds or not frop_is_scp(B).holds:
        problems.append("full-support projection must satisfy both conditions")
    if set(frop_range_supports(B)) != {IntervalRegion.of(), IntervalRegion.of((0, 1))}:
        problems.append("full-support projection range supports differ")
    gram = [[integrate(w, phi) for _, phi in B.terms] for w, _ in B.terms]
    if gram != [[1, 0], [0, 1]]:
        problems.append("biorthogonality failed for the full-support projection")

    Q = escape_projection()
    if not is_scp(Q).holds:
        problems.append("escape projection must be semi containment preserving")
    sbp_q = is_sbp(Q)
    if sbp_q.holds:
        problems.append("escape projection must fail semi band preservation")
    else:
        e1 = (Fraction(1), Fraction(0))
        e2 = (Fraction(0), Fraction(1))
        if (sbp_q.witness.f, sbp_q.witness.g) != (e2, e1):
            problems.append("escape projection witness differs from (e_2, e_1)")
        if not replay_witness(Q, sbp_q.witness):
            problems.append("escape projection witness failed to replay")
    if not is_projection(Q):
        problems.append("escape projection must be idempotent")
    if compare(operator_norm(Q.space, Q), 1) != 0:
        problems.append("escape projection must have 1-norm exactly 1")
    detail = "interval pair, full-support projection and escape projection reproduce exactly"
    if problems:
        detail = f"failure: {problems[0]}"
    return CriterionResult(6, "worked-examples", not problems, detail)


def criterion_7_averaging(seed: int) -> CriterionResult:
    items = []
    for i in range(100):
        n = 2 + i % 9  # 2..10
        rng = random.Random(f"avg:{seed}:{i}")
        items.append((n, random_partition(rng, n)))

    spaces = {}

    def check(item) -> str | None:
        n, partition = item
        M = make_averaging(n, partition)
        if not is_projection(M):
            return "averaging operator is not idempotent"
        if not is_sbp(M).holds or not is_scp(M).holds:
            return "averaging operator fails a semi-preservation condition"
        for p in (1, 2, "inf"):
            sp = spaces.setdefault((n, p), AtomicSpace.lp(n, p))
            if compare(operator_norm(sp, M), 1) != 0:
                return f"averaging norm differs from 1 at p={p}"
        return None

    failures = [e for e in map(check, items) if e]
    detail = "100/100 averaging operators are norm-one projections with both properties"
    if failures:
        detail = f"failure: {failures[0]}"
    return CriterionResult(7, "averaging-operators", not failures, detail)


def criterion_8_probe() -> CriterionResult:
    problems = []
    findings = probe_norm_one_projections(1, [2, 3], budget=600)
    if not findings:
        problems.append("the p=1 probe found no candidates at all")
    for f in findings:
        if not verify_probe_finding(f):
            problems.append("a p=1 finding failed exact re-verification")
            break
    findings2 = probe_norm_one_projections(2, [2, 3], budget=600)
    if findings2:
        problems.append(f"p=2 rank-one grid produced {len(findings2)} findings; expected none")
    detail = (
        f"p=1 probe: {len(findings)} findings, all re-verified; p=2 probe: 0 findings"
    )
    if problems:
        detail = f"failure: {problems[0]}"
    return CriterionResult(8, "norm-one-projection-probe", not problems, detail)


def criterion_9_determinism() -> CriterionResult:
    problems = []
    Q = escape_projection()
    r1 = dumps(build_analysis_report(Q))
    r2 = dumps(build_analysis_report(Q))
    if r1 != r2:
        problems.append("analysis report bytes differ between runs")
    f1 = probe_norm_one_projections(1, [2], budget=200)
    f2 = probe_norm_one_projections(1, [2], budget=200)
    p1 = dumps(build_probe_report(1, [2], 200, f1))
    p2 = dumps(build_probe_report(1, [2], 200, f2))
    if p1 != p2:
        problems.append("probe report bytes differ between runs")
    detail = "reports byte-identical across repeated runs"
    if problems:
        detail = f"failure: {problems[0]}"
    return CriterionResult(9, "determinism", not problems, detail)


def run_all(seed: int = 1) -> list[CriterionResult]:
    results = []

    def run(criterion, *args):
        start = time.perf_counter()
        out = criterion(*args)
        result = out[0] if isinstance(out, tuple) else out
        results.append(replace(result, seconds=time.perf_counter() - start))
        return out

    _, forms = run(criterion_1_roundtrip, seed)
    run(criterion_2_negative, seed, forms)
    run(criterion_3_sbp_implies_scp, seed, forms)
    run(criterion_4_sigma_laws, seed)
    run(criterion_5_oracle_agreement, seed)
    run(criterion_6_examples)
    run(criterion_7_averaging, seed)
    run(criterion_8_probe)
    run(criterion_9_determinism)
    return results


def format_summary(results: list[CriterionResult]) -> str:
    lines = [r.line() for r in results]
    passed = sum(1 for r in results if r.passed)
    verdict = "OK" if passed == len(results) else "FAILED"
    lines.append(f"{verdict} ({passed}/{len(results)} criteria)")
    return "\n".join(lines) + "\n"
