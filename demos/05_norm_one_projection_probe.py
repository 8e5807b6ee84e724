"""Probing norm-one semi-containment-preserving projections.

On a strictly monotone atomic space, must a norm-one projection satisfying
the containment condition be a weighted conditional expectation operator?
The probe searches structured candidate families for counterexamples and
records every hit with exact evidence.

Outcome on the unweighted 1-norm: rank-one projections like
f -> (f_1 + f_2/2) e_1 pass every hypothesis (projection, norm one, semi
containment preserving, strictly monotone space) yet fail to decompose,
because their functional escapes the support of the range vector.  On the
unweighted 2-norm the dual norm is strictly convex and the same grid finds
nothing: the unit pairing with a unit norm product forces the functional
onto the range support.
"""

from semiband import probe_norm_one_projections, verify_probe_finding

findings = probe_norm_one_projections(1, dims=[2, 3], budget=600)
print(f"p = 1: {len(findings)} findings")
first = findings[0]
print("first finding matrix:", first.operator.rows)
print("operator norm evidence:", first.norm_evidence)
print("witness pair:", first.sbp_witness.f, first.sbp_witness.g)
print("re-verifies all five facts exactly?", verify_probe_finding(first))

findings2 = probe_norm_one_projections(2, dims=[2, 3], budget=600)
print(f"\np = 2: {len(findings2)} findings (strict convexity of the dual)")

# The probe refuses the sup-norm outright: the norm-one hypothesis needs a
# strictly monotone space, and for p = inf the premise itself fails.
try:
    probe_norm_one_projections("inf", dims=[2], budget=10)
except Exception as exc:
    print("\np = inf rejected:", exc)
