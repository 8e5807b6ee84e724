"""The three workloads: a fixed operation list per pass, and for each
operation its untimed preparation, its timed call and its untimed check.

Library calls go through module attributes (``operators.is_sbp`` rather
than an imported name) so the traced run's span wrappers see them.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import gen

# Sampled-oracle pairs per call, as in the self-test's criterion 5.
SAMPLED_PAIRS = 10**4


class Op:
    """One prepared operation: ``call`` is timed, the rest is not."""

    __slots__ = ("op_id", "kind", "spec", "data", "call")

    def __init__(self, op_id: str, kind: str, spec: tuple, data: dict, call):
        self.op_id = op_id
        self.kind = kind
        self.spec = spec
        self.data = data
        self.call = call


def _shuffled(plan: list[tuple], tag: str) -> list[tuple]:
    # A fixed order, the same for every seed, that spreads the heavy rungs.
    plan = list(plan)
    random.Random(f"perfbench:order:{tag}").shuffle(plan)
    return plan


def _frac_rows(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


class Workload:
    name = ""
    #: semiband modules a user of this workload imports before its first op
    modules: tuple[str, ...] = ()

    def __init__(self, sb, workdir: Path):
        self.sb = sb  # namespace with the imported semiband modules
        self.workdir = workdir

    def plan(self) -> list[tuple]:
        raise NotImplementedError

    def prepare(self, spec: tuple, seed: int, index: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, result) -> list[str]:
        """Problems with a successful op's answer; empty when correct."""
        raise NotImplementedError

    def failed(self, result) -> bool:
        return False

    def cleanup(self, op: Op) -> None:
        pass


class CliWorkload(Workload):
    """One ``semiband`` CLI call per op on a generated input file, with the
    report written to a file as a user would run it."""

    modules = ("semiband.cli",)
    #: subcommand and fixed options
    argv: tuple[str, ...] = ()

    def document(self, spec: tuple, rng) -> tuple[dict, dict]:
        """The input file's JSON, and what the check needs to know of it."""
        raise NotImplementedError

    def prepare(self, spec, seed, index):
        doc, data = self.document(spec, gen.rng_for(self.name, seed, index))
        src = self.workdir / f"input-{index}.json"
        out = self.workdir / f"report-{index}.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        argv = [*self.argv, "--input", str(src), "--report", str(out)]
        main = self.sb.cli.main
        data.update(doc=doc, src=src, out=out)
        return Op(f"{self.name}:{index}", spec[0], spec, data, lambda: main(argv))

    def failed(self, rc) -> bool:
        return rc != 0

    def report(self, op: Op) -> dict:
        return json.loads(op.data["out"].read_text(encoding="utf-8"))

    def cleanup(self, op):
        op.data["src"].unlink(missing_ok=True)
        op.data["out"].unlink(missing_ok=True)


# -- analyze-ladder -------------------------------------------------------------


class AnalyzeLadder(CliWorkload):
    """``semiband analyze`` on one generated operator file per op."""

    name = "analyze-ladder"
    argv = ("analyze", "--max-atoms", "16")

    # (kind, n, rank or block count); twice per p, with unit weights at
    # p = 1 and 3/2 and non-unit weights at p = 2 and inf.  The heavy rungs
    # take most of a pass; two copies of the light ones double the samples
    # the median is taken from.
    LIGHT = (
        ("low-rank", 8, 3), ("low-rank", 8, 4), ("low-rank", 12, 4),
        ("full-rank", 8, 8), ("full-rank", 12, 12),
        ("wce", 8, 4), ("wce", 12, 4), ("wce", 12, 8), ("wce", 16, 6),
        ("perturbed", 8, 4), ("perturbed", 12, 6), ("perturbed", 12, 8), ("perturbed", 16, 6),
    )
    # (kind, n, rank or block count, p); once per pass.  n = 16 at rank 8
    # is left out: its report alone takes over a minute.
    HEAVY = (
        ("low-rank", 12, 6, "3/2"), ("low-rank", 16, 5, "2"), ("full-rank", 16, 16, "2"),
        ("wce", 16, 12, "2"), ("perturbed", 16, 10, "1"),
    )

    def plan(self) -> list[tuple]:
        light = [(kind, n, r, p, p in ("2", "inf")) for kind, n, r in self.LIGHT for p in gen.P_VALUES] * 2
        heavy = [(kind, n, r, p, True) for kind, n, r, p in self.HEAVY]
        return _shuffled(light + heavy, self.name)

    def document(self, spec, rng):
        kind, n, r, p, weighted = spec
        form = None
        if kind == "low-rank":
            rows = gen.low_rank(rng, n, r)
        elif kind == "full-rank":
            rows = gen.dense(rng, n)
        else:
            form = gen.wce_form(rng, n, r)
            rows = gen.form_matrix(form) if kind == "wce" else gen.perturb_off_block(rng, form)[0]
        return gen.operator_doc(n, p, gen.weights(rng, n, weighted), rows), {"form": form}

    def check(self, op, rc):
        sb = self.sb
        kind = op.kind
        report = self.report(op)
        T = sb.serialize.parse_operator(op.data["doc"])
        problems = []
        back = sb.serialize.parse_operator(report["input"])
        if back != T:
            problems.append("report input does not parse back to the operator")
        preds = report["predicates"]
        for name, entry in preds.items():
            if "witness" in entry:
                if entry["holds"]:
                    problems.append(f"{name} holds yet carries a witness")
                w = sb.serialize.parse_witness(entry["witness"], T.n)
                if not sb.operators.replay_witness(T, w):
                    problems.append(f"{name} witness does not replay")
            elif not entry["holds"]:
                problems.append(f"{name} fails without a witness")
        sbp = preds["semi_band_preserving"]["holds"]
        scp = preds["semi_containment_preserving"]["holds"]
        if sbp and not scp:
            problems.append("SBP holds but SCP fails")
        if kind == "wce" and not (sbp and scp):
            problems.append("a WCE form must be SBP and SCP")
        if kind == "perturbed" and sbp:
            problems.append("an off-block perturbation must break SBP")
        closures = report["closures"]
        if "witness" in closures:
            w = sb.serialize.parse_witness(closures["witness"], T.n)
            if not sb.operators.replay_witness(T, w):
                problems.append("closure witness does not replay")
        if not closures["union"]:
            problems.append("union closure must hold")
        wce = report["wce"]
        if wce["decomposable"] != sbp:
            problems.append("decomposable must equal SBP")
        if wce["decomposable"]:
            problems += _check_form(T, wce, op.data["form"] if kind == "wce" else None)
        else:
            w = sb.serialize.parse_witness(wce["witness"], T.n)
            if not sb.operators.replay_witness(T, w):
                problems.append("decomposition witness does not replay")
        problems += _check_sigma(report["sigma"], report["minimal_supports"], T)
        problems += _check_norm(sb, T, report["operator_norm"], wce)
        return problems


def _check_form(T, wce: dict, form: dict | None) -> list[str]:
    """The decomposed form reassembles to T exactly (and, for a generated
    form, has its blocks)."""
    n = T.n
    acc = [[Fraction(0)] * n for _ in range(n)]
    for u, psi in zip(wce["u"], wce["psi"]):
        u = [Fraction(x) for x in u]
        psi = [Fraction(x) for x in psi]
        for i in range(n):
            for j in range(n):
                acc[i][j] += u[i] * psi[j]
    problems = []
    if _frac_rows(acc) != T.rows:
        problems.append("decomposed form does not reassemble to the input")
    if form is not None and sorted(wce["blocks"]) != form["blocks"]:
        problems.append("decomposition blocks differ from the generated blocks")
    return problems


def _check_sigma(sigma: dict, minimal: list, T) -> list[str]:
    masks = {sum(1 << (a - 1) for a in s) for s in sigma["supports"]}
    union = 0
    for m in masks:
        union |= m
    reached = 0
    for i in range(T.n):
        if any(T.rows[i]):
            reached |= 1 << i
    problems = []
    if 0 not in masks:
        problems.append("the empty support is missing from Sigma")
    if union != sum(1 << (a - 1) for a in sigma["s_t"]):
        problems.append("S_T is not the union of Sigma")
    if union != reached:
        problems.append("S_T differs from the rows the matrix reaches")
    if any(sum(1 << (a - 1) for a in s) not in masks for s in minimal):
        problems.append("a minimal support is not in Sigma")
    return problems


def _check_norm(sb, T, value: dict, wce: dict) -> list[str]:
    """Exact norms where a closed formula exists: p in {1, inf} always, and
    p = 2 for decomposable operators, where the square of the norm is the
    largest (dual norm of psi_j * norm of u_j)^2 over the blocks."""
    p = T.space.norm.p
    w = T.space.norm.weights
    n = T.n
    rows = T.rows
    if p == 1 or p == sb.atomic.INF:
        if p == 1:
            want = max(sum(w[i] * abs(rows[i][j]) for i in range(n)) / w[j] for j in range(n))
        else:
            want = max(w[i] * sum(abs(rows[i][j]) / w[j] for j in range(n)) for i in range(n))
        if value["kind"] != "exact" or Fraction(value["value"]) != want:
            return [f"p={p} norm is {value}, expected {want}"]
    elif p == 2 and wce["decomposable"]:
        want = Fraction(0)
        for u, psi in zip(wce["u"], wce["psi"]):
            dual = sum(Fraction(x) ** 2 / wi for x, wi in zip(psi, w))
            prim = sum(wi * Fraction(x) ** 2 for x, wi in zip(u, w))
            want = max(want, dual * prim)
        if value["kind"] == "sqrt":
            got = Fraction(value["square"])
        elif value["kind"] == "exact":
            got = Fraction(value["value"]) ** 2
        else:
            got = None
        if got != want:
            return [f"p=2 norm of a decomposable operator is {value}, expected sqrt({want})"]
    elif value["kind"] == "interval" and Fraction(value["lo"]) > Fraction(value["hi"]):
        return ["norm enclosure is empty"]
    return []


# -- interval-sweep ---------------------------------------------------------------


class IntervalSweep(CliWorkload):
    """``semiband interval`` on one generated finite-rank operator per op."""

    name = "interval-sweep"
    argv = ("interval",)

    # (kind, pieces, rank, degree) -> copies per pass.  Cheap rungs run
    # more often so a run has a few hundred samples, and the copies are
    # set so the median and the tail percentile each fall inside a group
    # of ops of one cost (the median among block 10x3 and leak 8x3, the
    # tail among the eight block 12x6), not in a gap between two groups.
    RUNGS = {
        ("block", 8, 2, 0): 8, ("block", 8, 3, 1): 6, ("block", 10, 3, 2): 9, ("block", 8, 4, 2): 3,
        ("block", 12, 4, 1): 3, ("block", 12, 6, 1): 8, ("block", 16, 6, 1): 1,
        ("leak", 8, 4, 0): 8, ("leak", 8, 3, 1): 9, ("leak", 10, 4, 1): 3, ("leak", 12, 5, 1): 2,
        ("leak", 12, 6, 1): 1, ("leak", 12, 10, 0): 1, ("leak", 16, 8, 1): 1, ("leak", 20, 6, 1): 1,
        ("dense", 8, 2, 0): 8, ("dense", 10, 2, 0): 6, ("dense", 8, 3, 1): 3, ("dense", 10, 3, 1): 2,
        ("dense", 20, 3, 1): 1,
    }

    def plan(self):
        return _shuffled([spec for spec, copies in self.RUNGS.items() for _ in range(copies)], self.name)

    def document(self, spec, rng):
        return gen.frop_doc(rng, *spec), {}

    def check(self, op, rc):
        sb = self.sb
        report = self.report(op)
        T = sb.serialize.parse_frop(op.data["doc"])
        problems = []
        if sb.serialize.parse_frop(report["input"]) != T:
            problems.append("report input does not parse back to the operator")
        verdict = {}
        for key in ("semi_band_preserving", "semi_containment_preserving"):
            entry = report[key]
            verdict[key] = entry["holds"]
            if "witness" in entry:
                wj = entry["witness"]
                w = sb.interval.FropWitness(
                    wj["kind"],
                    sb.serialize.parse_piecewise(wj["f"]),
                    sb.serialize.parse_piecewise(wj["g"]),
                    wj["note"],
                )
                if not sb.interval.replay_frop_witness(T, w):
                    problems.append(f"{key} witness does not replay")
            elif not entry["holds"]:
                problems.append(f"{key} fails without a witness")
        sbp, scp = verdict["semi_band_preserving"], verdict["semi_containment_preserving"]
        if sbp and not scp:
            problems.append("SBP holds but SCP fails")
        supports = report["range_supports"]
        if [] not in supports:
            problems.append("the empty support is missing")
        if op.kind == "block":
            if not (sbp and scp):
                problems.append("a block-structured operator must be SBP and SCP")
            if len(supports) != 2 ** op.spec[2]:
                problems.append(f"{len(supports)} range supports, expected 2^{op.spec[2]}")
        if op.kind == "leak" and sbp:
            problems.append("a leaked image must break SBP")
        return problems


# -- campaign -----------------------------------------------------------------------


class Campaign(Workload):
    """Small library decisions in the mix of the self-test's criteria 1-7."""

    name = "campaign"
    modules = ("semiband", "semiband.oracles")

    # op kind -> (count per pass, strata of (size, parameter)); sizes and
    # densities cycle through fixed strata so every seed has the same mix,
    # and only the entries come from the seed
    MIX = {
        "roundtrip": (200, [(n, b) for b in range(1, 13) for n in range(max(2, b), 13)]),
        "perturbed": (200, [(n, b) for b in range(2, 13) for n in range(b, 13)]),
        "decide": (500, [(n, d) for d in (0.15, 0.3, 0.5, 0.75, 1.0) for n in range(2, 9)]),
        "closures": (300, [(n, d) for d in (0.2, 0.4, 0.6, 0.8, 1.0) for n in range(2, 9)]),
        "averaging": (100, [(n, b) for b in range(1, 11) for n in range(max(2, b), 11)]),
        "sampled": (50, [(n, d) for d in (0.4, 0.7, 1.0) for n in range(3, 13)]),
    }
    # the exhaustive cross-check runs once on every member of the sparse
    # family of the self-test's criterion 5: n -> most nonzero entries;
    # the seed only relabels each member
    EXHAUSTIVE = {1: 1, 2: 4, 3: 3, 4: 3}

    def plan(self):
        specs = [
            (kind, *strata[i % len(strata)])
            for kind, (count, strata) in self.MIX.items()
            for i in range(count)
        ]
        specs += [
            ("exhaustive", n, k)
            for n, nnz in self.EXHAUSTIVE.items()
            for k in range(len(gen.sparse_family(n, nnz)))
        ]
        return _shuffled(specs, self.name)

    def _operator(self, rows):
        n = len(rows)
        return self.sb.operators.Operator(self.sb.atomic.AtomicSpace.lp(n, 2), _frac_rows(rows))

    def _random(self, rng, n, density):
        return self._operator(
            [[gen.small_rat(rng) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        )

    def prepare(self, spec, seed, index):
        kind, n, param = spec
        sb = self.sb
        ops, wce, oracles = sb.operators, sb.wce, sb.oracles
        rng = gen.rng_for(self.name, seed, index)
        data: dict = {}
        if kind in ("roundtrip", "perturbed"):
            form = gen.wce_form(rng, n, param)
            data["form"] = form
            if kind == "roundtrip":
                T = self._operator(gen.form_matrix(form))

                def call():
                    return ops.is_sbp(T), ops.is_scp(T), wce.decompose_wce(T)
            else:
                T = self._operator(gen.perturb_off_block(rng, form)[0])

                def call():
                    sbp = ops.is_sbp(T)
                    rec = wce.decompose_wce(T)
                    replayed = ops.replay_witness(T, rec) if isinstance(rec, ops.Witness) else None
                    return sbp, rec, replayed
        elif kind in ("decide", "closures"):
            T = self._random(rng, n, param)
            if kind == "decide":

                def call():
                    return ops.is_sbp(T), ops.is_scp(T)
            else:

                def call():
                    sigma = ops.enumerate_sigma(T)
                    return sigma, ops.verify_sigma_closures(T, sigma), ops.is_sbp(T)
        elif kind == "averaging":
            parts = gen.partition(rng, n, param)
            if len(parts) > 1 and rng.random() < 0.125:
                parts.pop(rng.randrange(len(parts)))
            blocks = [sb.atomic.SupportSet(frozenset(b)) for b in parts]
            spaces = [sb.atomic.AtomicSpace.lp(n, p) for p in (1, 2, "inf")]
            data["blocks"] = parts
            T = None

            def call():
                M = wce.make_averaging(spaces[1], blocks)
                norms = [sb.values.compare(ops.operator_norm(sp, M), 1) for sp in spaces]
                return M, ops.is_projection(M), ops.is_sbp(M), ops.is_scp(M), norms
        elif kind == "exhaustive":
            T = self._operator(gen.relabeled(rng, gen.sparse_family(n, self.EXHAUSTIVE[n])[param], n))

            def call():
                return oracles.sbp_scp_exhaustive(T), ops.is_sbp(T), ops.is_scp(T)
        elif kind == "sampled":
            T = self._random(rng, n, param)
            oseed = rng.randrange(2**32)

            def call():
                sbp, scp = ops.is_sbp(T), ops.is_scp(T)
                hits = [oracles.sampled_implication_check(T, w, SAMPLED_PAIRS, oseed) for w in ("sbp", "scp")]
                return sbp, scp, hits
        else:
            raise ValueError(f"unknown campaign kind {kind!r}")
        data["T"] = T
        return Op(f"{self.name}:{index}", kind, spec, data, call)

    def _replays(self, T, res, what: str) -> list[str]:
        if res.holds != (res.witness is None):
            return [f"{what}: verdict and witness disagree"]
        if res.witness is not None and not self.sb.operators.replay_witness(T, res.witness):
            return [f"{what}: witness does not replay"]
        return []

    def check(self, op, result):
        sb = self.sb
        ops, oracles = sb.operators, sb.oracles
        T = op.data["T"]
        kind = op.kind
        p: list[str] = []
        if kind == "roundtrip":
            sbp, scp, rec = result
            if not (sbp.holds and scp.holds):
                p.append("a WCE form must be SBP and SCP")
            if not isinstance(rec, sb.wce.WceForm):
                p.append("a WCE form must decompose")
            else:
                if rec.to_operator().rows != T.rows:
                    p.append("decomposed form does not reassemble to the input")
                if sorted(sorted(b) for b in rec.blocks) != op.data["form"]["blocks"]:
                    p.append("decomposition blocks differ from the generated blocks")
        elif kind == "perturbed":
            sbp, rec, replayed = result
            if sbp.holds:
                p.append("an off-block perturbation must break SBP")
            p += self._replays(T, sbp, "SBP")
            if not isinstance(rec, ops.Witness) or rec.kind != "SBP-violation":
                p.append("decomposition of a non-SBP operator must return its SBP witness")
            elif not replayed or not ops.replay_witness(T, rec):
                p.append("decomposition witness does not replay")
        elif kind == "decide":
            sbp, scp = result
            p += self._replays(T, sbp, "SBP") + self._replays(T, scp, "SCP")
            if sbp.holds and not scp.holds:
                p.append("SBP holds but SCP fails")
            if T.n <= 4 and oracles.sbp_scp_exhaustive(T) != (sbp.holds, scp.holds):
                p.append("verdicts disagree with the exhaustive oracle")
        elif kind == "closures":
            sigma, rep, sbp = result
            p += self._replays(T, sbp, "SBP")
            if not rep.union:
                p.append("union closure must hold")
            if sbp.holds and not (rep.intersection and rep.complement):
                p.append("an SBP operator's Sigma must be closed under intersection and complement")
            if rep.witness is not None and not ops.replay_witness(T, rep.witness):
                p.append("closure witness does not replay")
            if (rep.witness is None) != rep.all_hold():
                p.append("closure verdict and witness disagree")
        elif kind == "averaging":
            M, proj, sbp, scp, norms = result
            want = [[Fraction(0)] * M.n for _ in range(M.n)]
            for b in op.data["blocks"]:
                for i in b:
                    for j in b:
                        want[i - 1][j - 1] = Fraction(1, len(b))
            if M.rows != _frac_rows(want):
                p.append("averaging matrix differs from the blockwise average")
            if not proj or not sbp.holds or not scp.holds:
                p.append("an averaging operator must be an SBP and SCP projection")
            if norms != [0, 0, 0]:
                p.append(f"averaging norms at p = 1, 2, inf compare {norms} with 1")
        elif kind == "exhaustive":
            oracle, sbp, scp = result
            p += self._replays(T, sbp, "SBP") + self._replays(T, scp, "SCP")
            if oracle != (sbp.holds, scp.holds):
                p.append("verdicts disagree with the exhaustive oracle")
        elif kind == "sampled":
            sbp, scp, hits = result
            p += self._replays(T, sbp, "SBP") + self._replays(T, scp, "SCP")
            if sbp.holds and not scp.holds:
                p.append("SBP holds but SCP fails")
            for verdict, hit, which in ((sbp, hits[0], "sbp"), (scp, hits[1], "scp")):
                if hit is not None:
                    if verdict.holds:
                        p.append(f"sampled {which} violation contradicts a true verdict")
                    if not _replays_pair(sb, T, which, hit):
                        p.append(f"sampled {which} violation does not replay")
        return p


def _replays_pair(sb, T, which: str, pair) -> bool:
    f, g = pair
    kind = "SBP-violation" if which == "sbp" else "SCP-violation"
    return sb.operators.replay_witness(T, sb.operators.Witness(kind, f, g, "sampled"))


WORKLOADS = {w.name: w for w in (AnalyzeLadder, Campaign, IntervalSweep)}
