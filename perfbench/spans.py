"""Spans around the public functions of each semiband layer.

``Tracer.installed()`` swaps each function named in ``TRACED`` for a timing
wrapper in every loaded ``semiband`` module that holds it, and restores the
originals on exit.  The program itself is not edited: spans start and end
at the layer boundary, from the benchmark's own code.  Spans stay in memory
as (name, start_ns, end_ns, parent, op_id) and are written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# layer -> public functions timed at its boundary
TRACED = {
    "serialize": ("parse_operator", "parse_frop", "build_analysis_report", "build_interval_report", "dumps"),
    "operators": (
        "enumerate_sigma", "verify_sigma_closures", "minimal_supports",
        "is_band_preserving", "is_disjointness_preserving", "is_beta", "is_sbp", "is_scp",
        "is_projection", "operator_norm", "replay_witness",
    ),
    "wce": ("decompose_wce", "make_averaging"),
    "values": ("compare",),
    "interval": (
        "frop_range_supports", "frop_is_sbp", "frop_is_scp", "realize_range_support",
        "replay_frop_witness",
    ),
    "oracles": ("sbp_scp_exhaustive", "sampled_implication_check"),
}

# The benchmark's checker runs under op ids "check:<op>".  Its spans count
# in no layer metric; only its witness replays are summed, apart, as
# check.<layer>.<name>.  The program itself never replays an interval
# witness, so that function has check metrics only.
CHECKED = ("operators.replay_witness", "interval.replay_frop_witness")
CHECK_ONLY = ("interval.replay_frop_witness",)
CHECK_PREFIX = "check:"

# counters beside the timings, from the program's calls only: name -> unit
COUNTERS = {
    "serialize.report_bytes": "bytes",
    "operators.sigma_supports": "count",
    "interval.range_supports": "count",
    "oracles.sampled_pairs": "count",
}

# ratio -> (unit, the function whose calls are the denominator)
RATIOS = {
    "operators.operator_norm.decided_ratio": ("ratio", "operators.operator_norm"),
    "operators.witness_replay_ratio": ("ratio", "operators.replay_witness"),
    "wce.decompose_wce.form_ratio": ("ratio", "wce.decompose_wce"),
}

OVERHEAD = {
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    timed = [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]
    for qual in [q for q in timed if q not in CHECK_ONLY] + [f"check.{q}" for q in CHECKED]:
        units[f"{qual}.s"] = "s"
        units[f"{qual}.calls"] = "count"
    units.update(COUNTERS)
    units.update((k, unit) for k, (unit, _) in RATIOS.items())
    units.update(OVERHEAD)
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = ""
        self.counts = dict.fromkeys([*COUNTERS, *RATIOS], 0)  # ratios: numerators
        self._sigma_seen: set = set()

    def _hooks(self, sb):
        """Result hooks feeding the counters, by qualified name."""
        decided = (sb.values.ExactValue, sb.values.SqrtValue)
        form = sb.wce.WceForm

        def sigma(args, kwargs, res):
            key = (self.op_id, args[0].rows)
            if key not in self._sigma_seen:  # count each op's table once
                self._sigma_seen.add(key)
                self._add("operators.sigma_supports", len(res))

        def pairs(args, kwargs, res):
            self._add("oracles.sampled_pairs", kwargs["pairs"] if "pairs" in kwargs else args[2])

        return {
            "serialize.dumps": lambda a, k, r: self._add("serialize.report_bytes", len(r.encode("utf-8"))),
            "operators.enumerate_sigma": sigma,
            "operators.operator_norm": lambda a, k, r: self._add(
                "operators.operator_norm.decided_ratio", isinstance(r, decided)
            ),
            "operators.replay_witness": lambda a, k, r: self._add("operators.witness_replay_ratio", bool(r)),
            "wce.decompose_wce": lambda a, k, r: self._add("wce.decompose_wce.form_ratio", isinstance(r, form)),
            "interval.frop_range_supports": lambda a, k, r: self._add("interval.range_supports", len(r)),
            "oracles.sampled_implication_check": pairs,
        }

    def _add(self, key: str, amount) -> None:
        self.counts[key] += int(amount)

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if hook is not None and not self.op_id.startswith(CHECK_PREFIX):
                hook(args, kwargs, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, sb):
        hooks = self._hooks(sb)
        swaps = {}
        for layer, names in TRACED.items():
            module = getattr(sb, layer)
            for name in names:
                fn = getattr(module, name)
                qual = f"{layer}.{name}"
                swaps[id(fn)] = (fn, self._wrap(qual, fn, hooks.get(qual)))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "semiband" and not mod_name.startswith("semiband."):
                continue
            for attr, value in list(vars(module).items()):
                swap = swaps.get(id(value))
                if swap is not None and swap[0] is value:
                    setattr(module, attr, swap[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def metrics(self) -> dict[str, float]:
        """Per-layer sums.  ``.s`` adds up the calls of a function that are
        not nested in another call of the same function; ``.calls`` counts
        every call.  The checker's spans count only as ``check.*``."""
        secs: dict[str, int] = {}
        calls: dict[str, int] = {}
        spans = self.spans
        for name, start, end, parent, op_id in spans:
            key = name
            if op_id.startswith(CHECK_PREFIX):
                if name not in CHECKED:
                    continue
                key = f"check.{name}"
            calls[key] = calls.get(key, 0) + 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                secs[key] = secs.get(key, 0) + end - start
        out: dict[str, float] = {}
        for key in per_layer_units():
            qual, _, kind = key.rpartition(".")
            if kind == "s":
                out[key] = secs.get(qual, 0) / 1e9
            elif kind == "calls":
                out[key] = calls.get(qual, 0)
        out.update((k, self.counts[k]) for k in COUNTERS)
        for name, (_, denominator) in RATIOS.items():
            den = calls.get(denominator, 0)
            out[name] = self.counts[name] / den if den else 0.0
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op_id"], "spans": self.spans}, fh)

