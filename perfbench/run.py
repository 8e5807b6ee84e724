"""semiband benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload analyze-ladder --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``analyze-ladder``, ``campaign`` and
``interval-sweep``.  Each runs single-threaded as a closed loop with one
caller.  A run repeats passes over the workload's fixed operation list
until the timed operations add up to ``--seconds`` (at least one pass);
every operation gets fresh inputs drawn from ``--seed``.  Answers are
checked after the timed loop; a wrong answer makes the exit code 1.

``--trace 0`` reports the end-to-end metrics, with every time in reference
seconds: wall time scaled by the machine's speed of the moment as a fixed
reference loop measures it (``refclock.py``).  ``--trace 1`` instead runs
one pass of the workload in which every op runs untraced and then traced,
plus one traced pass of each other workload, and reports the per-layer
metrics from the spans, in wall time.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import refclock
from refclock import RefClock
from spans import CHECK_PREFIX

# Single-threaded throughout: OpenBLAS (numpy, under semiband.oracles) would
# otherwise start a thread per core at import, whose start-up cost swings
# with the load of the other core.  Set before any import of numpy, here and
# in the setup children, which inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# fresh interpreters timed for setup_s before each pass and after the last;
# the median of all of them is reported
SETUP_REPEATS = 3
# samples beyond the tail percentile in one pass
TAIL_BEYOND = 10

# The import is timed between reference rounds (builtins only, so they
# import nothing); the child prints the import time and the median round.
SETUP_CODE = inspect.getsource(refclock.reference_round) + """
import importlib, sys, time
def rounds():
    out = []
    for _ in range(3):
        t = time.perf_counter()
        reference_round()
        out.append(time.perf_counter() - t)
    return out
before = rounds()
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
dt = time.perf_counter() - t
after = rounds()
mid = sorted(before + after)[2:4]
print(repr(dt), repr((mid[0] + mid[1]) / 2), sys.modules["semiband"].__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here (no sources, wrong package)."""


def load_semiband(with_oracles: bool) -> SimpleNamespace:
    if not (SRC / "semiband" / "__init__.py").is_file():
        raise BenchError(f"no semiband sources under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ["atomic", "values", "operators", "wce", "interval", "serialize", "cli"]
    if with_oracles:
        names.append("oracles")
    mods = {n: importlib.import_module(f"semiband.{n}") for n in names}
    pkg = sys.modules["semiband"]
    if Path(pkg.__file__).resolve().parent != SRC / "semiband":
        raise BenchError(f"semiband imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**mods)


def setup_samples(modules: tuple[str, ...]) -> list[tuple[float, float]]:
    """Import times of the workload's modules in fresh interpreters, raw and
    in reference seconds (scaled by the child's median round time)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *modules],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"setup import failed: {proc.stderr.strip()}")
        dt, round_s, where = proc.stdout.split()
        if Path(where).resolve().parent != SRC / "semiband":
            raise BenchError(f"setup imported semiband from {where}")
        times.append((float(dt), float(dt) * refclock.ROUND_S / float(round_s)))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def clear_caches() -> None:
    """Empty every ``functools`` cache of the loaded semiband modules."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "semiband" or mod_name.startswith("semiband."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


class Passes:
    """Timed passes over a workload's operation list, checked afterwards.

    With a ``tracer`` each op runs with the span wrappers installed.  With
    a ``twin`` (an untraced ``Passes`` of the same workload) each op runs
    first in the twin and then here, caches emptied before each, so the
    two see the same inputs in the same state of the machine.
    """

    def __init__(self, workload, tracer=None, twin=None):
        self.workload = workload
        self.tracer = tracer
        self.twin = twin
        self.plan = workload.plan()
        self.intervals: list[tuple[float, float]] = []  # wall start and end of each op
        self.scaled: list[float] = []  # reference seconds, when run on a RefClock
        self.by_kind: dict[str, float] = {}
        self.done: list = []  # (op, result, ok)
        self.failed = 0
        self.count = 0

    def _tracing(self):
        return self.tracer.installed(self.workload.sb) if self.tracer is not None else nullcontext()

    def time(self, op):
        with self._tracing():
            if self.tracer is not None:
                self.tracer.op_id = op.op_id
            start = time.perf_counter()
            try:
                result = op.call()
                ok = not self.workload.failed(result)
            except Exception:  # an op that raises counts as failed
                traceback.print_exc()
                result, ok = None, False
            end = time.perf_counter()
        self.intervals.append((start, end))
        self.by_kind[op.kind] = self.by_kind.get(op.kind, 0.0) + end - start
        if not ok:
            self.failed += 1
            print(f"op {op.op_id} {op.spec} failed", file=sys.stderr)
        return result, ok

    def run(self, seed: int, pass_index: int, clock: RefClock | None = None) -> None:
        first = len(self.intervals)
        with clock if clock is not None else nullcontext():
            for pos, spec in enumerate(self.plan):
                op = self.workload.prepare(spec, seed, pass_index * len(self.plan) + pos)
                if self.twin is not None:
                    clear_caches()
                    self.twin.time(op)
                    clear_caches()
                result, ok = self.time(op)
                self.done.append((op, result, ok))
        if clock is not None:
            self.scaled += [clock.scaled(a, b) for a, b in self.intervals[first:]]
        self.count += 1

    def check(self, workloads: dict) -> list[str]:
        wrong = []
        clear_caches()  # the checker starts cold whatever ran before it
        with self._tracing():
            for op, result, ok in self.done:
                if self.tracer is not None:
                    self.tracer.op_id = f"{CHECK_PREFIX}{op.op_id}"
                w = workloads[op.op_id.split(":")[0]]
                if ok:
                    wrong += [f"{op.op_id} {op.spec}: {p}" for p in w.check(op, result)]
                w.cleanup(op)
        self.done = []
        return wrong

    @property
    def latencies(self) -> list[float]:
        """Wall seconds of each op."""
        return [end - start for start, end in self.intervals]

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    @property
    def timed(self) -> float:
        return sum(self.latencies)

    def ops_per_s(self) -> float:
        """Wall-clock rate, for the traced run's overhead figures."""
        return self.attempted / self.timed

    def shares(self) -> str:
        """Each op kind's share of the timed total."""
        return ", ".join(f"{k} {100 * t / self.timed:.1f}%" for k, t in sorted(self.by_kind.items()))


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    sb = load_semiband(with_oracles="semiband.oracles" in cls.modules)
    work = OUT / f"tmp-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    setup: list[tuple[float, float]] = []
    try:
        run = Passes(cls(sb, work))
        while run.count == 0 or run.timed < seconds:
            setup += setup_samples(cls.modules)
            run.run(seed, run.count, RefClock())
            if run.count == 1:
                rss = peak_rss_mb()  # after one pass: a fixed amount of work
        setup += setup_samples(cls.modules)
        wrong = run.check({name: run.workload})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # the highest percentile with TAIL_BEYOND samples beyond it in one pass,
    # so it stays the same however many passes fit in the run: the cut
    # point (P - TAIL_BEYOND) / P of a pass of P ops (the median for a pass
    # too short for a tail)
    per_pass = len(run.plan)
    cut = max(per_pass - TAIL_BEYOND, per_pass // 2)

    def timings(setup_times: list[float], latencies: list[float]) -> dict:
        tail = statistics.quantiles(latencies, n=per_pass, method="inclusive")[cut - 1]
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "op_tail_ms": (tail * 1000, "ms"),
        }

    wall = timings([w for w, _ in setup], run.latencies)
    print(
        f"# {name} seed {seed}: {run.count} passes of {per_pass} ops in {run.timed:.1f} s; "
        f"op_tail_ms is p{100 * cut / per_pass:.1f} of {run.attempted} samples; "
        f"setup_s is the median of {len(setup)}; time by op kind: {run.shares()}; "
        "unscaled wall time: " + ", ".join(f"{k} {v:.4g}" for k, (v, _) in wall.items()),
        file=sys.stderr,
    )
    metrics = timings([r for _, r in setup], run.scaled)
    metrics["peak_rss_mb"] = (rss, "MB")
    return metrics, run.attempted, run.failed, wrong


def traced(name: str, seed: int) -> tuple[dict, int, int, list[str]]:
    from spans import Tracer, per_layer_units
    from workloads import WORKLOADS

    sb = load_semiband(with_oracles=True)
    work = OUT / f"tmp-trace-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        workloads = {n: cls(sb, work) for n, cls in WORKLOADS.items()}
        plain = Passes(workloads[name])
        runs = {name: Passes(workloads[name], tracer, twin=plain)}
        runs.update((n, Passes(w, tracer)) for n, w in workloads.items() if n != name)
        wrong = []
        for run in runs.values():
            run.run(seed, 0)
            wrong += run.check(workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tracer.write(OUT / f"spans-{name}-{seed}.json")
    values = tracer.metrics()
    values["trace.untraced_ops_per_s"] = plain.ops_per_s()
    values["trace.traced_ops_per_s"] = runs[name].ops_per_s()
    values["trace.overhead_ops_per_s"] = plain.ops_per_s() - runs[name].ops_per_s()
    units = per_layer_units()
    metrics = {k: (values[k], units[k]) for k in units}
    attempted = plain.attempted + sum(r.attempted for r in runs.values())
    failed = plain.failed + sum(r.failed for r in runs.values())
    return metrics, attempted, failed, wrong


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.trace:
            metrics, attempted, failed, wrong = traced(args.workload, args.seed)
        else:
            metrics, attempted, failed, wrong = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
