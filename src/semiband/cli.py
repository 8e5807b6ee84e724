"""Command line surface.

Subcommands: ``analyze`` (atomic operator file), ``interval`` (finite-rank
operator file), ``probe`` (norm-one projection search), ``selftest``.

Exit codes: 0 success, 1 self-test failure, 2 input error, 3 budget
exceeded.  Any other exception is a defect and propagates.  All inputs and
outputs are UTF-8 JSON with rationals as strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import BudgetExceededError, DimensionMismatchError, ValidationError
from .serialize import (
    build_analysis_report,
    build_interval_report,
    build_probe_report,
    dumps,
    parse_frop,
    parse_operator,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _emit(report: dict, out_path: str | None) -> None:
    text = dumps(report)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    T = parse_operator(_load_json(args.input))
    if T.n > args.max_atoms:
        print(
            f"budget exceeded: {T.n} atoms > --max-atoms {args.max_atoms}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    _emit(build_analysis_report(T), args.report)
    return EXIT_OK


def cmd_interval(args) -> int:
    T = parse_frop(_load_json(args.input))
    _emit(build_interval_report(T), args.report)
    return EXIT_OK


def _parse_dims(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        dims = list(range(int(lo), int(hi) + 1))
    else:
        dims = [int(spec)]
    if not dims:
        raise ValueError(f"empty atom count range {spec!r}")
    return dims


def cmd_probe(args) -> int:
    from .wce import probe_norm_one_projections

    if args.p == "inf":
        print(
            "input error: space not strictly monotone; probe requires p < inf",
            file=sys.stderr,
        )
        return EXIT_INPUT
    try:
        if args.budget < 0:
            raise ValueError(f"negative budget {args.budget}")
        dims = _parse_dims(args.dims)
        findings = probe_norm_one_projections(args.p, dims, budget=args.budget)
    except ValueError as exc:  # from the budget, the --dims spec or the exponent
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = build_probe_report(args.p, dims, args.budget, findings)
    _emit(report, args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import format_summary, run_all

    results = run_all(seed=args.seed)
    sys.stdout.write(format_summary(results))
    if args.timings:
        for r in results:
            print(f"{r.number:>2} {r.name}: {r.seconds:.3f} s", file=sys.stderr)
        print(f"total: {sum(r.seconds for r in results):.3f} s", file=sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFTEST


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, and
    building it costs about a millisecond per call."""
    ap = argparse.ArgumentParser(
        prog="semiband",
        description="Exact analysis of disjointness-type operator properties",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="analyze an atomic operator file")
    a.add_argument("--input", required=True)
    a.add_argument("--report", default=None, help="write the report here (default stdout)")
    a.add_argument("--max-atoms", type=int, default=16)
    a.set_defaults(fn=cmd_analyze)

    i = sub.add_parser("interval", help="analyze a finite-rank interval operator file")
    i.add_argument("--input", required=True)
    i.add_argument("--report", default=None)
    i.set_defaults(fn=cmd_interval)

    p = sub.add_parser("probe", help="search norm-one projections for decomposition failures")
    p.add_argument("--p", required=True, help='norm exponent: "1", "2", "a/b" or "inf"')
    p.add_argument("--dims", default="2..3", help="atom counts, e.g. 2..3")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_probe)

    s = sub.add_parser("selftest", help="run the acceptance campaign")
    s.add_argument("--seed", type=int, default=1)
    s.add_argument(
        "--timings", action="store_true", help="print each criterion's wall seconds to stderr"
    )
    s.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValidationError, DimensionMismatchError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
