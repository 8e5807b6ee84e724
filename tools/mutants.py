"""Opt-in mutation check of the decision kernels and the witness replayers.

Each target is a top-level function of ``src/semiband`` with the test
files that must catch a change to it.  For every mutation site in the
function (a comparison flipped, ``and``/``or`` swapped, an ``if`` test
negated, a ``not`` dropped) the script writes one mutant into a temporary
copy of the tree, runs the target's test files there with ``-x``, and
counts the mutant killed when that run fails.  A surviving mutant that is
not on the list of accepted equivalent mutants is reported, and the exit
status is then 1.

Usage, from the repository root (not part of the test suite; the whole
set, 139 mutants, takes about 35 minutes on two cores)::

    python tools/mutants.py              # every target
    python tools/mutants.py replay       # targets whose name contains "replay"
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ATOMIC = ("tests/test_engine.py", "tests/test_operators.py", "tests/test_wce.py")
INTERVAL = ("tests/test_interval.py", "tests/test_engine.py")
ENGINE = ("tests/test_engine.py", "tests/test_interval.py", "tests/test_operators.py")

#: (module, function, test files that must kill its mutants): the witness
#: replayers, the decision kernels of both models and the engine under them
TARGETS = [
    ("operators", "replay_witness", ATOMIC),
    ("interval", "replay_frop_witness", INTERVAL),
    *(
        ("operators", name, ATOMIC)
        for name in (
            "is_projection", "is_band_preserving", "is_disjointness_preserving", "is_beta",
            "_row_classes", "_separating", "_semi_breach", "verify_sigma_closures", "_column_blocks",
        )
    ),
    *(
        ("interval", name, INTERVAL)
        for name in (
            "_walk", "pp_restrict", "pp_disjoint", "pp_band_contains", "integrate", "_bumps",
            "realize_range_support", "_semi_masks", "_first_bump_violation",
        )
    ),
    *(
        ("linalg", name, ENGINE)
        for name in (
            "lowest", "echelonize", "constrain", "block_groups", "support_masks", "_group_masks",
            "combine_generic", "realize",
        )
    ),
]

#: (function, mutation, original text) -> why no test can tell it apart
EQUIVALENT = {
    ("lowest", "flip < to <=", "den < 0"): "den is a product of nonzero pivots and denominators, never 0",
    ("integrate", "swap and/or", "a and b"): "the integral of a product with a zero polynomial is 0 either way",
}

FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}


def sites(fn: ast.FunctionDef) -> list[tuple[int, int, str, str]]:
    """(node index in ``ast.walk`` order, comparison index, mutation,
    original text) for every mutation site of the function."""
    out = []
    for idx, node in enumerate(ast.walk(fn)):
        text = ast.unparse(node)
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                out.append((idx, k, f"flip {SYMBOL[type(op)]} to {SYMBOL[FLIP[type(op)]]}", text))
        elif isinstance(node, ast.BoolOp):
            out.append((idx, 0, "swap and/or", text))
        elif isinstance(node, (ast.If, ast.IfExp)):
            out.append((idx, 0, "negate if", ast.unparse(node.test)))
        elif isinstance(node, ast.comprehension):
            out += [(idx, k, "negate if", ast.unparse(cond)) for k, cond in enumerate(node.ifs)]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((idx, 0, "drop not", text))
    return out


def mutate(fn: ast.FunctionDef, idx: int, k: int) -> ast.FunctionDef:
    fn = copy.deepcopy(fn)
    node = list(ast.walk(fn))[idx]
    if isinstance(node, ast.Compare):
        node.ops[k] = FLIP[type(node.ops[k])]()
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif isinstance(node, (ast.If, ast.IfExp)):
        node.test = ast.UnaryOp(ast.Not(), node.test)
    elif isinstance(node, ast.comprehension):
        node.ifs[k] = ast.UnaryOp(ast.Not(), node.ifs[k])
    else:  # a ``not``: its operand replaces it wherever it stands
        for parent in ast.walk(fn):
            for field, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, field, node.operand)
                elif isinstance(value, list):
                    value[:] = [node.operand if v is node else v for v in value]
    return ast.fix_missing_locations(fn)


def run_tests(tree: Path, tests: tuple[str, ...]) -> bool:
    """True when the test files pass in the temporary tree."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=600)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv: list[str]) -> int:
    targets = [t for t in TARGETS if not argv or any(a in t[1] for a in argv)]
    surprises = 0
    with tempfile.TemporaryDirectory(prefix="semiband-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests", "pyproject.toml"):
            src = ROOT / part
            (shutil.copytree if src.is_dir() else shutil.copy)(src, tree / part)
        for module, name, tests in targets:
            path = tree / "src" / "semiband" / f"{module}.py"
            original = path.read_text(encoding="utf-8")
            lines = original.splitlines(keepends=True)
            fn = next(
                n for n in ast.parse(original).body if isinstance(n, ast.FunctionDef) and n.name == name
            )
            start = min([fn.lineno, *(d.lineno for d in fn.decorator_list)]) - 1
            if not run_tests(tree, tests):
                print(f"{module}.{name}: the tests fail unmutated")
                return 2
            found = sites(fn)
            killed, survivors = 0, []
            for idx, k, what, text in found:
                body = ast.unparse(mutate(fn, idx, k)) + "\n"
                path.write_text("".join(lines[:start]) + body + "".join(lines[fn.end_lineno:]), encoding="utf-8")
                if run_tests(tree, tests):
                    survivors.append((what, text))
                else:
                    killed += 1
            path.write_text(original, encoding="utf-8")
            print(f"{module}.{name}: {killed} of {len(found)} mutants killed", flush=True)
            for what, text in survivors:
                reason = EQUIVALENT.get((name, what, text))
                if reason is None:
                    surprises += 1
                    print(f"  SURVIVED {what}: {text}")
                else:
                    print(f"  equivalent {what}: {text} ({reason})")
    print(f"{surprises} surviving mutant(s) outside the accepted list")
    return 1 if surprises else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
