"""Seeded input generator for the benchmark.

Self-contained on purpose: it uses neither ``semiband.generators`` nor the
oracles' matrix families nor the self-test, so editing those cannot change
the load.  Inputs are plain JSON documents in the formats of
``semiband analyze`` / ``semiband interval`` plus small dicts for library
ops.  Every draw comes from ``random.Random`` seeded with a string, so the
same (workload, seed, op index) gives the same input in any process.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

P_VALUES = ("1", "2", "3/2", "inf")


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{index}")


def rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def small_rat(rng: random.Random, nonzero: bool = True) -> Fraction:
    while True:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if x or not nonzero:
            return x


def small_int(rng: random.Random, lo: int = -6, hi: int = 6) -> int:
    while True:
        x = rng.randint(lo, hi)
        if x:
            return x


def weights(rng: random.Random, n: int, weighted: bool) -> list[Fraction]:
    if not weighted:
        return [Fraction(1)] * n
    return [rng.choice((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))) for _ in range(n)]


def partition(rng: random.Random, n: int, blocks: int) -> list[list[int]]:
    """``blocks`` disjoint blocks covering atoms 1..n, of sizes that differ
    by at most one, with random members."""
    atoms = list(range(1, n + 1))
    rng.shuffle(atoms)
    return sorted(sorted(atoms[j::blocks]) for j in range(blocks))


# -- atomic matrices ----------------------------------------------------------


def low_rank(rng: random.Random, n: int, rank: int) -> list[list[Fraction]]:
    """A product of an n x rank and a rank x n factor with small entries."""
    a = [[Fraction(small_int(rng)) for _ in range(rank)] for _ in range(n)]
    b = [[small_rat(rng) for _ in range(n)] for _ in range(rank)]
    return [[sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(n)] for i in range(n)]


def dense(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [[small_rat(rng) for _ in range(n)] for _ in range(n)]


def wce_form(rng: random.Random, n: int, blocks: int) -> dict:
    """A weighted conditional expectation form T = sum_j psi_j(f) u_j.

    Each u_j has full support on its block and each psi_j is a nonzero
    functional inside it, so the matrix is semi band preserving by
    construction and decomposes back into exactly this form.
    """
    parts = partition(rng, n, blocks)
    us, psis = [], []
    for b in parts:
        u = [Fraction(0)] * n
        for a in b:
            u[a - 1] = small_rat(rng)
        psi = [Fraction(0)] * n
        while not any(psi):
            for a in b:
                psi[a - 1] = small_rat(rng) if rng.random() < 0.8 else Fraction(0)
        us.append(u)
        psis.append(psi)
    return {"n": n, "blocks": parts, "u": us, "psi": psis}


def form_matrix(form: dict) -> list[list[Fraction]]:
    n = form["n"]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for u, psi in zip(form["u"], form["psi"]):
        for i in range(n):
            if u[i]:
                for j in range(n):
                    rows[i][j] += u[i] * psi[j]
    return rows


def perturb_off_block(rng: random.Random, form: dict) -> tuple[list[list[Fraction]], tuple[int, int]]:
    """The form's matrix plus one nonzero entry (row, col) with the row
    outside the block of the column; such an entry breaks SBP."""
    n = form["n"]
    block_of = {a: set(b) for b in form["blocks"] for a in b}
    cells = [(r, c) for c in range(1, n + 1) for r in range(1, n + 1) if r not in block_of.get(c, ())]
    r, c = rng.choice(cells)
    rows = form_matrix(form)
    rows[r - 1][c - 1] += small_rat(rng)
    if rows[r - 1][c - 1] == 0:
        rows[r - 1][c - 1] = Fraction(1)
    return rows, (r, c)


def operator_doc(n: int, p: str, w: list[Fraction], rows: list[list[Fraction]]) -> dict:
    """An operator file as ``semiband analyze`` reads it."""
    return {
        "schema": 1,
        "space": {"n": n, "norm": {"p": p, "weights": [rat(x) for x in w]}},
        "matrix": [[rat(x) for x in row] for row in rows],
    }


@lru_cache(maxsize=None)
def sparse_family(n: int, max_nnz: int) -> tuple:
    """Every n x n matrix with at most ``max_nnz`` nonzero entries from
    {-1, 1/2, 1}, one per class under simultaneous relabeling of rows and
    columns (the class's least flattened form), in a fixed order."""
    values = (Fraction(-1), Fraction(1, 2), Fraction(1))
    relabel = [[p[i] * n + p[j] for i in range(n) for j in range(n)] for p in itertools.permutations(range(n))]
    classes = set()
    for nnz in range(max_nnz + 1):
        for cells in itertools.combinations(range(n * n), nnz):
            for vals in itertools.product(values, repeat=nnz):
                flat = [Fraction(0)] * (n * n)
                for c, v in zip(cells, vals):
                    flat[c] = v
                classes.add(min(tuple(flat[k] for k in r) for r in relabel))
    return tuple(sorted(classes))


def relabeled(rng: random.Random, flat: tuple, n: int) -> list[list[Fraction]]:
    """The matrix ``flat`` (row-major) under a random simultaneous
    relabeling of rows and columns; SBP and SCP do not change."""
    p = list(range(n))
    rng.shuffle(p)
    return [[flat[p[i] * n + p[j]] for j in range(n)] for i in range(n)]


# -- interval operators -------------------------------------------------------


def _grid(rng: random.Random, pieces: int) -> list[Fraction]:
    """``pieces`` + 1 breakpoints 0 < ... < 1 on a grid of 1/(4*pieces)."""
    den = 4 * pieces
    inner = sorted(rng.sample(range(1, den), pieces - 1))
    return [Fraction(0), *(Fraction(k, den) for k in inner), Fraction(1)]


def _poly(rng: random.Random, degree: int) -> list[Fraction]:
    return [Fraction(small_int(rng, -4, 4)) for _ in range(degree + 1)]


def _pw(pts: list[Fraction], polys: dict[int, list[Fraction]]) -> dict:
    return {
        "pieces": [
            {"from": rat(lo), "to": rat(hi), "coeffs": [rat(c) for c in polys.get(i, [])]}
            for i, (lo, hi) in enumerate(zip(pts, pts[1:]))
        ]
    }


def frop_doc(rng: random.Random, kind: str, pieces: int, rank: int, degree: int) -> dict:
    """A finite-rank operator file as ``semiband interval`` reads it.

    Every nonzero polynomial has exactly the given degree, so the work an
    op takes depends on its shape more than on the seed.  ``block``: the
    pieces fall into ``rank`` blocks of near-equal size; one term per block
    has kernel and image nonzero on every piece of it, so both properties
    hold and the range supports are the 2^rank unions of blocks.  ``leak``:
    the same with one image extended onto a piece of another block, which
    breaks semi band preservation.  ``dense``: each kernel and image sits
    on a random half of the pieces; fails early.
    """
    pts = _grid(rng, pieces)
    idx = list(range(pieces))
    rng.shuffle(idx)
    terms = []
    if kind in ("block", "leak"):
        blocks = [idx[j::rank] for j in range(rank)]
        for b in blocks:
            terms.append([{i: _poly(rng, degree) for i in b}, {i: _poly(rng, degree) for i in b}])
        if kind == "leak":
            src, dst = rng.sample(range(rank), 2)
            terms[src][1][rng.choice(blocks[dst])] = _poly(rng, degree)
    elif kind == "dense":
        for _ in range(rank):
            kernel = {i: _poly(rng, degree) for i in rng.sample(idx, pieces // 2)}
            image = {i: _poly(rng, degree) for i in rng.sample(idx, pieces // 2)}
            terms.append([kernel, image])
    else:
        raise ValueError(f"unknown interval kind {kind!r}")
    return {
        "schema": 1,
        "terms": [{"kernel": _pw(pts, k), "image": _pw(pts, im)} for k, im in terms],
    }
