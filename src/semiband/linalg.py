"""The exact support engine shared by the atomic and interval models.

A subspace is held as a list of echelon items ``(vec, mask, pre)``: ``vec``
is a rational coordinate vector, ``mask`` the set of blocks on which it is
nonzero, and ``pre`` passenger coordinates carried through every
elimination step (preimages for atoms, combination coefficients for
pieces, empty when unused).  Blocks are read through a coordinate -> bit
table: one coordinate per atom, one per polynomial coefficient of a piece.

A set of blocks is the support of some element of a subspace exactly when
the elements vanishing on every other block are not all zero on one of
its blocks; over the rationals a finite union of proper subspaces cannot
cover a subspace, so this test is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

Vec = tuple[Fraction, ...]


class Item(NamedTuple):
    vec: Vec
    mask: int
    pre: Vec


class Blocks:
    """A coordinate -> block bit table and, per block, its coordinates."""

    __slots__ = ("bits", "coords")

    def __init__(self, bits: Iterable[int]):
        self.bits = tuple(bits)
        coords: dict[int, list[int]] = {}
        for c, b in enumerate(self.bits):
            coords.setdefault(b, []).append(c)
        self.coords = {b: tuple(cs) for b, cs in sorted(coords.items())}

    @staticmethod
    def atoms(n: int) -> "Blocks":
        return Blocks(1 << i for i in range(n))

    def mask(self, v: Iterable[Fraction]) -> int:
        m = 0
        for x, b in zip(v, self.bits):
            if x:
                m |= b
        return m


def echelonize(rows: Iterable[tuple[Vec, Vec]], blocks: Blocks) -> list[Item]:
    """An echelon spanning set of the rows ``(vec, pre)``.

    Each row is reduced against the earlier pivots in the order they were
    found; a nonzero remainder becomes a pivot at its first nonzero
    coordinate.
    """
    pivots: dict[int, Item] = {}
    for v, pre in rows:
        v, pre = list(v), list(pre)
        for piv, it in pivots.items():
            c = v[piv]
            if c:
                r = c / it.vec[piv]
                v = [a - r * b for a, b in zip(v, it.vec)]
                pre = [a - r * b for a, b in zip(pre, it.pre)]
        m = blocks.mask(v)
        if m:
            lead = next(i for i, x in enumerate(v) if x)
            pivots[lead] = Item(tuple(v), m, tuple(pre))
    return list(pivots.values())


def constrain(items: list[Item], bit: int, blocks: Blocks) -> list[Item]:
    """Intersect the span with the subspace vanishing on one block, one
    coordinate at a time: the first item live there is the pivot and
    leaves the list."""
    for c in blocks.coords[bit]:
        pivot = None
        out = []
        for it in items:
            if not (it.mask & bit and it.vec[c]):
                out.append(it)
            elif pivot is None:
                pivot = it
            else:
                r = it.vec[c] / pivot.vec[c]
                v = tuple(a - r * b for a, b in zip(it.vec, pivot.vec))
                m = blocks.mask(v)
                if m:
                    out.append(Item(v, m, tuple(a - r * b for a, b in zip(it.pre, pivot.pre))))
        items = out
    return items


def union_mask(items: list[Item]) -> int:
    m = 0
    for it in items:
        m |= it.mask
    return m


def support_masks(items: list[Item], blocks: Blocks) -> frozenset[int]:
    """The block masks of all elements of span(items).

    When the span has as many dimensions as live coordinates it holds every
    vector on them, so every set of live blocks is a support.  Otherwise
    the sets are found by constraining blocks in ascending bit order,
    skipping blocks the current span already misses.
    """
    full = union_mask(items)
    order = [b for b in blocks.coords if full & b]
    live = 0
    for it in items:
        for c, x in enumerate(it.vec):
            if x:
                live |= 1 << c
    if len(items) == live.bit_count():
        masks = [0]
        for b in order:
            masks += [m | b for m in masks]
        return frozenset(masks)
    results: set[int] = set()

    def rec(cur: list[Item], start: int) -> None:
        m = union_mask(cur)
        results.add(m)
        for idx in range(start, len(order)):
            bit = order[idx]
            if m & bit:
                rec(constrain(cur, bit, blocks), idx + 1)

    rec(items, 0)
    return frozenset(results)


def combine_generic(items: list[Item], blocks: Blocks) -> tuple[Vec, Vec]:
    """A deterministic element of span(items) live on the union of their
    masks, with its passenger coordinates.

    Items are added one at a time with the first multiplier alpha = 1, 2, ...
    that cancels no block already covered; trying one more alpha than there
    are blocks suffices, since each covered block rules out at most one.
    """
    acc_v = (Fraction(0),) * len(blocks.bits)
    acc_p = (Fraction(0),) * (len(items[0].pre) if items else 0)
    acc_mask = 0
    for it in items:
        if it.mask | acc_mask == acc_mask:
            continue
        target = acc_mask | it.mask
        for a in range(1, len(blocks.coords) + 2):
            cand = tuple(x + a * y for x, y in zip(acc_v, it.vec))
            if blocks.mask(cand) == target:
                acc_v = cand
                acc_p = tuple(x + a * y for x, y in zip(acc_p, it.pre))
                acc_mask = target
                break
        else:  # pragma: no cover - impossible by the counting argument
            raise AssertionError("no cancellation-free combination found")
    return acc_v, acc_p
