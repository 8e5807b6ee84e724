"""The exact support engine shared by the atomic and interval models.

It echelonizes, constrains, enumerates supports and realizes them, for
the Σ and range listings and the realizers; it decides no law itself.

A subspace is held as a list of echelon items ``(vec, mask, pre, den)``:
``vec`` is a coordinate vector and ``pre`` passenger coordinates carried
through every elimination step (preimages for atoms, combination
coefficients for pieces, empty when unused), both integer numerators over
the one positive denominator ``den``; ``mask`` is the set of blocks on
which ``vec`` is nonzero.  Elimination cross-multiplies and divides each
new row by the gcd of its numerators and denominator, so every item is
the rational vector a ``Fraction`` elimination would give, computed
without ``Fraction`` arithmetic.  Rows enter as items, from rationals
(``item``, the atomic columns) or from integers over a denominator
(``lowest``, the interval bump images); fractions appear otherwise only
where vectors leave (``fractions``).  Blocks are read
through a coordinate -> bit table: one coordinate per atom, one per
polynomial coefficient of a piece.

A set of blocks is the support of some element of a subspace exactly when
the elements vanishing on every other block are not all zero on one of
its blocks; over the rationals a finite union of proper subspaces cannot
cover a subspace, so this test is exact.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .errors import BudgetExceededError

#: Most live blocks (atoms or pieces) a range may have for its supports to
#: be enumerated: up to 2**20 feasibility probes.
MAX_SUPPORT_BLOCKS = 20


def per_operator(fn: Callable) -> Callable:
    """Keep ``fn(T)`` on the operator ``T`` itself, so each part of the
    engine's state is built once per operator and freed with it.

    The result goes into the instance ``__dict__`` directly, which frozen
    dataclasses still have (as ``functools.cached_property`` does); a call
    that raises stores nothing.  Results must not be mutated.
    """
    key = f"_{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def kept(T):
        memo = T.__dict__
        if key not in memo:
            memo[key] = fn(T)
        return memo[key]

    return kept


class Item(NamedTuple):
    vec: tuple[int, ...]
    mask: int
    pre: tuple[int, ...]
    den: int


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

    def mask(self, v: Iterable) -> int:
        m = 0
        for x, b in zip(v, self.bits):
            if x:
                m |= b
        return m


def item(vec: Sequence, pre: Sequence, blocks: Blocks) -> Item:
    """The item of a rational row ``(vec, pre)``, over the least common
    denominator of its entries (which leaves it in lowest terms)."""
    xs = [Fraction(x) for x in (*vec, *pre)]
    den = math.lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (den // x.denominator) for x in xs]
    v = tuple(ints[: len(vec)])
    return Item(v, blocks.mask(v), tuple(ints[len(vec):]), den)


def fractions(ints: Iterable[int], den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(x, den) for x in ints)


def lowest(vec: list[int], pre: list[int], den: int, blocks: Blocks) -> Item:
    """The item (vec, pre) / den in lowest terms, denominator positive."""
    g = math.gcd(*vec, *pre, den)
    if den < 0:
        g = -g
    if g != 1:
        vec = [x // g for x in vec]
        pre = [x // g for x in pre]
        den //= g
    return Item(tuple(vec), blocks.mask(vec), tuple(pre), den)


def _eliminate(it: Item, pivot: Item, c: int, blocks: Blocks) -> Item:
    """it - (it[c] / pivot[c]) pivot, zero at coordinate c.

    With it = X/d and pivot = Y/e this is (Y[c] X - X[c] Y) / (d Y[c]):
    the pivot's own denominator cancels.
    """
    a, b = pivot.vec[c], it.vec[c]
    vec = [a * x - b * y for x, y in zip(it.vec, pivot.vec)]
    pre = [a * x - b * y for x, y in zip(it.pre, pivot.pre)]
    return lowest(vec, pre, it.den * a, blocks)


def echelonize(items: Iterable[Item], blocks: Blocks) -> list[Item]:
    """An echelon spanning set of the items' span.

    Each item is reduced against the earlier pivots in the order they were
    found; a nonzero remainder becomes a pivot at its first nonzero
    coordinate.
    """
    pivots: dict[int, Item] = {}
    for it in items:
        for piv, p in pivots.items():
            if it.vec[piv]:
                it = _eliminate(it, p, piv, blocks)
        if it.mask:
            lead = next(i for i, x in enumerate(it.vec) if x)
            pivots[lead] = it
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
                it = _eliminate(it, pivot, c, blocks)
                if it.mask:
                    out.append(it)
        items = out
    return items


def union_mask(items: list[Item]) -> int:
    m = 0
    for it in items:
        m |= it.mask
    return m


def block_groups(items: list[Item]) -> list[list[Item]]:
    """The items split into groups whose masks are pairwise disjoint, each
    as small as that allows: an item joins, and merges, every group its
    mask meets.  The span is the direct sum of the groups' spans."""
    groups: list[tuple[int, list[Item]]] = []
    for it in items:
        mask, members, apart = it.mask, [it], []
        for g in groups:
            if g[0] & mask:
                mask |= g[0]
                members += g[1]
            else:
                apart.append(g)
        groups = [*apart, (mask, members)]
    return [members for _, members in groups]


def support_masks(items: list[Item], blocks: Blocks) -> tuple[frozenset[int], frozenset[int]]:
    """The block masks of all elements of span(items), and the masks at
    which the span of the elements supported inside is one-dimensional.

    The span is the direct sum of its block groups' spans (``block_groups``),
    so its masks are the unions of one mask of each group.  The elements
    supported inside a mask are the direct sum of those inside its part in
    each group, so the one-dimensional masks are those of the groups.  The
    groups' masks are disjoint, so the unions are distinct and are built
    as one list.  A span live on more than ``MAX_SUPPORT_BLOCKS`` blocks in
    all is refused.

    A one-dimensional mask is minimal among the nonzero supports.  When
    every block is one coordinate (an atom) the converse holds too: two
    independent elements supported inside a mask combine to one that
    vanishes on a coordinate of it.  A wider block breaks the converse, as
    a two-coordinate block carrying the whole plane is a minimal support
    with a two-dimensional span.
    """
    full = union_mask(items)
    if full.bit_count() > MAX_SUPPORT_BLOCKS:
        raise BudgetExceededError(
            f"support enumeration over {full.bit_count()} live blocks exceeds "
            f"the budget of {MAX_SUPPORT_BLOCKS}"
        )
    masks = [0]
    lines: list[int] = []
    for group in block_groups(items):
        gmasks, glines = _group_masks(group, blocks)
        masks = [m | g for g in gmasks for m in masks]
        lines += glines
    return frozenset(masks), frozenset(lines)


def _group_masks(items: list[Item], blocks: Blocks) -> tuple[Collection[int], Collection[int]]:
    """``support_masks`` of one block group.

    When the span has as many dimensions as live coordinates it holds every
    vector on them, so every set of live blocks is a support and the
    one-dimensional masks are the live blocks with one live coordinate.
    Otherwise the sets are found by constraining blocks in ascending bit
    order, skipping blocks the current span already misses; the span
    constrained to vanish off a mask is the same whichever path reached it.
    Masks do not depend on scale, so the passengers and denominators are
    dropped first.
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
        single = [b for b in order if sum(live >> c & 1 for c in blocks.coords[b]) == 1]
        return masks, single
    results: set[int] = set()
    lines: set[int] = set()

    def rec(cur: list[Item], start: int) -> None:
        m = union_mask(cur)
        results.add(m)
        if len(cur) == 1:
            lines.add(m)
        for idx in range(start, len(order)):
            bit = order[idx]
            if m & bit:
                rec(constrain(cur, bit, blocks), idx + 1)

    rec([Item(it.vec, it.mask, (), 1) for it in items], 0)
    return results, lines


def combine_generic(items: list[Item], blocks: Blocks) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """A deterministic element of span(items) live on the union of their
    masks, with its passenger coordinates, as fractions.

    Items are added one at a time with the first multiplier alpha = 1, 2, ...
    that cancels no block already covered; trying one more alpha than there
    are blocks suffices, since each covered block rules out at most one.
    """
    acc = Item((0,) * len(blocks.bits), 0, (0,) * (len(items[0].pre) if items else 0), 1)
    for it in items:
        if it.mask | acc.mask == acc.mask:
            continue
        target = acc.mask | it.mask
        # acc + a it = (it.den acc.vec + a acc.den it.vec) / (acc.den it.den)
        base = [x * it.den for x in acc.vec]
        for a in range(1, len(blocks.coords) + 2):
            step = a * acc.den
            cand = [x + step * y for x, y in zip(base, it.vec)]
            if blocks.mask(cand) == target:
                pre = [x * it.den + step * y for x, y in zip(acc.pre, it.pre)]
                acc = lowest(cand, pre, acc.den * it.den, blocks)
                break
        else:  # pragma: no cover - impossible by the counting argument
            raise AssertionError("no cancellation-free combination found")
    return fractions(acc.vec, acc.den), fractions(acc.pre, acc.den)


def realize(
    items: list[Item], target: int, blocks: Blocks
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None:
    """``combine_generic`` of the span constrained to vanish on every live
    block outside ``target``, or None when that span is not live on all of
    ``target`` (no element of span(items) has it as its support).

    The result depends on the items' order, since ``constrain`` pivots on
    the first live item at each coordinate.
    """
    live = union_mask(items)
    for bit in blocks.coords:
        if live & ~target & bit:
            items = constrain(items, bit, blocks)
    if union_mask(items) != target:
        return None
    return combine_generic(items, blocks)
