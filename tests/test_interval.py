import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semiband import linalg
from semiband.atomic import AtomicSpace, SupportSet
from semiband.errors import BudgetExceededError, UnachievableSupportError, ValidationError
from semiband.interval import (
    EMPTY_REGION,
    FULL_REGION,
    _mask_region,
    _bumps,
    _range_enumeration,
    _segments,
    _semi_masks,
    FiniteRankOp,
    FropWitness,
    IntervalRegion,
    PiecewisePoly,
    frop_apply,
    frop_is_sbp,
    frop_is_scp,
    frop_moments,
    frop_range_supports,
    integrate,
    make_full_support_projection,
    make_sbp_not_scp_operator,
    poly_add,
    poly_integral,
    poly_mul,
    poly_scale,
    pp_band_contains,
    pp_disjoint,
    pp_map,
    pp_restrict,
    pp_support,
    rank_one_frop,
    realize_range_support,
    replay_frop_witness,
)
from semiband.operators import Operator, enumerate_sigma, is_sbp, is_scp
from semiband.oracles import nullspace, random_piecewise, sampled_frop_check
from test_engine import _law_scan

HALF = Fraction(1, 2)


def breakpoints(f: PiecewisePoly) -> list[Fraction]:
    return [f.pieces[0][0], *(hi for _, hi, _ in f.pieces)]


def poly_at(f: PiecewisePoly, t: Fraction) -> tuple:
    """The polynomial of the piece whose half-open span contains t."""
    for lo, hi, c in f.pieces:
        if lo <= t < hi:
            return c
    return f.pieces[-1][2]


def sympy_integral(f: PiecewisePoly, g: PiecewisePoly) -> Fraction:
    """Independent oracle: symbolic integration of the product."""
    t = sympy.Symbol("t")
    total = sympy.Integer(0)
    pts = sorted(set(breakpoints(f)) | set(breakpoints(g)))
    for lo, hi in zip(pts, pts[1:]):
        fp = sum(sympy.Rational(c) * t**i for i, c in enumerate(poly_at(f, lo)))
        gp = sum(sympy.Rational(c) * t**i for i, c in enumerate(poly_at(g, lo)))
        total += sympy.integrate(fp * gp, (t, sympy.Rational(lo), sympy.Rational(hi)))
    return Fraction(int(total.p), int(total.q))


def t_on(lo, hi):
    return PiecewisePoly.on_interval(lo, hi, (0, 1))


def test_piecewise_validation():
    with pytest.raises(ValidationError):
        PiecewisePoly.from_pieces([(0, HALF, (1,))])  # gap at the end
    with pytest.raises(ValidationError):
        PiecewisePoly.from_pieces([(0, HALF, (1,)), (Fraction(3, 4), 1, ())])
    with pytest.raises(ValidationError):
        PiecewisePoly.from_pieces([(0, 0, (1,)), (0, 1, ())])
    with pytest.raises(BudgetExceededError):
        PiecewisePoly.from_pieces([(0, 1, tuple([1] * 18))])


def test_canonicalization_merges_and_is_idempotent():
    f = PiecewisePoly.from_pieces([(0, HALF, (1,)), (HALF, 1, (1,))])
    assert len(f.pieces) == 1
    g = PiecewisePoly.from_pieces(f.pieces)
    assert g == f


def test_pp_support_examples():
    phi2 = t_on(0, HALF)
    assert pp_support(phi2) == IntervalRegion.of((0, HALF))
    assert pp_support(PiecewisePoly.const(1)) == FULL_REGION
    assert pp_support(PiecewisePoly.zero()) == EMPTY_REGION


def test_pp_disjoint_modulo_null():
    phi2 = t_on(0, HALF)
    right = PiecewisePoly.indicator(HALF, 1)
    assert pp_disjoint(phi2, right)  # single-point overlap is null
    assert not pp_disjoint(phi2, PiecewisePoly.const(1))
    assert pp_disjoint(PiecewisePoly.zero(), PiecewisePoly.const(1))


def test_pp_band_contains():
    g = PiecewisePoly.indicator(0, HALF)
    assert pp_band_contains(g, t_on(0, HALF))
    assert not pp_band_contains(t_on(0, HALF), PiecewisePoly.const(1))
    assert pp_band_contains(PiecewisePoly.zero(), PiecewisePoly.zero())


def test_integrate_examples_against_sympy():
    w = PiecewisePoly.indicator(0, HALF)
    f = PiecewisePoly.from_pieces([(0, 1, (0, 1))])
    assert integrate(w, f) == sympy_integral(w, f) == Fraction(1, 8)
    w2 = t_on(0, HALF)
    f2 = PiecewisePoly.from_pieces([(0, 1, (Fraction(-1, 4), 1))])
    assert integrate(w2, f2) == sympy_integral(w2, f2) == Fraction(1, 96)
    assert integrate(PiecewisePoly.const(1), PiecewisePoly.zero()) == 0


def test_integrate_random_against_sympy():
    rng = random.Random(3)
    for _ in range(12):
        f = random_piecewise(rng, max_pieces=4, max_degree=3)
        g = random_piecewise(rng, max_pieces=4, max_degree=3)
        assert integrate(f, g) == sympy_integral(f, g)


def test_integrate_bilinear_and_disjoint():
    rng = random.Random(4)
    for _ in range(8):
        w = random_piecewise(rng, max_pieces=3)
        f = random_piecewise(rng, max_pieces=3)
        g = random_piecewise(rng, max_pieces=3)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        f_cg = pp_map(lambda a, b: poly_add(a, poly_scale(c, b)), f, g)
        assert integrate(w, f_cg) == integrate(w, f) + c * integrate(w, g)
    a = PiecewisePoly.on_interval(0, HALF, (1, 2))
    b = PiecewisePoly.on_interval(HALF, 1, (3,))
    assert pp_disjoint(a, b)
    assert integrate(a, b) == 0


# -- the one refinement walk against the region algebra and the termwise sum --


@settings(max_examples=150)
@given(st.integers(0, 2**32))
def test_support_tests_equal_the_region_algebra(seed):
    # f against g, and f cut down off and onto supp g, so that both
    # verdicts of both tests occur
    rng = random.Random(seed)
    f, g = random_piecewise(rng), random_piecewise(rng)
    sg = pp_support(g)
    for h in (f, pp_restrict(f, sg.complement()), pp_restrict(f, sg)):
        sh = pp_support(h)
        assert pp_disjoint(h, g) == pp_disjoint(g, h) == sh.difference(sg.complement()).is_empty
        assert pp_band_contains(g, h) == sg.contains(sh)
        assert pp_band_contains(h, g) == sh.contains(sg)


def _termwise_apply(T, f):
    """Reference: Tf summed term by term, one whole-function rebuild per
    term whose moment is nonzero."""
    out = PiecewisePoly.zero()
    for w, phi in T.terms:
        c = integrate(w, f)
        if c:
            out = pp_map(lambda a, b: poly_add(a, poly_scale(c, b)), out, phi)
    return out


@settings(max_examples=150)
@given(st.integers(0, 2**32), st.integers(0, 4))
def test_frop_apply_equals_the_termwise_sum(seed, rank):
    rng = random.Random(seed)
    T = _random_frop(rng, terms=rank)  # rank 0 is the zero-term operator
    f = random_piecewise(rng)
    assert frop_apply(T, f) == _termwise_apply(T, f)


def test_frop_apply_builds_one_function(monkeypatch):
    built = []
    post_init = PiecewisePoly.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    rng = random.Random(5)
    f = PiecewisePoly.indicator(0, Fraction(1, 3))
    ops = {
        rank: FiniteRankOp.of(*((PiecewisePoly.const(k + 1), random_piecewise(rng)) for k in range(rank)))
        for rank in (1, 3, 6)
    }
    monkeypatch.setattr(PiecewisePoly, "__post_init__", counted)
    for rank, T in ops.items():
        assert all(frop_moments(T, f))  # every term is live
        built.clear()
        frop_apply(T, f)
        assert len(built) == 1, rank


def frop_pair():
    return make_sbp_not_scp_operator()


def test_frop_apply_examples():
    T = frop_pair()
    f = PiecewisePoly.indicator(0, HALF)
    got = frop_apply(T, f)
    assert got == PiecewisePoly.from_pieces([(0, HALF, (1, Fraction(1, 8))), (HALF, 1, (1,))])
    g = PiecewisePoly.indicator(HALF, 1)
    assert frop_apply(T, g).is_zero()
    assert frop_apply(FiniteRankOp.of(), f).is_zero()


def test_frop_range_supports():
    T = frop_pair()
    assert set(frop_range_supports(T)) == {
        EMPTY_REGION,
        IntervalRegion.of((0, HALF)),
        FULL_REGION,
    }
    B = make_full_support_projection()
    assert set(frop_range_supports(B)) == {EMPTY_REGION, FULL_REGION}
    assert frop_range_supports(FiniteRankOp.of()) == (EMPTY_REGION,)


def test_block_operator_range_supports_are_the_unions_of_blocks():
    # one term per block of interleaved pieces, its kernel and image of
    # degree one on every piece of the block: each block is a group of its
    # own, and the range supports are all 2^rank unions of blocks
    pieces, rank = 9, 3
    grid = [Fraction(i, pieces) for i in range(pieces + 1)]
    blocks = [range(j, pieces, rank) for j in range(rank)]

    def on(block, c0, c1):
        return PiecewisePoly.from_pieces(
            (grid[i], grid[i + 1], (c0 + i, c1) if i in block else ()) for i in range(pieces)
        )

    T = FiniteRankOp.of(*((on(b, 1, 1), on(b, 2, -3)) for b in blocks))
    unions = {
        IntervalRegion.of(*((grid[i], grid[i + 1]) for b in pick for i in b))
        for r in range(rank + 1)
        for pick in itertools.combinations(blocks, r)
    }
    supports = frop_range_supports(T)
    assert len(supports) == 2**rank and set(supports) == unions


def test_range_supports_complement_escape():
    # the relative complement [1/2,1] of [0,1/2] in [0,1] is not attained:
    # the nonatomic model does not obey the complement closure law
    T = frop_pair()
    assert IntervalRegion.of((HALF, 1)) not in frop_range_supports(T)


def frop_image_subspace(T, region):
    """Reference: a basis of the moment vectors (int w_k f)_k attainable by
    functions f supported in the region, as the orthogonal complement of
    the kernel combinations vanishing a.e. there."""
    m = len(T.terms)
    if m == 0 or region.is_empty:
        return []
    pts = {Fraction(0), Fraction(1)}
    for w, _ in T.terms:
        pts.update(breakpoints(w))
    for lo, hi in region.intervals:
        pts.add(lo)
        pts.add(hi)
    spts = sorted(pts)
    rows = []
    for lo, hi in zip(spts, spts[1:]):
        if not any(blo <= lo and hi <= bhi for blo, bhi in region.intervals):
            continue
        polys = [poly_at(w, lo) for w, _ in T.terms]
        deg = max((len(p) for p in polys), default=0)
        for d in range(deg):
            rows.append(tuple(polys[k][d] if d < len(polys[k]) else Fraction(0) for k in range(m)))
    return nullspace(nullspace(rows, m), m)


def test_frop_image_subspace():
    T = frop_pair()
    assert frop_image_subspace(T, IntervalRegion.of((HALF, 1))) == []
    full = frop_image_subspace(T, IntervalRegion.of((0, Fraction(1, 4))))
    assert len(full) == 2
    assert frop_image_subspace(T, EMPTY_REGION) == []


def test_frop_is_sbp_scp_on_gallery():
    T = frop_pair()
    assert frop_is_sbp(T).holds
    scp = frop_is_scp(T)
    assert not scp.holds
    assert frop_moments(T, scp.witness.g) == (Fraction(0), Fraction(1, 96))
    assert replay_frop_witness(T, scp.witness)
    B = make_full_support_projection()
    assert frop_is_sbp(B).holds and frop_is_scp(B).holds
    Z = FiniteRankOp.of()
    assert frop_is_sbp(Z).holds and frop_is_scp(Z).holds


def test_full_support_projection_biorthogonal():
    B = make_full_support_projection()
    gram = [[integrate(w, phi) for _, phi in B.terms] for w, _ in B.terms]
    assert gram == [[1, 0], [0, 1]]
    # idempotent on its range: applying twice to range elements is identity
    for _, phi in B.terms:
        assert frop_apply(B, phi) == phi


def test_rank_one_bad_op_fails_sbp():
    T = rank_one_frop(PiecewisePoly.indicator(HALF, 1), PiecewisePoly.indicator(0, HALF))
    res = frop_is_sbp(T)
    assert not res.holds
    assert pp_support(res.witness.f) == IntervalRegion.of((HALF, 1))
    assert replay_frop_witness(T, res.witness)
    assert frop_is_scp(T).holds  # one-dimensional range


def test_realize_range_support():
    T = frop_pair()
    g = realize_range_support(T, IntervalRegion.of((0, HALF)))
    assert pp_support(frop_apply(T, g)) == IntervalRegion.of((0, HALF))
    with pytest.raises(UnachievableSupportError):
        realize_range_support(T, IntervalRegion.of((HALF, 1)))


def test_sampled_oracle_agrees_with_decisions():
    cases = [frop_pair(), make_full_support_projection()]
    for T in cases:
        for which, verdict in (("sbp", frop_is_sbp(T)), ("scp", frop_is_scp(T))):
            hit = sampled_frop_check(T, which, 250, seed=9)
            if hit is not None:
                assert not verdict.holds
    bad = rank_one_frop(PiecewisePoly.indicator(HALF, 1), PiecewisePoly.indicator(0, HALF))
    assert sampled_frop_check(bad, "sbp", 250, seed=9) is not None


def test_frop_sampler_rejects_an_unknown_law_before_drawing():
    for pairs in (0, 10):
        with pytest.raises(ValueError):
            sampled_frop_check(make_sbp_not_scp_operator(), "bp", pairs, 1)


def test_image_support_inside_image_union():
    rng = random.Random(8)
    T = frop_pair()
    union = pp_support(T.terms[0][1]).union(pp_support(T.terms[1][1]))
    for _ in range(20):
        f = random_piecewise(rng, max_pieces=4)
        assert union.contains(pp_support(frop_apply(T, f)))


def _random_frop(rng, terms=2):
    return FiniteRankOp.of(
        *(
            (random_piecewise(rng, max_pieces=3, max_degree=2),
             random_piecewise(rng, max_pieces=3, max_degree=2))
            for _ in range(terms)
        )
    )


def test_range_supports_two_sided_oracle():
    # lower side: sampled image supports appear in the table; upper side:
    # every tabulated support realizes exactly
    rng = random.Random(21)
    ops = [frop_pair(), make_full_support_projection()]
    ops += [_random_frop(rng, terms=1 + i % 2) for i in range(8)]
    for T in ops:
        table = set(frop_range_supports(T))
        for _ in range(25):
            f = random_piecewise(rng, max_pieces=3, max_degree=2)
            assert pp_support(frop_apply(T, f)) in table
        for region in table:
            g = realize_range_support(T, region)
            assert pp_support(frop_apply(T, g)) == region


def test_range_realizer_decides_achievability_as_the_enumeration_does():
    rng = random.Random(22)
    ops = [frop_pair(), make_full_support_projection()]
    ops += [_random_frop(rng, terms=1 + i % 2) for i in range(12)]
    unachievable = 0
    for T in ops:
        segs, masks = _segments(T), _range_enumeration(T)
        for m in range(1 << len(segs)):
            region = _mask_region(segs, m)
            try:
                g = realize_range_support(T, region)
            except UnachievableSupportError:
                assert m not in masks
                unachievable += 1
            else:
                assert m in masks
                assert pp_support(frop_apply(T, g)) == region
    assert unachievable
    # a region that is not a union of pieces is refused before any realizer
    with pytest.raises(UnachievableSupportError):
        realize_range_support(frop_pair(), IntervalRegion.of((0, Fraction(1, 3))))


def _nullspace_realizer(T, mask):
    """The bump combination realizing a piece mask, by the kernel route:
    ``nullspace`` of the bump images' coordinates off the mask, each basis
    vector's image recomputed and itemized, then the generic combination."""
    segs = _segments(T)
    if mask == 0:
        return PiecewisePoly.zero()
    bumps, blocks = _bumps(T)
    images = [linalg.fractions(b.item.vec, b.item.den) for b in bumps]
    rows = [
        tuple(image[c] for image in images)
        for bit, coords in blocks.coords.items()
        if not mask & bit
        for c in coords
    ]
    items = []
    for y in nullspace(rows, len(bumps)):
        v = tuple(
            sum((yb * image[c] for yb, image in zip(y, images) if yb), Fraction(0))
            for c in range(len(blocks.bits))
        )
        items.append(linalg.item(v, y, blocks))
    image, coeffs = linalg.combine_generic(items, blocks)
    if blocks.mask(image) != mask:
        raise UnachievableSupportError(f"piece mask {mask:b} not achievable")
    per_piece = [[] for _ in segs]
    for b, c in zip(bumps, coeffs):
        per_piece[b.piece].append(c)
    return PiecewisePoly.from_pieces((lo, hi, cs) for (lo, hi, _), cs in zip(segs, per_piece))


def test_range_realizer_equals_the_nullspace_reference():
    rng = random.Random(23)
    ops = [frop_pair(), make_full_support_projection()]
    ops += [_random_frop(rng, terms=1 + i % 3) for i in range(40)]
    outcomes = set()
    for T in ops:
        segs = _segments(T)
        n = len(segs)
        masks = range(1 << n) if n <= 6 else rng.sample(range(1 << n), 1 << 6)
        for m in masks:
            try:
                want = _nullspace_realizer(T, m)
            except UnachievableSupportError:
                with pytest.raises(UnachievableSupportError):
                    realize_range_support(T, _mask_region(segs, m))
                outcomes.add(False)
            else:
                assert realize_range_support(T, _mask_region(segs, m)) == want
                outcomes.add(m != 0)
    assert outcomes == {False, True}


# -- the integer bump images and the mask listing against the Fraction route --

GRID = [Fraction(k, 6) for k in range(7)]
COEFFS = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7)])


@st.composite
def _piecewise(draw):
    cuts = draw(st.lists(st.sampled_from(GRID[1:-1]), max_size=3, unique=True))
    pts = [0, *sorted(cuts), 1]
    return PiecewisePoly.from_pieces(
        (lo, hi, draw(st.lists(COEFFS, max_size=3))) for lo, hi in zip(pts, pts[1:])
    )


@st.composite
def _frops(draw):
    """Random operators; with a twin term on the first kernel whose image
    negates the first image's leading coefficients, so that the leading
    coefficients of every bump image cancel where only these two act."""
    terms = [(draw(_piecewise()), draw(_piecewise())) for _ in range(draw(st.integers(0, 3)))]
    if terms and draw(st.booleans()):
        w, phi = terms[0]
        twin = PiecewisePoly.from_pieces(
            (lo, hi, (*draw(st.lists(COEFFS, min_size=len(c) - 1, max_size=len(c) - 1)), -c[-1]) if c else ())
            for lo, hi, c in phi.pieces
        )
        terms.append((w, twin))
    return FiniteRankOp(tuple(terms))


def _combine(coeffs, polys):
    acc = ()
    for c, p in zip(coeffs, polys):
        if c:
            acc = poly_add(acc, poly_scale(c, p))
    return acc


def _fraction_bump_items(T):
    """Reference bumps by the Fraction route: each moment a polynomial
    integral, each image a Fraction combination of the phi_k per piece,
    coordinates padded to the widest image on each piece, then itemized."""
    segs = _segments(T)
    phis = [[poly_at(phi, lo) for _, phi in T.terms] for lo, _, _ in segs]
    bumps, images = [], []
    for pi, (lo, hi, _) in enumerate(segs):
        kernels = [poly_at(w, lo) for w, _ in T.terms]
        for d in range(max(map(len, kernels), default=0)):
            mono = (Fraction(0),) * d + (Fraction(1),)
            moments = [poly_integral(poly_mul(k, mono), lo, hi) for k in kernels]
            bumps.append((pi, d))
            images.append([_combine(moments, polys) for polys in phis])
    widths = [max((len(im[pi]) for im in images), default=0) for pi in range(len(segs))]
    blocks = linalg.Blocks(1 << pi for pi, w in enumerate(widths) for _ in range(w))
    items = [
        linalg.item([c[d] if d < len(c) else 0 for c, w in zip(im, widths) for d in range(w)], (), blocks)
        for im in images
    ]
    return bumps, items, blocks


@settings(max_examples=150)
@given(_frops())
def test_integer_bump_items_equal_the_fraction_images(T):
    bumps, blocks = _bumps(T)
    want, items, ref = _fraction_bump_items(T)
    assert [(b.piece, b.degree) for b in bumps] == want
    assert [b.item for b in bumps] == items
    assert blocks.bits == ref.bits


def test_cancelled_leading_coefficients_narrow_the_block():
    # the images of 1 + t and -t under one kernel sum to a constant
    w = PiecewisePoly.indicator(0, 1)
    T = FiniteRankOp.of((w, PiecewisePoly.from_pieces([(0, 1, (1, 1))])),
                        (w, PiecewisePoly.from_pieces([(0, 1, (0, -1))])))
    bumps, blocks = _bumps(T)
    assert blocks.bits == (1,)
    assert [b.item for b in bumps] == _fraction_bump_items(T)[1]


@settings(max_examples=100)
@given(_frops())
def test_range_listing_equals_the_region_reference(T):
    segs = _segments(T)

    def region(m):
        return IntervalRegion.of(*(segs[i][:2] for i in range(len(segs)) if m >> i & 1))

    regions = {region(m) for m in _range_enumeration(T)}
    assert frop_range_supports(T) == tuple(sorted(regions, key=lambda r: (r.measure(), r.intervals)))
    for m in range(1 << len(segs)):
        assert _mask_region(segs, m) == region(m)


@settings(max_examples=150)
@given(_frops())
def test_avoiding_masks_decide_as_the_range_scan(T):
    # the semi laws scanned over every range support are the reference
    bumps, _ = _bumps(T)
    sources = [(1 << b.piece, b.item.mask) for b in bumps]
    masks = _range_enumeration(T)
    assert _semi_masks(T) <= masks
    for check, inside in ((frop_is_sbp, False), (frop_is_scp, True)):
        res = check(T)
        assert res.holds == (_law_scan(masks, sources, inside) is None)
        if not res.holds:
            assert replay_frop_witness(T, res.witness)


def _frop_implication(T, kind, f, g):
    """(antecedent, consequent) of an interval witness kind's implication,
    read literally on support regions."""
    F, TF, TG = (pp_support(h) for h in (f, frop_apply(T, f), frop_apply(T, g)))
    inside = TG if kind == "SCP-violation" else TG.complement()
    return inside.contains(F), inside.contains(TF)


@settings(max_examples=100)
@given(_frops(), _piecewise())
def test_forged_frop_witnesses_do_not_replay(T, g):
    one, zero = PiecewisePoly.const(1), PiecewisePoly.zero()
    assume(not frop_apply(T, one).is_zero())
    # only the antecedent holds: f = 0 lies off and inside every support
    only_antecedent = [("SBP-violation", zero, g), ("SCP-violation", zero, g)]
    # only the consequent fails: f = 1 meets T1 != 0, and f = 1 is not in
    # the band of T0 = 0
    only_consequent = [("SBP-violation", one, one), ("SCP-violation", one, zero)]
    for pairs, want in ((only_antecedent, (True, True)), (only_consequent, (False, False))):
        for kind, f, g in pairs:
            assert _frop_implication(T, kind, f, g) == want
            assert not replay_frop_witness(T, FropWitness(kind, f, g, "forged"))


def test_forged_gallery_witnesses_do_not_replay():
    # the gallery's SBP operator: Tg lives on [0, 1/2] when the kernel 2
    # integrates g to 0 there, and inputs on [1/2, 1] map to 0
    T = frop_pair()
    g = PiecewisePoly.on_interval(0, HALF, (-1, 4))
    f = PiecewisePoly.indicator(HALF, 1)
    assert pp_support(frop_apply(T, g)) == IntervalRegion.of((0, HALF))
    # every Tg of the full-support projection has full support
    B = make_full_support_projection()
    for op, kind, f, g in ((T, "SBP-violation", f, g), (B, "SCP-violation", f, PiecewisePoly.const(1))):
        assert _frop_implication(op, kind, f, g) == (True, True)
        assert not replay_frop_witness(op, FropWitness(kind, f, g, "forged"))


def _rank(rows, dim):
    return dim - len(nullspace(list(rows), dim))


def test_image_subspace_matches_bump_moments():
    # the orthogonal-complement construction and the monomial-bump span
    # must describe the same attainable moment space
    rng = random.Random(22)
    ops = [frop_pair(), make_full_support_projection()]
    ops += [_random_frop(rng) for _ in range(6)]
    regions = [
        FULL_REGION,
        IntervalRegion.of((0, HALF)),
        IntervalRegion.of((Fraction(1, 4), Fraction(3, 4))),
    ]
    for T in ops:
        m = len(T.terms)
        for region in regions:
            basis = frop_image_subspace(T, region)
            pts = sorted(
                {Fraction(0), Fraction(1)}
                | {b for w, _ in T.terms for b in breakpoints(w)}
                | {e for lo, hi in region.intervals for e in (lo, hi)}
            )
            moments = []
            for lo, hi in zip(pts, pts[1:]):
                if not any(blo <= lo and hi <= bhi for blo, bhi in region.intervals):
                    continue
                for d in range(4):
                    bump = PiecewisePoly.on_interval(lo, hi, [0] * d + [1])
                    moments.append(frop_moments(T, bump))
            ra = _rank(basis, m)
            rb = _rank(moments, m)
            assert ra == rb == _rank(list(basis) + moments, m)


def test_region_algebra():
    a = IntervalRegion.of((0, HALF), (HALF, 1))
    assert a == FULL_REGION  # touching intervals merge
    b = IntervalRegion.of((Fraction(1, 4), Fraction(3, 4)))
    assert b.complement() == IntervalRegion.of((0, Fraction(1, 4)), (Fraction(3, 4), 1))
    assert b.difference(b).is_empty
    assert IntervalRegion.of((0, 0)).is_empty  # degenerate drops


def test_restriction():
    f = PiecewisePoly.const(1)
    r = IntervalRegion.of((Fraction(1, 4), HALF))
    g = pp_restrict(f, r)
    assert pp_support(g) == r
    assert integrate(g, PiecewisePoly.const(1)) == Fraction(1, 4)


@st.composite
def _atomic_operators(draw) -> Operator:
    """T = U V with U n x r and V r x n over a small, zero-heavy grid."""
    n = draw(st.integers(2, 6))
    r = draw(st.integers(1, n))
    entry = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])
    U = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n))
    V = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    rows = [[sum(U[i][k] * V[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
    return Operator.from_rows(AtomicSpace.lp(n, 2), rows)


def _embed(T: Operator) -> tuple[FiniteRankOp, list[tuple[Fraction, Fraction]]]:
    """T as a finite-rank interval operator: atom j is the piece
    [(j-1)/n, j/n), w_j its indicator and phi_j column j as a step function."""
    n = T.n
    pieces = [(Fraction(i, n), Fraction(i + 1, n)) for i in range(n)]
    terms = []
    for j in range(1, n + 1):
        phi = PiecewisePoly.from_pieces(
            (lo, hi, (T.entry(i + 1, j),)) for i, (lo, hi) in enumerate(pieces)
        )
        terms.append((PiecewisePoly.indicator(*pieces[j - 1]), phi))
    return FiniteRankOp.of(*terms), pieces


@settings(max_examples=60)
@given(_atomic_operators())
def test_embedded_atomic_operator_agrees_across_models(T):
    # the interval model must see the atomic operator's supports and
    # verdicts, piece i standing for atom i
    F, pieces = _embed(T)
    sigma = {
        IntervalRegion.of(*(pieces[i - 1] for i in SupportSet.from_mask(m).atoms))
        for m in enumerate_sigma(T).masks
    }
    assert set(frop_range_supports(F)) == sigma
    for frop_check, atomic_check in ((frop_is_sbp, is_sbp), (frop_is_scp, is_scp)):
        verdict = frop_check(F)
        assert verdict.holds == atomic_check(T).holds
        if verdict.witness is not None:
            assert replay_frop_witness(F, verdict.witness)
