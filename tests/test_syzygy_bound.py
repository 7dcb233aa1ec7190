"""Scans, product images and floored images against full images.

Image.scan descends from the monomial top in widening windows and stops
at the first that keeps a nonzero term.  buchberger forms the image of
each S-polynomial a*f - b*g from the images of a, f, b and g, below its
syzygy value m, which exceeds its leading exponent.  reduce takes the
images of the products of p_j only down to the exponent a step's product
reaches the floor from.  All must give exactly what the full image gives:
the same leading data, and the same terms wherever they cover.  The full
image is full_image below, one scan of every exponent.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from shared_inputs import criterion_9_poly, harmonic_spec, mixed_spec
from valmon import gbengine
from valmon.bipoly import (Image, _monomial_top, _power_table, _prepare,
                           _scan, _strip, eval_leading, parse, preimage_image,
                           preimage_of_rep, syzygy_image)
from valmon.gbengine import buchberger, reduce, syzygy_family
from valmon.series import SimpleSeriesSpec, dyadic_spec
from valmon.valmonoid import MonoidContext, MonoidRep

F = Fraction


def full_image(f, zp):
    """(0, coefficients, den): f(t, z_N) in full, in Image's layout, by one
    scan of every exponent up to the monomial top."""
    work, den = _prepare(f, zp, f.deg_y())
    top = _monomial_top(work, zp)
    return 0, _strip(tuple(_scan(work, zp, 0, top + 1))), den


SPECS = {"dyadic": (dyadic_spec, 8), "harmonic": (harmonic_spec, 6),
         "mixed-denominators": (mixed_spec, 6)}


def check_scans(elements, ctx):
    """Scan every nonzero S-polynomial and check the image against its
    full image: the exact entries from the scan's floor up to the full
    image's top.  Return how many were scanned."""
    scanned = 0
    for elt in elements:
        f = elt.spoly
        if f.is_zero():
            continue
        scanned += 1
        got = Image.scan(f, ctx)
        _, full, den = full_image(f, got.zp)
        end = got.floor + len(got.num)
        assert got.num and end == len(full) and got.den == den
        assert tuple(got.num) == full[got.floor:end]
    return scanned


def recorded_syzygies(monkeypatch, gens, ctx, max_rounds):
    """Every syzygy element buchberger builds for gens, as (element, f, g)
    for the pair (f, g) it belongs to."""
    syzygies = []

    def recording(f, g, ctx, minimal=False, **kwargs):
        family = syzygy_family(f, g, ctx, minimal, **kwargs)
        syzygies.extend((elt, f, g) for elt in family)
        return family

    monkeypatch.setattr(gbengine, "syzygy_family", recording)
    buchberger([parse(g) for g in gens], ctx, max_rounds=max_rounds)
    return syzygies


def recorded_families(monkeypatch, gens, ctx, max_rounds):
    """Every syzygy element buchberger builds for gens."""
    return [elt for elt, _, _ in
            recorded_syzygies(monkeypatch, gens, ctx, max_rounds)]


# the dyadic gb inputs of this suite: x,y up to 5 rounds, the four ideals
# whose round-capped bases are pinned, and (y^2 - x, x*y)
DYADIC_GB_CASES = [
    (("x", "y"), 5),
    (("x^2", "y^3"), 5),
    (("y^2 - x - x*y", "x^2"), 5),
    (("y^2", "x"), 4),
    (("y + x^3", "3*x*y"), 3),
    (("y^2 - x", "x*y"), 3),
]


def test_bounded_scans_of_dyadic_gb_inputs(monkeypatch):
    scanned = 0
    for gens, rounds in DYADIC_GB_CASES:
        ctx = MonoidContext(dyadic_spec(), 8)
        elements = recorded_families(monkeypatch, gens, ctx, rounds)
        scanned += check_scans(elements, ctx)
    assert scanned > 100


@pytest.mark.parametrize("spec_name", list(SPECS))
def test_bounded_scans_of_criterion_9_families(spec_name):
    # the families of criterion 9's 200 pairs (seed 97)
    make_spec, depth = SPECS[spec_name]
    ctx = MonoidContext(make_spec(), depth)
    rng = random.Random(97)
    elements = []
    pairs = 0
    while pairs < 200:
        f, g = criterion_9_poly(rng), criterion_9_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        pairs += 1
        elements.extend(syzygy_family(f, g, ctx))
    assert check_scans(elements, ctx) > 0


def test_scan_through_a_cancelled_monomial_top():
    # y^2 and x cancel at the monomial top, scaled exponent 4 at N = 2
    # (r_2 = 4); LE = rho_2 = 3/4
    ctx = MonoidContext(dyadic_spec(), 8)
    f = parse("y^2 - x + y")
    free = Image.scan(f, ctx)
    assert free.lead().le == F(3, 4)
    assert free.zp.scale == 4


def product_image(elt, f, g, ctx):
    """The image of elt's S-polynomial as buchberger forms it, from the
    images of a, f, b and g; checks that syzygy_image leaves the set of
    ("lead", ...) memo keys unchanged."""
    ra, rb, factor = gbengine._syzygy_reps(
        elt.value, eval_leading(f, ctx), eval_leading(g, ctx), ctx)
    leads = {key for key in ctx.cache if key[0] == "lead"}
    image = syzygy_image(elt.spoly, elt.value, ra, f, rb, g, factor, ctx)
    assert {key for key in ctx.cache if key[0] == "lead"} == leads
    return image


def check_product_images(syzygies, ctx):
    """Check the product image of every nonzero S-polynomial against its
    full image and against a scan; return how many there were, and how
    many have a non-integer m * r_N on the S-polynomial's own table, where
    the product image needs a deeper one."""
    checked = fractional = 0
    for elt, f, g in syzygies:
        s = elt.spoly
        if s.is_zero():
            continue
        checked += 1
        image = product_image(elt, f, g, ctx)
        zp = image.zp
        own = _power_table(ctx, s.deg_y())
        if (elt.value * own.scale).denominator != 1:
            fractional += 1
            assert zp.depth > own.depth
        # no term at or above m * r_N, in the product image or the full one
        top = elt.value * zp.scale
        assert top.denominator == 1
        end = image.floor + len(image.num)
        assert image.num and image.num[-1] and end <= top
        _, full, den = full_image(s, zp)
        assert not any(full[end:])
        # the full image on every entry the product image covers
        assert ([v * den for v in image.num]
                == [w * image.den for w in full[image.floor:end]])
        # as a basis image, over the denominator _prepare gives s
        assert image.entry(s) == (image.floor, full[image.floor:end], den)
        # the same leading data as a scan of s
        scanned = Image.scan(s, ctx).lead()
        got = image.lead()
        assert (got.le, got.lc, got.point) == (scanned.le, scanned.lc,
                                               scanned.point)
    return checked, fractional


# buchberger inputs on the other two specs
OTHER_GB_CASES = [
    ("harmonic", ("x", "y"), 3),
    ("harmonic", ("y^2 - x", "x*y"), 2),
    ("mixed-denominators", ("x", "y"), 5),
    ("mixed-denominators", ("y^2 - x", "x*y"), 4),
]


def test_product_images_of_buchberger_syzygies(monkeypatch):
    checked = fractional = 0
    cases = [("dyadic", gens, rounds) for gens, rounds in DYADIC_GB_CASES]
    for spec_name, gens, rounds in cases + OTHER_GB_CASES:
        make_spec, depth = SPECS[spec_name]
        ctx = MonoidContext(make_spec(), depth)
        syzygies = recorded_syzygies(monkeypatch, gens, ctx, rounds)
        got = check_product_images(syzygies, MonoidContext(make_spec(),
                                                           depth))
        assert got[0] > 0
        checked += got[0]
        fractional += got[1]
    assert checked > 150
    assert fractional > 0


@pytest.mark.parametrize("spec_name", list(SPECS))
def test_product_images_of_criterion_9_families(spec_name):
    # the families of criterion 9's 200 pairs (seed 97)
    make_spec, depth = SPECS[spec_name]
    ctx = MonoidContext(make_spec(), depth)
    rng = random.Random(97)
    syzygies = []
    pairs = 0
    while pairs < 200:
        f, g = criterion_9_poly(rng), criterion_9_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        pairs += 1
        syzygies.extend((elt, f, g) for elt in syzygy_family(f, g, ctx))
    checked, _ = check_product_images(syzygies, ctx)
    assert checked > 100


def digit_vectors(ctx, k):
    """Every digit vector of the first k indices, trailing zeros trimmed."""
    ranges = [range(ctx.seqs.s(j)) for j in range(1, k + 1)]
    return sorted({MonoidRep(0, d).digits for d in product(*ranges)})


def check_floored(ctx, zp, digits, lowests):
    """preimage_image under a sequence of floors against the full image."""
    p = preimage_of_rep(MonoidRep(0, digits), ctx)
    _, full, den = full_image(p, zp)
    for lowest in lowests:
        floor, coeffs, got_den = preimage_image(digits, zp, ctx, lowest)
        assert got_den == den
        if lowest <= 0:
            assert floor == 0
            assert coeffs == full
        else:
            assert 0 <= floor <= lowest
            assert coeffs == full[floor:]


# (spec, number of digit indices, y-degree fixing the table)
FLOOR_CASES = [("dyadic", 4, 15), ("dyadic", 3, 31), ("dyadic", 6, 63),
               ("harmonic", 3, 11), ("harmonic", 2, 59),
               ("mixed-denominators", 4, 15)]


@pytest.mark.parametrize("spec_name,k,degy", FLOOR_CASES)
def test_floored_preimage_images(spec_name, k, degy):
    make_spec, depth = SPECS[spec_name]
    rng = random.Random(degy)
    desc_ctx = MonoidContext(make_spec(), depth)
    rand_ctx = MonoidContext(make_spec(), depth)
    desc_zp = _power_table(desc_ctx, degy)
    rand_zp = _power_table(rand_ctx, degy)
    assert desc_zp.scale > degy
    vectors = digit_vectors(desc_ctx, k)
    assert len(vectors) > 5
    for digits in vectors:
        p = preimage_of_rep(MonoidRep(0, digits), desc_ctx)
        top = len(full_image(p, desc_zp)[1]) - 1
        step = max(1, top // 6)
        check_floored(desc_ctx, desc_zp, digits,
                      list(range(top + 2, -step, -step)) + [0])
        draws = [rng.randint(-2, top + 2) for _ in range(8)]
        check_floored(rand_ctx, rand_zp, digits,
                      draws + [0, rng.randint(1, top + 2), -1])


def test_preimage_images_at_a_high_ramification_index():
    # z = t^(1/1000): s_1 = 1000 and p_1 = y, so the digit vector (d,) is a
    # chain of d factors p_1, walked in a loop, not by recursion
    ctx = MonoidContext(SimpleSeriesSpec([(1, F(1, 1000))]), 1)
    zp = _power_table(ctx, 999)
    assert zp.scale == 1000
    for d in (997, 999):
        check_floored(ctx, zp, (d,), [d + 1, d, d // 2, 0])
    trace = reduce(parse("y^999 + y^998"), [parse("y")], ctx)
    assert trace.remainder.is_zero() and len(trace.steps) == 2
