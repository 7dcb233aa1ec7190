"""Division, reduction, syzygy families, and basis construction relative to
the valuation LE_z.

Reduction replaces f by f - g*h where h is an approximate quotient, which
exists exactly when the value of g divides the value of f in the monoid;
each step strictly lowers the value, and well-ordering bounds the number of
steps.  A syzygy family for a pair (f, g) carries one element per digit
vector sigma of the enumeration depth: the least m = sigma + eta lying in
both principal ideals, together with polynomials a, b of exact values
m - LE_z(f), m - LE_z(g), scaled so the leading terms of a*f and b*g cancel.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .bipoly import (BivarPoly, Image, _accumulate, _image_down_to,
                     _power_table, eval_leading, preimage_image,
                     preimage_leading, preimage_of_rep, syzygy_image)
from .errors import (IncompleteBasis, InternalError, StepLimitExceeded,
                     ZeroPolynomial)
from .valmonoid import (apery_set, decompose, decompose_point,
                        lattice_point, min_eta)

DEFAULT_STEP_LIMIT = 10 ** 4
DEFAULT_MAX_ROUNDS = 16


@dataclass(frozen=True)
class ReductionStep:
    divisor: int            # index into the basis
    quotient: BivarPoly
    value_before: Fraction


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple
    remainder: BivarPoly


@dataclass(frozen=True)
class SyzygyElement:
    value: Fraction
    a: BivarPoly
    b: BivarPoly
    spoly: BivarPoly        # a*f - b*g


@dataclass(frozen=True)
class GbResult:
    basis: tuple
    complete: bool
    iterations: int


def _step_factor(n, d):
    """n / d as coprime ints (n, d) with d > 0."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return n // g, d // g


def _quotient_for(lead_f, lead_g, ctx):
    """(h, rep, factor) with h = factor * preimage(rep) lowering the leading
    term lead_f against lead_g, or None when the value of g does not divide
    the value of f.  The leads are LeadingData; the factor
    LC(f) / (LC(g) * LC(preimage)) is formed from the numerators and
    denominators of the three leading coefficients with one gcd and
    returned as (n, d), d > 0.

    The value difference is the difference of the leads' lattice points.
    A leading exponent off the lattice (deg_y >= r_l(depth)), which reduce
    and approx_quotient can meet, falls back to the Fraction difference: a
    difference landing on the lattice is decomposed, any other raises
    decompose's InsufficientPrecision.  This is the only off-lattice path:
    syzygy_values decomposes both leading exponents first."""
    if lead_f.point is None or lead_g.point is None:
        rep = decompose(lead_f.le - lead_g.le, ctx)
    else:
        rep = decompose_point(lead_f.point - lead_g.point, ctx)
    if rep is None:
        return None
    lf, lg, lc = lead_f.lc, lead_g.lc, preimage_leading(rep, ctx).lc
    factor = _step_factor(lf.numerator * lg.denominator * lc.denominator,
                          lf.denominator * lg.numerator * lc.numerator)
    return preimage_of_rep(rep, ctx)._scaled(*factor), rep, factor


def approx_quotient(f, g, ctx):
    """h with f = g*h or LE_z(f - g*h) < LE_z(f), when the values divide."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("approximate quotient needs nonzero inputs")
    q = _quotient_for(eval_leading(f, ctx), eval_leading(g, ctx), ctx)
    return None if q is None else q[0]


def reduce(f, basis, ctx, step_limit=DEFAULT_STEP_LIMIT, *, _image=None,
           _images=None):
    """Reduce f over the basis, always taking the lowest-index divisor.

    Stops at zero or at a remainder whose value no basis value divides.
    The cap is a safety net; termination itself is guaranteed because the
    values along the trace strictly descend in a well-ordered monoid.

    f's leading data comes from the memo.  The intermediates never recur,
    so they are not built as polynomials at each step: cur is one live
    dict of int numerators over a running denominator, and a step adds
    -g*h into it in place (bipoly._accumulate).  Their leading terms come
    from one exact image f(t, z_N), carried from step to step above a
    floor: a step subtracts, in place, the image of g*h, which is image(g)
    times c*t^n*image(prod p_j^(d_j)).  buchberger hands reduce each
    S-polynomial's image, formed from its factors' images, as _image (f's
    image from its floor up on a table exact for deg_y f), which is then
    carried from the first step; without one, the first step leaves the
    image to be evaluated afresh, as below.  The images of g and of the
    products of p_j are kept down to the lowest exponent from which a
    step's product reaches the floor: image(g) per basis element and depth
    in _images, a dict keyed by (polynomial, N) that buchberger keeps for
    its whole run and that is fresh for each call otherwise, each image
    started at its known top LE(g) * r_N (below) instead of its monomial
    top; the products per context.  _image and _images are buchberger's
    and not part of the public interface.

    cur is built as a BivarPoly (_make) only where one is needed: for the
    remainder; when nothing survives above the floor, where cur is zero or
    is evaluated afresh; and when the exact power table for its y-degree
    is no longer the image's, where eval_leading's theorem no longer fixes
    the leading term, so cur is evaluated afresh at a deeper N.  That
    happens when the y-degree reaches r_N, except on an exhausted finite
    spec, where the table is z itself at every y-degree.  The y-degree is
    tracked as a bound: the true deg_y once cur is built, raised to
    deg_y(g) + deg_y(h) by a step.  The bound is exact when it first
    reaches r_N, since cur's own terms stay below r_N in y and cannot
    cancel g*h's top row.  A handed-in image may lie on a deeper table
    than f's own exact one; the theorem holds at every N with r_N above
    the y-degree, so the same bound decides.  While the image is kept, the
    tops of the images of g and h are their leading exponents, which fixes
    the floors of both: below r_N by eval_leading's theorem, g and h
    having y-degree below r_N too, and on an exhausted spec because
    z_N = z.

    The step arithmetic runs on ints: every lead is a LeadingData, the
    basis elements' and f's from the memo and every later one off the
    image's top term (Image.lead), each step's value difference is a
    difference of their lattice points, and its factor is a coprime pair
    (n, d) formed with one gcd (_quotient_for).
    """
    if any(g.is_zero() for g in basis):
        raise ZeroPolynomial("basis elements must be nonzero")
    lead_basis = [eval_leading(g, ctx) for g in basis]
    image, images = _image, {} if _images is None else _images
    steps = []
    cur = f
    acc, den, degy = dict(f._num), f._den, f.deg_y()
    while True:
        if not steps:
            if f.is_zero():
                break
            lead = eval_leading(f, ctx)
        else:
            if image is None or not image.num:
                cur = BivarPoly._make(acc, den)
                if cur.is_zero():
                    break
                acc, den, degy = dict(cur._num), cur._den, cur.deg_y()
                image = Image.scan(cur, ctx)
            lead = image.lead()
            if lead.le >= steps[-1].value_before:
                raise InternalError(
                    f"reduction failed to lower the value at step "
                    f"{len(steps)}")
        for idx, lg in enumerate(lead_basis):
            q = _quotient_for(lead, lg, ctx)
            if q is not None:
                break
        else:
            break
        h, rep, factor = q
        steps.append(ReductionStep(idx, h, lead.le))
        if len(steps) > step_limit:
            raise StepLimitExceeded(f"reduction exceeded {step_limit} steps")
        g = basis[idx]
        den = _accumulate(acc, den, -1, g, h)
        cur = None
        degy = max(degy, g.deg_y() + preimage_of_rep(rep, ctx).deg_y())
        # below r_N the exact table is the image's own, so look it up only
        # from there
        if (image is not None and degy >= image.zp.scale
                and _power_table(ctx, degy) is not image.zp):
            image = None
        if image is None:
            continue
        zp = image.zp
        # scaled tops of image(g) and of image(x^n * prod p_j^(d_j)): the
        # leading exponents, which add up to cur's
        gtop = lg.le.numerator * zp.scale // lg.le.denominator
        htop = image.floor + len(image.num) - 1 - gtop
        key = (g, zp.depth)
        gimage = images[key] = _image_down_to(
            g, zp, image.floor - htop, images.get(key), gtop)
        image.subtract(gimage, preimage_image(
            rep.digits, zp, ctx, image.floor - rep.n * zp.scale - gtop),
            rep.n, factor)
    if cur is None:
        cur = BivarPoly._make(acc, den)
    return ReductionTrace(tuple(steps), cur)


def syzygy_values(f, g, ctx, minimal=False):
    """Values generating the intersection of the principal ideals of
    LE_z(f) and LE_z(g): per digit vector sigma of the common enumeration
    depth (the Apery set, cached per context), the least sigma + eta lying
    in both.  With minimal=True the list is pruned to the minimal
    generating subset (anything divisible by a smaller kept value is
    dropped), which any generating set may be.  The values are found and
    pruned as lattice points and become Fractions on return.
    """
    lead_f = eval_leading(f, ctx)
    lead_g = eval_leading(g, ctx)
    rep_f = decompose(lead_f.le, ctx)
    rep_g = decompose(lead_g.le, ctx)
    depth = max(len(rep_f.digits), len(rep_g.digits))
    targets = (lead_f.point, lead_g.point)
    R = ctx.lattice_den
    points = sorted(k + min_eta(k, targets, ctx) * R
                    for k in apery_set(depth, ctx))
    if minimal:
        kept = []
        for v in points:
            if not any(decompose_point(v - u, ctx) is not None for u in kept):
                kept.append(v)
        points = kept
    return [Fraction(v, R) for v in points], lead_f, lead_g


def _syzygy_reps(value, lead_f, lead_g, ctx):
    """(ra, rb, factor): the representations of the preimages a and b of
    the pair's element at value, and b's factor
    LC(a) LC(f) / (LC(pb) LC(g)) as a coprime pair (n, d), for the
    LeadingData lead_f and lead_g that syzygy_values returns.  It has
    decomposed both leading exponents, so their points lie on the lattice,
    as every value sigma + eta does, and the value differences are lattice
    ints; the factor is formed on ints."""
    kv = lattice_point(value, ctx)
    ra = decompose_point(kv - lead_f.point, ctx)
    rb = decompose_point(kv - lead_g.point, ctx)
    la, lf = preimage_leading(ra, ctx).lc, lead_f.lc
    lb, lg = preimage_leading(rb, ctx).lc, lead_g.lc
    return ra, rb, _step_factor(
        la.numerator * lf.numerator * lb.denominator * lg.denominator,
        la.denominator * lf.denominator * lb.numerator * lg.numerator)


def _syzygy_element(value, f, g, lead_f, lead_g, ctx):
    """The element of the pair at value (_syzygy_reps), with the
    S-polynomial a*f - b*g formed by the fused _minus_product."""
    ra, rb, factor = _syzygy_reps(value, lead_f, lead_g, ctx)
    a = preimage_of_rep(ra, ctx)
    b = preimage_of_rep(rb, ctx)._scaled(*factor)
    return SyzygyElement(value, a, b, (a * f)._minus_product(b, g))


def syzygy_family(f, g, ctx, minimal=False):
    """One SyzygyElement per generating value of the pair's intersection
    ideal: a and b have exact values value - LE_z(f) and value - LE_z(g),
    with b scaled so the leading terms of a*f and b*g cancel."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("syzygy family needs nonzero inputs")
    values, lead_f, lead_g = syzygy_values(f, g, ctx, minimal)
    return [_syzygy_element(v, f, g, lead_f, lead_g, ctx) for v in values]


def buchberger(gens, ctx, max_rounds=DEFAULT_MAX_ROUNDS,
               step_limit=DEFAULT_STEP_LIMIT):
    """Round-structured basis construction.

    Round zero seeds syzygy families for every distinct generator pair;
    each round reduces the outstanding family elements over the current
    basis, adjoins the nonzero remainders, and schedules families for every
    pair touching a new element.  complete is False when the round cap is
    hit; only principal ideals have finite bases (proof: README).

    Two economies keep this tractable without changing the fixed point:
    families carry only a minimal generating value set, and remainders
    adjoined earlier in a round serve as divisors for the elements reduced
    after them (pending elements are taken in ascending value order).

    No S-polynomial s = a*f - b*g is scanned against the power table.
    Evaluation at z_N is a ring map, so image(s) = image(a) image(f) -
    image(b) image(g), and those four images are at hand
    (bipoly.syzygy_image): image(a) and image(b) are images of products of
    p_j shifted by x^n (preimage_image, cached per context; b's scaled by
    its step factor), and image(f) and image(g) are basis images, kept once
    per run in one dict keyed by polynomial and depth, which reduce reads
    and extends too, each started at its known top.  The image is taken on
    the table exact for the y-degree of s and of each of a, f, b and g.  So
    each factor's image tops at its leading exponent, by eval_leading's
    theorem, and preimage_image's truncation proof applies to both
    products: a product term at or above a floor L uses no term of image(a)
    below L - LE(f) r_N, nor of image(f) below L - LE(a) r_N.
    LE(a) + LE(f) = LE(b) + LE(g) = m, and b is scaled so that the leading
    coefficients of a*f and b*g match, so the products' top terms at m r_N
    cancel and the image has no term from m r_N up.  Below it the image is
    formed band by band, widening geometrically while the band cancels.
    Its top term is s's leading term, by the theorem again, and goes to the
    memo as a scan of s would write it, certified at s's own exact depth.
    The table can be deeper than that one, as it must be where m r_N is not
    an int on s's own table.  On an exhausted finite spec the table is z
    itself, and the tops are the leading exponents because z_N = z.  The
    image is over the lcm of the two products' denominators, each the
    product of its factors'.  buchberger hands the image and its basis
    images to reduce, which carries the image from its first step.
    A remainder adjoined with no steps is s itself, so its basis image is
    seeded from the image, over the denominator _prepare gives it
    (Image.entry).
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    if any(g.is_zero() for g in gens):
        raise ZeroPolynomial("generators must be nonzero")
    basis = []
    for g in gens:
        if g not in basis:
            basis.append(g)
    pending = []
    for j in range(len(basis)):
        for k in range(j + 1, len(basis)):
            pending += _family(basis[j], basis[k], ctx)
    images = {}
    rounds = 0
    complete = False
    while True:
        if rounds >= max_rounds:
            break
        rounds += 1
        pending.sort(key=lambda item: item[0].value)
        seen = set()
        first_new = len(basis)
        for elt, f, g in pending:
            s = elt.spoly
            if s.is_zero() or s in seen:
                continue
            seen.add(s)
            # syzygy_family's elements hold a and b, not their reps; the
            # reps and b's factor come back from memoised leads and
            # decompositions
            ra, rb, factor = _syzygy_reps(
                elt.value, eval_leading(f, ctx), eval_leading(g, ctx), ctx)
            image = syzygy_image(s, elt.value, ra, f, rb, g, factor, ctx,
                                 images)
            trace = reduce(s, basis, ctx, step_limit, _image=image,
                           _images=images)
            rem = trace.remainder
            if not rem.is_zero() and rem not in basis:
                if not trace.steps:
                    images[(rem, image.zp.depth)] = image.entry(rem)
                basis.append(rem)
        if len(basis) == first_new:
            complete = True
            break
        if rounds >= max_rounds:
            break
        pending = []
        for k in range(first_new, len(basis)):
            for j in range(k):
                pending += _family(basis[j], basis[k], ctx)
    return GbResult(tuple(basis), complete, rounds)


def _family(f, g, ctx):
    """The pair's minimal syzygy family, each element with f and g."""
    return [(elt, f, g) for elt in syzygy_family(f, g, ctx, minimal=True)]


def is_member(f, gb, ctx, step_limit=DEFAULT_STEP_LIMIT):
    """Ideal membership via reduction to zero; needs a complete basis."""
    if not gb.complete:
        raise IncompleteBasis("membership needs a complete basis")
    if f.is_zero():
        return True
    return reduce(f, list(gb.basis), ctx, step_limit).remainder.is_zero()
