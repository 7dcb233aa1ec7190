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

from .bipoly import (BivarPoly, Remainder, eval_leading, preimage_of_rep,
                     preimage_product)
from .errors import (IncompleteBasis, InternalError, StepLimitExceeded,
                     ZeroPolynomial)
from .exactnum import _is_int
from .valmonoid import (apery_set, decompose, decompose_point, lattice_point,
                        min_eta)

DEFAULT_STEP_LIMIT = 10 ** 4
DEFAULT_MAX_ROUNDS = 16


@dataclass(frozen=True)
class ReductionStep:
    """One step of a trace.  reduce makes it with the quotient
    h = (a/d) * x^n * p unbuilt, as parts (p, a, d, n), and __getattr__
    builds h when first read, as equality, hash, repr and pickling do."""

    divisor: int            # index into the basis
    quotient: BivarPoly
    value_before: Fraction

    @classmethod
    def _unbuilt(cls, divisor, value_before, parts):
        step = object.__new__(cls)
        step.__dict__.update(divisor=divisor, value_before=value_before,
                             _parts=parts)
        return step

    def __getattr__(self, name):
        parts = self.__dict__.get("_parts") if name == "quotient" else None
        if parts is None:
            raise AttributeError(name)
        quotient = self.__dict__["quotient"] = parts[0]._scaled(*parts[1:])
        return quotient

    def __reduce__(self):
        return ReductionStep, (self.divisor, self.quotient, self.value_before)


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
    """(p, rep, factor) for the quotient h = (a/d) * x^n * p lowering
    lead_f against lead_g, with rep = n + sum d_j rho_j, (p, LC(p)) the
    digit vector's preimage_product and factor LC(f) / (LC(g) * LC(p)) as
    coprime ints (a, d), d > 0; None when the value of g does not divide
    the value of f.  The value difference is a difference of lattice
    points, or of Fractions for a lead off the lattice (deg_y >=
    r_l(depth)), which decompose may reject with InsufficientPrecision."""
    if lead_f.point is None or lead_g.point is None:
        rep = decompose(lead_f.le - lead_g.le, ctx)
    else:
        rep = decompose_point(lead_f.point - lead_g.point, ctx)
    if rep is None:
        return None
    p, lc = preimage_product(rep.digits, ctx)
    lf, lg = lead_f.lc, lead_g.lc
    factor = _step_factor(lf.numerator * lg.denominator * lc.denominator,
                          lf.denominator * lg.numerator * lc.numerator)
    return p, rep, factor


def approx_quotient(f, g, ctx):
    """h with f = g*h or LE_z(f - g*h) < LE_z(f), when the values divide."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("approximate quotient needs nonzero inputs")
    q = _quotient_for(eval_leading(f, ctx), eval_leading(g, ctx), ctx)
    if q is None:
        return None
    p, rep, factor = q
    return p._scaled(*factor, rep.n)


def reduce(f, basis, ctx, step_limit=DEFAULT_STEP_LIMIT, *, _syzygy=None):
    """Reduce f over the basis, always taking the lowest-index divisor.

    Stops at zero or at a remainder whose value no basis value divides.
    The cap is a safety net; termination itself is guaranteed because the
    values along the trace strictly descend in a well-ordered monoid.

    No intermediate is built as a polynomial at each step, and no step's
    quotient until it is read (ReductionStep): a bipoly.Remainder carries
    the current one with its image, and gives each lead and the
    remainder.  The basis images each step reads are the context's, kept
    in its memo across calls.  _syzygy, for an S-polynomial
    f = a*f' - (n/d)*b*g' its representations (value, ra, f', rb, g',
    factor), from which the Remainder forms f's image and with which it
    publishes a nonzero remainder, is buchberger's and not part of the
    public interface.
    """
    if not _is_int(step_limit):
        raise ValueError(f"step limit {step_limit!r} is not an int")
    if any(g.is_zero() for g in basis):
        raise ZeroPolynomial("basis elements must be nonzero")
    lead_basis = [eval_leading(g, ctx) for g in basis]
    cur = Remainder(f, ctx, _syzygy)
    steps = []
    while (lead := cur.lead()) is not None:
        if steps and lead.le >= steps[-1].value_before:
            raise InternalError(
                f"reduction failed to lower the value at step {len(steps)}")
        for idx, lg in enumerate(lead_basis):
            q = _quotient_for(lead, lg, ctx)
            if q is not None:
                break
        else:
            break
        p, rep, factor = q
        steps.append(ReductionStep._unbuilt(idx, lead.le, (p, *factor, rep.n)))
        if len(steps) > step_limit:
            raise StepLimitExceeded(f"reduction exceeded {step_limit} steps")
        cur.subtract(basis[idx], lg, p, rep, factor)
    return ReductionTrace(tuple(steps), cur.remainder())


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
    la, lf = preimage_product(ra.digits, ctx)[1], lead_f.lc
    lb, lg = preimage_product(rb.digits, ctx)[1], lead_g.lc
    return ra, rb, _step_factor(
        la.numerator * lf.numerator * lb.denominator * lg.denominator,
        la.denominator * lf.denominator * lb.numerator * lg.numerator)


def _syzygy_element(value, f, g, lead_f, lead_g, ctx, products=None):
    """The element of the pair at value (_syzygy_reps), with the
    S-polynomial a*f - b*g formed by one fused accumulation
    (_add_product).  Elements share a, a memoised preimage_of_rep; b is
    scaled in one copy.

    b = (n/d) * x^m * p with p the preimage_product of b's digit vector,
    so b*g = (n/d) * x^m * (p*g).  products, when given, holds the
    products p*g for this one g, keyed by digit vector: each p*g is
    multiplied on its first use only, and the S-polynomial is the shared
    product scaled by -n/d and shifted by x^m in one copy (_scaled), with
    a*f accumulated into it.  The dict is valid for its one g only
    (buchberger keeps one per new basis element and drops it after that
    element's families)."""
    ra, rb, factor = _syzygy_reps(value, lead_f, lead_g, ctx)
    a = preimage_of_rep(ra, ctx)
    p = preimage_product(rb.digits, ctx)[0]
    b = p._scaled(*factor, rb.n)
    if products is None:
        return SyzygyElement(value, a, b, (a * f)._add_product(-1, b, g))
    pg = products.get(rb.digits)
    if pg is None:
        pg = products[rb.digits] = p * g
    n, d = factor
    return SyzygyElement(value, a, b,
                         pg._scaled(-n, d, rb.n)._add_product(1, a, f))


def syzygy_family(f, g, ctx, minimal=False, *, _products=None):
    """One SyzygyElement per generating value of the pair's intersection
    ideal: a and b have exact values value - LE_z(f) and value - LE_z(g),
    with b scaled so the leading terms of a*f and b*g cancel.  _products,
    a dict of the products p*g by digit vector that buchberger shares
    across the families of one new basis element g (_syzygy_element), is
    not part of the public interface; without it every S-polynomial
    forms its own b*g."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("syzygy family needs nonzero inputs")
    values, lead_f, lead_g = syzygy_values(f, g, ctx, minimal)
    return [_syzygy_element(v, f, g, lead_f, lead_g, ctx, _products)
            for v in values]


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

    Every S-polynomial of a pair (basis[j], g), j < k, for a new element
    g = basis[k] holds b*g = (n/d) * x^m * (p*g), p a preimage_product,
    and the same p*g recurs across those pairs with only n/d and m
    changing.  The families of one new element therefore share one dict
    of the products p*g by digit vector (_syzygy_element), so each is
    multiplied once; the dict is dropped after that element's families.
    Round zero's generator pairs form each b*g on their own.

    No S-polynomial s = a*f - b*g is scanned: reduce gets its
    representations, from which its Remainder forms its image out of the
    images of a, f, b and g (bipoly.syzygy_image, which has the proof) and
    carries it from the first step.  A nonzero remainder is never in the
    basis yet (bipoly.Remainder.remainder), and is adjoined with its image
    and its leading data already published to the memo by its Remainder,
    so every later eval_leading of a basis element is a memo hit.  Its
    image, like every basis image, is the context's, extended from its
    floor when a later step needs more of it.
    """
    if not (_is_int(max_rounds) and _is_int(step_limit)):
        raise ValueError(f"max_rounds {max_rounds!r} and step limit "
                         f"{step_limit!r} must be ints")
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
            rem = reduce(s, basis, ctx, step_limit,
                         _syzygy=(elt.value, ra, f, rb, g, factor)).remainder
            if not rem.is_zero():
                basis.append(rem)
        if len(basis) == first_new:
            complete = True
            break
        if rounds >= max_rounds:
            break
        pending = []
        for k in range(first_new, len(basis)):
            products = {}
            for j in range(k):
                pending += _family(basis[j], basis[k], ctx, products)
            del products
    return GbResult(tuple(basis), complete, rounds)


def _family(f, g, ctx, products=None):
    """The pair's minimal syzygy family, each element with f and g;
    products is syzygy_family's _products."""
    return [(elt, f, g) for elt in
            syzygy_family(f, g, ctx, minimal=True, _products=products)]


def is_member(f, gb, ctx, step_limit=DEFAULT_STEP_LIMIT):
    """Ideal membership via reduction to zero; needs a complete basis.
    Only principal ideals complete (README, "Finite and infinite bases"),
    so membership is decided for principal ideals only."""
    if not gb.complete:
        raise IncompleteBasis("membership needs a complete basis")
    if f.is_zero():
        return True
    return reduce(f, list(gb.basis), ctx, step_limit).remainder.is_zero()
