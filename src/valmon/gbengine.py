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

from .bipoly import (BivarPoly, _eval_leading_uncached, eval_leading,
                     preimage_leading, preimage_of_rep)
from .errors import (IncompleteBasis, InternalError, StepLimitExceeded,
                     ZeroPolynomial)
from .valmonoid import decompose, enumerate_omega, min_eta

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


def _quotient_for(lead_f, lead_g, ctx):
    """h lowering the leading term lead_f against lead_g, or None when the
    value of g does not divide the value of f."""
    rep = decompose(lead_f.le - lead_g.le, ctx)
    if rep is None:
        return None
    p = preimage_of_rep(rep, ctx)
    lp = preimage_leading(rep, ctx)
    factor = lead_f.lc / (lead_g.lc * lp.lc)
    return p.scale(factor)


def approx_quotient(f, g, ctx):
    """h with f = g*h or LE_z(f - g*h) < LE_z(f), when the values divide."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("approximate quotient needs nonzero inputs")
    return _quotient_for(eval_leading(f, ctx), eval_leading(g, ctx), ctx)


def reduce(f, basis, ctx, step_limit=DEFAULT_STEP_LIMIT):
    """Reduce f over the basis, always taking the lowest-index divisor.

    Stops at zero or at a remainder whose value no basis value divides.
    The cap is a safety net; termination itself is guaranteed because the
    values along the trace strictly descend in a well-ordered monoid.
    Only f's leading data is memoised: the intermediates do not recur.
    """
    if any(g.is_zero() for g in basis):
        raise ZeroPolynomial("basis elements must be nonzero")
    lead_basis = [eval_leading(g, ctx) for g in basis]
    steps = []
    cur = f
    while not cur.is_zero():
        cur_lead = (_eval_leading_uncached(cur, ctx) if steps
                    else eval_leading(cur, ctx))
        if steps and cur_lead.le >= steps[-1].value_before:
            raise InternalError(
                f"reduction failed to lower the value at step {len(steps)}")
        for idx, lg in enumerate(lead_basis):
            h = _quotient_for(cur_lead, lg, ctx)
            if h is not None:
                break
        else:
            break
        steps.append(ReductionStep(idx, h, cur_lead.le))
        if len(steps) > step_limit:
            raise StepLimitExceeded(f"reduction exceeded {step_limit} steps")
        cur = cur - basis[idx] * h
    return ReductionTrace(tuple(steps), cur)


def syzygy_values(f, g, ctx, minimal=False):
    """Values generating the intersection of the principal ideals of
    LE_z(f) and LE_z(g): per digit vector sigma of the common enumeration
    depth, the least sigma + eta lying in both.  With minimal=True the list
    is pruned to the minimal generating subset (anything divisible by a
    smaller kept value is dropped), which any generating set may be.
    """
    lead_f = eval_leading(f, ctx)
    lead_g = eval_leading(g, ctx)
    rep_f = decompose(lead_f.le, ctx)
    rep_g = decompose(lead_g.le, ctx)
    depth = max(len(rep_f.digits), len(rep_g.digits))
    values = []
    for sigma, _ in enumerate_omega(depth, ctx, 0):
        eta = min_eta(sigma, (lead_f.le, lead_g.le), ctx)
        values.append(sigma + eta)
    values.sort()
    if not minimal:
        return values, lead_f, lead_g
    kept = []
    for v in values:
        if not any(decompose(v - k, ctx) is not None for k in kept):
            kept.append(v)
    return kept, lead_f, lead_g


def _syzygy_element(value, f, g, lead_f, lead_g, ctx):
    ra = decompose(value - lead_f.le, ctx)
    rb = decompose(value - lead_g.le, ctx)
    a = preimage_of_rep(ra, ctx)
    pb = preimage_of_rep(rb, ctx)
    la = preimage_leading(ra, ctx)
    lb = preimage_leading(rb, ctx)
    b = pb.scale((la.lc * lead_f.lc) / (lb.lc * lead_g.lc))
    return SyzygyElement(value, a, b, a * f - b * g)


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
    hit; some ideals genuinely have no finite basis here.

    Two economies keep this tractable without changing the fixed point:
    families carry only a minimal generating value set, and remainders
    adjoined earlier in a round serve as divisors for the elements reduced
    after them (pending elements are taken in ascending value order).
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
            pending.extend(
                syzygy_family(basis[j], basis[k], ctx, minimal=True))
    rounds = 0
    complete = False
    while True:
        if rounds >= max_rounds:
            break
        rounds += 1
        pending.sort(key=lambda elt: elt.value)
        seen = set()
        first_new = len(basis)
        for elt in pending:
            if elt.spoly.is_zero() or elt.spoly in seen:
                continue
            seen.add(elt.spoly)
            rem = reduce(elt.spoly, basis, ctx, step_limit).remainder
            if not rem.is_zero() and rem not in basis:
                basis.append(rem)
        if len(basis) == first_new:
            complete = True
            break
        if rounds >= max_rounds:
            break
        pending = []
        for k in range(first_new, len(basis)):
            for j in range(k):
                pending.extend(
                    syzygy_family(basis[j], basis[k], ctx, minimal=True))
    return GbResult(tuple(basis), complete, rounds)


def is_member(f, gb, ctx, step_limit=DEFAULT_STEP_LIMIT):
    """Ideal membership via reduction to zero; needs a complete basis."""
    if not gb.complete:
        raise IncompleteBasis("membership needs a complete basis")
    if f.is_zero():
        return True
    return reduce(f, list(gb.basis), ctx, step_limit).remainder.is_zero()
