"""reduce against the reduction loop it replaced.

reduce carries one exact image of the current polynomial from step to step.
The reference below is the loop it replaced: every intermediate is
evaluated afresh at its own exact depth, and the quotient is composed from
the public monoid and preimage functions.  The traces (divisor, quotient
and value of every step, and the remainder) must be identical, on every
reduction that buchberger runs for the gb inputs of this suite, on the
satellite ideals, on criterion 9's pairs, and on the dyadic, harmonic and
mixed-denominators specs.
"""

import random
from fractions import Fraction

import pytest

from valmon import gbengine
from valmon.bipoly import (BivarPoly, Image, eval_leading, parse,
                           preimage_leading, preimage_of_rep)
from valmon.gbengine import ReductionStep, ReductionTrace, buchberger, reduce
from valmon.series import (CallbackTail, GeometricTail, SimpleSeriesSpec,
                           dyadic_spec)
from valmon.valmonoid import MonoidContext, decompose

F = Fraction


def harmonic_spec():
    return SimpleSeriesSpec([(1, F(1, 2))],
                            CallbackTail(lambda i: (1, F(1, i + 2))))


def mixed_spec():
    # coefficient denominators 3 and 2: z_N is tabulated as (6*z_N)^b
    return SimpleSeriesSpec([(F(2, 3), F(1, 2)), (F(1, 2), F(1, 4))],
                            GeometricTail(2))


def wide_gap_spec():
    # exponents 1/2, 1/30, 1/60, ...: most fields of the power tables are
    # zero
    return SimpleSeriesSpec([(1, F(1, 2)), (3, F(1, 30))], GeometricTail(2))


SPECS = {"dyadic": (dyadic_spec, 8), "harmonic": (harmonic_spec, 6),
         "mixed-denominators": (mixed_spec, 6),
         "wide-gap": (wide_gap_spec, 4)}


def leading_uncached(f, ctx):
    """One windowed scan of f at its exact depth, with no memo."""
    return Image.scan(f, ctx).lead()


def reference_reduce(f, basis, ctx):
    lead_basis = [eval_leading(g, ctx) for g in basis]
    steps = []
    cur = f
    while not cur.is_zero():
        lead = leading_uncached(cur, ctx)
        for idx, lg in enumerate(lead_basis):
            rep = decompose(lead.le - lg.le, ctx)
            if rep is not None:
                break
        else:
            break
        lp = preimage_leading(rep, ctx)
        h = preimage_of_rep(rep, ctx).scale(lead.lc / (lg.lc * lp.lc))
        steps.append(ReductionStep(idx, h, lead.le))
        cur = cur - basis[idx] * h
    return ReductionTrace(tuple(steps), cur)


def check_against_reference(calls, spec_name):
    """Replay recorded (f, basis, trace) calls in a fresh context."""
    make_spec, depth = SPECS[spec_name]
    rctx = MonoidContext(make_spec(), depth)
    for f, basis, trace in calls:
        assert reference_reduce(f, basis, rctx) == trace


def recorded_buchberger(monkeypatch, gens, spec_name, max_rounds):
    """Run buchberger in a fresh context; return every reduce call it made
    with its trace."""
    make_spec, depth = SPECS[spec_name]
    ctx = MonoidContext(make_spec(), depth)
    calls = []

    def recording(f, basis, ctx, step_limit=gbengine.DEFAULT_STEP_LIMIT):
        trace = reduce(f, basis, ctx, step_limit)
        calls.append((f, list(basis), trace))
        return trace

    monkeypatch.setattr(gbengine, "reduce", recording)
    res = buchberger([parse(g) for g in gens], ctx, max_rounds=max_rounds)
    return res, calls


# (generators, spec, round cap): the gb inputs of this suite that reduce
# anything, at their largest round cap (x,y only up to 5 rounds), then the
# satellite ideals, then the other two specs
GB_CASES = [
    (("y^2 - x", "x*y"), "dyadic", 3),
    (("x", "y"), "dyadic", 5),
    (("x^2", "y^3"), "dyadic", 5),
    (("y^2 - x - x*y", "x^2"), "dyadic", 5),
    (("y^2", "x"), "dyadic", 4),
    (("y + x^3", "3*x*y"), "dyadic", 3),
    (("(y^2 - x)*y", "(y^2 - x)*(1 + y)"), "dyadic", 16),
    (("(x + y^3)*x", "(x + y^3)*(1 - x)"), "dyadic", 16),
    (("x*(x + y)", "x*(x + y + 1)"), "dyadic", 16),
    (("x", "y"), "harmonic", 3),
    (("y^2 - x", "x*y"), "harmonic", 2),
    (("x", "y"), "mixed-denominators", 5),
    (("y^2 - x", "x*y"), "mixed-denominators", 4),
]


@pytest.mark.parametrize("gens,spec_name,rounds", GB_CASES)
def test_buchberger_reductions_match_reference(monkeypatch, gens, spec_name,
                                               rounds):
    _, calls = recorded_buchberger(monkeypatch, gens, spec_name, rounds)
    assert calls
    check_against_reference(calls, spec_name)


def test_direct_reductions_match_reference():
    # the reduce calls that the other tests make by hand
    ctx = MonoidContext(dyadic_spec(), 8)
    f1, f2 = parse("y^2 - x"), parse("x*y")
    grown = list(buchberger([f1, f2], ctx, max_rounds=2).basis)
    cases = [("x^2", [f1, f2]), ("1", [f1, f2]),
             ("x^2 + y^3 + x*y", [f1, f2]), ("x^2 + y", [parse("2")]),
             ("x^2", grown), ("y^3", grown)]
    calls = [(parse(f), basis, reduce(parse(f), basis, ctx))
             for f, basis in cases]
    assert sum(len(trace.steps) for _, _, trace in calls) >= 10
    check_against_reference(calls, "dyadic")


def random_poly(rng, max_total_deg=4):
    """The criterion-9 generator."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(0, max_total_deg)
        b = rng.randint(0, max_total_deg - a)
        c = rng.randint(-5, 5)
        if c:
            terms[(a, b)] = c
    return BivarPoly(terms)


@pytest.mark.parametrize("spec_name", list(SPECS))
def test_criterion_9_pairs_match_reference(spec_name):
    # the 200 pairs of criterion 9 (seed 97), reduced as it does: f by [g]
    make_spec, depth = SPECS[spec_name]
    ctx = MonoidContext(make_spec(), depth)
    rng = random.Random(97)
    calls = []
    while len(calls) < 200:
        f, g = random_poly(rng), random_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        calls.append((f, [g], reduce(f, [g], ctx)))
    assert sum(len(trace.steps) > 1 for _, _, trace in calls) > 20
    check_against_reference(calls, spec_name)
