"""reduce against the reduction loop it replaced.

reduce carries one exact image of the current polynomial from step to step,
and the current polynomial itself as live numerators, built only where a
step needs it.  The reference below is the loop it replaced: every
intermediate is evaluated afresh at its own exact depth, and the quotient
is composed from the public monoid and preimage functions.  The traces
(divisor, quotient and value of every step, and the remainder) must be
identical, on every reduction that buchberger runs for the gb inputs of
this suite, on the satellite ideals, on criterion 9's pairs, on the
dyadic, harmonic and mixed-denominators specs, and on reductions whose
y-degree passes r_N mid-trace, that reach zero between two scans, or that
run on an exhausted finite spec.
"""

import random
from fractions import Fraction

import pytest

from shared_inputs import criterion_9_poly, harmonic_spec, mixed_spec
from valmon import gbengine
from valmon.bipoly import (BivarPoly, Image, _power_table, eval_leading,
                           min_poly_finite_puiseux, parse, preimage_of_rep,
                           preimage_product)
from valmon.errors import InsufficientPrecision
from valmon.gbengine import ReductionStep, ReductionTrace, buchberger, reduce
from valmon.series import (GeometricTail, SimpleSeriesSpec, dyadic_spec,
                           truncate)
from valmon.valmonoid import MonoidContext, decompose

F = Fraction


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
        lc = preimage_product(rep.digits, ctx)[1]
        h = preimage_of_rep(rep, ctx).scale(lead.lc / (lg.lc * lc))
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
    with its trace.  buchberger hands reduce each S-polynomial's
    representations as a private keyword argument, which is passed
    through."""
    make_spec, depth = SPECS[spec_name]
    ctx = MonoidContext(make_spec(), depth)
    calls = []

    def recording(f, basis, ctx, step_limit=gbengine.DEFAULT_STEP_LIMIT,
                  **private):
        trace = reduce(f, basis, ctx, step_limit, **private)
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


@pytest.mark.parametrize("spec_name", list(SPECS))
def test_criterion_9_pairs_match_reference(spec_name):
    # the 200 pairs of criterion 9 (seed 97), reduced as it does: f by [g]
    make_spec, depth = SPECS[spec_name]
    ctx = MonoidContext(make_spec(), depth)
    rng = random.Random(97)
    calls = []
    while len(calls) < 200:
        f, g = criterion_9_poly(rng), criterion_9_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        calls.append((f, [g], reduce(f, [g], ctx)))
    assert sum(len(trace.steps) > 1 for _, _, trace in calls) > 20
    check_against_reference(calls, spec_name)


# --- the carried state: y-degree bound, zero between rescans, exhaustion ---

def replay(f, basis, trace):
    """f and every intermediate of its trace, the remainder last."""
    curs = [f]
    for step in trace.steps:
        curs.append(curs[-1] - basis[step.divisor] * step.quotient)
    assert curs[-1] == trace.remainder
    return curs


@pytest.fixture
def scanned(monkeypatch):
    """Every polynomial Image.scan evaluates, in order."""
    seen = []
    scan = Image.scan.__func__

    def spy(cls, f, ctx, **kwargs):
        seen.append(f)
        return scan(cls, f, ctx, **kwargs)

    monkeypatch.setattr(Image, "scan", classmethod(spy))
    return seen


def test_degree_bound_passing_r_N_mid_trace(scanned):
    # a step's g*h lifts cur's y-degree to r_N of the carried image's table
    # or past it, so the next lead comes from a fresh scan at a deeper N
    ctx = MonoidContext(dyadic_spec(), 8)
    cases = [("2*x^8", ["3*x*y"]), ("3*y^3 + x^8", ["3*x^2*y^2 + x^4"]),
             ("2*x^5*y^3 + 2*x^4*y^2 + 5*x^8", ["y^2"])]
    calls = []
    for f, basis in cases:
        f, basis = parse(f), [parse(g) for g in basis]
        del scanned[:]
        trace = reduce(f, basis, ctx)
        curs = replay(f, basis, trace)
        depth = [_power_table(ctx, c.deg_y()).depth for c in curs]
        assert any(depth[k + 1] > depth[k] and curs[k + 1] in scanned
                   for k in range(1, len(curs) - 1) if curs[k + 1])
        calls.append((f, basis, trace))
    check_against_reference(calls, "dyadic")


def test_zero_reached_between_rescans(scanned):
    # the last step empties the carried image: the last nonzero
    # intermediate was never scanned, its lead came off the image
    ctx = MonoidContext(dyadic_spec(), 8)
    cases = [("-3*x^4*y^3 + 4*x^8 - x^7", ["-3*x^3"]),
             ("x^3*y^4 + 3*x*y^4 - x^6", ["x"]),
             ("-x*y^7 + 4*x^6", ["3*x"])]
    calls = []
    for f, basis in cases:
        f, basis = parse(f), [parse(g) for g in basis]
        del scanned[:]
        trace = reduce(f, basis, ctx)
        curs = replay(f, basis, trace)
        assert trace.remainder.is_zero() and len(trace.steps) >= 2
        assert curs[-2] not in scanned
        calls.append((f, basis, trace))
    check_against_reference(calls, "dyadic")


def test_exhausted_finite_spec_matches_reference(monkeypatch):
    # z = t^(1/2) + t^(1/4) has r = 4: intermediates of y-degree >= 4 are
    # evaluated at z itself, and one that z's minimal polynomial divides
    # raises, in reduce as in the reference
    spec = SimpleSeriesSpec([(1, F(1, 2)), (1, F(1, 4))])
    real_scan = Image.scan
    scans = [0]

    def counting_scan(f, ctx, **kwargs):
        scans[0] += 1
        return real_scan(f, ctx, **kwargs)

    monkeypatch.setattr(Image, "scan", staticmethod(counting_scan))
    rng = random.Random(3)
    outcomes = []
    exhausted = reduce_scans = 0
    while len(outcomes) < 150:
        f, g = criterion_9_poly(rng, 8), criterion_9_poly(rng, 5)
        if f.is_zero() or g.is_zero():
            continue
        results = []
        for run in (reduce, reference_reduce):
            before = scans[0]
            try:
                results.append(run(f, [g], MonoidContext(spec, 2)))
            except InsufficientPrecision as exc:
                results.append(str(exc))
            if run is reduce:
                reduce_scans += scans[0] - before
        assert results[0] == results[1]
        outcomes.append(results[0])
        if isinstance(results[0], ReductionTrace):
            curs = replay(f, [g], results[0])
            exhausted += sum(c.deg_y() >= 4 for c in curs[1:-1]) >= 2
    assert exhausted > 20
    assert any(isinstance(out, str) for out in outcomes)
    # the image at z is exact at every y-degree, so reduce rescans only
    # where nothing survives above the floor (it rescanned at every
    # y-degree of 4 or more, 1,514 scans, while it took r_N for the test);
    # a rescan descends from the old floor, so its windows, and the floor
    # it finds, align to that floor rather than to the monomial top (824
    # scans when it descended from the monomial top).  Those counts include
    # a scan of each p_j per fresh context for LC(p_j); read off p_j's
    # image instead (preimage_product), 827 scans became 620
    assert reduce_scans == 620


def test_floor_zero_rescan_raises_as_a_full_scan():
    # a complete image emptied by a step leaves a rescan nothing to scan
    # below floor 0; on an exhausted finite spec, where a multiple of z's
    # minimal polynomial vanishes, it raises what the full scan raises
    spec = SimpleSeriesSpec([(1, F(1, 2)), (1, F(1, 4))])
    ctx = MonoidContext(spec, 2)
    f = min_poly_finite_puiseux(truncate(spec, 2)) * parse("x + y")
    errors = []
    for below in (None, (0, 4), (0, 2)):
        with pytest.raises(InsufficientPrecision) as err:
            Image.scan(f, ctx, _below=below).lead()
        errors.append(str(err.value))
    assert len(set(errors)) == 1


def y_heavy_poly(rng, max_x, max_y):
    """2 to 5 terms of x-degree up to max_x and y-degree up to max_y."""
    return BivarPoly({(rng.randint(0, max_x), rng.randint(0, max_y)):
                      rng.choice((-3, -2, -1, 1, 2, 3))
                      for _ in range(rng.randint(2, 5))})


@pytest.mark.parametrize("spec_name", list(SPECS))
def test_rescans_from_the_known_floor(monkeypatch, spec_name):
    # an intermediate whose carried image emptied above its floor F, on a
    # table of scale r, is rescanned from below ceil(F * r' / r) on its own
    # table of scale r': the image's, or a shallower one where its true
    # y-degree fell below the bound.  Each lead read off a rescan is what a
    # fresh evaluation gives, and on a shallower table some lead lies
    # right below that bound where F * r' / r is not an int
    real_scan = Image.scan
    rescans = []

    def bounded_scan(f, ctx, **kwargs):
        image = real_scan(f, ctx, **kwargs)
        if kwargs.get("_below") is not None:
            rescans.append((f, kwargs["_below"], image.zp.scale,
                            image.lead()))
        return image

    monkeypatch.setattr(Image, "scan", staticmethod(bounded_scan))
    make_spec, depth = SPECS[spec_name]
    ctx = MonoidContext(make_spec(), depth)
    rng = random.Random(5)
    calls = []
    while len(calls) < 60:
        f = y_heavy_poly(rng, 3, 7)
        basis = [y_heavy_poly(rng, 2, 3) for _ in range(2)]
        if f and all(basis):
            calls.append((f, basis, reduce(f, basis, ctx)))
    assert len(rescans) > 50
    assert any(scale < r and F * scale % r
               and lead.le * scale == -(-F * scale // r) - 1
               for _, (F, r), scale, lead in rescans)
    intermediates = {c for f, basis, trace in calls
                     for c in replay(f, basis, trace)}
    fresh = MonoidContext(make_spec(), depth)
    for f, _, _, lead in rescans:
        assert f in intermediates
        assert lead == eval_leading(f, fresh)
    check_against_reference(calls, spec_name)
