"""eval_leading's descent stops at lambda_D, the least value of a
polynomial of y-degree D: no window reads below ceil(lambda_D * r_N).

The floor never stands in for the evaluation, so the floored lead must
equal an unfloored scan's and the series oracle's, on generated specs and
polynomials.  Where the spec's digits do not reach D (D >= R, which takes
in every exhausted finite spec) there is no floor, and the descent is the
unfloored one.  The work the floor saves is pinned as fields read by
_scan on the benchmark's workloads.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shared_inputs import SETTINGS, harmonic_spec, specs, triadic_spec
from test_bipoly import _series_eval
from valmon import bipoly
from valmon.bipoly import (BivarPoly, Image, eval_leading, parse,
                           truncation_min_poly)
from valmon.errors import InsufficientPrecision, InternalError
from valmon.gbengine import buchberger
from valmon.series import SimpleSeriesSpec, dyadic_spec, leading_data
from valmon.valmonoid import MonoidContext, base_digits, lambda_d

F = Fraction


@st.composite
def spec_and_poly(draw):
    """(spec, depth, f): f a sparse polynomial of y-degree at most 12 or,
    two times in three, c * x^k * p_j plus terms of lower y-degree, p_j one of
    the two last of y-degree at most 16, whose images cancel from the
    monomial top down to about rho_j."""
    spec, depth = draw(specs())
    terms = {(draw(st.integers(0, 3)), draw(st.integers(0, 12))):
             draw(st.integers(-5, 5)) for _ in range(draw(st.integers(1, 4)))}
    if draw(st.integers(0, 2)):
        ctx = MonoidContext(spec, depth)
        mins = [p for p in (truncation_min_poly(ctx, j)
                            for j in range(1, depth + 1)) if p.deg_y() <= 16]
        p = draw(st.sampled_from(mins[-2:]))
        terms = {k: v for k, v in terms.items() if k[1] < p.deg_y()}
        f = BivarPoly(terms) + p * BivarPoly.monomial(
            draw(st.integers(1, 3)), draw(st.integers(0, 2)), 0)
    else:
        f = BivarPoly(terms)
    return spec, depth, f


@SETTINGS
@given(spec_and_poly())
def test_floored_lead_matches_an_unfloored_scan_and_the_series(case):
    spec, depth, f = case
    if f.is_zero():
        return
    ctx = MonoidContext(spec, depth)
    lead = eval_leading(f, ctx)
    assert lead == Image.scan(f, MonoidContext(spec, depth)).lead()
    image = _series_eval(f, spec, lead.certified_at, floor=lead.le)
    assert (lead.le, lead.lc) == leading_data(image)
    if f.deg_y() < ctx.lattice_den:
        assert lead.le >= lambda_d(f.deg_y(), ctx)[0]


def _spy(monkeypatch, name):
    """The calls to bipoly's function name from now on, as argument
    tuples."""
    calls, real = [], getattr(bipoly, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bipoly, name, spy)
    return calls


def test_the_floor_is_read_only_after_a_cancelled_first_window(monkeypatch):
    # y^8 + x^3 leads in its first window, [48, 64], so lambda_8 is never
    # summed; p_6 cancels there, reads lambda_32 once and stops at it
    points = _spy(monkeypatch, "lambda_point")
    scans = _spy(monkeypatch, "_scan")
    ctx = MonoidContext(dyadic_spec(), 8)
    assert eval_leading(parse("y^8 + x^3"), ctx).le == 4
    assert points == [] and [lo for _, _, lo, _ in scans] == [48]
    p6 = truncation_min_poly(ctx, 6)
    scans.clear()
    lead = eval_leading(p6, ctx)
    assert lead.le == F(683, 64) and points == [(32, ctx)]
    # windows of 65, 64 and 128 fields cancel, and the last runs from the
    # floor, 683 = lambda_32 * r_7, up to them
    assert [hi - lo for _, _, lo, hi in scans] == [65, 64, 128, 85]
    assert scans[-1][2] == 683


def test_a_floor_above_the_lead_raises(monkeypatch):
    # lambda_D is the least value of y-degree D, so a window that reaches
    # a floor above it and cancels there contradicts the theorem
    point = bipoly.lambda_point
    monkeypatch.setattr(bipoly, "lambda_point", lambda d, ctx: (
        point(d, ctx)[0] + ctx.lattice_den, None))
    ctx = MonoidContext(dyadic_spec(), 8)
    with pytest.raises(InternalError, match="no term at or above"):
        eval_leading(truncation_min_poly(ctx, 5), ctx)
    # and an unfloored scan of the same polynomial is untouched
    assert Image.scan(truncation_min_poly(ctx, 5), ctx).lead().le == F(
        171, 32)


def test_no_floor_on_an_exhausted_finite_spec(monkeypatch):
    # z = t^(1/2) itself: R = 2, so no y-degree 2 or more has a floor.
    # y^4 - x^2 + y cancels in its first window [2, 4] and its second
    # reaches 0; the minimal polynomial of z vanishes, as before
    points = _spy(monkeypatch, "lambda_point")
    scans = _spy(monkeypatch, "_scan")
    ctx = MonoidContext(SimpleSeriesSpec([(1, F(1, 2))]), 1)
    with pytest.raises(InsufficientPrecision, match="beyond depth 1"):
        base_digits(2, ctx)
    f = parse("y^4 - x^2 + y")
    lead = eval_leading(f, ctx)
    assert (lead.le, lead.lc, lead.certified_at) == (F(1, 2), 1, 1)
    assert leading_data(_series_eval(f, ctx.spec, 1)) == (F(1, 2), 1)
    assert [(lo, hi) for _, _, lo, hi in scans] == [(2, 5), (0, 2)]
    scans.clear()
    with pytest.raises(InsufficientPrecision, match="vanishes"):
        eval_leading(parse("y^2 - x"), ctx)
    assert [(lo, hi) for _, _, lo, hi in scans] == [(0, 3)]
    assert points == []


def test_no_floor_where_the_digits_of_deg_y_pass_the_depth(monkeypatch):
    # p_4 of the dyadic spec has y-degree 8: at depth 3, R = 8 and its
    # digits pass the depth, so its second window reads all of [32, 48);
    # at depth 4 (R = 16) it stops at the floor 43
    deep = MonoidContext(dyadic_spec(), 8)
    p4 = truncation_min_poly(deep, 4)
    want = eval_leading(p4, deep)
    assert want.le == F(43, 16)
    scans = _spy(monkeypatch, "_scan")
    for depth, windows in ((3, [17, 16]), (4, [17, 5])):
        ctx = MonoidContext(dyadic_spec(), depth)
        scans.clear()
        lead = eval_leading(p4, ctx)
        assert (lead.le, lead.lc) == (want.le, want.lc)
        assert [hi - lo for _, _, lo, hi in scans] == windows
    with pytest.raises(InsufficientPrecision, match="beyond depth 3"):
        base_digits(8, MonoidContext(dyadic_spec(), 3))


def _fields(scans):
    return len(scans), sum(hi - lo for _, _, lo, hi in scans)


def test_minpoly_tower_cold_leads_read_fewer_fields(monkeypatch):
    # the benchmark's minpoly-tower pass: each p_j in a fresh context, its
    # lead cold.  The unfloored descents read 1,193 fields in 20 windows
    towers = ((dyadic_spec, 8, range(2, 7)), (triadic_spec, 6, range(2, 5)),
              (harmonic_spec, 5, range(2, 5)))
    scans = _spy(monkeypatch, "_scan")
    leads = []
    for make_spec, depth, js in towers:
        for j in js:
            ctx = MonoidContext(make_spec(), depth)
            p = truncation_min_poly(ctx, j)
            scans.clear()
            assert eval_leading(p, ctx).le == ctx.seqs.rho(j)
            leads += scans
    assert _fields(leads) == (20, 779)


def test_gb_ladder_reads_the_same_fields(monkeypatch):
    # x, y at 6 rounds: the floor leaves every scan that ends in its first
    # window, every rescan and every syzygy image alone, so its scans read
    # as many fields as unfloored ones (pair-contracts alike:
    # test_gbengine.py::test_pair_contract_pass_memo_size)
    scans = _spy(monkeypatch, "_scan")
    buchberger([parse("x"), parse("y")], MonoidContext(dyadic_spec(), 8), 6)
    assert _fields(scans) == (167, 4761)
