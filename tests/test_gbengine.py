import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from valmon.bipoly import BivarPoly, eval_leading, parse
from valmon.errors import (IncompleteBasis, StepLimitExceeded, ZeroPolynomial)
from valmon.gbengine import (approx_quotient, buchberger, is_member, reduce,
                             syzygy_family, syzygy_values)
from valmon.series import dyadic_spec
from valmon.valmonoid import MonoidContext, decompose

F = Fraction


@pytest.fixture(scope="module")
def ctx():
    return MonoidContext(dyadic_spec(), 8)


F1 = parse("y^2 - x")
F2 = parse("x*y")


def test_approx_quotient_examples(ctx):
    assert approx_quotient(parse("y^2"), parse("x"), ctx) == BivarPoly.one()
    assert approx_quotient(parse("y"), parse("x"), ctx) is None
    assert approx_quotient(parse("x"), parse("y"), ctx) == parse("y")


def test_approx_quotient_zero_inputs(ctx):
    with pytest.raises(ZeroPolynomial):
        approx_quotient(BivarPoly.zero(), parse("x"), ctx)


def test_approx_quotient_contract(ctx):
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        f = BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                       rng.randint(-5, 5) for _ in range(rng.randint(1, 3))})
        g = BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                       rng.randint(-5, 5) for _ in range(rng.randint(1, 3))})
        if f.is_zero() or g.is_zero():
            continue
        h = approx_quotient(f, g, ctx)
        if h is None:
            # negative answer means the value difference is not a member
            diff = eval_leading(f, ctx).le - eval_leading(g, ctx).le
            assert decompose(diff, ctx) is None
            continue
        rem = f - g * h
        assert rem.is_zero() or \
            eval_leading(rem, ctx).le < eval_leading(f, ctx).le
        checked += 1
    assert checked >= 10


def test_reduce_gets_stuck_without_the_ladder_element(ctx):
    # x^2 is in the ideal, but over the bare generators the lowest-index
    # divisor path parks at an irreducible value-15/8 element
    tr = reduce(parse("x^2"), [F1, F2], ctx)
    assert not tr.remainder.is_zero()
    got = eval_leading(tr.remainder, ctx)
    assert got.le == F(15, 8)
    for lg in (eval_leading(g, ctx) for g in (F1, F2)):
        assert decompose(got.le - lg.le, ctx) is None


def test_reduce_to_zero_over_grown_basis(ctx):
    res = buchberger([F1, F2], ctx, max_rounds=2)
    basis = list(res.basis)
    assert reduce(parse("x^2"), basis, ctx).remainder.is_zero()
    assert reduce(parse("y^3"), basis, ctx).remainder.is_zero()


def test_reduce_constant_is_terminal(ctx):
    tr = reduce(BivarPoly.one(), [F1, F2], ctx)
    assert tr.remainder == BivarPoly.one()
    assert tr.steps == ()


def test_reduce_trace_strictly_decreasing(ctx):
    tr = reduce(parse("x^2 + y^3 + x*y"), [F1, F2], ctx)
    values = [s.value_before for s in tr.steps]
    assert all(a > b for a, b in zip(values, values[1:]))
    if not tr.remainder.is_zero():
        rem_value = eval_leading(tr.remainder, ctx).le
        assert all(v > rem_value for v in values)


def test_reduce_step_limit(ctx):
    with pytest.raises(StepLimitExceeded):
        reduce(parse("x^2"), [F1, F2], ctx, step_limit=0)


def test_syzygy_values_and_minimal(ctx):
    values, _, _ = syzygy_values(F1, F2, ctx)
    assert values == [F(3, 2), F(2), F(9, 4), F(11, 4)]
    minimal, _, _ = syzygy_values(F1, F2, ctx, minimal=True)
    assert minimal == [F(3, 2)]
    # every full value is divisible by some minimal one
    for v in values:
        assert any(decompose(v - m, ctx) is not None for m in minimal)


def test_syzygy_family_invariants(ctx):
    lf, lg = eval_leading(F1, ctx), eval_leading(F2, ctx)
    for elt in syzygy_family(F1, F2, ctx):
        la = eval_leading(elt.a, ctx)
        lb = eval_leading(elt.b, ctx)
        assert la.le + lf.le == elt.value
        assert lb.le + lg.le == elt.value
        assert la.lc * lf.lc == lb.lc * lg.lc
        if not elt.spoly.is_zero():
            assert eval_leading(elt.spoly, ctx).le < elt.value
        assert elt.spoly == elt.a * F1 - elt.b * F2


def test_syzygy_family_same_polynomial(ctx):
    fam = syzygy_family(F1, F1, ctx)
    lf = eval_leading(F1, ctx)
    hit = [e for e in fam if e.value == lf.le]
    assert len(hit) == 1
    assert hit[0].a == BivarPoly.one() and hit[0].b == BivarPoly.one()
    assert hit[0].spoly.is_zero()


def test_buchberger_single_generator(ctx):
    res = buchberger([parse("x")], ctx)
    assert res.complete and res.basis == (parse("x"),)
    assert res.iterations == 1


def test_buchberger_extends_the_claimed_basis(ctx):
    # the generators alone are not a basis: the value-3/2 syzygy leaves an
    # irreducible element of value 11/8, and the ladder keeps climbing
    res = buchberger([F1, F2], ctx, max_rounds=3)
    assert not res.complete
    assert res.basis[:2] == (F1, F2)
    values = [eval_leading(g, ctx).le for g in res.basis]
    assert F(11, 8) in values
    assert F(43, 16) in values


def test_buchberger_open_ideal_climbs_rho_ladder(ctx):
    res = buchberger([parse("x"), parse("y")], ctx, max_rounds=3)
    assert not res.complete
    assert res.iterations == 3
    values = {eval_leading(g, ctx).le for g in res.basis}
    assert {F(1), F(1, 2), F(3, 4), F(11, 8)} <= values


def test_buchberger_ladder_matches_reference():
    # the 5-round basis is a prefix of the recorded 6-round benchmark basis
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    with open(ref / "gb_ladder.json") as fh:
        reference = json.load(fh)["basis"]
    res = buchberger([parse("x"), parse("y")],
                     MonoidContext(dyadic_spec(), 8), max_rounds=5)
    assert [g.to_string() for g in res.basis] == reference[:7]


def test_buchberger_determinism(ctx):
    a = buchberger([F1, F2], MonoidContext(dyadic_spec(), 8), max_rounds=2)
    b = buchberger([F1, F2], MonoidContext(dyadic_spec(), 8), max_rounds=2)
    assert a == b


def test_buchberger_input_validation(ctx):
    with pytest.raises(ValueError):
        buchberger([], ctx)
    with pytest.raises(ZeroPolynomial):
        buchberger([BivarPoly.zero()], ctx)


def test_is_member(ctx):
    gb = buchberger([parse("x")], ctx)
    assert is_member(parse("x^2"), gb, ctx)
    assert is_member(BivarPoly.zero(), gb, ctx)
    assert not is_member(parse("y"), gb, ctx)
    assert not is_member(BivarPoly.one(), gb, ctx)


def test_is_member_requires_complete(ctx):
    partial = buchberger([F1, F2], ctx, max_rounds=1)
    with pytest.raises(IncompleteBasis):
        is_member(parse("x^2"), partial, ctx)


def test_syzygy_values_for_coordinate_pair(ctx):
    # sigma = 0 gives the least integer eta with eta - 1 and eta - 1/2 both
    # members, which is 1; sigma = 1/2 lands at 3/2
    values, _, _ = syzygy_values(parse("x"), parse("y"), ctx)
    assert values == [F(1), F(3, 2)]


def test_engine_on_harmonic_context():
    from valmon.series import CallbackTail, SimpleSeriesSpec
    spec = SimpleSeriesSpec([(1, F(1, 2))],
                            CallbackTail(lambda i: (1, F(1, i + 2))))
    hctx = MonoidContext(spec, 6)
    got = eval_leading(parse("y^2 - x"), hctx)
    assert (got.le, got.lc) == (F(5, 6), 2)
    from valmon.bipoly import preimage
    assert preimage(F(5, 6), hctx) == parse("y^2 - x")
    h = approx_quotient(parse("y^2"), parse("x"), hctx)
    rem = parse("y^2") - parse("x") * h
    assert eval_leading(rem, hctx).le < 1


def test_reduce_over_constant_basis(ctx):
    # a nonzero constant has value 0, which divides everything
    tr = reduce(parse("x^2 + y"), [parse("2")], ctx)
    assert tr.remainder.is_zero()


def test_buchberger_deduplicates_generators(ctx):
    res = buchberger([parse("x"), parse("x")], ctx)
    assert res.basis == (parse("x"),)
    assert res.complete


def test_buchberger_completes_on_nested_generators(ctx):
    # x*y is a multiple of y, so the single minimal syzygy cancels exactly
    res = buchberger([parse("y"), parse("x*y")], ctx)
    assert res.complete
    assert res.basis == (parse("y"), parse("x*y"))
    assert is_member(parse("x^2*y"), res, ctx)
    assert not is_member(parse("x^2"), res, ctx)


def test_buchberger_on_harmonic_context():
    from valmon.series import CallbackTail, SimpleSeriesSpec
    spec = SimpleSeriesSpec([(1, F(1, 2))],
                            CallbackTail(lambda i: (1, F(1, i + 2))))
    hctx = MonoidContext(spec, 6)
    res = buchberger([parse("x"), parse("y")], hctx, max_rounds=2)
    assert not res.complete
    values = {eval_leading(g, hctx).le for g in res.basis}
    # the generating sequence values appear just as in the dyadic case
    assert {F(1), F(1, 2), hctx.seqs.rho(2)} <= values
    for elt in syzygy_family(parse("x"), parse("y"), hctx):
        if not elt.spoly.is_zero():
            assert eval_leading(elt.spoly, hctx).le < elt.value
