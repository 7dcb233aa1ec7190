import json
import random
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest
import sympy

from shared_inputs import criterion_9_poly, harmonic_spec
from valmon import bipoly, gbengine
from valmon.bipoly import (BivarPoly, Image, eval_leading, parse,
                           preimage_of_rep)
from valmon.errors import (IncompleteBasis, InsufficientPrecision,
                           StepLimitExceeded, ZeroPolynomial)
from valmon.gbengine import (approx_quotient, buchberger, is_member, reduce,
                             syzygy_family, syzygy_values)
from valmon.series import CallbackTail, SimpleSeriesSpec, dyadic_spec
from valmon.valmonoid import (MonoidContext, MonoidRep, decompose,
                              enumerate_omega)

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


def test_round_capped_bases_are_pinned():
    # non-principal ideals have no finite basis here, so every round adds an
    # element, and the round-capped basis depends on every reduction and on
    # which pairs are processed; any change to either must keep these
    fixture = Path(__file__).resolve().parent / "round_capped_bases.json"
    with open(fixture) as fh:
        cases = json.load(fh)
    assert len(cases) == 4
    for case in cases:
        res = buchberger([parse(g) for g in case["gens"]],
                         MonoidContext(dyadic_spec(), 8),
                         max_rounds=case["max_rounds"])
        assert res.complete == case["complete"]
        assert res.iterations == case["iterations"]
        assert [g.to_string() for g in res.basis] == case["basis"]


def test_harmonic_round_capped_basis_is_pinned():
    # on the harmonic spec (exponents 1/2, 1/3, 1/4, ...) the tables reach
    # depth 6, where reduce reads each basis element's image only down to
    # the floor of the carried image; the basis must not change with it
    here = Path(__file__).resolve().parent
    with open(here / "harmonic_round_capped_basis.json") as fh:
        case = json.load(fh)
    spec = SimpleSeriesSpec([(1, F(1, 2))],
                            CallbackTail(lambda i: (1, F(1, i + 2))))
    res = buchberger([parse(g) for g in case["gens"]],
                     MonoidContext(spec, case["depth"]),
                     max_rounds=case["max_rounds"])
    assert res.complete == case["complete"]
    assert res.iterations == case["iterations"]
    assert [g.to_string() for g in res.basis] == case["basis"]


def test_x_y_seven_round_basis_is_pinned():
    # at 7 rounds the preimage products reach y-degree 127 and the tables
    # depth 8; each element is pinned by its value, y-degree, term count
    # and a digest of its text, the last element having 3,972 terms
    here = Path(__file__).resolve().parent
    with open(here / "x_y_seven_rounds.json") as fh:
        case = json.load(fh)
    ctx = MonoidContext(dyadic_spec(), case["depth"])
    res = buchberger([parse(g) for g in case["gens"]], ctx,
                     max_rounds=case["max_rounds"])
    assert res.complete == case["complete"]
    assert res.iterations == case["iterations"]
    assert [{"value": str(eval_leading(g, ctx).le), "deg_y": g.deg_y(),
             "terms": len(g.monomials()),
             "sha256": sha256(g.to_string().encode()).hexdigest()}
            for g in res.basis] == case["basis"]


def test_x_y_six_rounds_scan_no_s_polynomial(monkeypatch):
    # buchberger forms each S-polynomial's image from the images of its
    # factors and reduce carries it from the first step, so no
    # S-polynomial is scanned for its own reduction at all.  What
    # is left: 2 scans for the leading data of the generators, x and y
    # (no p_j is scanned: preimage_product reads LC(p_j) off p_j's
    # image), and 103 rescans of intermediates inside reduce, where
    # nothing survives above the floor or the y-degree outgrows the table.
    # An intermediate may happen to equal another S-polynomial.  The last
    # element, of y-degree 64, is adjoined with no steps, so its basis
    # image is its S-polynomial's image, and the depth-7 table is built
    # only up to the power 32 that the factors' images need.  All 38
    # reductions go through the public gbengine.reduce.
    reducing = []
    outside = inside = calls = 0
    scan = Image.scan.__func__
    spolys = set()

    def spy(cls, f, ctx, **kwargs):
        nonlocal outside, inside
        if reducing:
            inside += 1
            assert f != reducing[-1]
        else:
            outside += 1
            assert f not in spolys
        return scan(cls, f, ctx, **kwargs)

    def reducing_call(f, *args, **kwargs):
        nonlocal calls
        calls += 1
        reducing.append(f)
        try:
            return reduce(f, *args, **kwargs)
        finally:
            reducing.pop()

    def recording(f, g, ctx, minimal=False, **kwargs):
        family = syzygy_family(f, g, ctx, minimal, **kwargs)
        spolys.update(elt.spoly for elt in family)
        return family

    monkeypatch.setattr(Image, "scan", classmethod(spy))
    monkeypatch.setattr(gbengine, "reduce", reducing_call)
    monkeypatch.setattr(gbengine, "syzygy_family", recording)
    ctx = MonoidContext(dyadic_spec(), 8)
    res = buchberger([parse("x"), parse("y")], ctx, max_rounds=6)
    assert res.iterations == 6 and len(spolys) > 30
    assert (outside, inside, calls) == (2, 103, 38)
    assert res.basis[-1].deg_y() == 64
    assert len(ctx.cache[("zpow", 7)].table[1]) == 33


@pytest.mark.parametrize("f,gs", [
    ("y^2 - x", ("y", "1 + y")),
    ("x + y^3", ("x", "1 - x")),
    ("x", ("x + y", "x + y + 1")),
])
def test_principal_inputs_complete(f, gs):
    # (g_1, ..., g_k) = (1), so f*g_1, ..., f*g_k generate the principal
    # ideal (f), which has the finite basis {f}
    ctx = MonoidContext(dyadic_spec(), 8)
    gens = [parse(f) * parse(g) for g in gs]
    res = buchberger(gens, ctx)
    assert res.complete
    assert res.iterations == 2
    assert is_member(parse(f), res, ctx)
    assert eval_leading(parse(f), ctx).le in {
        eval_leading(g, ctx).le for g in res.basis}


@pytest.mark.parametrize("gens", [
    ("x^2", "y^3"), ("y^2 - x - x*y", "x^2"), ("y^2", "x"), ("x", "y"),
])
def test_non_principal_inputs_grow_one_rho_per_round(gens):
    # a non-principal ideal has no finite basis (README): from round 3 on,
    # each round keeps the basis so far and adjoins one element, of value
    # the next rho_j
    ctx = MonoidContext(dyadic_spec(), 8)
    bases = [buchberger([parse(g) for g in gens], ctx, max_rounds=k)
             for k in range(1, 6)]
    for k in range(1, 5):
        shorter, longer = bases[k - 1].basis, bases[k].basis
        assert longer[:len(shorter)] == shorter
        assert not bases[k].complete
        if k >= 2:
            added = longer[len(shorter):]
            assert [eval_leading(g, ctx).le for g in added] == [
                ctx.seqs.rho(k + 2)]
    assert [ctx.seqs.rho(j) for j in (4, 5, 6)] == [
        F(43, 16), F(171, 32), F(683, 64)]


def codimension(gens):
    """d = dim Q[x, y]/I for a zero-dimensional I: the standard monomials of
    sympy's grevlex Groebner basis, the monomials no leading monomial
    divides."""
    x, y = sympy.symbols("x y")
    gb = sympy.groebner([sympy.sympify(g.replace("^", "**")) for g in gens],
                        x, y, order="grevlex")
    leads = [p.monoms(order="grevlex")[0] for p in gb.polys]
    top_a = min(a for a, b in leads if b == 0)
    top_b = min(b for a, b in leads if a == 0)
    return sum(not any(a >= la and b >= lb for la, lb in leads)
               for a in range(top_a) for b in range(top_b))


@pytest.mark.parametrize("make,depth,j,gens,d,caps", [
    (dyadic_spec, 8, 5, ("x", "y"), 1, (3, 4)),
    (dyadic_spec, 8, 5, ("x^2", "y^3"), 6, (3, 4)),
    (dyadic_spec, 8, 5, ("y^2 - x - x*y", "x^2"), 4, (3, 4)),
    (dyadic_spec, 8, 5, ("y^2", "x"), 2, (3, 4)),
    (dyadic_spec, 8, 5, ("x^3 - y^2", "x*y^2"), 8, (3, 4)),
    (harmonic_spec, 6, 4, ("x^2", "y^3"), 6, (2, 3)),
    (harmonic_spec, 6, 4, ("y^2 - x - x*y", "x^2"), 4, (2, 3)),
], ids=["dyadic-x,y", "dyadic-x2,y3", "dyadic-node", "dyadic-y2,x",
        "dyadic-cusp", "harmonic-x2,y3", "harmonic-node"])
def test_round_capped_bases_leave_at_least_the_gap_count(make, depth, j, gens,
                                                         d, caps):
    # an ideal I of codimension d leaves exactly d points of Gamma outside
    # nu(I) (README, "Finite and infinite bases", (b)); the values of a
    # round-capped basis generate a Gamma-ideal inside nu(I), so below a
    # bound B = rho_j above every gap its complement keeps at least d
    # members.  Fewer would mean an element outside I was adjoined; more,
    # that a value below B is still missing, which a round cap allows
    # (every count is d, but the harmonic node's 7 at cap 2)
    assert codimension(gens) == d
    ctx = MonoidContext(make(), depth)
    bound = ctx.seqs.rho(j)
    members = [m for m, _ in enumerate_omega(j - 1, ctx, int(bound))
               if m < bound]
    for cap in caps:
        res = buchberger([parse(g) for g in gens], ctx, max_rounds=cap)
        values = {eval_leading(g, ctx).le for g in res.basis}
        outside = [m for m in members
                   if all(decompose(m - v, ctx) is None for v in values)]
        assert len(outside) >= d, (cap, outside)


def test_x_y_six_rounds_cache_no_x_shifted_preimage():
    # a product prod p_j^(d_j) is cached once, under its digit vector;
    # reduction steps shift it by x^n inside the arithmetic, so the only
    # x-shifted entries, under (digits, n), are the syzygy elements' a
    # with n != 0, one copy each per context
    ctx = MonoidContext(dyadic_spec(), 8)
    buchberger([parse("x"), parse("y")], ctx, max_rounds=6)
    keys = [key for key in ctx.cache
            if isinstance(key, tuple) and key[0] == "preimage"]
    products = [key[1] for key in keys if len(key) == 2]
    shifted = [key[1:] for key in keys if len(key) == 3]
    assert len(products) > 10
    assert all(isinstance(digits, tuple) for digits in products)
    assert len(shifted) == 19
    assert all(n > 0 and digits in products for digits, n in shifted)


def test_reduction_steps_cache_no_x_shifted_product():
    ctx = MonoidContext(dyadic_spec(), 8)
    trace = reduce(parse("x^3*y + x^2"), [parse("y^2 - x")], ctx)
    keys = [key for key in ctx.cache
            if isinstance(key, tuple) and key[0] == "preimage"]
    assert keys and all(len(key) == 2 for key in keys)
    # each quotient is (a/d) * x^n * p with p monic in y, so n is its least
    # x-exponent
    assert [min(i for i, _ in step.quotient.coeffs)
            for step in trace.steps] == [2, 0, 2]
    rep = MonoidRep(2, (1, 1))
    assert preimage_of_rep(rep, ctx) is preimage_of_rep(rep, ctx)
    assert ("preimage", (1, 1), 2) in ctx.cache


def lead_keys(ctx):
    return {key for key in ctx.cache if key[0] == "lead"}


def test_x_y_six_rounds_publish_only_adjoined_leads(monkeypatch):
    # syzygy_image hands each S-polynomial's image to reduce, which reads
    # the first lead off its top term, so no S-polynomial's leading data
    # go to the memo unless it is adjoined: its Remainder then publishes
    # them as a scan of it writes them
    spolys = []
    form = bipoly.syzygy_image

    def spy(s, value, ra, f, rb, g, factor, ctx):
        before = lead_keys(ctx)
        image = form(s, value, ra, f, rb, g, factor, ctx)
        assert lead_keys(ctx) == before
        spolys.append(s)
        return image

    monkeypatch.setattr(bipoly, "syzygy_image", spy)
    ctx = MonoidContext(dyadic_spec(), 8)
    res = buchberger([parse("x"), parse("y")], ctx, max_rounds=6)
    assert len(spolys) == 38
    leads = {key[1] for key in lead_keys(ctx)}
    assert len(leads) == 8 and len(ctx.cache) == 977
    assert leads == set(res.basis)
    assert all(s in res.basis for s in leads.intersection(spolys))
    fresh = MonoidContext(dyadic_spec(), 8)
    for b in res.basis:
        assert ctx.cache[("lead", b)] == Image.scan(b, fresh).lead()


@pytest.mark.parametrize("gens,rounds", [(("y + x^3", "3*x*y"), 3),
                                         (("x^2", "y^3"), 5),
                                         (("y^2 - x - x*y", "x^2"), 5)])
def test_adjoined_remainders_are_memo_hits(monkeypatch, gens, rounds):
    # every nonzero S-polynomial remainder, with or without steps, has its
    # leading data published by its Remainder before it is adjoined, so no
    # later eval_leading of it misses the memo and scans it again
    calls = []
    lead = gbengine.eval_leading

    def spy(f, ctx):
        calls.append((f, ("lead", f) in ctx.cache))
        return lead(f, ctx)

    monkeypatch.setattr(gbengine, "eval_leading", spy)
    ctx = MonoidContext(dyadic_spec(), 8)
    gens = [parse(g) for g in gens]
    res = buchberger(gens, ctx, max_rounds=rounds)
    adjoined = set(res.basis[len(gens):])
    hits = [hit for f, hit in calls if f in adjoined]
    assert hits and all(hits)
    fresh = MonoidContext(dyadic_spec(), 8)
    for b in res.basis:
        assert ctx.cache[("lead", b)] == Image.scan(b, fresh).lead()


def test_second_reduce_scans_no_basis_image(monkeypatch):
    # the images of basis elements that reduction steps subtract are the
    # context's, kept in its memo, so a second reduce over the same basis
    # on the same context extends none of them: no basis element is
    # evaluated again, only the intermediates that are rescanned
    basis = buchberger([parse("x"), parse("y")],
                       MonoidContext(dyadic_spec(), 8), 4).basis
    f = parse("y^16 + x^5")
    prepared = []
    prepare = bipoly._prepare

    def spy(g, zp, degy):
        prepared.append(g)
        return prepare(g, zp, degy)

    monkeypatch.setattr(bipoly, "_prepare", spy)
    ctx = MonoidContext(dyadic_spec(), 8)
    first = reduce(f, list(basis), ctx)
    assert len(first.steps) > 50 and set(prepared) & set(basis)
    prepared.clear()
    assert reduce(f, list(basis), ctx) == first
    assert prepared and not set(prepared) & set(basis)


def test_pair_contract_pass_memo_size(monkeypatch):
    # the pair-contracts benchmark pass: 8,000 criterion-9 pairs of total
    # degree cycling through 4, 8 and 12 (seed 97) on one context.  Its
    # scans read as many fields as they did before eval_leading's floor
    # (tests/test_lead_floor.py): the floor is summed only after a first
    # window cancels, and never for a rescan or a syzygy image
    fields = []
    scan = bipoly._scan

    def spy(work, zp, lo, hi):
        fields.append(hi - lo)
        return scan(work, zp, lo, hi)

    monkeypatch.setattr(bipoly, "_scan", spy)
    degrees = (4, 8, 4, 4, 12, 4, 8, 4, 4, 8)
    rng = random.Random(97)
    ctx = MonoidContext(dyadic_spec(), 8)
    pairs = 0
    while pairs < 8000:
        deg = degrees[pairs % len(degrees)]
        f, g = criterion_9_poly(rng, deg), criterion_9_poly(rng, deg)
        if f.is_zero() or g.is_zero():
            continue
        pairs += 1
        eval_leading(f, ctx)
        eval_leading(g, ctx)
        approx_quotient(f, g, ctx)
        syzygy_family(f, g, ctx)
        reduce(f, [g], ctx)
    assert len(ctx.cache) == 13365
    assert (len(fields), sum(fields)) == (20194, 150409)


def test_vanishing_s_polynomial_image_raises(monkeypatch):
    # on the finite spec z = t^(1/2) the S-polynomial y^2 - x of x and y
    # vanishes at z: its image raises before reduce reads a lead off it,
    # and only the generators are ever scanned
    scanned = []
    scan = Image.scan.__func__

    def spy(cls, f, ctx, **kwargs):
        scanned.append(f)
        return scan(cls, f, ctx, **kwargs)

    monkeypatch.setattr(Image, "scan", classmethod(spy))
    ctx = MonoidContext(SimpleSeriesSpec([(1, F(1, 2))]), 1)
    with pytest.raises(InsufficientPrecision, match="^polynomial image "
                       "vanishes on the exhausted finite series$"):
        buchberger([parse("x"), parse("y")], ctx, 3)
    assert scanned == [parse("x"), parse("y")]
