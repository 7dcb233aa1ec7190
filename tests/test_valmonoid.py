import random
from fractions import Fraction
from itertools import product
from math import ceil

import pytest

from shared_inputs import criterion_9_poly
from valmon.bipoly import eval_leading, parse, preimage, truncation_min_poly
from valmon.errors import InsufficientPrecision, NotInMonoid
from valmon.gbengine import buchberger, reduce, syzygy_values
from valmon.seqderive import derive
from valmon.series import dyadic_spec, truncate
from valmon.valmonoid import (MonoidContext, MonoidRep, apery_set,
                              base_digits, canonical_min, decompose, divides,
                              enumerate_omega, lambda_d, min_eta, rep_value)

F = Fraction


@pytest.fixture(scope="module")
def ctx():
    return MonoidContext(dyadic_spec(), 8)


def test_rep_value_examples(ctx):
    assert rep_value(MonoidRep(0, ()), ctx) == 0
    assert rep_value(MonoidRep(0, (0, 1)), ctx) == F(3, 4)
    assert rep_value(MonoidRep(2, (1, 0, 1)), ctx) == F(31, 8)


def test_rep_value_bounds(ctx):
    with pytest.raises(ValueError):
        rep_value(MonoidRep(0, (2,)), ctx)  # digit must be < s_1 = 2
    with pytest.raises(ValueError):
        rep_value(MonoidRep(-1, ()), ctx)
    with pytest.raises(InsufficientPrecision):
        rep_value(MonoidRep(0, (1,) * 9), ctx)


def test_trailing_zero_digits_trimmed():
    rep = MonoidRep(3, (1, 0, 1, 0, 0))
    assert rep.digits == (1, 0, 1)


def test_decompose_examples(ctx):
    assert decompose(F(3, 4), ctx) == MonoidRep(0, (0, 1))
    assert decompose(F(1, 4), ctx) is None
    assert decompose(F(5), ctx) == MonoidRep(5, ())
    assert decompose(F(-1, 2), ctx) is None
    assert decompose(F(0), ctx) == MonoidRep(0, ())


def test_decompose_depth_error(ctx):
    with pytest.raises(InsufficientPrecision):
        decompose(F(1, 512), ctx)  # denominator beyond r_l(8) = 256


def test_base_digits(ctx):
    assert base_digits(0, ctx) == ()
    assert base_digits(3, ctx) == (1, 1)
    assert base_digits(4, ctx) == (0, 0, 1)
    with pytest.raises(InsufficientPrecision):
        base_digits(10 ** 6, ctx)


def test_lambda_examples(ctx):
    assert lambda_d(0, ctx)[0] == 0
    assert lambda_d(1, ctx)[0] == F(1, 2)
    assert lambda_d(3, ctx)[0] == F(5, 4)
    value, rep = lambda_d(4, ctx)
    assert value == F(11, 8) and rep == MonoidRep(0, (0, 0, 1))


def test_divides(ctx):
    assert divides(F(1), F(1), ctx) == 0
    assert divides(F(1, 2), F(3, 4), ctx) is None
    assert divides(F(1, 2), F(5, 4), ctx) == F(3, 4)


def test_canonical_min(ctx):
    assert canonical_min(F(7), ctx) == 0
    assert canonical_min(F(7, 4), ctx) == F(3, 4)
    assert canonical_min(F(3, 4), ctx) == F(3, 4)
    with pytest.raises(NotInMonoid):
        canonical_min(F(1, 4), ctx)


@pytest.mark.parametrize("call", [
    lambda ctx: decompose(0.75, ctx),
    lambda ctx: decompose(0.1, ctx),
    lambda ctx: divides(0.5, 1.25, ctx),
    lambda ctx: divides(F(1, 2), 1.25, ctx),
    lambda ctx: canonical_min(1.75, ctx),
    lambda ctx: preimage(0.75, ctx),
    lambda ctx: lambda_d(3.0, ctx),
    lambda ctx: base_digits(2.5, ctx),
    lambda ctx: base_digits(F(3), ctx),
    lambda ctx: rep_value(MonoidRep(1.5, (1,)), ctx),
    lambda ctx: rep_value(MonoidRep(0, (1.0, 1)), ctx),
    lambda ctx: decompose(True, ctx),
    lambda ctx: divides(False, F(1), ctx),
    lambda ctx: base_digits(True, ctx),
    lambda ctx: rep_value(MonoidRep(True, ()), ctx),
    lambda ctx: rep_value(MonoidRep(0, (True,)), ctx),
    lambda ctx: decompose("0.75", ctx),
    lambda ctx: MonoidContext(dyadic_spec(), True),
    lambda ctx: derive(dyadic_spec(), 2.5),
    lambda ctx: truncate(dyadic_spec(), True),
    lambda ctx: enumerate_omega(True, ctx, 2),
    lambda ctx: enumerate_omega(1, ctx, 2.0),
    lambda ctx: buchberger([parse("x"), parse("y")], ctx, max_rounds=True),
    lambda ctx: buchberger([parse("x"), parse("y")], ctx, step_limit=9.0),
    lambda ctx: reduce(parse("x^2"), [parse("x")], ctx, 0.5),
    lambda ctx: parse("x+y") ** True,
    lambda ctx: parse("x+y") ** 2.0,
], ids=["decompose", "decompose-tenth", "divides", "divides-mf",
        "canonical_min", "preimage", "lambda_d", "base_digits",
        "base_digits-fraction", "rep_value-n", "rep_value-digit",
        "decompose-bool", "divides-bool", "base_digits-bool",
        "rep_value-bool-n", "rep_value-bool-digit", "decompose-decimal",
        "context-bool-depth", "derive-float-depth", "truncate-bool",
        "enumerate_omega-bool-i", "enumerate_omega-float-n",
        "buchberger-bool-rounds", "buchberger-float-steps",
        "reduce-float-steps", "pow-bool", "pow-float"])
def test_floats_and_non_ints_are_refused(ctx, call):
    # a float is never read as the binary fraction it holds, nor a bool as
    # 0 or 1; n and the digits of a representation are ints, and so are
    # depths, term counts, round and step caps and powers
    with pytest.raises(ValueError):
        call(ctx)


def test_exact_inputs_still_read(ctx):
    for m in (F(3, 4), "3/4"):
        assert decompose(m, ctx) == MonoidRep(0, (0, 1))
        assert divides("1/2", m, ctx) is None
        assert canonical_min(m, ctx) == F(3, 4)
        assert preimage(m, ctx) == parse("y^2 - x")
    assert decompose(5, ctx) == MonoidRep(5, ())
    assert divides(1, 2, ctx) == 1
    assert divides(F(1, 2), "5/4", ctx) == F(3, 4)
    assert canonical_min(7, ctx) == 0
    assert lambda_d(3, ctx) == (F(5, 4), MonoidRep(0, (1, 1)))
    assert rep_value(MonoidRep(1, (1,)), ctx) == F(3, 2)


def test_enumerate_omega(ctx):
    assert [v for v, _ in enumerate_omega(0, ctx, 3)] == [0, 1, 2, 3]
    assert [v for v, _ in enumerate_omega(1, ctx, 0)] == [0, F(1, 2)]
    assert [v for v, _ in enumerate_omega(2, ctx, 0)] == \
        [0, F(1, 2), F(3, 4), F(5, 4)]


def test_uniqueness_and_round_trip(ctx):
    # every canonical rep with n <= 20, depth <= 4 has a distinct value and
    # decompose inverts rep_value
    seen = {}
    for digits in product(range(2), range(2), range(2), range(2)):
        for n in range(21):
            rep = MonoidRep(n, digits)
            v = rep_value(rep, ctx)
            assert v not in seen, (rep, seen.get(v))
            seen[v] = rep
            assert decompose(v, ctx) == rep
    assert len(seen) == 21 * 16


def test_membership_against_brute_force_oracle(ctx):
    members = {v for v, _ in enumerate_omega(3, ctx, 10)}
    for num in range(0, 81):
        m = F(num, 8)
        got = decompose(m, ctx)
        if m in members:
            assert got is not None and rep_value(got, ctx) == m
        else:
            assert got is None


def test_lambda_increasing(ctx):
    values = [lambda_d(d, ctx)[0] for d in range(51)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_lambda_fractional_parts_distinct(ctx):
    fracs = [lambda_d(d, ctx)[0] % 1 for d in range(31)]
    assert len(set(fracs)) == 31


def test_coset_decomposition(ctx):
    # each member splits uniquely as n + lambda_d
    for v, rep in enumerate_omega(3, ctx, 6):
        d = sum(dj * ctx.seqs.r(ctx.seqs.l(j - 1))
                for j, dj in enumerate(rep.digits, start=1))
        lam, lrep = lambda_d(d, ctx)
        assert lrep.digits == rep.digits
        assert v == rep.n + lam
        assert v - lam == rep.n >= 0


def test_omega_closed_under_addition(ctx):
    vals = [v for v, _ in enumerate_omega(2, ctx, 3)]
    for a in vals:
        for b in vals:
            rep = decompose(a + b, ctx)
            assert rep is not None
            assert len(rep.digits) <= 2


def test_divides_consistency_with_oracle(ctx):
    # divides(g, f) is exactly membership of the difference
    vals = [v for v, _ in enumerate_omega(2, ctx, 2)]
    for a in vals:
        for b in vals:
            got = divides(a, b, ctx)
            if got is not None:
                assert got == b - a
                assert decompose(b - a, ctx) is not None


def _other_contexts():
    from valmon.series import CallbackTail, SimpleSeriesSpec
    harmonic = SimpleSeriesSpec(
        [(1, F(1, 2))], CallbackTail(lambda i: (1, F(1, i + 2))))
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    mixed = SimpleSeriesSpec(
        [(1, F(3, 2)), (1, F(1, 2)), (1, F(1, 3)), (1, F(1, 5)),
         (1, F(1, 7)), (1, F(1, 11))],
        CallbackTail(lambda i: (1, F(1, primes[i + 4]))))
    return [MonoidContext(harmonic, 6), MonoidContext(mixed, 6)]


def test_lambda_properties_on_other_contexts():
    for other in _other_contexts():
        values = [lambda_d(d, other)[0] for d in range(51)]
        assert all(a < b for a, b in zip(values, values[1:]))
        fracs = [v % 1 for v in values[:31]]
        assert len(set(fracs)) == 31


def test_harmonic_lambda_values():
    other = _other_contexts()[0]
    rho1, rho2, rho3 = (other.seqs.rho(i) for i in (1, 2, 3))
    assert [lambda_d(d, other)[0] for d in range(7)] == [
        0, rho1, rho2, rho1 + rho2, 2 * rho2, rho1 + 2 * rho2, rho3]


def test_decompose_round_trip_on_other_contexts():
    for other in _other_contexts():
        for v, rep in enumerate_omega(3, other, 4):
            assert decompose(v, other) == rep


# ---------------------------------------------------------------------------
# The integer lattice: decompose's chain and min_eta's closed form against
# brute-force enumeration and the linear search min_eta used to run.

_REFERENCE_ETA_CAP = 10000


def reference_min_eta(sigma, targets, ctx):
    """min_eta as a linear search upward from ceil(t - sigma), with its cap:
    the definition the closed form replaced."""
    lo = max(ceil(t - sigma) for t in targets)
    eta = lo
    while eta - lo <= _REFERENCE_ETA_CAP:
        if all(decompose(sigma + eta - t, ctx) is not None for t in targets):
            return eta
        eta += 1
    raise InsufficientPrecision(
        f"no common ideal element found within {_REFERENCE_ETA_CAP} steps "
        f"above {lo}")


def _named_contexts():
    harmonic, mixed = _other_contexts()
    return {"dyadic": MonoidContext(dyadic_spec(), 8), "harmonic": harmonic,
            "mixed-denominators": mixed}


def test_chain_rows_leave_the_dyadic_case():
    # off the dyadic spec the chain has s_j != 2 and c_j^-1 != 1 (mod s_j),
    # so a swapped inverse, weight or row order changes decompose
    for name, other in _named_contexts().items():
        seqs = other.seqs
        R = seqs.r(seqs.l(other.depth))
        assert other.lattice_den == R
        rows = [(R // seqs.r(seqs.l(j)), seqs.s(j),
                 pow(seqs.c(j), -1, seqs.s(j)), seqs.rho(j) * R)
                for j in range(other.depth, 0, -1)]
        assert list(other.chain) == rows
        if name != "dyadic":
            assert any(s != 2 for _, s, _, _ in other.chain)
            assert any(c_inv != 1 for _, _, c_inv, _ in other.chain)


@pytest.mark.parametrize("name,bound", [("harmonic", 12),
                                        ("mixed-denominators", 1)])
def test_decompose_on_every_lattice_point(name, bound):
    # members and non-members alike, against brute-force enumeration: every
    # member of the lattice (1/R)Z has digits only up to the context depth
    other = _named_contexts()[name]
    R = other.lattice_den
    members = dict(enumerate_omega(other.depth, other, bound))
    for k in range(bound * R + 1):
        m = F(k, R)
        want = members.get(m)
        got = decompose(m, other)
        assert got == want, m
        assert decompose(-m - F(1, R), other) is None


def test_off_lattice_denominators_raise(ctx):
    # never a silently floored answer: 1/3 and 1/512 lie outside (1/256)Z
    for m, b in ((F(1, 3), 3), (F(1, 512), 512), (F(1025, 512), 512)):
        message = f"denominator {b} not resolved at depth 8"
        with pytest.raises(InsufficientPrecision, match=message):
            decompose(m, ctx)
        # as before, a negative value is no member whatever its denominator
        assert decompose(-m, ctx) is None


def _random_cases(other, rng, count, top):
    """(sigma, targets): sigma a random Apery element or lattice point of
    index <= top, one to three targets members or arbitrary lattice points
    of index <= top."""
    R = other.lattice_den
    sums = [[F(k, R) for k in apery_set(i, other)] for i in range(top + 1)]

    def point():
        if rng.random() < 0.5:
            return rng.choice(sums[rng.randint(0, top)]) + rng.randint(0, 3)
        # a lattice point of index <= top
        step = R // other.seqs.r(other.seqs.l(top))
        return F(rng.randint(-4 * R, 4 * R) // step * step, R)

    for _ in range(count):
        sigma = rng.choice(sums[rng.randint(0, top)]) if rng.random() < 0.7 \
            else point()
        yield sigma, tuple(point() for _ in range(rng.randint(1, 3)))


def _points(sigma, targets, ctx):
    """sigma and the targets as the lattice points min_eta takes: k = q * R
    as an int, for values q on the lattice."""
    points = [q * ctx.lattice_den for q in (sigma, *targets)]
    assert all(k.denominator == 1 for k in points)
    return points[0].numerator, [k.numerator for k in points[1:]]


@pytest.mark.parametrize("name,top,count", [
    ("dyadic", 8, 2000), ("harmonic", 6, 400),
    # at index 6 the search runs past its cap: rho_6 = 61897273/30030
    ("mixed-denominators", 5, 80)])
def test_min_eta_closed_form_against_search(name, top, count):
    other = _named_contexts()[name]
    rng = random.Random(2024)
    for sigma, targets in _random_cases(other, rng, count, top):
        k, points = _points(sigma, targets, other)
        assert min_eta(k, points, other) == reference_min_eta(
            sigma, targets, other), (sigma, targets)


def test_min_eta_closed_form_past_the_search_cap():
    # index 6 of the mixed spec, where the search gives up: eta is still
    # the least integer putting every sigma + eta - t in the monoid
    other = _named_contexts()["mixed-denominators"]
    rng = random.Random(2024)
    past_cap = 0
    for sigma, targets in _random_cases(other, rng, 300, 6):
        eta = min_eta(*_points(sigma, targets, other), other)
        assert all(decompose(sigma + eta - t, other) is not None
                   for t in targets)
        assert any(decompose(sigma + eta - 1 - t, other) is None
                   for t in targets)
        lo = max(ceil(t - sigma) for t in targets)
        past_cap += eta - lo > _REFERENCE_ETA_CAP
    assert past_cap > 0


def test_min_eta_harmonic_top_targets():
    # harmonic depth 6, targets (rho_6, rho_5), every sigma of index 6
    other = _named_contexts()["harmonic"]
    targets = (other.seqs.rho(6), other.seqs.rho(5))
    sigmas = [v for v, _ in enumerate_omega(6, other, 0)]
    assert len(sigmas) == 840
    assert sorted(apery_set(6, other)) == [s * other.lattice_den
                                           for s in sigmas]
    for sigma in sigmas:
        k, points = _points(sigma, targets, other)
        assert min_eta(k, points, other) == reference_min_eta(
            sigma, targets, other)


def reference_syzygy_values(f, g, ctx, minimal=False):
    """syzygy_values from enumerate_omega and the linear search."""
    lead_f, lead_g = eval_leading(f, ctx), eval_leading(g, ctx)
    depth = max(len(decompose(lead_f.le, ctx).digits),
                len(decompose(lead_g.le, ctx).digits))
    values = sorted(
        sigma + reference_min_eta(sigma, (lead_f.le, lead_g.le), ctx)
        for sigma, _ in enumerate_omega(depth, ctx, 0))
    if not minimal:
        return values
    kept = []
    for v in values:
        if not any(decompose(v - k, ctx) is not None for k in kept):
            kept.append(v)
    return kept


def _criterion_9_pairs():
    rng = random.Random(97)
    pairs = []
    while len(pairs) < 200:
        f, g = criterion_9_poly(rng), criterion_9_poly(rng)
        if not (f.is_zero() or g.is_zero()):
            pairs.append((f, g))
    return pairs


def test_syzygy_values_unchanged_on_criterion_9_pairs(ctx):
    # ctx is shared, so the cached Apery sets serve every pair
    compared = 0
    for f, g in _criterion_9_pairs():
        for minimal in (False, True):
            got, lead_f, lead_g = syzygy_values(f, g, ctx, minimal)
            assert (lead_f, lead_g) == (eval_leading(f, ctx),
                                        eval_leading(g, ctx))
            assert got == reference_syzygy_values(f, g, ctx, minimal)
            compared += len(got)
    assert compared > 400  # some pairs have several values


def test_syzygy_values_unchanged_on_harmonic_key_polynomials():
    other = _named_contexts()["harmonic"]
    p5, p4 = truncation_min_poly(other, 5), truncation_min_poly(other, 4)
    values = syzygy_values(p5, p4, other)[0]
    assert len(values) == 420
    assert values == reference_syzygy_values(p5, p4, other)
    kept = syzygy_values(p5, p4, other, minimal=True)[0]
    assert kept == reference_syzygy_values(p5, p4, other, minimal=True)
    assert kept == [F(401, 14), F(10021, 60)]
