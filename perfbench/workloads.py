"""The benchmark's workloads.

Each workload has the same shape: ``inputs(seed)`` makes the operations'
inputs, ``begin()`` makes the state one pass shares, ``op(state, item)``
is one timed operation, and ``check(state, item, out)`` verifies its output
outside the timed region.  The workloads call valmon through module
attributes, so a tracer installed after import sees every call.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from valmon import bipoly, cli, gbengine, seqderive, series, valmonoid

REFERENCE = Path(__file__).resolve().parent / "reference"


class GbLadder:
    """``valmon gb x,y --max-rounds 6``: the run users wait on.

    Most of its time is certification inside ``eval_leading``, and most of
    its reductions end in zero.  The input is fixed; the seed is unused.
    """

    name = "gb-ladder"
    argv = ("gb", "x,y", "--max-rounds", "6")
    leading_values = tuple(Fraction(v) for v in (
        "1/2", "3/4", "1", "11/8", "43/16", "171/32", "683/64", "2731/128"))

    def __init__(self):
        with open(REFERENCE / "gb_ladder.json") as fh:
            self.reference = json.load(fh)

    def inputs(self, seed):
        return [self.argv]

    def begin(self):
        return None

    def op(self, state, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(self, state, argv, out):
        code, text = out
        payload = json.loads(text)
        if (code != cli.EXIT_INCOMPLETE or payload["complete"] is not False
                or payload["iterations"] != 6
                or payload["basis"] != self.reference["basis"]):
            return False
        basis = [bipoly.parse(g) for g in payload["basis"]]
        if any((0, 0) in g.coeffs for g in basis):
            return False
        ctx = valmonoid.MonoidContext(series.dyadic_spec(), 8)
        values = sorted(bipoly.eval_leading(g, ctx).le for g in basis)
        return tuple(values) == self.leading_values


def random_poly(rng, max_total_deg):
    """The criterion-9 term generator: one to four terms of total degree
    at most max_total_deg with coefficients in [-5, 5]."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(0, max_total_deg)
        b = rng.randint(0, max_total_deg - a)
        c = rng.randint(-5, 5)
        if c:
            terms[(a, b)] = c
    return bipoly.BivarPoly(terms)


class PairContracts:
    """The criterion-9 operations on seeded random pairs, one shared
    dyadic depth-8 context per pass.

    Small pairs certify early, so the time goes to the monoid layer and to
    reuse of the context cache rather than to deep certification.
    """

    name = "pair-contracts"
    pairs = 8000
    # Total degree of the pairs, cycled: 4 six times in ten, 8 three times,
    # 12 once.  A fixed mix rather than a drawn one keeps the amount of
    # work from varying with the seed more than the pairs themselves do.
    degrees = (4, 8, 4, 4, 12, 4, 8, 4, 4, 8)

    def inputs(self, seed):
        rng = random.Random(seed)
        out = []
        while len(out) < self.pairs:
            deg = self.degrees[len(out) % len(self.degrees)]
            f, g = random_poly(rng, deg), random_poly(rng, deg)
            if not (f.is_zero() or g.is_zero()):
                out.append((f, g))
        return out

    def begin(self):
        return valmonoid.MonoidContext(series.dyadic_spec(), 8)

    def op(self, ctx, pair):
        f, g = pair
        lf = bipoly.eval_leading(f, ctx)
        lg = bipoly.eval_leading(g, ctx)
        h = gbengine.approx_quotient(f, g, ctx)
        family = gbengine.syzygy_family(f, g, ctx)
        trace = gbengine.reduce(f, [g], ctx)
        return lf, lg, h, family, trace

    def check(self, ctx, pair, out):
        f, g = pair
        lf, lg, h, family, trace = out
        le = lambda p: bipoly.eval_leading(p, ctx).le  # noqa: E731
        if h is not None:
            rem = f - g * h
            if not (rem.is_zero() or le(rem) < lf.le):
                return False
        for elt in family:
            if (le(elt.a) + lf.le != elt.value
                    or le(elt.b) + lg.le != elt.value
                    or elt.spoly != elt.a * f - elt.b * g
                    or not (elt.spoly.is_zero() or le(elt.spoly) < elt.value)):
                return False
        values = [s.value_before for s in trace.steps]
        return all(a > b for a, b in zip(values, values[1:]))


def triadic_spec():
    """z = t^(1/3) + t^(1/9) + t^(1/27) + ..."""
    return series.SimpleSeriesSpec([(1, Fraction(1, 3))],
                                    series.GeometricTail(3))


def harmonic_spec():
    """The criterion-2 series with exponents 1/2, 1/3, 1/4, 1/5, ..."""
    return series.SimpleSeriesSpec(
        [(1, Fraction(1, 2))],
        series.CallbackTail(lambda i: (1, Fraction(1, i + 2))))


class MinpolyTower:
    """Truncation minimal polynomials p_j, each in a fresh context, then
    their certified leading exponents.

    One operation is one spec's tower: p_j for each of its j, every p_j
    in a fresh context.  Single p_j range from well under a millisecond to
    seconds, too uneven for a median of them to be steady.  Cyclotomic
    arithmetic dominates; the two specs with ramification other than 2
    keep a shortcut valid only for s_k = 2 from passing unnoticed.  The
    inputs are fixed; the seed is unused.
    """

    name = "minpoly-tower"
    # (spec, derivation depth, the j of its tower)
    towers = (("dyadic", series.dyadic_spec, 8, range(2, 7)),
              ("triadic", triadic_spec, 6, range(2, 5)),
              ("harmonic", harmonic_spec, 5, range(2, 5)))

    def inputs(self, seed):
        return list(self.towers)

    def begin(self):
        return None

    def op(self, state, tower):
        _, make_spec, depth, js = tower
        out = []
        for j in js:
            ctx = valmonoid.MonoidContext(make_spec(), depth)
            p = bipoly.truncation_min_poly(ctx, j)
            out.append((p, bipoly.eval_leading(p, ctx)))
        return out

    def check(self, state, tower, out):
        _, make_spec, depth, js = tower
        seqs = seqderive.derive(make_spec(), depth)
        return len(out) == len(js) and all(
            p.deg_y() == seqs.r(seqs.l(j) - 1) and lead.le == seqs.rho(j)
            for j, (p, lead) in zip(js, out))


WORKLOADS = {w.name: w for w in (GbLadder, PairContracts, MinpolyTower)}
