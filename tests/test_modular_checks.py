"""Reduction traces and S-polynomials checked modulo a prime.

tests/test_reduce_reference.py rebuilds each trace with cur - g*h, and so
runs the same _accumulate and _product that reduce and the S-polynomials
run.  Evaluation at a point modulo P = 2^127 - 1 is a ring map and shares
no code with either, so at a seeded point (x0, y0):

- every reduction trace satisfies
  f = sum (a/d) * x0^n * p(x0, y0) * g(x0, y0) + r (mod P), read from each
  step's unbuilt quotient parts (p, a, d, n), with g the step's divisor
  and r the remainder;
- every SyzygyElement satisfies s = a*f - b*g (mod P).

Both run on every buchberger input of tests/test_reduce_reference.py
(GB_CASES) and on x,y at 6 rounds.  A wrong coefficient passes either
check only by chance, about deg/P.
"""

import random

import pytest

from shared_inputs import P, residue
from test_reduce_reference import GB_CASES, SPECS
from valmon import gbengine
from valmon.bipoly import parse
from valmon.valmonoid import MonoidContext

CASES = GB_CASES + [(("x", "y"), "dyadic", 6)]


@pytest.fixture(scope="module", params=CASES,
                ids=[f"{','.join(g)}-{s}-{r}" for g, s, r in CASES])
def recorded(request):
    """(reduce calls as (f, basis, trace), syzygy elements as (elt, f, g))
    of one buchberger run in a fresh context."""
    gens, spec_name, rounds = request.param
    make_spec, depth = SPECS[spec_name]
    ctx = MonoidContext(make_spec(), depth)
    calls, elements = [], []
    reduce, family = gbengine.reduce, gbengine._family

    def recording_reduce(f, basis, ctx, *args, **kwargs):
        trace = reduce(f, basis, ctx, *args, **kwargs)
        calls.append((f, list(basis), trace))
        return trace

    def recording_family(f, g, ctx, *args):
        out = family(f, g, ctx, *args)
        elements.extend(out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(gbengine, "reduce", recording_reduce)
        m.setattr(gbengine, "_family", recording_family)
        gbengine.buchberger([parse(g) for g in gens], ctx, max_rounds=rounds)
    assert calls and elements
    return calls, elements


def _point():
    rng = random.Random(97)
    return rng.randrange(2, P), rng.randrange(2, P)


def test_reduction_traces_hold_modulo_p(recorded):
    calls, _ = recorded
    x0, y0 = _point()
    values = {}

    def at(p):
        if p not in values:
            values[p] = residue(p, x0, y0)
        return values[p]

    steps = 0
    for f, basis, trace in calls:
        total = at(trace.remainder)
        for step in trace.steps:
            p, a, d, n = step.__dict__["_parts"]
            total += (a * pow(d, -1, P) * pow(x0, n, P) % P * at(p)
                      * at(basis[step.divisor]))
            steps += 1
        assert (at(f) - total) % P == 0, (f, len(trace.steps))
    assert steps


def test_syzygy_elements_hold_modulo_p(recorded):
    _, elements = recorded
    x0, y0 = _point()
    for elt, f, g in elements:
        a, b, s = (residue(q, x0, y0) for q in (elt.a, elt.b, elt.spoly))
        assert (s - a * residue(f, x0, y0) + b * residue(g, x0, y0)) % P \
            == 0, elt.value
