"""Pickle, copy and deepcopy of the immutable value types and of results.

BivarPoly, NoetherianSeries and the test oracle's CyclotomicElement
(tests/cyclotomic.py) refuse attribute assignment, so they rebuild through
their constructors (__reduce__); a FinitePuiseux holds a NoetherianSeries,
and the gbengine results hold BivarPolys.  A ReductionStep whose quotient
reduce left unbuilt is pickled and copied with its quotient built.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cyclotomic import CyclotomicElement
from valmon.bipoly import parse
from valmon.gbengine import ReductionStep, buchberger, reduce
from valmon.series import FinitePuiseux, NoetherianSeries, dyadic_spec
from valmon.valmonoid import MonoidContext

F = Fraction


def copies(obj):
    out = [pickle.loads(pickle.dumps(obj, protocol))
           for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return out + [copy.copy(obj), copy.deepcopy(obj)]


@pytest.mark.parametrize("obj", [
    parse("3/4*x^2*y - 5*y^3 + 1/6"),
    parse("0"),
    NoetherianSeries([(F(1, 2), F(3)), (F(1, 4), F(-1, 5))]),
    NoetherianSeries([(F(1, 3), CyclotomicElement.zeta(3))]),
    CyclotomicElement(5, (F(1, 2), 0, F(-3), 7)),
], ids=["poly", "zero-poly", "series", "cyclotomic-series", "cyclotomic"])
def test_value_types_round_trip(obj):
    for other in copies(obj):
        assert type(other) is type(obj)
        assert other == obj and hash(other) == hash(obj)


def test_finite_puiseux_round_trips():
    w = FinitePuiseux([(F(1, 2), 1), (F(3, 4), F(-2, 3))])
    for other in copies(w):
        assert other.terms == w.terms and other.ram_index == w.ram_index
        assert other.series == w.series


def test_results_round_trip():
    ctx = MonoidContext(dyadic_spec(), 8)
    gb = buchberger([parse("x"), parse("y")], ctx, max_rounds=4)
    trace = reduce(parse("y^4 - 2*x*y^2 + x^2 + x^3*y"),
                   [parse("y^2 - x"), parse("x")], ctx)
    assert trace.steps
    for result in (gb, trace):
        other = pickle.loads(pickle.dumps(result))
        assert other == result and hash(other) == hash(result)


def test_unbuilt_reduction_steps_read_as_built_ones():
    # reduce leaves each step's quotient unbuilt until it is read; read
    # through equality, hash, repr, pickle or copy, an unbuilt step is the
    # step built eagerly through the public constructor
    ctx = MonoidContext(dyadic_spec(), 8)
    f = parse("y^4 - 2*x*y^2 + x^2 + x^3*y")
    basis = [parse("y^2 - x"), parse("x")]

    def unbuilt_steps():
        steps = reduce(f, basis, ctx).steps
        assert all("quotient" not in vars(step) for step in steps)
        return steps

    eager = [ReductionStep(s.divisor, s.quotient, s.value_before)
             for s in unbuilt_steps()]
    assert len(eager) == 3
    assert list(unbuilt_steps()) == eager
    assert eager == list(unbuilt_steps())
    assert [hash(s) for s in unbuilt_steps()] == [hash(s) for s in eager]
    assert [repr(s) for s in unbuilt_steps()] == [repr(s) for s in eager]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert [pickle.loads(pickle.dumps(s, protocol))
                for s in unbuilt_steps()] == eager
    for clone in (copy.copy, copy.deepcopy):
        assert [clone(s) for s in unbuilt_steps()] == eager
