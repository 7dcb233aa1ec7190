"""Valuation-based Groebner bases over value monoids of generalized power
series in characteristic zero, with exact arithmetic end to end."""

from .bipoly import (BivarPoly, LeadingData, eval_leading,
                     min_poly_finite_puiseux, parse, preimage)
from .errors import (IdentityViolation, IncompleteBasis, InsufficientPrecision,
                     InternalError, InvalidSpec, NotInMonoid, PolyParseError,
                     StepLimitExceeded, ValmonError, ZeroPolynomial)
from .exactnum import rat, rat_str
from .gbengine import (GbResult, ReductionTrace, SyzygyElement,
                       approx_quotient, buchberger, is_member, reduce,
                       syzygy_family)
from .seqderive import DerivedSequences, derive, self_check
from .series import (FinitePuiseux, GeometricTail, NoetherianSeries,
                     SimpleSeriesSpec, TailRule, CallbackTail, agreement_order,
                     dyadic_spec, leading_data, series_add, series_mul,
                     truncate)
from .valmonoid import (MonoidContext, MonoidRep, base_digits, canonical_min,
                        decompose, divides, enumerate_omega, lambda_d,
                        rep_value)

__all__ = [
    "BivarPoly", "LeadingData", "eval_leading", "min_poly_finite_puiseux",
    "parse", "preimage",
    "IdentityViolation", "IncompleteBasis", "InsufficientPrecision",
    "InternalError", "InvalidSpec", "NotInMonoid", "PolyParseError",
    "StepLimitExceeded", "ValmonError", "ZeroPolynomial",
    "rat", "rat_str",
    "GbResult", "ReductionTrace", "SyzygyElement", "approx_quotient",
    "buchberger", "is_member", "reduce", "syzygy_family",
    "DerivedSequences", "derive", "self_check",
    "FinitePuiseux", "GeometricTail", "NoetherianSeries", "SimpleSeriesSpec",
    "TailRule", "CallbackTail", "agreement_order", "dyadic_spec",
    "leading_data", "series_add", "series_mul", "truncate",
    "MonoidContext", "MonoidRep", "base_digits", "canonical_min", "decompose",
    "divides", "enumerate_omega", "lambda_d", "rep_value",
]
