"""Run one deep case that the benchmark does not reach, and print its wall
time, peak memory and a digest of its output.

    python3 tools/deep.py CASE [--src DIR] [--rounds N]

CASE is one of

    harmonic-xy-5   buchberger on (x, y), 5 rounds, harmonic spec, depth 6
    harmonic-p6     truncation_min_poly p_6, harmonic spec, depth 7
    dyadic-lead-p7  truncation_min_poly p_7 and its eval_leading, dyadic
                    spec, depth 9
    dyadic-xy-7     buchberger on (x, y), 7 rounds, dyadic spec, depth 8
    cusp-6          buchberger on (x^3 - y^2, x*y^2), 6 rounds, dyadic
                    spec, depth 8

valmon is imported from DIR (default: src/ of the checkout holding this
script), so one copy of the script times two checkouts.  --rounds caps
a buchberger case at N rounds instead of its own, for a quick check (the
digest then differs).  The run prints one JSON line: the case, the round
cap given, the wall seconds of the computation (context included,
imports not), ru_maxrss of the process in MiB, and the SHA-256 of the
output.  A polynomial is digested as its numerators sorted by
exponent, then its denominator, in hexadecimal (as
tests/minpoly_digests.json is written); a basis as one such text per
element in order, then its completeness and round count; a lead case as
its polynomial's text, then its LE and LC.  Cases run for
seconds to a minute, so run one at a time on a quiet machine, alternating
checkouts, to compare them.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def poly_text(p):
    text = "".join(f"{a} {b} {v:x}\n" for (a, b), v in sorted(p._num.items()))
    return f"{text}/{p._den:x}"


def harmonic_spec():
    """Exponents 1/2, 1/3, 1/4, 1/5, ..."""
    from valmon.series import CallbackTail, SimpleSeriesSpec
    return SimpleSeriesSpec([(1, Fraction(1, 2))],
                            CallbackTail(lambda i: (1, Fraction(1, i + 2))))


def dyadic_spec():
    from valmon.series import dyadic_spec
    return dyadic_spec()


def basis(make_spec, depth, gens, rounds):
    from valmon.bipoly import parse
    from valmon.gbengine import buchberger
    from valmon.valmonoid import MonoidContext
    res = buchberger([parse(g) for g in gens],
                     MonoidContext(make_spec(), depth), max_rounds=rounds)
    return "\n".join([*map(poly_text, res.basis),
                      f"{res.complete} {res.iterations}"])


def minpoly(make_spec, depth, j):
    from valmon.bipoly import truncation_min_poly
    from valmon.valmonoid import MonoidContext
    return poly_text(truncation_min_poly(MonoidContext(make_spec(), depth), j))


def minpoly_lead(make_spec, depth, j):
    from valmon.bipoly import eval_leading, truncation_min_poly
    from valmon.valmonoid import MonoidContext
    ctx = MonoidContext(make_spec(), depth)
    p = truncation_min_poly(ctx, j)
    lead = eval_leading(p, ctx)
    return f"{poly_text(p)}\n{lead.le} {lead.lc}"


# name: (function, its arguments); a buchberger case's last is its rounds
CASES = {
    "harmonic-xy-5": (basis, (harmonic_spec, 6, ("x", "y"), 5)),
    "harmonic-p6": (minpoly, (harmonic_spec, 7, 6)),
    "dyadic-lead-p7": (minpoly_lead, (dyadic_spec, 9, 7)),
    "dyadic-xy-7": (basis, (dyadic_spec, 8, ("x", "y"), 7)),
    "cusp-6": (basis, (dyadic_spec, 8, ("x^3 - y^2", "x*y^2"), 6)),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("case", choices=sorted(CASES))
    parser.add_argument("--src", type=Path, default=SRC)
    parser.add_argument("--rounds", type=int,
                        help="cap a buchberger case at this many rounds")
    args = parser.parse_args(argv)
    run, params = CASES[args.case]
    if args.rounds is not None:
        if run is not basis:
            parser.error(f"{args.case} runs no rounds")
        params = (*params[:-1], args.rounds)
    sys.path.insert(0, str(args.src.resolve()))
    import valmon  # noqa: F401  (imported before the clock starts)
    start = time.perf_counter()
    out = run(*params)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"case": args.case, "rounds": args.rounds,
                      "wall_s": round(wall, 3),
                      "maxrss_mib": round(peak, 1),
                      "sha256": hashlib.sha256(out.encode()).hexdigest(),
                      "src": str(args.src)}))


if __name__ == "__main__":
    main()
