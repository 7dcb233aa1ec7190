"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 incomplete basis, 3 insufficient
precision, 4 parse error, 5 internal error (a failed consistency check or
sequence identity: a bug, not bad input).  All rationals in JSON output are
"p/q" strings.
"""

import argparse
import json
import sys

from . import bipoly, gbengine, seqderive, valmonoid
from .errors import (IdentityViolation, IncompleteBasis, InsufficientPrecision,
                     InternalError, InvalidSpec, NotInMonoid, PolyParseError,
                     ValmonError)
from .exactnum import rat, rat_str
from .series import BUILTIN_SPECS, SimpleSeriesSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCOMPLETE = 2
EXIT_PRECISION = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def load_spec(name_or_path):
    if name_or_path in BUILTIN_SPECS:
        return BUILTIN_SPECS[name_or_path]()
    try:
        with open(name_or_path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidSpec(f"cannot read spec {name_or_path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise PolyParseError(f"spec JSON malformed: {exc}", 0)
    return SimpleSeriesSpec.from_json(data)


def _poly_list(text):
    polys = [bipoly.parse(part) for part in text.split(",") if part.strip()]
    if not polys:
        raise PolyParseError("empty polynomial list", 0)
    return polys


def _emit(payload, args, text_fn=None):
    if args.output == "json":
        print(json.dumps(payload, indent=None, sort_keys=False))
    elif text_fn is not None:
        print(text_fn(payload))
    else:
        print(json.dumps(payload, indent=2, sort_keys=False))


def _rep_payload(rep, value=None):
    out = {"in_monoid": rep is not None}
    if rep is not None:
        out["n"] = str(rep.n)
        out["digits"] = list(rep.digits)
        if value is not None:
            out["value"] = rat_str(value)
    return out


def _add_common(parser, with_defaults):
    """Register the shared options; subcommand copies suppress defaults so
    they can appear on either side of the subcommand without clobbering."""
    d = (lambda v: v) if with_defaults else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--spec", default=d("dyadic"),
                        help="built-in spec name or path to a spec JSON file")
    parser.add_argument("--depth", type=int, default=d(8),
                        help="sequence derivation depth (default 8)")
    parser.add_argument("--max-rounds", type=int,
                        default=d(gbengine.DEFAULT_MAX_ROUNDS))
    parser.add_argument("--step-limit", type=int,
                        default=d(gbengine.DEFAULT_STEP_LIMIT))
    parser.add_argument("--output", choices=("json", "text"),
                        default=d("json"))


def build_parser():
    top = _Parser(prog="valmon",
                  description="valuation-based computations over k[x,y]")
    _add_common(top, with_defaults=True)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, with_defaults=False)
        return p

    command("sequences", "print all derived sequences")
    command("selfcheck", "verify the sequence identities")

    p = command("member", "decide monoid membership of m")
    p.add_argument("m")
    p = command("decompose", "canonical representation of m")
    p.add_argument("m")
    p = command("lambda", "minimal value at y-degree d")
    p.add_argument("d", type=int)
    p = command("preimage", "a polynomial of value m")
    p.add_argument("m")
    p = command("leadexp", "LE_z and LC_z of a polynomial")
    p.add_argument("poly")
    p = command("divide", "approximate quotient of f by g")
    p.add_argument("f")
    p.add_argument("g")
    p = command("reduce", "reduce a polynomial over a basis")
    p.add_argument("--basis", required=True,
                   help="comma-separated basis polynomials")
    p.add_argument("poly")
    p = command("syzygy", "syzygy family of a pair")
    p.add_argument("f")
    p.add_argument("g")
    p = command("gb", "basis construction from generators")
    p.add_argument("gens", help="comma-separated generators")
    return top


def run(args):
    spec = load_spec(args.spec)
    if args.depth < 1 or args.max_rounds < 1 or args.step_limit < 1:
        raise ValueError("depth and limits must be >= 1")

    if args.command == "sequences":
        seqs = seqderive.derive(spec, args.depth)
        _emit(seqs.to_json(), args)
        return EXIT_OK

    if args.command == "selfcheck":
        seqs = seqderive.derive(spec, args.depth)
        checked = seqderive.self_check(seqs)
        _emit({"ok": True, "identities": checked}, args)
        return EXIT_OK

    ctx = valmonoid.MonoidContext(spec, args.depth)

    if args.command == "member":
        rep = valmonoid.decompose(rat(args.m), ctx)
        _emit(_rep_payload(rep), args)
        return EXIT_OK

    if args.command == "decompose":
        m = rat(args.m)
        rep = valmonoid.decompose(m, ctx)
        _emit(_rep_payload(rep, m), args)
        return EXIT_OK

    if args.command == "lambda":
        value, rep = valmonoid.lambda_d(args.d, ctx)
        _emit({"d": args.d, "lambda": rat_str(value),
               "digits": list(rep.digits)}, args)
        return EXIT_OK

    if args.command == "preimage":
        poly = bipoly.preimage(rat(args.m), ctx)
        _emit({"poly": poly.to_string()}, args,
              text_fn=lambda p: p["poly"])
        return EXIT_OK

    if args.command == "leadexp":
        data = bipoly.eval_leading(bipoly.parse(args.poly), ctx)
        _emit({"le": rat_str(data.le), "lc": rat_str(data.lc)}, args)
        return EXIT_OK

    if args.command == "divide":
        f, g = bipoly.parse(args.f), bipoly.parse(args.g)
        h = gbengine.approx_quotient(f, g, ctx)
        payload = {"divides": h is not None}
        if h is not None:
            payload["quotient"] = h.to_string()
        _emit(payload, args)
        return EXIT_OK

    if args.command == "reduce":
        basis = _poly_list(args.basis)
        trace = gbengine.reduce(bipoly.parse(args.poly), basis, ctx,
                                args.step_limit)
        _emit({
            "remainder": trace.remainder.to_string(),
            "steps": [{"divisor": s.divisor,
                       "value_before": rat_str(s.value_before),
                       "quotient": s.quotient.to_string()}
                      for s in trace.steps],
        }, args, text_fn=lambda p: p["remainder"])
        return EXIT_OK

    if args.command == "syzygy":
        f, g = bipoly.parse(args.f), bipoly.parse(args.g)
        fam = gbengine.syzygy_family(f, g, ctx)
        _emit({"family": [{
            "value": rat_str(e.value),
            "a": e.a.to_string(),
            "b": e.b.to_string(),
            "spoly": e.spoly.to_string(),
        } for e in fam]}, args)
        return EXIT_OK

    if args.command == "gb":
        result = gbengine.buchberger(_poly_list(args.gens), ctx,
                                     args.max_rounds, args.step_limit)
        _emit({
            "basis": [g.to_string() for g in result.basis],
            "complete": result.complete,
            "iterations": result.iterations,
        }, args)
        return EXIT_OK if result.complete else EXIT_INCOMPLETE

    raise ValueError(f"unhandled command {args.command}")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return run(args)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InsufficientPrecision as exc:
        print(f"insufficient precision: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except IncompleteBasis as exc:
        print(f"incomplete basis: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (InternalError, IdentityViolation) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (NotInMonoid, InvalidSpec, ValmonError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
