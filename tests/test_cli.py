import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from valmon import bipoly, cli, seqderive, valmonoid
from valmon.bipoly import parse
from valmon.cli import main
from valmon.errors import IdentityViolation, InternalError


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_leadexp(capsys):
    got = run_json(capsys, "leadexp", "y^2 - x")
    assert got == {"le": "3/4", "lc": "2"}


def test_member_false(capsys):
    got = run_json(capsys, "member", "1/4")
    assert got == {"in_monoid": False}


def test_member_true(capsys):
    got = run_json(capsys, "member", "3/4")
    assert got == {"in_monoid": True, "n": "0", "digits": [0, 1]}


def test_decompose(capsys):
    got = run_json(capsys, "decompose", "31/8")
    assert got["n"] == "2" and got["digits"] == [1, 0, 1]
    assert got["value"] == "31/8"


def test_sequences_depth_one(capsys):
    got = run_json(capsys, "--depth", "1", "sequences")
    assert got["rho"] == ["1/2"]


def test_sequences_json_strings(capsys):
    got = run_json(capsys, "--depth", "4", "sequences")
    assert got["rho"] == ["1/2", "3/4", "11/8", "43/16"]
    assert got["r"] == ["1", "2", "4", "8", "16"]


def test_lambda(capsys):
    got = run_json(capsys, "lambda", "3")
    assert got == {"d": 3, "lambda": "5/4", "digits": [1, 1]}


def test_preimage_round_trip(capsys):
    got = run_json(capsys, "preimage", "3/4")
    assert parse(got["poly"]) == parse("y^2 - x")


def test_divide(capsys):
    got = run_json(capsys, "divide", "x", "y")
    assert got == {"divides": True, "quotient": "y"}
    got = run_json(capsys, "divide", "y", "x")
    assert got == {"divides": False}


def test_reduce(capsys):
    got = run_json(capsys, "reduce", "--basis", "y^2-x,x*y", "x^2")
    assert parse(got["remainder"]) == parse(
        "-1/4*y^5 + 1/2*x*y^3 - 1/4*x^2*y + x^2")
    assert [s["value_before"] for s in got["steps"]] == ["2"]


def test_syzygy(capsys):
    got = run_json(capsys, "syzygy", "y^2-x", "x*y")
    values = [e["value"] for e in got["family"]]
    assert values == ["3/2", "2", "9/4", "11/4"]
    for e in got["family"]:
        parse(e["a"]), parse(e["b"]), parse(e["spoly"])  # all re-parse


def test_gb_incomplete_exit_code(capsys):
    code, out, _ = run(capsys, "--max-rounds", "2", "gb", "x,y")
    assert code == 2
    got = json.loads(out)
    assert got["complete"] is False
    assert got["iterations"] == 2
    for g in got["basis"]:
        parse(g)


def test_gb_complete(capsys):
    got = run_json(capsys, "gb", "x")
    assert got == {"basis": ["x"], "complete": True, "iterations": 1}


def test_selfcheck(capsys):
    got = run_json(capsys, "--depth", "6", "selfcheck")
    assert got["ok"] is True
    assert "rho-recurrence" in got["identities"]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "leadexp", "y^^2")
    assert code == 4
    assert "parse error" in err


def nested(depth, inner="x", opener="("):
    return opener * depth + inner + ")" * depth


def test_nesting_at_the_cap_parses():
    assert parse(nested(bipoly._NESTING_CAP)) == parse("x")
    assert parse(nested(bipoly._NESTING_CAP, opener="-(")) == parse("x")


@pytest.mark.parametrize("opener", ["(", "-("], ids=["parens", "minus"])
def test_nesting_past_the_cap_is_a_parse_error(capsys, opener):
    code, out, err = run(capsys, "leadexp", "--", nested(10_000, "x", opener))
    assert code == cli.EXIT_PARSE == 4
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("parse error: parentheses nested deeper than 100")
    at = bipoly._NESTING_CAP * len(opener) + len(opener) - 1
    assert err.rstrip().endswith(f"(at position {at})")


def test_hostile_input_never_escapes_main(capsys, tmp_path):
    """Hostile polynomial text, each at a seeded size, through every
    command that parses it: each call returns its documented exit code.
    A number past int()'s 4,300-digit limit and a non-decimal digit such
    as a superscript are parse errors; the power table's field cap on
    y^10000 is a usage error.  So are a rational past that limit and a
    spec whose numbers are not exact, a JSON bool or float among them,
    with valmon's own message, while a spec file that is not JSON, not
    UTF-8 or holds an int past that limit is a parse error, the last with
    valmon's own message."""
    rng = random.Random(20)
    depth = rng.randrange(101, 10_001)
    parse_error, usage, ok = cli.EXIT_PARSE, cli.EXIT_USAGE, cli.EXIT_OK
    hostile = [
        (nested(depth), parse_error), (nested(depth, "y", "-("), parse_error),
        ("(" * depth, parse_error), (")" * depth, parse_error),
        ("-" * rng.randrange(2, 5_000) + "x", parse_error),
        (f"x^{10 ** rng.randrange(5, 60)}", parse_error),
        ("y^" + "9" * 5_000, parse_error), ("y^10000", usage),
        ("(x^100*y)^100", parse_error),
        ("x" + "+x" * rng.randrange(500, 2_000), ok),
        ("1" + "-x" * rng.randrange(500, 2_000), ok), ("y^²", parse_error),
    ]
    for text, expected in hostile:
        for argv in (["leadexp", "--", text],
                     ["reduce", f"--basis={text}", "x"],
                     ["reduce", "--basis=y^2-x", "--", text],
                     ["gb", "--", "x," + text]):
            code, _, _ = run(capsys, *argv)
            assert code == expected, (argv[0], text[:20])
    nines = "9" * 5_000
    for argv in (["member", f"1/{nines}"], ["decompose", f"{nines}/2"],
                 ["preimage", nines]):
        code, out, err = run(capsys, *argv)
        assert code == usage and out == "", argv[0]
        assert "more than 4300 digits" in err and "sys." not in err
    spec = '{"prefix": [{"c": %s, "e": "1/2"}], "tail": %s}'
    none, geometric = '{"kind": "none"}', '{"kind": "geometric", "base": %s}'
    spec_files = [
        ((spec % (nines, none)).encode(), parse_error),
        (b"\xff" + (spec % ("1", none)).encode(), parse_error),
        ((spec % (f'"1/{nines}"', none)).encode(), usage),
        ((spec % ("1", geometric % "2.0")).encode(), usage),
        ((spec % ("1", geometric % '"1e1"')).encode(), usage),
        ((spec % ("1", geometric % '"2"')).encode(), ok),
        ((spec % ("true", none)).encode(), usage),
        ((spec % ("false", none)).encode(), usage),
        ((spec % ("2.5", none)).encode(), usage),
    ]
    path = tmp_path / "spec.json"
    for data, expected in spec_files:
        path.write_bytes(data)
        code, _, err = run(capsys, "--spec", str(path), "sequences",
                           "--depth", "2")
        assert code == expected, data[-40:]
        assert "sys." not in err, data[-40:]
        if nines.encode() in data and code == parse_error:
            assert "more than 4300 digits in an int" in err
        if any(v in data for v in (b"true", b"false", b"2.5")):
            assert "not an exact rational" in err, data[-40:]
            assert "invalid literal" not in err, data[-40:]


def test_precision_error_exit_code(capsys):
    code, _, err = run(capsys, "member", "1/1024")
    assert code == 3
    assert "insufficient precision" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


@pytest.mark.parametrize("exc", [InternalError("broken invariant"),
                                 IdentityViolation("rho-recurrence", 3)])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def broken(m, ctx):
        raise exc
    monkeypatch.setattr(valmonoid, "decompose", broken)
    code, out, err = run(capsys, "decompose", "3/4")
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert "internal error" in err


def test_depth_above_the_cap_is_a_usage_error(capsys, monkeypatch):
    def derive(spec, depth):
        raise AssertionError("derived a depth above the cap")
    monkeypatch.setattr(seqderive, "derive", derive)
    for command in (("sequences",), ("selfcheck",), ("decompose", "1/2")):
        code, out, err = run(capsys, "--depth", str(cli._DEPTH_CAP + 1),
                             *command)
        assert code == cli.EXIT_USAGE == 1
        assert out == ""
        assert f"depth {cli._DEPTH_CAP + 1} exceeds {cli._DEPTH_CAP}" in err


def test_depth_at_the_cap_is_accepted(capsys):
    got = run_json(capsys, "--depth", str(cli._DEPTH_CAP), "decompose",
                   "1/2")
    assert got["n"] == "0" and got["digits"] == [1]


def test_step_limit_is_a_usage_error(capsys):
    code, _, err = run(capsys, "reduce", "--step-limit", "1",
                       "--basis", "y^2-x", "y^6")
    assert code == 1
    assert "exceeded 1 steps" in err


def test_not_in_monoid_preimage(capsys):
    code, _, err = run(capsys, "preimage", "1/4")
    assert code == 1


def test_spec_file_loading(tmp_path, capsys):
    spec = {"prefix": [{"c": "1", "e": "1/2"}, {"c": "1", "e": "1/3"},
                       {"c": "1", "e": "1/4"}, {"c": "1", "e": "1/5"}],
            "tail": {"kind": "none"}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    got = run_json(capsys, "--spec", str(path), "--depth", "4", "sequences")
    assert got["r"] == ["1", "2", "6", "12", "60"]


def test_deeply_nested_spec_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "--spec", str(path), "sequences")
    assert code == cli.EXIT_PARSE == 4
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("parse error: spec JSON")


def test_missing_spec_file(capsys):
    code, _, err = run(capsys, "--spec", "/does/not/exist.json", "sequences")
    assert code == 1


def test_text_output(capsys):
    code, out, _ = run(capsys, "--output", "text", "preimage", "3/4")
    assert code == 0
    assert parse(out.strip()) == parse("y^2 - x")


def test_stable_json_across_runs(capsys):
    a = run(capsys, "--depth", "4", "sequences")
    b = run(capsys, "--depth", "4", "sequences")
    assert a == b


def test_flags_after_subcommand(tmp_path, capsys):
    # the documented calling convention puts --spec after the subcommand
    spec = {"prefix": [{"c": "1", "e": "1/2"}],
            "tail": {"kind": "geometric", "base": 2}}
    path = tmp_path / "dyadic.json"
    path.write_text(json.dumps(spec))
    got = run_json(capsys, "leadexp", "--spec", str(path), "y^2 - x")
    assert got == {"le": "3/4", "lc": "2"}
    got = run_json(capsys, "member", "--spec", str(path), "1/4")
    assert got == {"in_monoid": False}
    got = run_json(capsys, "sequences", "--depth", "1")
    assert got["rho"] == ["1/2"]


def assert_usage_error(code, out, err):
    """Exit 1 with a one-line error message, and nothing on stdout."""
    assert code == cli.EXIT_USAGE == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["member", "decompose", "preimage"])
def test_zero_denominator_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "1/0")
    assert_usage_error(code, out, err)
    assert "zero denominator" in err


@pytest.mark.parametrize("field", ["c", "e"])
def test_spec_with_a_zero_denominator_is_a_usage_error(tmp_path, capsys,
                                                       field):
    term = {"c": "1", "e": "1/2"}
    term[field] = "1/0"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"prefix": [term]}))
    code, out, err = run(capsys, "--spec", str(path), "sequences")
    assert_usage_error(code, out, err)
    assert "zero denominator" in err


@pytest.mark.parametrize("tail", [{"kind": "geometric"},
                                  {"kind": "geometric", "base": None},
                                  {"kind": "geometric", "base": 2.5},
                                  {"kind": "geometric", "base": float("inf")},
                                  "none"],
                         ids=["no-base", "null-base", "fractional-base",
                              "infinite-base", "string-tail"])
def test_malformed_spec_tail_is_a_usage_error(tmp_path, capsys, tail):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"prefix": [{"c": "1", "e": "1/2"}],
                                "tail": tail}))
    code, out, err = run(capsys, "--spec", str(path), "sequences")
    assert_usage_error(code, out, err)
    assert "malformed spec JSON" in err


SRC = Path(__file__).resolve().parents[1] / "src"


def _limit_address_space():
    # a run that allocates past the cap fails here instead of exhausting
    # the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("exponents, poly, what", [
    (["1/10000019"], "x", "scan window"),
    (["1/1000000007"], "x", "scan window"),
    (["1/2", "1/1000000007"], "y^2", "power table"),
], ids=["window-over-cap", "window-far-over-cap", "table-over-cap"])
def test_oversized_dense_images_are_usage_errors(tmp_path, exponents, poly,
                                                 what):
    """A spec whose scan window or power table would hold more than the
    cap of int fields is refused before anything that size is allocated,
    with a message naming the size and the cap."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "prefix": [{"c": "1", "e": e} for e in exponents],
        "tail": {"kind": "geometric", "base": "2"}}))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "valmon.cli", "--spec", str(path), "leadexp",
         poly], capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    assert_usage_error(proc.returncode, proc.stdout, proc.stderr)
    assert what in proc.stderr and "over the cap of 10000000" in proc.stderr
