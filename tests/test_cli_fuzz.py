"""Fuzz the CLI's argv: every input ends in a documented exit code, never in a
traceback.  Valid dimensions stay at most 10 so that the whole file runs in a
few seconds."""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bentfn.boolfn import BooleanFunction
from bentfn.cli import main

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}

EXPRESSIONS = ("tr(x^3)", "tr(x^3+x^9)", "tr(x^13)", "tr(x)+1", "tr(x^5)", "x^7", "1",
               "tr(x^3)+tr(x)")


def mostly(good, bad):
    """Draws from ``bad`` one time in four, so that most argvs get past the
    first check and reach the later ones."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 0 else good)


def dims(valid):
    return mostly(valid, st.one_of(st.integers(-3, 1), st.integers(25, 10**15)))


# t <= 5 keeps a valid family at dimension 2t <= 10
ts = mostly(st.integers(2, 5), st.one_of(st.integers(-2, 1), st.integers(13, 10**15)))
ss = mostly(st.integers(1, 4), st.one_of(st.integers(-2, 0), st.integers(5, 10**15)))
polys = mostly(st.none(), st.one_of(
    st.integers(0, 1 << 30).map(hex),
    st.integers(0, 1 << 30).map(str),
    st.text("x^+0123456789 ", max_size=14),
    st.sampled_from(["x^7+x+1", "0x89", "x^5+x^2+1", "x^99999999999+1"]),
))


@st.composite
def expressions(draw):
    expr = draw(st.sampled_from(EXPRESSIONS))
    damage = draw(mostly(st.just("none"), st.sampled_from(["truncate", "garble", "random"])))
    if damage == "truncate":
        expr = expr[: draw(st.integers(0, len(expr) - 1))]
    elif damage == "garble":
        at = draw(st.integers(0, len(expr)))
        expr = expr[:at] + draw(st.text("tr()x^+-019 ", min_size=1, max_size=4)) + expr[at:]
    elif damage == "random":
        expr = draw(st.text("tr()x^+-0123456789 ", max_size=16))
    return expr


@st.composite
def table_texts(draw):
    """A .bf file: valid, truncated, with non-hex digits, or with a header
    naming more bits than the file holds."""
    m = draw(st.integers(1, 10))
    bits = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, 2, 1 << m)
    text = BooleanFunction(m, bits.astype(np.uint8)).to_text()
    header, _, body = text.partition("\n")
    damage = draw(mostly(st.just("none"),
                         st.sampled_from(["truncate", "nonhex", "oversized", "header"])))
    if damage == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif damage == "nonhex":
        at = draw(st.integers(0, len(body) - 1))
        text = f"{header}\n{body[:at]}{draw(st.sampled_from('zg-# '))}{body[at + 1:]}"
    elif damage == "oversized":
        text = f"BF m={draw(st.integers(11, 10**15))}\n{body}"
    elif damage == "header":
        text = draw(st.sampled_from(["BF m=", "BF m=-3", "bf m=7", "BF m=7 x", ""])) + "\n" + body
    return text


@pytest.fixture(scope="module")
def places(tmp_path_factory):
    """Output directories: a writable one, one whose targets are directories,
    a path that does not exist and a plain file."""
    root = tmp_path_factory.mktemp("fuzz")
    collide = root / "collide"
    for name in ["kasami_welch_t3_s2", "kasami_welch_t4_s2", "quadratic_t4_J1-3",
                 "quadratic_t3_J1", "sixpack_base"]:
        (collide / f"{name}.bf").mkdir(parents=True)
    (root / "out").mkdir()
    (root / "file.bf").write_text("BF m=2\n0\n")
    return {"root": root, "outs": mostly(st.sampled_from([str(root / "out"), str(collide)]),
                                         st.sampled_from([str(root / "missing"),
                                                          str(root / "file.bf")]))}


def table_path(places, text):
    path = places["root"] / f"{hashlib.sha1(text.encode()).hexdigest()}.bf"
    path.write_text(text)
    return str(path)


@st.composite
def function_input(draw, places, forms, expr_dims=st.integers(2, 10)):
    form = draw(st.sampled_from(forms))
    if form == "--table":
        return ["--table", table_path(places, draw(table_texts()))]
    valid = expr_dims if form == "--expr" else st.integers(2, 5).map(lambda t: 2 * t)
    args = ["--dim", str(draw(dims(valid)))] if draw(mostly(st.just(True), st.booleans())) else []
    if form == "--expr":
        return args + ["--expr", draw(expressions())]
    second = draw(st.sampled_from(["+tr(x)", "+tr(x)+1"]) | expressions())
    return args + ["--expr-pair", draw(expressions()), second]


def with_poly(draw, args):
    poly = draw(polys)
    return args if poly is None else args + ["--poly", poly]


@st.composite
def argvs(draw, command, places):
    if command == "analyze":
        args = ["analyze", *draw(function_input(places, ["--expr", "--expr-pair", "--table"]))]
        args += draw(st.sampled_from([[], ["--checks"], ["--json", "--full-spectrum"]]))
    elif command == "verify":
        args = ["verify", *draw(function_input(places, ["--expr-pair", "--table"]))]
    elif command == "sixpack":
        odd = st.integers(1, 4).map(lambda t: 2 * t + 1)
        args = ["sixpack", *draw(function_input(places, ["--expr", "--table"], odd))]
        args += draw(st.sampled_from([[], ["--normalize"]]))
        args += ["--out", draw(places["outs"]), "--prefix",
                 draw(mostly(st.just("sixpack"), st.sampled_from(["missing/x", "p" * 300, ""])))]
    else:
        t = str(draw(ts))
        if draw(st.booleans()):
            args = ["generate", "kasami-welch", "--t", t, "--s", str(draw(ss))]
        else:
            args = ["generate", "quadratic", "--t", t,
                    "--j", draw(mostly(st.sampled_from(["1", "1,3", "2", "3", "0", "1,8"]),
                                       st.text("0123456789,- ", max_size=8)))]
        args += ["--out", draw(places["outs"])]
    return with_poly(draw, args)


@pytest.mark.parametrize("command", ["analyze", "verify", "sixpack", "generate"])
def test_every_argv_ends_in_a_documented_exit_code(command, places):
    runner = CliRunner()

    # a fixed sample keeps tier-1 deterministic; raise max_examples to search wider
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(command, places))
    def run(argv):
        result = runner.invoke(main, argv, catch_exceptions=False)
        assert result.exit_code in DOCUMENTED_EXIT_CODES, (argv, result.output)

    run()
