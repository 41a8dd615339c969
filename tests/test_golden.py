"""Byte-stability of the CLI's JSON output.

Each case's stdout, with its temporary directory masked as ``<tmp>``, must
equal the file ``tests/data/golden/<case>.json`` byte for byte.  The files
were captured when every table was still interpolated on its own, so they pin
the output of the class-wise interpolation to that of the direct one; the
``verify`` cases were captured before verify_function's checks moved into one
table with the checkers' own preconditions deciding the skips.  When an
output change is intended, rewrite them with ``python tests/test_golden.py``
(from the root of the checkout, with ``src`` and ``tests`` on the path) and
review the diff.
"""

import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from bentfn.boolfn import BooleanFunction
from bentfn.cli import main
from bentfn.constructions import _six_pack_of, kasami_welch, quadratic_family
from bentfn.gf2m import FieldContext
from bentfn.tracerep import parse
from bentfn.tvr import split

GOLDEN = Path(__file__).parent / "data" / "golden"


def seed_table(m: int, expr: str, a: int, c: int) -> BooleanFunction:
    """A near-bent seed plus the general linear term tr(alpha^a x) + c."""
    ctx = FieldContext(m)
    return parse(expr, ctx).add_linear_form(ctx, int(ctx.antilog_table[a]), c)


def kasami_welch_component(t: int, s: int) -> BooleanFunction:
    """f0 of the pseudo0-dual in the six-pack of kasami_welch(t, s): degree s + 1
    with dozens of trace terms, against the one term of the seed."""
    ctx = FieldContext(2 * t - 1)
    return split(_six_pack_of(kasami_welch(t, s, ctx), ctx).pseudo0_dual)[0]


#: the input files a case may name as {table}
TABLES = {
    "seed7": lambda: seed_table(7, "tr(x^3+x^9)", 5, 1),
    "seed9": lambda: seed_table(9, "tr(x^3)", 11, 0),
    "bent10": lambda: quadratic_family(5, [2, 3]),
    "seed11": lambda: seed_table(11, "tr(x^3)", 7, 1),
    "seed13": lambda: seed_table(13, "tr(x^5)", 100, 0),
    "kw13": lambda: kasami_welch_component(7, 4),
}

CASES = {
    "sixpack_m7_expr": ["sixpack", "--dim", "7", "--expr", "tr(x^3+x^9)"],
    "sixpack_m7_expr_normalize": ["sixpack", "--dim", "7", "--expr", "tr(x^3)+1", "--normalize"],
    "sixpack_m7_table": ["sixpack", "--table", "{seed7}"],
    "sixpack_m7_table_normalize": ["sixpack", "--table", "{seed7}", "--normalize"],
    "sixpack_m9_expr": ["sixpack", "--dim", "9", "--expr", "tr(x^3)"],
    "sixpack_m9_expr_normalize": ["sixpack", "--dim", "9", "--expr", "tr(x^3+x^9)+tr(x)",
                                  "--normalize"],
    "sixpack_m9_table": ["sixpack", "--table", "{seed9}"],
    "sixpack_m9_table_normalize": ["sixpack", "--table", "{seed9}", "--normalize"],
    "analyze_dim8_pair": ["analyze", "--dim", "8", "--expr-pair", "tr(x^13)", "+tr(x)"],
    "analyze_dim8_expr": ["analyze", "--dim", "8", "--expr", "tr(x^3+x^7)"],
    "analyze_dim10_pair_checks": ["analyze", "--dim", "10", "--expr-pair", "tr(x^3+x^9)",
                                  "+tr(x)+1", "--checks"],
    "analyze_dim10_table": ["analyze", "--table", "{bent10}"],
    # quadratic throughout: each class is summed over its leaders of weight <= 2
    "sixpack_m11_table": ["sixpack", "--table", "{seed11}"],
    "sixpack_m11_expr_normalize": ["sixpack", "--dim", "11", "--expr", "tr(x^3+x^9+x^33)+1",
                                   "--normalize"],
    "sixpack_m13_table": ["sixpack", "--table", "{seed13}"],
    "sixpack_m13_expr_normalize": ["sixpack", "--dim", "13", "--expr", "tr(x^5+x^17)+tr(x)",
                                   "--normalize"],
    "analyze_dim12_pair_checks": ["analyze", "--dim", "12", "--expr-pair", "tr(x^3+x^9)",
                                  "+tr(x)+1", "--checks"],
    # degree 11 and 5: the only cases interpolated by the additive FFT; the second
    # was captured while every m = 13 table was interpolated that way
    "analyze_dim11_top": ["analyze", "--dim", "11", "--expr", "x^2047"],
    "analyze_m13_kasami_welch_table": ["analyze", "--table", "{kw13}"],
    # the skip rule of verify: Kasami-Welch with f0 + f1 = tr has a non-constant
    # unit derivative; the second pair is bent but f0 + f1 is neither tr nor tr + 1
    "verify_dim8_kasami_welch_xi0": ["verify", "--dim", "8", "--expr-pair", "tr(x^13)", "+tr(x)"],
    "verify_dim8_pair_without_T": ["verify", "--dim", "8", "--expr-pair", "tr(x^3+x^9)",
                                   "tr(x^3+x^9+x^5)"],
}


def run_case(name: str, tmp: Path) -> str:
    """The case's masked stdout; asserts it exits 0 with nothing on stderr."""
    paths = {}
    for label, make in TABLES.items():
        paths[label] = tmp / f"{label}.bf"
        make().save(paths[label])
    argv = [arg.format(**paths) for arg in CASES[name]] + ["--json"]
    if argv[0] == "sixpack":
        out = tmp / "out"
        out.mkdir()
        argv += ["--out", str(out)]
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == 0, result.stderr
    assert result.stderr == ""
    return result.stdout.replace(str(tmp), "<tmp>")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, tmp_path):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert run_case(name, tmp_path) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{name}.json").write_text(run_case(name, Path(tmp)))
        print(f"wrote {name}", file=sys.stderr)
