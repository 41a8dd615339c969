import json
import logging
import re
import time

import numpy as np
import pytest
from click.testing import CliRunner

from bentfn.boolfn import BooleanFunction
from bentfn.cli import main
from bentfn.constructions import _six_pack_of, kasami_welch, normalize_near_bent, six_pack
from bentfn.errors import BentVerificationFailed
from bentfn.gf2m import FieldContext
from bentfn.tracerep import parse, parse_form, to_trace_form
from bentfn.tvr import join, split

from conftest import ALT_POLY_7


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def failing_six_pack(F, ctx):
    raise BentVerificationFailed("a derived function failed the bent check")


def assert_failure(result, code, prefix):
    """The documented exit code and one stderr line with the table's prefix."""
    assert result.exit_code == code
    assert result.stderr.startswith(f"{prefix}: ")
    assert result.stderr.count("\n") == 1, result.stderr


class TestVerbose:
    ARGS = ["analyze", "--dim", "8", "--expr-pair", "tr(x^3)", "+tr(x)"]

    def test_logs_each_field_build(self, runner):
        quiet = invoke(runner, self.ARGS)
        loud = invoke(runner, ["-v", *self.ARGS])
        assert quiet.exit_code == loud.exit_code == 0
        assert loud.stdout == quiet.stdout
        assert quiet.stderr == ""
        # both components are in the class of the parsed f0: nothing is interpolated
        assert re.fullmatch(r"bentfn\.gf2m: built GF\(2\^7\) with 0x83 in \d+\.\d{4} s\n",
                            loud.stderr)

    @pytest.mark.parametrize("m, algorithm", [(7, "leader summation"),
                                              (11, "leader summation to degree 2"),
                                              (13, "additive FFT")])
    def test_logs_one_interpolation_per_class(self, runner, tmp_path, m, algorithm):
        # the six-pack of a quadratic seed is quadratic throughout; that of f0 of
        # the dual in a Kasami-Welch six-pack has degree 5, too many leaders to sum
        # at m = 13.  The seed is a table, so its class is interpolated too
        ctx = FieldContext(m)
        if algorithm == "additive FFT":
            f0, _ = split(_six_pack_of(kasami_welch(7, 4, ctx), ctx).dual)
        else:
            f0 = parse("tr(x^3+x^5)+1", ctx)
        f0.save(tmp_path / "seed.bf")
        args = ["sixpack", "--table", str(tmp_path / "seed.bf"), "--normalize", "--out",
                str(tmp_path)]
        quiet = invoke(runner, args)
        loud = invoke(runner, ["-v", *args])
        assert quiet.exit_code == loud.exit_code == 0
        assert loud.stdout == quiet.stdout
        assert quiet.stderr == ""
        # the 13 printed tables: the normalized seed, then both components of each function
        seed = normalize_near_bent(f0, ctx)
        tables = [seed.table] + [half.table for fn in six_pack(seed, ctx).functions()
                                 for half in split(fn)]
        tr = ctx.trace_table
        translates = [0, 1, tr, tr ^ 1]
        classes = []
        for table in tables:
            if not any(np.array_equal(table ^ shift, rep) for rep in classes for shift in translates):
                classes.append(table)
        lines = loud.stderr.splitlines()
        interpolations = [line for line in lines if line.startswith("bentfn.tracerep: ")]
        assert 1 < len(classes) == len(interpolations)
        for line in interpolations:
            assert re.fullmatch(rf"bentfn\.tracerep: interpolated over GF\(2\^{m}\) by "
                                rf"{algorithm} in \d+\.\d{{4}} s", line)

    def test_later_call_without_flag_is_quiet(self, runner):
        invoke(runner, ["--verbose", *self.ARGS])
        result = invoke(runner, self.ARGS)
        assert result.stderr == ""
        assert not logging.getLogger("bentfn").handlers

    @pytest.mark.parametrize("args, code", [(ARGS, 0), (["sixpack", "--dim", "7", "--expr",
                                                          "tr(x^3)", "--prefix", "missing/x"], 2)])
    def test_each_call_restores_the_logger(self, runner, args, code):
        # a -v call must not leave bentfn.* at DEBUG for the rest of the process,
        # nor when it fails
        log = logging.getLogger("bentfn")
        before = log.level
        log.setLevel(logging.WARNING)
        try:
            assert invoke(runner, ["-v", *args]).exit_code == code
            assert log.level == logging.WARNING
            assert not log.handlers
        finally:
            log.setLevel(before)


class TestAnalyze:
    def test_near_bent_expression(self, runner):
        result = invoke(runner, ["analyze", "--dim", "7", "--expr", "tr(x^13)"])
        assert result.exit_code == 0
        assert "near-bent" in result.output
        assert "degree:         3" in result.output

    def test_expr_pair_with_suffix(self, runner):
        result = invoke(
            runner,
            ["analyze", "--dim", "8", "--expr-pair", "tr(x^3+x^9)", "+tr(x)"],
        )
        assert result.exit_code == 0
        assert "classification: bent" in result.output
        assert "xi=0" in result.output
        assert "zero-derivative condition holds" in result.output

    def test_parse_error_exits_2(self, runner):
        result = invoke(runner, ["analyze", "--dim", "7", "--expr", "tr(x^"])
        assert result.exit_code == 2
        assert "error" in result.stderr or "error" in result.output

    def test_missing_input_exits_2(self, runner):
        result = invoke(runner, ["analyze", "--dim", "7"])
        assert result.exit_code == 2

    def test_json_is_stable(self, runner):
        args = ["analyze", "--dim", "7", "--expr", "tr(x^13)", "--json"]
        first = invoke(runner, args)
        second = invoke(runner, args)
        assert first.exit_code == 0
        assert first.output == second.output
        payload = json.loads(first.output)
        assert payload["schema"] == 1
        assert payload["classification"] == "near-bent"
        assert payload["trace_form"]["text"] == "tr(x^13)"
        assert "generated_at" not in payload

    def test_json_timestamps_flag(self, runner):
        result = invoke(
            runner, ["analyze", "--dim", "7", "--expr", "tr(x^13)", "--json", "--timestamps"]
        )
        assert "generated_at" in json.loads(result.output)

    def test_full_spectrum_flag(self, runner):
        result = invoke(
            runner,
            ["analyze", "--dim", "5", "--expr", "tr(x^3)", "--json", "--full-spectrum"],
        )
        payload = json.loads(result.output)
        assert len(payload["spectrum"]["coefficients"]) == 32

    def test_table_input(self, runner, tmp_path, ctx7):
        from bentfn.boolfn import trace_polynomial

        path = tmp_path / "f.bf"
        trace_polynomial(ctx7, [13]).save(path)
        result = invoke(runner, ["analyze", "--table", str(path)])
        assert result.exit_code == 0
        assert "near-bent" in result.output

    def test_alternative_polynomial(self, runner):
        result = invoke(
            runner,
            ["analyze", "--dim", "7", "--expr", "tr(x^13)", "--poly", "x^7+x^3+1"],
        )
        assert result.exit_code == 0
        assert "poly=0x89" in result.output

    def test_poly_with_even_dimensional_expr_is_refused(self, runner, monkeypatch):
        # one polynomial cannot name both GF(2^8), where the expression is
        # parsed, and GF(2^7), which carries the components
        def no_field(*args):
            raise AssertionError("a field was built")

        monkeypatch.setattr("bentfn.cli.FieldContext", no_field)
        result = invoke(
            runner, ["analyze", "--dim", "8", "--expr", "tr(x^3)", "--poly", "0x11d"]
        )
        assert result.exit_code == 2
        assert "--poly cannot name both GF(2^8)" in result.stderr
        assert "GF(2^7)" in result.stderr

    @pytest.mark.parametrize("m", [400_000_000, 40_000_000_000])
    def test_oversized_header_exits_2(self, runner, tmp_path, m):
        path = tmp_path / "huge.bf"
        path.write_text(f"BF m={m}\n00\n")
        start = time.perf_counter()
        result = invoke(runner, ["analyze", "--table", str(path)])
        assert time.perf_counter() - start < 1.0
        assert_failure(result, 2, "error")
        assert f"dimension {m}" in result.stderr

    @pytest.mark.parametrize("suffix", ["+tr(x)", "+tr(x)+1"])
    def test_trace_condition_pair_interpolates_once(self, runner, tmp_path, ctx7,
                                                    trace_form_calls, suffix):
        f0 = parse("tr(x^13)", ctx7)
        join(f0, f0 + parse(suffix[1:], ctx7)).save(tmp_path / "pair.bf")
        result = invoke(runner, ["analyze", "--table", str(tmp_path / "pair.bf")])
        assert result.exit_code == 0
        assert len(trace_form_calls) == 1

    @pytest.mark.parametrize("suffix", ["+tr(x)", "+tr(x)+1"])
    def test_parsed_trace_condition_pair_interpolates_nothing(self, runner, tmp_path, ctx7,
                                                              trace_form_calls, suffix):
        args = ["analyze", "--json", "--dim", "8", "--expr-pair", "tr(x^3+x^9)", suffix]
        parsed = invoke(runner, args)
        assert parsed.exit_code == 0 and trace_form_calls == []
        f0 = parse("tr(x^3+x^9)", ctx7)
        join(f0, f0 + parse(suffix[1:], ctx7)).save(tmp_path / "pair.bf")
        read = json.loads(invoke(runner, ["analyze", "--json", "--table",
                                          str(tmp_path / "pair.bf")]).output)
        assert len(trace_form_calls) == 1
        assert json.loads(parsed.output)["components"] == read["components"]

    @pytest.mark.parametrize("dim, calls", [(9, 0), (8, 2)])
    def test_parsed_expression_interpolates_only_at_even_dimension(
            self, runner, trace_form_calls, dim, calls):
        # at even dim the expression is parsed over GF(2^dim), and its form
        # says nothing about the components over GF(2^(dim - 1))
        result = invoke(runner, ["analyze", "--json", "--dim", str(dim), "--expr", "tr(x^3)"])
        assert result.exit_code == 0
        assert len(trace_form_calls) == calls
        payload = json.loads(result.output)
        fn = BooleanFunction.from_hex(dim, payload["table_hex"])
        ctx = FieldContext(dim if dim % 2 else dim - 1)
        if dim % 2:
            assert payload["trace_form"] == to_trace_form(fn, ctx).as_dict(ctx)
        else:
            for half, form in zip(split(fn), payload["components"].values()):
                assert form == to_trace_form(half, ctx).as_dict(ctx)

    def test_checks_flag(self, runner):
        result = invoke(
            runner,
            ["analyze", "--dim", "8", "--expr-pair", "tr(x^13)", "+tr(x)", "--checks"],
        )
        assert result.exit_code == 0
        assert "check dual-unit-derivatives: PASS" in result.output

    @pytest.mark.parametrize("source", ["expr", "table"])
    def test_checks_refuse_odd_dimension(self, runner, tmp_path, trace_form_calls, source):
        # the checks are defined on even dimensions only; refused before any work
        if source == "table":
            parse("tr(x^3)", FieldContext(9)).save(tmp_path / "odd.bf")
            args = ["analyze", "--table", str(tmp_path / "odd.bf")]
        else:
            args = ["analyze", "--dim", "9", "--expr", "tr(x^3)"]
        result = invoke(runner, [*args, "--checks"])
        assert_failure(result, 2, "error")
        assert "--checks needs an even-dimensional function, got dimension 9" in result.stderr
        assert result.stdout == "" and not trace_form_calls
        assert invoke(runner, args).exit_code == 0

    def test_parsed_form_is_printed_without_the_field_leaders(self, runner, monkeypatch):
        # only an interpolation needs every coset leader of the field; a parsed
        # form's coset sizes come from its own leaders
        def enumerate_leaders(m):
            raise AssertionError(f"enumerated the coset leaders mod 2^{m} - 1")

        monkeypatch.setattr("bentfn.gf2m.coset_leaders", enumerate_leaders)
        monkeypatch.setattr("bentfn.tracerep.coset_leaders", enumerate_leaders)
        ctx = FieldContext(9)
        # 73 leads a coset of size 3, so that form is not binary
        for expr, text, binary in [("tr(x^3+x^9)", "tr(x^3+x^9)", True),
                                   ("tr(x^73)+tr(x)+1", "1+tr(x)+tr_3(x^73)", False)]:
            result = invoke(runner, ["analyze", "--json", "--dim", "9", "--expr", expr])
            assert result.exit_code == 0
            form = json.loads(result.output)["trace_form"]
            assert (form["text"], form["is_binary"]) == (text, binary)
            assert form == parse_form(expr, ctx).as_dict(ctx)


class TestGenerate:
    def test_kasami_welch(self, runner, tmp_path):
        result = invoke(
            runner,
            ["generate", "kasami-welch", "--t", "4", "--s", "2", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        assert "classification: bent" in result.output
        saved = BooleanFunction.load(tmp_path / "kasami_welch_t4_s2.bf")
        assert saved.m == 8

    def test_kasami_welch_condition_violation(self, runner, tmp_path):
        result = invoke(
            runner,
            ["generate", "kasami-welch", "--t", "5", "--s", "2", "--out", str(tmp_path)],
        )
        assert result.exit_code == 3
        assert "divisible by 3" in result.stderr

    def test_quadratic(self, runner, tmp_path):
        result = invoke(
            runner,
            ["generate", "quadratic", "--t", "4", "--j", "1,3", "--out", str(tmp_path),
             "--json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["degree"] == 2
        assert payload["classification"] == "bent"
        assert BooleanFunction.load(payload["file"]).m == 8

    def test_quadratic_not_near_bent(self, runner, tmp_path):
        result = invoke(
            runner,
            ["generate", "quadratic", "--t", "5", "--j", "3", "--out", str(tmp_path)],
        )
        assert result.exit_code == 3
        assert "not near-bent" in result.stderr

    def test_quadratic_t1_is_a_precondition_failure(self, runner, tmp_path):
        result = invoke(
            runner,
            ["generate", "quadratic", "--t", "1", "--j", "1", "--out", str(tmp_path)],
        )
        assert result.exit_code == 3
        assert "t must be at least 2" in result.stderr

    @pytest.mark.parametrize("t, code, prefix", [
        (1, 3, "precondition failed"),
        # s = (2t - 2)/3 meets 3s = -1 mod 2t - 1, so t = 10^12 passes every
        # condition on (t, s) and only the field can refuse it before 4^s is formed
        (10**12, 2, "error"),
    ])
    def test_kasami_welch_t_out_of_range(self, runner, tmp_path, t, code, prefix):
        result = invoke(
            runner,
            ["generate", "kasami-welch", "--t", str(t), "--s", str((2 * t - 2) // 3),
             "--out", str(tmp_path)],
        )
        assert_failure(result, code, prefix)

    def test_output_that_is_a_directory_exits_2(self, runner, tmp_path):
        (tmp_path / "kasami_welch_t4_s2.bf").mkdir()
        result = invoke(
            runner,
            ["generate", "kasami-welch", "--t", "4", "--s", "2", "--out", str(tmp_path)],
        )
        assert_failure(result, 2, "error")
        assert result.stdout == ""

    def test_defensive_bent_failure_exits_4(self, runner, tmp_path, monkeypatch):
        def failing_kasami_welch(t, s, ctx):
            raise BentVerificationFailed(f"joined function for t={t}, s={s} failed")

        monkeypatch.setattr("bentfn.cli.kasami_welch", failing_kasami_welch)
        result = invoke(
            runner,
            ["generate", "kasami-welch", "--t", "4", "--s", "2", "--out", str(tmp_path)],
        )
        assert_failure(result, 4, "verification failed")

    @pytest.mark.parametrize("args", [
        ["kasami-welch", "--t", "4", "--s", "2"],
        ["quadratic", "--t", "4", "--j", "1,3"],
        ["kasami-welch", "--t", "4", "--s", "2", "--poly", "x^7+x^3+1"],
    ])
    def test_f0_form_comes_from_the_family_without_interpolation(self, runner, tmp_path, args):
        result = invoke(runner, ["-v", "generate", *args, "--out", str(tmp_path), "--json"])
        assert result.exit_code == 0
        assert "interpolated" not in result.stderr
        payload = json.loads(result.stdout)
        ctx = FieldContext(7, int(payload["field"]["primitive_poly"], 16))
        f0, _ = split(BooleanFunction.load(payload["file"]))
        assert payload["f0_trace_form"] == to_trace_form(f0, ctx).as_dict(ctx)

    def test_f0_outside_the_seed_class_is_interpolated(self, runner, tmp_path, monkeypatch,
                                                       ctx7):
        # f0 = tr(x^13) is not tr(x^3+x^9) plus any of 0, 1, tr, tr + 1
        monkeypatch.setattr("bentfn.cli.quadratic_family",
                            lambda t, J, ctx: kasami_welch(4, 2, ctx))
        result = invoke(runner, ["-v", "generate", "quadratic", "--t", "4", "--j", "1,3",
                                 "--out", str(tmp_path), "--json"])
        assert result.exit_code == 0
        assert result.stderr.count("interpolated") == 1
        payload = json.loads(result.stdout)
        f0, _ = split(BooleanFunction.load(payload["file"]))
        assert payload["f0_trace_form"] == to_trace_form(f0, ctx7).as_dict(ctx7)
        assert payload["f0_trace_form"]["text"] == "tr(x^13)"

    def test_huge_index_is_reduced_before_the_seed_text(self, runner, tmp_path):
        # 10^12 + 2 = 3 mod 9: the seed is tr(x^3+x^9), written without forming 2^(10^12 + 2)
        huge = invoke(runner, ["generate", "quadratic", "--t", "5", "--j", "1,1000000000002",
                               "--out", str(tmp_path)])
        assert huge.exit_code == 0
        assert huge.output == (
            "family:         quadratic {'t': 5, 'J': [1, 1000000000002]}\n"
            "field:          m=9, poly=0x211\n"
            "classification: bent\n"
            "degree:         2\n"
            "f0 trace form:  tr(x^3+x^9)\n"
            f"wrote:          {tmp_path / 'quadratic_t5_J1-1000000000002.bf'}\n"
        )
        huge = json.loads(invoke(runner, ["generate", "quadratic", "--t", "5", "--j",
                                          "1,1000000000002", "--out", str(tmp_path),
                                          "--json"]).output)
        small = json.loads(invoke(runner, ["generate", "quadratic", "--t", "5", "--j", "1,3",
                                           "--out", str(tmp_path), "--json"]).output)
        assert huge.pop("J") == [1, 1000000000002] and small.pop("J") == [1, 3]
        assert huge.pop("file") == str(tmp_path / "quadratic_t5_J1-1000000000002.bf")
        assert small.pop("file") == str(tmp_path / "quadratic_t5_J1-3.bf")
        assert huge == small
        assert huge["f0_trace_form"]["text"] == "tr(x^3+x^9)"
        assert ((tmp_path / "quadratic_t5_J1-1000000000002.bf").read_bytes()
                == (tmp_path / "quadratic_t5_J1-3.bf").read_bytes())


class TestSixpack:
    def test_writes_six_files(self, runner, tmp_path):
        result = invoke(
            runner,
            ["sixpack", "--dim", "7", "--expr", "tr(x^3+x^9)", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        files = sorted(p.name for p in tmp_path.glob("sixpack_*.bf"))
        assert len(files) == 6
        assert "coincidence classes" in result.output

    def test_json_trace_forms_match_each_table(self, runner, tmp_path, ctx7):
        result = invoke(
            runner,
            ["sixpack", "--dim", "7", "--expr", "tr(x^3+x^9)", "--out", str(tmp_path),
             "--json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        seed = parse("tr(x^3+x^9)", ctx7)
        assert payload["seed_trace_form"] == to_trace_form(seed, ctx7).as_dict(ctx7)
        assert len(payload["functions"]) == 6
        for label, entry in payload["functions"].items():
            f0, f1 = split(BooleanFunction.load(entry["file"]))
            assert entry["f0_trace_form"] == to_trace_form(f0, ctx7).as_dict(ctx7), label
            assert entry["f1_trace_form"] == to_trace_form(f1, ctx7).as_dict(ctx7), label

    @staticmethod
    def classes(payload, seed, ctx):
        """Classes modulo adding tr and 1, among the seed and the 12 components."""
        tables = [seed]
        for entry in payload["functions"].values():
            tables += split(BooleanFunction.load(entry["file"]))
        tr = ctx.trace_table
        return {min((f.table ^ s).tobytes() for s in (0, 1, tr, tr ^ 1)) for f in tables}

    def test_one_interpolation_per_class(self, runner, tmp_path, ctx7, trace_form_calls):
        seed = parse("tr(x^3+x^9)", ctx7)
        seed.save(tmp_path / "seed.bf")
        result = invoke(runner, ["sixpack", "--table", str(tmp_path / "seed.bf"), "--out",
                                 str(tmp_path), "--json"])
        assert result.exit_code == 0
        classes = self.classes(json.loads(result.output), seed, ctx7)
        assert len(trace_form_calls) == len(classes) <= 2

    @pytest.mark.parametrize("m, expr", [(7, "tr(x^3+x^9)"), (11, "tr(x^3)")])
    @pytest.mark.parametrize("normalize", [[], ["--normalize"]])
    def test_parsed_seed_class_is_not_interpolated(self, runner, tmp_path, trace_form_calls,
                                                   m, expr, normalize):
        # the seed's class comes from its parsed form (normalizing adds tr and 1
        # at most), so only the other class is interpolated; from a table, both are
        ctx = FieldContext(m)
        seed = parse(expr, ctx)
        args = ["--out", str(tmp_path), "--json", *normalize]
        result = invoke(runner, ["sixpack", "--dim", str(m), "--expr", expr, *args])
        assert result.exit_code == 0
        assert len(self.classes(json.loads(result.output), seed, ctx)) == 2
        assert len(trace_form_calls) == 1
        seed.save(tmp_path / "seed.bf")
        read = invoke(runner, ["sixpack", "--table", str(tmp_path / "seed.bf"), *args])
        assert len(trace_form_calls) == 3
        assert read.output == result.output

    def test_parsed_form_serves_only_its_own_field(self, runner, tmp_path, ctx7_alt):
        # over another primitive polynomial, one expression gives another table,
        # and every printed form is that of the table written over that field
        args = ["sixpack", "--dim", "7", "--expr", "tr(x^3+x^9)", "--out", str(tmp_path), "--json"]
        default = json.loads(invoke(runner, args).output)
        alt = json.loads(invoke(runner, [*args, "--poly", hex(ALT_POLY_7)]).output)
        seed = parse("tr(x^3+x^9)", ctx7_alt)
        assert seed != parse("tr(x^3+x^9)", FieldContext(7))
        assert alt["seed_trace_form"] == to_trace_form(seed, ctx7_alt).as_dict(ctx7_alt)
        for label, entry in alt["functions"].items():
            f0, f1 = split(BooleanFunction.load(entry["file"]))
            assert entry["f0_trace_form"] == to_trace_form(f0, ctx7_alt).as_dict(ctx7_alt), label
            assert entry["f1_trace_form"] == to_trace_form(f1, ctx7_alt).as_dict(ctx7_alt), label
        assert alt["functions"] != default["functions"]

    def test_write_failure_leaves_no_file(self, runner, tmp_path):
        (tmp_path / "sixpack_dual.bf").mkdir()
        result = invoke(
            runner, ["sixpack", "--dim", "7", "--expr", "tr(x^3)", "--out", str(tmp_path)]
        )
        assert_failure(result, 2, "error")
        assert "Is a directory" in result.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["sixpack_dual.bf"]

    SIX_FILES = sorted(f"sixpack_{label}.bf" for label in
                       ("base", "dual", "pseudo0", "pseudo1", "pseudo0-dual", "pseudo1-dual"))

    def test_success_leaves_only_the_six_files(self, runner, tmp_path):
        result = invoke(
            runner, ["sixpack", "--dim", "7", "--expr", "tr(x^3)", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0
        # no .part sibling and no staging directory is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == self.SIX_FILES

    def test_failure_at_fourth_write_leaves_no_new_file(self, runner, tmp_path, monkeypatch):
        save = BooleanFunction.save
        calls = []

        def failing_save(fn, path):
            calls.append(path)
            if len(calls) == 4:
                raise OSError(28, "No space left on device")
            save(fn, path)

        (tmp_path / "sixpack_pseudo1.bf").write_bytes(b"kept")
        monkeypatch.setattr(BooleanFunction, "save", failing_save)
        result = invoke(
            runner, ["sixpack", "--dim", "7", "--expr", "tr(x^3)", "--out", str(tmp_path)]
        )
        assert_failure(result, 2, "error")
        assert "No space left on device" in result.stderr
        assert len(calls) == 4
        assert [p.name for p in tmp_path.iterdir()] == ["sixpack_pseudo1.bf"]
        assert (tmp_path / "sixpack_pseudo1.bf").read_bytes() == b"kept"

    def test_all_six_identical_summary(self, runner, tmp_path):
        result = invoke(
            runner,
            ["sixpack", "--dim", "7", "--expr", "tr(x^3+x^5+x^7+x^11+x^19+x^21)",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        assert "all six identical" in result.output

    def test_precondition_failure_exits_3(self, runner, tmp_path):
        result = invoke(
            runner,
            ["sixpack", "--dim", "7", "--expr", "tr(x^13)", "--out", str(tmp_path)],
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("prefix", ["missing/x", "p" * 300])
    def test_unwritable_prefix_exits_2(self, runner, tmp_path, prefix):
        result = invoke(
            runner,
            ["sixpack", "--dim", "7", "--expr", "tr(x^3)", "--out", str(tmp_path),
             "--prefix", prefix],
        )
        assert_failure(result, 2, "error")

    def test_normalize_cannot_rescue_kasami(self, runner, tmp_path):
        result = invoke(
            runner,
            ["sixpack", "--dim", "7", "--expr", "tr(x^13)", "--normalize",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 3

    def test_normalize_fixes_offset_seed(self, runner, tmp_path):
        result = invoke(
            runner,
            ["sixpack", "--dim", "7", "--expr", "tr(x^3)+1", "--normalize",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0

    def test_derived_bent_failure_exits_4(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("bentfn.constructions._six_pack_of", failing_six_pack)
        result = invoke(
            runner,
            ["sixpack", "--dim", "7", "--expr", "tr(x^3+x^9)", "--out", str(tmp_path)],
        )
        assert result.exit_code == 4
        assert "verification failed: a derived function failed" in result.stderr


class TestVerify:
    def test_passing_input(self, runner):
        result = invoke(
            runner, ["verify", "--dim", "8", "--expr-pair", "tr(x^7+x^13)", "+tr(x)"]
        )
        assert result.exit_code == 0
        assert "check dual-support: PASS" in result.output

    def test_failing_input_exits_4(self, runner):
        result = invoke(
            runner, ["verify", "--dim", "8", "--expr-pair", "tr(x^3)", "tr(x^9)"]
        )
        assert result.exit_code == 4
        assert "FAIL" in result.output

    def test_json_report(self, runner):
        result = invoke(
            runner,
            ["verify", "--dim", "8", "--expr-pair", "tr(x^3+x^9)", "+tr(x)", "--json"],
        )
        payload = json.loads(result.output)
        assert payload["passed"] is True

    @pytest.mark.parametrize("pair", [
        ("tr(x^3+x^9)", "+tr(x)"),
        ("tr(x^3+x^9)", "+tr(x)+1"),
        ("tr(x^3+x^9)", "tr(x^3+x^9+x)+1"),
        ("tr(x^13)", "+tr(x)"),
    ])
    def test_trace_pair_transforms_only_halves(self, runner, tmp_path, fwht_sizes, pair):
        # F's spectrum is derived from f0's, and f0's and f1's from F's; the two
        # dual halves are transformed for the pseudo-duals
        args = ["verify", "--dim", "8", "--expr-pair", *pair]
        result = invoke(runner, args)
        assert result.exit_code == 0
        assert fwht_sizes == [128] * 3
        # the same table read from a file is transformed whole, and reports the same
        table = tmp_path / "F.bf"
        ctx = FieldContext(7)
        f0 = parse(pair[0], ctx)
        f1 = f0 + parse(pair[1][1:], ctx) if pair[1].startswith("+") else parse(pair[1], ctx)
        join(f0, f1).save(table)
        fwht_sizes.clear()
        assert invoke(runner, ["verify", "--table", str(table)]).output == result.output
        assert 256 in fwht_sizes

    def test_other_pair_transforms_the_join(self, runner, fwht_sizes):
        result = invoke(runner, ["verify", "--dim", "8", "--expr-pair", "tr(x^3+x^9)", "+tr(x^3)"])
        assert result.exit_code == 0
        assert fwht_sizes == [256]

    def test_dim12_table(self, runner, tmp_path, ctx11):
        from bentfn.boolfn import trace_polynomial
        from bentfn.tvr import join

        f0 = trace_polynomial(ctx11, [241, 1])
        F = join(f0, trace_polynomial(ctx11, [241]))
        path = tmp_path / "dim12.bf"
        F.save(path)
        result = invoke(runner, ["verify", "--table", str(path)])
        assert result.exit_code == 0


class TestExamples:
    def test_full_catalogue_passes(self, runner):
        result = invoke(runner, ["examples"])
        assert result.exit_code == 0
        assert "kasami-welch-t4-s2" in result.output
        assert "FAIL" not in result.output

    def test_filter(self, runner):
        result = invoke(runner, ["examples", "--only", "quadratic"])
        assert result.exit_code == 0
        assert "quadratic-x3-x9" in result.output
        assert "dim12" not in result.output

    def test_unknown_filter_exits_2(self, runner):
        result = invoke(runner, ["examples", "--only", "nonexistent-id"])
        assert result.exit_code == 2

    def test_json(self, runner):
        result = invoke(runner, ["examples", "--json"])
        payload = json.loads(result.output)
        assert all(entry["passed"] for entry in payload["results"])

    def test_entry_error_is_a_failed_check(self, runner, monkeypatch):
        monkeypatch.setattr("bentfn.worked_examples._six_pack_of", failing_six_pack)
        result = invoke(runner, ["examples", "--json"])
        assert result.exit_code == 5
        by_id = {entry["example_id"]: entry for entry in json.loads(result.output)["results"]}
        assert by_id["quadratic-x3-x9"]["checks"] == [{
            "name": "error",
            "passed": False,
            "detail": "BentVerificationFailed: a derived function failed the bent check",
        }]
        # the collision demonstration never builds a six-pack
        assert by_id["pseudo-dual-collision"]["passed"] is True
