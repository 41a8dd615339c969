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
from bentfn.tracerep import parse, to_trace_form
from bentfn.tvr import split


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
        # both components are one class modulo {0, 1, tr, tr + 1}: one interpolation
        assert re.fullmatch(r"bentfn\.gf2m: built GF\(2\^7\) with 0x83 in \d+\.\d{4} s\n"
                            r"bentfn\.tracerep: interpolated over GF\(2\^7\) by leader "
                            r"summation in \d+\.\d{4} s\n", loud.stderr)

    @pytest.mark.parametrize("m, algorithm", [(7, "leader summation"),
                                              (11, "leader summation to degree 2"),
                                              (13, "additive FFT")])
    def test_logs_one_interpolation_per_class(self, runner, tmp_path, m, algorithm):
        # the six-pack of a quadratic seed is quadratic throughout; that of f0 of
        # the dual in a Kasami-Welch six-pack has degree 5, too many leaders to sum
        # at m = 13
        ctx = FieldContext(m)
        if algorithm == "additive FFT":
            f0, _ = split(_six_pack_of(kasami_welch(7, 4, ctx), ctx).dual)
            f0.save(tmp_path / "seed.bf")
            source = ["--table", str(tmp_path / "seed.bf")]
        else:
            f0 = parse("tr(x^3+x^5)+1", ctx)
            source = ["--dim", str(m), "--expr", "tr(x^3+x^5)+1"]
        args = ["sixpack", *source, "--normalize", "--out", str(tmp_path)]
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
    def test_trace_condition_pair_interpolates_once(self, runner, trace_form_calls, suffix):
        result = invoke(runner, ["analyze", "--dim", "8", "--expr-pair", "tr(x^13)", suffix])
        assert result.exit_code == 0
        assert len(trace_form_calls) == 1

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

    def test_one_interpolation_per_class(self, runner, tmp_path, ctx7, trace_form_calls):
        # classes modulo adding tr and 1, among the seed and the 12 components
        result = invoke(
            runner,
            ["sixpack", "--dim", "7", "--expr", "tr(x^3+x^9)", "--out", str(tmp_path), "--json"],
        )
        assert result.exit_code == 0
        tables = [parse("tr(x^3+x^9)", ctx7)]
        for entry in json.loads(result.output)["functions"].values():
            tables += split(BooleanFunction.load(entry["file"]))
        tr = ctx7.trace_table
        classes = {min((f.table ^ s).tobytes() for s in (0, 1, tr, tr ^ 1)) for f in tables}
        assert len(trace_form_calls) == len(classes) <= 2

    def test_write_failure_leaves_no_file(self, runner, tmp_path):
        (tmp_path / "sixpack_dual.bf").mkdir()
        result = invoke(
            runner, ["sixpack", "--dim", "7", "--expr", "tr(x^3)", "--out", str(tmp_path)]
        )
        assert_failure(result, 2, "error")
        assert "Is a directory" in result.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["sixpack_dual.bf"]

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
