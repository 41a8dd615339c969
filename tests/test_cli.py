import json

import pytest
from click.testing import CliRunner

from bentfn.boolfn import BooleanFunction
from bentfn.cli import main
from bentfn.tracerep import parse, to_trace_form
from bentfn.tvr import split


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


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

    def test_checks_flag(self, runner):
        result = invoke(
            runner,
            ["analyze", "--dim", "8", "--expr-pair", "tr(x^13)", "+tr(x)", "--checks"],
        )
        assert result.exit_code == 0
        assert "check dual-unit-derivatives: PASS" in result.output


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
            pair = split(BooleanFunction.load(entry["file"]), ctx7)
            assert entry["f0_trace_form"] == to_trace_form(pair.f0, ctx7).as_dict(ctx7), label
            assert entry["f1_trace_form"] == to_trace_form(pair.f1, ctx7).as_dict(ctx7), label

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
