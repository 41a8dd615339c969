from dataclasses import replace

import pytest

from bentfn.constructions import verify_function
from bentfn.gf2m import FieldContext
from bentfn.spectrum import trace_join
from bentfn.tracerep import parse
from bentfn.worked_examples import EXAMPLES, run_all, run_collision_demo, run_example


def test_catalogue_ids_unique():
    ids = [ex.example_id for ex in EXAMPLES]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda ex: ex.example_id)
def test_each_example_passes(example):
    result = run_example(example)
    failed = [c.name for c in result.checks if not c.passed]
    assert not failed, failed


def test_collision_demo_passes():
    assert run_collision_demo().passed


def test_run_all_covers_catalogue_plus_collision():
    results = run_all()
    assert len(results) == len(EXAMPLES) + 1
    assert all(result.passed for result in results)


def test_m7_examples_pass_under_alternative_polynomial(ctx7_alt):
    for example in EXAMPLES:
        if example.m != 7:
            continue
        result = run_example(example, ctx7_alt)
        failed = [c.name for c in result.checks if not c.passed]
        assert not failed, (example.example_id, failed)


def test_result_serialization():
    result = run_example(EXAMPLES[0])
    payload = result.as_dict()
    assert payload["example_id"] == EXAMPLES[0].example_id
    assert payload["passed"] is True
    assert len(payload["checks"]) == len(result.checks)


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda ex: ex.example_id)
def test_checks_begin_with_the_verify_suite(example):
    ctx = FieldContext(example.m)
    suite = verify_function(trace_join(parse(example.f0, ctx), ctx), ctx)
    names = [c.name for c in run_example(example, ctx).checks]
    reports = [report.name for report in suite.reports]
    assert names[: len(reports)] == reports
    assert names[len(reports)] == "derivative-constant"


def test_wrong_zero_indicator_fails_its_form_check():
    example = replace(EXAMPLES[0], zero_indicator="tr(x^5)")
    failed = [c.name for c in run_example(example).checks if not c.passed]
    assert failed == ["zero-indicator-form"]


@pytest.mark.parametrize("example", EXAMPLES[:2], ids=lambda ex: ex.example_id)
def test_wrong_derivative_constant_fails(example):
    wrong = 1 if example.d1_constant is None else None
    result = run_example(replace(example, d1_constant=wrong))
    failed = [c for c in result.checks if not c.passed]
    assert [c.name for c in failed] == ["derivative-constant"]
    assert failed[0].detail == f"d1_f0={example.d1_constant}"


def test_seed_that_is_not_near_bent_fails_without_raising():
    example = replace(EXAMPLES[0], example_id="linear", f0="tr(x)")
    ctx = FieldContext(example.m)
    assert verify_function(trace_join(parse(example.f0, ctx), ctx), ctx).flags is None
    result = run_example(example, ctx)
    assert not result.passed
    assert [(c.name, c.passed) for c in result.checks] == [("bent-classification", False)]
    assert result.as_dict()["checks"][0]["detail"] == "classifies-bent"
