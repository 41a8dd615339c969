"""Tests of the benchmark itself: tracing, restoration, self times, checks.

Run with ``python -m pytest perfbench`` from the root of the checkout.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

import bentfn
import bentfn.cli
import bentfn.constructions
import bentfn.spectrum
from bentfn import FieldContext, parse
from run import Bench
from tracing import Tracer, bindings, layer_metrics, self_times, traced
from workloads import PASS_MIX, Generator


@pytest.fixture()
def bench(tmp_path):
    return Bench("catalogue-small", 0, tmp_path)


def test_wrapped_calls_are_seen_through_every_binding():
    f = parse("tr(x^3)", FieldContext(5))
    modules = (bentfn.spectrum, bentfn.cli, bentfn.constructions, bentfn)
    tracer = Tracer()
    with traced(tracer):
        for module in modules:
            module.walsh(f)
    walsh_spans = [span for span in tracer.spans if span.name == "spectrum.walsh"]
    assert len(walsh_spans) == len(modules)


def test_every_patched_attribute_is_the_original_after_the_traced_run(bench):
    before = [(owner, attr, original) for owner, attr, original, _ in bindings()]
    assert {name.split(".")[0] for *_, name in bindings()} >= {"gf2m", "spectrum", "tracerep",
                                                              "tvr", "constructions", "boolfn"}
    tracer = Tracer()
    bench.run_pass(0, "traced", tracer)
    assert tracer.spans
    with pytest.raises(RuntimeError), traced(tracer):
        raise RuntimeError("leave the block by an exception")
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_self_times_sum_to_root_span_duration(bench):
    tracer = Tracer()
    bench.run_pass(0, "traced", tracer)
    own = self_times(tracer.spans)
    roots = [i for i, span in enumerate(tracer.spans) if span.parent is None]
    assert len(roots) == sum(count for _, count in PASS_MIX["catalogue-small"])
    for root in roots:
        job = tracer.spans[root].job
        total = sum(own[i] for i, span in enumerate(tracer.spans) if span.job == job)
        assert math.isclose(total, tracer.spans[root].duration, rel_tol=1e-9, abs_tol=1e-12)
    assert all(value >= -1e-9 for value in own)


def test_counts_match_the_pipeline(tmp_path):
    """15 FWHTs and no trace forms per quadratic xi = 0 verify at dimension 20;
    13 trace forms per sixpack."""
    bench = Bench("verify-large", 0, tmp_path)
    job = bench.generator.pair_job(random.Random(0), "verify", 19, "quadratic", 0)
    sixpack = Generator("sixpack-trace", 0).sixpack(random.Random(1), 11, 0)
    argvs = [bench.prepare(job, tmp_path / "verify"), bench.prepare(sixpack, tmp_path / "six")]
    tracer = Tracer()
    with traced(tracer):
        results = [bench.invoke(argv, tracer, i) for i, argv in enumerate(argvs)]
    assert [bench.checker.check(j, r) for j, r in zip((job, sixpack), results)] == [[], []]
    names = [(span.job, span.name) for span in tracer.spans]
    assert names.count((0, "spectrum.walsh")) == 15
    assert names.count((0, "tracerep.to_trace_form")) == 0
    assert names.count((1, "tracerep.to_trace_form")) == 13
    metrics = layer_metrics(tracer, results)
    assert metrics["spectrum.walsh_calls"] == 15 + names.count((1, "spectrum.walsh"))
    assert metrics["cli.errors"] == 0


def test_same_seed_gives_same_inputs():
    first = Generator("catalogue-small", 7).make_pass(3)
    second = Generator("catalogue-small", 7).make_pass(3)
    other = Generator("catalogue-small", 8).make_pass(3)
    assert [job.argv for job in first] == [job.argv for job in second]
    assert [job.argv for job in first] != [job.argv for job in other]


def _sixpack_outcome(bench, tmp_path):
    job = bench.generator.sixpack(random.Random(2), 7, 1)
    result = bench.run_job(job, tmp_path / "job")
    assert bench.checker.check(job, result) == []
    return job, result


def test_checker_rejects_a_flipped_table_bit(bench, tmp_path):
    job, result = _sixpack_outcome(bench, tmp_path)
    path = json.loads(result.stdout)["functions"]["dual"]["file"]
    fn = bentfn.BooleanFunction.load(path)
    table = fn.table.copy()
    table[5] ^= 1
    bentfn.BooleanFunction(fn.m, table).save(path)
    assert bench.checker.check(job, result)


def test_checker_rejects_an_altered_trace_form_coefficient(bench, tmp_path):
    job, result = _sixpack_outcome(bench, tmp_path)
    payload = json.loads(result.stdout)
    terms = payload["functions"]["pseudo0"]["f0_trace_form"]["terms"]
    leaders = {term["leader"] for term in terms}
    terms[0]["leader"] = next(e for e in (1, 3, 5, 7, 9, 11, 13) if e not in leaders)
    result.stdout = json.dumps(payload)
    assert bench.checker.check(job, result)


def test_checker_rejects_an_undocumented_exit_code(bench, tmp_path):
    job = next(j for j in bench.jobs(0) if j.kind == "invalid")
    result = bench.run_job(job, tmp_path / "job")
    assert bench.checker.check(job, result) == []
    result.exit_code = 1
    assert bench.checker.check(job, result)


def test_is_bent_rejects_a_near_miss():
    from checks import is_bent

    # x0 x1 + x2 x3, bent on four variables
    table = np.array([(x & x >> 1 & 1) ^ (x >> 2 & x >> 3 & 1) for x in range(16)],
                     dtype=np.uint8)
    assert is_bent(table)
    table[0] ^= 1
    assert not is_bent(table)
