"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
All comparisons are integer exact: truth-table equality or coset-keyed
trace-form equality, zero tolerance.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from bentfn.boolfn import trace_function, trace_polynomial
from bentfn.constructions import (
    check_component_derivative_pairing,
    check_dual_component_sum,
    check_dual_unit_derivatives,
    condition_flags,
    dual_support_analysis,
    kasami_welch,
    pseudo_dual_collision_demo,
    quadratic_exponent_sets,
    quadratic_family,
    six_pack,
)
from bentfn.gf2m import FieldContext
from bentfn.spectrum import (
    Classification,
    check_nearbent_distribution,
    classify,
    dual,
    walsh,
)
from bentfn.tracerep import mattson_solomon, parse, to_trace_form
from bentfn.tvr import join, linear_form, split
from bentfn.worked_examples import EXAMPLES, run_example

from conftest import ALT_POLY_7
from helpers import naive_walsh, random_function

EXAMPLES_BY_ID = {ex.example_id: ex for ex in EXAMPLES}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def _assert_example(example_id, ctx=None):
    result = run_example(EXAMPLES_BY_ID[example_id], ctx)
    failed = [c.name for c in result.checks if not c.passed]
    assert not failed, (example_id, failed)
    return result


def test_criterion_1_kasami_welch_fixture():
    with criterion(1, "Kasami-Welch fixture, t=4 s=2"):
        start = time.perf_counter()
        result = _assert_example("kasami-welch-t4-s2")
        names = {c.name for c in result.checks}
        assert {"dual-first-form", "dual-offset-form", "zero-indicator-form",
                "pseudo0-dual-first-form", "pseudo1-dual-first-form"} <= names
        assert time.perf_counter() - start < 1.0


def test_criterion_2_quadratic_fixture(ctx7):
    with criterion(2, "quadratic fixture, t=4"):
        result = _assert_example("quadratic-x3-x9")
        assert {"pseudo0-equals-dual", "pseudo0-dual-equals-base", "degrees"} <= {
            c.name for c in result.checks
        }
        # degree 2 everywhere, asserted directly as well
        F = quadratic_family(4, [1, 3], ctx7)
        D = dual(F, ctx7)
        d0, d1 = split(D)
        assert to_trace_form(d0, ctx7) == to_trace_form(parse("tr(x^9+x)", ctx7), ctx7)
        assert to_trace_form(d1, ctx7) == to_trace_form(parse("tr(x^9)", ctx7), ctx7)
        pack = six_pack(split(F)[0], ctx7)
        assert pack.pseudo0 == D and pack.pseudo0_dual == F
        assert {fn.degree() for fn in pack.functions()} == {2}


def test_criterion_3_catalogue_examples(ctx7):
    with criterion(3, "four catalogued seeds reproduce"):
        start = time.perf_counter()
        _assert_example("x7-x13")
        _assert_example("x15-x27-x29-x43")
        _assert_example("x1-x3-x7-x11-x19-x21")
        _assert_example("x3-x5-x7-x11-x19-x21")

        # the two-class seed: the six functions modulo the structural forms
        # are exactly the base and its dual
        pack = six_pack(parse("tr(x+x^3+x^7+x^11+x^19+x^21)", ctx7), ctx7)
        assert pack.coincidence_classes(modulo_structural_forms=True) == [
            ["base", "pseudo0-dual", "pseudo1-dual"],
            ["dual", "pseudo0", "pseudo1"],
        ]
        assert pack.pseudo0 == pack.dual
        assert pack.pseudo0_dual == pack.base
        assert pack.pseudo1 == pack.dual + linear_form(ctx7, 1, 0)
        assert pack.pseudo1_dual == pack.base + linear_form(ctx7, 0, 1)

        # the self-dual seed: a single class modulo the structural forms
        pack = six_pack(parse("tr(x^3+x^5+x^7+x^11+x^19+x^21)", ctx7), ctx7)
        assert pack.dual == pack.base
        assert len(pack.coincidence_classes(modulo_structural_forms=True)) == 1
        assert pack.pseudo1 == pack.base + linear_form(ctx7, 1, 0)
        assert pack.pseudo1_dual == pack.base + linear_form(ctx7, 0, 1)
        assert time.perf_counter() - start < 5.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the second pseudo-dual and its dual differ from the seed family by the "
        "structural linear forms tr(x) and nu: their duals carry component sums "
        "tr and tr+1 respectively, so literal truth-table set equality of all six "
        "is impossible; the identities hold exactly modulo those two forms "
        "(see test_criterion_3_catalogue_examples)"
    ),
)
def test_criterion_3_literal_set_equalities(ctx7):
    pack = six_pack(parse("tr(x+x^3+x^7+x^11+x^19+x^21)", ctx7), ctx7)
    assert set(pack.functions()) == {pack.base, pack.dual}
    pack = six_pack(parse("tr(x^3+x^5+x^7+x^11+x^19+x^21)", ctx7), ctx7)
    assert len(set(pack.functions())) == 1
    print("criterion 3 (literal set equalities): PASS")


def test_criterion_4_pseudo_dual_collision(ctx7):
    with criterion(4, "pseudo-duality is not injective"):
        report = pseudo_dual_collision_demo(ctx7)
        outcomes = {item.name: item.passed for item in report.report.items}
        assert outcomes == {
            "first-bent": True,
            "second-bent": True,
            "duals-differ": True,
            "first-pseudo-duals-identical": True,
        }


def test_criterion_5_dimension_12(ctx11):
    with criterion(5, "dimension-12 fixture over GF(2^11)"):
        start = time.perf_counter()
        f0 = parse("tr(x^241+x)", ctx11)
        f1 = parse("tr(x^241)", ctx11)
        F = join(f0, f1)
        assert classify(F) is Classification.BENT
        result = _assert_example("kasami-welch-t6-s4-dim12")
        names = {c.name for c in result.checks}
        assert {"pseudo0-bent", "pseudo1-bent", "pseudo0-dual-bent",
                "pseudo1-dual-bent", "pseudo-dual-conditions"} <= names
        D = dual(F, ctx11)
        assert classify(D) is Classification.BENT
        assert time.perf_counter() - start < 2.0


def test_criterion_6_property_battery(ctx5, ctx7, ctx11):
    with criterion(6, "property suites"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)

        # fast transform equals the quadratic-time definition, exactly
        for m in range(2, 13):
            for _ in range(3 if m < 10 else 1):
                f = random_function(rng, m)
                spectrum = walsh(f)
                assert np.array_equal(spectrum.coeffs, naive_walsh(f))
                coeffs = spectrum.coeffs.astype(np.int64)
                assert int(np.sum(coeffs * coeffs)) == 1 << (2 * m)

        # component identities and the bentness certificate on 10^4 random
        # pairs in dimension 6
        half = 1 << 5
        peak = 1 << 3
        bent_seen = 0
        for _ in range(10_000):
            f0 = random_function(rng, 5)
            f1 = random_function(rng, 5)
            w0 = walsh(f0)
            w1 = walsh(f1)
            wf = walsh(join(f0, f1)).coeffs
            assert np.array_equal(wf[:half], w0.coeffs + w1.coeffs)
            assert np.array_equal(wf[half:], w0.coeffs - w1.coeffs)
            certificate = (
                w0.classification is Classification.NEAR_BENT
                and w1.classification is Classification.NEAR_BENT
                and bool(np.all(np.abs(w0.coeffs) + np.abs(w1.coeffs) == peak))
            )
            direct = bool(np.all(np.abs(wf) == peak))
            assert certificate == direct
            bent_seen += certificate

        # affine additions never change the classification
        for seed_exps, ctx in (([13], ctx7), ([3, 9], ctx7)):
            f = trace_polynomial(ctx, seed_exps)
            base = classify(f)
            for _ in range(100):
                a = int(rng.integers(0, ctx.order))
                c = int(rng.integers(0, 2))
                assert classify(f.add_linear_form(ctx, a, c)) is base

        # generated families: every seed near-bent with the right coefficient
        # counts; zero sets where the unit derivative is constant; every bent
        # join satisfies the dual identities and derivative pairing
        generated = []
        for t, ctx in ((3, ctx5), (4, ctx7)):
            for J in quadratic_exponent_sets(t):
                generated.append((quadratic_family(t, J, ctx), ctx))
        generated.append((kasami_welch(4, 2, ctx7), ctx7))
        generated.append((kasami_welch(6, 4, ctx11), ctx11))

        for F, ctx in generated:
            assert classify(F) is Classification.BENT
            for component in split(F):
                spectrum = walsh(component)
                assert spectrum.classification is Classification.NEAR_BENT
                assert check_nearbent_distribution(spectrum, component[0])
                coeffs = spectrum.coeffs.astype(np.int64)
                assert int(np.sum(coeffs * coeffs)) == 1 << (2 * ctx.m)
                omega = component.derivative(1).is_constant()
                if omega is not None:
                    values = spectrum.trace_indexed(ctx)
                    zero_points = np.flatnonzero(values == 0)
                    expected = np.flatnonzero(ctx.trace_table == (1 ^ omega))
                    assert np.array_equal(zero_points, expected)
            assert check_component_derivative_pairing(F, ctx).passed
            assert F.derivative(1 << ctx.m).weight() == 1 << ctx.m
            flags = condition_flags(F, ctx)
            assert flags.xi == 0
            assert check_dual_unit_derivatives(F, ctx).passed
            assert dual_support_analysis(F, ctx).passed
            if flags.d1_f0 is not None:
                assert check_dual_component_sum(F, ctx).passed
            if F.degree() == 2:
                assert dual(F, ctx).degree() == 2

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"battery took {elapsed:.1f}s"


def test_criterion_7_representation_independence():
    with criterion(7, "two primitive polynomials agree on all m=7 fixtures"):
        ctx_a = FieldContext(7)
        ctx_b = FieldContext(7, ALT_POLY_7)
        assert ctx_a.primitive_poly != ctx_b.primitive_poly
        for example in EXAMPLES:
            if example.m != 7:
                continue
            _assert_example(example.example_id, ctx_a)
            _assert_example(example.example_id, ctx_b)
            fa = parse(example.f0, ctx_a)
            fb = parse(example.f0, ctx_b)
            # the functions are equal as field maps but their coordinate truth
            # tables (and so the files) differ
            assert fa.table.tobytes() != fb.table.tobytes()
            flags_a = condition_flags(join(fa, fa + trace_function(ctx_a)), ctx_a)
            flags_b = condition_flags(join(fb, fb + trace_function(ctx_b)), ctx_b)
            assert flags_a == flags_b


def test_criterion_8_interpolation_round_trip(ctx5, ctx7):
    with criterion(8, "interpolation round trip and conjugacy"):
        rng = np.random.default_rng(4096)
        for ctx in (ctx5, ctx7):
            n = ctx.order - 1
            doubled = (2 * np.arange(n, dtype=np.int64)) % n
            for _ in range(100):
                f = random_function(rng, ctx.m)
                form = to_trace_form(f, ctx)
                assert form.evaluate(ctx) == f
                coeffs = mattson_solomon(f, ctx)
                squares = np.array(
                    [ctx.mul(int(c), int(c)) for c in coeffs], dtype=np.int64
                )
                assert np.array_equal(coeffs[doubled], squares)
