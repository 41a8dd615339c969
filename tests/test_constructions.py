import numpy as np
import pytest

from bentfn.boolfn import BooleanFunction, trace_function, trace_polynomial
from bentfn.constructions import (
    _CHECKS,
    bent_from_near_bent,
    check_component_derivative_pairing,
    check_dual_component_sum,
    check_dual_unit_derivatives,
    check_pseudo_dual_conditions,
    check_spectrum_zero_set,
    condition_flags,
    dual_support_analysis,
    kasami_welch,
    kasami_welch_exponent,
    normalize_near_bent,
    pseudo_dual_collision_demo,
    pseudo_duals,
    quadratic_exponent_sets,
    quadratic_family,
    six_pack,
    verify_function,
)
from bentfn.errors import (
    ConditionTNotMet,
    ConditionViolation,
    DerivativeNotConstant,
    InvalidExponentSet,
    NotNearBent,
)
from bentfn.gf2m import FieldContext
from bentfn.spectrum import Classification, classify, dual, walsh
from bentfn.tvr import join, linear_form, split

from helpers import gf_pow


class TestBentFromNearBent:
    def test_quadratic_seed(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 9])
        F = bent_from_near_bent(f0, ctx7)
        assert classify(F) is Classification.BENT
        assert split(F)[0] == f0

    def test_kasami_seed_rejected(self, ctx7):
        with pytest.raises(DerivativeNotConstant):
            bent_from_near_bent(trace_polynomial(ctx7, [13]), ctx7)

    def test_gold_seed_with_derivative_one(self, ctx7):
        f0 = trace_polynomial(ctx7, [3])
        assert f0.derivative(1).is_constant() == 1
        assert classify(bent_from_near_bent(f0, ctx7)) is Classification.BENT

    def test_non_near_bent_rejected(self, ctx7):
        with pytest.raises(NotNearBent):
            bent_from_near_bent(BooleanFunction.constant(7, 0), ctx7)


class TestNormalize:
    def test_already_normalized(self, ctx7):
        f = trace_polynomial(ctx7, [3, 9])
        assert f.derivative(1).is_constant() == 0 and f[0] == 0
        assert normalize_near_bent(f, ctx7) == f

    def test_four_candidate_oracle(self, ctx7):
        # exactly one of {f, f+1, f+tr, f+tr+1} qualifies; the result is it
        f = trace_polynomial(ctx7, [3]) + 1
        tr = trace_function(ctx7)
        candidates = [f, f + 1, f + tr, f + tr + 1]
        qualifying = [
            g for g in candidates if g.derivative(1).is_constant() == 0 and g[0] == 0
        ]
        assert len(qualifying) == 1
        h = normalize_near_bent(f, ctx7)
        assert h == qualifying[0]
        assert h == trace_polynomial(ctx7, [3, 1])

    def test_trace_itself_rejected(self, ctx7):
        # tr is affine, not near-bent, so the guard fires before any search
        with pytest.raises(NotNearBent):
            normalize_near_bent(trace_function(ctx7), ctx7)

    def test_kasami_seed_rejected(self, ctx7):
        with pytest.raises(DerivativeNotConstant):
            normalize_near_bent(trace_polynomial(ctx7, [13]), ctx7)

    def test_general_direction(self, ctx7):
        # substituting x -> cx moves the constant-derivative direction from 1
        # to 1/c while preserving near-bentness
        base = trace_polynomial(ctx7, [3]) + 1
        poly = ctx7.primitive_poly
        c = next(c for c in range(2, 128) if ctx7.trace(gf_pow(c, 126, poly)) == 1)
        e = gf_pow(c, 126, poly)  # c^(2^7 - 2) = 1/c
        f = BooleanFunction(7, [base[ctx7.mul(c, x)] for x in range(128)])
        assert f.derivative(e).is_constant() == 1
        h = normalize_near_bent(f, ctx7, e=e)
        assert h.derivative(e).is_constant() == 0 and h[0] == 0
        assert h.derivative(1).is_constant() is None  # direction 1 alone no longer works

    def test_direction_needs_trace_one(self, ctx7):
        e = next(x for x in range(1, 128) if ctx7.trace(x) == 0)
        with pytest.raises(ConditionViolation):
            normalize_near_bent(trace_polynomial(ctx7, [3, 9]), ctx7, e=e)


class TestConditionFlags:
    def test_trace_condition_detected(self, ctx7):
        f0 = trace_polynomial(ctx7, [7, 13])
        F = join(f0, f0 + trace_function(ctx7))
        flags = condition_flags(F, ctx7)
        assert flags.has_T and flags.xi == 0 and not flags.has_C
        assert flags.d1_f0 is None
        assert flags.dist_to_tr == 0 and flags.dist_to_tr_plus_one == 128

    def test_xi_one(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 9])
        F = join(f0, f0 + trace_function(ctx7) + 1)
        assert condition_flags(F, ctx7).xi == 1

    def test_no_trace_condition(self, ctx7):
        F = join(BooleanFunction.constant(7, 0), BooleanFunction.constant(7, 1))
        flags = condition_flags(F, ctx7)
        assert not flags.has_T and flags.xi is None
        assert flags.dist_to_tr == 64 and flags.dist_to_tr_plus_one == 64


class TestDualSupport:
    def test_kasami_zero_indicator(self, ctx7):
        F = kasami_welch(4, 2, ctx7)
        report = dual_support_analysis(F, ctx7)
        assert report.passed
        assert [item.name for item in report.report.items] == [
            "first-dual-support-is-S-union-S1",
            "second-dual-equals-first-plus-zero-indicator",
            "S-and-S1-disjoint",
            "zero-set-size",
        ]
        # the zero-set indicator is 1 + tr(x^5) for this seed
        expected = trace_polynomial(ctx7, [5], constant_term=1)
        assert report.g == expected
        values = walsh(split(F)[0]).trace_indexed(ctx7)
        assert np.array_equal(report.s_indicator.table, values == -16)
        S = {int(v) for v in report.s_indicator.support()}
        S1 = {v ^ 1 for v in S}
        assert {int(v) for v in split(dual(F, ctx7))[0].support()} == S | S1
        assert len(S1) == len(S) and not (S & S1)
        assert report.g.weight() == 64

    def test_flipped_dual_bit_fails_support_check(self, ctx7, monkeypatch):
        import bentfn.constructions as constructions

        def flipped_dual(F, ctx):
            table = dual(F, ctx).table.copy()
            table[5] ^= 1
            return BooleanFunction(F.m, table)

        F = kasami_welch(4, 2, ctx7)
        monkeypatch.setattr(constructions, "dual", flipped_dual)
        report = dual_support_analysis(F, ctx7)
        assert not report.report.item("first-dual-support-is-S-union-S1").passed
        assert report.report.item("S-and-S1-disjoint").passed
        assert report.report.item("zero-set-size").passed

    def test_flipped_dual_bit_fails_pseudo_dual_bent_check(self, ctx7, monkeypatch, fwht_sizes):
        import bentfn.constructions as constructions

        def flipped_dual(F, ctx):
            table = dual(F, ctx).table.copy()
            table[5] ^= 1
            return BooleanFunction(F.m, table)

        F = kasami_welch(4, 2, ctx7)
        fwht_sizes.clear()
        monkeypatch.setattr(constructions, "dual", flipped_dual)
        report = check_pseudo_dual_conditions(F, ctx7)
        # the flipped point lies in the first half: pseudo0 is not bent, so its
        # dual is never taken, and pseudo1 is; both spectra are derived
        assert not report.passed
        assert [item.name for item in report.items] == [
            "pseudo0-bent", "pseudo1-bent", "pseudo1-dual-meets-C", "pseudo1-dual-xi-1",
        ]
        assert not report.item("pseudo0-bent").passed
        assert report.item("pseudo1-bent").passed
        assert fwht_sizes == [128, 128]

    def test_quadratic_zero_indicator_is_trace(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 9])
        F = join(f0, f0 + trace_function(ctx7))
        report = dual_support_analysis(F, ctx7)
        assert report.passed
        assert report.g == trace_function(ctx7)

    def test_requires_trace_condition(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 9])
        F = join(f0, f0)
        with pytest.raises(ConditionTNotMet):
            dual_support_analysis(F, ctx7)


class TestIdentityCheckers:
    def test_dual_unit_derivatives(self, ctx7):
        for exps in ([13], [15, 27, 29, 43], [3, 5, 7, 11, 19, 21]):
            f0 = trace_polynomial(ctx7, exps)
            F = join(f0, f0 + trace_function(ctx7))
            assert check_dual_unit_derivatives(F, ctx7).passed

    def test_self_dual_seed_has_zero_derivative(self, ctx7):
        # a self-dual function with the trace condition forces D_1 f0 = 0
        f0 = trace_polynomial(ctx7, [3, 5, 7, 11, 19, 21])
        F = join(f0, f0 + trace_function(ctx7))
        assert dual(F, ctx7) == F
        assert condition_flags(F, ctx7).has_C

    def test_dual_component_sum_both_constants(self, ctx5):
        tr = trace_function(ctx5)
        # omega = 0 seed (two terms) and omega = 1 seed (one term)
        for exps, omega in (([3, 5], 0), ([3], 1)):
            f0 = trace_polynomial(ctx5, exps)
            assert f0.derivative(1).is_constant() == omega
            F = join(f0, f0 + tr)
            report = check_dual_component_sum(F, ctx5)
            assert report.passed
            d0, d1 = split(dual(F, ctx5))
            assert d0 + d1 == tr + omega

    def test_pseudo_dual_conditions_xi0(self, ctx7):
        F = kasami_welch(4, 2, ctx7)
        report = check_pseudo_dual_conditions(F, ctx7)
        assert report.passed
        names = [item.name for item in report.items]
        assert "pseudo0-dual-xi-0" in names and "pseudo1-dual-xi-1" in names

    def test_pseudo_dual_conditions_xi1_swaps(self, ctx7):
        # adding the nu form turns xi=0 into xi=1 and swaps the dual components,
        # so the expected constants swap with it
        F = kasami_welch(4, 2, ctx7) + linear_form(ctx7, 0, 1)
        assert condition_flags(F, ctx7).xi == 1
        report = check_pseudo_dual_conditions(F, ctx7)
        assert report.passed
        names = [item.name for item in report.items]
        assert "pseudo0-dual-xi-1" in names and "pseudo1-dual-xi-0" in names

    def test_pseudo_dual_requires_trace_condition(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 9])
        with pytest.raises(ConditionTNotMet):
            check_pseudo_dual_conditions(join(f0, f0), ctx7)

    def test_zero_set_characterization(self, ctx7):
        # derivative constant 1: zeros at trace 0; constant 0: zeros at trace 1
        gold = trace_polynomial(ctx7, [3])
        assert gold.derivative(1).is_constant() == 1
        assert check_spectrum_zero_set(gold, ctx7).passed
        quad = trace_polynomial(ctx7, [3, 9])
        assert quad.derivative(1).is_constant() == 0
        assert check_spectrum_zero_set(quad, ctx7).passed

    def test_zero_set_requires_constant_derivative(self, ctx7):
        with pytest.raises(DerivativeNotConstant):
            check_spectrum_zero_set(trace_polynomial(ctx7, [13]), ctx7)

    def test_component_derivative_pairing(self, ctx7):
        for exps in ([13], [3, 9]):
            f0 = trace_polynomial(ctx7, exps)
            F = join(f0, f0 + trace_function(ctx7))
            assert check_component_derivative_pairing(F, ctx7).passed


class TestFamilies:
    def test_kasami_welch_parameters(self):
        assert kasami_welch_exponent(4, 2) == (13, "-1")
        assert kasami_welch_exponent(6, 4) == (241, "+1")
        with pytest.raises(ConditionViolation, match="divisible by 3"):
            kasami_welch_exponent(5, 2)
        with pytest.raises(ConditionViolation, match="not congruent"):
            kasami_welch_exponent(4, 1)
        with pytest.raises(ConditionViolation, match="s must satisfy"):
            kasami_welch_exponent(4, 5)

    def test_kasami_welch_function(self, ctx7):
        F = kasami_welch(4, 2, ctx7)
        assert classify(F) is Classification.BENT
        assert split(F)[0] == trace_polynomial(ctx7, [13])

    def test_quadratic_family(self, ctx7):
        F = quadratic_family(4, [1, 3], ctx7)
        assert classify(F) is Classification.BENT
        assert F.degree() == 2
        assert split(F)[0] == trace_polynomial(ctx7, [3, 9])

    def test_quadratic_derivative_parity(self, ctx7):
        for J in ([1], [2], [1, 2], [1, 2, 3]):
            F = quadratic_family(4, J, ctx7)
            assert split(F)[0].derivative(1).is_constant() == len(J) % 2

    def test_quadratic_rejects_bad_sets(self, ctx7):
        with pytest.raises(InvalidExponentSet):
            quadratic_family(4, [], ctx7)
        with pytest.raises(InvalidExponentSet):
            quadratic_family(4, [0], ctx7)
        with pytest.raises(InvalidExponentSet):
            quadratic_family(4, [1, 8], ctx7)  # 8 = 1 mod 7
        with pytest.raises(InvalidExponentSet):
            quadratic_family(4, [1, 6], ctx7)  # 2^6+1 conjugate to 2^1+1

    def test_quadratic_rejects_rank_deficient_seed(self):
        # over GF(2^9) the seed tr(x^(2^3+1)) has a 2^3-dimensional kernel
        with pytest.raises(NotNearBent) as info:
            quadratic_family(5, [3])
        assert info.value.histogram is not None

    def test_quadratic_degree_two_duals(self, ctx7):
        F = quadratic_family(4, [1, 3], ctx7)
        D = dual(F, ctx7)
        assert F.degree() == 2 and D.degree() == 2
        d0, d1 = split(D)
        assert d0.degree() == 2 and d1.degree() == 2

    def test_exponent_set_sweep_is_deterministic(self):
        assert list(quadratic_exponent_sets(3)) == [(1,), (2,), (1, 2)]


class TestPseudoDuals:
    def test_components_pair_dual_halves_with_trace(self, ctx7):
        F = kasami_welch(4, 2, ctx7)
        pd0, pd1 = pseudo_duals(F, ctx7)
        d0, d1 = split(dual(F, ctx7))
        tr = trace_function(ctx7)
        assert pd0 == join(d0, d0 + tr)
        assert pd1 == join(d1, d1 + tr)
        assert classify(pd0) is Classification.BENT
        assert classify(pd1) is Classification.BENT

    def test_self_dual_seed_fixes_first_pseudo_dual(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 5, 7, 11, 19, 21])
        F = join(f0, f0 + trace_function(ctx7))
        pd0, _ = pseudo_duals(F, ctx7)
        assert pd0 == F

    def test_requires_bent(self, ctx7):
        from bentfn.errors import NotBent

        with pytest.raises(NotBent):
            pseudo_duals(BooleanFunction.constant(8, 0), ctx7)


class TestSixPack:
    def test_quadratic_six_pack(self, ctx7):
        pack = six_pack(trace_polynomial(ctx7, [3, 9]), ctx7)
        assert all(classify(fn) is Classification.BENT for fn in pack.functions())
        assert pack.pseudo0 == pack.dual
        assert pack.pseudo0_dual == pack.base
        classes = pack.coincidence_classes()
        assert classes == [
            ["base", "pseudo0-dual"],
            ["dual", "pseudo0"],
            ["pseudo1"],
            ["pseudo1-dual"],
        ]

    def test_self_dual_seed_single_reduced_class(self, ctx7):
        pack = six_pack(trace_polynomial(ctx7, [3, 5, 7, 11, 19, 21]), ctx7)
        assert len(pack.coincidence_classes()) == 3
        assert pack.coincidence_classes(modulo_structural_forms=True) == [
            ["base", "dual", "pseudo0", "pseudo1", "pseudo0-dual", "pseudo1-dual"]
        ]

    def test_two_class_seed(self, ctx7):
        pack = six_pack(trace_polynomial(ctx7, [1, 3, 7, 11, 19, 21]), ctx7)
        reduced = pack.coincidence_classes(modulo_structural_forms=True)
        assert reduced == [
            ["base", "pseudo0-dual", "pseudo1-dual"],
            ["dual", "pseudo0", "pseudo1"],
        ]

    def test_kasami_seed_rejected(self, ctx7):
        with pytest.raises(DerivativeNotConstant):
            six_pack(trace_polynomial(ctx7, [13]), ctx7)

    def test_exhaustive_t3(self, ctx5):
        for J in quadratic_exponent_sets(3):
            F = quadratic_family(3, J, ctx5)
            pack = six_pack(split(F)[0], ctx5)
            assert all(classify(fn) is Classification.BENT for fn in pack.functions())
            suite = verify_function(F, ctx5)
            assert suite.passed


class TestCollision:
    def test_demo(self, ctx7):
        report = pseudo_dual_collision_demo(ctx7)
        assert report.passed
        names = {item.name: item.passed for item in report.report.items}
        assert names["duals-differ"] and names["first-pseudo-duals-identical"]

    def test_both_functions_bent(self, ctx7):
        report = pseudo_dual_collision_demo(ctx7)
        assert classify(report.first) is Classification.BENT
        assert classify(report.second) is Classification.BENT


class TestOneSpectrumPerFunction:
    def test_walsh_is_computed_once(self, ctx7):
        f = trace_polynomial(ctx7, [13])
        assert walsh(f) is walsh(f)

    def test_verify_function_transform_count(self, ctx7, fwht_sizes):
        f0 = trace_polynomial(ctx7, [3, 9])
        F = join(f0, f0 + trace_function(ctx7))
        suite = verify_function(F, ctx7)
        assert suite.passed and not suite.skipped
        # 2^8 points: F, which join builds without a spectrum (bent-classification).
        # 2^7 points: one dual half for each pseudo-dual that
        # check_pseudo_dual_conditions derives by trace_join.  dual-support and
        # the zero-set checks read f0 and f1 with spectra derived from F's
        assert sorted(fwht_sizes) == [128] * 2 + [256]

    @pytest.mark.parametrize("m", [7, 11])
    def test_six_pack_transform_count(self, m, fwht_sizes):
        # the seed and both dual components are transformed; base and both
        # pseudo-duals are joins with the trace, so their spectra are derived;
        # only the pseudo-duals' duals need full-size transforms
        ctx = FieldContext(m)
        pack = six_pack(trace_polynomial(ctx, [3]), ctx)
        # reading the derived spectra runs no further transform
        assert all(walsh(fn).classification is Classification.BENT
                   for fn in (pack.base, pack.pseudo0, pack.pseudo1))
        assert sorted(fwht_sizes) == [1 << m] * 3 + [2 << m] * 2

    def test_catalogue_entry_transform_count(self, fwht_sizes):
        from bentfn.worked_examples import EXAMPLES, run_example

        assert run_example(EXAMPLES[1]).passed
        # 2^7 points: the parsed seed (trace_join builds F); in verify_function,
        # the two dual halves of check_pseudo_dual_conditions (dual-support and
        # the zero-set checks derive f0 and f1 from F's spectrum); the two dual
        # halves of _six_pack_of.  2^8 points: the duals of _six_pack_of's two
        # pseudo-duals
        assert sorted(fwht_sizes) == [128] * 5 + [256] * 2

    @pytest.mark.parametrize("m", [7, 11])
    def test_pseudo_dual_check_transforms_only_halves(self, m, fwht_sizes):
        ctx = FieldContext(m)
        F = bent_from_near_bent(trace_polynomial(ctx, [3]), ctx)
        fwht_sizes.clear()
        assert check_pseudo_dual_conditions(F, ctx).passed
        # each pseudo-dual's spectrum is derived from its dual half's
        assert fwht_sizes == [1 << m] * 2

    def test_refused_zero_set_check_makes_no_transform(self, ctx7, monkeypatch):
        import bentfn.spectrum as spectrum

        f = trace_polynomial(ctx7, [13])  # near-bent, D1 f not constant
        monkeypatch.setattr(spectrum, "_fwht", lambda values: pytest.fail("an FWHT ran"))
        with pytest.raises(DerivativeNotConstant, match="^unit derivative not constant$"):
            check_spectrum_zero_set(f, ctx7)

    @pytest.mark.parametrize(("exponent", "xi", "calls"), [
        (13, 1, []),  # D1 f0, D1 f1 not constant, xi = 1: no half is derived
        (13, 0, [0]),  # only dual-support reads f0
        (3, 0, [0, 0, 1]),  # dual-support reads f0, then each zero-set check its half
        (3, 1, [0, 1]),
    ])
    def test_zero_set_checks_derive_a_half_only_past_the_derivative(
            self, ctx7, monkeypatch, exponent, xi, calls):
        import bentfn.constructions as constructions

        derived = []
        derive = constructions.component
        monkeypatch.setattr(constructions, "component",
                            lambda F, i: derived.append(i) or derive(F, i))
        f0 = trace_polynomial(ctx7, [exponent])
        suite = verify_function(join(f0, f0 + trace_function(ctx7) + xi), ctx7)
        assert suite.passed
        assert derived == calls
        refused = [(s.name, s.reason) for s in suite.skipped
                   if s.name.startswith("spectrum-zero-set")]
        assert refused == ([] if exponent == 3 else [
            ("spectrum-zero-set-f0", "unit derivative not constant"),
            ("spectrum-zero-set-f1", "unit derivative not constant"),
        ])


@pytest.fixture()
def derived(monkeypatch):
    """Every result of ``dual`` and ``condition_flags`` that the constructions obtain
    while the test runs, by name.  Each is kept alive, so distinct objects have
    distinct ids."""
    import bentfn.constructions as constructions

    results = {"dual": [], "condition_flags": []}
    for name, kept in results.items():
        def keeping(F, ctx, compute=getattr(constructions, name), kept=kept):
            kept.append(compute(F, ctx))
            return kept[-1]

        monkeypatch.setattr(constructions, name, keeping)
    return results


def _distinct(objects) -> int:
    return len({id(obj) for obj in objects})


class TestOneDualAndFlagsPerFunction:
    @pytest.fixture()
    def bent7(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 9])
        return join(f0, f0 + trace_function(ctx7))

    def test_dual_and_flags_are_kept(self, ctx7, bent7):
        assert dual(bent7, ctx7) is dual(bent7, ctx7)
        assert condition_flags(bent7, ctx7) is condition_flags(bent7, ctx7)

    def test_equal_field_shares_them(self, ctx7, bent7):
        other = FieldContext(7)
        assert other is not ctx7
        assert dual(bent7, other) is dual(bent7, ctx7)
        assert condition_flags(bent7, other) is condition_flags(bent7, ctx7)

    def test_each_field_gets_its_own(self, ctx7, ctx7_alt, bent7):
        duals = [dual(bent7, ctx) for ctx in (ctx7, ctx7_alt)]
        flags = [condition_flags(bent7, ctx) for ctx in (ctx7, ctx7_alt)]
        assert duals[0] != duals[1]  # the trace inner product depends on the field
        # the two fields have different trace tables, so the flags are not shared
        assert flags[1] is not flags[0]
        for ctx, kept_dual, kept_flags in zip((ctx7, ctx7_alt), duals, flags):
            fresh = BooleanFunction(bent7.m, bent7.table)
            assert kept_dual == dual(fresh, ctx)
            assert kept_flags == condition_flags(fresh, ctx)

    def test_xi_zero_verify(self, ctx7, bent7, derived):
        assert verify_function(bent7, ctx7).passed
        # duals of F and of the two pseudo-duals; flags of F and of those two duals
        assert _distinct(derived["dual"]) == 3
        assert _distinct(derived["condition_flags"]) == 3

    def test_xi_one_verify(self, ctx7, derived):
        f0 = trace_polynomial(ctx7, [3, 9])
        suite = verify_function(join(f0, f0 + trace_function(ctx7) + 1), ctx7)
        assert suite.passed and suite.flags.xi == 1
        # the three checks needing xi = 0 are skipped on F's one set of flags
        assert _distinct(derived["condition_flags"]) == 3

    def test_kasami_welch_verify(self, ctx7, derived):
        f0 = trace_polynomial(ctx7, [13])  # D1 f0 not constant
        suite = verify_function(join(f0, f0 + trace_function(ctx7)), ctx7)
        assert suite.passed and suite.flags.d1_f0 is None
        assert _distinct(derived["dual"]) == 3

    def test_catalogue_entry(self, derived):
        from bentfn.worked_examples import EXAMPLES, run_example

        ex = EXAMPLES[1]
        assert ex.example_id == "quadratic-x3-x9"
        assert run_example(ex).passed
        # dual(F) is shared by the suite and _six_pack_of; each builds its
        # own pseudo-duals, whose duals make the other four
        assert _distinct(derived["dual"]) == 5


class TestVerifyFunction:
    def test_kasami_skips_constant_derivative_checks(self, ctx7):
        suite = verify_function(kasami_welch(4, 2, ctx7), ctx7)
        assert suite.passed
        skipped = {s.name for s in suite.skipped}
        assert "dual-component-sum" in skipped

    def test_quadratic_runs_everything(self, ctx7):
        suite = verify_function(quadratic_family(4, [1, 3], ctx7), ctx7)
        assert suite.passed
        names = {report.name for report in suite.reports}
        assert {"bent-classification", "dual-unit-derivatives", "dual-support",
                "dual-component-sum", "pseudo-dual-conditions"} <= names

    def test_non_bent_input_fails_fast(self, ctx7):
        suite = verify_function(BooleanFunction.constant(8, 0), ctx7)
        assert not suite.passed

    def test_dim12(self, ctx11):
        f0 = trace_polynomial(ctx11, [241, 1])
        F = join(f0, trace_polynomial(ctx11, [241]))
        suite = verify_function(F, ctx11)
        assert suite.passed

    # the public checker behind each check of verify_function, in report order
    PUBLIC_CHECKERS = {
        "component-derivative-pairing": check_component_derivative_pairing,
        "dual-unit-derivatives": check_dual_unit_derivatives,
        "dual-support": dual_support_analysis,
        "dual-component-sum": check_dual_component_sum,
        "pseudo-dual-conditions": check_pseudo_dual_conditions,
        "spectrum-zero-set-f0": lambda F, ctx: check_spectrum_zero_set(split(F)[0], ctx),
        "spectrum-zero-set-f1": lambda F, ctx: check_spectrum_zero_set(split(F)[1], ctx),
    }

    @pytest.mark.parametrize(("exponent", "xi", "skips"), [
        (3, 0, 0), (3, 1, 3), (3, None, 4),  # D1 f0 constant
        (13, 0, 3), (13, 1, 5), (13, None, 6),  # D1 f0 not constant
    ])
    def test_skipped_exactly_when_the_checker_refuses(self, ctx7, exponent, xi, skips):
        f0 = trace_polynomial(ctx7, [exponent])
        tr = trace_function(ctx7)
        if xi is None:
            # f0(x + alpha) + tr is bent with f0 too (a translate only signs the
            # spectrum), but f0 + f1 = D_alpha f0 + tr is neither tr nor tr + 1
            f1 = BooleanFunction(7, f0.table[np.arange(ctx7.order) ^ 2]) + tr
        else:
            f1 = f0 + tr + xi
        F = join(f0, f1)
        suite = verify_function(F, ctx7)
        assert suite.passed
        assert (suite.flags.xi, suite.flags.d1_f0 is None) == (xi, exponent == 13)

        ran, skipped = ["bent-classification"], []
        for name, checker in self.PUBLIC_CHECKERS.items():
            try:
                checker(F, ctx7)
            except (ConditionTNotMet, DerivativeNotConstant) as exc:
                skipped.append((name, str(exc)))
            else:
                ran.append(name)
        assert [report.name for report in suite.reports] == ran
        assert [(s.name, s.reason) for s in suite.skipped] == skipped
        assert len(skipped) == skips
        assert [name for name, _ in _CHECKS] == list(self.PUBLIC_CHECKERS)
