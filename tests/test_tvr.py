import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentfn.boolfn import BooleanFunction, trace_function, trace_polynomial
from bentfn.errors import DimensionMismatch, OddDimension
from bentfn.spectrum import Classification, classify, walsh
from bentfn.tvr import (
    bent_via_components,
    component_walsh_identities,
    inner_product,
    join,
    linear_form,
    split,
    walsh_coefficient,
)

from helpers import random_function


def pairs(m):
    bits = st.lists(st.integers(0, 1), min_size=1 << m, max_size=1 << m)
    return st.tuples(bits, bits).map(
        lambda two: (BooleanFunction(m, two[0]), BooleanFunction(m, two[1]))
    )


class TestSplitJoin:
    @given(two=pairs(3))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, ctx3, two):
        f0, f1 = two
        assert split(join(f0, f1)) == (f0, f1)

    def test_top_variable_projection(self, ctx3):
        F = BooleanFunction(4, [0] * 8 + [1] * 8)  # F(u, nu) = nu
        assert split(F) == (BooleanFunction.constant(3, 0), BooleanFunction.constant(3, 1))

    def test_split_requires_even(self):
        with pytest.raises(OddDimension):
            split(BooleanFunction.constant(5, 0))

    def test_join_requires_equal_dims(self):
        with pytest.raises(DimensionMismatch):
            join(BooleanFunction.constant(3, 0), BooleanFunction.constant(4, 0))

    def test_dim12_components(self, ctx11):
        f0 = trace_polynomial(ctx11, [241, 1])
        f1 = trace_polynomial(ctx11, [241])
        assert split(join(f0, f1)) == (f0, f1)
        assert f0 + f1 == trace_function(ctx11)

    @given(two=pairs(3))
    @settings(max_examples=40, deadline=None)
    def test_weight_additivity(self, ctx3, two):
        f0, f1 = two
        assert join(f0, f1).weight() == f0.weight() + f1.weight()

    def test_join_of_equal_components_ignores_top_bit(self, ctx5):
        f = trace_polynomial(ctx5, [3])
        F = join(f, f)
        for u in range(32):
            assert F[u] == F[u | 32] == f[u]


class TestInnerProduct:
    def test_zero_form(self, ctx5):
        assert all(
            inner_product(ctx5, 0, 0, x, nu) == 0 for x in range(32) for nu in (0, 1)
        )

    def test_symmetry(self, ctx5):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, x = (int(v) for v in rng.integers(0, 32, 2))
            eta, nu = (int(v) for v in rng.integers(0, 2, 2))
            assert inner_product(ctx5, a, eta, x, nu) == inner_product(ctx5, x, nu, a, eta)

    def test_linear_form_decomposition(self, ctx5):
        # the linear form of (a, eta) has components tr(ax) and tr(ax) + eta
        for a in (0, 1, 7, 31):
            for eta in (0, 1):
                form = linear_form(ctx5, a, eta)
                for x in range(32):
                    for nu in (0, 1):
                        idx = (nu << 5) | x
                        assert form[idx] == inner_product(ctx5, a, eta, x, nu)

    def test_walsh_coefficient_definition(self, ctx3):
        rng = np.random.default_rng(3)
        F = random_function(rng, 4)
        for a in range(8):
            for eta in (0, 1):
                expected = sum(
                    (-1) ** (F[(nu << 3) | x] ^ inner_product(ctx3, a, eta, x, nu))
                    for x in range(8)
                    for nu in (0, 1)
                )
                assert walsh_coefficient(F, ctx3, a, eta) == expected


class TestComponentIdentities:
    def test_equal_components_kill_top_coefficients(self, ctx5):
        f = trace_polynomial(ctx5, [3])
        wf = walsh(join(f, f)).coeffs
        assert not np.any(wf[32:])

    def test_kasami_pair_all_identities(self, ctx7):
        f0 = trace_polynomial(ctx7, [13])
        report = component_walsh_identities(f0, f0 + trace_function(ctx7), ctx7)
        assert report.sum_identity and report.difference_identity
        assert report.translate_applicable and report.translate_identity
        assert report.passed

    def test_random_pairs(self, ctx5):
        rng = np.random.default_rng(6)
        for _ in range(300):
            report = component_walsh_identities(random_function(rng, 5),
                                                random_function(rng, 5), ctx5)
            assert report.sum_identity and report.difference_identity
            assert not report.translate_applicable

    def test_translate_identity_with_trace_offset(self, ctx5):
        rng = np.random.default_rng(8)
        tr = trace_function(ctx5)
        for _ in range(100):
            f0 = random_function(rng, 5)
            report = component_walsh_identities(f0, f0 + tr, ctx5)
            assert report.passed

    def test_components_and_field_share_one_dimension(self, ctx5, ctx7):
        f5, f7 = trace_polynomial(ctx5, [3]), trace_polynomial(ctx7, [3])
        with pytest.raises(DimensionMismatch):
            component_walsh_identities(f5, f5, ctx7)
        with pytest.raises(DimensionMismatch):
            component_walsh_identities(f7, f5, ctx7)
        with pytest.raises(DimensionMismatch):
            bent_via_components(f5, f7)


class TestBentCertificate:
    def test_equal_components_never_bent(self, ctx5):
        f = trace_polynomial(ctx5, [3])
        assert not bent_via_components(f, f)

    def test_quadratic_pair_certified(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 9])
        assert bent_via_components(f0, f0 + trace_function(ctx7))

    def test_agrees_with_direct_classification(self, ctx5):
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(500):
            f0, f1 = random_function(rng, 5), random_function(rng, 5)
            cert = bent_via_components(f0, f1)
            direct = classify(join(f0, f1)) is Classification.BENT
            assert cert == direct
            hits += cert
        # random pairs occasionally are bent; the loop must have seen both outcomes
        assert 0 <= hits < 500
