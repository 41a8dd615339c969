import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentfn.boolfn import BooleanFunction, trace_function, trace_polynomial
from bentfn.errors import DimensionMismatch
from bentfn.gf2m import cyclotomic_cosets

from helpers import naive_mobius, random_function, trace_poly_table


def tables(m):
    return st.lists(st.integers(0, 1), min_size=1 << m, max_size=1 << m).map(
        lambda bits: BooleanFunction(m, bits)
    )


any_function = st.integers(min_value=1, max_value=6).flatmap(tables)


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            BooleanFunction(3, [0, 1, 0])
        with pytest.raises(ValueError):
            BooleanFunction(2, [0, 1, 2, 0])
        with pytest.raises(ValueError):
            BooleanFunction(0, [0])

    def test_weight_constant(self):
        assert BooleanFunction.constant(5, 0).weight() == 0
        assert BooleanFunction.constant(5, 1).weight() == 32

    def test_weight_trace(self, ctx7):
        assert trace_function(ctx7).weight() == 64

    def test_table_read_only(self):
        f = BooleanFunction.constant(3, 0)
        with pytest.raises(ValueError):
            f.table[0] = 1

    def test_writes_to_the_callers_array_do_not_reach_the_function(self):
        from bentfn.spectrum import walsh

        base = np.array([0, 1, 1, 0, 1, 0, 0, 0] * 4, dtype=np.uint8)
        f = BooleanFunction(4, base[:16])
        table, digest, coeffs = f.table.copy(), hash(f), walsh(f).coeffs.copy()
        base[3] ^= 1
        assert np.array_equal(f.table, table)
        assert hash(f) == digest
        assert np.array_equal(walsh(f).coeffs, coeffs)
        whole = base.copy()
        BooleanFunction(5, whole)
        assert base.flags.writeable and whole.flags.writeable

    def test_built_results_share_no_memory_and_are_read_only(self, ctx7):
        # each result takes over its fresh table without a copy
        from bentfn.spectrum import trace_join
        from bentfn.tvr import join

        rng = np.random.default_rng(38)
        f, g = random_function(rng, 7), random_function(rng, 7)
        results = [f + g, f + 1, f.derivative(4), f.derivative(5),
                   f.add_linear_form(ctx7, 9, 1), join(f, g), trace_join(f, ctx7, 1)]
        for result in results:
            assert not result.table.flags.writeable
            for operand in (f, g, trace_function(ctx7)):
                assert not np.shares_memory(result.table, operand.table)
            with pytest.raises(ValueError):
                result.table[0] ^= 1

    @given(any_function)
    @settings(max_examples=60, deadline=None)
    def test_self_sum_is_zero(self, f):
        assert (f + f) == BooleanFunction.constant(f.m, 0)
        assert (f + 0) == f
        assert (f + 1 + 1) == f

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BooleanFunction.constant(3, 0) + BooleanFunction.constant(4, 0)

    @given(st.integers(min_value=1, max_value=6).flatmap(lambda m: st.tuples(tables(m), tables(m))))
    @settings(max_examples=40, deadline=None)
    def test_weight_subadditive(self, pair):
        f, g = pair
        total = (f + g).weight()
        assert total <= f.weight() + g.weight()
        disjoint = not np.any(f.table & g.table)
        assert (total == f.weight() + g.weight()) == disjoint


class TestDerivative:
    @given(any_function)
    @settings(max_examples=40, deadline=None)
    def test_zero_direction(self, f):
        assert f.derivative(0) == BooleanFunction.constant(f.m, 0)

    @given(any_function, st.integers(min_value=0))
    @settings(max_examples=60, deadline=None)
    def test_derivative_is_involution_kernel(self, f, raw):
        e = raw % (1 << f.m)
        assert f.derivative(e).derivative(e) == BooleanFunction.constant(f.m, 0)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_gather_formula(self, m):
        # every single-bit direction, and a few that are not powers of two
        rng = np.random.default_rng(100 + m)
        f = random_function(rng, m)
        points = np.arange(1 << m)
        directions = [1 << k for k in range(m)]
        directions += [e for e in (3, 5, (1 << m) - 1) if e < 1 << m and e & (e - 1)]
        for e in directions:
            assert np.array_equal(f.derivative(e).table, f.table ^ f.table[points ^ e]), e

    def test_unit_derivative_of_trace(self, ctx7):
        # tr(x + 1) = tr(x) + tr(1) and tr(1) = 1 on odd m
        assert trace_function(ctx7).derivative(1).is_constant() == 1

    def test_unit_derivative_quadratic_even_set(self, ctx7):
        f = trace_polynomial(ctx7, [3, 9])  # indices {1, 3}, even count
        assert f.derivative(1).is_constant() == 0

    def test_unit_derivative_kasami_not_constant(self, ctx7):
        f = trace_polynomial(ctx7, [13])
        assert f.derivative(1).is_constant() is None


class TestAnf:
    @given(any_function)
    @settings(max_examples=60, deadline=None)
    def test_involution(self, f):
        assert f.anf().to_truth_table() == f

    @given(tables(4))
    @settings(max_examples=30, deadline=None)
    def test_matches_subset_sums(self, f):
        assert np.array_equal(f.anf().coefficients, naive_mobius(f))

    def test_the_callers_array_stays_writable_and_independent(self):
        from bentfn.boolfn import Anf

        a = np.zeros(8, np.uint8)
        anf = Anf(3, a)
        assert a.flags.writeable and not anf.coefficients.flags.writeable
        assert not np.shares_memory(a, anf.coefficients)
        a[7] = 1
        assert anf.degree() == 0
        assert Anf(3, a).degree() == 3

    def test_degree_constants(self):
        assert BooleanFunction.constant(4, 0).degree() == 0
        assert BooleanFunction.constant(4, 1).degree() == 0

    def test_degree_of_trace_powers(self, ctx7):
        assert trace_polynomial(ctx7, [13]).degree() == 3  # 13 = 1101b
        assert trace_polynomial(ctx7, [3, 9]).degree() == 2

    @given(any_function)
    @settings(max_examples=60, deadline=None)
    def test_degree_bounds_and_parity(self, f):
        d = f.degree()
        assert 0 <= d <= f.m
        assert (d == f.m) == (f.weight() % 2 == 1)

    def test_degree_rule_all_coset_leaders(self, ctx7):
        # algebraic degree of tr(x^d) is the binary weight of d, for every
        # full-length coset leader; weight-divisible degenerate cases excluded
        for coset in cyclotomic_cosets(7):
            if coset.leader == 0:
                continue
            f = trace_polynomial(ctx7, [coset.leader])
            if f.weight() == 0:
                continue
            assert f.degree() == coset.leader.bit_count()


class TestLinearForm:
    def test_identity_cases(self, ctx7):
        f = trace_polynomial(ctx7, [13])
        assert f.add_linear_form(ctx7, 0, 0) == f
        assert f.add_linear_form(ctx7, 1).add_linear_form(ctx7, 1) == f

    def test_matches_trace_sum(self, ctx7):
        f = trace_polynomial(ctx7, [13])
        assert f.add_linear_form(ctx7, 1) == f + trace_function(ctx7)

    def test_weight_of_kasami_plus_trace(self, ctx7):
        # frozen from exhaustive evaluation from the definitions
        oracle = trace_poly_table([13, 1], ctx7.primitive_poly)
        assert oracle.weight() == 56
        assert (trace_polynomial(ctx7, [13]) + trace_function(ctx7)) == oracle


class TestSerialization:
    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        for m in (2, 3, 7, 8):
            f = random_function(rng, m)
            path = tmp_path / f"fn{m}.bf"
            f.save(path)
            assert BooleanFunction.load(path) == f

    def test_header_format(self):
        f = BooleanFunction(3, [1, 0, 0, 0, 0, 0, 0, 0])
        text = f.to_text()
        assert text.splitlines()[0] == "BF m=3"
        assert text.splitlines()[1] == "01"

    def test_bit_order_little_endian(self):
        # bit x of the table lives in bit x%8 of byte x//8
        f = BooleanFunction(4, [1] + [0] * 14 + [1])
        assert f.table_hex() == "0180"

    def test_hex_round_trip(self):
        rng = np.random.default_rng(4)
        f = random_function(rng, 6)
        assert BooleanFunction.from_hex(6, f.table_hex()) == f

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            BooleanFunction.from_text("not a header\nff")
        with pytest.raises(ValueError):
            BooleanFunction.from_hex(3, "ffff")
        with pytest.raises(ValueError):
            BooleanFunction.from_text("BF m=2\nff")  # padding bits set
