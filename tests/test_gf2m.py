import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentfn.errors import DimensionOutOfRange, NonPrimitivePolynomial
from bentfn.gf2m import (
    DEFAULT_PRIMITIVE_POLYS,
    FieldContext,
    coset_leader,
    coset_leaders,
    coset_size,
    cyclotomic_cosets,
)

from helpers import (
    arange_power_table,
    gf_mul,
    gf_pow,
    gf_trace,
    is_reducible,
    loop_field_tables,
    multiplicative_order_of_x,
    prime_factors,
)


class TestFieldConstruction:
    def test_default_polys_cover_range(self):
        assert sorted(DEFAULT_PRIMITIVE_POLYS) == list(range(2, 25))
        for m, poly in DEFAULT_PRIMITIVE_POLYS.items():
            assert poly.bit_length() == m + 1
            assert poly & 1

    @pytest.mark.parametrize("m", range(2, 17))
    def test_default_polys_are_primitive(self, m):
        # construction itself runs the exhaustive order check
        ctx = FieldContext(m)
        assert ctx.order == 1 << m
        # independent oracle
        assert not is_reducible(ctx.primitive_poly)
        assert multiplicative_order_of_x(ctx.primitive_poly) == (1 << m) - 1

    @pytest.mark.parametrize("m", sorted(DEFAULT_PRIMITIVE_POLYS))
    def test_every_default_poly_has_x_of_full_order(self, m):
        # x^n = 1 and x^(n/q) != 1 for every prime q dividing n = 2^m - 1,
        # so x generates the multiplicative group; covers m up to MAX_DIMENSION
        poly = DEFAULT_PRIMITIVE_POLYS[m]
        n = (1 << m) - 1
        assert gf_pow(2, n, poly) == 1
        for q in prime_factors(n):
            assert gf_pow(2, n // q, poly) != 1, q

    def test_default_field_builds_at_m18(self):
        ctx = FieldContext(18)
        assert ctx.order == 1 << 18

    def test_explicit_primitive_poly(self):
        ctx = FieldContext(7, 0x83)  # x^7 + x + 1, primitive by exhaustive order check
        assert multiplicative_order_of_x(0x83) == 127
        assert ctx.trace(1) == 1  # m odd

    def test_reducible_poly_rejected(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2
        assert is_reducible(0b10101)
        with pytest.raises(NonPrimitivePolynomial):
            FieldContext(4, 0b10101)

    def test_irreducible_but_imprimitive_rejected(self):
        # x^4 + x^3 + x^2 + x + 1 divides x^5 + 1, so x has order 5 < 15
        poly = 0b11111
        assert not is_reducible(poly)
        assert multiplicative_order_of_x(poly) == 5
        with pytest.raises(NonPrimitivePolynomial):
            FieldContext(4, poly)

    def test_wrong_degree_rejected(self):
        with pytest.raises(NonPrimitivePolynomial):
            FieldContext(7, 0b1011)

    def test_dimension_bounds(self):
        with pytest.raises(DimensionOutOfRange):
            FieldContext(1)
        with pytest.raises(DimensionOutOfRange):
            FieldContext(25)

    def test_log_antilog_inverse(self, ctx7):
        for x in range(1, 128):
            assert ctx7.antilog_table[ctx7.log_table[x]] == x


class TestTableConstruction:
    """The doubling construction against the element-by-element loop."""

    @pytest.mark.parametrize(
        "m, poly",
        [(m, DEFAULT_PRIMITIVE_POLYS[m]) for m in range(2, 19)]
        + [(7, 0x89), (12, 0x1069), (13, 0x2027), (16, 0x1002d)],
    )
    def test_tables_match_loop(self, m, poly):
        log, alog, trace = loop_field_tables(m, poly)
        ctx = FieldContext(m, poly)
        for name, expected in (("log_table", log), ("antilog_table", alog),
                               ("trace_table", trace)):
            table = getattr(ctx, name)
            assert table.dtype == expected.dtype, name
            assert np.array_equal(table, expected), name
        # the linear forms come from the same trace
        points = np.arange(ctx.order, dtype=np.int64)
        for a in (1, 2, ctx.order - 1):
            mask = ctx.dual_index(a)
            assert np.array_equal(ctx.linear_form_table(a),
                                  (np.bitwise_count(points & mask) & 1).astype(np.uint8))

    @pytest.mark.parametrize("m, poly, k", [(4, 0x1F, 5), (4, 0x15, 6), (5, 0x27, 14)])
    def test_non_primitive_reports_order(self, m, poly, k):
        assert multiplicative_order_of_x(poly) == k
        with pytest.raises(ValueError, match=f"^order {k}$"):
            loop_field_tables(m, poly)
        with pytest.raises(NonPrimitivePolynomial, match=f"multiplicative order {k}$"):
            FieldContext(m, poly)

    def test_tables_read_only(self, ctx7):
        for name in ("log_table", "antilog_table", "trace_table"):
            table = getattr(ctx7, name)
            assert not table.flags.writeable, name
            with pytest.raises(ValueError):
                table[0] = table[0]
        assert not ctx7.dual_perm().flags.writeable

    def test_field_builds_at_max_dimension(self):
        ctx = FieldContext(24)
        poly, n = ctx.primitive_poly, (1 << 24) - 1
        last = int(ctx.antilog_table[n - 1])
        assert ctx.mul(last, 2) == 1 == gf_mul(last, 2, poly)  # alpha^(2^24 - 1) = 1
        rng = np.random.default_rng(24)
        for i in rng.integers(0, n, 20):
            assert ctx.antilog_table[i] == gf_pow(2, int(i), poly)
        for x in rng.integers(1, ctx.order, 20):
            assert ctx.antilog_table[ctx.log_table[x]] == x


class TestArithmetic:
    def test_mul_absorbing_and_identity(self, ctx7):
        for a in (0, 1, 5, 77, 127):
            assert ctx7.mul(a, 0) == 0
            assert ctx7.mul(0, a) == 0
            assert ctx7.mul(a, 1) == a

    def test_mul_alpha_cubed_by_hand(self):
        # with x^3 + x + 1: alpha * alpha^2 = alpha^3 = alpha + 1
        ctx = FieldContext(3, 0b1011)
        assert ctx.mul(2, 4) == 3

    def test_mul_matches_definition(self, ctx7):
        rng = np.random.default_rng(11)
        for a, b in rng.integers(0, 128, (200, 2)):
            assert ctx7.mul(int(a), int(b)) == gf_mul(int(a), int(b), ctx7.primitive_poly)

    def test_kasami_welch_exponent_value(self):
        assert 4**2 - 2**2 + 1 == 13

    def test_power_table(self, ctx7):
        table = ctx7.power_table(13)
        for x in (0, 1, 2, 3, 99):
            assert table[x] == gf_pow(x, 13, ctx7.primitive_poly)
        assert ctx7.power_table(0)[0] == 1

    @pytest.mark.parametrize("m", range(2, 17))
    def test_power_table_matches_one_arange(self, m):
        ctx = FieldContext(m)
        n = ctx.order - 1
        rng = np.random.default_rng(m)
        for e in [0, 1, 2, 3, n - 1, n, n + 1, 5 * n + 7, *rng.integers(0, 1 << 40, 4).tolist()]:
            assert np.array_equal(ctx.power_table(e), arange_power_table(ctx, e)), e

    def test_power_table_at_m23_on_sampled_exponents(self):
        ctx = FieldContext(23)
        for e in (0, 5 * (ctx.order - 1) + 241):
            assert np.array_equal(ctx.power_table(e), arange_power_table(ctx, e)), e


class TestTrace:
    def test_trace_of_zero_and_one(self, ctx7):
        assert ctx7.trace(0) == 0
        assert ctx7.trace(1) == 1

    @pytest.mark.parametrize("m", [3, 7, 10])
    def test_trace_additive_exhaustive(self, m):
        ctx = FieldContext(m)
        tr = ctx.trace_table.astype(np.uint8)
        points = np.arange(ctx.order)
        for a in range(ctx.order):
            assert np.array_equal(tr[points ^ a], tr ^ tr[a])

    def test_trace_frobenius_invariant(self, ctx7):
        squares = ctx7.power_table(2)
        assert np.array_equal(ctx7.trace_table[squares], ctx7.trace_table)

    def test_trace_matches_definition(self, ctx7):
        for a in range(128):
            assert ctx7.trace(a) == gf_trace(a, ctx7.primitive_poly)

    def test_trace_balanced(self, ctx7):
        assert int(ctx7.trace_table.sum()) == 64

    def test_linear_forms_balanced(self, ctx7):
        for a in range(1, 128):
            assert int(ctx7.linear_form_table(a).sum()) == 64


class TestCosets:
    def test_m3_partition(self):
        cosets = cyclotomic_cosets(3)
        assert [(c.leader, c.members) for c in cosets] == [
            (0, (0,)),
            (1, (1, 2, 4)),
            (3, (3, 5, 6)),
        ]

    def test_coset_of_13_m7(self):
        coset = next(c for c in cyclotomic_cosets(7) if c.leader == 13)
        assert coset.members == (13, 26, 35, 52, 70, 81, 104)

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 9, 11])
    def test_partition_sizes(self, m):
        cosets = cyclotomic_cosets(m)
        assert sum(c.size for c in cosets) == (1 << m) - 1
        assert all(m % c.size == 0 for c in cosets)
        assert cosets[0].leader == 0 and cosets[0].size == 1
        seen = set()
        for c in cosets:
            assert c.leader == min(c.members)
            seen.update(c.members)
        assert seen == set(range((1 << m) - 1))

    def test_leader_and_size_helpers(self):
        assert coset_leader(7, 104) == 13
        assert coset_leader(11, 241) == 143
        assert coset_size(7, 13) == 7
        assert coset_size(9, 73) == 3  # 73 * 8 = 584 = 73 mod 511

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 7, 8, 9, 12, 13, 15])
    def test_rotations_match_the_listed_cosets(self, m):
        leaders = coset_leaders(m)
        cosets = cyclotomic_cosets(m)
        assert leaders.tolist() == [c.leader for c in cosets]
        assert [coset_size(m, l) for l in leaders.tolist()] == [c.size for c in cosets]
        assert coset_leaders(m) is coset_leaders(m)
        with pytest.raises(ValueError):
            leaders[0] = 1

    def test_rotations_at_the_largest_dimension(self):
        # 23 is prime, so every coset but {0} has 23 members
        leaders = coset_leaders(23)
        assert leaders.size == 1 + ((1 << 23) - 2) // 23
        assert leaders[0] == 0 and coset_size(23, 0) == 1
        assert np.all(np.diff(leaders) > 0)
        rng = np.random.default_rng(23)
        for e in rng.choice(leaders[1:], 20).tolist() + [int(leaders[-1])]:
            assert coset_leader(23, e) == e
            assert coset_size(23, e) == 23
        leader_set = set(leaders.tolist())
        for e in rng.integers(1, (1 << 23) - 1, 20).tolist():
            assert (e in leader_set) == (coset_leader(23, e) == e)

    @given(st.integers(min_value=0, max_value=126))
    @settings(max_examples=50, deadline=None)
    def test_leader_is_orbit_minimum(self, e):
        orbit = {e}
        x = (2 * e) % 127
        while x not in orbit:
            orbit.add(x)
            x = (2 * x) % 127
        assert coset_leader(7, e) == min(orbit)


class TestDualIndex:
    def test_zero_maps_to_zero(self, ctx7):
        assert ctx7.dual_index(0) == 0

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 8])
    def test_pairing_exhaustive(self, m):
        ctx = FieldContext(m)
        for a in range(ctx.order):
            u = ctx.dual_index(a)
            for x in range(ctx.order):
                assert ((u & x).bit_count() & 1) == ctx.trace(ctx.mul(a, x))

    def test_bijection_and_linearity(self):
        # m = 7 uses one chunk table; 13 and 15 use two, of 7 + 6 and 8 + 7 bits
        rng = np.random.default_rng(2)
        for m in (7, 13, 15):
            ctx = FieldContext(m)
            perm = ctx.dual_perm()
            assert np.array_equal(np.sort(perm), np.arange(ctx.order))
            for a, b in rng.integers(0, ctx.order, (100, 2)):
                assert perm[a ^ b] == perm[a] ^ perm[b]
            for a in rng.integers(0, ctx.order, 50):
                assert perm[a] == ctx.dual_index(int(a))
