import tracemalloc

import numpy as np
import pytest

from bentfn.boolfn import BooleanFunction, trace_function, trace_polynomial
from bentfn.errors import DimensionMismatch, DimensionOutOfRange, NotBent, NotNearBent
from bentfn.gf2m import FieldContext
from bentfn.spectrum import (
    _FWHT_BLOCK,
    Classification,
    _classify,
    _fwht,
    check_nearbent_distribution,
    classify,
    dual,
    field_mask,
    sampled_coefficients,
    trace_join,
    walsh,
    walsh_at_field_point,
)
from bentfn.tvr import join, split

from helpers import (
    kronecker_walsh,
    naive_walsh,
    naive_walsh_at_trace_point,
    piecewise_fwht,
    random_function,
)


class TestTransform:
    def test_constant_zero_delta(self):
        s = walsh(BooleanFunction.constant(3, 0))
        assert list(s.coeffs) == [8, 0, 0, 0, 0, 0, 0, 0]

    # up to 2^16 points the butterfly runs on the natural layout and then on a
    # transposed copy; with the Kronecker tests below, every m = 1..16 is checked
    @pytest.mark.parametrize("m", range(1, 10))
    def test_matches_naive_small(self, m):
        rng = np.random.default_rng(m)
        for _ in range(8):
            f = random_function(rng, m)
            assert np.array_equal(walsh(f).coeffs, naive_walsh(f))

    @pytest.mark.parametrize("m", [10, 11, 12])
    def test_matches_naive_larger(self, m):
        rng = np.random.default_rng(m)
        f = random_function(rng, m)
        assert np.array_equal(walsh(f).coeffs, naive_walsh(f))

    @pytest.mark.parametrize("m", [13, 14, 15])
    def test_matches_kronecker_transposed(self, m):
        f = random_function(np.random.default_rng(m), m)
        assert np.array_equal(walsh(f).coeffs, kronecker_walsh(f))

    @pytest.mark.parametrize("m", [16, 17, 18])
    def test_matches_kronecker_across_blocks(self, m):
        # 2^16 points are one block, transformed whole; above that each block of
        # 2^16 runs the lower 16 levels, and column strips the upper ones over
        # the two and four rows of these sizes
        f = random_function(np.random.default_rng(m), m)
        assert np.array_equal(walsh(f).coeffs, kronecker_walsh(f))

    # 2, 4, 8 and 16 rows of _FWHT_BLOCK entries, each cut into _FWHT_BLOCK / _STRIP
    # strips; a delta's transform is +-1 everywhere, so no strip may be skipped
    @pytest.mark.parametrize("m", [17, 18, 19, 20])
    @pytest.mark.parametrize("kind", ["random", "constant", "delta"])
    def test_blocked_matches_piecewise_oracle(self, m, kind):
        size = 1 << m
        rng = np.random.default_rng(m)
        if kind == "random":
            values = (1 - 2 * rng.integers(0, 2, size)).astype(np.int32)
        elif kind == "constant":
            values = np.full(size, -1, dtype=np.int32)
        else:
            values = np.zeros(size, dtype=np.int32)
            values[int(rng.integers(size - _FWHT_BLOCK, size))] = 1
        expected = piecewise_fwht(values.copy())
        assert np.array_equal(_fwht(values), expected)

    def test_one_fwht_call_per_transform(self, monkeypatch):
        # transforms are counted by wrapping _fwht, so the blocks of a large
        # transform must not go through it again
        import bentfn.spectrum as spectrum

        sizes, fwht = [], spectrum._fwht
        monkeypatch.setattr(spectrum, "_fwht", lambda values: sizes.append(values.size) or fwht(values))
        walsh(random_function(np.random.default_rng(17), 17))
        assert sizes == [1 << 17]

    def test_temporaries_stay_small(self):
        # the strips of 2^20 points hold 16 x _STRIP entries; nothing of the
        # array's own size may be allocated
        values = np.ones(1 << 20, dtype=np.int32)
        tracemalloc.start()
        try:
            _fwht(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, f"{peak / 2**20:.2f} MiB"
        assert values[0] == 1 << 20 and not values[1:].any()

    def test_classify_counts_block_by_block(self):
        # a bent spectrum of 2^20 points spans 16 blocks; counting its two values
        # makes one block of booleans at a time
        ctx = FieldContext(19)
        f0 = trace_polynomial(ctx, [3])
        coeffs = walsh(join(f0, f0 + trace_function(ctx))).coeffs
        tracemalloc.start()
        try:
            label, histogram = _classify(coeffs, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * _FWHT_BLOCK, f"{peak / 2**20:.2f} MiB"
        assert label is Classification.BENT
        assert histogram == {v: int(np.count_nonzero(coeffs == v)) for v in (-1024, 1024)}

    def test_parseval(self):
        rng = np.random.default_rng(0)
        for m in (2, 5, 8, 11):
            f = random_function(rng, m)
            coeffs = walsh(f).coeffs.astype(np.int64)
            assert int(np.sum(coeffs * coeffs)) == 1 << (2 * m)

    def test_coefficient_at_zero_is_weight_identity(self):
        rng = np.random.default_rng(9)
        for m in (3, 6, 9):
            f = random_function(rng, m)
            assert walsh(f).coeffs[0] == (1 << m) - 2 * f.weight()

    def test_weight_identity_at_every_point(self, ctx7):
        # coefficient at v equals 2^m - 2 * weight(f + linear form of v)
        f = trace_polynomial(ctx7, [13, 7])
        coeffs = walsh(f).coeffs
        points = np.arange(128, dtype=np.int64)
        for v in range(128):
            form = (np.bitwise_count(points & v) & 1).astype(np.uint8)
            w = int(np.sum(f.table ^ form))
            assert coeffs[v] == 128 - 2 * w

    def test_dimension_limit(self):
        f = BooleanFunction.constant(5, 0)
        f.m = 25  # force the guard; not a supported mutation elsewhere
        with pytest.raises(DimensionOutOfRange):
            walsh(f)


class TestClassification:
    def test_kasami_seed_near_bent(self, ctx7):
        assert classify(trace_polynomial(ctx7, [13])) is Classification.NEAR_BENT

    def test_quadratic_join_bent(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 9])
        F = join(f0, f0 + trace_function(ctx7))
        assert classify(F) is Classification.BENT
        assert F.weight() in (120, 136)  # 2^7 +- 2^3

    def test_constant_neither(self, ctx7):
        assert classify(BooleanFunction.constant(7, 0)) is Classification.NEITHER
        assert classify(BooleanFunction.constant(8, 0)) is Classification.NEITHER

    def test_affine_invariance(self, ctx7):
        rng = np.random.default_rng(17)
        f0 = trace_polynomial(ctx7, [13])
        base = classify(f0)
        for _ in range(100):
            a = int(rng.integers(0, 128))
            c = int(rng.integers(0, 2))
            assert classify(f0.add_linear_form(ctx7, a, c)) is base

    def test_histogram_is_exact(self, ctx7):
        s = walsh(trace_polynomial(ctx7, [13]))
        assert s.histogram == {-16: 28, 0: 64, 16: 36}

    def test_histogram_counts_every_value_in_order(self, ctx7):
        tr = trace_function(ctx7)
        functions = [
            trace_polynomial(ctx7, [13]),  # near-bent
            join(trace_polynomial(ctx7, [3]), trace_polynomial(ctx7, [3]) + tr),  # bent
            BooleanFunction.constant(6, 1),  # neither, one value
            random_function(np.random.default_rng(3), 9),  # neither, many values
        ]
        for f in functions:
            s = walsh(f)
            values, counts = np.unique(naive_walsh(f), return_counts=True)
            expected = {int(v): int(c) for v, c in zip(values, counts)}
            assert list(s.histogram.items()) == list(expected.items())


class TestNearBentDistribution:
    def test_kasami_seed_counts(self, ctx7):
        f = trace_polynomial(ctx7, [13])
        assert f[0] == 0
        assert check_nearbent_distribution(walsh(f), f[0])

    def test_complement_flips_counts(self, ctx7):
        f = trace_polynomial(ctx7, [13]) + 1
        s = walsh(f)
        assert s.histogram == {-16: 36, 0: 64, 16: 28}
        assert check_nearbent_distribution(s, f[0])

    def test_t3_counts(self, ctx5):
        f = trace_polynomial(ctx5, [3])
        s = walsh(f)
        assert s.histogram == {-8: 6, 0: 16, 8: 10}
        assert check_nearbent_distribution(s, f[0])

    def test_requires_near_bent(self, ctx7):
        with pytest.raises(NotNearBent):
            check_nearbent_distribution(walsh(BooleanFunction.constant(7, 0)), 0)


class TestFieldPointQueries:
    def test_at_zero(self, ctx7):
        f = trace_polynomial(ctx7, [13, 7])
        assert walsh_at_field_point(f, ctx7, 0) == 128 - 2 * f.weight()

    def test_trace_at_one(self, ctx7):
        assert walsh_at_field_point(trace_function(ctx7), ctx7, 1) == 128

    def test_matches_definition(self, ctx5):
        rng = np.random.default_rng(23)
        f = random_function(rng, 5)
        for a in range(32):
            assert walsh_at_field_point(f, ctx5, a) == naive_walsh_at_trace_point(
                f, ctx5.primitive_poly, a
            )


class TestDual:
    def test_requires_bent(self, ctx7):
        with pytest.raises(NotBent):
            dual(BooleanFunction.constant(8, 0), ctx7)

    def test_dimension_check(self, ctx5):
        from bentfn.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            dual(BooleanFunction.constant(8, 0), ctx5)

    def test_dual_is_bent_and_bidual(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 9])
        F = join(f0, f0 + trace_function(ctx7))
        D = dual(F, ctx7)
        assert classify(D) is Classification.BENT
        assert dual(D, ctx7) == F

    def test_bidual_many(self, ctx5):
        # every bent join of a qualifying seed is recovered by double dualization
        tr = trace_function(ctx5)
        for exps in ([3], [5], [3, 5]):
            f0 = trace_polynomial(ctx5, exps)
            F = join(f0, f0 + tr)
            assert dual(dual(F, ctx5), ctx5) == F

    def test_self_dual_example(self, ctx7):
        f0 = trace_polynomial(ctx7, [3, 5, 7, 11, 19, 21])
        F = join(f0, f0 + trace_function(ctx7))
        assert dual(F, ctx7) == F

    @pytest.mark.parametrize("m", range(5, 12, 2))
    def test_matches_gather_then_compare(self, m):
        # oracle: reindex every coefficient by field point, then compare
        ctx = FieldContext(m)
        rng = np.random.default_rng(m)
        t = (m + 1) // 2
        for e in (3, 5):
            a, c = int(rng.integers(1, 1 << m)), int(rng.integers(0, 2))
            F = trace_join(trace_polynomial(ctx, [e]).add_linear_form(ctx, a, c), ctx)
            coeffs = walsh(F).coeffs.reshape(2, -1)
            expected = (coeffs[:, ctx.dual_perm()] == -(1 << t)).ravel()
            assert np.array_equal(dual(F, ctx).table, expected)

    @pytest.mark.parametrize("field", ["ctx7", "ctx7_alt"])
    def test_matches_fresh_transform(self, field, request):
        ctx = request.getfixturevalue(field)
        for exponents, xi in (([3, 9], 0), ([13], 1), ([3, 5, 7, 11, 19, 21], 0)):
            F = trace_join(trace_polynomial(ctx, exponents), ctx, xi)
            coeffs = walsh(BooleanFunction(8, F.table.copy())).coeffs.reshape(2, -1)
            expected = (coeffs[:, ctx.dual_perm()] == -16).ravel()
            assert np.array_equal(dual(F, ctx).table, expected), (exponents, xi)

    def test_no_coefficient_sized_temporary_at_dim_20(self):
        ctx = FieldContext(19)
        F = trace_join(trace_polynomial(ctx, [3]), ctx)
        ctx.dual_perm()  # built on first use, not part of the dual
        tracemalloc.start()
        try:
            D = dual(F, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 2^20-entry table and the function's private copy take 1 MiB each;
        # a 2^19-entry int32 or intp temporary beside the table reaches 3 MiB
        assert peak < 3 << 20, f"{peak / 2**20:.2f} MiB"
        assert dual(D, ctx) == F

    def test_derivatives_of_bent_balanced(self, ctx5):
        f0 = trace_polynomial(ctx5, [3])
        F = join(f0, f0 + trace_function(ctx5))
        for v in range(1, 64):
            assert F.derivative(v).is_balanced()


class TestTraceJoin:
    """trace_join derives the spectrum of join(c, c + tr) from c's; a full FWHT
    of the same table, on a fresh object, is the oracle."""

    @staticmethod
    def assert_matches_full_transform(c, ctx, xi=0):
        F = trace_join(c, ctx, xi)
        assert F == join(c, c + trace_function(ctx) + xi)
        derived = walsh(F)
        full = walsh(BooleanFunction(F.m, F.table))
        assert np.array_equal(derived.coeffs, full.coeffs)
        assert derived.classification is full.classification
        assert list(derived.histogram.items()) == list(full.histogram.items())
        assert not derived.coeffs.flags.writeable
        return derived

    @pytest.mark.parametrize("m", range(3, 14, 2))
    def test_matches_full_transform(self, m):
        ctx = FieldContext(m)
        rng = np.random.default_rng(m)
        # a near-bent seed gives a bent join, a random table neither
        bent = self.assert_matches_full_transform(trace_polynomial(ctx, [3]), ctx)
        assert bent.classification is Classification.BENT
        for _ in range(3):
            neither = self.assert_matches_full_transform(random_function(rng, m), ctx)
            assert neither.classification is Classification.NEITHER

    def test_matches_full_transform_under_alternative_polynomial(self, ctx7_alt):
        rng = np.random.default_rng(70)
        self.assert_matches_full_transform(trace_polynomial(ctx7_alt, [13]), ctx7_alt)
        self.assert_matches_full_transform(random_function(rng, 7), ctx7_alt)

    def test_matches_full_transform_across_blocks(self):
        # GF(2^19): dual_index(1) = 2^17 + 1 moves whole blocks of 2^16
        # coefficients and permutes inside each
        ctx = FieldContext(19)
        assert ctx.dual_index(1) >> 16 and ctx.dual_index(1) & 0xFFFF
        self.assert_matches_full_transform(random_function(np.random.default_rng(19), 19), ctx)

    @pytest.mark.parametrize("xi", [0, 1])
    @pytest.mark.parametrize("m", range(5, 14))
    def test_sign_matches_full_transform(self, m, xi):
        ctx = FieldContext(m)
        rng = np.random.default_rng(100 * m + xi)
        self.assert_matches_full_transform(trace_polynomial(ctx, [3]), ctx, xi)
        self.assert_matches_full_transform(random_function(rng, m), ctx, xi)

    @pytest.mark.parametrize("xi", [0, 1])
    def test_sign_under_alternative_polynomial(self, ctx7_alt, xi):
        # dual_index(1) = 73 here, a translate of several bits
        rng = np.random.default_rng(71 + xi)
        self.assert_matches_full_transform(trace_polynomial(ctx7_alt, [13]), ctx7_alt, xi)
        self.assert_matches_full_transform(random_function(rng, 7), ctx7_alt, xi)

    def test_sign_across_blocks(self):
        ctx = FieldContext(19)
        self.assert_matches_full_transform(random_function(np.random.default_rng(191), 19), ctx, 1)

    def test_leaves_an_uncached_half_uncached(self, ctx7, fwht_sizes):
        c = trace_polynomial(ctx7, [3])
        F = trace_join(c, ctx7, 1)
        assert c._spectrum is None and F._spectrum is not None
        assert fwht_sizes == [128]

    def test_dimension_limit(self, ctx5):
        c = BooleanFunction.constant(5, 0)
        c.m = 24  # force the guard: the join would have dimension 25
        with pytest.raises(DimensionOutOfRange):
            trace_join(c, ctx5)

    def test_dimension_mismatch(self, ctx5):
        with pytest.raises(DimensionMismatch):
            trace_join(BooleanFunction.constant(7, 0), ctx5)


class TestFieldMask:
    """field_mask reads signs off F's spectrum; a full FWHT of a fresh copy of
    each half (or of F), gathered by field point, is the oracle."""

    @staticmethod
    def oracle(f, ctx, sign):
        coeffs = walsh(BooleanFunction(f.m, f.table.copy())).coeffs.reshape(-1, ctx.order)
        return (np.sign(coeffs[:, ctx.dual_perm()]) == sign).ravel()

    @pytest.mark.parametrize("m", [4, 8, 12, 18])
    def test_matches_full_transform(self, m):
        ctx = FieldContext(m - 1)
        F = random_function(np.random.default_rng(m), m)
        for sign in (-1, 0):
            mask = field_mask(F, ctx, sign)
            assert mask.dtype == np.uint8 and mask.shape == (1 << m,)
            assert np.array_equal(mask, self.oracle(F, ctx, sign))
            for i, half in enumerate(split(F)):
                mask = field_mask(F, ctx, sign, half=i)
                assert mask.dtype == np.uint8 and mask.shape == (ctx.order,)
                assert np.array_equal(mask, self.oracle(half, ctx, sign)), (sign, i)

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
    def test_standalone_matches_full_transform(self, m):
        ctx = FieldContext(m)
        f = random_function(np.random.default_rng(50 + m), m)
        for sign in (-1, 0):
            assert np.array_equal(field_mask(f, ctx, sign), self.oracle(f, ctx, sign))

    def test_near_bent_halves_of_a_bent_join(self, ctx7):
        # each half is near-bent: its negative coefficients are the -2^t ones
        F = trace_join(trace_polynomial(ctx7, [3, 9]), ctx7, 1)
        for i, half in enumerate(split(F)):
            coeffs = walsh(BooleanFunction(7, half.table.copy())).coeffs[ctx7.dual_perm()]
            assert np.array_equal(field_mask(F, ctx7, -1, half=i), coeffs == -16)
            assert np.array_equal(field_mask(F, ctx7, 0, half=i), coeffs == 0)

    def test_under_alternative_polynomial(self, ctx7_alt):
        F = random_function(np.random.default_rng(72), 8)
        for sign in (-1, 0):
            assert np.array_equal(field_mask(F, ctx7_alt, sign), self.oracle(F, ctx7_alt, sign))
            for i, half in enumerate(split(F)):
                assert np.array_equal(field_mask(F, ctx7_alt, sign, half=i),
                                      self.oracle(half, ctx7_alt, sign))

    def test_transforms_no_half(self, fwht_sizes):
        ctx = FieldContext(9)
        F = random_function(np.random.default_rng(5), 10)
        walsh(F)
        fwht_sizes.clear()
        for i in range(2):
            for sign in (-1, 0):
                field_mask(F, ctx, sign, half=i)
        assert fwht_sizes == []

    def test_dimension_mismatch(self, ctx5, ctx7):
        with pytest.raises(DimensionMismatch):
            field_mask(BooleanFunction.constant(8, 0), ctx5, 0)
        with pytest.raises(DimensionMismatch):
            field_mask(BooleanFunction.constant(7, 0), ctx7, 0, half=0)


class TestSampledCoefficients:
    """sampled_coefficients sums W_F at each point from F's table; a full FWHT
    of a fresh copy, gathered through dual_perm, is the oracle."""

    @staticmethod
    def oracle(f, ctx, points):
        coeffs = walsh(BooleanFunction(f.m, f.table.copy())).coeffs.reshape(-1, ctx.order)
        return np.array([coeffs[p >> ctx.m, ctx.dual_perm()[p & (ctx.order - 1)]]
                         for p in points])

    @staticmethod
    def points(n, rng):
        # every point up to 2^8, else 62 seeded ones and both ends
        if n <= 8:
            return list(range(1 << n))
        return [0, *rng.integers(0, 1 << n, 62).tolist(), (1 << n) - 1]

    @pytest.mark.parametrize("m", range(3, 14))
    def test_matches_full_transform(self, m):
        ctx = FieldContext(m)
        rng = np.random.default_rng(100 + m)
        c = random_function(rng, m)
        # xi = 0, xi = 1, and a pair whose halves differ by neither tr nor tr + 1
        for F in (trace_join(c, ctx), trace_join(c, ctx, 1), join(c, random_function(rng, m))):
            points = self.points(F.m, rng)
            assert np.array_equal(sampled_coefficients(F, ctx, points),
                                  self.oracle(F, ctx, points))

    @pytest.mark.parametrize("field", ["ctx7", "ctx7_alt"])
    def test_matches_full_transform_per_field(self, field, request):
        ctx = request.getfixturevalue(field)
        rng = np.random.default_rng(77)
        f0 = trace_polynomial(ctx, [3, 9])
        pairs = (trace_join(f0, ctx), trace_join(f0, ctx, 1),
                 join(f0, random_function(rng, 7)), random_function(rng, 7))
        for F in pairs:
            points = range(len(F))
            assert np.array_equal(sampled_coefficients(F, ctx, points),
                                  self.oracle(F, ctx, points))

    def test_reads_the_bidual(self, ctx7_alt):
        # the dual of a bent F has W(p) = 2^(n/2) (-1)^F(p)
        F = trace_join(trace_polynomial(ctx7_alt, [13]), ctx7_alt)
        points = range(len(F))
        coeffs = sampled_coefficients(dual(F, ctx7_alt), ctx7_alt, points)
        assert np.array_equal(coeffs, 16 * (1 - 2 * F.table.astype(np.int64)))

    def test_makes_no_transform_and_no_gather(self, ctx7, monkeypatch, fwht_sizes):
        monkeypatch.setattr(FieldContext, "dual_perm",
                            lambda self: pytest.fail("dual_perm was read"))
        F = random_function(np.random.default_rng(7), 8)
        sampled_coefficients(F, ctx7, [0, 5, 200])
        assert fwht_sizes == []

    def test_dimension_mismatch(self, ctx5):
        with pytest.raises(DimensionMismatch):
            sampled_coefficients(BooleanFunction.constant(8, 0), ctx5, [0])
