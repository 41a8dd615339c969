import logging
import re
import tracemalloc

import numpy as np
import pytest

from bentfn import tracerep
from bentfn.boolfn import BooleanFunction, trace_function, trace_polynomial
from bentfn.constructions import _six_pack_of, kasami_welch, six_pack
from bentfn.errors import DimensionMismatch, ExponentOutOfRange, NotBooleanConsistent, ParseError
from bentfn.gf2m import FieldContext, cyclotomic_cosets
from bentfn.tracerep import (
    TraceForm,
    format_trace_form,
    mattson_solomon,
    parse,
    to_trace_form,
    trace_forms,
)
from bentfn.tvr import split

from helpers import conjugate_loop_evaluate, gf_mul, gf_pow, random_function

# Kasami-Welch exponents 4^s - 2^s + 1 with 3s = +-1 mod m
KASAMI_WELCH_EXPONENT = {7: 13, 11: 241, 13: 241}


def random_form(rng, ctx) -> TraceForm:
    """A form with a random coefficient from GF(2^s) (zero included) per coset."""
    n = ctx.order - 1
    terms = {}
    for coset in cyclotomic_cosets(ctx.m)[1:]:
        k = int(rng.integers(0, 1 << coset.size))
        if k:
            step = n // ((1 << coset.size) - 1)
            terms[coset.leader] = int(ctx.antilog_table[(k - 1) * step])
    return TraceForm(ctx.m, int(rng.integers(0, 2)), terms, int(rng.integers(0, 2)))


class TestParse:
    def test_constants(self, ctx5):
        assert parse("0", ctx5) == BooleanFunction.constant(5, 0)
        assert parse("1", ctx5) == BooleanFunction.constant(5, 1)

    def test_single_power(self, ctx7):
        assert parse("tr(x^13)", ctx7) == trace_polynomial(ctx7, [13])

    def test_bare_x_and_sums(self, ctx7):
        assert parse("tr(x)", ctx7) == trace_function(ctx7)
        assert parse("tr(x^3) + tr(x^9)", ctx7) == trace_polynomial(ctx7, [3, 9])
        assert parse("tr(x^3+x^9)", ctx7) == trace_polynomial(ctx7, [3, 9])

    def test_inner_constant_equals_outer_on_odd_m(self, ctx7):
        assert parse("tr(x^5+1)", ctx7) == parse("tr(x^5)+1", ctx7)
        assert parse("tr(x+1)", ctx7) == parse("tr(x)+1", ctx7)

    def test_repeated_terms_cancel_inside_a_trace(self, ctx7):
        assert parse("tr(x^3+x^5+x^3)", ctx7) == parse("tr(x^5)", ctx7)
        assert parse("tr(x^3+1+1)", ctx7) == parse("tr(x^3)", ctx7)
        assert parse("tr(1+x^3+1+1)", ctx7) == parse("tr(x^3)", ctx7) + 1
        # tr(1) = m mod 2, so an inner constant vanishes on even m
        assert parse("tr(x^3+1)", FieldContext(4)) == parse("tr(x^3)", FieldContext(4))

    def test_whitespace(self, ctx7):
        assert parse("  tr( x^7 + x^13 )  +  1 ", ctx7) == trace_polynomial(ctx7, [7, 13]) + 1

    def test_all_but_zero_indicator(self, ctx5):
        f = parse("x^31", ctx5)
        assert f[0] == 0 and f.weight() == 31

    def test_errors_carry_positions(self, ctx7):
        with pytest.raises(ParseError) as info:
            parse("tr(x^", ctx7)
        assert info.value.position == 5
        with pytest.raises(ParseError):
            parse("", ctx7)
        with pytest.raises(ParseError):
            parse("tr(y)", ctx7)
        with pytest.raises(ParseError):
            parse("tr(x^3)+", ctx7)
        with pytest.raises(ParseError):
            parse("x^3", ctx7)  # not Boolean-valued
        with pytest.raises(ExponentOutOfRange):
            parse("tr(x^-3)", ctx7)

    def test_exponent_reduction(self, ctx7):
        # x^e = x^(e mod 127) on nonzero points and 0^e = 0 for e > 0
        assert parse("tr(x^130)", ctx7) == parse("tr(x^3)", ctx7)


class TestMattsonSolomon:
    def test_zero_function(self, ctx5):
        assert not np.any(mattson_solomon(BooleanFunction.constant(5, 0), ctx5))

    def test_trace_coefficients(self, ctx5):
        # the trace itself interpolates with coefficient 1 exactly on the
        # exponents 2^k
        coeffs = mattson_solomon(trace_function(ctx5), ctx5)
        expected = np.zeros(31, dtype=np.int32)
        for k in range(5):
            expected[1 << k] = 1
        assert np.array_equal(coeffs, expected)

    def test_interpolation_property(self, ctx5):
        rng = np.random.default_rng(31)
        f = random_function(rng, 5)
        coeffs = mattson_solomon(f, ctx5)
        poly = ctx5.primitive_poly
        for x in range(1, 32):
            value = 0
            for j, c in enumerate(coeffs):
                value ^= gf_mul(int(c), gf_pow(x, j, poly), poly)
            assert value == f[x]

    @pytest.mark.parametrize("m", [7, 11, 13])
    def test_leader_coefficients_match_full_summation(self, m):
        ctx = FieldContext(m)
        rng = np.random.default_rng(m)
        leaders = [c.leader for c in cyclotomic_cosets(m)]
        tables = {
            "random": random_function(rng, m),
            "quadratic": trace_polynomial(ctx, [3, 9]),
            "kasami-welch": trace_polynomial(ctx, [KASAMI_WELCH_EXPONENT[m]]),
        }
        for name, f in tables.items():
            full = mattson_solomon(f, ctx)
            assert np.array_equal(mattson_solomon(f, ctx, leaders), full[leaders]), name
            tf = to_trace_form(f, ctx)
            assert tf.top_coeff ^ tf.constant == full[0], name
            assert tf.terms == {l: int(full[l]) for l in leaders[1:] if full[l]}, name

    def test_frobenius_conjugacy(self, ctx7):
        rng = np.random.default_rng(37)
        coeffs = mattson_solomon(random_function(rng, 7), ctx7)
        for j in range(127):
            assert coeffs[(2 * j) % 127] == ctx7.mul(int(coeffs[j]), int(coeffs[j]))


def interpolation_tables(ctx) -> dict[str, BooleanFunction]:
    """Random, quadratic and Kasami-Welch tables, and the odd-weight
    x^(2^m - 1), which only the top coefficient expresses."""
    m, n = ctx.m, ctx.order - 1
    return {
        "random": random_function(np.random.default_rng(71 + m), m),
        "quadratic": trace_polynomial(ctx, [3, 9]),
        "kasami-welch": trace_polynomial(ctx, [KASAMI_WELCH_EXPONENT.get(m, 13)]),
        "x^n": parse(f"x^{n}", ctx),
    }


def flip_at_zero(f: BooleanFunction) -> BooleanFunction:
    table = f.table.copy()
    table[0] ^= 1
    return BooleanFunction(f.m, table)


def tracerep_records(caplog) -> list[logging.LogRecord]:
    """The captured records of bentfn.tracerep alone; other bentfn loggers may
    be at DEBUG too."""
    return [r for r in caplog.records if r.name == "bentfn.tracerep"]


def low_leaders(ctx, degree: int) -> np.ndarray:
    """The coset leaders of binary weight at most ``degree``."""
    leaders = np.array([c.leader for c in cyclotomic_cosets(ctx.m)])
    return leaders[[l.bit_count() <= degree for l in leaders.tolist()]]


def forced_plans(ctx) -> dict:
    """Stand-ins for tracerep._plan that each force one path of to_trace_form."""
    leaders = np.array([c.leader for c in cyclotomic_cosets(ctx.m)])

    def degree(f, ctx, weight):
        d = f.degree()
        return f"leader summation to degree {d}", low_leaders(ctx, d)

    return {
        "additive FFT": lambda f, ctx, weight: ("additive FFT", None),
        "leader summation": lambda f, ctx, weight: ("leader summation", leaders),
        "degree": degree,
    }


def form_of_degree(rng, ctx, d: int) -> TraceForm:
    """A random form over the leaders of weight <= d, with a nonzero
    coefficient on one leader of weight d, so its table has degree d."""
    n = ctx.order - 1
    cosets = [c for c in cyclotomic_cosets(ctx.m)[1:] if c.leader.bit_count() <= d]
    top = [c.leader for c in cosets if c.leader.bit_count() == d]
    chosen = top[int(rng.integers(0, len(top)))]
    terms = {}
    for coset in cosets:
        k = 2 if coset.leader == chosen else int(rng.integers(0, 1 << coset.size))
        if k:
            step = n // ((1 << coset.size) - 1)
            terms[coset.leader] = int(ctx.antilog_table[(k - 1) * step])
    return TraceForm(ctx.m, int(rng.integers(0, 2)), terms)


class TestAdditiveInterpolation:
    """The inverse additive FFT against full leader summation (mattson_solomon),
    and to_trace_form's checks against a transform that is wrong."""

    @pytest.mark.parametrize("m", range(2, 14))
    def test_every_coefficient_matches_summation(self, m):
        # a_j = c_j for 0 < j < n; a_0 = f(0) and a_0 + a_n = c_0, since x^n = 1
        # off 0.  Summation reads only the nonzero points, so f and f with
        # f(0) flipped share c.
        ctx = FieldContext(m)
        n = ctx.order - 1
        for name, f in interpolation_tables(ctx).items():
            coeffs = mattson_solomon(f, ctx)
            for g in (f, flip_at_zero(f)):
                full = tracerep._additive_interpolation(g, ctx)
                assert full.shape == (n + 1,), name
                assert np.array_equal(full[1:n], coeffs[1:]), name
                assert full[0] == g[0], name
                assert full[0] ^ full[n] == coeffs[0], name

    @pytest.mark.parametrize("m", [11, 13])
    @pytest.mark.parametrize("index, flip, message", [
        (3, 2, "trace form does not evaluate back to the table"),
        (-1, 1, "top coefficient disagrees with the weight parity"),
        (-1, 2, "constant interpolation coefficient is not a bit"),
    ])
    def test_corrupt_transform_is_caught(self, m, index, flip, message, monkeypatch):
        # a dense table, which the cost rule sends to the FFT; a quadratic one
        # would be summed over its few leaders of weight <= 2
        ctx = FieldContext(m)
        f = random_function(np.random.default_rng(83 + m), m)
        transform = tracerep._additive_interpolation

        def corrupted(f, ctx):
            full = transform(f, ctx)
            full[index] ^= flip
            return full

        monkeypatch.setattr(tracerep, "_additive_interpolation", corrupted)
        with pytest.raises(NotBooleanConsistent, match=f"^{message}$"):
            to_trace_form(f, ctx)

    @pytest.mark.parametrize("m", [10, 11, 12])
    def test_both_algorithms_give_equal_forms(self, m, monkeypatch, caplog):
        # each path forced in turn: the FFT, summation over every leader, and
        # summation over the leaders of weight <= deg f
        ctx = FieldContext(m)
        tables = list(interpolation_tables(ctx).values())
        tables += [flip_at_zero(tables[0]), flip_at_zero(tables[-1]),
                   tables[1].add_linear_form(ctx, int(ctx.antilog_table[5]), 1)]
        plans = forced_plans(ctx)
        forms = {}
        caplog.set_level(logging.DEBUG, logger="bentfn.tracerep")
        for path, plan in plans.items():
            monkeypatch.setattr(tracerep, "_plan", plan)
            caplog.clear()
            forms[path] = [to_trace_form(f, ctx) for f in tables]
            names = [plan(f, ctx, f.weight())[0] for f in tables]
            assert [r.getMessage().split(" in ")[0] for r in tracerep_records(caplog)] == (
                [f"interpolated over GF(2^{m}) by {name}" for name in names])
        assert "leader summation to degree 2" in names
        assert forms["additive FFT"] == forms["leader summation"] == forms["degree"]
        assert not forms["additive FFT"][-1].is_binary

    # a dense table has degree m - 1 or m, so every leader is summed below the
    # FFT's cost and none is skipped
    @pytest.mark.parametrize("m, algorithm", [(10, "leader summation"), (11, "additive FFT")])
    def test_threshold_selects_by_dimension(self, m, algorithm, caplog):
        ctx = FieldContext(m)
        caplog.set_level(logging.DEBUG, logger="bentfn.tracerep")
        to_trace_form(random_function(np.random.default_rng(89 + m), m), ctx)
        (record,) = tracerep_records(caplog)
        assert re.fullmatch(rf"interpolated over GF\(2\^{m}\) by {algorithm} in \d+\.\d{{4}} s",
                            record.getMessage())

    @pytest.mark.parametrize("m, expr, algorithm", [
        (7, "tr(x^3+x^5)", "leader summation"),  # the Moebius transform would cost more
        (9, "tr(x^3+x^5)", "leader summation to degree 2"),
        (11, "tr(x^3)+1", "leader summation to degree 2"),
        (11, "tr(x^241)", "leader summation to degree 5"),  # Kasami-Welch
        (13, "tr(x^3+x^5)", "leader summation to degree 2"),
        (13, "tr(x^241)", "additive FFT"),  # Kasami-Welch: 184 leaders of weight <= 5
    ])
    def test_cost_rule_selects_by_degree(self, m, expr, algorithm, caplog):
        ctx = FieldContext(m)
        caplog.set_level(logging.DEBUG, logger="bentfn.tracerep")
        to_trace_form(parse(expr, ctx), ctx)
        (record,) = tracerep_records(caplog)
        assert record.getMessage().split(" in ")[0] == (
            f"interpolated over GF(2^{m}) by {algorithm}")

    def test_dimension_mismatch(self, ctx11):
        with pytest.raises(DimensionMismatch):
            to_trace_form(BooleanFunction.constant(13, 0), ctx11)


class TestDegreeBound:
    """Coefficients of leaders heavier than deg f vanish, so summing over the
    lighter ones is exact; a degree too low must fail the round trip."""

    @pytest.mark.parametrize("m", [7, 9, 11, 13])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_degree_path_matches_fft_and_full_summation(self, m, d, monkeypatch):
        ctx = FieldContext(m)
        n = ctx.order - 1
        form = form_of_degree(np.random.default_rng(97 * m + d), ctx, d)
        f = form.evaluate(ctx)
        assert f.degree() == d
        full = tracerep._additive_interpolation(f, ctx)
        summed = mattson_solomon(f, ctx)
        assert np.array_equal(full[1:n], summed[1:])
        assert full[0] ^ full[n] == summed[0]
        heavy = [j for j in range(1, n) if j.bit_count() > d]
        assert not summed[heavy].any()
        lows = low_leaders(ctx, d)
        assert np.array_equal(mattson_solomon(f, ctx, lows), summed[lows])
        forms = []
        for plan in forced_plans(ctx).values():
            monkeypatch.setattr(tracerep, "_plan", plan)
            forms.append(to_trace_form(f, ctx))
        assert forms == [form] * 3

    @pytest.mark.parametrize("m, expr", [(9, "tr(x^3+x^5)"), (11, "tr(x^3)+tr(x)"),
                                         (11, "tr(x^241)"), (13, "tr(x^5+x^17)+1")])
    def test_degree_one_too_low_breaks_round_trip(self, m, expr, monkeypatch, caplog):
        # the cost rule takes the degree path for each; with deg f - 1 it drops
        # every leader of weight deg f
        ctx = FieldContext(m)
        f = parse(expr, ctx)
        degree = BooleanFunction.degree
        monkeypatch.setattr(BooleanFunction, "degree", lambda self: degree(self) - 1)
        caplog.set_level(logging.DEBUG, logger="bentfn.tracerep")
        with pytest.raises(NotBooleanConsistent,
                           match="^trace form does not evaluate back to the table$"):
            to_trace_form(f, ctx)
        (record,) = tracerep_records(caplog)
        assert f" by leader summation to degree {degree(f) - 1} in " in record.getMessage()


class TestTraceForm:
    def test_canonical_term_map(self, ctx7):
        tf = to_trace_form(parse("tr(x^7+x^11+x^19+x^21)", ctx7), ctx7)
        assert tf.terms == {7: 1, 11: 1, 19: 1, 21: 1}
        assert tf.constant == 0 and tf.top_coeff == 0
        assert tf.is_binary
        assert tf.degree() == 3

    def test_constant_plus_term(self, ctx7):
        tf = to_trace_form(parse("tr(x^9)+1", ctx7), ctx7)
        assert tf.constant == 1 and tf.terms == {9: 1}

    def test_non_leader_exponent_normalizes(self, ctx11):
        # 241 doubles into the coset led by 143
        a = to_trace_form(parse("tr(x^241)", ctx11), ctx11)
        b = to_trace_form(parse("tr(x^143)", ctx11), ctx11)
        assert a == b
        assert 143 in a.terms

    def test_round_trip_random(self, ctx5, ctx7):
        rng = np.random.default_rng(41)
        for ctx in (ctx5, ctx7):
            for _ in range(40):
                f = random_function(rng, ctx.m)
                tf = to_trace_form(f, ctx)
                assert tf.evaluate(ctx) == f

    def test_top_coefficient_tracks_weight_parity(self, ctx5):
        rng = np.random.default_rng(43)
        for _ in range(20):
            f = random_function(rng, 5)
            assert to_trace_form(f, ctx5).top_coeff == f.weight() % 2

    def test_idempotence(self, ctx7):
        rng = np.random.default_rng(47)
        f = random_function(rng, 7)
        tf = to_trace_form(f, ctx7)
        assert to_trace_form(tf.evaluate(ctx7), ctx7) == tf

    def test_degree_matches_anf(self, ctx7):
        rng = np.random.default_rng(53)
        leaders = [c.leader for c in cyclotomic_cosets(7) if c.leader]
        for _ in range(20):
            chosen = [l for l in leaders if rng.integers(0, 2)]
            if not chosen:
                continue
            f = trace_polynomial(ctx7, chosen)
            tf = to_trace_form(f, ctx7)
            if not tf.terms and tf.constant == 0 and tf.top_coeff == 0:
                continue
            assert tf.degree() == f.degree()

    def test_binary_form_for_even_dimension_field(self):
        # the machinery is not restricted to odd m
        ctx = FieldContext(4)
        f = trace_polynomial(ctx, [3])
        tf = to_trace_form(f, ctx)
        assert tf.evaluate(ctx) == f


class TestEvaluate:
    @pytest.mark.parametrize("m", [6, 8])
    def test_matches_conjugate_loop_on_random_forms(self, m):
        # even m has cosets with m/size even, which keep the conjugate loop
        ctx = FieldContext(m)
        rng = np.random.default_rng(61 + m)
        for _ in range(20):
            form = random_form(rng, ctx)
            assert form.evaluate(ctx) == conjugate_loop_evaluate(form, ctx)

    @pytest.mark.parametrize("m", [6, 8])
    def test_blocks_of_exponents_match_conjugate_loop(self, m, monkeypatch):
        # 2^m - 1 exponents in blocks of 10, the last one short
        monkeypatch.setattr(tracerep, "_BLOCK", 10)
        ctx = FieldContext(m)
        rng = np.random.default_rng(71 + m)
        for _ in range(20):
            form = random_form(rng, ctx)
            assert form.evaluate(ctx) == conjugate_loop_evaluate(form, ctx)

    def test_temporaries_stay_small_at_m21(self):
        # the 2^21-point table is 2 MiB; whole-size int64 temporaries peaked at 80 MiB
        ctx = FieldContext(21)
        ctx.log_table  # built on first use, not part of the evaluation
        form = TraceForm(21, 0, {3: 1, 5: 1})
        tracemalloc.start()
        try:
            table = form.evaluate(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20, f"{peak / 2**20:.1f} MiB"
        assert table == trace_polynomial(ctx, [3, 5])

    @pytest.mark.parametrize("leader", [9, 21])
    def test_coefficient_outside_subfield_rejected(self, leader):
        # m = 6: the coset of 9 has size 3 (m/size even), that of 21 size 2
        # (m/size odd); alpha lies in neither GF(8) nor GF(4)
        ctx = FieldContext(6)
        size = {9: 3, 21: 2}[leader]
        form = TraceForm(6, 0, {leader: int(ctx.antilog_table[1])})
        with pytest.raises(NotBooleanConsistent,
                           match=rf"^coefficient 2 of x\^{leader} is outside GF\(2\^{size}\)$"):
            form.evaluate(ctx)

    def test_first_coefficient_outside_its_subfield_is_named(self):
        # m = 6: GF(8) holds alpha^9 but not GF(4)'s alpha^21, and GF(4) holds
        # alpha^21 but not alpha^9; the cosets of 9 and 27 have size 3, that of 21 size 2
        ctx = FieldContext(6)
        a9, a21 = int(ctx.antilog_table[9]), int(ctx.antilog_table[21])
        form = TraceForm(6, 0, {1: 1, 9: a9, 27: a21, 21: a9})
        with pytest.raises(NotBooleanConsistent,
                           match=rf"^coefficient {a21} of x\^27 is outside GF\(2\^3\)$"):
            form.evaluate(ctx)
        inside = TraceForm(6, 0, {1: 1, 9: a9, 27: a9, 21: a21})
        assert inside.evaluate(ctx) == conjugate_loop_evaluate(inside, ctx)

    def test_flipped_leader_coefficient_breaks_round_trip(self, ctx7, monkeypatch):
        f = trace_polynomial(ctx7, [3, 9])
        leaders = [c.leader for c in cyclotomic_cosets(7)]
        flipped = dict(to_trace_form(f, ctx7).terms)
        flipped[3] ^= 2
        assert TraceForm(7, 0, flipped).evaluate(ctx7) != f

        interpolate = tracerep.mattson_solomon

        def corrupted(f, ctx, exponents=None):
            coeffs = interpolate(f, ctx, exponents)
            coeffs[leaders.index(3)] ^= 2
            return coeffs

        monkeypatch.setattr(tracerep, "mattson_solomon", corrupted)
        with pytest.raises(NotBooleanConsistent):
            to_trace_form(f, ctx7)


class TestFormat:
    def test_constants(self, ctx7):
        assert format_trace_form(to_trace_form(BooleanFunction.constant(7, 1), ctx7)) == "1"
        assert format_trace_form(to_trace_form(BooleanFunction.constant(7, 0), ctx7)) == "0"

    def test_kasami_dual_text(self, ctx7):
        tf = to_trace_form(parse("tr(x^7+x^11+x^19+x^21)", ctx7), ctx7)
        assert format_trace_form(tf) == "tr(x^7+x^11+x^19+x^21)"

    def test_exponent_one_prints_bare_x(self, ctx7):
        tf = to_trace_form(parse("tr(x+x^9)", ctx7), ctx7)
        assert format_trace_form(tf) == "tr(x+x^9)"

    def test_constant_leads(self, ctx7):
        tf = to_trace_form(parse("1+tr(x^5)", ctx7), ctx7)
        assert format_trace_form(tf) == "1+tr(x^5)"

    def test_parse_format_round_trip_binary(self, ctx7):
        rng = np.random.default_rng(59)
        leaders = [c.leader for c in cyclotomic_cosets(7) if c.leader]
        for _ in range(25):
            chosen = [l for l in leaders if rng.integers(0, 2)]
            constant = int(rng.integers(0, 2))
            f = trace_polynomial(ctx7, chosen) + constant
            tf = to_trace_form(f, ctx7)
            assert tf.is_binary
            assert parse(format_trace_form(tf), ctx7) == f

    def test_non_binary_needs_context_for_logs(self, ctx5):
        f = BooleanFunction(5, [0, 0, 1] + [0] * 29)  # single point, not a binary form
        tf = to_trace_form(f, ctx5)
        assert not tf.is_binary
        text = format_trace_form(tf, ctx5)
        assert "α^" in text
        entry = tf.as_dict(ctx5)
        assert any("coeff_log" in term for term in entry["terms"])

    def test_repr_and_str_without_field(self, ctx7):
        # without a field a coefficient prints as its polynomial-basis integer
        tf = to_trace_form(parse("tr(x^3)", ctx7).add_linear_form(ctx7, 5), ctx7)
        assert tf.terms == {1: 5, 3: 1}
        assert str(tf) == "tr(x^3)+tr(0x5·x)"
        assert repr(tf) == "TraceForm('tr(x^3)+tr(0x5·x)', m=7)"
        assert format_trace_form(tf, ctx7) == f"tr(x^3)+tr(α^{ctx7.log_table[5]}·x)"
        subfield = TraceForm(6, 1, {9: int(FieldContext(6).antilog_table[9])}, 1)
        assert str(subfield) == "1+tr_3(0x18·x^9)+x^63"

    def test_format_with_top_term_parses_back(self, ctx5):
        f = parse("x^31", ctx5) + parse("tr(x^3)", ctx5)
        tf = to_trace_form(f, ctx5)
        assert tf.top_coeff == 1
        assert parse(format_trace_form(tf), ctx5) == f


def xi_of(fn: BooleanFunction, ctx: FieldContext):
    """The xi with fn = join(f0, f0 + tr + xi), or None."""
    f0, f1 = split(fn)
    gap = f0.table ^ f1.table ^ ctx.trace_table
    return int(gap[0]) if not np.any(gap ^ gap[0]) else None


class TestTraceForms:
    """``trace_forms`` against an independent ``to_trace_form`` of each table."""

    @staticmethod
    def assert_matches_independent_forms(tables, ctx):
        expected = [to_trace_form(f, ctx) for f in tables]
        assert trace_forms(tables, ctx) == expected

    @staticmethod
    def six_pack_tables(seed, pack, ctx):
        """The 13 tables ``sixpack`` prints: the seed, then both components of each member."""
        tables = [seed]
        for fn in pack.functions():
            tables += split(fn)
        return tables

    @pytest.mark.parametrize("m, exponents", [(5, [3]), (7, [3, 9]), (9, [3, 9]), (11, [3])])
    @pytest.mark.parametrize("linear", [(None, 0), (5, 1), (3, 0)])
    def test_quadratic_six_packs(self, m, exponents, linear):
        # a --table-style seed adds the general linear term tr(alpha^k x) + c
        ctx = FieldContext(m)
        seed = trace_polynomial(ctx, exponents)
        k, c = linear
        if k is not None:
            seed = seed.add_linear_form(ctx, int(ctx.antilog_table[k]), c)
        pack = six_pack(seed, ctx)
        assert {0, 1} <= {xi_of(fn, ctx) for fn in pack.functions()}
        self.assert_matches_independent_forms(self.six_pack_tables(seed, pack, ctx), ctx)

    @pytest.mark.parametrize("t, s", [(3, 2), (4, 2), (6, 4)])
    def test_kasami_welch_six_packs(self, t, s):
        # m = 5, 7, 11; no Kasami-Welch exponent is admissible at m = 9
        ctx = FieldContext(2 * t - 1)
        F = kasami_welch(t, s, ctx)
        pack = _six_pack_of(F, ctx)
        assert {0, 1, None} <= {xi_of(fn, ctx) for fn in pack.functions()}
        tables = self.six_pack_tables(split(F)[0], pack, ctx)
        self.assert_matches_independent_forms(tables, ctx)

    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_random_tables_under_all_four_translates(self, m, trace_form_calls):
        # at even m, tr(1) = 0, so the class is pinned at another point
        ctx = FieldContext(m)
        rng = np.random.default_rng(67 + m)
        tr = BooleanFunction(m, ctx.trace_table)
        for _ in range(6):
            f = random_function(rng, m)
            translates = [f, f + 1, f + tr, f + tr + 1]
            self.assert_matches_independent_forms(translates, ctx)
        # the independent forms call the unrecorded binding: one call per class
        assert len(trace_form_calls) == 6

    def test_one_interpolation_per_class(self, ctx7, trace_form_calls):
        tr = trace_function(ctx7)
        f, g = trace_polynomial(ctx7, [3]), trace_polynomial(ctx7, [5, 9])
        forms = trace_forms([f, g + 1, f + tr, g, f + tr + 1], ctx7)
        assert len(trace_form_calls) == 2
        assert [str(form) for form in forms] == [
            "tr(x^3)", "1+tr(x^5+x^9)", "tr(x+x^3)", "tr(x^5+x^9)", "1+tr(x+x^3)"]

    def test_dimension_mismatch(self, ctx5, ctx7):
        with pytest.raises(DimensionMismatch):
            trace_forms([trace_function(ctx5)], ctx7)
