import numpy as np
import pytest

from bentfn import tracerep
from bentfn.boolfn import BooleanFunction, trace_function, trace_polynomial
from bentfn.errors import ExponentOutOfRange, NotBooleanConsistent, ParseError
from bentfn.gf2m import FieldContext, cyclotomic_cosets
from bentfn.tracerep import (
    TraceForm,
    format_trace_form,
    mattson_solomon,
    parse,
    to_trace_form,
)

from helpers import conjugate_loop_evaluate, random_function

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
        for x in range(1, 32):
            value = 0
            for j, c in enumerate(coeffs):
                value ^= ctx5.mul(int(c), ctx5.pow(x, j))
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

    @pytest.mark.parametrize("leader", [9, 21])
    def test_coefficient_outside_subfield_rejected(self, leader):
        # m = 6: the coset of 9 has size 3 (m/size even), that of 21 size 2
        # (m/size odd); alpha lies in neither GF(8) nor GF(4)
        ctx = FieldContext(6)
        form = TraceForm(6, 0, {leader: int(ctx.antilog_table[1])})
        with pytest.raises(NotBooleanConsistent):
            form.evaluate(ctx)

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

    def test_format_with_top_term_parses_back(self, ctx5):
        f = parse("x^31", ctx5) + parse("tr(x^3)", ctx5)
        tf = to_trace_form(f, ctx5)
        assert tf.top_coeff == 1
        assert parse(format_trace_form(tf), ctx5) == f
