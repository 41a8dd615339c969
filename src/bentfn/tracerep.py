"""Trace-notation expressions and canonical trace forms.

``parse_form`` reads expressions like ``tr(x^7+x^13)+1`` straight into their
canonical :class:`TraceForm`, which ``parse`` evaluates into a truth table.
Interpolation serves tables only: ``to_trace_form`` interpolates the function,
keeps one subfield coefficient per cyclotomic coset leader, and returns the
canonical form.  Two interpolations give the same leader coefficients:

- leader summation (``mattson_solomon``) computes only the chosen leader
  coefficients of the interpolation on the nonzero elements, n = 2^m - 1, at
  a cost of O(|supp|) each;
- the inverse additive FFT computes all 2^m coefficients of the polynomial
  equal to f on the whole field, in O(2^m * m^2) XORs, with a few dozen NumPy
  calls per level.

The coefficient of x^j can be nonzero only if the binary weight of j is at
most the algebraic degree of f (Carlet, *Boolean Functions for Cryptography
and Coding Theory*, CUP 2021, section 2.2), and a coset's members share one
weight.  So summation needs only the leaders of weight <= deg f: about
m/2 + 2 for a quadratic form, against about n/m in all.  The Moebius
transform gives deg f in O(m * 2^m).  ``to_trace_form`` picks its path by one
cost rule, counted in summation terms (one leader times one support point):
summing over k leaders costs k * |supp|, and the Moebius transform and the
FFT cost m and m^2 NumPy passes over the table, each a quarter of a term per
entry plus 512 terms for the call itself (``_pass_cost``).  It takes the
degree only where the most that could save exceeds the cost of the Moebius
transform.  By Ax's theorem the weight of a degree-d function is divisible by
2^(ceil(m/d) - 1), so a table of weight w, with 2^v the largest power of 2
dividing w, has degree at least ceil(m/(v + 1)), and the degree cannot drop
the leaders of weight up to that bound.  The saving is at most the cost of
summing over all leaders less that of summing over those, each capped at the
FFT's: an odd weight gives none, and at m = 9 a weight of 2 mod 4 gives less
than the transform costs.  It then sums over the leaders left where that costs
no more than the FFT, and runs the FFT otherwise.

The constants were measured on one core of a 2-vCPU Xeon VM, where a
summation term takes about 6 ns, an FFT entry per pass about 1.5 ns, and a
NumPy call some microseconds, which dominate both transforms below m = 12.
Up to m = 8 a balanced table skips the degree: at m = 8, summing a quadratic
one over all 35 leaders takes 37 us, the Moebius transform alone 30 us.  A
dense table is summed up to m = 10 and transformed from m = 11 up, as before;
at m = 11 both take 1.3 ms.  A quadratic form is summed at every m: 0.4 ms at
m = 13, the degree step included, against 3.2 ms for the FFT.  The degree-5
Kasami-Welch form tr(x^241) is summed at m = 11 (94 leaders: 0.8 against
1.0 ms) and transformed at m = 13 (184 leaders: 6.4 against 2.6 ms).

Either way the form is then evaluated back and must reproduce the input
exactly, so a wrong degree cannot give a wrong form.  Forms are compared
coset-wise, so listings that use a non-leader exponent (tr(x^a) = tr(x^2a))
normalize to the same object.

``TraceForm.evaluate`` has two evaluators.  The exponent path serves every
form: one pass over the 2^m - 1 exponents per term, an int64 multiply and
remainder and a gather from the antilog table, so O(n^2/m) for a dense form.
A form of degree at most 2 with no top coefficient, the paper's quadratic
family with its duals and pseudo-duals, is fixed by its values at 0, at the
basis points e_k = alpha^k and by its bilinear form, so the doubling path
fills the table level by level from exponent arithmetic on the alpha^i, in
O(2^m) byte XORs and m(m+1)/2 NumPy calls.  The doubling path runs where it
is the cheaper of the two by one cost rule in ``_pass_cost`` units: the
exponent path costs about 5 passes per summed term plus 8, the doubling path
about 40 NumPy calls of set-up, half a call per level slice and an eighth of a
pass entry per byte.  Measured on one core of the same VM (doubling against
exponents), tr(x^3) takes 0.14 ms either way at m = 13, then 0.16 against
0.24 ms at m = 14 and 0.29 against 10.5 ms at m = 19.  Four quadratic terms
and a linear one cross over at m = 12, and take 2.5 against 560 ms at m = 23.

``trace_forms`` serves several tables over one field, such as the components
of a six-pack, which the construction join(f0, f0 + tr + xi) keeps in few
classes modulo {0, 1, tr, tr + 1}.  It interpolates once per class and derives
the other members' forms exactly: adding tr + b changes only the constant and
the coefficient of x; a class that holds a parsed expression is not
interpolated at all.  So the CLI reports every form it already knows, a
parsed input or the seed text of a generated family, through ``known``.
Coset sizes come from ``coset_size`` of each term's leader; only
interpolation enumerates all the leaders of the field (``coset_leaders``).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction
from .errors import (
    DimensionMismatch,
    ExponentOutOfRange,
    NotBooleanConsistent,
    ParseError,
)
from .gf2m import _BLOCK, FieldContext, coset_leader, coset_leaders, coset_size

logger = logging.getLogger(__name__)


def _pass_cost(m: int) -> int:
    """Cost of one NumPy pass over a table of 2^m entries, in summation terms
    (one (exponent, support point) pair of mattson_solomon): a quarter of a
    term per entry and 512 for the call.  The Moebius transform makes m
    passes, the additive FFT about m^2 (module docstring)."""
    return (1 << m) // 4 + 512


# Entries per (exponent x support point) block of mattson_solomon: 2 MiB as
# int64.  Blocks of tens of MiB left peak memory depending on how the allocator
# reused earlier freed blocks, so it varied from one run to the next.
_DFT_CHUNK = 1 << 18


def mattson_solomon(f: BooleanFunction, ctx: FieldContext, exponents=None) -> np.ndarray:
    """Coefficients c_j of the interpolating polynomial on the nonzero elements.

    c_j = sum over the support exponents i of alpha^(-ij); the unique
    polynomial of degree < 2^m - 1 with value f(x) at every x != 0 is
    sum c_j x^j, the value at 0 being handled separately by the caller.
    ``exponents`` selects which c_j to compute, returned in that order; the
    default is every j in 0..2^m - 2.  Direct summation with log-table
    indexing, O(len(exponents) * |supp|), in blocks of at most _DFT_CHUNK
    support points and _DFT_CHUNK (exponent, point) pairs.
    """
    if f.m != ctx.m:
        raise DimensionMismatch(f"f.m={f.m} does not match ctx.m={ctx.m}")
    n = ctx.order - 1
    if exponents is None:
        js = np.arange(n, dtype=np.int64)
    else:
        js = np.asarray(exponents, dtype=np.int64)
    coeffs = np.zeros(js.size, dtype=np.int32)
    for first in range(1, ctx.order, _DFT_CHUNK):
        points = np.flatnonzero(f.table[first : first + _DFT_CHUNK])
        if not points.size:
            continue
        points += first
        neg_exps = n - ctx.log_table[points].astype(np.int64)
        rows = _DFT_CHUNK // points.size
        for start in range(0, js.size, rows):
            block = js[start : start + rows, None] * neg_exps
            block %= n  # in place: a second block-sized array costs more than the remainder
            coeffs[start : start + rows] ^= np.bitwise_xor.reduce(
                ctx.antilog_table.take(block), axis=1
            )
    return coeffs


@dataclass(frozen=True)
class TraceForm:
    """Canonical trace representation: constant bit plus one coefficient per coset leader.

    ``terms`` maps each nonzero coset leader to its coefficient, an element of
    the subfield of the coset's size embedded in GF(2^m).  ``top_coeff`` is the
    coefficient of x^(2^m - 1) (the all-but-zero indicator); it is nonzero
    exactly for functions of odd weight, which a pure trace sum cannot express.
    """

    m: int
    constant: int
    terms: dict[int, int]
    top_coeff: int = 0

    @property
    def is_binary(self) -> bool:
        """Whether the form is a plain sum of tr(x^l) over full-length cosets, plus a constant."""
        return not self.top_coeff and all(
            coeff == 1 and coset_size(self.m, leader) == self.m
            for leader, coeff in self.terms.items())

    def degree(self) -> int:
        """Max binary weight of the term exponents (m for a nonzero top term)."""
        best = 0
        if self.top_coeff:
            best = self.m
        for leader in self.terms:
            best = max(best, leader.bit_count())
        return best

    def evaluate(self, ctx: FieldContext) -> BooleanFunction:
        """Truth table of the form; exact inverse of ``to_trace_form``.

        Each coset of size s contributes tr_s(c x^l), with c in GF(2^s); a
        coefficient outside that subfield raises ``NotBooleanConsistent``
        before any table is built.  Two evaluators, picked by cost in
        ``_pass_cost`` units from m and the terms (module docstring):

        - ``_exponent_table``, for any form: one pass over the 2^m - 1
          exponents per term, O(n^2/m) for a dense form, n = 2^m - 1;
        - ``_quadratic_table``, for a form of degree at most 2 with no top
          coefficient: doubling over the polynomial basis, O(2^m) byte XORs.
        """
        if ctx.m != self.m:
            raise DimensionMismatch(f"ctx.m={ctx.m} does not match form dimension {self.m}")
        n = ctx.order - 1
        leaders = [leader for leader in self.terms if leader != 1]
        coeffs = np.fromiter(map(self.terms.get, leaders), dtype=np.int64, count=len(leaders))
        sizes = [coset_size(self.m, leader) for leader in leaders]
        # log 1 = 0, so a binary form (a parsed one, say) needs no log table
        logs = coeffs - 1 if (coeffs == 1).all() else ctx.log_table[coeffs].astype(np.int64)
        # c lies in GF(2^s) iff c = 0 or c^(2^s) = c, i.e. log c * 2^s = log c mod n
        powers = np.left_shift(1, np.array(sizes, dtype=np.int64))
        outside = np.flatnonzero((coeffs != 0) & (logs * powers % n != logs))
        if outside.size:
            i = outside[0]
            raise NotBooleanConsistent(f"coefficient {coeffs[i]} of x^{leaders[i]} "
                                       f"is outside GF(2^{sizes[i]})")
        terms = [(leader, log_c, size) for leader, coeff, log_c, size
                 in zip(leaders, coeffs.tolist(), logs.tolist(), sizes) if coeff]
        linear = self.terms.get(1, 0)
        quadratic = not self.top_coeff and all(  # every leader 2^j + 1
            leader & 1 and leader.bit_count() == 2 for leader, _, _ in terms)
        if quadratic and _doubling_cost(self.m) < _exponent_cost(self.m, terms):
            table = _quadratic_table(ctx, self.constant, terms, linear)
        else:
            table = _exponent_table(ctx, self.constant, self.top_coeff, terms, linear)
        return BooleanFunction(self.m, table, copy=False)

    def as_dict(self, ctx: FieldContext | None = None) -> dict:
        entries = []
        for leader in sorted(self.terms):
            coeff = self.terms[leader]
            if coeff == 1:
                entries.append({"leader": leader, "coeff": "1"})
            else:
                if ctx is None:
                    raise ValueError("field context needed to express non-binary coefficients")
                entries.append({"leader": leader, "coeff_log": int(ctx.log_table[coeff])})
        out = {
            "constant": self.constant,
            "terms": entries,
            "is_binary": self.is_binary,
            "text": format_trace_form(self, ctx),
        }
        if self.top_coeff:
            out["top_coeff"] = self.top_coeff
        return out

    def __str__(self) -> str:
        return format_trace_form(self)

    def __repr__(self) -> str:
        return f"TraceForm({format_trace_form(self)!r}, m={self.m})"


def _exponent_cost(m: int, terms) -> int:
    """Cost of ``_exponent_table``, in summation terms (``_pass_cost``): about
    5 passes over the field per conjugate it sums and 8 for the rest of each
    block.  With no term but the linear one it makes no block at all."""
    summed = sum(1 if (m // size) % 2 else size for _, _, size in terms)
    return (5 * summed + 8) * _pass_cost(m) if terms else 0


def _doubling_cost(m: int) -> int:
    """Cost of ``_quadratic_table``, in summation terms: about 40 NumPy calls of
    set-up, m(m+1)/2 level calls on short byte slices at half a call each, and
    2^(m+1) byte XORs at an eighth of a pass entry each (module docstring)."""
    return (m * (m + 1) // 4 + 40) * _pass_cost(0) + (2 << m) // 32


def _exponent_table(ctx: FieldContext, constant: int, top: int, terms, linear: int) -> np.ndarray:
    """Truth table of constant + top x^n + tr(linear x) + the ``terms``, as
    (leader, log c, coset size) triples, in one pass over the 2^m - 1
    exponents per summed term.

    tr(linear x) is the linear form table (``FieldContext.linear_form_table``),
    XORed in last; a form with no other term makes no pass over the exponents.
    Since c x^l lies in GF(2^s), tr_m(c x^l) = (m/s) tr_s(c x^l), so every term
    with m/s odd is summed as a field element and traced once; only cosets
    with m/s even (possible for even m) expand their s conjugates.
    """
    n = ctx.order - 1
    table = np.full(ctx.order, constant, dtype=np.uint8)
    table[1:] ^= top
    # in blocks of exponents, so every temporary stays block-sized; no
    # block at all when the linear term is the only one
    for start in range(0, n if terms else 0, _BLOCK):
        exps = np.arange(start, min(start + _BLOCK, n), dtype=np.int64)
        block_sum = np.zeros(exps.size, dtype=np.int32)
        block_bits = np.zeros(exps.size, dtype=np.int32)
        for leader, log_c, size in terms:
            logs = exps * leader
            logs += log_c
            logs %= n
            if (ctx.m // size) % 2:
                block_sum ^= ctx.antilog_table[logs]
            else:
                for k in range(size):
                    block_bits ^= ctx.antilog_table[(logs << k) % n]
        block_bits ^= ctx.trace_table[block_sum] ^ (constant ^ top)
        table[ctx.antilog_table[start : start + _BLOCK]] = block_bits
    if linear:
        table ^= ctx.linear_form_table(linear)
    return table


def _quadratic_table(ctx: FieldContext, constant: int, terms, linear: int) -> np.ndarray:
    """Truth table of F = constant + Q + tr(linear x), Q the sum of the
    ``terms`` tr_s(c x^(2^j + 1)) as (leader, log c, coset size) triples, by
    doubling over the polynomial basis e_k = alpha^k, bit k of the index.

    Q is quadratic, so for y < 2^k, F(e_k + y) = F(y) + q_k + B(y, e_k), with
    q_k = F(e_k) + F(0) and B(x, y) = Q(x + y) + Q(x) + Q(y) bilinear (Carlet,
    *Boolean Functions for Cryptography and Coding Theory*, CUP 2021, ch. 5).
    For tr(c x^l), l = 2^j + 1 and log c = lambda, q_k = tr(alpha^(lambda + k l))
    and B(e_i, e_k) = tr(alpha^(lambda + i + 2^j k)) + tr(alpha^(lambda + 2^j i + k)).
    For the coset of size m/2 (j = m/2), tr_(m/2)(c x^l) has B(e_i, e_k) =
    tr(alpha^(lambda + i + 2^j k)) alone, and q_k is the sum of the m/2
    conjugates.  Level k fills table[2^k:2^(k+1)] with q_k + B(y, e_k) by
    doubling over the bits i < k of y, then XORs in table[:2^k]: O(2^m) byte
    XORs in m(m+1)/2 NumPy calls, and no array but the table is field-sized.
    """
    m, n = ctx.m, ctx.order - 1
    alog, trace = ctx.antilog_table, ctx.trace_table
    k = np.arange(m, dtype=np.int64)
    # one row per term: leader l, log c, coset size and j, each of shape (terms, 1)
    leader, log_c, size, j = np.array([(*term, term[0].bit_length() - 1) for term in terms],
                                      dtype=np.int64).reshape(-1, 4, 1).transpose(1, 0, 2)
    full = (size == m).ravel()
    values = (log_c + k * leader) % n  # log of c alpha^(k l), per term and k
    # tr(c x^l) = 0 on the coset of size m/2, whose q_k is its conjugate sum instead
    q = np.bitwise_xor.reduce(trace[alog[values]], axis=0) ^ (ctx.dual_index(linear) >> k) & 1
    for value in values[~full]:
        q ^= np.bitwise_xor.reduce(alog[(value[:, None] << k[: m // 2]) % n], axis=1)
    # tr(alpha^(lambda + i + 2^j k)) at [term, i, k]
    cross = trace[alog[(log_c[..., None] + k[:, None] + (k << j[..., None])) % n]]
    bilinear = np.bitwise_xor.reduce(cross, axis=0) ^ np.bitwise_xor.reduce(cross[full], axis=0).T
    table = np.empty(ctx.order, dtype=np.uint8)
    table[0] = constant
    for level, (q_k, column) in enumerate(zip(q.tolist(), bilinear.T.tolist())):
        high = table[1 << level : 2 << level]
        high[0] = q_k
        for i in range(level):
            np.bitwise_xor(high[: 1 << i], column[i], out=high[1 << i : 2 << i])
        high ^= table[: 1 << level]
    return table


def _additive_interpolation(f: BooleanFunction, ctx: FieldContext) -> np.ndarray:
    """Coefficients a_0..a_(2^m - 1) of the polynomial of degree < 2^m equal to
    f on all of GF(2^m): the inverse additive FFT of Gao and Mateer (IEEE
    Trans. IT 56(12), 2010) over the polynomial basis, so the point index is
    the field element.

    A block of 2^k entries holds the values of some polynomial P on
    span(b_0..b_(k-1)); with beta = b_(k-1), let g(x) = P(beta x) =
    g0(x^2 + x) + x g1(x^2 + x).  The block's low half holds g at the points
    G[i] of span(gamma) (ctx.fft_levels),
    its high half g at G[i] + 1, where g is larger by g1(G[i]^2 + G[i]).  So
    going down, v = hi + lo and lo + G*v are g1 and g0 on the next level's
    span, in the same index order.  Every block at one depth shares its basis,
    so each level is a few whole-array operations.  Going up, g0 and g1
    interleave into g's Taylor coefficients at x^2 + x, which undo to
    monomial ones, and coefficient j is divided by beta^j.  The cost is
    O(2^m * m^2) XORs and O(2^m * m) multiplications by table lookup.
    """
    m, n = ctx.m, ctx.order - 1
    log, alog = ctx.log_table, ctx.antilog_table

    def times(x, logs):
        """x * alpha^logs for 0 <= logs < n, elementwise with broadcasting; 0
        stays 0 (its log, -1, gives an index in range that the mask clears)."""
        exps = log.take(x)
        exps += logs
        exps -= n
        exps += (exps >> 31) & n
        product = alog.take(exps)
        product *= x != 0
        return product

    levels = ctx.fft_levels()
    a = f.table.astype(np.int32)
    for depth, (_, span_logs) in enumerate(levels):
        blocks = a.reshape(1 << depth, 2, -1)
        lo, hi = blocks[:, 0], blocks[:, 1]
        hi ^= lo
        lo[:, 1:] ^= times(hi[:, 1:], span_logs)
    for depth in reversed(range(m)):
        size = 1 << (m - depth)
        a = _interleave(a.reshape(-1, 2, size // 2))
        # the Taylor expansion took the quarters b0..b3 of every block of N
        # entries to (b0, b1+b2+b3, b2+b3, b3), for N = size down to 4
        quarter = 1
        while 4 * quarter <= size:
            b = a.reshape(-1, 4, quarter)
            b[:, 1] ^= b[:, 2]
            b[:, 2] ^= b[:, 3]
            quarter *= 2
        twist = np.arange(size, dtype=np.int64)  # log beta^(-j) for column j
        twist *= n - levels[depth][0]
        twist %= n
        a = times(a, twist)
    return a.reshape(-1)


def _interleave(halves: np.ndarray) -> np.ndarray:
    """Rows of (lo, hi) halves to rows lo_0, hi_0, lo_1, hi_1, ..., as a new array."""
    rows, _, half = halves.shape
    out = np.empty((rows, 2 * half), dtype=halves.dtype)
    out[:, 0::2] = halves[:, 0]
    out[:, 1::2] = halves[:, 1]
    return out


def _plan(f: BooleanFunction, ctx: FieldContext, weight: int) -> tuple[str, np.ndarray | None]:
    """The interpolation of ``f`` that the cost rule picks (module docstring):
    its name and the coset leaders to sum over, or None for the additive FFT."""
    m = ctx.m
    leaders = coset_leaders(m)
    moebius, fft = m * _pass_cost(m), m * m * _pass_cost(m)
    name = "leader summation"
    # the degree saves at most the summation over the leaders it drops.  By Ax it
    # is at least ceil(m / (v + 1)), 2^v the largest power of 2 dividing the
    # weight, so it can drop no leader of weight up to that bound
    if leaders.size * weight > moebius:
        floor = -(-m // ((weight & -weight).bit_length()))
        low = np.count_nonzero(np.bitwise_count(leaders) <= floor)
        if min(leaders.size * weight, fft) - min(low * weight, fft) > moebius:
            degree = f.degree()
            if degree < m - 1:  # every exponent below 2^m - 1 has weight at most m - 1
                name = f"leader summation to degree {degree}"
                leaders = leaders[np.bitwise_count(leaders) <= degree]
    if leaders.size * weight > fft:
        return "additive FFT", None
    return name, leaders


def to_trace_form(f: BooleanFunction, ctx: FieldContext) -> TraceForm:
    """Canonical trace form of a truth table, grouping interpolation
    coefficients by cyclotomic coset.

    The coefficient c_l of a coset leader l is zero unless wt(l) <= deg f, so
    leader summation (``mattson_solomon``) may skip the leaders of higher
    weight once the Moebius transform has given the degree.  The additive FFT
    gives all coefficients a_0..a_(2^m - 1) of the polynomial equal to f on
    GF(2^m), and c_l = a_l for every leader l >= 1 and c_0 = a_0 + a_(2^m - 1),
    since x^(2^m - 1) = 1 off 0.  ``_plan`` picks the path by the cost rule
    (module docstring).  Either way c_0 must be a bit, c_0 + f(0) must be the
    weight parity, and the form is evaluated back and must reproduce ``f``
    exactly, so a wrong degree cannot give a wrong form.  Logs the algorithm
    and its time, the degree step included, at DEBUG level.
    """
    if f.m != ctx.m:
        raise DimensionMismatch(f"f.m={f.m} does not match ctx.m={ctx.m}")
    weight = f.weight()
    start = time.perf_counter()
    algorithm, leaders = _plan(f, ctx, weight)
    if leaders is None:
        leaders = coset_leaders(ctx.m)
        full = _additive_interpolation(f, ctx)
        coeffs = full[leaders]
        coeffs[0] ^= full[-1]
    else:
        coeffs = mattson_solomon(f, ctx, leaders)
    logger.debug("interpolated over GF(2^%d) by %s in %.4f s", ctx.m, algorithm,
                 time.perf_counter() - start)
    c0 = int(coeffs[0])
    if c0 not in (0, 1):
        raise NotBooleanConsistent("constant interpolation coefficient is not a bit")
    constant = f[0]
    top = c0 ^ constant
    if top != (weight & 1):
        raise NotBooleanConsistent("top coefficient disagrees with the weight parity")
    present = np.flatnonzero(coeffs[1:]) + 1
    terms = dict(zip(leaders[present].tolist(), coeffs[present].tolist()))
    form = TraceForm(m=ctx.m, constant=constant, terms=terms, top_coeff=top)
    if form.evaluate(ctx) != f:
        raise NotBooleanConsistent("trace form does not evaluate back to the table")
    return form


def trace_forms(fns, ctx: FieldContext, known=()) -> list[TraceForm]:
    """``to_trace_form`` of each table, interpolating once per class modulo
    {0, 1, tr, tr + 1}.

    A table T is brought to R = T + a*tr + b with b = T(0) and a chosen so that
    R vanishes at p, the first point with tr(p) = 1 (p = 1 for odd m), so every
    member of the class meets the same R.  tr(x) is the sum of the conjugates
    of x, so it interpolates with coefficient 1 on leader 1 and 0 elsewhere:
    T's form is R's with the constant XOR b and the coefficient of x XOR a.
    The top coefficient stays R's, since |tr| = 2^(m-1) is even.

    ``known`` holds (table, form) pairs the caller already has, such as a
    parsed expression and its table over ``ctx``.  Translated the same way, a
    known form gives its class's R form, so that class is not interpolated.
    """
    trace = ctx.trace_table
    p = int(np.argmax(trace))
    classes, forms = {}, []
    for f, form in [*known, *((f, None) for f in fns)]:
        if f.m != ctx.m:
            raise DimensionMismatch(f"f.m={f.m} does not match ctx.m={ctx.m}")
        b = f[0]
        a = f[p] ^ b
        rep = f.table ^ (a * trace) ^ b
        key = rep.tobytes()
        if form is None:
            if key not in classes:
                classes[key] = to_trace_form(BooleanFunction(ctx.m, rep), ctx)
            form = classes[key]
        if a or b:  # R's form from T's, or T's from R's
            terms = dict(form.terms)
            x_coeff = terms.pop(1, 0) ^ a
            if x_coeff:
                terms[1] = x_coeff
            form = TraceForm(ctx.m, form.constant ^ b, terms, form.top_coeff)
        classes.setdefault(key, form)  # R's form, for a known pair
        forms.append(form)
    return forms[len(known):]


def format_trace_form(tf: TraceForm, ctx: FieldContext | None = None) -> str:
    """Canonical text: constant first, then one tr(...) block for the binary
    full-length terms in ascending leader order, then any remaining terms.

    A coefficient c != 1 on a full coset renders as tr(α^k·x^a) with k its
    discrete log; without ctx, as tr(0x..·x^a) with c's polynomial-basis
    integer.  A coset of size s < m renders with a tr_s marker since only the
    s-fold conjugate sum appears.  A nonzero top
    coefficient renders as the bare monomial x^(2^m - 1).
    """
    leaders = sorted(tf.terms)
    sizes = [coset_size(tf.m, leader) for leader in leaders]
    parts = []
    if tf.constant:
        parts.append("1")
    plain = [l for l, size in zip(leaders, sizes) if tf.terms[l] == 1 and size == tf.m]
    if plain:
        inner = "+".join("x" if l == 1 else f"x^{l}" for l in plain)
        parts.append(f"tr({inner})")
    for leader, size in zip(leaders, sizes):
        coeff = tf.terms[leader]
        if coeff == 1 and size == tf.m:
            continue
        monomial = "x" if leader == 1 else f"x^{leader}"
        if coeff == 1:
            argument = monomial
        elif ctx is None:
            argument = f"0x{coeff:x}·{monomial}"
        else:
            argument = f"α^{int(ctx.log_table[coeff])}·{monomial}"
        name = "tr" if size == tf.m else f"tr_{size}"
        parts.append(f"{name}({argument})")
    if tf.top_coeff:
        parts.append(f"x^{(1 << tf.m) - 1}")
    return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# expression parsing


def parse_form(expr: str, ctx: FieldContext) -> TraceForm:
    """The canonical trace form of a trace expression, read without evaluating it.

    Grammar: '+'-separated blocks, each one of
      tr( <'+'-separated x, x^e, 1 terms> )   a trace of a binary polynomial
      0 | 1                                   a constant
      x^e with x^e in {0, 1} pointwise        x^0 = 1, or x^(k n), n = 2^m - 1
    Exponents are decimal.  tr(x^e) is tr(x^l) for the coset leader l of e mod
    n, and tr_m(x^l) = (m/s) tr_s(x^l) for a coset of size s, so the term stays
    only when m/s is odd; terms cancel in pairs.  In a trace, x^0 = 1 adds
    tr(1) = m mod 2 to the constant and x^(k n), 1 but at 0, to the top
    coefficient.  The form depends on m only, its table on ctx.
    """
    m, n = ctx.m, ctx.order - 1
    pos, leaders, bits = 0, set(), [0, 0]  # bits: the constant, the top coefficient

    def skip() -> str:  # past whitespace; the next character, "" at the end
        nonlocal pos
        while expr[pos : pos + 1].isspace():
            pos += 1
        return expr[pos : pos + 1]

    def expect(char: str):
        nonlocal pos
        if skip() != char:
            raise ParseError(f"expected {char!r}", pos)
        pos += 1

    def exponent() -> int:  # after an 'x': an optional ^<int>
        nonlocal pos
        if skip() != "^":
            return 1
        pos += 1
        skip()
        start = pos
        first = pos = pos + expr.startswith("-", pos)
        while expr[pos : pos + 1].isdigit():
            pos += 1
        if pos == first:
            raise ParseError("expected an integer", start)
        e = int(expr[first:pos])
        if first > start:
            raise ExponentOutOfRange(f"exponent -{expr[first:pos]} is negative", start)
        return e

    if not skip():
        raise ParseError("empty expression", 0)
    while True:
        char = skip()
        start = pos
        if expr.startswith("tr", pos):
            pos += 2
            expect("(")
            while True:
                term = skip()
                if term not in ("x", "1"):
                    raise ParseError("expected 'x', 'x^e' or '1' inside tr(...)", pos)
                pos += 1
                e = exponent() if term == "x" else 0
                if e % n == 0:  # x^e is 1, or 1 but at 0: the trace is m mod 2 times that
                    bits[e > 0] ^= m & 1
                elif m // coset_size(m, leader := coset_leader(m, e)) % 2:
                    leaders ^= {leader}
                if skip() != "+":
                    break
                pos += 1
            expect(")")
        elif char in ("0", "1"):
            pos += 1
            if expr[pos : pos + 1].isdigit():
                raise ParseError("constants must be single bits", start)
            bits[0] ^= int(char)
        elif char == "x":
            pos += 1
            e = exponent()
            if e % n:
                raise ParseError(f"bare monomial x^{e} is not Boolean-valued on this field", start)
            bits[e > 0] ^= 1
        else:
            raise ParseError("expected 'tr(', 'x^e', '0' or '1'", pos)
        if not skip():
            break
        expect("+")
        if not skip():
            raise ParseError("trailing '+'", pos)
    return TraceForm(m, bits[0], dict.fromkeys(sorted(leaders), 1), bits[1])


def parse(expr: str, ctx: FieldContext) -> BooleanFunction:
    """Evaluate a trace expression to a truth table: parsing builds the
    canonical form (``parse_form``), which is evaluated, never interpolated."""
    return parse_form(expr, ctx).evaluate(ctx)
