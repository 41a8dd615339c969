"""Trace-notation expressions and canonical trace forms.

``parse`` evaluates expressions like ``tr(x^7+x^13)+1`` into truth tables.
``to_trace_form`` goes the other way: it interpolates the function, keeps one
subfield coefficient per cyclotomic coset leader, and returns a canonical
:class:`TraceForm`.  Two interpolations give the same leader coefficients:

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
degree only where summing over all leaders would cost more than the Moebius
transform, then sums over the leaders left where that costs no more than the
FFT, and runs the FFT otherwise.

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

Either way the form is then evaluated back, in O(n^2/m) for a dense form, and
must reproduce the input exactly, so a wrong degree cannot give a wrong form.
Forms are compared coset-wise, so listings that use a non-leader exponent
(tr(x^a) = tr(x^2a)) normalize to the same object.

``trace_forms`` serves several tables over one field, such as the components
of a six-pack, which the construction join(f0, f0 + tr + xi) keeps in few
classes modulo {0, 1, tr, tr + 1}.  It interpolates once per class and derives
the other members' forms exactly: adding tr + b changes only the constant and
the coefficient of x.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, trace_polynomial
from .errors import (
    DimensionMismatch,
    ExponentOutOfRange,
    NotBooleanConsistent,
    ParseError,
)
from .gf2m import _BLOCK, FieldContext, _leader_sizes, leaders_and_sizes

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
        return not self.top_coeff and self._is_binary(_leader_sizes(self.m, list(self.terms)))

    def _is_binary(self, sizes: list[int]) -> bool:
        """Whether a form without top term is binary, given the coset sizes of its terms."""
        return all(coeff == 1 for coeff in self.terms.values()) and all(s == self.m for s in sizes)

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

        A coset of size s contributes tr_s(c x^l), with c in GF(2^s).  Since
        c x^l lies in GF(2^s), tr_m(c x^l) = (m/s) tr_s(c x^l), so every term
        with m/s odd is summed as a field element and traced once; only
        cosets with m/s even (possible for even m) expand their s conjugates.
        O(n^2/m) for a dense form, n = 2^m - 1.
        """
        if ctx.m != self.m:
            raise DimensionMismatch(f"ctx.m={ctx.m} does not match form dimension {self.m}")
        n = ctx.order - 1
        leaders = list(self.terms)
        sizes = _leader_sizes(self.m, leaders)
        # c lies in GF(2^s) iff c = 0 or c^(2^s) = c, i.e. log c * 2^s = log c mod n
        coeffs = np.fromiter(self.terms.values(), dtype=np.int64, count=len(leaders))
        logs = ctx.log_table[coeffs].astype(np.int64)
        powers = np.left_shift(1, np.array(sizes, dtype=np.int64))
        outside = np.flatnonzero((coeffs != 0) & (logs * powers % n != logs))
        if outside.size:
            i = outside[0]
            raise NotBooleanConsistent(f"coefficient {coeffs[i]} of x^{leaders[i]} "
                                       f"is outside GF(2^{sizes[i]})")
        terms = [(leader, int(ctx.log_table[coeff]), size)
                 for leader, coeff, size in zip(leaders, self.terms.values(), sizes) if coeff]
        field_sum = np.zeros(n, dtype=np.int32)
        bits = np.zeros(n, dtype=np.int32)
        # in blocks of exponents, so the int64 temporaries stay small
        for start in range(0, n, _BLOCK):
            exps = np.arange(start, min(start + _BLOCK, n), dtype=np.int64)
            block_sum = field_sum[start : start + _BLOCK]
            block_bits = bits[start : start + _BLOCK]
            for leader, log_c, size in terms:
                logs = exps * leader
                logs += log_c
                logs %= n
                if (self.m // size) % 2:
                    block_sum ^= ctx.antilog_table[logs]
                else:
                    for k in range(size):
                        block_bits ^= ctx.antilog_table[(logs << k) % n]
        bits ^= ctx.trace_table[field_sum]
        bits ^= self.constant ^ self.top_coeff
        table = np.zeros(ctx.order, dtype=np.uint8)
        table[0] = self.constant
        table[ctx.antilog_table] = bits
        return BooleanFunction(self.m, table)

    def as_dict(self, ctx: FieldContext | None = None) -> dict:
        leaders = sorted(self.terms)
        sizes = _leader_sizes(self.m, leaders)  # once, for is_binary and the text
        entries = []
        for leader in leaders:
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
            "is_binary": not self.top_coeff and self._is_binary(sizes),
            "text": _format(self, ctx, leaders, sizes),
        }
        if self.top_coeff:
            out["top_coeff"] = self.top_coeff
        return out

    def __str__(self) -> str:
        return format_trace_form(self)

    def __repr__(self) -> str:
        return f"TraceForm({format_trace_form(self)!r}, m={self.m})"


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
    leaders, _ = leaders_and_sizes(m)
    name = "leader summation"
    if leaders.size * weight > m * _pass_cost(m):
        degree = f.degree()
        if degree < m - 1:  # every exponent below 2^m - 1 has weight at most m - 1
            name = f"leader summation to degree {degree}"
            leaders = leaders[np.bitwise_count(leaders) <= degree]
    if leaders.size * weight > m * m * _pass_cost(m):
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
        leaders, _ = leaders_and_sizes(ctx.m)
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


def trace_forms(fns, ctx: FieldContext) -> list[TraceForm]:
    """``to_trace_form`` of each table, interpolating once per class modulo
    {0, 1, tr, tr + 1}.

    A table T is brought to R = T + a*tr + b with b = T(0) and a chosen so that
    R vanishes at p, the first point with tr(p) = 1 (p = 1 for odd m), so every
    member of the class meets the same R.  tr(x) is the sum of the conjugates
    of x, so it interpolates with coefficient 1 on leader 1 and 0 elsewhere:
    T's form is R's with the constant XOR b and the coefficient of x XOR a.
    The top coefficient stays R's, since |tr| = 2^(m-1) is even.
    """
    trace = ctx.trace_table
    p = int(np.argmax(trace))
    classes = {}
    out = []
    for f in fns:
        if f.m != ctx.m:
            raise DimensionMismatch(f"f.m={f.m} does not match ctx.m={ctx.m}")
        b = f[0]
        a = f[p] ^ b
        rep = f.table ^ (a * trace) ^ b
        key = rep.tobytes()
        if key not in classes:
            classes[key] = to_trace_form(BooleanFunction(ctx.m, rep), ctx)
        form = classes[key]
        if a or b:
            terms = dict(form.terms)
            x_coeff = terms.pop(1, 0) ^ a
            if x_coeff:
                terms[1] = x_coeff
            form = TraceForm(ctx.m, form.constant ^ b, terms, form.top_coeff)
        out.append(form)
    return out


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
    return _format(tf, ctx, leaders, _leader_sizes(tf.m, leaders))


def _format(tf: TraceForm, ctx: FieldContext | None, leaders: list[int], sizes: list[int]) -> str:
    """format_trace_form, given the form's leaders in ascending order and their coset sizes."""
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


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str):
        if self.peek() != char:
            raise ParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def read_int(self) -> int:
        start = self.pos
        negative = False
        if self.peek() == "-":
            negative = True
            self.pos += 1
        digits = ""
        while self.peek().isdigit():
            digits += self.text[self.pos]
            self.pos += 1
        if not digits:
            raise ParseError("expected an integer", start)
        value = int(digits)
        if negative:
            raise ExponentOutOfRange(f"exponent -{digits} is negative", start)
        return value


def _read_monomial_exponent(scanner: _Scanner) -> int:
    # caller consumed 'x'; an optional ^<int> follows
    scanner.skip_ws()
    if scanner.peek() == "^":
        scanner.pos += 1
        scanner.skip_ws()
        return scanner.read_int()
    return 1


def parse(expr: str, ctx: FieldContext) -> BooleanFunction:
    """Evaluate a trace expression to a truth table.

    Grammar: '+'-separated blocks, each one of
      tr( <'+'-separated x, x^e, 1 terms> )   a trace of a binary polynomial
      0 | 1                                   a constant
      x^e with x^e in {0, 1} pointwise        e.g. the all-but-zero indicator
    Exponents are decimal and reduce mod 2^m - 1 on nonzero points.
    """
    scanner = _Scanner(expr)
    table = np.zeros(ctx.order, dtype=np.uint8)
    exponents, constant = [], 0  # of every tr(...) block: tr is additive, so one trace
    if scanner.at_end():
        raise ParseError("empty expression", 0)
    while True:
        scanner.skip_ws()
        start = scanner.pos
        ch = scanner.peek()
        if expr.startswith("tr", scanner.pos):
            scanner.pos += 2
            scanner.skip_ws()
            scanner.expect("(")
            while True:
                scanner.skip_ws()
                term = scanner.peek()
                if term == "x":
                    scanner.pos += 1
                    exponents.append(_read_monomial_exponent(scanner))
                elif term == "1":
                    scanner.pos += 1
                    constant ^= 1
                else:
                    raise ParseError("expected 'x', 'x^e' or '1' inside tr(...)", scanner.pos)
                scanner.skip_ws()
                if scanner.peek() == "+":
                    scanner.pos += 1
                    continue
                scanner.expect(")")
                break
        elif ch in ("0", "1"):
            scanner.pos += 1
            if scanner.peek().isdigit():
                raise ParseError("constants must be single bits", start)
            if ch == "1":
                table ^= 1
        elif ch == "x":
            scanner.pos += 1
            e = _read_monomial_exponent(scanner)
            values = ctx.power_table(e)
            if int(values.max()) > 1:
                raise ParseError(
                    f"bare monomial x^{e} is not Boolean-valued on this field", start
                )
            table ^= values.astype(np.uint8)
        else:
            raise ParseError("expected 'tr(', 'x^e', '0' or '1'", scanner.pos)
        if scanner.at_end():
            break
        scanner.skip_ws()
        scanner.expect("+")
        if scanner.at_end():
            raise ParseError("trailing '+'", scanner.pos)
    return BooleanFunction(ctx.m, table ^ trace_polynomial(ctx, exponents, constant).table)
