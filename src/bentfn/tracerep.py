"""Trace-notation expressions and canonical trace forms.

``parse`` evaluates expressions like ``tr(x^7+x^13)+1`` into truth tables.
``to_trace_form`` goes the other way: it interpolates the function on the
multiplicative group, keeping one subfield coefficient per cyclotomic coset
leader, and returns a canonical :class:`TraceForm`.  Only the leader
coefficients (about n/m of the n = 2^m - 1) are computed, at a cost of
O(|supp| * n/m); the form is then evaluated back, in O(n^2/m) for a dense
form, and must reproduce the input exactly.  Forms are compared coset-wise,
so listings that use a non-leader exponent (tr(x^a) = tr(x^2a)) normalize to
the same object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction
from .errors import (
    DimensionMismatch,
    ExponentOutOfRange,
    NotBooleanConsistent,
    ParseError,
)
from .gf2m import FieldContext, cyclotomic_cosets

# Entries per (exponent x support) block of mattson_solomon: 2 MiB as int64.
# Blocks of tens of MiB left peak memory depending on how the allocator
# reused earlier freed blocks, so it varied from one run to the next.
_DFT_CHUNK = 1 << 18


def mattson_solomon(f: BooleanFunction, ctx: FieldContext, exponents=None) -> np.ndarray:
    """Coefficients c_j of the interpolating polynomial on the nonzero elements.

    c_j = sum over the support exponents i of alpha^(-ij); the unique
    polynomial of degree < 2^m - 1 with value f(x) at every x != 0 is
    sum c_j x^j, the value at 0 being handled separately by the caller.
    ``exponents`` selects which c_j to compute, returned in that order; the
    default is every j in 0..2^m - 2.  Direct summation with log-table
    indexing, O(len(exponents) * |supp|), chunked to bound memory.
    """
    if f.m != ctx.m:
        raise DimensionMismatch(f"f.m={f.m} does not match ctx.m={ctx.m}")
    n = ctx.order - 1
    if exponents is None:
        js = np.arange(n, dtype=np.int64)
    else:
        js = np.asarray(exponents, dtype=np.int64)
    support = f.support()
    support = support[support != 0]
    coeffs = np.zeros(js.size, dtype=np.int32)
    if support.size == 0:
        return coeffs
    neg_exps = (n - ctx.log_table[support].astype(np.int64)) % n
    chunk = max(1, _DFT_CHUNK // support.size)
    for start in range(0, js.size, chunk):
        block = js[start : start + chunk, None] * neg_exps[None, :] % n
        coeffs[start : start + chunk] = np.bitwise_xor.reduce(
            ctx.antilog_table[block], axis=1
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
        if self.top_coeff:
            return False
        sizes = {c.leader: c.size for c in cyclotomic_cosets(self.m)}
        return all(coeff == 1 and sizes[leader] == self.m for leader, coeff in self.terms.items())

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
        sizes = {c.leader: c.size for c in cyclotomic_cosets(self.m)}
        exps = np.arange(n, dtype=np.int64)
        field_sum = np.zeros(n, dtype=np.int32)
        bits = np.zeros(n, dtype=np.int32)
        for leader, coeff in self.terms.items():
            size = sizes[leader]
            if ctx.pow(coeff, 1 << size) != coeff:
                raise NotBooleanConsistent(
                    f"coefficient {coeff} of x^{leader} is outside GF(2^{size})"
                )
            if not coeff:
                continue
            logs = (int(ctx.log_table[coeff]) + leader * exps) % n
            if (self.m // size) % 2:
                field_sum ^= ctx.antilog_table[logs]
            else:
                for k in range(size):
                    bits ^= ctx.antilog_table[(logs << k) % n]
        bits ^= ctx.trace_table[field_sum]
        bits ^= self.constant ^ self.top_coeff
        table = np.zeros(ctx.order, dtype=np.uint8)
        table[0] = self.constant
        table[ctx.antilog_table] = bits
        return BooleanFunction(self.m, table)

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


def to_trace_form(f: BooleanFunction, ctx: FieldContext) -> TraceForm:
    """Canonical trace form of a truth table, grouping interpolation
    coefficients by cyclotomic coset.

    Only the coset-leader coefficients are interpolated; the form is then
    evaluated back and must reproduce ``f`` exactly.
    """
    cosets = cyclotomic_cosets(ctx.m)
    coeffs = mattson_solomon(f, ctx, [coset.leader for coset in cosets])
    c0 = int(coeffs[0])
    if c0 not in (0, 1):
        raise NotBooleanConsistent("constant interpolation coefficient is not a bit")
    constant = f[0]
    top = c0 ^ constant
    if top != (f.weight() & 1):
        raise NotBooleanConsistent("top coefficient disagrees with the weight parity")
    terms = {
        coset.leader: int(coeff)
        for coset, coeff in zip(cosets[1:], coeffs[1:])
        if coeff
    }
    form = TraceForm(m=ctx.m, constant=constant, terms=terms, top_coeff=top)
    if form.evaluate(ctx) != f:
        raise NotBooleanConsistent("trace form does not evaluate back to the table")
    return form


def format_trace_form(tf: TraceForm, ctx: FieldContext | None = None) -> str:
    """Canonical text: constant first, then one tr(...) block for the binary
    full-length terms in ascending leader order, then any remaining terms.

    A coefficient c != 1 on a full coset renders as tr(α^k·x^a) with k its
    discrete log (requires ctx); a coset of size s < m renders with a tr_s
    marker since only the s-fold conjugate sum appears.  A nonzero top
    coefficient renders as the bare monomial x^(2^m - 1).
    """
    sizes = {c.leader: c.size for c in cyclotomic_cosets(tf.m)}
    parts = []
    if tf.constant:
        parts.append("1")
    plain = [l for l in sorted(tf.terms) if tf.terms[l] == 1 and sizes[l] == tf.m]
    if plain:
        inner = "+".join("x" if l == 1 else f"x^{l}" for l in plain)
        parts.append(f"tr({inner})")
    for leader in sorted(tf.terms):
        coeff = tf.terms[leader]
        size = sizes[leader]
        if coeff == 1 and size == tf.m:
            continue
        monomial = "x" if leader == 1 else f"x^{leader}"
        if coeff == 1:
            argument = monomial
        else:
            if ctx is None:
                raise ValueError("field context needed to print non-binary coefficients")
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
            value = np.zeros(ctx.order, dtype=np.int32)
            while True:
                scanner.skip_ws()
                term = scanner.peek()
                if term == "x":
                    scanner.pos += 1
                    value ^= ctx.power_table(_read_monomial_exponent(scanner))
                elif term == "1":
                    scanner.pos += 1
                    value ^= 1
                else:
                    raise ParseError("expected 'x', 'x^e' or '1' inside tr(...)", scanner.pos)
                scanner.skip_ws()
                if scanner.peek() == "+":
                    scanner.pos += 1
                    continue
                scanner.expect(")")
                break
            table ^= ctx.trace_table[value]
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
    return BooleanFunction(ctx.m, table)
