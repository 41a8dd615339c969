"""Truth-table Boolean functions: weight, sums, derivatives, ANF, degree, file I/O.

Values are immutable; every operation returns a new function.  Bit x of the
table is F(x), with x the integer point encoding (for field-valued inputs the
coordinate encoding of :mod:`bentfn.gf2m`; for even dimensions the top bit is
the second variable of the two-variable decomposition).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch
from .gf2m import FieldContext

_HEADER_RE = re.compile(r"^BF m=(\d+)\s*$")
_HEX_LINE_WIDTH = 64


def _xor_butterfly(table: np.ndarray) -> np.ndarray:
    # in-place fast Moebius transform; same schedule as the Walsh butterfly
    size = table.size
    h = 1
    while h < size:
        view = table.reshape(-1, 2, h)
        view[:, 1, :] ^= view[:, 0, :]
        h <<= 1
    return table


class BooleanFunction:
    """An m-variable Boolean function stored as a 2^m-entry 0/1 table."""

    __slots__ = ("m", "_table", "_spectrum", "_dual", "_flags")

    def __init__(self, m: int, table, *, copy: bool = True):
        # a private copy, so later writes to the caller's array cannot reach it;
        # copy=False takes over a fresh uint8 array that its maker no longer writes
        arr = np.array(table, dtype=np.uint8, copy=copy)
        if m < 1:
            raise ValueError(f"dimension must be positive, got {m}")
        if arr.shape != (1 << m,):
            raise ValueError(
                f"table must have 2^{m} = {1 << m} entries, got shape {arr.shape}"
            )
        if arr.size and int(arr.max()) > 1:
            raise ValueError("table entries must be bits")
        arr.setflags(write=False)
        self.m = m
        self._table = arr
        self._spectrum = None  # filled by bentfn.spectrum.walsh
        self._dual = None  # (ctx, dual), filled by bentfn.spectrum.dual
        self._flags = None  # (ctx, flags), filled by bentfn.constructions.condition_flags

    @property
    def table(self) -> np.ndarray:
        return self._table

    @classmethod
    def constant(cls, m: int, bit: int = 0) -> "BooleanFunction":
        return cls(m, np.full(1 << m, bit & 1, dtype=np.uint8))

    def weight(self) -> int:
        return int(self._table.sum())

    def is_balanced(self) -> bool:
        return 2 * self.weight() == len(self)

    def support(self) -> np.ndarray:
        """Indices x with F(x) = 1."""
        return np.flatnonzero(self._table)

    def __len__(self) -> int:
        return 1 << self.m

    def __getitem__(self, x: int) -> int:
        return int(self._table[x])

    def __add__(self, other):
        if isinstance(other, int):
            return BooleanFunction(self.m, self._table ^ (other & 1))
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        if other.m != self.m:
            raise DimensionMismatch(f"cannot add functions of dimension {self.m} and {other.m}")
        return BooleanFunction(self.m, self._table ^ other._table)

    __radd__ = __add__

    def __eq__(self, other):
        return (
            isinstance(other, BooleanFunction)
            and self.m == other.m
            and self._table.tobytes() == other._table.tobytes()
        )

    def __hash__(self):
        return hash((self.m, self._table.tobytes()))

    def derivative(self, e: int) -> "BooleanFunction":
        """The function x -> F(x) + F(x + e), point addition being XOR."""
        if not 0 <= e < len(self):
            raise ValueError(f"direction {e} out of range for dimension {self.m}")
        if e and not e & (e - 1):
            # x + e flips one bit: swap the halves of each 2e-entry run, no index array
            pairs = self._table.reshape(-1, 2, e)
            return BooleanFunction(self.m, (pairs ^ pairs[:, ::-1]).reshape(-1))
        idx = np.arange(len(self), dtype=np.int32)  # int32 indexes any table below 2^31
        idx ^= e
        return BooleanFunction(self.m, self._table ^ self._table[idx])

    def is_constant(self):
        """The constant value if F is constant, else None."""
        first = int(self._table[0])
        if bool((self._table == first).all()):
            return first
        return None

    def anf(self) -> "Anf":
        return Anf(self.m, _xor_butterfly(self._table.copy()))

    def degree(self) -> int:
        return self.anf().degree()

    def add_linear_form(self, ctx: FieldContext, a: int, c: int = 0) -> "BooleanFunction":
        """F(x) + tr(a*x) + c, pointwise."""
        if ctx.m != self.m:
            raise DimensionMismatch(
                f"field has dimension {ctx.m}, function has dimension {self.m}"
            )
        return BooleanFunction(self.m, self._table ^ ctx.linear_form_table(a) ^ (c & 1))

    def table_hex(self) -> str:
        """Little-endian packed table as a hex string (bit x in the lowest bit of byte x//8)."""
        return np.packbits(self._table, bitorder="little").tobytes().hex()

    @classmethod
    def from_hex(cls, m: int, digits: str) -> "BooleanFunction":
        data = bytes.fromhex(digits)
        if m > len(data).bit_length() + 2:
            # 2^m bits need 2^(m-3) bytes, more than given: refuse before forming 2^m
            raise ValueError(f"expected 2^{m - 3} bytes for dimension {m}, got {len(data)}")
        expected = ((1 << m) + 7) // 8
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes for dimension {m}, got {len(data)}")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
        table, rest = bits[: 1 << m], bits[1 << m :]
        if rest.any():
            raise ValueError("nonzero padding bits in truth-table data")
        return cls(m, table)

    def to_text(self) -> str:
        digits = self.table_hex()
        lines = [digits[i : i + _HEX_LINE_WIDTH] for i in range(0, len(digits), _HEX_LINE_WIDTH)]
        return "\n".join([f"BF m={self.m}", *lines]) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BooleanFunction":
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty truth-table file")
        match = _HEADER_RE.match(lines[0])
        if not match:
            raise ValueError(f"bad header line: {lines[0]!r}")
        m = int(match.group(1))
        digits = "".join(line.strip() for line in lines[1:])
        return cls.from_hex(m, digits)

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_text().encode("ascii"))

    @classmethod
    def load(cls, path) -> "BooleanFunction":
        return cls.from_text(Path(path).read_text())

    def __repr__(self):
        return f"BooleanFunction(m={self.m}, weight={self.weight()})"


class Anf:
    """Algebraic normal form: XOR of AND-monomials indexed by variable masks."""

    __slots__ = ("m", "coefficients")

    def __init__(self, m: int, coefficients):
        arr = np.ascontiguousarray(coefficients, dtype=np.uint8)
        if arr.shape != (1 << m,):
            raise ValueError(f"coefficient vector must have 2^{m} entries")
        arr.setflags(write=False)
        self.m = m
        self.coefficients = arr

    def degree(self) -> int:
        """Max binary weight of a monomial mask with nonzero coefficient; 0 for the zero function."""
        masks = np.flatnonzero(self.coefficients)
        if masks.size == 0:
            return 0
        return int(np.bitwise_count(masks.astype(np.int64)).max())

    def to_truth_table(self) -> BooleanFunction:
        # the Moebius transform is an involution
        return BooleanFunction(self.m, _xor_butterfly(self.coefficients.copy()))

    def __eq__(self, other):
        return (
            isinstance(other, Anf)
            and self.m == other.m
            and self.coefficients.tobytes() == other.coefficients.tobytes()
        )

    def __hash__(self):
        return hash((self.m, self.coefficients.tobytes()))

    def __repr__(self):
        return f"Anf(m={self.m}, degree={self.degree()})"


def trace_function(ctx: FieldContext) -> BooleanFunction:
    """The trace map of the field, as a truth table."""
    return BooleanFunction(ctx.m, ctx.trace_table)


def trace_polynomial(ctx: FieldContext, exponents, constant_term: int = 0) -> BooleanFunction:
    """tr(sum of x^e over the exponents, plus constant_term), as a truth table.

    The constant is added inside the trace argument, so for odd m
    ``trace_polynomial(ctx, [5], 1)`` equals ``trace_polynomial(ctx, [5]) + 1``.
    """
    value = np.zeros(ctx.order, dtype=np.int32)
    for e in exponents:
        value ^= ctx.power_table(e)
    if constant_term & 1:
        value ^= 1
    return BooleanFunction(ctx.m, ctx.trace_table[value])
