"""Finite-field contexts for GF(2^m).

Elements are integers whose bit i is the coefficient of alpha^i in the
polynomial basis, alpha being a root of the chosen primitive polynomial.
A :class:`FieldContext` is immutable after construction and safe to share
across threads; construction itself is single-threaded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionOutOfRange, NonPrimitivePolynomial

logger = logging.getLogger(__name__)

MIN_DIMENSION = 2
MAX_DIMENSION = 24

#: Pinned primitive polynomial per dimension (coefficient bitmask, bit i = x^i).
#: Fixing these keeps truth-table files byte-for-byte reproducible across runs;
#: trace-form output is representation independent anyway.
DEFAULT_PRIMITIVE_POLYS = {
    2: 0b111,                # x^2 + x + 1
    3: 0b1011,               # x^3 + x + 1
    4: 0b10011,              # x^4 + x + 1
    5: 0b100101,             # x^5 + x^2 + 1
    6: 0b1000011,            # x^6 + x + 1
    7: 0b10000011,           # x^7 + x + 1
    8: 0b100011101,          # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,         # x^9 + x^4 + 1
    10: 0b10000001001,       # x^10 + x^3 + 1
    11: 0b100000000101,      # x^11 + x^2 + 1
    12: 0b1000001010011,     # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,    # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,   # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011,
    17: 0b100000000000001001,
    18: 0b1000000000010000001,          # x^18 + x^7 + 1
    19: 0b10000000000000100111,
    20: 0b100000000000000001001,
    21: 0b1000000000000000000101,
    22: 0b10000000000000000000011,
    23: 0b100000000000000000100001,
    24: 0b1000000000000000010000111,    # x^24 + x^7 + x^2 + x + 1
}


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of an exponent under doubling mod 2^m - 1."""

    leader: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@lru_cache(maxsize=None)
def cyclotomic_cosets(m: int) -> tuple[CyclotomicCoset, ...]:
    """Partition {0, ..., 2^m - 2} into 2-cyclotomic cosets, sorted by leader."""
    if m < MIN_DIMENSION:
        raise DimensionOutOfRange(f"m must be at least {MIN_DIMENSION}, got {m}")
    n = (1 << m) - 1
    seen = bytearray(n)
    cosets = []
    for e in range(n):
        if seen[e]:
            continue
        members = []
        x = e
        while not seen[x]:
            seen[x] = 1
            members.append(x)
            x = (x << 1) % n
        cosets.append(CyclotomicCoset(e, tuple(sorted(members))))
    return tuple(cosets)


def coset_leader(m: int, e: int) -> int:
    """Smallest exponent in the 2-cyclotomic coset of e mod 2^m - 1."""
    n = (1 << m) - 1
    e %= n
    best = e
    x = (e << 1) % n
    while x != e:
        if x < best:
            best = x
        x = (x << 1) % n
    return best


def coset_size(m: int, e: int) -> int:
    """Number of distinct exponents in the coset of e mod 2^m - 1."""
    n = (1 << m) - 1
    e %= n
    size = 1
    x = (e << 1) % n
    while x != e:
        size += 1
        x = (x << 1) % n
    return size


class FieldContext:
    """A concrete GF(2^m) with eager log/antilog, trace and trace-form tables.

    ``log_table[x]`` is the discrete log of a nonzero element x (-1 for 0) and
    ``antilog_table[i]`` is alpha^i for 0 <= i < 2^m - 1.  ``trace_table`` has
    one bit per element.  ``gram_matrix[i][j] = tr(alpha^i * alpha^j)`` realizes
    the trace bilinear form in coordinates.
    """

    __slots__ = (
        "m",
        "primitive_poly",
        "order",
        "log_table",
        "antilog_table",
        "trace_table",
        "gram_matrix",
        "_dual_basis",
        "_dual_perm",
    )

    def __init__(self, m: int, primitive_poly: int | None = None):
        if not MIN_DIMENSION <= m <= MAX_DIMENSION:
            raise DimensionOutOfRange(
                f"m must be in [{MIN_DIMENSION}, {MAX_DIMENSION}], got {m}"
            )
        if primitive_poly is None:
            primitive_poly = DEFAULT_PRIMITIVE_POLYS[m]
        if primitive_poly.bit_length() != m + 1:
            raise NonPrimitivePolynomial(
                f"polynomial 0x{primitive_poly:x} does not have degree {m}"
            )
        if not primitive_poly & 1:
            raise NonPrimitivePolynomial(
                f"polynomial 0x{primitive_poly:x} has zero constant term (x divides it)"
            )
        self.m = m
        self.primitive_poly = primitive_poly
        self.order = 1 << m
        self._build_tables()
        self._dual_perm = None

    def _build_tables(self):
        m, order, poly = self.m, self.order, self.primitive_poly
        n = order - 1
        alog = np.zeros(n, dtype=np.int32)
        log = np.full(order, -1, dtype=np.int32)
        x = 1
        for i in range(n):
            if log[x] != -1:
                raise NonPrimitivePolynomial(
                    f"0x{poly:x} is not primitive: alpha has multiplicative order {i}"
                )
            alog[i] = x
            log[x] = i
            x <<= 1
            if x & order:
                x ^= poly
        if x != 1:
            # unreachable once the n powers are distinct, kept as a guard
            raise NonPrimitivePolynomial(f"0x{poly:x} is not primitive")
        log.setflags(write=False)
        alog.setflags(write=False)
        self.log_table = log
        self.antilog_table = alog

        # tr(alpha^j) for each basis element, via the Frobenius orbit sum
        trace_mask = 0
        for j in range(m):
            y = int(alog[j])
            acc = y
            z = y
            for _ in range(m - 1):
                z = self._mul_nonzero(z, z)
                acc ^= z
            if acc not in (0, 1):
                raise NonPrimitivePolynomial(
                    f"0x{poly:x}: trace of alpha^{j} left the prime field"
                )
            trace_mask |= acc << j
        points = np.arange(order, dtype=np.int64)
        trace = (np.bitwise_count(points & trace_mask) & 1).astype(np.uint8)
        trace.setflags(write=False)
        self.trace_table = trace

        # row i packs tr(alpha^(i+j)) over j; these are the images of the basis
        # under the map realizing tr(a*x) as a coordinate dot product
        rows = []
        for i in range(m):
            r = 0
            for j in range(m):
                r |= int(trace[alog[(i + j) % n]]) << j
            rows.append(r)
        self._dual_basis = tuple(rows)
        gram = np.zeros((m, m), dtype=np.uint8)
        for i in range(m):
            for j in range(m):
                gram[i, j] = (rows[i] >> j) & 1
        gram.setflags(write=False)
        self.gram_matrix = gram
        if _gf2_row_rank(list(rows)) != m:
            raise NonPrimitivePolynomial(
                f"0x{poly:x}: trace bilinear form is degenerate"
            )

    def _mul_nonzero(self, a: int, b: int) -> int:
        n = self.order - 1
        return int(self.antilog_table[(int(self.log_table[a]) + int(self.log_table[b])) % n])

    def mul(self, a: int, b: int) -> int:
        """Field product; mul(a, 0) = 0."""
        if a == 0 or b == 0:
            return 0
        return self._mul_nonzero(a, b)

    def pow(self, a: int, e: int) -> int:
        """a^e with the empty-product convention pow(0, 0) = 1."""
        if e < 0:
            raise ValueError(f"exponent must be nonnegative, got {e}")
        if a == 0:
            if e == 0:
                logger.debug("pow(0, 0) evaluated; returning 1 by convention")
                return 1
            return 0
        n = self.order - 1
        return int(self.antilog_table[(int(self.log_table[a]) * (e % n)) % n])

    def trace(self, a: int) -> int:
        """Absolute trace tr(a), as a bit."""
        return int(self.trace_table[a])

    def dual_index(self, a: int) -> int:
        """The point u with <u, x> (coordinate dot product) = tr(a*x) for all x."""
        r = 0
        i = 0
        while a:
            if a & 1:
                r ^= self._dual_basis[i]
            a >>= 1
            i += 1
        return r

    def dual_perm(self) -> np.ndarray:
        """dual_index applied to every element, as a permutation array."""
        if self._dual_perm is None:
            points = np.arange(self.order, dtype=np.int32)
            perm = np.zeros(self.order, dtype=np.int32)
            for j, row in enumerate(self._dual_basis):
                perm ^= ((points >> j) & 1) * row
            perm.setflags(write=False)
            self._dual_perm = perm
        return self._dual_perm

    def power_table(self, e: int) -> np.ndarray:
        """x^e for every element x, with 0^0 = 1."""
        if e < 0:
            raise ValueError(f"exponent must be nonnegative, got {e}")
        n = self.order - 1
        out = np.zeros(self.order, dtype=np.int32)
        out[0] = 1 if e == 0 else 0
        idx = (np.arange(n, dtype=np.int64) * (e % n)) % n
        out[self.antilog_table] = self.antilog_table[idx]
        return out

    def linear_form_table(self, a: int) -> np.ndarray:
        """Truth table of x -> tr(a*x)."""
        u = self.dual_index(a)
        points = np.arange(self.order, dtype=np.int64)
        return (np.bitwise_count(points & u) & 1).astype(np.uint8)

    def __eq__(self, other):
        return (
            isinstance(other, FieldContext)
            and self.m == other.m
            and self.primitive_poly == other.primitive_poly
        )

    def __hash__(self):
        return hash((self.m, self.primitive_poly))

    def __repr__(self):
        return f"FieldContext(m={self.m}, primitive_poly=0x{self.primitive_poly:x})"


def _gf2_row_rank(rows: list[int]) -> int:
    rank = 0
    for col in range(max(r.bit_length() for r in rows) if rows else 0):
        pivot = None
        for i in range(rank, len(rows)):
            if (rows[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> col) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank
