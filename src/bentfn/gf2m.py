"""Finite-field contexts for GF(2^m).

Elements are integers whose bit i is the coefficient of alpha^i in the
polynomial basis, alpha being a root of the chosen primitive polynomial.
A :class:`FieldContext` is immutable after construction and safe to share
across threads; construction itself is single-threaded.  What it builds lazily
(``log_table``, ``dual_perm`` and ``fft_levels``) may be built twice under
concurrent first use, with equal results.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionOutOfRange, NonPrimitivePolynomial

logger = logging.getLogger(__name__)

MIN_DIMENSION = 2
MAX_DIMENSION = 24

_CHUNK_BITS = 12  # multiplication tables have at most 2^12 entries per chunk
_BLOCK = 1 << 18  # entries per block of table lookups

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
    size: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "size", len(self.members))


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


@lru_cache(maxsize=None)
def leaders_and_sizes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Coset leaders mod 2^m - 1 in ascending order, and the size of each coset.

    Doubling mod 2^m - 1 rotates the m-bit form of an exponent, so e leads its
    coset iff e is at most each of its m - 1 other rotations, and the size is
    the first k >= 1 whose rotation returns e.  A nonzero even e exceeds its
    rotation by one bit to the right, so only 0 and the odd exponents are
    tested.  m vectorised rotations per block of exponents; no coset's members
    are listed.  Both arrays are int32 and read-only.
    """
    if m < MIN_DIMENSION:
        raise DimensionOutOfRange(f"m must be at least {MIN_DIMENSION}, got {m}")
    n = (1 << m) - 1
    found = [np.zeros(1, dtype=np.int32)]
    for start in range(1, n, 2 * _BLOCK):
        exps = np.arange(start, min(start + 2 * _BLOCK, n), 2, dtype=np.int32)
        lead = np.ones(exps.size, dtype=bool)
        for k in range(1, m):
            lead &= exps <= _rotate(exps, k, m)
        found.append(exps[lead])
    leaders = np.concatenate(found)
    sizes = np.full(leaders.size, m, dtype=np.int32)
    for k in range(m - 1, 0, -1):  # the smallest k is written last
        sizes[_rotate(leaders, k, m) == leaders] = k
    leaders.setflags(write=False)
    sizes.setflags(write=False)
    return leaders, sizes


def _rotate(exps: np.ndarray, k: int, m: int) -> np.ndarray:
    """exps * 2^k mod 2^m - 1, for exponents below 2^m - 1: an m-bit rotation."""
    low = (1 << (m - k)) - 1
    return ((exps & low) << k) | (exps >> (m - k))


def _leader_sizes(m: int, leaders: list[int]) -> list[int]:
    """The coset size of each of ``leaders`` mod 2^m - 1; KeyError for a non-leader."""
    known, sizes = leaders_and_sizes(m)
    # keys in the leaders' dtype, or each call would convert all the leaders
    at = known.searchsorted(np.array(leaders, known.dtype))
    for leader, found in zip(leaders, known.take(at, mode="clip").tolist()):
        if leader != found:
            raise KeyError(leader)
    return sizes.take(at).tolist()


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
    """A concrete GF(2^m) with antilog, log, trace and trace-form tables.

    ``antilog_table[i]`` is alpha^i for 0 <= i < 2^m - 1 and ``log_table[x]``
    is the discrete log of a nonzero element x (-1 for 0).  ``trace_table`` has
    one bit per element.  Every table is read-only.

    Construction takes about m vectorised doublings, not 2^m - 1 Python steps.
    Multiplication by alpha^k is GF(2)-linear, so alpha^(k+i) = alpha^k * alpha^i
    fills entries k..2k-1 of the antilog table from entries 0..k-1 with one
    lookup per chunk of at most 12 bits; applying the map to its own lookup
    tables squares it to alpha^(2k).  The first i >= 1 with alpha^i = 1 is the
    order of alpha, so any such i below 2^m - 1 rejects the polynomial.  The
    traces of alpha^0..alpha^(2m-2) are Frobenius orbit sums, which give the
    trace table and the dual basis of the trace form.  The cost is O(2^m) in a
    few dozen NumPy calls; the tables hold 4 bytes per element (antilog) and
    1 byte (trace), and ``log_table`` and ``fft_levels`` add 4 bytes per
    element each when first used.
    """

    __slots__ = (
        "m",
        "primitive_poly",
        "order",
        "_log_table",
        "antilog_table",
        "trace_table",
        "_dual_basis",
        "_dual_perm",
        "_fft_levels",
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
        start = time.perf_counter()
        self._build_tables()
        logger.debug("built GF(2^%d) with 0x%x in %.4f s", m, primitive_poly,
                     time.perf_counter() - start)
        self._dual_perm = None
        self._fft_levels = None

    def _build_tables(self):
        m, order, poly = self.m, self.order, self.primitive_poly
        n = order - 1
        # tables[c][v] = alpha^k * (v << c*width); each doubling fills
        # alog[k:2k] = alpha^k * alog[:k] and squares the map (class docstring)
        tables = _linear_tables([(2 << j) ^ (poly if j == m - 1 else 0) for j in range(m)])
        alog = np.empty(n, dtype=np.int32)
        alog[0] = 1
        k = 1
        while k < n:
            count = min(k, n - k)
            _times_power(tables, alog[:count], alog[k : k + count])
            k += count
            if k < n:
                tables = [_times_power(tables, chunk) for chunk in tables]
        # alpha is invertible, so its powers return to 1 before repeating any
        # other value: the first i >= 1 with alpha^i = 1 is the order of alpha
        repeat = np.flatnonzero(alog[1:] == 1)
        if repeat.size:
            raise NonPrimitivePolynomial(
                f"0x{poly:x} is not primitive: alpha has multiplicative order {repeat[0] + 1}"
            )
        last = int(alog[-1]) << 1
        if last ^ (poly if last & order else 0) != 1:
            # unreachable once the n powers are distinct, kept as a guard
            raise NonPrimitivePolynomial(f"0x{poly:x} is not primitive")
        alog.setflags(write=False)
        self.antilog_table = alog
        self._log_table = None

        # s[k] = tr(alpha^k) for k < 2m - 1, each the Frobenius orbit sum
        # alpha^k + alpha^(2k) + ... + alpha^(2^(m-1) k)
        powers = np.arange(m, dtype=np.int64)
        exponents = (np.arange(2 * m - 1, dtype=np.int64)[:, None] << powers) % n
        s = np.bitwise_xor.reduce(alog[exponents], axis=1)
        if s.max() > 1:
            raise NonPrimitivePolynomial(
                f"0x{poly:x}: trace of alpha^{np.flatnonzero(s > 1)[0]} left the prime field"
            )
        bits = int.from_bytes(np.packbits(s, bitorder="little").tobytes(), "little")
        trace = _parity_table(order, bits & n)  # bit j of the mask is tr(alpha^j)
        trace.setflags(write=False)
        self.trace_table = trace

        # bit j of row i is tr(alpha^(i+j)), so row i is the image of the basis
        # element alpha^i under the map realizing tr(a*x) as a dot product
        self._dual_basis = tuple((bits >> i) & n for i in range(m))
        if _gf2_row_rank(self._dual_basis) != m:
            raise NonPrimitivePolynomial(
                f"0x{poly:x}: trace bilinear form is degenerate"
            )

    @property
    def log_table(self) -> np.ndarray:
        """Discrete logs, inverting antilog_table; built on first use."""
        if self._log_table is None:
            log = np.full(self.order, -1, dtype=np.int32)
            log[self.antilog_table] = np.arange(self.order - 1, dtype=np.int32)
            log.setflags(write=False)
            self._log_table = log
        return self._log_table

    def _mul_nonzero(self, a: int, b: int) -> int:
        n = self.order - 1
        return int(self.antilog_table[(int(self.log_table[a]) + int(self.log_table[b])) % n])

    def mul(self, a: int, b: int) -> int:
        """Field product; mul(a, 0) = 0."""
        if a == 0 or b == 0:
            return 0
        return self._mul_nonzero(a, b)

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
            perm = _times_power(_linear_tables(self._dual_basis), points)
            perm.setflags(write=False)
            self._dual_perm = perm
        return self._dual_perm

    def fft_levels(self) -> tuple[tuple[int, np.ndarray], ...]:
        """Per-level constants of the additive FFT over the whole field, built on
        first use (see tracerep).

        Level 0 has the polynomial basis b = (1, alpha, ..., alpha^(m-1)).  With
        beta the last element of a level's basis and gamma_i = b_i / beta for the
        others, the next level has the basis gamma_i^2 + gamma_i, one element
        fewer.  Level d is kept as (log beta, logs of G[1:]), G[i] being the sum
        of the gamma_j over the bits j of i; G[0] = 0 has no log.
        """
        if self._fft_levels is None:
            n = self.order - 1
            log, alog = self.log_table, self.antilog_table
            basis = [1 << i for i in range(self.m)]
            levels = []
            while basis:
                log_beta = int(log[basis[-1]])
                gammas = [int(alog[(int(log[b]) - log_beta) % n]) for b in basis[:-1]]
                span = np.zeros(1 << len(gammas), dtype=np.int32)
                for j, gamma in enumerate(gammas):
                    span[1 << j : 2 << j] = span[: 1 << j] ^ gamma
                span_logs = log[span[1:]]
                span_logs.setflags(write=False)
                levels.append((log_beta, span_logs))
                basis = [self.mul(gamma, gamma) ^ gamma for gamma in gammas]
            self._fft_levels = tuple(levels)
        return self._fft_levels

    def power_table(self, e: int) -> np.ndarray:
        """x^e for every element x, with 0^0 = 1."""
        if e < 0:
            raise ValueError(f"exponent must be nonnegative, got {e}")
        n = self.order - 1
        alog = self.antilog_table
        out = np.zeros(self.order, dtype=np.int32)
        out[0] = 1 if e == 0 else 0
        # (alpha^i)^e = alpha^(i*e mod n), in blocks so the int64 products stay small
        for start in range(0, n, _BLOCK):
            idx = np.arange(start, min(start + _BLOCK, n), dtype=np.int64)
            idx *= e % n
            idx %= n
            out[alog[start : start + _BLOCK]] = alog[idx]
        return out

    def linear_form_table(self, a: int) -> np.ndarray:
        """Truth table of x -> tr(a*x)."""
        return _parity_table(self.order, self.dual_index(a))

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


def _linear_tables(images) -> list[np.ndarray]:
    """Lookup tables of the GF(2)-linear map sending bit j to images[j], for
    _times_power: one table when m <= _CHUNK_BITS, else one for each half."""
    m = len(images)
    width = m if m <= _CHUNK_BITS else (m + 1) // 2
    tables = []
    for shift in range(0, m, width):
        rows = images[shift : shift + width]
        table = np.zeros(1 << len(rows), dtype=np.int32)
        for j, row in enumerate(rows):
            table[1 << j : 2 << j] = table[: 1 << j] ^ row
        tables.append(table)
    return tables


def _times_power(tables: list[np.ndarray], x: np.ndarray, out: np.ndarray | None = None):
    """c * x for every entry of x, the linear map x -> c * x being given by a
    lookup table for each chunk of bits of x (see _linear_tables); any other
    GF(2)-linear map given that way is applied the same way."""
    if len(tables) == 1:
        return tables[0].take(x, out=out)
    low, high = tables
    width = low.size.bit_length() - 1
    if out is None:
        out = np.empty_like(x)
    # in blocks, so the temporaries stay small at m = 24
    for start in range(0, x.size, _BLOCK):
        block = x[start : start + _BLOCK]
        dest = out[start : start + _BLOCK]
        low.take(block & (low.size - 1), out=dest)
        dest ^= high[block >> width]
    return out


def _parity_table(order: int, mask: int) -> np.ndarray:
    """x -> parity of x & mask, for every x < order."""
    points = np.arange(order, dtype=np.int32)
    points &= mask
    parity = np.bitwise_count(points)
    parity &= 1
    return parity


def _gf2_row_rank(rows) -> int:
    basis = []  # reduced rows with distinct leading bits, largest first
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return len(basis)
