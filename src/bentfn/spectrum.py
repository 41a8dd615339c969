"""Fast Walsh-Hadamard spectra, bent/near-bent classification, and dual extraction.

All arithmetic is integer exact.  The butterfly transform works over the
standard coordinate dot product; queries through the trace inner product go
through :meth:`bentfn.gf2m.FieldContext.dual_index`, which keeps all basis
dependence in one bijection.

A function's spectrum is computed once: :func:`walsh` keeps it on the
immutable :class:`~bentfn.boolfn.BooleanFunction`, and :func:`dual` keeps the
dual there once per field, as ``condition_flags`` keeps its flags.  Joins with
the trace are not transformed: :func:`trace_join` derives the spectrum of
join(c, c + tr + xi) from the half-size one of c, for a six-pack's base, every
pseudo-dual, and a CLI pair whose halves differ by tr or tr + 1.  Nor are the
components of a transformed join: :func:`component` derives a half's spectrum
from the joined one, for the checks that read it, and the half takes it away
with it.  ``trace_join`` keeps no spectrum on c that ``walsh(c)`` did not.

Up to ``_FWHT_BLOCK`` (2^16) points the butterfly runs its upper levels on the
natural layout and its lower levels on one transposed copy, so no level works
on runs shorter than 2^(m//2) entries.  Above that it transforms each block of
``_FWHT_BLOCK`` entries in turn, in cache, and then runs the upper levels on
contiguous copies of ``_STRIP`` (2^12) columns of the blocks, one strip at a
time.  :func:`dual` compares the coefficients before it reindexes them by field
point, so its gather through ``dual_perm`` moves bytes, not int32 values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction
from .errors import DimensionMismatch, DimensionOutOfRange, NotBent, NotNearBent
from .gf2m import FieldContext

MAX_WALSH_DIMENSION = 24
_FWHT_BLOCK = 1 << 16
_STRIP = 1 << 12


class Classification(enum.Enum):
    BENT = "bent"
    NEAR_BENT = "near-bent"
    NEITHER = "neither"


def _levels(values: np.ndarray, h: int) -> None:
    # the butterfly levels of spans 2h, 4h, ... up to the whole array, in place
    while h < values.size:
        pairs = values.reshape(-1, 2, h)
        top, bottom = pairs[:, 0], pairs[:, 1]
        total = top + bottom
        np.subtract(top, bottom, out=bottom)
        top[...] = total
        h <<= 1


def _block_fwht(values: np.ndarray) -> None:
    # The levels of the upper m - m//2 bits run on the natural layout, those of
    # the lower m//2 bits on one transposed copy, where those bits are on top:
    # every level then works on runs of at least 2^(m//2) entries.
    size = values.size
    low = 1 << ((size.bit_length() - 1) // 2)
    _levels(values, low)
    columns = values.reshape(-1, low).T.copy()
    _levels(columns.reshape(-1), size // low)
    values.reshape(-1, low)[...] = columns.T


def _fwht(values: np.ndarray) -> np.ndarray:
    # in-place butterfly; O(m 2^m) with |coefficients| <= 2^m, safe in int32.
    if values.size <= _FWHT_BLOCK:
        _block_fwht(values)
        return values
    # The lower 16 levels run block by block, each block in cache.  The upper
    # levels act on the row index of rows; a contiguous copy of _STRIP columns
    # holds them as its levels of span 2 _STRIP and up.
    rows = values.reshape(-1, _FWHT_BLOCK)
    for row in rows:
        _block_fwht(row)
    for lo in range(0, _FWHT_BLOCK, _STRIP):
        strip = rows[:, lo : lo + _STRIP].copy()
        _levels(strip.reshape(-1), _STRIP)
        rows[:, lo : lo + _STRIP] = strip
    return values


def _classify(coeffs: np.ndarray, m: int) -> tuple[Classification, dict[int, int]]:
    if m % 2 == 0:
        flat = 1 << (m // 2)
        label, allowed = Classification.BENT, (-flat, flat)
    else:
        peak = 1 << ((m + 1) // 2)
        label, allowed = Classification.NEAR_BENT, (-peak, 0, peak)
    # counting the allowed values needs no sorted copy of the spectrum; counting
    # them block by block needs no whole-size boolean array (16 MiB at 2^24 points)
    counts = [sum(int(np.count_nonzero(coeffs[lo : lo + _FWHT_BLOCK] == value))
                  for lo in range(0, coeffs.size, _FWHT_BLOCK)) for value in allowed]
    if sum(counts) == coeffs.size:
        return label, {value: count for value, count in zip(allowed, counts) if count}
    values, counts = np.unique(coeffs, return_counts=True)
    return Classification.NEITHER, {int(v): int(c) for v, c in zip(values, counts)}


@dataclass(eq=False, frozen=True)
class WalshSpectrum:
    """All 2^m Fourier coefficients of a function, indexed by the coordinate dual point."""

    m: int
    coeffs: np.ndarray
    classification: Classification
    histogram: dict[int, int]

    def at_field_point(self, ctx: FieldContext, a: int) -> int:
        """Coefficient at the field point a under the trace inner product."""
        if ctx.m != self.m:
            raise DimensionMismatch(
                f"field has dimension {ctx.m}, spectrum has dimension {self.m}"
            )
        return int(self.coeffs[ctx.dual_index(a)])

    def trace_indexed(self, ctx: FieldContext) -> np.ndarray:
        """Coefficients reindexed by field point: entry a is the coefficient at a."""
        if ctx.m != self.m:
            raise DimensionMismatch(
                f"field has dimension {ctx.m}, spectrum has dimension {self.m}"
            )
        return self.coeffs[ctx.dual_perm()]


def _transform(f: BooleanFunction) -> np.ndarray:
    # the coefficients of (-1)^f, kept nowhere
    if f.m > MAX_WALSH_DIMENSION:
        raise DimensionOutOfRange(f"dimension {f.m} exceeds {MAX_WALSH_DIMENSION}")
    signs = f.table.astype(np.int32)  # (-1)^F = 1 - 2F, built in place
    signs *= -2
    signs += 1
    return _fwht(signs)


def _spectrum(coeffs: np.ndarray, m: int) -> WalshSpectrum:
    label, histogram = _classify(coeffs, m)
    coeffs.setflags(write=False)
    return WalshSpectrum(m, coeffs, label, histogram)


def walsh(f: BooleanFunction) -> WalshSpectrum:
    """Fast Walsh-Hadamard transform of (-1)^F, with classification.

    The spectrum is computed on the first call and kept on ``f``; later calls
    return the same object.
    """
    if f._spectrum is None:
        f._spectrum = _spectrum(_transform(f), f.m)
    return f._spectrum


def trace_join(c: BooleanFunction, ctx: FieldContext, xi: int = 0) -> BooleanFunction:
    """join(c, c + tr + xi), with its spectrum derived from c's instead of transformed.

    c + tr + xi has c's spectrum translated by s = ``ctx.dual_index(1)`` and
    multiplied by (-1)^xi, so the joined coefficient at (u, 0) is
    W_c(u) + (-1)^xi W_c(u + s) and at (u, 1) it is W_c(u) - (-1)^xi W_c(u + s)
    (Canteaut and Charpin, Decomposing bent functions, 2003).  The one
    transform is the half-size one of c, which is not kept on c unless
    ``walsh(c)`` kept it before.
    """
    if c.m + 1 > MAX_WALSH_DIMENSION:
        raise DimensionOutOfRange(f"dimension {c.m + 1} exceeds {MAX_WALSH_DIMENSION}")
    if ctx.m != c.m:
        raise DimensionMismatch(f"field has dimension {ctx.m}, function has dimension {c.m}")
    F = BooleanFunction(c.m + 1, np.concatenate([c.table, c.table ^ ctx.trace_table ^ xi]))

    # W_c(u + s) block by block: the bits of s above the block pick the source
    # block, those below it permute within the block by one small index
    w = c._spectrum.coeffs if c._spectrum is not None else _transform(c)
    n, s = w.size, ctx.dual_index(1)
    block = min(n, _FWHT_BLOCK)
    inner = np.arange(block, dtype=np.intp) ^ (s & (block - 1))  # so take converts no index
    shifted = np.empty(block, dtype=np.int32)
    coeffs = np.empty(2 * n, dtype=np.int32)
    low, high = (np.subtract, np.add) if xi else (np.add, np.subtract)
    for lo in range(0, n, block):
        hi = lo + block
        source = lo ^ (s & -block)
        np.take(w[source : source + block], inner, out=shifted)
        low(w[lo:hi], shifted, out=coeffs[lo:hi])
        high(w[lo:hi], shifted, out=coeffs[n + lo : n + hi])
    del w, inner, shifted  # before _classify, where a verify job's memory peaks
    F._spectrum = _spectrum(coeffs, F.m)
    return F


def component(F: BooleanFunction, i: int) -> BooleanFunction:
    """The component F(., i) of F, with its spectrum derived from F's instead of transformed.

    The coefficients of F at (u, 0) and (u, 1) are W_f0(u) + W_f1(u) and
    W_f0(u) - W_f1(u), so W_fi(u) is their sum or difference halved.  The
    component is a new object each call, and its spectrum dies with it.
    """
    w = walsh(F).coeffs
    n = w.size // 2
    coeffs = (np.subtract if i else np.add)(w[:n], w[n:])
    coeffs >>= 1  # exact: both sums are even
    fi = BooleanFunction(F.m - 1, F.table[i * n : (i + 1) * n])
    fi._spectrum = _spectrum(coeffs, fi.m)
    return fi


def classify(obj) -> Classification:
    """Classification of a function or an already computed spectrum."""
    if isinstance(obj, WalshSpectrum):
        return obj.classification
    return walsh(obj).classification


def walsh_at_field_point(f: BooleanFunction, ctx: FieldContext, a: int) -> int:
    return walsh(f).at_field_point(ctx, a)


def is_balanced(f: BooleanFunction) -> bool:
    return f.is_balanced()


def check_nearbent_distribution(spectrum: WalshSpectrum, value_at_zero: int) -> bool:
    """True iff the coefficient counts match the near-bent distribution.

    For m = 2t - 1 the counts are 2^(2t-3) + s*2^(t-2) at +2^t, 2^(2t-2) at 0
    and 2^(2t-3) - s*2^(t-2) at -2^t, where s is +1 if F(0) = 0 and -1 otherwise.
    """
    if spectrum.classification is not Classification.NEAR_BENT:
        raise NotNearBent("distribution check requires a near-bent spectrum", spectrum.histogram)
    t = (spectrum.m + 1) // 2
    sign = -1 if value_at_zero & 1 else 1
    peak = 1 << t
    expected = {
        peak: (1 << (2 * t - 3)) + sign * (1 << (t - 2)),
        0: 1 << (2 * t - 2),
        -peak: (1 << (2 * t - 3)) - sign * (1 << (t - 2)),
    }
    observed = {value: spectrum.histogram.get(value, 0) for value in expected}
    return observed == expected


def dual(F: BooleanFunction, ctx: FieldContext) -> BooleanFunction:
    """Dual of a bent function on GF(2^(m)) x GF(2), via the trace inner product.

    The dual takes value 1 exactly where the Fourier coefficient is -2^t.
    Raises NotBent otherwise; requires F.m = ctx.m + 1 with F.m even.  It is
    kept on ``F`` with ``ctx``, and a later call over an equal field returns it.
    """
    if F._dual is None or F._dual[0] != ctx:
        if F.m != ctx.m + 1 or F.m % 2:
            raise DimensionMismatch(
                f"dual needs an even-dimensional function over a field of dimension one less; "
                f"got F.m={F.m}, ctx.m={ctx.m}"
            )
        spectrum = walsh(F)
        if spectrum.classification is not Classification.BENT:
            raise NotBent(f"function is {spectrum.classification.value}, not bent")
        t = F.m // 2
        perm = ctx.dual_perm()
        table = np.empty((2, ctx.order), dtype=np.uint8)
        for half, coeffs in zip(table, spectrum.coeffs.reshape(2, ctx.order)):
            half[...] = (coeffs == -(1 << t))[perm]
        F._dual = (ctx, BooleanFunction(F.m, table.ravel()))
    return F._dual[1]
