"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the definitions (shift-and-reduce
polynomial arithmetic, quadratic-time transforms) and shares no code with the
package internals it checks.
"""

import numpy as np

from bentfn.boolfn import BooleanFunction


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(2), integers as coefficient masks


def poly_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_mod(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def poly_divisible(a: int, b: int) -> bool:
    return poly_mod(a, b) == 0


def is_reducible(poly: int) -> bool:
    """Brute-force trial division by every lower-degree polynomial."""
    degree = poly.bit_length() - 1
    for d in range(1, degree // 2 + 1):
        for candidate in range(1 << d, 1 << (d + 1)):
            if poly_divisible(poly, candidate):
                return True
    return False


def multiplicative_order_of_x(poly: int) -> int:
    """Order of x in GF(2)[x]/(poly), by exhaustive stepping."""
    m = poly.bit_length() - 1
    x = 2 % poly if m == 1 else 2
    value = x
    order = 1
    limit = 1 << (m + 1)
    while value != 1:
        value = poly_mod(value << 1, poly)
        order += 1
        if order > limit:
            raise AssertionError("x is not invertible or order computation diverged")
    return order


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


# ---------------------------------------------------------------------------
# field arithmetic from the definitions


def gf_mul(a: int, b: int, poly: int) -> int:
    m = poly.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return r


def gf_pow(a: int, e: int, poly: int) -> int:
    r = 1
    base = a
    while e:
        if e & 1:
            r = gf_mul(r, base, poly)
        base = gf_mul(base, base, poly)
        e >>= 1
    return r


def gf_trace(a: int, poly: int) -> int:
    m = poly.bit_length() - 1
    acc = a
    x = a
    for _ in range(m - 1):
        x = gf_mul(x, x, poly)
        acc ^= x
    assert acc in (0, 1)
    return acc


def loop_field_tables(m: int, poly: int):
    """(log, antilog, trace) tables of GF(2)[x]/(poly), stepping
    alpha^(i+1) = alpha^i * x one element at a time.  The trace table is the
    parity of x & mask, bit j of the mask being tr(alpha^j).  Raises
    ValueError("order <i>") at the first power of alpha that repeats."""
    order = 1 << m
    log = np.full(order, -1, dtype=np.int32)
    alog = np.zeros(order - 1, dtype=np.int32)
    x = 1
    for i in range(order - 1):
        if log[x] != -1:
            raise ValueError(f"order {i}")
        alog[i] = x
        log[x] = i
        x <<= 1
        if x & order:
            x ^= poly
    mask = sum(gf_trace(1 << j, poly) << j for j in range(m))
    points = np.arange(order, dtype=np.int64)
    trace = (np.bitwise_count(points & mask) & 1).astype(np.uint8)
    return log, alog, trace


def trace_poly_table(exponents, poly: int, constant: int = 0):
    """Evaluate tr(sum x^e + constant) at every point, from the definitions."""
    m = poly.bit_length() - 1
    out = []
    for x in range(1 << m):
        value = constant & 1
        for e in exponents:
            value ^= gf_pow(x, e, poly)
        out.append(gf_trace(value, poly))
    return BooleanFunction(m, out)


# ---------------------------------------------------------------------------
# quadratic-time transforms


def naive_walsh(f: BooleanFunction) -> np.ndarray:
    """Double-loop transform over the standard dot product."""
    points = np.arange(len(f), dtype=np.int64)
    signs = 1 - 2 * f.table.astype(np.int64)
    out = np.empty(len(f), dtype=np.int64)
    for v in range(len(f)):
        parity = (np.bitwise_count(points & v) & 1).astype(np.int64)
        out[v] = int(np.sum(signs * (1 - 2 * parity)))
    return out


def naive_walsh_at_trace_point(f: BooleanFunction, poly: int, a: int) -> int:
    """Sum of (-1)^(f(x) + tr(ax)) straight from the definition."""
    total = 0
    for x in range(len(f)):
        total += -1 if (f[x] ^ gf_trace(gf_mul(a, x, poly), poly)) else 1
    return total


def kronecker_walsh(f: BooleanFunction) -> np.ndarray:
    """The transform as the m-fold tensor power of [[1, 1], [1, -1]], applied
    along each binary axis of the table in turn."""
    values = (1 - 2 * f.table.astype(np.int64)).reshape((2,) * f.m)
    hadamard = np.array([[1, 1], [1, -1]], dtype=np.int64)
    for axis in range(f.m):
        values = np.moveaxis(np.tensordot(hadamard, values, axes=([1], [axis])), 0, axis)
    return values.reshape(-1)


def piecewise_fwht(values: np.ndarray, piece: int = 1 << 16) -> np.ndarray:
    """In-place butterfly over the natural layout, one level at a time, each
    level in pieces of at most ``piece`` entries; returns ``values``."""
    size = values.size
    half = piece // 2
    h = 1
    while h < size:
        span = max(piece, 2 * h)
        for start in range(0, size, span):
            pairs = values[start : start + span].reshape(-1, 2, h)
            for lo in range(0, h, half):
                top, bottom = pairs[:, 0, lo : lo + half], pairs[:, 1, lo : lo + half]
                total = top + bottom
                np.subtract(top, bottom, out=bottom)
                top[...] = total
        h <<= 1
    return values


def naive_mobius(f: BooleanFunction) -> np.ndarray:
    """ANF coefficients by explicit subset sums."""
    out = np.zeros(len(f), dtype=np.uint8)
    for mask in range(len(f)):
        acc = 0
        sub = mask
        while True:
            acc ^= f[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        out[mask] = acc
    return out


def random_function(rng, m: int) -> BooleanFunction:
    return BooleanFunction(m, rng.integers(0, 2, 1 << m, dtype=np.uint8))


def conjugate_loop_evaluate(form, ctx) -> BooleanFunction:
    """Truth table of a trace form by expanding every term into its conjugates:
    tr_s(c x^l) = sum over k < s of (c x^l)^(2^k), one table pass per conjugate."""
    n = ctx.order - 1
    sizes = {}
    for leader in form.terms:
        size, e = 1, (2 * leader) % n
        while e != leader:
            size, e = size + 1, (2 * e) % n
        sizes[leader] = size
    exps = np.arange(n, dtype=np.int64)
    acc = np.zeros(n, dtype=np.int32)
    for leader, coeff in form.terms.items():
        logs = (int(ctx.log_table[coeff]) + leader * exps) % n
        for k in range(sizes[leader]):
            acc ^= ctx.antilog_table[(logs << k) % n]
    acc ^= form.constant ^ form.top_coeff
    assert int(acc.max()) <= 1
    table = np.zeros(ctx.order, dtype=np.uint8)
    table[0] = form.constant
    table[ctx.antilog_table] = acc
    return BooleanFunction(form.m, table)


def arange_power_table(ctx, e: int) -> np.ndarray:
    """x^e for every element, from one int64 arange of all 2^m - 1 exponents:
    (alpha^i)^e = alpha^(i*e mod n), with 0^0 = 1."""
    n = ctx.order - 1
    out = np.zeros(ctx.order, dtype=np.int32)
    out[0] = 1 if e == 0 else 0
    idx = (np.arange(n, dtype=np.int64) * (e % n)) % n
    out[ctx.antilog_table] = ctx.antilog_table[idx]
    return out
