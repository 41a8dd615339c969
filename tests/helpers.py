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
