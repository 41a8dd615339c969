"""Two-variable decomposition of even-dimensional functions.

A function F on 2t variables is identified with a function on
GF(2^(2t-1)) x GF(2) through the point encoding index = (nu << (2t-1)) | u,
so the components f0(u) = F(u, 0) and f1(u) = F(u, 1) are the two contiguous
halves of the truth table.  The inner product <(a, eta), (x, nu)> =
tr(a*x) + eta*nu makes the component spectra line up with the joined spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, trace_function
from .errors import DimensionMismatch, OddDimension
from .gf2m import FieldContext
from .spectrum import Classification, walsh


def join(f0: BooleanFunction, f1: BooleanFunction) -> BooleanFunction:
    """The function with F(u, 0) = f0(u) and F(u, 1) = f1(u)."""
    if f0.m != f1.m:
        raise DimensionMismatch(f"components have dimensions {f0.m} and {f1.m}")
    return BooleanFunction(f0.m + 1, np.concatenate([f0.table, f1.table]))


def split(F: BooleanFunction) -> tuple[BooleanFunction, BooleanFunction]:
    """The components (f0, f1) of an even-dimensional function: its two halves."""
    if F.m % 2:
        raise OddDimension(f"cannot split a function of odd dimension {F.m}")
    half_m = F.m - 1
    half = 1 << half_m
    return BooleanFunction(half_m, F.table[:half]), BooleanFunction(half_m, F.table[half:])


def inner_product(ctx: FieldContext, a: int, eta: int, x: int, nu: int) -> int:
    """<(a, eta), (x, nu)> = tr(a*x) + eta*nu."""
    return ctx.trace(ctx.mul(a, x)) ^ (eta & nu & 1)


def linear_form(ctx: FieldContext, a: int, eta: int) -> BooleanFunction:
    """The linear form (x, nu) -> tr(a*x) + eta*nu as a truth table.

    Its two components are tr(a*x) and tr(a*x) + eta.
    """
    t_a = BooleanFunction(ctx.m, ctx.linear_form_table(a))
    return join(t_a, t_a + (eta & 1))


def walsh_coefficient(F: BooleanFunction, ctx: FieldContext, a: int, eta: int) -> int:
    """Fourier coefficient of F at the point (a, eta) under the trace inner product."""
    if F.m != ctx.m + 1:
        raise DimensionMismatch(f"F.m={F.m} does not match ctx.m+1={ctx.m + 1}")
    spectrum = walsh(F)
    return int(spectrum.coeffs[((eta & 1) << ctx.m) | ctx.dual_index(a)])


@dataclass(eq=False)
class ComponentIdentityReport:
    """Outcome of the component/joined spectrum identities.

    ``sum_identity``: coefficient of the join at (u, 0) equals the sum of the
    component coefficients at u; ``difference_identity``: at (u, 1) it equals
    their difference.  ``translate_identity`` (only when f0 + f1 = tr): the
    second component's coefficient at u equals the first's at u + 1.
    """

    sum_identity: bool
    difference_identity: bool
    translate_applicable: bool
    translate_identity: bool | None
    witness: int | None = None

    @property
    def passed(self) -> bool:
        if not (self.sum_identity and self.difference_identity):
            return False
        return (not self.translate_applicable) or bool(self.translate_identity)


def component_walsh_identities(
    f0: BooleanFunction, f1: BooleanFunction, ctx: FieldContext
) -> ComponentIdentityReport:
    """Verify the spectrum of join(f0, f1) against the component spectra, pointwise."""
    if f0.m != ctx.m:
        raise DimensionMismatch(f"f0.m={f0.m} does not match ctx.m={ctx.m}")
    w0 = walsh(f0).coeffs
    w1 = walsh(f1).coeffs
    wf = walsh(join(f0, f1)).coeffs
    half = 1 << ctx.m

    sum_ok = bool(np.array_equal(wf[:half], w0 + w1))
    diff_ok = bool(np.array_equal(wf[half:], w0 - w1))
    witness = None
    if not sum_ok:
        witness = int(np.nonzero(wf[:half] != w0 + w1)[0][0])
    elif not diff_ok:
        witness = int(np.nonzero(wf[half:] != w0 - w1)[0][0])

    applicable = (f0 + f1) == trace_function(ctx)
    translate_ok = None
    if applicable:
        # f1 = f0 + tr shifts the spectrum by the dual point of 1
        shift = ctx.dual_index(1)
        idx = np.arange(half) ^ shift
        translate_ok = bool(np.array_equal(w1, w0[idx]))
        if witness is None and not translate_ok:
            witness = int(np.nonzero(w1 != w0[idx])[0][0])

    return ComponentIdentityReport(sum_ok, diff_ok, applicable, translate_ok, witness)


def bent_via_components(f0: BooleanFunction, f1: BooleanFunction) -> bool:
    """Bentness certificate for join(f0, f1) from the components alone.

    True iff both components are near-bent and, at every point, exactly one of
    the two component coefficients has magnitude 2^t while the other is zero.
    Agrees with direct classification of the joined function.
    """
    if f0.m != f1.m:
        raise DimensionMismatch(f"components have dimensions {f0.m} and {f1.m}")
    s0 = walsh(f0)
    s1 = walsh(f1)
    if s0.classification is not Classification.NEAR_BENT:
        return False
    if s1.classification is not Classification.NEAR_BENT:
        return False
    peak = 1 << ((f0.m + 1) // 2)  # 2^t for components over GF(2^(2t-1))
    return bool(np.all(np.abs(s0.coeffs) + np.abs(s1.coeffs) == peak))
