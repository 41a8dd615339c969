"""Constructions and checkers for bent functions built from near-bent components.

The central construction pairs a near-bent function f0 whose unit derivative
is constant with f1 = f0 + tr; the join is bent.  From a bent function meeting
the trace condition (component sum equal to tr, possibly plus 1) the dual's
components yield two further bent functions, the pseudo-duals, and their duals
close the family: six bent functions from one qualifying seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import BooleanFunction, trace_function
from .errors import (
    BentVerificationFailed,
    ConditionTNotMet,
    ConditionViolation,
    DerivativeNotConstant,
    DimensionMismatch,
    InvalidExponentSet,
    NotBent,
    NotNearBent,
)
from .gf2m import FieldContext, coset_leader
from .spectrum import Classification, component, dual, trace_join, walsh
from .tracerep import TraceForm
from .tvr import join, linear_form, split


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: int | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(eq=False)
class CheckReport:
    """Structured pass/fail record for one family of assertions."""

    name: str
    items: list[CheckItem]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def item(self, name: str) -> CheckItem:
        for entry in self.items:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "items": [item.as_dict() for item in self.items],
        }


@dataclass(frozen=True)
class ConditionFlags:
    """Detected structure of an even-dimensional function's components.

    ``xi`` is 0 or 1 when f0 + f1 equals tr or tr + 1 pointwise, else None.
    ``d1_f0`` is the constant value of the unit derivative of f0 when constant,
    else None; ``has_C`` records d1_f0 == 0.  The Hamming distances to the two
    trace candidates localize near misses.
    """

    xi: int | None
    has_C: bool
    d1_f0: int | None
    dist_to_tr: int
    dist_to_tr_plus_one: int

    @property
    def has_T(self) -> bool:
        return self.xi is not None

    def as_dict(self) -> dict:
        return {
            "has_T": self.has_T,
            "xi": self.xi,
            "has_C": self.has_C,
            "d1_f0": self.d1_f0,
            "dist_to_tr": self.dist_to_tr,
            "dist_to_tr_plus_one": self.dist_to_tr_plus_one,
        }


@dataclass(eq=False)
class DualSupportReport:
    """Support structure of the dual's components, predicted from one component spectrum.

    Every set is a truth table over the field points.  ``s_indicator`` marks S,
    the points where the first component's coefficient is -2^t; S1 is S
    translated by 1.  ``g`` marks the coefficient zero set.  The report checks
    that the first dual component is supported exactly on S | S1, that the
    second equals the first plus g, that S and S1 are disjoint and that the
    zero set holds half the field.
    """

    g: BooleanFunction
    s_indicator: BooleanFunction
    report: CheckReport

    @property
    def passed(self) -> bool:
        return self.report.passed


@dataclass(eq=False)
class SixPack:
    """The six bent functions grown from one qualifying near-bent seed."""

    base: BooleanFunction
    dual: BooleanFunction
    pseudo0: BooleanFunction
    pseudo1: BooleanFunction
    pseudo0_dual: BooleanFunction
    pseudo1_dual: BooleanFunction
    ctx: FieldContext

    LABELS = ("base", "dual", "pseudo0", "pseudo1", "pseudo0-dual", "pseudo1-dual")

    def functions(self) -> tuple[BooleanFunction, ...]:
        return (
            self.base,
            self.dual,
            self.pseudo0,
            self.pseudo1,
            self.pseudo0_dual,
            self.pseudo1_dual,
        )

    def labeled(self) -> dict[str, BooleanFunction]:
        return dict(zip(self.LABELS, self.functions()))

    def coincidence_classes(self, modulo_structural_forms: bool = False) -> list[list[str]]:
        """Group the six by equality; optionally modulo the two structural linear forms.

        The structural forms are (x, nu) -> nu and (x, nu) -> tr(x); adding
        either preserves bentness and the trace condition up to its constant.
        """
        if modulo_structural_forms:
            # of (0, 0), (0, 1) and (p, 0), tr(p) = 1, adding nu flips only (0, 1) and adding
            # tr(x) only (p, 0): the key is the class member agreeing with (0, 0) at both
            forms = [linear_form(self.ctx, 0, 1).table, linear_form(self.ctx, 1, 0).table]
            points = [self.ctx.order, int(np.argmax(self.ctx.trace_table))]

            def key(fn: BooleanFunction) -> bytes:
                table = fn.table.copy()
                for form, point in zip(forms, points):
                    if table[point] != table[0]:
                        table ^= form
                return table.tobytes()

        else:

            def key(fn: BooleanFunction) -> bytes:
                return fn.table.tobytes()

        groups: dict[bytes, list[str]] = {}
        for label, fn in zip(self.LABELS, self.functions()):
            groups.setdefault(key(fn), []).append(label)
        return sorted(groups.values(), key=lambda labels: self.LABELS.index(labels[0]))


@dataclass(eq=False)
class CollisionReport:
    """Two bent functions with different duals but the same first pseudo-dual."""

    first: BooleanFunction
    second: BooleanFunction
    report: CheckReport

    @property
    def passed(self) -> bool:
        return self.report.passed


@dataclass(frozen=True)
class SkippedCheck:
    name: str
    reason: str


@dataclass(eq=False)
class VerificationSuite:
    """Every applicable checker's outcome for one function."""

    flags: ConditionFlags | None
    reports: list[CheckReport]
    skipped: list[SkippedCheck]

    @property
    def passed(self) -> bool:
        return all(report.passed for report in self.reports)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "condition_flags": self.flags.as_dict() if self.flags else None,
            "checks": [report.as_dict() for report in self.reports],
            "skipped": [{"name": s.name, "reason": s.reason} for s in self.skipped],
        }


# ---------------------------------------------------------------------------
# constructions


def _require_near_bent(f0: BooleanFunction, what: str = "input"):
    spectrum = walsh(f0)
    if spectrum.classification is not Classification.NEAR_BENT:
        raise NotNearBent(
            f"{what} is {spectrum.classification.value}, not near-bent", spectrum.histogram
        )
    return spectrum


def _join_with_trace(f0: BooleanFunction, ctx: FieldContext, failure: str) -> BooleanFunction:
    """join(f0, f0 + tr), checked bent; raises BentVerificationFailed(failure) if not."""
    F = trace_join(f0, ctx)
    if walsh(F).classification is not Classification.BENT:
        raise BentVerificationFailed(failure)
    return F


def bent_from_near_bent(f0: BooleanFunction, ctx: FieldContext) -> BooleanFunction:
    """Join a qualifying near-bent f0 with f0 + tr into a bent function.

    Requires f0 near-bent with a constant unit derivative; both are checked.
    """
    if f0.m != ctx.m:
        raise DimensionMismatch(f"f0.m={f0.m} does not match ctx.m={ctx.m}")
    _require_near_bent(f0, "f0")
    if f0.derivative(1).is_constant() is None:
        raise DerivativeNotConstant("the unit derivative of f0 is not constant")
    return _join_with_trace(f0, ctx, "joined function failed the bent check")


def normalize_near_bent(f: BooleanFunction, ctx: FieldContext, e: int = 1) -> BooleanFunction:
    """The unique h among {f, f+1, f+t_e, f+t_e+1} with D_e h = 0 and h(0) = 0.

    ``e`` defaults to 1; any direction with tr(e) = 1 works, since adding the
    linear form x -> tr(e*x) flips the constant derivative in that direction.
    """
    if f.m != ctx.m:
        raise DimensionMismatch(f"f.m={f.m} does not match ctx.m={ctx.m}")
    if ctx.trace(e) != 1:
        raise ConditionViolation(f"direction {e} has trace 0; normalization needs tr(e) = 1")
    _require_near_bent(f)
    omega = f.derivative(e).is_constant()
    if omega is None:
        raise DerivativeNotConstant(f"the derivative of f in direction {e} is not constant")
    h = f if omega == 0 else f.add_linear_form(ctx, e)
    if h[0]:
        h = h + 1
    return h


def pseudo_duals(
    F: BooleanFunction, ctx: FieldContext
) -> tuple[BooleanFunction, BooleanFunction]:
    """The two functions joining each dual component with itself plus tr."""
    d0, d1 = split(dual(F, ctx))
    return trace_join(d0, ctx), trace_join(d1, ctx)


def condition_flags(F: BooleanFunction, ctx: FieldContext) -> ConditionFlags:
    """Detect the trace condition on the component sum and the unit-derivative constant.

    Kept on ``F`` with ``ctx``, as :func:`~bentfn.spectrum.dual` keeps the dual."""
    if F._flags is None or F._flags[0] != ctx:
        f0, f1 = split(F)
        sum01 = f0 + f1
        tr = trace_function(ctx)
        dist0 = (sum01 + tr).weight()
        dist1 = ctx.order - dist0
        if dist0 == 0:
            xi = 0
        elif dist1 == 0:
            xi = 1
        else:
            xi = None
        omega = f0.derivative(1).is_constant()
        F._flags = (ctx, ConditionFlags(
            xi=xi,
            has_C=(omega == 0),
            d1_f0=omega,
            dist_to_tr=dist0,
            dist_to_tr_plus_one=dist1,
        ))
    return F._flags[1]


def _require_xi_zero(F: BooleanFunction, ctx: FieldContext) -> ConditionFlags:
    flags = condition_flags(F, ctx)
    if flags.xi != 0:
        raise ConditionTNotMet(
            "component sum is tr + 1" if flags.xi == 1 else "component sum is not the trace"
        )
    return flags


def dual_support_analysis(F: BooleanFunction, ctx: FieldContext) -> DualSupportReport:
    """Predict the dual components' supports from the first component spectrum.

    Requires F bent with component sum exactly tr.
    """
    _require_xi_zero(F, ctx)
    t = F.m // 2
    # compare on the coordinate-indexed spectrum, then gather the masks by field point
    coeffs, perm = walsh(component(F, 0)).coeffs, ctx.dual_perm()

    s = (coeffs == -(1 << t))[perm]
    s1 = s.reshape(-1, 2)[:, ::-1].ravel()  # s1[x] = s[x ^ 1], with no index array
    g = BooleanFunction(ctx.m, (coeffs == 0)[perm])
    d0, d1 = split(dual(F, ctx))

    items = [
        CheckItem("first-dual-support-is-S-union-S1", bool(np.array_equal(d0.table, s | s1))),
        CheckItem("second-dual-equals-first-plus-zero-indicator", d1 == d0 + g),
        CheckItem("S-and-S1-disjoint", not (s & s1).any()),
        CheckItem("zero-set-size", g.weight() == 1 << (ctx.m - 1)),
    ]
    return DualSupportReport(g, BooleanFunction(ctx.m, s), CheckReport("dual-support", items))


def check_dual_unit_derivatives(F: BooleanFunction, ctx: FieldContext) -> CheckReport:
    """For bent F with component sum tr: the dual's first component has zero unit
    derivative and its second has constant unit derivative 1."""
    _require_xi_zero(F, ctx)
    d0, d1 = (part.derivative(1) for part in split(dual(F, ctx)))
    items = [
        CheckItem("dual-first-component-unit-derivative-zero", d0.is_constant() == 0,
                  witness=_first_nonzero(d0)),
        CheckItem("dual-second-component-unit-derivative-one", d1.is_constant() == 1,
                  witness=_first_zero(d1)),
    ]
    return CheckReport("dual-unit-derivatives", items)


def check_dual_component_sum(F: BooleanFunction, ctx: FieldContext) -> CheckReport:
    """For bent F with component sum tr and constant unit derivative of f0:
    the dual components sum to tr when that constant is 0, and to tr + 1 when it is 1."""
    omega = _require_xi_zero(F, ctx).d1_f0
    if omega is None:
        raise DerivativeNotConstant("unit derivative of f0 not constant")
    d0, d1 = split(dual(F, ctx))
    expected = trace_function(ctx) + omega
    observed = d0 + d1
    diff = observed + expected
    items = [
        CheckItem(
            f"dual-component-sum-is-tr-plus-{omega}",
            observed == expected,
            witness=_first_nonzero(diff),
        )
    ]
    return CheckReport("dual-component-sum", items)


def check_pseudo_dual_conditions(F: BooleanFunction, ctx: FieldContext) -> CheckReport:
    """Both pseudo-duals of a trace-condition bent function are bent, and their
    duals meet the zero-derivative condition with complementary trace constants.

    With component sum tr the dual of pseudo0 has constant 0 and that of
    pseudo1 constant 1.  A component sum of tr + 1 only adds the nu linear
    form, which swaps the dual's components, so the expected constants swap.
    """
    flags = condition_flags(F, ctx)
    if not flags.has_T:
        raise ConditionTNotMet("component sum is not tr or tr + 1")
    items = []
    for i in range(2):
        # each half is built here and dies with its trace_join, so only one
        # pseudo-dual and no half-size spectrum is alive at a time
        items += _pseudo_dual_items(i, trace_join(split(dual(F, ctx))[i], ctx), flags.xi, ctx)
    return CheckReport("pseudo-dual-conditions", items)


def _pseudo_dual_items(i, pd, xi, ctx) -> list:
    # checks one pseudo-dual; its derived spectrum is dropped as soon as the
    # dual is taken
    bent_ok = walsh(pd).classification is Classification.BENT
    items = [CheckItem(f"pseudo{i}-bent", bent_ok)]
    if bent_ok:
        pd = dual(pd, ctx)
        sub = condition_flags(pd, ctx)
        expected_xi = i ^ xi
        items.append(CheckItem(f"pseudo{i}-dual-meets-C", sub.has_C))
        items.append(
            CheckItem(
                f"pseudo{i}-dual-xi-{expected_xi}",
                sub.xi == expected_xi,
                detail=f"observed xi={sub.xi}",
            )
        )
    return items


def check_spectrum_zero_set(f: BooleanFunction, ctx: FieldContext,
                            half: int | None = None) -> CheckReport:
    """A near-bent function with constant unit derivative w has spectrum zeros
    exactly at the points u with tr(u) = 1 - w.

    With ``half`` = i the check reads component i of the even-dimensional
    ``f``.  It tests that half's unit derivative first, and only then derives
    the half's spectrum from f's (``spectrum.component``), so a component that
    fails the precondition derives nothing.
    """
    if half is not None:
        joined, size = f, 1 << (f.m - 1)
        f = BooleanFunction(f.m - 1, f.table[half * size : (half + 1) * size])
    if f.m != ctx.m:
        raise DimensionMismatch(f"f.m={f.m} does not match ctx.m={ctx.m}")
    omega = f.derivative(1).is_constant()
    if omega is None:
        raise DerivativeNotConstant("unit derivative not constant")
    if half is not None:
        f = component(joined, half)
    _require_near_bent(f)
    zero_set = (walsh(f).coeffs == 0)[ctx.dual_perm()]  # compare, then gather by field point
    expected = (ctx.trace_table == (1 ^ omega))
    match = bool(np.array_equal(zero_set, expected))
    witness = None if match else int(np.nonzero(zero_set != expected)[0][0])
    items = [
        CheckItem(f"zero-set-is-trace-{1 ^ omega}-coset", match, witness=witness),
        CheckItem("zero-set-size", int(zero_set.sum()) == 1 << (ctx.m - 1)),
    ]
    return CheckReport("spectrum-zero-set", items)


def check_component_derivative_pairing(F: BooleanFunction, ctx: FieldContext) -> CheckReport:
    """For bent F: the component unit derivatives are constant together, with
    complementary values; the derivative in direction (0, 1) is balanced and
    equals the component sum on both halves."""
    spectrum = walsh(F)
    if spectrum.classification is not Classification.BENT:
        raise NotBent(f"function is {spectrum.classification.value}, not bent")
    f0, f1 = split(F)
    w0 = condition_flags(F, ctx).d1_f0
    w1 = f1.derivative(1).is_constant()
    if w0 is None:
        paired = w1 is None
    else:
        paired = w1 == (w0 ^ 1)
    d_top = F.derivative(1 << ctx.m)
    sum01 = f0 + f1
    items = [
        CheckItem("unit-derivative-constants-paired", paired,
                  detail=f"d1_f0={w0}, d1_f1={w1}"),
        CheckItem("top-direction-derivative-balanced", d_top.weight() == 1 << ctx.m),
        CheckItem("top-direction-derivative-is-component-sum", d_top == join(sum01, sum01)),
    ]
    return CheckReport("component-derivative-pairing", items)


def _first_nonzero(f: BooleanFunction) -> int | None:
    support = f.support()
    return int(support[0]) if support.size else None


def _first_zero(f: BooleanFunction) -> int | None:
    zeros = np.flatnonzero(f.table == 0)
    return int(zeros[0]) if zeros.size else None


# ---------------------------------------------------------------------------
# families


def kasami_welch_exponent(t: int, s: int) -> tuple[int, str]:
    """The exponent 4^s - 2^s + 1 with its admissibility conditions checked.

    Returns the exponent and which congruence branch (3s = +1 or -1 mod 2t-1)
    was matched.  Raises ConditionViolation naming the failed condition.
    """
    if t < 2:
        raise ConditionViolation(f"t must be at least 2, got {t}")
    n = 2 * t - 1
    if n % 3 == 0:
        raise ConditionViolation(f"2t-1 = {n} is divisible by 3")
    if not 0 < s < t:
        raise ConditionViolation(f"s must satisfy 0 < s < t, got s={s}, t={t}")
    if (3 * s) % n == 1 % n:
        branch = "+1"
    elif (3 * s) % n == n - 1:
        branch = "-1"
    else:
        raise ConditionViolation(f"3s = {3 * s} is not congruent to +1 or -1 mod {n}")
    return (1 << (2 * s)) - (1 << s) + 1, branch


def kasami_welch(t: int, s: int, ctx: FieldContext | None = None) -> BooleanFunction:
    """Bent function joining tr(x^d), d = 4^s - 2^s + 1, with tr(x^d) + tr(x)."""
    d, _ = kasami_welch_exponent(t, s)
    if ctx is None:
        ctx = FieldContext(2 * t - 1)
    elif ctx.m != 2 * t - 1:
        raise DimensionMismatch(f"ctx.m={ctx.m} does not match 2t-1={2 * t - 1}")
    f0 = TraceForm(ctx.m, 0, {coset_leader(ctx.m, d): 1}).evaluate(ctx)
    return _join_with_trace(f0, ctx, f"joined function for t={t}, s={s} failed the bent check")


def quadratic_family(t: int, J, ctx: FieldContext | None = None) -> BooleanFunction:
    """Bent function from the quadratic seed sum of tr(x^(2^j + 1)) over j in J.

    The seed's unit derivative is the constant |J| mod 2, so the join with the
    seed plus tr is bent whenever the seed is near-bent; near-bentness is
    checked by spectrum since a deficient quadratic form breaks it.
    """
    if t < 2:
        raise ConditionViolation(f"t must be at least 2, got {t}")
    m = 2 * t - 1
    if ctx is None:
        ctx = FieldContext(m)
    elif ctx.m != m:
        raise DimensionMismatch(f"ctx.m={ctx.m} does not match 2t-1={m}")
    js = sorted(set(int(j) for j in J))
    if not js:
        raise InvalidExponentSet("J must be nonempty")
    if any(j < 0 for j in js):
        raise InvalidExponentSet("exponent indices must be nonnegative")
    if js == [0]:
        raise InvalidExponentSet("J = {0} gives the linear function tr(x)")
    reduced = sorted(set(j % m for j in js))
    if len(reduced) != len(js):
        raise InvalidExponentSet(f"indices {js} collide after reduction mod {m}")
    exponents = [(1 << j) + 1 for j in reduced]
    leaders = [coset_leader(m, e) for e in exponents]
    if len(set(leaders)) != len(leaders):
        raise InvalidExponentSet(
            f"exponents {exponents} are not coset-distinct mod 2^{m}-1 "
            f"(leaders {leaders}); conjugate terms cancel"
        )
    f0 = TraceForm(m, 0, dict.fromkeys(leaders, 1)).evaluate(ctx)
    spectrum = walsh(f0)
    if spectrum.classification is not Classification.NEAR_BENT:
        raise NotNearBent(
            f"quadratic seed for J={js} is not near-bent", spectrum.histogram
        )
    return _join_with_trace(f0, ctx, f"joined function for J={js} failed the bent check")


def quadratic_exponent_sets(t: int):
    """All coset-distinct nonempty J inside {1, ..., (m-1)/2} for m = 2t - 1.

    Deterministic ascending order; a search helper for sweeping the family.
    """
    m = 2 * t - 1
    half = (m - 1) // 2
    from itertools import combinations

    for size in range(1, half + 1):
        for combo in combinations(range(1, half + 1), size):
            yield combo


def six_pack(f0: BooleanFunction, ctx: FieldContext) -> SixPack:
    """Grow the six bent functions from one near-bent seed with constant unit derivative."""
    return _six_pack_of(bent_from_near_bent(f0, ctx), ctx)


def _six_pack_of(F: BooleanFunction, ctx: FieldContext) -> SixPack:
    """The six-pack of a bent F: its dual, both pseudo-duals and their duals."""
    pd0, pd1 = pseudo_duals(F, ctx)
    pd0_dual = dual(pd0, ctx)
    pd1_dual = dual(pd1, ctx)
    for fn in (pd0_dual, pd1_dual):
        if walsh(fn).classification is not Classification.BENT:
            raise BentVerificationFailed("a derived function failed the bent check")
    return SixPack(F, dual(F, ctx), pd0, pd1, pd0_dual, pd1_dual, ctx)


_COLLISION_FIRST = (7, 13, 19, 21)
_COLLISION_SECOND = (3, 11)


def pseudo_dual_collision_demo(ctx: FieldContext | None = None) -> CollisionReport:
    """Two bent functions with different duals but identical first pseudo-duals.

    Fixed seeds over GF(2^7): tr(x^7 + x^13 + x^19 + x^21) and tr(x^3 + x^11),
    each joined with itself plus tr.
    """
    if ctx is None:
        ctx = FieldContext(7)
    elif ctx.m != 7:
        raise DimensionMismatch(f"the collision pair lives over GF(2^7), got m={ctx.m}")
    first, second = (
        trace_join(TraceForm(7, 0, dict.fromkeys(leaders, 1)).evaluate(ctx), ctx)
        for leaders in (_COLLISION_FIRST, _COLLISION_SECOND)
    )
    items = [
        CheckItem("first-bent", walsh(first).classification is Classification.BENT),
        CheckItem("second-bent", walsh(second).classification is Classification.BENT),
    ]
    if items[0].passed and items[1].passed:
        duals = (dual(first, ctx), dual(second, ctx))
        pd_first, pd_second = (trace_join(split(d)[0], ctx) for d in duals)
        items.append(CheckItem("duals-differ", duals[0] != duals[1]))
        items.append(CheckItem("first-pseudo-duals-identical", pd_first == pd_second))
    return CollisionReport(first, second, CheckReport("pseudo-dual-collision", items))


# ---------------------------------------------------------------------------
# orchestration


# The checks after bent-classification, in report order, each reported under its name
# here.  A lambda looks its checker up when called, so a rebinding (a tracer) is seen.
# The zero-set checks read each component, its spectrum derived from F's.
_CHECKS = (
    ("component-derivative-pairing", lambda F, ctx: check_component_derivative_pairing(F, ctx)),
    ("dual-unit-derivatives", lambda F, ctx: check_dual_unit_derivatives(F, ctx)),
    ("dual-support", lambda F, ctx: dual_support_analysis(F, ctx).report),
    ("dual-component-sum", lambda F, ctx: check_dual_component_sum(F, ctx)),
    ("pseudo-dual-conditions", lambda F, ctx: check_pseudo_dual_conditions(F, ctx)),
    ("spectrum-zero-set-f0", lambda F, ctx: check_spectrum_zero_set(F, ctx, half=0)),
    ("spectrum-zero-set-f1", lambda F, ctx: check_spectrum_zero_set(F, ctx, half=1)),
)


def verify_function(F: BooleanFunction, ctx: FieldContext) -> VerificationSuite:
    """Run every applicable checker on an even-dimensional function.

    ``bent-classification`` runs first; a non-bent F skips ``all`` the rest.
    Then the checks of ``_CHECKS`` run in order.  A checker whose precondition
    fails raises ``ConditionTNotMet`` or ``DerivativeNotConstant``, and its
    check is skipped with the message as the reason.  The preconditions:

    - ``component-derivative-pairing``: none;
    - ``dual-unit-derivatives``, ``dual-support``: f0 + f1 = tr;
    - ``dual-component-sum``: f0 + f1 = tr, then a constant unit derivative of f0;
    - ``pseudo-dual-conditions``: condition (T), f0 + f1 = tr or tr + 1;
    - ``spectrum-zero-set-f0``, ``spectrum-zero-set-f1``: a constant unit
      derivative of that component.
    """
    spectrum = walsh(F)
    bent_ok = spectrum.classification is Classification.BENT
    reports = [
        CheckReport(
            "bent-classification",
            [CheckItem("classifies-bent", bent_ok,
                       detail=f"classification={spectrum.classification.value}")],
        )
    ]
    if not bent_ok:
        return VerificationSuite(None, reports, [SkippedCheck("all", "input is not bent")])

    flags = condition_flags(F, ctx)
    skipped: list[SkippedCheck] = []
    for name, check in _CHECKS:
        try:
            report = check(F, ctx)
        except (ConditionTNotMet, DerivativeNotConstant) as exc:
            skipped.append(SkippedCheck(name, str(exc)))
            continue
        report.name = name
        reports.append(report)
    return VerificationSuite(flags, reports, skipped)
