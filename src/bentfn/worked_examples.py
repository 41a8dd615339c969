"""Bundled worked examples with known duals, pseudo-duals, and trace forms.

Each entry seeds a bent function F = join(f0, f0 + tr) from a trace
expression and records everything that is known about it in closed form:
condition flags, the dual's components, the duals of both pseudo-duals, and
coincidence structure among the six derived functions.  The catalogue backs
the ``bentfn examples`` command and the acceptance suite; published trace
expressions are parsed and compared with the computed truth tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from .boolfn import trace_function
from .constructions import (
    CheckItem,
    _six_pack_of,
    check_dual_component_sum,
    check_dual_unit_derivatives,
    check_pseudo_dual_conditions,
    condition_flags,
    dual_support_analysis,
    pseudo_dual_collision_demo,
)
from .errors import BentfnError
from .gf2m import FieldContext
from .spectrum import Classification, walsh
from .tracerep import parse
from .tvr import join, linear_form, split


@dataclass(frozen=True)
class WorkedExample:
    """One catalogued seed and its expected derived objects (trace expressions)."""

    example_id: str
    description: str
    m: int
    f0: str
    xi: int = 0
    has_C: bool = False
    d1_constant: int | None = None
    dual0: str | None = None
    dual_offset: str | None = None
    pd0_dual0: str | None = None
    pd0_dual_offset: str | None = None
    pd1_dual0: str | None = None
    pd1_dual_offset: str | None = None
    zero_indicator: str | None = None
    self_dual: bool = False
    pd0_equals_dual: bool = False
    pd0_dual_equals_base: bool = False
    pd0_self_dual: bool = False
    pd1_is_dual_plus_trace_form: bool = False
    pd1_dual_is_base_plus_nu_form: bool = False
    exact_class_count: int | None = None
    reduced_class_count: int | None = None
    all_degrees: int | None = None


EXAMPLES: tuple[WorkedExample, ...] = (
    WorkedExample(
        example_id="kasami-welch-t4-s2",
        description="Kasami-Welch seed tr(x^13) over GF(2^7)",
        m=7,
        f0="tr(x^13)",
        xi=0,
        has_C=False,
        d1_constant=None,
        dual0="tr(x^7+x^11+x^19+x^21)",
        dual_offset="tr(x^5+1)",
        pd0_dual0="tr(x+x^3+x^7+x^11+x^19+x^21)",
        pd0_dual_offset="tr(x)",
        pd1_dual0="tr(1+x^5+x^7+x^9+x^11+x^19+x^21)",
        pd1_dual_offset="tr(x+1)",
        zero_indicator="1+tr(x^5)",
    ),
    WorkedExample(
        example_id="quadratic-x3-x9",
        description="quadratic seed tr(x^3+x^9) over GF(2^7)",
        m=7,
        f0="tr(x^3+x^9)",
        xi=0,
        has_C=True,
        d1_constant=0,
        dual0="tr(x^9+x)",
        dual_offset="tr(x)",
        pd1_dual0="tr(x^3+x^9)",
        pd1_dual_offset="tr(x+1)",
        pd0_equals_dual=True,
        pd0_dual_equals_base=True,
        pd1_is_dual_plus_trace_form=True,
        pd1_dual_is_base_plus_nu_form=True,
        exact_class_count=4,
        reduced_class_count=2,
        all_degrees=2,
    ),
    WorkedExample(
        example_id="x7-x13",
        description="seed tr(x^7+x^13) over GF(2^7): trace condition without constant derivative",
        m=7,
        f0="tr(x^7+x^13)",
        xi=0,
        has_C=False,
        d1_constant=None,
        dual0="tr(x^5+x^7+x^9+x^13+x^19+x^21)",
        dual_offset="tr(x+x^5+x^9)",
        pd0_dual0="tr(x+x^7+x^9+x^13+x^19+x^21)",
        pd0_dual_offset="tr(x)",
        pd1_dual0="tr(x+x^3+x^7+x^13+x^19+x^21)",
        pd1_dual_offset="tr(x+1)",
    ),
    WorkedExample(
        example_id="x15-x27-x29-x43",
        description="seed tr(x^15+x^27+x^29+x^43) over GF(2^7): self-dual first pseudo-dual",
        m=7,
        f0="tr(x^15+x^27+x^29+x^43)",
        xi=0,
        has_C=False,
        d1_constant=None,
        dual0="tr(x+x^3+x^5+x^9)",
        dual_offset="tr(x^5+x^7+x^11+x^19+x^21)",
        pd1_dual0="tr(x+x^3+x^5+x^7+x^9+x^11+x^19+x^21)",
        pd1_dual_offset="tr(x+1)",
        pd0_self_dual=True,
    ),
    WorkedExample(
        example_id="x1-x3-x7-x11-x19-x21",
        description="seed tr(x+x^3+x^7+x^11+x^19+x^21) over GF(2^7): two classes",
        m=7,
        f0="tr(x+x^3+x^7+x^11+x^19+x^21)",
        xi=0,
        has_C=True,
        d1_constant=0,
        dual0="tr(x^7+x^11+x^19+x^21)",
        dual_offset="tr(x)",
        pd0_equals_dual=True,
        pd0_dual_equals_base=True,
        pd1_is_dual_plus_trace_form=True,
        pd1_dual_is_base_plus_nu_form=True,
        exact_class_count=4,
        reduced_class_count=2,
    ),
    WorkedExample(
        example_id="x3-x5-x7-x11-x19-x21",
        description="seed tr(x^3+x^5+x^7+x^11+x^19+x^21) over GF(2^7): self-dual, one class",
        m=7,
        f0="tr(x^3+x^5+x^7+x^11+x^19+x^21)",
        xi=0,
        has_C=True,
        d1_constant=0,
        dual0="tr(x^3+x^5+x^7+x^11+x^19+x^21)",
        dual_offset="tr(x)",
        self_dual=True,
        pd0_equals_dual=True,
        pd0_dual_equals_base=True,
        pd1_is_dual_plus_trace_form=True,
        pd1_dual_is_base_plus_nu_form=True,
        exact_class_count=3,
        reduced_class_count=1,
    ),
    WorkedExample(
        example_id="kasami-welch-t6-s4-dim12",
        description="Kasami-Welch seed tr(x^241+x) over GF(2^11), dimension 12",
        m=11,
        f0="tr(x^241+x)",
        xi=0,
        has_C=False,
        d1_constant=None,
    ),
)

COLLISION_ID = "pseudo-dual-collision"


@dataclass(eq=False)
class ExampleResult:
    example_id: str
    checks: list[CheckItem] = field(default_factory=list)
    duration: float = 0.0

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def as_dict(self) -> dict:
        return {
            "example_id": self.example_id,
            "passed": self.passed,
            "duration_seconds": round(self.duration, 4),
            "checks": [check.as_dict() for check in self.checks],
        }


def run_example(ex: WorkedExample, ctx: FieldContext | None = None) -> ExampleResult:
    """Build the example's function and compare every recorded expectation."""
    start = time.perf_counter()
    if ctx is None:
        ctx = FieldContext(ex.m)
    checks: list[CheckItem] = []

    def check(name, passed, detail=""):
        checks.append(CheckItem(name, bool(passed), detail=detail))

    def check_forms(label, fn, first, offset):
        """Compare fn's first component with ``first`` and its component sum with ``offset``."""
        f0, f1 = split(fn)
        if first is not None:
            check(f"{label}-first-form", f0 == parse(first, ctx))
        if offset is not None:
            check(f"{label}-offset-form", f0 + f1 == parse(offset, ctx))
        return f0, f1

    f0 = parse(ex.f0, ctx)
    F = join(f0, f0 + trace_function(ctx))

    spectrum = walsh(F)
    check("bent", spectrum.classification is Classification.BENT,
          f"classification={spectrum.classification.value}")
    flags = condition_flags(F, ctx)
    check("trace-condition", flags.xi == ex.xi, f"xi={flags.xi}")
    check("zero-derivative-condition", flags.has_C == ex.has_C, f"has_C={flags.has_C}")
    check("derivative-constant", flags.d1_f0 == ex.d1_constant, f"d1_f0={flags.d1_f0}")

    pack = _six_pack_of(F, ctx)
    _, dual_F, pd0, pd1, pd0_dual, pd1_dual = pack.functions()
    dual0, dual1 = check_forms("dual", dual_F, ex.dual0, ex.dual_offset)

    support = dual_support_analysis(F, ctx)
    check("dual-support", support.passed)
    if ex.zero_indicator is not None:
        check("zero-indicator-form", support.g == parse(ex.zero_indicator, ctx))

    check("dual-unit-derivatives", check_dual_unit_derivatives(F, ctx).passed)
    if ex.d1_constant is not None:
        check("dual-component-sum", check_dual_component_sum(F, ctx).passed)
    check("pseudo-dual-conditions", check_pseudo_dual_conditions(F, ctx).passed)

    for name, fn in (("pseudo0", pd0), ("pseudo1", pd1),
                     ("pseudo0-dual", pd0_dual), ("pseudo1-dual", pd1_dual)):
        check(f"{name}-bent", walsh(fn).classification is Classification.BENT)

    check_forms("pseudo0-dual", pd0_dual, ex.pd0_dual0, ex.pd0_dual_offset)
    check_forms("pseudo1-dual", pd1_dual, ex.pd1_dual0, ex.pd1_dual_offset)

    if ex.self_dual:
        check("self-dual", dual_F == F)
    if ex.pd0_equals_dual:
        check("pseudo0-equals-dual", pd0 == dual_F)
    if ex.pd0_dual_equals_base:
        check("pseudo0-dual-equals-base", pd0_dual == F)
    if ex.pd0_self_dual:
        check("pseudo0-self-dual", pd0_dual == pd0)
    if ex.pd1_is_dual_plus_trace_form:
        check("pseudo1-is-dual-plus-trace-form", pd1 == dual_F + linear_form(ctx, 1, 0))
    if ex.pd1_dual_is_base_plus_nu_form:
        check("pseudo1-dual-is-base-plus-nu-form", pd1_dual == F + linear_form(ctx, 0, 1))

    if ex.exact_class_count is not None:
        classes = pack.coincidence_classes()
        check("exact-coincidence-classes", len(classes) == ex.exact_class_count,
              f"{len(classes)} classes")
    if ex.reduced_class_count is not None:
        classes = pack.coincidence_classes(modulo_structural_forms=True)
        check("reduced-coincidence-classes", len(classes) == ex.reduced_class_count,
              f"{len(classes)} classes")

    if ex.all_degrees is not None:
        degrees = {F.degree(), dual_F.degree(), pd0.degree(), pd1.degree(),
                   pd0_dual.degree(), pd1_dual.degree(),
                   dual0.degree(), dual1.degree()}
        check("degrees", degrees == {ex.all_degrees}, f"degrees={sorted(degrees)}")

    return ExampleResult(ex.example_id, checks, time.perf_counter() - start)


def run_collision_demo() -> ExampleResult:
    """The non-injectivity demonstration as a catalogue entry."""
    start = time.perf_counter()
    report = pseudo_dual_collision_demo()
    return ExampleResult(COLLISION_ID, report.report.items, time.perf_counter() - start)


def run_all(only: str = "") -> list[ExampleResult]:
    """Run the catalogue entries whose id contains ``only``, then the collision
    demonstration if its id does too.  An entry that raises a BentfnError
    fails with one ``error`` check naming the exception."""
    runs = {ex.example_id: partial(run_example, ex) for ex in EXAMPLES}
    runs[COLLISION_ID] = run_collision_demo
    results = []
    for example_id, run in runs.items():
        if only in example_id:
            try:
                results.append(run())
            except BentfnError as exc:
                error = CheckItem("error", False, detail=f"{type(exc).__name__}: {exc}")
                results.append(ExampleResult(example_id, [error]))
    return results
