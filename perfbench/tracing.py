"""Span tracing of the bentfn layers, installed from outside the package.

Every public function of a layer is wrapped at every module binding that
holds it: ``cli``, ``constructions``, ``tvr`` and ``worked_examples`` import
``walsh``, ``dual``, ``to_trace_form`` and ``parse`` by name, so patching the
defining module alone would miss most calls.  Methods are wrapped on their
class.  ``traced`` restores every binding to the original object on exit.

Spans (name, start, end, parent, job) stay in memory; ``layer_metrics``
derives counts, self times and distinct-input ratios from them.  Work the
tracer itself does inside a call tree (fingerprinting inputs, counting
support sizes) is recorded as a ``trace.annotate`` child span, so it never
lands in a layer's self time.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import wraps
from time import perf_counter

LAYERS = ("gf2m", "spectrum", "tracerep", "tvr", "constructions", "boolfn", "worked_examples")

#: Public functions and methods wrapped per layer (module bentfn.<layer>).
TARGETS = {
    "gf2m": ["FieldContext.__init__", "cyclotomic_cosets", "coset_leader", "coset_size"],
    "spectrum": ["walsh", "dual", "classify", "check_nearbent_distribution",
                 "walsh_at_field_point", "is_balanced"],
    "tracerep": ["mattson_solomon", "to_trace_form", "parse", "format_trace_form",
                 "TraceForm.evaluate"],
    "tvr": ["join", "split", "linear_form", "inner_product", "walsh_coefficient",
            "component_walsh_identities", "bent_via_components"],
    "constructions": [
        "bent_from_near_bent", "normalize_near_bent", "pseudo_duals", "condition_flags",
        "dual_support_analysis", "check_dual_unit_derivatives", "check_dual_component_sum",
        "check_pseudo_dual_conditions", "check_spectrum_zero_set",
        "check_component_derivative_pairing", "kasami_welch_exponent", "kasami_welch",
        "quadratic_family", "six_pack", "pseudo_dual_collision_demo", "verify_function",
    ],
    "boolfn": ["BooleanFunction.degree", "BooleanFunction.anf", "BooleanFunction.derivative",
               "BooleanFunction.save", "BooleanFunction.load", "trace_function",
               "trace_polynomial"],
    "worked_examples": ["run_example", "run_collision_demo", "run_all"],
}

CHECKERS = (
    "check_component_derivative_pairing",
    "check_dual_component_sum",
    "check_dual_unit_derivatives",
    "check_pseudo_dual_conditions",
    "check_spectrum_zero_set",
    "condition_flags",
    "dual_support_analysis",
)
FAMILIES = ("kasami_welch_exponent", "kasami_welch", "quadratic_family")
# Spans counted per job in the traced run's summary line.
CALLS_PER_JOB = ("spectrum.walsh", "spectrum.dual", "tracerep.to_trace_form",
                 "tracerep.parse", "gf2m.FieldContext.__init__")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fingerprint(table) -> str:
    return hashlib.blake2b(memoryview(table), digest_size=16).hexdigest()


def _bf_text_bytes(m: int) -> int:
    # BooleanFunction.to_text: header line, then hex digits in lines of 64
    digits = 2 * (((1 << m) + 7) // 8)
    return len(f"BF m={m}\n") + digits + -(-digits // 64)


# Per-span notes, computed in a trace.annotate span: (args, result) -> dict.
ANNOTATE = {
    "spectrum.walsh": lambda a, r: {"points": 1 << a[0].m, "input": _fingerprint(a[0].table)},
    "tracerep.to_trace_form": lambda a, r: {"input": f"{a[0].m}:{_fingerprint(a[0].table)}"},
    "tracerep.mattson_solomon": lambda a, r: {
        "terms": ((1 << a[0].m) - 1) * (a[0].weight() - a[0][0])},
    "boolfn.BooleanFunction.save": lambda a, r: {"bytes": _bf_text_bytes(a[0].m)},
    "boolfn.BooleanFunction.load": lambda a, r: {"bytes": _bf_text_bytes(r.m)},
}


class Tracer:
    """Collects spans from one single-threaded traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: dict[int, dict] = {}
        self.job = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.job))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def call(self, name, fn, args, kwargs):
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.spans[index].error = True
            raise
        finally:
            self._close(index)
        annotate = ANNOTATE.get(name)
        if annotate is not None:
            note = self._open("trace.annotate")
            try:
                self.notes[index] = annotate(args, result)
            finally:
                self._close(note)
        return result

    @contextmanager
    def job_span(self, job: int, name: str):
        """Root span of one job; every span opened inside carries its id."""
        self.job = job
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.job = -1

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({"id": i, **asdict(span), **self.notes.get(i, {})}) + "\n")


def _package_modules():
    importlib.import_module("bentfn.cli")
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "bentfn" or name.startswith("bentfn."))]


def bindings():
    """(owner, attribute, original, span name) for every binding to wrap."""
    modules = _package_modules()
    out = []
    for layer, names in TARGETS.items():
        home = sys.modules[f"bentfn.{layer}"]
        for qualname in names:
            span = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                out.append((cls, attr, cls.__dict__[attr], span))
                continue
            original = getattr(home, qualname)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        out.append((mod, attr, original, span))
    return out


def _wrapper(tracer: Tracer, name: str, raw):
    if isinstance(raw, classmethod):
        return classmethod(_wrapper(tracer, name, raw.__func__))

    @wraps(raw)
    def traced_call(*args, **kwargs):
        return tracer.call(name, raw, args, kwargs)

    return traced_call


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    installed = []
    try:
        for owner, attr, original, name in bindings():
            setattr(owner, attr, _wrapper(tracer, name, original))
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# derived metrics


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the part covered by direct children (spans nest strictly)."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out


def _outermost(spans: list[Span], names: set[str]) -> float:
    """Summed duration of spans in ``names`` with no ancestor in ``names``."""
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            total += span.duration
    return total


def layer_metrics(tracer: Tracer, results) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``results`` are its JobResults."""
    spans = tracer.spans
    own = self_times(spans)

    def count(name):
        return sum(1 for span in spans if span.name == name)

    def self_s(*names):
        return sum(own[i] for i, span in enumerate(spans) if span.name in names)

    def prefix_self_s(prefix):
        return sum(own[i] for i, span in enumerate(spans) if span.name.startswith(prefix))

    def notes(name, key):
        return [tracer.notes[i][key] for i, span in enumerate(spans) if span.name == name]

    def distinct_ratio(name):
        seen = notes(name, "input")
        return len(set(seen)) / len(seen) if seen else 0.0

    metrics = {
        "gf2m.field_builds": count("gf2m.FieldContext.__init__"),
        "gf2m.field_build_s": _outermost(spans, {"gf2m.FieldContext.__init__"}),
        "gf2m.cosets_s": _outermost(spans, {"gf2m.cyclotomic_cosets"}),
        "spectrum.walsh_calls": count("spectrum.walsh"),
        "spectrum.walsh_points": sum(notes("spectrum.walsh", "points")),
        "spectrum.walsh_self_s": self_s("spectrum.walsh"),
        "spectrum.walsh_distinct_ratio": distinct_ratio("spectrum.walsh"),
        "spectrum.dual_calls": count("spectrum.dual"),
        "spectrum.dual_self_s": self_s("spectrum.dual"),
        "tracerep.trace_form_calls": count("tracerep.to_trace_form"),
        "tracerep.interp_terms": sum(notes("tracerep.mattson_solomon", "terms")),
        "tracerep.mattson_solomon_self_s": self_s("tracerep.mattson_solomon"),
        "tracerep.trace_form_self_s": self_s("tracerep.to_trace_form"),
        "tracerep.trace_form_distinct_ratio": distinct_ratio("tracerep.to_trace_form"),
        "tracerep.parse_calls": count("tracerep.parse"),
        "tracerep.parse_s": _outermost(spans, {"tracerep.parse"}),
        "tvr.split_calls": count("tvr.split"),
        "tvr.join_calls": count("tvr.join"),
        "tvr.self_s": prefix_self_s("tvr."),
        "constructions.verify_function_self_s": self_s("constructions.verify_function"),
        "constructions.six_pack_self_s": self_s("constructions.six_pack"),
        "constructions.family_s": _outermost(spans, {f"constructions.{n}" for n in FAMILIES}),
    }
    for checker in CHECKERS:
        metrics[f"constructions.check_s.{checker}"] = _outermost(
            spans, {f"constructions.{checker}"})
    metrics.update({
        "boolfn.degree_s": _outermost(spans, {"boolfn.BooleanFunction.degree"}),
        "boolfn.derivative_calls": count("boolfn.BooleanFunction.derivative"),
        "boolfn.io_s": _outermost(
            spans, {"boolfn.BooleanFunction.save", "boolfn.BooleanFunction.load"}),
        "boolfn.io_bytes": sum(notes("boolfn.BooleanFunction.save", "bytes"))
        + sum(notes("boolfn.BooleanFunction.load", "bytes")),
        "worked_examples.run_example_s": _outermost(spans, {"worked_examples.run_example"}),
        "cli.self_s": sum(own[i] for i, span in enumerate(spans) if span.parent is None),
    })
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = sum(
            1 for span in spans if span.error and span.name.startswith(layer + "."))
    metrics["cli.errors"] = sum(1 for result in results if result.exit_code != 0)
    return metrics
