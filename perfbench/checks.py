"""Per-job output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the job's output
is correct.  Bentness is checked with a Walsh transform written here, not
with the library's ``walsh``, so a fault in the transform under test cannot
vouch for itself.
"""

from __future__ import annotations

import json

import numpy as np

from bentfn import BooleanFunction, FieldContext, TraceForm

# Checks that verify_function runs or skips by name (see its docstring in
# bentfn.constructions); bent-classification and component-derivative-pairing
# always run on a bent input.
_OPTIONAL_CHECKS = (
    "dual-unit-derivatives",
    "dual-support",
    "dual-component-sum",
    "pseudo-dual-conditions",
    "spectrum-zero-set-f0",
    "spectrum-zero-set-f1",
)


def is_bent(table: np.ndarray) -> bool:
    """Every Walsh coefficient of (-1)^F has magnitude 2^(n/2)."""
    n = table.size.bit_length() - 1
    if n % 2:
        return False
    values = 1 - 2 * table.astype(np.int64)
    h = 1
    while h < values.size:
        pairs = values.reshape(-1, 2, h)
        values = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]),
                          axis=1).reshape(-1)
        h *= 2
    return bool(np.all(np.abs(values) == 1 << (n // 2)))


def expected_checks(xi: int, d1: int | None) -> tuple[set[str], set[str]]:
    """(run, skipped) check names for a bent join(f0, f0 + tr + xi)."""
    run = {"bent-classification", "component-derivative-pairing", "pseudo-dual-conditions"}
    if xi == 0:
        run |= {"dual-unit-derivatives", "dual-support"}
        if d1 is not None:
            run.add("dual-component-sum")
    if d1 is not None:
        # D1(f0 + tr + xi) = D1 f0 + tr(1) = D1 f0 + 1: constant together
        run |= {"spectrum-zero-set-f0", "spectrum-zero-set-f1"}
    return run, set(_OPTIONAL_CHECKS) - run


class Checker:
    """Checks job results; keeps one FieldContext per dimension."""

    def __init__(self):
        self._fields: dict[int, FieldContext] = {}

    def field(self, m: int) -> FieldContext:
        if m not in self._fields:
            self._fields[m] = FieldContext(m)
        return self._fields[m]

    def check(self, job, result) -> list[str]:
        """Problems with one job's result (exit code, output, files)."""
        if result.exception is not None:
            return [f"uncaught {type(result.exception).__name__}: {result.exception}"]
        expected_code = job.expect.get("exit_code", 0)
        if result.exit_code != expected_code:
            return [f"exit code {result.exit_code}, documented {expected_code}: "
                    f"{result.stderr.strip()[:200]}"]
        if job.kind in ("invalid", "examples"):
            return []
        try:
            payload = json.loads(result.stdout)
            return getattr(self, f"_check_{job.kind}")(job, payload)
        except Exception as exc:  # a malformed output is a failed job, not a crash
            return [f"checker raised {type(exc).__name__}: {exc}"]

    def form_table(self, entry: dict, m: int) -> np.ndarray:
        """Truth table of a JSON trace-form entry, rebuilt as a TraceForm."""
        ctx = self.field(m)
        terms = {}
        for term in entry["terms"]:
            if "coeff_log" in term:
                terms[term["leader"]] = int(ctx.antilog_table[term["coeff_log"]])
            else:
                terms[term["leader"]] = int(term["coeff"])
        form = TraceForm(m, entry["constant"], terms, entry.get("top_coeff", 0))
        return form.evaluate(ctx).table

    def _check_sixpack(self, job, payload) -> list[str]:
        m, seed = job.expect["m"], job.expect["seed"]
        half = 1 << m
        problems = []
        if not np.array_equal(self.form_table(payload["seed_trace_form"], m), seed):
            problems.append("seed trace form does not evaluate to the seed")
        for label, entry in sorted(payload["functions"].items()):
            fn = BooleanFunction.load(entry["file"])
            if fn.m != m + 1 or fn.table_hex() != entry["table_hex"]:
                problems.append(f"{label}: file does not match table_hex")
                continue
            for part, table in (("f0", fn.table[:half]), ("f1", fn.table[half:])):
                if not np.array_equal(self.form_table(entry[f"{part}_trace_form"], m), table):
                    problems.append(f"{label}: {part} trace form does not evaluate to the file")
            if not is_bent(fn.table):
                problems.append(f"{label}: not bent")
        if len(payload["functions"]) != 6:
            problems.append(f"{len(payload['functions'])} functions, expected 6")
        base = BooleanFunction.load(payload["functions"]["base"]["file"]).table
        if not np.array_equal(base, np.concatenate([seed, seed ^ self.field(m).trace_table])):
            problems.append("base is not join(seed, seed + tr)")
        return problems

    def _check_suite(self, job, suite) -> list[str]:
        expect = job.expect
        problems = []
        if suite["passed"] is not True:
            problems.append("verification did not pass")
        flags = suite["condition_flags"]
        if flags["xi"] != expect["xi"] or flags["d1_f0"] != expect["d1"]:
            problems.append(f"flags xi={flags['xi']} d1_f0={flags['d1_f0']}, "
                            f"generated xi={expect['xi']} d1={expect['d1']}")
        run = {report["name"] for report in suite["checks"]}
        skipped = {skip["name"] for skip in suite["skipped"]}
        if (run, skipped) != expected_checks(expect["xi"], expect["d1"]):
            problems.append(f"ran {sorted(run)}, skipped {sorted(skipped)}")
        return problems

    _check_verify = _check_suite

    def _check_analyze(self, job, payload) -> list[str]:
        m, seed = job.expect["m"], job.expect["seed"]
        problems = self._check_suite(job, payload["checks"])
        if payload["classification"] != "bent":
            problems.append(f"classified {payload['classification']}")
        f1 = seed ^ self.field(m).trace_table ^ job.expect["xi"]
        for part, table in (("f0", seed), ("f1", f1)):
            if not np.array_equal(self.form_table(payload["components"][part], m), table):
                problems.append(f"{part} trace form does not evaluate to the component")
        return problems

    def _check_generate(self, job, payload) -> list[str]:
        m, seed = job.expect["m"], job.expect["seed"]
        table = BooleanFunction.load(payload["file"]).table
        problems = []
        if not np.array_equal(table, np.concatenate([seed, seed ^ self.field(m).trace_table])):
            problems.append("file is not join(f0, f0 + tr)")
        if not is_bent(table) or payload["classification"] != "bent":
            problems.append("not bent")
        if not np.array_equal(self.form_table(payload["f0_trace_form"], m), seed):
            problems.append("f0 trace form does not evaluate to f0")
        return problems
