"""Seeded job generators for the three benchmark workloads.

A workload is a list of passes; a pass is a fixed mix of CLI jobs whose
inputs come from ``random.Random`` seeded with the workload name, the run seed
and the pass index, so the same seed always yields the same argv and files.
Seeds are filtered here, outside any timed region, with the library itself:
near-bent, and with a constant unit derivative where ``sixpack`` needs one.

The mix inside a pass is fixed and only the inputs vary with the seed.  That
keeps every quantile of the job times inside one job type's block of the
sorted sample (see ``PASS_MIX``), so the medians do not jump between types
from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from bentfn import (
    BooleanFunction,
    Classification,
    FieldContext,
    ParseError,
    join,
    parse,
    walsh,
)

# Kasami-Welch seeds tr(x^d), d = 4^s - 2^s + 1, for the (m, s) the generator
# uses: m = 2t - 1 with 3s = +-1 mod m.
KASAMI_WELCH_EXPONENT = {7: 13, 19: 4033}

# The documented exit codes of the CLI (see bentfn.cli).
EXIT_OK, EXIT_INPUT, EXIT_PRECONDITION, EXIT_VERIFY = 0, 2, 3, 4

@dataclass
class Job:
    """One CLI command with its inputs and what its output must show.

    ``argv`` may contain ``{dir}``, the job's own directory; ``inputs`` are
    truth-table files written there before the job starts.  ``props`` tags
    the job with the input properties whose shares the run reports.
    """

    kind: str
    argv: list[str]
    expect: dict
    inputs: dict[str, BooleanFunction] = field(default_factory=dict)
    props: dict = field(default_factory=dict)


#: Known defects: invalid inputs whose exit code differs from the documented
#: one at this commit.  Each is run and checked once per benchmark run,
#: outside the job mix, and the outcome is printed (see run.py).
KNOWN_DEFECTS = (
    Job("invalid", ["generate", "quadratic", "--t", "1", "--j", "1", "--out", "{dir}"],
        {"exit_code": EXIT_PRECONDITION},
        props={"defect": "t=1 builds GF(2^1) before the precondition check, which exits 2"}),
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def unit_derivative_constant(table: np.ndarray) -> int | None:
    """The constant value of x -> f(x) + f(x + 1), or None; computed directly."""
    d = table ^ table[np.arange(table.size) ^ 1]
    return int(d[0]) if bool((d == d[0]).all()) else None


class Generator:
    """Builds passes of jobs; keeps one FieldContext per dimension it needs."""

    def __init__(self, workload: str, seed: int):
        if workload not in PASS_MIX:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._fields: dict[int, FieldContext] = {}

    def field(self, m: int) -> FieldContext:
        if m not in self._fields:
            self._fields[m] = FieldContext(m)
        return self._fields[m]

    def make_pass(self, index: int) -> list[Job]:
        rng = random.Random(f"{self.workload}/{self.seed}/{index}")
        jobs = []
        for kind, count in PASS_MIX[self.workload]:
            for i in range(count):
                # slot alternates the categorical properties, so their shares
                # are the same for every seed
                job = MAKERS[kind](self, rng, index * count + i)
                job.props["type"] = kind
                jobs.append(job)
        rng.shuffle(jobs)
        return jobs

    # -- seeds -------------------------------------------------------------

    def quadratic_seed(self, rng: random.Random, m: int, general_linear: bool = False):
        """A near-bent seed sum tr(x^(2^j+1)) + tr(a*x) + c with constant unit derivative.

        Returns (expression or None, function, J).  With ``general_linear`` the
        coefficient a ranges over the whole field, which trace notation with
        binary coefficients cannot write, so the seed travels as a table file.
        """
        ctx = self.field(m)
        half = (m - 1) // 2
        for _ in range(200):
            J = sorted(rng.sample(range(1, half + 1), rng.randint(1, half)))
            a = rng.randrange(2, ctx.order) if general_linear else rng.randrange(2)
            c = rng.randrange(2)
            monomials = [f"x^{(1 << j) + 1}" for j in J]
            if a == 1:
                monomials.append("x")
            expr = f"tr({'+'.join(monomials)})" + ("+1" if c else "")
            f0 = parse(expr, ctx)
            if general_linear:
                f0 = f0.add_linear_form(ctx, a)
                expr = None
            if (walsh(f0).classification is Classification.NEAR_BENT
                    and f0.derivative(1).is_constant() is not None):
                return expr, f0, J
        raise RuntimeError(f"no near-bent quadratic seed found at m={m}")

    def kasami_welch_seed(self, rng: random.Random, m: int):
        ctx = self.field(m)
        linear = "+x" if rng.randrange(2) else ""
        expr = f"tr(x^{KASAMI_WELCH_EXPONENT[m]}{linear})" + ("+1" if rng.randrange(2) else "")
        f0 = parse(expr, ctx)
        if walsh(f0).classification is not Classification.NEAR_BENT:
            raise RuntimeError(f"Kasami-Welch seed {expr} is not near-bent at m={m}")
        return expr, f0

    # -- jobs --------------------------------------------------------------

    def sixpack(self, rng: random.Random, m: int, slot: int) -> Job:
        as_table = slot % 2 == 1
        expr, f0, _ = self.quadratic_seed(rng, m, general_linear=as_table)
        argv = ["sixpack", "--json", "--out", "{dir}"]
        inputs = {}
        if as_table:
            inputs["seed.bf"] = f0
            argv += ["--table", "{dir}/seed.bf"]
        else:
            argv += ["--dim", str(m), "--expr", expr]
        return Job("sixpack", argv, {"m": m, "seed": f0.table}, inputs,
                   {"m": m, "family": "quadratic", "input": "table" if as_table else "expr"})

    def pair_job(self, rng: random.Random, command: str, m: int, family: str, xi: int) -> Job:
        """``verify`` or ``analyze --checks`` on join(f0, f0 + tr + xi)."""
        if family == "kasami-welch":
            expr, f0 = self.kasami_welch_seed(rng, m)
        else:
            expr, f0, _ = self.quadratic_seed(rng, m)
        second = "+tr(x)+1" if xi else "+tr(x)"
        argv = [command, "--json", "--dim", str(m + 1), "--expr-pair", expr, second]
        if command == "analyze":
            argv.insert(1, "--checks")
        expect = {"m": m, "xi": xi, "d1": unit_derivative_constant(f0.table), "seed": f0.table}
        return Job(command, argv, expect, props={"m": m, "family": family, "xi": xi})

    def generate_quadratic(self, rng: random.Random, t: int) -> Job:
        m = 2 * t - 1
        _, _, J = self.quadratic_seed(rng, m)
        f0 = parse("tr(" + "+".join(f"x^{(1 << j) + 1}" for j in J) + ")", self.field(m))
        argv = ["generate", "quadratic", "--t", str(t), "--j", ",".join(map(str, J)),
                "--json", "--out", "{dir}"]
        return Job("generate", argv, {"m": m, "seed": f0.table},
                   props={"m": m, "family": "quadratic"})

    def generate_kasami_welch(self, rng: random.Random) -> Job:
        m = 7
        f0 = parse(f"tr(x^{KASAMI_WELCH_EXPONENT[m]})", self.field(m))
        argv = ["generate", "kasami-welch", "--t", "4", "--s", "2", "--json", "--out", "{dir}"]
        return Job("generate", argv, {"m": m, "seed": f0.table},
                   props={"m": m, "family": "kasami-welch"})

    def invalid(self, rng: random.Random, slot: int) -> Job:
        """An input the CLI must refuse with its documented exit code."""
        kind = INVALID_KINDS[slot % len(INVALID_KINDS)]
        if kind == "kasami-welch-condition":
            t, s = rng.choice([(5, 1), (5, 2), (5, 3), (5, 4), (4, 1), (4, 3)])
            argv = ["generate", "kasami-welch", "--t", str(t), "--s", str(s), "--out", "{dir}"]
            code = EXIT_PRECONDITION
        elif kind == "quadratic-not-near-bent":
            J = rng.choice(_not_near_bent_sets(self, 9))
            argv = ["generate", "quadratic", "--t", "5", "--j", ",".join(map(str, J)),
                    "--out", "{dir}"]
            code = EXIT_PRECONDITION
        elif kind == "parse-error":
            expr, _, _ = self.quadratic_seed(rng, 7)
            cut = rng.randrange(1, len(expr))
            while _parses(expr[:cut], self.field(7)):
                cut = rng.randrange(1, len(expr))
            argv = ["analyze", "--dim", "8", "--expr-pair", expr[:cut], "+tr(x)"]
            code = EXIT_INPUT
        elif kind == "sixpack-derivative-not-constant":
            expr, f0 = self.kasami_welch_seed(rng, 7)
            if f0.derivative(1).is_constant() is not None:
                raise RuntimeError(f"{expr} has a constant unit derivative")
            argv = ["sixpack", "--dim", "7", "--expr", expr, "--out", "{dir}"]
            code = EXIT_PRECONDITION
        elif kind == "verify-not-bent":
            offset = parse("tr(x^3)", self.field(7))
            while True:
                expr, f0, _ = self.quadratic_seed(rng, 7)
                if walsh(join(f0, f0 + offset)).classification is not Classification.BENT:
                    break
            argv = ["verify", "--dim", "8", "--expr-pair", expr, "+tr(x^3)"]
            code = EXIT_VERIFY
        else:  # dimension-out-of-range
            argv = ["analyze", "--dim", str(rng.randrange(25, 41)), "--expr", "tr(x)"]
            code = EXIT_INPUT
        return Job("invalid", argv, {"exit_code": code}, props={"invalid": kind})


INVALID_KINDS = (
    "kasami-welch-condition",
    "quadratic-not-near-bent",
    "parse-error",
    "sixpack-derivative-not-constant",
    "verify-not-bent",
    "dimension-out-of-range",
)


def _parses(expr: str, ctx: FieldContext) -> bool:
    try:
        parse(expr, ctx)
    except ParseError:
        return False
    return True


def _not_near_bent_sets(gen: Generator, m: int) -> list[list[int]]:
    ctx = gen.field(m)
    half = (m - 1) // 2
    out = []
    for mask in range(1, 1 << half):
        J = [j + 1 for j in range(half) if mask >> j & 1]
        f0 = parse("tr(" + "+".join(f"x^{(1 << j) + 1}" for j in J) + ")", ctx)
        if walsh(f0).classification is not Classification.NEAR_BENT:
            out.append(J)
    return out


# Job makers by type: (generator, rng, slot) -> Job.
MAKERS = {
    "sixpack-m11": lambda g, r, k: g.sixpack(r, 11, k),
    "sixpack-m13": lambda g, r, k: g.sixpack(r, 13, k),
    "sixpack-m7": lambda g, r, k: g.sixpack(r, 7, k),
    "sixpack-m9": lambda g, r, k: g.sixpack(r, 9, k),
    "verify-quadratic-xi0": lambda g, r, k: g.pair_job(r, "verify", 19, "quadratic", 0),
    "verify-quadratic-xi1": lambda g, r, k: g.pair_job(r, "verify", 19, "quadratic", 1),
    "verify-kasami-welch-xi0": lambda g, r, k: g.pair_job(r, "verify", 19, "kasami-welch", 0),
    "verify-kasami-welch-xi1": lambda g, r, k: g.pair_job(r, "verify", 19, "kasami-welch", 1),
    "analyze-dim8-quadratic": lambda g, r, k: g.pair_job(r, "analyze", 7, "quadratic", k % 2),
    "analyze-dim8-kasami-welch": lambda g, r, k: g.pair_job(
        r, "analyze", 7, "kasami-welch", k % 2),
    "analyze-dim10": lambda g, r, k: g.pair_job(r, "analyze", 9, "quadratic", k % 2),
    "generate-quadratic-t4": lambda g, r, k: g.generate_quadratic(r, 4),
    "generate-quadratic-t5": lambda g, r, k: g.generate_quadratic(r, 5),
    "generate-kasami-welch-t4": lambda g, r, k: g.generate_kasami_welch(r),
    "examples": lambda g, r, k: Job("examples", ["examples"], {}),
    "invalid": lambda g, r, k: g.invalid(r, k),
}

#: Jobs per pass, by type.  Why each workload exists:
#: - sixpack-trace: 13 trace-form interpolations per job make it the workload
#:   of the tracerep layer; m = 11 (2^11 - 1 composite) and m = 13 (prime) put a
#:   prime-length interpolation on both sides of its choice.  m = 13 jobs are
#:   1 in 9, so both medians fall inside the m = 11 block.
#: - verify-large: 15 FWHTs of 2^20 points and 6 duals per quadratic xi = 0
#:   job and no trace forms: the spectrum and gf2m workload, and the bypass
#:   for tracerep.  Both xi branches and both families run, so checks are run
#:   and skipped; the quadratic xi = 0 jobs, the slowest, are 5 in 8, so both
#:   medians fall in their block.
#: - catalogue-small: the same layers at tiny sizes, where fixed per-command
#:   cost dominates, plus invalid inputs on the error paths.  The median falls
#:   among the analyze jobs at dimension 8 and the 75th percentile among
#:   those at dimension 10; the invalid and generate jobs, the fastest,
#:   fill most of the bottom third.
PASS_MIX: dict[str, list[tuple[str, int]]] = {
    "sixpack-trace": [("sixpack-m11", 8), ("sixpack-m13", 1)],
    "verify-large": [
        ("verify-quadratic-xi0", 5),
        ("verify-kasami-welch-xi0", 1),
        ("verify-quadratic-xi1", 1),
        ("verify-kasami-welch-xi1", 1),
    ],
    "catalogue-small": [
        ("examples", 1),
        ("analyze-dim8-quadratic", 4),
        ("analyze-dim8-kasami-welch", 3),
        ("analyze-dim10", 7),
        ("sixpack-m7", 3),
        ("sixpack-m9", 2),
        ("generate-quadratic-t4", 3),
        ("generate-quadratic-t5", 3),
        ("generate-kasami-welch-t4", 2),
        ("invalid", 3),
    ],
}
