"""Command-line front end: analyze functions, generate families, verify, and
reproduce the bundled worked examples.

Exit codes, with the stderr line of a failure (``_EXIT_CODES`` maps exceptions):
0 success; 2 input error, "error: ..." (an output that cannot be written is one);
3 precondition failure, "precondition failed: ..."; 4 verification failure,
"verification failed: ..." (also ``verify`` when a check fails); 5 worked-example
mismatch (``examples``).
"""

from __future__ import annotations

import datetime
import errno
import json
import logging
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import click

from . import __version__
from .boolfn import BooleanFunction
from .constructions import (
    ConditionFlags,
    condition_flags,
    kasami_welch,
    kasami_welch_exponent,
    normalize_near_bent,
    quadratic_family,
    six_pack,
    verify_function,
)
from .errors import (
    BentfnError,
    BentVerificationFailed,
    ConditionViolation,
    DerivativeNotConstant,
    InvalidExponentSet,
    NotBent,
    NotNearBent,
    OddDimension,
)
from .gf2m import MAX_DIMENSION, FieldContext
from .spectrum import walsh
from .tracerep import parse, to_trace_form, trace_forms
from .tvr import join, split
from .worked_examples import run_all

def _parse_poly(text: str) -> int:
    """Accepts 0x-hex, decimal, or x-notation like x^7+x+1."""
    text = text.strip()
    if re.fullmatch(r"0[xX][0-9a-fA-F]+|\d+", text):
        return int(text, 0)
    mask = 0
    for term in text.replace(" ", "").split("+"):
        if term == "1":
            mask ^= 1
        elif term == "x":
            mask ^= 2
        elif re.fullmatch(r"x\^\d+", term):
            if int(term[2:]) > MAX_DIMENSION:
                raise click.UsageError(f"polynomial term {term!r} is above degree {MAX_DIMENSION}")
            mask ^= 1 << int(term[2:])
        else:
            raise click.UsageError(f"cannot parse polynomial term {term!r}")
    return mask


def _field(m: int, poly: str | None) -> FieldContext:
    return FieldContext(m, _parse_poly(poly) if poly else None)


def _json_out(payload: dict, timestamps: bool) -> str:
    payload = dict(payload)
    payload["schema"] = 1
    payload["tool_version"] = __version__
    if timestamps:
        payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return json.dumps(payload, sort_keys=True, indent=2)


def _field_descriptor(ctx: FieldContext) -> dict:
    return {"m": ctx.m, "primitive_poly": f"0x{ctx.primitive_poly:x}"}


def _flags_text(flags: ConditionFlags) -> list[str]:
    lines = []
    if flags.xi is not None:
        lines.append(f"trace condition:     yes (xi={flags.xi})")
    else:
        lines.append(
            "trace condition:     no "
            f"(distance {flags.dist_to_tr} from tr, {flags.dist_to_tr_plus_one} from tr+1)"
        )
    if flags.d1_f0 is None:
        lines.append("unit derivative f0:  not constant")
    else:
        lines.append(f"unit derivative f0:  constant {flags.d1_f0}"
                     + ("  (zero-derivative condition holds)" if flags.has_C else ""))
    return lines


#: (failure kinds, exit code, stderr prefix); the first row that matches wins,
#: and the last row's kinds cover all the others
_EXIT_CODES = (
    ((NotNearBent, DerivativeNotConstant, ConditionViolation, InvalidExponentSet),
     3, "precondition failed"),
    ((BentVerificationFailed, NotBent), 4, "verification failed"),
    ((BentfnError, ValueError, OSError), 2, "error"),
)


class _Cli(click.Group):
    """Ends a command's failure in its exit code from ``_EXIT_CODES``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:  # a closed stdout is click's to handle
            raise
        except _EXIT_CODES[-1][0] as exc:
            code, prefix = next((code, prefix) for kinds, code, prefix in _EXIT_CODES
                                if isinstance(exc, kinds))
            click.echo(f"{prefix}: {exc}", err=True)
            sys.exit(code)


class _EchoHandler(logging.Handler):
    """Writes each record to the standard error in use at the time."""

    def emit(self, record):
        click.echo(self.format(record), err=True)


_LOG_HANDLER = _EchoHandler()
_LOG_HANDLER.setFormatter(logging.Formatter("%(name)s: %(message)s"))


@click.group(cls=_Cli)
@click.version_option(__version__)
@click.option("-v", "--verbose", is_flag=True,
              help="Log debug messages of the bentfn.* loggers to stderr.")
def main(verbose):
    """Bent/near-bent function toolkit with exact integer arithmetic."""
    if verbose:
        log = logging.getLogger("bentfn")
        level = log.level

        def restore():  # so a later call in the same process is quiet again
            log.removeHandler(_LOG_HANDLER)
            log.setLevel(level)

        log.addHandler(_LOG_HANDLER)
        log.setLevel(logging.DEBUG)
        click.get_current_context().call_on_close(restore)


def _resolve_input(dim, expr, expr_pair, table, poly):
    """Returns (function, component_ctx, descriptor); ``poly`` names component_ctx."""
    given = [x for x in (expr, expr_pair, table) if x]
    if len(given) != 1:
        raise click.UsageError("give exactly one of --expr, --expr-pair, --table")
    if table:
        fn = BooleanFunction.load(table)
        ctx = _field(fn.m if fn.m % 2 else fn.m - 1, poly)
        return fn, ctx, {"kind": "table", "path": str(table)}
    if expr_pair:
        if dim is None:
            raise click.UsageError("--dim is required with --expr-pair")
        if dim % 2 or dim < 4:
            raise click.UsageError("--expr-pair needs an even dimension of at least 4")
        ctx = _field(dim - 1, poly)
        f0 = parse(expr_pair[0], ctx)
        second = expr_pair[1]
        if second.startswith("+"):
            f1 = f0 + parse(second[1:], ctx)
        else:
            f1 = parse(second, ctx)
        return join(f0, f1), ctx, {"kind": "expr-pair", "f0": expr_pair[0], "f1": expr_pair[1]}
    if dim is None:
        raise click.UsageError("--dim is required with --expr")
    if dim % 2 == 0 and poly:
        raise click.UsageError(f"--poly cannot name both GF(2^{dim}), where an even-dimensional "
                               f"--expr is parsed, and GF(2^{dim - 1}); use --expr-pair or --table")
    ctx = _field(dim, poly)
    fn = parse(expr, ctx)
    if dim % 2 == 0:
        ctx = FieldContext(dim - 1)
    return fn, ctx, {"kind": "expr", "expr": expr}


@main.command()
@click.option("--dim", "-m", type=int, help="dimension of the function")
@click.option("--expr", type=str, help="trace expression, e.g. 'tr(x^13)'")
@click.option("--expr-pair", nargs=2, type=str,
              help="two component expressions; the second may start with '+' "
                   "to mean f1 = f0 + suffix")
@click.option("--table", type=click.Path(exists=True, dir_okay=False),
              help="truth-table file")
@click.option("--poly", type=str, help="primitive polynomial (hex, decimal, or x-notation)")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@click.option("--full-spectrum", is_flag=True, help="include all Walsh coefficients")
@click.option("--checks", is_flag=True, help="run every applicable verification")
@click.option("--timestamps", is_flag=True, help="include a generation timestamp in JSON")
def analyze(dim, expr, expr_pair, table, poly, as_json, full_spectrum, checks, timestamps):
    """Classify a function and report weight, degree, spectrum, and trace forms."""
    fn, ctx, descriptor = _resolve_input(dim, expr, expr_pair, table, poly)
    if checks and fn.m % 2:
        raise OddDimension(f"--checks needs an even-dimensional function, got dimension {fn.m}")
    spectrum = walsh(fn)
    payload = {
        "input": descriptor,
        "dimension": fn.m,
        "field": _field_descriptor(ctx),
        "weight": fn.weight(),
        "degree": fn.degree(),
        "balanced": fn.is_balanced(),
        "classification": spectrum.classification.value,
        "spectrum": {"histogram": {str(k): v for k, v in sorted(spectrum.histogram.items())}},
        "table_hex": fn.table_hex(),
    }
    if full_spectrum:
        payload["spectrum"]["coefficients"] = [int(c) for c in spectrum.coeffs]
    if fn.m % 2 == 0:
        flags = condition_flags(fn, ctx)
        payload["condition_flags"] = flags.as_dict()
        forms = trace_forms(split(fn), ctx)
        payload["components"] = {
            "f0": forms[0].as_dict(ctx),
            "f1": forms[1].as_dict(ctx),
        }
    else:
        payload["trace_form"] = to_trace_form(fn, ctx).as_dict(ctx)
    suite = None
    if checks:
        suite = verify_function(fn, ctx)
        payload["checks"] = suite.as_dict()
    if as_json:
        click.echo(_json_out(payload, timestamps))
        return
    click.echo(f"input:          {descriptor}")
    click.echo(f"dimension:      {fn.m}")
    click.echo(f"field:          m={ctx.m}, poly=0x{ctx.primitive_poly:x}")
    click.echo(f"weight:         {payload['weight']}")
    click.echo(f"degree:         {payload['degree']}")
    click.echo(f"classification: {payload['classification']}")
    click.echo(f"spectrum:       {dict(sorted(spectrum.histogram.items()))}")
    if fn.m % 2 == 0:
        for line in _flags_text(flags):
            click.echo(line)
        click.echo(f"f0 trace form:  {payload['components']['f0']['text']}")
        click.echo(f"f1 trace form:  {payload['components']['f1']['text']}")
    else:
        click.echo(f"trace form:     {payload['trace_form']['text']}")
    if suite is not None:
        _echo_suite(suite)


def _echo_suite(suite):
    for report in suite.reports:
        status = "PASS" if report.passed else "FAIL"
        click.echo(f"check {report.name}: {status}")
        for item in report.items:
            if not item.passed:
                where = f" witness={item.witness}" if item.witness is not None else ""
                detail = f" ({item.detail})" if item.detail else ""
                click.echo(f"  failed: {item.name}{where}{detail}")
    for skip in suite.skipped:
        click.echo(f"check {skip.name}: SKIP ({skip.reason})")


@main.group()
def generate():
    """Generate a bent function from a parametric family."""


def _emit_generated(F, ctx, family, params, out, as_json, timestamps, filename):
    path = Path(out) / filename
    F.save(path)
    f0, _ = split(F)
    payload = {
        "family": family,
        **params,
        "field": _field_descriptor(ctx),
        "dimension": F.m,
        "classification": walsh(F).classification.value,
        "weight": F.weight(),
        "degree": F.degree(),
        "f0_trace_form": to_trace_form(f0, ctx).as_dict(ctx),
        "table_hex": F.table_hex(),
        "file": str(path),
    }
    if as_json:
        click.echo(_json_out(payload, timestamps))
    else:
        click.echo(f"family:         {family} {params}")
        click.echo(f"field:          m={ctx.m}, poly=0x{ctx.primitive_poly:x}")
        click.echo(f"classification: {payload['classification']}")
        click.echo(f"degree:         {payload['degree']}")
        click.echo(f"f0 trace form:  {payload['f0_trace_form']['text']}")
        click.echo(f"wrote:          {path}")


@generate.command("kasami-welch")
@click.option("--t", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--poly", type=str)
@click.option("--out", type=click.Path(file_okay=False, exists=True), default=".")
@click.option("--json", "as_json", is_flag=True)
@click.option("--timestamps", is_flag=True)
def generate_kasami_welch(t, s, poly, out, as_json, timestamps):
    """Join tr(x^d) with tr(x^d)+tr(x) for the exponent d = 4^s - 2^s + 1."""
    if t < 2:
        raise ConditionViolation(f"t must be at least 2, got {t}")
    ctx = _field(2 * t - 1, poly)  # before 4^s is formed from a huge s
    d, branch = kasami_welch_exponent(t, s)
    F = kasami_welch(t, s, ctx)
    _emit_generated(
        F, ctx, "kasami-welch",
        {"t": t, "s": s, "exponent": d, "congruence_branch": branch},
        out, as_json, timestamps, f"kasami_welch_t{t}_s{s}.bf",
    )


@generate.command("quadratic")
@click.option("--t", type=int, required=True)
@click.option("--j", "--J", "j_set", type=str, required=True,
              help="comma-separated exponent indices, e.g. 1,3")
@click.option("--poly", type=str)
@click.option("--out", type=click.Path(file_okay=False, exists=True), default=".")
@click.option("--json", "as_json", is_flag=True)
@click.option("--timestamps", is_flag=True)
def generate_quadratic(t, j_set, poly, out, as_json, timestamps):
    """Join the quadratic seed sum of tr(x^(2^j+1)), j in J, with itself plus tr."""
    try:
        J = [int(part) for part in j_set.split(",") if part.strip() != ""]
    except ValueError:
        raise click.UsageError(f"cannot parse exponent set {j_set!r}")
    if t < 2:
        raise ConditionViolation(f"t must be at least 2, got {t}")
    ctx = _field(2 * t - 1, poly)
    F = quadratic_family(t, J, ctx)
    label = "-".join(str(j) for j in sorted(set(J)))
    _emit_generated(
        F, ctx, "quadratic", {"t": t, "J": sorted(set(J))},
        out, as_json, timestamps, f"quadratic_t{t}_J{label}.bf",
    )


@main.command()
@click.option("--dim", "-m", type=int, help="component dimension (odd)")
@click.option("--expr", type=str, help="trace expression for the near-bent seed")
@click.option("--table", type=click.Path(exists=True, dir_okay=False),
              help="truth-table file holding the seed")
@click.option("--normalize", is_flag=True,
              help="first replace the seed by its normalized form "
                   "(zero unit derivative, zero at zero)")
@click.option("--poly", type=str)
@click.option("--out", type=click.Path(file_okay=False, exists=True), default=".")
@click.option("--prefix", type=str, default="sixpack")
@click.option("--json", "as_json", is_flag=True)
@click.option("--timestamps", is_flag=True)
def sixpack(dim, expr, table, normalize, poly, out, prefix, as_json, timestamps):
    """Construct the six bent functions grown from a qualifying near-bent seed."""
    if (expr is None) == (table is None):
        raise click.UsageError("give exactly one of --expr, --table")
    if table:
        f0 = BooleanFunction.load(table)
        ctx = _field(f0.m, poly)
    else:
        if dim is None:
            raise click.UsageError("--dim is required with --expr")
        ctx = _field(dim, poly)
        f0 = parse(expr, ctx)
    if normalize:
        f0 = normalize_near_bent(f0, ctx)
    pack = six_pack(f0, ctx)
    labeled = pack.labeled()
    components = []
    for fn in labeled.values():
        components += split(fn)
    seed_form, *forms = [form.as_dict(ctx) for form in trace_forms([f0, *components], ctx)]
    files = {Path(out) / f"{prefix}_{label}.bf": fn for label, fn in labeled.items()}
    _save_all(files)
    entries = {}
    for i, ((label, fn), path) in enumerate(zip(labeled.items(), files)):
        entries[label] = {
            "file": str(path),
            "f0_trace_form": forms[2 * i],
            "f1_trace_form": forms[2 * i + 1],
            "table_hex": fn.table_hex(),
        }
    exact = pack.coincidence_classes()
    reduced = pack.coincidence_classes(modulo_structural_forms=True)
    payload = {
        "field": _field_descriptor(ctx),
        "seed_trace_form": seed_form,
        "functions": entries,
        "coincidence_classes": {"exact": exact, "modulo_structural_forms": reduced},
    }
    if as_json:
        click.echo(_json_out(payload, timestamps))
        return
    click.echo(f"seed:  {payload['seed_trace_form']['text']}  (m={ctx.m})")
    for label in pack.LABELS:
        click.echo(f"{label:13s} f0: {entries[label]['f0_trace_form']['text']}")
    click.echo(f"coincidence classes (exact):            {_classes_text(exact)}")
    click.echo(f"coincidence classes (modulo nu and tr): {_classes_text(reduced)}")


def _save_all(files: dict[Path, BooleanFunction]) -> None:
    """Writes every file or none.  The tables go to a staging directory beside
    their targets, under the targets' own names, so a name that cannot be
    written fails before any target is touched; they are moved into place only
    once all are written and no target is a directory."""
    (parent,) = {path.parent for path in files}
    staging = Path(tempfile.mkdtemp(prefix=".bentfn-", dir=parent))
    try:
        for path, fn in files.items():
            fn.save(staging / path.name)
        for path in files:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path in files:
            os.replace(staging / path.name, path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _classes_text(classes):
    if len(classes) == 1:
        return "all six identical"
    return " ".join("[" + ", ".join(group) + "]" for group in classes)


@main.command()
@click.option("--dim", "-m", type=int, help="dimension of the function (even)")
@click.option("--expr-pair", nargs=2, type=str)
@click.option("--table", type=click.Path(exists=True, dir_okay=False))
@click.option("--poly", type=str)
@click.option("--json", "as_json", is_flag=True)
@click.option("--timestamps", is_flag=True)
def verify(dim, expr_pair, table, poly, as_json, timestamps):
    """Run every applicable checker on a bent function; exit 4 on any failure."""
    fn, ctx, descriptor = _resolve_input(dim, None, expr_pair, table, poly)
    if fn.m % 2:
        raise click.UsageError("verification needs an even-dimensional function")
    suite = verify_function(fn, ctx)
    if as_json:
        click.echo(_json_out({"input": descriptor, "field": _field_descriptor(ctx),
                              **suite.as_dict()}, timestamps))
    else:
        _echo_suite(suite)
    if not suite.passed:
        sys.exit(4)


@main.command()
@click.option("--only", default="", help="run only catalogue ids containing this substring")
@click.option("--json", "as_json", is_flag=True)
@click.option("--timestamps", is_flag=True)
def examples(only, as_json, timestamps):
    """Reproduce the bundled worked examples; exit 5 on any mismatch."""
    results = run_all(only)
    if not results:
        raise click.UsageError(f"no catalogue entry matches {only!r}")
    if as_json:
        click.echo(_json_out({"results": [r.as_dict() for r in results]}, timestamps))
    else:
        for result in results:
            ok = sum(1 for c in result.checks if c.passed)
            status = "PASS" if result.passed else "FAIL"
            click.echo(
                f"{result.example_id:32s} {ok:2d}/{len(result.checks):2d} checks  "
                f"{status}  {result.duration:.3f}s"
            )
            for c in result.checks:
                if not c.passed:
                    click.echo(f"    failed: {c.name} {c.detail}")
    if not all(result.passed for result in results):
        sys.exit(5)


if __name__ == "__main__":
    main()
