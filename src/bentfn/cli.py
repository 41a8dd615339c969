"""Command-line front end: analyze functions, generate families, verify, and
reproduce the bundled worked examples.

Exit codes: 0 success, 2 input error, 3 generation precondition failure,
4 verification failure, 5 worked-example mismatch.
"""

from __future__ import annotations

import datetime
import json
import re
import sys
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
    ConditionViolation,
    DerivativeNotConstant,
    InvalidExponentSet,
    NotNearBent,
)
from .gf2m import FieldContext
from .spectrum import walsh
from .tracerep import parse, to_trace_form
from .tvr import join, split
from .worked_examples import EXAMPLES, run_collision_demo, run_example

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


def _trace_form_entry(fn: BooleanFunction, ctx: FieldContext) -> dict:
    return to_trace_form(fn, ctx).as_dict(ctx)


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


@click.group()
@click.version_option(__version__)
def main():
    """Bent/near-bent function toolkit with exact integer arithmetic."""


def _resolve_input(dim, expr, expr_pair, table, poly):
    """Returns (function, component_ctx, parse_ctx_or_None, descriptor)."""
    given = [x for x in (expr, expr_pair, table) if x]
    if len(given) != 1:
        raise click.UsageError("give exactly one of --expr, --expr-pair, --table")
    if table:
        fn = BooleanFunction.load(table)
        descriptor = {"kind": "table", "path": str(table)}
        dim = fn.m
    elif expr_pair:
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
        fn = join(f0, f1)
        descriptor = {"kind": "expr-pair", "f0": expr_pair[0], "f1": expr_pair[1]}
        return fn, ctx, ctx, descriptor
    else:
        if dim is None:
            raise click.UsageError("--dim is required with --expr")
        ctx = _field(dim, poly)
        fn = parse(expr, ctx)
        descriptor = {"kind": "expr", "expr": expr}
        if dim % 2 == 0:
            return fn, _field(dim - 1, poly), ctx, descriptor
        return fn, ctx, ctx, descriptor
    # table path: the component field carries any trace-form analysis
    if fn.m % 2 == 0:
        return fn, _field(fn.m - 1, poly), None, descriptor
    return fn, _field(fn.m, poly), None, descriptor


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
    try:
        fn, ctx, parse_ctx, descriptor = _resolve_input(dim, expr, expr_pair, table, poly)
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
            pair = split(fn, ctx)
            flags = condition_flags(fn, ctx)
            payload["condition_flags"] = flags.as_dict()
            payload["components"] = {
                "f0": _trace_form_entry(pair.f0, ctx),
                "f1": _trace_form_entry(pair.f1, ctx),
            }
        else:
            payload["trace_form"] = _trace_form_entry(fn, ctx)
        suite = None
        if checks and fn.m % 2 == 0:
            suite = verify_function(fn, ctx)
            payload["checks"] = suite.as_dict()
    except (BentfnError, ValueError, click.UsageError) as exc:
        _input_error(exc)

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


def _input_error(exc):
    if isinstance(exc, click.UsageError):
        raise exc
    click.echo(f"error: {exc}", err=True)
    sys.exit(2)


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
    pair = split(F, ctx)
    payload = {
        "family": family,
        **params,
        "field": _field_descriptor(ctx),
        "dimension": F.m,
        "classification": walsh(F).classification.value,
        "weight": F.weight(),
        "degree": F.degree(),
        "f0_trace_form": _trace_form_entry(pair.f0, ctx),
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
    try:
        d, branch = kasami_welch_exponent(t, s)
        ctx = _field(2 * t - 1, poly)
        F = kasami_welch(t, s, ctx)
    except ConditionViolation as exc:
        click.echo(f"condition violated: {exc}", err=True)
        sys.exit(3)
    except (BentfnError, ValueError) as exc:
        _input_error(exc)
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
    try:
        if t < 2:
            raise ConditionViolation(f"t must be at least 2, got {t}")
        ctx = _field(2 * t - 1, poly)
        F = quadratic_family(t, J, ctx)
    except (ConditionViolation, InvalidExponentSet, NotNearBent) as exc:
        click.echo(f"condition violated: {exc}", err=True)
        sys.exit(3)
    except (BentfnError, ValueError) as exc:
        _input_error(exc)
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
    try:
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
    except (BentfnError, ValueError, click.UsageError) as exc:
        _input_error(exc)
    try:
        if normalize:
            f0 = normalize_near_bent(f0, ctx)
        pack = six_pack(f0, ctx)
    except (NotNearBent, DerivativeNotConstant, ConditionViolation) as exc:
        click.echo(f"precondition failed: {exc}", err=True)
        sys.exit(3)

    # one interpolation per distinct table: the seed is base.f0, and
    # pseudo-dual components repeat
    forms = {}

    def trace_form(fn):
        key = fn.table.tobytes()
        if key not in forms:
            forms[key] = _trace_form_entry(fn, ctx)
        return forms[key]

    out_dir = Path(out)
    entries = {}
    for label, fn in pack.labeled().items():
        path = out_dir / f"{prefix}_{label}.bf"
        fn.save(path)
        pair = split(fn, ctx)
        entries[label] = {
            "file": str(path),
            "f0_trace_form": trace_form(pair.f0),
            "f1_trace_form": trace_form(pair.f1),
            "table_hex": fn.table_hex(),
        }
    exact = pack.coincidence_classes()
    reduced = pack.coincidence_classes(modulo_structural_forms=True)
    payload = {
        "field": _field_descriptor(ctx),
        "seed_trace_form": trace_form(f0),
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
    try:
        fn, ctx, _, descriptor = _resolve_input(dim, None, expr_pair, table, poly)
        if fn.m % 2:
            raise click.UsageError("verification needs an even-dimensional function")
        suite = verify_function(fn, ctx)
    except (BentfnError, ValueError, click.UsageError) as exc:
        _input_error(exc)
    if as_json:
        click.echo(_json_out({"input": descriptor, "field": _field_descriptor(ctx),
                              **suite.as_dict()}, timestamps))
    else:
        _echo_suite(suite)
    if not suite.passed:
        sys.exit(4)


@main.command()
@click.option("--only", type=str, help="run only catalogue ids containing this substring")
@click.option("--json", "as_json", is_flag=True)
@click.option("--timestamps", is_flag=True)
def examples(only, as_json, timestamps):
    """Reproduce the bundled worked examples; exit 5 on any mismatch."""
    results = []
    for ex in EXAMPLES:
        if only and only not in ex.example_id:
            continue
        results.append(run_example(ex))
    if not only or only in "pseudo-dual-collision":
        results.append(run_collision_demo())
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
