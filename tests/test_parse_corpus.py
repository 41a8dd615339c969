"""A seeded corpus of trace expressions, each with what ``parse`` made of it:
the exception type, message and position, or the truth table.

The expressions come from the alphabet and the damage kinds of
test_cli_fuzz.py (none, truncate, garble, random), over a few more seed
expressions that reach the exponent edge cases, at m = 2..8.  The corpus file
pins the parser's behaviour byte for byte; regenerate it only on purpose:

    PYTHONPATH=src python tests/test_parse_corpus.py
"""

import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner

from bentfn.cli import main
from bentfn.errors import ParseError
from bentfn.gf2m import FieldContext
from bentfn.tracerep import parse

CORPUS = Path(__file__).parent / "data" / "parse_corpus.json"
SIZE = 5000

SEEDS = ("tr(x^3)", "tr(x^3+x^9)", "tr(x^13)", "tr(x)+1", "tr(x^5)", "x^7", "1",
         "tr(x^3)+tr(x)", "tr(x^0+1)", "x^0", "0", "tr(x^255+x^3)+x^15", "tr( x ^ 9 + 1 )")
GARBLE = "tr()x^+-019 "
RANDOM = "tr()x^+-0123456789 "


def expressions(rng: random.Random):
    """(m, expression) pairs, without repeats, in a fixed order."""
    seen = set()
    while len(seen) < SIZE:
        expr = rng.choice(SEEDS)
        damage = rng.choice(["none", "truncate", "garble", "random"])
        if damage == "truncate":
            expr = expr[: rng.randrange(len(expr))]
        elif damage == "garble":
            at = rng.randrange(len(expr) + 1)
            expr = expr[:at] + "".join(rng.choices(GARBLE, k=rng.randint(1, 4))) + expr[at:]
        elif damage == "random":
            expr = "".join(rng.choices(RANDOM, k=rng.randint(0, 16)))
        item = (rng.randint(2, 8), expr)
        if item not in seen:
            seen.add(item)
            yield item


def outcome(m: int, expr: str, ctx: FieldContext) -> dict:
    try:
        table = parse(expr, ctx).table_hex()
    except ParseError as exc:
        return {"m": m, "expr": expr, "error": [type(exc).__name__, str(exc), exc.position]}
    return {"m": m, "expr": expr, "table": table}


def build() -> list[dict]:
    fields = {m: FieldContext(m) for m in range(2, 9)}
    return [outcome(m, expr, fields[m]) for m, expr in expressions(random.Random(20131030))]


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_is_the_seeded_sample(corpus):
    assert [(e["m"], e["expr"]) for e in corpus] == list(expressions(random.Random(20131030)))


def test_parse_matches_the_corpus(corpus):
    fields = {m: FieldContext(m) for m in range(2, 9)}
    for entry in corpus:
        assert outcome(entry["m"], entry["expr"], fields[entry["m"]]) == entry


def test_cli_reports_each_error_with_exit_code_2(corpus):
    """One error entry in four through ``analyze --expr``: the stderr line is
    the message.  An empty ``--expr`` is a usage error instead."""
    runner = CliRunner()
    errors = [e for e in corpus if "error" in e and e["expr"]][::4]
    assert len(errors) > 1000
    for entry in errors:
        argv = ["analyze", "--dim", str(entry["m"]), f"--expr={entry['expr']}"]
        result = runner.invoke(main, argv)
        assert (result.exit_code, result.stderr) == (2, f"error: {entry['error'][1]}\n"), entry


if __name__ == "__main__":
    entries = build()
    lines = [json.dumps(entry, separators=(",", ":")) for entry in entries]
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(entries)} entries, {sum('error' in e for e in entries)} errors, to {CORPUS}")
