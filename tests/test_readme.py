"""The library tour in README.md runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_tour_prints_its_comments():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, str(README), "exec"), {})
    expected = [
        "tr(x^7+x^11+x^19+x^21)",
        "[['base', 'pseudo0-dual', 'pseudo1-dual'], ['dual', 'pseudo0', 'pseudo1']]",
    ]
    assert out.getvalue().splitlines() == expected
    for line in expected:
        assert f"# {line}\n" in tour
