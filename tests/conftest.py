import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bentfn.gf2m import FieldContext

ALT_POLY_7 = 0x91  # x^7 + x^4 + 1


@pytest.fixture(scope="session")
def ctx3():
    return FieldContext(3)


@pytest.fixture(scope="session")
def ctx5():
    return FieldContext(5)


@pytest.fixture(scope="session")
def ctx7():
    return FieldContext(7)


@pytest.fixture(scope="session")
def ctx7_alt():
    return FieldContext(7, ALT_POLY_7)


@pytest.fixture(scope="session")
def ctx11():
    return FieldContext(11)


@pytest.fixture()
def trace_form_calls(monkeypatch):
    """Records the table of every call of tracerep.to_trace_form."""
    from bentfn import tracerep

    calls = []
    interpolate = tracerep.to_trace_form

    def recorded(f, ctx):
        calls.append(f)
        return interpolate(f, ctx)

    monkeypatch.setattr(tracerep, "to_trace_form", recorded)
    return calls


@pytest.fixture()
def fwht_sizes(monkeypatch):
    """The size of every FWHT that runs while the test does."""
    from bentfn import spectrum

    sizes = []
    fwht = spectrum._fwht

    def counting_fwht(values):
        sizes.append(values.size)
        return fwht(values)

    monkeypatch.setattr(spectrum, "_fwht", counting_fwht)
    return sizes
