import sys

import pytest

import nil.ideal


@pytest.fixture
def power_calls(monkeypatch):
    """The exponent t of every nil.ideal.power call, whatever name it is
    called by (the library binds it in more than one module)."""
    original = nil.ideal.power
    calls = []

    def spy(I, t):
        calls.append(t)
        return original(I, t)

    for name, module in list(sys.modules.items()):
        if name == "nil" or name.startswith("nil."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy)
    return calls
