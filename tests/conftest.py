import sys

import pytest


@pytest.fixture
def set_constant(monkeypatch):
    """set_constant(name, value) sets a module constant such as
    levy_kernel.XI_TOL in every levyheat module that holds the name, so a
    module that imported it sees the value too; undone after the test."""
    def set_(name, value):
        holders = [mod for key, mod in list(sys.modules.items())
                   if key.startswith("levyheat.") and hasattr(mod, name)]
        assert holders, name
        for mod in holders:
            monkeypatch.setattr(mod, name, value)
    return set_
