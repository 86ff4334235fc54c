"""Every name a module exports in `__all__` exists."""

import importlib

import pytest

MODULES = ("cli", "dsp_core", "lindblad", "optimizer", "qmat", "rydberg")


@pytest.mark.parametrize(
    "module, name",
    [
        (module, name)
        for module in MODULES
        for name in importlib.import_module(f"dspqsl.{module}").__all__
    ],
)
def test_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"dspqsl.{module}"), name)
