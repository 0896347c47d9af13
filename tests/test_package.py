"""The package's public names: every row of ffdyn._EXPORTS resolves, so a
stale row fails here and not on its first access."""

from importlib import import_module

import pytest

import ffdyn


@pytest.mark.parametrize("name", ffdyn.__all__)
def test_public_name_is_defined_where_exports_says(name):
    module = import_module(f"ffdyn.{ffdyn._MODULE_OF[name]}")
    value = getattr(ffdyn, name)
    assert getattr(module, name) is value
    home = getattr(value, "__module__", None)
    if home != "typing":  # a type alias, such as PlaceSet, is made by typing
        assert home == module.__name__
