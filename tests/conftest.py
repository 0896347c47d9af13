import sys
from fractions import Fraction

import pytest

from ffdyn import Place, parse_point, parse_rational_map
from ffdyn.polynomials import Poly


@pytest.fixture
def quad_poly_map():
    """z^2 + t: polynomial map, good reduction everywhere."""
    return parse_rational_map("z^2+t")


@pytest.fixture
def quad_quotient_map():
    """(z^2 - t)/z: non-polynomial map with bad reduction at (t)."""
    return parse_rational_map("(z^2-t)/z")


@pytest.fixture
def monomial_map():
    """t*z^2: the excluded monomial shape."""
    return parse_rational_map("t*z^2")


@pytest.fixture
def place_t():
    return Place.finite(Poly.t())


@pytest.fixture
def S_inf():
    return frozenset([Place.infinity()])


@pytest.fixture
def S_t_inf(place_t):
    return frozenset([place_t, Place.infinity()])


@pytest.fixture
def half():
    return Fraction(1, 2)


@pytest.fixture
def point_zero():
    return parse_point("0")


@pytest.fixture
def point_t():
    return parse_point("t")


@pytest.fixture
def point_inf():
    return parse_point("inf")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name) wraps the function `name` in every ffdyn module
    that binds it (modules bind each other's names with `from .x import y`)
    and returns the list that records the arguments of each call."""

    def install(name):
        calls = []
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "ffdyn" or not hasattr(module, name):
                continue
            original = getattr(module, name)

            def wrapper(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    return install
