"""The package's public names: every row of ffdyn._EXPORTS resolves, so a
stale row fails here and not on its first access. Also the value types'
shared base, equality, hashing, immutability, pickling and repr, the result
records' tuple form, and the modules that ``import ffdyn.cli`` loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import ffdyn
from ffdyn.errors import DomainError, Value
from ffdyn.function_field import FieldElement, Place
from ffdyn.heights import HeightInterval, IterateHeightRecord, Preperiodic, Wandering
from ffdyn.maps import ProjectivePoint, RationalMap
from ffdyn.mult_dependence import DependenceQuery, SplitMultilinearForm
from ffdyn.polynomials import Poly, ZPoly


@pytest.mark.parametrize("name", ffdyn.__all__)
def test_public_name_is_defined_where_exports_says(name):
    module = import_module(f"ffdyn.{ffdyn._MODULE_OF[name]}")
    value = getattr(ffdyn, name)
    assert getattr(module, name) is value
    home = getattr(value, "__module__", None)
    if home != "typing":  # a type alias, such as PlaceSet, is made by typing
        assert home == module.__name__


def _t():
    return Poly((0, 1))


# Each builder makes a fresh instance, with fresh field objects, on each call
VALUE_TYPES = {
    "Poly": lambda: Poly((1, 2), 3),
    "ZPoly": lambda: ZPoly((Poly((1,)), _t())),
    "FieldElement": lambda: FieldElement(_t(), Poly((1, 1))),
    "Place": lambda: Place(Poly((1, 1))),
    "ProjectivePoint": lambda: ProjectivePoint(_t(), Poly((1,))),
    "RationalMap": lambda: RationalMap(
        ZPoly((_t(), Poly((0, 0, 1)))), ZPoly((Poly((1,)),)), 2
    ),
    "HeightInterval": lambda: HeightInterval(Fraction(1, 2), Fraction(3, 4)),
    "Preperiodic": lambda: Preperiodic(1, 2),
    "Wandering": lambda: Wandering(Fraction(1, 4), 3),
    "DependenceQuery": lambda: DependenceQuery(frozenset({Place(None)}), 1, 2, 3, 4),
    "SplitMultilinearForm": lambda: SplitMultilinearForm(
        2, ((1,), (2,)), (FieldElement(_t(), Poly((1,))), FieldElement.one())
    ),
}

# Compared or hashed on hot paths: each keeps its own __eq__ and __hash__,
# measured faster than the generic ones of errors.Value
HOT_VALUE_TYPES = (
    "Poly", "ZPoly", "FieldElement", "Place", "ProjectivePoint", "RationalMap",
)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_share_one_base(name):
    cls = type(VALUE_TYPES[name]())
    assert cls.__name__ == name and issubclass(cls, Value)
    if name in HOT_VALUE_TYPES:
        assert "__eq__" in vars(cls) and "__hash__" in vars(cls)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_equal_fields_compare_and_hash_equal(name):
    a, b = VALUE_TYPES[name](), VALUE_TYPES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # the iteration order of a set of places, and so the order in which the
    # scans read them, follows these hashes
    assert hash(a) == hash(tuple(getattr(a, f) for f in type(a).__match_args__))


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_fields_can_be_neither_set_nor_deleted(name):
    value = VALUE_TYPES[name]()
    for field in type(value).__match_args__:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_pickle_and_copy_give_an_equal_value(name):
    value = VALUE_TYPES[name]()
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value and copy.deepcopy(value) == value


def test_instances_of_different_types_with_equal_fields_differ():
    assert Preperiodic(1, 2) != Wandering(Fraction(1), 2)
    x0, x1 = _t(), Poly((1,))
    assert FieldElement(x0, x1) != ProjectivePoint(x0, x1)
    assert Poly((1, 2), 3) != ((1, 2), 3)


def test_repr_names_every_field():
    for build in VALUE_TYPES.values():
        value = build()
        fields = (f"{f}={getattr(value, f)!r}" for f in type(value).__match_args__)
        assert repr(value) == f"{type(value).__name__}({', '.join(fields)})"
    assert repr(Poly((1, 2), 3)) == "Poly(ints=(1, 2), den=3)"
    assert repr(Preperiodic(1, 2)) == "Preperiodic(tail=1, cycle=2)"
    assert repr(HeightInterval(Fraction(0), Fraction(1, 2))) == (
        "HeightInterval(lo=Fraction(0, 1), hi=Fraction(1, 2))"
    )
    assert repr(Place(None)) == "Place(poly=None)"


def test_value_types_match_by_position():
    match Wandering(Fraction(1, 4), 3):
        case Wandering(lower, depth):
            assert (lower, depth) == (Fraction(1, 4), 3)
        case _:
            pytest.fail("no match")


def test_constructors_take_keywords_and_defaults():
    assert Poly(ints=(1, 2)) == Poly((1, 2), 1)
    assert Wandering(depth=3, canonical_lower=Fraction(1)) == Wandering(Fraction(1), 3)


def test_constructors_still_check_their_fields():
    with pytest.raises(DomainError, match="empty height interval"):
        HeightInterval(2, 1)
    with pytest.raises(DomainError, match="at least 1"):
        DependenceQuery(frozenset(), n_max=1, k_max=1, r_max=0, s_max=1)
    with pytest.raises(DomainError, match="cover"):
        SplitMultilinearForm(2, ((1,),), (FieldElement(_t(), Poly((1,))),))


def test_result_records_are_tuples():
    record = IterateHeightRecord(2, 3, 3)
    n, lhs, sharp_rhs = record
    assert (n, lhs, sharp_rhs) == (2, 3, 3) and record.holds_sharp
    assert record == (2, 3, 3)


# Modules the import of ffdyn.cli must not load: dataclasses brings inspect
# (and ast, dis, tokenize); csv serves --format csv, suites and randgen
# only verify.
NOT_LOADED_BY_CLI = ("dataclasses", "inspect", "csv", "ffdyn.suites", "ffdyn.randgen")


def test_import_cli_generates_no_code_and_loads_no_verify_module():
    code = (
        "import sys\n"
        "import ffdyn.cli\n"
        f"print([m for m in {NOT_LOADED_BY_CLI!r} if m in sys.modules])\n"
    )
    src = str(Path(ffdyn.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
