"""Expression parsing and canonical printing: the two must be exact inverses."""

import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffdyn import (
    FieldElement,
    Place,
    parse_field_elem,
    parse_place,
    parse_places,
    parse_point,
    parse_rational_map,
    parse_split_form,
)
from ffdyn.errors import ParseError
from ffdyn.exprs import (
    _Parser,
    field_elem_text,
    form_text,
    map_text,
    place_text,
    places_text,
    point_text,
    poly_text,
    zpoly_text,
)
from ffdyn.maps import ProjectivePoint, normalize_map
from ffdyn.polynomials import Poly, ZPoly
from ffdyn.randgen import (
    rand_field_elem,
    rand_map,
    rand_place,
    rand_point,
    rand_split_fiber_instance,
)

from oracles import CharParser, fraction_map_text, fraction_poly_text, fraction_zpoly_text

# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_field_elem_examples():
    x = parse_field_elem("(t^2+1)/t")
    assert x.num == Poly.of(1, 0, 1) and x.den == Poly.t()
    y = parse_field_elem("1/2*t - 3")
    assert y == FieldElement.make(Poly.of(-6, 1), Poly.of(2))
    assert parse_field_elem("-(t+1)^2") == parse_field_elem("-t^2 - 2*t - 1")
    assert parse_field_elem("5") == FieldElement.from_rational(Fraction(5))


def test_parse_precedence_and_associativity():
    # ^ binds tighter than unary minus: -t^2 = -(t^2)
    assert parse_field_elem("-t^2") == -parse_field_elem("t^2")
    # left-assoc division: 1/2/2 = 1/4
    assert parse_field_elem("1/2/2") == FieldElement.from_rational(Fraction(1, 4))
    # * and / over + and -
    assert parse_field_elem("1 + 2*t") == parse_field_elem("2*t + 1")


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_field_elem("t/(t")
    assert exc.value.position == 4


def test_parse_errors():
    with pytest.raises(ParseError, match="map context"):
        parse_field_elem("z + 1")
    with pytest.raises(ParseError, match="constant"):
        parse_rational_map("t + 1")
    with pytest.raises(ParseError):
        parse_field_elem("t^(1+1)")  # exponent must be an integer literal
    with pytest.raises(ParseError):
        parse_field_elem("")
    with pytest.raises(ParseError, match="division by zero"):
        parse_field_elem("1/(t - t)")


def test_parse_rational_map_examples():
    phi = parse_rational_map("(z^2 - t)/z")
    assert phi.d == 2
    assert map_text(phi) == "(z^2 - t)/(z)"
    psi = parse_rational_map("z^2 + t")
    assert psi.d == 2
    assert map_text(psi) == "z^2 + t"


def test_parse_point_and_place():
    assert parse_point("inf").is_infinite
    assert parse_point("t").height == 1
    assert parse_place("inf") == Place.infinity()
    # places are monicized on input
    assert parse_place("2*t + 2") == Place.finite(Poly.of(1, 1))
    with pytest.raises(ParseError):
        parse_place("t/(t+1)")
    with pytest.raises(ParseError):
        parse_place("3")


def test_parse_places():
    S = parse_places("t, t+1, inf")
    assert len(S) == 3 and Place.infinity() in S
    assert parse_places("") == frozenset()
    assert parse_places("   ") == frozenset()


def test_parse_split_form():
    form = parse_split_form("T1*T2 - t*T3 + 1")
    assert form.arity == 3
    assert set(form.blocks) == {(1, 2), (3,), ()}
    with pytest.raises(ParseError, match="not linear"):
        parse_split_form("T1*T1")  # repeated variable in a product
    with pytest.raises(ParseError, match="split"):
        parse_split_form("T1 + T1*T2")  # T1 in two blocks
    with pytest.raises(ParseError):
        parse_split_form("t + 1")  # no variables
    with pytest.raises(ParseError):
        parse_split_form("T1 - T1")  # identically zero


# A constant denominator goes straight to the normal form of [num : c].
CONSTANT_DENOMINATOR_POINTS = [
    "3/2",
    "-3/2",
    "0/5",
    "(2*t+2)/4",
    "-(t-1/2)^2/4",
    "123456789012345678901234567890*t - 7",
    "3/(-2)",
    "(t+1)/(1-3)",
    "-t/(-6)",
    "t^2/(-4) + 2/(-6)",
]


def _oracle_pair(text):
    num, den = CharParser(text, "elem").parse().zpolys()
    return num.coeff(0), den.coeff(0)


@pytest.mark.parametrize("text", CONSTANT_DENOMINATOR_POINTS)
def test_point_with_constant_denominator_matches_make(text, count_calls):
    num, den = _oracle_pair(text)
    assert den.degree == 0
    gcds = count_calls("poly_gcd")
    P = parse_point(text)
    assert gcds == []
    assert P == ProjectivePoint.make(num, den)
    assert P == ProjectivePoint.from_field(parse_field_elem(text))


def test_points_seeded():
    rng = Random(79)
    for _ in range(300):
        P = rand_point(rng)
        assert parse_point(point_text(P)) == P
        num = rand_field_elem(rng).num
        c = rng.choice([-1, 1]) * rng.randint(1, 30)
        for text in (f"({poly_text(num)})/({c})", f"({poly_text(num)})/({c}*t + 1)"):
            assert parse_point(text) == ProjectivePoint.make(*_oracle_pair(text))


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_poly_text_examples():
    assert poly_text(Poly.zero()) == "0"
    assert poly_text(Poly.of(Fraction(-1, 2), 0, 3)) == "3*t^2 - 1/2"
    assert poly_text(Poly.of(1, 1)) == "t + 1"


def test_field_elem_text_examples():
    assert field_elem_text(parse_field_elem("(t^2+1)/t")) == "(t^2 + 1)/(t)"
    assert field_elem_text(parse_field_elem("t - 6")) == "t - 6"
    assert field_elem_text(FieldElement.zero()) == "0"


def test_point_place_text():
    assert point_text(parse_point("inf")) == "inf"
    assert place_text(Place.infinity()) == "inf"
    assert place_text(Place.finite(Poly.of(-1, 1))) == "t - 1"
    # finite places sorted, infinity printed last
    S = parse_places("t+1, inf, t")
    assert places_text(S) == "t, t + 1, inf"


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_field_elem_round_trip_seeded():
    rng = Random(43)
    for _ in range(500):
        x = rand_field_elem(rng)
        assert parse_field_elem(field_elem_text(x)) == x


def test_map_round_trip_seeded():
    rng = Random(47)
    for _ in range(100):
        phi = rand_map(rng, d=rng.choice([1, 2, 3]))
        assert parse_rational_map(map_text(phi)) == phi


def test_point_and_places_round_trip_seeded():
    rng = Random(53)
    for _ in range(200):
        P = rand_point(rng)
        assert parse_point(point_text(P)) == P
        S = frozenset({rand_place(rng), rand_place(rng)})
        assert parse_places(places_text(S)) == S


def test_form_round_trip_seeded():
    rng = Random(59)
    for _ in range(50):
        # reuse the split-instance generator's rng to vary coefficients
        form = parse_split_form("T1*T2 - t*T3 + 1")
        assert parse_split_form(form_text(form)) == form
        x = rand_field_elem(rng, nonzero=True)
        from ffdyn import SplitMultilinearForm

        f2 = SplitMultilinearForm(2, ((2,), (1,)), (x, FieldElement.one()))
        assert parse_split_form(form_text(f2)) == f2


def test_print_parse_idempotent_seeded():
    # printing is canonical: parse(print(x)) prints identically
    rng = Random(61)
    for _ in range(200):
        x = rand_field_elem(rng)
        text = field_elem_text(x)
        assert field_elem_text(parse_field_elem(text)) == text
    for _ in range(50):
        phi = rand_map(rng, d=2)
        text = map_text(phi)
        assert map_text(parse_rational_map(text)) == text


# ---------------------------------------------------------------------------
# The parser and printer against the ZPoly parser and the Fraction printer
# ---------------------------------------------------------------------------


def _outcome(parser, text: str, mode: str):
    """The parsed value, as ZPoly pairs or form terms, or the ParseError's
    message and position."""
    try:
        value = parser(text, mode).parse()
    except ParseError as exc:
        return ("error", str(exc), exc.position)
    if mode == "form":
        return sorted(value.terms.items())
    return value.zpolys()


def _assert_parsers_agree(text: str) -> None:
    for mode in ("elem", "map", "form"):
        assert _outcome(_Parser, text, mode) == _outcome(CharParser, text, mode), mode
    pair = _outcome(CharParser, text, "map")
    if pair[0] == "error":
        return
    expected = normalize_map(*pair)
    if expected.d == 0:
        with pytest.raises(ParseError, match="constant map"):
            parse_rational_map(text)
        return
    phi = parse_rational_map(text)
    assert phi == expected
    assert map_text(phi) == fraction_map_text(expected)


ADVERSARIAL_TEXTS = [
    "z^0",
    "0*z^5",
    "0*z^5 + z^2",
    "(t-t)*z",
    "(t-t)*z + t*z^2",
    "(z+1)*(z-1)",
    "(t*z+1)*(t*z-1)/((z-t)*(z+t))",
    "(z^2+t*z+1)*(z^2-t*z+1) - z^4",
    "1/(-2*t)",
    "(2*t+2)/4",
    "1/2/2",
    "z/2/2 + 1/(-3)",
    "((z+1)/(z-t))/((t*z)/(z^2+1))",
    "1/(1/(1/(z - 1/t)))",
    "(z^2 - t)/z / ((z + t)/(z - t))^2",
    "t^40",
    "(t^40 - 1)/(t^20 + 1)*z^3 + z",
    "-(-(-z))^3",
    "0^0 + t^0*z^0",
    "  ( z ^ 2 ) \t-\n t ",
    "(z^3+t*z)/(z^2-1/3*t*z)",
    "z^2^3",
    "T1*T2 - t*T3 + 1",
]


@pytest.mark.parametrize("text", ADVERSARIAL_TEXTS)
def test_parser_matches_oracle_adversarial(text):
    _assert_parsers_agree(text)


def _exprs(max_leaves: int = 12):
    atoms = st.one_of(
        st.integers(0, 40).map(str),
        st.sampled_from(["t", "z", "t", "z", "T1", "T2"]),
    )

    def extend(inner):
        binary = st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(
            lambda x: f"{x[0]} {x[1]} {x[2]}"
        )
        return st.one_of(
            binary,
            inner.map(lambda x: f"({x})"),
            inner.map(lambda x: f"-{x}"),
            st.tuples(inner, st.integers(0, 4)).map(lambda x: f"({x[0]})^{x[1]}"),
        )

    return st.recursive(atoms, extend, max_leaves=max_leaves)


@given(_exprs())
@settings(max_examples=300, deadline=None)
def test_parser_matches_oracle_on_expressions(text):
    _assert_parsers_agree(text)


# Long exponents would make either parser build huge powers.
_LONG_EXPONENT = re.compile(r"\^\s*\d\d\d")


@given(st.text(alphabet=" \t0123tzT+-*/^()x.,", max_size=16))
@settings(max_examples=400, deadline=None)
def test_parser_matches_oracle_on_any_text(text):
    assume(not _LONG_EXPONENT.search(text))
    _assert_parsers_agree(text)


def test_superscript_digit_is_a_parse_error():
    # str.isdigit() accepts "²", which int() rejects
    with pytest.raises(ParseError, match="unexpected character '²' at position 1"):
        parse_field_elem("2²")


# Every ParseError message and position, as printed before the parser built
# term dicts.
PARSE_ERRORS = [
    (parse_field_elem, "t/(t", "expected ')' at position 4", 4),
    (parse_field_elem, "1/(t - t)", "division by zero at position 1", 1),
    (parse_field_elem, "1/0", "division by zero at position 1", 1),
    (parse_field_elem, "", "unexpected end of input at position 0", 0),
    (parse_field_elem, "   ", "unexpected end of input at position 3", 3),
    (parse_field_elem, "t^(1+1)", "nonnegative integer exponent expected at position 2", 2),
    (parse_field_elem, "t^-1", "nonnegative integer exponent expected at position 2", 2),
    (parse_field_elem, "z + 1", "map context required for 'z' at position 0", 0),
    (parse_field_elem, "2*x", "unexpected character 'x' at position 2", 2),
    (parse_field_elem, "t t", "unexpected token 't' at position 2", 2),
    (parse_field_elem, "(t+1))", "unexpected token ')' at position 5", 5),
    (parse_field_elem, "t +", "unexpected end of input at position 3", 3),
    (parse_field_elem, "T1", "unexpected character 'T' at position 0", 0),
    (parse_field_elem, "3.5", "unexpected character '.' at position 1", 1),
    (parse_field_elem, "t^", "nonnegative integer exponent expected at position 2", 2),
    (parse_field_elem, "*t", "unexpected '*' at position 0", 0),
    (parse_field_elem, "t\n+\t", "unexpected end of input at position 4", 4),
    (parse_field_elem, "((t)", "expected ')' at position 4", 4),
    (parse_rational_map, "t + 1", "constant map", None),
    (parse_rational_map, "0", "constant map", None),
    # a zero numerator is the constant map 0, whatever the denominator
    (parse_rational_map, "0*z/(z^2+t)", "constant map", None),
    (parse_rational_map, "(z-z)/(z^2+1)", "constant map", None),
    (parse_rational_map, "0/z^2", "constant map", None),
    (parse_rational_map, "z/(z-z)", "division by zero at position 1", 1),
    (parse_rational_map, "(z^2+1)/((t-t)*z)", "division by zero at position 7", 7),
    (parse_rational_map, "z^2 + y", "unexpected character 'y' at position 6", 6),
    (parse_rational_map, "z^^2", "nonnegative integer exponent expected at position 2", 2),
    (parse_rational_map, "z^2/", "unexpected end of input at position 4", 4),
    (parse_rational_map, "z^z", "nonnegative integer exponent expected at position 2", 2),
    (parse_split_form, "T", "variable index expected after 'T' at position 0", 0),
    (parse_split_form, "T1*T1", "variable T1 is not linear", None),
    (parse_split_form, "T1 + T1*T2",
     "not a split multilinear form: variable T1 appears in two blocks", None),
    (parse_split_form, "t + 1", "form has no variables", None),
    (parse_split_form, "T1 - T1", "form is identically zero", None),
    (parse_split_form, "T1/T2", "division by a form at position 2", 2),
    (parse_split_form, "T1/(t-t)", "division by zero at position 2", 2),
    (parse_split_form, "z*T1", "map context required for 'z' at position 0", 0),
    (parse_split_form, "T1 T2", "unexpected token 'T2' at position 3", 3),
    (parse_place, "3", "place must be a nonconstant polynomial or 'inf': '3'", None),
    (parse_place, "t/(t+1)", "place must be a nonconstant polynomial or 'inf': 't/(t+1)'",
     None),
    (parse_place, "t,", "unexpected character ',' at position 1", 1),
    # a part of a list reports its position in the whole text
    (parse_places, "t + 1,inf, 2*x", "unexpected character 'x' at position 13", 13),
    (parse_places, "  t,,inf", "unexpected end of input at position 4", 4),
    (parse_places, "t,(t+1", "expected ')' at position 6", 6),
    (parse_places, "inf, t/0", "division by zero at position 6", 6),
    (parse_places, "t, 3", "place must be a nonconstant polynomial or 'inf': ' 3'", None),
]


@pytest.mark.parametrize("parse, text, message, position", PARSE_ERRORS)
def test_parse_error_messages_and_positions(parse, text, message, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (str(exc.value), exc.value.position) == (message, position)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
sparse_coeffs = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions)
tpolys = st.lists(sparse_coeffs, max_size=6).map(Poly.from_list)


@given(tpolys)
@settings(max_examples=300, deadline=None)
def test_poly_text_matches_fraction_printer(p):
    assert poly_text(p) == fraction_poly_text(p)


@given(st.lists(tpolys, max_size=5).map(ZPoly.from_list))
@settings(max_examples=300, deadline=None)
def test_zpoly_text_matches_fraction_printer(f):
    assert zpoly_text(f) == fraction_zpoly_text(f)


def test_printers_match_on_seeded_maps():
    rng = Random(67)
    for _ in range(100):
        phi = rand_map(rng, d=rng.choice([1, 2, 3]), coeff_deg=rng.randint(0, 3))
        assert map_text(phi) == fraction_map_text(phi)
    for p in (Poly.of(Fraction(-7, 3)), Poly.of(0, 0, Fraction(1, 5)), Poly.t() ** 40,
              Poly.of(Fraction(6, 4), 0, Fraction(-1, 6))):
        assert poly_text(p) == fraction_poly_text(p)
