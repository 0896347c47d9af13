"""Parsing and canonical printing of field elements, maps, places and forms.

Grammar (EBNF), whitespace-insensitive:

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = { "-" } atom [ "^" integer ] ;
    atom     = "t" | "z" | variable | integer | "(" expr ")" ;
    integer  = digit { digit } ;
    variable = "T" integer ;            (split multilinear forms only)

Precedence: ^ above unary minus above * / above + -; binary operators are
left associative, exponents are nonnegative integer literals. Canonical
printing is descending in z then descending in t, so equal values print to
identical bytes and parse(print(x)) = x.

A text becomes a list of token strings by one ``re.findall``, and the
parser runs one loop for sums and one for products over that list, keeping
only a token index. Positions are found on the error path alone: a
ParseError rescans the text for the position of the token it names, and a
token that no text of the mode may hold (a character outside the grammar,
a T<i> outside forms) is reported first, wherever it stands, as a
character-by-character tokenizer would. A list of places, or an
estimate-gamma instance, is parsed one part at a time; ``parse_at`` counts
an error's position from the start of the whole argument."""

from __future__ import annotations

import re
from math import gcd

from .errors import DomainError, ParseError
from .function_field import FieldElement, Place
from .maps import ProjectivePoint, normalize_map
from .polynomials import Poly, ZPoly, primitive_pair

# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

# One token per match: an integer, a variable T<i> (digits optional, so that
# a bare T is reported), or any other character that is not whitespace.
# Whitespace matches nothing and is skipped.
_TOKEN_RE = re.compile(r"\d+|T\d*|\S")
_CHARS = frozenset("tz+-*/^()")


def _error(reason: str, pos: int) -> ParseError:
    return ParseError(f"{reason} at position {pos}", pos)


def _position(text: str, index: int) -> int:
    """Position in text of the token at index, or len(text) for the end."""
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        if k == index:
            return m.start()
    return len(text)


def _character_error(text: str, mode: str):
    """The ParseError of the first token that no mode-``mode`` text may hold,
    or None: a character outside the grammar, a variable outside "form"
    mode, or a T without its index. Such a token is reported before any
    syntax error of the text, wherever it stands."""
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        if tok[0] == "T":
            if mode != "form":
                reason = "unexpected character 'T'"
            elif len(tok) == 1:
                reason = "variable index expected after 'T'"
            else:
                continue
        elif tok in _CHARS or tok.isdecimal():
            continue
        else:
            reason = f"unexpected character {tok!r}"
        return _error(reason, m.start())
    return None


# ---------------------------------------------------------------------------
# Parser over an abstract value domain
# ---------------------------------------------------------------------------
#
# The same parser serves three targets (field elements, rational maps, split
# forms) through a small value algebra: values support add, neg, mul, div
# and pow by a nonnegative integer, and the class builds the atoms (const,
# t, z, variable). A quotient the algebra cannot form raises _DivisionError,
# to which the parser adds the position of its '/'.
#
# Maps and field elements are built as sparse term dicts
# {(z-degree, t-degree): coefficient} with the zero terms dropped. The atoms
# are integers, t and z, and a quotient stays an unreduced pair, so every
# coefficient is an integer; the dicts become ZPoly or Poly values once, at
# the end of the parse.

_ONE_TERMS = {(0, 0): 1}


class _DivisionError(Exception):
    """Division by zero, or by a form; the message names which."""


def _terms_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _terms_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), e in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * e
    return {key: c for key, c in out.items() if c}


def _terms_pow(a: dict, n: int) -> dict:
    if len(a) == 1:
        ((i, j), c), = a.items()
        return {(i * n, j * n): c**n}
    result = _ONE_TERMS
    while n:
        if n & 1:
            result = _terms_mul(result, a)
        n >>= 1
        if n:
            a = _terms_mul(a, a)
    return result


def _row_poly(row: dict) -> Poly:
    """The Poly of {t-degree: nonzero integer}."""
    ints = [0] * (max(row) + 1)
    for j, c in row.items():
        ints[j] = c
    return Poly(tuple(ints), 1)


def _terms_tpoly(terms: dict) -> Poly:
    """The Poly of a term dict free of z."""
    return _row_poly({j: c for (_, j), c in terms.items()}) if terms else Poly.zero()


def _terms_zpoly(terms: dict) -> ZPoly:
    """The ZPoly of a term dict, its z-rows grouped in one pass."""
    rows: dict = {}
    for (i, j), c in terms.items():
        row = rows.get(i)
        if row is None:
            rows[i] = {j: c}
        else:
            row[j] = c
    if not rows:
        return ZPoly.zero()
    coeffs = [Poly.zero()] * (max(rows) + 1)
    for i, row in rows.items():
        coeffs[i] = _row_poly(row)
    return ZPoly(tuple(coeffs))


class _RatFunc:
    """Rational function in z over Q[t] as an unreduced num/den pair of term
    dicts. Sums, products and powers of pairs over 1 skip the products by
    the denominators."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict):
        self.num = num
        self.den = den

    @staticmethod
    def const(c: int) -> "_RatFunc":
        return _RatFunc({(0, 0): c} if c else {}, _ONE_TERMS)

    @staticmethod
    def t() -> "_RatFunc":
        return _RatFunc({(0, 1): 1}, _ONE_TERMS)

    @staticmethod
    def z() -> "_RatFunc":
        return _RatFunc({(1, 0): 1}, _ONE_TERMS)

    def add(self, other: "_RatFunc") -> "_RatFunc":
        if self.den == _ONE_TERMS and other.den == _ONE_TERMS:
            return _RatFunc(_terms_add(self.num, other.num), _ONE_TERMS)
        return _RatFunc(
            _terms_add(_terms_mul(self.num, other.den), _terms_mul(other.num, self.den)),
            _terms_mul(self.den, other.den),
        )

    def neg(self) -> "_RatFunc":
        return _RatFunc({key: -c for key, c in self.num.items()}, self.den)

    def mul(self, other: "_RatFunc") -> "_RatFunc":
        num = _terms_mul(self.num, other.num)
        if self.den == _ONE_TERMS and other.den == _ONE_TERMS:
            return _RatFunc(num, _ONE_TERMS)
        return _RatFunc(num, _terms_mul(self.den, other.den))

    def div(self, other: "_RatFunc") -> "_RatFunc":
        if not other.num:
            raise _DivisionError("division by zero")
        return _RatFunc(_terms_mul(self.num, other.den), _terms_mul(self.den, other.num))

    def pow(self, k: int) -> "_RatFunc":
        den = self.den
        return _RatFunc(
            _terms_pow(self.num, k), den if den == _ONE_TERMS else _terms_pow(den, k)
        )

    def zpolys(self) -> tuple[ZPoly, ZPoly]:
        """(numerator, denominator) as ZPoly values."""
        return _terms_zpoly(self.num), _terms_zpoly(self.den)


class _FormVal:
    """Multilinear combination: map from sorted variable tuples to nonzero
    FieldElement coefficients; products of overlapping blocks are rejected."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], FieldElement]):
        self.terms = {k: v for k, v in terms.items() if not v.is_zero}

    @staticmethod
    def const(c) -> "_FormVal":
        return _FormVal({(): FieldElement.from_rational(c)})

    @staticmethod
    def t() -> "_FormVal":
        return _FormVal({(): FieldElement.t()})

    @staticmethod
    def variable(idx: int) -> "_FormVal":
        return _FormVal({(idx,): FieldElement.one()})

    def add(self, other: "_FormVal") -> "_FormVal":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, FieldElement.zero()) + v
        return _FormVal(out)

    def neg(self) -> "_FormVal":
        return _FormVal({k: -v for k, v in self.terms.items()})

    def mul(self, other: "_FormVal") -> "_FormVal":
        out: dict[tuple[int, ...], FieldElement] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                if set(ka) & set(kb):
                    raise ParseError(
                        f"variable T{min(set(ka) & set(kb))} is not linear"
                    )
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, FieldElement.zero()) + va * vb
        return _FormVal(out)

    def div(self, other: "_FormVal") -> "_FormVal":
        if list(other.terms.keys()) not in ([], [()]):
            raise _DivisionError("division by a form")
        c = other.terms.get((), FieldElement.zero())
        if c.is_zero:
            raise _DivisionError("division by zero")
        return _FormVal({k: v / c for k, v in self.terms.items()})

    def pow(self, k: int) -> "_FormVal":
        out = _FormVal.const(1)
        for _ in range(k):
            out = out.mul(self)
        return out


class _Parser:
    """The parser of one text in one mode: "elem" (no z), "map" (z allowed)
    or "form" (T<i> allowed, no z).

    It walks the token list with two precedence loops, one for sums and one
    for products; a factor reads its unary minus signs, its atom and its
    exponent. It keeps a token index, not a position: the position of the
    token a ParseError names is found only when the error is raised."""

    def __init__(self, text: str, mode: str):
        self.text = text
        self.mode = mode
        self.values = _FormVal if mode == "form" else _RatFunc
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")  # the end of input
        self.i = 0

    def parse(self):
        try:
            value = self._sum()
            if self.tokens[self.i]:
                self._fail(f"unexpected token {self.tokens[self.i]!r}", self.i)
        except ParseError:
            first = _character_error(self.text, self.mode)
            if first is None:
                raise
            raise first from None
        return value

    def _fail(self, reason: str, index: int):
        raise _error(reason, _position(self.text, index))

    def _sum(self):
        value = self._product()
        tokens = self.tokens
        while True:
            op = tokens[self.i]
            if op == "+":
                self.i += 1
                value = value.add(self._product())
            elif op == "-":
                self.i += 1
                value = value.add(self._product().neg())
            else:
                return value

    def _product(self):
        value = self._factor()
        tokens = self.tokens
        while True:
            op = tokens[self.i]
            if op == "*":
                self.i += 1
                value = value.mul(self._factor())
            elif op == "/":
                at = self.i
                self.i += 1
                rhs = self._factor()
                try:
                    value = value.div(rhs)
                except _DivisionError as exc:
                    self._fail(str(exc), at)
            else:
                return value

    def _factor(self):
        # factor = { "-" } atom [ "^" integer ]; the signs apply after "^"
        tokens = self.tokens
        i = self.i
        negate = False
        while tokens[i] == "-":
            negate = not negate
            i += 1
        tok = tokens[i]
        self.i = i + 1
        if tok.isdecimal():
            value = self.values.const(int(tok))
        elif tok == "z":
            if self.mode != "map":
                self._fail("map context required for 'z'", i)
            value = self.values.z()
        elif tok == "t":
            value = self.values.t()
        elif tok == "(":
            value = self._sum()
            if tokens[self.i] != ")":
                self._fail("expected ')'", self.i)
            self.i += 1
        elif len(tok) > 1 and self.mode == "form":  # T<i>
            value = self.values.variable(int(tok[1:]))
        else:
            self._fail(f"unexpected {repr(tok) if tok else 'end of input'}", i)
        if tokens[self.i] == "^":
            exp = tokens[self.i + 1]
            if not exp.isdecimal():
                self._fail("nonnegative integer exponent expected", self.i + 1)
            value = value.pow(int(exp))
            self.i += 2
        return value.neg() if negate else value


# ---------------------------------------------------------------------------
# Public parse entry points
# ---------------------------------------------------------------------------


def parse_field_elem(text: str) -> FieldElement:
    # z is rejected in this mode, and a quotient by a nonzero value is nonzero
    value = _Parser(text, "elem").parse()
    return FieldElement.make(_terms_tpoly(value.num), _terms_tpoly(value.den))


def parse_rational_map(text: str):
    phi = normalize_map(*_Parser(text, "map").parse().zpolys())
    if phi.d == 0:
        raise ParseError("constant map")
    return phi


def parse_point(text: str):
    """The point [x : 1] of the text x, or infinity for "inf". A constant
    denominator c is coprime to the numerator, so [num : c] goes straight
    to its normal form, with no gcd and no Fraction."""
    if text.strip() == "inf":
        return ProjectivePoint.infinity()
    value = _Parser(text, "elem").parse()
    num, den = _terms_tpoly(value.num), _terms_tpoly(value.den)
    if den.degree == 0:
        return ProjectivePoint(*primitive_pair(num, den))
    return ProjectivePoint.make(num, den)


def parse_place(text: str) -> Place:
    if text.strip() == "inf":
        return Place.infinity()
    x = parse_field_elem(text)
    if x.den.degree != 0 or x.num.degree < 1:
        raise ParseError(f"place must be a nonconstant polynomial or 'inf': {text!r}")
    return Place.finite(x.num.monic())


def parse_at(parse, text: str, offset: int):
    """parse(text) for a text cut from an argument at offset: a ParseError
    gives its position in the whole argument."""
    try:
        return parse(text)
    except ParseError as exc:
        raise exc.shifted(offset) from None


def parse_places(text: str) -> frozenset:
    body = text.strip()
    if not body:
        return frozenset()
    offset = len(text) - len(text.lstrip())
    places = []
    for part in body.split(","):
        places.append(parse_at(parse_place, part, offset))
        offset += len(part) + 1
    return frozenset(places)


def parse_split_form(text: str):
    from .mult_dependence import SplitMultilinearForm

    value = _Parser(text, "form").parse()
    if not value.terms:
        raise ParseError("form is identically zero")
    indices = sorted({j for key in value.terms for j in key})
    arity = max(indices, default=0)
    if arity == 0:
        raise ParseError("form has no variables")
    blocks = sorted(value.terms.keys(), reverse=True)
    try:
        return SplitMultilinearForm(
            arity=arity,
            blocks=tuple(blocks),
            coefficients=tuple(value.terms[b] for b in blocks),
        )
    except DomainError as exc:
        raise ParseError(f"not a split multilinear form: {exc}") from exc


# ---------------------------------------------------------------------------
# Canonical printing
# ---------------------------------------------------------------------------


def _t_mono_text(num: int, den: int, k: int) -> str:
    """(num/den)*t^k for num/den > 0 in lowest terms, with unit coefficients
    and exponents elided."""
    coeff = str(num) if den == 1 else f"{num}/{den}"
    if k == 0:
        return coeff
    base = "t" if k == 1 else f"t^{k}"
    return base if num == den == 1 else f"{coeff}*{base}"


def _signed_term(c: int, den: int, k: int) -> tuple[str, str]:
    """(sign, body) of the term (c/den)*t^k for c != 0."""
    a = -c if c < 0 else c
    g = gcd(a, den)
    return ("-" if c < 0 else "+", _t_mono_text(a // g, den // g, k))


def _poly_signed_terms(p: Poly) -> list[tuple[str, str]]:
    """Descending (sign, body) pairs for the nonzero terms of p."""
    ints, den = p.ints, p.den
    return [_signed_term(ints[k], den, k) for k in range(len(ints) - 1, -1, -1) if ints[k]]


def _join_terms(terms: list[tuple[str, str]]) -> str:
    if not terms:
        return "0"
    sign, body = terms[0]
    parts = [body if sign == "+" else f"-{body}"]
    for sign, body in terms[1:]:
        parts.append(f" {sign} {body}")
    return "".join(parts)


def poly_text(p: Poly) -> str:
    return _join_terms(_poly_signed_terms(p))


def _zpoly_signed_terms(f: ZPoly) -> list[tuple[str, str]]:
    out = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c.is_zero:
            continue
        if k == 0:
            out.extend(_poly_signed_terms(c))
            continue
        zbase = "z" if k == 1 else f"z^{k}"
        if len(c.ints) - c.ints.count(0) == 1:
            # monomial coefficient: inline without parentheses
            sign, tpart = _signed_term(c.ints[-1], c.den, c.degree)
            out.append((sign, zbase if tpart == "1" else f"{tpart}*{zbase}"))
        else:
            out.append(("+", f"({poly_text(c)})*{zbase}"))
    return out


def zpoly_text(f: ZPoly) -> str:
    return _join_terms(_zpoly_signed_terms(f))


def field_elem_text(x: FieldElement) -> str:
    num = poly_text(x.num)
    if x.den == Poly.one():
        return num
    return f"({num})/({poly_text(x.den)})"


def map_text(phi) -> str:
    num = zpoly_text(phi.F)
    if phi.G == ZPoly.one():
        return num
    return f"({num})/({zpoly_text(phi.G)})"


def place_text(v: Place) -> str:
    return "inf" if v.is_infinite else poly_text(v.poly)


def places_text(S) -> str:
    # finite places sorted by (degree, coefficients), infinity last
    finite = sorted(
        (v for v in S if not v.is_infinite), key=lambda v: (v.degree, v.poly.coeffs)
    )
    parts = [place_text(v) for v in finite]
    if any(v.is_infinite for v in S):
        parts.append("inf")
    return ", ".join(parts)


def point_text(P) -> str:
    if P.is_infinite:
        return "inf"
    return field_elem_text(P.affine())


def form_text(form) -> str:
    terms = []
    for block, c in zip(form.blocks, form.coefficients):
        var_part = "*".join(f"T{j}" for j in block)
        if not var_part:
            # constant block: inline the coefficient's own sign structure
            if c.den == Poly.one() and len(_poly_signed_terms(c.num)) == 1:
                sign, body = _poly_signed_terms(c.num)[0]
                terms.append((sign, body))
            else:
                terms.append(("+", f"({field_elem_text(c)})"))
            continue
        if c == FieldElement.one():
            terms.append(("+", var_part))
        elif c == -FieldElement.one():
            terms.append(("-", var_part))
        elif c.den == Poly.one() and len(_poly_signed_terms(c.num)) == 1:
            sign, body = _poly_signed_terms(c.num)[0]
            terms.append((sign, f"{body}*{var_part}"))
        else:
            terms.append(("+", f"({field_elem_text(c)})*{var_part}"))
    return _join_terms(terms)
