"""Parsing and canonical printing of field elements, maps, places and forms.

Grammar (EBNF), whitespace-insensitive:

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = "-" factor | power ;
    power    = atom [ "^" integer ] ;
    atom     = "t" | "z" | variable | integer | "(" expr ")" ;
    integer  = digit { digit } ;
    variable = "T" integer ;            (split multilinear forms only)

Precedence: ^ above unary minus above * / above + -; binary operators are
left associative, exponents are nonnegative integer literals. Canonical
printing is descending in z then descending in t, so equal values print to
identical bytes and parse(print(x)) = x."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import DomainError, ParseError
from .function_field import FieldElement, Place
from .polynomials import Poly, ZPoly

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # INT | T | Z | VAR | OP | END
    text: str
    pos: int
    value: int = 0


def _tokenize(text: str, allow_vars: bool) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], i, int(text[i:j])))
            i = j
            continue
        if ch == "t":
            tokens.append(_Token("T", ch, i))
            i += 1
            continue
        if ch == "z":
            tokens.append(_Token("Z", ch, i))
            i += 1
            continue
        if ch == "T" and allow_vars:
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable index expected after 'T' at position {i}", i)
            tokens.append(_Token("VAR", text[i:j], i, int(text[i + 1 : j])))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}", i)
    tokens.append(_Token("END", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser over an abstract value domain
# ---------------------------------------------------------------------------
#
# The same recursive-descent core serves three targets (field elements,
# rational maps, split forms) through a small value algebra: values support
# add, neg, mul, div and pow by a nonnegative integer.


_ONE = ZPoly.one()


class _RatFunc:
    """Rational function in z over Q[t] as an unreduced num/den pair. Sums,
    products and powers of pairs over 1 skip the products by the
    denominators."""

    __slots__ = ("num", "den")

    def __init__(self, num: ZPoly, den: ZPoly):
        self.num = num
        self.den = den

    @staticmethod
    def const(c) -> "_RatFunc":
        return _RatFunc(ZPoly.of(Poly.constant(c)), _ONE)

    def add(self, other: "_RatFunc") -> "_RatFunc":
        if self.den == _ONE and other.den == _ONE:
            return _RatFunc(self.num + other.num, _ONE)
        return _RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def neg(self) -> "_RatFunc":
        return _RatFunc(-self.num, self.den)

    def mul(self, other: "_RatFunc") -> "_RatFunc":
        if self.den == _ONE and other.den == _ONE:
            return _RatFunc(self.num * other.num, _ONE)
        return _RatFunc(self.num * other.num, self.den * other.den)

    def div(self, other: "_RatFunc", pos: int) -> "_RatFunc":
        if other.num.is_zero:
            raise ParseError(f"division by zero at position {pos}", pos)
        return _RatFunc(self.num * other.den, self.den * other.num)

    def pow(self, k: int) -> "_RatFunc":
        return _RatFunc(self.num**k, _ONE if self.den == _ONE else self.den**k)


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
    def const_elem(x: FieldElement) -> "_FormVal":
        return _FormVal({(): x})

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

    def div(self, other: "_FormVal", pos: int) -> "_FormVal":
        if list(other.terms.keys()) not in ([], [()]):
            raise ParseError(f"division by a form at position {pos}", pos)
        c = other.terms.get((), FieldElement.zero())
        if c.is_zero:
            raise ParseError(f"division by zero at position {pos}", pos)
        return _FormVal({k: v / c for k, v in self.terms.items()})

    def pow(self, k: int) -> "_FormVal":
        out = _FormVal.const(1)
        for _ in range(k):
            out = out.mul(self)
        return out


class _Parser:
    def __init__(self, text: str, mode: str):
        # mode: "elem" (no z), "map" (z allowed), "form" (T<i> allowed, no z)
        self.text = text
        self.mode = mode
        self.tokens = _tokenize(text, allow_vars=(mode == "form"))
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == op:
            self.next()
            return
        raise ParseError(f"expected {op!r} at position {tok.pos}", tok.pos)

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(
                f"unexpected token {tok.text!r} at position {tok.pos}", tok.pos
            )
        return value

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "+-":
                self.next()
                rhs = self.term()
                value = value.add(rhs.neg() if tok.text == "-" else rhs)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in "*/":
                self.next()
                rhs = self.factor()
                value = value.mul(rhs) if tok.text == "*" else value.div(rhs, tok.pos)
            else:
                return value

    def factor(self):
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.next()
            return self.factor().neg()
        return self.power()

    def power(self):
        value = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.next()
            exp = self.peek()
            if exp.kind != "INT":
                raise ParseError(
                    f"nonnegative integer exponent expected at position {exp.pos}",
                    exp.pos,
                )
            self.next()
            return value.pow(exp.value)
        return value

    def atom(self):
        tok = self.next()
        if tok.kind == "INT":
            return self.const(tok.value)
        if tok.kind == "T":
            if self.mode == "form":
                return _FormVal.const_elem(FieldElement.t())
            return _RatFunc(ZPoly.of(Poly.t()), _ONE)
        if tok.kind == "Z":
            if self.mode != "map":
                raise ParseError(
                    f"map context required for 'z' at position {tok.pos}", tok.pos
                )
            return _RatFunc(ZPoly.z(), _ONE)
        if tok.kind == "VAR":
            return _FormVal.variable(tok.value)
        if tok.kind == "OP" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(
            f"unexpected {'end of input' if tok.kind == 'END' else repr(tok.text)} "
            f"at position {tok.pos}",
            tok.pos,
        )

    def const(self, v: int):
        if self.mode == "form":
            return _FormVal.const(v)
        return _RatFunc.const(v)


# ---------------------------------------------------------------------------
# Public parse entry points
# ---------------------------------------------------------------------------


def parse_field_elem(text: str) -> FieldElement:
    value = _Parser(text, "elem").parse()
    num, den = value.num, value.den
    if den.is_zero or den.degree != 0 or num.degree > 0:
        raise ParseError("internal: z leaked into element parse")
    if den.coeff(0).is_zero:
        raise ParseError("division by zero")
    return FieldElement.make(num.coeff(0), den.coeff(0))


def parse_rational_map(text: str):
    from .maps import normalize_map

    value = _Parser(text, "map").parse()
    if value.den.is_zero:
        raise ParseError("division by zero")
    phi = normalize_map(value.num, value.den)
    if phi.d == 0:
        raise ParseError("constant map")
    return phi


def parse_point(text: str):
    from .maps import ProjectivePoint

    if text.strip() == "inf":
        return ProjectivePoint.infinity()
    return ProjectivePoint.from_field(parse_field_elem(text))


def parse_place(text: str) -> Place:
    if text.strip() == "inf":
        return Place.infinity()
    x = parse_field_elem(text)
    if x.den.degree != 0 or x.num.degree < 1:
        raise ParseError(f"place must be a nonconstant polynomial or 'inf': {text!r}")
    return Place.finite(x.num.monic())


def parse_places(text: str) -> frozenset:
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(parse_place(part) for part in text.split(","))


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


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _t_mono_text(c_abs: Fraction, k: int) -> str:
    """|c|*t^k with unit coefficients and exponents elided."""
    if k == 0:
        return _frac_text(c_abs)
    base = "t" if k == 1 else f"t^{k}"
    return base if c_abs == 1 else f"{_frac_text(c_abs)}*{base}"


def _poly_signed_terms(p: Poly) -> list[tuple[str, str]]:
    """Descending (sign, body) pairs for the nonzero terms of p."""
    out = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        out.append(("-" if c < 0 else "+", _t_mono_text(abs(c), k)))
    return out


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
        c = f.coeff(k)
        if c.is_zero:
            continue
        if k == 0:
            out.extend(_poly_signed_terms(c))
            continue
        zbase = "z" if k == 1 else f"z^{k}"
        if len(c.coeffs) - c.coeffs.count(Fraction(0)) == 1 or c.is_constant:
            # monomial coefficient: inline without parentheses
            j = c.degree
            cj = c.coeff(j)
            sign = "-" if cj < 0 else "+"
            tpart = _t_mono_text(abs(cj), j)
            body = zbase if tpart == "1" else f"{tpart}*{zbase}"
            out.append((sign, body))
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
