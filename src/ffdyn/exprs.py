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

import re
from math import gcd

from .errors import DomainError, ParseError
from .function_field import FieldElement, Place
from .polynomials import Poly, ZPoly

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


class _Token:
    __slots__ = ("kind", "text", "pos", "value")

    def __init__(self, kind: str, text: str, pos: int, value: int = 0):
        self.kind = kind  # INT | T | Z | VAR | OP | END
        self.text = text
        self.pos = pos
        self.value = value


# One token per match after optional whitespace: an integer, a variable T<i>
# (digits optional, so that a bare T is reported), a one-character token, or
# any other character that is not whitespace, which is an error.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(T\d*)|([tz+\-*/^()])|(\S))")
_CHAR_KINDS = {"t": "T", "z": "Z"}


def _tokenize(text: str, allow_vars: bool) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        digits, var, char, _ = m.groups()
        i = m.start(m.lastindex)
        if digits is not None:
            tokens.append(_Token("INT", digits, i, int(digits)))
        elif char is not None:
            tokens.append(_Token(_CHAR_KINDS.get(char, "OP"), char, i))
        elif var is not None and allow_vars:
            if len(var) == 1:
                raise ParseError(f"variable index expected after 'T' at position {i}", i)
            tokens.append(_Token("VAR", var, i, int(var[1:])))
        else:
            raise ParseError(f"unexpected character {text[i]!r} at position {i}", i)
    tokens.append(_Token("END", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser over an abstract value domain
# ---------------------------------------------------------------------------
#
# The same recursive-descent core serves three targets (field elements,
# rational maps, split forms) through a small value algebra: values support
# add, neg, mul, div and pow by a nonnegative integer, and the class builds
# the atoms (const, t, z, variable).
#
# Maps and field elements are built as sparse term dicts
# {(z-degree, t-degree): coefficient} with the zero terms dropped. The atoms
# are integers, t and z, and a quotient stays an unreduced pair, so every
# coefficient is an integer; the dicts become ZPoly or Poly values once, at
# the end of the parse.

_ONE_TERMS = {(0, 0): 1}


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


def _terms_tpoly(terms: dict, z_degree: int = 0) -> Poly:
    """The coefficient of z^z_degree of a term dict with integer coefficients."""
    row = {j: c for (i, j), c in terms.items() if i == z_degree}
    if not row:
        return Poly.zero()
    ints = [0] * (max(row) + 1)
    for j, c in row.items():
        ints[j] = c
    return Poly(tuple(ints), 1)


def _terms_zpoly(terms: dict) -> ZPoly:
    if not terms:
        return ZPoly.zero()
    top = max(i for i, _ in terms)
    return ZPoly(tuple(_terms_tpoly(terms, i) for i in range(top + 1)))


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

    def div(self, other: "_RatFunc", pos: int) -> "_RatFunc":
        if not other.num:
            raise ParseError(f"division by zero at position {pos}", pos)
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
    # value class of the "elem" and "map" modes, and the tokenizer
    ratfunc = _RatFunc
    tokenize = staticmethod(_tokenize)

    def __init__(self, text: str, mode: str):
        # mode: "elem" (no z), "map" (z allowed), "form" (T<i> allowed, no z)
        self.text = text
        self.mode = mode
        self.values = _FormVal if mode == "form" else self.ratfunc
        self.tokens = self.tokenize(text, allow_vars=(mode == "form"))
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
            return self.values.const(tok.value)
        if tok.kind == "T":
            return self.values.t()
        if tok.kind == "Z":
            if self.mode != "map":
                raise ParseError(
                    f"map context required for 'z' at position {tok.pos}", tok.pos
                )
            return self.values.z()
        if tok.kind == "VAR":
            return self.values.variable(tok.value)
        if tok.kind == "OP" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(
            f"unexpected {'end of input' if tok.kind == 'END' else repr(tok.text)} "
            f"at position {tok.pos}",
            tok.pos,
        )


# ---------------------------------------------------------------------------
# Public parse entry points
# ---------------------------------------------------------------------------


def parse_field_elem(text: str) -> FieldElement:
    # z is rejected in this mode, and a quotient by a nonzero value is nonzero
    value = _Parser(text, "elem").parse()
    return FieldElement.make(_terms_tpoly(value.num), _terms_tpoly(value.den))


def parse_rational_map(text: str):
    from .maps import normalize_map

    phi = normalize_map(*_Parser(text, "map").parse().zpolys())
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
