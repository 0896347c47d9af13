"""Slow independent routes that tests compare the fast ones against.

- resultant_sylvester: the resultant from a fraction-free (Bareiss)
  Sylvester determinant, against maps.resultant (sympy subresultants).
- fraction_mul, fraction_divmod, fraction_gcd: schoolbook product, long
  division and Euclid's gcd on lists of Fractions, against the integer
  kernels of polynomials.Poly.
"""

from __future__ import annotations

from fractions import Fraction

from ffdyn.maps import RationalMap
from ffdyn.polynomials import Poly


def bareiss_det(M: list[list[Poly]]) -> Poly:
    n = len(M)
    if n == 0:
        return Poly.one()
    M = [row[:] for row in M]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if M[k][k].is_zero:
            pivot = next((i for i in range(k + 1, n) if not M[i][k].is_zero), None)
            if pivot is None:
                return Poly.zero()
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]).exact_div(prev)
            M[i][k] = Poly.zero()
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else -det


def resultant_sylvester(phi: RationalMap) -> Poly:
    """Resultant of the degree-d homogenizations via a fraction-free Sylvester
    determinant; independent slow route kept as a cross-check for the main
    subresultant-based computation."""
    d = phi.d
    f = [phi.F.coeff(d - i) for i in range(d + 1)]  # descending
    g = [phi.G.coeff(d - i) for i in range(d + 1)]
    n = 2 * d
    M = [[Poly.zero()] * n for _ in range(n)]
    for r in range(d):
        for j, c in enumerate(f):
            M[r][r + j] = c
    for r in range(d):
        for j, c in enumerate(g):
            M[d + r][r + j] = c
    return bareiss_det(M)


def fraction_mul(a: Poly, b: Poly) -> Poly:
    """Schoolbook product on Fraction coefficients."""
    x, y = a.coeffs, b.coeffs
    if not x or not y:
        return Poly.zero()
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, cx in enumerate(x):
        for j, cy in enumerate(y):
            out[i + j] += cx * cy
    return Poly.from_list(out)


def fraction_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division on Fraction coefficients; b nonzero."""
    rem = list(a.coeffs)
    y = b.coeffs
    dd = len(y) - 1
    if len(rem) - 1 < dd:
        return Poly.zero(), a
    q = [Fraction(0)] * (len(rem) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + dd] / y[-1]
        q[i] = c
        for j, cy in enumerate(y):
            rem[i + j] -= c * cy
    return Poly.from_list(q), Poly.from_list(rem[:dd])


def fraction_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm on Fraction coefficients."""
    while not b.is_zero:
        a, b = b, fraction_divmod(a, b)[1]
        if not b.is_zero:
            b = b.scale(1 / b.leading)
    return a.scale(1 / a.leading) if not a.is_zero else a
