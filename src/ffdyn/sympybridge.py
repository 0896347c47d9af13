"""The K[z] fallbacks through sympy's dense integer routines, and the names
of the native Q[t] kernels that the tracer and ``tests/test_sympybridge.py``
look up here.

Factorization and the resultant are native: ``factor_tpoly``,
``is_irreducible_tpoly`` and ``resultant_z`` live in ``polynomials`` and are
re-exported below. Three K[z] routines still go through sympy, each behind a
certificate or on a path of its own: ``zpoly_gcd_over_k`` runs only when
``maps.normalize_map`` cannot show F and G coprime by specializing t,
``sqf_zpoly_over_k`` in ``maps.max_fiber_ram`` only when the same test
cannot show the fiber polynomial squarefree, and ``factor_zpoly_over_k``
only for explicit fibers (``maps.fiber``). Each imports sympy in its own
body, so importing this module, and ``ffdyn.cli``, loads no sympy.

sympy is used as the engine only; all public data stays in the package's own
exact types. Every call converts its operands straight to sympy's dense
representation over ZZ and calls the ``dmp_*`` routine, with no sympy
expressions or ``Poly`` objects in between: an element f of Q[t][z] becomes
m*f in Z[z, t], where m is the lcm of the denominators of its
z-coefficients: a list of t-lists in the variable order (z, t), each level
highest degree first, zero entries as ``[]``.

Factoring in Z[z, t] gives the factorization over K = Q(t) by Gauss's
lemma: irreducible factors with positive z-degree are exactly the
K[z]-irreducibles, and t-only factors are units of K. Results with positive
z-degree are returned in one canonical form: t-primitive, integer
coefficients with gcd 1 and positive leading coefficient of the leading
z-coefficient. The same holds for gcds and squarefree parts, which clearing
denominators changes only by units.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .polynomials import Poly, ZPoly, factor_tpoly, is_irreducible_tpoly, resultant_z

__all__ = [
    "factor_tpoly", "factor_zpoly_over_k", "is_irreducible_tpoly", "resultant_z",
    "sqf_zpoly_over_k", "zpoly_gcd_over_k",
]


def _to_dense(f: ZPoly) -> tuple[list[list[int]], int]:
    """(m*f as a dense (z, t) list over ZZ, m) for nonzero f, with m the lcm
    of the denominators of the z-coefficients (``ZPoly.integer_rows``)."""
    rows, m = f.integer_rows
    return [list(reversed(row)) for row in reversed(rows)], m


def _from_dense(f: list[list[int]], scale: Fraction = Fraction(1)) -> ZPoly:
    """The ZPoly scale * f of a dense (z, t) list over ZZ."""
    rows = [Poly(tuple(reversed(row)), 1) for row in reversed(f)]
    if scale != 1:
        rows = [p.scale(scale) for p in rows]
    return ZPoly.from_list(rows)


def _canonical(f: list[list[int]]) -> list[list[int]]:
    """Canonical associate of a t-primitive dense (z, t) polynomial: integer
    content 1 and positive leading coefficient of the leading z-coefficient."""
    from sympy.polys.densearith import dmp_neg
    from sympy.polys.densebasic import dmp_ground_LC
    from sympy.polys.densetools import dmp_ground_primitive
    from sympy.polys.domains import ZZ

    _, f = dmp_ground_primitive(f, 1, ZZ)
    return dmp_neg(f, 1, ZZ) if dmp_ground_LC(f, 1, ZZ) < 0 else f


def factor_zpoly_over_k(f: ZPoly) -> list[tuple[ZPoly, int]]:
    """Irreducible factorization over K = Q(t) of a nonzero f in K[z].

    Only factors with positive z-degree are returned (t-only content is a
    unit of K); each factor is a canonical t-primitive representative.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dmp_factor_list

    if f.is_zero:
        raise DomainError("cannot factor zero")
    if f.degree <= 0:
        return []
    _, raw = dmp_factor_list(_to_dense(f)[0], 1, ZZ)
    out = [(_from_dense(_canonical(q)), mult) for q, mult in raw if len(q) > 1]
    out.sort(key=lambda fm: (fm[0].degree, [tuple(c.coeffs) for c in fm[0].coeffs]))
    return out


def sqf_zpoly_over_k(f: ZPoly) -> list[tuple[ZPoly, int]]:
    """Squarefree decomposition over K of a nonzero f in K[z].

    Returns [(part, multiplicity)] for the parts with positive z-degree, in
    ascending multiplicity. A part may carry t-content: sympy multiplies the
    squarefree parts of the t-content into the parts of equal multiplicity.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.sqfreetools import dmp_sqf_list

    if f.is_zero:
        raise DomainError("cannot decompose zero")
    if f.degree <= 0:
        return []
    _, raw = dmp_sqf_list(_to_dense(f)[0], 1, ZZ)
    return [(_from_dense(_canonical(q)), mult) for q, mult in raw if len(q) > 1]


def zpoly_gcd_over_k(f: ZPoly, g: ZPoly) -> tuple[ZPoly, ZPoly, ZPoly]:
    """gcd h of f, g in K[z] with the cofactors f/h and g/h.

    h is canonical (t-primitive, see the module docstring) and the cofactors
    are exact, with Q[t] coefficients by Gauss's lemma. A z-constant gcd is
    returned as 1 with the cofactors f and g; gcd(0, g) is g itself.
    """
    if f.is_zero:
        return g, f, ZPoly.one()
    if g.is_zero:
        return f, ZPoly.one(), g
    from sympy.polys.densearith import dmp_mul, dmp_neg
    from sympy.polys.densebasic import dmp_ground_LC
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_inner_gcd, dmp_primitive

    (F, mf), (G, mg) = _to_dense(f), _to_dense(g)
    h, cf, cg = dmp_inner_gcd(F, G, 1, ZZ)
    if len(h) == 1:
        return ZPoly.one(), f, g
    # m_f*f = cont*prim*cf with prim = +-h canonical, so f/h = +-cont*cf/m_f
    cont, h = dmp_primitive(h, 1, ZZ)
    sign = 1 if dmp_ground_LC(h, 1, ZZ) > 0 else -1
    if sign < 0:
        h = dmp_neg(h, 1, ZZ)
    if cont != [1]:
        cf = dmp_mul(cf, [cont], 1, ZZ)
        cg = dmp_mul(cg, [cont], 1, ZZ)
    return (
        _from_dense(h),
        _from_dense(cf, Fraction(sign, mf)),
        _from_dense(cg, Fraction(sign, mg)),
    )
