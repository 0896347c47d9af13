"""Seeded random generators for elements, points, maps and test instances.

All generators take an explicit random.Random so every suite is reproducible
from a single integer seed."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .errors import DomainError
from .function_field import FieldElement, Place
from .maps import (
    ProjectivePoint,
    RationalMap,
    normalize_map,
    resultant,
)
from .polynomials import Poly, ZPoly


def rand_fraction(rng: Random, cmax: int = 9, nonzero: bool = False) -> Fraction:
    while True:
        c = Fraction(rng.randint(-cmax, cmax), rng.randint(1, cmax))
        if c or not nonzero:
            return c


def rand_tpoly(
    rng: Random,
    max_deg: int = 3,
    cmax: int = 9,
    nonzero: bool = False,
    monic: bool = False,
) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [rand_fraction(rng, cmax) for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = Fraction(1)
    p = Poly.from_list(coeffs)
    if nonzero and p.is_zero:
        return rand_tpoly(rng, max_deg, cmax, nonzero, monic)
    return p


def rand_field_elem(
    rng: Random, max_deg: int = 3, cmax: int = 9, nonzero: bool = False
) -> FieldElement:
    num = rand_tpoly(rng, max_deg, cmax, nonzero=nonzero)
    den = rand_tpoly(rng, max_deg, cmax, nonzero=True)
    return FieldElement.make(num, den)


def rand_point(rng: Random, max_deg: int = 3, cmax: int = 9) -> ProjectivePoint:
    if rng.random() < 0.05:
        return ProjectivePoint.infinity()
    return ProjectivePoint.from_field(rand_field_elem(rng, max_deg, cmax))


def rand_place(rng: Random, max_deg: int = 2) -> Place:
    """Random place: infinity sometimes, else a monic irreducible polynomial."""
    if rng.random() < 0.25:
        return Place.infinity()
    while True:
        p = rand_tpoly(rng, max_deg=rng.randint(1, max_deg), cmax=5, monic=True)
        if p.degree < 1:
            continue
        try:
            return Place.finite(p)
        except DomainError:
            continue


def rand_map(
    rng: Random, d: int = 2, coeff_deg: int = 2, cmax: int = 5
) -> RationalMap:
    """Random normalized degree-d map: retries until the pair is coprime of
    exact degree d with nonzero resultant."""
    while True:
        fc = [rand_tpoly(rng, coeff_deg, cmax) for _ in range(d + 1)]
        gc = [rand_tpoly(rng, coeff_deg, cmax) for _ in range(d + 1)]
        # force exact degree d on at least one side
        if rng.random() < 0.5:
            while fc[d].is_zero:
                fc[d] = rand_tpoly(rng, coeff_deg, cmax, nonzero=True)
        else:
            while gc[d].is_zero:
                gc[d] = rand_tpoly(rng, coeff_deg, cmax, nonzero=True)
        # keep denominators short sometimes, covering polynomial maps
        if rng.random() < 0.3:
            gc = [gc[0]] + [Poly.zero()] * d
            if gc[0].is_zero:
                gc[0] = Poly.one()
        F = ZPoly.from_list(fc)
        G = ZPoly.from_list(gc)
        if F.is_zero or G.is_zero:
            continue
        try:
            phi = normalize_map(F, G)
            if phi.d != d:
                continue
            resultant(phi)  # raises on a shared root
            return phi
        except DomainError:
            continue


def rand_split_fiber_instance(
    rng: Random, d: int = 2
) -> tuple[RationalMap, ProjectivePoint, ProjectivePoint]:
    """(phi, A, P) with the fiber of phi over A split over K and P outside it.

    Built backwards: pick the fiber roots g_i and multiplicities summing to
    d, set W = prod (z - g_i)^{e_i}, pick a denominator G of lower degree,
    and recover F = a*G + W so that F - a*G = W exactly."""
    while True:
        a = rand_tpoly(rng, max_deg=1, cmax=3)
        if rng.random() < 0.5 and d >= 2:
            parts = [d]  # totally ramified fiber point
        else:
            parts = [1] * d
        roots = []
        while len(roots) < len(parts):
            g = rand_tpoly(rng, max_deg=1, cmax=3)
            if all(not (g - other).is_zero for other in roots):
                roots.append(g)
        W = ZPoly.one()
        for g, e in zip(roots, parts):
            W = W * ZPoly.of(-g, Poly.one()) ** e
        gcoeffs = [rand_tpoly(rng, max_deg=1, cmax=3) for _ in range(d)]
        G = ZPoly.from_list(gcoeffs)
        if G.is_zero:
            continue
        F = G.scale_poly(a) + W
        try:
            phi = normalize_map(F, G)
            if phi.d != d:
                continue
            resultant(phi)
        except DomainError:
            continue
        A = ProjectivePoint.from_field(FieldElement.from_poly(a))
        while True:
            p = rand_tpoly(rng, max_deg=2, cmax=3)
            if all(not (p - g).is_zero for g in roots):
                break
        P = ProjectivePoint.from_field(FieldElement.from_poly(p))
        return phi, A, P
