"""Harmonic generators and polyharmonic decompositions.

For each degree k >= 1 the space of homogeneous harmonic polynomials in
two variables is two-dimensional, spanned by the real and imaginary
parts of (x + iy)^k. This module expands that pair binomially, so
every degree is computed directly; the pairs satisfy the recurrence

    f_{k+1} = x*f_k - y*g_k,    g_{k+1} = x*g_k + y*f_k

The module also provides the two decompositions that drive everything
else: the splitting of P_k into harmonics plus (x^2+y^2)*P_{k-2}, and
the Almansi expansion of a polyharmonic homogeneous polynomial into
harmonic layers weighted by powers of x^2+y^2.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from . import linalg
from .polyring import (
    ONE,
    R2,
    Poly,
    laplacian_power,
    monomial_basis,
)


class PolyharmonicError(ValueError):
    """Input fails the required iterated-Laplacian vanishing."""

    def __init__(self, message: str, witness: Poly):
        super().__init__(message)
        self.witness = witness


class HarmonicPair(NamedTuple):
    """The harmonic basis pair of P_k: f = Re (x+iy)^k, g = Im (x+iy)^k."""

    k: int
    f: Poly
    g: Poly


@functools.lru_cache(maxsize=None)
def harmonic_pair(k: int) -> HarmonicPair:
    """Harmonic generator pair of degree k >= 1."""
    if k < 1:
        raise ValueError("harmonic pair needs degree k >= 1 (degree 0 is the constants)")
    # binomial expansion of (x + iy)^k: i^j = (-1)^(j//2), times i for odd j
    real, imag = {}, {}
    for j in range(k + 1):
        (imag if j % 2 else real)[(k - j, j)] = math.comb(k, j) * (-1) ** (j // 2)
    return HarmonicPair(k, Poly(real), Poly(imag))


def harmonic_basis(d: int) -> tuple[Poly, ...]:
    """Basis of the degree-d harmonics: (1,) at d=0, else the pair (f_d, g_d)."""
    if d < 0:
        return ()
    if d == 0:
        return (ONE,)
    pair = harmonic_pair(d)
    return (pair.f, pair.g)


class ProductIdentityReport(NamedTuple):
    """Outcome of the three radial product identities at offsets (s, k).

    first:            f_s*r^(2(k-s)) == f_k*f_(k-s) + g_k*g_(k-s)
    printed_second:   g_s*r^(2(k-s)) == g_k*f_(k-s) + f_k*g_(k-s)
    corrected_second: g_s*r^(2(k-s)) == g_k*f_(k-s) - f_k*g_(k-s)

    The printed form of the second identity has the wrong sign (it fails
    already at s=1, k=3); the corrected form follows from taking the
    imaginary part of z^k * conj(z)^(k-s) and holds identically.
    """

    s: int
    k: int
    first_ok: bool
    printed_second_ok: bool
    corrected_second_ok: bool


def check_product_identity(s: int, k: int) -> ProductIdentityReport:
    """Exactly expand and compare both sides of the product identities."""
    if not 1 <= s <= k:
        raise ValueError("need 1 <= s <= k")
    fs, gs = harmonic_pair(s).f, harmonic_pair(s).g
    fk, gk = harmonic_pair(k).f, harmonic_pair(k).g
    if k == s:
        fks, gks = ONE, Poly.zero()
    else:
        below = harmonic_pair(k - s)
        fks, gks = below.f, below.g
    radial = R2 ** (k - s)
    first = fs * radial == fk * fks + gk * gks
    lhs2 = gs * radial
    printed = lhs2 == gk * fks + fk * gks
    corrected = lhs2 == gk * fks - fk * gks
    return ProductIdentityReport(s, k, first, printed, corrected)


def harmonic_split(p: Poly) -> tuple[Poly, Poly]:
    """Split homogeneous p of degree k >= 2 as p = h + (x^2+y^2)*q, h harmonic.

    The splitting is the direct sum P_k = H_k + r^2*P_(k-2), so h and q
    are unique; both come from one exact linear solve.
    """
    if not p:
        raise ValueError("cannot split the zero polynomial (degree undefined)")
    if not p.is_homogeneous():
        raise ValueError(f"input is not homogeneous: {p}")
    k = p.degree()
    if k < 2:
        raise ValueError("harmonic split needs degree k >= 2")
    pair = harmonic_pair(k)
    radial_monos = monomial_basis(k - 2)
    columns = [pair.f, pair.g] + [R2.shifted(a, b) for a, b in radial_monos]
    _, missing, solutions = linalg.solve_canonical(columns, [p], monomial_basis(k))
    if missing is not None:
        raise AssertionError("direct sum decomposition failed; this cannot happen")
    solution = solutions[0]
    h = pair.f * solution[0] + pair.g * solution[1]
    q = Poly({exps: c for exps, c in zip(radial_monos, solution[2:]) if c})
    return h, q


class AlmansiDecomposition(NamedTuple):
    """Almansi layers of an order-s polyharmonic homogeneous polynomial.

    components[j] is harmonic (possibly zero) of degree d - 2j, and
    sum_j r^(2j) * components[j] reconstructs the input exactly.
    """

    s: int
    components: tuple[Poly, ...]

    def reconstruct(self) -> Poly:
        total = Poly.zero()
        for j, h in enumerate(self.components):
            total = total + R2**j * h
        return total


def almansi_decompose(u: Poly, s: int) -> AlmansiDecomposition:
    """Expand u (homogeneous, s-fold Laplacian zero) into harmonic layers.

    Raises PolyharmonicError when the s-fold Laplacian of u is nonzero;
    the exception carries that nonzero iterate.
    """
    if s < 1:
        raise ValueError("polyharmonic order must be at least 1")
    if not u:
        return AlmansiDecomposition(s, (Poly.zero(),) * s)
    if not u.is_homogeneous():
        raise ValueError(f"input is not homogeneous: {u}")
    residual = laplacian_power(u, s)
    if residual:
        raise PolyharmonicError(
            f"input is not polyharmonic of order {s}: Laplacian^{s} = {residual}", residual
        )
    d = u.degree()
    columns = []
    layout: list[tuple[int, Poly]] = []  # (layer index, harmonic generator)
    for j in range(s):
        if d - 2 * j < 0:
            break
        for h in harmonic_basis(d - 2 * j):
            layout.append((j, h))
            columns.append(R2**j * h)
    _, missing, solutions = linalg.solve_canonical(columns, [u], monomial_basis(d))
    if missing is not None:
        raise AssertionError("Almansi solve failed despite vanishing iterated Laplacian")
    solution = solutions[0]
    layers = [Poly.zero()] * s
    for (j, h), c in zip(layout, solution):
        if c:
            layers[j] = layers[j] + h * c
    return AlmansiDecomposition(s, tuple(layers))
