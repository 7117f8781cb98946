"""Harmonic generators and polyharmonic decompositions.

For each degree k >= 1 the space of homogeneous harmonic polynomials in
two variables is two-dimensional, spanned by the real and imaginary
parts of (x + iy)^k. This module expands that pair binomially, so
every degree is computed directly; the pairs satisfy the recurrence

    f_{k+1} = x*f_k - y*g_k,    g_{k+1} = x*g_k + y*f_k

The module also provides the two decompositions that drive everything
else: the splitting of P_k into harmonics plus (x^2+y^2)*P_{k-2}, and
the Almansi expansion of a polyharmonic homogeneous polynomial into
harmonic layers weighted by powers of x^2+y^2. Both are read off the
coefficients C_i of z^i zbar^(d-i), z = x + iy (`zcoords`): with
r^2 = z*zbar, the monomial z^i zbar^(d-i) is r^(2j) times z^(d-2j) or
zbar^(d-2j), j = min(i, d - i), and those two are harmonic. The s-fold
Laplacian, 4^s (d/dz d/dzbar)^s, kills z^i zbar^(d-i) exactly when
i < s or d - i < s.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .polyring import ONE, R2, InputError, Poly, integer_combination, laplacian_power
from .zcoords import _change_component, _component, _in_kernel, _join, _xy_image, _z_components


class PolyharmonicError(InputError):
    """Input fails the required iterated-Laplacian vanishing."""

    def __init__(self, message: str, witness: Poly):
        super().__init__(message)
        self.witness = witness


class HarmonicPair(NamedTuple):
    """The harmonic basis pair of P_k: f = Re (x+iy)^k, g = Im (x+iy)^k."""

    k: int
    f: Poly
    g: Poly


@functools.lru_cache(maxsize=128)
def harmonic_pair(k: int) -> HarmonicPair:
    """Harmonic generator pair of degree k >= 1.

    Cached for the 128 most recently used degrees: one pair at k = 8000
    holds about 7 MB, so a loop over k must not keep every pair alive.
    """
    if k < 1:
        raise InputError("harmonic pair needs degree k >= 1 (degree 0 is the constants)")
    # binomial expansion of (x + iy)^k: i^j = (-1)^(j//2), times i for odd j
    # with C(k, j) by the recurrence C(k, j+1) = C(k, j)*(k - j)/(j + 1)
    real, imag = {}, {}
    binom = 1
    for j in range(k + 1):
        (imag if j % 2 else real)[(k - j, j)] = binom * (-1) ** (j // 2)
        binom = binom * (k - j) // (j + 1)
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
        raise InputError("need 1 <= s <= k")
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


def _layer(c: tuple, j: int) -> Poly:
    """C_(d-j) z^m + C_j zbar^m, m = d - 2j, for c the (z, zbar) component of
    a real polynomial of degree d: its part r^(2j) times a harmonic. As
    C_j = conj(C_(d-j)), that is 2 Re(C_(d-j) z^m) = 2 (a f_m - b g_m) with
    C_(d-j) = a + ib, or the real C_j alone at m = 0."""
    re, im, den = c
    d = len(re) - 1
    m = d - 2 * j
    if m == 0:
        return Poly.constant(Fraction(re[j], den))
    pair = harmonic_pair(m)
    return integer_combination([(2 * re[d - j], pair.f), (-2 * im[d - j], pair.g)]) / den


def harmonic_split(p: Poly) -> tuple[Poly, Poly]:
    """Split homogeneous p of degree k >= 2 as p = h + (x^2+y^2)*q, h harmonic.

    The splitting is the direct sum P_k = H_k + r^2*P_(k-2), so h and q
    are unique; both are read off p's (z, zbar) coefficients C_i:
    h = C_k z^k + C_0 zbar^k and q = sum_(0<i<k) C_i z^(i-1) zbar^(k-1-i).
    """
    if not p:
        raise InputError("cannot split the zero polynomial (degree undefined)")
    if not p.is_homogeneous():
        raise InputError(f"input is not homogeneous: {p}")
    k = p.degree()
    if k < 2:
        raise InputError("harmonic split needs degree k >= 2")
    c = _z_components(p, k)[k]
    re, im, den = c
    q = _change_component(_component(re[1:k], im[1:k], den), _xy_image)
    return _layer(c, 0), _join([q])[0]


class AlmansiDecomposition(NamedTuple):
    """Almansi layers of an order-s polyharmonic homogeneous polynomial.

    components[j] is harmonic (possibly zero) of degree d - 2j, and
    sum_j r^(2j) * components[j] reconstructs the input exactly.
    """

    s: int
    components: tuple[Poly, ...]

    def reconstruct(self) -> Poly:
        """sum_j r^(2j) * components[j], by Horner's rule in r^2."""
        total = Poly.zero()
        for h in reversed(self.components):
            total = total * R2 + h
        return total


def almansi_decompose(u: Poly, s: int) -> AlmansiDecomposition:
    """Expand u (homogeneous, s-fold Laplacian zero) into harmonic layers.

    Layer j is read off u's (z, zbar) coefficients C_i as
    C_(d-j) z^(d-2j) + C_j zbar^(d-2j), and the s-fold Laplacian vanishes
    exactly when C_i = 0 for s <= i <= d - s. Raises PolyharmonicError
    when it does not; the exception carries that nonzero iterate.
    """
    if s < 1:
        raise InputError("polyharmonic order must be at least 1")
    if not u:
        return AlmansiDecomposition(s, (Poly.zero(),) * s)
    if not u.is_homogeneous():
        raise InputError(f"input is not homogeneous: {u}")
    d = u.degree()
    c = _z_components(u, d)[d]
    if not _in_kernel(c, s):
        residual = laplacian_power(u, s)
        raise PolyharmonicError(
            f"input is not polyharmonic of order {s}: Laplacian^{s} = {residual}", residual
        )
    layers = [_layer(c, j) for j in range(min(s, d // 2 + 1))]
    return AlmansiDecomposition(s, tuple(layers) + (Poly.zero(),) * (s - len(layers)))
