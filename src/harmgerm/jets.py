"""Truncated-germ algebra: jets, jet diffeomorphisms and their composition.

A Jet is a polynomial cut off above a degree bound, standing for a germ
modulo all terms of higher order. A JetMap is a pair of jets with zero
constant term and invertible linear part: the truncation of a local
diffeomorphism fixing the origin. Composition truncates eagerly at every
multiplication, which changes nothing modulo the bound and keeps the
intermediate polynomials small.

Complex coefficients appear only inside this module (as real/imaginary
pairs of Polys); every public result is real.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polyring import X, Y, Poly


class BoundMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Jet:
    """A polynomial modulo terms of degree above `bound`."""

    poly: Poly
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("jet bound must be non-negative")
        if self.poly and self.poly.degree() > self.bound:
            raise ValueError("polynomial exceeds the jet bound; use jet_truncate")


def jet_truncate(p: Poly, bound: int) -> Jet:
    """The jet of p: drop all terms of degree above bound."""
    return Jet(p.truncate(bound), bound)


@dataclass(frozen=True)
class JetMap:
    """Truncated diffeomorphism-germ (x, y) -> (x.poly, y.poly)."""

    x: Jet
    y: Jet
    bound: int

    def __post_init__(self):
        if self.x.bound != self.bound or self.y.bound != self.bound:
            raise BoundMismatchError("component bounds disagree with the map bound")
        for component in (self.x, self.y):
            if component.poly.coeff(0, 0):
                raise ValueError("jet map must fix the origin (zero constant term)")
        det = self.linear_determinant()
        if not det:
            raise ValueError("jet map has singular linear part")

    def linear_determinant(self) -> Fraction:
        px, py = self.x.poly, self.y.poly
        return px.coeff(1, 0) * py.coeff(0, 1) - px.coeff(0, 1) * py.coeff(1, 0)


def identity_map(bound: int) -> JetMap:
    return JetMap(Jet(X, bound), Jet(Y, bound), bound)


def jet_map(px: Poly, py: Poly, bound: int) -> JetMap:
    """Build a JetMap from raw component polynomials, truncating first."""
    return JetMap(jet_truncate(px, bound), jet_truncate(py, bound), bound)


def jet_compose(h: Jet, phi: JetMap) -> Jet:
    """The jet of h(phi_x, phi_y) at the common bound.

    Powers of the components are cached across terms, and every product
    is truncated at the bound.
    """
    if h.bound != phi.bound:
        raise BoundMismatchError(f"jet bound {h.bound} vs map bound {phi.bound}")
    bound = h.bound
    pow_x = [Poly.constant(1)]
    pow_y = [Poly.constant(1)]

    def power(cache, base, n):
        while len(cache) <= n:
            cache.append(cache[-1].mul_truncated(base, bound))
        return cache[n]

    total = Poly.zero()
    for (a, b), c in h.poly.terms():
        piece = power(pow_x, phi.x.poly, a).mul_truncated(power(pow_y, phi.y.poly, b), bound)
        total = total + piece * c
    return Jet(total, bound)


def jet_map_compose(phi: JetMap, psi: JetMap) -> JetMap:
    """The map p -> phi(psi(p)), so h o (phi o psi) == (h o phi) o psi."""
    if phi.bound != psi.bound:
        raise BoundMismatchError(f"map bounds differ: {phi.bound} vs {psi.bound}")
    return JetMap(
        jet_compose(phi.x, psi),
        jet_compose(phi.y, psi),
        phi.bound,
    )


def jets_equivalent_mod(h1: Jet, h2: Jet, k: int) -> bool:
    """True when h1 and h2 agree in every term of degree at most k."""
    if h1.bound < k or h2.bound < k:
        raise BoundMismatchError(f"jet bounds ({h1.bound}, {h2.bound}) insufficient for level {k}")
    difference = h1.poly - h2.poly
    return not difference or difference.order() > k


def binomial_coefficients(alpha: Fraction, count: int) -> list[Fraction]:
    """Generalised binomial coefficients C(alpha, m) for m = 0..count-1."""
    coeffs = [Fraction(1)]
    for m in range(1, count):
        coeffs.append(coeffs[-1] * (alpha - (m - 1)) / m)
    return coeffs


def jet_root(w: Jet, k: int) -> Jet:
    """The unique jet r with constant term 1 and r^k == 1 + w modulo the bound.

    Computed by the binomial series (1 + w)^(1/k); w must have zero
    constant term, so the series terminates at the bound.
    """
    if k < 1:
        raise ValueError("root index must be at least 1")
    if w.poly.coeff(0, 0):
        raise ValueError("root argument must have zero constant term")
    root = _cjet_series(
        _CJet(w.poly, Poly.zero(), w.bound), binomial_coefficients(Fraction(1, k), w.bound + 1)
    )
    return Jet(root.re, w.bound)


# -- complex-pair helpers ----------------------------------------------------


@dataclass(frozen=True)
class _CJet:
    """Real/imaginary pair of polynomials, truncated at a shared bound."""

    re: Poly
    im: Poly
    bound: int

    def __add__(self, other: "_CJet") -> "_CJet":
        return _CJet(self.re + other.re, self.im + other.im, self.bound)

    def __mul__(self, other: "_CJet") -> "_CJet":
        b = self.bound
        re = self.re.mul_truncated(other.re, b) - self.im.mul_truncated(other.im, b)
        im = self.re.mul_truncated(other.im, b) + self.im.mul_truncated(other.re, b)
        return _CJet(re, im, b)

    def scale(self, c: Fraction) -> "_CJet":
        return _CJet(self.re * c, self.im * c, self.bound)

    def is_zero(self) -> bool:
        return not self.re and not self.im


def _cjet_const(c: Fraction, bound: int) -> _CJet:
    return _CJet(Poly.constant(c), Poly.zero(), bound)


def _cjet_series(w: _CJet, coeffs: list[Fraction]) -> _CJet:
    """Evaluate sum_m coeffs[m] * w^m, truncating at w's bound.

    Requires w to have zero constant term so that the series terminates.
    """
    total = _cjet_const(coeffs[0], w.bound)
    power = _cjet_const(Fraction(1), w.bound)
    for m in range(1, len(coeffs)):
        power = power * w
        if power.is_zero():
            break
        total = total + power.scale(coeffs[m])
    return total


def _cjet_compose(w: _CJet, phi: JetMap) -> _CJet:
    """Substitute the map components into both parts of w."""
    re = jet_compose(Jet(w.re, w.bound), phi).poly
    im = jet_compose(Jet(w.im, w.bound), phi).poly
    return _CJet(re, im, w.bound)


def _scale_map_from_root(rho: _CJet, bound: int) -> JetMap:
    """The map z -> z * rho split into real coordinates."""
    px = X.mul_truncated(rho.re, bound) - Y.mul_truncated(rho.im, bound)
    py = X.mul_truncated(rho.im, bound) + Y.mul_truncated(rho.re, bound)
    return jet_map(px, py, bound)


def _check_scale_arguments(u: Jet, v: Jet) -> None:
    if u.bound != v.bound:
        raise BoundMismatchError(f"jet bounds differ: {u.bound} vs {v.bound}")
    if u.poly.coeff(0, 0) or v.poly.coeff(0, 0):
        raise ValueError("scale map arguments must have zero constant term")


def complex_scale_map(u: Jet, v: Jet, k: int) -> JetMap:
    """The map z -> z * (1 + u - iv)^(1/k) as a real JetMap.

    Composing the degree-k harmonic generator f_k with this map multiplies
    it, modulo the bound, by (1 + u) and mixes in v * g_k:

        f_k o phi == f_k + u*f_k + v*g_k   (modulo the bound)

    since (z*rho)^k = z^k * (1 + u - iv) up to truncation.
    """
    _check_scale_arguments(u, v)
    bound = u.bound
    w = _CJet(u.poly, -v.poly, bound)
    rho = _cjet_series(w, binomial_coefficients(Fraction(1, k), bound + 1))
    return _scale_map_from_root(rho, bound)


def inverse_scale_map(u: Jet, v: Jet, k: int) -> JetMap:
    """A map phi = z*rho with ((1 + u - iv) o phi) * rho^k == 1 modulo the bound.

    Composing f_k + u*f_k + v*g_k with phi recovers f_k modulo the
    bound, undoing the effect of complex_scale_map at jet level without
    any leftover higher-order terms. rho solves the fixed-point equation
    rho = (1 + (u - iv) o phi(rho))^(-1/k), one binomial series per
    pass, starting from rho = 1. Since u and v have zero constant term,
    each pass stabilises one more degree of rho, so the iteration
    terminates within the bound.

    Everything a germ of order k can see of the map sits in component
    degrees up to bound - k + 1, so the iteration runs at that much
    smaller internal bound and the result is lifted afterwards.
    """
    _check_scale_arguments(u, v)
    if k < 1:
        raise ValueError("root index must be at least 1")
    bound = u.bound
    inner = bound - k
    if inner < 0:
        return identity_map(bound)
    target = _CJet(u.poly.truncate(inner), -v.poly.truncate(inner), inner)
    coeffs = binomial_coefficients(Fraction(-1, k), inner + 1)
    rho = _cjet_const(Fraction(1), inner)
    for _ in range(inner + 2):
        phi = _scale_map_from_root(rho, inner + 1)
        restricted = jet_map(phi.x.poly, phi.y.poly, inner)
        rho_next = _cjet_series(_cjet_compose(target, restricted), coeffs)
        if rho_next == rho:
            return JetMap(Jet(phi.x.poly, bound), Jet(phi.y.poly, bound), bound)
        rho = rho_next
    raise AssertionError("inverse scale map iteration did not stabilise within the bound")
