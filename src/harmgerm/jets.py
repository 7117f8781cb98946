"""Truncated-germ algebra: jets, jet diffeomorphisms and their composition.

A Jet is a polynomial cut off above a degree bound, standing for a germ
modulo all terms of higher order. A JetMap is a pair of jets with zero
constant term and invertible linear part: the truncation of a local
diffeomorphism fixing the origin. Composition truncates eagerly at every
multiplication, which changes nothing modulo the bound and keeps the
intermediate polynomials small.

Composition has two routes, chosen by the map alone. A radial map, one
whose complex form phi.x + i*phi.y is exactly divisible by z = x + iy,
is z -> z*rho. There the jet is rewritten as sum C_ij z^i zbar^j, and
each term becomes C_ij z^i zbar^j rho^i conj(rho)^j. That product only
matters up to degree bound - i - j, which is far below the bound for the
high-order jets the reduction composes. Since the jet is real,
C_ji = conj(C_ij), so only the terms with i >= j are formed. Every other
map (translations, shears) substitutes its components into x and y.

The inverse radial scale map solves a fixed point by graded passes:
pass d fixes the degree-d part of rho from the degrees below d, so it
runs at truncation d, and the last pass gives the unique solution with
no convergence test (van der Hoeven, "Relax, but don't be too lazy",
JSC 2002).

Complex coefficients appear only inside this module (as real/imaginary
pairs of Polys, in (x, y) or in (z, zbar) exponents); every public
result is real, and an imaginary part left in a real result is an
error. The change of variables between (x, y) and (z, zbar), the
exponent reindexing and the multiplications by a single monomial work
on Poly's integer numerators over one denominator (`_num`, `_den`) and
wrap their results with `Poly._of`, so they build no Fraction per term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .polyring import ONE, X, Y, Poly


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

    A radial map z -> z*rho composes in (z, zbar) coordinates (see the
    module docstring); any other map substitutes its components, with
    their powers cached across terms. Every product is truncated at the
    bound.
    """
    if h.bound != phi.bound:
        raise BoundMismatchError(f"jet bound {h.bound} vs map bound {phi.bound}")
    rho = _radial_factor(phi)
    if rho is not None:
        return Jet(_compose_radial((h.poly,), rho, h.bound)[0], h.bound)
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
    """Real/imaginary pair of polynomials, truncated at a shared bound.

    The exponents stand for x^a*y^b, or for z^a*zbar^b where the
    radial composition works in (z, zbar) coordinates.
    """

    re: Poly
    im: Poly
    bound: int

    def __add__(self, other: "_CJet") -> "_CJet":
        return _CJet(self.re + other.re, self.im + other.im, self.bound)

    def __mul__(self, other: "_CJet") -> "_CJet":
        # three real products instead of four (Gauss)
        b = self.bound
        ac = self.re.mul_truncated(other.re, b)
        bd = self.im.mul_truncated(other.im, b)
        cross = (self.re + self.im).mul_truncated(other.re + other.im, b)
        return _CJet(ac - bd, cross - ac - bd, b)

    def scale(self, c: Fraction) -> "_CJet":
        return _CJet(self.re * c, self.im * c, self.bound)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def at(self, bound: int) -> "_CJet":
        """The same pair, with products truncated at `bound` from now on."""
        return _CJet(self.re.truncate(bound), self.im.truncate(bound), bound)

    def conjugate_zz(self) -> "_CJet":
        """Complex conjugate of a (z, zbar) polynomial: swap the exponents
        and negate the imaginary part."""
        re, im = (_reindexed(p, lambda a, b: (b, a)) for p in (self.re, self.im))
        return _CJet(re, -im, self.bound)


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


# -- (z, zbar) coordinates -----------------------------------------------------


def _reindexed(p: Poly, key) -> Poly:
    """p with every exponent pair (a, b) moved to key(a, b), a bijection."""
    return Poly._of({key(a, b): v for (a, b), v in p._num.items()}, p._den)


def _shifted(p: Poly, i: int, j: int, bound: int) -> Poly:
    """p * z^i*zbar^j (or x^i*y^j), dropping the degrees above bound."""
    top = bound - i - j
    return Poly._of({(a + i, b + j): v for (a, b), v in p._num.items() if a + b <= top}, p._den)


def _binomial_product(a: int, b: int) -> list[int]:
    """Coefficients of (1 + t)^a * (1 - t)^b, lowest degree first."""
    return [
        sum(
            math.comb(a, p) * math.comb(b, m - p) * (-1) ** (m - p)
            for p in range(max(0, m - b), min(a, m) + 1)
        )
        for m in range(a + b + 1)
    ]


# Images of single monomials under the change of variables, as
# (exponents, coefficient, imaginary) triples: every coefficient is real
# or purely imaginary. A composition at bound N meets at most
# (N + 1)(N + 2)/2 monomials: 1431 at bound 52, the CLI's largest k = 28.
@functools.lru_cache(maxsize=4096)
def _z_image(a: int, b: int) -> tuple:
    """x^a*y^b in (z, zbar): x = (z + zbar)/2 and y = (z - zbar)/(2i) give
    i^b/2^n * sum_m e_m z^m zbar^(n-m), with e from (1 + t)^a (1 - t)^b."""
    n = a + b
    unit = Fraction((-1) ** (b // 2), 2**n)
    return tuple(
        ((m, n - m), e * unit, b % 2 == 1) for m, e in enumerate(_binomial_product(a, b)) if e
    )


@functools.lru_cache(maxsize=4096)
def _xy_image(i: int, j: int) -> tuple:
    """z^i*zbar^j = (x + iy)^i (x - iy)^j in (x, y): sum_q i^q e_q x^(n-q) y^q,
    with e from (1 + t)^i (1 - t)^j."""
    n = i + j
    return tuple(
        ((n - q, q), e * (-1) ** (q // 2), q % 2 == 1)
        for q, e in enumerate(_binomial_product(i, j))
        if e
    )


def _change_variables(w: _CJet, image) -> _CJet:
    """Replace every monomial of w by its image, keeping complex coefficients.

    Both parts go over one denominator: the lcm of theirs times the lcm of
    the image coefficients' denominators. The images then add up as ints.
    """
    den = math.lcm(w.re._den, w.im._den)
    terms = [
        (imaginary_part, v * (den // p._den), image(a, b))
        for imaginary_part, p in ((False, w.re), (True, w.im))
        for (a, b), v in p._num.items()
    ]
    image_den = math.lcm(*{value.denominator for _, _, img in terms for _, value, _ in img})
    re, im = {}, {}
    for imaginary_part, v, img in terms:
        for exps, value, imaginary in img:
            t = v * value.numerator * (image_den // value.denominator)
            if imaginary_part and imaginary:
                t = -t
            target = im if imaginary_part != imaginary else re
            target[exps] = target.get(exps, 0) + t
    den *= image_den
    re, im = ({k: t for k, t in part.items() if t} for part in (re, im))
    return _CJet(Poly._of(re, den), Poly._of(im, den), w.bound)


def _radial_factor(phi: JetMap) -> _CJet | None:
    """rho in (z, zbar) coordinates when phi.x + i*phi.y == z*rho exactly,
    otherwise None."""
    w = _change_variables(_CJet(phi.x.poly, phi.y.poly, phi.bound), _z_image)
    if any(a == 0 for part in (w.re, w.im) for a, _ in part._num):
        return None
    re, im = (_reindexed(p, lambda a, b: (a - 1, b)) for p in (w.re, w.im))
    return _CJet(re, im, phi.bound - 1)


def _compose_radial(parts: tuple[Poly, ...], rho: _CJet, bound: int) -> list[Poly]:
    """Each real polynomial of `parts` composed with z -> z*rho, rho in
    (z, zbar) coordinates, modulo degrees above the bound.

    With p = sum C_ij z^i zbar^j, the terms with i >= j are summed row by
    row: for each j, B_j = sum_i C_ij z^i rho^i, then B_j conj(rho)^j
    zbar^j. The diagonal counts half, so the result is S + conj(S). The
    powers rho^n are shared by all parts and kept only to the degree
    their terms need. z^i and zbar^j are exponent shifts. Each C_ij
    scales by ints: its numerators over 2*den, twice the part's common
    denominator (so the diagonal's half stays an int), and S is divided
    by 2*den once at the end.
    """
    coefficients = [_change_variables(_CJet(p, Poly.zero(), bound), _z_image) for p in parts]
    rows: list[dict[int, list[int]]] = []
    need = [-1] * (bound + 2)
    for c in coefficients:
        rows.append({})
        for i, j in c.re._num.keys() | c.im._num.keys():
            if i >= j:
                rows[-1].setdefault(j, []).append(i)
                need[i] = max(need[i], bound - i - j)
                need[j] = max(need[j], bound - i - j)
    for n in range(bound, -1, -1):
        need[n] = max(need[n], need[n + 1])
    powers = [_CJet(ONE, Poly.zero(), need[0])]
    while need[len(powers)] >= 0:
        top = need[len(powers)]
        powers.append(powers[-1].at(top) * rho.at(top))

    composed = []
    for c, row_columns in zip(coefficients, rows):
        den = math.lcm(c.re._den, c.im._den)
        re_unit, im_unit = den // c.re._den, den // c.im._den
        total = _CJet(Poly.zero(), Poly.zero(), bound)
        for j, columns in row_columns.items():
            top = bound - j
            row = _CJet(Poly.zero(), Poly.zero(), top)
            for i in columns:
                weight = 1 if i == j else 2
                a = c.re._num.get((i, j), 0) * re_unit * weight
                b = c.im._num.get((i, j), 0) * im_unit * weight
                p, q = (_shifted(part, i, 0, top) for part in (powers[i].re, powers[i].im))
                row = row + _CJet(p.scale(a) - q.scale(b), p.scale(b) + q.scale(a), top)
            if j:
                row = row * powers[j].conjugate_zz()
                row = _CJet(_shifted(row.re, 0, j, bound), _shifted(row.im, 0, j, bound), bound)
            total = total + row
        total = total.scale(Fraction(1, 2 * den))
        result = _change_variables(total + total.conjugate_zz(), _xy_image)
        if result.im:
            raise ArithmeticError(f"composition of a real jet left an imaginary part {result.im}")
        composed.append(result.re)
    return composed


# -- radial scale maps ---------------------------------------------------------


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
    any leftover higher-order terms. rho is the unique solution of
    rho = (1 + (u - iv) o phi(rho))^(-1/k) with constant term 1. Since u
    and v have zero constant term, the degree-d part of the right-hand
    side depends only on the degrees of rho below d. So pass d = 1, 2,
    ... evaluates it at truncation d from the previous pass, and the
    last pass leaves the solution itself.

    Everything a germ of order k can see of the map sits in component
    degrees up to bound - k + 1, so the passes stop at that much
    smaller internal bound and the result is lifted afterwards.
    """
    _check_scale_arguments(u, v)
    if k < 1:
        raise ValueError("root index must be at least 1")
    bound = u.bound
    inner = bound - k
    if inner < 0:
        return identity_map(bound)
    coeffs = binomial_coefficients(Fraction(-1, k), inner + 1)
    rho = _cjet_const(Fraction(1), 0)
    for d in range(1, inner + 1):
        rho_zz = _change_variables(rho, _z_image)
        u_d, v_d = _compose_radial((u.poly.truncate(d), v.poly.truncate(d)), rho_zz, d)
        rho = _cjet_series(_CJet(u_d, -v_d, d), coeffs)
    phi = _scale_map_from_root(rho, inner + 1)
    return JetMap(Jet(phi.x.poly, bound), Jet(phi.y.poly, bound), bound)
