"""Truncated-germ algebra: jets, jet diffeomorphisms and their composition.

A Jet is a polynomial cut off above a degree bound, standing for a germ
modulo all terms of higher order. A JetMap is a pair of jets with zero
constant term and invertible linear part: the truncation of a local
diffeomorphism fixing the origin. Composition truncates eagerly at every
multiplication, which changes nothing modulo the bound and keeps the
intermediate polynomials small.

Composition has one route, in two stages. A map is written phi = L + tau,
with L its linear part. First L is substituted into each homogeneous
component of the jet by Horner's rule on integer lists; a linear map,
z -> delta*z as much as a shear or a reflection, ends there. Then, unless
tau = 0, the result is composed with id + L^(-1) tau by its Taylor
expansion. That expansion is finite because the jet is a polynomial, and
as L^(-1) tau has order m >= 2 its terms pass the bound after
(bound - ord h) // (m - 1) of them; for the reduction's translations only
the first-order part h + h_x*tau_x + h_y*tau_y is left. The n-th term's
factor has order at least n*m, so each n-th derivative is cut at degree
bound - n*m, and only h's degrees up to bound - m + 1 are differentiated.
The route works in (x, y) alone: it makes no (z, zbar) change of
variables and shares no rotation with the reduction (`equivalence._rotated`),
so a witness re-verified through it is checked independently of how its
maps were built.

A witness's last step, h o phi == target for a radial phi = z*rho and a
target Re(z^k (1 + w')) of order k, below degree 2k, can also be decided
without composing h: `radial_step_holds` reads 1 + w off
h = Re(z^k (1 + w)) and 1 + w' off the target, and checks
1 + w o phi == (1 + w') * rho^(-k) up to degree level - k, composing only
w, in (z, zbar) coordinates. It gives no verdict, and the caller composes,
for a map that is not radial, a rho whose constant term is not 1, an
h - f_k or target - f_k that is not a harmonic multiple of order above
k, or a level of 2k or more.

Powers (1 + w)^alpha of a jet with zero constant term are built degree by
degree with Miller's recurrence (Knuth, TAOCP vol. 2, 4.7). The inverse
radial scale map is solved online (van der Hoeven, "Relax, but don't be
too lazy", JSC 2002): its degree-d part reads only the degrees below d
of the composition and of the powers of rho, so each is computed once.

Complex coefficients are lists of homogeneous components, held and
converted by `zcoords`. Every public result is real. A multiplication by
a single monomial is `Poly.shifted`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .polyring import ONE, InputError, Poly
from .zcoords import (
    _ONE,
    _change_variables,
    _component,
    _conjugate,
    _convolve,
    _harmonic_quotient,
    _join,
    _split,
    _xy_image,
    _z_components,
    _z_image,
    _zero,
)


class BoundMismatchError(InputError):
    pass


class _JetFields(NamedTuple):
    poly: Poly
    bound: int


class Jet(_JetFields):
    """A polynomial modulo terms of degree above `bound`."""

    __slots__ = ()

    def __new__(cls, poly: Poly, bound: int):
        if bound < 0:
            raise InputError("jet bound must be non-negative")
        if poly and poly.degree() > bound:
            raise InputError("polynomial exceeds the jet bound; use jet_truncate")
        return super().__new__(cls, poly, bound)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`; route it through the checks
        return cls(*iterable)


def jet_truncate(p: Poly, bound: int) -> Jet:
    """The jet of p: drop all terms of degree above bound."""
    return Jet(p.truncate(bound), bound)


class _JetMapFields(NamedTuple):
    x: Jet
    y: Jet
    bound: int


class JetMap(_JetMapFields):
    """Truncated diffeomorphism-germ (x, y) -> (x.poly, y.poly)."""

    __slots__ = ()

    def __new__(cls, x: Jet, y: Jet, bound: int):
        self = super().__new__(cls, x, y, bound)
        if x.bound != bound or y.bound != bound:
            raise BoundMismatchError("component bounds disagree with the map bound")
        for component in (x, y):
            if component.poly.coeff(0, 0):
                raise InputError("jet map must fix the origin (zero constant term)")
        if not self.linear_determinant():
            raise InputError("jet map has singular linear part")
        return self

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`; route it through the checks
        return cls(*iterable)

    def linear_determinant(self) -> Fraction:
        px, py = self.x.poly, self.y.poly
        return px.coeff(1, 0) * py.coeff(0, 1) - px.coeff(0, 1) * py.coeff(1, 0)


def jet_map(px: Poly, py: Poly, bound: int) -> JetMap:
    """Build a JetMap from raw component polynomials, truncating first."""
    return JetMap(jet_truncate(px, bound), jet_truncate(py, bound), bound)


def jet_compose(h: Jet, phi: JetMap) -> Jet:
    """The jet of h(phi_x, phi_y) at the common bound.

    One route in two stages (see the module docstring): with phi = L + tau
    and L the linear part, L is substituted into h by Horner's rule unless
    it is the identity, and then, unless tau = 0, h o L is composed with
    id + L^(-1) tau by its Taylor expansion. Every product is truncated at
    the bound.
    """
    if h.bound != phi.bound:
        raise BoundMismatchError(f"jet bound {h.bound} vs map bound {phi.bound}")
    bound, px, py = h.bound, phi.x.poly, phi.y.poly
    composed, linear = h.poly, _split(px, py, 1)[1]
    tx, ty = px - px.graded_component(1), py - py.graded_component(1)
    if linear != _LINEAR_IDENTITY:
        composed = _compose_linear(composed, linear, bound)
        # L = (a*x + b*y, c*x + d*y)/den; L^(-1) tau is adj(L) tau over det(L)
        (b, a), (d, c), den = linear
        r = Fraction(den, a * d - b * c)
        tx, ty = (tx.scale(d) - ty.scale(b)).scale(r), (ty.scale(a) - tx.scale(c)).scale(r)
    if tx or ty:
        composed = _compose_taylor(composed, tx, ty, bound)
    return Jet(composed, bound)


# the degree-1 component of the identity map, x + i*y: entry a is x^a*y^(1-a)
_LINEAR_IDENTITY = ([0, 1], [1, 0], 1)


def _compose_linear(h: Poly, linear: tuple, bound: int) -> Poly:
    """h(L) modulo degrees above the bound, for the linear map L = (lx, ly)/den
    given by its degree-1 component (lx, ly, den), whose entry a is the
    coefficient of x^a*y^(1-a).

    Each homogeneous component sum_a c_a x^a y^(d-a) of h is evaluated on
    the numerators by Horner's rule (Knuth, TAOCP vol. 2, 4.6.4),
    p <- p*lx + c_a*ly^(d-a) for a = d - 1 down to 0 from p = c_d, and the
    result is over den^d. Each step multiplies an integer list by a linear
    form, so no Poly is multiplied.
    """
    (lx0, lx1), (ly0, ly1), den = linear
    parts = []
    for re, _, c_den in _split(h, Poly.zero(), bound):
        p, power = re[-1:], [1]
        for c in reversed(re[:-1]):
            power = [ly0 * u + ly1 * v for u, v in zip(power + [0], [0] + power)]
            p = [lx0 * u + lx1 * v + c * w for u, v, w in zip(p + [0], [0] + p, power)]
        parts.append(_component(p, [0] * len(p), c_den * den ** (len(p) - 1)))
    return _join(parts)[0]


def _compose_taylor(h: Poly, tx: Poly, ty: Poly, bound: int) -> Poly:
    """h(x + tx, y + ty) modulo degrees above the bound, for tx, ty of order >= 2.

    By Taylor's theorem the composition is sum_n (1/n!) sum_(a+b=n)
    C(n, a) (d^a/dx^a d^b/dy^b h) tx^a ty^b. With m >= 2 the order of
    (tx, ty), the n-th term has order at least ord h + n(m - 1), so the sum
    stops at n = (bound - ord h) // (m - 1), or at deg h, past which every
    term vanishes. A translation of the reduction at offset s has
    m - 1 = s >= (k - 3)/2 and composes jets of order k at bound 2k - 4,
    so only h + h_x*tx + h_y*ty survives there. The n-th derivatives are
    cut at degree bound - n*m (see the module docstring)."""
    m = min(tx.order(), ty.order())
    if not h or m > bound:
        return h
    last = min((bound - h.order()) // (m - 1), h.degree())
    pow_x, pow_y = [ONE], [ONE]
    derivatives = [h.truncate(bound - m + 1)]  # d^a/dx^a d^b/dy^b h at index a, a + b = n
    total = h
    for n in range(1, last + 1):
        derivatives = [derivatives[0].diff("y")] + [d.diff("x") for d in derivatives]
        derivatives = [d.truncate(bound - n * m) for d in derivatives]
        pow_x.append(pow_x[-1].mul_truncated(tx, bound) if n > 1 else tx)
        pow_y.append(pow_y[-1].mul_truncated(ty, bound) if n > 1 else ty)
        term = Poly.zero()
        for a, d in enumerate(derivatives):
            if d:
                factor = pow_x[a].mul_truncated(pow_y[n - a], bound - d.order())
                piece = d.mul_truncated(factor, bound)
                term = term + (piece.scale(math.comb(n, a)) if 0 < a < n else piece)
        total = total + (term.scale(Fraction(1, math.factorial(n))) if n > 1 else term)
    return total


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


def jet_root(w: Jet, k: int) -> Jet:
    """The unique jet r with constant term 1 and r^k == 1 + w modulo the bound.

    Computed degree by degree with the graded power recurrence for
    (1 + w)^(1/k) (see `_power_component`); w must have zero constant
    term.
    """
    if k < 1:
        raise InputError("root index must be at least 1")
    if w.poly.coeff(0, 0):
        raise InputError("root argument must have zero constant term")
    root = _graded_power(_split(w.poly, Poly.zero(), w.bound), Fraction(1, k), w.bound)
    return Jet(_join(root)[0], w.bound)


# -- graded powers -------------------------------------------------------------


def _power_component(w: list[tuple], p: list[tuple], alpha: Fraction) -> tuple:
    """The degree-d component of P = (1 + W)^alpha, d = len(p).

    w[t] is the degree-t component of W for t = 1..d (w[0] is not read),
    and p holds P's components below d, p[0] = 1. Differentiating P along
    the Euler field gives (1 + W) E(P) = alpha E(W) P, whose degree-d part
    is Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):

        d P_d = sum_(t=1..d) ((alpha + 1) t - d) W_t P_(d-t).

    With alpha = r/q the weights are the ints (r + q) t - q d, and the sum
    is divided by q d once.
    """
    d = len(p)
    r, q = alpha.numerator, alpha.denominator
    return _convolve((((r + q) * t - q * d, w[t], p[d - t]) for t in range(1, d + 1)), d, q * d)


def _graded_power(w: list[tuple], alpha: Fraction, top: int) -> list[tuple]:
    """The components of (1 + w)^alpha in degrees 0..top, for w of zero constant term."""
    powers = [_ONE]
    for _ in range(top):
        powers.append(_power_component(w, powers, alpha))
    return powers


# -- radial composition --------------------------------------------------------


def _radial_factor(phi: JetMap) -> list[tuple] | None:
    """rho's (z, zbar) components, degrees 0..bound - 1, when
    phi.x + i*phi.y == z*rho exactly; otherwise None.

    z divides P = phi.x + i*phi.y exactly when the zbar^d entry of every
    (z, zbar) component P_d is 0; then, as P_0 = 0, P_d / z is rho_(d-1).
    """
    parts = _change_variables(_split(phi.x.poly, phi.y.poly, phi.bound), _z_image)
    if any(re[0] or im[0] for re, im, _ in parts):
        return None
    return [(re[1:], im[1:], den) for re, im, den in parts[1:]]


class _RadialImage:
    """The components of W = w o (z -> z*rho), for w and rho given by their
    (z, zbar) components, rho's constant term 1; rho's list may grow while
    W is read.

    With w = sum C_ij z^i zbar^j, the degree-d part of W is

        W_d = sum_(i+j<=d) C_ij z^i zbar^j sum_(a+b=d-i-j) (rho^i)_a conj(rho^j)_b.

    The terms with one j share the row B_j = sum_i C_ij z^i rho^i, so
    W_d = sum_j sum_b conj(rho^j)_b (zbar^j B_j)_(d-b): one convolution.
    W_d reads rho's components up to d - ord w only. Each component of a
    power of rho (by Miller's recurrence, `_power_component`), of its
    conjugate and of a row is computed once, when first read.
    """

    def __init__(self, w: list[tuple], rho: list[tuple]):
        self.rho = rho
        # rows[j]: the (i, C_ij z^i zbar^j) of w, i ascending, each term a component
        self.rows: dict[int, list[tuple[int, tuple]]] = {}
        for d, (re, im, den) in enumerate(w):
            for i, (x, y) in enumerate(zip(re, im)):
                if x or y:
                    term_re, term_im = [0] * (d + 1), [0] * (d + 1)
                    term_re[i], term_im[i] = x, y
                    self.rows.setdefault(d - i, []).append((i, _component(term_re, term_im, den)))
        self.powers: dict[int, list[tuple]] = {}
        self.conjugates: dict[int, list[tuple]] = {}
        self.row_parts: dict[int, list[tuple]] = {j: [] for j in self.rows}

    def power(self, n: int, a: int) -> tuple:
        """(rho^n)_a."""
        if n == 1:
            return self.rho[a]
        if n == 0:
            return _ONE if a == 0 else _zero(a)
        parts = self.powers.setdefault(n, [_ONE])
        while len(parts) <= a:
            parts.append(_power_component(self.rho, parts, Fraction(n)))
        return parts[a]

    def conjugate(self, n: int, b: int) -> tuple:
        """conj(rho^n)_b."""
        parts = self.conjugates.setdefault(n, [])
        while len(parts) <= b:
            parts.append(_conjugate(self.power(n, len(parts))))
        return parts[b]

    def row(self, j: int, e: int) -> tuple:
        """(zbar^j B_j)_(e+j) = sum_i C_ij z^i zbar^j (rho^i)_(e-i)."""
        parts = self.row_parts[j]
        while len(parts) <= e:
            f = len(parts)
            terms = [(1, term, self.power(i, f - i)) for i, term in self.rows[j] if i <= f]
            parts.append(_convolve(terms, f + j))
        return parts[e]

    def component(self, d: int) -> tuple:
        """W_d."""
        terms = [
            (1, self.row(j, d - j - b), self.conjugate(j, b))
            for j, columns in self.rows.items()
            for b in range(d - j - columns[0][0] + 1)
        ]
        return _convolve(terms, d)


def radial_step_holds(h: Jet, phi: JetMap, target: Poly, level: int) -> bool | None:
    """Whether h o phi == target in every degree up to `level`, decided
    without composing h; None when this check does not apply.

    With k the order of the target, it applies to a radial phi = z*rho
    with rho's constant term 1, for k <= level < 2k, when
    `_harmonic_quotient` reads h = Re(z^k (1 + w)) and
    target = Re(z^k (1 + w')) with w(0) = w'(0) = 0 off them, that is, when
    h - f_k and target - f_k are harmonic multiples u*f_k + v*g_k of order
    above k, w = u - iv. Then h o phi - target = Re(z^k E) with
    E = rho^k (1 + W) - (1 + w') and W = w o phi. Up to `level` only E's
    degrees up to level - k count, and for E of degree below k,
    Re(z^k E) = 0 only if E = 0 (its two halves share no monomial). So
    h o phi == target up to `level` exactly when, rho^k being a unit,
    1 + W == (1 + w') rho^(-k) up to degree level - k; for target f_k,
    w' = 0, that is the defining identity of `_inverse_scale_root`'s rho. W
    is composed in (z, zbar) coordinates up to degree level - k, where the
    composition of h would run to `level`, and the two sides are compared
    component by component.
    """
    k = target.order()
    if not k <= level < 2 * k or h.bound < level or phi.bound != h.bound:
        return None
    rho = _radial_factor(phi)
    if rho is None or rho[0] != _ONE:
        return None
    w, w_target = (_harmonic_quotient(_z_components(p, level), k) for p in (h.poly, target))
    if w is None or w_target is None or w[0] != _ONE or w_target[0] != _ONE:
        return None
    top = level - k
    image = _RadialImage([_zero(0)] + w[1:], rho)
    # rho^(-k) = (1 + (rho - 1))^(-k), times 1 + w' unless w' = 0
    rhs = _graded_power([_zero(0)] + rho[1:], Fraction(-k), top)
    if any(any(re) or any(im) for re, im, _ in w_target[1:]):
        rhs = [_convolve(((1, w_target[t], rhs[d - t]) for t in range(d + 1)), d) for d in range(top + 1)]
    return all(image.component(d) == rhs[d] for d in range(1, top + 1))


# -- radial scale maps ---------------------------------------------------------


def _scale_map_from_root(re: Poly, im: Poly, bound: int) -> JetMap:
    """The map z -> z * (re + i*im) split into real coordinates."""
    px = re.shifted(1, 0, bound) - im.shifted(0, 1, bound)
    py = im.shifted(1, 0, bound) + re.shifted(0, 1, bound)
    return jet_map(px, py, bound)


def complex_scale_map(u: Jet, v: Jet, k: int) -> JetMap:
    """The map z -> z * (1 + u - iv)^(1/k) as a real JetMap.

    Composing the degree-k harmonic generator f_k with this map multiplies
    it, modulo the bound, by (1 + u) and mixes in v * g_k:

        f_k o phi == f_k + u*f_k + v*g_k   (modulo the bound)

    since (z*rho)^k = z^k * (1 + u - iv) up to truncation. rho is built
    degree by degree with the graded power recurrence (`_power_component`).
    """
    if u.bound != v.bound:
        raise BoundMismatchError(f"jet bounds differ: {u.bound} vs {v.bound}")
    if u.poly.coeff(0, 0) or v.poly.coeff(0, 0):
        raise InputError("scale map arguments must have zero constant term")
    if k < 1:
        raise InputError("root index must be at least 1")
    bound = u.bound
    rho = _graded_power(_split(u.poly, -v.poly, bound), Fraction(1, k), bound)
    return _scale_map_from_root(*_join(rho), bound)


def _inverse_scale_root(w: list[tuple], k: int, bound: int) -> JetMap:
    """The map phi = z*rho with ((1 + w) o phi) * rho^k == 1 modulo the
    bound, for w's (z, zbar) components, w[0] = 0. So composing
    f_k + u*f_k + v*g_k with phi, for w = u - iv, recovers f_k modulo the
    bound, undoing `complex_scale_map`. rho = (1 + W)^(-1/k) with W = w o phi
    is solved online: W_d reads only rho's degrees below d (`_RadialImage`).
    A germ of order k sees the map only up to degree bound - k + 1, so rho
    stops at bound - k."""
    rho = [_ONE]
    image = _RadialImage(w, rho)
    composed = [w[0]]
    alpha = Fraction(-1, k)
    for d in range(1, bound - k + 1):
        composed.append(image.component(d))
        rho.append(_power_component(composed, rho, alpha))
    return _scale_map_from_root(*_join(_change_variables(rho, _xy_image)), bound)
