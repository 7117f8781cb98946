"""Truncated-germ algebra: jets, jet diffeomorphisms and their composition.

A Jet is a polynomial cut off above a degree bound, standing for a germ
modulo all terms of higher order. A JetMap is a pair of jets with zero
constant term and invertible linear part: the truncation of a local
diffeomorphism fixing the origin. Composition truncates eagerly at every
multiplication, which changes nothing modulo the bound and keeps the
intermediate polynomials small.

Composition has two routes, chosen by the map alone, in this order. A
radial map, one whose complex form phi.x + i*phi.y is exactly divisible
by z = x + iy, is z -> z*rho. There the jet is rewritten as
sum C_ij z^i zbar^j, and each term becomes C_ij z^i zbar^j rho^i
conj(rho)^j. That product only matters up to degree bound - i - j, which
is far below the bound for the high-order jets the reduction composes.
Since the jet is real, C_ji = conj(C_ij), so only the terms with i >= j
are formed. Every other map, written id + tau, composes by its Taylor
expansion, which is finite because the jet is a polynomial: it stops at
n = deg h, or sooner once its terms pass the bound when tau has order
at least 2. For the reduction's translations only the first-order part
h + h_x*tau_x + h_y*tau_y is left; a shear or a linear change of
coordinates runs the whole sum. Both are exact general compositions, so
a witness re-verified through them is checked independently of how its
maps were built.

A witness's last step, h o phi == f_k for a radial phi = z*rho below
degree 2k, can also be decided without composing h:
`radial_step_holds` reads w = u - iv off h - f_k = u*f_k + v*g_k and
checks the defining identity (1 + w o phi) * rho^k == 1 up to degree
level - k, composing only w, in (z, zbar) coordinates. It gives no
verdict, and the caller composes, for a map that is not radial, a rho
whose constant term is not 1, an h - f_k that is not a harmonic multiple
of order above k, or a level of 2k or more.

Powers (1 + w)^alpha of a jet with zero constant term are built degree by
degree with Miller's recurrence (Knuth, TAOCP vol. 2, 4.7). The inverse
radial scale map is solved online (van der Hoeven, "Relax, but don't be
too lazy", JSC 2002): its degree-d part reads only the degrees below d
of the composition and of the powers of rho, so each is computed once.

Complex coefficients appear only inside this module (as real/imaginary
pairs of Polys, in (x, y) or in (z, zbar) exponents); every public
result is real, and an imaginary part left in a real result is an
error. The change of variables between (x, y) and (z, zbar), the
exponent reindexing and the sums of products in the recurrences work on
Poly's integer numerators over one denominator (`_num`, `_den`) and
wrap their results with `Poly._of`, so they build no Fraction per term;
a multiplication by a single monomial is `Poly.shifted`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from ._kernels import poly_mul
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

    Two routes, chosen by the map alone (see the module docstring): a
    radial map z -> z*rho composes in (z, zbar) coordinates; any other
    map id + tau composes by its Taylor expansion in tau. Every product
    is truncated at the bound.
    """
    if h.bound != phi.bound:
        raise BoundMismatchError(f"jet bound {h.bound} vs map bound {phi.bound}")
    bound = h.bound
    rho = _radial_factor(phi)
    if rho is not None:
        return Jet(_compose_radial((h.poly,), rho, bound)[0], bound)
    return Jet(_compose_taylor(h.poly, phi.x.poly - X, phi.y.poly - Y, bound), bound)


def _compose_taylor(h: Poly, tx: Poly, ty: Poly, bound: int) -> Poly:
    """h(x + tx, y + ty) modulo degrees above the bound, for tx, ty of order >= 1.

    By Taylor's theorem the composition is sum_n (1/n!) sum_(a+b=n)
    C(n, a) (d^a/dx^a d^b/dy^b h) tx^a ty^b, and every term with n > deg h
    vanishes. With m the order of (tx, ty), the n-th term has order at
    least ord h + n(m - 1); so for m >= 2 the sum stops sooner, at
    n = (bound - ord h) // (m - 1). A translation of the reduction at
    offset s has m - 1 = s >= (k - 3)/2 and composes jets of order k at
    bound 2k - 4, so only h + h_x*tx + h_y*ty survives there.
    """
    m = min(tx.order(), ty.order())
    if not h or m > bound:
        return h
    last = h.degree() if m == 1 else min((bound - h.order()) // (m - 1), h.degree())
    pow_x, pow_y = [ONE], [ONE]
    derivatives = [h]  # d^a/dx^a d^b/dy^b h at index a, for the current a + b
    total = h
    for n in range(1, last + 1):
        derivatives = [derivatives[0].diff("y")] + [d.diff("x") for d in derivatives]
        pow_x.append(pow_x[-1].mul_truncated(tx, bound))
        pow_y.append(pow_y[-1].mul_truncated(ty, bound))
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
        raise ValueError("root index must be at least 1")
    if w.poly.coeff(0, 0):
        raise ValueError("root argument must have zero constant term")
    root = _graded_power(_CJet(w.poly, Poly.zero(), w.bound), Fraction(1, k))
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


def _cjet_sum(parts, bound: int) -> _CJet:
    total = _CJet(Poly.zero(), Poly.zero(), bound)
    for part in parts:
        if not part.is_zero():
            total = total + part
    return total


def _graded(w: _CJet) -> list[_CJet]:
    """The homogeneous components of w, degrees 0..w.bound, each at w's bound."""
    parts = [({}, {}) for _ in range(w.bound + 1)]
    for index, p in enumerate((w.re, w.im)):
        for (a, b), v in p._num.items():
            parts[a + b][index][(a, b)] = v
    return [_CJet(Poly._of(re, w.re._den), Poly._of(im, w.im._den), w.bound) for re, im in parts]


def _dot(terms, bound: int) -> _CJet:
    """sum c*x*y over the (c, x, y) of `terms`, c an int and x, y pairs, at `bound`.

    Every real product's numerators go straight into one int sum over the
    lcm of the products' denominators, so the sum builds two Polys in all.
    """
    products = []
    for c, x, y in terms:
        for p, q, sign, imaginary in (
            (x.re, y.re, c, False),
            (x.im, y.im, -c, False),
            (x.re, y.im, c, True),
            (x.im, y.re, c, True),
        ):
            if p and q:
                products.append((sign, poly_mul(p._num, q._num, bound), p._den * q._den, imaginary))
    den = math.lcm(*(d for _, _, d, _ in products))
    re, im = {}, {}
    for sign, num, d, imaginary in products:
        m = sign * (den // d)
        target = im if imaginary else re
        for key, v in num.items():
            target[key] = target.get(key, 0) + m * v
    re, im = ({key: v for key, v in part.items() if v} for part in (re, im))
    return _CJet(Poly._of(re, den), Poly._of(im, den), bound)


def _power_component(w: list[_CJet], p: list[_CJet], alpha: Fraction) -> _CJet:
    """The degree-d component of P = (1 + W)^alpha, d = len(p).

    w[t] is the degree-t component of W (w[0] is zero) for t = 1..d, and
    p holds P's components below d, p[0] = 1. Differentiating P along
    the Euler field gives (1 + W) E(P) = alpha E(W) P, whose degree-d part
    is Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):

        d P_d = sum_(t=1..d) ((alpha + 1) t - d) W_t P_(d-t).

    With alpha = r/q the weights are the ints (r + q) t - q d, and the sum
    is divided by q d once.
    """
    d = len(p)
    r, q = alpha.numerator, alpha.denominator
    total = _dot((((r + q) * t - q * d, w[t], p[d - t]) for t in range(1, d + 1)), w[0].bound)
    return total.scale(Fraction(1, q * d))


def _graded_power(w: _CJet, alpha: Fraction) -> _CJet:
    """(1 + w)^alpha modulo degrees above w's bound, for w with zero constant term."""
    components = _graded(w)
    powers = [_cjet_const(Fraction(1), w.bound)]
    for _ in range(w.bound):
        powers.append(_power_component(components, powers, alpha))
    return _cjet_sum(powers, w.bound)


# -- (z, zbar) coordinates -----------------------------------------------------


def _reindexed(p: Poly, key) -> Poly:
    """p with every exponent pair (a, b) moved to key(a, b), a bijection."""
    return Poly._of({key(a, b): v for (a, b), v in p._num.items()}, p._den)


def _scaled_shift(p: _CJet, c_re: Fraction, c_im: Fraction, i: int, bound: int) -> _CJet:
    """(c_re + i*c_im) * z^i * p, dropping the degrees above bound."""
    re, im = p.re.shifted(i, 0, bound), p.im.shifted(i, 0, bound)
    return _CJet(re * c_re - im * c_im, re * c_im + im * c_re, bound)


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
# (N + 1)(N + 2)/2 monomials: 2415 at bound 68, the CLI's largest k = 36.
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


def harmonic_multiple(p: Poly, m: int) -> tuple[Poly, Poly] | None:
    """(u, v) with u*f_m + v*g_m == p, for p of degree below 2m; None if there is none.

    u*f_m + v*g_m = Re(W*z^m) with W = u - iv; `_harmonic_quotient` reads
    W off p's (z, zbar) coefficients.
    """
    if p and p.degree() >= 2 * m:
        raise ValueError(f"degree {p.degree()} is not below 2m = {2 * m}")
    w = _harmonic_quotient(_change_variables(_CJet(p, Poly.zero(), 2 * m), _z_image), m)
    if w is None:
        return None
    w = _change_variables(w, _xy_image)
    return w.re, -w.im


def _harmonic_quotient(c: _CJet, m: int) -> _CJet | None:
    """W in (z, zbar) with Re(W*z^m) == c, for c in (z, zbar) of degree below 2m.

    Below degree 2m no term C_ij z^i zbar^j of c has both i, j >= m, so W
    exists exactly when C_ij = 0 wherever i, j < m, and then
    W = 2 sum_(i>=m) C_ij z^(i-m) zbar^j is unique (Axler, Bourdon & Ramey,
    Harmonic Function Theory, GTM 137). None when there is no such W.
    """
    if any(i < m and j < m for part in (c.re, c.im) for i, j in part._num):
        return None
    re, im = ({(i - m, j): 2 * v for (i, j), v in part._num.items() if i >= m} for part in (c.re, c.im))
    return _CJet(Poly._of(re, c.re._den), Poly._of(im, c.im._den), m)


def _radial_factor(phi: JetMap) -> _CJet | None:
    """rho in (z, zbar) coordinates when phi.x + i*phi.y == z*rho exactly,
    otherwise None.

    z divides P = phi.x + i*phi.y exactly when P vanishes at z = 0, where
    x = zbar/2 and y = i*zbar/2: when every homogeneous component of P
    vanishes at (x, y) = (1, i). That test reads each term once, so a map
    that is not radial never goes through the change of variables.
    """
    px, py = phi.x.poly, phi.y.poly
    # at[(n, 0)], at[(n, 1)]: real and imaginary part of P_n(1, i), times px._den*py._den
    at: dict[tuple[int, int], int] = {}
    for p, turn, unit in ((px, 0, py._den), (py, 1, px._den)):
        for (a, b), v in p._num.items():
            q = (b + turn) % 4
            key = (a + b, q % 2)
            at[key] = at.get(key, 0) + (v * unit if q < 2 else -v * unit)
    if any(at.values()):
        return None
    w = _change_variables(_CJet(px, py, phi.bound), _z_image)
    re, im = (_reindexed(p, lambda a, b: (a - 1, b)) for p in (w.re, w.im))
    return _CJet(re, im, phi.bound - 1)


def _radial_powers(keys, rho: _CJet, bound: int) -> list[_CJet]:
    """rho^0, rho^1, ..., each kept to the degree that the terms z^i zbar^j
    with (i, j) in `keys` read of it at `bound`: bound - i - j, for rho^i
    and for conj(rho)^j alike."""
    need = [-1] * (bound + 2)
    for i, j in keys:
        need[i] = max(need[i], bound - i - j)
        need[j] = max(need[j], bound - i - j)
    for n in range(bound, -1, -1):
        need[n] = max(need[n], need[n + 1])
    powers = [_CJet(ONE, Poly.zero(), need[0])]
    while need[len(powers)] >= 0:
        top = need[len(powers)]
        powers.append(powers[-1].at(top) * rho.at(top))
    return powers


def _radial_sum(c: _CJet, terms, powers: list[_CJet], bound: int) -> _CJet:
    """sum n*C_ij z^i rho^i zbar^j conj(rho^j) over the (i, j, n) of `terms`,
    C_ij the (z, zbar) coefficients of c and n an int, modulo degrees
    above the bound.

    The terms with one j are summed as a row B_j = sum_i n*C_ij z^i rho^i,
    then B_j conj(rho^j) zbar^j. z^i and zbar^j are exponent shifts. Each
    C_ij scales by ints, its numerators over the parts' common denominator,
    which divides the sum once at the end.
    """
    den = math.lcm(c.re._den, c.im._den)
    re_unit, im_unit = den // c.re._den, den // c.im._den
    rows: dict[int, list[tuple[int, int]]] = {}
    for i, j, n in terms:
        rows.setdefault(j, []).append((i, n))
    total = _CJet(Poly.zero(), Poly.zero(), bound)
    for j, columns in rows.items():
        top = bound - j
        row = _CJet(Poly.zero(), Poly.zero(), top)
        for i, n in columns:
            a = c.re._num.get((i, j), 0) * re_unit * n
            b = c.im._num.get((i, j), 0) * im_unit * n
            p, q = powers[i].re.shifted(i, 0, top), powers[i].im.shifted(i, 0, top)
            row = row + _CJet(p.scale(a) - q.scale(b), p.scale(b) + q.scale(a), top)
        if j:
            row = row * powers[j].conjugate_zz()
            row = _CJet(row.re.shifted(0, j, bound), row.im.shifted(0, j, bound), bound)
        total = total + row
    return total.scale(Fraction(1, den))


def _compose_radial(parts: tuple[Poly, ...], rho: _CJet, bound: int) -> list[Poly]:
    """Each real polynomial of `parts` composed with z -> z*rho, rho in
    (z, zbar) coordinates, modulo degrees above the bound.

    With p = sum C_ij z^i zbar^j, only the terms with i >= j are summed
    (`_radial_sum`), the diagonal at half weight: as C_ji = conj(C_ij),
    the result is S + conj(S). The powers of rho are shared by all parts.
    """
    coefficients = [_change_variables(_CJet(p, Poly.zero(), bound), _z_image) for p in parts]
    terms = [
        [(i, j, 1 if i == j else 2) for i, j in c.re._num.keys() | c.im._num.keys() if i >= j]
        for c in coefficients
    ]
    powers = _radial_powers(((i, j) for part in terms for i, j, _ in part), rho, bound)
    composed = []
    for c, part in zip(coefficients, terms):
        total = _radial_sum(c, part, powers, bound).scale(Fraction(1, 2))
        result = _change_variables(total + total.conjugate_zz(), _xy_image)
        if result.im:
            raise ArithmeticError(f"composition of a real jet left an imaginary part {result.im}")
        composed.append(result.re)
    return composed


def radial_step_holds(h: Jet, phi: JetMap, k: int, level: int) -> bool | None:
    """Whether h o phi == f_k in every degree up to `level`, decided without
    composing h; None when this check does not apply.

    It applies to a radial phi = z*rho with rho's constant term 1, for
    k <= level < 2k, when h - f_k = u*f_k + v*g_k has order above k. Then
    h = Re(z^k (1 + w)) with w = u - iv (`_harmonic_quotient`), and
    h o phi - f_k = Re(z^k E) with E = rho^k (1 + W) - 1 and W = w o phi.
    Up to `level` only E's degrees up to level - k count, and for E of
    degree below k, Re(z^k E) = 0 only if E = 0 (its two halves share no
    monomial). So h o phi == f_k up to `level` exactly when
    (1 + W) rho^k == 1 up to degree level - k, or, rho^k being a unit,
    when 1 + W == rho^(-k) there: the defining identity of
    `inverse_scale_map`'s rho. W is composed in (z, zbar) coordinates at
    bound level - k, where the composition of h would run at `level`.
    """
    if not k <= level < 2 * k or h.bound < level or phi.bound != h.bound:
        return None
    rho = _radial_factor(phi)
    if rho is None or rho.re.coeff(0, 0) != 1 or rho.im.coeff(0, 0):
        return None
    c = _change_variables(_CJet(h.poly.truncate(level), Poly.zero(), level), _z_image)
    # f_k = (z^k + zbar^k)/2
    f_k = Poly({(k, 0): Fraction(1, 2), (0, k): Fraction(1, 2)})
    w = _harmonic_quotient(_CJet(c.re - f_k, c.im, level), k)
    if w is None or w.re.coeff(0, 0) or w.im.coeff(0, 0):
        return None
    top = level - k
    w = w.at(top)
    keys = w.re._num.keys() | w.im._num.keys()
    composed = _radial_sum(w, [(i, j, 1) for i, j in keys], _radial_powers(keys, rho, top), top)
    lhs = _cjet_const(Fraction(1), top) + composed
    rhs = _graded_power(rho.at(top) + _cjet_const(Fraction(-1), top), Fraction(-k))
    return lhs.re == rhs.re and lhs.im == rhs.im


# -- radial scale maps ---------------------------------------------------------


def _scale_map_from_root(rho: _CJet, bound: int) -> JetMap:
    """The map z -> z * rho split into real coordinates."""
    px = rho.re.shifted(1, 0, bound) - rho.im.shifted(0, 1, bound)
    py = rho.im.shifted(1, 0, bound) + rho.re.shifted(0, 1, bound)
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

    since (z*rho)^k = z^k * (1 + u - iv) up to truncation. rho is built
    degree by degree with the graded power recurrence (`_power_component`).
    """
    _check_scale_arguments(u, v)
    bound = u.bound
    rho = _graded_power(_CJet(u.poly, -v.poly, bound), Fraction(1, k))
    return _scale_map_from_root(rho, bound)


def inverse_scale_map(u: Jet, v: Jet, k: int) -> JetMap:
    """A map phi = z*rho with ((1 + u - iv) o phi) * rho^k == 1 modulo the bound.

    Composing f_k + u*f_k + v*g_k with phi recovers f_k modulo the
    bound, undoing the effect of complex_scale_map at jet level without
    any leftover higher-order terms. rho is the unique solution of
    rho = (1 + W)^(-1/k) with constant term 1, where W = w o phi and
    w = u - iv = sum C_ij z^i zbar^j. Since w has zero constant term, the
    degree-d part of W reads only the degrees of rho below d:

        W_d = sum_(i+j<=d) C_ij z^i zbar^j sum_(a+b=d-i-j) (rho^i)_a conj(rho^j)_b.

    So the solve is online (van der Hoeven, "Relax, but don't be too
    lazy", JSC 2002): for d = 1, 2, ... it forms W_d, sets rho_d by the
    graded power recurrence (`_power_component`), and extends the powers
    of rho by their degree-d components. Every component is computed
    once. The terms with one j share the row B_j = sum_i C_ij z^i rho^i,
    so W_d = sum_j zbar^j sum_b conj(rho^j)_b (B_j)_(d-j-b).

    Everything a germ of order k can see of the map sits in component
    degrees up to bound - k + 1, so the solve stops at that much smaller
    internal bound and the result is lifted afterwards.
    """
    _check_scale_arguments(u, v)
    if k < 1:
        raise ValueError("root index must be at least 1")
    bound = u.bound
    inner = bound - k
    if inner < 0:
        return identity_map(bound)
    w = _change_variables(_CJet(u.poly.truncate(inner), -v.poly.truncate(inner), inner), _z_image)
    # rows[j]: the (i, C_ij) of w; need[n]: the highest degree of rho^n read
    rows: dict[int, list[tuple[int, Fraction, Fraction]]] = {}
    need = [0] + [-1] * inner
    for i, j in sorted(w.re._num.keys() | w.im._num.keys()):
        rows.setdefault(j, []).append((i, w.re.coeff(i, j), w.im.coeff(i, j)))
        need[i] = max(need[i], inner - i - j)
        need[j] = max(need[j], inner - i - j)
    for n in range(inner - 1, -1, -1):
        need[n] = max(need[n], need[n + 1])
    zero, one = _CJet(Poly.zero(), Poly.zero(), inner), _cjet_const(Fraction(1), inner)
    # powers[n][a] = (rho^n)_a and conj_powers[n][a] = conj(rho^n)_a, n <= top;
    # rho^0 = 1 has every component, rho = rho^1 grows to the internal bound
    top = max([1] + [n for n in range(inner + 1) if need[n] >= 0])
    powers = [[one] + [zero] * inner] + [[one] for _ in range(top)]
    conj_powers = [[one] for _ in range(top + 1)]
    rho = powers[1]
    w_parts = [zero]
    # row_parts[j][e] = (B_j)_e; B_0 has no constant term, as w has none
    row_parts: dict[int, list[_CJet]] = {j: [] if j else [zero] for j in rows}
    alpha = Fraction(-1, k)
    for d in range(1, inner + 1):
        pieces = []
        for j, columns in rows.items():
            e = d - j
            if e < 0:
                continue
            # (B_j)_e from the powers below d, then sum_b conj(rho^j)_b (B_j)_(e-b)
            row = row_parts[j]
            terms = (
                _scaled_shift(powers[i][e - i], c_re, c_im, i, inner)
                for i, c_re, c_im in columns
                if e >= i
            )
            row.append(_cjet_sum(terms, inner))
            conj = conj_powers[j]
            part = _dot(((1, conj[b], row[e - b]) for b in range(min(e, len(conj) - 1) + 1)), inner)
            pieces.append(_CJet(part.re.shifted(0, j, inner), part.im.shifted(0, j, inner), inner))
        w_parts.append(_cjet_sum(pieces, inner))
        rho.append(_power_component(w_parts, rho, alpha))
        for n in range(2, top + 1):
            if d <= need[n]:
                prev = powers[n - 1]
                powers[n].append(_dot(((1, rho[t], prev[d - t]) for t in range(d + 1)), inner))
        for n in range(1, top + 1):
            if d <= need[n]:
                conj_powers[n].append(powers[n][d].conjugate_zz())
    rho_xy = _change_variables(_cjet_sum(rho, inner), _xy_image)
    phi = _scale_map_from_root(rho_xy, inner + 1)
    return JetMap(Jet(phi.x.poly, bound), Jet(phi.y.poly, bound), bound)
