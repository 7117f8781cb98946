"""Complex coefficients as homogeneous components, and the (z, zbar) change of variables.

With z = x + iy, a homogeneous polynomial of degree d is
sum_i C_i z^i zbar^(d-i), and a real one has C_(d-i) = conj(C_i). Many
questions about harmonic polynomials become read-offs of the C_i
(Axler, Bourdon & Ramey, Harmonic Function Theory, GTM 137): the
Laplacian is 4 d/dz d/dzbar, z*zbar = x^2 + y^2, and the harmonics of
degree d are spanned by z^d and zbar^d. `jets`, `harmonic` and `graded`
all read them here.

Complex quantities are lists of homogeneous components (below), split
from Polys and joined back only at the edges: the splits read Poly's
integer numerators (`_num`, `_den`) and the joins wrap theirs with
`Poly._of`, so no Fraction is built per term.
"""

from __future__ import annotations

import functools
import math

from .polyring import InputError, Poly

# -- homogeneous components ----------------------------------------------------
#
# A component of degree d is a triple (re, im, den): two int lists of length
# d + 1 over one denominator den > 0, in lowest terms, so
# gcd(den, *re, *im) == 1 and the zero component has den 1. Entry a is the
# coefficient (re[a] + i*im[a])/den of x^a*y^(d-a), or of z^a*zbar^(d-a) in
# (z, zbar) coordinates. A complex jet is the list of its components,
# degree 0 first; a product of components is a convolution of the lists in
# either coordinates.

_ONE = ([1], [0], 1)


def _component(re: list[int], im: list[int], den: int) -> tuple:
    """The component (re, im, den) with the content divided out."""
    g = math.gcd(den, *re, *im)
    if g == 1:
        return re, im, den
    return [v // g for v in re], [v // g for v in im], den // g


def _zero(d: int) -> tuple:
    return [0] * (d + 1), [0] * (d + 1), 1


def _split(re: Poly, im: Poly, bound: int) -> list[tuple]:
    """The components of re + i*im in degrees 0..bound; terms above the bound are dropped."""
    den = math.lcm(re._den, im._den)
    parts = [([0] * (d + 1), [0] * (d + 1)) for d in range(bound + 1)]
    for index, p in enumerate((re, im)):
        unit = den // p._den
        for (a, b), v in p._num.items():
            if a + b <= bound:
                parts[a + b][index][a] = v * unit
    return [_component(r, i, den) for r, i in parts]


def _join(components: list[tuple]) -> tuple[Poly, Poly]:
    """The real and imaginary parts of a list of components, as Polys; each
    component's degree is its length less one."""
    den = math.lcm(*(c[2] for c in components))
    re: dict = {}
    im: dict = {}
    for r, i, c_den in components:
        d = len(r) - 1
        unit = den // c_den
        for target, values in ((re, r), (im, i)):
            for a, v in enumerate(values):
                if v:
                    target[(a, d - a)] = v * unit
    return Poly._of(re, den), Poly._of(im, den)


def _conjugate(c: tuple) -> tuple:
    """The complex conjugate of a (z, zbar) component: each z^a zbar^b
    becomes z^b zbar^a, with its coefficient conjugated."""
    re, im, den = c
    return re[::-1], [-v for v in reversed(im)], den


def _real_part(c: tuple) -> tuple:
    """Re P = (P + conj P)/2 for the (z, zbar) component P = c."""
    re, im, den = c
    return _component(
        [x + y for x, y in zip(re, reversed(re))], [x - y for x, y in zip(im, reversed(im))], 2 * den
    )


def _dz(c: tuple) -> tuple:
    """d/dz of a (z, zbar) component of degree d >= 1: each C_a z^a zbar^(d-a)
    becomes a*C_a z^(a-1) zbar^(d-a)."""
    re, im, den = c
    return _component([a * v for a, v in enumerate(re)][1:], [a * v for a, v in enumerate(im)][1:], den)


def _in_kernel(c: tuple, p: int) -> bool:
    """Whether the p-fold Laplacian, 4^p (d/dz d/dzbar)^p, kills the (z, zbar)
    component c of degree d: it kills z^i zbar^(d-i) exactly when i < p or
    d - i < p, so c lies in the kernel when C_i = 0 for p <= i <= d - p."""
    re, im, _ = c
    top = len(re) - p
    return not (any(re[p:top]) or any(im[p:top]))


def _convolve(terms, d: int, divisor: int = 1) -> tuple:
    """The degree-d component sum c*A*B / divisor over the (c, A, B) of
    `terms`, c an int and deg A + deg B == d.

    Every product goes over the lcm of the products' denominators, so the
    sum is one pass of int arithmetic and the content is divided out once.
    A's zero entries are skipped, so the sparser factor goes first.
    """
    live = [
        (c, a, b)
        for c, a, b in terms
        if c and (any(a[0]) or any(a[1])) and (any(b[0]) or any(b[1]))
    ]
    den = math.lcm(*(a[2] * b[2] for _, a, b in live))
    re, im = [0] * (d + 1), [0] * (d + 1)
    for c, (a_re, a_im, a_den), (b_re, b_im, b_den) in live:
        m = c * (den // (a_den * b_den))
        for p, x in enumerate(a_re):
            y = a_im[p]
            if not (x or y):
                continue
            x *= m
            y *= m
            for q, u, v in zip(range(p, d + 1), b_re, b_im):
                re[q] += x * u - y * v
                im[q] += x * v + y * u
    return _component(re, im, den * divisor)


# -- (z, zbar) coordinates -----------------------------------------------------


def _binomial_product(a: int, b: int) -> list[int]:
    """Coefficients e_m of P = (1 + t)^a * (1 - t)^b, lowest degree first.

    (1 - t^2) P' = ((a - b) - (a + b) t) P gives, in degree m, the exact
    recurrence (m + 1) e_(m+1) = (a - b) e_m - (a + b - m + 1) e_(m-1).
    """
    n = a + b
    e = [1, a - b][: n + 1]
    for m in range(1, n):
        e.append(((a - b) * e[m] - (n - m + 1) * e[m - 1]) // (m + 1))
    return e


# Images of single monomials under the change of variables, as
# (shift, ((m, e, imaginary), ...)): the image is 2^(-shift) times the sum
# of e times z^m zbar^(n-m), or x^m y^(n-m), with e an int and times i where
# `imaginary`. `jet_compose` changes no variables. The tables serve
# `_z_components` in `reduce_general` and `radial_step_holds`, at bound
# N <= 68 = 2k - 4 for the CLI's largest k = 36, and the maps' way back to
# (x, y) through `_xy_image`. Above degree 68 only a single `harmonic`
# read-off (split or Almansi, up to degree 800) meets a monomial, once per
# call, so its images, (d + 1)^2 big ints, are not cached. That cut is
# what bounds the tables: each holds at most the (68 + 1)(68 + 2)/2 = 2415
# monomials of degree <= 68.
_CACHED_DEGREE = 68


@functools.cache
def _z_image(a: int, b: int) -> tuple:
    """x^a*y^b in (z, zbar): x = (z + zbar)/2 and y = (z - zbar)/(2i) give
    i^b/2^n * sum_m e_m z^m zbar^(n-m), with e from (1 + t)^a (1 - t)^b."""
    sign = (-1) ** (b // 2)
    terms = tuple((m, sign * e, b % 2 == 1) for m, e in enumerate(_binomial_product(a, b)) if e)
    return a + b, terms


@functools.cache
def _xy_image(i: int, j: int) -> tuple:
    """z^i*zbar^j = (x + iy)^i (x - iy)^j in (x, y): sum_q i^q e_q x^(n-q) y^q,
    with e from (1 + t)^i (1 - t)^j."""
    n = i + j
    terms = tuple(
        (n - q, e * (-1) ** (q // 2), q % 2 == 1)
        for q, e in enumerate(_binomial_product(i, j))
        if e
    )
    return 0, terms


def _change_component(c: tuple, image) -> tuple:
    """Replace every monomial of the component c by its image (`_z_image`
    or `_xy_image`), keeping complex coefficients.

    The image of a degree-d component is a degree-d component; its
    numerators add up as ints over den * 2^shift.
    """
    re, im, den = c
    if not (any(re) or any(im)):
        return c
    d = len(re) - 1
    if d > _CACHED_DEGREE:
        image = image.__wrapped__
    new_re, new_im = [0] * (d + 1), [0] * (d + 1)
    shift = 0
    for a, (x, y) in enumerate(zip(re, im)):
        if not (x or y):
            continue
        shift, terms = image(a, d - a)
        for m, e, imaginary in terms:
            if imaginary:
                new_re[m] -= y * e
                new_im[m] += x * e
            else:
                new_re[m] += x * e
                new_im[m] += y * e
    return _component(new_re, new_im, den << shift)


def _change_variables(w: list[tuple], image) -> list[tuple]:
    """`_change_component` on every component of w."""
    return [_change_component(c, image) for c in w]


def _z_components(p: Poly, bound: int) -> list[tuple]:
    """The (z, zbar) components of the real polynomial p in degrees 0..bound."""
    return _change_variables(_split(p, Poly.zero(), bound), _z_image)


def harmonic_multiple(p: Poly, m: int) -> tuple[Poly, Poly] | None:
    """(u, v) with u*f_m + v*g_m == p, for p of degree below 2m; None if there is none.

    u*f_m + v*g_m = Re(W*z^m) with W = u - iv; `_harmonic_quotient` reads
    W off p's (z, zbar) coefficients.
    """
    if p and p.degree() >= 2 * m:
        raise InputError(f"degree {p.degree()} is not below 2m = {2 * m}")
    w = _harmonic_quotient(_z_components(p, max(p.degree(), 0)), m)
    if w is None:
        return None
    u, v = _join(_change_variables(w, _xy_image))
    return u, -v


def _harmonic_quotient(c: list[tuple], m: int) -> list[tuple] | None:
    """The components of W in (z, zbar) with Re(W*z^m) == c, for c given by
    components below degree 2m, each of its own degree (its length less
    one); None when there is no such W.

    Below degree 2m no term C_ij z^i zbar^j of c has both i, j >= m, so W
    exists exactly when C_ij = 0 wherever i, j < m, and then
    W = 2 sum_(i>=m) C_ij z^(i-m) zbar^j is unique (Axler, Bourdon & Ramey,
    Harmonic Function Theory, GTM 137). W_e comes from c_(m+e), so the
    components 0..n of c give those of W in degrees 0..n - m, and one
    component of c, of degree m + e, gives W_e alone.
    """
    quotient = []
    for re, im, den in c:
        d = len(re) - 1
        low = max(0, d - m + 1)
        if any(re[low:m]) or any(im[low:m]):
            return None
        if d >= m:
            quotient.append(_component([2 * v for v in re[m:]], [2 * v for v in im[m:]], den))
    return quotient
