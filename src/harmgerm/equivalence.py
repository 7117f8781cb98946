"""Construction and verification of right-equivalence witnesses.

The central operation takes a germ f_k + (perturbations in controlled
iterated-Laplacian kernels) + (tail of order >= 2k-3) and produces an
explicit chain of jet diffeomorphisms composing it down to f_k modulo
m^(2k-3), together with a determinacy report that upgrades the jet
identity to a genuine right equivalence.

The construction changes the germ's components up to degree 2k - 4 to
(z, zbar) coordinates once (`zcoords`) and reads everything off their
coefficients C_i of z^i zbar^(d-i): a p-fold Laplacian kernel condition
is C_i = 0 for p <= i <= d - p, and the leading form a*f_k + b*g_k has
C_k = (a - ib)/2. Absorption works degree by degree, low degrees last:

* offsets s >= split_offset are cleared by coordinate translations
  (x, y) -> (x - u, y - v), ascending in s; T = u + iv is read off the
  degree-(k+s) component. As 2 * split_offset >= k - 3, up to the bound
  2k - 4 a translation changes the higher degrees only by its
  first-order term, 2 Re(dg/dz * T), which is taken off the components
  in place;
* offsets s < split_offset are cleared in one stroke by a radial scale
  map z -> z * rho, using that their sum is u*f_k + v*g_k exactly.

A leading form other than f_k is first rotated onto it by z -> delta*z,
which multiplies each coefficient C_ij of the components by
delta^i conj(delta)^j (`_rotated`, used by the construction alone). So
the construction composes no (x, y) polynomial and multiplies no Poly;
only the maps leave it as (x, y) polynomials. Every witness re-verifies
exactly from its own maps in WitnessChain.verify(); nothing is trusted
there. `jets.jet_compose` composes them in (x, y): the rotation by
Horner's rule and the translations, built in (z, zbar), by their Taylor
expansion, so building and checking them share no arithmetic. Every map
is composed, except that a final radial scale map onto any
Re(z^k (1 + w')), f_k included, is checked by its defining identity
(`jets.radial_step_holds`), read off the composed jet, the target and
the map; when that identity does not apply, the map is composed too.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .determinacy import DeterminacyReport, determined_bound_report
from .harmonic import harmonic_pair
from .jets import (
    Jet,
    JetMap,
    _inverse_scale_root,
    _scale_map_from_root,
    jet_compose,
    jet_map,
    jet_truncate,
    jets_equivalent_mod,
    radial_step_holds,
)
from .polyring import X, Y, InputError, Poly, _scalar, format_poly, format_scalar, laplacian_power
from .zcoords import (
    _ONE,
    _change_component,
    _change_variables,
    _component,
    _conjugate,
    _convolve,
    _dz,
    _harmonic_quotient,
    _in_kernel,
    _join,
    _real_part,
    _split,
    _xy_image,
    _z_components,
    _zero,
)


class MembershipError(InputError):
    """A perturbation fails its required iterated-Laplacian kernel."""

    def __init__(self, message: str, degree: int):
        super().__init__(message)
        self.degree = degree


class WitnessFault(RuntimeError):
    """Internal verification failed; indicates a bug, not bad input."""


class AbsorptionProfile(NamedTuple):
    """Per-offset Laplacian powers controlling absorbable perturbations.

    For a leading degree k >= 5 and offsets s = 1..k-4, a degree-(k+s)
    perturbation is absorbable when its exponents[s]-fold Laplacian
    vanishes. The threshold jumps from s+1 to s+2 at s = (k-3)/2, that
    is, where 2s >= k - 3; split_offset = (k-2) // 2 is the smallest offset
    at or above the jump, where translation absorption takes over from
    the radial scale map.
    """

    k: int
    exponents: tuple[tuple[int, int], ...]
    split_offset: int

    def exponent(self, s: int) -> int:
        for offset, power in self.exponents:
            if offset == s:
                return power
        raise KeyError(f"offset {s} outside 1..{self.k - 4}")


def absorption_profile(k: int) -> AbsorptionProfile:
    if k < 5:
        raise InputError("absorption profile requires k >= 5")
    exponents = tuple((s, s + 1 if 2 * s < k - 3 else s + 2) for s in range(1, k - 3))
    return AbsorptionProfile(k, exponents, (k - 2) // 2)


class WitnessChain(NamedTuple):
    """A verified right-equivalence witness.

    Composing `source` with the maps in order agrees with `target` in
    all terms of degree <= bound. When a determinacy report of level
    <= bound is attached, the jet identity promotes to an actual right
    equivalence of germs.
    """

    source: Poly
    target: Poly
    maps: tuple[JetMap, ...]
    bound: int
    certificate: DeterminacyReport | None
    verified: bool

    def composed(self) -> Jet:
        jet_bound = self.maps[0].bound if self.maps else self.bound
        current = jet_truncate(self.source, jet_bound)
        for phi in self.maps:
            current = jet_compose(current, phi)
        return current

    def verify(self) -> bool:
        """Check the jet identity exactly, from the chain's own maps.

        Every map but the last is composed. When the last map is radial,
        z -> z*rho, and the composed jet and the target are
        Re(z^k (1 + w)) and Re(z^k (1 + w')) below degree 2k, the last
        step is decided by its defining identity (`radial_step_holds`),
        with w and w' read off the jet and the target and rho off the map.
        Otherwise the last map is composed too and the result compared
        with the target.
        """
        current = jet_truncate(self.source, self.maps[0].bound if self.maps else self.bound)
        for phi in self.maps[:-1]:
            current = jet_compose(current, phi)
        holds = radial_step_holds(current, self.maps[-1], self.target, self.bound) if self.maps else None
        if holds is None:
            if self.maps:
                current = jet_compose(current, self.maps[-1])
            holds = jets_equivalent_mod(current, jet_truncate(self.target, current.bound), self.bound)
        if not holds:
            return False
        if self.certificate is not None:
            if not self.certificate.ok or self.certificate.level > self.bound:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "source": format_poly(self.source),
            "target": format_poly(self.target),
            "bound": self.bound,
            "maps": [
                {"x": format_poly(phi.x.poly), "y": format_poly(phi.y.poly)}
                for phi in self.maps
            ],
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "verified": self.verified,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(", ", ": "))


def _verified_chain(source, target, maps, bound, certificate=None) -> WitnessChain:
    chain = WitnessChain(source, target, tuple(maps), bound, certificate, True)
    if not chain.verify():
        raise WitnessFault("constructed witness failed exact re-verification")
    return chain


# -- leading-term normalisation ----------------------------------------------


def _gaussian_pow(re, im, n: int):
    """(re + im*i)^n by repeated squaring, for ints or Fractions."""
    out_re, out_im = 1, 0
    while True:
        if n & 1:
            out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
        n >>= 1
        if not n:
            return out_re, out_im
        re, im = re * re - im * im, 2 * re * im


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for an integer n >= 0, exactly."""
    if n < 2:
        return n
    shift = max(0, n.bit_length() - 64) // k
    x = (int((n >> shift * k) ** (1 / k)) + 1) << shift
    # one Newton step lands at or above the root (AM-GM); then it descends
    y = ((k - 1) * x + n // x ** (k - 1)) // k
    while True:
        x, y = y, ((k - 1) * y + n // y ** (k - 1)) // k
        if y >= x:
            return x


def _round_div(n: int, d: int) -> int:
    """n/d rounded to an integer, for d > 0."""
    return (2 * n + d) // (2 * d)


def exact_kth_root(re: Fraction, im: Fraction, k: int):
    """A Gaussian-rational delta with delta^k == re + im*i, or None.

    A root with common denominator d makes d^k the odd part of the lcm of
    the two denominators, and d has ceil(e/k) factors of 2 when the lcm
    has e. Then beta = d*delta is a Gaussian integer with
    beta^k == G = d^k*(re + im*i), and the norm of G is a k-th power. The
    k complex roots of G, principal root first, seed Newton's step
    rounded to Gaussian integers; the first beta with beta^k == G
    exactly gives delta. Floats only seed the search: a poor seed can
    miss a root, never return a wrong one.
    """
    lcm = math.lcm(re.denominator, im.denominator)
    twos = (lcm & -lcm).bit_length() - 1
    odd = _iroot(lcm >> twos, k)
    if odd**k != lcm >> twos:
        return None
    den = odd << -(-twos // k)
    scale = den**k
    gr = re.numerator * (scale // re.denominator)
    gi = im.numerator * (scale // im.denominator)
    norm = gr * gr + gi * gi
    if _iroot(norm, k) ** k != norm:
        return None
    # G / 2^(m*k) fits a float, and its roots are those of G over 2^m
    m = max(0, max(gr.bit_length(), gi.bit_length()) - 900) // k
    seed = complex(gr / (1 << m * k), gi / (1 << m * k))
    radius, angle = abs(seed) ** (1 / k), cmath.phase(seed)
    # a seed carries about 45 correct bits and each step doubles them
    steps = (norm.bit_length() // (90 * k)).bit_length() + 2
    for j in range(k):
        w = cmath.rect(radius, (angle + 2 * math.pi * j) / k)
        br, bi = round(Fraction(w.real) * 2**m), round(Fraction(w.imag) * 2**m)
        for _ in range(steps):
            ur, ui = _gaussian_pow(br, bi, k - 1)
            qr, qi = br * ur - bi * ui, br * ui + bi * ur
            if qr == gr and qi == gi:
                return Fraction(br, den), Fraction(bi, den)
            d = k * (ur * ur + ui * ui)
            if not d:
                break
            nr, ni = (k - 1) * qr + gr, (k - 1) * qi + gi
            br, bi = _round_div(nr * ur + ni * ui, d), _round_div(ni * ur - nr * ui, d)
    return None


class RescalingWitness(NamedTuple):
    """z -> delta*z composes f_k onto a*f_k + b*g_k for every delta with
    delta^k = a - ib, since f_k(delta*z) = Re(delta^k * z^k).

    Stands in for a witness chain when no such delta is Gaussian
    rational. `verified` is the exact identity
    a*f_k + b*g_k == Re((a - ib)*(x + iy)^k), expanded binomially.
    """

    k: int
    a: Fraction
    b: Fraction
    verified: bool

    def to_json_dict(self) -> dict:
        return {
            "kind": "rescaling",
            "k": self.k,
            "a": format_scalar(self.a),
            "b": format_scalar(self.b),
            "verified": self.verified,
        }


def _rescaled_generator(a: Fraction, b: Fraction, k: int) -> Poly:
    """Re((a - ib)*(x + iy)^k): the term x^(k-j)*y^j carries i^j."""
    parts = (a, b, -a, -b)
    return Poly({(k - j, j): math.comb(k, j) * parts[j % 4] for j in range(k + 1)})


def normalize_harmonic(a: Fraction | int, b: Fraction | int, k: int) -> WitnessChain | RescalingWitness:
    """Witness that a*f_k + b*g_k is right equivalent to f_k.

    With c = a - ib, a linear map z -> delta*z with delta^k = c composes
    f_k exactly onto the target. When delta exists with rational real
    and imaginary parts the result is a verified witness chain of that
    map; otherwise it is an exact RescalingWitness. a and b are ints or
    Fractions; anything else is a TypeError.
    """
    a = Fraction(_scalar(a))
    b = Fraction(_scalar(b))
    if not a and not b:
        raise InputError("the zero form has no normalisation")
    if k < 1:
        raise InputError("k must be at least 1")
    pair = harmonic_pair(k)
    target = pair.f * a + pair.g * b
    root = exact_kth_root(a, -b, k)
    if root is not None:
        phi = _scale_map_from_root(Poly.constant(root[0]), Poly.constant(root[1]), k)
        return _verified_chain(pair.f, target, [phi], k)
    return RescalingWitness(k, a, b, _rescaled_generator(a, b, k) == target)


# -- the full reduction -------------------------------------------------------


def _kernel_violation(germ: Poly, degree: int, power: int) -> MembershipError:
    """The error for a degree-`degree` component outside its kernel, with the
    iterated Laplacian of that component as the residual it names."""
    residual = laplacian_power(germ.graded_component(degree), power)
    return MembershipError(
        f"degree-{degree} component violates its kernel condition "
        f"({power}-fold Laplacian = {residual})",
        degree,
    )


def _leading_pair(c: tuple) -> tuple[Fraction, Fraction] | None:
    """(a, b) with a*f_k + b*g_k equal to the degree-k (z, zbar) component c;
    None when c is zero or not harmonic.

    a*f_k + b*g_k = Re((a - ib) z^k), so c is harmonic when C_i = 0 for
    0 < i < k, and then C_k = (a - ib)/2.
    """
    re, im, den = c
    if not (re[-1] or im[-1]) or not _in_kernel(c, 1):
        return None
    return Fraction(2 * re[-1], den), Fraction(-2 * im[-1], den)


def _reduction_maps(k: int, parts: list[tuple], split_offset: int) -> list[JetMap]:
    """Maps taking a validated f_k + perturbations + tail to f_k, unverified.

    `parts` holds the germ's (z, zbar) components in degrees 0..2k - 4,
    its degree-k part f_k; the sweep updates it in place.
    The translation at offset s, (x, y) -> (x - u, y - v) with
    T = u + iv of degree s + 1, solves k*Re(T*z^(k-1)) == g_(k+s), the
    degree-(k+s) component after the earlier translations:
    T = W/k, with W the `_harmonic_quotient` of g_(k+s) at m = k - 1,
    which exists as k + s < 2(k - 1). As 2 * split_offset >= k - 3, up to
    degree 2k - 4 a translation changes the higher degrees only by its
    first-order term, so each g_d of the germ itself loses
    g_x*u + g_y*v = 2 Re(dg/dz * T) in degree d + s. The scale map solves
    for the w = u - iv that `_harmonic_quotient` reads off the degrees below
    k + split_offset, which stay the germ's own. Nothing is composed: the
    caller's single WitnessChain.verify() checks the maps in (x, y).
    """
    bound = 2 * k - 4
    slopes = {d: _dz(parts[d]) for d in range(k + 1, bound + 1) if any(parts[d][0]) or any(parts[d][1])}
    maps: list[JetMap] = []
    for s in range(split_offset, k - 3):
        delta = parts[k + s]
        if not (any(delta[0]) or any(delta[1])):
            continue
        w = _harmonic_quotient([delta], k - 1)
        if w is None:
            shown = _join([_change_component(delta, _xy_image)])[0]
            raise WitnessFault(f"degree-{k + s} component left the translation span: {shown}")
        re, im, den = w[0]
        t = _component(re, im, den * k)
        u, v = _join([_change_component(t, _xy_image)])
        maps.append(jet_map(X - u, Y - v, bound))
        for d, slope in slopes.items():
            if d + s <= bound:
                parts[d + s] = _real_part(_convolve([(1, parts[d + s], _ONE), (-2, slope, t)], d + s))

    w = _harmonic_quotient(parts[: k + split_offset], k)
    if w is None:
        low = _join(_change_variables(parts[: k + split_offset], _xy_image))[0] - harmonic_pair(k).f
        raise WitnessFault(f"low degrees are not a harmonic multiple of f_{k}: {low}")
    if any(any(re) or any(im) for re, im, _ in w[1:]):
        maps.append(_inverse_scale_root([_zero(0)] + w[1:], k, bound))
    return maps


def reduce_germ(
    k: int,
    perturbations: Mapping[int, Poly] | Sequence[Poly],
    tail: Poly = Poly.zero(),
) -> WitnessChain:
    """Chain of jet maps composing f_k + perturbations + tail down to f_k.

    `perturbations` maps each offset s in 1..k-4 to a homogeneous
    degree-(k+s) polynomial whose sigma(s)-fold Laplacian vanishes (a
    sequence is read as offsets 1, 2, ...). `tail` must have order at
    least 2k-3; it is discarded by the attached determinacy report of
    level 2k-4.

    After checking the offsets, degrees and tail order, this is
    reduce_general applied to the sum f_k + perturbations + tail, whose
    leading form is f_k itself, so the chain has no rescaling map.
    """
    if not isinstance(perturbations, Mapping):
        perturbations = {s + 1: rho for s, rho in enumerate(perturbations)}
    source = tail
    for s, rho in perturbations.items():
        if not rho:
            continue
        if not 1 <= s <= k - 4:
            raise InputError(f"offset {s} outside 1..{k - 4}")
        if not rho.is_homogeneous() or rho.degree() != k + s:
            raise InputError(f"perturbation at offset {s} must be homogeneous of degree {k + s}")
        source = source + rho
    if tail and tail.order() < 2 * k - 3:
        raise InputError(f"tail order {tail.order()} below 2k-3 = {2 * k - 3}")
    return reduce_general(harmonic_pair(k).f + source, k)


def leading_coefficients(germ: Poly, k: int) -> tuple[Fraction, Fraction] | None:
    """(a, b) with degree-k part of germ == a*f_k + b*g_k; None when that
    part is zero or not harmonic.

    The pair is read off the (z, zbar) coefficients of the degree-k part
    (see `_leading_pair`).
    """
    return _leading_pair(_z_components(germ.graded_component(k), k)[k])


def _rotated(w: list[tuple], delta: tuple) -> list[tuple]:
    """w o (z -> delta*z), for w given by its (z, zbar) components and delta
    by its degree-0 component: each C_ij z^i zbar^j gains delta^i conj(delta)^j."""
    powers = [[(1, 0)], [(1, 0)]]  # the numerators of delta^n and of conj(delta)^n
    for row, ((p,), (q,), _) in zip(powers, (delta, _conjugate(delta))):
        for _ in range(len(w) - 1):
            a, b = row[-1]
            row.append((a * p - b * q, a * q + b * p))
    rotated = []
    for d, (re, im, den) in enumerate(w):
        gains = [(a * c - b * e, a * e + b * c) for (a, b), (c, e) in zip(powers[0], powers[1][d::-1])]
        new_re = [x * g - y * h for x, y, (g, h) in zip(re, im, gains)]
        new_im = [x * h + y * g for x, y, (g, h) in zip(re, im, gains)]
        rotated.append(_component(new_re, new_im, den * delta[2] ** d))
    return rotated


def reduce_general(germ: Poly, k: int) -> WitnessChain:
    """Chain of jet maps composing a germ with harmonic leading form down to f_k.

    The germ must have order k and a nonzero harmonic degree-k part
    a*f_k + b*g_k; each component of degree k+s, 1 <= s <= k-4, must lie
    in its sigma(s)-fold Laplacian kernel, and degrees >= 2k-3 are tail.
    Unless the leading part is f_k itself, the chain starts with the
    linear map z -> delta*z, where delta^k = 1/(a - ib) must have
    rational real and imaginary parts; a similarity keeps every kernel
    condition. The maps of the reduction of the rescaled germ follow,
    and the whole chain passes one exact WitnessChain.verify().

    The germ's components up to degree 2k - 4 are changed to (z, zbar)
    coordinates once, and the construction reads everything off them:
    each kernel condition as C_i = 0 for p <= i <= d - p, the leading
    pair from C_k, and the maps (`_reduction_maps`); z -> delta*z rotates
    the components themselves. Only the maps are (x, y) polynomials.
    """
    if germ.order() < k:
        raise InputError(f"germ has terms of degree below k = {k}")
    profile = absorption_profile(k)
    bound = 2 * k - 4
    parts = _z_components(germ, bound)
    for s, power in profile.exponents:
        if not _in_kernel(parts[k + s], power):
            raise _kernel_violation(germ, k + s, power)
    coeffs = _leading_pair(parts[k])
    if coeffs is None:
        raise InputError("leading degree-k part is zero or not harmonic")

    maps: list[JetMap] = []
    if coeffs != (1, 0):
        a, b = coeffs
        norm = a * a + b * b
        root = exact_kth_root(a / norm, b / norm, k)
        if root is None:
            raise InputError(
                "leading form needs an irrational rescaling; "
                "only a pure harmonic form has a rescaling witness"
            )
        re, im = Poly.constant(root[0]), Poly.constant(root[1])
        maps.append(_scale_map_from_root(re, im, bound))
        parts = _rotated(parts, _split(re, im, 0)[0])
    maps += _reduction_maps(k, parts, profile.split_offset)
    certificate = determined_bound_report(k, Poly.zero())
    return _verified_chain(germ, harmonic_pair(k).f, maps, bound, certificate)


def verify_biharmonic(k: int, perturbation: Poly) -> WitnessChain:
    """Witness for: f_k + R is right equivalent to f_k when the 2-fold
    Laplacian of R vanishes and order(R) > k.

    A vanishing 2-fold Laplacian sits inside every kernel that
    reduce_general requires, so f_k + R goes to it unchanged; graded
    components of R from degree 2k-3 on are tail, discarded by
    determinacy.
    """
    if k < 5:
        raise InputError("biharmonic absorption requires k >= 5")
    if perturbation and perturbation.order() <= k:
        raise InputError(
            f"perturbation order {perturbation.order()} must exceed k = {k}"
        )
    for degree, component in perturbation.components().items():
        residual = laplacian_power(component, 2)
        if residual:
            raise MembershipError(
                f"2-fold Laplacian is nonzero in degree {degree}: {residual}", degree
            )
    return reduce_general(harmonic_pair(k).f + perturbation, k)
