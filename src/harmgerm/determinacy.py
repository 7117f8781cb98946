"""Finite-determinacy certificates via the Jacobian-ideal criterion.

A germ h is L-determined when every perturbation by terms of order
above L can be removed by a change of coordinates. A sufficient
criterion: the degree-L slice of the maximal ideal is contained in
m * J_h modulo terms of order above L, where J_h is generated by the
partial derivatives of h. Truncating at degree L makes this a finite
exact rank computation: multiplier monomials of degree above
L - order(h) + 1 only produce terms that the truncation kills, so a
finite product set exhibits the span.

A True verdict certifies determinacy; False means the criterion is
inconclusive, never a disproof.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .graded import monomial_basis, translation_solution
from .harmonic import harmonic_pair
from .polyring import Poly


def jacobian_generators(h: Poly) -> tuple[Poly, Poly]:
    """The two generators of the Jacobian ideal: (dh/dx, dh/dy)."""
    return h.diff("x"), h.diff("y")


def _coordinates(polys, level: int) -> list[tuple[Fraction, ...]]:
    """Coefficient vectors over the monomials of degrees 1..level, degree then x-descending."""
    basis = [exps for d in range(1, level + 1) for exps in monomial_basis(d)]
    return [tuple(p.coeff(a, b) for a, b in basis) for p in polys]


@dataclass(frozen=True)
class DeterminacyCertificate:
    """Outcome of the criterion at one level.

    `products` is the exhibited spanning set: the nonzero truncations of
    monomial multiples of the two Jacobian generators. verdict True
    means every degree-`level` monomial lies in their span, so the germ
    is `level`-determined, and `combinations` holds one coefficient
    tuple per degree-`level` monomial (x-exponent descending): the
    RREF-canonical combination of `products` (free coefficients zero)
    that equals that monomial. When False, `missing` holds the first
    uncovered monomial and `combinations` is empty.
    """

    germ: Poly
    level: int
    products: tuple[Poly, ...]
    verdict: bool
    missing: Poly | None
    combinations: tuple[tuple[Fraction, ...], ...]


def _truncated_multiples(h: Poly, level: int, max_multiplier_degree: int | None = None) -> list[Poly]:
    """The nonzero x^a*y^b * dh/dx_i truncated at `level`, multiplier degree ascending.

    Multipliers run over 1 <= a+b <= max_multiplier_degree (default:
    every degree that can still contribute below the truncation), so a
    capped list is a prefix of the uncapped one.
    """
    hx, hy = jacobian_generators(h)
    generator_order = min(p.order() for p in (hx, hy) if p) if (hx or hy) else level + 1
    cap = level - generator_order + 1 if generator_order <= level else 0
    if max_multiplier_degree is not None:
        cap = min(cap, max_multiplier_degree)
    products = []
    for d in range(1, max(cap, 0) + 1):
        for a, b in monomial_basis(d):
            mono = Poly.monomial(a, b)
            for gen in (hx, hy):
                truncated = mono.mul_truncated(gen, level)
                if truncated:
                    products.append(truncated)
    return products


def check_determinacy(h: Poly, level: int, max_multiplier_degree: int | None = None) -> DeterminacyCertificate:
    """Run the Jacobian criterion for `level`-determinacy of h.

    The span is built from x^a*y^b * dh/dx_i truncated at `level`, for
    multipliers with 1 <= a+b <= max_multiplier_degree (default: every
    degree that can still contribute below the truncation). One
    elimination of the coordinate matrix with columns
    [products | degree-`level` monomials] decides every monomial: a
    pivot in a monomial column marks the first uncovered one, and
    otherwise each monomial column holds that monomial's combination.
    """
    if level < 1:
        raise ValueError(f"certificate level {level} must be at least 1")
    if not h:
        raise ValueError("zero germ is never finitely determined")
    if h.order() > level:
        raise ValueError(f"germ order {h.order()} exceeds the certificate level {level}")
    products = _truncated_multiples(h, level, max_multiplier_degree)
    monomials = [Poly.monomial(a, b) for a, b in monomial_basis(level)]
    columns = _coordinates(products + monomials, level)
    rr, pivots = linalg.rref(list(zip(*columns)))

    width = len(products)
    first_missing = next((col - width for col in pivots if col >= width), None)
    if first_missing is not None:
        missing, combinations = monomials[first_missing], ()
    else:
        missing = None
        combinations = []
        for j in range(len(monomials)):
            # most entries are zero; sharing one zero keeps the stored
            # combinations from pinning the elimination's memory
            combo = [Fraction(0)] * width
            for row, col in zip(rr, pivots):
                if row[width + j]:
                    combo[col] = row[width + j]
            combinations.append(tuple(combo))
    return DeterminacyCertificate(
        germ=h,
        level=level,
        products=tuple(products),
        verdict=missing is None,
        missing=missing,
        combinations=tuple(combinations),
    )


def reverify_certificate(cert: DeterminacyCertificate) -> bool:
    """Independent containment check of a True certificate.

    Re-derives the truncated multiples of the Jacobian generators of
    `cert.germ` at `cert.level` and requires `cert.products` to be a
    prefix of them (a multiplier cap shortens the list). Then multiplies
    each stored combination back out with plain polynomial arithmetic
    and requires it to equal its degree-`level` monomial. No elimination
    is run. A level below 1 has no monomials to check and is rejected.
    """
    if not cert.verdict or cert.level < 1:
        return False
    if list(cert.products) != _truncated_multiples(cert.germ, cert.level)[: len(cert.products)]:
        return False
    monomials = monomial_basis(cert.level)
    if len(cert.combinations) != len(monomials):
        return False
    for (a, b), coeffs in zip(monomials, cert.combinations):
        if len(coeffs) != len(cert.products):
            return False
        combo = Poly.zero()
        for c, p in zip(coeffs, cert.products):
            if c:
                combo = combo + p * c
        if combo != Poly.monomial(a, b):
            return False
    return True


@dataclass(frozen=True)
class TranslationAbsorption:
    """Explicit coordinate translations soaking up one homogeneous slice.

    For each degree-`degree` monomial m, a pair (u, v) of homogeneous
    polynomials with k*(u*f_(k-1) - v*g_(k-1)) == m exactly; composing
    with (x, y) -> (x + u, y + v) therefore shifts a germ with leading
    term f_k by -m in that degree.
    """

    k: int
    degree: int
    entries: tuple[tuple[Poly, Poly, Poly], ...]
    verified: bool


def translation_absorption(k: int) -> TranslationAbsorption:
    """Absorb the full degree-(2k-3) slice by translations, degree k >= 5."""
    degree = 2 * k - 3
    pair = harmonic_pair(k - 1)
    entries = []
    ok = True
    for a, b in monomial_basis(degree):
        mono = Poly.monomial(a, b)
        solved = translation_solution(mono, k)
        if solved is None:
            ok = False
            break
        u, v = solved
        entries.append((mono, u, v))
        if (pair.f * u - pair.g * v) * k != mono:
            ok = False
            break
    return TranslationAbsorption(k, degree, tuple(entries), ok)


@dataclass(frozen=True)
class DeterminacyReport:
    """Combined determinacy statement for a germ f_k + R, order(R) > k.

    The criterion certificate establishes (2k-3)-determinacy; the
    translation exhibit absorbs the whole degree-(2k-3) slice, lowering
    the determinacy level to max(k, 2k-4).
    """

    k: int
    criterion: DeterminacyCertificate
    absorption: TranslationAbsorption
    level: int
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "level": self.level,
            "criterion_level": self.criterion.level,
            "criterion_verdict": self.criterion.verdict,
            "absorbed_degree": self.absorption.degree,
            "absorption_verified": self.absorption.verified,
            "ok": self.ok,
        }


@functools.lru_cache(maxsize=256)
def determined_bound_report(k: int, tail: Poly) -> DeterminacyReport:
    """Certify that f_k + tail is max(k, 2k-4)-determined, for k >= 5.

    `tail` must have order at least k+1. Runs the Jacobian criterion at
    level 2k-3, re-verifies its certificate, and constructs the
    translations that absorb the degree-(2k-3) slice; `ok` needs both
    checks. Results are cached; both arguments are immutable.
    """
    if k < 5:
        raise ValueError("report requires k >= 5")
    if tail and tail.order() <= k:
        raise ValueError(f"tail order {tail.order()} must exceed k = {k}")
    germ = harmonic_pair(k).f + tail
    criterion = check_determinacy(germ, 2 * k - 3)
    absorption = translation_absorption(k)
    level = max(k, 2 * k - 4)
    return DeterminacyReport(
        k=k,
        criterion=criterion,
        absorption=absorption,
        level=level,
        ok=reverify_certificate(criterion) and absorption.verified,
    )
