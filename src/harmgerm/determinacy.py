"""Finite-determinacy certificates via the Jacobian-ideal criterion.

A germ h is L-determined when every perturbation by terms of order
above L can be removed by a change of coordinates. A sufficient
criterion: the degree-L slice of the maximal ideal is contained in
m * J_h modulo terms of order above L, where J_h is generated by the
partial derivatives of h. Truncating at degree L makes this a finite
exact rank computation: multiplier monomials of degree above
L - order(h) + 1 only produce terms that the truncation kills, so a
finite product set exhibits the span.

The truncated products are graded by their order. Those of order
exactly L (the top block) are homogeneous of degree L, so one small
elimination in the L + 1 degree-L coordinates runs first. A top block
that spans every degree-L monomial is the certificate by itself. One
that leaves a monomial uncovered decides False when it is linearly
independent and no multiplier cap applies, since then no product of
lower order can take part in a combination that equals a degree-L
polynomial (see `check_determinacy`); otherwise the elimination over
every degree 1..L decides (the semi-quasihomogeneous argument of
Arnold, Gusein-Zade & Varchenko, Singularities of Differentiable Maps
I, section 12; Wall, "Finite determinacy of smooth map-germs", Bull.
LMS 1981).

A True verdict certifies determinacy; False means the criterion is
inconclusive, never a disproof.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

from . import linalg
from .harmonic import harmonic_pair
from .polyring import InputError, Poly, linear_combination, monomial_basis


def jacobian_generators(h: Poly) -> tuple[Poly, Poly]:
    """The two generators of the Jacobian ideal: (dh/dx, dh/dy)."""
    return h.diff("x"), h.diff("y")


class DeterminacyCertificate(NamedTuple):
    """Outcome of the criterion at one level.

    `products` is the exhibited spanning set: the nonzero truncations of
    monomial multiples of the two Jacobian generators. verdict True
    means every degree-`level` monomial lies in their span, so the germ
    is `level`-determined, and `combinations` holds one coefficient
    tuple per degree-`level` monomial (x-exponent descending): the
    RREF-canonical combination (free coefficients zero) that equals that
    monomial. When the top block (the products of order `level`) spans
    the monomials, the combinations are those of the top block alone and
    every product outside it gets coefficient zero; otherwise they are
    those of all the products. When False, `missing` holds the first
    uncovered monomial and `combinations` is empty.
    """

    germ: Poly
    level: int
    products: tuple[Poly, ...]
    verdict: bool
    missing: Poly | None
    combinations: tuple[tuple[Fraction, ...], ...]


def _ordered_generators(h: Poly) -> list[tuple[Poly, int]]:
    """(generator, order) for each nonzero Jacobian generator of h."""
    return [(gen, gen.order()) for gen in jacobian_generators(h) if gen]


def _truncated_multiples(
    generators: list[tuple[Poly, int]], level: int, max_multiplier_degree: int | None = None
) -> Iterator[tuple[int, Poly]]:
    """(order, x^a*y^b * gen truncated at `level`) per nonzero product, multiplier degree ascending.

    `generators` is `_ordered_generators(h)`. Multipliers run over
    1 <= a+b <= max_multiplier_degree (default: every degree that can
    still contribute below the truncation), so a capped list is a prefix
    of the uncapped one. Each product is an exponent shift of a
    generator; with a generator of order e and a multiplier of degree d
    it has order d + e, and it is zero once d + e exceeds `level`.
    """
    cap = level - min((e for _, e in generators), default=level)
    if max_multiplier_degree is not None:
        cap = min(cap, max_multiplier_degree)
    degrees = range(1, cap + 1)
    shifts = [(gen.shifts(degrees, level), e) for gen, e in generators]
    for d in degrees:
        # [] for a generator with d + e > level
        blocks = [(next(multiples), d + e) for multiples, e in shifts]
        for i in range(d + 1):
            for products, order in blocks:
                if products:
                    yield order, products[i]


def check_determinacy(h: Poly, level: int, max_multiplier_degree: int | None = None) -> DeterminacyCertificate:
    """Run the Jacobian criterion for `level`-determinacy of h.

    The span is built from x^a*y^b * dh/dx_i truncated at `level`, for
    multipliers with 1 <= a+b <= max_multiplier_degree (default: every
    degree that can still contribute below the truncation). An
    elimination with columns [products | degree-`level` monomials]
    decides every monomial: a pivot in a monomial column marks the
    first uncovered one, and otherwise each monomial column holds that
    monomial's combination.

    The first elimination takes the top block alone, the products of
    order exactly `level`, in the `level` + 1 degree-`level`
    coordinates. Truncated at `level` these products are homogeneous of
    that degree, so a combination of them that equals a monomial in
    those coordinates equals it exactly: a top block that spans is the
    certificate, whatever the cap and whether or not it is independent.

    When a monomial is left uncovered, a lemma decides False on an
    uncapped call whose top block is linearly independent: then every
    combination of products that equals a degree-`level` polynomial
    gives every lower product coefficient zero. For if one did not, take
    the lowest order d < `level` with a nonzero coefficient: in degree d
    the leading forms A, B of the generators satisfy u*A + v*B = 0 with
    u, v both nonzero, and multiplying by a monomial of degree
    `level` - d, which an uncapped call keeps, turns that into a
    dependency inside the top block. So the top block gives the same
    verdict and missing monomial as the elimination over every degree.
    On a capped call, or with a dependent top block, that second
    elimination runs over all products in every degree 1..`level`.
    """
    if level < 1:
        raise InputError(f"certificate level {level} must be at least 1")
    if not h:
        raise InputError("zero germ is never finitely determined")
    if h.order() > level:
        raise InputError(f"germ order {h.order()} exceeds the certificate level {level}")
    multiples = list(_truncated_multiples(_ordered_generators(h), level, max_multiplier_degree))
    products = [p for _, p in multiples]
    top_basis = monomial_basis(level)
    monomials = [Poly.monomial(a, b) for a, b in top_basis]
    top = [j for j, (order, _) in enumerate(multiples) if order == level]
    independent, missing, solved = linalg.solve_canonical([products[j] for j in top], monomials, top_basis)
    if missing is not None and (max_multiplier_degree is not None or not independent):
        # the full solve's columns are all the products
        top = range(len(products))
        basis = [exps for d in range(1, level + 1) for exps in monomial_basis(d)]
        _, missing, solved = linalg.solve_canonical(products, monomials, basis)
    # column j of the solve is product top[j]; every other product gets coefficient 0
    zero = Fraction(0)
    combinations = []
    for numerators, den in solved:
        combo = [zero] * len(products)
        for j, n in numerators.items():
            combo[top[j]] = Fraction(n, den)
        combinations.append(tuple(combo))
    return DeterminacyCertificate(
        germ=h,
        level=level,
        products=tuple(products),
        verdict=missing is None,
        missing=None if missing is None else monomials[missing],
        combinations=tuple(combinations) if missing is None else (),
    )


def reverify_certificate(cert: DeterminacyCertificate) -> bool:
    """Independent containment check of a True certificate.

    Re-derives the first `len(cert.products)` truncated multiples of the
    Jacobian generators of `cert.germ` at `cert.level` and requires
    `cert.products` to equal them (a multiplier cap shortens the list).
    Then multiplies each stored combination back out as one exact integer
    sum and requires it to equal its degree-`level` monomial. No
    elimination is run. A level below 1 has no monomials to check and is
    rejected.
    """
    if not cert.verdict or cert.level < 1:
        return False
    generators = _ordered_generators(cert.germ)
    derived = islice(_truncated_multiples(generators, cert.level), len(cert.products))
    if list(cert.products) != [p for _, p in derived]:
        return False
    monomials = monomial_basis(cert.level)
    if len(cert.combinations) != len(monomials):
        return False
    for (a, b), coeffs in zip(monomials, cert.combinations):
        if len(coeffs) != len(cert.products):
            return False
        if linear_combination(zip(coeffs, cert.products)) != Poly.monomial(a, b):
            return False
    return True


class DeterminacyReport(NamedTuple):
    """Combined determinacy statement for a germ f_k + R, order(R) > k.

    The criterion certificate establishes (2k-3)-determinacy, and it also
    holds the translations that absorb the whole degree-(2k-3) slice,
    lowering the determinacy level to max(k, 2k-4). Its top block is
    x^a*y^b * dh/dx and x^a*y^b * dh/dy with a+b = k-2, whose truncations
    are x^a*y^b * k*f_(k-1) and -x^a*y^b * k*g_(k-1). That block spans
    the degree-(2k-3) monomials, so it is the certificate and every
    lower product gets coefficient zero, and a monomial's coefficients
    on the dh/dx products are therefore those of u, and on the dh/dy
    products those of v, in
    k*(u*f_(k-1) - v*g_(k-1)) == monomial: composing with
    (x, y) -> (x + u, y + v) shifts the germ by -monomial in that degree.
    """

    k: int
    criterion: DeterminacyCertificate
    level: int
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "level": self.level,
            "criterion_level": self.criterion.level,
            "criterion_verdict": self.criterion.verdict,
            # the slice that the top-block translations absorb, and their check
            "absorbed_degree": self.criterion.level,
            "absorption_verified": self.ok,
            "ok": self.ok,
        }


@functools.lru_cache(maxsize=256)
def determined_bound_report(k: int, tail: Poly) -> DeterminacyReport:
    """Certify that f_k + tail is max(k, 2k-4)-determined, for k >= 5.

    `tail` must have order at least k+1. Runs the Jacobian criterion at
    level 2k-3 and re-verifies its certificate, which `ok` requires; the
    translations absorbing the degree-(2k-3) slice are the certificate's
    top-block coefficients (see `DeterminacyReport`). Results are cached;
    both arguments are immutable.
    """
    if k < 5:
        raise InputError("report requires k >= 5")
    if tail and tail.order() <= k:
        raise InputError(f"tail order {tail.order()} must exceed k = {k}")
    criterion = check_determinacy(harmonic_pair(k).f + tail, 2 * k - 3)
    return DeterminacyReport(
        k=k, criterion=criterion, level=max(k, 2 * k - 4), ok=reverify_certificate(criterion)
    )
