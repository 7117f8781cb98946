"""Exact linear algebra on the graded pieces of the polynomial ring.

P_d denotes the homogeneous polynomials of total degree d (dimension
d+1, monomial basis x^d, x^(d-1)*y, ..., y^d; empty for d < 0). Subspaces
of P_d are stored as RREF bases with respect to that monomial order, so
subspace equality is basis identity. `solve_membership` alone answers
"is target = u*f_k + v*g_k?": by a (z, zbar) read-off below degree 2k,
where the pair is unique, and by one canonical elimination from 2k on.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .harmonic import harmonic_pair
from .polyring import InputError, Poly, integer_coordinates, laplacian_power, monomial_basis
from .zcoords import harmonic_multiple


class GradedSubspace(NamedTuple):
    """Subspace of P_degree, held as a canonical RREF basis."""

    degree: int
    basis: tuple[Poly, ...]

    @classmethod
    def from_polys(cls, degree: int, polys) -> "GradedSubspace":
        """Span of homogeneous degree-`degree` polys; any other term raises InputError."""
        basis = monomial_basis(degree)
        # each row is scaled by its own denominator, which keeps the row span;
        # an echelon row over its pivot entry is a row of the rational RREF
        rr, pivots = linalg.rref(integer_coordinates(polys, basis)[0])
        terms = [{exps: v for exps, v in zip(basis, row) if v} for row in rr]
        return cls(degree, tuple(Poly._of(num, row[col]) for num, row, col in zip(terms, rr, pivots)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, p: Poly) -> bool:
        """Whether p lies in the span; a term of p outside P_degree raises InputError."""
        return linalg.solve_canonical(self.basis, [p], monomial_basis(self.degree))[0] is None


def full_space(d: int) -> GradedSubspace:
    """All of P_d."""
    return GradedSubspace(d, tuple(Poly.monomial(a, b) for a, b in monomial_basis(d)))


def _laplacian_images(k: int, s: int) -> list[Poly]:
    """The s-fold Laplacian of each degree-k monomial, x-exponent descending."""
    if s < 0:
        raise InputError("negative Laplacian power")
    return [laplacian_power(Poly.monomial(a, b), s) for a, b in monomial_basis(k)]


def kernel_basis(k: int, s: int) -> GradedSubspace:
    """RREF basis of the kernel of the s-fold Laplacian inside P_k.

    Delta^s keeps the parity of the x-exponent, so the monomials of each
    parity form a system of their own, sharing no row with the other, and
    each is one elimination. With the monomials reversed, each nullspace
    vector is 1 at its free column, 0 at the other free ones and nonzero
    only at earlier pivots; read forward and ordered by free column, they
    are the unique RREF basis.
    """
    if k < 0:
        return GradedSubspace(k, ())
    images = _laplacian_images(k, s)
    monos, rows = monomial_basis(k), monomial_basis(k - 2 * s)
    found = {}
    for parity in (0, 1):
        # monos[i] has x-exponent k - i; reversed, it ascends
        columns = [i for i in reversed(range(k + 1)) if (k - i) % 2 == parity]
        if not columns:
            continue
        relations = linalg.nullspace(
            [images[i] for i in columns], [exps for exps in rows if exps[0] % 2 == parity]
        )
        for free, numerators, den in relations:
            vector = {monos[columns[j]]: v for j, v in numerators.items()}
            found[columns[free]] = Poly._of(vector, den)
    return GradedSubspace(k, tuple(found[i] for i in sorted(found)))


def product_space(s: int, k: int) -> GradedSubspace:
    """Span of x^a*y^b*f_k and x^a*y^b*g_k over all a+b = s, inside P_(s+k).

    Computed by explicit span and reduction, never via the kernel
    characterisation (the library verifies that equality, so it must not
    assume it).
    """
    if k < 1:
        raise InputError("harmonic degree must be at least 1")
    if s < 0:
        return GradedSubspace(s + k, ())
    pair = harmonic_pair(k)
    generators = []
    for a, b in monomial_basis(s):
        generators.append(pair.f.shifted(a, b))
        generators.append(pair.g.shifted(a, b))
    return GradedSubspace.from_polys(s + k, generators)


def subspace_compare(a: GradedSubspace, b: GradedSubspace) -> str:
    """Exact set relation: "equal", "a_in_b", "b_in_a" or "incomparable".

    Both bases must be independent, as `GradedSubspace` holds them. One
    solve of the smaller basis against the larger decides, since the
    larger space cannot lie in the smaller one.
    """
    if a.degree != b.degree:
        raise InputError(f"degree mismatch: {a.degree} vs {b.degree}")
    if a.basis == b.basis:
        return "equal"
    small, large = (a, b) if a.dim <= b.dim else (b, a)
    if linalg.solve_canonical(large.basis, small.basis, monomial_basis(a.degree))[0] is not None:
        return "incomparable"
    if small.dim == large.dim:
        return "equal"
    return "a_in_b" if small is a else "b_in_a"


def solve_membership(target: Poly, k: int, s: int) -> tuple[Poly, Poly] | None:
    """Write target = u*f_k + v*g_k with u, v homogeneous of degree s.

    Returns None when no representation exists (including any degree
    mismatch). Below degree 2k (s < k) the pair is unique and read off by
    `harmonic_multiple`; from 2k on one elimination sets the free
    coefficients to zero, so the answer is canonical.
    """
    if not target:
        return Poly.zero(), Poly.zero()
    if not target.is_homogeneous() or target.degree() != k + s or s < 0:
        return None
    if s < k:
        return harmonic_multiple(target, k)
    pair = harmonic_pair(k)
    monos = monomial_basis(s)
    columns = [pair.f.shifted(a, b) for a, b in monos] + [pair.g.shifted(a, b) for a, b in monos]
    missing, solutions = linalg.solve_canonical(columns, [target], monomial_basis(k + s))
    if missing is not None:
        return None
    numerators, den = solutions[0]
    n = len(monos)
    u = {monos[j]: c for j, c in numerators.items() if j < n}
    v = {monos[j - n]: c for j, c in numerators.items() if j >= n}
    return Poly._of(u, den), Poly._of(v, den)
