"""Exact linear algebra on the graded pieces of the polynomial ring.

P_d denotes the homogeneous polynomials of total degree d (dimension
d+1, monomial basis x^d, x^(d-1)*y, ..., y^d; empty for d < 0). Subspaces
of P_d are stored as RREF bases with respect to that monomial order, so
subspace equality is basis identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .harmonic import harmonic_pair
from .jets import harmonic_multiple
from .linalg import RationalMatrix
from .polyring import Poly, integer_coordinates, laplacian_power, monomial_basis


@dataclass(frozen=True)
class GradedSubspace:
    """Subspace of P_degree, held as a canonical RREF basis."""

    degree: int
    basis: tuple[Poly, ...]

    @classmethod
    def from_polys(cls, degree: int, polys) -> "GradedSubspace":
        """Span of homogeneous degree-`degree` polys; any other term raises ValueError."""
        basis = monomial_basis(degree)
        # each row is scaled by its own denominator, which keeps the row span
        rr, _ = linalg.rref(integer_coordinates(polys, basis)[0])
        return cls(degree, tuple(Poly(zip(basis, row)) for row in rr))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, p: Poly) -> bool:
        """Whether p lies in the span; a term of p outside P_degree raises ValueError."""
        return linalg.solve_canonical(self.basis, [p], monomial_basis(self.degree))[1] is None


def full_space(d: int) -> GradedSubspace:
    """All of P_d."""
    return GradedSubspace(d, tuple(Poly.monomial(a, b) for a, b in monomial_basis(d)))


def laplacian_matrix(k: int, s: int) -> RationalMatrix:
    """Matrix of the s-fold Laplacian from P_k to P_(k-2s).

    Rows are indexed by the degree-(k-2s) monomials, columns by the
    degree-k monomials. For k < 2s the target space is trivial and the
    matrix has no rows.
    """
    target = monomial_basis(k - 2 * s)
    columns = _laplacian_images(k, s)
    entries = tuple(
        tuple(col.coeff(ta, tb) for col in columns) for ta, tb in target
    )
    return RationalMatrix(len(target), len(columns), entries)


def _laplacian_images(k: int, s: int) -> list[Poly]:
    """The s-fold Laplacian of each degree-k monomial, x-exponent descending."""
    if s < 0:
        raise ValueError("negative Laplacian power")
    return [laplacian_power(Poly.monomial(a, b), s) for a, b in monomial_basis(k)]


def kernel_basis(k: int, s: int) -> GradedSubspace:
    """RREF basis of the kernel of the s-fold Laplacian inside P_k."""
    if k < 0:
        return GradedSubspace(k, ())
    vectors = linalg.nullspace(_laplacian_images(k, s), monomial_basis(k - 2 * s))
    return GradedSubspace.from_polys(k, [Poly(zip(monomial_basis(k), v)) for v in vectors])


def product_space(s: int, k: int) -> GradedSubspace:
    """Span of x^a*y^b*f_k and x^a*y^b*g_k over all a+b = s, inside P_(s+k).

    Computed by explicit span and reduction, never via the kernel
    characterisation (the library verifies that equality, so it must not
    assume it).
    """
    if k < 1:
        raise ValueError("harmonic degree must be at least 1")
    if s < 0:
        return GradedSubspace(s + k, ())
    pair = harmonic_pair(k)
    generators = []
    for a, b in monomial_basis(s):
        generators.append(pair.f.shifted(a, b))
        generators.append(pair.g.shifted(a, b))
    return GradedSubspace.from_polys(s + k, generators)


def subspace_compare(a: GradedSubspace, b: GradedSubspace) -> str:
    """Exact set relation: "equal", "a_in_b", "b_in_a" or "incomparable"."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    if a.basis == b.basis:
        return "equal"
    basis = monomial_basis(a.degree)
    a_in_b = linalg.solve_canonical(b.basis, a.basis, basis)[1] is None
    b_in_a = linalg.solve_canonical(a.basis, b.basis, basis)[1] is None
    if a_in_b and b_in_a:
        return "equal"
    if a_in_b:
        return "a_in_b"
    if b_in_a:
        return "b_in_a"
    return "incomparable"


def solve_membership(target: Poly, k: int, s: int) -> tuple[Poly, Poly] | None:
    """Write target = u*f_k + v*g_k with u, v homogeneous of degree s.

    Returns None when no representation exists (including any degree
    mismatch). With several solutions, free coefficients are set to zero,
    so the answer is canonical.
    """
    if not target:
        return Poly.zero(), Poly.zero()
    if not target.is_homogeneous() or target.degree() != k + s or s < 0:
        return None
    pair = harmonic_pair(k)
    monos = monomial_basis(s)
    columns = [pair.f.shifted(a, b) for a, b in monos] + [pair.g.shifted(a, b) for a, b in monos]
    _, missing, solutions = linalg.solve_canonical(columns, [target], monomial_basis(k + s))
    if missing is not None:
        return None
    solution = solutions[0]
    n = len(monos)
    u = Poly({exps: c for exps, c in zip(monos, solution[:n]) if c})
    v = Poly({exps: c for exps, c in zip(monos, solution[n:]) if c})
    return u, v


def translation_solution(target: Poly, k: int) -> tuple[Poly, Poly] | None:
    """(u, v) with k*(u*f_(k-1) - v*g_(k-1)) == target, or None.

    Since df_k/dx = k*f_(k-1) and df_k/dy = -k*g_(k-1), this is the
    first-order change of f_k under the translation (x, y) -> (x + u, y + v).
    u and v are homogeneous of degree deg(target) - (k-1); None when the
    target lies outside the span of those multiples of f_(k-1), g_(k-1).
    Below degree 2k-2 the pair is unique and read off by `harmonic_multiple`.
    """
    m, degree = k - 1, target.degree()
    if not target.is_homogeneous():
        return None
    solved = harmonic_multiple(target, m) if degree < 2 * m else solve_membership(target, m, degree - m)
    if solved is None:
        return None
    cu, cv = solved
    return cu / k, -(cv / k)
