"""Exact linear algebra on the graded pieces of the polynomial ring.

P_d denotes the homogeneous polynomials of total degree d (dimension
d+1, monomial basis x^d, x^(d-1)*y, ..., y^d; empty for d < 0). Subspaces
of P_d are stored as RREF bases with respect to that monomial order, so
subspace equality is basis identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .harmonic import harmonic_pair
from .jets import harmonic_multiple
from .linalg import RationalMatrix
from .polyring import Poly, laplacian_power, monomial_basis, poly_to_vector, vector_to_poly


@dataclass(frozen=True)
class GradedSubspace:
    """Subspace of P_degree, held as a canonical RREF basis."""

    degree: int
    basis: tuple[Poly, ...]

    @classmethod
    def from_polys(cls, degree: int, polys) -> "GradedSubspace":
        rows = [poly_to_vector(p, degree) for p in polys if p]
        rr, _ = linalg.rref(rows)
        return cls(degree, tuple(vector_to_poly(row, degree) for row in rr))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectors(self) -> list[tuple[Fraction, ...]]:
        return [poly_to_vector(p, self.degree) for p in self.basis]

    def contains(self, p: Poly) -> bool:
        if not p:
            return True
        # the stored basis is already in RREF, so each row's leading
        # column is its pivot; no re-elimination needed
        rows = self.vectors()
        pivots = [next(j for j, c in enumerate(row) if c) for row in rows]
        return linalg.in_rowspace(rows, pivots, poly_to_vector(p, self.degree))


def full_space(d: int) -> GradedSubspace:
    """All of P_d."""
    return GradedSubspace(d, tuple(Poly.monomial(a, b) for a, b in monomial_basis(d)))


def laplacian_matrix(k: int, s: int) -> RationalMatrix:
    """Matrix of the s-fold Laplacian from P_k to P_(k-2s).

    Rows are indexed by the degree-(k-2s) monomials, columns by the
    degree-k monomials. For k < 2s the target space is trivial and the
    matrix has no rows.
    """
    if s < 0:
        raise ValueError("negative Laplacian power")
    source = monomial_basis(k)
    target = monomial_basis(k - 2 * s)
    columns = [laplacian_power(Poly.monomial(a, b), s) for a, b in source]
    entries = tuple(
        tuple(col.coeff(ta, tb) for col in columns) for ta, tb in target
    )
    return RationalMatrix(len(target), len(source), entries)


def kernel_basis(k: int, s: int) -> GradedSubspace:
    """RREF basis of the kernel of the s-fold Laplacian inside P_k."""
    if k < 0:
        return GradedSubspace(k, ())
    matrix = laplacian_matrix(k, s)
    vectors = linalg.nullspace(matrix.entries, matrix.cols)
    return GradedSubspace.from_polys(k, [vector_to_poly(v, k) for v in vectors])


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
    a_in_b = all(b.contains(p) for p in a.basis)
    b_in_a = all(a.contains(p) for p in b.basis)
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
    columns = []
    for a, b in monos:
        columns.append(poly_to_vector(pair.f.shifted(a, b), k + s))
    for a, b in monos:
        columns.append(poly_to_vector(pair.g.shifted(a, b), k + s))
    solution = linalg.solve_canonical(columns, poly_to_vector(target, k + s))
    if solution is None:
        return None
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
