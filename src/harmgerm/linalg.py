"""Small exact linear algebra toolkit over the rationals.

Everything is built on one kernel: reduced row echelon form with leading
coefficient 1 and deterministic pivoting (first nonzero, columns left to
right). RREF is a canonical form, so two row spans are equal exactly when
their RREF rows coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._kernels import rref

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class RationalMatrix:
    """Dense rational matrix; entries[i][j] is row i, column j."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("inconsistent matrix dimensions")


def reduce_vector(rref_rows: Sequence[Vector], pivots: Sequence[int], vec: Sequence[Fraction]) -> Vector:
    """Residual of `vec` after eliminating all pivot coordinates."""
    residual = list(Fraction(c) for c in vec)
    for row, col in zip(rref_rows, pivots):
        factor = residual[col]
        if factor:
            for j, entry in enumerate(row):
                if entry:
                    residual[j] -= factor * entry
    return tuple(residual)


def in_rowspace(rref_rows: Sequence[Vector], pivots: Sequence[int], vec: Sequence[Fraction]) -> bool:
    return not any(reduce_vector(rref_rows, pivots, vec))


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vector]:
    """Basis of the right kernel {v : M v = 0}, one vector per free column."""
    rr, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, col in zip(rr, pivots):
            v[col] = -row[free]
        basis.append(tuple(v))
    return basis


def solve_canonical(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Vector | None:
    """Solve sum_j c_j * columns[j] = target.

    Returns the RREF-canonical solution (free variables zero), or None
    when the system is inconsistent.
    """
    ncols = len(columns)
    height = len(target)
    if any(len(col) != height for col in columns):
        raise ValueError("column height mismatch")
    augmented = [
        tuple(col[i] for col in columns) + (Fraction(target[i]),) for i in range(height)
    ]
    rr, pivots = rref(augmented)
    solution = [Fraction(0)] * ncols
    for row, col in zip(rr, pivots):
        if col == ncols:
            return None
        solution[col] = row[ncols]
    return tuple(solution)
