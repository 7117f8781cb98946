"""Exact linear algebra on the coordinates of polynomials.

Every elimination is one call to the `rref` kernel: reduced row echelon
form with deterministic pivoting (first nonzero, columns left to right),
a canonical form, handed out as integer rows over their pivot entries.
`solve_canonical` and `nullspace` are the one solve: each polynomial is a
column of its integer numerators over its own denominator
(`polyring.integer_coordinates`), so no Fraction is built per matrix
cell. Scaling column j by den_j commutes with row operations, so the
pivot columns stay the same and each RREF entry of column j is the
rational one times den_j / den(its row's pivot column). A Fraction is
built only for an entry returned as one: a nonzero entry of a
combination or of a nullspace vector. `integer_nullspace` returns the
nullspace vectors as integers over one denominator each and builds none.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._kernels import rref
from .polyring import Exponents, Poly, integer_coordinates

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def _echelon(polys: Sequence[Poly], basis: Sequence[Exponents]):
    """(integer RREF rows, pivots, column denominators) of the integer
    matrix whose columns are the polys."""
    columns, dens = integer_coordinates(polys, basis)
    rr, pivots = rref(list(zip(*columns)))
    return rr, pivots, dens


def _column(echelon, j: int, width: int) -> list[Fraction]:
    """Column j of the rational RREF, by pivot column; rows nonzero there pivot below `width`."""
    rr, pivots, dens = echelon
    # most entries are zero; sharing one zero keeps stored combinations
    # from pinning the elimination's memory
    out = [_ZERO] * width
    for row, col in zip(rr, pivots):
        if row[j]:
            out[col] = Fraction(row[j] * dens[col], row[col] * dens[j])
    return out


def solve_canonical(
    columns: Sequence[Poly], targets: Sequence[Poly], basis: Sequence[Exponents]
) -> tuple[bool, int | None, list[Vector]]:
    """Write each target as a combination of the columns, in one elimination.

    `basis` lists the exponents that index the rows; a term outside it
    raises ValueError. Returns (independent, missing, combinations):
    whether every column is a pivot, the index of the first target
    outside the span of the columns (None when there is none), and, for
    each target before it, the RREF-canonical combination of the columns
    (free coefficients zero) that equals it. The first target whose
    column is a pivot is that first missing one, since every earlier
    target lies in the span of the columns.
    """
    echelon = _echelon([*columns, *targets], basis)
    pivots, width = echelon[1], len(columns)
    missing = next((col - width for col in pivots if col >= width), None)
    solved = range(width, width + (len(targets) if missing is None else missing))
    combinations = [tuple(_column(echelon, t, width)) for t in solved]
    return sum(col < width for col in pivots) == width, missing, combinations


def integer_nullspace(
    columns: Sequence[Poly], basis: Sequence[Exponents]
) -> list[tuple[int, dict[int, int], int]]:
    """`nullspace` in integers: (free, numerators, den) per free column.

    The vector is numerators[j] / den at each column j it holds, and 0 at
    every other column: den at `free`, the other entries at pivot columns.
    """
    rr, pivots, dens = _echelon(columns, basis)
    relations = []
    for free in sorted(set(range(len(columns))) - set(pivots)):
        # minus column `free` of the rational RREF, as fractions n / d
        entries = [
            (col, -row[free] * dens[col], row[col] * dens[free])
            for row, col in zip(rr, pivots)
            if row[free]
        ]
        den = math.lcm(*(d for _, _, d in entries))
        numerators = {col: n * (den // d) for col, n, d in entries}
        numerators[free] = den
        relations.append((free, numerators, den))
    return relations


def nullspace(columns: Sequence[Poly], basis: Sequence[Exponents]) -> list[Vector]:
    """Basis of {v : sum_j v_j * columns[j] == 0}, one vector per free column.

    Each vector is 1 at its free column and 0 at every other free column;
    `basis` is as in `solve_canonical`.
    """
    relations = []
    for _, numerators, den in integer_nullspace(columns, basis):
        v = [_ZERO] * len(columns)
        for j, n in numerators.items():
            v[j] = Fraction(n, den)
        relations.append(tuple(v))
    return relations
