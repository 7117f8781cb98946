"""Exact linear algebra on the coordinates of polynomials.

Every elimination is one call to the `rref` kernel: reduced row echelon
form, a canonical form whose pivot columns are the lexicographically
first independent ones, handed out as integer rows over their pivot
entries. The kernel back-substitutes only the columns that its caller
reads: `solve_canonical` asks for the target columns alone, so no free
column is reduced, and `nullspace` for all of them.
`solve_canonical` and `nullspace` are the one solve: each polynomial is a
column of its integer numerators over its own denominator
(`polyring.integer_coordinates`), so the matrix holds ints only, and a
target that is a monomial of the basis can be passed as its unit column,
1 over 1, with no Poly built. Scaling column j by den_j commutes with row
operations, so the pivot columns stay the same and each RREF entry of
column j is the rational one times den_j / den(its row's pivot column).
`_column` is the one reader of that entry: it returns a column of the
rational RREF as read-only integer numerators, keyed as its caller asks,
over one denominator, and this module builds no Fraction.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, Sequence

from ._kernels import rref
from .polyring import Exponents, Poly, integer_coordinates


def _echelon(polys: Sequence[Poly], basis: Sequence[Exponents], read=None, units: Sequence[int] = ()):
    """(integer RREF rows, pivots, column denominators) of the integer
    matrix whose columns are the polys, then the unit column of basis[i]
    for each i in `units`; `read` is as `rref`'s `columns`."""
    columns, dens = integer_coordinates(polys, basis)
    for i in units:
        unit = [0] * len(basis)
        unit[i] = 1
        columns.append(unit)
        dens.append(1)
    rr, pivots = rref(list(zip(*columns)), columns=read)
    return rr, pivots, dens


def _column(echelon, j: int, keys: Sequence[int]) -> tuple[Mapping[int, int], int]:
    """Column j of the rational RREF as (numerators, den), numerators read-only.

    The entry in the row that pivots at column c is numerators[keys[c]] / den;
    numerators holds the nonzero entries only, and den > 0.
    """
    rr, pivots, dens = echelon
    entries = [(col, row[j] * dens[col], row[col] * dens[j]) for row, col in zip(rr, pivots) if row[j]]
    den = math.lcm(*(d for _, _, d in entries))
    return MappingProxyType({keys[col]: n * (den // d) for col, n, d in entries}), den


def solve_canonical(
    columns: Sequence[Poly],
    targets: Sequence[Poly] | range,
    basis: Sequence[Exponents],
    keys: Sequence[int] | None = None,
) -> tuple[int | None, list[tuple[Mapping[int, int], int]]]:
    """Write each target as a combination of the columns, in one elimination.

    `basis` lists the exponents that index the rows; a term outside it
    raises InputError. `targets` is a sequence of Polys, or a range of
    indices into `basis`: index i stands for the monomial basis[i], passed
    as its unit integer column. Returns (missing, combinations): the index
    of the first target outside the span of the columns (None when there
    is none), and, for each target before it, the RREF-canonical
    combination of the columns (free coefficients zero) that equals it,
    as (numerators, den): the coefficient of column j is
    numerators.get(keys[j], 0) / den, with keys[j] = j by default, and
    numerators is a read-only mapping. The first target whose column is a
    pivot is that first missing one, since every earlier target lies in
    the span of the columns.
    """
    width = len(columns)
    read = range(width, width + len(targets))
    if isinstance(targets, range):
        echelon = _echelon(columns, basis, read, targets)
    else:
        echelon = _echelon([*columns, *targets], basis, read)
    pivots = echelon[1]
    missing = next((col - width for col in pivots if col >= width), None)
    solved = range(width, width + (len(targets) if missing is None else missing))
    keys = range(width) if keys is None else keys
    return missing, [_column(echelon, t, keys) for t in solved]


def nullspace(
    columns: Sequence[Poly], basis: Sequence[Exponents]
) -> list[tuple[int, dict[int, int], int]]:
    """Basis of {v : sum_j v_j * columns[j] == 0}: (free, numerators, den) per free column.

    The vector is numerators[j] / den at each column j it holds and 0 at
    every other column. It holds `free`, where it is 1, and pivot columns
    only, so it is 0 at every other free column. `basis` is as in
    `solve_canonical`.
    """
    echelon = _echelon(columns, basis)
    relations = []
    for free in sorted(set(range(len(columns))) - set(echelon[1])):
        # minus column `free` of the rational RREF
        numerators, den = _column(echelon, free, range(len(columns)))
        numerators = {col: -n for col, n in numerators.items()}
        numerators[free] = den
        relations.append((free, numerators, den))
    return relations
