"""Arithmetic kernels: sparse polynomial products and integer RREF.

These are the library's two hot loops. `poly_mul` takes coefficients
from any exact ring (ints or Fractions); `Poly` passes it the integer
numerators of its two operands. `rref` takes integer rows, works on
Python ints throughout and returns each echelon row as primitive ints
over its pivot entry. Library callers (`linalg`, `graded`) pass integer
rows read by `polyring.integer_coordinates`.

`rref` is a forward elimination, which touches only the rows below each
pivot, from its column on, and then a back-substitution that reduces
the pivot columns and the columns that the caller reads, and no other.
Both divide every row by its content to bound entry growth.
"""

from math import gcd, lcm


def poly_mul(p, q, max_degree=None):
    """Multiply two sparse term maps {(a, b): c} with exact coefficients c.

    Products of total degree above `max_degree` are dropped (None keeps
    everything). The result never stores zero coefficients.
    """
    if not p or not q:
        return {}
    if len(q) < len(p):
        p, q = q, p
    out = {}
    for (a1, b1), c1 in p.items():
        d1 = a1 + b1
        if max_degree is not None and d1 > max_degree:
            continue
        for (a2, b2), c2 in q.items():
            if max_degree is not None and d1 + a2 + b2 > max_degree:
                continue
            key = (a1 + a2, b1 + b2)
            acc = out.get(key)
            out[key] = c1 * c2 if acc is None else acc + c1 * c2
    return {key: c for key, c in out.items() if c}


def _primitive_rows(rows):
    """Integer rows divided by their content (sign kept); zero rows are dropped."""
    mat = []
    for row in rows:
        g = gcd(*row)
        if g:
            mat.append([v // g for v in row] if g > 1 else row)
    return mat


def _forward(mat):
    """Forward elimination in place, column by column; the pivot columns.

    Each pivot is the sparsest row that is nonzero in its column, which
    keeps the fill-in low. Only the rows below it are cleared, and only
    from its column on, since they are zero to its left; each is divided
    by its content. The first len(pivots) rows are then in echelon form,
    and the pivot columns are the lexicographically first independent
    ones, whichever rows the pivots were.
    """
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        found = [i for i in range(r, nrows) if mat[i][col]]
        if not found:
            continue
        prow = max(found, key=lambda i: mat[i].count(0))
        mat[r], mat[prow] = mat[prow], mat[r]
        piv, zeros = mat[r][col:], [0] * col
        for i in range(r + 1, nrows):
            e = mat[i][col]
            if e:
                g = gcd(piv[0], e)
                pv, e = piv[0] // g, e // g
                new = [xv * pv - pvv * e for xv, pvv in zip(mat[i][col:], piv)]
                g = gcd(*new)
                mat[i] = zeros + ([v // g for v in new] if g > 1 else new)
        pivots.append(col)
        if r + 1 == nrows:
            break
    return pivots


def _back_substitute(echelon, pivots, columns, ncols):
    """Full-width RREF rows of echelon rows at the pivot columns and `columns`, 0 elsewhere.

    Bottom-up, each row clears its entries at the later pivot columns all
    at once, against the rows already reduced, over the lcm of their pivot
    entries. Each of those divides the determinant of the pivot block
    (Cramer's rule), and so does the lcm. Only the pivot columns and
    `columns` are read, and each row is divided by its content, signed so
    that its pivot entry is positive.
    """
    read = sorted(set(columns).difference(pivots))
    n = len(echelon)
    dens, sols = [0] * n, [None] * n
    for i in reversed(range(n)):
        row = echelon[i]
        later = [(row[pivots[j]], j) for j in range(i + 1, n) if row[pivots[j]]]
        den = lcm(*(dens[j] for _, j in later))
        acc = [row[c] * den for c in read]
        for e, j in later:
            m = e * (den // dens[j])
            acc = [a - m * s for a, s in zip(acc, sols[j])]
        pv = row[pivots[i]] * den
        g = gcd(pv, *acc) if pv > 0 else -gcd(pv, *acc)
        dens[i], sols[i] = pv // g, [a // g for a in acc]
    out = []
    for col, pv, sol in zip(pivots, dens, sols):
        full = [0] * ncols
        full[col] = pv
        for c, v in zip(read, sol):
            full[c] = v
        out.append(tuple(full))
    return tuple(out)


def rref(rows, columns=None):
    """Reduced row echelon form of an integer matrix, as integer rows.

    `rows` is a sequence of equal-length sequences of ints.
    Returns `(rref_rows, pivot_cols)`: rref_rows are int tuples ordered by
    pivot column, zero rows dropped, each with content 1 and a positive
    entry at its pivot column, so row / row[pivot] is the row of the
    rational RREF (leading coefficient 1). Elimination is fraction-free:
    rows are divided by their content and cross-multiplied,
    dividing by the row content after each step to bound entry growth.

    `columns`, when given, lists the columns that the caller reads; the
    pivots are the same. Each row then holds the rational RREF row over
    its pivot entry at the pivot columns and `columns`, with content 1
    over them, and 0 at every other column.
    """
    mat = _primitive_rows(rows)
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = _forward(mat)
    read = range(ncols) if columns is None else columns
    return _back_substitute(mat[: len(pivots)], pivots, read, ncols), tuple(pivots)


def active_backend() -> str:
    """Name of the kernel backend; there is only the pure-Python one."""
    return "pure"
