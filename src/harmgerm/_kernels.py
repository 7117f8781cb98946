"""Arithmetic kernels: sparse polynomial products and integer RREF.

These are the library's two hot loops. `poly_mul` takes coefficients
from any exact ring (ints or Fractions); `Poly` passes it the integer
numerators of its two operands. `rref` takes integer rows, works on
Python ints throughout and returns each echelon row as primitive ints
over its pivot entry. Library callers (`linalg`, `graded`) pass integer
rows read by `polyring.integer_coordinates`.
"""

from math import gcd


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


def rref(rows):
    """Reduced row echelon form of an integer matrix, as integer rows.

    `rows` is a sequence of equal-length sequences of ints.
    Returns `(rref_rows, pivot_cols)`: rref_rows are int tuples ordered by
    pivot column, zero rows dropped, each with content 1 and a positive
    entry at its pivot column, so row / row[pivot] is the row of the
    rational RREF (leading coefficient 1). Elimination is fraction-free:
    rows are divided by their content and cross-multiplied,
    dividing by the row content after each step to bound entry growth.
    """
    mat = _primitive_rows(rows)
    if not mat:
        return (), ()
    nrows = len(mat)
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        prow = -1
        for i in range(r, nrows):
            if mat[i][col]:
                prow = i
                break
        if prow < 0:
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        piv = mat[r]
        pv = piv[col]
        for i in range(nrows):
            if i == r:
                continue
            row = mat[i]
            e = row[col]
            if not e:
                continue
            new = [xv * pv - pvv * e for xv, pvv in zip(row, piv)]
            g = gcd(*new)
            if g > 1:
                new = [v // g for v in new]
            mat[i] = new
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    # every row kept its content 1; only the pivot's sign is left to fix
    out = tuple(tuple(row) if row[col] > 0 else tuple(-v for v in row) for row, col in zip(mat, pivots))
    return out, tuple(pivots)


def active_backend() -> str:
    """Name of the kernel backend; there is only the pure-Python one."""
    return "pure"
