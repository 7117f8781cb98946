"""Arithmetic kernels: sparse polynomial products and rational RREF.

These are the library's two hot loops. `poly_mul` takes coefficients
from any exact ring (ints or Fractions); `Poly` passes it the integer
numerators of its two operands. `rref` accepts Fractions or ints, keeps
its arithmetic on Python ints and builds Fractions only at the end;
library callers (`linalg`, `graded`) pass integer rows read by
`polyring.integer_coordinates`.
"""

from fractions import Fraction
from math import gcd

# most output cells are zero; they share this one
_ZERO = Fraction(0)


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
    """Scale rational rows to integer rows with content 1 (sign kept)."""
    mat = []
    for row in rows:
        den = 1
        for c in row:
            d = c.denominator
            den = den * d // gcd(den, d)
        ints = [c.numerator * (den // c.denominator) for c in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        mat.append(ints)
    return mat


def rref(rows):
    """Reduced row echelon form of a rational matrix.

    `rows` is a sequence of equal-length sequences of Fractions (plain
    ints also work). Returns `(rref_rows, pivot_cols)` where rref_rows
    are tuples of Fractions with leading coefficient 1, ordered by pivot
    column, zero rows dropped. Elimination is fraction-free: rows are
    scaled to primitive integer vectors and cross-multiplied, dividing
    by the row content after each step to bound entry growth.
    """
    mat = _primitive_rows(rows)
    mat = [row for row in mat if any(row)]
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
            g = 0
            for v in new:
                g = gcd(g, v)
            if g > 1:
                new = [v // g for v in new]
            mat[i] = new
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    out = []
    for i, col in enumerate(pivots):
        row = mat[i]
        pv = row[col]
        out.append(tuple(Fraction(v, pv) if v else _ZERO for v in row))
    return tuple(out), tuple(pivots)


def active_backend() -> str:
    """Name of the kernel backend; there is only the pure-Python one."""
    return "pure"
