"""The arithmetic kernels against sympy: sparse products and integer RREF."""

import math
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from harmgerm._kernels import active_backend, poly_mul, rref
from harmgerm.polyring import Poly

from conftest import X, Y, to_sympy

small_coefficients = st.builds(
    Fraction, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=9)
)
large_coefficients = st.builds(
    Fraction, st.integers(min_value=-(10**30), max_value=10**30), st.integers(1, 10**30)
)
coefficients = st.one_of(small_coefficients, large_coefficients)


def term_maps(exponents):
    return st.dictionaries(st.tuples(exponents, exponents), coefficients, max_size=8).map(
        lambda d: {k: v for k, v in d.items() if v}
    )


# small exponents make products collide, cancel and straddle the caps
small_maps = term_maps(st.integers(0, 7))
small_caps = st.one_of(st.none(), st.just(0), st.integers(0, 14))
# exponents around and above 2^20 would spill into the x-exponent under a
# fixed-width packing
wide_maps = term_maps(st.one_of(st.integers(0, 3), st.integers(2**20 - 3, 2**20 + 3)))
wide_caps = st.one_of(st.none(), st.integers(2**20 - 3, 2**21 + 6))
# Poly passes the kernel the integer numerators of its operands
integer_maps = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.integers(-(10**30), 10**30).filter(bool),
    max_size=8,
)


def oracle_mul(p, q, cap):
    """sympy's expanded product as a term map, terms above `cap` dropped."""
    out = {}
    product = sympy.expand(to_sympy(Poly(p)) * to_sympy(Poly(q)))
    for mono, c in product.as_coefficients_dict().items():
        powers = mono.as_powers_dict()
        a, b = int(powers.get(X, 0)), int(powers.get(Y, 0))
        if c and (cap is None or a + b <= cap):
            out[(a, b)] = Fraction(int(c.p), int(c.q))
    return out


def test_backend_reports_name():
    assert active_backend() == "pure"


@given(small_maps, small_maps, small_caps)
@settings(max_examples=150, deadline=None)
def test_poly_mul_matches_sympy(p, q, cap):
    assert poly_mul(p, q, cap) == oracle_mul(p, q, cap)


@given(wide_maps, wide_maps, wide_caps)
@settings(max_examples=100, deadline=None)
def test_poly_mul_wide_exponents_match_sympy(p, q, cap):
    assert poly_mul(p, q, cap) == oracle_mul(p, q, cap)


@given(small_maps, wide_maps, small_caps)
@settings(max_examples=50, deadline=None)
def test_poly_mul_stores_no_zeros_and_commutes(p, q, cap):
    product = poly_mul(p, q, cap)
    assert all(product.values())
    assert product == poly_mul(q, p, cap)


@given(integer_maps, integer_maps, small_caps)
@settings(max_examples=100, deadline=None)
def test_poly_mul_integer_coefficients_match_sympy(p, q, cap):
    product = poly_mul(p, q, cap)
    assert all(type(c) is int for c in product.values())
    assert product == oracle_mul(p, q, cap)


def test_exponents_beyond_twenty_bits():
    assert poly_mul({(0, 600000): Fraction(1)}, {(0, 600000): Fraction(1)}) == {
        (0, 1200000): Fraction(1)
    }
    assert poly_mul({(0, 2**20): Fraction(1)}, {(0, 0): Fraction(1)}) == {(0, 2**20): Fraction(1)}
    assert poly_mul({(3, 2**20 - 1): Fraction(1, 3)}, {(1, 1): Fraction(3)}) == {
        (4, 2**20): Fraction(1)
    }


def test_truncation_and_cancellation():
    # (x + y)(x - y) = x^2 - y^2: the x*y terms cancel and are not stored
    p = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    q = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    assert poly_mul(p, q) == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert poly_mul(p, q, 1) == {}
    assert poly_mul({(0, 0): Fraction(2)}, p, 0) == {}


@given(st.integers(1, 6), st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_rref_matches_sympy(nrows, ncols, data):
    entries = st.one_of(st.integers(-30, 30), st.integers(-(10**30), 10**30))
    rows = [[data.draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if data.draw(st.booleans()):
        # a dependent row makes rank deficiency common
        rows.append([a + 2 * b for a, b in zip(rows[0], rows[-1])])
    matrix, pivots = sympy.Matrix(rows).rref()
    expected = tuple(
        tuple(Fraction(int(c.p), int(c.q)) for c in matrix.row(i)) for i in range(len(pivots))
    )
    rr, got = rref(rows)
    assert got == tuple(pivots)
    # each integer row over its pivot entry is the rational RREF row
    assert tuple(tuple(Fraction(v, row[col]) for v in row) for row, col in zip(rr, got)) == expected
    for row, col in zip(rr, got):
        assert all(type(v) is int for v in row)
        assert row[col] > 0 and math.gcd(*row) == 1


def test_rref_idempotent_and_canonical():
    rr, pivots = rref([[2, 4, 6], [1, 2, 4], [0, 0, 1]])
    again, pivots2 = rref([list(r) for r in rr])
    assert rr == again and pivots == pivots2
    assert rr == ((1, 2, 0), (0, 0, 1)) and pivots == (0, 2)


def test_rref_rows_over_their_pivot_entries():
    # 2x + 3y and x - y: the RREF rows are (1, 0, 1/5, ...) over pivot entries
    rr, pivots = rref([[2, 3, 1], [1, -1, 0]])
    assert pivots == (0, 1)
    assert rr == ((5, 0, 1), (0, 5, 1))
    # a negative pivot entry is turned positive
    assert rref([[-6, 9]]) == (((2, -3),), (0,))


def test_rref_drops_zero_rows():
    rr, pivots = rref([[0, 0], [1, 2]])
    assert len(rr) == 1 and pivots == (0,)


def test_empty_inputs():
    assert poly_mul({}, {(1, 0): Fraction(1)}, None) == {}
    assert rref([]) == ((), ())
    assert rref([], [0]) == ((), ())
    assert rref([[0, 0]], [1]) == ((), ())


@st.composite
def systems(draw):
    """(rows, columns): an integer matrix whose columns include zero ones and
    combinations of earlier ones, with zero rows among its rows, and the
    columns a caller reads, among them a last column outside the span of
    the others."""
    nrows = draw(st.integers(1, 6))
    entries = st.one_of(st.integers(-9, 9), st.integers(-(10**20), 10**20))
    cols = []
    for kind in draw(st.lists(st.sampled_from(("random", "zero", "dependent")), min_size=1, max_size=7)):
        if kind == "dependent" and cols:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            p, q = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            cols.append([a * u + b * v for u, v in zip(p, q)])
        elif kind == "zero":
            cols.append([0] * nrows)
        else:
            cols.append([draw(entries) for _ in range(nrows)])
    rows = [list(row) for row in zip(*cols)]
    # one more row, nonzero only in an extra last column: that column is a pivot
    rows.append([0] * len(cols) + [draw(st.integers(1, 9))])
    for row in rows[:-1]:
        row.append(draw(entries) if draw(st.booleans()) else 0)
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * (len(cols) + 1))
    read = draw(st.lists(st.integers(0, len(cols)), unique=True))
    return rows, read


@given(systems())
@settings(max_examples=300, deadline=None)
def test_targeted_rref_agrees_with_the_whole_form(system):
    rows, read = system
    whole, pivots = rref(rows)
    rr, got = rref(rows, read)
    assert got == pivots and len(rr) == len(whole) and len(rows[0]) - 1 in pivots
    kept = set(pivots) | set(read)
    for row, full, col in zip(rr, whole, pivots):
        assert all(type(v) is int for v in row) and len(row) == len(full)
        assert row[col] > 0 and math.gcd(*row) == 1
        # each row over its pivot entry is the rational RREF row, at the
        # pivot columns and the columns read; it holds 0 elsewhere
        for j in range(len(row)):
            if j in kept:
                assert Fraction(row[j], row[col]) == Fraction(full[j], full[col])
            else:
                assert row[j] == 0
