"""The one solve on integer coordinates against the Fraction references of
`conftest`, which eliminate by Gauss-Jordan on Fractions and share no
code with the integer kernel; the integer results are read as Fractions
to compare them."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmgerm import linalg
from harmgerm.polyring import Poly, monomial_basis

from conftest import P, as_fractions, coordinate_rows, rational_rref, reference_solve

POOL = [exps for d in range(4) for exps in monomial_basis(d)]
DENOMINATORS = (1, 3, 7, 9)


def reference_nullspace(columns, basis):
    """Right kernel of the Fraction coordinate matrix, one vector per free column."""
    ncols = len(columns)
    rr, pivots = rational_rref(coordinate_rows(columns, basis))
    pivot_set = set(pivots)
    vectors = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, col in zip(rr, pivots):
            v[col] = -row[free]
        vectors.append(tuple(v))
    return vectors


def combine(coeffs, polys):
    total = Poly.zero()
    for c, p in zip(coeffs, polys):
        total = total + p * c
    return total


@st.composite
def systems(draw):
    """(columns, targets, basis): random, zero and dependent columns over
    denominators 1, 3, 7 and 9; targets in the span, outside it, or zero;
    the basis possibly empty."""
    basis = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=6))
    scalar = st.builds(Fraction, st.integers(-4, 4), st.sampled_from(DENOMINATORS))

    def random_poly():
        den = draw(st.sampled_from(DENOMINATORS))
        return Poly({exps: Fraction(draw(st.integers(-9, 9)), den) for exps in basis})

    def spanned(polys):
        return combine(draw(st.lists(scalar, min_size=len(polys), max_size=len(polys))), polys)

    columns = []
    for kind in draw(st.lists(st.sampled_from(("random", "zero", "dependent")), max_size=6)):
        columns.append(
            Poly.zero() if kind == "zero" else spanned(columns) if kind == "dependent" else random_poly()
        )
    targets = []
    for kind in draw(st.lists(st.sampled_from(("random", "zero", "spanned")), max_size=4)):
        targets.append(
            Poly.zero() if kind == "zero" else spanned(columns) if kind == "spanned" else random_poly()
        )
    return columns, targets, basis


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_matches_fraction_reference(system):
    columns, targets, basis = system
    missing, solved = linalg.solve_canonical(columns, targets, basis)
    for numerators, den in solved:
        assert type(den) is int and den > 0
        assert all(type(n) is int and n for n in numerators.values())
    assert len(solved) == (len(targets) if missing is None else missing)
    # each integer combination, read as Fractions, rebuilds its target
    for combination, target in zip(solved, targets):
        assert combine(as_fractions(combination, len(columns)), columns) == target


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_matches_fraction_gauss_jordan(system):
    # the missing target and the canonical combinations, against a
    # Gauss-Jordan on Fractions, which also asserts that a row pivoting
    # at a later target is 0 at each solved one
    columns, targets, basis = system
    missing, solved = linalg.solve_canonical(columns, targets, basis)
    combinations = [as_fractions(combination, len(columns)) for combination in solved]
    assert (missing, combinations) == reference_solve(columns, targets, basis)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_nullspace_matches_fraction_reference(system):
    columns, _, basis = system
    relations = linalg.nullspace(columns, basis)
    vectors = [as_fractions((numerators, den), len(columns)) for _, numerators, den in relations]
    assert vectors == reference_nullspace(columns, basis)
    for free, numerators, den in relations:
        assert numerators[free] == den and all(type(n) is int and n for n in numerators.values())
    for v in vectors:
        assert not combine(v, columns)


def test_rescales_by_the_pivot_and_target_denominators():
    # column x/3, target x/7: the integer matrix holds 1 and 1, the answer is 3/7
    assert linalg.solve_canonical([P("1/3*x")], [P("1/7*x")], [(1, 0)]) == (None, [({0: 3}, 7)])
    # x/3 - 3 * x/9 == 0, with the -1/3 and 1 over the denominator 9
    assert linalg.nullspace([P("1/3*x"), P("1/9*x")], [(1, 0)]) == [(1, {0: -3, 1: 9}, 9)]


def test_empty_basis():
    assert linalg.solve_canonical([Poly.zero()], [Poly.zero()], []) == (None, [({}, 1)])
    assert linalg.nullspace([Poly.zero()] * 2, []) == [(0, {0: 1}, 1), (1, {1: 1}, 1)]


@pytest.mark.parametrize("outside", ["x^3", "x + x*y", "y^2"])
def test_term_outside_the_basis_raises(outside):
    basis = [(1, 0), (0, 1), (2, 0)]
    with pytest.raises(ValueError, match="outside the basis"):
        linalg.solve_canonical([P("x")], [P(outside)], basis)
    with pytest.raises(ValueError, match="outside the basis"):
        linalg.solve_canonical([P(outside)], [], basis)
    with pytest.raises(ValueError, match="outside the basis"):
        linalg.nullspace([P("x"), P(outside)], basis)
