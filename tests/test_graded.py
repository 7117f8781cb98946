import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmgerm import linalg
from harmgerm.graded import (
    GradedSubspace,
    full_space,
    kernel_basis,
    product_space,
    solve_membership,
    subspace_compare,
)
from harmgerm.harmonic import harmonic_basis, harmonic_pair
from harmgerm.polyring import R2, Poly, format_poly, laplacian, laplacian_power, monomial_basis
from harmgerm.rng import Xoshiro256StarStar, derive_seed, random_homogeneous

from conftest import (
    P,
    as_fractions,
    counted,
    rational_rref,
    reference_membership,
    reference_solve,
    translation_solution,
)


class TestKernelBasis:
    def test_harmonics(self):
        space = kernel_basis(4, 1)
        assert space.dim == 2
        pair = harmonic_pair(4)
        assert space.contains(pair.f) and space.contains(pair.g)

    def test_biharmonics(self):
        assert kernel_basis(4, 2).dim == 4
        # the squared Laplacian maps P_4 onto the constants (rank 1), so the
        # kernel has dimension 5 - 1
        images = [laplacian_power(Poly.monomial(a, b), 2) for a, b in monomial_basis(4)]
        rr, _ = linalg.rref([[int(image.coeff(0, 0)) for image in images]])
        assert len(rr) == 1

    def test_underflow_gives_everything(self):
        space = kernel_basis(3, 2)
        assert space.dim == 4
        assert subspace_compare(space, full_space(3)) == "equal"

    @pytest.mark.parametrize("s", range(1, 9))
    @pytest.mark.parametrize("k", range(1, 17))
    def test_dimension_formula(self, s, k):
        assert kernel_basis(k, s).dim == min(2 * s, k + 1)


def basis_digest(spaces):
    """sha256 of the format_poly bases, one line per space."""
    lines = (";".join(format_poly(p) for p in space.basis) for space in spaces)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGoldenBases:
    """The stored bases for k <= 24, s <= 8, pinned when kernel_basis
    moved to one elimination."""

    def test_kernel_bases(self):
        spaces = (kernel_basis(k, s) for k in range(25) for s in range(9))
        assert basis_digest(spaces) == (
            "5c5b077e28117d00cdbda409a1142e5458b8cefaa6c001a9b9a1ab0cae5a4fa5"
        )

    def test_product_bases(self):
        spaces = (product_space(s, k) for k in range(1, 25) for s in range(9))
        assert basis_digest(spaces) == (
            "d189d468a84db5b696f164074466df55c1761f333d7c8d48bb3fde12429805e1"
        )


def reference_kernel_basis(k, s):
    """The kernel by the forward-order nullspace, read as Fraction vectors
    and re-reduced by from_polys."""
    images = [laplacian_power(Poly.monomial(a, b), s) for a, b in monomial_basis(k)]
    relations = linalg.nullspace(images, monomial_basis(k - 2 * s))
    vectors = [as_fractions((numerators, den), k + 1) for _, numerators, den in relations]
    return GradedSubspace.from_polys(k, [Poly(zip(monomial_basis(k), v)) for v in vectors])


def fraction_kernel_basis(k, s):
    """The kernel's RREF basis from two Fraction eliminations by
    `rational_rref`, independent of `rref`: the nullspace of the matrix
    of the s-fold Laplacians (by repeated `laplacian`), then the RREF of
    that nullspace."""
    monos = monomial_basis(k)
    images = []
    for a, b in monos:
        image = Poly.monomial(a, b)
        for _ in range(s):
            image = laplacian(image)
        images.append(image)
    matrix = [[image.coeff(*row) for image in images] for row in monomial_basis(k - 2 * s)]
    rr, pivots = rational_rref(matrix)
    kernel = []
    for free in (j for j in range(len(monos)) if j not in pivots):
        v = [Fraction(0)] * len(monos)
        v[free] = Fraction(1)
        for row, col in zip(rr, pivots):
            v[col] = -row[free]
        kernel.append(v)
    return GradedSubspace(k, tuple(Poly(zip(monos, row)) for row in rational_rref(kernel)[0]))


class TestKernelBasisOneElimination:
    @pytest.mark.parametrize("s", range(11))
    def test_matches_rereduced_nullspace(self, monkeypatch, s):
        expected = [reference_kernel_basis(k, s) for k in range(31)]
        assert expected == [fraction_kernel_basis(k, s) for k in range(31)]
        rrefs = counted(monkeypatch, linalg, "rref")
        nullspaces = counted(monkeypatch, linalg, "nullspace")
        for k, space in enumerate(expected):
            before, nullspaces_before = len(rrefs), len(nullspaces)
            assert kernel_basis(k, s) == space, (k, s)
            # one nullspace, so one rref, per non-empty parity class of the
            # x-exponent; the classes share no row, so together they hold
            # each row once
            calls = rrefs[before:]
            assert len(calls) == len(nullspaces) - nullspaces_before == min(2, k + 1), (k, s)
            assert sum(len(rows) for rows, in calls) == max(0, k - 2 * s + 1), (k, s)


class TestProductSpace:
    def test_tiny_degrees_fill_everything(self):
        assert subspace_compare(product_space(1, 1), full_space(2)) == "equal"

    def test_equals_kernel(self):
        assert subspace_compare(product_space(1, 3), kernel_basis(4, 2)) == "equal"

    def test_s_at_least_k_minus_1(self):
        space = product_space(2, 2)
        assert space.dim == 5
        assert subspace_compare(space, full_space(4)) == "equal"

    @pytest.mark.parametrize("s", range(0, 9))
    @pytest.mark.parametrize("k", range(1, 11))
    def test_kernel_characterisation(self, s, k):
        span = product_space(s, k)
        if s < k - 1:
            expected = kernel_basis(s + k, s + 1)
        else:
            expected = full_space(s + k)
        assert subspace_compare(span, expected) == "equal"

    @pytest.mark.parametrize("s", range(1, 7))
    def test_products_inside_kernel(self, s):
        for k in range(2 * s, 13):
            span = product_space(s - 1, k - s + 1)
            kernel = kernel_basis(k, s)
            assert subspace_compare(span, kernel) in ("equal", "a_in_b")

    @pytest.mark.parametrize("d", range(1, 13))
    @pytest.mark.parametrize("s", range(1, 6))
    def test_kernel_layer_decomposition(self, d, s):
        layers = []
        for j in range(s):
            if d - 2 * j < 0:
                break
            for h in harmonic_basis(d - 2 * j):
                layers.append(R2**j * h)
        assert subspace_compare(
            GradedSubspace.from_polys(d, layers), kernel_basis(d, s)
        ) == "equal"


class TestSubspaceCompare:
    def test_equal(self):
        assert subspace_compare(kernel_basis(4, 1), product_space(0, 4)) == "equal"

    def test_containment(self):
        assert subspace_compare(kernel_basis(4, 1), kernel_basis(4, 2)) == "a_in_b"
        assert subspace_compare(kernel_basis(4, 2), kernel_basis(4, 1)) == "b_in_a"

    def test_incomparable(self):
        a = GradedSubspace.from_polys(2, [P("x^2")])
        b = GradedSubspace.from_polys(2, [P("y^2")])
        assert subspace_compare(a, b) == "incomparable"

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            subspace_compare(kernel_basis(4, 1), kernel_basis(5, 1))

    def test_rref_canonical_bases_identical(self):
        # same subspace from different generators yields identical stored bases
        pair = harmonic_pair(4)
        a = GradedSubspace.from_polys(4, [pair.f + pair.g, pair.g * 7])
        b = GradedSubspace.from_polys(4, [pair.f, pair.g - pair.f * 2])
        assert a.basis == b.basis


def reference_compare(a, b):
    """The relation by two Fraction solves, each basis against the other."""
    if a.basis == b.basis:
        return "equal"
    basis = monomial_basis(a.degree)
    a_in_b = reference_solve(b.basis, a.basis, basis)[0] is None
    b_in_a = reference_solve(a.basis, b.basis, basis)[0] is None
    return {
        (True, True): "equal",
        (True, False): "a_in_b",
        (False, True): "b_in_a",
        (False, False): "incomparable",
    }[a_in_b, b_in_a]


def random_space(rng, d, n):
    return GradedSubspace.from_polys(d, [random_homogeneous(rng, d) for _ in range(n)])


def rebased(space, rng):
    """The same subspace on an independent basis that is not in RREF: each
    row scaled, the last added to the first, the order reversed."""
    rows = [
        p * Fraction(rng.randint(1, 9) * (-1) ** rng.randint(0, 1), rng.randint(1, 9))
        for p in space.basis
    ]
    if len(rows) > 1:
        rows[0] = rows[0] + rows[-1]
    return GradedSubspace(space.degree, tuple(reversed(rows)))


def compare_pairs():
    """Equal, nested both ways, equal-dimension and zero-dimension pairs in P_0..P_6."""
    rng = Xoshiro256StarStar(derive_seed(2016, 0))
    pairs = []
    for d in range(7):
        zero = GradedSubspace(d, ())
        pairs.append((zero, zero))
        for n in range(1, d + 2):
            a = random_space(rng, d, n)
            wider = GradedSubspace.from_polys(d, [*a.basis, random_homogeneous(rng, d)])
            other = random_space(rng, d, n)
            pairs += [
                (a, rebased(a, rng)),
                (a, wider),
                (rebased(wider, rng), a),
                (a, other),
                (rebased(a, rng), rebased(other, rng)),
                (zero, a),
                (rebased(a, rng), zero),
            ]
    return pairs


class TestSubspaceCompareOneSolve:
    def test_matches_two_solves(self, monkeypatch):
        pairs = compare_pairs()
        expected = [reference_compare(a, b) for a, b in pairs]
        assert set(expected) == {"equal", "a_in_b", "b_in_a", "incomparable"}
        solves = counted(monkeypatch, linalg, "solve_canonical")
        for (a, b), relation in zip(pairs, expected):
            before = len(solves)
            assert subspace_compare(a, b) == relation, (a, b)
            assert len(solves) - before == (a.basis != b.basis), (a, b)


# a polynomial of another degree and a non-homogeneous one, against P_2
OUTSIDE_P2 = [P("x^3"), P("x^2 + y")]


class TestOutsideTheDegreeRaises:
    @pytest.mark.parametrize("p", OUTSIDE_P2)
    def test_from_polys(self, p):
        with pytest.raises(ValueError):
            GradedSubspace.from_polys(2, [P("x*y"), p])

    @pytest.mark.parametrize("p", OUTSIDE_P2)
    def test_contains(self, p):
        # the harmonics of degree 2 must not swallow x^3 as a zero vector
        with pytest.raises(ValueError):
            kernel_basis(2, 1).contains(p)

    @pytest.mark.parametrize("p", OUTSIDE_P2)
    def test_subspace_compare(self, p):
        mislabelled = GradedSubspace(2, (p,))
        with pytest.raises(ValueError):
            subspace_compare(mislabelled, full_space(2))
        with pytest.raises(ValueError):
            subspace_compare(kernel_basis(2, 1), mislabelled)


class TestSolveMembership:
    def test_direct_factor(self):
        f4 = harmonic_pair(4).f
        assert solve_membership(P("x") * f4, 4, 1) == (P("x"), Poly.zero())

    def test_radial_identity(self):
        u, v = solve_membership(P("x") * R2 * R2, 3, 2)
        assert u == harmonic_pair(2).f
        assert v == harmonic_pair(2).g

    def test_degree_mismatch_is_none(self):
        assert solve_membership(P("x^4"), 4, 1) is None

    def test_outside_span_is_none(self):
        # x^6 is not biharmonic, so it cannot be a linear multiple of the
        # degree-5 harmonics
        assert solve_membership(P("x^6"), 5, 1) is None

    @given(st.integers(1, 9), st.integers(0, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_reconstruction(self, k, s, data):
        pair = harmonic_pair(k)
        monos = monomial_basis(s)
        cu = data.draw(st.lists(st.integers(-5, 5), min_size=len(monos), max_size=len(monos)))
        cv = data.draw(st.lists(st.integers(-5, 5), min_size=len(monos), max_size=len(monos)))
        u = Poly({e: c for e, c in zip(monos, cu)})
        v = Poly({e: c for e, c in zip(monos, cv)})
        target = u * pair.f + v * pair.g
        solved = solve_membership(target, k, s)
        assert solved is not None
        su, sv = solved
        assert su * pair.f + sv * pair.g == target


class TestSolveMembershipRoutes:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_read_off_below_2k_elimination_from_2k(self, monkeypatch, k):
        rng = Xoshiro256StarStar(derive_seed(2016, k))
        pair = harmonic_pair(k)
        cases = []
        for s in range(k + 3):
            u = random_homogeneous(rng, s) / rng.randint(1, 7)
            v = random_homogeneous(rng, s) / rng.randint(1, 7)
            target = u * pair.f + v * pair.g
            cases += [(target, s), (target + random_homogeneous(rng, k + s), s)]
        expected = [reference_membership(target, k, s) for target, s in cases]
        solves = counted(monkeypatch, linalg, "solve_canonical")
        for (target, s), answer in zip(cases, expected):
            before = len(solves)
            assert solve_membership(target, k, s) == answer, (k, s)
            assert len(solves) - before == (s >= k and bool(target)), (k, s)


class TestTranslationSolution:
    @staticmethod
    def translated(u, v, k):
        pair = harmonic_pair(k - 1)
        return (u * pair.f - v * pair.g) * k

    @pytest.mark.parametrize("k", range(5, 10))
    def test_identity_on_kernel_bases(self, k):
        # every offset the translations handle, from the first s >= (k-3)/2
        # up to the degree-(2k-3) slice the determinacy report absorbs
        for s in range((k - 2) // 2, k - 2):
            for rho in kernel_basis(k + s, s + 2).basis:
                u, v = translation_solution(rho, k)
                assert all(not w or (w.is_homogeneous() and w.degree() == s + 1) for w in (u, v))
                assert self.translated(u, v, k) == rho

    def test_zero(self):
        assert translation_solution(Poly.zero(), 6) == (Poly.zero(), Poly.zero())

    @pytest.mark.parametrize("k", range(5, 10))
    def test_outside_span_is_none(self, k):
        for s in range(1, k - 3):
            mono = P(f"x^{k + s}")
            assert laplacian_power(mono, s + 2)
            assert translation_solution(mono, k) is None
        assert translation_solution(harmonic_pair(k - 1).f + P(f"x^{k + 1}"), k) is None
        assert translation_solution(P(f"x^{k - 2}"), k) is None

