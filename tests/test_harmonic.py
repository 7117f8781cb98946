import functools
import inspect
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmgerm.graded import kernel_basis
from harmgerm.harmonic import (
    PolyharmonicError,
    almansi_decompose,
    check_product_identity,
    harmonic_basis,
    harmonic_pair,
    harmonic_split,
)
from harmgerm.polyring import R2, InputError, Poly, laplacian, laplacian_power, monomial_basis
from harmgerm.rng import Xoshiro256StarStar, derive_seed, random_homogeneous, random_in_span

from conftest import P, oracle_harmonic, reference_solve, refuse_eliminations


class TestHarmonicPair:
    def test_degree_two(self):
        pair = harmonic_pair(2)
        assert pair.f == P("x^2 - y^2")
        assert pair.g == P("2*x*y")

    def test_degree_three_against_binomial_oracle(self):
        pair = harmonic_pair(3)
        assert (pair.f, pair.g) == oracle_harmonic(3)
        assert pair.f == P("x^3 - 3*x*y^2")
        assert pair.g == P("3*x^2*y - y^3")

    def test_degree_five_against_binomial_oracle(self):
        pair = harmonic_pair(5)
        assert (pair.f, pair.g) == oracle_harmonic(5)
        assert pair.f == P("x^5 - 10*x^3*y^2 + 5*x*y^4")

    @pytest.mark.parametrize("k", range(1, 16))
    def test_matches_oracle(self, k):
        pair = harmonic_pair(k)
        assert (pair.f, pair.g) == oracle_harmonic(k)

    @pytest.mark.parametrize("k", range(1, 31))
    def test_harmonic_and_recurrence(self, k):
        pair = harmonic_pair(k)
        assert not laplacian(pair.f) and not laplacian(pair.g)
        nxt = harmonic_pair(k + 1)
        x, y = Poly.monomial(1, 0), Poly.monomial(0, 1)
        assert nxt.f == x * pair.f - y * pair.g
        assert nxt.g == x * pair.g + y * pair.f

    def test_high_degree_needs_no_deep_stack(self):
        # bypass the cache so the pair is really computed under the tight limit
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            pair = harmonic_pair.__wrapped__(400)
        finally:
            sys.setrecursionlimit(limit)
        prev = harmonic_pair(399)
        x, y = Poly.monomial(1, 0), Poly.monomial(0, 1)
        assert pair.f == x * prev.f - y * prev.g
        assert pair.g == x * prev.g + y * prev.f

    def test_cache_is_bounded(self):
        # one pair at k = 8000 holds megabytes, so a loop over k must not
        # keep every pair; one selftest run caches 30 pairs
        maxsize = harmonic_pair.cache_info().maxsize
        assert maxsize is not None and 30 < maxsize <= 128
        for k in range(1, maxsize + 20):
            harmonic_pair(k)
        assert harmonic_pair.cache_info().currsize == maxsize

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            harmonic_pair(0)


class TestProductIdentity:
    def test_1_3_first_passes(self):
        report = check_product_identity(1, 3)
        assert report.first_ok

    def test_1_3_printed_second_fails(self):
        # the printed sign is wrong: g3*f2 + f3*g2 expands to
        # 5x^4y - 10x^2y^3 + y^5, not y*r^4 = x^4y + 2x^2y^3 + y^5
        report = check_product_identity(1, 3)
        assert not report.printed_second_ok
        g3, f2, f3, g2 = P("3*x^2*y - y^3"), P("x^2 - y^2"), P("x^3 - 3*x*y^2"), P("2*x*y")
        assert g3 * f2 + f3 * g2 == P("5*x^4*y - 10*x^2*y^3 + y^5")
        assert P("y") * R2 * R2 == P("x^4*y + 2*x^2*y^3 + y^5")

    def test_1_3_corrected_second_passes(self):
        report = check_product_identity(1, 3)
        assert report.corrected_second_ok
        g3, f2, f3, g2 = P("3*x^2*y - y^3"), P("x^2 - y^2"), P("x^3 - 3*x*y^2"), P("2*x*y")
        assert g3 * f2 - f3 * g2 == P("y") * R2 * R2

    @pytest.mark.parametrize("k", range(1, 16))
    def test_full_grid(self, k):
        for s in range(1, k + 1):
            report = check_product_identity(s, k)
            assert report.first_ok, (s, k)
            assert report.corrected_second_ok, (s, k)

    def test_offset_above_the_degree_rejected(self):
        with pytest.raises(InputError) as err:
            check_product_identity(4, 3)
        assert str(err.value) == "need 1 <= s <= k"


class TestHarmonicSplit:
    def test_pure_radial(self):
        h, q = harmonic_split(P("x^3 + x*y^2"))
        assert h == Poly.zero()
        assert q == P("x")

    def test_x_cubed(self):
        h, q = harmonic_split(P("x^3"))
        assert h == harmonic_pair(3).f / 4
        assert q == P("3/4*x")

    def test_already_harmonic(self):
        f4 = harmonic_pair(4).f
        h, q = harmonic_split(f4)
        assert h == f4 and q == Poly.zero()

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            harmonic_split(P("x^2 + x^3"))

    def test_rejects_degree_one(self):
        with pytest.raises(InputError) as err:
            harmonic_split(P("x"))
        assert str(err.value) == "harmonic split needs degree k >= 2"

    @given(st.integers(2, 15), st.data())
    @settings(max_examples=30, deadline=None)
    def test_reconstruction(self, k, data):
        coeffs = data.draw(
            st.lists(st.integers(-9, 9), min_size=k + 1, max_size=k + 1)
        )
        p = Poly({exps: c for exps, c in zip(monomial_basis(k), coeffs)})
        if not p:
            return
        h, q = harmonic_split(p)
        assert not laplacian(h)
        assert h + R2 * q == p
        # dimension count: 2 harmonics + (k-1) radial multiples span P_k
        assert 2 + (k - 1) == k + 1


class TestAlmansi:
    def test_radial_example(self):
        deco = almansi_decompose(P("x^3 + x*y^2"), 2)
        assert deco.components == (Poly.zero(), P("x"))

    def test_x4_layers(self):
        deco = almansi_decompose(P("x^4"), 3)
        f4, f2 = harmonic_pair(4).f, harmonic_pair(2).f
        assert deco.components == (f4 / 8, f2 / 2, Poly.constant(Fraction(3, 8)))
        assert deco.reconstruct() == P("x^4")

    def test_harmonic_input(self):
        f6 = harmonic_pair(6).f
        deco = almansi_decompose(f6, 1)
        assert deco.components == (f6,)

    def test_precondition_reported(self):
        with pytest.raises(PolyharmonicError) as err:
            almansi_decompose(P("x^4"), 1)
        assert err.value.witness == P("12*x^2")

    @pytest.mark.parametrize(
        "u, s, message",
        [
            ("x^2", 0, "polyharmonic order must be at least 1"),
            ("x^2 + x^3", 1, "input is not homogeneous: x^3 + x^2"),
        ],
    )
    def test_arguments_rejected(self, u, s, message):
        with pytest.raises(InputError) as err:
            almansi_decompose(P(u), s)
        assert str(err.value) == message

    @pytest.mark.parametrize("d", range(1, 13))
    @pytest.mark.parametrize("s", range(1, 6))
    def test_roundtrip_on_kernel_bases(self, d, s):
        for u in kernel_basis(d, s).basis:
            deco = almansi_decompose(u, s)
            assert deco.reconstruct() == u
            for h in deco.components:
                assert not laplacian(h)


# The decompositions as the library solved them before the (z, zbar)
# read-off: one canonical solve over P_d each, by `reference_solve` on
# Fractions, kept as references.


def reference_split(p):
    k = p.degree()
    pair = harmonic_pair(k)
    radial_monos = monomial_basis(k - 2)
    columns = [pair.f, pair.g] + [R2.shifted(a, b) for a, b in radial_monos]
    missing, solutions = reference_solve(columns, [p], monomial_basis(k))
    assert missing is None
    solution = solutions[0]
    h = pair.f * solution[0] + pair.g * solution[1]
    q = Poly({exps: c for exps, c in zip(radial_monos, solution[2:]) if c})
    return h, q


@functools.cache
def layer_coordinates(d):
    """(layout, rows, den) for the full layer basis of P_d, every R2^j*h
    with h in `harmonic_basis(d - 2j)` and j <= d/2, from one
    `reference_solve` against every monomial of degree d: rows[i][col]/den
    is the coefficient of the col-th (j, h) of layout in the i-th monomial
    of `monomial_basis(d)`. The rows are ints, so a case costs no Fraction
    product."""
    layout = [(j, h) for j in range(d // 2 + 1) for h in harmonic_basis(d - 2 * j)]
    basis = monomial_basis(d)
    missing, combinations = reference_solve([R2**j * h for j, h in layout], [Poly.monomial(a, b) for a, b in basis], basis)
    assert missing is None
    den = math.lcm(*(c.denominator for combination in combinations for c in combination))
    return layout, [[int(c * den) for c in combination] for combination in combinations], den


def reference_almansi(u, s):
    """The layers, or the PolyharmonicError message and witness.

    The layer columns of order s are a prefix of the full basis, and the
    layers are independent, so u's coordinates in the full basis are the
    order-s solve's, with every layer from s on zero."""
    if not u:
        return (Poly.zero(),) * s
    residual = laplacian_power(u, s)
    if residual:
        return f"input is not polyharmonic of order {s}: Laplacian^{s} = {residual}", residual
    layout, rows, den = layer_coordinates(u.degree())
    index = {exps: i for i, exps in enumerate(monomial_basis(u.degree()))}
    u_den = math.lcm(*(c.denominator for _, c in u.terms()))
    terms = [(int(c * u_den), rows[index[exps]]) for exps, c in u.terms()]
    layers = [Poly.zero()] * s
    for col, (j, h) in enumerate(layout):
        coefficient = Fraction(sum(n * row[col] for n, row in terms), den * u_den)
        if coefficient:
            assert j < s
            layers[j] = layers[j] + h * coefficient
    return tuple(layers)


def almansi_outcome(u, s):
    try:
        return almansi_decompose(u, s).components
    except PolyharmonicError as err:
        return str(err), err.witness


def seeded_cases(top):
    """(u, s) for every degree d <= top and every order s up to d//2 + 2:
    a rational combination of the kernel basis of order s, and a random
    rational polynomial of degree d, which fails the test when s <= d/2."""
    rng = Xoshiro256StarStar(derive_seed(2016, 24))
    cases = []
    for d in range(top + 1):
        for s in range(1, d // 2 + 3):
            den = rng.randint(1, 9)
            cases.append((random_in_span(rng, kernel_basis(d, s).basis) / den, s))
            cases.append((random_homogeneous(rng, d) / den, s))
    return cases


class TestReadOffMatchesSolve:
    def test_split(self):
        rng = Xoshiro256StarStar(derive_seed(2016, 25))
        for d in range(2, 41):
            for _ in range(3):
                p = random_homogeneous(rng, d) / rng.randint(1, 9)
                if p:
                    assert harmonic_split(p) == reference_split(p), p

    def test_above_the_cached_degree(self):
        # the change of variables caches its tables up to degree 68 only
        rng = Xoshiro256StarStar(derive_seed(2016, 28))
        p = random_homogeneous(rng, 75) / 11
        assert harmonic_split(p) == reference_split(p)
        u = random_in_span(rng, kernel_basis(75, 3).basis) / 13
        assert almansi_outcome(u, 3) == reference_almansi(u, 3)
        assert almansi_outcome(p, 3) == reference_almansi(p, 3)

    def test_almansi(self):
        cases = seeded_cases(40)
        # both outcomes, both kinds of input, at every degree including 0
        assert any(isinstance(reference_almansi(u, s)[0], str) for u, s in cases)
        assert any(u and u.degree() == 0 for u, _ in cases)
        for u, s in cases:
            assert almansi_outcome(u, s) == reference_almansi(u, s), (u, s)

    def test_order_above_half_the_degree(self):
        # Delta^s kills P_d for 2s > d: every input decomposes, into all its layers
        rng = Xoshiro256StarStar(derive_seed(2016, 26))
        for d in range(0, 15):
            u = random_homogeneous(rng, d) / 7
            for s in range(d // 2 + 1, d + 3):
                deco = almansi_decompose(u, s)
                assert deco.components == reference_almansi(u, s)
                assert deco.reconstruct() == u


class TestNoElimination:
    def test_split(self, monkeypatch):
        refuse_eliminations(monkeypatch)
        rng = Xoshiro256StarStar(derive_seed(2016, 27))
        for d in range(2, 20):
            p = random_homogeneous(rng, d) / 3
            h, q = harmonic_split(p)
            assert h + R2 * q == p and not laplacian(h)

    def test_almansi(self, monkeypatch):
        cases = seeded_cases(16)
        refuse_eliminations(monkeypatch)
        for u, s in cases:
            outcome = almansi_outcome(u, s)
            if isinstance(outcome[0], str):
                assert outcome[1] == laplacian_power(u, s)
            else:
                assert sum((R2**j * h for j, h in enumerate(outcome)), Poly.zero()) == u


class TestPolyharmonicWitness:
    def test_witness_is_the_iterated_laplacian(self):
        failures = 0
        for u, s in seeded_cases(24):
            try:
                almansi_decompose(u, s)
            except PolyharmonicError as err:
                failures += 1
                assert err.witness == laplacian_power(u, s) and err.witness
                assert str(err) == f"input is not polyharmonic of order {s}: Laplacian^{s} = {err.witness}"
        assert failures
