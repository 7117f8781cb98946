import inspect
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
    harmonic_pair,
    harmonic_split,
)
from harmgerm.polyring import R2, Poly, laplacian, monomial_basis

from conftest import P, oracle_harmonic


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

    @pytest.mark.parametrize("d", range(1, 13))
    @pytest.mark.parametrize("s", range(1, 6))
    def test_roundtrip_on_kernel_bases(self, d, s):
        for u in kernel_basis(d, s).basis:
            deco = almansi_decompose(u, s)
            assert deco.reconstruct() == u
            for h in deco.components:
                assert not laplacian(h)
