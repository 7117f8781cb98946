import hashlib
import json

import pytest

from harmgerm.determinacy import (
    check_determinacy,
    determined_bound_report,
    jacobian_generators,
    reverify_certificate,
    translation_absorption,
)
from harmgerm.harmonic import harmonic_pair
from harmgerm.polyring import Poly, format_poly, monomial_basis
from harmgerm.rng import Xoshiro256StarStar, derive_seed, random_homogeneous

from conftest import P, from_sympy, to_sympy
import sympy

X, Y = sympy.symbols("x y", real=True)

GOLDEN_CERTIFICATES = "9a1ccde7e29337f5583e88ef914c5e109e7e18909a8ca117f502452f2632d372"


def random_order_tail(seed, k):
    """Random polynomial with degrees k+1 .. 2k-3 and coefficients in [-3, 3]."""
    rng = Xoshiro256StarStar(seed)
    tail = Poly.zero()
    for d in range(k + 1, 2 * k - 2):
        tail = tail + random_homogeneous(rng, d)
    return tail


class TestJacobianGenerators:
    def test_f5_against_sympy(self):
        f5 = harmonic_pair(5).f
        hx, hy = jacobian_generators(f5)
        assert hx == from_sympy(sympy.diff(to_sympy(f5), X))
        assert hy == from_sympy(sympy.diff(to_sympy(f5), Y))
        pair = harmonic_pair(4)
        assert hx == pair.f * 5
        assert hy == pair.g * (-5)

    def test_circle(self):
        assert jacobian_generators(P("x^2 + y^2")) == (P("2*x"), P("2*y"))

    def test_constant(self):
        assert jacobian_generators(Poly.constant(3)) == (Poly.zero(), Poly.zero())


class TestCheckDeterminacy:
    def test_morse_form(self):
        cert = check_determinacy(P("x^2 - y^2"), 2)
        assert cert.verdict
        # hand check: x*(2x), y*(2x), x*(-2y) span x^2, xy, y^2
        assert len(cert.products) >= 3

    def test_f5_at_level_7(self):
        assert check_determinacy(harmonic_pair(5).f, 7).verdict

    def test_x_cubed_inconclusive(self):
        cert = check_determinacy(P("x^3"), 3)
        assert not cert.verdict
        # multiples of 3x^2 truncated at 3 span only x^3 and x^2*y
        assert cert.missing in (P("x*y^2"), P("y^3"))

    def test_monotone_in_multiplier_set(self):
        germ = harmonic_pair(5).f + P("x^6")
        for cap in range(1, 6):
            small = check_determinacy(germ, 7, max_multiplier_degree=cap)
            if small.verdict:
                assert check_determinacy(germ, 7).verdict

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_determinacy(Poly.zero(), 3)

    def test_rejects_order_above_level(self):
        with pytest.raises(ValueError):
            check_determinacy(P("x^5"), 3)

    @pytest.mark.parametrize("level", (0, -2))
    def test_rejects_level_below_one(self, level):
        # level 0 used to end in a KeyError: the basis covers degrees 1..level
        with pytest.raises(ValueError, match="at least 1"):
            check_determinacy(Poly.constant(1), level)


class TestCertifiedSweep:
    @pytest.mark.parametrize("k", (5, 6, 7))
    def test_leading_form(self, k):
        assert check_determinacy(harmonic_pair(k).f, 2 * k - 3).verdict

    @pytest.mark.parametrize("k", (5, 6, 7))
    @pytest.mark.parametrize("i", range(10))
    def test_random_tails(self, k, i):
        tail = random_order_tail(derive_seed(1234, k, i), k)
        cert = check_determinacy(harmonic_pair(k).f + tail, 2 * k - 3)
        assert cert.verdict

    def test_independent_reverification(self):
        cert = check_determinacy(harmonic_pair(5).f, 7)
        assert reverify_certificate(cert)
        bad = check_determinacy(P("x^3"), 3)
        assert not reverify_certificate(bad)


class TestLowDegreeCriterion:
    def test_k2_k3_conclusive(self):
        assert check_determinacy(harmonic_pair(2).f, 2).verdict
        assert check_determinacy(harmonic_pair(3).f, 3).verdict

    def test_k4_criterion_gap(self):
        # 4-determinacy of f_4 holds, but the sufficient criterion alone
        # cannot see it: the degree-4 slice of m*J is a proper subspace
        assert not check_determinacy(harmonic_pair(4).f, 4).verdict


class TestDeterminedBoundReport:
    def test_k5_no_tail(self):
        report = determined_bound_report(5, Poly.zero())
        assert report.ok
        assert report.criterion.level == 7 and report.criterion.verdict
        assert report.level == 6

    def test_k6_with_tail(self):
        report = determined_bound_report(6, P("x^7"))
        assert report.ok
        assert report.criterion.level == 9
        assert report.level == 8

    def test_low_order_tail_rejected(self):
        with pytest.raises(ValueError):
            determined_bound_report(5, P("x^5"))

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            determined_bound_report(4, Poly.zero())

    @pytest.mark.parametrize("k", (5, 6, 7))
    def test_translation_absorption_covers_slice(self, k):
        absorption = translation_absorption(k)
        assert absorption.verified
        assert len(absorption.entries) == len(monomial_basis(2 * k - 3))
        pair = harmonic_pair(k - 1)
        for mono, u, v in absorption.entries:
            assert (pair.f * u - pair.g * v) * k == mono
            assert u.is_homogeneous() and (not u or u.degree() == k - 2)


def certificate_digest() -> str:
    """SHA-256 over every certificate of a fixed grid, as canonical text.

    The grid is f_k with no tail and with two seeded tails, k = 2..8, at
    levels k-1..2k-3 and multiplier caps None, 1 and 2. A level below the
    germ's order contributes its error message instead.
    """
    records = []
    for k in range(2, 9):
        germs = [harmonic_pair(k).f]
        germs += [harmonic_pair(k).f + random_order_tail(derive_seed(4242, k, i), k) for i in (0, 1)]
        for germ in germs:
            for level in range(k - 1, 2 * k - 2):
                for cap in (None, 1, 2):
                    try:
                        cert = check_determinacy(germ, level, max_multiplier_degree=cap)
                    except ValueError as exc:
                        records.append((format_poly(germ), level, cap, str(exc)))
                        continue
                    records.append(
                        (
                            format_poly(germ),
                            level,
                            cap,
                            cert.verdict,
                            format_poly(cert.missing) if cert.missing is not None else None,
                            [format_poly(p) for p in cert.products],
                            reverify_certificate(cert),
                        )
                    )
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


class TestCertificateGolden:
    def test_digest_unchanged(self):
        # any change to a verdict, a missing monomial, the products or
        # their order, or a reverification outcome changes the digest
        assert certificate_digest() == GOLDEN_CERTIFICATES
