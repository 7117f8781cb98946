"""Acceptance criteria, one test per criterion.

Every check is exact rational arithmetic with zero tolerance. Each test
prints one PASS/FAIL line; run with

    pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from harmgerm.determinacy import check_determinacy
from harmgerm.equivalence import (
    MembershipError,
    absorption_profile,
    reduce_germ,
    verify_biharmonic,
)
from harmgerm.graded import (
    full_space,
    kernel_basis,
    product_space,
    subspace_compare,
)
from harmgerm.harmonic import (
    almansi_decompose,
    check_product_identity,
    harmonic_pair,
    harmonic_split,
)
from harmgerm.jets import jet_root, jet_truncate
from harmgerm.polyring import R2, Poly, laplacian, parse_poly
from harmgerm.rng import Xoshiro256StarStar, derive_seed, random_homogeneous, random_in_span

SEED = 20240501


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_01_harmonicity_and_dimension():
    with criterion(1, "harmonicity and dim = 2 for k <= 30 (< 1 s)"):
        start = time.perf_counter()
        for k in range(1, 31):
            pair = harmonic_pair(k)
            assert laplacian(pair.f) == Poly.zero()
            assert laplacian(pair.g) == Poly.zero()
            assert kernel_basis(k, 1).dim == 2
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_02_recurrences():
    with criterion(2, "generator recurrences exact for k <= 30"):
        x, y = Poly.monomial(1, 0), Poly.monomial(0, 1)
        for k in range(1, 31):
            pair = harmonic_pair(k)
            nxt = harmonic_pair(k + 1)
            assert nxt.f == x * pair.f - y * pair.g
            assert nxt.g == x * pair.g + y * pair.f


def test_03_product_identities():
    with criterion(3, "product identities; printed second form fails at (1,3)"):
        for k in range(1, 16):
            for s in range(1, k + 1):
                report = check_product_identity(s, k)
                assert report.first_ok, (s, k)
                assert report.corrected_second_ok, (s, k)
        report = check_product_identity(1, 3)
        assert not report.printed_second_ok
        print(
            "  expected discrepancy: printed second identity fails at (s,k)=(1,3); "
            "corrected minus-sign form passes everywhere"
        )


def test_04_harmonic_radial_splitting():
    with criterion(4, "P_k splits as harmonics + r^2 * P_(k-2), k <= 15"):
        for k in range(2, 16):
            assert kernel_basis(k, 1).dim + (k - 1) == k + 1
            rng = Xoshiro256StarStar(derive_seed(SEED, 4, k))
            for _ in range(3):
                p = random_homogeneous(rng, k)
                if not p:
                    continue
                h, q = harmonic_split(p)
                assert laplacian(h) == Poly.zero()
                assert h + R2 * q == p


def test_05_kernel_dimensions():
    with criterion(5, "kernel dimension min(2s, k+1) for s <= 8, k <= 16"):
        for s in range(1, 9):
            for k in range(1, 17):
                assert kernel_basis(k, s).dim == min(2 * s, k + 1)


def test_06_product_space_characterisation():
    with criterion(6, "product spans equal kernels / full space (< 10 s)"):
        start = time.perf_counter()
        for s in range(0, 9):
            for k in range(1, 11):
                span = product_space(s, k)
                if s < k - 1:
                    expected = kernel_basis(s + k, s + 1)
                else:
                    expected = full_space(s + k)
                assert subspace_compare(span, expected) == "equal", (s, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_07_kernel_containments():
    with criterion(7, "product spans inside iterated kernels, s <= 6, k <= 12"):
        for s in range(1, 7):
            for k in range(2 * s, 13):
                span = product_space(s - 1, k - s + 1)
                kernel = kernel_basis(k, s)
                assert subspace_compare(span, kernel) in ("equal", "a_in_b"), (s, k)


def test_08_almansi_roundtrip():
    with criterion(8, "Almansi layers reconstruct every kernel basis element"):
        for d in range(1, 13):
            for s in range(1, 6):
                for u in kernel_basis(d, s).basis:
                    layers = almansi_decompose(u, s)
                    assert layers.reconstruct() == u
                    for h in layers.components:
                        assert laplacian(h) == Poly.zero()


def test_09_determinacy_instances():
    with criterion(9, "criterion certifies f_k + R at level 2k-3 (< 30 s)"):
        start = time.perf_counter()
        for k in (5, 6, 7):
            pair = harmonic_pair(k)
            assert check_determinacy(pair.f, 2 * k - 3).verdict
            for i in range(10):
                rng = Xoshiro256StarStar(derive_seed(SEED, 9, k, i))
                tail = Poly.zero()
                for d in range(k + 1, 2 * k - 2):
                    tail = tail + random_homogeneous(rng, d)
                assert check_determinacy(pair.f + tail, 2 * k - 3).verdict, (k, i)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_10_end_to_end_reduction():
    with criterion(10, "20 seeded reductions per k in 5..8, exact chains (< 60 s)"):
        start = time.perf_counter()
        for k in (5, 6, 7, 8):
            profile = absorption_profile(k)
            for i in range(20):
                rng = Xoshiro256StarStar(derive_seed(SEED, 10, k, i))
                rhos = {
                    s: random_in_span(rng, kernel_basis(k + s, power).basis)
                    for s, power in profile.exponents
                }
                tail = random_homogeneous(rng, 2 * k - 3) + random_homogeneous(
                    rng, 2 * k - 2
                )
                chain = reduce_germ(k, rhos, tail)
                assert chain.verified and chain.verify(), (k, i)
                assert chain.certificate is not None
                assert chain.certificate.ok
                assert chain.certificate.level <= chain.bound
                composed = chain.composed()
                assert composed.poly == harmonic_pair(k).f.truncate(chain.bound)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_11_biharmonic_absorption():
    with criterion(11, "biharmonic perturbations absorbed; invalid input rejected"):
        for k in (5, 6, 7):
            for i in range(10):
                rng = Xoshiro256StarStar(derive_seed(SEED, 11, k, i))
                R = Poly.zero()
                # order in [k+1, 2k-4]: a biharmonic component per degree
                for d in range(k + 1, 2 * k - 3):
                    R = R + random_in_span(rng, kernel_basis(d, 2).basis)
                chain = verify_biharmonic(k, R)
                assert chain.verified, (k, i)
        try:
            verify_biharmonic(5, parse_poly("x^6"))
            raise AssertionError("invalid perturbation was accepted")
        except MembershipError as err:
            assert err.degree == 6


def test_12_jet_root_roundtrip():
    with criterion(12, "100 seeded k-th root jets power back exactly"):
        for i in range(100):
            rng = Xoshiro256StarStar(derive_seed(SEED, 12, i))
            k = rng.randint(1, 8)
            bound = rng.randint(2, 10)
            w = Poly.zero()
            for d in range(1, min(bound, 5) + 1):
                w = w + random_homogeneous(rng, d)
            root = jet_root(jet_truncate(w, bound), k)
            assert root.poly.coeff(0, 0) == Fraction(1)
            power = Poly.constant(1)
            for _ in range(k):
                power = power.mul_truncated(root.poly, bound)
            assert power == (Poly.constant(1) + w).truncate(bound), i


def test_13_selftest_determinism(capsys):
    with criterion(13, "identical selftest reports for identical seeds"):
        from harmgerm.cli import main

        assert main(["selftest", "--seed", "31415"]) == 0
        first = capsys.readouterr().out
        assert main(["selftest", "--seed", "31415"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "RESULT: PASS" in first
