import hashlib
import json
from fractions import Fraction
from typing import Sequence

import pytest

from harmgerm import determinacy, graded, linalg, polyring, zcoords
from harmgerm.determinacy import (
    CombinationRows,
    check_determinacy,
    determined_bound_report,
    TruncatedMultiples,
    jacobian_generators,
    reverify_certificate,
)
from harmgerm.graded import translation_solution
from harmgerm.harmonic import harmonic_pair
from harmgerm.polyring import Poly, format_poly, linear_combination, monomial_basis
from harmgerm.rng import Xoshiro256StarStar, derive_seed, random_homogeneous, random_order_tail

from conftest import P, counted, from_sympy, rational_rref, to_sympy
import sympy

X, Y = sympy.symbols("x y", real=True)

GOLDEN_CERTIFICATES = "9a1ccde7e29337f5583e88ef914c5e109e7e18909a8ca117f502452f2632d372"
GOLDEN_COMBINATIONS = "bf43771daf1e2e04176e74a9e6bd841cb26784e5d098cf3d0a4badd60daa8368"
# sha256 over every certificate of `lazy_grid`, as the eagerly built products gave it
GOLDEN_LAZY_GRID = "7425dd319a724ba7cf0f6cc2dd89d32198521c731e49d81c57ee8a6d982ae80b"
# sha256 of the products and of the combinations of `dense_morse_germ(level)`
GOLDEN_DENSE_MORSE = {
    12: (
        "62e421e10f02353b582b3db84a81aef3fd3aa708f0c88e6fa6affcdfa8d2aff2",
        "9521975b17578e692f5642c61409bdcc68dfd2be8a28aff1d408cd8da13d57f3",
    ),
    16: (
        "9143803aa96d87ade9cda7be77a7f7b7fdbef03d00b2b0f38e413538f7f9dfe8",
        "d998b253a10b4615e3a5281dadf4759073af92c2993cf43dc272cd15ea0f840d",
    ),
}


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
        tail = random_order_tail(Xoshiro256StarStar(derive_seed(1234, k, i)), k)
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
        # the translations read off the criterion absorb the whole slice,
        # with or without a tail
        tail = random_order_tail(Xoshiro256StarStar(derive_seed(27, k)), k)
        pair = harmonic_pair(k - 1)
        for germ_tail in (Poly.zero(), tail):
            report = determined_bound_report(k, germ_tail)
            assert report.ok
            translations, lower_zero = top_block_translations(report.criterion, k)
            assert lower_zero
            assert len(translations) == len(monomial_basis(2 * k - 3))
            for (a, b), (u, v) in zip(monomial_basis(2 * k - 3), translations):
                assert (pair.f * u - pair.g * v) * k == Poly.monomial(a, b)
                for w in (u, v):
                    assert w.is_homogeneous() and (not w or w.degree() == k - 2)


def top_block_translations(cert, k):
    """((u, v) per degree-(2k-3) monomial, every lower coefficient zero) of a
    level-(2k-3) certificate for f_k + tail.

    Its last 2(k-1) products are the top block, x^a*y^b * k*f_(k-1) and
    -x^a*y^b * k*g_(k-1) for each (a, b) of degree k-2 in turn, so a
    combination's coefficients on the first of each pair are those of u and
    on the second those of v.
    """
    pair = harmonic_pair(k - 1)
    multipliers = monomial_basis(k - 2)
    lower = len(cert.products) - 2 * len(multipliers)
    for i, (a, b) in enumerate(multipliers):
        shift = Poly.monomial(a, b)
        assert cert.products[lower + 2 * i] == shift * pair.f * k
        assert cert.products[lower + 2 * i + 1] == shift * pair.g * -k
    translations = []
    lower_zero = True
    for combo in cert.combinations:
        lower_zero &= not any(combo[:lower])
        top = combo[lower:]
        u = linear_combination((c, Poly.monomial(a, b)) for c, (a, b) in zip(top[::2], multipliers))
        v = linear_combination((c, Poly.monomial(a, b)) for c, (a, b) in zip(top[1::2], multipliers))
        translations.append((u, v))
    return translations, lower_zero


def certificate_grid():
    """(germ, level, cap) over f_k with no tail and with two seeded tails,
    k = 2..8, at levels k-1..2k-3 and multiplier caps None, 1 and 2."""
    for k in range(2, 9):
        germs = [harmonic_pair(k).f]
        germs += [
            harmonic_pair(k).f + random_order_tail(Xoshiro256StarStar(derive_seed(4242, k, i)), k)
            for i in (0, 1)
        ]
        for germ in germs:
            for level in range(k - 1, 2 * k - 2):
                for cap in (None, 1, 2):
                    yield germ, level, cap


def certificate_digest() -> str:
    """SHA-256 over every certificate of `certificate_grid`, as canonical
    text. A level below the germ's order contributes its error message
    instead."""
    records = []
    for germ, level, cap in certificate_grid():
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


def certify_germ(k, index=0):
    """The perfbench `certify` germ of seed 1: f_k plus a seeded tail in degrees k+1..2k-3."""
    rng = Xoshiro256StarStar(derive_seed(1, 2, 0, index))
    return harmonic_pair(k).f + random_order_tail(rng, k)


def combinations_digest() -> str:
    """SHA-256 over the stored combinations of every certificate of
    `certificate_grid`, then of `certify_germ(k, i)` at level 2k-3 for
    k = 8..12 and i = 0..2."""
    cases = [(germ, level, cap) for germ, level, cap in certificate_grid() if germ.order() <= level]
    cases += [(certify_germ(k, i), 2 * k - 3, None) for k in range(8, 13) for i in range(3)]
    records = []
    for germ, level, cap in cases:
        cert = check_determinacy(germ, level, max_multiplier_degree=cap)
        records.append([[str(c) for c in combo] for combo in cert.combinations])
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def dense_morse_germ(level):
    """x^2 + 3xy + 2y^2 plus a seeded dense form in each degree 3..level: its
    lower blocks are dependent, so its certificate takes the elimination
    over every degree."""
    rng = Xoshiro256StarStar(1)
    germ = P("x^2 + 3*x*y + 2*y^2")
    for d in range(3, level + 1):
        germ = germ + random_homogeneous(rng, d)
    return germ


def degenerate_dense_germs(level):
    """(G1, G2) = (x^2*(1 + D), x^3 + x*y^3 + x^2*D), truncated at `level`,
    with D a seeded dense form in each degree 1..level-2. Every product of
    G1 is a multiple of x, so y^level is uncovered; G2's top block is
    dependent and leaves a monomial uncovered, and its lower products
    cover the level."""
    rng = Xoshiro256StarStar(1)
    dense = Poly.zero()
    for d in range(1, level - 1):
        dense = dense + random_homogeneous(rng, d)
    x2 = P("x^2")
    return (x2 + x2 * dense).truncate(level), (P("x^3 + x*y^3") + x2 * dense).truncate(level)


class TestCertificateGolden:
    @pytest.mark.parametrize("level", sorted(GOLDEN_DENSE_MORSE))
    def test_dense_morse_certificate_unchanged(self, level):
        cert = check_determinacy(dense_morse_germ(level), level)
        assert cert.verdict
        products = json.dumps([format_poly(p) for p in cert.products])
        combinations = json.dumps([[str(c) for c in combo] for combo in cert.combinations])
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (products, combinations))
        assert digests == GOLDEN_DENSE_MORSE[level]

    def test_digest_unchanged(self):
        # any change to a verdict, a missing monomial, the products or
        # their order, or a reverification outcome changes the digest
        assert certificate_digest() == GOLDEN_CERTIFICATES

    def test_combinations_unchanged(self):
        # the stored combinations, which re-verification multiplies back out
        assert combinations_digest() == GOLDEN_COMBINATIONS


class TestTamperedCertificate:
    @pytest.fixture(scope="class")
    def cert(self):
        cert = check_determinacy(certify_germ(8), 13)
        assert cert.verdict and reverify_certificate(cert)
        return cert

    def test_changed_product_coefficient(self, cert):
        (key, c), *rest = cert.products[0].terms()
        changed = Poly(dict(rest) | {key: c + 1})
        assert not reverify_certificate(cert._replace(products=(changed,) + cert.products[1:]))

    def test_replaced_product(self, cert):
        replaced = (Poly.monomial(0, 13),) + cert.products[1:]
        assert not reverify_certificate(cert._replace(products=replaced))

    def test_swapped_germ(self, cert):
        assert not reverify_certificate(cert._replace(germ=harmonic_pair(8).g))

    def test_changed_combination_entry(self, cert):
        first = cert.combinations[0]
        nonzero = next(i for i, c in enumerate(first) if c)
        changed = first[:nonzero] + (first[nonzero] * 2,) + first[nonzero + 1 :]
        combinations = (changed,) + cert.combinations[1:]
        assert not reverify_certificate(cert._replace(combinations=combinations))

    def test_doubled_combination(self, cert):
        # sums to twice its monomial
        doubled = tuple(c * 2 for c in cert.combinations[0])
        combinations = (doubled,) + cert.combinations[1:]
        assert not reverify_certificate(cert._replace(combinations=combinations))

    def test_swapped_combinations(self, cert):
        first, second, *rest = cert.combinations
        combinations = (second, first, *rest)
        assert not reverify_certificate(cert._replace(combinations=combinations))

    def test_shortened_combinations(self, cert):
        assert not reverify_certificate(cert._replace(combinations=cert.combinations[:-1]))

    def test_shortened_combination(self, cert):
        combinations = (cert.combinations[0][:-1],) + cert.combinations[1:]
        assert not reverify_certificate(cert._replace(combinations=combinations))

    def test_inexact_zero_entry_raises(self, cert):
        # every coefficient is type-checked, the zeros that the sum skips too
        first = cert.combinations[0]
        zero = next(i for i, c in enumerate(first) if not c)
        changed = first[:zero] + (0.0,) + first[zero + 1 :]
        with pytest.raises(TypeError, match="not float"):
            reverify_certificate(cert._replace(combinations=(changed,) + cert.combinations[1:]))

    @pytest.mark.parametrize("level", (0, -1))
    def test_level_below_one(self, cert, level):
        # level -1 has no monomials, so nothing would be checked
        vacuous = cert._replace(level=level, products=(), combinations=())
        assert not reverify_certificate(vacuous)


def lazy_grid():
    """(germ, level, cap): seeded dense germs of order 0..4, degenerate germs
    and f_k + tail for k = 3..6, at every level from the order to 11 and
    multiplier caps None, 1, 2 and 3."""
    rng = Xoshiro256StarStar(39)
    germs = [sum((random_homogeneous(rng, d) for d in range(order, 12)), Poly.zero()) for order in range(5)]
    germs += [P("x^3"), P("x^2*y^2"), P("(x + y)^3 + x^5"), P("x^3 + x*y^3")]
    germs += [harmonic_pair(k).f + random_order_tail(Xoshiro256StarStar(derive_seed(39, k)), k) for k in (3, 4, 5, 6)]
    for germ in germs:
        for level in range(max(germ.order(), 1), 12):
            for cap in (None, 1, 2, 3):
                yield germ, level, cap


def eager_products(germ, level, cap):
    """The nonzero x^a*y^b * gen truncated at `level`, one `Poly.shifted` each:
    multiplier degree ascending, then x-exponent descending, then generator."""
    generators = [(gen, gen.order()) for gen in jacobian_generators(germ) if gen]
    last = level - min(e for _, e in generators)
    if cap is not None:
        last = min(last, cap)
    products = (gen.shifted(a, b, level) for d in range(1, last + 1) for a, b in monomial_basis(d) for gen, _ in generators)
    return tuple(p for p in products if p)


def lazy_products(germ, level, cap=None):
    generators = [(gen, gen.order()) for gen in jacobian_generators(germ) if gen]
    return TruncatedMultiples(generators, level, cap)


class TestLazyProducts:
    def test_reads_like_the_eager_tuple(self):
        verdicts = set()
        for germ, level, cap in lazy_grid():
            reference = eager_products(germ, level, cap)
            n = len(reference)
            assert len(lazy_products(germ, level, cap)) == n
            # every access pattern on a fresh sequence, so each one builds its own blocks
            products = lazy_products(germ, level, cap)
            assert [products[i] for i in reversed(range(-n, 0))] == list(reversed(reference))
            products = lazy_products(germ, level, cap)
            assert [products[i] for i in range(n)] == list(reference)
            for piece in (slice(None), slice(n // 2, None), slice(-3, None), slice(None, None, -2), slice(1, n, 3)):
                sliced = lazy_products(germ, level, cap)[piece]
                assert type(sliced) is tuple and sliced == reference[piece]
            assert list(lazy_products(germ, level, cap)) == list(reference)
            assert lazy_products(germ, level, cap) == reference and reference == lazy_products(germ, level, cap)
            assert hash(lazy_products(germ, level, cap)) == hash(reference)
            for index in (n, -n - 1):
                with pytest.raises(IndexError):
                    lazy_products(germ, level, cap)[index]
            top = lazy_products(germ, level, cap).top
            assert top == [j for j, p in enumerate(reference) if p.order() == level]
            cert = check_determinacy(germ, level, max_multiplier_degree=cap)
            assert cert.products == reference
            verdicts.add(cert.verdict)
        assert verdicts == {True, False}

    def test_certificates_unchanged(self):
        # verdicts, missing monomials, products, combinations and reverify outcomes
        records = []
        for germ, level, cap in lazy_grid():
            cert = check_determinacy(germ, level, max_multiplier_degree=cap)
            records.append(
                [
                    format_poly(germ),
                    level,
                    cap,
                    cert.verdict,
                    None if cert.missing is None else format_poly(cert.missing),
                    [format_poly(p) for p in cert.products],
                    [[str(c) for c in combo] for combo in cert.combinations],
                    reverify_certificate(cert),
                ]
            )
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == GOLDEN_LAZY_GRID

    def test_not_equal_to_other_types(self):
        products = lazy_products(certify_germ(8), 13)
        assert products != list(products) and products != lazy_products(certify_germ(8), 12)

    def test_certify_germ_builds_only_the_top_block(self, monkeypatch):
        germ, level = certify_germ(10), 17
        shifts = counted(monkeypatch, Poly, "shifts")
        cert = check_determinacy(germ, level)
        # one call per generator, both of order 9, at multiplier degree 17 - 9
        assert [args[1] for args in shifts] == [[8], [8]]
        assert list(cert.products.built()) == [(len(cert.products) - 18, len(cert.products))]
        assert cert.products.top == list(range(len(cert.products) - 18, len(cert.products)))
        shifts.clear()
        assert reverify_certificate(cert)
        assert [args[1] for args in shifts] == [[8], [8]]
        assert len(list(cert.products.built())) == 1

    def test_uncovered_level_builds_every_block(self, monkeypatch):
        germ, level = degenerate_dense_germs(24)[0], 24
        shifts = counted(monkeypatch, Poly, "shifts")
        cert = check_determinacy(germ, level)
        assert not cert.verdict and cert.missing == Poly.monomial(0, 24)
        # one call per generator of order e at each multiplier degree d with d + e <= level
        orders = [e for _, e in cert.products.generators]
        assert orders == [1, 2]
        assert sorted(args[1][0] for args in shifts) == sorted([*range(1, 24), *range(1, 23)])
        # one block per multiplier degree 1..23, and together they hold every product
        spans = list(cert.products.built())
        assert len(spans) == 23 and spans[0][0] == 0 and spans[-1][1] == len(cert.products)
        assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
        assert len(cert.products) == len(eager_products(germ, level, None))


class TestTamperedLazyCertificate:
    """Tampering that the lazy path must catch without building the blocks nobody reads."""

    def cert(self):
        cert = check_determinacy(certify_germ(10), 17)
        assert cert.verdict and isinstance(cert.products, TruncatedMultiples)
        return cert

    def test_untampered(self):
        cert = self.cert()
        assert reverify_certificate(cert)
        # a tuple of the same products reverifies too
        assert reverify_certificate(cert._replace(products=tuple(cert.products)))

    def test_swapped_germ(self):
        assert not reverify_certificate(self.cert()._replace(germ=harmonic_pair(10).g))

    def test_changed_level(self):
        cert = self.cert()
        assert not reverify_certificate(cert._replace(level=16))
        # the products' own level is compared with the certificate's
        cert.products.level = 16
        assert not reverify_certificate(cert)

    def test_changed_cap(self):
        cert = self.cert()
        cert.products.cap = 3
        assert not reverify_certificate(cert)
        # with no block built, the cap is checked through the length it gives
        assert reverify_certificate(cert._replace(products=lazy_products(cert.germ, cert.level)))
        unbuilt = lazy_products(cert.germ, cert.level)
        unbuilt.cap = 3
        assert not reverify_certificate(cert._replace(products=unbuilt))

    def test_replaced_top_product(self):
        cert = self.cert()
        j = cert.products.top[0]
        cert.products._products[j] = Poly.monomial(0, 17)
        assert not reverify_certificate(cert)

    def test_nonzero_coefficient_on_a_lower_product(self):
        cert = self.cert()
        first = cert.combinations[0]
        assert not any(first[: cert.products.top[0]])
        changed = (Fraction(1),) + first[1:]
        assert not reverify_certificate(cert._replace(combinations=(changed,) + cert.combinations[1:]))
        # the combination read that product, so its block was built
        assert list(cert.products.built())[0] == (0, 4)

    def test_inexact_zero_entry_on_an_unbuilt_block_raises(self):
        cert = self.cert()
        changed = (0.0,) + cert.combinations[0][1:]
        with pytest.raises(TypeError, match="not float"):
            reverify_certificate(cert._replace(combinations=(changed,) + cert.combinations[1:]))


def eager_combinations(cert):
    """The combinations of `cert` as one eager tuple of Fraction tuples, from its integer rows."""
    width = len(cert.products)
    return tuple(
        tuple(Fraction(numerators.get(j, 0), den) for j in range(width))
        for numerators, den in cert.combinations.rows
    )


def retyped(cert, rows, width=None):
    """`cert` with its combinations replaced by integer rows."""
    return cert._replace(combinations=CombinationRows(rows, len(cert.products) if width is None else width))


class TestCombinationRows:
    def test_reads_like_the_eager_tuple(self):
        cases = list(lazy_grid()) + DEGENERATE_CASES
        cases += [(germ, 12, None) for germ in degenerate_dense_germs(12)]
        verdicts = set()
        for germ, level, cap in cases:
            cert = check_determinacy(germ, level, max_multiplier_degree=cap)
            combinations = cert.combinations
            assert isinstance(combinations, CombinationRows)
            verdicts.add(cert.verdict)
            reference = eager_combinations(cert)
            n = len(reference)
            assert len(combinations) == n == (len(monomial_basis(level)) if cert.verdict else 0)
            for numerators, den in combinations.rows:
                assert type(den) is int and den > 0
                assert all(type(j) is int and 0 <= j < len(cert.products) for j in numerators)
                assert all(type(v) is int and v for v in numerators.values())
            assert [combinations[i] for i in range(n)] == list(reference)
            assert [combinations[i] for i in reversed(range(-n, 0))] == list(reversed(reference))
            assert all(type(row) is tuple for row in combinations)
            for piece in (slice(None), slice(n // 2, None), slice(-3, None), slice(None, None, -2), slice(1, n, 3)):
                sliced = combinations[piece]
                assert type(sliced) is tuple and sliced == reference[piece]
            assert list(combinations) == list(reference)
            assert combinations == reference and reference == combinations
            assert not combinations != reference and not reference != combinations
            assert hash(combinations) == hash(reference)
            for index in (n, -n - 1):
                with pytest.raises(IndexError):
                    combinations[index]
        assert verdicts == {True, False}

    def test_top_block_rows_read_only_top_products(self):
        cert = check_determinacy(certify_germ(10), 17)
        top = set(cert.products.top)
        assert all(set(numerators) <= top for numerators, _ in cert.combinations.rows)

    def test_a_row_is_built_only_when_read(self, monkeypatch):
        cert = check_determinacy(certify_germ(9), 15)
        made = counted(monkeypatch, determinacy, "Fraction")
        row = cert.combinations[3]
        # one Fraction per nonzero numerator of that row and of no other
        assert len(made) == len(cert.combinations.rows[3][0])
        assert len(row) == len(cert.products)

    def test_not_equal_to_other_types(self):
        combinations = check_determinacy(certify_germ(8), 13).combinations
        assert combinations != list(combinations) and combinations != check_determinacy(certify_germ(9), 15).combinations

    def test_certify_operation_builds_no_fraction(self, monkeypatch):
        # the certify workload's operation: check, then re-verify, on f_k + tail
        for k in (8, 9, 10):
            germ, level = certify_germ(k, k - 8), 2 * k - 3
            made = []
            original = Fraction.__new__

            def counting(cls, *args, **kwargs):
                made.append(args)
                return original(cls, *args, **kwargs)

            sums = counted(monkeypatch, polyring, "linear_combination")
            monkeypatch.setattr(Fraction, "__new__", counting)
            cert = check_determinacy(germ, level)
            checked = list(made)
            assert reverify_certificate(cert)
            monkeypatch.undo()
            assert checked == [] and made == [] and sums == []
            assert cert.verdict and len(cert.combinations) == level + 1


class TestTamperedCombinationRows:
    """Tampering with the integer rows that re-verification reads as they are."""

    def cert(self):
        cert = check_determinacy(certify_germ(10), 17)
        assert cert.verdict and isinstance(cert.combinations, CombinationRows)
        return cert

    def rows(self, cert):
        # a copy, so each test tampers with its own rows
        return [(dict(numerators), den) for numerators, den in cert.combinations.rows]

    def test_untampered(self):
        cert = self.cert()
        assert reverify_certificate(retyped(cert, self.rows(cert)))
        # the eager tuples and the rows are the same certificate
        assert reverify_certificate(cert._replace(combinations=eager_combinations(cert)))

    def test_changed_numerator(self):
        cert = self.cert()
        rows = self.rows(cert)
        j, n = next(iter(rows[0][0].items()))
        rows[0][0][j] = n + 1
        assert not reverify_certificate(retyped(cert, rows))

    @pytest.mark.parametrize("change", (lambda den: den + 1, lambda den: 2 * den, lambda den: 0, lambda den: -den))
    def test_changed_denominator(self, change):
        cert = self.cert()
        rows = self.rows(cert)
        numerators, den = rows[1]
        rows[1] = (numerators, change(den))
        assert not reverify_certificate(retyped(cert, rows))

    def test_negated_row(self):
        # -n / -den is the same coefficient, but a den must be positive
        cert = self.cert()
        rows = self.rows(cert)
        numerators, den = rows[0]
        rows[0] = ({j: -n for j, n in numerators.items()}, -den)
        assert not reverify_certificate(retyped(cert, rows))

    @pytest.mark.parametrize("offset", (0, 1))
    def test_index_out_of_range(self, offset):
        cert = self.cert()
        rows = self.rows(cert)
        numerators = rows[0][0]
        j = max(numerators)
        numerators[len(cert.products) + offset] = numerators.pop(j)
        assert not reverify_certificate(retyped(cert, rows))
        numerators[-1] = numerators.pop(len(cert.products) + offset)
        assert not reverify_certificate(retyped(cert, rows))

    def test_index_on_an_unbuilt_lower_product(self):
        cert = self.cert()
        assert len(list(cert.products.built())) == 1
        rows = self.rows(cert)
        rows[0][0][0] = 1
        assert not reverify_certificate(retyped(cert, rows))
        # the row read that product, so its block was built
        assert list(cert.products.built())[0] == (0, 4)

    @pytest.mark.parametrize("value, name", [(1.0, "float"), (True, "bool"), (Fraction(1), "Fraction")])
    def test_numerator_of_another_type_raises(self, value, name):
        cert = self.cert()
        rows = self.rows(cert)
        j = next(iter(rows[2][0]))
        rows[2][0][j] = value
        with pytest.raises(TypeError, match=f"not {name}"):
            reverify_certificate(retyped(cert, rows))

    @pytest.mark.parametrize("kind, name", [(float, "float"), (Fraction, "Fraction")])
    def test_denominator_of_another_type_raises(self, kind, name):
        cert = self.cert()
        rows = self.rows(cert)
        numerators, den = rows[0]
        rows[0] = (numerators, kind(den))
        with pytest.raises(TypeError, match=f"not {name}"):
            reverify_certificate(retyped(cert, rows))

    @pytest.mark.parametrize("kind, name", [(float, "float"), (bool, "bool")])
    def test_index_of_another_type_raises(self, kind, name):
        cert = self.cert()
        rows = self.rows(cert)
        numerators = rows[0][0]
        j = max(numerators)
        numerators[kind(j)] = numerators.pop(j)
        with pytest.raises(TypeError, match=f"not {name}"):
            reverify_certificate(retyped(cert, rows))

    def test_dropped_row(self):
        cert = self.cert()
        rows = self.rows(cert)
        assert not reverify_certificate(retyped(cert, rows[:-1]))
        assert not reverify_certificate(retyped(cert, rows[1:]))
        assert not reverify_certificate(retyped(cert, rows + rows[:1]))

    def test_swapped_rows(self):
        cert = self.cert()
        rows = self.rows(cert)
        rows[0], rows[1] = rows[1], rows[0]
        assert not reverify_certificate(retyped(cert, rows))

    def test_changed_width(self):
        cert = self.cert()
        for width in (len(cert.products) - 1, len(cert.products) + 1):
            assert not reverify_certificate(retyped(cert, self.rows(cert), width))


class TestArgumentChecks:
    @pytest.mark.parametrize("level", (9.0, Fraction(9), "9", None))
    def test_level_must_be_an_int(self, level):
        with pytest.raises(TypeError, match="level must be an int"):
            check_determinacy(certify_germ(6), level)

    @pytest.mark.parametrize("cap", (2.5, 2.0, "2"))
    def test_cap_must_be_an_int(self, cap):
        with pytest.raises(TypeError, match="max_multiplier_degree must be an int or None"):
            check_determinacy(certify_germ(6), 9, cap)

    @pytest.mark.parametrize("cap", (0, -1))
    def test_cap_below_one_is_refused(self, cap):
        with pytest.raises(polyring.InputError, match=f"multiplier degree cap {cap} must be at least 1"):
            check_determinacy(certify_germ(6), 9, cap)
        assert check_determinacy(certify_germ(6), 9, 1).products

    def test_reverify_checks_the_level_and_cap_types(self):
        cert = check_determinacy(certify_germ(6), 9, 4)
        assert reverify_certificate(cert)
        with pytest.raises(TypeError, match="level must be an int"):
            reverify_certificate(cert._replace(level=9.0))
        cert.products.cap = 4.0
        with pytest.raises(TypeError, match="max_multiplier_degree must be an int or None"):
            reverify_certificate(cert)


# The per-vector Fraction algorithms the library used before its one
# integer solve, kept here so that `reference_certificate` does not run
# the code under test.
Vector = tuple[Fraction, ...]


def reduce_vector(rref_rows: Sequence[Vector], pivots: Sequence[int], vec: Sequence[Fraction]) -> Vector:
    """Residual of `vec` after eliminating all pivot coordinates."""
    residual = list(Fraction(c) for c in vec)
    for row, col in zip(rref_rows, pivots):
        factor = residual[col]
        if factor:
            for j, entry in enumerate(row):
                if entry:
                    residual[j] -= factor * entry
    return tuple(residual)


def in_rowspace(rref_rows: Sequence[Vector], pivots: Sequence[int], vec: Sequence[Fraction]) -> bool:
    return not any(reduce_vector(rref_rows, pivots, vec))


def solve_canonical(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Vector | None:
    """Solve sum_j c_j * columns[j] = target.

    Returns the RREF-canonical solution (free variables zero), or None
    when the system is inconsistent.
    """
    ncols = len(columns)
    height = len(target)
    if any(len(col) != height for col in columns):
        raise ValueError("column height mismatch")
    augmented = [
        tuple(col[i] for col in columns) + (Fraction(target[i]),) for i in range(height)
    ]
    rr, pivots = rational_rref(augmented)
    solution = [Fraction(0)] * ncols
    for row, col in zip(rr, pivots):
        if col == ncols:
            return None
        solution[col] = row[ncols]
    return tuple(solution)


def reference_certificate(products, level):
    """(missing, combinations) by the per-monomial algorithm. The top block,
    the products of order `level`, is solved first in the degree-`level`
    coordinates; when it covers every monomial it is the certificate and
    every other product gets coefficient zero. Otherwise the products are
    solved in every degree 1..`level`."""
    top = [j for j, p in enumerate(products) if p.order() == level]
    missing, solved = per_monomial_certificate([products[j] for j in top], level, monomial_basis(level))
    if missing is None:
        combinations = []
        for solution in solved:
            combination = [Fraction(0)] * len(products)
            for j, c in zip(top, solution):
                combination[j] = c
            combinations.append(tuple(combination))
        return None, tuple(combinations)
    basis = [exps for d in range(1, level + 1) for exps in monomial_basis(d)]
    return per_monomial_certificate(products, level, basis)


def per_monomial_certificate(products, level, basis):
    """(missing, combinations) of the products in the coordinates `basis`: a
    rowspace test per degree-`level` monomial, then one canonical solve per
    monomial."""
    columns = [tuple(p.coeff(a, b) for a, b in basis) for p in products]
    targets = [tuple(int(exps == (a, b)) for exps in basis) for a, b in monomial_basis(level)]
    rr, pivots = rational_rref(columns)
    for (a, b), target in zip(monomial_basis(level), targets):
        if not in_rowspace(rr, pivots, target):
            return Poly.monomial(a, b), ()
    return None, tuple(solve_canonical(columns, target) for target in targets)


# (germ, level): dense germs of order 1 and 2
DENSE_LOW_ORDER = [
    (P("x + 2*y - x^2 + 3*x*y + y^2 - x^3 + 2*x^2*y - x*y^3 + y^4"), 6),
    (P("x^2 + x*y - 2*y^2 + x^3 - x^2*y + 3*y^3 + x^4"), 7),
]
# germs with degenerate leading forms: a Morse form, a degenerate
# quartic, a cube, dense germs of order 1 and 2, and generators whose
# leading forms are proportional or share a factor. The top blocks of the
# Morse form and of the dense germs are dependent but span, so they are
# the certificates; the cube's (one nonzero generator) is independent.
# The others leave a monomial uncovered with a dependent top block, so
# the row echelon of all the products decides them.
DEGENERATE_CASES = [
    (P("x^2 - y^2"), level, None) for level in (2, 3, 4)
] + [
    (P("x^2*y^2"), level, None) for level in (4, 5, 6)
] + [
    (P("x^3"), level, None) for level in (3, 4, 5)
] + [
    (germ, level, None) for germ, level in DENSE_LOW_ORDER
] + [
    (P("(x + y)^3 + x^5"), 6, None),
    (P("(x + y)^4 + x^5 + y^6"), 5, None),
    (P("(x^2 + y^2)^2 + x^4*y"), 5, None),
]


class TestSingleElimination:
    def test_matches_per_monomial_reference(self):
        cases = [case for case in certificate_grid() if case[0].order() <= case[1]]
        cases += [(certify_germ(k, k - 8), 2 * k - 3, None) for k in (8, 9, 10)]
        cases += DEGENERATE_CASES
        cases += [(dense_morse_germ(level), level, None) for level in (8, 10, 12)]
        cases += [(harmonic_pair(8).f, 20, None)]
        # independent top blocks that miss x^12 and x^16: the rows decide
        cases += [(harmonic_pair(8).f, 12, None), (harmonic_pair(10).f, 16, None)]
        # caps that cut the top block; for the last germ, y*h_x + x*h_y
        # = 3*x^3 comes from products of order 2 alone
        cases += [(certify_germ(8), 13, 5), (harmonic_pair(6).f + P("x^7"), 9, 3)]
        cases += [(P("3*x^2 - 3*y^2 + 3*x^2*y - 2*y^3"), 3, 1)]
        verdicts = set()
        for germ, level, cap in cases:
            cert = check_determinacy(germ, level, max_multiplier_degree=cap)
            missing, combinations = reference_certificate(cert.products, level)
            assert cert.missing == missing
            assert cert.verdict == (missing is None)
            assert cert.combinations == combinations
            verdicts.add(cert.verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("germ, level", [(certify_germ(8), 13), (P("x^3"), 3)])
    def test_one_rref_per_certificate(self, monkeypatch, germ, level):
        rrefs = counted(monkeypatch, linalg, "rref")
        solves = counted(monkeypatch, linalg, "solve_canonical")
        cert = check_determinacy(germ, level)
        # an uncovered monomial adds one row echelon of all the products
        assert len(solves) == 1 and len(rrefs) == (1 if cert.verdict else 2)

    @pytest.mark.parametrize(
        "germ, level",
        [(dense_morse_germ(level), level) for level in (12, 16, 20)]
        + DENSE_LOW_ORDER,
    )
    def test_dependent_spanning_top_block_is_the_certificate(self, monkeypatch, germ, level):
        rrefs = counted(monkeypatch, linalg, "rref")
        cert = check_determinacy(germ, level)
        assert len(rrefs) == 1 and len(rrefs[0][0]) <= level + 1
        top = [p.order() == level for p in cert.products]
        # more products than degree-`level` monomials, so the block is dependent
        assert sum(top) > level + 1
        for combination in cert.combinations:
            assert not any(c for c, in_top in zip(combination, top) if not in_top)
        assert reverify_certificate(cert)

    @pytest.mark.parametrize(
        "germ, level, cap",
        [(P("x^2*y^2"), level, None) for level in (4, 5, 6)]
        + [(degenerate_dense_germs(12)[0], 12, None), (P("3*x^2 - 3*y^2 + 3*x^2*y - 2*y^3"), 3, 1)],
    )
    def test_uncovered_level_solves_once(self, monkeypatch, germ, level, cap):
        # the row echelon of all the products decides; only the top block is solved
        solves = counted(monkeypatch, linalg, "solve_canonical")
        cert = check_determinacy(germ, level, max_multiplier_degree=cap)
        assert not cert.verdict and len(solves) == 1

    @pytest.mark.parametrize(
        "germ, level", [(P("(x + y)^3 + x^5"), 6), (degenerate_dense_germs(12)[1], 12)]
    )
    def test_rows_that_cover_the_level_are_solved(self, monkeypatch, germ, level):
        # only the lower products cover the level, so the full solve writes the combinations
        solves = counted(monkeypatch, linalg, "solve_canonical")
        cert = check_determinacy(germ, level)
        assert cert.verdict and len(solves) == 2
        assert len(solves[1][0]) == len(cert.products) and reverify_certificate(cert)

    def test_graded_elimination_shapes(self, monkeypatch):
        # the top block alone decides the certify germs and the leading forms
        graded_cases = [(certify_germ(k), 2 * k - 3) for k in range(8, 13)]
        graded_cases += [(harmonic_pair(k).f, 2 * k - 3) for k in range(5, 17)]
        for germ, level in graded_cases:
            rrefs = counted(monkeypatch, linalg, "rref")
            assert check_determinacy(germ, level).verdict
            assert len(rrefs) == 1 and len(rrefs[0][0]) <= level + 1
        full = 0
        for germ, level, cap in DEGENERATE_CASES:
            rrefs = counted(monkeypatch, linalg, "rref")
            check_determinacy(germ, level, max_multiplier_degree=cap)
            full += any(len(args[0]) > level + 1 for args in rrefs)
        assert full >= 1

    def test_reverification_runs_no_elimination(self, monkeypatch):
        cert = check_determinacy(certify_germ(8), 13)
        rrefs = counted(monkeypatch, linalg, "rref")
        solves = counted(monkeypatch, linalg, "solve_canonical")
        assert reverify_certificate(cert)
        assert rrefs == [] and solves == []

    @pytest.mark.parametrize("k", (8, 9, 10))
    def test_certificate_runs_no_product(self, monkeypatch, k):
        # the products are monomial shifts and the re-check one integer sum
        germ = certify_germ(k, k - 8)
        products = counted(monkeypatch, polyring, "poly_mul")
        cert = check_determinacy(germ, 2 * k - 3)
        assert reverify_certificate(cert)
        assert products == []

    def test_report_requires_reverification(self, monkeypatch):
        # __wrapped__ bypasses the report cache
        assert determined_bound_report.__wrapped__(5, Poly.zero()).ok
        monkeypatch.setattr(determinacy, "reverify_certificate", lambda cert: False)
        report = determined_bound_report.__wrapped__(5, Poly.zero())
        assert report.criterion.verdict and not report.ok


class TestTranslationAbsorption:
    @pytest.mark.parametrize("k", range(3, 15))
    def test_matches_per_monomial_solutions(self, k):
        # the report's criterion from k = 5; below, the same level-(2k-3)
        # criterion on f_k, which the report does not cover
        if k >= 5:
            cert = determined_bound_report.__wrapped__(k, Poly.zero()).criterion
        else:
            cert = check_determinacy(harmonic_pair(k).f, 2 * k - 3)
        assert cert.verdict and reverify_certificate(cert)
        reference = [translation_solution(Poly.monomial(a, b), k) for a, b in monomial_basis(2 * k - 3)]
        translations, lower_zero = top_block_translations(cert, k)
        assert lower_zero
        assert translations == reference

    @pytest.mark.parametrize("k", (5, 8, 12))
    def test_report_runs_one_elimination_and_no_read_off(self, monkeypatch, k):
        rrefs = counted(monkeypatch, linalg, "rref")
        read_offs = [counted(monkeypatch, module, "harmonic_multiple") for module in (zcoords, graded)]
        assert determined_bound_report.__wrapped__(k, Poly.zero()).ok
        assert len(rrefs) == 1 and read_offs == [[], []]

    @pytest.mark.parametrize("k", range(5, 13))
    def test_report_fields_unchanged(self, k):
        # __wrapped__ bypasses the report cache
        assert determined_bound_report.__wrapped__(k, Poly.zero()).to_json_dict() == {
            "k": k,
            "level": max(k, 2 * k - 4),
            "criterion_level": 2 * k - 3,
            "criterion_verdict": True,
            "absorbed_degree": 2 * k - 3,
            "absorption_verified": True,
            "ok": True,
        }
