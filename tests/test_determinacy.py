import hashlib
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from harmgerm import determinacy, graded, linalg, polyring, zcoords
from harmgerm.determinacy import (
    check_determinacy,
    determined_bound_report,
    TruncatedMultiples,
    jacobian_generators,
    reverify_certificate,
)
from harmgerm.harmonic import harmonic_pair
from harmgerm.polyring import Poly, format_poly, monomial_basis
from harmgerm.rng import (
    Xoshiro256StarStar,
    degenerate_dense_germs,
    dense_morse_germ,
    derive_seed,
    random_homogeneous,
    random_order_tail,
)

from conftest import (
    P,
    certificate_fractions,
    counted,
    from_sympy,
    reference_solve,
    to_sympy,
    translation_solution,
)
import sympy

X, Y = sympy.symbols("x y", real=True)

GOLDEN_CERTIFICATES = "9a1ccde7e29337f5583e88ef914c5e109e7e18909a8ca117f502452f2632d372"
GOLDEN_COMBINATIONS = "bf43771daf1e2e04176e74a9e6bd841cb26784e5d098cf3d0a4badd60daa8368"
# sha256 over every certificate of `lazy_grid`, as the eagerly built products gave it
GOLDEN_LAZY_GRID = "7425dd319a724ba7cf0f6cc2dd89d32198521c731e49d81c57ee8a6d982ae80b"
# sha256 of the products and of the combinations of `rng.dense_morse_germ` at
# `Xoshiro256StarStar(1)` and `level`
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
    products = cert.products
    lower = len(products) - 2 * len(multipliers)
    for i, (a, b) in enumerate(multipliers):
        shift = Poly.monomial(a, b)
        assert products[lower + 2 * i] == shift * pair.f * k
        assert products[lower + 2 * i + 1] == shift * pair.g * -k
    translations = []
    lower_zero = True
    for combo in certificate_fractions(cert):
        lower_zero &= not any(combo[:lower])
        top = combo[lower:]
        u = Poly(zip(multipliers, top[::2]))
        v = Poly(zip(multipliers, top[1::2]))
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
        records.append([[str(c) for c in combo] for combo in certificate_fractions(cert)])
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


class TestCertificateGolden:
    @pytest.mark.parametrize("level", sorted(GOLDEN_DENSE_MORSE))
    def test_dense_morse_certificate_unchanged(self, level):
        cert = check_determinacy(dense_morse_germ(Xoshiro256StarStar(1), level), level)
        assert cert.verdict
        products = json.dumps([format_poly(p) for p in cert.products])
        combinations = json.dumps([[str(c) for c in combo] for combo in certificate_fractions(cert)])
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
    """A certificate holds no product: the products are derived from its germ,
    level and cap, so a tampered product is a tampered germ, level or cap."""

    @pytest.fixture(scope="class")
    def cert(self):
        cert = check_determinacy(certify_germ(8), 13)
        assert cert.verdict and reverify_certificate(cert)
        return cert

    def test_changed_product_coefficient(self, cert):
        # the leading form reaches the top block, so its products change with it
        assert not reverify_certificate(cert._replace(germ=cert.germ + P("x^8")))

    def test_replaced_product(self, cert):
        # a germ of order 9 has fewer products, and the rows index past them
        replaced = cert.germ * P("x")
        assert len(cert._replace(germ=replaced).products) < len(cert.products)
        assert not reverify_certificate(cert._replace(germ=replaced))

    def test_swapped_germ(self, cert):
        assert not reverify_certificate(cert._replace(germ=harmonic_pair(8).g))

    def test_changed_combination_entry(self, cert):
        (numerators, den), *rest = cert.combinations
        j = next(iter(numerators))
        changed = {**numerators, j: numerators[j] * 2}
        assert not reverify_certificate(cert._replace(combinations=((changed, den), *rest)))

    def test_doubled_combination(self, cert):
        # sums to twice its monomial
        (numerators, den), *rest = cert.combinations
        doubled = {j: 2 * n for j, n in numerators.items()}
        assert not reverify_certificate(cert._replace(combinations=((doubled, den), *rest)))

    def test_swapped_combinations(self, cert):
        first, second, *rest = cert.combinations
        combinations = (second, first, *rest)
        assert not reverify_certificate(cert._replace(combinations=combinations))

    def test_shortened_combinations(self, cert):
        assert not reverify_certificate(cert._replace(combinations=cert.combinations[:-1]))

    def test_shortened_combination(self, cert):
        # one product of the first row dropped
        (numerators, den), *rest = cert.combinations
        shortened = dict(list(numerators.items())[:-1])
        assert not reverify_certificate(cert._replace(combinations=((shortened, den), *rest)))

    @pytest.mark.parametrize("value", (0.0, Decimal(0), 0.5), ids=("0.0", "Decimal(0)", "0.5"))
    def test_inexact_zero_entry_raises(self, cert, value):
        # every numerator is type-checked, a zero that the sum would skip too
        (numerators, den), *rest = cert.combinations
        zero = next(j for j in range(len(cert.products)) if j not in numerators)
        changed = {**numerators, zero: value}
        with pytest.raises(TypeError, match=f"not {type(value).__name__}"):
            reverify_certificate(cert._replace(combinations=((changed, den), *rest)))

    @pytest.mark.parametrize("level", (0, -1))
    def test_level_below_one(self, cert, level):
        # level -1 has no monomials, so nothing would be checked
        vacuous = cert._replace(level=level, combinations=())
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
            assert [products[i] for i in reversed(range(n))] == list(reversed(reference))
            products = lazy_products(germ, level, cap)
            assert [products[i] for i in range(n)] == list(reference)
            assert tuple(lazy_products(germ, level, cap)) == reference
            for index in (n, -1):
                with pytest.raises(IndexError):
                    lazy_products(germ, level, cap)[index]
            top = lazy_products(germ, level, cap).top
            assert top == [j for j, p in enumerate(reference) if p.order() == level]
            cert = check_determinacy(germ, level, max_multiplier_degree=cap)
            assert tuple(cert.products) == reference
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
                    [[str(c) for c in combo] for combo in certificate_fractions(cert)],
                    reverify_certificate(cert),
                ]
            )
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == GOLDEN_LAZY_GRID

    def test_certify_germ_builds_only_the_top_block(self, monkeypatch):
        germ, level = certify_germ(10), 17
        shifts = counted(monkeypatch, Poly, "shifts")
        cert = check_determinacy(germ, level)
        # one call per generator, both of order 9, at multiplier degree 17 - 9
        assert [args[1] for args in shifts] == [[8], [8]]
        products = cert.products
        assert products.top == list(range(len(products) - 18, len(products)))
        assert all(set(numerators) <= set(products.top) for numerators, _ in cert.combinations)
        shifts.clear()
        assert reverify_certificate(cert)
        assert [args[1] for args in shifts] == [[8], [8]]

    def test_uncovered_level_builds_every_block(self, monkeypatch):
        germ, level = degenerate_dense_germs(Xoshiro256StarStar(1), 24)[0], 24
        shifts = counted(monkeypatch, Poly, "shifts")
        cert = check_determinacy(germ, level)
        assert not cert.verdict and cert.missing == Poly.monomial(0, 24)
        # one call per generator of order e at each multiplier degree d with d + e <= level
        orders = [e for _, e in cert.products.generators]
        assert orders == [1, 2]
        assert sorted(args[1][0] for args in shifts) == sorted([*range(1, 24), *range(1, 23)])
        assert len(cert.products) == len(eager_products(germ, level, None))


class TestTamperedLazyCertificate:
    """Tampering that the lazy path must catch without building the blocks nobody reads."""

    def cert(self):
        cert = check_determinacy(certify_germ(10), 17)
        assert cert.verdict
        return cert

    def test_untampered(self):
        cert = self.cert()
        assert reverify_certificate(cert)
        # copied rows are the same certificate
        rows = tuple((dict(numerators), den) for numerators, den in cert.combinations)
        assert reverify_certificate(cert._replace(combinations=rows))

    def test_swapped_germ(self):
        assert not reverify_certificate(self.cert()._replace(germ=harmonic_pair(10).g))

    def test_changed_level(self):
        cert = self.cert()
        assert not reverify_certificate(cert._replace(level=16))
        # with one row per degree-16 monomial, the top rows index past the level-16 products
        assert not reverify_certificate(cert._replace(level=16, combinations=cert.combinations[:-1]))

    def test_changed_cap(self):
        cert = self.cert()
        # cap 7 drops the top block that the rows index
        assert not reverify_certificate(cert._replace(cap=7))
        # caps 8 and 9 keep every product, so they give the same certificate
        assert reverify_certificate(cert._replace(cap=8)) and reverify_certificate(cert._replace(cap=9))

    def test_replaced_top_product(self, monkeypatch):
        # x^10 changes the leading form, so every top product changes; only the top block is built
        shifts = counted(monkeypatch, Poly, "shifts")
        cert = self.cert()
        shifts.clear()
        assert not reverify_certificate(cert._replace(germ=cert.germ + P("x^10")))
        assert [args[1] for args in shifts] == [[8], [8]]

    def test_nonzero_coefficient_on_a_lower_product(self, monkeypatch):
        cert = self.cert()
        (numerators, den), *rest = cert.combinations
        assert min(numerators) >= cert.products.top[0]
        shifts = counted(monkeypatch, Poly, "shifts")
        assert not reverify_certificate(cert._replace(combinations=(({**numerators, 0: 1}, den), *rest)))
        # the row read product 0, so its block was built with the top block
        assert sorted(args[1] for args in shifts) == [[1], [1], [8], [8]]

    def test_inexact_zero_entry_on_an_unbuilt_block_raises(self, monkeypatch):
        cert = self.cert()
        (numerators, den), *rest = cert.combinations
        shifts = counted(monkeypatch, Poly, "shifts")
        with pytest.raises(TypeError, match="not float"):
            reverify_certificate(cert._replace(combinations=(({**numerators, 0: 0.0}, den), *rest)))
        assert shifts == []


def retyped(cert, rows):
    """`cert` with its combinations replaced by integer rows."""
    return cert._replace(combinations=tuple(rows))


class TestCombinationRows:
    def test_rows_are_positive_int_pairs(self):
        cases = list(lazy_grid()) + DEGENERATE_CASES
        cases += [(germ, 12, None) for germ in degenerate_dense_germs(Xoshiro256StarStar(1), 12)]
        verdicts = set()
        for germ, level, cap in cases:
            cert = check_determinacy(germ, level, max_multiplier_degree=cap)
            verdicts.add(cert.verdict)
            assert type(cert.combinations) is tuple
            assert len(cert.combinations) == (len(monomial_basis(level)) if cert.verdict else 0)
            width = len(cert.products)
            for row in cert.combinations:
                numerators, den = row
                assert type(row) is tuple and type(numerators) is dict
                assert type(den) is int and den > 0
                assert all(type(j) is int and 0 <= j < width for j in numerators)
                assert all(type(v) is int and v for v in numerators.values())
        assert verdicts == {True, False}

    def test_top_block_rows_read_only_top_products(self):
        cert = check_determinacy(certify_germ(10), 17)
        top = set(cert.products.top)
        assert all(set(numerators) <= top for numerators, _ in cert.combinations)

    def test_certify_operation_builds_no_fraction(self, monkeypatch):
        # the certify workload's operation: check, then re-verify, on f_k + tail
        for k in (8, 9, 10):
            germ, level = certify_germ(k, k - 8), 2 * k - 3
            made = []
            original = Fraction.__new__

            def counting(cls, *args, **kwargs):
                made.append(args)
                return original(cls, *args, **kwargs)

            monkeypatch.setattr(Fraction, "__new__", counting)
            cert = check_determinacy(germ, level)
            checked = list(made)
            assert reverify_certificate(cert)
            monkeypatch.undo()
            assert checked == [] and made == []
            assert cert.verdict and len(cert.combinations) == level + 1


class TestTamperedCombinationRows:
    """Tampering with the integer rows that re-verification reads as they are."""

    def cert(self):
        cert = check_determinacy(certify_germ(10), 17)
        assert cert.verdict
        return cert

    def rows(self, cert):
        # a copy, so each test tampers with its own rows
        return [(dict(numerators), den) for numerators, den in cert.combinations]

    def test_untampered(self):
        cert = self.cert()
        assert reverify_certificate(retyped(cert, self.rows(cert)))

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

    def test_zero_denominators(self):
        # an empty row sums to 0, which is den * monomial for den 0: only the den check refuses it
        cert = check_determinacy(harmonic_pair(6).f, 9)
        assert cert.verdict and reverify_certificate(cert)
        assert not reverify_certificate(retyped(cert, [({}, 0)] * len(cert.combinations)))

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

    def test_index_on_an_unbuilt_lower_product(self, monkeypatch):
        cert = self.cert()
        rows = self.rows(cert)
        rows[0][0][0] = 1
        shifts = counted(monkeypatch, Poly, "shifts")
        assert not reverify_certificate(retyped(cert, rows))
        # the row read that product, so its block was built with the top block
        assert sorted(args[1] for args in shifts) == [[1], [1], [8], [8]]

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

    @pytest.mark.parametrize(
        "shape",
        (lambda row: list(row), lambda row: row[:1], lambda row: (*row, 1), lambda row: (list(row[0].items()), row[1])),
        ids=("list", "no den", "triple", "items list"),
    )
    def test_row_of_another_shape_raises(self, shape):
        cert = self.cert()
        rows = self.rows(cert)
        rows[3] = shape(rows[3])
        with pytest.raises(TypeError, match=r"must be a \(dict, int\) pair"):
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
        # the number of products is set by the cap: cap 7 drops the top block the rows index
        cert = self.cert()
        assert len(cert._replace(cap=7).products) == cert.products.top[0]
        assert not reverify_certificate(retyped(cert, self.rows(cert))._replace(cap=7))


class TestArgumentChecks:
    @pytest.mark.parametrize("level", (9.0, Fraction(9), "9", None))
    def test_level_must_be_an_int(self, level):
        with pytest.raises(TypeError, match="level must be an int"):
            check_determinacy(certify_germ(6), level)

    @pytest.mark.parametrize("cap", (2.5, 2.0, "2"))
    def test_cap_must_be_an_int(self, cap):
        with pytest.raises(TypeError, match="max_multiplier_degree must be an int or None"):
            check_determinacy(certify_germ(6), 9, cap)

    @pytest.mark.parametrize("germ", (None, 2.0, "x^5"))
    def test_germ_must_be_a_poly(self, germ):
        # None used to be refused as the zero germ, and 2.0 to end in an AttributeError
        with pytest.raises(TypeError, match=f"h must be a Poly, not {type(germ).__name__}"):
            check_determinacy(germ, 5)

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
        with pytest.raises(TypeError, match="max_multiplier_degree must be an int or None"):
            reverify_certificate(cert._replace(cap=4.0))

    @pytest.mark.parametrize("cert", (None, (), "certificate"))
    def test_reverify_refuses_another_type(self, cert):
        with pytest.raises(TypeError, match="cert must be a DeterminacyCertificate"):
            reverify_certificate(cert)

    def test_reverify_germ_must_be_a_poly(self):
        cert = check_determinacy(certify_germ(6), 9)
        with pytest.raises(TypeError, match="h must be a Poly, not NoneType"):
            reverify_certificate(cert._replace(germ=None))


# The certificate as the library defines it, solved by `reference_solve`,
# a Gauss-Jordan on Fractions that shares no code with the integer
# kernel: one elimination of [products | monomials] per product set.


def reference_certificate(products, level):
    """(missing, combinations) by Fraction elimination. The top block, the
    products of order `level`, is solved first in the degree-`level`
    coordinates; when it covers every monomial it is the certificate and
    every other product gets coefficient zero. Otherwise all the products
    are solved in every degree 1..`level`: the first monomial outside their
    span is missing, or each monomial gets its canonical combination."""
    monomials = [Poly.monomial(a, b) for a, b in monomial_basis(level)]
    top = [j for j, p in enumerate(products) if p.order() == level]
    missing, solved = reference_solve([products[j] for j in top], monomials, monomial_basis(level))
    if missing is None:
        combinations = []
        for solution in solved:
            combination = [Fraction(0)] * len(products)
            for j, c in zip(top, solution):
                combination[j] = c
            combinations.append(tuple(combination))
        return None, tuple(combinations)
    basis = [exps for d in range(1, level + 1) for exps in monomial_basis(d)]
    missing, solved = reference_solve(list(products), monomials, basis)
    if missing is not None:
        return monomials[missing], ()
    return None, tuple(solved)


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
        cases += [(dense_morse_germ(Xoshiro256StarStar(1), level), level, None) for level in (8, 10, 12)]
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
            missing, combinations = reference_certificate(tuple(cert.products), level)
            assert cert.missing == missing
            assert cert.verdict == (missing is None)
            assert certificate_fractions(cert) == combinations
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
        [(dense_morse_germ(Xoshiro256StarStar(1), level), level) for level in (12, 16, 20)]
        + DENSE_LOW_ORDER,
    )
    def test_dependent_spanning_top_block_is_the_certificate(self, monkeypatch, germ, level):
        rrefs = counted(monkeypatch, linalg, "rref")
        cert = check_determinacy(germ, level)
        assert len(rrefs) == 1 and len(rrefs[0][0]) <= level + 1
        top = [p.order() == level for p in cert.products]
        # more products than degree-`level` monomials, so the block is dependent
        assert sum(top) > level + 1
        for numerators, _ in cert.combinations:
            assert all(top[j] for j in numerators)
        assert reverify_certificate(cert)

    @pytest.mark.parametrize(
        "germ, level, cap",
        [(P("x^2*y^2"), level, None) for level in (4, 5, 6)]
        + [
            (degenerate_dense_germs(Xoshiro256StarStar(1), 12)[0], 12, None),
            (P("3*x^2 - 3*y^2 + 3*x^2*y - 2*y^3"), 3, 1),
        ],
    )
    def test_uncovered_level_solves_once(self, monkeypatch, germ, level, cap):
        # the row echelon of all the products decides; only the top block is solved
        solves = counted(monkeypatch, linalg, "solve_canonical")
        cert = check_determinacy(germ, level, max_multiplier_degree=cap)
        assert not cert.verdict and len(solves) == 1

    @pytest.mark.parametrize(
        "germ, level",
        [(P("(x + y)^3 + x^5"), 6), (degenerate_dense_germs(Xoshiro256StarStar(1), 12)[1], 12)],
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
