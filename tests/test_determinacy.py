import hashlib
import json
from fractions import Fraction
from typing import Sequence

import pytest

from harmgerm import determinacy, graded, linalg, polyring, zcoords
from harmgerm.determinacy import (
    check_determinacy,
    determined_bound_report,
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
# they need the elimination over every degree.
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
        check_determinacy(germ, level)
        assert len(rrefs) == 1

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
