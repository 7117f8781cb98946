import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harmgerm.polyring
from harmgerm.harmonic import harmonic_pair
from harmgerm.polyring import (
    X,
    Poly,
    PolyParseError,
    _decimal,
    _Parser,
    format_poly,
    format_scalar,
    laplacian,
    laplacian_power,
    linear_combination,
    monomial_basis,
    parse_poly,
)
from harmgerm.rng import Xoshiro256StarStar, derive_seed, random_homogeneous

from conftest import counted, oracle_harmonic, oracle_laplacian, read_digits


coefficients = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=12)
)
exponents = st.tuples(st.integers(0, 6), st.integers(0, 6))
term_maps = st.dictionaries(exponents, coefficients, max_size=8)
polys = term_maps.map(Poly)
# small enough that any power up to the 12th stays within the parser's work budget
small_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients, max_size=6).map(Poly)


class TestParse:
    def test_difference_of_squares(self):
        assert parse_poly("x^2 - y^2") == Poly({(2, 0): 1, (0, 2): -1})

    def test_rational_coefficient(self):
        assert parse_poly("3/2*x*y") == Poly({(1, 1): Fraction(3, 2)})

    def test_like_terms_collect(self):
        assert parse_poly("x + x") == Poly({(1, 0): 2})

    def test_monomial_order_free(self):
        assert parse_poly("y^2*x") == parse_poly("x*y^2")

    def test_error_carries_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x^2 + @")
        assert err.value.position == 6

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolyParseError, match="negative exponent"):
            parse_poly("x^-1")

    def test_empty_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("   ")

    def test_deep_nesting_rejected(self):
        with pytest.raises(PolyParseError, match="nested deeper") as err:
            parse_poly("(" * 3000 + "x" + ")" * 3000)
        assert err.value.position == 100

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("1" * 5000 + "*x^2", "numeral longer than 600 digits", 0),
            ("1/" + "7" * 601, "numeral longer than 600 digits", 2),
            ("x^" + "9" * 5000, "exponent exceeds 1000000", 2),
            ("x^" + "0" * 4999 + "1000001", "exponent exceeds 1000000", 2),
        ],
        ids=["numeral", "denominator", "exponent", "zero-padded exponent"],
    )
    def test_overlong_numbers_rejected(self, text, message, position):
        with pytest.raises(PolyParseError, match=message) as err:
            parse_poly(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text, position",
        [("x^2\u0661", 3), ("\uff11*x", 0), ("x^2\u3000+ y^2", 3), ("3\u00a0x", 1)],
        ids=["arabic-indic digit", "fullwidth digit", "ideographic space", "no-break space"],
    )
    def test_non_ascii_digit_or_space_rejected(self, text, position):
        with pytest.raises(PolyParseError, match="unexpected character") as err:
            parse_poly(text)
        assert err.value.position == position

    def test_unicode_minus_still_reads_as_minus(self):
        assert parse_poly("\u2212x^2 \u2212 3*y") == parse_poly("-x^2 - 3*y")

    def test_leading_zeros_do_not_count(self):
        assert parse_poly("0" * 5000 + "3*x^" + "0" * 5000 + "1") == parse_poly("3*x")
        assert parse_poly("1/" + "0" * 5000 + "2") == parse_poly("1/2")
        assert parse_poly("7" * 600) == Poly.constant(int("7" * 600))

    def test_moderate_nesting_parses(self):
        assert parse_poly("(" * 50 + "x + y" + ")" * 50 + "^2") == parse_poly("x^2 + 2*x*y + y^2")

    def test_parenthesised_products(self):
        assert parse_poly("x^2*(x^4 - 6*x^2*y^2 + y^4)") == parse_poly(
            "x^6 - 6*x^4*y^2 + x^2*y^4"
        )

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(x+y+1)^128", 6),
            ("(x+y+1)^40*(x-y+1)^40", 11),
            ("(x+y+1)^40 (x-y+1)^40", 11),
            ("*".join(["(x+y)^128"] * 40), 70),
            ("(x+y+1)*" * 128 + "(x+y+1)", 792),
        ],
        ids=["power", "product", "adjacency", "forty factors", "linear factors"],
    )
    def test_grouped_sum_expansion_capped(self, text, position):
        # a power or product of sums is charged its cost before it is expanded
        with pytest.raises(PolyParseError, match="work budget of 268435456 exceeded") as err:
            parse_poly(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(x)^129", Poly.monomial(129, 0)),
            ("(2*x)^200", Poly.monomial(200, 0, 2**200)),
            ("(x^2*y)^100", Poly.monomial(200, 100)),
            ("(-1/3*x)^1001", Poly.monomial(1001, 0, Fraction(-1, 3**1001))),
            # 2^255124 has 255125 bits, as many as the cap allows
            ("(2*x)^255124", Poly.monomial(255124, 0, 2**255124)),
        ],
    )
    def test_one_term_group_is_not_degree_capped(self, text, expected):
        # a single term stays sparse at any exponent, as x^129 does
        assert parse_poly(text) == expected

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(9)^1000000", 2),
            ("(1/5)^1000000", 4),
            ("(2)^255125", 2),
            ("((9)^1000000)^1000000", 3),
            ("((3)^1000)^1000", 9),
        ],
    )
    def test_constant_group_power_capped(self, text, position):
        # each square and product of a power is checked as it is built, so a
        # constant's power stops a squaring or two past the cap
        with pytest.raises(PolyParseError, match="coefficient exceeds 255125 bits") as err:
            parse_poly(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(1)^1000000", Poly.constant(1)),
            ("(-1)^999999", Poly.constant(-1)),
            ("(0)^1000000", Poly.zero()),
            ("(2/3)^2", Poly.constant(Fraction(4, 9))),
            ("(2)^255124", Poly.constant(2**255124)),
        ],
    )
    def test_constant_group_power_within_the_cap_parses(self, text, expected):
        assert parse_poly(text) == expected

    @pytest.mark.parametrize(
        "text, position",
        [
            ("*".join(["(3)^255124"] * 10) + "*x", 2),
            ("(2)^255000*(2)^125", 11),
            ("(2)^255124*2", 11),
            ("(1/2)^255000*(1/2)^125*x", 13),
            ("x*(2)^200000*y*(2)^55125", 15),
            ("*".join(["9" * 600] * 129), 128 * 601),
        ],
    )
    def test_product_coefficient_capped(self, text, position):
        # each product is checked as built: its largest numerator and its denominator
        with pytest.raises(PolyParseError, match="coefficient exceeds 255125 bits") as err:
            parse_poly(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(2)^255000*(2)^124", Poly.constant(2**255124)),
            ("(1/2)^255000*(1/2)^124*x", Poly.monomial(1, 0) / 2**255124),
            ("(1/2)^255124*(2)^255124", Poly.constant(1)),
            ("*".join(["9" * 600] * 128), Poly.constant((10**600 - 1) ** 128)),
            ("(x+y)^128*(2)^255000", parse_poly("(x+y)^128") * 2**255000),
        ],
    )
    def test_product_coefficient_within_the_cap_parses(self, text, expected):
        # exactly at the cap, in a numerator or in a denominator
        assert parse_poly(text) == expected

    @pytest.mark.parametrize("text", ["(9*x)^1000000", "(1/5*x)^1000000", "(2*x)^255125"])
    def test_one_term_group_coefficient_capped(self, text):
        # 255125 bits: a 600-digit numeral to the 128th power
        assert _Parser.MAX_GROUP_BITS == ((10**600 - 1) ** 128).bit_length()
        with pytest.raises(PolyParseError, match="coefficient exceeds 255125 bits"):
            parse_poly(text)

    def test_grouped_sum_expansion_at_the_cap_parses(self):
        assert parse_poly("(x+y)^64*(x-y)^64") == parse_poly("(x^2-y^2)^64")
        # a monomial factor keeps a product sparse at any degree
        assert parse_poly("x^1000*(x+y)^128*y^1000") == Poly.monomial(1000, 1000) * parse_poly("(x+y)^128")

    LINEAR_CHAIN = "*".join(f"(x+{i})" for i in range(1, 129))

    @pytest.mark.parametrize(
        "text",
        [
            "+".join(["(x+y)^128"] * 64),
            "+".join(["(x+y)^64*(x-y)^64"] * 32),
            # 127 products of sums, of degrees 2, 3, ..., 128
            LINEAR_CHAIN,
            "+".join(["((x+y)^2)^64"] * 63),
            # one-term groups and groups to the first power cost little
            "+".join(["(2*x)^128"] * 1000) + "+" + "+".join(["(x+y)^128"] * 64),
            "+".join(["x^2*(x^4 - 6*x^2*y^2 + y^4)"] * 1000) + "+" + "+".join(["(x+y)^128"] * 64),
            "(x+y)^1000",
        ],
        ids=["powers", "products", "linear_chain", "nested", "one_term_groups", "first_powers", "long_power"],
    )
    def test_expanded_degrees_within_the_budget_parse(self, text):
        assert isinstance(parse_poly(text), Poly)

    @pytest.mark.parametrize(
        "text, position",
        [
            # at the closing parenthesis of a power, at the second factor of a product
            ("+".join(["(x+y)^128"] * 200), 90 * 10 + 4),
            ("+".join(["(x+y)^64*(x-y)^64"] * 100), 71 * 18 + 9),
            (LINEAR_CHAIN + "+(x+y+1)^128", len(LINEAR_CHAIN) + 7),
            # (x+y+1)^75 alone parses
            ("(x+y+1)^75+" + LINEAR_CHAIN, 639),
            ("+".join(["((x+y)^2)^64"] * 200), 90 * 13 + 8),
        ],
        ids=["powers", "products", "linear_chain_then_power", "power_then_linear_chain", "nested"],
    )
    def test_expanded_degrees_past_the_budget_are_refused(self, text, position):
        # the products of all of an input's powers and products share one budget
        with pytest.raises(PolyParseError, match="work budget of 268435456 exceeded") as err:
            parse_poly(text)
        assert err.value.position == position

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(x+y)^129", parse_poly("x+y") ** 129),
            ("(x+y)^64*(x-y)^65", parse_poly("x+y") ** 64 * parse_poly("x-y") ** 65),
            ("(x+y)^64 (x-y)^65", parse_poly("x+y") ** 64 * parse_poly("x-y") ** 65),
            ("(x+y)*" * 128 + "(x+y)", parse_poly("x+y") ** 129),
            ("+".join(["(x+y)^128"] * 65), parse_poly("x+y") ** 128 * 65),
            ("+".join(["(x+y)^64*(x-y)^64"] * 33), parse_poly("x^2-y^2") ** 64 * 33),
            (LINEAR_CHAIN + "+(x+y)^2", parse_poly(LINEAR_CHAIN) + parse_poly("x+y") ** 2),
            ("(x+y)^2+" + LINEAR_CHAIN, parse_poly(LINEAR_CHAIN) + parse_poly("x+y") ** 2),
            ("+".join(["((x+y)^2)^64"] * 64), parse_poly("x+y") ** 128 * 64),
            ("(x+y+1)^75", parse_poly("x+y+1") ** 75),
        ],
        ids=[
            "power",
            "product",
            "adjacency",
            "linear_factors",
            "powers",
            "products",
            "linear_chain_then_power",
            "power_then_linear_chain",
            "nested",
            "largest_trinomial_power",
        ],
    )
    def test_cheap_expansions_past_degree_128_parse(self, text, expected):
        # the budget charges what a product costs, whatever its degree
        assert parse_poly(text) == expected

    @pytest.mark.parametrize(
        "text, position",
        [
            ("(3)^255124", 2),
            ("(3*x)^255124", 4),
            ("(2)^255124+(2)^255124", 0),
            ("x+((2)^255124+(2)^255124)", 3),
        ],
    )
    def test_coefficient_cap_checks_the_bits_built(self, text, position):
        # 3^255124 has 404362 bits; a sum of two 255125-bit terms has 255126
        with pytest.raises(PolyParseError, match="coefficient exceeds 255125 bits") as err:
            parse_poly(text)
        assert err.value.position == position

    @given(small_polys, small_polys, st.integers(0, 12))
    @example(Poly.zero(), Poly.constant(Fraction(-2, 3)), 0)
    @example(Poly.constant(Fraction(-2, 3)), Poly.zero(), 12)
    @settings(max_examples=60, deadline=None)
    def test_metered_products_and_powers_match_poly_arithmetic(self, a, b, e):
        # Poly.__pow__ and Poly.__mul__ are the reference
        assert parse_poly(f"({format_poly(a)})^{e}") == a**e
        assert parse_poly(f"({format_poly(a)})*({format_poly(b)})") == a * b

    def test_refused_multiplication_never_runs(self, monkeypatch):
        # squaring x + y and then (x+y)^2 costs 4 + 9 pairs and 6*6 + 8*8 digit
        # products; the budget ends there, so (x+y)^8 is never computed
        calls = counted(monkeypatch, harmgerm.polyring, "poly_mul")
        budget = 13 * _Parser.PAIR_WORK + 100
        monkeypatch.setattr(_Parser, "MAX_WORK", budget)
        with pytest.raises(PolyParseError, match=f"work budget of {budget} exceeded") as err:
            parse_poly("(x+y)^64")
        assert (len(calls), err.value.position) == (2, 4)
        calls.clear()
        monkeypatch.setattr(_Parser, "MAX_WORK", 3 * _Parser.PAIR_WORK)
        with pytest.raises(PolyParseError, match="work budget") as err:
            parse_poly("(x+y)*(x-y)")
        assert (len(calls), err.value.position) == (0, 6)

    @given(st.text(alphabet="xy0123456789+-*/^() ", max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        # every input either parses to a Poly or raises the parse error
        try:
            result = parse_poly(text)
        except PolyParseError:
            return
        assert isinstance(result, Poly)


class TestArith:
    def test_difference_of_squares_product(self):
        assert parse_poly("x^2 - y^2") * parse_poly("x^2 + y^2") == parse_poly("x^4 - y^4")

    def test_additive_identity(self):
        p = parse_poly("x^3 - 3*x*y^2")
        assert p + Poly.zero() == p

    def test_cancellation(self):
        p = parse_poly("x + y")
        assert p - p == Poly.zero()
        assert not (p - p)

    def test_scale(self):
        assert parse_poly("x + y") * Fraction(1, 2) == parse_poly("1/2*x + 1/2*y")


def reference_mul(p, q, cap=None):
    """Product of two Fraction term maps, term by term."""
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            if cap is None or sum(key) <= cap:
                out[key] = out.get(key, 0) + c1 * c2
    return out


def assert_canonical(p, expected):
    """p is in lowest terms over a positive denominator and has the expected terms."""
    assert p._den >= 1
    assert all(p._num.values())
    assert math.gcd(p._den, *p._num.values()) == 1
    assert dict(p.terms()) == {key: c for key, c in expected.items() if c}


class TestRepresentation:
    @given(term_maps, term_maps, coefficients, st.integers(0, 12), exponents)
    @settings(max_examples=150, deadline=None)
    def test_every_operation_stays_canonical(self, p, q, c, d, shift):
        pp, qq = Poly(p), Poly(q)
        assert_canonical(pp, p)
        keys = set(p) | set(q)
        assert_canonical(pp + qq, {k: p.get(k, 0) + q.get(k, 0) for k in keys})
        assert_canonical(pp - qq, {k: p.get(k, 0) - q.get(k, 0) for k in keys})
        assert_canonical(-pp, {k: -v for k, v in p.items()})
        assert_canonical(pp * qq, reference_mul(p, q))
        assert_canonical(pp.mul_truncated(qq, d), reference_mul(p, q, d))
        assert_canonical(pp.shifted(*shift), reference_mul(p, {shift: 1}))
        assert_canonical(pp.shifted(*shift, d), reference_mul(p, {shift: 1}, d))
        for degree, products in zip(range(4), pp.shifts(range(4), d)):
            expected = [reference_mul(p, {key: 1}, d) for key in monomial_basis(degree)]
            # every shift of one degree keeps the same terms, so all or none are zero
            assert len(products) == (len(expected) if any(any(e.values()) for e in expected) else 0)
            for product, terms in zip(products, expected):
                assert_canonical(product, terms)
        third = Fraction(-1, 3)
        assert_canonical(
            linear_combination([(c, pp), (third, qq), (0, pp)]),
            {k: c * p.get(k, 0) + third * q.get(k, 0) for k in keys},
        )
        assert_canonical(pp.scale(c), {k: v * c for k, v in p.items()})
        assert_canonical(pp.diff("x"), {(a - 1, b): v * a for (a, b), v in p.items() if a})
        assert_canonical(pp.diff("y"), {(a, b - 1): v * b for (a, b), v in p.items() if b})
        assert_canonical(pp.truncate(d), {k: v for k, v in p.items() if sum(k) <= d})
        assert_canonical(pp.graded_component(d), {k: v for k, v in p.items() if sum(k) == d})

    def test_scaling_cancels_the_denominator(self):
        third = Poly({(1, 0): Fraction(1, 3)})
        assert third * 3 == X
        assert hash(third * 3) == hash(X)

    def test_difference_with_itself_is_zero_over_one(self):
        p = parse_poly("1/6*x + 5/4*y^2")
        assert p - p == Poly.zero()
        assert (p - p)._den == 1

    def test_equal_constants_share_one_form(self):
        assert Poly.constant(Fraction(2, 4)) == Poly.constant(Fraction(1, 2))

    def test_truncated_shift_divides_out_the_exposed_content(self):
        # x^3/6 + 2x/3 is (x^3 + 4x)/6; dropping x^4 leaves 4x^2/6
        shifted = parse_poly("1/6*x^3 + 2/3*x").shifted(1, 0, 3)
        assert shifted == Poly.monomial(2, 0, Fraction(2, 3))
        assert shifted._den == 3
        products = next(parse_poly("1/6*x^3 + 2/3*x").shifts([1], 3))
        assert products == [shifted, Poly.monomial(1, 1, Fraction(2, 3))]
        assert [p._den for p in products] == [3, 3]

    def test_empty_linear_combination_is_zero(self):
        assert linear_combination([]) == Poly.zero()
        assert linear_combination([(0, X), (5, Poly.zero())]) == Poly.zero()


class TestExactInputsOnly:
    """A float coefficient or exponent would be silently inexact: TypeError."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Poly({(1, 0): 0.1}),
            lambda: Poly([((1, 0), 0.1)]),
            lambda: Poly({(1.5, 0): 1}),
            lambda: Poly({(0, 2.0): 1}),
            lambda: Poly.monomial(1, 0, 0.5),
            lambda: X.scale(0.1),
            lambda: X * 0.5,
            lambda: 0.5 * X,
            lambda: X / 0.5,
            lambda: X / "2",
            lambda: X.shifted(1.0, 0),
            lambda: X.shifted(0, 2.0, 3),
            lambda: linear_combination([(0.5, X)]),
            lambda: linear_combination([(0.0, X)]),
            lambda: linear_combination([(Decimal(0), X)]),
        ],
    )
    def test_inexact_input_is_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            X.shifted(-1, 0)

    def test_exact_inputs_still_accepted(self):
        assert Poly({(1, 0): Fraction(1, 10)}) == X.scale(Fraction(1, 10)) == X / 10
        assert X.scale(3) == X * 3 == 3 * X == Poly({(1, 0): 3})
        assert X.scale(0) == Poly.zero()


class TestMonomialConstructors:
    """Poly.monomial and Poly.constant wrap an int coefficient at valid int
    exponents directly; every other input goes through Poly(...)."""

    @given(
        st.integers(0, 40),
        st.integers(0, 40),
        st.one_of(st.integers(-(10**30), 10**30), coefficients, st.booleans()),
    )
    @settings(max_examples=150, deadline=None)
    def test_equal_to_the_general_constructor(self, a, b, c):
        general = Poly({(a, b): c})
        assert_canonical(Poly.monomial(a, b, c), {(a, b): c})
        assert Poly.monomial(a, b, c) == general
        assert hash(Poly.monomial(a, b, c)) == hash(general)
        assert Poly.constant(c) == Poly({(0, 0): c})
        assert_canonical(Poly.constant(c), {(0, 0): c})

    @pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (-2, 3)])
    @pytest.mark.parametrize("c", [1, 0, Fraction(1, 2)])
    def test_negative_exponent_rejected(self, a, b, c):
        with pytest.raises(ValueError, match="negative exponent"):
            Poly.monomial(a, b, c)

    @pytest.mark.parametrize("c", [0.5, 0.0, 2.0])
    def test_float_coefficient_is_a_type_error(self, c):
        with pytest.raises(TypeError):
            Poly.monomial(1, 2, c)
        with pytest.raises(TypeError):
            Poly.constant(c)
        with pytest.raises(TypeError):
            Poly.monomial(c, 0)

    def test_bool_coefficient_reads_as_its_int(self):
        assert Poly.monomial(2, 1, True) == Poly.monomial(2, 1) == parse_poly("x^2*y")
        assert Poly.monomial(2, 1, False) == Poly.zero()
        assert Poly.constant(True) == Poly.constant(1)

    def test_zero_coefficient_is_the_zero_polynomial(self):
        for zero in (Poly.monomial(3, 4, 0), Poly.constant(0), Poly.constant(Fraction(0))):
            assert zero == Poly.zero() and not zero._num and zero._den == 1


class TestCalculus:
    def test_partial_x(self):
        assert parse_poly("x^3 - 3*x*y^2").diff("x") == parse_poly("3*x^2 - 3*y^2")

    def test_partial_y(self):
        assert parse_poly("x^3 - 3*x*y^2").diff("y") == parse_poly("-6*x*y")

    def test_partial_of_constant(self):
        assert Poly.constant(7).diff("x") == Poly.zero()

    def test_laplacian_x4(self):
        assert laplacian(parse_poly("x^4")) == parse_poly("12*x^2")

    def test_laplacian_r2(self):
        assert laplacian(parse_poly("x^2 + y^2")) == Poly.constant(4)

    def test_degree_three_harmonic(self):
        assert laplacian(parse_poly("x^3 - 3*x*y^2")) == Poly.zero()

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_laplacian_matches_sympy(self, p):
        assert laplacian(p) == oracle_laplacian(p)


class TestLaplacianPower:
    """The closed form against s applications of the diff-based Laplacian."""

    @given(
        st.integers(0, 12),
        st.dictionaries(
            st.tuples(st.integers(0, 16), st.integers(0, 16)),
            st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 3, 7, 9, 21, 63))),
            min_size=2,
            max_size=10,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_repeated_laplacian(self, s, terms):
        p = Poly(terms)
        expected = p
        for _ in range(s):
            expected = laplacian(expected)
        assert laplacian_power(p, s) == expected

    @pytest.mark.parametrize("s", range(13))
    def test_non_homogeneous_over_3_7_9(self, s):
        p = parse_poly("1/3*x^14*y^9 - 2/7*x^3*y^12 + 5/9*y^24 + 4/9*x^11*y^11 + x*y")
        assert not p.is_homogeneous()
        expected = p
        for _ in range(s):
            expected = laplacian(expected)
        assert laplacian_power(p, s) == expected


class TestGradingAndOrder:
    def test_graded_component(self):
        p = parse_poly("x^2 + x^3")
        assert p.graded_component(2) == parse_poly("x^2")
        assert p.graded_component(5) == Poly.zero()
        q = parse_poly("x^2*y + x*y^2")
        assert q.graded_component(3) == q

    def test_order(self):
        assert parse_poly("x^3 + y^5").order() == 3
        assert Poly.zero().order() == math.inf

    def test_order_of_expanded_power(self):
        # oracle: expand Re(x+iy)^5 independently
        f5, _ = oracle_harmonic(5)
        assert f5 == parse_poly("x^5 - 10*x^3*y^2 + 5*x*y^4")
        assert f5.order() == 5

    def test_monomial_basis_order(self):
        assert monomial_basis(2) == ((2, 0), (1, 1), (0, 2))
        assert monomial_basis(-1) == ()


class TestProperties:
    @given(polys, polys)
    @settings(max_examples=50, deadline=None)
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(polys, polys, polys)
    @settings(max_examples=30, deadline=None)
    def test_associativity_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys, coefficients, coefficients)
    @settings(max_examples=40, deadline=None)
    def test_laplacian_linear(self, p, alpha, beta):
        q = Poly({(1, 1): 1, (3, 0): -2})
        lhs = laplacian(p * alpha + q * beta)
        assert lhs == laplacian(p) * alpha + laplacian(q) * beta

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_format_parse_roundtrip(self, p):
        assert parse_poly(format_poly(p)) == p

    @given(st.integers(2, 9), st.data())
    @settings(max_examples=30, deadline=None)
    def test_homogeneous_laplacian_drops_degree(self, k, data):
        coeffs = data.draw(
            st.lists(coefficients, min_size=k + 1, max_size=k + 1)
        )
        p = Poly({exps: c for exps, c in zip(monomial_basis(k), coeffs)})
        lp = laplacian(p)
        assert not lp or (lp.is_homogeneous() and lp.degree() == k - 2)

    @pytest.mark.parametrize("k", (8, 16, 24))
    def test_dense_germ_roundtrip(self, k):
        rng = Xoshiro256StarStar(derive_seed(2016, k))
        germ = harmonic_pair(k).f
        for d in range(k + 1, 2 * k - 2):
            germ = germ + random_homogeneous(rng, d) / rng.randint(1, 9)
        assert parse_poly(format_poly(germ)) == germ

    def test_canonical_string(self):
        f5 = parse_poly("5*x*y^4 - 10*x^3*y^2 + x^5")
        assert str(f5) == "x^5 - 10*x^3*y^2 + 5*x*y^4"
        assert str(Poly.zero()) == "0"
        assert str(parse_poly("-x^2 + y^2")) == "-x^2 + y^2"


class TestExactDecimal:
    """Ints longer than str()'s default 4300-digit limit format exactly."""

    def test_coefficient_beyond_the_str_limit(self):
        text = format_poly(Poly({(1, 0): 10**4400 + 1}))
        assert text == "1" + "0" * 4399 + "1*x"

    def test_fraction_beyond_the_str_limit(self):
        p = Poly({(0, 2): Fraction(-(3**9000), 7**6000 * 2)})
        text = format_poly(p)
        assert text.startswith("-") and text.endswith("*y^2")
        num, den = text[1:-4].split("/")
        assert (read_digits(num), read_digits(den)) == (3**9000, 7**6000 * 2)

    @pytest.mark.parametrize("digits", (511, 512, 513, 1024, 1025, 2048, 4300, 4301, 9000))
    def test_digit_counts_at_chunk_boundaries(self, digits):
        for n in (10 ** (digits - 1), 10**digits - 1, 10 ** (digits - 1) + 7 * 10 ** (digits // 2)):
            text = _decimal(n)
            assert len(text) == digits and read_digits(text) == n

    def test_signed_scalars(self):
        assert format_scalar(-(10**5000)) == "-1" + "0" * 5000
        assert format_scalar(Fraction(-3, 10**4400)) == "-3/1" + "0" * 4400
        assert format_scalar(7) == "7" and format_scalar(Fraction(0)) == "0"

    @given(st.integers(0, 10**3000))
    @settings(max_examples=60, deadline=None)
    def test_matches_str(self, n):
        assert _decimal(n) == str(n)
