"""Finite-determinacy certificates via the Jacobian-ideal criterion.

A germ h is L-determined when every perturbation by terms of order
above L can be removed by a change of coordinates. A sufficient
criterion: the degree-L slice of the maximal ideal is contained in
m * J_h modulo terms of order above L, where J_h is generated by the
partial derivatives of h. Truncating at degree L makes this a finite
exact rank computation: multiplier monomials of degree above
L - order(h) + 1 only produce terms that the truncation kills, so a
finite product set exhibits the span.

The truncated products are graded by their order. Those of order
exactly L (the top block) are homogeneous of degree L, so one small
elimination in the L + 1 degree-L coordinates runs first. A top block
that spans every degree-L monomial is the certificate by itself (the
semi-quasihomogeneous argument of Arnold, Gusein-Zade & Varchenko,
Singularities of Differentiable Maps I, section 12; Wall, "Finite
determinacy of smooth map-germs", Bull. LMS 1981). Otherwise one row
echelon form of all the products, in every degree 1..L, decides: a
degree-L monomial lies in their span exactly when one of the reduced
rows is its unit row.

The products are built one multiplier-degree block at a time, when a
check first reads one of them (`TruncatedMultiples`). A spanning top
block is the certificate and gives every other product coefficient
zero, so neither `check_determinacy` nor `reverify_certificate` builds
the lower blocks then; the row echelon reads them all.

The combinations stay as the solve wrote them (`CombinationRows`): one
integer row per degree-L monomial, numerators keyed by product index over
one positive denominator. A row reads as its tuple of Fraction
coefficients only when it is read, and re-verification checks each row
as one integer sum, sum_j n_j * p_j == den * monomial, with no Fraction
arithmetic.

A True verdict certifies determinacy; False means the criterion is
inconclusive, never a disproof.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, compress, islice
from typing import Iterator, NamedTuple

from . import linalg
from .harmonic import harmonic_pair
from .polyring import (
    InputError,
    Poly,
    Scalar,
    check_scalars,
    integer_combination,
    integer_coordinates,
    monomial_basis,
)


def jacobian_generators(h: Poly) -> tuple[Poly, Poly]:
    """The two generators of the Jacobian ideal: (dh/dx, dh/dy)."""
    return h.diff("x"), h.diff("y")


class DeterminacyCertificate(NamedTuple):
    """Outcome of the criterion at one level.

    `products` is the exhibited spanning set: the nonzero truncations of
    monomial multiples of the two Jacobian generators, as a
    `TruncatedMultiples`, which builds a block of them only when one of
    its products is read. It compares, indexes and hashes like the tuple
    of its products, and such a tuple is accepted in its place. verdict True
    means every degree-`level` monomial lies in their span, so the germ
    is `level`-determined, and `combinations` holds one coefficient
    tuple per degree-`level` monomial (x-exponent descending): the
    RREF-canonical combination (free coefficients zero) that equals that
    monomial. When the top block (the products of order `level`) spans
    the monomials, the combinations are those of the top block alone and
    every product outside it gets coefficient zero; otherwise they are
    those of all the products. When False, `missing` holds the first
    uncovered monomial, the first whose unit row is not among the
    reduced rows of all the products, and `combinations` is empty.

    `combinations` is a `CombinationRows`: the solve's integer rows, one
    (numerators by product index, positive den) per monomial. It reads
    like the tuple of Fraction tuples, building a row's Fractions only
    when that row is read, and such a tuple is accepted in its place.
    """

    germ: Poly
    level: int
    products: Sequence[Poly]
    verdict: bool
    missing: Poly | None
    combinations: Sequence[tuple[Fraction, ...]]


def _ordered_generators(h: Poly) -> list[tuple[Poly, int]]:
    """(generator, order) for each nonzero Jacobian generator of h."""
    return [(gen, gen.order()) for gen in jacobian_generators(h) if gen]


class _LazyTuple(Sequence):
    """Reads like the tuple of its items, each made only when it is read.

    A subclass gives `__len__` and `_item(i)` for 0 <= i < len; this class
    adds the rest of the tuple protocol: indexing (negative indices too),
    slices (which return tuples), iteration, `==` with a tuple in either
    order, and the tuple's `hash`.
    """

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._item, range(*index.indices(len(self)))))
        n = len(self)
        if not -n <= index < n:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._item(index % n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _LazyTuple)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


class TruncatedMultiples(_LazyTuple):
    """The truncated products x^a*y^b * gen at `level`, built one block at a time.

    `generators` is `_ordered_generators(h)`. Multipliers run over
    1 <= a+b <= `cap` (None: every degree that can still contribute below
    the truncation), so a capped sequence is a prefix of the uncapped one.
    Block d holds the products of the multipliers of degree d,
    x-exponent descending, and for each multiplier one product per
    generator that d leaves a term of: with a generator of order e the
    product has order d + e, and it is zero once d + e exceeds `level`.
    Each block is one `Poly.shifts([d], level)` call per generator, made
    the first time one of its products is read, so a caller that reads
    only the top block (`top`) builds nothing else.
    """

    def __init__(self, generators: Sequence[tuple[Poly, int]], level: int, cap: int | None = None):
        self.generators = tuple(generators)
        self.level = level
        self.cap = cap
        orders = [e for _, e in self.generators]
        last = level - min(orders, default=level)
        if cap is not None:
            last = min(last, cap)
        # (d, start, stop, generator indices) per block. d leaves a term of the
        # lowest-order generator, so no block is empty and its first slot tells if it is built
        self._blocks = []
        self.top = []
        start = 0
        for d in range(1, last + 1):
            kept = [g for g, e in enumerate(orders) if d + e <= level]
            layout = [orders[g] for g in kept] * (d + 1)
            self.top += [start + j for j, e in enumerate(layout) if d + e == level]
            self._blocks.append((d, start, start + len(layout), kept))
            start += len(layout)
        self._starts = [start for _, start, _, _ in self._blocks]
        self._products: list[Poly | None] = [None] * start

    def _build(self, block: int) -> None:
        d, start, stop, kept = self._blocks[block]
        shifts = [next(self.generators[g][0].shifts([d], self.level)) for g in kept]
        self._products[start:stop] = [p for multiplier in zip(*shifts) for p in multiplier]

    def built(self) -> Iterator[tuple[int, int]]:
        """(start, stop) of each block built so far."""
        return ((start, stop) for _, start, stop, _ in self._blocks if self._products[start] is not None)

    def __len__(self) -> int:
        return len(self._products)

    def _item(self, index: int) -> Poly:
        p = self._products[index]
        if p is None:
            self._build(bisect_right(self._starts, index) - 1)
            p = self._products[index]
        return p

    def __iter__(self) -> Iterator[Poly]:
        for block, (_, start, stop, _) in enumerate(self._blocks):
            if self._products[start] is None:
                self._build(block)
            yield from self._products[start:stop]


_ZERO = Fraction(0)


class CombinationRows(_LazyTuple):
    """A certificate's combinations, kept as the integer rows the solve wrote.

    `rows` holds one (numerators, den) per degree-`level` monomial: the
    coefficient of product j is numerators.get(j, 0) / den, with den a
    positive int and only nonzero int numerators stored; `width` is the
    number of products. Row i reads as the tuple of its `width` Fraction
    coefficients, built each time it is read, so the certificate itself
    holds no Fraction.
    """

    def __init__(self, rows: list[tuple[dict[int, int], int]], width: int):
        self.rows = rows
        self.width = width

    def __len__(self) -> int:
        return len(self.rows)

    def _item(self, index: int) -> tuple[Fraction, ...]:
        numerators, den = self.rows[index]
        combination = [_ZERO] * self.width
        for j, n in numerators.items():
            combination[j] = Fraction(n, den)
        return tuple(combination)


def _check_arguments(level: int, cap: int | None) -> None:
    """Raise TypeError unless `level` is an int and `cap` an int or None."""
    if not isinstance(level, int):
        raise TypeError(f"level must be an int, not {level!r}")
    if cap is not None and not isinstance(cap, int):
        raise TypeError(f"max_multiplier_degree must be an int or None, not {cap!r}")


def check_determinacy(h: Poly, level: int, max_multiplier_degree: int | None = None) -> DeterminacyCertificate:
    """Run the Jacobian criterion for `level`-determinacy of h.

    The span is built from x^a*y^b * dh/dx_i truncated at `level`, for
    multipliers with 1 <= a+b <= max_multiplier_degree (default: every
    degree that can still contribute below the truncation). An
    elimination with columns [products | degree-`level` monomials]
    decides every monomial: a pivot in a monomial column marks the
    first uncovered one, and otherwise each monomial column holds that
    monomial's combination.

    The first elimination takes the top block alone, the products of
    order exactly `level`, in the `level` + 1 degree-`level`
    coordinates. Truncated at `level` these products are homogeneous of
    that degree, so a combination of them that equals a monomial in
    those coordinates equals it exactly: a top block that spans is the
    certificate, whatever the cap and whether or not it is independent.

    When it leaves a monomial uncovered, the products become the rows of
    one reduced row echelon form over every degree 1..`level`. A
    degree-`level` monomial lies in their span exactly when one of the
    reduced rows is its unit row, so the first monomial without one is
    the missing one. Only when every monomial has one does the
    elimination above run over all the products in every degree, to
    write the combinations.

    The solve's integer columns are kept as they are (`CombinationRows`),
    with each column index mapped to its product index; no Fraction is
    built. A `level` or cap that is not an int raises TypeError, and a
    cap below 1 InputError.
    """
    _check_arguments(level, max_multiplier_degree)
    if level < 1:
        raise InputError(f"certificate level {level} must be at least 1")
    if max_multiplier_degree is not None and max_multiplier_degree < 1:
        raise InputError(f"multiplier degree cap {max_multiplier_degree} must be at least 1")
    if not h:
        raise InputError("zero germ is never finitely determined")
    if h.order() > level:
        raise InputError(f"germ order {h.order()} exceeds the certificate level {level}")
    products = TruncatedMultiples(_ordered_generators(h), level, max_multiplier_degree)
    top_basis = monomial_basis(level)
    monomials = [Poly.monomial(a, b) for a, b in top_basis]
    top = products.top
    missing, solved = linalg.solve_canonical([products[j] for j in top], monomials, top_basis)
    if missing is not None:
        everything = list(products)
        basis = [exps for d in range(1, level + 1) for exps in monomial_basis(d)]
        level_columns = range(len(basis) - len(top_basis), len(basis))
        rows, pivots = linalg.rref(integer_coordinates(everything, basis)[0], level_columns)
        units = {col for row, col in zip(rows, pivots) if row.count(0) == len(row) - 1}
        missing = next((i for i, col in enumerate(level_columns) if col not in units), None)
        if missing is None:
            # the rows cover the level; the full solve's columns are all the products
            top = range(len(products))
            missing, solved = linalg.solve_canonical(everything, monomials, basis)
    # column j of the solve is product top[j]; every other product gets coefficient 0
    rows = [({top[j]: n for j, n in numerators.items()}, den) for numerators, den in solved]
    return DeterminacyCertificate(
        germ=h,
        level=level,
        products=products,
        verdict=missing is None,
        missing=None if missing is None else monomials[missing],
        combinations=CombinationRows(rows if missing is None else [], len(products)),
    )


def _integer_rows(combinations: Sequence[Sequence[Scalar]], width: int) -> list[tuple[dict[int, int], int]] | None:
    """`combinations` as (numerators, den) rows, as `CombinationRows` keeps them.

    The rows of a `CombinationRows` are returned as they are, once every
    entry is checked: an int numerator at an index in range(`width`) and
    a positive int den. Any other sequence is converted: each coefficient
    tuple must have `width` entries, all ints or Fractions, zeros
    included, and its nonzero entries go over the lcm of their
    denominators. None when a row is malformed; TypeError for an entry
    of another type.
    """
    if isinstance(combinations, CombinationRows):
        if combinations.width != width:
            return None
        for numerators, den in combinations.rows:
            types = set(map(type, chain(numerators, numerators.values(), (den,))))
            if types - {int}:
                raise TypeError(f"combination rows must hold ints, not {min(t.__name__ for t in types - {int})}")
            if den < 1 or numerators and not (0 <= min(numerators) and max(numerators) < width):
                return None
        return combinations.rows
    rows = []
    for coeffs in combinations:
        if len(coeffs) != width:
            return None
        check_scalars(coeffs)
        nonzero = [(j, coeffs[j]) for j in compress(range(width), coeffs)]
        den = math.lcm(*(c.denominator for _, c in nonzero))
        rows.append(({j: c.numerator * (den // c.denominator) for j, c in nonzero}, den))
    return rows


def reverify_certificate(cert: DeterminacyCertificate) -> bool:
    """Independent containment check of a True certificate.

    Re-derives the truncated multiples of the Jacobian generators of
    `cert.germ` at `cert.level` and requires `cert.products` to equal
    their first `len(cert.products)` (a multiplier cap shortens the list).
    A `TruncatedMultiples` must carry the re-derived generators, level
    and cap, compared by value; a block of it that was never built is
    then the re-derived block by definition, and every block that was
    built is compared with its re-derivation product by product. Any
    other sequence is compared product by product with the re-derived
    prefix.

    Then checks the combinations as integer rows (`_integer_rows`):
    those of a `CombinationRows` as they are, any other sequence of
    coefficient tuples converted to them. For each degree-`level`
    monomial x^a*y^b, with row (n, den), it requires
    sum_j n_j * products[j] == den * x^a*y^b as one integer sum over the
    products with a nonzero numerator, the only ones it reads. No
    elimination and no Fraction arithmetic is run. A level below 1 has
    no monomials to check and is rejected; a `level` or cap that is not
    an int raises TypeError.
    """
    products = cert.products
    _check_arguments(cert.level, products.cap if isinstance(products, TruncatedMultiples) else None)
    if not cert.verdict or cert.level < 1:
        return False
    generators = _ordered_generators(cert.germ)
    if isinstance(products, TruncatedMultiples):
        derived = TruncatedMultiples(generators, cert.level, products.cap)
        if (products.generators, products.level, len(products)) != (derived.generators, derived.level, len(derived)):
            return False
        if any(products[start:stop] != derived[start:stop] for start, stop in products.built()):
            return False
    elif list(products) != list(islice(TruncatedMultiples(generators, cert.level), len(products))):
        return False
    monomials = monomial_basis(cert.level)
    if len(cert.combinations) != len(monomials):
        return False
    rows = _integer_rows(cert.combinations, len(products))
    if rows is None:
        return False
    # each product that a row reads, read once
    read = {j: products[j] for j in set().union(*(numerators for numerators, _ in rows))}
    for (a, b), (numerators, den) in zip(monomials, rows):
        if integer_combination((n, read[j]) for j, n in numerators.items()) != Poly.monomial(a, b, den):
            return False
    return True


class DeterminacyReport(NamedTuple):
    """Combined determinacy statement for a germ f_k + R, order(R) > k.

    The criterion certificate establishes (2k-3)-determinacy, and it also
    holds the translations that absorb the whole degree-(2k-3) slice,
    lowering the determinacy level to max(k, 2k-4). Its top block is
    x^a*y^b * dh/dx and x^a*y^b * dh/dy with a+b = k-2, whose truncations
    are x^a*y^b * k*f_(k-1) and -x^a*y^b * k*g_(k-1). That block spans
    the degree-(2k-3) monomials, so it is the certificate and every
    lower product gets coefficient zero, and a monomial's coefficients
    on the dh/dx products are therefore those of u, and on the dh/dy
    products those of v, in
    k*(u*f_(k-1) - v*g_(k-1)) == monomial: composing with
    (x, y) -> (x + u, y + v) shifts the germ by -monomial in that degree.
    """

    k: int
    criterion: DeterminacyCertificate
    level: int
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "level": self.level,
            "criterion_level": self.criterion.level,
            "criterion_verdict": self.criterion.verdict,
            # the slice that the top-block translations absorb, and their check
            "absorbed_degree": self.criterion.level,
            "absorption_verified": self.ok,
            "ok": self.ok,
        }


@functools.lru_cache(maxsize=256)
def determined_bound_report(k: int, tail: Poly) -> DeterminacyReport:
    """Certify that f_k + tail is max(k, 2k-4)-determined, for k >= 5.

    `tail` must have order at least k+1. Runs the Jacobian criterion at
    level 2k-3 and re-verifies its certificate, which `ok` requires; the
    translations absorbing the degree-(2k-3) slice are the certificate's
    top-block coefficients (see `DeterminacyReport`). Results are cached;
    both arguments are immutable.
    """
    if k < 5:
        raise InputError("report requires k >= 5")
    if tail and tail.order() <= k:
        raise InputError(f"tail order {tail.order()} must exceed k = {k}")
    criterion = check_determinacy(harmonic_pair(k).f + tail, 2 * k - 3)
    return DeterminacyReport(
        k=k, criterion=criterion, level=max(k, 2 * k - 4), ok=reverify_certificate(criterion)
    )
