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

The products are derived from the germ, L and the multiplier cap, and
built one multiplier-degree block at a time, when a check first reads
one of them (`TruncatedMultiples`). A spanning top block is the
certificate and gives every other product coefficient zero, so neither
`check_determinacy` nor `reverify_certificate` builds the lower blocks
then; the row echelon reads them all. Each generator's order is read off
the germ's lowest-degree form, and the block of multiplier degree d
differentiates only the germ's terms of degree at most L - d + 1. When
both partials of the leading form are nonzero, the top block reads the
leading form alone, so a check that it decides, its re-check and the
count of the products never differentiate the whole germ.

The solve takes the degree-L monomials as unit integer target columns,
so no Poly is built for them, and it writes each solved column once as
its row: read-only numerators keyed by product index over one positive
denominator. A certificate is its data: the germ, L and the cap, the
verdict, the missing monomial, and those rows, one per degree-L
monomial. It holds no product. Re-verification derives the products
again, scales them once to one common denominator D, and checks each
row as one plain integer sum, sum_j n_j * D * p_j == den * D *
monomial, with no Fraction, lcm or Poly per row (a certifying
algorithm: McConnell, Mehlhorn, Näher & Schweitzer, "Certifying
algorithms", Computer Science Review 2011).

A True verdict certifies determinacy; False means the criterion is
inconclusive, never a disproof.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections.abc import Mapping
from itertools import chain
from types import MappingProxyType
from typing import Iterator, NamedTuple

from . import linalg
from .harmonic import harmonic_pair
from .polyring import (
    InputError,
    Poly,
    common_coordinates,
    integer_coordinates,
    monomial_basis,
)


def jacobian_generators(h: Poly) -> tuple[Poly, Poly]:
    """The two generators of the Jacobian ideal: (dh/dx, dh/dy)."""
    return h.diff("x"), h.diff("y")


def _generator_orders(h: Poly) -> tuple[tuple[str, int], ...]:
    """(v, order of dh/dv) for each nonzero Jacobian generator of h, v = "x" then "y".

    The order is read off the lowest-degree form of h: ord h - 1 when that
    form's partial is nonzero. Only when it vanishes is the whole germ
    differentiated.
    """
    if not h:
        return ()
    order = h.order()
    lowest = h.graded_component(order)
    orders = []
    for v in "xy":
        if lowest.diff(v):
            orders.append((v, order - 1))
        elif gen := h.diff(v):
            orders.append((v, gen.order()))
    return tuple(orders)


class TruncatedMultiples:
    """The truncated products x^a*y^b * dh/dv of the germ h at `level`, built one block at a time.

    `generators` holds (v, e) for each nonzero generator dh/dv, v = "x"
    then "y", with its order e (`_generator_orders`). Multipliers run over
    1 <= a+b <= `cap` (None: every degree that can still contribute below
    the truncation), so a capped sequence is a prefix of the uncapped one.
    Block d holds the products of the multipliers of degree d, x-exponent
    descending, and for each multiplier one product per generator that d
    leaves a term of: with a generator of order e the product has order
    d + e, and it is zero once d + e exceeds `level`. A product of block d
    reads only the generator's terms of degree at most level - d, the
    partials of the germ's terms of degree at most level - d + 1, so the
    block differentiates only h.truncate(level - d + 1) and makes one
    `Poly.shifts(d, level)` call per generator. A block is built the first
    time one of its products is read, by index or by iteration, so a
    caller that reads only the top block (`top`) differentiates and builds
    nothing else, and `len` builds nothing.
    """

    def __init__(self, germ: Poly, level: int, cap: int | None = None):
        self.germ = germ
        self.level = level
        self.generators = _generator_orders(germ)
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
        part = self.germ.truncate(self.level - d + 1)
        shifts = [part.diff(self.generators[g][0]).shifts(d, self.level) for g in kept]
        self._products[start:stop] = [p for multiplier in zip(*shifts) for p in multiplier]

    def __len__(self) -> int:
        return len(self._products)

    def __getitem__(self, index: int) -> Poly:
        """Product `index`, for 0 <= index < len(self)."""
        if not 0 <= index < len(self._products):
            raise IndexError(f"product index {index} out of range")
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


class DeterminacyCertificate(NamedTuple):
    """Outcome of the criterion at one level.

    The spanning set is not stored: it is derived from `germ`, `level`
    and `cap` (the multiplier degree cap, None for none), as the nonzero
    truncations of monomial multiples of the two Jacobian generators,
    which `products` gives as a fresh `TruncatedMultiples`. verdict True
    means every degree-`level` monomial lies in their span, so the germ
    is `level`-determined, and `combinations` holds one row per
    degree-`level` monomial (x-exponent descending): (numerators, den),
    the RREF-canonical combination (free coefficients zero) that equals
    that monomial, with coefficient numerators.get(j, 0) / den on
    product j, a positive int den and only nonzero int numerators
    stored. numerators is the read-only mapping that the solve wrote
    (`types.MappingProxyType`), so no certificate, a cached one of
    `determined_bound_report` included, can be changed in place; a
    pickled or copied certificate gets read-only rows again. When
    the top block (the products of order `level`) spans the monomials,
    the rows are those of the top block alone and every product outside
    it gets coefficient zero; otherwise they are those of all the
    products. When False, `missing` holds the first uncovered monomial,
    the first whose unit row is not among the reduced rows of all the
    products, and `combinations` is empty.
    """

    germ: Poly
    level: int
    cap: int | None
    verdict: bool
    missing: Poly | None
    combinations: tuple[tuple[Mapping[int, int], int], ...]

    @property
    def products(self) -> TruncatedMultiples:
        """The spanning set, derived from `germ`, `level` and `cap`; no block is built yet."""
        return TruncatedMultiples(self.germ, self.level, self.cap)

    def __reduce__(self):
        # a mappingproxy neither pickles nor copies, so the rows travel as dicts
        rows = tuple((dict(numerators), den) for numerators, den in self.combinations)
        return _certificate, (*self[:5], rows)


def _certificate(germ, level, cap, verdict, missing, rows) -> DeterminacyCertificate:
    """The certificate of a pickle or a copy, its rows' numerators read-only again."""
    rows = tuple((MappingProxyType(numerators), den) for numerators, den in rows)
    return DeterminacyCertificate(germ, level, cap, verdict, missing, rows)


def _check_arguments(h: Poly, level: int, cap: int | None) -> None:
    """Raise TypeError unless `h` is a Poly, `level` an int and `cap` an int or None."""
    if not isinstance(h, Poly):
        raise TypeError(f"h must be a Poly, not {type(h).__name__}")
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

    Both solves take the degree-`level` monomials as unit integer target
    columns, indices into their basis, and read each solved column once
    into its row, keyed by product index and read-only; no Fraction and
    no monomial Poly is built (the missing monomial is built alone). An
    `h` that is not a Poly, or a `level` or cap that is not an int,
    raises TypeError, and a cap below 1 InputError.
    """
    _check_arguments(h, level, max_multiplier_degree)
    if level < 1:
        raise InputError(f"certificate level {level} must be at least 1")
    if max_multiplier_degree is not None and max_multiplier_degree < 1:
        raise InputError(f"multiplier degree cap {max_multiplier_degree} must be at least 1")
    if not h:
        raise InputError("zero germ is never finitely determined")
    if h.order() > level:
        raise InputError(f"germ order {h.order()} exceeds the certificate level {level}")
    products = TruncatedMultiples(h, level, max_multiplier_degree)
    top_basis = monomial_basis(level)
    top = products.top
    # column j of the solve is product top[j]; every other product gets coefficient 0
    missing, solved = linalg.solve_canonical([products[j] for j in top], range(level + 1), top_basis, top)
    if missing is not None:
        everything = list(products)
        basis = [exps for d in range(1, level + 1) for exps in monomial_basis(d)]
        level_columns = range(len(basis) - len(top_basis), len(basis))
        rows, pivots = linalg.rref(integer_coordinates(everything, basis)[0], level_columns)
        units = {col for row, col in zip(rows, pivots) if row.count(0) == len(row) - 1}
        missing = next((i for i, col in enumerate(level_columns) if col not in units), None)
        if missing is None:
            # the rows cover the level; the full solve's columns are all the products
            missing, solved = linalg.solve_canonical(everything, level_columns, basis)
    return DeterminacyCertificate(
        germ=h,
        level=level,
        cap=max_multiplier_degree,
        verdict=missing is None,
        missing=None if missing is None else Poly.monomial(*top_basis[missing]),
        combinations=tuple(solved) if missing is None else (),
    )


def reverify_certificate(cert: DeterminacyCertificate) -> bool:
    """Independent containment check of a True certificate.

    Trusts nothing of `cert` but its germ, level, cap and rows. It
    requires a True verdict, a level of at least 1 (a lower level has no
    monomial to check) and exactly one row per degree-`level` monomial.
    Each row must be a (numerators, den) pair, numerators any Mapping,
    whose indices, numerators and den are ints, else TypeError; every den
    must be at least 1 and every index in range(len(products)), else
    False, where the products are the truncated multiples that it derives
    again from the germ, level and cap (`TruncatedMultiples`), building
    only the blocks of the products that the rows read. Those products
    are scaled once to one common denominator D
    (`polyring.common_coordinates`), and the row (n, den) of the monomial
    x^a*y^b is then one plain integer sum, sum_j n_j * D * products[j],
    which must be den * D at x^a*y^b and 0 at every other exponent pair.
    No elimination, no Fraction, no lcm and no Poly is computed per row. A
    `cert` that is not a `DeterminacyCertificate`, a germ that is not a
    Poly, or a level or cap that is not an int raises TypeError.
    """
    if not isinstance(cert, DeterminacyCertificate):
        raise TypeError(f"cert must be a DeterminacyCertificate, not {type(cert).__name__}")
    _check_arguments(cert.germ, cert.level, cert.cap)
    rows = cert.combinations
    if not cert.verdict or cert.level < 1 or len(rows) != cert.level + 1:
        return False
    for row in rows:
        if not (isinstance(row, tuple) and len(row) == 2 and isinstance(row[0], Mapping)):
            raise TypeError(
                f"a combination row must be a (dict, int) pair, any Mapping as its dict, not {type(row).__name__}"
            )
    entries = chain.from_iterable(chain(numerators, numerators.values(), (den,)) for numerators, den in rows)
    types = set(map(type, entries))
    if types - {int}:
        raise TypeError(f"combination rows must hold ints, not {min(t.__name__ for t in types - {int})}")
    products = cert.products
    read = sorted(set().union(*(numerators for numerators, _ in rows)))
    if min(den for _, den in rows) < 1 or read and not (0 <= read[0] and read[-1] < len(products)):
        return False
    # each product that a row reads, read once and scaled to the common denominator;
    # the monomial of row r, basis[r], has index r
    width, coordinates, common = common_coordinates([products[j] for j in read], monomial_basis(cert.level))
    coordinates = dict(zip(read, coordinates))
    for r, (numerators, den) in enumerate(rows):
        total = [0] * width
        for j, n in numerators.items():
            for i, v in coordinates[j]:
                total[i] += n * v
        if total[r] != den * common:
            return False
        total[r] = 0
        if any(total):
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
