"""Exact sparse bivariate polynomials over the rationals.

A polynomial is a finite map from exponent pairs (a, b), standing for
x^a*y^b, to nonzero rational coefficients. It is stored as nonzero
integer numerators over one shared positive denominator, in lowest
terms, so the hot products multiply plain ints (Monagan & Pearce,
"Sparse polynomial multiplication and division in Maple 14", 2009);
every public accessor returns reduced Fractions. All arithmetic is exact;
no float enters the library except as a seed of the exact root search in
`equivalence`. The canonical term order is total degree descending, then
x-exponent descending, which is also the printing order:

    x^5 - 10*x^3*y^2 + 5*x*y^4

The zero polynomial has no terms and infinite order.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union

from ._kernels import poly_mul

Exponents = tuple[int, int]
Scalar = Union[int, Fraction]

_INF = math.inf


class InputError(ValueError):
    """A refused argument: the library's one exception for input it rejects."""


class PolyParseError(InputError):
    """Malformed polynomial text; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def _scalar(c):
    """c itself when it is an int or a Fraction; a float would be silently inexact."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be ints or Fractions, not {type(c).__name__}")
    return c


def _term_key(exps: Exponents) -> tuple[int, int]:
    a, b = exps
    return (-(a + b), -a)


class Poly:
    """Immutable sparse polynomial in x and y with rational coefficients.

    Stored as integer numerators `_num` ({(a, b): int}, no zeros) over one
    positive denominator `_den`, in lowest terms: gcd(_den, *_num.values())
    is 1, and the zero polynomial has _den == 1. The form is canonical, so
    equality compares `_den` and `_num` directly. Coefficients are ints or
    Fractions and exponents are ints; anything else is a TypeError.
    `shifted` (one monomial) and `shifts` (every monomial of one degree)
    are the ways to multiply by a monomial x^a*y^b: they move the
    exponents and multiply nothing. `shifts` reads its keys from the
    shared exponent table `monomial_basis` instead of building a tuple
    per term, so the determinacy products it builds leave no garbage for
    the cyclic collector. Apart from this module, only
    `zcoords` reads `_num`/`_den`: it splits Polys into int component lists
    and wraps the lists it joins back with `_of`. Linear
    algebra gets them through `integer_coordinates`, which reads the
    numerators as integer coordinates over `_den`. A weighted sum of
    Polys with int weights is `integer_combination`, one integer sum
    over the lcm of their denominators; its callers are the parser's
    sums and `harmonic._layer`. `common_coordinates` scales several Polys
    once to one common denominator, as sparse integer vectors, so that
    `determinacy.reverify_certificate` checks many weighted sums of them
    as plain integer sums.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Exponents, Scalar] | Iterable[tuple[Exponents, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponents, Fraction] = {}
        for (a, b), c in items:
            if not isinstance(a, int) or not isinstance(b, int):
                raise TypeError(f"exponents must be ints, not ({a!r}, {b!r})")
            if a < 0 or b < 0:
                raise InputError(f"negative exponent ({a}, {b})")
            c = Fraction(_scalar(c))
            key = (a, b)
            acc = clean.get(key)
            c = c if acc is None else acc + c
            if c:
                clean[key] = c
            elif key in clean:
                del clean[key]
        # reduced fractions over their lcm are already in lowest terms
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._num = {key: c.numerator * (den // c.denominator) for key, c in clean.items()}
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, num: dict[Exponents, int], den: int) -> "Poly":
        """Wrap nonzero int numerators (int exponents) over den > 0, dividing out their content."""
        g = math.gcd(den, *num.values())
        if g > 1:
            num = {key: v // g for key, v in num.items()}
            den //= g
        out = cls.__new__(cls)
        out._num = num
        out._den = den
        return out

    @classmethod
    def zero(cls) -> "Poly":
        return cls._of({}, 1)

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls.monomial(0, 0, c)

    @classmethod
    def monomial(cls, a: int, b: int, coeff: Scalar = 1) -> "Poly":
        # an int coefficient at valid exponents is already in lowest terms
        # over 1; everything else goes through the checks of __init__
        if type(coeff) is int and type(a) is int and type(b) is int and a >= 0 and b >= 0:
            return cls._of({(a, b): coeff} if coeff else {}, 1)
        return cls({(a, b): coeff})

    # -- inspection --------------------------------------------------------

    def terms(self) -> tuple[tuple[Exponents, Fraction], ...]:
        """Terms in canonical order (degree descending, then x-exponent)."""
        den = self._den
        ordered = sorted(self._num.items(), key=lambda item: _term_key(item[0]))
        return tuple((key, Fraction(v, den)) for key, v in ordered)

    def coeff(self, a: int, b: int) -> Fraction:
        return Fraction(self._num.get((a, b), 0), self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self.terms())

    def degree(self) -> int | float:
        """Maximal total degree of a term; -inf for the zero polynomial."""
        if not self._num:
            return -_INF
        return max(a + b for a, b in self._num)

    def order(self) -> int | float:
        """Minimal total degree of a nonzero term; inf for the zero polynomial."""
        if not self._num:
            return _INF
        return min(a + b for a, b in self._num)

    def is_homogeneous(self) -> bool:
        """True when all terms share one total degree (vacuously for zero)."""
        degrees = {a + b for a, b in self._num}
        return len(degrees) <= 1

    def graded_component(self, d: int) -> "Poly":
        """Sum of the terms of total degree exactly d."""
        return Poly._of({k: v for k, v in self._num.items() if k[0] + k[1] == d}, self._den)

    def components(self) -> dict[int, "Poly"]:
        """Split into homogeneous components, keyed by degree (nonzero only)."""
        buckets: dict[int, dict[Exponents, int]] = {}
        for key, v in self._num.items():
            buckets.setdefault(key[0] + key[1], {})[key] = v
        return {d: Poly._of(buckets[d], self._den) for d in sorted(buckets)}

    def truncate(self, max_degree: int) -> "Poly":
        """Drop all terms of total degree above max_degree."""
        kept = {k: v for k, v in self._num.items() if k[0] + k[1] <= max_degree}
        return Poly._of(kept, self._den)

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other, both rescaled to the lcm of the denominators."""
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        merged = dict(self._num) if m1 == 1 else {k: v * m1 for k, v in self._num.items()}
        m2 *= sign
        for key, c in other._num.items():
            acc = merged.get(key)
            s = c * m2 if acc is None else acc + c * m2
            if s:
                merged[key] = s
            elif key in merged:
                del merged[key]
        return Poly._of(merged, d1 * m1)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._of({k: -v for k, v in self._num.items()}, self._den)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, Poly):
            return Poly._of(poly_mul(self._num, other._num, None), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / other)
        return NotImplemented

    def scale(self, c: Scalar) -> "Poly":
        n, d = _scalar(c).numerator, c.denominator
        if not n:
            return Poly.zero()
        return Poly._of({k: v * n for k, v in self._num.items()}, self._den * d)

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise InputError("exponent must be a non-negative integer")
        result = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_truncated(self, other: "Poly", max_degree: int) -> "Poly":
        """Product with all terms above max_degree dropped during the multiply."""
        return Poly._of(poly_mul(self._num, other._num, max_degree), self._den * other._den)

    def shifted(self, a: int, b: int, max_degree: int | None = None) -> "Poly":
        """x^a*y^b * self, with the terms above max_degree dropped (None keeps all).

        An exponent shift of the numerators. `_of` divides out the content
        that dropping terms can expose: (x^3/6 + 2x/3).shifted(1, 0, 3) is
        2/3*x^2, over the denominator 3.
        """
        if not isinstance(a, int) or not isinstance(b, int):
            raise TypeError(f"exponents must be ints, not ({a!r}, {b!r})")
        if a < 0 or b < 0:
            raise InputError(f"negative exponent ({a}, {b})")
        top = _INF if max_degree is None else max_degree - a - b
        return Poly._of({(i + a, j + b): v for (i, j), v in self._num.items() if i + j <= top}, self._den)

    def shifts(self, d: int, max_degree: int) -> list["Poly"]:
        """x^a*y^b * self over a + b = d, x-exponent descending, truncated at
        max_degree; [] when no term is left.

        Each product equals self.shifted(a, b, max_degree). One pass keeps
        the terms of degree at most max_degree - d, and only those are
        sorted, stably by degree, the order every product's keys are
        inserted in; their content is divided out once, and every shift is
        built from them with no per-term degree test. The keys come from the
        shared exponent table: x^a*y^b * x^i*y^j is entry j + b of
        monomial_basis(i + j + d), so a product builds no key tuple, and its
        dict, holding table keys and ints only, gives the cyclic garbage
        collector nothing to track. Only the rows that the kept terms reach
        are read.
        """
        top = max_degree - d
        kept = [(a + b, b, v) for (a, b), v in self._num.items() if a + b <= top]
        if not kept:
            return []
        kept.sort(key=itemgetter(0))
        g = math.gcd(self._den, *map(itemgetter(2), kept))
        den = self._den // g
        rows = {e: monomial_basis(e + d) for e in set(map(itemgetter(0), kept))}
        kept = [(rows[e], j, v // g if g > 1 else v) for e, j, v in kept]
        products = []
        for b in range(d + 1):
            p = Poly.__new__(Poly)
            p._num = {row[j + b]: v for row, j, v in kept}
            p._den = den
            products.append(p)
        return products

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "Poly":
        """Exact partial derivative with respect to "x" or "y"."""
        if var == "x":
            num = {(a - 1, b): v * a for (a, b), v in self._num.items() if a}
        elif var == "y":
            num = {(a, b - 1): v * b for (a, b), v in self._num.items() if b}
        else:
            raise InputError(f"unknown variable {var!r}")
        return Poly._of(num, self._den)

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash(self.terms())

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


X = Poly.monomial(1, 0)
Y = Poly.monomial(0, 1)
ONE = Poly.constant(1)
R2 = Poly({(2, 0): 1, (0, 2): 1})


def integer_combination(pairs: Iterable[tuple[int, Poly]]) -> Poly:
    """sum(n*p) over the (n, p) of `pairs`, each n an int, as one integer sum.

    Every numerator goes over the lcm of the denominators p._den, and no
    Fraction is built. The library's one weighted sum of Polys: its
    callers are `_Parser.total` (signed terms, n = +-1) and
    `harmonic._layer`.
    """
    pairs = list(pairs)
    den = math.lcm(*(p._den for _, p in pairs))
    total: dict[Exponents, int] = {}
    for n, p in pairs:
        m = n * (den // p._den)
        for key, v in p._num.items():
            total[key] = total.get(key, 0) + v * m
    return Poly._of({key: v for key, v in total.items() if v}, den)


def common_coordinates(
    polys: Sequence[Poly], basis: Sequence[Exponents]
) -> tuple[int, list[list[tuple[int, int]]], int]:
    """(width, coordinates, D): the polys as sparse integer vectors over one
    common denominator D, the lcm of their denominators.

    coordinates[i] holds (index, coefficient times D) per term of
    polys[i], each a nonzero int. The exponent pair basis[r] has index r;
    a pair outside `basis` gets the next free index from len(basis) on,
    so no term is refused, and width counts every index given. A weighted
    sum of the polys with int weights is then D times a plain integer
    sum of these vectors, with no lcm, gcd or Poly per sum.
    """
    den = math.lcm(*(p._den for p in polys))
    index = {exps: r for r, exps in enumerate(basis)}
    for key in set().union(*(p._num for p in polys)).difference(index):
        index[key] = len(index)
    coordinates = []
    for p in polys:
        m = den // p._den
        coordinates.append([(index[key], v * m) for key, v in p._num.items()])
    return len(index), coordinates, den


@functools.lru_cache(maxsize=256)
def monomial_basis(d: int) -> tuple[Exponents, ...]:
    """Exponent pairs of the degree-d monomials, x-exponent descending.

    The library's one table of exponent pairs: each row is built once and
    cached, up to the 256 most recently used degrees. `Poly.shifts` reads
    its products' keys from these rows, so the determinacy products share
    one set of long-lived tuples instead of allocating a key per term.
    """
    if d < 0:
        return ()
    return tuple((d - j, j) for j in range(d + 1))


def integer_coordinates(
    polys: Iterable[Poly], basis: Sequence[Exponents]
) -> tuple[list[list[int]], list[int]]:
    """(vectors, dens): the coefficient of basis[i] in polys[j] is vectors[j][i] / dens[j].

    Each vector holds the integer numerators over the polynomial's own
    denominator; a term outside `basis` raises InputError.
    """
    index = {exps: i for i, exps in enumerate(basis)}
    vectors, dens = [], []
    for p in polys:
        vector = [0] * len(index)
        for key, v in p._num.items():
            i = index.get(key)
            if i is None:
                raise InputError(f"term {format_poly(Poly.monomial(*key))} of {p} is outside the basis")
            vector[i] = v
        vectors.append(vector)
        dens.append(p._den)
    return vectors, dens


def laplacian(p: Poly) -> Poly:
    """Second x-derivative plus second y-derivative."""
    return p.diff("x").diff("x") + p.diff("y").diff("y")


def laplacian_power(p: Poly, s: int) -> Poly:
    """Apply the Laplacian s times, by Delta^s x^a y^b = sum_i C(s, i) (a)_(2i)
    (b)_(2s-2i) x^(a-2i) y^(b-2s+2i), (n)_j = n!/(n-j)!, zero for j > n."""
    if s < 1:
        return p
    out: dict[Exponents, int] = {}
    for (a, b), v in p._num.items():
        for i in range(max(0, s - b // 2), min(s, a // 2) + 1):
            c = math.comb(s, i) * math.perm(a, 2 * i) * math.perm(b, 2 * s - 2 * i)
            key = (a - 2 * i, b - 2 * s + 2 * i)
            out[key] = out.get(key, 0) + v * c
    return Poly._of({key: v for key, v in out.items() if v}, p._den)


def _format_monomial(a: int, b: int) -> str:
    parts = []
    if a:
        parts.append("x" if a == 1 else f"x^{a}")
    if b:
        parts.append("y" if b == 1 else f"y^{b}")
    return "*".join(parts)


def _decimal(n: int, width: int = 0) -> str:
    """str(n).zfill(width) for an int n >= 0, at any size. n is split by
    10^(2^j), j >= 8, so no str() call converts more than 512 digits: below
    640, the lowest int -> str limit that Python lets a process set."""
    if n.bit_length() <= 1700:  # below 10^512
        return str(n).zfill(width)
    size = 256
    while 10 ** (2 * size) <= n:
        size *= 2
    high, low = divmod(n, 10**size)
    return (_decimal(high) + _decimal(low, size)).zfill(width)


def format_scalar(c: Scalar) -> str:
    """str(c) for an int or Fraction c, exactly at any size: never bound by
    sys.get_int_max_str_digits(), which this does not change."""
    c = Fraction(_scalar(c))
    text = ("-" if c < 0 else "") + _decimal(abs(c.numerator))
    return text if c.denominator == 1 else f"{text}/{_decimal(c.denominator)}"


def format_poly(p: Poly) -> str:
    """Canonical string form; parse_poly(format_poly(p)) == p."""
    terms = p.terms()
    if not terms:
        return "0"
    pieces = []
    for (a, b), c in terms:
        mono = _format_monomial(a, b)
        mag = abs(c)
        if not mono:
            body = format_scalar(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_scalar(mag)}*{mono}"
        pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    # one join: a string grown by += is quadratic under any profile hook
    first = pieces[0]
    pieces[0] = first[2:] if first[0] == "+" else f"-{first[2:]}"
    return " ".join(pieces)


# ASCII only: a Unicode digit or space is a parse error, never read as 0-9 or a blank
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[xy])|(?P<op>[-+*/^()])|(?P<bad>\S))", re.ASCII
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise PolyParseError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        for kind in ("num", "name", "op"):
            if m.group(kind):
                tokens.append((kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    return tokens


def _digits(p: Poly) -> int:
    """The 30-bit int digits of p's numerators and denominator, plus one for each."""
    return sum(v.bit_length() // 30 + 2 for v in (p._den, *p._num.values()))


class _Parser:
    """Recursive descent over tokens.

    Accepts the canonical grammar (signed terms of rational/monomial
    products) plus parenthesised subexpressions, which the CLI needs for
    inputs like "x^2*(x^4 - 6*x^2*y^2 + y^4)".

    Every product and power (by square-and-multiply) goes through
    `multiply`, and every sum through `total`; each charges its cost to one
    work budget per input before it runs, whatever the degrees, terms or
    numerals, and its result is `capped`.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.work = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Poly:
        if not self.tokens:
            raise PolyParseError("empty input", 0)
        p = self.expr()
        kind, value, pos = self.peek()
        if kind is not None:
            raise PolyParseError(f"unexpected {value!r}", pos)
        return p

    def expr(self) -> Poly:
        sign = 1
        kind, value, start = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            sign = -1 if value == "-" else 1
        terms = [(sign, self.product())]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                terms.append((-1 if value == "-" else 1, self.product()))
            else:
                return self.total(terms, start)

    def product(self) -> Poly:
        result = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.take()
                pos = self.peek()[2]
            elif not (kind in ("num", "name") or (kind == "op" and value == "(")):
                return result
            # after "*" or by adjacency, e.g. "3x" or "x^2(x+y)"
            result = self.multiply(result, self.factor(), pos)

    def factor(self) -> Poly:
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            num = self.integer(value, pos)
            kind, value, _ = self.peek()
            if kind == "op" and value == "/":
                self.take()
                dkind, dvalue, dpos = self.take()
                if dkind != "num":
                    raise PolyParseError("expected integer denominator", dpos)
                den = self.integer(dvalue, dpos)
                if den == 0:
                    raise PolyParseError("zero denominator", dpos)
                return Poly.constant(Fraction(num, den))
            return Poly.constant(num)
        if kind == "name":
            self.take()
            n = self.exponent()
            return Poly.monomial(n, 0) if value == "x" else Poly.monomial(0, n)
        if kind == "op" and value == "(":
            self.take()
            self.depth += 1
            if self.depth > self.MAX_NESTING:
                raise PolyParseError(f"parentheses nested deeper than {self.MAX_NESTING}", pos)
            inner = self.expr()
            self.depth -= 1
            ckind, cvalue, cpos = self.take()
            if cvalue != ")":
                raise PolyParseError("expected ')'", cpos)
            return self.power(inner, self.exponent(), cpos)
        if kind is None:
            raise PolyParseError("unexpected end of input", pos)
        raise PolyParseError(f"unexpected {value!r}", pos)

    MAX_EXPONENT = 10**6
    # every numerator and denominator built has at most the bits of
    # (10**600 - 1)**128, a product of 128 of the longest numerals
    MAX_GROUP_BITS = 255_125
    # one input's multiplications may cost MAX_WORK units: one unit is a product
    # of two 30-bit int digits, and each pair of terms costs PAIR_WORK more. At
    # the measured 0.4-1.3 ns a unit (CPython 3.11, 2-core Xeon), no input's
    # products take more than about 0.4 s
    PAIR_WORK = 2**9
    MAX_WORK = 2**28
    # each level costs three stack frames; stay far below the recursion limit
    MAX_NESTING = 100
    # below 640, the lowest limit on int() that Python lets a process set
    MAX_DIGITS = 600

    def charge(self, work: int, pos: int) -> None:
        """Add work to the input's budget; past MAX_WORK the parse is refused."""
        self.work += work
        if self.work > self.MAX_WORK:
            raise PolyParseError(f"work budget of {self.MAX_WORK} exceeded", pos)

    def multiply(self, a: Poly, b: Poly, pos: int) -> Poly:
        """a * b, `capped`, once its cost is charged to the work budget:
        PAIR_WORK a pair of terms plus the digit products _digits(a) * _digits(b)."""
        self.charge(len(a) * len(b) * self.PAIR_WORK + _digits(a) * _digits(b), pos)
        return self.capped(a * b, pos)

    def total(self, terms: list[tuple[int, Poly]], pos: int) -> Poly:
        """The sum of the signed terms, `capped`, once its cost is charged to
        the work budget. The sum rescales each term to the lcm of the
        denominators, of D digits as `_digits` counts an int, and the content
        gcd (`Poly._of`) reads each rescaled numerator against the lcm: D
        units a digit of the rescaled terms. A term p whose denominator has
        e digits rescales to _digits(p) - e + len(p) * (D - e) digits. The
        charge rises with the lcm, term by term, so a sum past the budget is
        refused before its lcm is whole."""
        lcm, charged, base, count = 1, 0, 0, 0
        for _, p in terms:
            lcm = math.lcm(lcm, p._den)
            e = p._den.bit_length() // 30 + 2
            base += _digits(p) - e - len(p) * e
            count += len(p)
            d = lcm.bit_length() // 30 + 2
            cost = d * (base + d * count)  # D times the digits of the terms so far, rescaled
            self.charge(cost - charged, pos)
            charged = cost
        return self.capped(integer_combination(terms), pos)

    def capped(self, p: Poly, pos: int) -> Poly:
        """p, unless its largest numerator or denominator has more than MAX_GROUP_BITS bits."""
        if max(map(int.bit_length, (p._den, *p._num.values()))) > self.MAX_GROUP_BITS:
            raise PolyParseError(f"coefficient exceeds {self.MAX_GROUP_BITS} bits", pos)
        return p

    def power(self, base: Poly, n: int, pos: int) -> Poly:
        """base**n by square-and-multiply, each product through `multiply`."""
        result = None
        while True:
            if n & 1:
                result = base if result is None else self.multiply(result, base, pos)
            n >>= 1
            if not n:
                return ONE if result is None else result
            base = self.multiply(base, base, pos)

    def integer(self, text: str, pos: int) -> int:
        digits = text.lstrip("0") or "0"
        if len(digits) > self.MAX_DIGITS:
            raise PolyParseError(f"numeral longer than {self.MAX_DIGITS} digits", pos)
        return int(digits)

    def exponent(self) -> int:
        kind, value, _ = self.peek()
        if not (kind == "op" and value == "^"):
            return 1
        self.take()
        ekind, evalue, epos = self.take()
        if ekind == "op" and evalue == "-":
            raise PolyParseError("negative exponent", epos)
        if ekind != "num":
            raise PolyParseError("expected exponent", epos)
        digits = evalue.lstrip("0") or "0"
        if len(digits) > len(str(self.MAX_EXPONENT)) or int(digits) > self.MAX_EXPONENT:
            raise PolyParseError(f"exponent exceeds {self.MAX_EXPONENT}", epos)
        return int(digits)


def parse_poly(text: str) -> Poly:
    """Parse polynomial text like "x^5 - 10*x^3*y^2 + 5*x*y^4" or "3/2*x*y".

    The unicode minus sign is treated as "-", so pasted mathematical text
    parses; printing always uses the ASCII form.
    """
    return _Parser(text.replace("−", "-")).parse()
