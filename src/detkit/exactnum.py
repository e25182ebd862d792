"""Exact scalar arithmetic: rationals, dense univariate polynomials,
rational functions, truncated (Laurent) series, and the special
numbers/polynomials the determinant catalog consumes.

All values are ``fractions.Fraction``s; nothing here ever touches
floating point.  Polynomial and rational-function values, and
truncated-series products, sums, inverses and compositions, run on
integer numerators over one common denominator per operand and build one
``Fraction`` per result value or coefficient.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat, takewhile
from operator import itemgetter, mul
from typing import Iterable, Sequence

Rational = Fraction


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, or Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _decimal(v: int) -> str:
    """str(v) at any size, without touching the process-wide limit that
    Python 3.11+ puts on str() of an int (sys.get_int_max_str_digits()
    digits): a longer int is split by a power of ten into halves that
    each print."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    bits = v.bit_length()
    # v has at most bits * log10(2) + 1 < bits * 5/16 + 1 digits
    if not limit or bits * 5 // 16 < limit:
        return str(v)
    if v < 0:
        return "-" + _decimal(-v)
    k = bits * 5 // 32
    hi, lo = divmod(v, 10 ** k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def fmt_rat(x: Fraction) -> str:
    """Print a rational as ``p`` or ``p/q``, in full at any size."""
    x = rat(x)
    if x.denominator == 1:
        return _decimal(x.numerator)
    return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"


def _from_decimal(digits: str) -> int:
    """int(digits) for decimal digits of any length, the inverse of
    _decimal: past the int-string limit, split by a power of ten."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if not limit or len(digits) <= limit:
        return int(digits)
    k = len(digits) // 2
    return _from_decimal(digits[:-k]) * 10 ** k + _from_decimal(digits[-k:])


def parse_rat(text: str) -> Fraction:
    """Fraction(text), which also reads a signed ``p`` or ``p/q`` of any
    length, so that whatever fmt_rat prints reads back."""
    try:
        return Fraction(text)
    except ValueError:
        match = re.fullmatch(r"\s*([+-]?)(\d+)(?:/(\d+))?\s*", text)
        if match is None:
            raise
    sign, num, den = match.groups()
    den = _from_decimal(den or "1")
    if den == 0:  # Fraction's own message would print the numerator
        raise ZeroDivisionError("ratio with a zero denominator")
    return Fraction(-_from_decimal(num) if sign == "-" else _from_decimal(num), den)


# ---------------------------------------------------------------------------
# special functions on rationals


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative integer {n}")
    return math.factorial(n)


def double_factorial(m: int) -> int:
    """m!! = m(m-2)(m-4)...; the empty product 1 for m <= 0."""
    return math.prod(range(m, 0, -2))


# The tables below keep integer numerators and denominators, unreduced,
# so that a k-factor product costs no gcd at all; the caller builds one
# Fraction per value it reads.  Each is a table of running products of
# integer pairs, built by _running.


_denominator = itemgetter(1)


def _running(ups, downs=(), below=None):
    """The running products of integer pairs (numerator, denominator), as
    a function of k: (1, 1) at k = 0, the product of the first k pairs of
    ups at k > 0 and of the first -k pairs of downs at k < 0.  downs ends
    before its first pair with a zero denominator; a k below the table
    reads below(k, j), which may raise, with j the 1-based index of that
    first vanishing factor."""
    pos, neg = [(1, 1)], [(1, 1)]
    for table, factors in ((pos, ups), (neg, takewhile(_denominator, downs))):
        num = den = 1
        for a, b in factors:
            num *= a
            den *= b
            table.append((num, den))

    def read(k: int) -> tuple[int, int]:
        if k >= 0:
            return pos[k]
        if -k < len(neg):
            return neg[-k]
        return below(k, len(neg))

    return read


def _zero(k: int, j: int) -> tuple[int, int]:
    return 0, 1


def power_pairs(x, lo: int, hi: int):
    """x^e for lo <= e <= hi as integer pairs, by running products in both
    directions from e = 0, as a function of e.  A zero x with lo < 0
    raises ZeroDivisionError, as Fraction(0) ** e does for e < 0."""
    x = rat(x)
    p, d = x.numerator, x.denominator
    if lo < 0 and not p:
        raise ZeroDivisionError("zero to a negative power")
    return _running(repeat((p, d), hi), repeat((d, p), -lo))


def binomial(x, k: int) -> Fraction:
    """The binomial coefficient x(x-1)...(x-k+1)/k! of an integer x; 0 for
    k < 0.  A non-integer x raises ValueError (_binomial_pairs takes any
    rational x)."""
    if k < 0:
        return Fraction(0)
    x = rat(x)
    if x.denominator != 1:
        raise ValueError(f"binomial of non-integer {x}")
    p = x.numerator
    if p >= 0:
        return Fraction(math.comb(p, k))
    # (-m choose k) = (-1)^k (m+k-1 choose k)
    c = math.comb(k - p - 1, k)
    return Fraction(-c if k & 1 else c)


def _binomial_pairs(x, hi: int):
    """binomial(x, k) of any rational x for k <= hi, as a function of k
    returning an integer numerator and denominator: with x = p/d,
    x(x-1)...(x-k+1)/k! = prod_{j<k} (p - j*d) / (d^k k!); (0, 1) for
    k < 0."""
    x = rat(x)
    p, d = x.numerator, x.denominator
    # the pairs (p - j*d, (j+1)*d), j < hi
    return _running(zip(range(p, p - hi * d, -d), range(d, (hi + 1) * d, d)), below=_zero)


def _q_pochhammer_pairs(a, q, lo: int, hi: int):
    """The q-shifted factorial (a;q)_k for lo <= k <= hi, with the
    reciprocal convention (a;q)_{-m} = 1/((1-a/q)(1-a/q^2)...(1-a/q^m)),
    as a function of k returning an integer numerator and denominator.
    Reading a negative k at which a factor 1 - a*q^-j of the reciprocal
    product vanishes (or any negative k when q = 0) raises
    ZeroDivisionError; building the table never raises."""
    a, q = rat(a), rat(q)
    ap, ad = a.numerator, a.denominator
    qp, qd = q.numerator, q.denominator

    def below(k, j):
        if not qp:  # q^-j is undefined: the error 1/q raises
            raise ZeroDivisionError("Fraction(1, 0)")
        raise ZeroDivisionError(f"q_pochhammer({a}, {q}, {k}): factor 1-a*q^-{j} vanishes")

    # 1 - a q^j = (ad qd^j - ap qp^j) / (ad qd^j), and 1 / (1 - a q^-j) =
    # ad qp^j / (ad qp^j - ap qd^j)
    return _running(((ad * qd ** j - ap * qp ** j, ad * qd ** j) for j in range(hi)),
                    ((ad * qp ** j, ad * qp ** j - ap * qd ** j)
                     for j in range(1, 1 - lo) if qp), below)


def _q_ints(q):
    """[1]_q, [2]_q, ... as integer pairs, by running sums: with q = p/d,
    [j]_q = h_j / d^(j-1) where h_j = p h_(j-1) + d^(j-1)."""
    q = rat(q)
    p, d = q.numerator, q.denominator
    h, dj = 0, 1
    while True:
        h = p * h + dj
        yield h, dj
        dj *= d


def _q_int_pairs(q, hi: int):
    """The q-integers [m]_q = (1-q^m)/(1-q) for -hi <= m <= hi (m at
    q = 1), as a function of m returning an integer numerator and
    denominator; [-m]_q = -q^-m [m]_q."""
    q = rat(q)
    p, d = q.numerator, q.denominator
    ints = [(0, 1), *islice(_q_ints(q), hi)]

    def read(m: int) -> tuple[int, int]:
        if m >= 0:
            return ints[m]
        # -h_m d / p^m with the sign on the denominator, so that q = 0
        # reads (1, 0), which raises as Fraction(0) ** m does
        return ints[-m][0] * d, -p ** -m

    return read


def _one_minus_power(p: int, d: int, e: int, an: int = 1, ad: int = 1) -> tuple[int, int]:
    """1 - a (p/d)^e, a = an/ad, as an integer numerator and denominator
    ad d^e (ad p^-e for e < 0, which is 0 at p = 0)."""
    if e < 0:
        p, d, e = d, p, -e
    de = ad * d ** e
    return de - an * p ** e, de


def _q_binomial_pairs(alpha: int, q, hi: int):
    """The Gaussian binomial [alpha choose k]_q for k <= hi, by running
    products of (1 - q^(alpha-j)) / (1 - q^(j+1)), j < k, as a function of
    k returning an integer numerator and denominator; (0, 1) for k < 0,
    and binomial(alpha, k) at q = 1.  Reading k >= 0 at q = 0, or a k
    whose denominator vanishes (q = -1, k >= 2), raises
    ZeroDivisionError; building the table never raises."""
    q = rat(q)
    if q == 1:
        return _binomial_pairs(alpha, hi)
    p, d = q.numerator, q.denominator

    def factor(j):
        a, b = _one_minus_power(p, d, alpha - j)
        c, e = _one_minus_power(p, d, j + 1)
        return a * e, b * c

    table = _running(map(factor, range(hi if p else 0)), below=_zero)

    def read(k: int) -> tuple[int, int]:
        if k >= 0 and not p:
            raise ZeroDivisionError("q_binomial undefined at q = 0")
        num, den = table(k)
        if not den:
            raise ZeroDivisionError(f"q_binomial({alpha}, {k}, {q}): denominator vanishes")
        return num, den

    return read


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q


def _trim(coeffs: list) -> tuple:
    """The coefficients (ints or Fractions) without trailing zeros."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _terms_str(coeffs: Sequence, low: int, var: str) -> str:
    """The nonzero terms c*var^e of coeffs, the exponent e counting up
    from `low`, joined by " + "; "0" when there is none."""
    terms = []
    for e, c in enumerate(coeffs, low):
        if c == 0:
            continue
        if e == 0:
            terms.append(fmt_rat(c))
        else:
            xs = var if e == 1 else f"{var}^{e}"
            terms.append(xs if c == 1 else f"{fmt_rat(c)}*{xs}")
    return " + ".join(terms) if terms else "0"


def _homogeneous(cs: Sequence[int], u: int, v: int, top: int) -> int:
    """sum cs[k] u^k v^(top-k) over the integer coefficients cs
    (len(cs) <= top + 1), by Horner's rule in u."""
    acc = 0
    vp = v ** (top + 1 - len(cs))
    for c in reversed(cs):
        acc = acc * u + c * vp
        vp *= v
    return acc


class PolyQ:
    """Dense univariate polynomial over Q, coefficients lowest-first.

    The zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = _trim([rat(c) for c in coeffs])

    @staticmethod
    def constant(c) -> "PolyQ":
        return PolyQ([rat(c)])

    @staticmethod
    def x() -> "PolyQ":
        return PolyQ([0, 1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __call__(self, x) -> Fraction:
        # with x = u/v and the coefficients C_k/d, p(x) is
        # sum C_k u^k v^(deg-k) over d v^deg
        x = rat(x)
        if not self.coeffs:
            return Fraction(0)
        cs, d = integer_numerators(self.coeffs)
        v = x.denominator
        return Fraction(_homogeneous(cs, x.numerator, v, self.degree), d * v ** self.degree)

    def _coerce(self, other):
        if isinstance(other, PolyQ):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyQ.constant(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("PolyQ", self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyQ([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return PolyQ([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return PolyQ()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyQ(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = PolyQ.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return PolyQ([a / c for a in self.coeffs])
        return NotImplemented

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading()
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            if c == 0:
                continue
            quot[i - d] = c
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= c * b
        return PolyQ(quot), PolyQ(rem[:d] if d > 0 else [])

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return self.divmod(other)[0]

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return self.divmod(other)[1]

    def derivative(self) -> "PolyQ":
        return PolyQ([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "PolyQ":
        if self.is_zero():
            return self
        return self / self.leading()

    def compose(self, other: "PolyQ") -> "PolyQ":
        out = PolyQ()
        for c in reversed(self.coeffs):
            out = out * other + PolyQ.constant(c)
        return out

    def shift(self, k: int) -> "PolyQ":
        """Multiply by x^k (k >= 0)."""
        if self.is_zero():
            return self
        return PolyQ([Fraction(0)] * k + list(self.coeffs))

    def __repr__(self):
        return f"PolyQ({_terms_str(self.coeffs, 0, 'x')})"


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


# ---------------------------------------------------------------------------
# rational functions


class RatFn:
    """Quotient of two PolyQ; denominator monic and coprime to numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = PolyQ.constant(num)
        if den is None:
            den = PolyQ.constant(1)
        elif isinstance(den, (int, Fraction)):
            den = PolyQ.constant(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num // g
            den = den // g
        lead = den.leading()
        self.num = num / lead
        self.den = den / lead

    def _coerce(self, other):
        if isinstance(other, RatFn):
            return other
        if isinstance(other, (int, Fraction, PolyQ)):
            return RatFn(other if isinstance(other, PolyQ) else PolyQ.constant(other))
        return NotImplemented

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RatFn", self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __call__(self, x) -> Fraction:
        # numerator and denominator over the same power of x's denominator,
        # which cancels in their quotient
        x = rat(x)
        u, v = x.numerator, x.denominator
        top = max(self.num.degree, self.den.degree)
        ns, dn = integer_numerators(self.num.coeffs)
        ds, dd = integer_numerators(self.den.coeffs)
        den = _homogeneous(ds, u, v, top) * dn
        if den == 0:
            raise ZeroDivisionError("rational function pole")
        return Fraction(_homogeneous(ns, u, v, top) * dd, den)

    def derivative(self) -> "RatFn":
        return RatFn(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __repr__(self):
        if self.den == PolyQ.constant(1):
            return f"RatFn({self.num!r})"
        return f"RatFn({self.num!r} / {self.den!r})"


# ---------------------------------------------------------------------------
# truncated (Laurent) series


def integer_numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ints/Fractions over the lcm of their
    denominators, and that lcm."""
    # folded pair by pair: lcm(*generator) builds an argument tuple per
    # call, which grew the tuple free lists and the peak RSS of long
    # in-process sessions by about 1 MB
    d = 1
    for v in values:
        d = math.lcm(d, v.denominator)
    return [v.numerator * (d // v.denominator) for v in values], d


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The first len(a) terms of the product of the integer coefficient
    lists a and b (len(b) >= len(a))."""
    rb = b[len(a) - 1::-1]
    return [sum(map(mul, a[:k + 1], rb[-k - 1:])) for k in range(len(a))]


class TruncSeries:
    """Truncated Laurent series: the term of exponent valuation + i is
    nums[i] / den; terms of exponent >= order are unknown.

    Normal form: nums[0] is nonzero, so valuation is the true valuation,
    and the zero series O(x^k) is the empty window valuation == order == k;
    den > 0 and gcd(den, *nums) == 1, so equal windows are equal tuples.
    Fractions are built only when a coefficient is read."""

    __slots__ = ("valuation", "order", "nums", "den")

    def __init__(self, valuation: int, coeffs: Iterable, order: int = None):
        coeffs = [rat(c) for c in coeffs]
        if order is None:
            order = valuation + len(coeffs)
        if order < valuation:
            raise ValueError("order must not be below valuation")
        if len(coeffs) != order - valuation:
            raise ValueError("coefficient count does not match order - valuation")
        self._set(valuation, *integer_numerators(coeffs), order)

    def _set(self, valuation: int, nums: Sequence[int], den: int, order: int):
        """Fill the window valuation..order-1 with nums / den (den > 0),
        moving leading zeros into the valuation and dividing out the
        common factor."""
        lead = 0
        while lead < len(nums) and not nums[lead]:
            lead += 1
        nums = nums[lead:]
        g = math.gcd(den, *nums)
        self.valuation = valuation + lead
        self.order = order
        self.nums = tuple(x // g for x in nums) if g != 1 else tuple(nums)
        self.den = den // g

    @staticmethod
    def _raw(valuation: int, nums: Sequence[int], den: int, order: int) -> "TruncSeries":
        """A series from integer numerators over den > 0 that fill the
        window valuation..order-1: the constructor for results of
        TruncSeries operations, which skips the coercion and the checks."""
        out = object.__new__(TruncSeries)
        out._set(valuation, nums, den, order)
        return out

    @staticmethod
    def from_poly(p: PolyQ, order: int) -> "TruncSeries":
        return TruncSeries(0, [p.coeff(i) for i in range(order)], order)

    @staticmethod
    def one(order: int) -> "TruncSeries":
        return TruncSeries.from_poly(PolyQ.constant(1), order)

    @staticmethod
    def var(order: int) -> "TruncSeries":
        return TruncSeries.from_poly(PolyQ.x(), order)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def coeff(self, exponent: int) -> Fraction:
        if exponent >= self.order:
            raise ValueError(f"coefficient of x^{exponent} beyond truncation order {self.order}")
        i = exponent - self.valuation
        return Fraction(self.nums[i], self.den) if i >= 0 else Fraction(0)

    def constant_term(self) -> Fraction:
        return self.coeff(0)

    def _window(self, val: int, order: int) -> list[int]:
        """The numerators over self.den of the terms of exponent
        val..order-1 (order <= self.order); terms below the stored window
        are 0."""
        lo = min(max(val, self.valuation), order)
        return [0] * (lo - val) + list(self.nums[lo - self.valuation:order - self.valuation])

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return TruncSeries(0, [rat(other)] + [0] * (self.order - 1), self.order) if self.order > 0 else NotImplemented
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return not (self - other).nums

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        val = min(self.valuation, other.valuation)
        order = min(self.order, other.order)
        d = math.lcm(self.den, other.den)
        sa, sb = d // self.den, d // other.den
        return TruncSeries._raw(val, [x * sa + y * sb for x, y in zip(
            self._window(val, order), other._window(val, order))], d, order)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._raw(self.valuation, [-x for x in self.nums], self.den, self.order)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries._raw(self.valuation, [other.numerator * x for x in self.nums],
                                    self.den * other.denominator, self.order)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        # the product is reliable up to min over known windows; in normal
        # form these are bounded by the true valuations
        val = self.valuation + other.valuation
        order = min(self.order + other.valuation, other.order + self.valuation)
        n = order - val
        return TruncSeries._raw(val, _convolve(self.nums[:n], other.nums[:n]),
                                self.den * other.den, order)

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        a = self.nums
        if not a:
            raise ZeroDivisionError("inverse of (truncated) zero series")
        # 1/(A/d) = d/A: its terms are kept as integer numerators over the
        # lcm of their denominators so far, which is rescaled as it grows
        sign, a0 = (1, a[0]) if a[0] > 0 else (-1, -a[0])
        g = math.gcd(self.den, a0)
        nums, den = [sign * self.den // g], a0 // g
        ra = a[:0:-1]  # A_{n-1}, ..., A_1
        for k in range(1, len(a)):
            # inv_k = -(sum_j A_j inv_{k-j}) / A_0 = p / q in lowest terms
            p, q = -sign * sum(map(mul, ra[-k:], nums)), den * a0
            g = math.gcd(p, q)
            p, q = p // g, q // g
            grow = q // math.gcd(den, q)
            if grow != 1:
                den *= grow
                nums = [x * grow for x in nums]
            nums.append(p * (den // q))
        return TruncSeries._raw(-self.valuation, nums, den, len(a) - self.valuation)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("series division by zero")
            return self * (1 / rat(other))
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def pow_int(self, n: int) -> "TruncSeries":
        if n < 0:
            return self.inverse().pow_int(-n)
        order = self.order  # keep caller's window
        out = TruncSeries(0, [1] + [0] * max(0, order - 1), max(order, 1))
        base = self
        for _ in range(n):
            out = out * base
        return out

    __pow__ = pow_int

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner); requires self a power series (valuation >= 0 terms
        only) and inner with valuation >= 1."""
        return compose_each([self], inner)[0]

    def restrict(self, order: int) -> "TruncSeries":
        """Truncate to a smaller order (padding is never invented); below
        the valuation this is the zero series O(x^order)."""
        if order > self.order:
            raise ValueError("cannot extend truncation order")
        val = min(self.valuation, order)
        return TruncSeries._raw(val, self.nums[: order - val], self.den, order)

    def derive(self) -> "TruncSeries":
        v = self.valuation
        return TruncSeries._raw(v - 1, [(v + i) * x for i, x in enumerate(self.nums)],
                                self.den, self.order - 1)

    def __repr__(self):
        return f"TruncSeries({_terms_str(self.coeffs, self.valuation, 'x')} + O(x^{self.order}))"


def compose_each(outers: Sequence[TruncSeries], inner: TruncSeries) -> list[TruncSeries]:
    """[g.compose(inner) for g in outers], computing the powers of inner
    once for all of them."""
    for g in outers:
        if g.valuation < 0:
            raise ValueError("compose requires a power-series outer operand")
    # an inner series with no known terms below an order <= 0 has an
    # unknown constant term, so the test on the normal-form valuation
    # covers it too
    v = inner.valuation
    if v < 1:
        raise ValueError("compose requires inner valuation >= 1")
    # inner^e is O(x^order) once e*v >= order, so only the outer terms
    # below that e count, and only up to the last nonzero one
    orders = [min(g.order, inner.order) for g in outers]
    terms = []
    for g, order in zip(outers, orders):
        cs = g._window(0, (order - 1) // v + 1)
        while cs and cs[-1] == 0:
            cs.pop()
        terms.append(cs)
    # with inner = H/dh (H integer, from exponent 0), g(inner) is
    # sum_e C_e H^e dh^(E-e) over dc dh^E, where g = C/dc and E is g's
    # last contributing exponent
    top = max(orders, default=0)
    h, dh = inner._window(0, top), inner.den
    pws = [[1] + [0] * (top - 1)]
    for _ in range(max(map(len, terms), default=1) - 1):
        pws.append(_convolve(pws[-1], h))
    out = []
    for g, cs, order in zip(outers, terms, orders):
        last = len(cs) - 1
        acc = [0] * order
        for e, c in enumerate(cs):
            if c != 0:
                scale = c * dh ** (last - e)
                acc = [x + scale * y for x, y in zip(acc, pws[e])]
        out.append(TruncSeries._raw(0, acc, g.den * dh ** max(last, 0), order))
    return out


# ---------------------------------------------------------------------------
# special sequences and polynomials


def _table_size(count: int) -> int:
    """Tables are built at power-of-two sizes (at least 16), so a process
    builds O(log k) of them; each entry of a table depends only on the
    entries before it, so a larger table holds the same values."""
    if count < 1:
        raise ValueError("sequence index must be nonnegative")
    return max(16, 1 << (count - 1).bit_length())


@lru_cache(maxsize=None)
def _zigzag(count: int) -> tuple[int, ...]:
    """The zigzag numbers A_0..A_(count-1), secant numbers at even and
    tangent numbers at odd indices, from Seidel's boustrophedon: each row
    is the running sum of the row before it read backwards, after a 0,
    and A_m ends row m."""
    out, row = [], [1]
    for _ in range(count):
        out.append(row[-1])
        row = list(accumulate(reversed(row), initial=0))
    return tuple(out)


def bernoulli(k: int) -> Fraction:
    """The Bernoulli number B_k (B_1 = -1/2), from the tangent numbers:
    B_2m = (-1)^(m+1) 2m A_(2m-1) / (4^m (4^m - 1)), 0 at odd k > 1."""
    zigzag = _zigzag(_table_size(k + 1))  # ValueError for k < 0
    if k < 2:
        return Fraction(1) if k == 0 else Fraction(-1, 2)
    if k & 1:
        return Fraction(0)
    p = 4 ** (k // 2)
    t = k * zigzag[k - 1]
    return Fraction(t if k & 2 else -t, p * (p - 1))


def euler_even(k: int) -> Fraction:
    """Secant number E_{2k}' indexed by the even subscript: euler_even(2m)."""
    if k % 2 != 0:
        raise ValueError("euler_even takes an even index")
    return Fraction(_zigzag(_table_size(k + 1))[k])


def _triangle(weight):
    """The rows of the integer triangle T(0, 0) = 1,
    T(m, k) = T(m-1, k-1) + weight(m, k) T(m-1, k), as a function of m;
    a row m < 0 is empty.  Rows are built once, up to the largest m read."""
    rows = [(1,)]

    def row(m: int) -> tuple[int, ...]:
        if m < 0:
            return ()
        while len(rows) <= m:
            i, prev = len(rows), rows[-1]
            rows.append((0, *(a + weight(i, k) * b
                              for k, (a, b) in enumerate(zip(prev, prev[1:] + (0,)), 1))))
        return rows[m]

    return row


_stirling2_row = _triangle(lambda m, k: k)
_stirling1_row = _triangle(lambda m, k: m - 1)


def stirling2(m: int, k: int) -> Fraction:
    """The Stirling number of the second kind S(m, k); 0 off 0 <= k <= m."""
    row = _stirling2_row(m)
    return Fraction(row[k] if 0 <= k < len(row) else 0)


def stirling1_unsigned(m: int, k: int) -> Fraction:
    """The unsigned Stirling number of the first kind c(m, k); 0 off
    0 <= k <= m."""
    row = _stirling1_row(m)
    return Fraction(row[k] if 0 <= k < len(row) else 0)


def bell(k: int) -> int:
    """The Bell number B_k, the sum of row k of the second-kind table; 0
    for k < 0."""
    return sum(_stirling2_row(k))


def asm_count(n: int) -> Fraction:
    """Number of n x n alternating sign matrices."""
    out = Fraction(1)
    for i in range(n):
        out *= Fraction(factorial(3 * i + 1), factorial(n + i))
    return out


def bell_poly(m: int) -> PolyQ:
    return PolyQ(_stirling2_row(m))


def hermite_values(x, count: int) -> list[Fraction]:
    """He_k(x) for k < count, by He_(k+1) = x He_k - k He_(k-1): with
    x = p/d, He_k = h_k / d^k where h_(k+1) = p h_k - k d^2 h_(k-1)."""
    x = rat(x)
    p, d = x.numerator, x.denominator
    hs = [1, p]
    for k in range(1, count - 1):
        hs.append(p * hs[k] - k * d * d * hs[k - 1])
    return [Fraction(h, d ** k) for k, h in enumerate(hs[:count])]


def chebyshev_u(m: int) -> PolyQ:
    coeffs = [Fraction(0)] * (m + 1)
    for j in range(m // 2 + 1):
        coeffs[m - 2 * j] += (-1) ** j * binomial(m - j, j) * Fraction(2) ** (m - 2 * j)
    return PolyQ(coeffs)
