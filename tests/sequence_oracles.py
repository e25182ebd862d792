"""Slow independent oracles for the classical number sequences of
`detkit.exactnum`: Bernoulli and secant numbers as coefficients of
truncated-series inverses of e^z and cos z, Stirling numbers from their
recurrences as memoised Fraction recursions, Bell numbers from the Bell
triangle, and the Hermite polynomials and Catalan numbers by their
explicit sums and products."""

import math
from fractions import Fraction
from functools import lru_cache

from detkit.exactnum import PolyQ, TruncSeries, _table_size


def exp_series(order: int) -> TruncSeries:
    return TruncSeries(0, [Fraction(1, math.factorial(k)) for k in range(order)], order)


def cos_series(order: int) -> TruncSeries:
    return TruncSeries(
        0,
        [Fraction((-1) ** (k // 2), math.factorial(k)) if k % 2 == 0 else Fraction(0)
         for k in range(order)],
        order,
    )


@lru_cache(maxsize=None)
def bernoulli_table(count: int) -> tuple[Fraction, ...]:
    """B_0..B_(count-1) from z/(e^z - 1) = sum B_k z^k / k!."""
    egf = exp_series(count + 1)
    shifted = TruncSeries(0, [egf.coeff(k + 1) for k in range(count)], count)  # (e^z-1)/z
    inv = shifted.inverse()
    return tuple(inv.coeff(k) * math.factorial(k) for k in range(count))


@lru_cache(maxsize=None)
def euler_even_table(count: int) -> tuple[Fraction, ...]:
    """E_0, E_2, ..., E_(2count-2) from 1/cos z = sum E_2k z^2k / (2k)!."""
    sec = cos_series(2 * count + 1).inverse()
    return tuple(sec.coeff(2 * k) * math.factorial(2 * k) for k in range(count))


def bernoulli_series(k: int) -> Fraction:
    """B_k read from a power-of-two series-inverse table."""
    return bernoulli_table(_table_size(k + 1))[k]


def euler_even_series(k: int) -> Fraction:
    """The secant number of even index k read from a power-of-two
    series-inverse table."""
    if k % 2 != 0:
        raise ValueError("euler_even takes an even index")
    return euler_even_table(_table_size(k // 2 + 1))[k // 2]


@lru_cache(maxsize=None)
def stirling2_rec(m: int, k: int) -> Fraction:
    if m == 0 and k == 0:
        return Fraction(1)
    if m <= 0 or k <= 0 or k > m:
        return Fraction(0)
    return stirling2_rec(m - 1, k - 1) + k * stirling2_rec(m - 1, k)


@lru_cache(maxsize=None)
def stirling1_unsigned_rec(m: int, k: int) -> Fraction:
    if m == 0 and k == 0:
        return Fraction(1)
    if m <= 0 or k <= 0 or k > m:
        return Fraction(0)
    return stirling1_unsigned_rec(m - 1, k - 1) + (m - 1) * stirling1_unsigned_rec(m - 1, k)


def bell_poly_rec(m: int) -> PolyQ:
    return PolyQ([stirling2_rec(m, k) for k in range(m + 1)])


def bell_triangle(count: int) -> list[int]:
    """The Bell numbers B_0..B_(count-1), read off the integer Bell
    triangle: each row starts with the last entry of the row above, and
    each later entry adds the entry above-left to its left neighbour."""
    out, row = [], [1]
    for _ in range(count):
        out.append(row[0])
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return out


def hermite_poly(m: int) -> PolyQ:
    """The probabilists' Hermite polynomial He_m by its explicit sum."""
    coeffs = [Fraction(0)] * (m + 1)
    for k in range(m // 2 + 1):
        coeffs[m - 2 * k] = (Fraction(math.factorial(m), math.factorial(k) * math.factorial(m - 2 * k))
                             * Fraction(-1, 2) ** k)
    return PolyQ(coeffs)


def catalan(n: int) -> Fraction:
    return Fraction(math.comb(2 * n, n), n + 1)
