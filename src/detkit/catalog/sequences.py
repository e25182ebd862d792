"""Hankel determinants of classical number sequences and orthogonal
polynomial families, Stirling-number determinants, representation-count
determinants, circulants, and the two Pfaffian-to-determinant window
reductions for symmetric sequences."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from ..exactnum import (PolyQ, bell_poly, bernoulli, euler_even, factorial,
                        hermite_values, rat, stirling1_unsigned, stirling2)
from ..hankel import MomentSeq, hankel_det, hankel_matrix
from ..linalg import MatrixR, det, pfaffian, resultant
from .base import IdentityRecord, det_record, pair, power, prod, rand_frac, register


# ---------------------------------------------------------------------------
# Hankel determinants with known product evaluations


def _euler_trial(rng, n):
    # the moments E_0, E_2, ..., E_(4n-4) and E_2, ..., E_(4n-2)
    e = [euler_even(2 * k) for k in range(2 * n)]
    dets = hankel_det(MomentSeq(e[:-1]), n), hankel_det(MomentSeq(e[1:]), n)
    return {}, dets, tuple(prod(factorial(2 * i + s) ** 2 for i in range(n)) for s in (0, 1))


register(IdentityRecord(id="hankel-euler", trial=_euler_trial, max_n=6))


def _sample_x(rng, n):
    return {"x": rand_frac(rng)}


def _build_bell(n, x):
    x = rat(x)
    return hankel_matrix(MomentSeq([bell_poly(k)(x) for k in range(2 * n - 1)]), n)


def _closed_bell(n, x):
    return prod(chain([power(pair(x), n * (n - 1) // 2)], map(factorial, range(n))))


det_record("hankel-bell", _sample_x, _build_bell, _closed_bell, max_n=6)


def _build_hermite(n, x):
    return hankel_matrix(MomentSeq(hermite_values(x, 2 * n - 1)), n)


def _closed_hermite(n, x):
    return prod(chain([(-1) ** (n * (n - 1) // 2)], map(factorial, range(n))))


det_record("hankel-hermite", _sample_x, _build_hermite, _closed_hermite, max_n=6)


def _bernoulli_trial(rng, n):
    # the moments B_(k+s), s = 0, 1, 2, and B_(2k+s), s = 2, 4, for k <= 2n - 2
    b = [bernoulli(k) for k in range(4 * n + 1)]
    moments = b[:2 * n - 1], b[1:2 * n], b[2:2 * n + 1], b[2:4 * n - 1:2], b[4::2]
    dets = tuple(hankel_det(MomentSeq(s), n) for s in moments)
    f, sign = factorial, (-1) ** (n * (n - 1) // 2)
    rhs = (
        prod(chain([sign], ((f(i) ** 6, f(2 * i) * f(2 * i + 1)) for i in range(1, n)))),
        prod(chain([(-1) ** (n * (n + 1) // 2), (1, 2)],
                   ((f(i) ** 3 * f(i + 1) ** 3, f(2 * i + 1) * f(2 * i + 2))
                    for i in range(1, n)))),
        prod(chain([sign, (1, 6)],
                   ((f(i) * f(i + 1) ** 4 * f(i + 2), f(2 * i + 2) * f(2 * i + 3))
                    for i in range(1, n)))),
        prod((f(2 * i) * f(2 * i + 1) ** 4 * f(2 * i + 2), f(4 * i + 2) * f(4 * i + 3))
             for i in range(n)),
        prod(chain([(-1) ** n],
                   ((f(2 * i - 1) * f(2 * i) ** 4 * f(2 * i + 1), f(4 * i) * f(4 * i + 1))
                    for i in range(1, n + 1)))),
    )
    return {}, dets, rhs


register(IdentityRecord(id="hankel-bernoulli", trial=_bernoulli_trial, max_n=6))


# ---------------------------------------------------------------------------
# Stirling-number determinants (matrices are (n+1) x (n+1), 0 <= i,j <= n)


def _stirling_trial(rng, n):
    x = rng.randint(0, 5)

    def entry2(i, j):
        return (Fraction(factorial(x * i), factorial(x * i + j))
                * stirling2(x * i + j, x * i))

    def entry1(i, j):
        return (Fraction(factorial(x * i), factorial(x * i + j))
                * Fraction(-1) ** j * stirling1_unsigned(x * i + j, x * i))

    d2 = det(MatrixR.build(n + 1, n + 1, entry2))
    d1 = det(MatrixR.build(n + 1, n + 1, entry1))
    e = n * (n + 1) // 2
    return ({"x": x}, (d2, d1),
            (Fraction(x, 2) ** e, Fraction(-x, 2) ** e))


register(IdentityRecord(id="stwi-stirling", trial=_stirling_trial, max_n=5))


def _rep_counts(n: int, power: int):
    """table[i][j] = number of ordered i-tuples of nonnegative integers
    whose power-th powers sum to j, for 0 <= i, j <= n."""
    table = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    table[0][0] = Fraction(1)
    for i in range(1, n + 1):
        for j in range(n + 1):
            k = 0
            while k ** power <= j:
                table[i][j] += table[i - 1][j - k ** power]
                k += 1
    return table

def _squares_trial(rng, n):
    dets = []
    for power in (2, 3):
        table = _rep_counts(n, power)
        dets.append(det(MatrixR.build(n + 1, n + 1,
                                      lambda i, j: table[i][j])))
    return {}, tuple(dets), (Fraction(1), Fraction(1))


register(IdentityRecord(id="stwi-squares", trial=_squares_trial, max_n=8))


# ---------------------------------------------------------------------------
# circulants


def _sample_circulant(rng, n):
    return {"a": tuple(rand_frac(rng) for _ in range(n))}


def _build_circulant(n, a):
    return MatrixR.build(n, n, lambda i, j: rat(a[(j - i) % n]))


def _closed_circulant(n, a):
    xn1 = PolyQ([-1] + [0] * (n - 1) + [1])
    return resultant(xn1, PolyQ(a))


det_record("circulant", _sample_circulant, _build_circulant, _closed_circulant, max_n=6)


# ---------------------------------------------------------------------------
# Pfaffian-to-determinant window reductions; n plays the role of N


def _windows(g):
    """w[t] = sum of g[|a|] over -t < a <= t, for t < len(g): the entry of
    both Gordon matrices at distance t from the diagonal."""
    w = [Fraction(0)]
    for t in range(1, len(g)):
        w.append(w[-1] + g[t - 1] + g[t])
    return w


def _gordon_even_trial(rng, n):
    g = [rand_frac(rng) for _ in range(2 * n)]
    params = {"g": tuple(g)}
    w = _windows(g)

    def skew(i, j):
        return w[j - i] if i <= j else -w[i - j]
    lhs = pfaffian(MatrixR.build(2 * n, 2 * n, skew))
    rhs = det(MatrixR.build(
        n, n, lambda i, j: g[abs(i - j)] + g[i + j + 1]))
    return params, lhs, rhs


register(IdentityRecord(id="gordon-even", trial=_gordon_even_trial, max_n=4))


def _gordon_odd_trial(rng, n):
    g = [rand_frac(rng) for _ in range(2 * n + 1)]
    x = rand_frac(rng)
    params = {"g": tuple(g), "X": x}
    m = 2 * n + 2
    w = _windows(g)

    def skew(i, j):
        if i > j:
            return -skew(j, i)
        if j == m - 1 and i < j:
            return rat(x)
        return w[j - i]
    lhs = pfaffian(MatrixR.build(m, m, skew))
    rhs = rat(x) * det(MatrixR.build(
        n, n, lambda i, j: g[abs(i - j)] - g[i + j + 2]))
    return params, lhs, rhs


register(IdentityRecord(id="gordon-odd", trial=_gordon_odd_trial, max_n=4))
