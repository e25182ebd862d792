"""Determinants whose entries are binomials binom(mu+i+j, 2i-j) or sums
of two such binomials, together with the even/odd factorization of the
perturbed-identity variant."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from ..exactnum import _binomial_pairs, double_factorial, rat
from ..linalg import MatrixR, det
from .base import (ZERO, IdentityRecord, Resample, _sample_mu, add,
                   det_record, inv, pair, pair_matrix, prod, rand_frac,
                   register, rising, sub)


def _sign_mod4(n: int) -> int:
    """(-1)^(n==3 mod 4)."""
    return -1 if n % 4 == 3 else 1


def _binomial_rows(x, shifts, hi):
    """One binomial(x + s, k) table, k <= hi, per shift s, keyed by s."""
    return {s: _binomial_pairs(x + s, hi) for s in shifts}


# ---------------------------------------------------------------------------
# the factorization Z_{2n} = T_n R_n, Z_{2n-1} = 2 T_n R_{n-1}


def _build_z(n, x, mu, nu):
    """Z = I + L R with L[i][k] = sum_{t<=k} C(mu+i, t) C(nu+k, k-t) x^(k-t)
    and R[k][j] = C(mu+j-k-1, j-k), which vanishes for k > j; so each
    leading block of Z is the Z of that size."""
    x, mu, nu = rat(x), rat(mu), rat(nu)
    xs = [x ** s for s in range(n)]
    mus, nus = _binomial_rows(mu, range(-1, n), n - 1), _binomial_rows(nu, range(n), n - 1)
    # c_nu[k][s] = C(nu+k, s) x^s, c_mu[i][t] = C(mu+i, t)
    c_nu = [[Fraction(*nus[k](s)) * xs[s] for s in range(k + 1)] for k in range(n)]
    c_mu = [[Fraction(*mus[i](t)) for t in range(n)] for i in range(n)]
    r = [Fraction(*mus[s - 1](s)) for s in range(n)]  # R[k][k+s]
    rows = []
    for i in range(n):
        li = [sum((c_mu[i][t] * c_nu[k][k - t] for t in range(k + 1)), Fraction(0))
              for k in range(n)]
        rows.append([int(i == j) + sum((li[k] * r[j - k] for k in range(j + 1)),
                                       Fraction(0))
                     for j in range(n)])
    return MatrixR.from_rows(rows)


def _build_t(n, x, mu, nu):
    x, mu, nu = rat(x), rat(mu), rat(nu)
    mus, nus = _binomial_rows(mu, range(n), 2 * n), _binomial_rows(nu, range(n), 2 * n)

    def entry(i, j):
        out = Fraction(0)
        for t in range(i, 2 * j + 1):
            out += (Fraction(*mus[i](t - i)) * Fraction(*nus[j](2 * j - t))
                    * x ** (2 * j - t))
        return out
    return MatrixR.build(n, n, entry)


def _build_r(n, x, mu, nu):
    x, mu, nu = rat(x), rat(mu), rat(nu)
    mus, nus = _binomial_rows(mu, range(n + 1), 2 * n), _binomial_rows(nu, range(n + 1), 2 * n)

    def entry(i, j):
        out = Fraction(0)
        for t in range(i, 2 * j + 2):
            out += ((Fraction(*mus[i](t - i - 1)) + Fraction(*mus[i + 1](t - i)))
                    * (Fraction(*nus[j](2 * j + 1 - t)) + Fraction(*nus[j + 1](2 * j + 1 - t)))
                    * x ** (2 * j + 1 - t))
        return out
    return MatrixR.build(n, n, entry)


def _mrr_factor_trial(rng, n):
    params = {"x": rand_frac(rng), "mu": rand_frac(rng), "nu": rand_frac(rng)}
    x, mu, nu = params["x"], params["mu"], params["nu"]
    z = _build_z(2 * n, x, mu, nu)
    z_even = det(z)
    z_odd = det(z.submatrix(range(2 * n - 1), range(2 * n - 1)))
    t_n = det(_build_t(n, x, mu, nu / 2))
    r_n = det(_build_r(n, x, mu, nu / 2))
    r_prev = det(_build_r(n - 1, x, mu, nu / 2))
    lhs = (z_even, z_odd)
    rhs = (t_n * r_n, 2 * t_n * r_prev)
    return params, lhs, rhs


register(IdentityRecord(id="mrr-factor", trial=_mrr_factor_trial, max_n=2))


# ---------------------------------------------------------------------------
# binom(mu+i+j, 2i-j) and relatives (all 0-based)


def _build_mrr(n, mu):
    # entry (i, j) is binomial(mu + i + j, 2i - j), one table per i + j
    tables = _binomial_rows(rat(mu), range(2 * n - 1), 2 * n - 2)
    return pair_matrix(n, lambda i, j: tables[i + j](2 * i - j))


def _closed_mrr(n, mu):
    # (mu + i + 1)_((i+1)//2) (-mu - 3n + i + 3/2)_(i//2) / (i)_i, 1 <= i < n
    mu = pair(mu)
    return prod(chain([_sign_mod4(n) * 2 ** ((n - 1) * (n - 2) // 2)], *(
        (rising(add(mu, (i + 1, 1)), (i + 1) // 2),
         rising(sub((2 * (i - 3 * n) + 3, 2), mu), i // 2), inv(rising((i, 1), i)))
        for i in range(1, n))))


det_record("mrr", _sample_mu, _build_mrr, _closed_mrr, max_n=5)


def _build_rn(n, mu):
    tables = _binomial_rows(rat(mu), range(2 * n + 1), 2 * n - 1)

    def entry(i, j):
        # binomial(mu+i+j, 2i-j) + 2 binomial(mu+i+j+2, 2i-j+1), one table
        # per i + j and i + j + 2
        (n1, d1), (n2, d2) = tables[i + j](2 * i - j), tables[i + j + 2](2 * i - j + 1)
        return n1 * d2 + 2 * n2 * d1, d1 * d2
    return pair_matrix(n, entry)


def _closed_rn(n, mu):
    # (mu + i)_(i//2) (mu + 3n - (3i-1)//2 + 1/2)_((i+1)//2) / (2i-1)!!, 1 <= i <= n
    mu = pair(mu)
    return prod(chain([2 ** n], *(
        (rising(add(mu, (i, 1)), i // 2),
         rising(add(mu, (2 * (3 * n - (3 * i - 1) // 2) + 1, 2)), (i + 1) // 2),
         (1, double_factorial(2 * i - 1)))
        for i in range(1, n + 1))))


det_record("rn", _sample_mu, _build_rn, _closed_rn, max_n=5)


def _sample_xy(rng, n):
    return {"x": rand_frac(rng), "y": rand_frac(rng)}


def _build_chu1(n, c, x):
    # entry (i, j) is the sum over c +- x_i = p/d of binomial(p/d + s, k) =
    # prod_{t<k} (p + (s-t)d) / (d^k k!), s = i + j, k = 2i - j; x_i moves
    # with the row, so each entry takes its own integer falling products
    c = rat(c)
    rows = [(pair(c + v), pair(c - v)) for v in map(rat, x)]

    def entry(i, j):
        s, k = i + j, 2 * i - j
        if k < 0:
            return ZERO
        (p1, d1), (p2, d2) = rows[i]
        n1 = math.prod(range(p1 + s * d1, p1 + (s - k) * d1, -d1))
        n2 = math.prod(range(p2 + s * d2, p2 + (s - k) * d2, -d2))
        return n1 * d2 ** k + n2 * d1 ** k, (d1 * d2) ** k * math.factorial(k)
    return pair_matrix(n, entry)


def _build_ab(n, x, y):
    # chu1 at c = (x+y)/2 with every x_i = (x-y)/2
    x, y = rat(x), rat(y)
    return _build_chu1(n, (x + y) / 2, [(x - y) / 2] * n)


def _closed_ab(n, x, y):
    return 2 ** n * _closed_mrr(n, (rat(x) + rat(y)) / 2)


det_record("ab", _sample_xy, _build_ab, _closed_ab, max_n=5)


def _sample_chu1(rng, n):
    return {"c": rand_frac(rng),
            "x": tuple(rand_frac(rng) for _ in range(n))}


def _closed_chu1(n, c, x):
    return 2 ** n * _closed_mrr(n, c)


det_record("chu1", _sample_chu1, _build_chu1, _closed_chu1, max_n=5)


def _sample_c(rng, n):
    # the entries divide by (c+s+1/2)(c+s-1/2), s = i + j <= 2n - 2,
    # which vanishes exactly when 2c is an odd integer in [-(4n-3), 1]
    c = rand_frac(rng)
    if c.denominator == 2 and -(4 * n - 3) <= c.numerator <= 1:
        raise Resample
    return {"c": c}


def _build_chu2(n, c):
    # with c = p/d, s = i + j, k = 2i - j and u = 2p + (2s+1)d, entry
    # (i, j) is the quotient 4((k-1)d^2 + (2p+3jd)^2) / (u (u - 2d)) times
    # binomial(c+s+1/2, k) = prod_{t<k} (u - 2td) / ((2d)^k k!), 0 for
    # k < 0.  Every s <= 2n - 2 has a cell with k >= 0, so the matrix
    # raises ZeroDivisionError exactly when some u (u - 2d) vanishes
    c = rat(c)
    p, d = c.numerator, c.denominator

    def entry(i, j):
        s, k = i + j, 2 * i - j
        if k < 0:
            return ZERO
        u = 2 * p + (2 * s + 1) * d
        num = (4 * ((k - 1) * d * d + (2 * p + 3 * j * d) ** 2)
               * math.prod(range(u, u - 2 * k * d, -2 * d)))
        return num, u * (u - 2 * d) * (2 * d) ** k * math.factorial(k)
    return pair_matrix(n, entry)


def _closed_chu2(n, c):
    return 4 ** n * _closed_mrr(n, rat(c) - Fraction(1, 2))


det_record("chu2", _sample_c, _build_chu2, _closed_chu2, max_n=5)
