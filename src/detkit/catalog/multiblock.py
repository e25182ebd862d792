"""Block-column generalizations of the power-matrix determinant:
derivative columns, Euler-operator columns, discrete Wronskians via
divided differences, and their q-analogues."""

from __future__ import annotations

import math
from itertools import accumulate, chain

from ..exactnum import (_homogeneous, _q_int_pairs, _running, factorial,
                        integer_numerators, power_pairs, rat)
from ..linalg import MatrixR, det
from .base import (ZERO, det_record, differences, distinct_fracs, int_poly,
                   mul, pair, pair_matrix, pairs, poly_pair, power, prod,
                   q_factorials, q_prod, rand_frac, rand_q, sub)


def _binom2(m: int) -> int:
    return m * (m - 1) // 2


def _binom3(m: int) -> int:
    return m * (m - 1) * (m - 2) // 6


def _rand_composition(rng, n: int) -> tuple[int, ...]:
    parts = []
    rem = n
    while rem:
        p = rng.randint(1, rem)
        parts.append(p)
        rem -= p
    return tuple(parts)


def _columns(parts):
    """(block index, within-block 1-based column) in matrix order."""
    out = []
    for k, m in enumerate(parts):
        out.extend((k, s) for s in range(1, m + 1))
    return out


# ---------------------------------------------------------------------------
# derivative columns


def _sample_flha1(rng, n):
    parts = _rand_composition(rng, n)
    return {"parts": parts, "X": distinct_fracs(rng, len(parts))}


def _build_flha1(n, parts, X):
    # entry (i, (k, s)) is i(i-1)...(i-s+2) X_k^(i-s+1), 0 for i < s - 1
    cols = _columns(parts)
    rows = [power_pairs(x, 0, n - 1) for x in X]

    def entry(i, jc):
        k, s = cols[jc]
        if i < s - 1:
            return ZERO
        a, b = rows[k](i - s + 1)
        return math.perm(i, s - 1) * a, b
    return pair_matrix(n, entry)


def _closed_flha1(n, parts, X):
    X, ell = pairs(X), len(parts)
    return prod(chain((factorial(j) for m in parts for j in range(1, m)),
                      (power(sub(X[j], X[i]), parts[i] * parts[j])
                       for i in range(ell) for j in range(i + 1, ell))))


det_record("flha1", _sample_flha1, _build_flha1, _closed_flha1, max_n=5)


# ---------------------------------------------------------------------------
# Euler-operator columns


def _sample_flha2(rng, n):
    parts = _rand_composition(rng, n)
    return {"parts": parts, "X": distinct_fracs(rng, len(parts), nonzero=True)}


def _build_flha2(n, parts, X):
    # entry (i, (k, s)) is i^(s-1) X_k^i
    cols = _columns(parts)
    rows = [power_pairs(x, 0, n - 1) for x in X]

    def entry(i, jc):
        k, s = cols[jc]
        a, b = rows[k](i)
        return i ** (s - 1) * a, b
    return pair_matrix(n, entry)


def _closed_flha2(n, parts, X):
    return _closed_flha1(n, parts, X) * prod(power(x, _binom2(m)) for x, m in zip(pairs(X), parts))


det_record("flha2", _sample_flha2, _build_flha2, _closed_flha2, max_n=5)


# ---------------------------------------------------------------------------
# discrete Wronskians


def _sample_wronski(rng, n):
    parts = _rand_composition(rng, n)
    a = distinct_fracs(rng, n)
    polys = tuple(tuple(rand_frac(rng) for _ in range(n)) for _ in range(n))
    return {"parts": parts, "a": a, "polys": polys}


def _newton_ints(p, us, v):
    """The Newton divided-difference coefficients of the `int_poly` p
    over the points us[j]/v, as integer pairs.

    With p = sum c_t x^t / d, F(u) = sum c_t u^t v^(top-t) is an integer
    polynomial, so its divided differences over the integer nodes us are
    integers, each level's by exact division; p's of order l is F's over
    d v^(top-l)."""
    cs, d, top = p
    table = [_homogeneous(cs, u, v, top) for u in us]
    out = [(table[0], d * v ** top)] if table else []
    for level in range(1, len(us)):
        table = [(table[j + 1] - table[j]) // (us[j + level] - us[j])
                 for j in range(len(table) - 1)]
        out.append((table[0], d * v ** (top - level)))
    return out


def _build_wronski(n, parts, a, polys):
    # entry (i, (k, s)) is the divided difference of p_i over the first s
    # points of block k, read from one Newton table per block and p_i
    ps = [int_poly(cs, n - 1) for cs in polys]
    tables = []
    for m, end in zip(parts, accumulate(parts)):
        us, v = integer_numerators([rat(x) for x in a[end - m:end]])
        tables.append([_newton_ints(p, us, v) for p in ps])
    cols = _columns(parts)

    def entry(i, jc):
        k, s = cols[jc]
        return tables[k][i][s - 1]
    return pair_matrix(n, entry)


def _closed_wronski(n, parts, a, polys):
    ps, pts = [int_poly(cs) for cs in polys], pairs(a)
    plain = det(pair_matrix(n, lambda i, j: poly_pair(ps[i], pts[j])))
    return plain / prod(chain.from_iterable(
        differences(pts[end - m:end]) for m, end in zip(parts, accumulate(parts))))


det_record("wronski", _sample_wronski, _build_wronski, _closed_wronski, max_n=5)


# ---------------------------------------------------------------------------
# q-analogues


def _sample_qflha1(rng, n):
    parts = _rand_composition(rng, n)
    return {"parts": parts, "X": distinct_fracs(rng, len(parts), nonzero=True),
            "C": rng.randint(0, 4), "q": rand_q(rng)}


def _build_qflha1(n, parts, X, C, q):
    # entry (i, (k, s)) is prod_{1 <= t < s} [C+i-t+1]_q * X_k^(i+1-s);
    # row i reads the coefficient of column s from one running product of
    # q-integer pairs, and the powers from one power row per X_k
    cols = _columns(parts)
    top = max(parts, default=1)
    q_int_pair = _q_int_pairs(q, abs(C) + n + top)
    powers = [power_pairs(x, 1 - m, n) for x, m in zip(X, parts)]
    rows = []
    for i in range(n):
        coeffs = _running(q_int_pair(C + i - t + 1) for t in range(1, top))
        rows.append([mul(coeffs(s - 1), powers[k](i + 1 - s)) for k, s in cols])
    return MatrixR.from_pairs(rows)


def _cross_q(parts, X, q, *factors):
    """The qflha1 and qflha2 closed forms: the factors times, for integer
    pairs X, [j]_q! for 1 <= j < m over the parts m, and q^(t-s) X_j - X_i
    for i < j, s < m_i and t < m_j."""
    ell, qp = len(parts), pair(q)
    return q_prod(q, q_factorials(j for m in parts for j in range(1, m)), (), *factors,
                  *(sub(mul(power(qp, t - s), X[j]), X[i])
                    for i in range(ell) for j in range(i + 1, ell)
                    for s in range(parts[i]) for t in range(parts[j])))


def _n_exponent(parts, C, with_cubes: bool) -> int:
    ell = len(parts)
    out = 0
    before = 0
    for i in range(ell):
        m = parts[i]
        for j in range(1, m + 1):
            out += (C + j + before - 1) * (m - j)
        if with_cubes:
            out -= _binom3(m)
        before += m
    for i in range(ell):
        for j in range(i + 1, ell):
            out -= parts[i] * _binom2(parts[j]) - parts[j] * _binom2(parts[i])
    return out


def _closed_qflha1(n, parts, X, C, q):
    return _cross_q(parts, pairs(X), q, power(pair(q), _n_exponent(parts, C, with_cubes=True)))


det_record("qflha1", _sample_qflha1, _build_qflha1, _closed_qflha1, max_n=5)


def _build_qflha2(n, parts, X, C, q):
    # entry (i, (k, s)) is [C+i]_q^(s-1) X_k^i
    cols = _columns(parts)
    q_int_pair = _q_int_pairs(q, max(abs(C), abs(C + n - 1)))
    rows = [power_pairs(x, 0, n - 1) for x in X]

    def entry(i, jc):
        k, s = cols[jc]
        (a, b), (c, d) = power(q_int_pair(C + i), s - 1), rows[k](i)
        return a * c, b * d
    return pair_matrix(n, entry)


def _closed_qflha2(n, parts, X, C, q):
    X = pairs(X)
    return _cross_q(parts, X, q, power(pair(q), _n_exponent(parts, C, with_cubes=False)),
                    *(power(x, _binom2(m)) for x, m in zip(X, parts)))


det_record("qflha2", _sample_qflha1, _build_qflha2, _closed_qflha2, max_n=5)
