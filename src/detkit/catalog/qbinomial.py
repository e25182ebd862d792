"""Determinants with binomial and q-binomial entries indexed by a
strictly decreasing (or increasing) integer sequence L, plus the
perturbed-identity family det(±I + binomial matrix)."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations

from ..exactnum import (_binomial_pairs, _q_binomial_pairs, double_factorial,
                        factorial, power_pairs, rat)
from .base import (ZERO, _ceil, _sample_mu, add, decreasing_ints,
                   det_record, differences, mul, one_minus, pair,
                   pair_matrix, pairs, power, prod, q_factorials, q_prod,
                   rand_frac, rand_q, rising)


def _q_binomial_tables(alphas, q, hi):
    """One [alpha choose k]_q table, k <= hi, per distinct alpha."""
    return {alpha: _q_binomial_pairs(alpha, q, hi) for alpha in set(alphas)}


# ---------------------------------------------------------------------------
# q-binomial columns shifted by j


def _sample_pp1(rng, n):
    return {"L": decreasing_ints(rng, n, hi=7), "A": rng.randint(n, n + 4),
            "q": rand_q(rng, 7)}


def _build_pp1(n, L, A, q):
    # entry (i, j) is [L_i+A+j+1 choose L_i+j+1]_q
    tables = _q_binomial_tables((v + A + j + 1 for v in L for j in range(n)), q, max(L) + n)
    return pair_matrix(n, lambda i, j: tables[L[i] + A + j + 1](L[i] + j + 1))


def _closed_pp1(n, L, A, q):
    e = sum(i * (L[i] + i + 1) for i in range(n))
    return q_prod(q, [*(u - v for u, v in combinations(L, 2)),
                      *q_factorials(v + A + 1 for v in L)],
                  q_factorials(m for i in range(n) for m in (L[i] + n, A - i)), power(pair(q), e))


det_record("pp1", _sample_pp1, _build_pp1, _closed_pp1, max_n=5)


def _sample_pp2(rng, n):
    L = decreasing_ints(rng, n, hi=6)
    return {"L": L, "A": rng.randint(L[0] + 2, L[0] + 6), "q": rand_q(rng, 7)}


def _build_pp2(n, L, A, q):
    # entry (i, j) is q^((j+1)L_i) [A choose L_i+j+1]_q
    q, table = pair(q), _q_binomial_pairs(A, q, max(L) + n)

    def entry(i, j):
        (a, b), (c, e) = power(q, (j + 1) * L[i]), table(L[i] + j + 1)
        return a * c, b * e
    return pair_matrix(n, entry)


def _closed_pp2(n, L, A, q):
    return q_prod(q, [*(u - v for u, v in combinations(L, 2)),
                      *q_factorials(A + i for i in range(n))],
                  q_factorials(m for v in L for m in (v + n, A - v - 1)),
                  power(pair(q), sum((i + 1) * L[i] for i in range(n))))


det_record("pp2", _sample_pp2, _build_pp2, _closed_pp2, max_n=5)


def _sample_pp3(rng, n):
    return {"L": decreasing_ints(rng, n, hi=7),
            "A": rand_frac(rng), "B": rand_frac(rng)}


def _build_pp3(n, L, A, B):
    # row i reads binomial(B L_i + A, L_i + j + 1) from one table
    A, B = rat(A), rat(B)
    rows = [_binomial_pairs(B * v + A, v + n) for v in L]
    return pair_matrix(n, lambda i, j: rows[i](L[i] + j + 1))


def _closed_pp3(n, L, A, B):
    A, B = rat(A), rat(B)
    return prod(chain(differences(pairs(L[::-1])), *(
        (rising(pair((B - 1) * L[i] + A), L[i] + 1), rising(pair(A - B * (i + 1) + 1), i),
         (1, factorial(L[i] + n))) for i in range(n))))


det_record("pp3", _sample_pp3, _build_pp3, _closed_pp3, max_n=5)


def _sample_abel(rng, n):
    return {"L": decreasing_ints(rng, n, hi=n),
            "A": rand_frac(rng), "B": rand_frac(rng)}


def _build_abel(n, L, A, B):
    # entry (i, j) is (A + B L_i)^j / (j + 1 - L_i)!, 0 where j + 1 < L_i
    A, B = rat(A), rat(B)
    rows = [power_pairs(A + B * v, 0, n - 1) for v in L]

    def entry(i, j):
        m = j + 1 - L[i]
        if m < 0:
            return ZERO
        a, b = rows[i](j)
        return a, b * factorial(m)
    return pair_matrix(n, entry)


def _closed_abel(n, L, A, B):
    # prod_i (A + B (i+1))^i / (n - L_i)!, with 1/(negative)! = 0
    A, B = pair(A), pair(B)
    return prod(chain(differences(pairs(L)),
                      (power(add(A, mul(B, (i + 1, 1))), i) for i in range(n)),
                      ((1, factorial(n - v)) if v <= n else 0 for v in L)))


det_record("abel", _sample_abel, _build_abel, _closed_abel, max_n=5)


def _sample_shifted(rng, n):
    return {"L": decreasing_ints(rng, n, hi=6),
            "A": rng.randint(2 * n, 2 * n + 4), "q": rand_q(rng, 7)}


def _build_shifted(n, L, A, q):
    # entry (i, j) is q^((j+1)L_i) [L_i+A-j-1 choose L_i+j+1]_q
    tables = _q_binomial_tables((v + A - j - 1 for v in L for j in range(n)), q, max(L) + n)
    q = pair(q)

    def entry(i, j):
        (a, b), (c, e) = power(q, (j + 1) * L[i]), tables[L[i] + A - j - 1](L[i] + j + 1)
        return a * c, b * e
    return pair_matrix(n, entry)


def _closed_shifted(n, L, A, q):
    ij = list(combinations(L, 2))
    return q_prod(q, [*(u - v for u, v in ij), *(u + v + A + 1 for u, v in ij),
                      *q_factorials(v + A - n for v in L)],
                  q_factorials(m for i in range(n) for m in (L[i] + n, A - 2 * (i + 1))),
                  power(pair(q), sum((i + 1) * L[i] for i in range(n))))


det_record("shifted", _sample_shifted, _build_shifted, _closed_shifted, max_n=5)


# ---------------------------------------------------------------------------
# products and ratios of two q-binomials


def _sample_pp5(rng, n):
    B = rng.randint(max(1, n - 1), n + 2)
    lo = max(0, B - n)
    L = tuple(sorted(rng.sample(range(lo, lo + n + 5), n), reverse=True))
    return {"L": L, "A": rng.randint(2 * n + 1, 2 * n + 5), "B": B,
            "q": rand_q(rng, 7)}


def _build_pp5(n, L, A, B, q):
    # each distinct q-binomial once: the alphas L_i + j + 1 and
    # L_i + A - j - 1 span about 4n values for the n^2 entries
    q = rat(q)
    alphas = {alpha for i in range(n) for j in range(n)
              for alpha in (L[i] + j + 1, L[i] + A - j - 1)}
    binoms = {alpha: _q_binomial_pairs(alpha, q, B)(B) for alpha in alphas}

    def entry(i, j):
        (a, b), (c, d) = binoms[L[i] + j + 1], binoms[L[i] + A - j - 1]
        return a * c, b * d
    return pair_matrix(n, entry)


def _closed_pp5(n, L, A, B, q):
    # the q-integers of the pairs i0 < j, the q-factorials of each row i0 (i = i0 + 1)
    c3 = (n + 1) * n * (n - 1) // 6
    e = sum(i * L[i] for i in range(n)) - B * (n * (n - 1) // 2) + 2 * c3
    ij = list(combinations(L, 2))
    return q_prod(q, [*(u - v for u, v in ij), *(u + v + A - B + 1 for u, v in ij),
                      *q_factorials(m for i0 in range(n)
                                    for m in (L[i0] + 1, L[i0] + A - n, A - 2 * i0 - 3))],
                  q_factorials(m for i0 in range(n) for m in (
                      L[i0] - B + n, L[i0] + A - B - 1, A - i0 - n - 2, B + i0 + 1 - n, B)),
                  power(pair(q), e))


det_record("pp5", _sample_pp5, _build_pp5, _closed_pp5, max_n=5)


def _sample_pp5a(rng, n):
    X = decreasing_ints(rng, n, hi=6)
    B = rng.randint(n - 1, n + 3) if n > 1 else rng.randint(1, 4)
    A = rng.randint(max(0, X[0] - B + n - 1), X[0] - B + n + 4)
    Y = tuple(rng.randint(0, 6) for _ in range(n))
    return {"X": X, "Y": Y, "A": A, "B": B, "q": rand_q(rng, 7)}


def _build_pp5a(n, X, Y, A, B, q):
    # entry (i, j) is [X_i+Y_j, j]_q [Y_j+A-X_i, j]_q / ([X_i+B, j]_q [A+B-X_i, j]_q)
    tables = _q_binomial_tables(
        [a for x in X for a in (x + B, A + B - x)]
        + [a for x in X for y in Y for a in (x + y, y + A - x)], q, n - 1)

    def entry(i, j):
        (n1, d1), (n2, d2) = tables[X[i] + B](j), tables[A + B - X[i]](j)
        (n3, d3), (n4, d4) = tables[X[i] + Y[j]](j), tables[Y[j] + A - X[i]](j)
        return n3 * n4 * d1 * d2, d3 * d4 * n1 * n2
    return pair_matrix(n, entry)


def _closed_pp5a(n, X, Y, A, B, q):
    # the bracket factors are unnormalized here, 1 - q^m, and so is each
    # (q^a;q)_k = prod_{j<k} (1 - q^(a+j))
    e = n * (n - 1) * (n - 2) // 3 + sum(i * (X[i] + Y[i] - A - 2 * B) for i in range(n))
    ups = [m for i in range(n) for j in range(i + 1, n) for m in (X[i] - X[j], X[i] + X[j] - A)]
    ups += [a + k for i in range(n) for a in (B - Y[i] - i + 1, Y[i] + A + B + 2 - 2 * i)
            for k in range(i)]
    downs = [a + k for i in range(n) for a in (X[i] - A - B, X[i] + B - n + 2)
             for k in range(n - 1)]
    return q_prod(q, one_minus(ups), one_minus(downs), power(pair(q), e))


det_record("pp5a", _sample_pp5a, _build_pp5a, _closed_pp5a, max_n=4)


# ---------------------------------------------------------------------------
# differences/sums of two q-binomials (reflection-symmetric index sets)


def _sample_incr(rng, n):
    return {"L": decreasing_ints(rng, n, hi=n)[::-1],
            "A": rng.randint(2, 6), "q": rand_q(rng, 7)}


def _make_pp4(identity_id, t):
    """pp4 (t = 1) and pp4a (t = 0): with 1-based j, entry (i, j) is
    q^(j(L_j-L_i)) ([A, j-L_i]_q - q^(j(2L_i+A-t)) [A, -j-L_i+t]_q)."""

    def build(n, L, A, q):
        table, q = _q_binomial_pairs(A, q, n + 1 - min(L)), pair(q)

        def entry(i0, j0):
            j = j0 + 1
            (a, b), (c, d) = table(j - L[i0]), table(-j - L[i0] + t)
            (e, f), (g, h) = power(q, j * (L[j0] - L[i0])), power(q, j * (2 * L[i0] + A - t))
            return e * (a * d * h - c * g * b), f * b * d * h
        return pair_matrix(n, entry)

    def closed(n, L, A, q):
        return q_prod(q, [*(v - u for u, v in combinations(L, 2)),
                          *(L[i] + L[j] + A - t for i in range(n) for j in range(i, n)),
                          *q_factorials(A + 2 * i + 1 - t for i in range(n))],
                      q_factorials(m for v in L for m in (n - v, A + n - t + v)))

    det_record(identity_id, _sample_incr, build, closed, max_n=5)


_make_pp4("pp4", 1)
_make_pp4("pp4a", 0)


def _sample_pp6(rng, n):
    return {"L": decreasing_ints(rng, n, hi=n)[::-1],
            "A": 2 * rng.randint(1, 4), "r": rand_q(rng, 5)}


def _make_pp6(identity_id, t):
    """pp6 (t = 1) and pp6a (t = 2), with q = r^2: with 1-based j, entry
    (i, j) is r^((2j-1)(L_j-L_i)) ([A, j-L_i]_q
    + r^((2j-1)(2L_i+A-t)) [A, -j-L_i+t]_q)."""

    def build(n, L, A, r):
        r = rat(r)
        table, r = _q_binomial_pairs(A, r * r, n + 1 - min(L)), pair(r)

        def entry(i0, j0):
            j = j0 + 1
            (a, b), (c, d) = table(j - L[i0]), table(-j - L[i0] + t)
            (e, f) = power(r, (2 * j - 1) * (L[j0] - L[i0]))
            (g, h) = power(r, (2 * j - 1) * (2 * L[i0] + A - t))
            return e * (a * d * h + c * g * b), f * b * d * h
        return pair_matrix(n, entry)

    def closed(n, L, A, r):
        # 1 + r^(2i+A-t) = 1 - a q^(i+(A-t)//2), a = -r^((A-t)%2); pp6a (t = 2) skips i = 1
        r, ij = rat(r), list(combinations(L, 2))
        a = -r ** ((A - t) % 2)
        return q_prod(r * r, [*(v - u for u, v in ij), *(u + v + A - t for u, v in ij),
                              *q_factorials(A + 2 * i + 2 - t for i in range(n)),
                              *one_minus((v + (A - t) // 2 for v in L), a)],
                      q_factorials(m for v in L for m in (n - v, A + n + v - t))
                      + one_minus((i + (A - t) // 2 for i in range(t, n + 1)), a))

    det_record(identity_id, _sample_pp6, build, closed, max_n=5)


_make_pp6("pp6", 1)
_make_pp6("pp6a", 2)


# ---------------------------------------------------------------------------
# perturbed identity plus binomial matrix


def _binomial_plus_diagonal(diag):
    """The builder of andrews (diag = 1) and zare1 (diag = -1): entry
    (i, j) is diag * [i == j] + binom(2mu+i+j, j)."""
    def build(n, mu):
        # one binomial(2mu + s, j) table per s = i + j
        mu = rat(mu)
        tables = [_binomial_pairs(2 * mu + s, min(s, n - 1)) for s in range(2 * n - 1)]

        def entry(i, j):
            a, b = tables[i + j](j)
            return (a + diag * b if i == j else a), b
        return pair_matrix(n, entry)
    return build


def _closed_andrews(n, mu):
    mu = pair(mu)
    factors = [2 ** _ceil(n, 2)]
    factors += (rising(add(mu, (_ceil(i, 2) + 1, 1)), (i + 3) // 4) for i in range(1, n - 1))
    if n % 2 == 0:
        for i in range(1, n // 2 + 1):
            base = add(mu, (3 * n - 2 * _ceil(3 * i, 2) + 3, 2))  # mu + 3n/2 - ceil(3i/2) + 3/2
            factors += rising(base, _ceil(i, 2) - 1), rising(base, _ceil(i, 2))
        factors += ((1, double_factorial(2 * i - 1) * double_factorial(2 * i + 1))
                    for i in range(1, n // 2))
    else:
        for i in range(1, (n - 1) // 2 + 1):
            # (mu + 3n/2 - ceil((3i-1)/2) + 1)_ceil((i-1)/2) (mu + 3n/2 - ceil(3i/2))_ceil(i/2)
            factors += (rising(add(mu, (3 * n - 2 * _ceil(3 * i - 1, 2) + 2, 2)), _ceil(i - 1, 2)),
                        rising(add(mu, (3 * n - 2 * _ceil(3 * i, 2), 2)), _ceil(i, 2)),
                        (1, double_factorial(2 * i - 1) ** 2))
    return prod(factors)


det_record("andrews", _sample_mu, _binomial_plus_diagonal(1), _closed_andrews, max_n=5)


def _sample_q_only(rng, n):
    return {"q": rand_q(rng, 7)}


def _diagonal_plus_q_binomials(n, q, base, shift, step, offset):
    """The matrix of csp and descpp: entry (i, j) is [i == j] plus
    q^(step*i+offset) [s+shift choose j]_(q^base) with s = i + j, read
    from one q-binomial table per s."""
    q = rat(q)
    tables = [_q_binomial_pairs(s + shift, q ** base, min(s, n - 1)) for s in range(2 * n - 1)]
    q = pair(q)

    def entry(i, j):
        (a, b), (c, d) = power(q, step * i + offset), tables[i + j](j)
        return (a * c + b * d if i == j else a * c), b * d
    return pair_matrix(n, entry)


def _build_csp(n, q):
    return _diagonal_plus_q_binomials(n, q, 3, 0, 3, 1)


def _closed_csp(n, q):
    ij = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return q_prod(q, one_minus([3 * i - 1 for i in range(1, n + 1)]
                               + [3 * (n + i + j - 1) for i, j in ij]),
                  one_minus([3 * i - 2 for i in range(1, n + 1)]
                            + [3 * (2 * i + j - 1) for i, j in ij]))


det_record("csp", _sample_q_only, _build_csp, _closed_csp, max_n=5)


def _build_descpp(n, q):
    return _diagonal_plus_q_binomials(n, q, 1, 2, 1, 2)


def _closed_descpp(n, q):
    ij = [(i, j) for i in range(1, n + 2) for j in range(i, n + 2)]
    return q_prod(q, one_minus(n + i + j for i, j in ij),
                  one_minus(2 * i + j - 1 for i, j in ij))


det_record("descpp", _sample_q_only, _build_descpp, _closed_descpp, max_n=5)


def _sample_zare(rng, n):
    return {"mu": rng.randint(0, 6)}


def _closed_zare1(n, mu):
    if n % 2:
        return Fraction(0)
    f = factorial
    return prod(chain([(-1) ** (n // 2)], (
        (f(i) ** 2 * f(mu + i) ** 2 * f(mu + 3 * i + 1) ** 2 * f(2 * mu + 3 * i + 1) ** 2,
         f(2 * i) * f(2 * i + 1) * f(mu + 2 * i) ** 2 * f(mu + 2 * i + 1) ** 2
         * f(2 * mu + 2 * i) * f(2 * mu + 2 * i + 1)) for i in range(n // 2))))


det_record("zare1", _sample_zare, _binomial_plus_diagonal(-1), _closed_zare1, max_n=5)
