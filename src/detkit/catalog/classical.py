"""Alternant-style determinant records: power/Laurent-power matrices,
double alternants, the factored-column lemmas, and the boxed plane
partition product formula."""

from __future__ import annotations

from itertools import chain

from ..exactnum import binomial, power_pairs, rat
from ..linalg import PERMANENT_MAX_N, MatrixR, permanent
from .base import (ONE, ZERO, Resample, _vdm, add, det_record, differences,
                   distinct_fracs, int_poly, inv, mul, over_pairs, pair,
                   pair_matrix, pairs, poly_pair, power, prod, rand_frac,
                   rand_nonzero, sub)


# ---------------------------------------------------------------------------
# power matrices


def _sample_x(rng, n):
    return {"X": distinct_fracs(rng, n)}


def _build_vandermonde(n, X):
    rows = [power_pairs(x, 0, n - 1) for x in X]
    return pair_matrix(n, lambda i, j: rows[i](j))


def _closed_vandermonde(n, X):
    return _vdm(X)


det_record("vandermonde", _sample_x, _build_vandermonde, _closed_vandermonde, max_n=5)


def _sample_vdm_poly(rng, n):
    X = distinct_fracs(rng, n)
    polys = []
    for j in range(n):
        coeffs = [rand_frac(rng) for _ in range(j)] + [rand_nonzero(rng)]
        polys.append(tuple(coeffs))
    return {"X": X, "coeffs": tuple(polys)}


def _build_vdm_poly(n, X, coeffs):
    ps, X = [int_poly(cs) for cs in coeffs], pairs(X)
    return pair_matrix(n, lambda i, j: poly_pair(ps[j], X[i]))


def _closed_vdm_poly(n, X, coeffs):
    return prod(chain(pairs(c[-1] for c in coeffs), differences(pairs(X))))


det_record("vandermonde-poly", _sample_vdm_poly, _build_vdm_poly, _closed_vdm_poly, max_n=5)


def _sample_x_nonzero(rng, n):
    return {"X": distinct_fracs(rng, n, nonzero=True)}


def _weyl_pairs(X):
    """The factors (X_i - X_j)(1 - X_i X_j), i < j."""
    return over_pairs(lambda u, v: mul(sub(u, v), sub(ONE, mul(u, v))), X)


def _laurent_entries(n, X, s, step, offset):
    """The matrix of weyl-c, weyl-b, weyl-b2 and weyl-d: entry (i, j) is
    X_i^e + s X_i^-e with e = step*j + offset, read from one power row
    per X_i; a zero X_i raises ZeroDivisionError when some e > 0."""
    top = step * (n - 1) + offset
    rows = [power_pairs(x, -top, top) for x in X]

    def entry(i, j):
        e = step * j + offset
        (a, b), (c, d) = rows[i](e), rows[i](-e)
        return a * d + s * c * b, b * d
    return pair_matrix(n, entry)


def _build_weyl_c(n, X):
    return _laurent_entries(n, X, -1, 1, 1)


def _closed_weyl_c(n, X):
    X = pairs(X)
    return prod(chain((power(x, -n) for x in X), _weyl_pairs(X),
                      (sub(power(x, 2), ONE) for x in X)))


det_record("weyl-c", _sample_x_nonzero, _build_weyl_c, _closed_weyl_c, max_n=5)


def _sample_half_powers(rng, n):
    """Distinct base values t_i > 0, so the X_i = t_i^2 are distinct."""
    return {"t": distinct_fracs(rng, n, lo=1)}


def _make_weyl_b(identity_id, s):
    """weyl-b (s = -1) and weyl-b2 (s = 1): entry X_i^(j-1/2) + s X_i^-(j-1/2)
    with X_i = t_i^2, 1-based j."""

    def build(n, t):
        return _laurent_entries(n, t, s, 2, 1)

    def closed(n, t):
        t = pairs(t)
        X = [power(v, 2) for v in t]
        return prod(chain((power(v, 1 - 2 * n) for v in t), _weyl_pairs(X),
                          (add(x, (s, 1)) for x in X)))

    det_record(identity_id, _sample_half_powers, build, closed, max_n=5)


_make_weyl_b("weyl-b", -1)


def _build_weyl_d(n, X):
    return _laurent_entries(n, X, 1, 1, 0)


def _closed_weyl_d(n, X):
    X = pairs(X)
    return prod(chain((2,), (power(x, 1 - n) for x in X), _weyl_pairs(X)))


det_record("weyl-d", _sample_x_nonzero, _build_weyl_d, _closed_weyl_d, max_n=5)


_make_weyl_b("weyl-b2", 1)


# ---------------------------------------------------------------------------
# double alternants


def _sample_cauchy(rng, n):
    X = distinct_fracs(rng, n)
    Y = distinct_fracs(rng, n)
    xs = {(x.numerator, x.denominator) for x in X}
    if any((-y.numerator, y.denominator) in xs for y in Y):  # x + y == 0
        raise Resample
    return {"X": X, "Y": Y}


def _build_cauchy(n, X, Y):
    X, Y = pairs(X), pairs(Y)
    return MatrixR.from_pairs([[inv(add(x, y)) for y in Y] for x in X])


def _closed_cauchy(n, X, Y):
    X, Y = pairs(X), pairs(Y)
    return prod(chain(differences(X), differences(Y),
                      (inv(add(x, y)) for x in X for y in Y)))


det_record("cauchy", _sample_cauchy, _build_cauchy, _closed_cauchy, max_n=5)


def _sample_borchardt(rng, n):
    # refused before any draw: the closed form's permanent refuses this n
    if n > PERMANENT_MAX_N:
        raise ValueError(f"permanent capped at n <= {PERMANENT_MAX_N}")
    X = distinct_fracs(rng, n)
    Y = distinct_fracs(rng, n)
    if not {(x.numerator, x.denominator) for x in X}.isdisjoint(
            (y.numerator, y.denominator) for y in Y):  # x - y == 0
        raise Resample
    return {"X": X, "Y": Y}


def _build_borchardt(n, X, Y):
    X, Y = pairs(X), pairs(Y)
    return MatrixR.from_pairs([[power(sub(x, y), -2) for y in Y] for x in X])


def _closed_borchardt(n, X, Y):
    # the Cauchy product times the permanent of its factors 1/(x - y)
    X, Y = pairs(X), pairs(Y)
    cross = [[inv(sub(x, y)) for y in Y] for x in X]
    return prod(chain([(-1) ** (n * (n - 1) // 2), permanent(MatrixR.from_pairs(cross))],
                      differences(X), differences(Y), chain.from_iterable(cross)))


det_record("borchardt", _sample_borchardt, _build_borchardt, _closed_borchardt, max_n=5)


# ---------------------------------------------------------------------------
# factored-column lemmas


def _factored_columns(n, X, forms, A, B=(), switch=None, col_factor=None):
    """The matrix of the factored-column lemmas: with x = X_i and 1-based
    column c = j + 1, entry (i, j) is

        prod_{s=c+1}^{n} f(x, A_s) * prod_{s=2}^{c} f(x, B_s) * col_factor(x)[j]

    where A_s = A[s - 2] and B_s = B[s - 2], and f(x, u) is the product of
    w + sign*u over the pairs (w, sign) of forms(x); an empty B leaves out
    the second product and a missing col_factor the third.  With
    switch = (m, a, b) the columns c >= m take a and b for A and B.
    col_factor(x) gives the n column factors of row x as integer
    numerators and denominators.

    Each row keeps a running suffix product over the upper alphabet and a
    running prefix product over the lower one, on integer numerators and
    denominators, and hands one integer pair per entry to the matrix.
    """
    def running(fs, up, lo):
        sn, sd = [1] * n, [1] * n
        for j in range(n - 2, -1, -1):
            fn, fd = _linear_product(fs, (up[j],))
            sn[j], sd[j] = sn[j + 1] * fn, sd[j + 1] * fd
        pn, pd = [1] * n, [1] * n
        if lo:
            for j in range(1, n):
                fn, fd = _linear_product(fs, (lo[j - 1],))
                pn[j], pd[j] = pn[j - 1] * fn, pd[j - 1] * fd
        return sn, sd, pn, pd

    rows = []
    for xi in X:
        x = rat(xi)
        fs = _int_forms(forms(x))
        sn, sd, pn, pd = running(fs, A, B)
        if switch:
            m, a, b = switch
            for whole, tail in zip((sn, sd, pn, pd), running(fs, a, b)):
                whole[m - 1:] = tail[m - 1:]
        nums = [u * v for u, v in zip(sn, pn)]
        dens = [u * v for u, v in zip(sd, pd)]
        if col_factor:
            for j, (cn, cd) in enumerate(col_factor(x)):
                nums[j] *= cn
                dens[j] *= cd
        rows.append(list(zip(nums, dens)))
    return MatrixR.from_pairs(rows)


def _int_forms(pairs):
    """The pairs (w, sign) as (numerator of w, denominator of w, sign)."""
    return [(w.numerator, w.denominator, sign) for w, sign in pairs]


def _linear_product(forms, us):
    """prod over u in us and (wn, wd, sign) in forms of wn/wd + sign*u, as
    an integer numerator and denominator."""
    num = den = 1
    for u in us:
        u = rat(u)
        un, ud = u.numerator, u.denominator
        for wn, wd, sign in forms:
            num *= wn * ud + sign * un * wd
            den *= wd * ud
    return num, den


def _sample_xa(rng, n):
    return {"X": distinct_fracs(rng, n), "A": distinct_fracs(rng, n - 1),
            "B": distinct_fracs(rng, n - 1)}


def _build_krat1(n, X, A, B):
    return _factored_columns(n, X, lambda x: ((x, 1),), A, B)


# The closed forms of the lemmas below index their alphabets from 0:
# A[k] = A_(k+2), and so on.


def _closed_krat1(n, X, A, B):
    X, A, B = pairs(X), pairs(A), pairs(B)
    return prod(chain(differences(X[::-1]),  # prod_{i<j} (X_i - X_j)
                      (sub(B[i], A[j]) for i in range(n - 1) for j in range(i, n - 1))))


det_record("krat1", _sample_xa, _build_krat1, _closed_krat1, max_n=5)


def _sample_krat2(rng, n):
    return {"X": distinct_fracs(rng, n, nonzero=True),
            "A": distinct_fracs(rng, n - 1, nonzero=True),
            "C": rand_nonzero(rng)}


def _build_krat2(n, X, A, C):
    C = rat(C)
    return _factored_columns(n, X, lambda x: ((C / x, 1), (x, 1)), A)


def _dual(C):
    """The factor (u - v)(1 - C/(u v)) as a function of u and v."""
    return lambda u, v: mul(sub(u, v), sub(ONE, mul(C, inv(mul(u, v)))))


def _krat2_factors(X, A, C):
    """The factors of prod_{i=2}^n A_i^(i-1) prod_{i<j} (X_i - X_j)(1 - C/(X_i X_j))."""
    return chain((power(a, k + 1) for k, a in enumerate(A)), over_pairs(_dual(C), X))


def _closed_krat2(n, X, A, C):
    return prod(_krat2_factors(pairs(X), pairs(A), pair(C)))


det_record("krat2", _sample_krat2, _build_krat2, _closed_krat2, max_n=5)


def _build_krat2a(n, X, A, C):
    C = rat(C)
    return _factored_columns(n, X, lambda x: ((x - C, -1), (x, 1)), A)


def _krat2a_factors(X, C):
    """The factors of prod_{i<j} (X_j - X_i)(C - X_i - X_j)."""
    return over_pairs(lambda u, v: mul(sub(v, u), sub(C, add(u, v))), X)


def _closed_krat2a(n, X, A, C):
    return prod(_krat2a_factors(pairs(X), pair(C)))


det_record("krat2a", _sample_krat2, _build_krat2a, _closed_krat2a, max_n=5)


def _sample_krat3(rng, n):
    base = _sample_krat2(rng, n)
    # p_j(X) = prod_s (X + B[j][s])(C/X + B[j][s]): degree j, invariant
    # under X -> C/X
    B = tuple(tuple(rand_nonzero(rng) for _ in range(j)) for j in range(n))
    return {**base, "B": B}


def _build_krat3(n, X, A, C, B):
    # the column factor p_j(x) has the same linear factors as the columns
    C = rat(C)

    def forms(x):
        return (x, 1), (C / x, 1)
    return _factored_columns(
        n, X, forms, A,
        col_factor=lambda x: [_linear_product(_int_forms(forms(x)), bs) for bs in B])


def _closed_krat3(n, X, A, C, B):
    # krat2's product times p_(i-1)(-A_i) for i >= 2, where
    # p_j(x) = prod_{b in B[j]} (x + b)(C/x + b); p_0 = 1 adds nothing
    A, C = pairs(A), pair(C)
    return prod(chain(_krat2_factors(pairs(X), A, C), (
        f for k, a in enumerate(A) for b in pairs(B[k + 1])
        for f in (sub(b, a), sub(b, mul(C, inv(a)))))))


det_record("krat3", _sample_krat3, _build_krat3, _closed_krat3, max_n=5)


def _sample_krat3a(rng, n):
    X = distinct_fracs(rng, n)
    A = distinct_fracs(rng, n - 1)
    polys = tuple(tuple(rand_frac(rng) for _ in range(j + 1)) for j in range(n))
    return {"X": X, "A": A, "polys": polys}


def _build_krat3a(n, X, A, polys):
    ps = [int_poly(cs) for cs in polys]

    def col_factor(x):
        x = x.numerator, x.denominator
        return [poly_pair(p, x) for p in ps]
    return _factored_columns(n, X, lambda x: ((x, 1),), A, col_factor=col_factor)


def _closed_krat3a(n, X, A, polys):
    # p_0 is constant; p_(i-1) is evaluated at -A_i for i >= 2
    return prod(chain(differences(pairs(reversed(X))), [pair(polys[0][0])],
                      (poly_pair(int_poly(cs), sub(ZERO, a))
                       for cs, a in zip(polys[1:], pairs(A)))))


det_record("krat3a", _sample_krat3a, _build_krat3a, _closed_krat3a, max_n=5)


def _sample_krat5(rng, n):
    X = distinct_fracs(rng, n)
    A = distinct_fracs(rng, n - 1)
    C = rand_frac(rng)
    # p_j(X) = prod_s (X + B[j][s])(C - X + B[j][s]): degree 2j, invariant
    # under X -> C - X
    B = tuple(tuple(rand_frac(rng) for _ in range(j)) for j in range(n))
    return {"X": X, "A": A, "C": C, "B": B}


def _build_krat5(n, X, A, C, B):
    C = rat(C)

    def col_factor(x):
        fs = _int_forms(((x, 1), (C - x, 1)))
        return [_linear_product(fs, bs) for bs in B]
    return _factored_columns(n, X, lambda x: ((x, 1), (x - C, -1)), A,
                             col_factor=col_factor)


def _closed_krat5(n, X, A, C, B):
    # krat2a's product times p_(i-1)(-A_i) for i >= 2, where
    # p_j(x) = prod_{b in B[j]} (x + b)(C - x + b)
    C = pair(C)
    return prod(chain(_krat2a_factors(pairs(X), C), (
        f for k, a in enumerate(pairs(A)) for b in pairs(B[k + 1])
        for f in (sub(b, a), add(add(C, a), b)))))


det_record("krat5", _sample_krat5, _build_krat5, _closed_krat5, max_n=5)


def _sample_krat6(rng, n):
    return {"X": distinct_fracs(rng, n, nonzero=True),
            "A": distinct_fracs(rng, n - 1, nonzero=True),
            "B": distinct_fracs(rng, n - 1, nonzero=True),
            "a": distinct_fracs(rng, n - 1, nonzero=True),
            "b": distinct_fracs(rng, n - 1, nonzero=True),
            "C": rand_nonzero(rng),
            "m": rng.randint(2, n)}


def _build_krat6(n, X, A, B, a, b, C, m):
    C = rat(C)
    return _factored_columns(n, X, lambda x: ((x, 1), (C / x, 1)), A, B,
                             switch=(m, a, b))


def _switched_pairs(n, m, f, A, B, a, b):
    """The factors f(u, v) over the alphabet pairs of krat6 and krat7:
    (B_i, A_j) for 2 <= i <= j < m, (b_i, A_j) for i <= m <= j and
    (b_i, a_j) for m < i <= j."""
    return chain((f(B[i], A[j]) for i in range(m - 2) for j in range(i, m - 2)),
                 (f(b[i], A[j]) for i in range(m - 1) for j in range(m - 2, n - 1)),
                 (f(b[i], a[j]) for i in range(m - 1, n - 1) for j in range(i, n - 1)))


def _closed_krat6(n, X, A, B, a, b, C, m):
    X, A, B, a, b, C = pairs(X), pairs(A), pairs(B), pairs(a), pairs(b), pair(C)
    return prod(chain(
        over_pairs(_dual(C), X), _switched_pairs(n, m, _dual(C), A, B, a, b),
        (A[s] for i in range(m - 1) for s in range(i, n - 1)),
        (a[s] for i in range(m - 1, n - 1) for s in range(i, n - 1)),
        (B[s] for i in range(m - 2) for s in range(i + 1)),
        (b[s] for i in range(m - 2, n - 1) for s in range(i + 1))))


det_record("krat6", _sample_krat6, _build_krat6, _closed_krat6, max_n=5, min_n=2)


def _sample_krat7(rng, n):
    return {"X": distinct_fracs(rng, n),
            "A": distinct_fracs(rng, n - 1),
            "B": distinct_fracs(rng, n - 1),
            "a": distinct_fracs(rng, n - 1),
            "b": distinct_fracs(rng, n - 1),
            "C": rand_frac(rng),
            "m": rng.randint(2, n)}


def _build_krat7(n, X, A, B, a, b, C, m):
    C = rat(C)
    return _factored_columns(n, X, lambda x: ((x, 1), (x - C, -1)), A, B,
                             switch=(m, a, b))


def _closed_krat7(n, X, A, B, a, b, C, m):
    X, A, B, a, b, C = pairs(X), pairs(A), pairs(B), pairs(a), pairs(b), pair(C)
    return prod(chain(
        over_pairs(lambda u, v: mul(sub(u, v), sub(C, add(u, v))), X),
        _switched_pairs(n, m, lambda u, v: mul(sub(u, v), add(add(u, v), C)), A, B, a, b)))


det_record("krat7", _sample_krat7, _build_krat7, _closed_krat7, max_n=5, min_n=2)


# ---------------------------------------------------------------------------
# boxed plane partitions


def _sample_macmahon(rng, n):
    return {"a": rng.randint(0, 5), "b": rng.randint(0, 5)}


def build_macmahon(n, a, b):
    """n x n matrix with entry binom(a+b, a-i+j), 1-based i, j."""
    return MatrixR.build(
        n, n, lambda i, j: binomial(a + b, a - (i + 1) + (j + 1)))


def macmahon_product(n, a, b):
    """The triple product over an n x a x b box."""
    return prod((i + j + k - 1, i + j + k - 2) for i in range(1, n + 1)
                for j in range(1, a + 1) for k in range(1, b + 1))


det_record("macmahon", _sample_macmahon, build_macmahon, macmahon_product, max_n=5)


