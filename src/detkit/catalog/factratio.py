"""Determinants with factorial-ratio and q-shifted-factorial entries,
the banded binomial-sum family, and the mixed-row variant with one
distinguished row."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain

from ..exactnum import (_binomial_pairs, _q_pochhammer_pairs, double_factorial,
                        power_pairs, rat)
from ..linalg import MatrixR
from .base import (ZERO, Resample, det_record, inv, one_minus, pair,
                   pair_matrix, power, prod, q_prod, rand_nonzero, rand_q,
                   rising)


# ---------------------------------------------------------------------------
# factorial-ratio entries (x+y+i+j-1)!/((x+2i-j)!(y+2j-i)!), 0-based


def _sample_xy_pos(rng, n):
    x = rng.randint(0, 5)
    y = rng.randint(max(0, 1 - x), 5)
    return {"x": x, "y": y}


def _ratio_entries(n, x, y, shift, extra):
    """The matrix of krat-xy (shift = 0) and tsscpp1 (shift = 1): with
    a = x+2i-j+shift and b = y+2j-i+shift, entry (i, j) is 0 when a < 0
    or b < 0, and otherwise (x+y+i+j-1)! extra(i, j) / (a! b!), where
    extra returns an integer."""
    f = math.factorial

    def entry(i, j):
        a, b = x + 2 * i - j + shift, y + 2 * j - i + shift
        if a < 0 or b < 0:
            return ZERO
        return f(x + y + i + j - 1) * extra(i, j), f(a) * f(b)
    return pair_matrix(n, entry)


def _ratio_product(n, x, y, shift):
    """The product in the closed forms of krat-xy (shift = 0) and tsscpp1
    (shift = 1)."""
    f = math.factorial
    return prod(chain.from_iterable(
        ((f(i) * f(x + y + i - 1), f(x + 2 * i + shift) * f(y + 2 * i + shift)),
         rising((2 * x + y + 2 * i + shift, 1), i), rising((x + 2 * y + 2 * i + shift, 1), i))
        for i in range(n)))


def _build_kratxy(n, x, y):
    return _ratio_entries(n, x, y, 0, lambda i, j: 1)


def _closed_kratxy(n, x, y):
    return _ratio_product(n, x, y, 0)


det_record("krat-xy", _sample_xy_pos, _build_kratxy, _closed_kratxy, max_n=5)


def _sample_xyq(rng, n):
    return {**_sample_xy_pos(rng, n), "q": rand_q(rng, 7)}


def _q_ratio_entries(n, x, y, q, shift, extra):
    """The matrix of qkrat (shift = 0) and qtsscpp1 (shift = 1): with
    a = x+2i-j+shift and b = y+2j-i+shift, entry (i, j) is 0 when a < 0
    or b < 0, and otherwise

        (q;q)_(x+y+i+j-1) / ((q;q)_a (q;q)_b) * q^(-2ij)
            / (-q^(x+y+1+shift); q)_(i+j) * extra(i, j)

    where extra returns an integer numerator and denominator.
    (q;q)_m, the Pochhammer in the denominator and q^(-2ij) come from
    one table each."""
    q = rat(q)
    s = x + y - 1
    qq = _q_pochhammer_pairs(q, q, min(s, 0), max(s, x + shift, y + shift) + 2 * n - 2)
    neg = _q_pochhammer_pairs(-q ** (x + y + 1 + shift), q, 0, 2 * n - 2)
    qpow = power_pairs(q, -2 * (n - 1) ** 2, 0)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            a, b = x + 2 * i - j + shift, y + 2 * j - i + shift
            if a < 0 or b < 0:
                row.append(ZERO)
            else:
                (n1, d1), (n2, d2), (n3, d3) = qq(s + i + j), qq(a), qq(b)
                (n4, d4), (n5, d5) = neg(i + j), qpow(-2 * i * j)
                en, ed = extra(i, j)
                row.append((n1 * d2 * d3 * n5 * d4 * en, d1 * n2 * n3 * d5 * n4 * ed))
        rows.append(row)
    return MatrixR.from_pairs(rows)


def _one_minus_rows(n, es, a=1):
    """The `q_prod` keys of 1 - a q^e for e in es(i), i < n."""
    return one_minus((e for i in range(n) for e in es(i)), a)


def _q_ratio_product(n, x, y, q, shift):
    """The product in the closed forms of qkrat (shift = 0) and qtsscpp1
    (shift = 1): with b = 2x+y+shift and c = x+2y+shift,

        prod_i q^(-2i^2) (q^2;q^2)_i (q;q)_(x+y+i-1)
            (q^(b+2i);q)_i (q^(c+2i);q)_i
            / ((q;q)_(x+2i+shift) (q;q)_(y+2i+shift) (-q^(x+y+1+shift);q)_(n-1+i)),

    each q-shifted factorial as its factors 1 - q^e (1 + q^e in the last)."""
    b, c, low = 2 * x + y + shift, x + 2 * y + shift, x + y + 1 + shift
    return q_prod(q, _one_minus_rows(n, lambda i: chain(
                      range(2, 2 * i + 1, 2), range(1, x + y + i),
                      range(b + 2 * i, b + 3 * i), range(c + 2 * i, c + 3 * i))),
                  _one_minus_rows(n, lambda i: chain(range(1, x + 2 * i + shift + 1),
                                                     range(1, y + 2 * i + shift + 1)))
                  + _one_minus_rows(n, lambda i: range(low, low + n - 1 + i), -1),
                  power(pair(q), -2 * sum(i * i for i in range(n))))


def _build_qkrat(n, x, y, q):
    return _q_ratio_entries(n, x, y, q, 0, lambda i, j: (1, 1))


def _closed_qkrat(n, x, y, q):
    return _q_ratio_product(n, x, y, q, 0)


det_record("qkrat", _sample_xyq, _build_qkrat, _closed_qkrat, max_n=4)


def _sample_anst(rng, n):
    # a draw is a pole of the builder (a vanishing reciprocal q-Pochhammer
    # factor, or a zero (a;q)_k in a denominator) or of the closed form
    # exactly when E/x = q^e (2 <= e <= 2n-1), 1/(Ex) = q^e
    # (1 <= e <= 2n-2) or 1/|x| = q^e (2 <= e <= 2n-2)
    x = rand_nonzero(rng, lo=-5, hi=5, max_den=3)
    E = rand_nonzero(rng, lo=-5, hi=5, max_den=3)
    q = rand_q(rng, 7)
    powers = [q ** e for e in range(2 * n)]
    if (E / x in powers[2:] or 1 / (E * x) in powers[1:-1]
            or 1 / abs(x) in powers[2:-1]):
        raise Resample
    return {"x": x, "E": E, "q": q}


def _build_anst(n, x, E, q):
    # row i reads its five Pochhammers at k = i - j from one table each,
    # and (q;q)_(2i+1-j) from one table for the matrix; entries with
    # 2i + 1 - j < 0 are 0 and read nothing
    x, E, q = rat(x), rat(E), rat(q)
    q2 = q * q
    qq = _q_pochhammer_pairs(q, q, 0, 2 * n - 1)
    rows = []
    for i in range(n):
        lo = max(i - n + 1, -i - 1)
        p1, p2, p3, p4, p5 = (
            _q_pochhammer_pairs(a, b, lo, i) for a, b in (
                (E / (x * q ** i), q2), (q / (E * x * q ** i), q2),
                (1 / (x * x * q ** (2 + 4 * i)), q2),
                (1 / (E * x * q ** (2 * i)), q), (E / (x * q ** (1 + 2 * i)), q)))
        row = []
        for j in range(n):
            k = i - j
            if k < lo:
                row.append(ZERO)
                continue
            (n1, d1), (n2, d2), (n3, d3) = p1(k), p2(k), p3(k)
            (n4, d4), (n5, d5), (n6, d6) = qq(2 * i + 1 - j), p4(k), p5(k)
            row.append((n1 * n2 * n3 * d4 * d5 * d6, d1 * d2 * d3 * n4 * n5 * n6))
        rows.append(row)
    return MatrixR.from_pairs(rows)


def _closed_anst(n, x, E, q):
    """The anst closed form

        prod_i (x^2 q^(2i+1);q)_i (x q^(3+i)/E;q^2)_i (E x q^(2+i);q^2)_i
            / ((x^2 q^(2i+2);q^2)_i (q;q^2)_(i+1) (E x q^(1+i);q)_i
               (x q^(2+i)/E;q)_i),

    each q-shifted factorial as its factors 1 - a q^e, a = x^2, x/E, E x
    or 1."""
    x, E = rat(x), rat(E)
    sq, xe, ex = x * x, x / E, E * x
    return q_prod(q, _one_minus_rows(n, lambda i: range(2 * i + 1, 3 * i + 1), sq)
                  + _one_minus_rows(n, lambda i: range(3 + i, 3 + 3 * i, 2), xe)
                  + _one_minus_rows(n, lambda i: range(2 + i, 2 + 3 * i, 2), ex),
                  _one_minus_rows(n, lambda i: range(2 * i + 2, 4 * i + 2, 2), sq)
                  + _one_minus_rows(n, lambda i: range(1, 2 * i + 2, 2))
                  + _one_minus_rows(n, lambda i: range(1 + i, 1 + 2 * i), ex)
                  + _one_minus_rows(n, lambda i: range(2 + i, 2 + 2 * i), xe))


det_record("anst", _sample_anst, _build_anst, _closed_anst, max_n=4)


def _build_tsscpp1(n, x, y):
    return _ratio_entries(n, x, y, 1, lambda i, j: y - x + 3 * j - 3 * i)


def _closed_tsscpp1(n, x, y):
    out = _ratio_product(n, x, y, 1)
    x, y = pair(x), pair(y)
    out *= sum(prod([(-1) ** k * math.comb(n, k), rising(x, k), rising(y, n - k)])
               for k in range(n + 1))
    return out


det_record("tsscpp1", _sample_xy_pos, _build_tsscpp1, _closed_tsscpp1, max_n=5)


def _build_qtsscpp1(n, x, y, q):
    q = rat(q)
    p, d = q.numerator, q.denominator

    def extra(i, j):
        # 1 - q^e - q^(e+1) + q^(x+y+i+j+1) with e = y+2j-i >= -1, over
        # d^top p^(-low)
        e, f = y + 2 * j - i, x + y + i + j + 1
        low, top = min(e, 0), max(e + 1, f)
        terms = ((1, 0), (-1, e), (-1, e + 1), (1, f))
        return (sum(c * p ** (k - low) * d ** (top - k) for c, k in terms),
                d ** top * p ** -low)
    return _q_ratio_entries(n, x, y, q, 1, extra)


def _closed_qtsscpp1(n, x, y, q):
    # the sum over k reads [n choose k]_q, (q^x;q)_k, (q^y;q)_(n-k) and
    # q^((n+y)k) from one running-product table each, one Fraction per term
    q = rat(q)
    out = _q_ratio_product(n, x, y, q, 1)
    qq, qx, qy = (_q_pochhammer_pairs(a, q, 0, n) for a in (q, q ** x, q ** y))
    n1, d1 = qq(n)
    qpow = power_pairs(q ** (n + y), 0, n)
    total = Fraction(0)
    for k in range(n + 1):
        (n2, d2), (n3, d3), (n4, d4), (n5, d5) = qq(k), qq(n - k), qx(k), qy(n - k)
        n6, d6 = qpow(k)
        term = Fraction(n1 * d2 * d3 * n4 * n5 * n6, d1 * n2 * n3 * d4 * d5 * d6)
        total += -term if k % 2 else term
    return out * total


det_record("qtsscpp1", _sample_xyq, _build_qtsscpp1, _closed_qtsscpp1, max_n=4)


# ---------------------------------------------------------------------------
# banded binomial sums, 0-based, with the signed empty/reversed convention:
# entry (i, j) is sum_{lo < r <= hi} C(2x+m+i+j, r) for
# lo = x+2i-j <= hi = x+m+2j-i, and minus the sum over hi < r <= lo when
# lo > hi


def _build_banded(n, m, x):
    # with P_top[k] = sum_{r < k} C(top, r), both cases are
    # P_top[hi + 1] - P_top[lo + 1], the index clamped to [0, top + 1]
    base = 2 * x + m
    prefix = []
    for top in range(base, base + 2 * n - 1):
        prefix.append(list(accumulate((math.comb(top, r) for r in range(top + 1)), initial=0)))

    def entry(i, j):
        row = prefix[i + j]
        last = len(row) - 1
        lo = min(max(x + 2 * i - j + 1, 0), last)
        hi = min(max(x + m + 2 * j - i + 1, 0), last)
        return row[hi] - row[lo], 1
    return pair_matrix(n, entry)


def _sample_x(rng, n):
    return {"x": rng.randint(0, 4)}


def _make_tsscpp2(m, min_n):
    def build(n, x):
        return _build_banded(n, m, x)

    def closed(n, x):
        h = n // 2
        if m == 0 and n % 2:
            return Fraction(0)
        f = math.factorial
        shift = 1 if m == 0 else (3 if m in (1, 2) else 5)
        out = prod(chain(
            *(((f(i) * f(2 * x + i + m), f(x + 2 * i) * f(x + 2 * i + m)),
               rising((3 * x + 2 * i + m + 2, 1), i), rising((3 * x + 2 * i + 2 * m + 2, 1), i))
              for i in range(n)),
            (2 * x + 2 * i + shift for i in range(h)), [(1, double_factorial(2 * h - 1))]))
        if m == 2:
            out *= Fraction(x + n + 1 if n % 2 == 0 else 2 * x + n + 2, x + 1)
        elif m == 3:
            out *= Fraction(x + 2 * n + 1 if n % 2 == 0 else 3 * x + 2 * n + 5, x + 1)
        elif m == 4:
            if n % 2 == 0:
                out *= x * x + (4 * n + 3) * x + 2 * (n * n + 4 * n + 1)
            else:
                out *= (2 * x + n + 4) * (2 * x + 2 * n + 4)
            out /= (x + 1) * (x + 2)
        return out

    det_record(f"tsscpp2-m{m}", _sample_x, build, closed, max_n=5, min_n=min_n)


_make_tsscpp2(0, 1)
_make_tsscpp2(1, 1)
_make_tsscpp2(2, 2)
_make_tsscpp2(3, 3)
_make_tsscpp2(4, 4)


# ---------------------------------------------------------------------------
# pentagonal binomial-difference determinant, 1-based


def _sample_pent(rng, n):
    return {"x": rng.randint(0, 4), "y": rng.randint(0, 4)}


def _build_pentagon(n, x, y):
    # entry (i0, j0) is binomial(x+y+j0+1, x-i0+2j0+1) - binomial(x+y+j0+1,
    # x+i0+2j0+3), read from one table per column
    cols = [_binomial_pairs(x + y + j0 + 1, x + n + 2 * j0 + 2) for j0 in range(n)]

    def entry(i0, j0):
        (a, b), (c, d) = cols[j0](x - i0 + 2 * j0 + 1), cols[j0](x + i0 + 2 * j0 + 3)
        return a * d - c * b, b * d
    return pair_matrix(n, entry)


def _closed_pentagon(n, x, y):
    f = math.factorial
    return prod(chain.from_iterable(
        ((f(j - 1) * f(x + y + 2 * j), f(x + n + 2 * j) * f(y + n - j)),
         rising((x - y + 2 * j + 1, 1), j), rising((x + 2 * y + 3 * j + 1, 1), n - j))
        for j in range(1, n + 1)))


det_record("pentagon", _sample_pent, _build_pentagon, _closed_pentagon, max_n=5)


# ---------------------------------------------------------------------------
# mixed-row binomial determinant with one plain row, 1-based


def _sample_fukr2(rng, n):
    return {"m": rng.randint(1, 4), "l": rng.randint(1, n)}


def _build_fukr2(n, m, l):
    # with 1-based i, j, k = m + i - j and w = m + (n - j + 1)/2, entry (i, j)
    # off row l with k > 0 is w (n+m-i)...(n+m-i-k+2) / k! = w C(n+m-i, k-1) / k
    def entry(i0, j0):
        i, j = i0 + 1, j0 + 1
        k = m + i - j
        if k < 0:
            return ZERO
        if i == l:
            return math.comb(n + m - i, k), 1
        w = 2 * m + n - j + 1  # 2w
        if k == 0:
            return w, 2 * (n + j - 2 * i + 1)
        return w * math.comb(n + m - i, k - 1), 2 * k
    return pair_matrix(n, entry)


def _closed_fukr2(n, m, l):
    f = math.factorial
    out = prod(chain(
        ((f(n + m - i), f(m + i - 1) * f(2 * n - 2 * i + 1)) for i in range(1, n + 1)),
        *((rising((m + i, 1), n - 2 * i + 1), rising((2 * (m + i) + 1, 2), n - 2 * i),
           inv(rising((2 * i, 1), 2 * n - 4 * i + 1))) for i in range(1, n // 2 + 1)),
        (f(2 * j - 1) for j in range(1, n + 1)),
        [2 ** ((n - 1) * (n - 2) // 2), rising((m, 1), n + 1), (1, f(n))]))
    # the sum over e < l of (-1)^e C(n, e) (n - 2e) (1/2)_e
    # / ((m + e) (m + n - e) (1/2 - n)_e)
    return out * sum(prod([(-1) ** e * math.comb(n, e) * (n - 2 * e), rising((1, 2), e),
                           (1, (m + e) * (m + n - e)), inv(rising((1 - 2 * n, 2), e))])
                     for e in range(l))


det_record("fukr2", _sample_fukr2, _build_fukr2, _closed_fukr2, max_n=5)
