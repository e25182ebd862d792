"""Slow independent oracles for the integer evaluation paths: the
special functions (binomials, Pochhammer and q-Pochhammer symbols,
q-integers, q-factorials and q-binomials) as plain Fraction loops,
Horner's rule on Fractions for PolyQ and RatFn values, the per-entry
formulas of the banded binomial-sum (tsscpp2), qflha1, factored-column
(krat), q-shifted-factorial (anst, qkrat, qtsscpp1), q-binomial product
(pp5), chu2 and mixed-row (fukr2) matrices and of the binomial (mrr, rn,
chu1, ab, andrews, zare1, pentagon, bombieri-xbc, pp3, poorten,
mrr-factor's T and R), q-binomial (pp1, pp2, pp4, pp4a, pp5a, pp6, pp6a,
shifted, csp, descpp, okada) and power (vandermonde, the Weyl
denominators, flha1, flha2, qflha2, abel) matrices and of the discrete
Wronskian (wronski, by Newton divided differences), each entry computed
on its own with Fraction arithmetic, the closed forms of anst, pp5,
qkrat and qtsscpp1 with every q-factorial, q-Pochhammer and q-binomial
evaluated on its own, and the factor-product closed forms (Vandermonde,
Weyl, Cauchy, the krat lemmas, pp1-pp6, abel, shifted, csp, descpp,
flha, qflha, MacMahon, krat-xy, tsscpp1, tsscpp2, pentagon, zare1, mrr,
rn, andrews, fukr2, bombieri-xbc, poorten, hankel-hermite, Okada and the
symmetric-group determinants) multiplied factor by factor in Fraction
arithmetic."""

import math
from fractions import Fraction

from detkit.catalog.multiblock import _binom2, _n_exponent
from detkit.exactnum import PolyQ, double_factorial, rat


# ---------------------------------------------------------------------------
# the special functions as plain Fraction loops, one factor at a time


def _binomial_loop(x, k):
    """binomial(x, k) = x(x-1)...(x-k+1)/k! of any rational x; 0 for k < 0."""
    if k < 0:
        return Fraction(0)
    x = rat(x)
    num = Fraction(1)
    for j in range(k):
        num *= x - j
    return num / math.factorial(k)


def _pochhammer_loop(a, k):
    """(a)_k = a(a+1)...(a+k-1), and (a)_(-m) = 1/((a-1)...(a-m))."""
    a = rat(a)
    if k >= 0:
        out = Fraction(1)
        for j in range(k):
            out *= a + j
        return out
    out = Fraction(1)
    for j in range(1, -k + 1):
        f = a - j
        if f == 0:
            raise ZeroDivisionError(f"pochhammer({a}, {k}): factor a-{j} vanishes")
        out *= f
    return 1 / out


def _q_pochhammer_loop(a, q, k):
    """(a;q)_k, and (a;q)_(-m) = 1/((1-a/q)...(1-a/q^m))."""
    a, q = rat(a), rat(q)
    if k >= 0:
        out = Fraction(1)
        pw = Fraction(1)
        for _ in range(k):
            out *= 1 - a * pw
            pw *= q
        return out
    out = Fraction(1)
    pw = Fraction(1)
    for j in range(1, -k + 1):
        pw /= q
        f = 1 - a * pw
        if f == 0:
            raise ZeroDivisionError(f"q_pochhammer({a}, {q}, {k}): factor 1-a*q^-{j} vanishes")
        out *= f
    return 1 / out


def _q_int_formula(n, q):
    """[n]_q = (1-q^n)/(1-q), and n at q = 1."""
    q = rat(q)
    if q == 1:
        return Fraction(n)
    return (1 - q**n) / (1 - q)


def _q_factorial_loop(n, q):
    """[n]_q! = [1]_q [2]_q ... [n]_q."""
    if n < 0:
        raise ValueError(f"q-factorial of negative integer {n}")
    out = Fraction(1)
    for j in range(1, n + 1):
        out *= _q_int_formula(j, q)
    return out


def _q_binomial_loop(alpha, k, q):
    """[alpha choose k]_q; 0 for k < 0, binomial(alpha, k) at q = 1."""
    if k < 0:
        return Fraction(0)
    q = rat(q)
    if q == 1:
        return _binomial_loop(alpha, k)
    if q == 0:
        raise ZeroDivisionError("q_binomial undefined at q = 0")
    num = Fraction(1)
    den = Fraction(1)
    for j in range(k):
        num *= 1 - q ** (alpha - j)
        den *= 1 - q ** (j + 1)
    if den == 0:
        raise ZeroDivisionError(f"q_binomial({alpha}, {k}, {q}): denominator vanishes")
    return num / den



def poly_horner(p, x):
    """p(x) by Horner's rule on Fractions."""
    x = rat(x)
    out = Fraction(0)
    for c in reversed(p.coeffs):
        out = out * x + c
    return out


def ratfn_value(f, x):
    """f(x) as the quotient of the two Horner values; raises
    ZeroDivisionError at a pole."""
    d = poly_horner(f.den, x)
    if d == 0:
        raise ZeroDivisionError("rational function pole")
    return poly_horner(f.num, x) / d


def banded_entry(m, x, i, j):
    """Entry (i, j), 0-based, of the tsscpp2-m matrix: the signed sum of
    C(2x+m+i+j, r) over lo < r <= hi, or minus the sum over hi < r <= lo
    when lo > hi, for lo = x+2i-j and hi = x+m+2j-i."""
    lo, hi = x + 2 * i - j, x + m + 2 * j - i
    if lo == hi:
        return Fraction(0)
    sign = 1
    if lo > hi:
        lo, hi, sign = hi, lo, -1
    top = 2 * x + m + i + j
    return sign * sum(_binomial_loop(top, r) for r in range(lo + 1, hi + 1))


def qflha1_entry(i, k, s, X, C, q):
    """Entry of row i (0-based) and column s (1-based) of block k of the
    qflha1 matrix: prod_{t=1}^{s-1} [C+i-t+1]_q * X_k^(i+1-s)."""
    coeff = Fraction(1)
    for t in range(1, s):
        coeff *= _q_int_formula(C + i - t + 1, q)
    return coeff * rat(X[k]) ** (i + 1 - s)


def _product(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def krat_entry(identity_id, n, i, j, X, A, C=0, B=(), a=(), b=(), m=None, polys=()):
    """Entry (i, j), 0-based, of a factored-column matrix with every
    product recomputed from scratch: for x = X_i and column c = j + 1,
    prod_{s=c+1}^n f(x, A_s) (times prod_{s=2}^c f(x, B_s) for krat1,
    krat6 and krat7, whose columns c >= m take a and b for A and B),
    times the column factor p_j(x) of krat3, krat3a and krat5.
    A_s = A[s-2] and B_s = B[s-2]."""
    x, c, C = rat(X[i]), j + 1, rat(C)
    f = {
        "krat1": lambda u: x + u,
        "krat2": lambda u: (C / x + u) * (x + u),
        "krat2a": lambda u: (x - u - C) * (x + u),
        "krat3": lambda u: (x + u) * (C / x + u),
        "krat3a": lambda u: x + u,
        "krat5": lambda u: (x + u) * (x - u - C),
        "krat6": lambda u: (x + u) * (C / x + u),
        "krat7": lambda u: (x + u) * (x - u - C),
    }[identity_id]
    up, lo = A, B if identity_id == "krat1" else ()
    if identity_id in ("krat6", "krat7"):
        up, lo = (A, B) if c < m else (a, b)
    out = _product(f(rat(up[s - 2])) for s in range(c + 1, n + 1))
    out *= _product(f(rat(lo[s - 2])) for s in range(2, c + 1) if lo)
    if identity_id == "krat3":
        out *= _product((x + rat(v)) * (C / x + rat(v)) for v in B[j])
    elif identity_id == "krat3a":
        out *= poly_horner(PolyQ(polys[j]), x)
    elif identity_id == "krat5":
        out *= _product((x + rat(v)) * (C - x + rat(v)) for v in B[j])
    return out


def _qq(m, q):
    return _q_pochhammer_loop(q, q, m)


def anst_entry(i, j, x, E, q):
    """Entry (i, j), 0-based, of the anst matrix: five q-Pochhammers at
    k = i - j over (q;q)_(2i+1-j), and 0 where 2i + 1 - j < 0."""
    x, E, q = rat(x), rat(E), rat(q)
    q2 = q * q
    k = i - j
    if 2 * i + 1 - j < 0:
        return Fraction(0)
    num = (_q_pochhammer_loop(E / (x * q ** i), q2, k)
           * _q_pochhammer_loop(q / (E * x * q ** i), q2, k)
           * _q_pochhammer_loop(1 / (x * x * q ** (2 + 4 * i)), q2, k))
    den = (_qq(2 * i + 1 - j, q)
           * _q_pochhammer_loop(1 / (E * x * q ** (2 * i)), q, k)
           * _q_pochhammer_loop(E / (x * q ** (1 + 2 * i)), q, k))
    return num / den


def qkrat_entry(i, j, x, y, q):
    """Entry (i, j), 0-based, of the qkrat matrix."""
    q = rat(q)
    a, b = x + 2 * i - j, y + 2 * j - i
    if a < 0 or b < 0:
        return Fraction(0)
    out = _qq(x + y + i + j - 1, q) / (_qq(a, q) * _qq(b, q))
    out *= q ** (-2 * i * j)
    out /= _q_pochhammer_loop(-q ** (x + y + 1), q, i + j)
    return out


def qtsscpp1_entry(i, j, x, y, q):
    """Entry (i, j), 0-based, of the qtsscpp1 matrix."""
    q = rat(q)
    a, b = x + 2 * i - j + 1, y + 2 * j - i + 1
    if a < 0 or b < 0:
        return Fraction(0)
    out = _qq(x + y + i + j - 1, q) * (
        1 - q ** (y + 2 * j - i) - q ** (y + 2 * j - i + 1)
        + q ** (x + y + i + j + 1))
    out /= _qq(a, q) * _qq(b, q)
    out *= q ** (-2 * i * j)
    out /= _q_pochhammer_loop(-q ** (x + y + 2), q, i + j)
    return out


def pp5_entry(i, j, L, A, B, q):
    """Entry (i, j), 0-based, of the pp5 matrix: two q-binomials."""
    q = rat(q)
    return _q_binomial_loop(L[i] + j + 1, B, q) * _q_binomial_loop(L[i] + A - j - 1, B, q)


def mrr_entry(i, j, mu):
    return _binomial_loop(rat(mu) + i + j, 2 * i - j)


def rn_entry(i, j, mu):
    mu = rat(mu)
    return (_binomial_loop(mu + i + j, 2 * i - j)
            + 2 * _binomial_loop(mu + i + j + 2, 2 * i - j + 1))


def chu1_entry(i, j, c, x):
    c, v = rat(c), rat(x[i])
    return _binomial_loop(c + v + i + j, 2 * i - j) + _binomial_loop(c - v + i + j, 2 * i - j)


def ab_entry(i, j, x, y):
    """chu1 at c = (x+y)/2 with every x_i = (x-y)/2."""
    x, y = rat(x), rat(y)
    return chu1_entry(i, j, (x + y) / 2, [(x - y) / 2] * (i + 1))


def binomial_plus_diagonal_entry(diag):
    """andrews (diag = 1) and zare1 (diag = -1)."""
    def entry(i, j, mu):
        return (diag if i == j else 0) + _binomial_loop(2 * rat(mu) + i + j, j)
    return entry


def pentagon_entry(i0, j0, x, y):
    return (_binomial_loop(x + y + j0 + 1, x - i0 + 2 * j0 + 1)
            - _binomial_loop(x + y + j0 + 1, x + i0 + 2 * j0 + 3))


def xbc_entry(i, j, b, c, x):
    """Entry (i, j) of the (b+c) x (b+c) bombieri-xbc matrix."""
    x = rat(x)
    if j < c:
        if i < c:
            return _binomial_loop(x + j, i)
        if i < b:
            return Fraction(0)
        return 2 * _binomial_loop(x + j, i - b)
    if j < b:
        if i < b:
            return _binomial_loop(x + j, i)
        return _binomial_loop(x + j, i - b)
    if i < b:
        return _binomial_loop(2 * x + j, i)
    return Fraction(0)


def pp3_entry(i, j, L, A, B):
    return _binomial_loop(rat(B) * L[i] + rat(A), L[i] + j + 1)


def pp1_entry(i, j, L, A, q):
    return _q_binomial_loop(L[i] + A + j + 1, L[i] + j + 1, rat(q))


def pp2_entry(i, j, L, A, q):
    q = rat(q)
    return q ** ((j + 1) * L[i]) * _q_binomial_loop(A, L[i] + j + 1, q)


def shifted_entry(i, j, L, A, q):
    q = rat(q)
    return q ** ((j + 1) * L[i]) * _q_binomial_loop(L[i] + A - j - 1, L[i] + j + 1, q)


def pp5a_entry(i, j, X, Y, A, B, q):
    q = rat(q)
    den = _q_binomial_loop(X[i] + B, j, q) * _q_binomial_loop(A + B - X[i], j, q)
    num = _q_binomial_loop(X[i] + Y[j], j, q) * _q_binomial_loop(Y[j] + A - X[i], j, q)
    return num / den


def pp4_entry(t):
    """pp4 (t = 1) and pp4a (t = 0), 1-based j."""
    def entry(i0, j0, L, A, q):
        q = rat(q)
        j = j0 + 1
        return q ** (j * (L[j0] - L[i0])) * (
            _q_binomial_loop(A, j - L[i0], q)
            - q ** (j * (2 * L[i0] + A - t)) * _q_binomial_loop(A, -j - L[i0] + t, q))
    return entry


def pp6_entry(t):
    """pp6 (t = 1) and pp6a (t = 2), with q = r^2 and 1-based j."""
    def entry(i0, j0, L, A, r):
        r = rat(r)
        q = r * r
        j = j0 + 1
        return r ** ((2 * j - 1) * (L[j0] - L[i0])) * (
            _q_binomial_loop(A, j - L[i0], q)
            + r ** ((2 * j - 1) * (2 * L[i0] + A - t)) * _q_binomial_loop(A, -j - L[i0] + t, q))
    return entry


def csp_entry(i, j, q):
    q = rat(q)
    return (1 if i == j else 0) + q ** (3 * i + 1) * _q_binomial_loop(i + j, j, q ** 3)


def descpp_entry(i, j, q):
    q = rat(q)
    return (1 if i == j else 0) + q ** (i + 2) * _q_binomial_loop(i + j + 2, j, q)


def vandermonde_entry(i, j, X):
    return rat(X[i]) ** j


def weyl_c_entry(i, j, X):
    return rat(X[i]) ** (j + 1) - rat(X[i]) ** (-(j + 1))


def weyl_b_entry(s):
    """weyl-b (s = -1) and weyl-b2 (s = 1)."""
    def entry(i, j, t):
        return rat(t[i]) ** (2 * j + 1) + s * rat(t[i]) ** (-(2 * j + 1))
    return entry


def weyl_d_entry(i, j, X):
    return rat(X[i]) ** j + rat(X[i]) ** (-j)


def _block_column(parts, jc):
    """(block index, 1-based column within the block) of matrix column jc."""
    for k, m in enumerate(parts):
        if jc < m:
            return k, jc + 1
        jc -= m
    raise IndexError(jc)


def flha1_entry(i, jc, parts, X):
    k, s = _block_column(parts, jc)
    if i < s - 1:
        return Fraction(0)
    coeff = _product(Fraction(i - t) for t in range(s - 1))
    return coeff * rat(X[k]) ** (i - s + 1)


def flha2_entry(i, jc, parts, X):
    k, s = _block_column(parts, jc)
    coeff = Fraction(1) if s == 1 else Fraction(i) ** (s - 1)
    return coeff * rat(X[k]) ** i


def qflha2_entry(i, jc, parts, X, C, q):
    k, s = _block_column(parts, jc)
    coeff = Fraction(1) if s == 1 else _q_int_formula(C + i, rat(q)) ** (s - 1)
    return coeff * rat(X[k]) ** i


def newton_coefficients(xs, ys):
    """Divided differences [y_0], [y_0, y_1], ... of the values ys at the
    nodes xs: the coefficients of the interpolant in Newton form, in
    O(m^2) operations.  A repeated node raises ZeroDivisionError."""
    table = list(ys)
    out = [table[0]] if table else []
    for level in range(1, len(xs)):
        table = [
            (table[i + 1] - table[i]) / (xs[i + level] - xs[i])
            for i in range(len(table) - 1)
        ]
        out.append(table[0])
    return out


def divided_differences(f, points):
    """Newton divided-difference coefficients of the PolyQ f over distinct
    points."""
    pts = [rat(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("divided differences require pairwise distinct points")
    return newton_coefficients(pts, [f(p) for p in pts])


def wronski_entry(i, jc, parts, a, polys):
    """The divided difference of the i-th polynomial over the first s
    points of block k, for matrix column jc = (k, s)."""
    k, s = _block_column(parts, jc)
    off = sum(parts[:k])
    return divided_differences(PolyQ(polys[i]), a[off:off + s])[s - 1]


def abel_entry(i, j, L, A, B):
    m = j + 1 - L[i]
    inv_fact = Fraction(0) if m < 0 else Fraction(1, math.factorial(m))
    return (rat(A) + rat(B) * L[i]) ** j * inv_fact


def chu2_entry(i, j, c):
    """Entry (i, j), 0-based, of the chu2 matrix; raises
    ZeroDivisionError where c + i + j = 1/2 or -1/2."""
    c = rat(c)
    num = (2 * i - j) + (2 * c + 3 * j + 1) * (2 * c + 3 * j - 1)
    den = (c + i + j + Fraction(1, 2)) * (c + i + j - Fraction(1, 2))
    return num / den * _binomial_loop(c + i + j + Fraction(1, 2), 2 * i - j)


def fukr2_entry(i0, j0, n, m, l):
    """Entry (i0, j0), 0-based, of the fukr2 matrix: with 1-based i, j and
    k = m + i - j, row l is binomial(n + m - i, k); elsewhere the entry is
    0 for k < 0 and w (n+m-i)(n+m-i-1)...(n+m-i-k+2) / k! otherwise, with
    w = m + (n - j + 1)/2, and w / (n + j - 2i + 1) for k = 0."""
    i, j = i0 + 1, j0 + 1
    k = m + i - j
    if i == l:
        return _binomial_loop(n + m - i, k)
    if k < 0:
        return Fraction(0)
    w = m + Fraction(n - j + 1, 2)
    if k == 0:
        return w / (n + j - 2 * i + 1)
    return w * _product(Fraction(n + m - i - t) for t in range(k - 1)) / math.factorial(k)


# ---------------------------------------------------------------------------
# closed forms, factor by factor


def pp5_closed(n, L, A, B, q):
    """The pp5 closed form, each q-integer and q-factorial on its own."""
    q = rat(q)
    c3 = (n + 1) * n * (n - 1) // 6
    out = q ** (sum(i * L[i] for i in range(n)) - B * (n * (n - 1) // 2) + 2 * c3)
    out *= _product(_q_int_formula(L[i] - L[j], q) * _q_int_formula(L[i] + L[j] + A - B + 1, q)
                    for i in range(n) for j in range(i + 1, n))
    for i0 in range(n):
        i = i0 + 1
        out *= _q_factorial_loop(L[i0] + 1, q) * _q_factorial_loop(L[i0] + A - n, q) \
            / (_q_factorial_loop(L[i0] - B + n, q) * _q_factorial_loop(L[i0] + A - B - 1, q))
        out *= _q_factorial_loop(A - 2 * i - 1, q) \
            / (_q_factorial_loop(A - i - n - 1, q) * _q_factorial_loop(B + i - n, q)
               * _q_factorial_loop(B, q))
    return out


def anst_closed(n, x, E, q):
    """The anst closed form, each q-Pochhammer on its own."""
    x, E, q = rat(x), rat(E), rat(q)
    q2 = q * q
    out = Fraction(1)
    for i in range(n):
        out *= _q_pochhammer_loop(x * x * q ** (2 * i + 1), q, i)
        out *= _q_pochhammer_loop(x * q ** (3 + i) / E, q2, i)
        out *= _q_pochhammer_loop(E * x * q ** (2 + i), q2, i)
        out /= _q_pochhammer_loop(x * x * q ** (2 * i + 2), q2, i)
        out /= _q_pochhammer_loop(q, q2, i + 1)
        out /= _q_pochhammer_loop(E * x * q ** (1 + i), q, i)
        out /= _q_pochhammer_loop(x * q ** (2 + i) / E, q, i)
    return out


def q_ratio_product(n, x, y, q, shift):
    """The product in the closed forms of qkrat (shift = 0) and qtsscpp1
    (shift = 1), each q-Pochhammer on its own."""
    q = rat(q)
    out = Fraction(1)
    for i in range(n):
        out *= q ** (-2 * i * i) * _q_pochhammer_loop(q * q, q * q, i)
        out *= _qq(x + y + i - 1, q)
        out *= _q_pochhammer_loop(q ** (2 * x + y + 2 * i + shift), q, i)
        out *= _q_pochhammer_loop(q ** (x + 2 * y + 2 * i + shift), q, i)
        out /= _qq(x + 2 * i + shift, q) * _qq(y + 2 * i + shift, q)
        out /= _q_pochhammer_loop(-q ** (x + y + 1 + shift), q, n - 1 + i)
    return out


def qkrat_closed(n, x, y, q):
    return q_ratio_product(n, x, y, q, 0)


def qtsscpp1_closed(n, x, y, q):
    """The qtsscpp1 closed form, each q-binomial and q-Pochhammer of its
    sum on its own."""
    q = rat(q)
    out = q_ratio_product(n, x, y, q, 1)
    out *= sum(
        (-1) ** k * q ** (n * k) * _q_binomial_loop(n, k, q) * q ** (y * k)
        * _q_pochhammer_loop(q ** x, q, k) * _q_pochhammer_loop(q ** y, q, n - k)
        for k in range(n + 1))
    return out


# ---------------------------------------------------------------------------
# factor-product closed forms, one Fraction operation per factor


def _vdm(xs):
    """prod_{i<j} (xs[j] - xs[i])."""
    return _product(xs[j] - xs[i] for i in range(len(xs)) for j in range(i + 1, len(xs)))


def flha1_closed(n, parts, X):
    X = [rat(x) for x in X]
    out = _product(Fraction(math.factorial(j)) for m in parts for j in range(1, m))
    out *= _product((X[j] - X[i]) ** (parts[i] * parts[j])
                    for i in range(len(parts)) for j in range(i + 1, len(parts)))
    return out


def flha2_closed(n, parts, X):
    out = flha1_closed(n, parts, X)
    return out * _product(rat(X[k]) ** _binom2(parts[k]) for k in range(len(parts)))


def _fact(m):
    return Fraction(math.factorial(m))


def ratio_product_closed(shift):
    """The closed-form product of krat-xy (shift = 0) and tsscpp1
    (shift = 1, without its sum)."""
    def closed(n, x, y):
        out = Fraction(1)
        for i in range(n):
            out *= _fact(i) * _fact(x + y + i - 1)
            out *= _pochhammer_loop(2 * x + y + 2 * i + shift, i)
            out *= _pochhammer_loop(x + 2 * y + 2 * i + shift, i)
            out /= _fact(x + 2 * i + shift) * _fact(y + 2 * i + shift)
        return out
    return closed


def tsscpp1_closed(n, x, y):
    return ratio_product_closed(1)(n, x, y) * sum(
        (-1) ** k * _binomial_loop(n, k) * _pochhammer_loop(x, k) * _pochhammer_loop(y, n - k)
        for k in range(n + 1))


def tsscpp2_closed(m):
    def closed(n, x):
        h = n // 2
        if m == 0 and n % 2:
            return Fraction(0)
        out = Fraction(1)
        for i in range(n):
            out *= _fact(i) * _fact(2 * x + i + m)
            out *= _pochhammer_loop(3 * x + 2 * i + m + 2, i)
            out *= _pochhammer_loop(3 * x + 2 * i + 2 * m + 2, i)
            out /= _fact(x + 2 * i) * _fact(x + 2 * i + m)
        shift = 1 if m == 0 else (3 if m in (1, 2) else 5)
        out *= _product(2 * x + 2 * i + shift for i in range(h))
        out /= double_factorial(2 * h - 1)
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
    return closed


def pentagon_closed(n, x, y):
    out = Fraction(1)
    for j in range(1, n + 1):
        out *= _fact(j - 1) * _fact(x + y + 2 * j)
        out *= _pochhammer_loop(x - y + 2 * j + 1, j)
        out *= _pochhammer_loop(x + 2 * y + 3 * j + 1, n - j)
        out /= _fact(x + n + 2 * j) * _fact(y + n - j)
    return out


def vandermonde_closed(n, X):
    return _vdm([rat(x) for x in X])


def vdm_poly_closed(n, X, coeffs):
    leading = _product(rat(c[-1]) for c in coeffs)
    return leading * _vdm([rat(x) for x in X])


def _pair_products(X):
    """prod_{i<j} (X_i - X_j)(1 - X_i X_j)."""
    n = len(X)
    return _product((X[i] - X[j]) * (1 - X[i] * X[j])
                    for i in range(n) for j in range(i + 1, n))


def weyl_c_closed(n, X):
    X = [rat(x) for x in X]
    return (_product(X) ** (-n)) * _pair_products(X) * _product(x**2 - 1 for x in X)


def weyl_b_closed(s):
    """weyl-b (s = -1) and weyl-b2 (s = 1)."""
    def closed(n, t):
        t = [rat(v) for v in t]
        X = [v * v for v in t]
        return (_product(v ** (1 - 2 * n) for v in t) * _pair_products(X)
                * _product(x + s for x in X))
    return closed


def weyl_d_closed(n, X):
    X = [rat(x) for x in X]
    return 2 * _product(X) ** (-n + 1) * _pair_products(X)


def cauchy_closed(n, X, Y):
    X, Y = [rat(x) for x in X], [rat(y) for y in Y]
    return _vdm(X) * _vdm(Y) / _product(x + y for x in X for y in Y)


def krat1_closed(n, X, A, B):
    X = [rat(x) for x in X]
    out = _vdm(list(reversed(X)))  # prod_{i<j} (X_i - X_j)
    out *= _product(rat(B[i - 2]) - rat(A[j - 2])
                    for i in range(2, n + 1) for j in range(i, n + 1))
    return out


def krat2_closed(n, X, A, C):
    X, C = [rat(x) for x in X], rat(C)
    out = _product(rat(A[i - 2]) ** (i - 1) for i in range(2, n + 1))
    out *= _product((X[i] - X[j]) * (1 - C / (X[i] * X[j]))
                    for i in range(n) for j in range(i + 1, n))
    return out


def krat2a_closed(n, X, A, C):
    X, C = [rat(x) for x in X], rat(C)
    return _product((X[j] - X[i]) * (C - X[i] - X[j])
                    for i in range(n) for j in range(i + 1, n))


def krat3_closed(n, X, A, C, B):
    # p_0 is an empty product (constant 1), so the i=1 factor is 1
    C = rat(C)
    out = krat2_closed(n, X, A, C)
    for i in range(2, n + 1):
        x = -rat(A[i - 2])
        out *= _product((x + rat(b)) * (C / x + rat(b)) for b in B[i - 1])
    return out


def krat5_closed(n, X, A, C, B):
    C = rat(C)
    out = krat2a_closed(n, X, A, C)
    for i in range(2, n + 1):
        x = -rat(A[i - 2])
        out *= _product((x + rat(b)) * (C - x + rat(b)) for b in B[i - 1])
    return out


def _alphabets(n, A, B, a, b):
    return ({s: rat(v[s - 2]) for s in range(2, n + 1)} for v in (A, B, a, b))


def krat6_closed(n, X, A, B, a, b, C, m):
    X, C = [rat(x) for x in X], rat(C)
    Av, Bv, av, bv = _alphabets(n, A, B, a, b)
    out = _product((X[i] - X[j]) * (1 - C / (X[i] * X[j]))
                   for i in range(n) for j in range(i + 1, n))
    out *= _product((Bv[i] - Av[j]) * (1 - C / (Bv[i] * Av[j]))
                    for i in range(2, m) for j in range(i, m))
    out *= _product((bv[i] - Av[j]) * (1 - C / (bv[i] * Av[j]))
                    for i in range(2, m + 1) for j in range(m, n + 1))
    out *= _product((bv[i] - av[j]) * (1 - C / (bv[i] * av[j]))
                    for i in range(m + 1, n + 1) for j in range(i, n + 1))
    out *= _product(_product(Av[s] for s in range(i, n + 1)) for i in range(2, m + 1))
    out *= _product(_product(av[s] for s in range(i, n + 1)) for i in range(m + 1, n + 1))
    out *= _product(_product(Bv[s] for s in range(2, i + 1)) for i in range(2, m))
    out *= _product(_product(bv[s] for s in range(2, i + 1)) for i in range(m, n + 1))
    return out


def krat7_closed(n, X, A, B, a, b, C, m):
    X, C = [rat(x) for x in X], rat(C)
    Av, Bv, av, bv = _alphabets(n, A, B, a, b)
    out = _product((X[i] - X[j]) * (C - X[i] - X[j])
                   for i in range(n) for j in range(i + 1, n))
    out *= _product((Bv[i] - Av[j]) * (Bv[i] + Av[j] + C)
                    for i in range(2, m) for j in range(i, m))
    out *= _product((bv[i] - Av[j]) * (bv[i] + Av[j] + C)
                    for i in range(2, m + 1) for j in range(m, n + 1))
    out *= _product((bv[i] - av[j]) * (bv[i] + av[j] + C)
                    for i in range(m + 1, n + 1) for j in range(i, n + 1))
    return out


def macmahon_closed(n, a, b):
    out = Fraction(1)
    for i in range(1, n + 1):
        for j in range(1, a + 1):
            for k in range(1, b + 1):
                out *= Fraction(i + j + k - 1, i + j + k - 2)
    return out


def pp1_closed(n, L, A, q):
    q = rat(q)
    out = q ** sum(i * (L[i] + i + 1) for i in range(n))
    out *= _product(_q_int_formula(L[i] - L[j], q)
                    for i in range(n) for j in range(i + 1, n))
    for i in range(n):
        out *= _q_factorial_loop(L[i] + A + 1, q) \
            / (_q_factorial_loop(L[i] + n, q) * _q_factorial_loop(A - i, q))
    return out


def pp2_closed(n, L, A, q):
    q = rat(q)
    out = q ** sum((i + 1) * L[i] for i in range(n))
    out *= _product(_q_int_formula(L[i] - L[j], q)
                    for i in range(n) for j in range(i + 1, n))
    for i in range(n):
        out *= _q_factorial_loop(A + i, q) \
            / (_q_factorial_loop(L[i] + n, q) * _q_factorial_loop(A - L[i] - 1, q))
    return out


def shifted_closed(n, L, A, q):
    q = rat(q)
    out = q ** sum((i + 1) * L[i] for i in range(n))
    for i in range(n):
        out *= _q_factorial_loop(L[i] + A - n, q) \
            / (_q_factorial_loop(L[i] + n, q) * _q_factorial_loop(A - 2 * (i + 1), q))
    out *= _product(_q_int_formula(L[i] - L[j], q) * _q_int_formula(L[i] + L[j] + A + 1, q)
                    for i in range(n) for j in range(i + 1, n))
    return out


def pp5a_closed(n, X, Y, A, B, q):
    q = rat(q)
    c3 = n * (n - 1) * (n - 2) // 6
    out = q ** (2 * c3 + sum(i * (X[i] + Y[i] - A - 2 * B) for i in range(n)))
    # here the bracket factors are unnormalized: 1 - q^m, not [m]_q
    out *= _product((1 - q ** (X[i] - X[j])) * (1 - q ** (X[i] + X[j] - A))
                    for i in range(n) for j in range(i + 1, n))
    for i in range(n):
        out *= _q_pochhammer_loop(q ** (B - Y[i] - i + 1), q, i)
        out *= _q_pochhammer_loop(q ** (Y[i] + A + B + 2 - 2 * i), q, i)
        out /= _q_pochhammer_loop(q ** (X[i] - A - B), q, n - 1)
        out /= _q_pochhammer_loop(q ** (X[i] + B - n + 2), q, n - 1)
    return out


def pp3_closed(n, L, A, B):
    A, B = rat(A), rat(B)
    out = _vdm(L[::-1])
    for i in range(n):
        out *= _pochhammer_loop((B - 1) * L[i] + A, L[i] + 1) / math.factorial(L[i] + n)
        out *= _pochhammer_loop(A - B * (i + 1) + 1, i)
    return out


def abel_closed(n, L, A, B):
    A, B = rat(A), rat(B)
    out = _vdm(L)
    for i in range(n):
        out *= (A + B * (i + 1)) ** i * (
            Fraction(0) if n < L[i] else Fraction(1, math.factorial(n - L[i])))
    return out


def zare1_closed(n, mu):
    if n % 2:
        return Fraction(0)
    f = math.factorial
    out = Fraction(-1) ** (n // 2)
    for i in range(n // 2):
        out *= Fraction(
            f(i) ** 2 * f(mu + i) ** 2 * f(mu + 3 * i + 1) ** 2 * f(2 * mu + 3 * i + 1) ** 2,
            f(2 * i) * f(2 * i + 1) * f(mu + 2 * i) ** 2 * f(mu + 2 * i + 1) ** 2
            * f(2 * mu + 2 * i) * f(2 * mu + 2 * i + 1))
    return out


def hermite_closed(n, x):
    out = Fraction(-1) ** (n * (n - 1) // 2)
    for i in range(n):
        out *= math.factorial(i)
    return out


def mrr_closed(n, mu):
    mu = rat(mu)
    out = Fraction(-1 if n % 4 == 3 else 1) * Fraction(2) ** ((n - 1) * (n - 2) // 2)
    for i in range(1, n):
        out *= _pochhammer_loop(mu + i + 1, (i + 1) // 2)
        out *= _pochhammer_loop(-mu - 3 * n + i + Fraction(3, 2), i // 2)
        out /= _pochhammer_loop(i, i)
    return out


def rn_closed(n, mu):
    mu = rat(mu)
    out = Fraction(2) ** n
    for i in range(1, n + 1):
        out *= _pochhammer_loop(mu + i, i // 2)
        out *= _pochhammer_loop(mu + 3 * n - (3 * i - 1) // 2 + Fraction(1, 2), (i + 1) // 2)
        out /= double_factorial(2 * i - 1)
    return out


def _ceil(a, b):
    return -(-a // b)


def andrews_closed(n, mu):
    mu = rat(mu)
    out = Fraction(2) ** _ceil(n, 2)
    for i in range(1, n - 1):
        out *= _pochhammer_loop(mu + _ceil(i, 2) + 1, (i + 3) // 4)
    if n % 2 == 0:
        for i in range(1, n // 2 + 1):
            base = mu + Fraction(3 * n, 2) - _ceil(3 * i, 2) + Fraction(3, 2)
            out *= _pochhammer_loop(base, _ceil(i, 2) - 1) * _pochhammer_loop(base, _ceil(i, 2))
        for i in range(1, n // 2):
            out /= double_factorial(2 * i - 1) * double_factorial(2 * i + 1)
    else:
        for i in range(1, (n - 1) // 2 + 1):
            out *= _pochhammer_loop(
                mu + Fraction(3 * n, 2) - _ceil(3 * i - 1, 2) + 1, _ceil(i - 1, 2))
            out *= _pochhammer_loop(mu + Fraction(3 * n, 2) - _ceil(3 * i, 2), _ceil(i, 2))
        for i in range(1, (n - 1) // 2 + 1):
            out /= double_factorial(2 * i - 1) ** 2
    return out


def fukr2_closed(n, m, l):
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= _fact(n + m - i) / (_fact(m + i - 1) * _fact(2 * n - 2 * i + 1))
    for i in range(1, n // 2 + 1):
        out *= _pochhammer_loop(m + i, n - 2 * i + 1)
        out *= _pochhammer_loop(m + i + Fraction(1, 2), n - 2 * i)
    out *= Fraction(2) ** ((n - 1) * (n - 2) // 2)
    out *= _pochhammer_loop(m, n + 1) * _product(_fact(2 * j - 1) for j in range(1, n + 1))
    out /= _fact(n) * _product(_pochhammer_loop(2 * i, 2 * n - 4 * i + 1)
                               for i in range(1, n // 2 + 1))
    out *= sum(
        (-1) ** e * _binomial_loop(n, e) * (n - 2 * e) * _pochhammer_loop(Fraction(1, 2), e)
        / ((m + e) * (m + n - e) * _pochhammer_loop(Fraction(1, 2) - n, e))
        for e in range(l))
    return out


def xbc_closed(n, b, c, x):
    """The bombieri-xbc closed form; Pochhammer symbols of negative index
    (3c > 2b) divide by zero where a factor vanishes."""
    x = rat(x)
    if b % 2 == 0 and c % 2 == 1:
        return Fraction(0)
    half_b = _ceil(b, 2)
    out = Fraction(-1) ** c * Fraction(2) ** c
    for i in range(1, b - c + 1):
        out *= _pochhammer_loop(i + Fraction(1, 2) - half_b, c) / _pochhammer_loop(i, c)
    for i in range(1, c + 1):
        e1 = b - c + _ceil(i, 2) - _ceil(c + i, 2)
        e2 = _ceil(b + i, 2) - _ceil(b - c + i, 2)
        out *= _pochhammer_loop(x + _ceil(c + i, 2), e1)
        out *= _pochhammer_loop(x + _ceil(b - c + i, 2), e2)
        out /= _pochhammer_loop(Fraction(1, 2) - half_b + _ceil(c + i, 2), e1)
        out /= _pochhammer_loop(Fraction(1, 2) - half_b + _ceil(b - c + i, 2), e2)
    return out


def mrr_t_entry(i, j, x, mu, nu):
    """Entry (i, j), 0-based, of the T factor of mrr-factor: the sum over
    i <= t <= 2j of C(mu+i, t-i) C(nu+j, 2j-t) x^(2j-t)."""
    x, mu, nu = rat(x), rat(mu), rat(nu)
    return sum((_binomial_loop(mu + i, t - i) * _binomial_loop(nu + j, 2 * j - t)
                * x ** (2 * j - t) for t in range(i, 2 * j + 1)), Fraction(0))


def mrr_r_entry(i, j, x, mu, nu):
    """Entry (i, j), 0-based, of the R factor of mrr-factor."""
    x, mu, nu = rat(x), rat(mu), rat(nu)
    return sum(((_binomial_loop(mu + i, t - i - 1) + _binomial_loop(mu + i + 1, t - i))
                * (_binomial_loop(nu + j, 2 * j + 1 - t)
                   + _binomial_loop(nu + j + 1, 2 * j + 1 - t))
                * x ** (2 * j + 1 - t) for t in range(i, 2 * j + 2)), Fraction(0))


def _poorten_indices(N, l):
    rows = [(i1, i2) for i2 in range(N) for i1 in range(2 * l * (N - i2))]
    cols = [(j1, j2) for j2 in range(N + 1) for j1 in range(l * N)]
    return rows, cols


def poorten_entry(r, c, N, l, x):
    """Entry (r, c) of the poorten matrix: rows (i1, i2) and columns
    (j1, j2) in the builder's order, (-1)^(i1-j1) C(-x(N-j2), i1-j1)
    C(j2, i2)."""
    rows, cols = _poorten_indices(N, l)
    (i1, i2), (j1, j2) = rows[r], cols[c]
    return (Fraction(-1) ** abs(i1 - j1)
            * _binomial_loop(-rat(x) * (N - j2), i1 - j1) * _binomial_loop(j2, i2))


def poorten_size(N, l):
    return len(_poorten_indices(N, l)[0])


def poorten_closed(n, N, l, x):
    return _product(_binomial_loop(rat(x) + i - 1, 2 * i - 1)
                    / _binomial_loop(l + i - 1, 2 * i - 1)
                    for i in range(1, l + 1)) ** _binomial_loop(N + 2, 3)


def okada_entry(i, j, q):
    """Entry (i, j), 0-based, of the okada matrix: with 1-based i, j,
    q^(i+j-1) ([i+j-2 choose i-1]_q + q [i+j-1 choose i]_q), plus
    1 + q^i on the diagonal and -1 below it."""
    q = rat(q)
    i, j = i + 1, j + 1
    out = q ** (i + j - 1) * (_q_binomial_loop(i + j - 2, i - 1, q)
                              + q * _q_binomial_loop(i + j - 1, i, q))
    if i == j:
        out += 1 + q ** i
    elif i == j + 1:
        out -= 1
    return out


def pp4_closed(t):
    """pp4 (t = 1) and pp4a (t = 0)."""
    def closed(n, L, A, q):
        q = rat(q)
        out = Fraction(1)
        for i0 in range(n):
            out *= _q_factorial_loop(A + 2 * (i0 + 1) - 1 - t, q) \
                / (_q_factorial_loop(n - L[i0], q) * _q_factorial_loop(A + n - t + L[i0], q))
        out *= _product(_q_int_formula(L[j] - L[i], q)
                        for i in range(n) for j in range(i + 1, n))
        out *= _product(_q_int_formula(L[i] + L[j] + A - t, q)
                        for i in range(n) for j in range(i, n))
        return out
    return closed


def pp6_closed(t):
    """pp6 (t = 1) and pp6a (t = 2), with q = r^2."""
    def closed(n, L, A, r):
        r = rat(r)
        q = r * r
        out = _product(1 + r ** (2 * L[i0] + A - t) for i0 in range(n))
        out /= _product(1 + r ** (2 * i + A - t) for i in range(t, n + 1))
        for i0 in range(n):
            out *= _q_factorial_loop(A + 2 * (i0 + 1) - t, q) \
                / (_q_factorial_loop(n - L[i0], q) * _q_factorial_loop(A + n + L[i0] - t, q))
        out *= _product(_q_int_formula(L[j] - L[i], q) * _q_int_formula(L[i] + L[j] + A - t, q)
                        for i in range(n) for j in range(i + 1, n))
        return out
    return closed


def csp_closed(n, q):
    q = rat(q)
    out = _product((1 - q ** (3 * i - 1)) / (1 - q ** (3 * i - 2))
                   for i in range(1, n + 1))
    out *= _product((1 - q ** (3 * (n + i + j - 1))) / (1 - q ** (3 * (2 * i + j - 1)))
                    for i in range(1, n + 1) for j in range(i, n + 1))
    return out


def descpp_closed(n, q):
    q = rat(q)
    return _product((1 - q ** (n + i + j)) / (1 - q ** (2 * i + j - 1))
                    for i in range(1, n + 2) for j in range(i, n + 2))


def _cross_q(parts, X, q):
    ell = len(parts)
    return _product(q ** (t - s) * X[j] - X[i]
                    for i in range(ell) for j in range(i + 1, ell)
                    for s in range(parts[i]) for t in range(parts[j]))


def qflha1_closed(n, parts, X, C, q):
    q = rat(q)
    X = [rat(x) for x in X]
    out = q ** _n_exponent(parts, C, with_cubes=True)
    out *= _product(_q_factorial_loop(j, q) for m in parts for j in range(1, m))
    return out * _cross_q(parts, X, q)


def qflha2_closed(n, parts, X, C, q):
    q = rat(q)
    X = [rat(x) for x in X]
    out = q ** _n_exponent(parts, C, with_cubes=False)
    out *= _product(X[k] ** _binom2(parts[k]) for k in range(len(parts)))
    out *= _product(_q_factorial_loop(j, q) for m in parts for j in range(1, m))
    return out * _cross_q(parts, X, q)


def okada_closed(n, q):
    q = rat(q)
    out = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                out *= ((1 - q ** (i + j + k - 1))
                        / (1 - q ** (i + j + k - 2))) ** 2
    return out


def zagier_inv_closed(n, q):
    q = rat(q)
    out = Fraction(1)
    for i in range(2, n + 1):
        e = (int(_binomial_loop(n, i)) * math.factorial(i - 2)
             * math.factorial(n - i + 1))
        out *= (1 - q ** (i * (i - 1))) ** e
    return out


def zagier_maj_closed(n, q):
    q = rat(q)
    out = Fraction(1)
    for i in range(2, n + 1):
        out *= (1 - q ** i) ** (math.factorial(n) * (i - 1) // i)
    return out
