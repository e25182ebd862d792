"""Slow independent oracles for the integer evaluation paths: Horner's
rule on Fractions for PolyQ and RatFn values, the per-entry formulas of
the banded binomial-sum (tsscpp2), qflha1, factored-column (krat),
q-shifted-factorial (anst, qkrat, qtsscpp1), q-binomial product (pp5) and
chu2 matrices, each entry computed on its own with Fraction arithmetic,
and the closed forms of anst, pp5, qkrat and qtsscpp1 with every q-factorial,
q-Pochhammer and q-binomial evaluated on its own."""

from fractions import Fraction

from detkit.exactnum import (PolyQ, binomial, q_binomial, q_factorial, q_int,
                             q_pochhammer, rat)


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
    return sign * sum(binomial(top, r) for r in range(lo + 1, hi + 1))


def qflha1_entry(i, k, s, X, C, q):
    """Entry of row i (0-based) and column s (1-based) of block k of the
    qflha1 matrix: prod_{t=1}^{s-1} [C+i-t+1]_q * X_k^(i+1-s)."""
    coeff = Fraction(1)
    for t in range(1, s):
        coeff *= q_int(C + i - t + 1, q)
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
    return q_pochhammer(q, q, m)


def anst_entry(i, j, x, E, q):
    """Entry (i, j), 0-based, of the anst matrix: five q-Pochhammers at
    k = i - j over (q;q)_(2i+1-j), and 0 where 2i + 1 - j < 0."""
    x, E, q = rat(x), rat(E), rat(q)
    q2 = q * q
    k = i - j
    if 2 * i + 1 - j < 0:
        return Fraction(0)
    num = (q_pochhammer(E / (x * q ** i), q2, k)
           * q_pochhammer(q / (E * x * q ** i), q2, k)
           * q_pochhammer(1 / (x * x * q ** (2 + 4 * i)), q2, k))
    den = (_qq(2 * i + 1 - j, q)
           * q_pochhammer(1 / (E * x * q ** (2 * i)), q, k)
           * q_pochhammer(E / (x * q ** (1 + 2 * i)), q, k))
    return num / den


def qkrat_entry(i, j, x, y, q):
    """Entry (i, j), 0-based, of the qkrat matrix."""
    q = rat(q)
    a, b = x + 2 * i - j, y + 2 * j - i
    if a < 0 or b < 0:
        return Fraction(0)
    out = _qq(x + y + i + j - 1, q) / (_qq(a, q) * _qq(b, q))
    out *= q ** (-2 * i * j)
    out /= q_pochhammer(-q ** (x + y + 1), q, i + j)
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
    out /= q_pochhammer(-q ** (x + y + 2), q, i + j)
    return out


def pp5_entry(i, j, L, A, B, q):
    """Entry (i, j), 0-based, of the pp5 matrix: two q-binomials."""
    q = rat(q)
    return q_binomial(L[i] + j + 1, B, q) * q_binomial(L[i] + A - j - 1, B, q)


def chu2_entry(i, j, c):
    """Entry (i, j), 0-based, of the chu2 matrix; raises
    ZeroDivisionError where c + i + j = 1/2 or -1/2."""
    c = rat(c)
    num = (2 * i - j) + (2 * c + 3 * j + 1) * (2 * c + 3 * j - 1)
    den = (c + i + j + Fraction(1, 2)) * (c + i + j - Fraction(1, 2))
    return num / den * binomial(c + i + j + Fraction(1, 2), 2 * i - j)


# ---------------------------------------------------------------------------
# closed forms, factor by factor


def pp5_closed(n, L, A, B, q):
    """The pp5 closed form, each q-integer and q-factorial on its own."""
    q = rat(q)
    c3 = (n + 1) * n * (n - 1) // 6
    out = q ** (sum(i * L[i] for i in range(n)) - B * (n * (n - 1) // 2) + 2 * c3)
    out *= _product(q_int(L[i] - L[j], q) * q_int(L[i] + L[j] + A - B + 1, q)
                    for i in range(n) for j in range(i + 1, n))
    for i0 in range(n):
        i = i0 + 1
        out *= q_factorial(L[i0] + 1, q) * q_factorial(L[i0] + A - n, q) \
            / (q_factorial(L[i0] - B + n, q) * q_factorial(L[i0] + A - B - 1, q))
        out *= q_factorial(A - 2 * i - 1, q) \
            / (q_factorial(A - i - n - 1, q) * q_factorial(B + i - n, q)
               * q_factorial(B, q))
    return out


def anst_closed(n, x, E, q):
    """The anst closed form, each q-Pochhammer on its own."""
    x, E, q = rat(x), rat(E), rat(q)
    q2 = q * q
    out = Fraction(1)
    for i in range(n):
        out *= q_pochhammer(x * x * q ** (2 * i + 1), q, i)
        out *= q_pochhammer(x * q ** (3 + i) / E, q2, i)
        out *= q_pochhammer(E * x * q ** (2 + i), q2, i)
        out /= q_pochhammer(x * x * q ** (2 * i + 2), q2, i)
        out /= q_pochhammer(q, q2, i + 1)
        out /= q_pochhammer(E * x * q ** (1 + i), q, i)
        out /= q_pochhammer(x * q ** (2 + i) / E, q, i)
    return out


def q_ratio_product(n, x, y, q, shift):
    """The product in the closed forms of qkrat (shift = 0) and qtsscpp1
    (shift = 1), each q-Pochhammer on its own."""
    q = rat(q)
    out = Fraction(1)
    for i in range(n):
        out *= q ** (-2 * i * i) * q_pochhammer(q * q, q * q, i)
        out *= _qq(x + y + i - 1, q)
        out *= q_pochhammer(q ** (2 * x + y + 2 * i + shift), q, i)
        out *= q_pochhammer(q ** (x + 2 * y + 2 * i + shift), q, i)
        out /= _qq(x + 2 * i + shift, q) * _qq(y + 2 * i + shift, q)
        out /= q_pochhammer(-q ** (x + y + 1 + shift), q, n - 1 + i)
    return out


def qkrat_closed(n, x, y, q):
    return q_ratio_product(n, x, y, q, 0)


def qtsscpp1_closed(n, x, y, q):
    """The qtsscpp1 closed form, each q-binomial and q-Pochhammer of its
    sum on its own."""
    q = rat(q)
    out = q_ratio_product(n, x, y, q, 1)
    out *= sum(
        (-1) ** k * q ** (n * k) * q_binomial(n, k, q) * q ** (y * k)
        * q_pochhammer(q ** x, q, k) * q_pochhammer(q ** y, q, n - k)
        for k in range(n + 1))
    return out
