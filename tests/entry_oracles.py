"""Slow independent oracles for the integer evaluation paths: Horner's
rule on Fractions for PolyQ and RatFn values, and the per-entry formulas
of the banded binomial-sum (tsscpp2) and qflha1 matrices, each entry
computed on its own."""

from fractions import Fraction

from detkit.exactnum import binomial, q_int, rat


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
