"""Truncated-series arithmetic as schoolbook loops of Fraction
multiply-adds: the oracle for the integer-numerator TruncSeries
operations.  Each function takes and returns TruncSeries and raises what
the matching TruncSeries operation raises.  Valuations are found by
scanning the known terms, so no loop relies on the normal form.

`moments_from_jfraction_series` is the oracle for the Motzkin-path
`hankel.moments_from_jfraction`: it expands the continued fraction by one
series inversion per level."""

from fractions import Fraction

from detkit.exactnum import TruncSeries, rat
from detkit.hankel import MomentSeq


def lowest(s):
    """The exponent of s's lowest nonzero known term; s.order if none."""
    return next((e for e in range(s.valuation, s.order) if s.coeff(e) != 0), s.order)


def align_loop(s, t):
    val = min(s.valuation, t.valuation)
    order = min(s.order, t.order)
    a = [s.coeff(e) for e in range(val, order)]
    b = [t.coeff(e) for e in range(val, order)]
    return val, order, a, b


def eq_loop(s, t):
    val, order, a, b = align_loop(s, t)
    return a == b


def add_loop(s, t):
    """s + t for a series or int/Fraction t."""
    t = s._coerce(t)
    val, order, a, b = align_loop(s, t)
    return TruncSeries(val, [x + y for x, y in zip(a, b)], order)


def mul_loop(s, t):
    """s * t for a series or int/Fraction t."""
    if isinstance(t, (int, Fraction)):
        c = rat(t)
        return TruncSeries(s.valuation, [c * x for x in s.coeffs], s.order)
    # each factor's known window starts at its true valuation
    vs, vt = lowest(s), lowest(t)
    val = vs + vt
    order = min(s.order + vt, t.order + vs)
    out = [Fraction(0)] * (order - val)
    for i in range(len(out)):
        for j in range(len(out) - i):
            out[i + j] += s.coeff(vs + i) * t.coeff(vt + j)
    return TruncSeries(val, out, order)


def div_scalar_loop(s, c):
    """s / c for an int/Fraction c."""
    c = rat(c)
    if c == 0:
        raise ZeroDivisionError("series division by zero")
    return TruncSeries(s.valuation, [x / c for x in s.coeffs], s.order)


def inverse_loop(s):
    tv = lowest(s)
    if tv == s.order:
        raise ZeroDivisionError("inverse of (truncated) zero series")
    a = [s.coeff(e) for e in range(tv, s.order)]
    n = len(a)
    inv = [Fraction(0)] * n
    inv[0] = 1 / a[0]
    for k in range(1, n):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += a[j] * inv[k - j]
        inv[k] = -acc / a[0]
    return TruncSeries(-tv, inv, -tv + n)


def pow_loop(s, n):
    """s^n for n >= 0, by repeated products in s's window."""
    out = TruncSeries(0, [1] + [0] * max(0, s.order - 1), max(s.order, 1))
    for _ in range(n):
        out = mul_loop(out, s)
    return out


def compose_loop(outer, inner):
    """outer(inner) by a running power of inner, stopping at the last
    contributing outer term."""
    lo = lowest(outer)
    if lo < 0:
        raise ValueError("compose requires a power-series outer operand")
    itv = lowest(inner)
    if itv < 1:
        raise ValueError("compose requires inner valuation >= 1")
    order = min(outer.order, inner.order)
    cs = [outer.coeff(e) for e in range((order - 1) // itv + 1)]
    while cs and cs[-1] == 0:
        cs.pop()
    out = TruncSeries(0, [0] * order, order)
    pw = TruncSeries(0, [int(e == 0) for e in range(order)], order)
    for e, c in enumerate(cs):
        if e:
            pw = mul_loop(pw, inner).restrict(order)
        if c != 0:
            out = add_loop(out, mul_loop(pw, c))
    return out


def moments_from_jfraction_series(j, count):
    """The first `count` moments of the J-fraction j, from the bottom level
    f = 1/(1 + a_m x) up by f <- 1/(1 + a_k x - b_{k+1} x^2 f); a count
    above twice the number of levels raises ValueError."""
    order = count
    if order <= 0:
        return MomentSeq([])
    if order == 1:
        return MomentSeq([j.mu0])
    levels = max(len(j.a), len(j.b) + 1)
    if count > 2 * levels:
        raise ValueError("J-fraction too shallow for requested moment count")
    f = TruncSeries.one(order)
    for k in range(levels - 1, -1, -1):
        a_k = j.a[k] if k < len(j.a) else Fraction(0)
        b_k1 = j.b[k] if k < len(j.b) else Fraction(0)
        den = TruncSeries(0, [1, a_k] + [0] * (order - 2), order) - b_k1 * TruncSeries(
            0, [0, 0] + [f.coeff(e) for e in range(order - 2)], order)
        f = den.inverse().restrict(order)
    f = j.mu0 * f
    return MomentSeq([f.coeff(k) for k in range(count)])
