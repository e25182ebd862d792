"""Truncated-series arithmetic as schoolbook loops of Fraction
multiply-adds: the oracle for the integer-numerator TruncSeries
operations.  Each function takes and returns TruncSeries and raises what
the matching TruncSeries operation raises."""

from fractions import Fraction

from detkit.exactnum import TruncSeries, rat


def align_loop(s, t):
    val = min(s.valuation, t.valuation)
    order = min(s.order, t.order)
    if order <= val:
        raise ValueError("series have no overlapping window")
    a = [s.coeff(e) if s.valuation <= e < s.order else Fraction(0) for e in range(val, order)]
    b = [t.coeff(e) if t.valuation <= e < t.order else Fraction(0) for e in range(val, order)]
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
    val = s.valuation + t.valuation
    order = min(s.order + t.valuation, t.order + s.valuation)
    out = [Fraction(0)] * (order - val)
    for i, a in enumerate(s.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(t.coeffs):
            k = i + j
            if k < len(out):
                out[k] += a * b
    return TruncSeries(val, out, order)


def div_scalar_loop(s, c):
    """s / c for an int/Fraction c."""
    c = rat(c)
    return TruncSeries(s.valuation, [x / c for x in s.coeffs], s.order)


def inverse_loop(s):
    tv = s.true_valuation()
    if tv is None:
        raise ZeroDivisionError("inverse of (truncated) zero series")
    a = s.coeffs[tv - s.valuation:]
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
    if outer.valuation < 0 and any(c != 0 for c in outer.coeffs[: -outer.valuation]):
        raise ValueError("compose requires a power-series outer operand")
    itv = inner.true_valuation()
    if itv is not None and itv < 1:
        raise ValueError("compose requires inner valuation >= 1")
    order = min(outer.order, inner.order)
    v = order if itv is None else itv
    cs = [outer.coeff(e) for e in range((order - 1) // v + 1)]
    while cs and cs[-1] == 0:
        cs.pop()
    if itv is not None:
        inner = TruncSeries(itv, inner.coeffs[itv - inner.valuation:], inner.order)
    out = TruncSeries(0, [0] * order, order)
    pw = TruncSeries(0, [1] + [0] * (order - 1), order)
    for e, c in enumerate(cs):
        if e:
            pw = mul_loop(pw, inner).restrict(order)
        if c != 0:
            out = add_loop(out, mul_loop(pw, c))
    return out
