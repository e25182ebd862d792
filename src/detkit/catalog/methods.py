"""Technique demonstrations that are verified rather than merely
described: minor condensation closing an induction, the
matrix-differential-equation method, the explicit LU factorization of
the power matrix, and the factor-identification workflow on the
binomial determinant with one free parameter."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from ..exactnum import PolyQ, RatFn, binomial, factorial, rat
from ..guess import interpolate_det_poly, lagrange_interpolate, linear_factors
from ..linalg import MatrixR, det, lu_decompose
from .base import Trial, VerifyReport, _vdm, pair, power, prod, rising
from . import binomsum as _binomsum
from .classical import _build_vandermonde, build_macmahon


# ---------------------------------------------------------------------------
# condensation


def condensation_recurrence_check(a: int, b: int, n: int) -> VerifyReport:
    """The five minors of the size-n matrix are smaller instances of the
    same family, and the Desnanot determinant relation then closes the
    induction on the product formula."""
    if n < 2:
        raise ValueError("n >= 2")
    report = VerifyReport("condensation")
    m = build_macmahon(n, a, b)
    all_idx = list(range(n))
    inner = all_idx[1:]
    outer = all_idx[:-1]
    minors = (
        ("rows 1..n-1, cols 1..n-1", outer, outer, (n - 1, a, b)),
        ("rows 2..n,   cols 2..n", inner, inner, (n - 1, a, b)),
        ("rows 1..n-1, cols 2..n", outer, inner, (n - 1, a + 1, b - 1)),
        ("rows 2..n,   cols 1..n-1", inner, outer, (n - 1, a - 1, b + 1)),
        ("rows 2..n-1, cols 2..n-1", all_idx[1:-1], all_idx[1:-1], (n - 2, a, b)),
    )
    for name, rows, cols, args in minors:
        got, want = m.submatrix(rows, cols), build_macmahon(*args)
        report.trials.append(Trial(
            {"a": a, "b": b, "n": n, "minor": name},
            got.to_rows(), want.to_rows(), got == want))
    lhs = det(m) * det(build_macmahon(n - 2, a, b))
    rhs = (det(build_macmahon(n - 1, a, b)) ** 2
           - det(build_macmahon(n - 1, a - 1, b + 1))
           * det(build_macmahon(n - 1, a + 1, b - 1)))
    report.trials.append(Trial(
        {"a": a, "b": b, "n": n, "check": "desnanot"}, lhs, rhs, lhs == rhs))
    return report


# ---------------------------------------------------------------------------
# the matrix differential equation d/da M = T.M


def _ode_m_entry(n: int, b: int, i: int, j: int) -> PolyQ:
    # 1-based: prod_{s=i+1}^n (a - j + s) * (b + j - i + 1)_(i-1); the
    # transpose orientation is the one satisfying dM/da = T.M
    p = PolyQ.constant(1)
    for s in range(i + 1, n + 1):
        p = p * PolyQ([s - j, 1])
    return p * Fraction(*rising(pair(b + j - i + 1), i - 1))


def _ode_t_entry(n: int, b: int, i: int, j: int) -> RatFn:
    c = binomial(n - i, j - i)
    out = RatFn(PolyQ.constant(0))
    if c == 0:
        return out
    for k in range(0, n - i):
        w = binomial(j - i - 1, k) * Fraction(-1) ** k
        if w != 0:
            out = out + RatFn(PolyQ.constant(w), PolyQ([b + n - i - k, 1]))
    return out * c


def ode_method_check(n: int, b: int) -> VerifyReport:
    """With entries of M as polynomials in the free parameter, the
    derivative of M equals T.M as rational functions; the trace of T is
    the displayed partial-fraction sum, which forces the determinant's
    product form (checked on interpolated samples)."""
    if n < 1:
        raise ValueError(f"ode-method: requires n >= 1, got {n}")
    report = VerifyReport("ode-method")
    m = [[RatFn(_ode_m_entry(n, b, i, j)) for j in range(1, n + 1)]
         for i in range(1, n + 1)]
    t = [[_ode_t_entry(n, b, i, j) for j in range(1, n + 1)]
         for i in range(1, n + 1)]
    ok = True
    for i in range(n):
        for j in range(n):
            dm = m[i][j].derivative()
            tm = RatFn(PolyQ.constant(0))
            for k in range(n):
                tm = tm + t[i][k] * m[k][j]
            if dm != tm:
                ok = False
    report.trials.append(Trial(
        {"n": n, "b": b, "check": "dM/da = T.M"}, ok, True, ok))
    trace = RatFn(PolyQ.constant(0))
    for i in range(n):
        trace = trace + t[i][i]
    want = RatFn(PolyQ.constant(0))
    for el in range(1, n):
        want = want + RatFn(PolyQ.constant(n - el), PolyQ([b + el, 1]))
    report.trials.append(Trial(
        {"n": n, "b": b, "check": "trace"}, trace, want, trace == want))

    def closed(av: Fraction) -> Fraction:
        return prod(chain(map(factorial, range(n)),
                          (power(pair(av + b + el), n - el) for el in range(1, n))))

    samples_ok = True
    for av in range(n * (n - 1) // 2 + 1):
        got = det(MatrixR.build(
            n, n,
            lambda i, j: _ode_m_entry(n, b, i + 1, j + 1)(Fraction(av))))
        if got != closed(Fraction(av)):
            samples_ok = False
    report.trials.append(Trial(
        {"n": n, "b": b, "check": "determinant"},
        samples_ok, True, samples_ok))
    return report


# ---------------------------------------------------------------------------
# explicit LU factorization of the power matrix


def elementary_symmetric(m: int, xs) -> Fraction:
    xs = [rat(x) for x in xs]
    if m < 0 or m > len(xs):
        return Fraction(0)
    table = [Fraction(0)] * (m + 1)
    table[0] = Fraction(1)
    for x in xs:
        for k in range(min(m, len(xs)), 0, -1):
            table[k] += x * table[k - 1]
    return table[m]


def lu_vandermonde_check(n: int, X) -> VerifyReport:
    """M.U = L with the guessed unitriangular U and triangular L, whose
    diagonal multiplies out to the difference product; U is unit upper
    triangular, so the factorization is unique, and linalg.lu_decompose
    must find the same U and L."""
    if n < 1:
        raise ValueError(f"lu-vandermonde: requires n >= 1, got {n}")
    X = [rat(x) for x in X]
    if len(set(X)) != n or len(X) != n:
        raise ValueError("X must be n distinct rationals")
    report = VerifyReport("lu-vandermonde")
    m = _build_vandermonde(n, X)

    def u_entry(i, j):
        if i > j:
            return Fraction(0)
        return Fraction(-1) ** (j - i) * elementary_symmetric(j - i, X[:j])

    def l_entry(i, j):
        return prod(X[i] - X[k] for k in range(j))

    u = MatrixR.build(n, n, u_entry)
    el = MatrixR.build(n, n, l_entry)
    prod_mu = m * u
    report.trials.append(Trial(
        {"n": n, "X": tuple(X), "check": "M.U = L"},
        prod_mu.to_rows(), el.to_rows(), prod_mu == el))
    diag = Fraction(1)
    for j in range(n):
        diag *= el[j, j]
    vdm = _vdm(X)
    report.trials.append(Trial(
        {"n": n, "X": tuple(X), "check": "diagonal product"},
        diag, vdm, diag == vdm))
    lower, upper = lu_decompose(m)
    report.trials.append(Trial(
        {"n": n, "X": tuple(X), "check": "lu_decompose"},
        [lower.to_rows(), upper.to_rows()], [el.to_rows(), u.to_rows()],
        (lower, upper) == (el, u)))
    return report


# ---------------------------------------------------------------------------
# identification of factors, run end to end on one family


def identification_workflow_mrr(n: int) -> VerifyReport:
    """Kernel vector at the special parameter value, exact determinant
    interpolation, factor extraction, degree bound, and leading
    coefficient comparison."""
    if not 2 <= n <= 8:
        raise ValueError("2 <= n <= 8")
    report = VerifyReport("identification-mrr")
    m = _binomsum._build_mrr(n, Fraction(-n))
    v = [binomial(n - 2, j - 1) for j in range(n)]
    image = m.mul_vector(v)
    zero = [Fraction(0)] * n
    report.trials.append(Trial(
        {"n": n, "mu": -n, "vector": tuple(v), "check": "kernel"},
        list(image), zero, list(image) == zero))
    sums = [sum((binomial(n - 2, j - 1) * binomial(-n + i + j, 2 * i - j)
                 for j in range(n)), Fraction(0)) for i in range(n)]
    report.trials.append(Trial(
        {"n": n, "check": "vanishing sum"},
        sums, zero, sums == zero))
    bound = n * (n - 1) // 2
    p = interpolate_det_poly("mrr", {}, "mu", n, bound)
    factors, _ = linear_factors(p, 3 * n + 3)
    rhs_pts = [(Fraction(mu), _binomsum._closed_mrr(n, Fraction(mu)))
               for mu in range(bound + 1)]
    rhs_poly = lagrange_interpolate(rhs_pts)
    report.trials.append(Trial(
        {"n": n, "check": "degree bound", "factors": factors},
        p.degree, bound, p.degree <= bound))
    report.trials.append(Trial(
        {"n": n, "check": "leading coefficient"},
        p.leading(), rhs_poly.leading(), p == rhs_poly))
    return report
