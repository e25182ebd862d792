"""Tests for sequence-law guessing and exact interpolation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detkit.exactnum import PolyQ, RatFn, asm_count, factorial
from detkit.guess import (GuessExpr, ZeroTermError, fit_rational,
                          lagrange_interpolate, linear_factors, rate_guess)
from detkit.linalg import MatrixR, kernel_basis
from entry_oracles import newton_coefficients
from sequence_oracles import catalan

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=5)
nodes = st.one_of(st.integers(-12, 12).map(Fraction),
                  st.fractions(min_value=-12, max_value=12, max_denominator=3))
polys = st.lists(rationals, min_size=1, max_size=5).map(PolyQ)  # degree <= 4


def test_lagrange_anchor():
    pts = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2)),
           (Fraction(2), Fraction(5))]
    p = lagrange_interpolate(pts)
    assert p == PolyQ([1, 0, 1])


@given(st.lists(rationals, min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_lagrange_reconstructs_poly(coeffs):
    p = PolyQ(coeffs)
    deg = max(p.degree, 0)
    pts = [(Fraction(k), p(Fraction(k))) for k in range(deg + 1)]
    assert lagrange_interpolate(pts) == p


def test_fit_rational():
    f = RatFn(PolyQ([1, 1]), PolyQ([2, 0, 1]))
    pts = [(Fraction(k), f(Fraction(k))) for k in range(8)]
    got = fit_rational(pts)
    assert got is not None
    for x in (Fraction(11), Fraction(-3, 2)):
        assert got(x) == f(x)


def test_fit_rational_rejects_noise():
    pts = [(Fraction(k), Fraction(2) ** (k * k)) for k in range(8)]
    assert fit_rational(pts) is None


def test_rate_guess_constant_and_factorial():
    # [TRIVIAL] identity law on 1, 2, 3
    gs = rate_guess([Fraction(k) for k in (1, 2, 3)])
    assert gs and str(gs[0]) == "n -> n"
    assert [gs[0].evaluate(k) for k in range(1, 4)] == [1, 2, 3]
    # factorials: ratio n is a polynomial in n
    gs = rate_guess([Fraction(factorial(k)) for k in range(1, 8)])
    assert gs
    assert gs[0].evaluate(9) == factorial(9)


def test_rate_guess_catalan_extends():
    gs = rate_guess([catalan(k) for k in range(1, 9)])
    assert gs
    for n in range(9, 13):
        assert gs[0].evaluate(n) == catalan(n)


def test_rate_guess_rejects_fibonacci():
    terms = [Fraction(x) for x in (1, 1, 2, 3, 5, 8)]
    assert rate_guess(terms) == []


def test_rate_guess_zero_term():
    with pytest.raises(ZeroTermError):
        rate_guess([Fraction(1), Fraction(0), Fraction(2)])


def test_rate_guess_asm_sequence():
    # [PAPER] the 8 seed terms pin down the product law exactly
    terms = [Fraction(x) for x in
             (1, 2, 7, 42, 429, 7436, 218348, 10850216)]
    gs = rate_guess(terms)
    assert gs
    for n in range(9, 13):
        assert gs[0].evaluate(n) == asm_count(n)


def test_linear_factors():
    p = PolyQ([0, 1]) * PolyQ([2, 1]) ** 2 * PolyQ([3, 0, 1])
    factors, cofactor = linear_factors(p, 3)
    assert dict(factors) == {Fraction(0): 1, Fraction(-2): 2}
    assert cofactor == PolyQ([3, 0, 1])


def test_linear_factors_scan_half_integers_within_radius():
    # -1/2 and 2 lie in the scanned range, 5 does not
    p = PolyQ([1, 2]) * PolyQ([-5, 1]) * PolyQ([-2, 1])
    factors, cofactor = linear_factors(p, 3)
    assert factors == [(Fraction(-1, 2), 1), (Fraction(2), 1)]
    assert cofactor == PolyQ([-10, 2])
    with pytest.raises(ValueError):
        linear_factors(PolyQ(), 3)


@pytest.mark.parametrize("n", [7, 8])
def test_linear_factors_split_the_mrr_determinant(n):
    # the identification workflow's polynomial: every root is a half-integer
    # in the scanned range, and the factors rebuild it
    from detkit.guess import interpolate_det_poly
    p = interpolate_det_poly("mrr", {}, "mu", n, n * (n - 1) // 2)
    factors, cofactor = linear_factors(p, 3 * n + 3)
    assert cofactor.degree == 0
    rebuilt = cofactor
    for r, mult in factors:
        rebuilt = rebuilt * PolyQ([-r, 1]) ** mult
    assert rebuilt == p


def test_interpolate_det_poly_surfaces_builder_errors(monkeypatch):
    # only a pole of an entry (ZeroDivisionError) skips a sample point;
    # any other error surfaces from the first build
    from detkit import catalog
    from detkit.guess import interpolate_det_poly
    calls = []
    build = catalog.build_matrix
    monkeypatch.setattr(catalog, "build_matrix",
                        lambda *a, **k: calls.append(a) or build(*a, **k))
    with pytest.raises(ValueError, match="has no plain matrix builder"):
        interpolate_det_poly("nc-suite", {}, "q", 2, 3)
    assert len(calls) == 1


def test_interpolate_det_poly_skips_poles(monkeypatch):
    from detkit import catalog
    from detkit.guess import interpolate_det_poly

    def build(identity_id, n, q):
        if q == 1:
            raise ZeroDivisionError
        return MatrixR.from_rows([[q * q - 1]])
    monkeypatch.setattr(catalog, "build_matrix", build)
    assert interpolate_det_poly("any", {}, "q", 1, 2) == PolyQ([-1, 0, 1])


# ---------------------------------------------------------------------------
# the split search, the recursive evaluation, the product-form Lagrange
# loop and the Newton-form Cauchy interpolation over PolyQ that
# fit_rational, GuessExpr.evaluate and lagrange_interpolate replaced, kept
# as oracles


def _solve_split(pts, dn, dd):
    rows = [[x**i for i in range(dn + 1)] + [-y * x**j for j in range(dd + 1)]
            for x, y in pts]
    kern = kernel_basis(MatrixR.from_rows(rows)) if rows else []
    for v in kern:
        num, den = PolyQ(v[: dn + 1]), PolyQ(v[dn + 1:])
        if not den.is_zero():
            return RatFn(num, den)
    return None


def _fits_all(fn, pts):
    return all(fn.den(x) != 0 and fn(x) == y for x, y in pts)


def _split_search(points):
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("x-values must be distinct")
    m = len(pts)
    if m < 2:
        return None
    for total in range(0, m - 1):
        for dn in range(total, -1, -1):
            cand = _solve_split(pts[:-1], dn, total - dn)
            if cand is not None and _fits_all(cand, pts):
                return cand
    return None


def _term(g, k, i):
    if k == g.level:
        return g.law(Fraction(i))
    out = g.initials[k]
    for j in range(1, i):
        out *= _term(g, k + 1, j)
    return out


def _product_lagrange(pts):
    out = PolyQ()
    for i, (xi, yi) in enumerate(pts):
        li, denom = PolyQ.constant(1), Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j != i:
                li = li * PolyQ([-xj, 1])
                denom *= xi - xj
        out = out + li * (yi / denom)
    return out


def _fit_rational_newton_euclid(points):
    """fit_rational as it ran on Fraction coefficients: the Newton-form
    interpolant and the extended Euclidean algorithm over PolyQ."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("x-values must be distinct")
    m = len(pts)
    if m < 2:
        return None
    xs = [x for x, _ in pts]
    node, interp = PolyQ.constant(1), PolyQ()
    for x, c in zip(xs, newton_coefficients(xs, [y for _, y in pts])):
        interp = interp + node * c
        node = node * PolyQ([-x, 1])
    rows = [(node, PolyQ()), (interp, PolyQ.constant(1))]
    while not rows[-1][0].is_zero():
        (r0, t0), (r1, t1) = rows[-2:]
        q, r = r0.divmod(r1)
        rows.append((r, t0 - q * t1))
    for total in range(0, m - 1):
        for dn in range(total, -1, -1):
            r, t = next(row for row in rows if row[0].degree <= dn)
            if t.degree <= total - dn and all(t(x) != 0 for x in xs):
                return RatFn(r, t)
    return None


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return value, repr(value)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fit_rational_matches_split_search(data):
    xs = data.draw(st.lists(nodes, min_size=2, max_size=11, unique=True))
    num, den = data.draw(polys), data.draw(polys)
    kind = data.draw(st.sampled_from(["law", "zero", "noise"]))
    ys = []
    for x in xs:
        if kind == "zero":
            ys.append(Fraction(0))
        elif kind == "law" and den(x) != 0:
            ys.append(num(x) / den(x))
        else:
            ys.append(data.draw(rationals))
    if data.draw(st.booleans()):
        ys[data.draw(st.integers(0, len(xs) - 1))] += data.draw(rationals)
    pts = list(zip(xs, ys))
    assert _outcome(fit_rational, pts) == _outcome(_split_search, pts)


def test_fit_rational_tie_goes_to_numerator_heavy_split():
    # x^2 - 5 and -4/x^2 agree at x = +-1, +-2: splits (2, 0) and (0, 2)
    # of one total degree both accept, and the order picks the first
    pts = [(x, Fraction(x * x - 5)) for x in (1, 2, -1, -2)]
    assert all(RatFn(-4, PolyQ([0, 0, 1]))(x) == y for x, y in pts)
    assert fit_rational(pts) == _split_search(pts) == RatFn(PolyQ([-5, 0, 1]))


@given(st.lists(nodes, min_size=2, max_size=6), st.data())
@settings(max_examples=30, deadline=None)
def test_fit_rational_repeated_x_matches_split_search(xs, data):
    xs.append(data.draw(st.sampled_from(xs)))
    pts = [(x, data.draw(rationals)) for x in xs]
    with pytest.raises(ValueError, match="distinct"):
        fit_rational(pts)
    assert _outcome(fit_rational, pts) == _outcome(_split_search, pts)


@given(st.integers(0, 3), polys, st.integers(1, 9),
       st.lists(rationals.filter(bool), min_size=3, max_size=3),
       st.sampled_from([None, 0, 1]))
@settings(max_examples=100, deadline=None)
def test_guess_evaluate_matches_recursive_terms(level, num, pole, initials, parity):
    # the denominator vanishes at a positive integer, so some positions
    # meet a pole
    law = RatFn(num, PolyQ([-pole, 1]))
    g = GuessExpr(level, tuple(initials[:level]), law, parity)
    for n in range(-1, 11):
        want = (ValueError, "positions are 1-based") if n < 1 else _outcome(_term, g, 0, n)
        assert _outcome(g.evaluate, n) == want


def test_lagrange_rejects_repeated_x():
    with pytest.raises(ValueError, match="x-values must be distinct"):
        lagrange_interpolate([(1, 2), (3, 4), (1, 5)])


@given(st.lists(st.tuples(nodes, rationals), max_size=8))
@settings(max_examples=60, deadline=None)
def test_lagrange_matches_product_form(pts):
    # the product form divides by zero on a repeated x; the Newton form
    # rejects it up front, like fit_rational
    want = _outcome(_product_lagrange, pts)
    got = _outcome(lagrange_interpolate, pts)
    if want[0] is ZeroDivisionError:
        assert got == (ValueError, "x-values must be distinct")
    else:
        assert got == want


# integer nodes (positive or negative), rational nodes, and 1..m in a
# shuffled order
node_sets = st.one_of(
    st.lists(st.integers(-15, 15).map(Fraction), min_size=0, max_size=12, unique=True),
    st.lists(st.integers(-15, -1).map(Fraction), min_size=0, max_size=12, unique=True),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
             min_size=0, max_size=12, unique=True),
    st.integers(0, 12).flatmap(lambda m: st.permutations([Fraction(k) for k in range(1, m + 1)])))


@given(node_sets, polys, polys, st.sampled_from(["law", "pole", "zero", "noise"]), st.data())
@settings(max_examples=300, deadline=None)
def test_fit_rational_matches_newton_euclid(xs, num, den, kind, data):
    # "pole" puts a zero of the law's denominator on one node and draws
    # that node's value freely
    xs = list(xs)
    if kind == "pole" and xs:
        den = den * PolyQ([-data.draw(st.sampled_from(xs)), 1])
    ys = []
    for x in xs:
        if kind == "zero":
            ys.append(Fraction(0))
        elif kind in ("law", "pole") and den(x) != 0:
            ys.append(num(x) / den(x))
        else:
            ys.append(data.draw(rationals))
    if xs and data.draw(st.booleans()):
        ys[data.draw(st.integers(0, len(xs) - 1))] += data.draw(rationals)
    pts = list(zip(xs, ys))
    if data.draw(st.booleans()) and pts:
        pts.append((data.draw(st.sampled_from(xs)), data.draw(rationals)))
    want = _outcome(_fit_rational_newton_euclid, pts)
    assert _outcome(fit_rational, pts) == want
    if len({x for x, _ in pts}) < len(pts):
        assert want == (ValueError, "x-values must be distinct")
    elif len(pts) < 2:
        assert want == (None, "None")


def test_fit_rational_newton_euclid_edges():
    law = RatFn(PolyQ([1, 0, 1]), PolyQ([-3, 1]))
    cases = [
        [],
        [(5, Fraction(2, 3))],
        # a pole of the law on a node: rejected there, refitted elsewhere
        [(x, law(x) if x != 3 else 7) for x in range(8)],
        [(x, law(x)) for x in (-7, -5, -2, -1, 1, 2, 4, 8)],
        [(Fraction(x, 3), law(Fraction(x, 3))) for x in (1, 2, 4, 5, 7, 8, 10)],
        [(x, law(x)) for x in (4, 1, 6, 2, 7, 5)],
        [(1, 2), (2, 3), (1, 4)],
    ]
    for pts in cases:
        assert _outcome(fit_rational, pts) == _outcome(_fit_rational_newton_euclid, pts)
    assert fit_rational([(x, law(x)) for x in (-7, -5, -2, -1, 1, 2, 4, 8)]) == law
    with pytest.raises(ValueError, match="x-values must be distinct"):
        fit_rational(cases[-1])
    assert fit_rational(cases[0]) is None and fit_rational(cases[1]) is None
