"""Oracle and property tests for exact scalars, polynomials, rational
functions, and truncated series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detkit.exactnum import (PolyQ, RatFn, TruncSeries, bell_poly, bernoulli,
                             binomial, catalan, chebyshev_u, cos_series,
                             euler_even, exp_series, factorial, fmt_rat,
                             hermite_poly, pochhammer, poly_gcd, q_binomial,
                             q_factorial, q_int, q_pochhammer, rat,
                             special_sequence, stirling1_unsigned, stirling2)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=7)
small_ints = st.integers(min_value=0, max_value=8)


# ---------------------------------------------------------------------------
# scalars


def test_factorial_binomial_anchors():
    # [TRIVIAL] hand values
    assert factorial(0) == 1 and factorial(5) == 120
    assert binomial(7, 3) == 35
    assert binomial(4, 7) == 0
    # [DERIVED] generalized upper argument: (1/2 choose 2) = -1/8
    assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial(-1, 3) == -1


def test_pochhammer_anchors():
    # [TRIVIAL] (a)_0 = 1, (1)_n = n!
    assert pochhammer(Fraction(3, 2), 0) == 1
    assert pochhammer(1, 6) == factorial(6)
    # [DERIVED] (1/2)_3 = 1/2 * 3/2 * 5/2
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)


def test_bernoulli_euler_anchors():
    # [PAPER] B_2 = 1/6 anchors the shifted Hankel values; B_12 = -691/2730
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)
    # [DERIVED] secant numbers 1, 1, 5, 61, 1385
    assert [euler_even(2 * k) for k in range(5)] == [1, 1, 5, 61, 1385]


def test_bernoulli_euler_tables_match_exact_size_tables():
    # the power-of-two tables hold the same values as a table built at
    # exactly the size each index needs
    from detkit.exactnum import _bernoulli_table, _euler_even_table
    for k in range(120):
        assert bernoulli(k) == _bernoulli_table.__wrapped__(k + 1)[k]
    for k in range(0, 120, 2):
        assert euler_even(k) == _euler_even_table.__wrapped__(k // 2 + 1)[k // 2]
    with pytest.raises(ValueError):
        bernoulli(-1)
    with pytest.raises(ValueError):
        euler_even(-2)


def test_stirling_catalan_anchors():
    # [TRIVIAL] S(4,2) = 7, c(4,2) = 11, Catalan 1,1,2,5,14,42
    assert stirling2(4, 2) == 7
    assert stirling1_unsigned(4, 2) == 11
    assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]


def test_special_sequence_asm():
    # [PAPER] alternating-sign-matrix counts 1, 2, 7, 42, 429
    assert [special_sequence("asm", n) for n in range(1, 6)] == [1, 2, 7, 42, 429]


def test_q_analogues():
    q = Fraction(1, 3)
    # [TRIVIAL] [n]_q = 1 + q + ... + q^{n-1}
    assert q_int(3, q) == 1 + q + q * q
    assert q_factorial(3, q) == q_int(1, q) * q_int(2, q) * q_int(3, q)
    # [DERIVED] q-binomial specializes to the binomial at q = 1
    for n in range(6):
        for k in range(n + 1):
            assert q_binomial(n, k, Fraction(1)) == binomial(n, k)
    # [TRIVIAL] (a;q)_2 = (1-a)(1-aq)
    a = Fraction(2, 5)
    assert q_pochhammer(a, q, 2) == (1 - a) * (1 - a * q)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_binomial_pascal(n, k):
    assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


def test_fmt_rat():
    assert fmt_rat(Fraction(3)) == "3"
    assert fmt_rat(Fraction(-1, 5)) == "-1/5"
    assert rat(2) == Fraction(2)


# ---------------------------------------------------------------------------
# polynomials


def test_polyq_basic_ops():
    p = PolyQ([1, 2, 1])  # (x+1)^2
    q = PolyQ([1, 1])
    quo, rem = p.divmod(q)
    assert quo == q and rem == PolyQ([0])
    assert p.derivative() == PolyQ([2, 2])
    assert p(Fraction(3)) == 16
    assert p.compose(PolyQ([1, 1])) == PolyQ([4, 4, 1])
    assert p.leading() == 1 and p.degree == 2 and p.coeff(1) == 2


@given(st.lists(rationals, min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5))
def test_polyq_ring_axioms(a, b):
    p, q = PolyQ(a), PolyQ(b)
    assert p + q == q + p
    assert p * q == q * p
    x = Fraction(2, 3)
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)


@given(st.lists(rationals, min_size=2, max_size=5),
       st.lists(rationals, min_size=1, max_size=4))
def test_polyq_division(a, b):
    p, d = PolyQ(a), PolyQ(b)
    if d.degree < 0 or d == PolyQ([0]):
        return
    quo, rem = p.divmod(d)
    assert quo * d + rem == p
    assert rem.degree < max(d.degree, 1) or rem == PolyQ([0])


def test_poly_gcd():
    p = PolyQ([-1, 0, 1])  # x^2 - 1
    q = PolyQ([1, 2, 1])   # (x+1)^2
    g = poly_gcd(p, q)
    assert g == PolyQ([1, 1])


def test_special_polys():
    # [DERIVED] orthogonal/combinatorial polynomial anchors
    assert bell_poly(3) == PolyQ([0, 1, 3, 1])
    assert hermite_poly(2) == PolyQ([Fraction(-1), 0, 1])
    assert hermite_poly(3)(0) == 0
    assert chebyshev_u(2) == PolyQ([-1, 0, 4])
    # Chebyshev recurrence U_{m+1}(x) = 2x U_m(x) - U_{m-1}(x)
    for m in range(1, 6):
        assert chebyshev_u(m + 1) == PolyQ([0, 2]) * chebyshev_u(m) - chebyshev_u(m - 1)


# ---------------------------------------------------------------------------
# rational functions


def test_ratfn_arithmetic():
    f = RatFn(PolyQ([0, 1]), PolyQ([1, 1]))        # x/(x+1)
    g = RatFn(PolyQ([1]), PolyQ([1, 1]))           # 1/(x+1)
    assert f + g == RatFn(PolyQ([1]))
    assert f.derivative() == RatFn(PolyQ([1]), PolyQ([1, 2, 1]))
    x = Fraction(1, 2)
    assert f(x) == Fraction(1, 3)


@given(st.lists(rationals, min_size=1, max_size=3),
       st.lists(rationals, min_size=1, max_size=3))
def test_ratfn_eval_consistency(a, b):
    num, den = PolyQ(a), PolyQ(b)
    if den == PolyQ([0]):
        return
    f = RatFn(num, den)
    x = Fraction(5, 7)
    if den(x) != 0:
        assert f(x) == num(x) / den(x)


# ---------------------------------------------------------------------------
# truncated series


def test_series_exp_cos():
    order = 10
    e = exp_series(order)
    c = cos_series(order)
    # [TRIVIAL] coefficient oracles
    assert e.coeff(4) == Fraction(1, 24)
    assert c.coeff(2) == Fraction(-1, 2)
    assert c.coeff(3) == 0
    # derivative of exp is exp (up to truncation window)
    assert e.derive() == e.restrict(order - 1)


def test_series_inverse_and_division():
    order = 8
    e = exp_series(order)
    inv = e.inverse()
    assert (e * inv).constant_term() == 1
    assert e / e == TruncSeries.one(order)
    # 1/(1-x) has all-ones coefficients
    geom = TruncSeries.from_poly(PolyQ([1, -1]), order).inverse()
    assert all(geom.coeff(k) == 1 for k in range(order))


def test_series_compose_and_pow():
    order = 8
    x = TruncSeries.var(order)
    e = exp_series(order)
    # exp(2x) = exp(x)^2
    assert e.compose(x * Fraction(2)) == e * e
    assert (e ** -2) * (e ** 2) == TruncSeries.one(order)


def test_series_valuation():
    s = TruncSeries(1, [0, 1, 0], order=4)
    assert s.true_valuation() == 2
    with pytest.raises(ZeroDivisionError):
        TruncSeries(0, [0, 0, 0]).inverse()
