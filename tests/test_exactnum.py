"""Oracle and property tests for exact scalars, polynomials, rational
functions, and truncated series."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detkit.catalog.base import pair, prod, q_factorials, q_prod, rising
from detkit.exactnum import (PolyQ, RatFn, TruncSeries, _binomial_pairs,
                             _q_binomial_pairs, _q_int_pairs,
                             _q_pochhammer_pairs, _table_size,
                             _zigzag, asm_count, bell, bell_poly, bernoulli,
                             binomial, chebyshev_u, compose_each,
                             double_factorial, euler_even, factorial,
                             fmt_rat, hermite_values, integer_numerators,
                             parse_rat, poly_gcd, power_pairs, rat,
                             stirling1_unsigned, stirling2)
from entry_oracles import (_binomial_loop, _pochhammer_loop, _q_binomial_loop,
                           _q_factorial_loop, _q_int_formula, _q_pochhammer_loop,
                           poly_horner, ratfn_value)
from sequence_oracles import (bell_poly_rec, bell_triangle, bernoulli_series,
                              bernoulli_table, catalan, cos_series,
                              euler_even_series, euler_even_table, exp_series,
                              hermite_poly, stirling1_unsigned_rec,
                              stirling2_rec)
from series_oracles import (add_loop, compose_loop, div_scalar_loop, eq_loop,
                            inverse_loop, mul_loop)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=7)
small_ints = st.integers(min_value=0, max_value=8)


# ---------------------------------------------------------------------------
# scalars


def test_factorial_binomial_anchors():
    # [TRIVIAL] hand values
    assert factorial(0) == 1 and factorial(5) == 120
    assert binomial(7, 3) == 35
    assert binomial(4, 7) == 0
    # [DERIVED] generalized upper argument: (1/2 choose 2) = -1/8, read
    # from the table; binomial itself takes integers only
    assert _binomial_read(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binomial(-1, 3) == -1
    with pytest.raises(ValueError, match="binomial of non-integer 1/2"):
        binomial(Fraction(1, 2), 2)


def test_pochhammer_anchors():
    # [TRIVIAL] (a)_0 = 1, (1)_n = n!
    assert _rising_value(Fraction(3, 2), 0) == 1
    assert _rising_value(1, 6) == factorial(6)
    # [DERIVED] (1/2)_3 = 1/2 * 3/2 * 5/2
    assert _rising_value(Fraction(1, 2), 3) == Fraction(15, 8)


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
    # the power-of-two boustrophedon holds the same values as one built at
    # exactly the size each index needs, and those are the coefficients of
    # series-inverse tables built at that size
    for k in range(120):
        assert _zigzag(_table_size(k + 1))[k] == _zigzag.__wrapped__(k + 1)[k]
        assert bernoulli(k) == bernoulli_table(k + 1)[k]
    for k in range(0, 120, 2):
        assert euler_even(k) == euler_even_table(k // 2 + 1)[k // 2]
    with pytest.raises(ValueError):
        bernoulli(-1)
    with pytest.raises(ValueError):
        euler_even(-2)


def _same(got, want):
    return got == want and type(got) is type(want)


def test_bernoulli_and_euler_match_series_inverse_oracles():
    assert all(_same(bernoulli(k), bernoulli_series(k)) for k in range(401))
    assert all(_same(euler_even(k), euler_even_series(k)) for k in range(0, 401, 2))


@pytest.mark.parametrize("fn, oracle, k", [
    (bernoulli, bernoulli_series, -1), (bernoulli, bernoulli_series, -2),
    (bernoulli, bernoulli_series, -7), (euler_even, euler_even_series, -2),
    (euler_even, euler_even_series, -1), (euler_even, euler_even_series, 1),
    (euler_even, euler_even_series, 7)])
def test_sequence_index_errors_match_oracles(fn, oracle, k):
    with pytest.raises(Exception) as want:
        oracle(k)
    with pytest.raises(type(want.value)):
        fn(k)


def test_stirling_and_bell_polys_match_recursion_oracles():
    for m in range(-2, 121):
        for k in range(-2, max(m, 0) + 3):
            assert _same(stirling2(m, k), stirling2_rec(m, k)), (m, k)
            assert _same(stirling1_unsigned(m, k), stirling1_unsigned_rec(m, k)), (m, k)
    for m in range(-1, 61):
        assert bell_poly(m) == bell_poly_rec(m), m
        assert all(type(c) is Fraction for c in bell_poly(m).coeffs)


def test_stirling_and_bell_far_past_the_recursion_limit():
    # each of these raised RecursionError on a Fraction recursion
    assert stirling2(600, 3) == (3 ** 600 - 3 * 2 ** 600 + 3) // 6
    assert stirling1_unsigned(600, 599) == math.comb(600, 2)
    assert bell(600) == bell_triangle(601)[600]
    assert type(bell(600)) is int


def test_bell_matches_the_bell_triangle():
    assert [bell(k) for k in range(120)] == bell_triangle(120)
    assert all(type(bell(k)) is int for k in range(-2, 5))
    assert bell(-1) == 0


def test_stirling_catalan_anchors():
    # [TRIVIAL] S(4,2) = 7, c(4,2) = 11, Bell 1,1,2,5,15,52,
    # Catalan 1,1,2,5,14,42
    assert stirling2(4, 2) == 7
    assert stirling1_unsigned(4, 2) == 11
    assert [bell(k) for k in range(6)] == [1, 1, 2, 5, 15, 52]
    assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]


def test_special_sequence_asm():
    # [PAPER] alternating-sign-matrix counts 1, 2, 7, 42, 429
    assert [asm_count(n) for n in range(1, 6)] == [1, 2, 7, 42, 429]


def test_q_analogues():
    q = Fraction(1, 3)
    # [TRIVIAL] [n]_q = 1 + q + ... + q^{n-1}
    assert _q_int_read(3, q) == 1 + q + q * q
    assert _q_factorial_read(3, q) == _q_int_read(1, q) * _q_int_read(2, q) * _q_int_read(3, q)
    # [DERIVED] q-binomial specializes to the binomial at q = 1
    for n in range(6):
        for k in range(n + 1):
            assert _q_binomial_read(n, k, Fraction(1)) == binomial(n, k)
    # [TRIVIAL] (a;q)_2 = (1-a)(1-aq)
    a = Fraction(2, 5)
    assert _q_pochhammer_read(a, q, 2) == (1 - a) * (1 - a * q)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_binomial_pascal(n, k):
    assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


# ---------------------------------------------------------------------------
# differential tests: the integer numerator/denominator tables against the
# plain Fraction loops of entry_oracles, each read once as a Fraction


def _binomial_read(x, k):
    return Fraction(*_binomial_pairs(x, k)(k))


def _rising_value(a, k):
    return prod([rising(pair(a), k)])


def _q_pochhammer_read(a, q, k):
    return Fraction(*_q_pochhammer_pairs(a, q, min(k, 0), max(k, 0))(k))


def _q_int_read(n, q):
    return Fraction(*_q_int_pairs(q, abs(n))(n))


def _q_factorial_read(n, q):
    return q_prod(q, q_factorials([n]))


def _q_binomial_read(alpha, k, q):
    return Fraction(*_q_binomial_pairs(alpha, q, k)(k))


def _outcome(f, *args):
    """The value with its type, or the exception type and message."""
    try:
        value = f(*args)
    except (ZeroDivisionError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return type(value), value


uppers = st.one_of(st.integers(min_value=-20, max_value=20), rationals)
lowers = st.integers(min_value=-4, max_value=12)
qs = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]),
    st.integers(min_value=2, max_value=10**4).flatmap(  # q near 1
        lambda m: st.sampled_from([Fraction(m - 1, m), Fraction(m + 1, m)])),
    st.integers(min_value=-4, max_value=4),
    rationals)


@settings(max_examples=400)
@given(uppers, lowers)
def test_binomial_matches_fraction_loop(x, k):
    # any x through its table; binomial takes an integer x and raises
    # ValueError for any other at k >= 0
    want = _outcome(_binomial_loop, x, k)
    assert _outcome(_binomial_read, x, k) == want
    if Fraction(x).denominator == 1 or k < 0:
        assert _outcome(binomial, x, k) == want
    else:
        assert _outcome(binomial, x, k) == (ValueError, f"binomial of non-integer {x}")


@settings(max_examples=400)
@given(uppers, st.integers(min_value=-8, max_value=10))
@example(3, -5)
@example(-4, 6)
def test_pochhammer_matches_fraction_loop(a, k):
    # rising's pair multiplied out: the loop's value and type; an integer a
    # in 1..-k makes a factor of the reciprocal product vanish, and then
    # both raise ZeroDivisionError (prod with its own message)
    got, want = _outcome(_rising_value, a, k), _outcome(_pochhammer_loop, a, k)
    assert got == want or got[0] is want[0] is ZeroDivisionError


@st.composite
def q_pochhammer_args(draw):
    q = draw(qs)
    if q != 0 and draw(st.booleans()):
        a = rat(q) ** draw(st.integers(min_value=-4, max_value=4))  # vanishing factors
    else:
        a = draw(uppers)
    return a, q, draw(st.integers(min_value=-6, max_value=10))


@settings(max_examples=400)
@given(q_pochhammer_args())
def test_q_pochhammer_matches_fraction_loop(args):
    assert _outcome(_q_pochhammer_read, *args) == _outcome(_q_pochhammer_loop, *args)


def _pair_outcome(read, k):
    """The Fraction of the pair read at k, or ZeroDivisionError."""
    try:
        return Fraction(*read(k))
    except ZeroDivisionError:
        return ZeroDivisionError


def _value_outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=400)
@given(q_pochhammer_args(), st.integers(min_value=-8, max_value=3),
       st.integers(min_value=-1, max_value=12))
def test_q_pochhammer_pairs_match_q_pochhammer(args, lo, width):
    # every k of the table, negative k included; a = q^e makes a factor
    # vanish: 1 - a*q^-j at j = e for e >= 1 (reads at k <= -e raise),
    # 1 - a*q^j at j = -e for e <= 0 (values at k > -e are 0)
    a, q, _ = args
    hi = lo + width
    read = _q_pochhammer_pairs(a, q, lo, hi)
    for k in range(lo, hi + 1):
        assert _pair_outcome(read, k) == _value_outcome(_q_pochhammer_loop, a, q, k)


def test_q_pochhammer_pairs_raise_only_where_read():
    q = Fraction(2, 3)
    read = _q_pochhammer_pairs(q ** 3, q, -6, 4)  # 1 - a/q^3 vanishes
    assert [Fraction(*read(k)) for k in range(-2, 5)] == [
        _q_pochhammer_loop(q ** 3, q, k) for k in range(-2, 5)]
    for k in range(-6, -2):
        with pytest.raises(ZeroDivisionError):
            read(k)
    zero_q = _q_pochhammer_pairs(Fraction(1, 2), 0, -2, 2)
    assert [Fraction(*zero_q(k)) for k in range(3)] == [1, Fraction(1, 2), Fraction(1, 2)]
    with pytest.raises(ZeroDivisionError):
        zero_q(-1)
    vanishing = _q_pochhammer_pairs(q ** -2, q, 0, 6)  # 1 - a*q^2 = 0
    assert [Fraction(*vanishing(k)) for k in range(7)] == [
        _q_pochhammer_loop(q ** -2, q, k) for k in range(7)]
    assert Fraction(*vanishing(3)) == 0 and Fraction(*vanishing(2)) != 0


@settings(max_examples=300)
@given(st.integers(min_value=-12, max_value=12), qs)
@example(-3, Fraction(0))
def test_q_int_matches_fraction_formula(n, q):
    # at q = 0 a negative n raises Fraction(0) ** n's ZeroDivisionError
    assert _outcome(_q_int_read, n, q) == _outcome(_q_int_formula, n, q)


@settings(max_examples=300)
@given(st.integers(min_value=-3, max_value=12), qs)
def test_q_factorial_matches_fraction_loop(n, q):
    assert _outcome(_q_factorial_read, n, q) == _outcome(_q_factorial_loop, n, q)


@settings(max_examples=300)
@given(qs)
@example(Fraction(0))
@example(Fraction(1))
@example(Fraction(-1))
def test_q_int_and_q_factorial_tables_match_the_functions(q):
    # every m of the q-integer table, negative ones included (at q = 0 they
    # divide by zero, as the formula does), and the evaluator's q-factorials
    q_int_pair = _q_int_pairs(q, 12)
    for m in range(-12, 13):
        assert _pair_outcome(q_int_pair, m) == _value_outcome(_q_int_formula, m, q)
    for m in range(13):
        assert _q_factorial_read(m, q) == _q_factorial_loop(m, q)
    with pytest.raises(ValueError, match="negative integer -1"):
        _q_factorial_read(-1, q)


@settings(max_examples=400)
@given(st.integers(min_value=-10, max_value=20), lowers, qs)
def test_q_binomial_matches_fraction_loop(alpha, k, q):
    # q = -1 with k >= 2 makes the denominator vanish
    assert _outcome(_q_binomial_read, alpha, k, q) == _outcome(_q_binomial_loop, alpha, k, q)


@settings(max_examples=300)
@given(uppers, st.integers(min_value=-1, max_value=14))
def test_binomial_pairs_match_binomial(x, hi):
    # integer and fractional x, every k of the table and k < 0
    read = _binomial_pairs(x, hi)
    for k in range(-3, hi + 1):
        num, den = read(k)
        assert type(num) is int and type(den) is int
        assert Fraction(num, den) == _binomial_loop(x, k)


@settings(max_examples=300)
@given(st.one_of(st.integers(min_value=-20, max_value=20), rationals),
       st.integers(min_value=-9, max_value=0), st.integers(min_value=-1, max_value=9))
@example(0, -2, 3)
@example(0, 0, 3)
@example(Fraction(-2, 3), -4, 4)
def test_power_pairs_match_fraction_powers(x, lo, hi):
    # every e of the row, negative e included; a zero x has no negative row
    if x == 0 and lo < 0:
        with pytest.raises(ZeroDivisionError):
            power_pairs(x, lo, hi)
        return
    read = power_pairs(x, lo, hi)
    for e in range(lo, hi + 1):
        num, den = read(e)
        assert type(num) is int and type(den) is int
        assert Fraction(num, den) == Fraction(x) ** e


@settings(max_examples=400)
@given(st.integers(min_value=-6, max_value=12), qs, st.integers(min_value=-1, max_value=12))
@example(5, Fraction(0), 4)
@example(5, Fraction(1), 4)
@example(5, Fraction(-1), 4)
def test_q_binomial_pairs_match_fraction_loop(alpha, q, hi):
    # the same value, or ZeroDivisionError on both sides (q = 0 at
    # k >= 0, q = -1 at k >= 2)
    read = _q_binomial_pairs(alpha, q, hi)
    for k in range(-3, hi + 1):
        assert _pair_outcome(read, k) == _value_outcome(_q_binomial_loop, alpha, k, q)


def test_entry_function_errors_unchanged():
    # the same exception types and messages as the Fraction loops, also
    # for arguments outside the documented domain
    cases = [
        (binomial, _binomial_loop, (2, Fraction(2))),
        (binomial, _binomial_loop, (-3, 2.0)),
        (_binomial_read, _binomial_loop, (Fraction(1, 2), Fraction(2))),
        (binomial, _binomial_loop, ("zz", -1)),
        (binomial, _binomial_loop, ("zz", 2)),
        (_rising_value, _pochhammer_loop, (2, Fraction(-2))),
        (_q_pochhammer_read, _q_pochhammer_loop, (1, 0, -2)),
        (_q_pochhammer_read, _q_pochhammer_loop, (1, 0, Fraction(-2))),
        (_q_pochhammer_read, _q_pochhammer_loop, (Fraction(1, 4), Fraction(1, 2), -3)),
        (_q_factorial_read, _q_factorial_loop, (0, "not a number")),
        (_q_factorial_read, _q_factorial_loop, (-2, 1)),
        (_q_binomial_read, _q_binomial_loop, (5, 3, 0)),
        (_q_binomial_read, _q_binomial_loop, (5, 3, -1)),
    ]
    for new, old, args in cases:
        assert _outcome(new, *args) == _outcome(old, *args), (new.__name__, args)
    # a vanishing factor of the reciprocal product: ZeroDivisionError, with
    # prod's message
    assert _outcome(_rising_value, 3, -5) == (ZeroDivisionError, "a factor's denominator is 0")
    assert _outcome(_pochhammer_loop, 3, -5)[0] is ZeroDivisionError
    assert _outcome(_q_pochhammer_read, 1, 0, -2) == (ZeroDivisionError, "Fraction(1, 0)")


def test_factorials():
    for m in range(-3, 25):
        dfact = 1
        for t in range(m, 0, -2):
            dfact *= t
        assert double_factorial(m) == dfact
        if m >= 0:
            assert factorial(m) == math.factorial(m)
    assert double_factorial(7) == 105 and double_factorial(8) == 384
    with pytest.raises(ValueError, match="factorial of negative integer -1"):
        factorial(-1)
    for q in (Fraction(1), Fraction(2, 3)):
        with pytest.raises(ValueError, match="q-factorial of negative integer -1"):
            _q_factorial_read(-1, q)


def test_fmt_rat():
    assert fmt_rat(Fraction(3)) == "3"
    assert fmt_rat(Fraction(-1, 5)) == "-1/5"
    assert rat(2) == Fraction(2)


def test_parse_rat_reads_what_fmt_rat_prints_at_any_size():
    # short text parses as Fraction parses it; p and p/q past the 4300-digit
    # int-string limit read back, with a sign and surrounding blanks
    for text in ("3", " -3/4 ", "+7", "1.5", "1e3", "1_000", "-0/5"):
        assert parse_rat(text) == Fraction(text)
    for x in (Fraction(-3 ** 20000, 7 ** 9000), Fraction(10 ** 9000 + 1, 2), Fraction(5 ** 6500)):
        assert parse_rat(fmt_rat(x)) == x
        assert parse_rat(" +" + fmt_rat(abs(x)) + "\n") == abs(x)
    for bad in ("", "1,2", "two", "--1", "1/-2", "9" * 5000 + "x", "1/2/3" + "0" * 5000):
        with pytest.raises(ValueError):
            parse_rat(bad)
    for zero in ("1/0", "9" * 5000 + "/" + "0" * 5000):
        with pytest.raises(ZeroDivisionError):
            parse_rat(zero)


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


@given(st.lists(rationals, max_size=6),
       st.one_of(st.integers(-9, 9), rationals, rationals.map(fmt_rat)))
def test_polyq_call_matches_termwise_sum(coeffs, x):
    # ints, Fractions and "p/q" strings are coerced once, then Horner's
    # rule; each value equals the sum of its terms
    p = PolyQ(coeffs)
    want = sum((c * rat(x) ** i for i, c in enumerate(p.coeffs)), Fraction(0))
    got = p(x)
    assert type(got) is Fraction and got == want
    assert RatFn(p)(x) == want


# differential tests: evaluation on integer numerators against Horner's
# rule on Fractions

huge_dens = st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20))
eval_points = st.one_of(st.just(Fraction(0)), st.integers(-9, 9).map(Fraction),
                        rationals, huge_dens)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6), rationals, huge_dens),
                max_size=31),
       eval_points)
@example([], Fraction(3))
@example([0, 0], Fraction(0))
@example([Fraction(-5, 3)], Fraction(-7, 2))
@example([Fraction(1, 10**20)] * 31, Fraction(-(10**20) + 1, 10**20))
def test_polyq_call_matches_fraction_horner(coeffs, x):
    # the zero polynomial, constants, x = 0, negative x, huge denominators
    # and degrees up to 30
    p = PolyQ(coeffs)
    got = p(x)
    assert type(got) is Fraction and got == poly_horner(p, x)


@settings(max_examples=200)
@given(st.lists(rationals, max_size=5), st.lists(rationals, min_size=1, max_size=5),
       eval_points, st.booleans())
def test_ratfn_call_matches_quotient_of_horner_values(a, b, x, pole_at_x):
    # with pole_at_x the denominator vanishes at x, which is a pole unless
    # the numerator's factor x - x0 cancels it
    den = PolyQ(b)
    if den.is_zero():
        return
    if pole_at_x:
        den = den * PolyQ([-x, 1])
    f = RatFn(PolyQ(a), den)
    try:
        want = ratfn_value(f, x)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="^rational function pole$"):
            f(x)
        return
    got = f(x)
    assert type(got) is Fraction and got == want


def test_ratfn_call_at_poles_and_degrees():
    f = RatFn(PolyQ([2, 1]), PolyQ([-1, 0, 1]))    # (x+2)/(x^2-1)
    for pole in (1, -1, "1", Fraction(-1)):
        with pytest.raises(ZeroDivisionError, match="^rational function pole$"):
            f(pole)
    assert f(Fraction(1, 2)) == Fraction(-10, 3)
    g = RatFn(PolyQ([0, 0, 0, 1]), PolyQ([3, 1]))  # x^3/(x+3)
    assert g(Fraction(-2, 5)) == Fraction(-8, 325)
    assert RatFn(PolyQ([]))(Fraction(7, 3)) == 0


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
    assert hermite_values(Fraction(1, 2), 4) == [1, Fraction(1, 2), Fraction(-3, 4), Fraction(-11, 8)]
    assert hermite_values(3, 0) == [] and hermite_values(3, 1) == [1]
    assert chebyshev_u(2) == PolyQ([-1, 0, 4])
    # Chebyshev recurrence U_{m+1}(x) = 2x U_m(x) - U_{m-1}(x)
    for m in range(1, 6):
        assert chebyshev_u(m + 1) == PolyQ([0, 2]) * chebyshev_u(m) - chebyshev_u(m - 1)


@given(rationals, st.integers(0, 12))
def test_hermite_values_match_the_explicit_sum(x, count):
    got = hermite_values(x, count)
    assert got == [hermite_poly(k)(x) for k in range(count)]
    assert all(type(v) is Fraction for v in got)


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


def test_series_equals_scalar():
    # == coerces a scalar as + does, so a zero series equals 0
    assert TruncSeries(0, [0, 0, 0]) == 0
    assert 0 == TruncSeries(1, [0, 0])
    assert TruncSeries(0, [0, 1, 0]) != 0
    assert TruncSeries(0, [Fraction(3, 2), 0]) == Fraction(3, 2)


def test_series_valuation():
    s = TruncSeries(1, [0, 1, 0], order=4)
    # normal form: the stored valuation is the lowest nonzero known term
    assert s.valuation == 2 and s.coeffs[0] == 1
    with pytest.raises(ZeroDivisionError):
        TruncSeries(0, [0, 0, 0]).inverse()


def _compose_full_walk(outer, inner):
    """The composition loop that walks all outer.order powers of inner."""
    if outer.valuation < 0 and any(c != 0 for c in outer.coeffs[: -outer.valuation]):
        raise ValueError("compose requires a power-series outer operand")
    if inner.coeffs and inner.valuation < 1:
        raise ValueError("compose requires inner valuation >= 1")
    order = min(outer.order, inner.order)
    out = TruncSeries(0, [0] * order, order)
    pw = TruncSeries(0, [1] + [0] * (order - 1), order)
    for e in range(0, outer.order):
        c = outer.coeff(e) if e >= outer.valuation else Fraction(0)
        if c != 0:
            out = add_loop(out, mul_loop(pw, c))
        if e + 1 < outer.order:
            pw = mul_loop(pw, inner).restrict(order)
    return out.restrict(order)


@st.composite
def compose_args(draw):
    # an outer power series that is often a low-degree polynomial, and an
    # inner series of true valuation >= 1 given with leading zeros from
    # exponent -1, 0, 1 or 2, which the constructor strips
    head = draw(st.lists(rationals, min_size=0, max_size=4))
    outer_order = draw(st.integers(min_value=max(1, len(head)), max_value=9))
    outer = TruncSeries(0, head + [0] * (outer_order - len(head)), outer_order)
    tv = draw(st.integers(min_value=1, max_value=3))
    stored = draw(st.integers(min_value=-1, max_value=tv))
    inner_order = draw(st.integers(min_value=max(tv, stored + 1), max_value=9))
    tail = draw(st.lists(rationals, min_size=inner_order - tv, max_size=inner_order - tv))
    inner = TruncSeries(stored, [0] * (tv - stored) + tail, inner_order)
    return outer, inner


def _series_key(s):
    return s.valuation, s.order, s.coeffs


@settings(max_examples=300)
@given(compose_args())
def test_compose_matches_polynomial_composition_and_full_walk(args):
    outer, inner = args
    got = outer.compose(inner)
    # independent oracle: compose the known parts as polynomials, then
    # truncate (the unknown tails only reach exponents >= the result order)
    order = min(outer.order, inner.order)
    g = PolyQ([outer.coeff(e) for e in range(outer.order)])
    h = PolyQ([inner.coeff(e) for e in range(max(inner.valuation, 0), inner.order)]).shift(
        max(inner.valuation, 0))
    assert _series_key(got) == _series_key(TruncSeries.from_poly(g.compose(h), order))
    # the full walk gives the very same series: with products windowed by
    # true valuations, no power of inner leaves the result's window
    assert _series_key(got) == _series_key(_compose_full_walk(outer, inner))


def test_compose_keeps_its_domain_errors():
    x = TruncSeries.var(6)
    with pytest.raises(ValueError, match="inner valuation"):
        exp_series(6).compose(x + 1)
    with pytest.raises(ValueError, match="power-series outer"):
        TruncSeries(-1, [1, 0, 0], 2).compose(x)
    # an empty outer series of negative order has its valuation below 0
    for compose in (TruncSeries.compose, compose_loop,
                    lambda g, h: compose_each([exp_series(3), g], h)):
        with pytest.raises(ValueError, match="^compose requires a power-series outer operand$"):
            compose(TruncSeries(-2, [], -2), TruncSeries.var(4))
    # an inner series with no known terms below an order <= 0 has an
    # unknown constant term
    for order in (0, -1):
        inner = TruncSeries(order, [], order)
        for compose in (TruncSeries.compose, compose_loop):
            with pytest.raises(ValueError, match="inner valuation >= 1"):
                compose(TruncSeries(0, [1, 2, 3]), inner)


# differential tests: integer-numerator series arithmetic against the
# Fraction loops of series_oracles

huge_fractions = st.builds(Fraction, st.integers(-10**30, 10**30),
                           st.integers(10**25, 10**30))
series_scalars = st.one_of(st.integers(-5, 5), rationals, huge_fractions)


@st.composite
def any_series(draw):
    """Series with any valuation and window, leading and inner zeros, and
    int-only, mixed or huge-denominator coefficients; some all zero."""
    coeff = draw(st.sampled_from([
        st.integers(-10**6, 10**6),
        st.one_of(st.just(0), rationals, huge_fractions),
        st.one_of(st.just(0), st.integers(-9, 9), rationals),
        st.just(0),
    ]))
    lead = draw(st.integers(0, 2))
    body = draw(st.lists(coeff, min_size=max(0, 1 - lead), max_size=6))
    return TruncSeries(draw(st.integers(-3, 3)), [0] * lead + body)


def _assert_stored_form(s):
    """s holds integer numerators over one positive denominator in normal
    form, and reads back as the Fractions they stand for."""
    assert type(s.den) is int and s.den > 0
    assert all(type(x) is int for x in s.nums)
    assert math.gcd(s.den, *s.nums) == 1
    assert not s.nums or s.nums[0] != 0
    assert len(s.nums) == s.order - s.valuation
    assert s.coeffs == tuple(Fraction(x, s.den) for x in s.nums)
    assert all(type(c) is Fraction for c in s.coeffs)


def _series_outcome(f, *args):
    """The value with its type and, for a series, its window and exact
    coefficients; or the exception type and message."""
    try:
        value = f(*args)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(value, TruncSeries):
        _assert_stored_form(value)
        return type(value), _series_key(value)
    return type(value), value


@settings(max_examples=400)
@given(any_series(), any_series())
def test_series_ops_match_fraction_loops(s, t):
    assert _series_outcome(lambda: s + t) == _series_outcome(add_loop, s, t)
    assert _series_outcome(lambda: s - t) == _series_outcome(add_loop, s, -t)
    assert _series_outcome(lambda: s * t) == _series_outcome(mul_loop, s, t)
    assert _series_outcome(lambda: s == t) == _series_outcome(eq_loop, s, t)
    assert _series_outcome(lambda: s / t) == _series_outcome(
        lambda: mul_loop(s, inverse_loop(t)))


@settings(max_examples=300)
@given(any_series(), series_scalars)
def test_series_scalar_ops_match_fraction_loops(s, c):
    want = _series_outcome(mul_loop, s, c)
    assert _series_outcome(lambda: s * c) == want
    assert _series_outcome(lambda: c * s) == want
    # dividing by 0 raises Fraction's own ZeroDivisionError message
    assert _series_outcome(lambda: s / c) == _series_outcome(div_scalar_loop, s, c)
    if s.order <= 0:  # no constant term to put c in
        with pytest.raises(TypeError):
            s + c
        assert s != c and c != s
        return
    want = _series_outcome(eq_loop, s, s._coerce(c))
    assert _series_outcome(lambda: s == c) == want
    assert _series_outcome(lambda: c == s) == want
    want = _series_outcome(add_loop, s, c)
    assert _series_outcome(lambda: s + c) == want
    assert _series_outcome(lambda: c + s) == want
    assert _series_outcome(lambda: s - c) == _series_outcome(add_loop, s, -c)
    assert _series_outcome(lambda: c - s) == _series_outcome(
        lambda: -add_loop(s, -c))


@settings(max_examples=400)
@given(any_series())
def test_series_inverse_matches_fraction_loop(s):
    assert _series_outcome(TruncSeries.inverse, s) == _series_outcome(inverse_loop, s)


@settings(max_examples=300)
@given(any_series(), any_series(), series_scalars)
def test_series_equal_in_value_compare_equal(s, t, c):
    """Series reached by different routes, over other denominators and
    windows, compare equal to s, and over a common window they store the
    same numerators and denominator."""
    routes = [lambda: (s + t) - t, lambda: s * 1 + 0 * t,
              lambda: (s * c) / c, lambda: (s * t) / t]
    for route in routes:
        try:
            other = route()
        except ZeroDivisionError:
            continue
        assert other == s and s == other
        w = min(other.order, s.order)
        a, b = other.restrict(w), s.restrict(w)
        assert (a.valuation, a.order, a.nums, a.den) == (b.valuation, b.order, b.nums, b.den)


def test_series_window_errors_match_fraction_loops():
    with pytest.raises(ZeroDivisionError, match="inverse of \\(truncated\\) zero series"):
        TruncSeries(-2, [0, 0, 0]).inverse()
    with pytest.raises(ZeroDivisionError, match="inverse of \\(truncated\\) zero series"):
        inverse_loop(TruncSeries(-2, [0, 0, 0]))


def _assert_normal(value):
    if isinstance(value, TruncSeries):
        assert value.valuation <= value.order
        _assert_stored_form(value)


@settings(max_examples=300)
@given(any_series(), any_series(), series_scalars, st.integers(-2, 3),
       st.integers(-4, 8))
def test_series_results_are_in_normal_form(s, t, c, k, order):
    """Every series the constructor or an operation makes stores its true
    valuation, and the zero series is the empty window."""
    # any_series valuations are >= -3: shifted copies are composable
    outer = TruncSeries(s.valuation + 3, s.coeffs, s.order + 3)
    inner = TruncSeries(t.valuation + 4, t.coeffs, t.order + 4)
    ops = [
        lambda: s, lambda: t,
        lambda: TruncSeries(s.valuation - 2, [0, 0] + list(s.coeffs), s.order),
        lambda: s + t, lambda: s - t, lambda: s * t, lambda: s / t,
        lambda: s + c, lambda: c - s, lambda: s * c, lambda: s / c,
        lambda: c / s, s.inverse, s.derive, lambda: s.derive().derive(),
        lambda: s.restrict(order), lambda: s.pow_int(k),
        lambda: outer.compose(inner), lambda: compose_each([outer, s, t], inner),
    ]
    for op in ops:
        try:
            value = op()
        except (ZeroDivisionError, ValueError, TypeError):
            continue
        for v in value if isinstance(value, list) else [value]:
            _assert_normal(v)


@st.composite
def composable(draw):
    # outers stored from exponent -1..1, often low-degree polynomials; an
    # inner mostly of true valuation >= 1 but stored from anywhere
    outers = []
    for _ in range(draw(st.integers(1, 3))):
        val = draw(st.integers(-1, 1))
        head = [0] * max(0, -val) + draw(st.lists(
            st.one_of(st.just(0), rationals, huge_fractions), max_size=4))
        order = draw(st.integers(max(val + 1, val + len(head)), 9))
        outers.append(TruncSeries(val, head + [0] * (order - val - len(head)), order))
    inner = draw(any_series())
    if draw(st.booleans()):
        inner = TruncSeries(inner.valuation, [0] * (1 - inner.valuation) + list(inner.coeffs))
    return outers, inner


@settings(max_examples=300)
@given(composable())
def test_compose_each_matches_fraction_loop(args):
    outers, inner = args
    want = [_series_outcome(compose_loop, g, inner) for g in outers]
    assert [_series_outcome(g.compose, inner) for g in outers] == want
    if all(w[0] is TruncSeries for w in want):
        got = compose_each(outers, inner)
        assert [_series_outcome(lambda: g) for g in got] == want


@given(st.lists(st.one_of(st.integers(-50, 50), rationals, huge_fractions), max_size=6))
def test_integer_numerators(values):
    nums, d = integer_numerators(values)
    assert all(type(x) is int for x in nums)
    assert [Fraction(x, d) for x in nums] == [Fraction(v) for v in values]
    assert d == math.lcm(*(Fraction(v).denominator for v in values))
