"""Oracle and property tests for Hankel determinants and J-fraction
moment expansions."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from det_oracles import bareiss_int, det_condensation, det_gauss
from detkit import hankel
from detkit.exactnum import (TruncSeries, bell_poly, bernoulli, binomial,
                             euler_even)
from detkit.hankel import (NAMED_MOMENTS, DegenerateMomentsError, JFraction,
                           MomentSeq, bernoulli_shifted_moments,
                           hankel_det, hankel_dets,
                           hankel_matrix,
                           heilermann_product, heilermann_products,
                           jfraction_from_moments,
                           moments_from_jfraction)
from detkit.linalg import MatrixR, det
from sequence_oracles import bell_triangle, catalan, hermite_poly
from series_oracles import moments_from_jfraction_series


def test_hankel_matrix_shape():
    s = MomentSeq([Fraction(k) for k in range(10)])
    m = hankel_matrix(MomentSeq(s.values[2:]), 3)
    assert m.rows == 3 and m[0, 0] == 2 and m[2, 2] == 6 and m[0, 2] == 4


def test_catalan_hankel_is_one():
    # [DERIVED] both principal Hankel determinants of the Catalan
    # sequence equal 1 for every order
    s = MomentSeq([catalan(k) for k in range(12)])
    shifted = MomentSeq(s.values[1:])
    for n in range(1, 6):
        assert hankel_det(s, n) == 1
        assert hankel_det(shifted, n) == 1


def test_bernoulli_shifted_moments():
    s = bernoulli_shifted_moments(6, shift=2)
    assert s[0] == Fraction(1, 6)
    assert list(s) == [bernoulli(k + 2) for k in range(6)]
    # [PAPER] first two shifted Hankel values
    assert hankel_det(s, 1) == Fraction(1, 6)
    assert hankel_det(s, 2) == Fraction(-1, 180)


def test_jfraction_roundtrip():
    # moments -> J-fraction -> moments is the identity
    rng = random.Random(3)
    for _ in range(10):
        depth = rng.randint(2, 5)
        j = JFraction(
            Fraction(rng.randint(1, 5)),
            tuple(Fraction(rng.randint(-4, 4)) for _ in range(depth)),
            tuple(Fraction(rng.randint(1, 5)) for _ in range(depth - 1)))
        s = moments_from_jfraction(j, 2 * depth)
        back = jfraction_from_moments(s, depth)
        assert back.mu0 == j.mu0
        assert tuple(back.a) == tuple(j.a)
        assert tuple(back.b) == tuple(j.b[:depth - 1])


def test_heilermann_matches_hankel():
    rng = random.Random(9)
    for _ in range(10):
        depth = 4
        j = JFraction(
            Fraction(rng.randint(1, 6)),
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(depth)),
            tuple(Fraction(rng.randint(1, 4)) for _ in range(depth - 1)))
        s = moments_from_jfraction(j, 2 * depth)
        for n in range(1, depth + 1):
            assert heilermann_product(j, n) == hankel_det(s, n)


def test_degenerate_moments_detected():
    s = MomentSeq([Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    with pytest.raises(DegenerateMomentsError):
        jfraction_from_moments(s, 2)


def continuous_hahn_jfraction(depth: int) -> JFraction:
    """The J-fraction whose moments are B_{k+2}: all a_k = 0 and
    b_i = -i(i+1)^2(i+2) / (4(2i+1)(2i+3)), with mu0 = 1/6."""
    b = [
        Fraction(-i * (i + 1) ** 2 * (i + 2), 4 * (2 * i + 1) * (2 * i + 3))
        for i in range(1, depth)
    ]
    return JFraction(Fraction(1, 6), [Fraction(0)] * depth, b)


def test_continuous_hahn_coefficients():
    # [PAPER] b_i = -i (i+1)^2 (i+2) / (4 (2i+1) (2i+3)), mu0 = 1/6
    j = continuous_hahn_jfraction(6)
    assert j.mu0 == Fraction(1, 6)
    for i, b in enumerate(j.b, start=1):
        assert b == Fraction(-i * (i + 1) ** 2 * (i + 2),
                             4 * (2 * i + 1) * (2 * i + 3))
    # and it reproduces the shifted moment sequence
    s = bernoulli_shifted_moments(10, shift=2)
    assert list(moments_from_jfraction(j, 10)) == list(s)


def hankel_x_transform(s: MomentSeq, x: Fraction, n: int) -> Fraction:
    """det of the binomially transformed Hankel matrix
    entry(i,j) = sum_k binom(i+j, k) s[k] x^(i+j-k); equals hankel_det(s, n)."""
    def entry(i, j):
        m = i + j
        return sum((binomial(m, k) * s[k] * x ** (m - k) for k in range(m + 1)), Fraction(0))

    return det(MatrixR.build(n, n, entry))


def test_hankel_x_transform():
    # binomial transform with x leaves the Hankel determinant unchanged
    rng = random.Random(5)
    vals = [Fraction(rng.randint(-5, 5)) for _ in range(9)]
    s = MomentSeq(vals)
    for n in range(1, 5):
        assert hankel_x_transform(s, Fraction(2, 3), n) == hankel_det(s, n)


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3),
                min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_hankel_x_transform_property(vals):
    s = MomentSeq(vals)
    assert hankel_x_transform(s, Fraction(-1, 2), 4) == hankel_det(s, 4)


def _bareiss_leading_minors(s, n):
    """The leading minors H_1, H_2, ... of s that integer Bareiss
    elimination gives before its first row swap."""
    d = math.lcm(*(v.denominator for v in s.values[:2 * n - 1]))
    rows = [[int(v * d) for v in s.values[i:i + n]] for i in range(n)]
    _, pivots, first_swap = bareiss_int(rows)
    leading = pivots if first_swap is None else pivots[:first_swap]
    return [Fraction(p, d ** (k + 1)) for k, p in enumerate(leading)]


def _assert_hankel_dets_match_oracles(s, n):
    # each order against Gauss and condensation on its own leading
    # submatrix, and the first orders against integer Bareiss
    dets = hankel_dets(s, n)
    assert all(type(d) is Fraction for d in dets)
    for k in range(1, n + 1):
        sub = hankel_matrix(s, k)
        assert dets[k - 1] == det_gauss(sub) == det_condensation(sub), k
    minors = _bareiss_leading_minors(s, n)
    assert dets[:len(minors)] == minors
    return dets


def test_hankel_dets_through_a_vanishing_minor():
    # H_2 = det [[1, 1], [1, 1]] = 0 while H_3 = -1: the one-pass pivots
    # stop being leading minors at order 2
    s = MomentSeq([1, 1, 1, 2, 3, 5, 8, 13, 21])
    dets = _assert_hankel_dets_match_oracles(s, 5)
    assert dets[:3] == [1, 0, -1]
    zero = MomentSeq([0] * 7)
    assert hankel_dets(zero, 4) == [0] * 4
    assert hankel_dets(s, 0) == []


def test_hankel_dets_takes_the_first_order_before_a_zero_row():
    # 1, 0, 0, 0, 0: rows 1 and 2 of the order-3 matrix are zero from the
    # start; H_1 comes from the one pass, and only H_2 and H_3 are
    # computed on their own
    requested = []

    def one_order(seq, k):
        requested.append(k)
        return det_gauss(hankel_matrix(seq, k))

    with mock.patch.object(hankel, "hankel_det", one_order):
        assert hankel_dets(MomentSeq([1, 0, 0, 0, 0]), 3) == [1, 0, 0]
    assert requested == [2, 3]


_small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.one_of(st.just(Fraction(0)), _small_fractions),
             min_size=2 * n - 1, max_size=2 * n - 1))))
@settings(max_examples=100, deadline=None)
def test_hankel_dets_match_each_order(case):
    n, vals = case
    _assert_hankel_dets_match_oracles(MomentSeq(vals), n)


@given(st.integers(1, 8), st.integers(-6, 6).filter(bool), st.data())
@settings(max_examples=60, deadline=None)
def test_hankel_dets_with_large_shared_factors(n, c, data):
    # mu_k = c^k k! / d_k: the rows share large factorial factors, which
    # the elimination removes as row contents
    dens = data.draw(st.lists(st.integers(1, 4), min_size=2 * n - 1, max_size=2 * n - 1))
    s = MomentSeq([Fraction(c ** k * math.factorial(k), d) for k, d in enumerate(dens)])
    _assert_hankel_dets_match_oracles(s, n)


@given(st.integers(3, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(2, n - 1),
    st.lists(_small_fractions, min_size=2 * n - 1, max_size=2 * n - 1))))
@settings(max_examples=60, deadline=None)
def test_hankel_dets_through_a_minor_vanishing_mid_way(case):
    # mu_(2j-2) enters H_j once, with cofactor H_(j-1), so one value of it
    # makes H_j vanish while the later orders stay nonzero
    n, j, vals = case
    below = det_gauss(hankel_matrix(MomentSeq(vals), j - 1))
    assume(below != 0)
    vals[2 * j - 2] = Fraction(0)
    vals[2 * j - 2] = -det_gauss(hankel_matrix(MomentSeq(vals), j)) / below
    s = MomentSeq(vals)
    assume(det_gauss(hankel_matrix(s, n)) != 0)
    dets = _assert_hankel_dets_match_oracles(s, n)
    assert dets[j - 1] == 0 and dets[-1] != 0


def _in_span(row, basis):
    """Whether row is a rational combination of the independent rows of
    basis, by Gaussian elimination on Fractions."""
    rows = [list(r) for r in basis] + [list(row)]
    rank = 0
    for c in range(len(row)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank == len(basis)


@given(st.integers(0, 4).flatmap(lambda k: st.tuples(
    st.integers(k + 2, 6),
    st.lists(st.tuples(_small_fractions.filter(bool), _small_fractions),
             min_size=k + 1, max_size=k + 1))))
@settings(max_examples=60, deadline=None)
def test_hankel_dets_when_a_row_becomes_zero(case):
    # mu_j = sum_t c_t r_t^j over k + 1 terms gives a Hankel matrix of
    # rank at most k + 1 < n, so some row becomes zero after a step s of
    # the elimination, or is zero from the start; the orders before it
    # still come from the one pass and only the later ones are computed on
    # their own
    n, terms = case
    s = MomentSeq([sum(c * r ** j for c, r in terms) for j in range(2 * n - 1)])
    rows = [s.values[i:i + n] for i in range(n)]
    minors = [det_gauss(hankel_matrix(s, k)) for k in range(1, n + 1)]
    # the pass stops at the first zero pivot, H_(k+1) = 0 at step k, or
    # after the first step s at which a nonzero row i > s is in the span of
    # rows 0..s; a row that is zero from the start is never updated, and
    # at its own step i the minor H_(i+1) is already 0
    first_zero = next((k for k, h in enumerate(minors) if h == 0), n)
    zero_row_step = min((st for i in range(n) if any(rows[i]) for st in range(i)
                         if _in_span(rows[i], rows[:st + 1])), default=n)
    passed = min(first_zero, zero_row_step + 1)
    requested = []

    def one_order(seq, k):
        requested.append(k)
        return det_gauss(hankel_matrix(seq, k))

    with mock.patch.object(hankel, "hankel_det", one_order):
        _assert_hankel_dets_match_oracles(s, n)
    assert requested == list(range(passed + 1, n + 1))
    assert passed < n


def _jfraction_by_series_inversion(s: MomentSeq, depth: int) -> JFraction:
    """Oracle: peel one level of the continued fraction per step by
    inverting the whole remaining series, 1/f_k = 1 + a_k x - b_{k+1} x^2 f_{k+1}."""
    need = max(1, 2 * depth)  # mu0 = s[0] is read even at depth 0
    if len(s) < need:
        raise ValueError(f"need at least {need} moments for depth {depth}")
    if s[0] == 0:
        raise DegenerateMomentsError(1)
    f = TruncSeries(0, [v / s[0] for v in s.values], len(s))
    a, b = [], []
    for k in range(depth):
        g = f.inverse()
        a.append(g.coeff(1))
        if k == depth - 1:
            break
        rem = TruncSeries(0, [1, a[-1]] + [0] * (g.order - 2), g.order) - g
        b_k1 = rem.coeff(2)
        if b_k1 == 0:
            raise DegenerateMomentsError(k + 2)
        f = TruncSeries(0, [rem.coeff(e) / b_k1 for e in range(2, rem.order)],
                        rem.order - 2)
        b.append(b_k1)
    return JFraction(s[0], a, b)


def _jfraction_by_fraction_chebyshev(s: MomentSeq, depth: int) -> JFraction:
    """Oracle: the Chebyshev algorithm as jfraction_from_moments ran it
    before its rows went onto integers, one Fraction operation per
    step."""
    need = max(1, 2 * depth)
    if len(s) < need:
        raise ValueError(f"need at least {need} moments for depth {depth}")
    if s[0] == 0:
        raise DegenerateMomentsError(1)
    row = list(s.values[:2 * depth])
    prev = [Fraction(0)] * len(row)
    alpha = beta = ratio = Fraction(0)
    a, b = [], []
    for k in range(depth):
        if k:
            prev, row = row, [row[j + 2] - alpha * row[j + 1] - beta * prev[j + 2]
                              for j in range(len(row) - 2)]
            if row[0] == 0:
                raise DegenerateMomentsError(k + 1)
            beta = row[0] / prev[0]
            b.append(beta)
        next_ratio = row[1] / row[0]
        alpha, ratio = next_ratio - ratio, next_ratio
        a.append(-alpha)
    return JFraction(s[0], a, b)


def _outcome(extract, s, depth):
    try:
        return extract(s, depth)
    except ValueError as exc:
        return type(exc), getattr(exc, "index", None), str(exc)


@given(st.integers(0, 8).flatmap(lambda depth: st.tuples(
    st.just(depth),
    st.lists(st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-5, max_value=5, max_denominator=4)),
             min_size=2 * depth, max_size=2 * depth + 3))))
@settings(max_examples=300, deadline=None)
def test_jfraction_matches_series_inversion(case):
    depth, vals = case
    s = MomentSeq(vals)
    assert (_outcome(jfraction_from_moments, s, depth)
            == _outcome(_jfraction_by_series_inversion, s, depth))


def test_jfraction_contract_edges():
    s = MomentSeq([2, 3, 5])
    assert jfraction_from_moments(s, 0) == JFraction(2, (), ())
    with pytest.raises(ValueError, match="need at least 4 moments"):
        jfraction_from_moments(s, 2)
    # mu0 is read even at depth 0
    with pytest.raises(ValueError, match="need at least 1 moments"):
        jfraction_from_moments(MomentSeq([]), 0)
    with pytest.raises(DegenerateMomentsError) as info:
        jfraction_from_moments(MomentSeq([0, 1]), 1)
    assert info.value.index == 1
    # H_1 = 1, H_2 = 0: the depth-2 extraction stops at order 2, and the
    # moments past 2 * depth are never read
    with pytest.raises(DegenerateMomentsError) as info:
        jfraction_from_moments(MomentSeq([1, 1, 1, 2, 0]), 2)
    assert info.value.index == 2
    assert (jfraction_from_moments(MomentSeq([1, 2, 5, 7]), 2)
            == jfraction_from_moments(MomentSeq([1, 2, 5, 7, 0, 0]), 2))


def test_bernoulli_jfraction_is_continuous_hahn_at_depth_20():
    # [PAPER] the shifted Bernoulli moments B_{k+2} have the continuous
    # Hahn J-fraction
    assert (jfraction_from_moments(bernoulli_shifted_moments(40), 20)
            == continuous_hahn_jfraction(20))


@pytest.mark.parametrize("moment", [
    lambda k: bernoulli(k + 2),
    lambda k: euler_even(2 * k),
    lambda k: bell_poly(k)(1),
    lambda k: hermite_poly(k)(0),
], ids=["bernoulli-offset-2", "euler", "bell", "hermite"])
def test_heilermann_matches_hankel_dets_at_20(moment):
    s = MomentSeq([moment(k) for k in range(40)])
    jf = jfraction_from_moments(s, 20)
    dets = hankel_dets(s, 20)
    assert [heilermann_product(jf, i) for i in range(1, 21)] == dets


def test_named_moments_match_polynomial_values():
    # the integer recurrences against evaluating the whole polynomial, and
    # the Bell numbers against the Bell triangle
    assert NAMED_MOMENTS["bell"](80).values == tuple(
        bell_poly(k)(1) for k in range(80)) == tuple(bell_triangle(80))
    assert NAMED_MOMENTS["hermite"](80).values == tuple(
        hermite_poly(k)(0) for k in range(80))
    assert all(type(v) is Fraction for name in NAMED_MOMENTS
               for v in NAMED_MOMENTS[name](12).values)
    assert NAMED_MOMENTS["euler"](6) == MomentSeq([1, 1, 5, 61, 1385, 50521])
    assert NAMED_MOMENTS["bernoulli"](0) == MomentSeq([])


@settings(max_examples=200)
@given(st.fractions(min_value=-5, max_value=5, max_denominator=9),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=9),
                max_size=8),
       st.integers(0, 9))
def test_heilermann_products_match_power_formula(mu0, b, n):
    jf = JFraction(mu0, [0] * (len(b) + 1), b)
    if n - 1 > len(b):
        for f in (heilermann_products, heilermann_product):
            with pytest.raises(ValueError, match="depth insufficient"):
                f(jf, n)
        return
    # H_i = mu0^i b_1^(i-1) ... b_(i-1), each from its own powers
    want = []
    for i in range(n + 1):
        h = Fraction(mu0) ** i
        for k in range(1, i):
            h *= Fraction(b[k - 1]) ** (i - k)
        want.append(h)
    assert heilermann_products(jf, n) == want
    assert [heilermann_product(jf, i) for i in range(n + 1)] == want
    with pytest.raises(ValueError, match="nonnegative"):
        heilermann_products(jf, -1)


# moment lists whose J-fraction has b_i = 0 for some i, so that H_{i+1}
# vanishes, with rational coefficients throughout
degenerate_jfractions = st.integers(2, 7).flatmap(lambda depth: st.builds(
    JFraction,
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
             min_size=depth, max_size=depth),
    st.lists(st.one_of(st.just(Fraction(0)),
                       st.fractions(min_value=-4, max_value=4, max_denominator=5)),
             min_size=depth - 1, max_size=depth - 1)))


@given(st.one_of(
    st.integers(0, 10).flatmap(lambda depth: st.tuples(
        st.just(depth),
        st.lists(st.one_of(st.just(Fraction(0)), st.integers(-6, 6).map(Fraction),
                           st.fractions(min_value=-9, max_value=9, max_denominator=12)),
                 min_size=2 * depth, max_size=2 * depth + 2))),
    degenerate_jfractions.map(lambda jf: (len(jf.a), list(
        moments_from_jfraction(jf, 2 * len(jf.a)))))))
@settings(max_examples=400, deadline=None)
def test_jfraction_matches_fraction_chebyshev(case):
    # the integer-row recurrence against the Fraction loop it replaced:
    # the same JFraction, or the same exception type, index and message
    depth, vals = case
    s = MomentSeq(vals)
    assert (_outcome(jfraction_from_moments, s, depth)
            == _outcome(_jfraction_by_fraction_chebyshev, s, depth))


@pytest.mark.parametrize("name, offset", [
    ("bernoulli", 0), ("bernoulli", 2), ("euler", 0), ("bell", 0), ("hermite", 0)])
def test_named_jfractions_match_fraction_chebyshev_at_depth_40(name, offset):
    s = MomentSeq(NAMED_MOMENTS[name](80 + offset).values[offset:])
    assert (_outcome(jfraction_from_moments, s, 40)
            == _outcome(_jfraction_by_fraction_chebyshev, s, 40))


def test_moments_from_jfraction_count_bound():
    # a depth-m J-fraction determines mu_0..mu_{2m-1}: at depth 3 the Bell
    # J-fraction gives B_0..B_5, and mu_6 = 203 would need b_3
    bell = NAMED_MOMENTS["bell"](8)
    jf = jfraction_from_moments(bell, 3)
    assert moments_from_jfraction(jf, 6) == MomentSeq(bell.values[:6])
    for count in (7, 8):
        with pytest.raises(ValueError, match="J-fraction too shallow"):
            moments_from_jfraction(jf, count)
    # both sides of count = 2 * levels, levels = max(len(a), len(b) + 1)
    for jf in (JFraction(1, [1, 2], [3]), JFraction(1, [1], [3]), JFraction(1, [], [])):
        levels = max(len(jf.a), len(jf.b) + 1)
        assert len(moments_from_jfraction(jf, 2 * levels)) == 2 * levels
        with pytest.raises(ValueError, match="J-fraction too shallow"):
            moments_from_jfraction(jf, 2 * levels + 1)


jf_coeffs = st.lists(st.one_of(st.just(Fraction(0)),
                               st.fractions(min_value=-5, max_value=5, max_denominator=6)),
                     max_size=6)


@given(st.builds(JFraction, st.fractions(min_value=-5, max_value=5, max_denominator=6),
                 jf_coeffs, jf_coeffs))
@settings(max_examples=300, deadline=None)
def test_moments_from_jfraction_matches_series_expansion(jf):
    # every count up to one past the last determined moment, on J-fractions
    # of depth 0..6 with zero coefficients and with a and b of any lengths
    def outcome(expand, count):
        try:
            return expand(jf, count)
        except ValueError as exc:
            return type(exc)
    levels = max(len(jf.a), len(jf.b) + 1)
    for count in range(2 * levels + 2):
        assert outcome(moments_from_jfraction, count) == outcome(
            moments_from_jfraction_series, count)
