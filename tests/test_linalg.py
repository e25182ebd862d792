"""Oracle and property tests for exact-rational matrices: the determinant
against its oracles, permanent, Pfaffian, LU, kernels, characteristic
polynomial, and resultants."""

import operator
import random
from fractions import Fraction
from itertools import accumulate, combinations
from math import prod

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from detkit.catalog import get_record, registry_ids
from detkit.catalog.base import Resample, trial_rng
from detkit.exactnum import PolyQ, RatFn, TruncSeries, integer_numerators
from detkit.linalg import (MatrixR, SingularMinorError, _det_laplace,
                           _eliminate, char_poly, det, kernel_basis,
                           lu_decompose, permanent, pfaffian, resultant)
from det_oracles import (char_poly_faddeev_leverrier, det_condensation,
                         det_gauss, det_permutation_expansion,
                         pfaffian_expansion, pfaffian_matching_sum)
from series_oracles import add_loop, mul_loop

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
DET_ORACLES = (det_gauss, _det_laplace, det_condensation)
PFAFFIANS = (pfaffian, pfaffian_expansion, pfaffian_matching_sum)


def _rand_matrix(rng, n, lo=-9, hi=9):
    return MatrixR.from_rows(
        [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])


def square(n):
    return st.lists(st.lists(rationals, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(MatrixR.from_rows)


# ---------------------------------------------------------------------------
# determinant


def test_det_anchors():
    # [TRIVIAL] 2x2 and identity
    m = MatrixR.from_rows([[1, 2], [3, 4]])
    assert det(m) == -2
    assert det(MatrixR.build(5, 5, lambda i, j: int(i == j))) == 1
    assert det(MatrixR.from_rows([[Fraction(0)]])) == 0


def _fractions(m):
    return MatrixR(m.rows, m.cols, [Fraction(e) for e in m.entries])


def test_int_matrix_det_is_exact_fraction():
    # int entries once divided to floats under `/` (-3.0 here); the
    # oracles that divide copy the entries to Fractions themselves
    m = MatrixR.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    one = MatrixR.from_rows([[7]])
    for d in [det(m), det_gauss(m), _det_laplace(_fractions(m)), det_condensation(m)]:
        assert type(d) is Fraction and d == -3
    for d in [det(one), det_gauss(one), _det_laplace(_fractions(one)),
              det_condensation(one)]:
        assert type(d) is Fraction
    big = MatrixR.from_rows([[10**20 + 1, 10**20], [10**20, 10**20 - 1]])
    assert det_gauss(big) == -1
    for v in kernel_basis(MatrixR.from_rows([[1, 2, 3], [2, 4, 6]])):
        assert all(type(c) is Fraction for c in v)


def test_det_of_empty_matrix_is_one():
    for f in (det,) + DET_ORACLES:
        d = f(MatrixR(0, 0, []))
        assert type(d) is Fraction and d == 1


def test_det_rejects_non_rational_entries():
    x = PolyQ([0, 1])
    s = TruncSeries(0, [1, 2, 3])
    matrices = [
        MatrixR.from_rows([[x, 1], [2, x]]),
        MatrixR.from_rows([[PolyQ.constant(1), x], [x, PolyQ.constant(2)]]),
        MatrixR.from_rows([[RatFn(x), RatFn(1)], [RatFn(2), RatFn(x)]]),
        MatrixR.from_rows([[s, s], [s, s * s]]),
        # mixed: the first entry alone does not tell the scalar kind
        MatrixR.from_rows([[Fraction(1), x], [x, Fraction(2)]]),
    ]
    for m in matrices:
        with pytest.raises(TypeError, match="int or Fraction"):
            det(m)


@st.composite
def rational_matrix(draw, rows=None, cols=None):
    """Small rational matrices, often with zero pivots, and sometimes with
    a row that is a combination of two others (rank deficiency)."""
    r = draw(st.integers(1, 5)) if rows is None else rows
    c = draw(st.integers(1, 5)) if cols is None else cols
    entry = st.one_of(st.just(Fraction(0)), rationals)
    a = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                      min_size=r, max_size=r))
    if r >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(r)))[:3]
        x, y = draw(rationals), draw(rationals)
        a[i] = [x * p + y * q for p, q in zip(a[j], a[k])]
    return MatrixR.from_rows(a)


@st.composite
def square_rational(draw):
    n = draw(st.integers(1, 5))
    return draw(rational_matrix(rows=n, cols=n))


@given(square_rational())
@settings(max_examples=150, deadline=None)
def test_integer_bareiss_matches_oracles(m):
    d = det(m)
    assert type(d) is Fraction
    assert d == det_permutation_expansion(m)
    for oracle in DET_ORACLES:
        assert oracle(m) == d


def _rank(m):
    # largest order of a nonzero minor, by permutation expansion
    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                if det_permutation_expansion(m.submatrix(rs, cs)) != 0:
                    return k
    return 0


@given(rational_matrix())
@settings(max_examples=150, deadline=None)
def test_kernel_basis_is_reduced_null_space(m):
    rank = _rank(m)
    # RREF pivot columns are where the rank of the leading columns grows
    free = [c for c in range(m.cols)
            if _rank(m.submatrix(range(m.rows), range(c + 1)))
            == _rank(m.submatrix(range(m.rows), range(c)))]
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank == len(free)
    for v, own in zip(basis, free):
        assert all(type(x) is Fraction for x in v)
        assert all(x == 0 for x in m.mul_vector(v))
        assert [v[c] for c in free] == [1 if c == own else 0 for c in free]


def test_det_strategies_agree():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = _rand_matrix(rng, n)
        reference = det(m)
        for oracle in DET_ORACLES:
            assert oracle(m) == reference
        assert det_permutation_expansion(m) == reference


@given(square(3), square(3))
@settings(max_examples=40, deadline=None)
def test_det_multiplicative(a, b):
    assert det(a * b) == det(a) * det(b)


@given(square(4))
@settings(max_examples=40, deadline=None)
def test_det_transpose(m):
    assert det(MatrixR.build(m.cols, m.rows, lambda i, j: m[j, i])) == det(m)


def test_vandermonde_oracle():
    # [DERIVED] difference product for a 4-point power matrix
    xs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-3)]
    m = MatrixR.build(4, 4, lambda i, j: xs[i] ** j)
    expect = Fraction(1)
    for i in range(4):
        for j in range(i + 1, 4):
            expect *= xs[j] - xs[i]
    assert det(m) == expect


# Primitive-row elimination divides rows by their contents and tracks what
# it removed; these cases make the contents large, late, or zero.

QS = (Fraction(2), Fraction(3, 2), Fraction(-5, 7), Fraction(11, 3))


@st.composite
def shared_factor(draw):
    """A product of random primes, a power of a rational q and a few
    factors 1 - q^l: the kind of factor a q-factorial shares along a row
    or a column."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 101, 1009, 65537)),
                           max_size=6))
    q = draw(st.sampled_from(QS))
    out = prod(primes) * q ** draw(st.integers(-6, 12))
    for ell in draw(st.lists(st.integers(1, 12), max_size=4)):
        out *= 1 - q ** ell
    return out


def _scaled(m, row_factors, col_factors):
    return MatrixR.build(m.rows, m.cols,
                         lambda i, j: m[i, j] * row_factors[i] * col_factors[j])


def _assert_det_matches_oracles(m, expect=None):
    d = det(m)
    assert type(d) is Fraction
    assert d == det_permutation_expansion(m)
    for oracle in DET_ORACLES:
        assert oracle(m) == d
    if expect is not None:
        assert d == expect


@given(square_rational(), st.data())
@settings(max_examples=100, deadline=None)
def test_det_with_large_shared_row_and_column_factors(m, data):
    # column j carries the product of the first j + 1 factors, as the
    # q-factorials of a column index do, so rows gain content at every step
    rows = [data.draw(shared_factor()) for _ in range(m.rows)]
    steps = [data.draw(shared_factor()) for _ in range(m.cols)]
    cols = list(accumulate(steps, lambda a, b: a * b))
    _assert_det_matches_oracles(_scaled(m, rows, cols),
                                det_permutation_expansion(m) * prod(rows) * prod(cols))


@given(st.integers(3, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_det_when_content_appears_only_after_several_steps(n, data):
    # small coprime entries in the first t columns and a large factor
    # shared by the rest: every row is primitive until t columns are
    # eliminated, and only then carries the shared factor
    t = data.draw(st.integers(1, n - 1))
    small = st.integers(-9, 9)
    base = MatrixR.from_rows(data.draw(st.lists(
        st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)))
    big = data.draw(shared_factor())
    cols = [1] * t + [big] * (n - t)
    _assert_det_matches_oracles(_scaled(base, [1] * n, cols),
                                det_permutation_expansion(base) * big ** (n - t))


@given(st.integers(2, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_det_with_a_zero_pivot_that_forces_a_row_swap(n, data):
    # row t agrees with a combination of the rows above it on the first
    # t + 1 columns, so the leading minor of order t + 1 vanishes and the
    # pivot of step t is 0; by then the rows below carry their own removed
    # contents and multipliers, which must move with them
    t = data.draw(st.integers(0, n - 2))
    a = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    coeffs = data.draw(st.lists(rationals, min_size=t, max_size=t))
    a[t][:t + 1] = [sum((c * a[r][j] for r, c in enumerate(coeffs)), Fraction(0))
                    for j in range(t + 1)]
    rows = [data.draw(shared_factor()) for _ in range(n)]
    m = MatrixR.from_rows(a)
    _assert_det_matches_oracles(_scaled(m, rows, [1] * n),
                                det_permutation_expansion(m) * prod(rows))


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_det_of_rank_deficient_and_zero_row_matrices(n, data):
    r = data.draw(st.integers(0, n - 1))
    x = data.draw(st.lists(st.lists(rationals, min_size=r, max_size=r),
                           min_size=n, max_size=n))
    y = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                           min_size=r, max_size=r))
    low_rank = MatrixR.build(n, n, lambda i, j: sum(
        (x[i][l] * y[l][j] for l in range(r)), Fraction(0)))
    rows = [data.draw(shared_factor()) for _ in range(n)]
    _assert_det_matches_oracles(_scaled(low_rank, rows, [1] * n), 0)
    a = data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    a[data.draw(st.integers(0, n - 1))] = [Fraction(0)] * n
    _assert_det_matches_oracles(MatrixR.from_rows(a), 0)


def test_eliminate_passes_a_zero_row_until_its_step():
    # [DERIVED] a row that is zero from the start is not divided by its
    # content 0: step 0 still gives the leading minor 1, and the pass stops
    # at the zero pivot column of step 1
    assert _eliminate([[1, 0, 0], [0, 0, 0], [0, 0, 1]]) == (1, [1], 1)
    assert _eliminate([[0, 0], [0, 0]]) == (1, [], 0)
    assert _eliminate([[2, 4], [0, 0]]) == (1, [2], 1)


def test_det_swaps_rows_with_their_removed_factors():
    # [DERIVED] rows 0 and 1, of contents 6 and 10, trade places at the
    # first pivot: det = -10 * det([[6, 12], [3, 4]]) = 120.  In the second
    # matrix the leading 2 x 2 minor vanishes, so rows 1 and 2 trade places
    # after step 0 has given them different multipliers
    m = MatrixR.from_rows([[0, 6, 12, 0], [10, 20, 30, 40],
                           [0, 3, 4, 0], [0, 0, 0, 1]])
    assert det(m) == det_permutation_expansion(m) == 120
    m = MatrixR.from_rows([[3, 3, 4, 2], [4, 4, 4, 2], [1, 1, 2, 4], [0, 1, 4, 6]])
    assert det(m) == det_permutation_expansion(m) == -12


@pytest.mark.parametrize("identity_id", ["pp5", "qtsscpp1", "qkrat", "anst"])
def test_det_of_q_family_matrices_at_n12_matches_gauss(identity_id):
    # the matrices whose rows share q-factorials, above their shipped caps
    record = get_record(identity_id)
    rng = trial_rng(42, identity_id, 0)
    while True:
        try:
            params = record.sampler(rng, 12)
            break
        except Resample:
            pass
    m = record.builder(12, **params)
    assert det(m) == det_gauss(m)


@pytest.mark.parametrize("seed", range(4))
def test_det_of_every_builder_matches_its_entries(seed):
    # every det_record's builder at n = min_n..8: det of the matrix as
    # built (integer rows from pairs for most) equals det of a matrix
    # built from its Fraction entries and the Gauss oracle
    for identity_id in registry_ids():
        record = get_record(identity_id)
        if record.sampler is None:
            continue
        for n in range(record.min_n, 9):
            rng = trial_rng(seed, identity_id, 0)
            try:
                params = next(p for p in map(_draw_or_none, [record.sampler] * 200,
                                             [rng] * 200, [n] * 200) if p is not None)
            except ValueError:  # "range too small", "permanent capped"
                continue
            m = record.builder(n, **params)
            want = det_gauss(m)
            assert det(m) == det(MatrixR.from_rows(m.to_rows())) == want, (identity_id, n)


def _draw_or_none(sampler, rng, n):
    try:
        return sampler(rng, n)
    except Resample:
        return None


# ---------------------------------------------------------------------------
# matrices from integer pairs


@st.composite
def pair_rows(draw, rows=None, cols=None):
    """Rows of integer pairs (p, q), q nonzero of either sign, often
    unreduced (both times a common factor), with zero entries and zero
    rows; 0 x 0 and 1 x 1 among them."""
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = (draw(st.integers(0, 5)) if cols is None else cols) if r else 0
    out = []
    for _ in range(r):
        if draw(st.integers(0, 7)) == 0:
            out.append([(0, draw(st.integers(1, 9))) for _ in range(c)])
            continue
        row = []
        for _ in range(c):
            p = draw(st.integers(-30, 30))
            q = draw(st.integers(1, 12)) * draw(st.sampled_from((1, -1)))
            k = draw(st.sampled_from((1, 1, 2, -3, 6, 2 ** 40)))
            row.append((p * k, q * k))
        out.append(row)
    return out


def _from_fractions(rows):
    return MatrixR.from_rows([[Fraction(p, q) for p, q in row] for row in rows])


@given(pair_rows())
@settings(max_examples=200, deadline=None)
def test_from_pairs_reads_as_the_fraction_matrix(rows):
    m, f = MatrixR.from_pairs(rows), _from_fractions(rows)
    assert (m.rows, m.cols) == (f.rows, f.cols)
    assert m.entries == f.entries and all(type(e) is Fraction for e in m.entries)
    assert m.to_rows() == f.to_rows()
    assert m == f and f == m and m == MatrixR.from_pairs(rows)
    assert all(m[i, j] == f[i, j] for i in range(m.rows) for j in range(m.cols))


@given(pair_rows())
@settings(max_examples=200, deadline=None)
def test_from_pairs_integer_rows_are_the_reduced_ones(rows):
    # each row's numerators over the lcm of its reduced denominators,
    # whatever common factor the pairs carried: no bit growth
    ints, scales = MatrixR.from_pairs(rows)._integer_rows()
    want = [integer_numerators(row) for row in _from_fractions(rows).to_rows()]
    assert list(zip(ints, scales)) == want


@given(st.integers(0, 5).flatmap(lambda n: pair_rows(n, n)))
@settings(max_examples=200, deadline=None)
def test_from_pairs_det_matches_fraction_det(rows):
    m = MatrixR.from_pairs(rows)
    assert det(m) == det(_from_fractions(rows)) == det_gauss(m)


@given(st.integers(0, 4).flatmap(lambda k: pair_rows(2 * k, 2 * k)), st.data())
@settings(max_examples=150, deadline=None)
def test_from_pairs_pfaffian_matches_fraction_pfaffian(rows, data):
    # the upper triangle as drawn, the lower one its negative with the
    # sign on the numerator or on the denominator
    n = len(rows)
    for i in range(n):
        rows[i][i] = (0, rows[i][i][1])
        for j in range(i):
            p, q = rows[j][i]
            rows[i][j] = data.draw(st.sampled_from(((-p, q), (p, -q))))
    m = MatrixR.from_pairs(rows)
    assert pfaffian(m) == pfaffian(_from_fractions(rows)) == pfaffian_expansion(m)


def test_from_pairs_zero_denominator_raises_when_built():
    for rows in ([[(1, 0)]], [[(0, 0)]], [[(1, 2), (3, -4)], [(5, 6), (7, 0)]]):
        with pytest.raises(ZeroDivisionError):
            MatrixR.from_pairs(rows)
    with pytest.raises(ValueError, match="ragged"):
        MatrixR.from_pairs([[(1, 2)], [(1, 2), (3, 4)]])


def _series_det(rows, mul=operator.mul, add=operator.add):
    """First-row Laplace expansion on nested lists, apart from MatrixR,
    with the given product and sum: the oracle for _det_laplace on
    TruncSeries entries."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = None
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = mul(rows[0][j], _series_det(minor, mul, add))
        if j % 2:
            term = mul(term, -1)
        out = term if out is None else add(out, term)
    return out


@st.composite
def trunc_series(draw):
    valuation = draw(st.integers(-2, 2))
    coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), rationals),
                           min_size=1, max_size=5))
    return TruncSeries(valuation, coeffs)


# at least 4 known terms from exponent 0 or 1: most 6 x 6 determinants
# of these keep known terms, where those of trunc_series mostly do not
wide_series = st.builds(TruncSeries, st.integers(0, 1), st.lists(
    st.one_of(st.just(Fraction(0)), rationals), min_size=4, max_size=6))


@st.composite
def series_rows(draw, min_n=1, entries=trunc_series()):
    n = draw(st.integers(min_n, 6))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))


@given(series_rows())
@settings(max_examples=100, deadline=None)
def test_det_laplace_on_series_matches_row_expansion(rows):
    # TruncSeries has zero divisors and mixed windows; stwi reports
    # serialise the determinant through repr, so the window must match
    got = _det_laplace(MatrixR.from_rows(rows))
    want = _series_det(rows)
    assert got == want
    assert repr(got) == repr(want)
    assert (got.valuation, got.order) == (want.valuation, want.order)


@given(series_rows(4, wide_series))
@settings(max_examples=40, deadline=None,
          phases=[p for p in Phase if p is not Phase.shrink])
def test_det_laplace_on_series_matches_fraction_loop_expansion(rows):
    # the shared-minor expansion on integer numerators against the plain
    # expansion on the schoolbook Fraction loops: same window, same terms.
    # Shrinking reruns the n!-term oracle per step (minutes for one
    # failure), so a failing matrix is reported as drawn
    got = _det_laplace(MatrixR.from_rows(rows))
    want = _series_det(rows, mul_loop, add_loop)
    assert (got.valuation, got.order, got.coeffs) == (want.valuation, want.order, want.coeffs)


def test_det_laplace_matches_bareiss_at_cap():
    # 7 x 7 with denominators, so the shared minors carry Fractions
    rng = random.Random(12)
    for _ in range(3):
        m = MatrixR.from_rows(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(7)]
             for _ in range(7)])
        assert _det_laplace(m) == det(m)


# ---------------------------------------------------------------------------
# permanent, Pfaffian


def test_permanent_anchor():
    # [TRIVIAL] per [[1,2],[3,4]] = 10; per(J_3) = 3! = 6
    assert permanent(MatrixR.from_rows([[1, 2], [3, 4]])) == 10
    assert permanent(MatrixR.build(3, 3, lambda i, j: Fraction(1))) == 6


def test_pfaffian_anchors():
    # [TRIVIAL] canonical symplectic block has Pfaffian +1
    assert pfaffian(MatrixR.from_rows([[0, 1], [-1, 0]])) == 1
    m = MatrixR.from_rows([
        [0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]])
    # [DERIVED] Pf = a12 a34 - a13 a24 + a14 a23 = 6 - 10 + 12
    assert pfaffian(m) == 8
    assert det(m) == 64


def _skew(upper):
    """The skew-symmetric matrix with the given rows above the diagonal."""
    n = len(upper)
    return MatrixR.build(n, n, lambda i, j: upper[i][j] if i < j
                         else (-upper[j][i] if i > j else Fraction(0)))


def test_pfaffian_squared_is_det():
    rng = random.Random(7)
    for _ in range(10):
        n2 = 2 * rng.randint(1, 4)
        m = _skew([[Fraction(rng.randint(-5, 5)) for _ in range(n2)]
                   for _ in range(n2)])
        for pf in PFAFFIANS:
            assert pf(m) ** 2 == det(m)


def test_pfaffian_elimination_matches_oracles():
    # entries with denominators, and zeros often enough to force swaps
    rng = random.Random(19)
    for _ in range(60):
        n2 = 2 * rng.randint(1, 5)
        m = _skew([[Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                    if rng.random() < 0.6 else Fraction(0) for _ in range(n2)]
                   for _ in range(n2)])
        got = pfaffian(m)
        assert type(got) is Fraction
        assert got == pfaffian_expansion(m) == pfaffian_matching_sum(m)


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    upper = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            upper[at + i][at:at + len(row)] = row
        at += len(b)
    return _skew(upper)


def test_pfaffian_elimination_zero_pivot_swaps():
    # each 4x4 block has a01 = 0, and after the first block the pivot of
    # the second is Pf(first) * 0, so both blocks force a swap; in the
    # second block a45 = a46 = 0, so the search skips a zero
    first = [[0, 0, 2, Fraction(1, 3)], [0, 0, -1, 5],
             [0, 0, 0, Fraction(-7, 2)], [0, 0, 0, 0]]
    second = [[0, 0, 0, 3], [0, 0, Fraction(4, 5), 1],
              [0, 0, 0, 6], [0, 0, 0, 0]]
    third = [[0, 1], [0, 0]]
    for blocks in ((first,), (first, second), (second, first, third)):
        m = _block_diag(*blocks)
        want = pfaffian_expansion(m)
        assert want != 0
        assert pfaffian(m) == want == pfaffian_matching_sum(m)


def test_pfaffian_elimination_singular():
    zero_row = _skew([[0, 0, 0, 0], [0, 0, 3, 1], [0, 0, 0, 2], [0, 0, 0, 0]])
    assert pfaffian(zero_row) == 0
    # Pf = a01 a23 - a02 a13 + a03 a12 = 0 - 1 + 1: no zero row, but the
    # second pivot vanishes with nothing to swap in
    dependent = _skew([[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert pfaffian(dependent) == 0 == pfaffian_expansion(dependent)


def test_pfaffian_of_empty_matrix_is_one():
    for pf in PFAFFIANS:
        assert pf(MatrixR(0, 0, [])) == 1


def test_pfaffian_rejects_non_rational_entries():
    s = TruncSeries(0, [1, 2, 3])
    m = MatrixR.from_rows([[Fraction(0), s], [-s, Fraction(0)]])
    with pytest.raises(TypeError, match="int or Fraction"):
        pfaffian(m)


def test_kernel_basis_rejects_non_rational_entries():
    # the TypeError of det and pfaffian, read from the same integer rows
    x, s = PolyQ([0, 1]), TruncSeries(0, [1, 2, 3])
    for m in (MatrixR.from_rows([[Fraction(1), x], [x, Fraction(2)]]),
              MatrixR.from_rows([[s, s], [s, s * s]])):
        with pytest.raises(TypeError, match="int or Fraction"):
            kernel_basis(m)


def test_pfaffian_checks_entries_then_skewness_then_dimension():
    # a non-skew matrix of odd dimension is refused as not skew, a
    # non-rational one of either kind for its entries
    x = PolyQ([0, 1])
    with pytest.raises(TypeError, match="int or Fraction"):
        pfaffian(MatrixR.from_rows([[x, 1, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="non-square"):
        pfaffian(MatrixR.from_rows([[0, 1, 2], [-1, 0, 3]]))
    for rows in ([[1]], [[0, 1, 2], [-1, 0, 3], [-2, -3, Fraction(1, 7)]],
                 [[0, Fraction(1, 3), 2], [Fraction(-1, 2), 0, 3], [-2, -3, 0]]):
        with pytest.raises(ValueError, match="skew-symmetric"):
            pfaffian(MatrixR.from_rows(rows))
    with pytest.raises(ValueError, match="even dimension"):
        pfaffian(MatrixR.from_rows([[0, Fraction(1, 3), 2], [Fraction(-1, 3), 0, 3],
                                    [-2, -3, 0]]))


def test_pfaffian_oracles_take_series():
    # a zero series compares equal to 0, so the matrix is skew
    z, s = TruncSeries(0, [0, 0, 0]), TruncSeries(0, [1, 2, 3])
    m = MatrixR.from_rows([[z, s], [-s, z]])
    assert all(m[i, j] + m[j, i] == 0 for i in range(2) for j in range(2))
    assert pfaffian_expansion(m) == pfaffian_matching_sum(m) == s
    # a zero entry known only to O(x) still bounds the Pfaffian's window
    up = {(0, 1): TruncSeries(0, [0]), (0, 2): s, (0, 3): TruncSeries(1, [1, 1]),
          (1, 2): s * 2, (1, 3): s, (2, 3): s * s}
    m = MatrixR.build(4, 4, lambda i, j: up[i, j] if i < j
                      else (-up[j, i] if i > j else z))
    got = pfaffian_expansion(m)
    assert repr(got) == repr(pfaffian_matching_sum(m))
    assert got.order == 1


def test_pfaffian_default_uncapped():
    rng = random.Random(23)
    for n2 in (14, 20, 30):
        m = _skew([[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(n2)] for _ in range(n2)])
        assert pfaffian(m) ** 2 == det(m)


def test_pfaffian_odd_dim_rejected():
    with pytest.raises(ValueError):
        pfaffian(MatrixR.from_rows([[0]]))


# ---------------------------------------------------------------------------
# LU, kernels


def test_lu_decompose_roundtrip():
    # contract: M * U = L with U unit upper triangular, prod diag(L) = det
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 5)
        m = _rand_matrix(rng, n)
        try:
            lower, upper = lu_decompose(m)
        except ValueError:
            continue  # decomposition requires nonzero leading minors
        assert m * upper == lower
        diag = Fraction(1)
        for j in range(n):
            assert all(lower[i, j] == 0 for i in range(j))
            assert upper[j, j] == 1
            diag *= lower[j, j]
        assert diag == det(m)


def test_lu_decompose_names_first_vanishing_minor():
    # the first zero pivot of the elimination is the first leading
    # principal minor that vanishes, whatever vanishes after it
    cases = [
        ([[0, 1], [1, 0]], 1),
        ([[0, 0], [0, 0]], 1),
        ([[1, 2, 3], [2, 4, 5], [1, 0, 1]], 2),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 3),
    ]
    for rows, order in cases:
        with pytest.raises(SingularMinorError) as got:
            lu_decompose(MatrixR.from_rows(rows))
        assert got.value.index == order
        assert str(got.value) == f"principal minor of order {order} vanishes"


def test_lu_decompose_int_entries_give_fractions():
    # int entries would divide to floats under `/`
    lower, upper = lu_decompose(MatrixR.from_rows([[2, 1], [1, 3]]))
    assert lower == MatrixR.from_rows([[2, 0], [1, Fraction(5, 2)]])
    assert upper == MatrixR.from_rows([[1, Fraction(-1, 2)], [0, 1]])
    assert all(type(e) is Fraction for e in lower.entries + upper.entries)


def test_kernel_basis():
    # rank-1 matrix has a 2-dimensional kernel in dimension 3
    m = MatrixR.from_rows([[1, 2, 3], [2, 4, 6], [3, 6, 9]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(c == 0 for c in m.mul_vector(v))
    assert kernel_basis(MatrixR.build(3, 3, lambda i, j: int(i == j))) == []


# ---------------------------------------------------------------------------
# characteristic polynomial, resultant


def test_char_poly_anchor():
    m = MatrixR.from_rows([[2, 1], [1, 2]])
    # [DERIVED] (x-1)(x-3)
    assert char_poly(m) == PolyQ([3, -4, 1])


@given(square(3))
@settings(max_examples=30, deadline=None)
def test_char_poly_constant_term(m):
    p = char_poly(m)
    assert p.leading() == 1
    assert p.coeff(0) == (-1) ** 3 * det(m)


def test_char_poly_matches_faddeev_leverrier():
    rng = random.Random(13)
    for n in range(7):
        for trial in range(5):
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n)]
            singular = n > 0 and trial == 3 or n > 1 and trial == 4
            if singular:
                rows[-1] = [-2 * x if trial == 4 else Fraction(0) for x in rows[0]]
            m = MatrixR.from_rows(rows)
            got = char_poly(m)
            assert list(got.coeffs) == char_poly_faddeev_leverrier(m)
            assert (got.coeff(0) == 0) == singular == (det(m) == 0)


def test_resultant_anchor():
    # [DERIVED] res(x^2-1, x^2-4) = 9; common root makes it vanish
    assert resultant(PolyQ([-1, 0, 1]), PolyQ([-4, 0, 1])) == 9
    assert resultant(PolyQ([-1, 1]), PolyQ([-1, 0, 1])) == 0


def test_submatrix_minor():
    m = MatrixR.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert m.submatrix([1, 2], [1, 2]) == MatrixR.from_rows([[5, 6], [8, 10]])
    assert m.submatrix([0, 2], [1, 2]) == MatrixR.from_rows([[2, 3], [8, 10]])
    assert m[2, 2] == 10
