"""Slow independent oracles for detkit.linalg: determinants by brute
force over all permutations, by Gaussian elimination and by Dodgson
condensation, for `det` and `_det_laplace`; leading minors by integer
Bareiss elimination, for `hankel.hankel_dets`; permanents by Ryser's
inclusion-exclusion over column subsets and by the sum over all
permutations, for `permanent`; Pfaffians by first-row expansion and by
the signed sum over perfect matchings, for `pfaffian`; and the
Faddeev-LeVerrier recursion, for `char_poly`.  The expansions take
entries of any commutative ring, TruncSeries included."""

from fractions import Fraction
from itertools import permutations


def det_permutation_expansion(m):
    """Brute-force determinant over all permutations (n <= 6)."""
    n = m.rows
    if n > 6:
        raise ValueError("permutation expansion capped at n <= 6")
    acc = None
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = None
        for i in range(n):
            prod = m[i, perm[i]] if prod is None else prod * m[i, perm[i]]
        if prod is None:
            prod = Fraction(1)
        if sign < 0:
            prod = prod * -1
        acc = prod if acc is None else acc + prod
    return acc if acc is not None else Fraction(1)


def _fraction_rows(m):
    # `/` on two ints would give a float
    return [[Fraction(x) for x in m.row(i)] for i in range(m.rows)]


def det_gauss(m):
    """Determinant by Gaussian elimination on Fractions, swapping rows on
    a zero pivot."""
    n = m.rows
    a = _fraction_rows(m)
    det = Fraction(1)
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p = a[k][k]
        det = det * p
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            f = a[i][k] / p
            for j in range(k, n):
                a[i][j] = a[i][j] - f * a[k][j]
    return det * sign


def det_condensation(m):
    """Determinant by Dodgson condensation on Fractions; any zero interior
    cell of the current layer is repaired by evaluating the corresponding
    connected minor with det_gauss."""
    n = m.rows
    if n == 0:
        return Fraction(1)

    def connected_minor(i, j, size):
        # det of the size x size block with top-left corner (i, j)
        return det_gauss(m.submatrix(range(i, i + size), range(j, j + size)))

    cur = _fraction_rows(m)  # size-1 minors
    prev = [[Fraction(1)] * (n + 1) for _ in range(n + 1)]  # size-0 minors
    for size in range(2, n + 1):
        dim = n - size + 1
        nxt = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                denom = prev[i + 1][j + 1]
                num = cur[i][j] * cur[i + 1][j + 1] - cur[i + 1][j] * cur[i][j + 1]
                if denom == 0:
                    nxt[i][j] = connected_minor(i, j, size)
                else:
                    nxt[i][j] = num / denom
        prev, cur = cur, nxt
    return cur[0][0]


def bareiss_int(a):
    """Integer Bareiss elimination of the square matrix `a`, in place.

    Rows are swapped only on a zero pivot.  Returns (sign, pivots,
    first_swap): pivot k is the order-(k+1) leading minor of the row-swapped
    matrix, so before `first_swap` (None when no swap happened) it is the
    leading minor of `a` itself.  Fewer than len(a) pivots means `a` is
    singular.
    """
    n = len(a)
    sign, prev, pivots, first_swap = 1, 1, [], None
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    if first_swap is None:
                        first_swap = k
                    break
            else:
                return sign, pivots, first_swap
        p = a[k][k]
        pivots.append(p)
        tail = a[k][k + 1:]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return sign, pivots, first_swap


def permanent_ryser(m):
    """Permanent by inclusion-exclusion over column subsets (Ryser)."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    total = None
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        prod = None
        for i in range(n):
            s = m[i, cols[0]]
            for j in cols[1:]:
                s = s + m[i, j]
            prod = s if prod is None else prod * s
        if (n - len(cols)) % 2:
            prod = prod * -1
        total = prod if total is None else total + prod
    return total


def permanent_permutation_sum(m):
    """Permanent as the unsigned sum over all permutations (n <= 6)."""
    n = m.rows
    if n > 6:
        raise ValueError("permutation sum capped at n <= 6")
    acc = None
    for perm in permutations(range(n)):
        prod = None
        for i in range(n):
            prod = m[i, perm[i]] if prod is None else prod * m[i, perm[i]]
        acc = prod if acc is None else acc + prod
    return acc if acc is not None else Fraction(1)


def pfaffian_expansion(m):
    """Pfaffian of a skew matrix by expansion along the first row."""
    return _pfaffian_expand(m, list(range(m.rows)))


def _pfaffian_expand(m, idx):
    if not idx:
        return Fraction(1)
    i0 = idx[0]
    for pos in range(1, len(idx)):
        j = idx[pos]
        # no zero-skip: a series 0 + O(x^k) still bounds the window
        rest = [k for k in idx[1:] if k != j]
        term = m[i0, j] * _pfaffian_expand(m, rest)
        if (pos - 1) % 2:
            term = term * -1
        acc = term if pos == 1 else acc + term
    return acc


def _matchings(points):
    if not points:
        yield []
        return
    a = points[0]
    for k in range(1, len(points)):
        b = points[k]
        rest = points[1:k] + points[k + 1:]
        for rest_match in _matchings(rest):
            yield [(a, b)] + rest_match


def _crossings(match):
    c = 0
    for x in range(len(match)):
        for y in range(x + 1, len(match)):
            a, b = match[x]
            cc, d = match[y]
            if a < cc < b < d or cc < a < d < b:
                c += 1
    return c


def pfaffian_matching_sum(m):
    """Pfaffian of a skew matrix as the sum over perfect matchings of the
    upper entries, signed by the parity of the crossings."""
    acc = None
    for match in _matchings(list(range(m.rows))):
        prod = None
        for a, b in match:
            prod = m[a, b] if prod is None else prod * m[a, b]
        if _crossings(match) % 2:
            prod = prod * -1
        acc = prod if acc is None else acc + prod
    return acc if acc is not None else Fraction(1)


def char_poly_faddeev_leverrier(m):
    """Coefficients of det(x*I - M), lowest first, by the Faddeev-LeVerrier
    recursion on nested lists: M_1 = M, c_(n-k) = -tr(M_k) / k and
    M_(k+1) = M (M_k + c_(n-k) I); O(n^4) Fraction operations."""
    n = m.rows
    a = m.to_rows()
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = [[sum((a[i][t] * mk[t][j] for t in range(n)), Fraction(0))
               for j in range(n)] for i in range(n)]
        c = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs
