"""Slow independent oracles for detkit.linalg: determinants by brute
force over all permutations, for the elimination strategies of `det`,
and the Faddeev-LeVerrier recursion, for `char_poly`."""

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
