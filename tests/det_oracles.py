"""Determinants by brute force over all permutations: the oracle for the
elimination strategies of detkit.linalg.det."""

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
