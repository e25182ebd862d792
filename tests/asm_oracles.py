"""Slow independent oracle for detkit.combinat.six_vertex_sum: the
six-vertex weight of each alternating sign matrix read off its entries and
partial sums, summed over asm_enumerate (n <= 5)."""

from fractions import Fraction

from detkit.combinat import asm_enumerate
from detkit.exactnum import rat


def num_neg(asm):
    """Number of (-1)s in the whole matrix."""
    return sum(1 for row in asm.entries for e in row if e == -1)


def row_neg(asm, i):
    """Number of (-1)s in row i (1-based)."""
    return sum(1 for e in asm.entries[i - 1] if e == -1)


def col_neg(asm, j):
    """Number of (-1)s in column j (1-based)."""
    return sum(1 for row in asm.entries if row[j - 1] == -1)


def zero_site_factor(asm, i, j, X, Y, q):
    """Weight of a zero entry at (i,j), 1-based, fixed by the row and
    column partial sums there: unequal sums give (q X_i - Y_j), equal
    sums give (X_i - Y_j), with an extra factor q when both sums are 1."""
    rsum = sum(asm.entries[i - 1][k] for k in range(j))
    csum = sum(asm.entries[k][j - 1] for k in range(i))
    x, y, q = rat(X[i - 1]), rat(Y[j - 1]), rat(q)
    if rsum != csum:
        return q * x - y
    if rsum == 0:
        return x - y
    return q * (x - y)


def six_vertex_weight(asm, X, Y, q):
    """The summand (1-q)^{2N} prod X_i^{N_i} Y_i^{N^i} times the
    product of zero-site factors."""
    n = asm.n
    q = rat(q)
    w = (1 - q) ** (2 * num_neg(asm))
    for i in range(1, n + 1):
        w *= rat(X[i - 1]) ** row_neg(asm, i)
        w *= rat(Y[i - 1]) ** col_neg(asm, i)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if asm.entries[i - 1][j - 1] == 0:
                w *= zero_site_factor(asm, i, j, X, Y, q)
    return w


def six_vertex_sum_enumerated(X, Y, q):
    """Sum of six_vertex_weight over every ASM of size len(X)."""
    return sum((six_vertex_weight(a, X, Y, q) for a in asm_enumerate(len(X))),
               Fraction(0))
