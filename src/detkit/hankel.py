"""Hankel determinants and J-fractions.

A moment sequence (mu_0, mu_1, ...) is linked to a continued fraction

    sum_k mu_k x^k = mu0 / (1 + a0 x - b1 x^2 / (1 + a1 x - b2 x^2 / ...))

and the leading Hankel determinants factor through the b-coefficients:

    det(mu_{i+j})_{0<=i,j<=n-1} = mu0^n b1^{n-1} b2^{n-2} ... b_{n-1}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exactnum import (bell, bernoulli, euler_even, hermite_values,
                       integer_numerators, rat)
from .linalg import MatrixR, _eliminate, det
from .slotted import Slotted


class MomentSeq(Slotted):
    __slots__ = ("values",)

    def __init__(self, values: Sequence):
        self.values = tuple(rat(v) for v in values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]


class JFraction(Slotted):
    __slots__ = ("mu0", "a", "b")

    def __init__(self, mu0, a: Sequence, b: Sequence):
        self.mu0 = rat(mu0)
        self.a = tuple(rat(x) for x in a)
        self.b = tuple(rat(x) for x in b)  # b[i] represents b_{i+1}


class DegenerateMomentsError(ValueError):
    """A leading Hankel determinant vanished during J-fraction extraction."""

    def __init__(self, index: int):
        super().__init__(f"Hankel determinant of order {index} vanishes; moment problem degenerate")
        self.index = index


def _check_length(s: MomentSeq, n: int):
    """Raise ValueError unless s holds the entries s[0..2n-2] of an n x n
    Hankel matrix."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    need = max(0, 2 * n - 2)
    if n > 0 and need >= len(s):
        raise ValueError(f"moment sequence too short: need index {need}, have {len(s) - 1}")


def hankel_matrix(s: MomentSeq, n: int) -> MatrixR:
    """n x n matrix with entry (i, j) = s[i + j]."""
    _check_length(s, n)
    terms = [(v.numerator, v.denominator) for v in s.values[:max(0, 2 * n - 1)]]
    return MatrixR.from_pairs([terms[i:i + n] for i in range(n)])


def hankel_det(s: MomentSeq, n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    return det(hankel_matrix(s, n))


def hankel_dets(s: MomentSeq, n: int) -> list[Fraction]:
    """The leading Hankel determinants [H_1, ..., H_n] of s from one
    primitive-row elimination (`linalg._eliminate`, the one `det` runs):
    with mu_0..mu_{2n-2} = N_k/d over one common denominator d, the rows
    are windows of N, and pivot k is H_{k+1} d^(k+1).  Past the leading
    pivots the elimination has swapped rows or stopped, so each later
    order is computed on its own.
    """
    _check_length(s, n)
    nums, d = integer_numerators(s.values[:max(0, 2 * n - 1)])
    _, pivots, leading = _eliminate([nums[i:i + n] for i in range(n)])
    out = []
    scale = 1
    for k in range(leading):
        scale *= d
        out.append(Fraction(pivots[k], scale))
    return out + [hankel_det(s, k) for k in range(leading + 1, n + 1)]


def jfraction_from_moments(s: MomentSeq, depth: int) -> JFraction:
    """Extract (mu0, a_0..a_{depth-1}, b_1..b_{depth-1}) from moments.

    Runs the Chebyshev algorithm (Gautschi 1982) on the first 2*depth
    moments in O(depth^2) operations.  With sigma_{-1,l} = 0 and
    sigma_{0,l} = mu_l, the modified moments

        sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l}
                      - beta_{k-1} sigma_{k-2,l}

    give alpha_k = sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1}
    and beta_k = sigma_{k,k}/sigma_{k-1,k-1}.  In the sign convention of
    this module a_k = -alpha_k, b_k = beta_k and mu0 = mu_0.

    Each sigma row is kept fraction-free, as integer numerators over one
    row denominator: the recurrence is one integer combination
    c1 row[j+2] - c2 row[j+1] - c3 prev[j+2] over the lcm of the
    denominators of its three terms, reduced by one gcd, and alpha_k and
    beta_k are each one Fraction built from integers.

    Requires the leading Hankel determinants H_1..H_depth to be nonzero;
    since sigma_{k,k} = H_{k+1}/H_k, aborts with DegenerateMomentsError
    at the first vanishing one.
    """
    need = max(1, 2 * depth)  # mu0 = s[0] is read even at depth 0
    if len(s) < need:
        raise ValueError(f"need at least {need} moments for depth {depth}")
    if s[0] == 0:
        raise DegenerateMomentsError(1)
    # row[j] / den = sigma_{k,k+j} and prev[j] / prev_den = sigma_{k-1,k-1+j}
    row, den = integer_numerators(s.values[:2 * depth])
    prev, prev_den = [0] * len(row), 1
    alpha = beta = Fraction(0)
    a: list[Fraction] = []
    b: list[Fraction] = []
    for k in range(depth):
        if k:
            # sigma_{k,l} over the lcm of the denominators of its terms
            ad, bd = den * alpha.denominator, prev_den * beta.denominator
            common = math.lcm(ad, bd)
            c1 = common // den
            c2 = alpha.numerator * (common // ad)
            c3 = beta.numerator * (common // bd)
            nums = [c1 * row[j + 2] - c2 * row[j + 1] - c3 * prev[j + 2]
                    for j in range(len(row) - 2)]
            g = math.gcd(common, *nums)
            prev, prev_den = row, den
            row, den = [v // g for v in nums], common // g
            if row[0] == 0:
                raise DegenerateMomentsError(k + 1)
            beta = Fraction(row[0] * prev_den, den * prev[0])
            b.append(beta)
            # sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1}
            alpha = Fraction(row[1] * prev[0] - prev[1] * row[0], row[0] * prev[0])
        else:
            alpha = Fraction(row[1], row[0])
        a.append(-alpha)
    return JFraction(s[0], a, b)


def moments_from_jfraction(j: JFraction, count: int) -> MomentSeq:
    """Expand the continued fraction to `count` exact moments by the
    weighted Motzkin-path recurrence: mu_k is mu0 times the total weight
    of the k-step paths from height 0 back to height 0, where an up step
    weighs 1, a level step at height h weighs -a_h and a down step from
    height h + 1 weighs b_{h+1}.  Its levels a_0..a_{m-1},
    b_1..b_{m-1} determine mu_0..mu_{2m-1} and no more, so a count above
    2m raises ValueError."""
    if count <= 0:
        return MomentSeq([])
    levels = max(len(j.a), len(j.b) + 1)
    if count > 2 * levels:
        raise ValueError("J-fraction too shallow for requested moment count")
    # missing levels are 0, and b_levels = 0: no path that climbs to
    # height levels comes back
    level = [-x for x in j.a] + [0] * (levels - len(j.a))
    down = list(j.b) + [0] * (levels - len(j.b))
    # w[h] = total weight of the paths of k steps from height 0 to height
    # h < levels; w[levels] = 0 stands for both height -1 and height levels
    w = [1] + [0] * levels
    out = []
    for _ in range(count):
        out.append(j.mu0 * w[0])
        w = [w[h - 1] + level[h] * w[h] + down[h] * w[h + 1]
             for h in range(levels)] + [0]
    return MomentSeq(out)


def heilermann_products(j: JFraction, n: int) -> list[Fraction]:
    """[H_0, ..., H_n] with H_i = mu0^i b1^{i-1} b2^{i-2} ... b_{i-1}, the
    order-i Hankel determinants, by one running product:
    H_{i+1} = H_i mu0 b_1 ... b_i."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n - 1 > len(j.b):
        raise ValueError(f"J-fraction depth insufficient: need b_1..b_{n-1}")
    out = [Fraction(1)]
    step = j.mu0
    for i in range(n):
        if i:
            step *= j.b[i - 1]
        out.append(out[-1] * step)
    return out


def heilermann_product(j: JFraction, n: int) -> Fraction:
    """mu0^n b1^{n-1} b2^{n-2} ... b_{n-1} — the order-n Hankel determinant."""
    return heilermann_products(j, n)[n]


def bernoulli_shifted_moments(count: int, shift: int = 2) -> MomentSeq:
    """Moments mu_k = B_{k+shift}."""
    return MomentSeq([bernoulli(k + shift) for k in range(count)])


# the built-in moment sequences, by name: count -> mu_0..mu_{count-1}
NAMED_MOMENTS = {
    "bernoulli": lambda count: MomentSeq([bernoulli(k) for k in range(count)]),
    "euler": lambda count: MomentSeq([euler_even(2 * k) for k in range(count)]),
    "bell": lambda count: MomentSeq([bell(k) for k in range(count)]),
    "hermite": lambda count: MomentSeq(hermite_values(0, count)),
}
