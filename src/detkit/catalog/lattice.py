"""Binomial determinants with block-band structure or with rows and
columns indexed by lattice-point pairs; the last two are compared in
absolute value only (their sign is not part of the closed form)."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from ..exactnum import _binomial_pairs, binomial, rat
from ..linalg import MatrixR, det
from .base import (ZERO, IdentityRecord, Resample, _ceil, add, det_record, inv,
                   pair, pair_matrix, prod, rand_frac, register, rising, sub)


# ---------------------------------------------------------------------------
# three-band block matrix


def _sample_xbc(rng, n):
    # with b = n, the closed form's Pochhammer symbols in x have a
    # negative index only when 3c > 2b, and then divide by zero exactly
    # when x is an integer in [1 - c, c - b - 1]; for b even and c odd
    # the closed form returns 0 before reading any of them
    c, x = rng.randint(0, n), rand_frac(rng)
    if (3 * c > 2 * n and (n % 2 or c % 2 == 0)
            and x.denominator == 1 and 1 - c <= x <= c - n - 1):
        raise Resample
    return {"b": n, "c": c, "x": x}


def _build_xbc(n, b, c, x):
    # column j reads binomial(x + j, k) (binomial(2x + j, k) for j >= b)
    # from one table
    x = rat(x)
    cols = [_binomial_pairs(x + j if j < b else 2 * x + j, b + c - 1) for j in range(b + c)]

    def entry(i, j):
        if j < c:
            if i < c:
                return cols[j](i)
            if i < b:
                return ZERO
            a, d = cols[j](i - b)
            return 2 * a, d
        if j < b:
            return cols[j](i if i < b else i - b)
        if i < b:
            return cols[j](i)
        return ZERO
    return pair_matrix(b + c, entry)


def _closed_xbc(n, b, c, x):
    x = pair(x)
    if b % 2 == 0 and c % 2 == 1:
        return Fraction(0)
    half_b = _ceil(b, 2)

    def factors(i):
        # (x + s)_e / (1/2 - half_b + s)_e for the two (s, e) of row i
        for s, e in ((_ceil(c + i, 2), b - c + _ceil(i, 2) - _ceil(c + i, 2)),
                     (_ceil(b - c + i, 2), _ceil(b + i, 2) - _ceil(b - c + i, 2))):
            yield rising(add(x, (s, 1)), e)
            yield inv(rising((2 * (s - half_b) + 1, 2), e))

    # (i + 1/2 - half_b)_c / (i)_c for i <= b - c
    return prod(chain([(-2) ** c], *(
        (rising((2 * (i - half_b) + 1, 2), c), inv(rising((i, 1), c)))
        for i in range(1, b - c + 1)), *map(factors, range(1, c + 1))))


det_record("bombieri-xbc", _sample_xbc, _build_xbc, _closed_xbc, max_n=5)


# ---------------------------------------------------------------------------
# lattice-pair indexed matrices, |det| asserted only


_SMALL_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


def _build_poorten(n, N, l, x):
    x = rat(x)
    rows = [(i1, i2) for i2 in range(N) for i1 in range(2 * l * (N - i2))]
    cols = [(j1, j2) for j2 in range(N + 1) for j1 in range(l * N)]
    assert len(rows) == len(cols)
    # one binomial(-x (N - j2), k) table per j2
    tables = [_binomial_pairs(-x * (N - j2), 2 * l * N - 1) for j2 in range(N + 1)]

    def entry(r, c):
        i1, i2 = rows[r]
        j1, j2 = cols[c]
        a, d = tables[j2](i1 - j1)
        return (-a if (i1 - j1) & 1 else a) * math.comb(j2, i2), d
    return pair_matrix(len(rows), entry)


def _closed_poorten(n, N, l, x):
    # binomial(x + i - 1, 2i - 1) / binomial(l + i - 1, 2i - 1)
    # = (x - i + 1)_(2i-1) / (l - i + 1)_(2i-1)
    x = pair(x)
    return prod(chain.from_iterable(
        (rising(sub(x, (i - 1, 1)), 2 * i - 1), inv(rising((l - i + 1, 1), 2 * i - 1)))
        for i in range(1, l + 1))) ** math.comb(N + 2, 3)


def _poorten_trial(rng, n):
    N, l = _SMALL_PAIRS[rng.randrange(len(_SMALL_PAIRS))]
    x = rand_frac(rng)
    params = {"N": N, "l": l, "x": x}
    lhs = abs(det(_build_poorten(n, N, l, x)))
    rhs = abs(_closed_poorten(n, N, l, x))
    return params, lhs, rhs


register(IdentityRecord(id="poorten", trial=_poorten_trial, max_n=2,
                        builder=_build_poorten, closed=_closed_poorten))


def _build_conj(n, N, l):
    rows = [(i1, i2) for i2 in range(N) for i1 in range(2 * l * (N - i2))]
    cols = [(j1, j2) for j2 in range(N + 1)
            for j1 in range(2 * l * (N - j2), l * (3 * N - 2 * j2))]
    assert len(rows) == len(cols)

    def entry(r, c):
        i1, i2 = rows[r]
        j1, j2 = cols[c]
        return binomial(j1, i1) * binomial(j2, i2)
    return MatrixR.build(len(rows), len(rows), entry)


def _closed_conj(n, N, l):
    # the x = -2l specialization of the parametrized evaluation above
    return _closed_poorten(n, N, l, Fraction(-2 * l))


def _conj_trial(rng, n):
    N, l = _SMALL_PAIRS[rng.randrange(len(_SMALL_PAIRS))]
    params = {"N": N, "l": l}
    lhs = abs(det(_build_conj(n, N, l)))
    rhs = abs(_closed_conj(n, N, l))
    return params, lhs, rhs


register(IdentityRecord(id="bombieri-conj", trial=_conj_trial, max_n=2,
                        builder=_build_conj, closed=_closed_conj))
