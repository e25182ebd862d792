"""Dense exact matrices and the matrix algorithms the verification
engine needs: the determinant, permanent, Pfaffian, LU in the M*U = L
form, kernel bases, characteristic polynomial, and the Sylvester
resultant.

Entries are ints and Fractions.  A `MatrixR` stores its entries or its
integer rows (each row's numerators over the lcm of its denominators) or
both; the entry builders hand integer pairs to `MatrixR.from_pairs`,
which stores the integer rows alone and builds Fractions only when an
entry is read.  One integer elimination, primitive-row elimination
(`_eliminate`), gives `det` and the leading minors of
`hankel.hankel_dets`; the Gauss and condensation determinants are test
oracles in tests/det_oracles.py.  A determinant that is a polynomial in
a parameter is interpolated from integer determinants at sample points
by `guess.interpolate_det_poly`; the characteristic polynomial is found
the same way, from det(x*I - M) at x = 0..n.  LU comes from one Gaussian
elimination without pivoting.  Determinants, kernels and the Pfaffian
(skew elimination, no size cap) run fraction-free on the integer rows.
One first-row expansion, which divides nowhere and shares its minors,
gives the permanent (unsigned) and the determinant stwi takes of
truncated series (signed).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, Sequence

from .exactnum import PolyQ, integer_numerators, rat
from .guess import lagrange_interpolate


class MatrixR:
    """Immutable dense matrix.

    A matrix holds its entries (row-major), its integer rows, or both.
    The integer rows are, per row, the numerators of its entries over the
    lcm of their reduced denominators, with that lcm: the rows `det`,
    `pfaffian` and `kernel_basis` eliminate.  `from_pairs` builds them
    alone from integer pairs, and the entries are built as Fractions on
    their first read; a matrix built from entries fills its integer rows
    on their first use.
    """

    __slots__ = ("rows", "cols", "_entries", "_ints")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self._entries = entries
        self._ints = None

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "MatrixR":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return MatrixR(r, c, flat)

    @staticmethod
    def from_pairs(rows: Sequence[Sequence[tuple[int, int]]]) -> "MatrixR":
        """The matrix of the rational entries p/q given as integer pairs
        (p, q), q nonzero of either sign; a zero q raises
        ZeroDivisionError.  Each pair is reduced once by its gcd, so the
        integer rows carry no factor the entries do not."""
        r = len(rows)
        c = len(rows[0]) if r else 0
        ints = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            nums, dens, d = [], [], 1
            for p, q in row:
                g = gcd(p, q)
                if q < 0:
                    g = -g
                elif not q:
                    raise ZeroDivisionError("an entry's denominator is 0")
                q //= g
                nums.append(p // g)
                dens.append(q)
                d = lcm(d, q)
            ints.append(([p * (d // q) for p, q in zip(nums, dens)], d))
        m = MatrixR.__new__(MatrixR)
        m.rows, m.cols, m._entries, m._ints = r, c, None, ints
        return m

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            self._entries = tuple(Fraction(p, d) for nums, d in self._ints for p in nums)
        return self._entries

    def _integer_rows(self) -> tuple[list[list[int]], list[int]]:
        """Fresh copies of the integer rows, and each row's denominator;
        TypeError for an entry that is not an int or a Fraction."""
        if self._ints is None:
            try:
                self._ints = [integer_numerators(self.row(i)) for i in range(self.rows)]
            except AttributeError:  # no denominator: PolyQ, RatFn, TruncSeries, float
                raise TypeError("integer rows require int or Fraction entries") from None
        return [list(nums) for nums, _ in self._ints], [d for _, d in self._ints]

    @staticmethod
    def build(rows: int, cols: int, fn: Callable[[int, int], object]) -> "MatrixR":
        return MatrixR(rows, cols, [fn(i, j) for i in range(rows) for j in range(cols)])

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def submatrix(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "MatrixR":
        return MatrixR.build(
            len(keep_rows), len(keep_cols), lambda i, j: self[keep_rows[i], keep_cols[j]]
        )

    def __eq__(self, other):
        if not isinstance(other, MatrixR):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __mul__(self, other):
        if not isinstance(other, MatrixR):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        def entry(i, j):
            acc = self[i, 0] * other[0, j]
            for k in range(1, self.cols):
                acc = acc + self[i, k] * other[k, j]
            return acc
        return MatrixR.build(self.rows, other.cols, entry)

    def mul_vector(self, v: Sequence):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            acc = self[i, 0] * v[0]
            for k in range(1, self.cols):
                acc = acc + self[i, k] * v[k]
            out.append(acc)
        return out

    def __repr__(self):
        return f"MatrixR({self.to_rows()!r})"


def _expand(m: MatrixR, signed: bool):
    """First-row expansion of the square matrix m over any commutative
    ring: the determinant when signed, else the permanent.

    The minor on the last k rows and a given set of k columns is expanded
    once and shared, so an n x n expansion costs about n * 2^(n-1)
    products instead of n!.  Each minor is the same expression the plain
    recursion builds, so series values and windows do not change.
    """
    n = m.rows
    memo = {}

    def minor(cols):
        r = n - len(cols)
        if len(cols) == 1:
            return m[r, cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        if len(cols) == 2:
            a, b = cols
            x, y = m[r, a] * m[r + 1, b], m[r, b] * m[r + 1, a]
            got = x - y if signed else x + y
        else:
            for pos, j in enumerate(cols):
                # no zero-skip: a series 0 + O(x^k) still bounds the window
                term = m[r, j] * minor(cols[:pos] + cols[pos + 1:])
                if signed and pos % 2:
                    term = term * -1
                got = term if pos == 0 else got + term
        memo[cols] = got
        return got

    return minor(tuple(range(n))) if n else Fraction(1)


def _det_laplace(m: MatrixR):
    """Determinant by the shared-minor first-row expansion: stwi calls it
    directly on TruncSeries, which has zero divisors."""
    return _expand(m, True)


def _eliminate(a: list[list[int]]) -> tuple[int, list[int], int]:
    """Primitive-row elimination of the square integer matrix `a`, in
    place: the one integer elimination behind `det` and
    `hankel.hankel_dets`.

    Each row is divided by its content (the gcd of its entries) when
    that is above 1, so a zero row is left as it is.  With
    pivot p, a row whose entry f below it is nonzero becomes
    (p/g) row - (f/g) pivot_row, g = gcd(p, f), and is divided by its
    content again: the linear-algebra analogue of the primitive PRS
    (Knuth, TAOCP 2, 4.6.1).  Each row is the primitive part of the
    matching Bareiss row, so no entry outgrows Bareiss's, and factors
    shared along a row (the q-factorials of the q-families, the factorials
    of the Euler and Bernoulli moments) leave as soon as they appear.  The
    contents and multipliers p/g taken from a row give the rational factor
    between it and Gaussian elimination's row; with it, each Bareiss pivot
    follows from the one before by one exact division.  Rows are swapped
    only on a zero pivot.

    Returns (sign, pivots, leading): pivot k is the order-(k+1) leading
    minor of the row-swapped matrix, and the first `leading` pivots, those
    before the first swap, are leading minors of `a` itself.  The
    elimination stops at a zero pivot column or a zero row, so fewer than
    len(a) pivots means `a` is singular.
    """
    n = len(a)
    sign, bareiss, pivots, first_swap = 1, 1, [], n
    # Gaussian elimination's row i is num[i] / den[i] times a[i]; after
    # step k, rows k+1.. hold only their columns k+1..
    num, den = [1] * n, [1] * n
    for i, row in enumerate(a):
        c = gcd(*row)
        if c > 1:
            a[i] = [x // c for x in row]
            num[i] = c
    for k in range(n):
        if a[k][0] == 0:
            i = next((i for i in range(k + 1, n) if a[i][0]), None)
            if i is None:
                break
            a[k], a[i] = a[i], a[k]
            num[k], num[i] = num[i], num[k]
            den[k], den[i] = den[i], den[k]
            sign = -sign
            first_swap = min(first_swap, k)
        tail = a[k]
        p = tail.pop(0)
        # Gaussian pivot k is the ratio of the Bareiss pivots k and k - 1
        bareiss = num[k] * bareiss // den[k] * p
        pivots.append(bareiss)
        for i in range(k + 1, n):
            rest = a[i]
            f = rest.pop(0)
            if f:
                g = gcd(p, f)
                pg = p // g
                f //= g
                rest = [pg * x - f * y for x, y in zip(rest, tail)]
                c = gcd(*rest)
                if c != 1:
                    if c == 0:
                        return sign, pivots, min(len(pivots), first_swap)
                    rest = [x // c for x in rest]
                    num[i] *= c
                den[i] *= pg
                a[i] = rest
    return sign, pivots, min(len(pivots), first_swap)


def det(m: MatrixR) -> Fraction:
    """Determinant of a square matrix of ints and Fractions, as a Fraction,
    by primitive-row elimination (`_eliminate`) on its integer rows (each
    row's numerators over the lcm of its denominators); any other entry
    raises TypeError.  A matrix built by `MatrixR.from_pairs` hands over
    the rows it was built as.

    A determinant that is a polynomial in a parameter comes from
    `guess.interpolate_det_poly`: integer determinants at sample points,
    interpolated.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    a, scales = m._integer_rows()
    if m.rows == 0:
        return Fraction(1)
    sign, pivots, _ = _eliminate(a)
    if len(pivots) < m.rows:
        return Fraction(0)
    return Fraction(sign * pivots[-1], prod(scales))


PERMANENT_MAX_N = 9  # the expansion runs over 2^n column subsets


def permanent(m: MatrixR):
    """Permanent by the shared-minor first-row expansion without signs."""
    if m.rows != m.cols:
        raise ValueError("permanent of non-square matrix")
    if m.rows > PERMANENT_MAX_N:
        raise ValueError(f"permanent capped at n <= {PERMANENT_MAX_N}")
    return _expand(m, False)


def pfaffian(m: MatrixR) -> Fraction:
    """Pfaffian of a skew-symmetric matrix of even dimension with int and
    Fraction entries, as a Fraction, by fraction-free skew elimination;
    any other entry raises TypeError.

    Sign convention: Pf([[0, 1], [-1, 0]]) = +1.
    """
    rows, scales = m._integer_rows()
    if m.rows != m.cols:
        raise ValueError("pfaffian of non-square matrix")
    # Pf(A) = Pf(D A D) / det(D) with D the row scales, and D A D is an
    # integer matrix, skew exactly when A is
    n = m.rows
    b = [[x * d for x, d in zip(row, scales)] for row in rows]
    if any(b[i][j] != -b[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("pfaffian requires a skew-symmetric matrix")
    if n % 2:
        raise ValueError("pfaffian requires even dimension")
    return Fraction(_pfaffian_int(b), prod(scales))


def _pfaffian_int(b: list[list[int]]) -> int:
    """Pfaffian of the integer skew matrix `b` by fraction-free skew
    elimination (Parlett-Reid, made fraction-free), in place.

    Indices are eliminated two at a time.  With pivot p = b[k][k+1], the
    update is exact: by the Pfaffian Sylvester identity (Knuth,
    "Overlapping Pfaffians", 1996) entry (c, d) becomes the Pfaffian of
    the submatrix on 0..k+1, c, d, and the previous pivot divides it.
    Only the upper triangle of the rows not yet eliminated is kept current.
    """
    m = len(b)
    sign, prev = 1, 1
    for k in range(0, m, 2):
        rk = b[k]
        if rk[k + 1] == 0:
            j = next((j for j in range(k + 2, m) if rk[j]), None)
            if j is None:
                return 0
            # refresh the lower triangle, then swap indices k+1 and j
            for c in range(k, m):
                for d in range(c + 1, m):
                    b[d][c] = -b[c][d]
            b[k + 1], b[j] = b[j], b[k + 1]
            for row in b[k:]:
                row[k + 1], row[j] = row[j], row[k + 1]
            sign = -sign
        p, rk1 = rk[k + 1], b[k + 1]
        for c in range(k + 2, m):
            row, f, g = b[c], rk[c], rk1[c]
            row[c + 1:] = [(p * x - f * y + g * z) // prev
                           for x, y, z in zip(row[c + 1:], rk1[c + 1:], rk[c + 1:])]
        prev = p
    return sign * prev


class SingularMinorError(ValueError):
    def __init__(self, index):
        super().__init__(f"principal minor of order {index} vanishes")
        self.index = index


def lu_decompose(m: MatrixR) -> tuple[MatrixR, MatrixR]:
    """Find unit upper triangular U with M*U = L lower triangular.

    Requires every top-left principal minor of M to be nonzero; then
    prod(diag(L)) = det(M).  One Gaussian elimination without pivoting
    turns [M^T | I] into [L^T | U^T]: its row operations multiply on the
    left by the unit lower triangular U^T.  Pivot k is the ratio of the
    leading minors of orders k + 1 and k, so the first zero pivot names
    the first vanishing minor.
    """
    if m.rows != m.cols:
        raise ValueError("lu_decompose requires a square matrix")
    n = m.rows
    # `/` on two ints would give a float
    a = [[rat(m[j, i]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for k in range(n):
        rk = a[k]
        p = rk[k]
        if p == 0:
            raise SingularMinorError(k + 1)
        for i in range(k + 1, n):
            f = a[i][k] / p
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], rk)]
    return (MatrixR.build(n, n, lambda i, j: a[j][i]),
            MatrixR.build(n, n, lambda i, j: a[j][n + i]))


def kernel_basis(m: MatrixR) -> list[list[Fraction]]:
    """Basis of the right null space over Q: the RREF read off a
    fraction-free Gauss-Jordan elimination on integer rows (Nakos,
    Turner and Williams 1997).

    Each row is scaled to integers first, which leaves the null space
    unchanged.  After k pivots every pivot row holds the same pivot value
    d at its pivot column, and the rows are d times the RREF, so each
    basis vector has 1 at its own free column and 0 at the other free
    columns.
    """
    rows, _ = m._integer_rows()
    ncols = m.cols
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        p = pr[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pr)]
        pivots.append(c)
        prev = p
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[ri][fc], prev)
        basis.append(v)
    return basis


def char_poly(m: MatrixR) -> PolyQ:
    """det(lambda*I - M), interpolated from its values at lambda = 0..n."""
    if m.rows != m.cols:
        raise ValueError("char_poly requires a square matrix")
    n = m.rows
    return lagrange_interpolate([
        (x, det(MatrixR.build(n, n, lambda i, j: (x if i == j else 0) - m[i, j])))
        for x in range(n + 1)])


def resultant(p: PolyQ, q: PolyQ) -> Fraction:
    """Resultant via the Sylvester matrix determinant."""
    if p.is_zero():
        raise ValueError("resultant requires nonzero first argument")
    dp, dq = p.degree, q.degree
    if q.is_zero():
        return Fraction(0) if dp > 0 else Fraction(1)
    n = dp + dq
    if n == 0:
        return Fraction(1)
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(dq):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in pc] + [Fraction(0)] * (n - dp - 1 - i))
    for i in range(dp):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in qc] + [Fraction(0)] * (n - dq - 1 - i))
    return det(MatrixR.from_rows(rows))
