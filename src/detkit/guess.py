"""Closed-form sequence guessing by rational interpolation over
successive-quotient towers, plus the determinant-polynomial
interpolation and the half-integer linear-factor scan used by the
identification-of-factors workflow.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .exactnum import (PolyQ, RatFn, _homogeneous, _terms_str, _trim, fmt_rat,
                       integer_numerators, rat)
from .slotted import Slotted


# ---------------------------------------------------------------------------
# rational interpolation


def fit_rational(points: Sequence[tuple]) -> Optional[RatFn]:
    """Fit a rational function through `points`.

    Degree splits (num_deg, den_deg) with num_deg + den_deg + 2 <=
    len(points) are tried by increasing total degree, numerator-heavy
    first; the result is the first split's p/q (deg p <= num_deg,
    deg q <= den_deg) through every point with q nonzero at every x, or
    None.  Within a split p/q is unique: two such agree at m - 1 points
    and their cross difference has degree <= m - 2.

    All splits come from one Cauchy interpolation (von zur Gathen and
    Gerhard, Modern Computer Algebra, 5.7-5.9): the extended Euclidean
    algorithm on M = prod (x - x_i) and the interpolant L of degree < m
    gives rows r_j = s_j M + t_j L.  For the first row with
    deg r_j <= num_deg, every solution of the split is a polynomial
    multiple of (r_j, t_j) (Theorem 5.16), so the split accepts iff
    deg t_j <= den_deg and t_j vanishes at no x_i, with law r_j / t_j.

    Everything runs on integers: the nodes are scaled by their common
    denominator e to integers X_i = e x_i, the fit is made in u = e x
    against the integer interpolant W D L (see _interpolant), and the
    Euclidean rows are integer pseudo-remainders, each row (r_j, t_j)
    divided by its content.  A row is then a constant multiple of the
    rational row, which leaves its degrees, its zeros and the
    normalised RatFn r_j / t_j unchanged; the law is r_j(e x) / (W D)
    over t_j(e x).
    """
    pts = [(rat(x), rat(y)) for x, y in points]
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("x-values must be distinct")
    m = len(pts)
    if m < 2:
        return None
    nodes, e = integer_numerators([x for x, _ in pts])
    node_poly, interp, scale = _interpolant(nodes, [y for _, y in pts])
    rows = _euclid_rows(node_poly, interp)
    for total in range(0, m - 1):
        for dn in range(total, -1, -1):
            # len(p) - 1 is the degree of p, -1 for the zero polynomial
            r, t = next(row for row in rows if len(row[0]) <= dn + 1)
            if len(t) <= total - dn + 1 and all(
                    _homogeneous(t, x, 1, len(t) - 1) for x in nodes):
                return RatFn(PolyQ(_dilate(r, e, scale)), PolyQ(_dilate(t, e, 1)))
    return None


def _interpolant(nodes: list[int], ys: list[Fraction]) -> tuple[list[int], Sequence[int], int]:
    """(M, W D L, W D) on the distinct integer nodes X_i, as integer
    coefficient lists, lowest first and trimmed: M = prod (u - X_i), and
    L the polynomial of degree < m with L(X_i) = y_i, in Lagrange form

        W D L = sum_i Y_i (W / w_i) M / (u - X_i),

    with w_i = prod_{j != i} (X_i - X_j), W = lcm w_i, and y_i = Y_i / D
    over the common denominator D.  O(m^2) integer operations."""
    node_poly = [1]
    for x in nodes:
        node_poly = [a - x * b for a, b in zip([0] + node_poly, node_poly + [0])]
    weights = [math.prod(x - z for z in nodes if z != x) for x in nodes]
    big_w = math.lcm(*weights)
    nums, d = integer_numerators(ys)
    interp = [0] * len(nodes)
    for x, w, y in zip(nodes, weights, nums):
        if not y:
            continue
        c = y * (big_w // w)
        # M / (u - x) by synthetic division, from the top coefficient down
        q = 0
        for k in range(len(nodes), 0, -1):
            q = node_poly[k] + x * q
            interp[k - 1] += c * q
    return node_poly, _trim(interp), big_w * d


def _euclid_rows(a: Sequence[int], b: Sequence[int]) -> list[tuple[Sequence[int], Sequence[int]]]:
    """The rows (r_j, t_j), r_j = s_j a + t_j b, of the extended Euclidean
    algorithm on integer coefficient lists with deg b < deg a: from
    (a, 0) and (b, 1) down to the row with r_j = 0, in strictly
    decreasing deg r_j.  Each step is one pseudo-division,
    c r_{j-1} = q r_j + r_{j+1} with c a power of lc(r_j), and
    t_{j+1} = c t_{j-1} - q t_j, divided by the content of the row."""
    rows = [(a, []), (b, [1])]
    while rows[-1][0]:
        (r0, t0), (r1, t1) = rows[-2:]
        c, q, r = _pseudo_divmod(r0, r1)
        t = [c * v for v in t0] + [0] * (len(q) + len(t1) - 1 - len(t0))
        for i, qi in enumerate(q):
            if qi:
                for j, v in enumerate(t1):
                    t[i + j] -= qi * v
        t = _trim(t)
        g = math.gcd(*r, *t)
        rows.append(([v // g for v in r], [v // g for v in t]))
    return rows


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], Sequence[int]]:
    """(c, q, r) with c a = q b + r, deg r < deg b and c = lc(b)^k for
    the k steps that met a nonzero leading term."""
    lead, d = b[-1], len(b) - 1
    rem = list(a)
    quot = [0] * (len(a) - d)
    c = 1
    for i in range(len(a) - 1, d - 1, -1):
        top = rem[i]
        if not top:
            continue
        c *= lead
        quot = [lead * v for v in quot]
        quot[i - d] = top
        rem = [lead * v for v in rem[:i]]
        for j in range(d):
            rem[i - d + j] -= top * b[j]
    return c, quot, _trim(rem[:d])


def _dilate(p: Sequence[int], e: int, scale: int) -> list[Fraction]:
    """The coefficients of p(e x) / scale."""
    return [Fraction(c * e ** k, scale) for k, c in enumerate(p)]


# ---------------------------------------------------------------------------
# the guessing cascade


class GuessExpr(Slotted):
    """Nested-product closed form: `law` is the fitted rational law of the
    `level`-th successive-quotient sequence, and `initials[k]` is the
    first term of the k-th quotient sequence for k < level.

    parity is None for a guess on the full sequence, or 0/1 when the
    guess applies to the even-/odd-indexed subsequence only.
    """

    __slots__ = ("level", "initials", "law", "parity")

    def __init__(self, level: int, initials: tuple[Fraction, ...], law: RatFn,
                 parity: Optional[int] = None):
        self.level, self.initials, self.law, self.parity = level, initials, law, parity

    def evaluate(self, n: int) -> Fraction:
        """Value of the guessed sequence at 1-based position n."""
        if n < 1:
            raise ValueError("positions are 1-based")
        if self.level == 0:
            return self.law(Fraction(n))
        return self._prefix(n)[n - 1]

    def _prefix(self, count: int) -> list[Fraction]:
        """The first `count` terms, bottom-up in O(level * count): the law
        at positions 1..count - level, then at each level above the
        running products of the level below, from its initial term."""
        seq = [self.law(Fraction(i)) for i in range(1, count - self.level + 1)]
        for c in reversed(self.initials):
            out = [c]
            for v in seq:
                out.append(out[-1] * v)
            seq = out
        return seq[:count]

    def __str__(self):
        body = _ratfn_str(self.law, "k")
        if self.level == 0:
            s = f"n -> {_ratfn_str(self.law, 'n')}"
        else:
            s = body
            for k in range(self.level - 1, -1, -1):
                c = fmt_rat(self.initials[k])
                s = f"{c} * prod_(k<n) [{s}]"
            s = f"n -> {s}"
        if self.parity is not None:
            s += f"  (on the {'even' if self.parity == 0 else 'odd'}-position subsequence)"
        return s


def _ratfn_str(f: RatFn, var: str) -> str:
    num = _terms_str(f.num.coeffs, 0, var)
    if f.den == PolyQ.constant(1):
        return num
    return f"({num})/({_terms_str(f.den.coeffs, 0, var)})"


class ZeroTermError(ValueError):
    """A zero term blocks the successive-quotient levels."""


_MAX_LEVEL = 3


def rate_guess(terms: Sequence) -> list[GuessExpr]:
    """Try rational laws on the sequence and its successive-quotient
    towers up to level 3; return every accepted guess."""
    terms = [rat(t) for t in terms]
    out = _cascade(terms, None)
    if not out and len(terms) >= 6:
        # split-definition retry on the two parity subsequences
        for parity in (0, 1):
            sub = terms[parity::2]
            for g in _cascade(sub, parity):
                out.append(g)
    return out


def _cascade(terms: list[Fraction], parity) -> list[GuessExpr]:
    out = []
    seq = list(terms)
    initials: list[Fraction] = []
    for level in range(0, _MAX_LEVEL + 1):
        if len(seq) >= 2:
            law = fit_rational([(i, seq[i - 1]) for i in range(1, len(seq) + 1)])
            if law is not None:
                g = GuessExpr(level, tuple(initials), law, parity)
                # the law is evaluated only at its own fit points, so the
                # check meets no pole
                if g._prefix(len(terms)) == terms:
                    out.append(g)
        if level == _MAX_LEVEL:
            break
        if any(t == 0 for t in seq):
            if not out:
                raise ZeroTermError("zero term blocks successive-quotient levels")
            break
        if len(seq) < 2:
            break
        initials.append(seq[0])
        seq = [seq[i + 1] / seq[i] for i in range(len(seq) - 1)]
    return out


# ---------------------------------------------------------------------------
# determinant-polynomial interpolation


def lagrange_interpolate(points: Sequence[tuple]) -> PolyQ:
    """The polynomial of degree < len(points) through distinct points."""
    pts = [(rat(x), rat(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("x-values must be distinct")
    nodes, e = integer_numerators(xs)
    _, interp, scale = _interpolant(nodes, [y for _, y in pts])
    return PolyQ(_dilate(interp, e, scale))


def interpolate_det_poly(
    identity_id: str, fixed_params: dict, free_name: str, n: int, degree_bound: int
) -> PolyQ:
    """Exact determinant as a polynomial in one free parameter, by
    Lagrange interpolation on degree_bound + 1 integer sample points."""
    from . import catalog
    from .linalg import det

    points = []
    value = 0
    attempts = 0
    while len(points) < degree_bound + 1:
        attempts += 1
        if attempts > 10 * (degree_bound + 1) + 50:
            raise RuntimeError("sampling failure: too many out-of-domain points")
        params = dict(fixed_params)
        params[free_name] = Fraction(value)
        value += 1
        try:
            d = det(catalog.build_matrix(identity_id, n=n, **params))
        except ZeroDivisionError:
            continue  # the free parameter hit a pole of an entry
        points.append((params[free_name], d))
    return lagrange_interpolate(points)


# ---------------------------------------------------------------------------
# half-integer linear factors


def linear_factors(p: PolyQ, radius: int):
    """((root, multiplicity) list, cofactor): the roots of p among the
    half-integers k/2 with |k| <= 2 * radius, divided out of p.  The scan
    stays cheap when the coefficients have many bits, where a search over
    the divisors of the constant term would not."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    out = []
    for k in range(-2 * radius, 2 * radius + 1):
        r = Fraction(k, 2)
        mult = 0
        lin = PolyQ([-r, 1])
        while p(r) == 0:
            p, _ = p.divmod(lin)
            mult += 1
        if mult:
            out.append((r, mult))
    return out, p
