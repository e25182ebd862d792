"""Determinants indexed by combinatorial objects (permutations, set
partitions, noncrossing matchings, alternating sign matrices), the
minor-product identity for column brackets, and two formal-series
determinant lemmas.  Each family also gets a standalone verify_* entry
point returning a VerifyReport."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from ..combinat import (PosetData, all_perms, enumerate_partitions,
                        join_blocks, meet_blocks, nc_lattice, nc_matchings,
                        partition_lattice, perm_compose, perm_invert,
                        perm_stat, poset_char_poly, reciprocal_poly,
                        six_vertex_sum)
from ..exactnum import (PolyQ, TruncSeries, _one_minus_power, _q_binomial_pairs,
                        bell, binomial, chebyshev_u, compose_each, rat, stirling2)
from ..linalg import MatrixR, _det_laplace, char_poly, det
from .base import (ONE, IdentityRecord, Resample, VerifyReport, _vdm,
                   add, differences, distinct_fracs, get_record, inv, mul,
                   one_minus, pair, pair_matrix, pairs, power, prod, q_prod,
                   rand_frac, rand_nonzero, rand_q, register, run_trials, sub)


def _int_exp(e) -> int:
    e = Fraction(e)
    if e.denominator != 1:
        raise ValueError(f"non-integer exponent {e}")
    return e.numerator


def _int_partitions(n: int, max_part: int = None):
    """All partitions of n as descending tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _int_partitions(n - first, first):
            yield (first,) + rest


def _z_mu(mu) -> int:
    out = 1
    for part, mult in Counter(mu).items():
        out *= part ** mult * math.factorial(mult)
    return out


# ---------------------------------------------------------------------------
# group determinants on the symmetric group


@lru_cache(maxsize=None)
def _stat_table(n: int, kind: str) -> tuple[int, ...]:
    """stat(sigma pi^-1) for sigma, pi in S_n (all_perms order),
    row-major.  It does not depend on q, so each table is built once."""
    perms = all_perms(n)
    stat = {s: perm_stat(s, kind) for s in perms}
    inverses = [perm_invert(p) for p in perms]
    return tuple(stat[perm_compose(s, p)] for s in perms for p in inverses)


def _perm_det_matrix(n: int, q: Fraction, kind: str) -> MatrixR:
    """The group matrix (q^stat(sigma pi^-1)) over S_n, from the table of
    the statistic and one of the powers of q."""
    q = rat(q)
    table = _stat_table(n, kind)
    powers = [q ** k for k in range(max(table) + 1)]
    size = math.factorial(n)
    return MatrixR(size, size, [powers[k] for k in table])


def _closed_inv(n: int, q: Fraction) -> Fraction:
    p, d = pair(q)
    return prod(power(_one_minus_power(p, d, i * (i - 1)),
                      math.comb(n, i) * math.factorial(i - 2) * math.factorial(n - i + 1))
                for i in range(2, n + 1))


def _closed_maj(n: int, q: Fraction) -> Fraction:
    p, d = pair(q)
    return prod(power(_one_minus_power(p, d, i), math.factorial(n) * (i - 1) // i)
                for i in range(2, n + 1))


_GROUP_CLOSED = {"inv": _closed_inv, "maj": _closed_maj}


def _group_sides(n: int, q: Fraction, kind: str):
    """The symmetric-group determinant for the statistic `kind` at q, and
    its closed form."""
    return det(_perm_det_matrix(n, q, kind)), _GROUP_CLOSED[kind](n, q)


def _zagier_trial(kind):
    def trial(rng, n):
        q = rand_q(rng)
        return {"q": q}, *_group_sides(n, q, kind)
    return trial


register(IdentityRecord(id="zagier-inv", trial=_zagier_trial("inv"), max_n=4))
register(IdentityRecord(id="zagier-maj", trial=_zagier_trial("maj"), max_n=4))


def _maj_spectrum(n: int, q: Fraction) -> PolyQ:
    """prod over partitions mu of n of (lambda - e_mu)^(n!/z_mu) with
    e_mu = (q;q)_n / prod(1 - q^mu_i)."""
    out = PolyQ.constant(1)
    for mu in _int_partitions(n):
        factor = PolyQ([-q_prod(q, one_minus(range(1, n + 1)), one_minus(mu)), 1])
        for _ in range(math.factorial(n) // _z_mu(mu)):
            out = out * factor
    return out


def verify_group_determinant(kind: str, n: int, q, with_spectrum: bool = False) -> VerifyReport:
    """Check the symmetric-group determinant for the chosen statistic at
    one rational q; optionally also the full eigenvalue structure of the
    major-index matrix."""
    if kind not in _GROUP_CLOSED:
        raise ValueError("kind must be 'inv' or 'maj'")
    if n < 1:
        raise ValueError(f"group-{kind}: requires n >= 1, got {n}")
    if with_spectrum and kind != "maj":
        raise ValueError("spectrum check is only stated for kind='maj'")
    q = rat(q)
    lhs, closed = _group_sides(n, q, kind)
    report = VerifyReport(f"group-{kind}")
    report.check({"n": n, "q": q}, lhs, closed)
    if with_spectrum:
        cp = char_poly(_perm_det_matrix(n, q, kind))
        report.check({"n": n, "q": q, "check": "spectrum"}, cp, _maj_spectrum(n, q))
    return report


# ---------------------------------------------------------------------------
# meet/join determinants on partition lattices


def _dual(p: PosetData) -> PosetData:
    m = len(p.elements)
    h = p.height()
    leq = tuple(tuple(p.leq[j][i] for j in range(m)) for i in range(m))
    rank = tuple(h - r for r in p.rank)
    return PosetData(p.elements, leq, rank)


@lru_cache(maxsize=None)
def _chi_full(i: int) -> PolyQ:
    return poset_char_poly(partition_lattice(i))


@lru_cache(maxsize=None)
def _chi_full_dual_tilde(i: int) -> PolyQ:
    return reciprocal_poly(poset_char_poly(_dual(partition_lattice(i))))


@lru_cache(maxsize=None)
def _chi_nc(i: int) -> PolyQ:
    return poset_char_poly(nc_lattice(i))


# the ground set and the block count of each lattice determinant, by the
# name its check is reported under
_LATTICES = {
    "meet-full": (lambda n: enumerate_partitions(n), meet_blocks),
    "join-full": (lambda n: enumerate_partitions(n), join_blocks),
    "join-nc": (lambda n: enumerate_partitions(n, True),
                lambda a, b: join_blocks(a, b, "noncrossing")),
    "matchings": (lambda n: nc_matchings(2 * n), join_blocks),
}

# the noncrossing partitions are full partitions with the same labels, so
# these tables are sub-tables of a full one
_NC_RESTRICTIONS = {"meet-nc": "meet-full", "join-full-over-nc": "join-full"}


@lru_cache(maxsize=None)
def _block_counts(n: int, lattice: str) -> tuple[int, tuple[int, ...]]:
    """The size m of the lattice's ground set at size n and, row-major,
    the block count of each pair, at most n; a meet or a join commutes, so
    only the upper triangle is evaluated.  The counts do not depend on q,
    so each table is built once."""
    if lattice in _NC_RESTRICTIONS:
        full, counts = _block_counts(n, _NC_RESTRICTIONS[lattice])
        index = {p: i for i, p in enumerate(enumerate_partitions(n))}
        sub = [index[p] for p in enumerate_partitions(n, True)]
        return len(sub), tuple(counts[i * full + j] for i in sub for j in sub)
    ground, blocks = _LATTICES[lattice]
    parts = ground(n)
    m = len(parts)
    counts = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            counts[i][j] = counts[j][i] = blocks(parts[i], parts[j])
    return m, tuple(k for row in counts for k in row)


def _lattice_det(n: int, q: Fraction, lattice: str) -> Fraction:
    """det(q^{blocks(a, b)}) over the ground set of the named lattice; for
    "matchings", det(q^{components(a, b)}) over the noncrossing matchings
    of 2n points."""
    m, counts = _block_counts(n, lattice)
    q = pair(q)
    powers = [power(q, k) for k in range(n + 1)]
    return det(MatrixR.from_pairs([[powers[k] for k in counts[i:i + m]]
                                   for i in range(0, m * m, m)]))


_NC_SUITE_CHECKS = ("meet-full", "join-full", "meet-nc", "join-nc",
                    "join-full-over-nc")


def _nc_suite_sides(n: int, q: Fraction):
    lhs = tuple(_lattice_det(n, q, name) for name in _NC_SUITE_CHECKS)
    r1 = Fraction(1)
    r2 = Fraction(1)
    for i in range(1, n + 1):
        r1 *= ((q * _chi_full_dual_tilde(i)(q))
               ** (_int_exp(binomial(n, i)) * bell(n - i)))
        r2 *= (q * _chi_full(i)(q)) ** _int_exp(stirling2(n, i))
    r3 = q ** _int_exp(binomial(2 * n - 1, n))
    r4 = q ** _int_exp(binomial(2 * n, n) / (n + 1))
    for i in range(1, n + 1):
        e = _int_exp(binomial(2 * n - 1 - i, n - 1))
        chi = _chi_nc(i)
        r3 *= reciprocal_poly(chi)(q) ** e
        r4 *= chi(q) ** e
    return lhs, (r1, r2, r3, r4)


def _tutte_rhs(n: int, r: Fraction) -> Fraction:
    """The full-lattice-join determinant over noncrossing partitions at
    q = r^2 (so sqrt(q) = r is rational)."""
    q = r * r
    out = q ** _int_exp(binomial(2 * n - 1, n))
    for i in range(1, n):
        base = chebyshev_u(i + 1)(r / 2) / (q * chebyshev_u(i - 1)(r / 2))
        out *= base ** _int_exp(Fraction(i + 1, n) * binomial(2 * n, n - 1 - i))
    return out


def _nc_suite_trial(rng, n):
    r = rand_q(rng)
    q = r * r
    lhs, rhs4 = _nc_suite_sides(n, q)
    return {"q": q}, lhs, rhs4 + (_tutte_rhs(n, r),)


register(IdentityRecord(id="nc-suite", trial=_nc_suite_trial, max_n=4))


def _meander_rhs(n: int, q: Fraction) -> Fraction:
    def c(nn, h):
        return binomial(nn, (nn - h) // 2) - binomial(nn, (nn - h) // 2 - 1)
    return prod(chebyshev_u(i)(q / 2) ** _int_exp(c(2 * n, 2 * i) - c(2 * n, 2 * i + 2))
                for i in range(1, n + 1))


def _meander_trial(rng, n):
    q = rand_q(rng)
    return {"q": q}, _lattice_det(n, q, "matchings"), _meander_rhs(n, q)


register(IdentityRecord(id="meander", trial=_meander_trial, max_n=4))


def verify_nc_suite(n: int, q) -> VerifyReport:
    """All five meet/join determinants plus the matching-superposition
    determinant at one rational q (the full-join case is checked at q^2
    so its square root is rational)."""
    q = rat(q)
    report = VerifyReport("nc-suite")
    lhs, rhs4 = _nc_suite_sides(n, q * q)
    rhs = rhs4 + (_tutte_rhs(n, q),)
    for name, left, right in zip(_NC_SUITE_CHECKS, lhs, rhs):
        report.check({"n": n, "q": q * q, "check": name}, left, right)
    report.check({"n": n, "q": q, "check": "matchings"},
                 _lattice_det(n, q, "matchings"), _meander_rhs(n, q))
    return report


# ---------------------------------------------------------------------------
# the conjectured q-count determinant (numeric confirmation only)


def _build_okada(n, q):
    # one [alpha choose k]_q table per alpha = i + j - 2, i + j - 1
    tables = [_q_binomial_pairs(alpha, q, n) for alpha in range(2 * n)]
    q = pair(q)

    def entry(i, j):
        i, j = i + 1, j + 1
        t1 = mul(power(q, i + j - 1),
                 add(tables[i + j - 2](i - 1), mul(q, tables[i + j - 1](i))))
        if i == j:
            t1 = add(t1, add(ONE, power(q, i)))
        elif i == j + 1:
            t1 = sub(t1, ONE)
        return t1
    return pair_matrix(n, entry)


def _closed_okada(n, q):
    # prod_{i<=j<=k} ((1 - q^(s-1)) / (1 - q^(s-2)))^2 with s = i+j+k
    sums = [s for i in range(1, n + 1) for j in range(i, n + 1)
            for s in range(i + 2 * j, i + j + n + 1)]
    return q_prod(q, one_minus(s - 1 for s in sums * 2), one_minus(s - 2 for s in sums * 2))


def _okada_sides(n, q):
    return det(_build_okada(n, q)), _closed_okada(n, q)


def _okada_trial(rng, n):
    q = rand_q(rng)
    return {"q": q}, *_okada_sides(n, q)


register(IdentityRecord(id="okada", trial=_okada_trial, max_n=4,
                        builder=_build_okada, closed=_closed_okada))


def verify_okada(n: int, q) -> VerifyReport:
    if n < 1:
        raise ValueError(f"okada: requires n >= 1, got {n}")
    q = rat(q)
    lhs, rhs = _okada_sides(n, q)
    report = VerifyReport("okada", notes=("conjecture-consistent",))
    report.check({"n": n, "q": q}, lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# product of column-bracket minors


def _bracket(cols) -> Fraction:
    m = len(cols)
    return det(MatrixR.build(m, m, lambda r, c: cols[c][r]))


def _turnbull_sides(rng, n: int, m: int):
    a = {j: tuple(rand_frac(rng) for _ in range(m)) for j in range(2, m + 1)}
    b = {j: {k: tuple(rand_frac(rng) for _ in range(m))
             for k in range(1, j)} for j in range(2, n + 1)}
    x = {i: tuple(rand_frac(rng) for _ in range(m)) for i in range(1, n + 1)}

    def entry(i, j):
        i, j = i + 1, j + 1
        cols = [b[j][k] for k in range(1, j)] + [x[i]]
        cols += [a[t] for t in range(j + 1, m + 1)]
        return _bracket(cols)
    lhs = det(MatrixR.build(n, n, entry))
    rhs = _bracket([x[i] for i in range(1, n + 1)]
                   + [a[t] for t in range(n + 1, m + 1)])
    for j in range(2, n + 1):
        rhs *= _bracket([b[j][k] for k in range(1, j)]
                        + [a[t] for t in range(j, m + 1)])
    params = {"m": m, "a": a, "b": b, "x": x}
    return params, lhs, rhs


def _with_trial(identity_id: str, trial) -> IdentityRecord:
    """A one-off record: the registered record's id and sizes, with another
    trial."""
    record = get_record(identity_id)
    return IdentityRecord(record.id, trial, record.max_n, record.min_n)


def _turnbull_trial(rng, n):
    m = rng.randint(n, 5)
    return _turnbull_sides(rng, n, m)


register(IdentityRecord(id="turnbull", trial=_turnbull_trial, max_n=4))


def verify_turnbull(n: int, m: int, seed: int = 0) -> VerifyReport:
    if not (1 <= n <= 4 and n <= m <= 5):
        raise ValueError("requires 1 <= n <= 4 and n <= m <= 5")
    record = _with_trial("turnbull", lambda rng, n: _turnbull_sides(rng, n, m))
    return run_trials(record, n, 3, seed)


# ---------------------------------------------------------------------------
# constant-term determinant invariance


def _goja_sides(rng, n: int, trunc: int):
    fs, hs, gs = [], [], []
    for _ in range(n):
        fs.append(TruncSeries(
            0, [rand_frac(rng) for _ in range(trunc)], trunc))
        hs.append(TruncSeries(
            1, [rand_nonzero(rng)] + [rand_frac(rng) for _ in range(trunc - 2)],
            trunc))
        gs.append(PolyQ([rand_frac(rng) for _ in range(4)]))

    def ct(series) -> Fraction:
        return series.constant_term()

    # fh[i][j] = F_j * H_j^(-i), shared by both sides; each H_j is
    # inverted once
    invs = [h.inverse() for h in hs]
    pws = [inv.pow_int(0) for inv in invs]
    fh = []
    for i in range(n):
        if i:
            pws = [pw * inv for pw, inv in zip(pws, invs)]
        fh.append([f * pw for f, pw in zip(fs, pws)])
    # g_of_h[j][i] = G_i(H_j); the powers of each H_j are built once
    g_series = [TruncSeries.from_poly(g, trunc) for g in gs]
    g_of_h = [compose_each(g_series, h) for h in hs]

    def entry_lhs(i, j):
        return ct(fh[i][j] * g_of_h[j][i])

    def entry_rhs(i, j):
        return ct(fh[i][j]) * gs[i].coeff(0)

    lhs = det(MatrixR.build(n, n, entry_lhs))
    rhs = det(MatrixR.build(n, n, entry_rhs))
    params = {"F": fs, "H": hs, "G": gs}
    return params, lhs, rhs


def _goja_trial(rng, n):
    return _goja_sides(rng, n, 16)


register(IdentityRecord(id="goja", trial=_goja_trial, max_n=4))


def verify_goulden_jackson(n: int, trunc: int = 16, seed: int = 0) -> VerifyReport:
    if trunc < 4 * n:
        raise ValueError("trunc too small for exact constant terms")
    record = _with_trial("goja", lambda rng, n: _goja_sides(rng, n, trunc))
    return run_trials(record, n, 3, seed)


# ---------------------------------------------------------------------------
# derivative-power determinant


def _stwi_sides(rng, n: int, trunc: int):
    f = TruncSeries(
        0, [1, rand_nonzero(rng)] + [rand_frac(rng) for _ in range(trunc - 2)],
        trunc)
    a = sorted(rng.sample(range(-6, 7), n))
    u = f.derive() / f
    rows = [[TruncSeries.one(trunc)] * n]
    for _ in range(n - 1):
        prev = rows[-1]
        rows.append([a[j] * u * prev[j] + prev[j].derive()
                     for j in range(n)])
    # TruncSeries has zero divisors, so no elimination: Laplace
    # expansion with shared minors (n * 2^(n-1) series products), called
    # directly because det() takes only int/Fraction entries
    lhs = _det_laplace(MatrixR.from_rows(rows))
    rhs = u.pow_int(n * (n - 1) // 2) * _vdm(a)
    return {"f": f, "a": tuple(a)}, lhs, rhs


def _stwi_trial(rng, n):
    return _stwi_sides(rng, n, 16)


register(IdentityRecord(id="stwi", trial=_stwi_trial, max_n=4))


def verify_strehl_wilf(n: int, trunc: int = 16, seed: int = 0) -> VerifyReport:
    # for n >= 2 the determinant is known on exponents 0..trunc - n and the
    # right side on more, so trunc >= 3n compares at least 2n + 1
    # coefficients (at n = 1 both sides are the series 1)
    if trunc < 3 * n:
        raise ValueError(f"stwi: trunc = {trunc} is below 3n = {3 * n}, which "
                         "leaves fewer than 2n + 1 compared coefficients")
    record = _with_trial("stwi", lambda rng, n: _stwi_sides(rng, n, trunc))
    return run_trials(record, n, 3, seed)


# ---------------------------------------------------------------------------
# six-vertex partition function


def _izkor_sides(rng, n: int):
    q = rand_q(rng)
    vals = distinct_fracs(rng, 2 * n)
    x, y = vals[:n], vals[n:]
    if any(v == w or q * v == w for v in x for w in y):
        raise Resample
    lhs = det(MatrixR.build(
        n, n, lambda i, j: 1 / ((x[i] - y[j]) * (q * x[i] - y[j]))))
    qp, xp, yp = pair(q), pairs(x), pairs(y)
    rhs = prod(chain([(-1) ** (n * (n - 1) // 2), six_vertex_sum(x, y, q)],
                     differences(xp), differences(yp),
                     (inv(mul(sub(v, w), sub(mul(qp, v), w))) for v in xp for w in yp)))
    return {"q": q, "X": x, "Y": y}, lhs, rhs


register(IdentityRecord(id="izergin-korepin", trial=_izkor_sides, max_n=4))


# the row transfer keeps up to 2 C(n, n/2) states per column: about
# 0.1 s per trial at n = 12, five times that at n = 14
IZKOR_MAX_N = 12


def verify_izergin_korepin(n: int, seed: int = 0) -> VerifyReport:
    if n > IZKOR_MAX_N:
        raise ValueError(f"izergin-korepin: n = {n} is above the row-transfer "
                         f"budget n <= {IZKOR_MAX_N}")
    return run_trials(get_record("izergin-korepin"), n, 3, seed)
