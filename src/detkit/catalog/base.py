"""Registry infrastructure: identity records, deterministic sampling,
trial execution, and the JSON verification report."""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional

from ..exactnum import (PolyQ, _homogeneous, _one_minus_power, _q_int_pairs,
                        fmt_rat, integer_numerators, rat)
from ..linalg import MatrixR
from ..slotted import Slotted


class Resample(Exception):
    """Sampled parameters fell outside the record's domain; try again.
    Only draw code raises it, never a builder or a closed form."""


class UnknownIdentityError(KeyError):
    pass


# ---------------------------------------------------------------------------
# deterministic sampling helpers


def trial_rng(seed: int, identity_id: str, trial: int) -> random.Random:
    return random.Random(f"{seed}:{identity_id}:{trial}")


def rand_frac(rng, lo: int = -9, hi: int = 9, max_den: int = 5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_nonzero(rng, lo: int = -9, hi: int = 9, max_den: int = 5) -> Fraction:
    for _ in range(100):
        x = rand_frac(rng, lo, hi, max_den)
        if x != 0:
            return x
    raise Resample


def distinct_fracs(rng, count: int, nonzero: bool = False,
                   lo: int = -9) -> tuple[Fraction, ...]:
    # seen holds (numerator, denominator) keys: hashing a Fraction costs a
    # modular inverse
    out: list[Fraction] = []
    seen: set[tuple[int, int]] = set()
    if count == 0:
        return ()
    for _ in range(100 * count + 100):
        x = rand_frac(rng, lo)
        if nonzero and x == 0:
            continue
        key = x.numerator, x.denominator
        if key in seen:
            continue
        seen.add(key)
        out.append(x)
        if len(out) == count:
            return tuple(out)
    raise Resample


def rand_q(rng, max_den: int = 9) -> Fraction:
    """Small-denominator rational strictly inside (0, 1)."""
    den = rng.randint(2, max_den)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def _sample_mu(rng, n):
    return {"mu": rand_frac(rng)}


def decreasing_ints(rng, count: int, hi: int) -> tuple[int, ...]:
    """count distinct integers from 0..hi, largest first."""
    if hi + 1 < count:
        raise ValueError("range too small")
    vals = rng.sample(range(hi + 1), count)
    return tuple(sorted(vals, reverse=True))


def _ceil(a: int, b: int) -> int:
    """ceil(a / b) for integers, b > 0."""
    return -((-a) // b)


# ---------------------------------------------------------------------------
# closed forms as products of factors: the parameters become integer pairs
# (numerator, denominator) once, the factor kinds below (and exactnum's
# binomial, q-Pochhammer and q-binomial tables) build each factor as an
# unreduced pair, and `prod` (`q_prod` for q-products) multiplies them.


ONE = (1, 1)
ZERO = (0, 1)


def pair(value) -> tuple[int, int]:
    value = rat(value)
    return value.numerator, value.denominator


def pairs(values) -> list[tuple[int, int]]:
    return [pair(v) for v in values]


def inv(x):
    return x[1], x[0]


def sub(x, y):
    return x[0] * y[1] - y[0] * x[1], x[1] * y[1]


def add(x, y):
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def mul(x, y):
    return x[0] * y[0], x[1] * y[1]


def power(x, e: int):
    return (x[0] ** e, x[1] ** e) if e >= 0 else (x[1] ** -e, x[0] ** -e)


def rising(x, k: int):
    """The shifted factorial (x)_k = x(x+1)...(x+k-1), with the reciprocal
    convention (x)_(-m) = 1/((x-1)(x-2)...(x-m)); a vanishing factor of
    the reciprocal gives a zero denominator."""
    p, d = x
    if k >= 0:
        return math.prod(range(p, p + k * d, d)), d ** k
    return d ** -k, math.prod(range(p - d, p + (k - 1) * d, -d))


def prod(factors) -> Fraction:
    """The product of integer pairs, ints and Fractions as a Fraction (1
    for none; ZeroDivisionError for a zero denominator).  Pairs and ints
    multiply on one integer numerator and denominator, Fractions (such as
    the products of factor rows, where rows cancel) reduced."""
    out = Fraction(1)
    num = den = 1
    for f in factors:
        if f.__class__ is tuple:
            num *= f[0]
            den *= f[1]
        elif isinstance(f, int):
            num *= f
        else:
            out *= f
    if den == 0:  # Fraction's own message would print the numerator
        raise ZeroDivisionError("a factor's denominator is 0")
    return out if num == den == 1 else out * Fraction(num, den)


def pair_matrix(n: int, entry) -> MatrixR:
    """The n x n matrix of the integer pairs entry(i, j), by
    `MatrixR.from_pairs`."""
    return MatrixR.from_pairs([[entry(i, j) for j in range(n)] for i in range(n)])


def int_poly(coeffs, top: int = 0):
    """The polynomial sum coeffs[k] x^k as the triple (cs, d, bound): its
    integer coefficients cs over their common denominator d, and a degree
    bound of at least top; an empty tuple is the zero polynomial."""
    cs, d = integer_numerators([rat(c) for c in coeffs])
    return cs, d, max(len(cs) - 1, top)


def poly_pair(p, x):
    """The value of the `int_poly` p at the pair x = u/v, as the integer
    pair (sum c_k u^k v^(top-k), d v^top), by Horner's rule."""
    (cs, d, top), (u, v) = p, x
    return _homogeneous(cs, u, v, top), d * v ** top


def over_pairs(f, xs):
    """f(xs[i], xs[j]) for i < j."""
    return (f(xs[i], xs[j]) for i in range(len(xs)) for j in range(i + 1, len(xs)))


def q_factorials(ms) -> list[int]:
    """The `q_prod` keys of the q-factorials [m]_q!, m in ms: 1..m each."""
    ms = list(ms)
    if any(m < 0 for m in ms):
        raise ValueError(f"q-factorial of negative integer {next(m for m in ms if m < 0)}")
    return [k for m in ms for k in range(1, m + 1)]


def one_minus(es, a=1) -> list[tuple]:
    """The `q_prod` keys of 1 - a q^e, e in es, for a rational base a."""
    a = pair(a)
    return [(e, a) for e in es]


def q_prod(q, over, under=(), *factors) -> Fraction:
    """The factors times the q-factors keyed by over, over those keyed by
    under: an int e is the q-integer [e]_q, a `one_minus` key 1 - a q^e.
    Each distinct q-factor is built once, as an integer pair, and raised
    to its net multiplicity (over less under).  One that is 0 at q is not
    cancelled but enters as often as it occurs on each side, so that the
    product is 0 or raises ZeroDivisionError as the plain product does;
    one with a zero denominator (e < 0 at q = 0) raises ZeroDivisionError."""
    up, down = Counter(over), Counter(under)
    keys = up.keys() | down.keys()
    if not keys:  # q is not read
        return prod(factors)
    p, d = pair(q)
    q_int = _q_int_pairs(q, max((abs(k) for k in keys if k.__class__ is int), default=0))
    # with q = p/d, each q-factor is f / v^k for an integer pair f and v = d
    # (e >= 0) or p (e < 0); ks sums the powers of d and of p apart
    out, ks = list(factors), [0, 0]
    for key in keys:
        if key.__class__ is int:  # [e]_q = h_e / d^(e-1), [-m]_q = h_m d / (-p^m)
            e = key
            f, k = (q_int(e)[0], 1 if e >= 0 else -1), (e - 1 if e > 0 else -e)
        else:  # 1 - a q^e: _one_minus_power's numerator over ad v^|e|
            e, a = key
            f, k = (_one_minus_power(p, d, e, *a)[0], a[1]), abs(e)
        if e < 0 and not p:
            raise ZeroDivisionError(f"a q-factor's denominator is 0 at q = {fmt_rat(rat(q))}")
        c = up[key] - down[key]
        ks[e < 0] += k * c
        out += [power(f, c)] if f[0] else [power(f, up[key]), power(inv(f), down[key])]
    out += power((d, 1), -ks[0]), power((p, 1), -ks[1])
    return prod(out)


def differences(xs):
    """The factors xs[j] - xs[i], i < j, of the Vandermonde product."""
    return over_pairs(lambda u, v: sub(v, u), xs)


def _vdm(xs) -> Fraction:
    """The Vandermonde product prod_{i<j} (xs[j] - xs[i])."""
    return prod(differences(pairs(xs)))


# ---------------------------------------------------------------------------
# report types


def _ser(value):
    if isinstance(value, Fraction):
        return fmt_rat(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, PolyQ):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return [_ser(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _ser(v) for k, v in value.items()}
    return str(value)


class Trial(Slotted):
    __slots__ = ("params", "lhs", "rhs", "ok", "micros")
    __hash__ = None

    def __init__(self, params: dict, lhs, rhs, ok: bool, micros: Optional[int] = None):
        self.params, self.lhs, self.rhs, self.ok, self.micros = params, lhs, rhs, ok, micros

    def to_json_dict(self) -> dict:
        return {
            "params": _ser(self.params),
            "lhs": _ser(self.lhs),
            "rhs": _ser(self.rhs),
            "pass": self.ok,
            "micros": None,
        }


class VerifyReport(Slotted):
    __slots__ = ("id", "trials", "notes")
    __hash__ = None

    def __init__(self, id: str, trials: Optional[list[Trial]] = None,
                 notes: tuple[str, ...] = ()):
        self.id, self.notes = id, notes
        self.trials = [] if trials is None else trials

    @property
    def overall(self) -> bool:
        return all(t.ok for t in self.trials)

    def to_json_dict(self) -> dict:
        out = {
            "id": self.id,
            "trials": [t.to_json_dict() for t in self.trials],
            "overall": self.overall,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


# ---------------------------------------------------------------------------
# identity records


class IdentityRecord(Slotted):
    """One registry entry.

    `trial(rng, n) -> (params, lhs, rhs)` runs a single randomized check
    at size n, for min_n <= n <= max_n; its draw raises `Resample` when
    the drawn parameters are out of domain, and nothing after the draw
    does.
    `builder(n, **params)` and `closed(n, **params)` expose the LHS
    matrix and the RHS of a plain determinant evaluation; `sampler(rng, n)`
    is its parameter draw when `det_record` made the trial from the
    three. Each is None where it does not apply.
    """

    __slots__ = ("id", "trial", "max_n", "min_n", "builder", "closed", "sampler")

    def __init__(self, id: str, trial: Callable, max_n: int, min_n: int = 1,
                 builder: Optional[Callable] = None, closed: Optional[Callable] = None,
                 sampler: Optional[Callable] = None):
        self.id, self.trial, self.max_n, self.min_n = id, trial, max_n, min_n
        self.builder, self.closed, self.sampler = builder, closed, sampler


REGISTRY: dict[str, IdentityRecord] = {}


def register(record: IdentityRecord) -> IdentityRecord:
    if record.id in REGISTRY:
        raise ValueError(f"duplicate registry id {record.id!r}")
    REGISTRY[record.id] = record
    return record


def registry_ids() -> tuple[str, ...]:
    """All ids, in registration (= report) order."""
    return tuple(REGISTRY)


def get_record(identity_id: str) -> IdentityRecord:
    try:
        return REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None


def det_record(identity_id: str, sampler, builder, closed, max_n: int,
               min_n: int = 1) -> IdentityRecord:
    """Register a record whose trial draws params = sampler(rng, n) and
    checks det(builder(n, **params)) == closed(n, **params), with the
    default `linalg.det` dispatch."""
    from ..linalg import det

    def trial(rng, n):
        params = sampler(rng, n)
        lhs = det(builder(n, **params))
        rhs = closed(n, **params)
        return params, lhs, rhs

    return register(IdentityRecord(
        id=identity_id, trial=trial, max_n=max_n, min_n=min_n,
        builder=builder, closed=closed, sampler=sampler))


def run_trial(record: IdentityRecord, rng, n: int) -> Trial:
    """One check of the record at size n, refused before any parameter
    draw when n is below the record's min_n.  A draw refused with
    `Resample` is redrawn (at most 200 times); any other exception
    propagates."""
    if n < record.min_n:
        raise ValueError(f"{record.id}: requires n >= {record.min_n}, got {n}")
    start = time.perf_counter()
    for _ in range(200):
        try:
            params, lhs, rhs = record.trial(rng, n)
        except Resample:
            continue
        micros = int((time.perf_counter() - start) * 1e6)
        return Trial(params, lhs, rhs, lhs == rhs, micros)
    raise RuntimeError(f"{record.id}: no in-domain parameters after 200 samples")


def run_trials(record: IdentityRecord, n: int, trials: int, seed: int) -> VerifyReport:
    """The seeded checks of one record at size n: trial t draws from
    trial_rng(seed, record.id, t), and each trial's params start with n.
    A report must hold at least one trial."""
    if trials < 1:
        raise ValueError(f"{record.id}: requires trials >= 1, got {trials}")
    report = VerifyReport(record.id)
    for t in range(trials):
        trial = run_trial(record, trial_rng(seed, record.id, t), n)
        trial.params = {"n": n, **trial.params}
        report.trials.append(trial)
    return report


def verify_identity(identity_id: str, trials: int = 5, seed: int = 0,
                    max_n: int = None) -> VerifyReport:
    """Run `trials` randomized checks of one registry identity at its
    size cap (optionally lowered by max_n); exact comparison."""
    record = get_record(identity_id)
    n = record.max_n if max_n is None else min(record.max_n, max_n)
    return run_trials(record, max(n, record.min_n), trials, seed)


def build_matrix(identity_id: str, n: int, **params):
    record = get_record(identity_id)
    if record.builder is None:
        raise ValueError(f"{identity_id!r} has no plain matrix builder")
    return record.builder(n, **params)


def closed_form(identity_id: str, n: int, **params):
    record = get_record(identity_id)
    if record.closed is None:
        raise ValueError(f"{identity_id!r} has no closed-form evaluator")
    return record.closed(n, **params)
