"""Acceptance suite: the fourteen release gates, all exact (zero
tolerance)."""

import hashlib
import json
import random
import time
from fractions import Fraction

from detkit.catalog import (build_matrix, closed_form, lu_vandermonde_check,
                            ode_method_check, registry_ids,
                            verify_group_determinant, verify_identity,
                            verify_nc_suite, verify_okada)
from detkit.exactnum import asm_count, binomial, factorial
from detkit.guess import (interpolate_det_poly, lagrange_interpolate,
                          rate_guess)
from detkit.hankel import (JFraction, bernoulli_shifted_moments, hankel_det,
                           heilermann_product, jfraction_from_moments,
                           moments_from_jfraction)
from detkit.linalg import MatrixR, _det_laplace, det, pfaffian
from det_oracles import det_condensation

Q_SAMPLES = (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))


def test_01_registry_sweep():
    # every registry identity passes 5 seeded trials at its size cap,
    # well under the ten-minute budget
    start = time.monotonic()
    failures = []
    for identity_id in registry_ids():
        report = verify_identity(identity_id, trials=5, seed=42)
        if not report.overall:
            failures.append(identity_id)
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed < 600


def test_02_macmahon_instance():
    # [PAPER] a = b = 2, n = 2 gives exactly 20; cross-checked by the
    # permutation-expansion oracle
    m = build_matrix("macmahon", 2, a=2, b=2)
    assert det(m) == 20
    assert _det_laplace(m) == 20
    assert closed_form("macmahon", 2, a=2, b=2) == 20


def _bernoulli_shifted_closed(n: int) -> Fraction:
    # closed product for the order-n Hankel determinant of B_{k+2}
    out = Fraction(1, 6) * Fraction(-1) ** (n * (n - 1) // 2)
    for i in range(1, n):
        out *= Fraction(
            factorial(i) * factorial(i + 1) ** 4 * factorial(i + 2),
            factorial(2 * i + 2) * factorial(2 * i + 3))
    return out


def test_03_bernoulli_hankel():
    s = bernoulli_shifted_moments(12, shift=2)
    # [PAPER] n = 1 value is 1/6
    assert hankel_det(s, 1) == Fraction(1, 6)
    for n in range(1, 7):
        assert hankel_det(s, n) == _bernoulli_shifted_closed(n)


def test_04_jfraction_extraction():
    s = bernoulli_shifted_moments(12, shift=2)
    j = jfraction_from_moments(s, 6)
    assert j.mu0 == Fraction(1, 6)
    for i in range(1, 6):
        assert j.b[i - 1] == Fraction(
            -i * (i + 1) ** 2 * (i + 2), 4 * (2 * i + 1) * (2 * i + 3))
    assert j.b[0] == Fraction(-1, 5)


def test_05_heilermann_vs_hankel():
    rng = random.Random(1234)
    checked = 0
    while checked < 20:
        depth = rng.randint(2, 7)
        # nonzero b guarantees a nondegenerate moment sequence
        j = JFraction(
            Fraction(rng.randint(1, 9), rng.randint(1, 4)),
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(depth)),
            tuple(Fraction(rng.choice([-1, 1]) * rng.randint(1, 6))
                  for _ in range(depth - 1)))
        s = moments_from_jfraction(j, 2 * depth)
        for n in range(1, depth + 1):
            assert heilermann_product(j, n) == hankel_det(s, n)
        checked += 1


def test_06_pfaffian():
    rng = random.Random(77)
    for _ in range(50):
        n2 = 2 * rng.randint(1, 4)
        raw = [[Fraction(rng.randint(-6, 6)) for _ in range(n2)]
               for _ in range(n2)]
        m = MatrixR.build(
            n2, n2,
            lambda i, j: raw[i][j] if i < j
            else (-raw[j][i] if i > j else Fraction(0)))
        assert pfaffian(m) ** 2 == det(m)
    # both symmetric-sequence reductions, every size through 4
    for identity_id in ("gordon-even", "gordon-odd"):
        for n in range(1, 5):
            assert verify_identity(identity_id, trials=3, seed=6,
                                   max_n=n).overall


def test_07_desnanot_and_condensation():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randint(4, 6)
        m = MatrixR.from_rows(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 3))
              for _ in range(n)] for _ in range(n)])
        inner = list(range(1, n - 1))
        lhs = det(m) * det(m.submatrix(inner, inner))
        rhs = (det(m.submatrix(range(n - 1), range(n - 1)))
               * det(m.submatrix(range(1, n), range(1, n)))
               - det(m.submatrix(range(n - 1), range(1, n)))
               * det(m.submatrix(range(1, n), range(n - 1))))
        assert lhs == rhs
    for _ in range(50):
        n = rng.randint(1, 6)
        m = MatrixR.from_rows(
            [[Fraction(rng.randint(-9, 9)) for _ in range(n)]
             for _ in range(n)])
        assert det_condensation(m) == det(m)


def test_08_rate_guesser_asm():
    terms = [Fraction(x) for x in
             (1, 2, 7, 42, 429, 7436, 218348, 10850216)]
    guesses = rate_guess(terms)
    assert guesses
    for n in range(9, 13):
        assert guesses[0].evaluate(n) == asm_count(n)


def test_09_identification_workflow():
    for n in range(2, 9):
        m = build_matrix("mrr", n, mu=Fraction(-n))
        v = [binomial(n - 2, j - 1) for j in range(n)]
        assert all(c == 0 for c in m.mul_vector(v))
    for n in range(2, 5):
        bound = n * (n - 1) // 2
        p = interpolate_det_poly("mrr", {}, "mu", n, bound)
        rhs = lagrange_interpolate(
            [(Fraction(mu), closed_form("mrr", n, mu=Fraction(mu)))
             for mu in range(bound + 1)])
        assert p == rhs  # coefficientwise


def test_10_group_determinants():
    for n in range(1, 5):
        for q in Q_SAMPLES:
            for kind in ("inv", "maj"):
                assert verify_group_determinant(kind, n, q).overall
    # spectrum factorization at n = 3
    for q in Q_SAMPLES:
        assert verify_group_determinant("maj", 3, q,
                                        with_spectrum=True).overall


def test_11_nc_suite_meander_okada():
    for n in range(1, 5):
        for q in Q_SAMPLES:
            assert verify_nc_suite(n, q).overall
            report = verify_okada(n, q)
            assert report.overall
            assert "conjecture-consistent" in report.notes
        assert verify_identity("meander", trials=3, seed=8, max_n=n).overall
    # [PAPER] hand value at n = 2
    from detkit.combinat import components, nc_matchings
    matchings = nc_matchings(4)
    q = Fraction(3)
    m = MatrixR.build(len(matchings), len(matchings),
                      lambda i, j: q ** components(matchings[i], matchings[j]))
    assert det(m) == q ** 4 - q ** 2 == 72


def test_12_ode_method():
    for n in range(1, 6):
        report = ode_method_check(n, 2)
        assert report.overall
        by_check = {t.params["check"]: t for t in report.trials}
        assert by_check["dM/da = T.M"].ok
        assert by_check["trace"].ok


def test_13_lu_vandermonde():
    rng = random.Random(99)
    for n in range(1, 7):
        xs = set()
        while len(xs) < n:
            xs.add(Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
        assert lu_vandermonde_check(n, sorted(xs)).overall


def test_14_determinism():
    def snapshot():
        reports = [verify_identity(i, trials=3, seed=4242)
                   for i in registry_ids()[:10]]
        return json.dumps([r.to_json_dict() for r in reports])

    assert snapshot().encode() == snapshot().encode()
    # the 5-trial reports over all ids at seeds 42, 7 and 0, rendered as
    # `detkit verify --id all --trials 5 --seed S --format json` prints
    # them, are pinned
    pinned = {
        42: "e2a5ab1305adc06b5fd8dddf0989657a89eb6183c106078b6b7491bf67ae889a",
        7: "3a00e4944a7fa94d9c463fa7e7807acae91f5c39765d2e0d6ca5df05e11462c3",
        0: "6ff1f722791b4176e4fad1ff00f9ec1d61a5f0a6e93d267e342f4d865d151122",
    }
    for seed, digest in pinned.items():
        report = json.dumps([verify_identity(i, trials=5, seed=seed).to_json_dict()
                             for i in registry_ids()], indent=2)
        assert hashlib.sha256(report.encode()).hexdigest() == digest, seed
