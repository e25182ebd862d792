"""Tests for the identity registry: ordering, serialization,
determinism, a sample of hand-checked instances, and the structural
verifiers."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detkit import catalog
from detkit.catalog import (UnknownIdentityError, build_matrix, closed_form,
                            condensation_recurrence_check, get_record,
                            identification_workflow_mrr, lu_vandermonde_check,
                            ode_method_check, registry_ids,
                            verify_goulden_jackson, verify_group_determinant,
                            verify_identity, verify_izergin_korepin,
                            verify_nc_suite, verify_okada, verify_strehl_wilf,
                            verify_turnbull)
from detkit.catalog.base import (ONE, IdentityRecord, Resample, Trial,
                                 VerifyReport, add, distinct_fracs, inv, mul,
                                 pair, power, prod, rand_frac, rand_nonzero,
                                 rand_q, rising, run_trial, run_trials, sub,
                                 trial_rng)
from detkit.catalog.sequences import _windows
from detkit.linalg import MatrixR, det
from entry_oracles import (_binomial_loop, _pochhammer_loop,
                           _q_factorial_loop, _q_int_formula, ab_entry,
                           abel_closed, abel_entry, andrews_closed,
                           anst_closed, anst_entry, banded_entry,
                           binomial_plus_diagonal_entry, borchardt_closed,
                           cauchy_closed, chu1_entry, chu2_entry, csp_closed,
                           csp_entry, descpp_closed, descpp_entry,
                           flha1_closed, flha1_entry, flha2_closed,
                           flha2_entry,
                           fukr2_closed, fukr2_entry, hankel_bernoulli_trial,
                           hankel_euler_trial, hermite_closed,
                           izergin_korepin_trial, krat1_closed,
                           krat2_closed, krat2a_closed, krat3_closed,
                           krat3a_closed, krat5_closed, krat6_closed,
                           krat7_closed, krat_entry, macmahon_closed, mrr_closed,
                           mrr_entry, mrr_r_entry, mrr_t_entry, okada_closed,
                           okada_entry, pentagon_closed, pentagon_entry,
                           poly_horner, poorten_closed, poorten_entry,
                           poorten_size, pp1_closed, pp1_entry, pp2_closed,
                           pp2_entry, pp3_closed, pp3_entry, pp4_closed,
                           pp4_entry, pp5_closed, pp5_entry, pp5a_closed,
                           pp5a_entry, pp6_closed, pp6_entry, qflha1_closed,
                           qflha1_entry, qflha2_closed, qflha2_entry,
                           qkrat_closed, qkrat_entry, qtsscpp1_closed,
                           qtsscpp1_entry, ratio_product_closed, rn_closed,
                           rn_entry, shifted_closed, shifted_entry,
                           tsscpp1_closed, tsscpp2_closed, vandermonde_closed,
                           vandermonde_entry, vdm_poly_closed, weyl_b_closed,
                           weyl_b_entry, weyl_c_closed, weyl_c_entry,
                           weyl_d_closed, weyl_d_entry, wronski_entry,
                           xbc_closed, xbc_entry, zagier_inv_closed,
                           zagier_maj_closed, zare1_closed)
from partition_oracles import (blocks_of, join_by_merging, labels_of,
                               meet_by_intersecting, refines)
from sampler_oracles import distinct_fracs as distinct_fracs_oracle
from sampler_oracles import sample_borchardt, sample_cauchy
from sequence_oracles import bell_poly_rec, hermite_poly
from series_oracles import compose_loop, inverse_loop, mul_loop, pow_loop


def test_registry_is_populated_and_ordered():
    ids = registry_ids()
    assert len(ids) == len(set(ids)) == 76
    assert ids[0] == "vandermonde"
    assert "macmahon" in ids and "izergin-korepin" in ids


def test_unknown_identity():
    with pytest.raises(UnknownIdentityError):
        get_record("nosuch")


def test_macmahon_hand_value():
    # [PAPER] a = b = 2, n = 2 evaluates to 20 on both sides
    m = build_matrix("macmahon", 2, a=2, b=2)
    assert det(m) == 20
    assert closed_form("macmahon", 2, a=2, b=2) == 20


def test_meander_hand_value():
    # [PAPER] n = 2 determinant is q^4 - q^2; 72 at q = 3
    report = verify_identity("meander", trials=1, seed=0, max_n=2)
    assert report.overall
    from detkit.combinat import components, nc_matchings
    from detkit.linalg import MatrixR
    matchings = nc_matchings(4)
    for q in (Fraction(3), Fraction(1, 2)):
        m = MatrixR.build(len(matchings), len(matchings),
                          lambda i, j: q ** components(matchings[i],
                                                       matchings[j]))
        assert det(m) == q ** 4 - q ** 2
    assert Fraction(3) ** 4 - Fraction(3) ** 2 == 72


def test_verify_identity_deterministic():
    r1 = verify_identity("cauchy", trials=3, seed=5)
    r2 = verify_identity("cauchy", trials=3, seed=5)
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())
    assert r1.overall


@pytest.mark.parametrize("trials", [0, -1])
def test_run_trials_rejects_an_empty_report(trials):
    message = f"^cauchy: requires trials >= 1, got {trials}$"
    with pytest.raises(ValueError, match=message):
        verify_identity("cauchy", trials=trials)
    with pytest.raises(ValueError, match=message):
        run_trials(get_record("cauchy"), 3, trials, 0)


def test_verify_identity_max_n_clamp():
    record = get_record("vandermonde")
    report = verify_identity("vandermonde", trials=2, seed=1, max_n=100)
    assert all(t.params["n"] <= record.max_n for t in report.trials)
    report = verify_identity("vandermonde", trials=2, seed=1, max_n=0)
    assert all(t.params["n"] >= record.min_n for t in report.trials)


@pytest.mark.parametrize("identity_id", ["krat6", "krat7"])
def test_run_trials_rejects_n_below_min_n(identity_id):
    # refused before any parameter draw; verify_identity clamps instead
    draws = []
    old = get_record(identity_id)
    record = IdentityRecord(old.id, lambda rng, n: draws.append(n), old.max_n, old.min_n,
                            old.builder, old.closed, old.sampler)
    for run in (lambda r: run_trials(r, 1, 1, 0),
                lambda r: run_trial(r, trial_rng(0, identity_id, 0), 1)):
        for r in (record, get_record(identity_id)):
            with pytest.raises(ValueError, match=f"^{identity_id}: requires n >= 2, got 1$"):
                run(r)
    assert draws == []
    report = verify_identity(identity_id, trials=1, seed=0, max_n=1)
    assert report.overall and report.trials[0].params["n"] == 2


def test_report_serialization_schema():
    report = verify_identity("weyl-c", trials=2, seed=3)
    d = report.to_json_dict()
    assert set(d) >= {"id", "trials", "overall"}
    for t in d["trials"]:
        assert set(t) == {"params", "lhs", "rhs", "pass", "micros"}
        assert t["micros"] is None  # deterministic serialization
    json.dumps(d)  # must be JSON-clean


def test_report_check_compares_exactly():
    report = VerifyReport("check")
    report.check({"n": 1}, Fraction(2, 4), Fraction(1, 2))
    report.check({"n": 2}, [1, 2], [1, 3])
    assert [(t.params, t.lhs, t.rhs, t.ok, t.micros) for t in report.trials] == [
        ({"n": 1}, Fraction(1, 2), Fraction(1, 2), True, None),
        ({"n": 2}, [1, 2], [1, 3], False, None)]


# sha256 of each report's sorted-key JSON, as its trials were built one by one
HAND_BUILT_REPORTS = {
    "group-maj": (lambda: verify_group_determinant("maj", 4, Fraction(2, 5), with_spectrum=True),
                  "9930f23d35964cf1513454ed62bb39689753a2a1a51f9754192830d0d448cff9"),
    "nc-suite": (lambda: verify_nc_suite(4, Fraction(1, 3)),
                 "c0b663dc665573ce5bacb77e9e99af7f049548af64ffa2b0b694e34d43bf808e"),
    "okada": (lambda: verify_okada(4, Fraction(1, 2)),
              "a7b054be478126573006fa53597d4dc8ed42da769f9ce8a1825159fff1294862"),
    "condensation": (lambda: condensation_recurrence_check(2, 3, 5),
                     "56d6a709a12ee0e6cc70a30e02b7edc51add1ccd8e61646bf3385f6125b8dce1"),
    "ode-method": (lambda: ode_method_check(4, 2),
                   "b46b6d6e4cdef536e8c33582581cd42b5d5a527734f201d971ebe98e3acc49d8"),
    "lu-vandermonde": (lambda: lu_vandermonde_check(6, [Fraction(i + 1, 2) for i in range(6)]),
                       "769f603d0532c2e88691ec23f61d49079c23c70bc7c78debd179d54c056f333f"),
    "identification-mrr": (lambda: identification_workflow_mrr(4),
                           "555045ecd6a59f550ee2e2d7d598016971e33d64308c03c0db01aaa2f0ced276"),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_REPORTS))
def test_structural_and_method_reports_are_pinned(name):
    build, digest = HAND_BUILT_REPORTS[name]
    text = json.dumps(build().to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("identity_id", [
    "vandermonde", "cauchy", "borchardt", "macmahon", "krat1", "abel",
    "qkrat", "mrr", "hankel-bernoulli", "circulant", "zagier-maj",
    "nc-suite", "okada", "izergin-korepin",
])
def test_spot_verification(identity_id):
    report = verify_identity(identity_id, trials=2, seed=17)
    assert report.overall, report.to_json_dict()


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("identity_id", ["gordon-even", "gordon-odd"])
def test_gordon_pfaffians_above_cap(identity_id, n):
    # the Pfaffian side is 2n x 2n (even) or (2n+2) x (2n+2) (odd), past
    # the 2n <= 12 expansion oracles
    for t in range(2):
        trial = run_trial(get_record(identity_id), trial_rng(3, identity_id, t), n)
        assert trial.ok, trial.to_json_dict()


def test_gordon_windows_match_direct_sums():
    g = [Fraction(k * k - 7, k + 2) for k in range(9)]
    w = _windows(g)
    assert len(w) == len(g)
    for t in range(len(g)):
        assert w[t] == sum((g[abs(a)] for a in range(-t + 1, t + 1)), Fraction(0))


# ---------------------------------------------------------------------------
# structural verifiers


def test_group_determinants():
    for q in (Fraction(1, 2), Fraction(-1, 3)):
        for kind in ("inv", "maj"):
            assert verify_group_determinant(kind, 3, q).overall


def _perm_det_matrix_per_entry(n, q, kind):
    """The group matrix with the statistic and the power recomputed for
    every entry: the oracle for the table-built one."""
    from detkit.combinat import all_perms, perm_compose, perm_invert, perm_stat
    perms = all_perms(n)
    return MatrixR.build(len(perms), len(perms), lambda i, j: q ** perm_stat(
        perm_compose(perms[i], perm_invert(perms[j])), kind))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.sampled_from(["inv", "maj"]),
       st.fractions(min_value=-3, max_value=3, max_denominator=9))
def test_perm_det_matrix_matches_per_entry(n, kind, q):
    from detkit.catalog.structured import _perm_det_matrix
    assert _perm_det_matrix(n, q, kind) == _perm_det_matrix_per_entry(n, q, kind)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["inv", "maj"])
def test_stat_table_matches_direct_composition(n, kind):
    # the cached table of stat(sigma pi^-1), built once per (n, kind)
    from detkit.catalog.structured import _stat_table
    from detkit.combinat import all_perms, perm_compose, perm_invert, perm_stat
    perms = all_perms(n)
    assert _stat_table(n, kind) == tuple(
        perm_stat(perm_compose(s, perm_invert(p)), kind) for s in perms for p in perms)
    assert _stat_table(n, kind) is _stat_table(n, kind)


@pytest.mark.parametrize("check, message", [
    (lambda n: verify_group_determinant("maj", n, Fraction(1, 2)), "group-maj"),
    (lambda n: verify_group_determinant("inv", n, Fraction(1, 2)), "group-inv"),
    (lambda n: verify_okada(n, Fraction(1, 3)), "okada"),
    (lambda n: ode_method_check(n, 2), "ode-method"),
    (lambda n: lu_vandermonde_check(n, []), "lu-vandermonde")],
    ids=["group-maj", "group-inv", "okada", "ode-method", "lu-vandermonde"])
@pytest.mark.parametrize("n", [0, -1, -2])
def test_unseeded_checks_reject_n_below_one(check, message, n):
    with pytest.raises(ValueError, match=f"^{message}: requires n >= 1, got {n}$"):
        check(n)


def test_maj_spectrum():
    report = verify_group_determinant("maj", 3, Fraction(2, 5),
                                      with_spectrum=True)
    assert report.overall


def test_inv_spectrum_is_refused_before_the_matrix_is_built(monkeypatch):
    from detkit.catalog import structured

    def never_built(*args):
        raise AssertionError("the group matrix was built")
    monkeypatch.setattr(structured, "_perm_det_matrix", never_built)
    with pytest.raises(ValueError, match="only stated for kind='maj'"):
        verify_group_determinant("inv", 3, Fraction(2, 5), with_spectrum=True)


def test_nc_suite_and_okada():
    assert verify_nc_suite(3, Fraction(1, 2)).overall
    report = verify_okada(3, Fraction(1, 3))
    assert report.overall
    assert "conjecture-consistent" in report.notes


def test_turnbull_goulden_jackson_strehl_wilf():
    assert verify_turnbull(3, 4, seed=2).overall
    assert verify_goulden_jackson(3, trunc=16, seed=2).overall
    assert verify_strehl_wilf(3, trunc=16, seed=2).overall


@pytest.mark.parametrize("n, trunc", [(4, 16), (6, 18), (7, 21), (8, 24)])
def test_strehl_wilf_checks_what_it_claims(n, trunc):
    # up to an 8 x 8 Laplace expansion of series;
    # the determinant is known on exponents 0..trunc - n, so each trial
    # compares enough coefficients to refute a doubled right-hand side
    report = verify_strehl_wilf(n, trunc)
    assert report.overall and len(report.trials) == 3
    for t in report.trials:
        assert (t.lhs.valuation, t.lhs.order) == (0, trunc - n + 1)
        assert t.lhs != 2 * t.rhs


def _least_upper_bounds(ground):
    """lub[i][j], the index of the least partition in ground (blocks)
    above both ground[i] and ground[j], read off the refinement table."""
    up = [{k for k, c in enumerate(ground) if refines(p, c)} for p in ground]
    lub = []
    for i in range(len(ground)):
        lub.append([])
        for j in range(len(ground)):
            above = up[i] & up[j]
            [least] = [k for k in above if above <= up[k]]
            lub[i].append(least)
    return lub


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattice_det_matches_full_build(n):
    # the cached upper-triangle tables against all m^2 entries from meets
    # built block by block and joins read off the refinement tables, for
    # every (ground set, meet/join) pair that nc-suite uses
    from detkit.catalog.structured import _lattice_det
    from detkit.combinat import enumerate_partitions, join_blocks, meet_blocks
    part_labels, nc_labels = enumerate_partitions(n), enumerate_partitions(n, True)
    parts = [blocks_of(p) for p in part_labels]
    ncs = [blocks_of(p) for p in nc_labels]
    full_lub, nc_lub = _least_upper_bounds(parts), _least_upper_bounds(ncs)
    at = [parts.index(p) for p in ncs]
    cases = [
        ("meet-full", part_labels, meet_blocks,
         [[len(meet_by_intersecting(a, b)) for b in parts] for a in parts]),
        ("join-full", part_labels, join_blocks,
         [[len(parts[k]) for k in row] for row in full_lub]),
        ("meet-nc", nc_labels, meet_blocks,
         [[len(meet_by_intersecting(a, b)) for b in ncs] for a in ncs]),
        ("join-nc", nc_labels, lambda a, b: join_blocks(a, b, "noncrossing"),
         [[len(ncs[k]) for k in row] for row in nc_lub]),
        ("join-full-over-nc", nc_labels, join_blocks,
         [[len(parts[full_lub[i][j]]) for j in at] for i in at]),
    ]
    for _, labels, blocks, counts in cases:
        assert [[blocks(a, b) for b in labels] for a in labels] == counts
    for q in (Fraction(2, 3), Fraction(-5, 2)):
        for name, labels, _, counts in cases:
            m = len(labels)
            full = MatrixR.build(m, m, lambda i, j: q ** counts[i][j])
            assert _lattice_det(n, q, name) == det(full)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cached_block_counts_match_every_pair(n):
    # each cached table against meet_blocks/join_blocks on every ordered
    # pair of its ground set, the lower triangle included
    from detkit.catalog.structured import _block_counts
    from detkit.combinat import (enumerate_partitions, join_blocks, meet_blocks,
                                 nc_matchings)
    full, nc = enumerate_partitions(n), enumerate_partitions(n, True)
    tables = {
        "meet-full": (full, meet_blocks),
        "join-full": (full, join_blocks),
        "meet-nc": (nc, meet_blocks),
        "join-nc": (nc, lambda a, b: join_blocks(a, b, "noncrossing")),
        "join-full-over-nc": (nc, join_blocks),
        "matchings": (nc_matchings(2 * n), join_blocks),
    }
    for name, (ground, blocks) in tables.items():
        m, counts = _block_counts(n, name)
        assert m == len(ground)
        assert counts == tuple(blocks(a, b) for a in ground for b in ground)
        assert _block_counts(n, name) is _block_counts(n, name)
    # meet-nc and join-full-over-nc are read from the full tables at the
    # positions of the noncrossing labels among the full ones
    at = [full.index(p) for p in nc]
    for name, whole in (("meet-nc", "meet-full"), ("join-full-over-nc", "join-full")):
        m, counts = _block_counts(n, whole)
        assert _block_counts(n, name)[1] == tuple(counts[i * m + j] for i in at for j in at)


def _assert_block_counts(a, b, join):
    # a and b are block labels; join is the blocks of their full-lattice
    # join from an independent oracle
    from detkit.combinat import join_blocks, join_labels, meet_blocks
    assert meet_blocks(a, b) == len(meet_by_intersecting(blocks_of(a), blocks_of(b)))
    assert join_blocks(a, b) == len(join)
    assert blocks_of(join_labels(a, b)) == join


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_counts_match_built_meet_and_join(n):
    from detkit.combinat import enumerate_partitions
    labels = enumerate_partitions(n)
    parts = [blocks_of(p) for p in labels]
    lub = _least_upper_bounds(parts)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            _assert_block_counts(a, b, parts[lub[i][j]])


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(1, 7))
    pair = []
    for _ in range(2):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        pair.append(labels_of(n, blocks_of(labels)))
    return pair


@settings(max_examples=300)
@given(partition_pairs())
def test_block_counts_match_built_meet_and_join_to_7(pair):
    a, b = pair
    _assert_block_counts(a, b, join_by_merging(blocks_of(a), blocks_of(b)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_factored_columns_match_per_entry_products(n):
    # the running integer prefix/suffix products against each entry's
    # products recomputed from scratch on Fractions
    import random
    from detkit.catalog.base import distinct_fracs, prod
    from detkit.catalog.classical import _factored_columns
    rng = random.Random(n)
    X = distinct_fracs(rng, n, nonzero=True)
    A, B, a, b = (distinct_fracs(rng, n - 1) for _ in range(4))
    C = Fraction(3, 5)

    def forms(x):
        return (x, 1), (C / x, -1)

    def f(x, u):
        return (x + u) * (C / x - u)

    def col_factor(x):
        return [((x ** j + C).numerator, (x ** j + C).denominator) for j in range(n)]

    for m in range(2, n + 1):
        def entry(i, j):
            x, c = X[i], j + 1
            up, lo = (A, B) if c < m else (a, b)
            return (prod(f(x, up[s - 2]) for s in range(c + 1, n + 1))
                    * prod(f(x, lo[s - 2]) for s in range(2, c + 1))
                    * (x ** j + C))
        got = _factored_columns(n, X, forms, A, B, (m, a, b), col_factor)
        _assert_entries(got, n, entry)
    upper_only = MatrixR.build(
        n, n, lambda i, j: prod(f(X[i], A[s - 2]) for s in range(j + 2, n + 1)))
    _assert_entries(_factored_columns(n, X, forms, A), n, lambda i, j: upper_only[i, j])


def _goja_sides_per_entry(rng, n, trunc):
    """The Goulden-Jackson trial on the Fraction-loop series, with
    H_j^(-i) inverted and G_i(H_j) composed for every entry."""
    from detkit.exactnum import PolyQ, TruncSeries
    fs, hs, gs = [], [], []
    for _ in range(n):
        fs.append(TruncSeries(0, [rand_frac(rng) for _ in range(trunc)], trunc))
        hs.append(TruncSeries(
            1, [rand_nonzero(rng)] + [rand_frac(rng) for _ in range(trunc - 2)],
            trunc))
        gs.append(PolyQ([rand_frac(rng) for _ in range(4)]))

    def fh(i, j):
        return mul_loop(fs[j], pow_loop(inverse_loop(hs[j]), i))

    def entry_lhs(i, j):
        g_of_h = compose_loop(TruncSeries.from_poly(gs[i], trunc), hs[j])
        return mul_loop(fh(i, j), g_of_h).constant_term()

    def entry_rhs(i, j):
        return fh(i, j).constant_term() * gs[i].coeff(0)

    return (det(MatrixR.build(n, n, entry_lhs)),
            det(MatrixR.build(n, n, entry_rhs)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_goja_shared_inverse_powers_match_per_entry(n):
    from detkit.catalog.structured import _goja_sides
    for t in range(2):
        _, lhs, rhs = _goja_sides(trial_rng(5, "goja", t), n, 12)
        assert (lhs, rhs) == _goja_sides_per_entry(trial_rng(5, "goja", t), n, 12)


def _assert_entries(m, n, entry):
    # the shape first: the entry loop only reads m's own rows and columns
    assert (m.rows, m.cols) == (n, n)
    assert all(type(m[i, j]) is Fraction and m[i, j] == entry(i, j)
               for i in range(m.rows) for j in range(m.cols))


@pytest.mark.parametrize("m", range(5))
def test_tsscpp2_builder_matches_banded_entries(m):
    # the prefix-sum differences against each entry's signed binomial sum,
    # over cells with lo < hi and lo > hi, and lo == hi (3(i - j) = m)
    # where 3 divides m
    kinds = set()
    for x in range(5):
        for n in range(1, 14):
            got = build_matrix(f"tsscpp2-m{m}", n, x=x)
            _assert_entries(got, n, lambda i, j: banded_entry(m, x, i, j))
            for i in range(n):
                for j in range(n):
                    lo, hi = x + 2 * i - j, x + m + 2 * j - i
                    kinds.add((lo > hi) - (lo < hi))
    assert kinds == ({-1, 0, 1} if m % 3 == 0 else {-1, 1})


@pytest.mark.parametrize("identity_id, poly", [("hankel-bell", bell_poly_rec),
                                               ("hankel-hermite", hermite_poly)])
def test_moment_hankel_builders_match_per_entry(identity_id, poly):
    for x in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(5, 4), Fraction(-9, 5)):
        for n in range(1, 10):
            got = build_matrix(identity_id, n, x=x)
            _assert_entries(got, n, lambda i, j: poly_horner(poly(i + j), x))


def test_qflha1_builder_matches_per_entry():
    # sampled parts, X, C and q, and one block of n columns with C = 0,
    # where [C+i-t+1]_q reaches [0]_q and [-1]_q
    from detkit.catalog.multiblock import _columns
    record = get_record("qflha1")
    for n in range(1, 13):
        draws = [record.sampler(trial_rng(3, "qflha1", t), n) for t in range(3)]
        draws.append({"parts": (n,), "X": (Fraction(-2, 3),), "C": 0, "q": Fraction(1, 2)})
        for params in draws:
            cols = _columns(params["parts"])
            got = record.builder(n, **params)
            _assert_entries(got, n, lambda i, j: qflha1_entry(
                i, *cols[j], params["X"], params["C"], params["q"]))


def test_wronski_builder_matches_divided_differences():
    # the integer Newton tables over each block's common denominator
    # against Fraction divided differences of the PolyQ values
    record = get_record("wronski")
    for seed in range(10):
        for n in range(1, 9):
            params = record.sampler(trial_rng(seed, "wronski", 0), n)
            want = MatrixR.build(n, n, lambda i, j: wronski_entry(i, j, **params))
            _assert_entries(record.builder(n, **params), n, lambda i, j: want[i, j])


ENTRY_ORACLES = {
    "anst": anst_entry, "qkrat": qkrat_entry, "qtsscpp1": qtsscpp1_entry,
    "pp5": pp5_entry, "chu2": chu2_entry, "mrr": mrr_entry, "rn": rn_entry,
    "chu1": chu1_entry, "ab": ab_entry, "andrews": binomial_plus_diagonal_entry(1),
    "zare1": binomial_plus_diagonal_entry(-1), "pentagon": pentagon_entry,
    "bombieri-xbc": xbc_entry, "pp3": pp3_entry, "pp1": pp1_entry, "pp2": pp2_entry,
    "shifted": shifted_entry, "pp5a": pp5a_entry, "pp4": pp4_entry(1),
    "pp4a": pp4_entry(0), "pp6": pp6_entry(1), "pp6a": pp6_entry(2),
    "csp": csp_entry, "descpp": descpp_entry, "vandermonde": vandermonde_entry,
    "weyl-c": weyl_c_entry, "weyl-b": weyl_b_entry(-1), "weyl-b2": weyl_b_entry(1),
    "weyl-d": weyl_d_entry, "flha1": flha1_entry, "flha2": flha2_entry,
    "qflha2": qflha2_entry, "abel": abel_entry,
    "fukr2": fukr2_entry,
}
ENTRY_ORACLE_IDS = ("krat1", "krat2", "krat2a", "krat3", "krat3a", "krat5",
                    "krat6", "krat7", *ENTRY_ORACLES)
# the samplers whose fixed ranges end above some n ("range too small")
RANGE_CAPPED = ("pp1", "pp2", "pp3", "shifted", "pp5a")


def _oracle_size(identity_id, n, params):
    """The order of the matrix: b + c for bombieri-xbc, n otherwise."""
    return params["b"] + params["c"] if identity_id == "bombieri-xbc" else n


def _oracle_matrix(identity_id, n, params):
    if identity_id.startswith("krat"):
        return MatrixR.build(
            n, n, lambda i, j: krat_entry(identity_id, n, i, j, **params))
    if identity_id == "fukr2":  # its entries depend on n
        params = {**params, "n": n}
    size, entry = _oracle_size(identity_id, n, params), ENTRY_ORACLES[identity_id]
    return MatrixR.build(size, size, lambda i, j: entry(i, j, **params))


# the draws of the samplers that refuse poles, without the refusal
UNREFUSED_DRAWS = {
    "chu2": lambda rng, n: {"c": rand_frac(rng)},
    "anst": lambda rng, n: {"x": rand_nonzero(rng, lo=-5, hi=5, max_den=3),
                            "E": rand_nonzero(rng, lo=-5, hi=5, max_den=3),
                            "q": rand_q(rng, 7)},
    "bombieri-xbc": lambda rng, n: {"b": n, "c": rng.randint(0, n), "x": rand_frac(rng)},
    "cauchy": lambda rng, n: {"X": distinct_fracs(rng, n), "Y": distinct_fracs(rng, n)},
}


def _oracle_draws(identity_id):
    """240 draws, seed s at n = min_n + s % (13 - min_n): every n from
    min_n to 12 about equally often.  chu2 and anst draw without their
    samplers' refusal, so that draws on which the entries divide by zero
    occur."""
    record = get_record(identity_id)
    draw = UNREFUSED_DRAWS.get(identity_id, record.sampler)
    for seed in range(240):
        n = record.min_n + seed % (13 - record.min_n)
        try:
            params = draw(trial_rng(seed, identity_id, 0), n)
        except ValueError:  # "range too small"
            assert identity_id in RANGE_CAPPED and n > 6
            continue
        yield n, params


def _built_or_raised(build):
    try:
        return build()
    except ZeroDivisionError:
        return ZeroDivisionError


def _raised_against_oracle(identity_id, draws):
    """How many of the draws raise ZeroDivisionError, asserting that the
    builder and the oracle both raise it or build equal entries, each a
    Fraction."""
    record = get_record(identity_id)
    raised = 0
    for n, params in draws:
        got = _built_or_raised(lambda: record.builder(n, **params))
        want = _built_or_raised(lambda: _oracle_matrix(identity_id, n, params))
        assert (got is ZeroDivisionError) == (want is ZeroDivisionError), (n, params)
        if want is ZeroDivisionError:
            raised += 1
        else:
            _assert_entries(got, _oracle_size(identity_id, n, params),
                            lambda i, j: want[i, j])
    return raised


@pytest.mark.parametrize("identity_id", ENTRY_ORACLE_IDS)
def test_builder_matches_entry_oracle(identity_id):
    raised = _raised_against_oracle(identity_id, _oracle_draws(identity_id))
    # anst's and chu2's draws reach zero divisors; the others' never do
    assert (raised > 0) == (identity_id in ("anst", "chu2"))


def _edge_draws(identity_id):
    """The draws of seeds 0-5 at n = min_n..8 with q (r for pp6 and pp6a)
    set to 1, -1 and 0, or with the first X (t for weyl-b and weyl-b2)
    set to 0."""
    record = get_record(identity_id)
    for seed in range(6):
        for n in range(record.min_n, 9):
            try:
                params = record.sampler(trial_rng(seed, identity_id, 0), n)
            except ValueError:  # "range too small"
                continue
            key = next(k for k in ("q", "r", "X", "t") if k in params)
            if key in ("q", "r"):
                yield from ((n, {**params, key: Fraction(v)}) for v in (1, -1, 0))
            else:
                yield n, {**params, key: (Fraction(0),) + tuple(params[key][1:])}


EDGE_IDS = ("pp1", "pp2", "shifted", "pp5a", "pp4", "pp4a", "pp6", "pp6a", "csp",
            "descpp", "qflha2", "weyl-c", "weyl-d", "weyl-b", "weyl-b2")


@pytest.mark.parametrize("identity_id", EDGE_IDS)
def test_builder_matches_entry_oracle_at_edges(identity_id):
    # at q = 1 (binomials), q = -1 (vanishing q-binomial denominators),
    # q = 0 (q-binomials and negative powers divide by 0) and at a zero X
    # (negative powers divide by 0): the builder and its oracle both
    # raise ZeroDivisionError or both build equal Fraction entries
    raised = _raised_against_oracle(identity_id, _edge_draws(identity_id))
    # qflha2 reads no q-binomial and no negative power, so none divides by 0
    assert (raised > 0) == (identity_id != "qflha2")


def _drawn(sampler, rng, n):
    """The sampled parameters, Resample, or the message of a refused n."""
    try:
        return sampler(rng, n)
    except Resample:
        return Resample
    except ValueError as exc:
        return ValueError, str(exc)


@pytest.mark.parametrize("sampler, oracle", [
    (get_record("cauchy").sampler, sample_cauchy),
    (get_record("borchardt").sampler, sample_borchardt),
    (distinct_fracs, distinct_fracs_oracle),
    (lambda rng, n: distinct_fracs(rng, n, nonzero=True),
     lambda rng, n: distinct_fracs_oracle(rng, n, nonzero=True)),
    (lambda rng, n: distinct_fracs(rng, n, lo=1),
     lambda rng, n: distinct_fracs_oracle(rng, n, lo=1))])
def test_samplers_draw_as_their_fraction_set_oracles(sampler, oracle):
    # sets keyed by (numerator, denominator) accept and refuse exactly
    # the draws that sets of Fractions did, with the same generator calls
    for seed in range(50):
        for n in range(1, 17):
            new, old = trial_rng(seed, "sampler", n), trial_rng(seed, "sampler", n)
            assert _drawn(sampler, new, n) == _drawn(oracle, old, n), (seed, n)
            assert new.getstate() == old.getstate()


CLOSED_FORM_ORACLES = {
    "anst": anst_closed, "pp5": pp5_closed, "qkrat": qkrat_closed,
    "qtsscpp1": qtsscpp1_closed, "vandermonde": vandermonde_closed,
    "vandermonde-poly": vdm_poly_closed, "weyl-c": weyl_c_closed,
    "weyl-b": weyl_b_closed(-1), "weyl-b2": weyl_b_closed(1),
    "weyl-d": weyl_d_closed, "cauchy": cauchy_closed, "krat1": krat1_closed,
    "krat2": krat2_closed, "krat2a": krat2a_closed, "krat3": krat3_closed,
    "krat3a": krat3a_closed, "krat5": krat5_closed, "krat6": krat6_closed,
    "krat7": krat7_closed, "borchardt": borchardt_closed,
    "pp1": pp1_closed, "pp2": pp2_closed, "shifted": shifted_closed, "pp5a": pp5a_closed,
    "pp3": pp3_closed, "abel": abel_closed, "zare1": zare1_closed,
    "hankel-hermite": hermite_closed, "mrr": mrr_closed, "rn": rn_closed,
    "pp4": pp4_closed(1), "pp4a": pp4_closed(0), "pp6": pp6_closed(1),
    "pp6a": pp6_closed(2), "csp": csp_closed, "descpp": descpp_closed,
    "flha1": flha1_closed, "flha2": flha2_closed, "qflha1": qflha1_closed,
    "qflha2": qflha2_closed, "macmahon": macmahon_closed,
    "krat-xy": ratio_product_closed(0), "tsscpp1": tsscpp1_closed,
    "pentagon": pentagon_closed, "andrews": andrews_closed, "fukr2": fukr2_closed,
    "bombieri-xbc": xbc_closed,
    **{f"tsscpp2-m{m}": tsscpp2_closed(m) for m in range(5)},
}


def _value_or_raised(evaluate):
    try:
        return evaluate()
    except Exception as exc:  # the oracle's exception type is the expectation
        return type(exc)


@pytest.mark.parametrize("identity_id", sorted(CLOSED_FORM_ORACLES))
def test_closed_form_matches_per_factor_oracle(identity_id):
    # every draw of seeds 0-9 at n = min_n..12 (cauchy's and anst's
    # without their samplers' refusal; pp1's, pp2's, pp3's, shifted's and
    # pp5a's up to the n at which their samplers' ranges end, borchardt's
    # up to its permanent's cap and without the draws it refuses), a
    # q-family's also at q = 1 and q = -1 (pp6's at r = 1 and r = -1): the
    # same value and a Fraction, or the same exception type; and some draw
    # gives a nonzero value, so that no broken factor hides behind 0 = 0
    record = get_record(identity_id)
    oracle = CLOSED_FORM_ORACLES[identity_id]
    draw = UNREFUSED_DRAWS.get(identity_id, record.sampler)
    nonzero = False
    for seed in range(10):
        for n in range(record.min_n, 13):
            params = _value_or_raised(lambda: draw(trial_rng(seed, identity_id, 0), n))
            if params is ValueError:  # "range too small", "permanent capped at n <= 9"
                assert ((identity_id in ("pp1", "pp2", "pp3", "shifted", "pp5a") and n > 6)
                        or (identity_id == "borchardt" and n > 9))
                continue
            if params is Resample:  # some x_i = y_j
                assert identity_id == "borchardt"
                continue
            key = next((k for k in ("q", "r") if k in params), None)
            variants = [params] if key is None else [
                {**params, key: v} for v in (params[key], Fraction(1), Fraction(-1))]
            for at in variants:
                want = _value_or_raised(lambda: oracle(n, **at))
                got = _value_or_raised(lambda: record.closed(n, **at))
                assert got == want and type(got) is type(want), (seed, n, at)
                assert isinstance(want, type) or type(want) is Fraction
                nonzero = nonzero or (type(want) is Fraction and want != 0)
    assert nonzero


TRIAL_ORACLES = {"hankel-euler": hankel_euler_trial,
                 "hankel-bernoulli": hankel_bernoulli_trial,
                 "izergin-korepin": izergin_korepin_trial}


def _types(sides):
    return [[type(v) for v in side] if isinstance(side, tuple) else type(side)
            for side in sides]


@pytest.mark.parametrize("identity_id", sorted(TRIAL_ORACLES))
def test_trial_matches_oracle(identity_id):
    # seeds 0-9 at n = min_n..max_n + 2: the same params, and each side the
    # same in value and in type, or the same exception type
    record = get_record(identity_id)
    oracle = TRIAL_ORACLES[identity_id]
    drawn = False
    for seed in range(10):
        for n in range(record.min_n, record.max_n + 3):
            want = _value_or_raised(lambda: oracle(trial_rng(seed, identity_id, 0), n))
            got = _value_or_raised(lambda: record.trial(trial_rng(seed, identity_id, 0), n))
            if isinstance(want, type):
                assert got is want, (seed, n)
                continue
            assert got == want and _types(got) == _types(want), (seed, n)
            drawn = True
    assert drawn


@pytest.mark.parametrize("name", ["zagier-inv", "zagier-maj", "okada"])
def test_structural_closed_forms_match_per_factor_oracle(name):
    from detkit.catalog.structured import _GROUP_CLOSED, _closed_okada
    closed, oracle = {"zagier-inv": (_GROUP_CLOSED["inv"], zagier_inv_closed),
                      "zagier-maj": (_GROUP_CLOSED["maj"], zagier_maj_closed),
                      "okada": (_closed_okada, okada_closed)}[name]
    for n in range(1, 8):
        for q in (Fraction(1, 2), Fraction(-3, 5), Fraction(7, 3), 0, 1, -1, 2):
            want = _value_or_raised(lambda: oracle(n, q))
            got = _value_or_raised(lambda: closed(n, q))
            assert got == want and type(got) is type(want), (n, q)
            assert isinstance(want, type) or type(want) is Fraction


def test_prod_of_no_factors_ints_and_zeros():
    assert prod([]) == 1 and type(prod([])) is Fraction
    assert prod([2, -3]) == -6 and type(prod([2, -3])) is Fraction
    assert prod(iter([(3, 4), 0, Fraction(5, 7)])) == 0
    assert prod([(3, -4), Fraction(2, 9), 6, (5, 7)]) == Fraction(-5, 7)
    # a numerator past the 4300-digit int-string limit still gives
    # ZeroDivisionError, not the ValueError of printing it
    for zero_den in ([inv((0, 3))], [(1, 2), power((0, 5), -2)], [0, (7, 0)],
                     [Fraction(1, 3), inv(sub((2, 3), (4, 6)))], [10 ** 5000, (1, 0)]):
        with pytest.raises(ZeroDivisionError):
            prod(zero_den)


def test_factor_kinds_match_fraction_arithmetic():
    import math
    from detkit.catalog.base import (differences, one_minus, over_pairs, q_factorials,
                                     q_prod)
    from detkit.exactnum import _one_minus_power
    values = [Fraction(-7, 3), Fraction(5, 4), Fraction(2), Fraction(-1, 9),
              Fraction(0), 3, "-4/6"]
    for x, y in itertools.product(values, repeat=2):
        (px, py), (fx, fy) = (pair(x), pair(y)), (Fraction(x), Fraction(y))
        assert prod([sub(px, py)]) == fx - fy
        assert prod([add(px, py)]) == fx + fy
        assert prod([mul(px, py)]) == fx * fy
        if fy:
            assert prod([sub(ONE, mul(px, inv(py)))]) == 1 - fx / fy
    for x in values:
        for e in range(-3, 4):
            if Fraction(x) or e >= 0:
                assert prod([power(pair(x), e)]) == Fraction(x) ** e
    xs = [pair(v) for v in values]
    assert list(over_pairs(lambda u, v: (u, v), xs)) == [
        (xs[i], xs[j]) for i in range(len(xs)) for j in range(i + 1, len(xs))]
    assert prod(differences(xs)) == math.prod(
        Fraction(values[j]) - Fraction(values[i])
        for i in range(len(values)) for j in range(i + 1, len(values)))
    for q in (Fraction(2, 7), Fraction(-3, 5), Fraction(1), Fraction(-1), Fraction(4)):
        for e in range(-6, 7):
            assert prod([_one_minus_power(q.numerator, q.denominator, e)]) == 1 - q ** e
        assert _value_or_raised(lambda: q_prod(
            q, [-3, 4, *q_factorials([5, 0, 7])], q_factorials([2, 1, 3]), (2, 3))
        ) == _value_or_raised(
            lambda: Fraction(2, 3) * _q_int_formula(-3, q) * _q_int_formula(4, q)
            * _q_factorial_loop(5, q) * _q_factorial_loop(7, q)
            / (_q_factorial_loop(2, q) * _q_factorial_loop(3, q)))
        assert _value_or_raised(lambda: q_prod(
            q, one_minus([2, 5, 4]), one_minus([3, 1, -2]), 5)) == _value_or_raised(
            lambda: 5 * (1 - q ** 2) * (1 - q ** 5) * (1 - q ** 4)
            / ((1 - q ** 3) * (1 - q) * (1 - q ** -2)))
    with pytest.raises(ValueError, match="negative integer -1"):
        q_prod(Fraction(1, 2), [], q_factorials([-1]))
    with pytest.raises(ZeroDivisionError):
        q_prod(Fraction(1), one_minus([2]), one_minus([3]))


def _q_factor(key, q):
    """The q_prod factor of a test key, in Fraction arithmetic: an int e is
    [e]_q, a pair (e, a) is 1 - a q^e."""
    if isinstance(key, int):
        return _q_int_formula(key, q)
    e, a = key
    return 1 - a * Fraction(q) ** e


def _q_factor_loop(q, over, under):
    out = Fraction(1)
    for key in over:
        out *= _q_factor(key, q)
    for key in under:
        out /= _q_factor(key, q)
    return out


_q_keys = st.one_of(
    st.integers(min_value=-3, max_value=5),
    st.tuples(st.integers(min_value=-3, max_value=5),
              st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                        st.fractions(min_value=-3, max_value=3, max_denominator=4))))


@settings(max_examples=400)
@given(st.lists(_q_keys, min_size=1, max_size=4).flatmap(lambda pool: st.tuples(
           st.lists(st.sampled_from(pool), max_size=8),
           st.lists(st.sampled_from(pool), max_size=8))),
       st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                 st.fractions(min_value=-3, max_value=3, max_denominator=5)))
def test_q_prod_counts_factors_as_the_fraction_loop(sides, q):
    # over and under draw from one small pool of keys, so that keys repeat
    # and the two sides share exponents: the net multiplicities give the
    # loop's value, a Fraction, or its exception type where a factor is 0
    # (e = 0, q = 1, q = -1 with e even) or undefined (e < 0 at q = 0)
    from detkit.catalog.base import one_minus, q_prod

    def keys(side):
        return [k if isinstance(k, int) else one_minus([k[0]], k[1])[0] for k in side]

    over, under = sides
    got = _value_or_raised(lambda: q_prod(q, keys(over), keys(under)))
    want = _value_or_raised(lambda: _q_factor_loop(q, over, under))
    assert got == want and type(got) is type(want)


Q_ONE_IDS = ("pp1", "pp2", "shifted", "pp4", "pp4a", "pp5", "pp6", "pp6a", "qflha1",
             "qflha2")


@pytest.mark.parametrize("identity_id", Q_ONE_IDS)
def test_q_families_match_their_determinants_at_q_1(identity_id):
    # at q = 1 (r = 1 for pp6 and pp6a) the q-integers are the integers
    # and the closed form is the classical one: det(builder) == closed on
    # seeds 0-4 at n = min_n..5
    record = get_record(identity_id)
    for seed in range(5):
        for n in range(record.min_n, 6):
            params = record.sampler(trial_rng(seed, identity_id, 0), n)
            params["r" if "r" in params else "q"] = Fraction(1)
            assert det(record.builder(n, **params)) == record.closed(n, **params), (seed, n)


def test_rising_matches_fraction_loop():
    # (a)_k for both signs of k against the loop: the same value, or
    # ZeroDivisionError where the loop's reciprocal product has a vanishing
    # factor (an integer a in 1..-k); the pair may be unreduced or carry its
    # sign on the denominator, as the other factor kinds' pairs may
    values = [Fraction(v, d) for v in range(-7, 8) for d in (1, 2, 3)]
    raised = 0
    for a in values:
        p, d = pair(a)
        for x in ((p, d), (3 * p, 3 * d), (-p, -d)):
            for k in range(-7, 8):
                try:
                    want = _pochhammer_loop(a, k)
                except ZeroDivisionError:
                    raised += 1
                    with pytest.raises(ZeroDivisionError):
                        prod([rising(x, k)])
                    continue
                num, den = rising(x, k)
                assert type(num) is int and type(den) is int
                assert prod([(num, den)]) == want, (x, k)
    assert raised


@pytest.mark.parametrize("identity_id", ["krat6", "krat7"])
def test_factored_column_switch_at_every_column(identity_id):
    record = get_record(identity_id)
    for n in range(2, 13):
        params = record.sampler(trial_rng(1, identity_id, n), n)
        for m in range(2, n + 1):
            params["m"] = m
            _assert_entries(record.builder(n, **params), n,
                            lambda i, j: krat_entry(identity_id, n, i, j, **params))


def test_krat3a_builder_reads_an_empty_coefficient_tuple_as_zero():
    params = {"X": (Fraction(1, 2), 2, -3), "A": (1, Fraction(-2, 3)),
              "polys": ((), (1,), (1, 2))}
    want = _oracle_matrix("krat3a", 3, params)
    _assert_entries(build_matrix("krat3a", 3, **params), 3, lambda i, j: want[i, j])
    assert all(want[i, 0] == 0 for i in range(3))


def test_pp5_draws_reach_zero_q_binomials():
    # the oracle draws hold cells with alpha < B, where [alpha choose B]_q
    # is 0, and none with alpha < 0
    cells = [(p["L"][i] + j + 1, p["L"][i] + p["A"] - j - 1, p["B"])
             for n, p in _oracle_draws("pp5") for i in range(n) for j in range(n)]
    assert any(min(a1, a2) < B for a1, a2, B in cells)
    assert min(min(a1, a2) for a1, a2, _ in cells) >= 0


@pytest.mark.parametrize("params", [
    {"L": (4, 2, 1), "A": 7, "B": 2, "q": 1},
    {"L": (4, 2, 1), "A": 7, "B": 1, "q": -1},
    {"L": (4, 2, 1), "A": 7, "B": 2, "q": -1},
    {"L": (4, 2, 1), "A": 7, "B": 2, "q": 0},
    {"L": (4, 2, 1), "A": 7, "B": -1, "q": Fraction(1, 2)},
    {"L": (2, 1, 0), "A": 2, "B": 2, "q": Fraction(1, 2)},
], ids=["q=1", "q=-1,B=1", "q=-1,B=2", "q=0", "B<0", "alpha<0"])
def test_pp5_builder_matches_entry_oracle_off_the_sampler(params):
    # inputs the sampler never draws: q = 1 (ordinary binomials), q = -1
    # and q = 0, B < 0 and alpha < 0 give the per-entry values or raise
    # as they do
    got = _built_or_raised(lambda: build_matrix("pp5", 3, **params))
    want = _built_or_raised(lambda: _oracle_matrix("pp5", 3, params))
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
    else:
        _assert_entries(got, 3, lambda i, j: want[i, j])


@pytest.mark.parametrize("identity_id", sorted(UNREFUSED_DRAWS))
def test_sampler_refuses_exactly_the_draws_that_divided_by_zero(identity_id):
    # the refusal comes after the draws, so the draws and the state of the
    # generator are the same as when the builder or closed form raised
    record = get_record(identity_id)
    refused = 0
    for seed in range(200):
        for n in range(1, 13):
            rng, raw = trial_rng(seed, identity_id, n), trial_rng(seed, identity_id, n)
            drawn = UNREFUSED_DRAWS[identity_id](raw, n)
            try:
                params = record.sampler(rng, n)
            except Resample:
                params = None
            assert rng.getstate() == raw.getstate()
            assert params in (None, drawn)
            sides = _built_or_raised(
                lambda: (record.builder(n, **drawn), record.closed(n, **drawn)))
            assert (params is None) == (sides is ZeroDivisionError), (seed, n, drawn)
            refused += params is None
    assert refused > 0


def test_no_det_record_raises_on_an_accepted_draw():
    # the sampler is the only place a trial may refuse its parameters:
    # building, det and the closed form never raise on a draw it accepted
    # (the first two trials of seeds 0..9, at every n up to one above the cap)
    for identity_id in registry_ids():
        record = get_record(identity_id)
        if record.sampler is None:
            continue
        for seed, t in itertools.product(range(10), range(2)):
            for n in range(record.min_n, record.max_n + 2):
                rng = trial_rng(seed, identity_id, t)
                for _ in range(200):
                    try:
                        params = record.sampler(rng, n)
                    except Resample:
                        continue
                    det(record.builder(n, **params))
                    record.closed(n, **params)
                    break
                else:
                    pytest.fail(f"{identity_id}: no accepted draw at n = {n}")


def test_run_trial_propagates_a_division_by_zero_instead_of_redrawing():
    draws = []

    def trial(rng, n):
        draws.append(rng.random())
        return {}, Fraction(1), Fraction(1) / 0

    record = IdentityRecord(id="divides-by-zero", trial=trial, max_n=3)
    with pytest.raises(ZeroDivisionError):
        run_trial(record, trial_rng(0, record.id, 0), 2)
    assert len(draws) == 1 and record.id not in registry_ids()


def _pairwise_sampler(rng, n, differ):
    """The cauchy/borchardt draw with repeats found by scanning a list
    and the condition checked pair by pair."""

    def distinct():
        out = []
        for _ in range(100 * n + 100):
            x = rand_frac(rng)
            if x not in out:
                out.append(x)
            if len(out) == n:
                return tuple(out)
        raise Resample
    for _ in range(200):
        X, Y = distinct(), distinct()
        if all(differ(x, y) for x in X for y in Y):
            return {"X": X, "Y": Y}
    raise Resample


@pytest.mark.parametrize("identity_id, differ", [
    ("cauchy", lambda x, y: x + y != 0), ("borchardt", lambda x, y: x - y != 0)],
    ids=["cauchy", "borchardt"])
def test_double_alternant_samplers_match_pairwise_checks(identity_id, differ):
    # the same draws and the same generator state afterwards; a refused
    # draw is redrawn from the same generator, as run_trial does
    record = get_record(identity_id)

    def redrawn(rng, n):
        for _ in range(200):
            try:
                return record.sampler(rng, n)
            except Resample:
                continue
        raise Resample
    for seed in range(20):
        for n in (1, 4, 8, 12):
            rng, ref = trial_rng(seed, identity_id, n), trial_rng(seed, identity_id, n)
            if identity_id == "borchardt" and n > 9:
                # refused before any draw, as its closed form's permanent is
                with pytest.raises(ValueError, match=r"^permanent capped at n <= 9$"):
                    redrawn(rng, n)
            else:
                assert redrawn(rng, n) == _pairwise_sampler(ref, n, differ)
            assert rng.getstate() == ref.getstate()


def test_chu2_trial_never_divides_by_zero():
    record = get_record("chu2")
    for seed in range(40):
        for n in range(1, 13):
            try:
                record.trial(trial_rng(seed, "chu2", n), n)
            except Resample:
                pass


def test_izergin_korepin():
    assert verify_izergin_korepin(3, seed=2).overall


@pytest.mark.parametrize("n", [6, 7])
def test_izergin_korepin_above_asm_enumeration(n):
    # the determinant and the row-transfer six-vertex sum are independent
    # sides; asm_enumerate stops at n = 5
    report = verify_izergin_korepin(n, seed=1)
    assert report.overall and len(report.trials) == 3


def test_izergin_korepin_budget_message():
    with pytest.raises(ValueError, match="row-transfer budget n <= 12"):
        verify_izergin_korepin(13)


def _seeded_loop(report_id, sides, n, seed):
    """Three seeded trials written out by hand, with no resampling: the
    oracle for the structural verifiers that run through run_trials."""
    report = VerifyReport(report_id)
    for t in range(3):
        params, lhs, rhs = sides(trial_rng(seed, report_id, t), n)
        report.trials.append(Trial({"n": n, **params}, lhs, rhs, lhs == rhs))
    return report.to_json_dict()


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structural_verifiers_match_seeded_loop(n, seed):
    from detkit.catalog.structured import (_goja_sides, _stwi_sides,
                                           _turnbull_sides)
    for m in range(n, 6):
        assert verify_turnbull(n, m, seed=seed).to_json_dict() == _seeded_loop(
            "turnbull", lambda rng, k: _turnbull_sides(rng, k, m), n, seed)
    assert verify_goulden_jackson(n, seed=seed).to_json_dict() == _seeded_loop(
        "goja", lambda rng, k: _goja_sides(rng, k, 16), n, seed)
    assert verify_strehl_wilf(n, seed=seed).to_json_dict() == _seeded_loop(
        "stwi", lambda rng, k: _stwi_sides(rng, k, 16), n, seed)
    assert (verify_izergin_korepin(n, seed).to_json_dict()
            == verify_identity("izergin-korepin", trials=3, seed=seed,
                               max_n=n).to_json_dict())


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("verify", [
    verify_izergin_korepin, verify_goulden_jackson, verify_strehl_wilf,
    lambda n: verify_turnbull(n, 3),
], ids=["izergin-korepin", "goja", "stwi", "turnbull"])
def test_structural_verifiers_reject_n_below_one(verify, n):
    with pytest.raises(ValueError, match="n >= 1|1 <= n"):
        verify(n)


def test_izergin_korepin_resampling_is_bounded(monkeypatch):
    from detkit.catalog import base

    def never_in_domain(rng, n):
        raise catalog.Resample

    old = get_record("izergin-korepin")
    record = IdentityRecord(old.id, never_in_domain, old.max_n, old.min_n,
                            old.builder, old.closed, old.sampler)
    monkeypatch.setitem(base.REGISTRY, "izergin-korepin", record)
    with pytest.raises(RuntimeError, match="after 200 samples"):
        verify_izergin_korepin(2, seed=0)


def test_condensation_check():
    assert condensation_recurrence_check(2, 3, 4).overall


def test_ode_method_check():
    assert ode_method_check(3, 2).overall


def test_lu_vandermonde_check():
    X = [Fraction(i + 1, 2) for i in range(5)]
    report = lu_vandermonde_check(5, X)
    assert report.overall
    # linalg.lu_decompose finds the guessed L and U, and the trial says so
    assert [t.params["check"] for t in report.trials] == [
        "M.U = L", "diagonal product", "lu_decompose"]
    lower, upper = report.trials[2].lhs
    assert lower == report.trials[0].rhs
    assert all(upper[i][i] == 1 and upper[i][0] == 0 for i in range(1, 5))
    for n in range(1, 7):
        assert lu_vandermonde_check(n, [Fraction(-3 * i + 1, i + 2) for i in range(n)]).overall
    with pytest.raises(ValueError):
        lu_vandermonde_check(2, [Fraction(1), Fraction(1)])


def _build_z_quadruple_sum(n, x, mu, nu):
    """Each entry of Z as the sum over t <= k of its binomial products:
    the oracle for the I + L R form."""
    def entry(i, j):
        out = Fraction(1) if i == j else Fraction(0)
        for t in range(n):
            for k in range(n):
                if k >= t:
                    out += (_binomial_loop(mu + i, t) * _binomial_loop(nu + k, k - t)
                            * _binomial_loop(mu + j - k - 1, j - k) * x ** (k - t))
        return out
    return MatrixR.build(n, n, entry)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 7),
       st.fractions(min_value=-5, max_value=5, max_denominator=7),
       st.fractions(min_value=-5, max_value=5, max_denominator=7),
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_build_z_matches_quadruple_sum(n, x, mu, nu):
    from detkit.catalog.binomsum import _build_z
    z = _build_z(n, x, mu, nu)
    assert z == _build_z_quadruple_sum(n, x, mu, nu)
    if n > 1:
        assert z.submatrix(range(n - 1), range(n - 1)) == _build_z(n - 1, x, mu, nu)


@pytest.mark.parametrize("n", range(1, 6))
def test_build_t_and_r_match_entry_oracles(n):
    # mrr-factor's T and R factors on rational and integer parameters
    from detkit.catalog.binomsum import _build_r, _build_t
    values = (Fraction(2, 3), Fraction(-7, 4), Fraction(5, 2), Fraction(-3), Fraction(0))
    for x, mu, nu in itertools.product(values, repeat=3):
        for build, entry in ((_build_t, mrr_t_entry), (_build_r, mrr_r_entry)):
            _assert_entries(build(n, x, mu, nu), n, lambda i, j: entry(i, j, x, mu, nu))


def test_okada_builder_matches_entry_oracle():
    # at q = 0 and q = -1 (for n >= 3) a q-binomial divides by zero, and
    # then both raise ZeroDivisionError
    from detkit.catalog.structured import _build_okada
    for n in range(1, 8):
        for q in (Fraction(1, 2), Fraction(-3, 5), Fraction(7, 3), 0, 1, -1, 2):
            got = _built_or_raised(lambda: _build_okada(n, q))
            want = _built_or_raised(
                lambda: MatrixR.build(n, n, lambda i, j: okada_entry(i, j, q)))
            assert (got is ZeroDivisionError) == (want is ZeroDivisionError), (n, q)
            if want is not ZeroDivisionError:
                _assert_entries(got, n, lambda i, j: want[i, j])


def test_poorten_matches_entry_and_closed_oracles():
    from detkit.catalog.lattice import _SMALL_PAIRS, _build_poorten, _closed_poorten
    for (N, l), x in itertools.product(_SMALL_PAIRS, (
            Fraction(2, 3), Fraction(-7, 4), Fraction(5), Fraction(-4), Fraction(0))):
        _assert_entries(_build_poorten(2, N, l, x), poorten_size(N, l),
                        lambda r, c: poorten_entry(r, c, N, l, x))
        got, want = _closed_poorten(2, N, l, x), poorten_closed(2, N, l, x)
        assert got == want and type(got) is type(want) is Fraction, (N, l, x)


@pytest.mark.parametrize("identity_id", ["mrr", "rn", "andrews"])
@pytest.mark.parametrize("mu", [-3, -5, 2])
def test_closed_form_at_integer_mu_matches_det(identity_id, mu):
    # at mu = -3 both sides of mrr, rn and andrews are 0 at n = 12: each
    # shifted factorial is its own product, not a ratio of two from one
    # table, which would read 0/0 there
    lhs = det(build_matrix(identity_id, 12, mu=mu))
    assert lhs == closed_form(identity_id, 12, mu=mu)


def test_build_z_leading_blocks():
    from detkit.catalog.binomsum import _build_z
    x, mu, nu = Fraction(2, 3), Fraction(-7, 4), Fraction(5, 2)
    z = _build_z(8, x, mu, nu)
    for m in range(1, 8):
        assert z.submatrix(range(m), range(m)) == _build_z_quadruple_sum(m, x, mu, nu)


def test_identification_workflow():
    report = identification_workflow_mrr(3)
    assert report.overall
