"""Oracle and property tests for set partitions, lattices, Mobius
functions, permutation statistics, and alternating-sign matrices."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asm_oracles import num_neg, six_vertex_sum_enumerated, six_vertex_weight
from detkit.combinat import (_all_partitions, all_perms, asm_enumerate,
                             components, enumerate_partitions, join_blocks,
                             join_labels, meet_blocks, nc_lattice,
                             nc_matchings, partition_lattice, perm_compose,
                             perm_invert, perm_stat, poset_char_poly,
                             reciprocal_poly, six_vertex_sum)
from detkit.exactnum import PolyQ, asm_count
from partition_oracles import (blocks_of, canonical, is_noncrossing,
                               labels_of, meet_by_intersecting, refines)
from sequence_oracles import catalan


# ---------------------------------------------------------------------------
# set partitions


def test_partition_counts():
    # [TRIVIAL] Bell numbers 1, 1, 2, 5, 15, 52; Catalan for noncrossing
    assert [len(enumerate_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]
    for n in range(1, 6):
        assert len(enumerate_partitions(n, noncrossing_only=True)) == catalan(n)


@lru_cache(maxsize=None)
def _nc_by_filter(n: int, matchings_only: bool = False) -> tuple[tuple[int, ...], ...]:
    """Oracle: every set partition of {1..n} (perfect matchings only, if
    asked), kept when noncrossing, sorted by blocks, as block labels."""
    out = [canonical(blocks) for blocks in _all_partitions(n)
           if not matchings_only or all(len(b) == 2 for b in blocks)]
    return tuple(labels_of(n, p) for p in sorted(out) if is_noncrossing(p))


def test_noncrossing_enumeration_matches_filter():
    for n in range(1, 10):
        assert enumerate_partitions(n, noncrossing_only=True) == _nc_by_filter(n)


def test_enumerations_in_sorted_blocks_order():
    # each entry numbers its blocks by least element, and the entries are
    # distinct and sorted by their blocks, the order the lattice matrices
    # are eliminated in
    enumerations = ([enumerate_partitions(n) for n in range(1, 7)]
                    + [enumerate_partitions(n, True) for n in range(1, 9)]
                    + [nc_matchings(2 * n) for n in range(1, 6)])
    for parts in enumerations:
        blocks = [blocks_of(p) for p in parts]
        assert [labels_of(len(p), b) for p, b in zip(parts, blocks)] == list(parts)
        assert blocks == sorted(set(blocks))


def test_noncrossing_predicate():
    # {1,3}{2,4} is the minimal crossing pattern
    assert not is_noncrossing(((1, 3), (2, 4)))
    assert is_noncrossing(((1, 4), (2, 3)))


def test_meet_join_anchors():
    p = (0, 0, 1, 1)  # {1,2}{3,4}
    g = (0, 1, 0, 1)  # {1,3}{2,4}
    assert meet_blocks(p, g) == 4
    assert join_blocks(p, g) == 1
    join = blocks_of(join_labels(p, g))
    assert refines(blocks_of(p), join)
    assert refines(meet_by_intersecting(blocks_of(p), blocks_of(g)), blocks_of(p))
    # noncrossing join can be coarser than the full-lattice join
    a = (0, 1, 0, 2)  # {1,3}{2}{4}
    b = (0, 1, 2, 1)  # {1}{2,4}{3}
    assert join_blocks(a, b, lattice="full") == 2
    assert join_blocks(a, b, lattice="noncrossing") == 1


def test_nc_join_matches_least_upper_bound_search():
    # the least noncrossing partition above both, read off the refinement
    # table of NC(n), for every pair
    for n in range(1, 7):
        labels = _nc_by_filter(n)
        ncs = [blocks_of(p) for p in labels]
        up = [{k for k, c in enumerate(ncs) if refines(p, c)} for p in ncs]
        for i, p in enumerate(labels):
            for j, g in enumerate(labels):
                above = up[i] & up[j]
                [least] = [k for k in above if above <= up[k]]
                assert blocks_of(join_labels(p, g, "noncrossing")) == ncs[least]


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, catalan(n) - 1), st.integers(0, catalan(n) - 1))))
@settings(deadline=None)
def test_nc_join_matches_upper_bound_scan(case):
    n, i, j = case
    labels = _nc_by_filter(n)
    ncs = [blocks_of(p) for p in labels]
    p, g = ncs[i], ncs[j]
    above = [c for c in ncs if refines(p, c) and refines(g, c)]
    least = max(above, key=len)
    assert all(refines(least, c) for c in above)
    assert blocks_of(join_labels(labels[i], labels[j], "noncrossing")) == least


def test_components():
    a = (0, 0, 1, 1)  # {1,2}{3,4}
    b = (0, 1, 1, 2)  # {1}{2,3}{4}
    assert components(a, b) == 1
    assert components(a, a) == 2


# ---------------------------------------------------------------------------
# lattices and characteristic polynomials


def test_partition_lattice_structure():
    lat = partition_lattice(3)
    assert len(lat.elements) == 5
    assert lat.height() == 2
    zero = lat.minimum()
    mob = lat.mobius_from(zero)
    # [DERIVED] mu(0, 1) = (-1)^{n-1} (n-1)! = 2 for n = 3
    top = max(range(len(lat.elements)), key=lambda i: lat.rank[i])
    assert mob[top] == 2


def test_char_poly_partition_lattice():
    # [DERIVED] chi of the rank-2 partition lattice: (q-1)(q-2)
    assert poset_char_poly(partition_lattice(3)) == PolyQ([2, -3, 1])
    # falling factorial (q-1)...(q-n+1) in general
    expect = PolyQ([1])
    for k in range(1, 4):
        expect = expect * PolyQ([-k, 1])
    assert poset_char_poly(partition_lattice(4)) == expect


def test_char_poly_nc_lattice():
    # [DERIVED] noncrossing chi has Fuss-Catalan coefficients;
    # n = 3: q^2 - 3q + 2... differs from the full lattice first at n = 4
    nc4 = poset_char_poly(nc_lattice(4))
    full4 = poset_char_poly(partition_lattice(4))
    assert nc4.degree == full4.degree == 3
    assert nc4 != full4
    assert nc4(Fraction(1)) == 0


def test_reciprocal_poly():
    p = PolyQ([2, -3, 1])
    assert reciprocal_poly(p) == PolyQ([1, -3, 2])
    assert reciprocal_poly(reciprocal_poly(p)) == p


def test_nc_matchings():
    # [TRIVIAL] noncrossing perfect matchings are Catalan-many, up to the
    # 12-point cap
    assert [len(nc_matchings(2 * n)) for n in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    for m in nc_matchings(12):
        assert all(m.count(k) == 2 for k in set(m))
        assert is_noncrossing(blocks_of(m))


def test_nc_matchings_match_filter():
    for n2 in range(2, 11, 2):
        assert nc_matchings(n2) == _nc_by_filter(n2, matchings_only=True)


# ---------------------------------------------------------------------------
# permutation statistics


def test_perm_stats_anchors():
    s = (3, 1, 2)
    assert perm_stat(s, "inv") == 2
    assert perm_stat(s, "maj") == 1
    assert perm_stat((1, 2, 3), "inv") == 0
    with pytest.raises(Exception):
        perm_stat(s, "nonsense")


def test_perm_group_ops():
    perms = all_perms(3)
    assert len(perms) == 6
    for s in perms:
        assert perm_compose(s, perm_invert(s)) == (1, 2, 3)


def test_equidistribution_inv_maj():
    # [DERIVED] inv and maj are equidistributed over S_n
    for n in range(1, 5):
        inv_hist = sorted(perm_stat(s, "inv") for s in all_perms(n))
        maj_hist = sorted(perm_stat(s, "maj") for s in all_perms(n))
        assert inv_hist == maj_hist


@given(st.permutations(tuple(range(1, 5))))
def test_inv_invariant_under_inverse(s):
    s = tuple(s)
    assert perm_stat(s, "inv") == perm_stat(perm_invert(s), "inv")


# ---------------------------------------------------------------------------
# alternating sign matrices


def test_asm_counts():
    # [PAPER] 1, 2, 7, 42 with the product formula
    for n in range(1, 5):
        assert len(asm_enumerate(n)) == asm_count(n)


def test_asm_structure():
    for a in asm_enumerate(3):
        rows = a.entries
        for row in rows:
            assert sum(row) == 1
        for j in range(3):
            assert sum(row[j] for row in rows) == 1
    negs = sorted(num_neg(a) for a in asm_enumerate(3))
    assert negs == [0, 0, 0, 0, 0, 0, 1]


def test_six_vertex_weight_total():
    # [DERIVED] summing weights at q = 1 with generic spectral parameters
    # must reproduce a Cauchy-type double product (checked indirectly in
    # the identity registry); here just confirm weights are nonzero
    # rationals for distinct parameters
    X = [Fraction(2), Fraction(3)]
    Y = [Fraction(5), Fraction(7)]
    q = Fraction(1, 2)
    weights = [six_vertex_weight(a, X, Y, q) for a in asm_enumerate(2)]
    assert len(weights) == 2
    assert all(w != 0 for w in weights)
    assert six_vertex_sum(X, Y, q) == sum(weights)


_small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(_small_fracs, min_size=n, max_size=n),
    st.lists(_small_fracs, min_size=n, max_size=n),
    st.one_of(st.just(Fraction(1)), _small_fracs))))
def test_six_vertex_sum_matches_enumeration(xyq):
    # the row transfer against the sum of per-ASM weights; X_i = Y_j,
    # q = 0 and q = 1 are all in the drawn domain
    X, Y, q = xyq
    assert six_vertex_sum(X, Y, q) == six_vertex_sum_enumerated(X, Y, q)


@pytest.mark.parametrize("q", [Fraction(1), Fraction(3, 7), Fraction(-2)])
def test_six_vertex_sum_matches_enumeration_at_n5(q):
    X = [Fraction(k, 3) for k in (1, -4, 7, 2, -5)]
    Y = [Fraction(k, 2) for k in (3, 5, -1, -7, 9)]
    assert six_vertex_sum(X, Y, q) == six_vertex_sum_enumerated(X, Y, q)


def test_six_vertex_sum_counts_permutation_matrices():
    # [DERIVED] at q = 1 every -1 weighs (1-q)^2 X Y = 0 and every zero
    # weighs X_i - Y_j; with X_i - Y_j = 1 only the permutation matrices
    # are left, each of weight 1
    for n in range(1, 9):
        assert six_vertex_sum([1] * n, [0] * n, 1) == math.factorial(n)


def test_six_vertex_sum_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="same length"):
        six_vertex_sum([1, 2], [3], Fraction(1, 2))
