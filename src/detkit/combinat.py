"""Combinatorial ground sets for the structured determinants: set
partitions and the partition/noncrossing lattices, noncrossing perfect
matchings, permutation statistics, alternating sign matrices, and the
six-vertex partition function by row transfer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .exactnum import PolyQ, integer_numerators, rat
from .slotted import Slotted


# ---------------------------------------------------------------------------
# set partitions
#
# A partition of {1..n} is the tuple of its block labels: entry x - 1 is the
# index of the block of x, with the blocks numbered in order of their least
# elements.


def _all_partitions(n: int):
    if n == 0:
        yield []
        return
    for rest in _all_partitions(n - 1):
        yield rest + [[n]]
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [n]] + rest[i + 1 :]


@lru_cache(maxsize=None)
def _nc_blocks(lo: int, hi: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Noncrossing partitions of lo..hi as block tuples, the block of lo first.

    The block of lo is lo = a_0 < a_1 < ... < a_k.  Either lo is alone and
    lo+1..hi is partitioned freely, or the gap lo+1..a_1-1 and the partition
    of a_1..hi (whose first block, that of a_1, gains lo) are independent
    noncrossing partitions; recursing on a_1..hi splits off the later gaps
    and the tail after a_k the same way."""
    if lo > hi:
        return ((),)
    out = [((lo,),) + rest for rest in _nc_blocks(lo + 1, hi)]
    for a in range(lo + 1, hi + 1):
        tails = _nc_blocks(a, hi)
        for gap in _nc_blocks(lo + 1, a - 1):
            out.extend(((lo,) + tail[0],) + gap + tail[1:] for tail in tails)
    return tuple(out)


def _labels_by_blocks(n: int, partitions) -> tuple[tuple[int, ...], ...]:
    """The block labels of partitions of {1..n} given as blocks, each block
    ascending and the blocks in order of their least elements, sorted by
    blocks.  That order suits the Bareiss elimination of the lattice
    matrices better than the order of the labels."""
    out = []
    for blocks in sorted(partitions):
        label = [0] * n
        for k, block in enumerate(blocks):
            for x in block:
                label[x - 1] = k
        out.append(tuple(label))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_partitions(n: int, noncrossing_only: bool = False) -> tuple[tuple[int, ...], ...]:
    """All set partitions of {1..n} (or the noncrossing ones), sorted by blocks."""
    if n < 1:
        raise ValueError("n must be positive")
    if noncrossing_only:
        if n > 10:
            raise ValueError("noncrossing enumeration capped at n <= 10")
        return _labels_by_blocks(n, _nc_blocks(1, n))
    if n > 8:
        raise ValueError("full enumeration capped at n <= 8")
    return _labels_by_blocks(n, _all_partitions(n))


def meet_blocks(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Blocks of the meet of the partitions labelled a and b: two elements
    share a block of the meet iff they share one in both."""
    return len(set(zip(a, b)))


def join_labels(a: tuple[int, ...], b: tuple[int, ...],
                lattice: str = "full") -> list[int]:
    """Block labels of the join of the partitions labelled a and b, in the
    full or the noncrossing partition lattice.

    The full join merges the blocks of a through each block of b.  In the
    noncrossing lattice two crossing blocks of any partition below the join
    must share a block of every noncrossing partition above it, so merging
    them is forced; what is left when nothing crosses is the least one.
    One left-to-right pass finds the crossings: the stack holds the blocks
    that are open (met, with elements still to come), and when an element's
    block is not on top, every block above it has an element since that
    block's previous one and another still to come, so it crosses and is
    merged in."""
    if lattice not in ("full", "noncrossing"):
        raise ValueError(f"unknown lattice {lattice!r}")
    parent = list(range(len(a)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first = {}  # block of b -> a block it meets
    for x, y in zip(a, b):
        if y not in first:
            first[y] = x
            continue
        rx, ry = find(x), find(first[y])
        if rx != ry:
            parent[rx] = ry
    labels = [find(x) for x in a]
    if lattice == "noncrossing":
        last = {r: i for i, r in enumerate(labels)}
        stack = []
        for i, r in enumerate(labels):
            r = find(r)
            if r not in stack:
                stack.append(r)
            while stack[-1] != r:
                c = stack.pop()
                parent[c] = r
                last[r] = max(last[r], last[c])
            if last[r] == i:
                stack.pop()
        labels = [find(r) for r in labels]
    return labels


def join_blocks(a: tuple[int, ...], b: tuple[int, ...],
                lattice: str = "full") -> int:
    """Blocks of the join of the partitions labelled a and b."""
    return len(set(join_labels(a, b, lattice)))


# ---------------------------------------------------------------------------
# posets and characteristic polynomials


class PosetData(Slotted):
    __slots__ = ("elements", "leq", "rank")

    def __init__(self, elements: tuple, leq: tuple[tuple[bool, ...], ...],
                 rank: tuple[int, ...]):
        # leq[i][j] == elements[i] <= elements[j]
        self.elements, self.leq, self.rank = elements, leq, rank

    def minimum(self) -> int:
        for i in range(len(self.elements)):
            if all(self.leq[i][j] for j in range(len(self.elements))):
                return i
        raise ValueError("poset has no minimum")

    def height(self) -> int:
        return max(self.rank)

    def mobius_from(self, zero: int) -> list[Fraction]:
        """mu(zero, p) for all p, by the recursive defining sum."""
        n = len(self.elements)
        order = sorted(range(n), key=lambda i: self.rank[i])
        mu = [Fraction(0)] * n
        for p in order:
            if not self.leq[zero][p]:
                continue
            if p == zero:
                mu[p] = Fraction(1)
                continue
            mu[p] = -sum(
                (mu[x] for x in range(n) if self.leq[zero][x] and self.leq[x][p] and x != p),
                Fraction(0),
            )
        return mu


def poset_char_poly(p: PosetData) -> PolyQ:
    """chi_P(q) = sum_p mu(0,p) q^(h - rank(p))."""
    zero = p.minimum()
    mu = p.mobius_from(zero)
    h = p.height()
    coeffs = [Fraction(0)] * (h + 1)
    for i in range(len(p.elements)):
        if p.leq[zero][i]:
            coeffs[h - p.rank[i]] += mu[i]
    return PolyQ(coeffs)


def reciprocal_poly(f: PolyQ) -> PolyQ:
    """q^(deg f) * f(1/q)."""
    return PolyQ(reversed(f.coeffs))


def _lattice_from_partitions(parts: tuple[tuple[int, ...], ...]) -> PosetData:
    """The refinement order on the labelled partitions in parts: a refines b
    iff their meet has as many blocks as a."""
    n = len(parts[0])
    sizes = [len(set(a)) for a in parts]
    leq = tuple(
        tuple(meet_blocks(a, b) == k for b in parts) for a, k in zip(parts, sizes)
    )
    return PosetData(parts, leq, tuple(n - k for k in sizes))


@lru_cache(maxsize=None)
def partition_lattice(n: int) -> PosetData:
    """The full partition lattice, ordered by refinement."""
    return _lattice_from_partitions(enumerate_partitions(n, False))


@lru_cache(maxsize=None)
def nc_lattice(n: int) -> PosetData:
    """The noncrossing partition lattice, with the induced refinement order."""
    return _lattice_from_partitions(enumerate_partitions(n, True))


# ---------------------------------------------------------------------------
# noncrossing perfect matchings


def _nc_pairings(lo: int, hi: int) -> list[tuple[tuple[int, int], ...]]:
    """Noncrossing perfect matchings of lo..hi as pair tuples: lo pairs with
    some p, p - lo odd, and the inside lo+1..p-1 and the outside p+1..hi
    are matched independently."""
    if lo > hi:
        return [()]
    out = []
    for p in range(lo + 1, hi + 1, 2):
        outside = _nc_pairings(p + 1, hi)
        for inside in _nc_pairings(lo + 1, p - 1):
            out.extend(((lo, p),) + inside + rest for rest in outside)
    return out


def nc_matchings(n2: int) -> tuple[tuple[int, ...], ...]:
    """The noncrossing perfect matchings of {1..n2}, sorted by blocks."""
    if n2 < 1:
        raise ValueError("n must be positive")
    if n2 % 2:
        raise ValueError("nc_matchings requires an even ground set")
    if n2 > 12:
        raise ValueError("capped at 12 points")
    return _labels_by_blocks(n2, _nc_pairings(1, n2))


def components(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Number of connected components of the union of two matchings:
    the block count of their join in the full partition lattice."""
    return join_blocks(a, b)


# ---------------------------------------------------------------------------
# permutations


def perm_stat(s: tuple[int, ...], kind: str) -> int:
    n = len(s)
    if sorted(s) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    if kind == "inv":
        return sum(1 for i in range(n) for j in range(i + 1, n) if s[i] > s[j])
    if kind == "maj":
        return sum(i + 1 for i in range(n - 1) if s[i] > s[i + 1])
    raise ValueError(f"unknown statistic {kind!r}")


def perm_compose(s: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """(s o t)(i) = s(t(i))."""
    return tuple(s[t[i] - 1] for i in range(len(t)))


def perm_invert(s: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v - 1] = i + 1
    return tuple(out)


def all_perms(n: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in permutations(range(1, n + 1))]


# ---------------------------------------------------------------------------
# alternating sign matrices and the six-vertex partition function


class ASM(Slotted):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        self.entries = entries

    @property
    def n(self) -> int:
        return len(self.entries)


def six_vertex_sum(X, Y, q) -> Fraction:
    """The sum over all n x n alternating sign matrices of the six-vertex
    weights, n = len(X) = len(Y), by a row transfer.

    A +1 at (i, j) weighs 1 and a -1 weighs (1-q)^2 X_i Y_j.  A zero
    weighs q X_i - Y_j when the row sum r to its left differs from the
    column sum c_j above it, X_i - Y_j when both are 0 and q (X_i - Y_j)
    when both are 1.  The state after a row is the 0/1 vector of column
    sums (a bitmask); each row is scanned column by column carrying r,
    and equal (state, r) pairs are merged after every column.  With
    X_i = a_i/d, Y_j = b_j/d and q = u/v every site weight times v d
    (times (v d)^2 for a -1) is an integer, so the transfer runs on ints
    and the sum is their total over (v d)^(n^2 - n): an ASM has
    n^2 - n - 2N zeros and N entries -1."""
    n = len(X)
    if len(Y) != n:
        raise ValueError("X and Y must have the same length")
    a, d = integer_numerators([rat(x) for x in X] + [rat(y) for y in Y])
    a, b = a[:n], a[n:]
    q = rat(q)
    u, v = q.numerator, q.denominator
    states = {0: 1}  # column-sum mask -> total weight of the rows so far
    for ai in a:
        cur = {(mask, 0): w for mask, w in states.items()}
        for j, bj in enumerate(b):
            bit = 1 << j
            both0, both1 = v * (ai - bj), u * (ai - bj)
            unequal, neg = u * ai - v * bj, (v - u) ** 2 * ai * bj
            nxt: dict[tuple[int, int], int] = {}

            def add(key, x):
                nxt[key] = nxt.get(key, 0) + x
            for (mask, r), w in cur.items():
                c = mask & bit
                if c and r:  # a zero, or a -1 back to (0, 0)
                    add((mask, 1), w * both1)
                    add((mask ^ bit, 0), w * neg)
                elif c or r:  # only a zero
                    add((mask, r), w * unequal)
                else:  # a zero, or a +1 on to (1, 1)
                    add((mask, 0), w * both0)
                    add((mask | bit, 1), w)
            cur = nxt
        states = {mask: w for (mask, r), w in cur.items() if r}
    return Fraction(states.get((1 << n) - 1, 0), (v * d) ** (n * n - n))


@lru_cache(maxsize=None)
def asm_enumerate(n: int) -> tuple[ASM, ...]:
    """All n x n alternating sign matrices, via 0/1 partial-sum profiles."""
    if not (1 <= n <= 5):
        raise ValueError("asm_enumerate capped at n <= 5")

    def profiles(prev: tuple[int, ...], ones: int):
        """0/1 vectors s with sum(s) = ones and 0 <= prefix(s)-prefix(prev) <= 1."""
        out = []

        def rec(pos, acc, diff, remaining):
            if pos == n:
                if remaining == 0:
                    out.append(tuple(acc))
                return
            for bit in (0, 1):
                if bit > remaining:
                    continue
                nd = diff + bit - prev[pos]
                if 0 <= nd <= 1:
                    acc.append(bit)
                    rec(pos + 1, acc, nd, remaining - bit)
                    acc.pop()

        rec(0, [], 0, ones)
        return out

    results: list[ASM] = []

    def build(i, prev, rows):
        if i == n:
            results.append(ASM(tuple(rows)))
            return
        for s in profiles(prev, i + 1):
            rows.append(tuple(s[k] - prev[k] for k in range(n)))
            build(i + 1, s, rows)
            rows.pop()

    build(0, tuple([0] * n), [])
    return tuple(results)
