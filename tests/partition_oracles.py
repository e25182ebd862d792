"""Blocks-based reference code for detkit.combinat's set partitions.

The library keeps a partition of {1..n} only as block labels.  These
oracles work on its blocks instead: a sorted tuple of ascending tuples,
so the blocks come in order of their least elements.  Meets are built by
intersecting blocks, joins by merging them, and refinement and crossings
are read off the blocks directly."""


def canonical(blocks) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def blocks_of(labels) -> tuple[tuple[int, ...], ...]:
    """The blocks of the partition of {1..len(labels)} whose element x has
    block label labels[x - 1]; any labels will do."""
    blocks: dict[int, list[int]] = {}
    for x, k in enumerate(labels, 1):
        blocks.setdefault(k, []).append(x)
    return canonical(blocks.values())


def labels_of(n: int, blocks) -> tuple[int, ...]:
    """The block labels of a partition of {1..n}, its blocks numbered in
    order of their least elements."""
    blocks = canonical(blocks)
    if sorted(x for b in blocks for x in b) != list(range(1, n + 1)):
        raise ValueError("blocks must partition {1..n}")
    label = [0] * n
    for k, block in enumerate(blocks):
        for x in block:
            label[x - 1] = k
    return tuple(label)


def is_noncrossing(blocks) -> bool:
    """No i < j < k < l with i, k in one block and j, l in another."""
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            for i in blocks[bi]:
                for k in blocks[bi]:
                    if i >= k:
                        continue
                    for j in blocks[bj]:
                        for l in blocks[bj]:
                            if i < j < k < l:
                                return False
    return True


def refines(a, b) -> bool:
    """True if every block of a is contained in a block of b."""
    return all(any(set(x) <= set(y) for y in b) for x in a)


def meet_by_intersecting(a, b) -> tuple[tuple[int, ...], ...]:
    """The meet: the nonempty intersections of a block of a with one of b."""
    return canonical(set(x) & set(y) for x in a for y in b if set(x) & set(y))


def join_by_merging(a, b) -> tuple[tuple[int, ...], ...]:
    """The full-lattice join: each block of a and b in turn absorbs the
    blocks met so far that it intersects."""
    out = []
    for block in map(set, a + b):
        for other in [o for o in out if o & block]:
            block |= other
            out.remove(other)
        out.append(block)
    return canonical(out)
