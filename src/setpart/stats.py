"""
Scalar statistics of (ordered) set partitions.

Everything is phrased through the block-index word w of the partition
(w_i = index of the block containing i) together with the opener set O
(block minima) and closer set F (block maxima).  For an element i and a
reference j, "left"/"right" refer to the position of j's block relative
to i's block (w_j < w_i resp. w_j > w_i) and "smaller"/"bigger" to the
element comparison j < i resp. j > i.  The eight per-element coordinate
counts are then

    ros_i = #{j in O : j < i, w_j > w_i}    rob_i = #{j in O : j > i, w_j > w_i}
    rcs_i = #{j in F : j < i, w_j > w_i}    rcb_i = #{j in F : j > i, w_j > w_i}
    los_i = #{j in O : j < i, w_j < w_i}    lob_i = #{j in O : j > i, w_j < w_i}
    lcs_i = #{j in F : j < i, w_j < w_i}    lcb_i = #{j in F : j > i, w_j < w_i}

and a statistic of the same name is the sum over i.  The derived family:

    mak   = ros + lcs             makp  = lob + rcb
    lmakp = n(k-1) - (lcb + rob)  lmak  = n(k-1) - (los + rcs)

On canonically ordered blocks lob vanishes, mak = lmakp and makp = lmak
pointwise, and the generating function of each over the partitions of
[n] into k blocks is the q-Stirling number S_q(n, k).

``coord_sums_all`` finds all eight sums from the partition's cached
block masks (``core.Partition.masks``, bit i - 1 for element i, which
``core.enumerate_ordered`` seeds).  Grouped by the
reference element j, each sum adds one popcount per block: walking the
blocks in index order, with left (right) the union of the earlier
(later) blocks' masks and o and f the block's opener and closer (its
lowest and highest set bit), ros, rob, rcs and rcb count the elements of
left above o, below o, above f and below f, and los, lob, lcs and lcb
those of right; O(n + k) big-int steps in all.  Each sum is counted on
its own, never derived from the others (in particular not through
rob + ros = k - w), so the identities above remain checks of the
counts.  The eight sums are counted once per partition object and kept
on it (``core._memo`` key ``_coord_sums``) for every statistic that
reads them.  ``coord_stat`` is the one per-element count, an
independent loop over the (equally memoized) classification; the tests
sum it against the pass.

Element-level inversion counts, for b in block j:

    rinv(b)  = #{a in later blocks  : a < b}
    nrinv(b) = #{a in later blocks  : a > b}
    linv(b)  = #{a in earlier blocks: a > b}

Summed over the openers O or the closers F, each is a coordinate sum
with the order of summation swapped, so ``linv_openers``,
``rinv_closers`` and ``linv_closers`` read the same pass:

    linv(O) = ros    rinv(F) = lcb    linv(F) = rcs.

mak_l adjusts mak by the closer of the l-th block:
mak_l = mak - nrinv(max(B_l)) + k - l, so mak_k = mak.  ``mak_ls`` gives
all k of them from one pass over the same block masks, kept per object
(key ``_mak_ls``).

For a partition with k+1 blocks, stat_i = k - rinv(F) - nrinv(max(B_i))
may be negative; its rinv(F) is the pass's lcb.

Ordered partitions additionally carry the dominance order B > B' (every
element of B exceeds every element of B', i.e. min(B) > max(B')), giving

    bmaj = sum of indices i with B_i > B_{i+1}
    binv = #{(i, j) : i < j, B_i > B_j}.
"""

from __future__ import annotations

import enum
from typing import Callable

from .core import (
    Partition,
    PartitionError,
    SetPartition,
    _memo,
    _require_canonical,
    classify,
)


class CoordKind(enum.Enum):
    """The eight coordinate statistics, as (side, reference, comparison)."""

    ROS = ("right", "opener", "smaller")
    ROB = ("right", "opener", "bigger")
    RCS = ("right", "closer", "smaller")
    RCB = ("right", "closer", "bigger")
    LOS = ("left", "opener", "smaller")
    LOB = ("left", "opener", "bigger")
    LCS = ("left", "closer", "smaller")
    LCB = ("left", "closer", "bigger")


def coord_stat(p: Partition, kind: CoordKind, i: int) -> int:
    """The per-element coordinate count for element i."""
    if not 1 <= i <= p.n:
        raise PartitionError(f"element {i} outside 1..{p.n}")
    side, reference, comparison = kind.value
    cls = classify(p)
    w = p.word
    wi = w[i - 1]
    total = 0
    for j in cls.openers if reference == "opener" else cls.closers:
        if (j < i) != (comparison == "smaller"):
            continue
        if j == i:
            continue
        wj = w[j - 1]
        if side == "right":
            total += wj > wi
        else:
            total += wj < wi
    return total


def _coord_pass(p: Partition) -> tuple[int, int, int, int, int, int, int, int]:
    """The eight coordinate sums in ``CoordKind`` order, from the block masks."""
    left, right = 0, (1 << p.n) - 1  # elements of earlier / later blocks
    ros = rob = rcs = rcb = los = lob = lcs = lcb = 0
    for m in p.masks:
        right ^= m
        o = (m & -m).bit_length()  # the opener
        f = m.bit_length()  # the closer
        below_o = (1 << o) - 1
        below_f = (1 << f) - 1
        ros += (left >> o).bit_count()
        rob += (left & below_o).bit_count()
        rcs += (left >> f).bit_count()
        rcb += (left & below_f).bit_count()
        los += (right >> o).bit_count()
        lob += (right & below_o).bit_count()
        lcs += (right >> f).bit_count()
        lcb += (right & below_f).bit_count()
        left |= m
    return ros, rob, rcs, rcb, los, lob, lcs, lcb


# The kinds in definition order: zipping with a tuple is cheaper than
# iterating the enum class on every call.
_COORD_KINDS = tuple(CoordKind)


def coord_sums_all(p: Partition) -> dict[CoordKind, int]:
    """All eight coordinate sums, as a fresh dict on every call."""
    return dict(zip(_COORD_KINDS, _memo(p, "_coord_sums", _coord_pass)))


def four_stats(p: Partition) -> tuple[int, int, int, int]:
    """(mak, makp, lmak, lmakp) from the partition's eight coordinate sums."""
    ros, rob, rcs, rcb, los, lob, lcs, lcb = _memo(p, "_coord_sums", _coord_pass)
    norm = p.n * (p.k - 1) if p.k else 0
    return ros + lcs, lob + rcb, norm - (los + rcs), norm - (lcb + rob)


def mak(p: Partition) -> int:
    return four_stats(p)[0]


def makp(p: Partition) -> int:
    return four_stats(p)[1]


def lmak(p: Partition) -> int:
    return four_stats(p)[2]


def lmakp(p: Partition) -> int:
    return four_stats(p)[3]


def rinv(b: int, p: Partition) -> int:
    """Elements of later blocks that are smaller than b."""
    if not 1 <= b <= p.n:
        raise PartitionError(f"element {b} outside 1..{p.n}")
    w = p.word
    wb = w[b - 1]
    return sum(1 for a in range(1, b) if w[a - 1] > wb)


def nrinv(b: int, p: Partition) -> int:
    """Elements of later blocks that are bigger than b."""
    if not 1 <= b <= p.n:
        raise PartitionError(f"element {b} outside 1..{p.n}")
    w = p.word
    wb = w[b - 1]
    return sum(1 for a in range(b + 1, p.n + 1) if w[a - 1] > wb)


def linv(b: int, p: Partition) -> int:
    """Elements of earlier blocks that are bigger than b."""
    if not 1 <= b <= p.n:
        raise PartitionError(f"element {b} outside 1..{p.n}")
    w = p.word
    wb = w[b - 1]
    return sum(1 for a in range(b + 1, p.n + 1) if w[a - 1] < wb)


# Swapping the order of summation: linv over the openers counts the pairs
# (opener j, element i) with j < i and i in an earlier block, which is ros;
# likewise rinv over the closers is lcb and linv over the closers is rcs.
def linv_openers(p: Partition) -> int:
    return _memo(p, "_coord_sums", _coord_pass)[0]


def rinv_closers(p: Partition) -> int:
    return _memo(p, "_coord_sums", _coord_pass)[7]


def linv_closers(p: Partition) -> int:
    return _memo(p, "_coord_sums", _coord_pass)[2]


def mak_ls(p: SetPartition) -> tuple[int, ...]:
    """(mak_1, ..., mak_k), where mak_l = mak - nrinv(max(B_l)) + k - l."""
    p = _require_canonical(p, "mak_l is defined on canonically ordered partitions only")
    return _memo(p, "_mak_ls", _mak_ls_pass)


def _mak_ls_pass(p: SetPartition) -> tuple[int, ...]:
    # nrinv of block l's closer f counts the elements of later blocks
    # above f: the bits of ``right`` from bit f (element f + 1) up.
    shifted = mak(p) + p.k
    right = (1 << p.n) - 1  # elements of later blocks
    out = []
    for l, m in enumerate(p.masks, start=1):
        right ^= m
        out.append(shifted - (right >> m.bit_length()).bit_count() - l)
    return tuple(out)


def mak_l(p: SetPartition, l: int) -> int:
    """mak adjusted at the l-th block: mak - nrinv(max(B_l)) + k - l."""
    p = _require_canonical(p, "mak_l is defined on canonically ordered partitions only")
    if not 1 <= l <= p.k:
        raise PartitionError(f"block index {l} outside 1..{p.k}")
    return mak_ls(p)[l - 1]


def stat_i(p: SetPartition, i: int) -> int:
    """k - rinv(F) - nrinv(max(B_i)) on a partition with k+1 blocks."""
    p = _require_canonical(p, "stat_i is defined on canonically ordered partitions only")
    if not 1 <= i <= p.k:
        raise PartitionError(f"block index {i} outside 1..{p.k}")
    return p.k - 1 - rinv_closers(p) - nrinv(p.blocks[i - 1][-1], p)


def bmaj(p: Partition) -> int:
    """Sum of positions i whose block dominates its successor: B_i > B_j
    when the opener of B_i lies above the closer of B_j in the masks."""
    total = above = 0  # above: the opener of the previous block
    for i, m in enumerate(p.masks):
        if above > m.bit_length():
            total += i
        above = (m & -m).bit_length()
    return total


def binv(p: Partition) -> int:
    """Number of dominating pairs of blocks B_i > B_j with i < j: for each
    block, the openers of the earlier blocks above its closer."""
    total = openers = 0  # openers: the opener bits of the blocks so far
    for m in p.masks:
        total += (openers >> m.bit_length()).bit_count()
        openers |= m & -m
    return total


def _coord_sum_fn(index: int) -> Callable[[Partition], int]:
    return lambda p: _memo(p, "_coord_sums", _coord_pass)[index]


STATISTICS: dict[str, Callable[[Partition], int]] = {
    **{kind.name.lower(): _coord_sum_fn(i) for i, kind in enumerate(CoordKind)},
    "mak": mak,
    "makp": makp,
    "lmak": lmak,
    "lmakp": lmakp,
    "bmaj": bmaj,
    "binv": binv,
    "linv_openers": linv_openers,
    "rinv_closers": rinv_closers,
    "linv_closers": linv_closers,
}

ELEMENT_STATISTICS: dict[str, Callable[[int, Partition], int]] = {
    "rinv": rinv,
    "nrinv": nrinv,
    "linv": linv,
}


def resolve_statistic(
    name: str, l: int | None = None, b: int | None = None
) -> Callable[[Partition], int]:
    """Look up a statistic by CLI name.

    Supports sums like ``mak+bmaj``, the block-indexed ``mak_l`` (needs
    ``l``), and the element-level rinv/nrinv/linv (need ``b``).
    """
    name = name.strip()
    if "+" in name:
        parts = [resolve_statistic(part, l=l, b=b) for part in name.split("+")]
        return lambda p: sum(fn(p) for fn in parts)
    if name == "mak_l":
        if l is None:
            raise PartitionError("statistic mak_l needs a block index l")
        return lambda p: mak_l(p, l)
    if name == "stat_i":
        if l is None:
            raise PartitionError("statistic stat_i needs a block index l")
        return lambda p: stat_i(p, l)
    if name in ELEMENT_STATISTICS:
        if b is None:
            raise PartitionError(f"statistic {name} needs an element b")
        fn = ELEMENT_STATISTICS[name]
        return lambda p: fn(b, p)
    try:
        return STATISTICS[name]
    except KeyError:
        raise PartitionError(f"unknown statistic {name!r}") from None
