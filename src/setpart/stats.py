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

``coord_sums_all`` finds all eight sums in one left-to-right pass over
w, keeping per-block counts of the openers, closers and elements seen so
far; each (element, reference) pair is counted when the later of the
two is reached.  Each sum is counted on its own, never derived from the
others, so the identities above remain checks of the counts.

Element-level inversion counts, for b in block j:

    rinv(b)  = #{a in later blocks  : a < b}
    nrinv(b) = #{a in later blocks  : a > b}
    linv(b)  = #{a in earlier blocks: a > b}

mak_l adjusts mak by the closer of the l-th block:
mak_l = mak - nrinv(max(B_l)) + k - l, so mak_k = mak.

For a partition with k+1 blocks, stat_i = k - rinv(F) - nrinv(max(B_i))
may be negative.

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

    @property
    def side(self) -> str:
        return self.value[0]

    @property
    def reference(self) -> str:
        return self.value[1]

    @property
    def comparison(self) -> str:
        return self.value[2]


def coord_stat(p: Partition, kind: CoordKind, i: int) -> int:
    """The per-element coordinate count for element i."""
    if not 1 <= i <= p.n:
        raise PartitionError(f"element {i} outside 1..{p.n}")
    cls = classify(p)
    w = p.word
    wi = w[i - 1]
    total = 0
    for j in cls.openers if kind.reference == "opener" else cls.closers:
        if (j < i) != (kind.comparison == "smaller"):
            continue
        if j == i:
            continue
        wj = w[j - 1]
        if kind.side == "right":
            total += wj > wi
        else:
            total += wj < wi
    return total


def coord_sum(p: Partition, kind: CoordKind) -> int:
    return sum(coord_stat(p, kind, i) for i in range(1, p.n + 1))


def coord_sums_all(p: Partition) -> dict[CoordKind, int]:
    """All eight coordinate sums in one left-to-right pass over the word."""
    w = p.word
    last = {b: i for i, b in enumerate(w)}
    seen = [0] * (p.k + 1)  # elements of each block seen so far
    opened = [0] * (p.k + 1)  # 1 once the block's opener was seen
    closed = [0] * (p.k + 1)  # 1 once the block's closer was seen
    ros = rob = rcs = rcb = los = lob = lcs = lcb = 0
    for i, b in enumerate(w):
        # the element at hand against earlier references ("smaller")
        ros += sum(opened[b + 1 :])
        los += sum(opened[:b])
        rcs += sum(closed[b + 1 :])
        lcs += sum(closed[:b])
        # the element at hand as a reference for earlier elements ("bigger")
        if not seen[b]:
            rob += sum(seen[:b])
            lob += sum(seen[b + 1 :])
            opened[b] = 1
        if last[b] == i:
            rcb += sum(seen[:b])
            lcb += sum(seen[b + 1 :])
            closed[b] = 1
        seen[b] += 1
    # CoordKind lists its members in exactly this order
    return dict(zip(CoordKind, (ros, rob, rcs, rcb, los, lob, lcs, lcb)))


def four_stats(p: Partition) -> tuple[int, int, int, int]:
    """(mak, makp, lmak, lmakp) from a single ``coord_sums_all`` call."""
    t = coord_sums_all(p)
    norm = p.n * (p.k - 1) if p.k else 0
    return (
        t[CoordKind.ROS] + t[CoordKind.LCS],
        t[CoordKind.LOB] + t[CoordKind.RCB],
        norm - (t[CoordKind.LOS] + t[CoordKind.RCS]),
        norm - (t[CoordKind.LCB] + t[CoordKind.ROB]),
    )


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


def linv_openers(p: Partition) -> int:
    return sum(linv(b, p) for b in classify(p).openers)


def rinv_closers(p: Partition) -> int:
    return sum(rinv(b, p) for b in classify(p).closers)


def linv_closers(p: Partition) -> int:
    return sum(linv(b, p) for b in classify(p).closers)


def mak_l(p: SetPartition, l: int) -> int:
    """mak adjusted at the l-th block: mak - nrinv(max(B_l)) + k - l."""
    p = _require_canonical(p, "mak_l is defined on canonically ordered partitions only")
    if not 1 <= l <= p.k:
        raise PartitionError(f"block index {l} outside 1..{p.k}")
    closer = p.blocks[l - 1][-1]
    return mak(p) - nrinv(closer, p) + p.k - l


def stat_i(p: SetPartition, i: int) -> int:
    """k - rinv(F) - nrinv(max(B_i)) on a partition with k+1 blocks."""
    p = _require_canonical(p, "stat_i is defined on canonically ordered partitions only")
    if not 1 <= i <= p.k:
        raise PartitionError(f"block index {i} outside 1..{p.k}")
    k = p.k - 1
    closer = p.blocks[i - 1][-1]
    return k - rinv_closers(p) - nrinv(closer, p)


def _dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return a[0] > b[-1]


def bmaj(p: Partition) -> int:
    """Sum of positions i whose block dominates its successor."""
    blocks = p.blocks
    return sum(
        i
        for i in range(1, len(blocks))
        if _dominates(blocks[i - 1], blocks[i])
    )


def binv(p: Partition) -> int:
    """Number of dominating pairs of blocks B_i > B_j with i < j."""
    blocks = p.blocks
    return sum(
        1
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
        if _dominates(blocks[i], blocks[j])
    )


def _coord_sum_fn(kind: CoordKind) -> Callable[[Partition], int]:
    return lambda p: coord_sum(p, kind)


STATISTICS: dict[str, Callable[[Partition], int]] = {
    "ros": _coord_sum_fn(CoordKind.ROS),
    "rob": _coord_sum_fn(CoordKind.ROB),
    "rcs": _coord_sum_fn(CoordKind.RCS),
    "rcb": _coord_sum_fn(CoordKind.RCB),
    "los": _coord_sum_fn(CoordKind.LOS),
    "lob": _coord_sum_fn(CoordKind.LOB),
    "lcs": _coord_sum_fn(CoordKind.LCS),
    "lcb": _coord_sum_fn(CoordKind.LCB),
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
