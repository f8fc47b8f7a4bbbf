"""
Definition-literal brute forces used as independent oracles.

Everything here works on plain block tuples and recomputes each quantity
straight from its set-theoretic definition, quadratically or worse.  No
function imports the scan implementations under test, so agreement is a
genuine cross-check rather than the same code run twice.

The one exception is ``rebuild_from_profile``: a copy of the library's
former profile rebuild, which ``motzkin.decode`` and the image pass of
``bijections.phi_certificate`` replaced.  It keeps every check it had
and hands its word to the checked ``SetPartition`` constructor.
"""

from __future__ import annotations

from setpart.core import CLOSER, OPENER, SINGLETON, SetPartition


def word_of(blocks):
    """w[i-1] = 1-based index of the block containing i, in given block order."""
    n = sum(len(b) for b in blocks)
    w = [0] * n
    for idx, block in enumerate(blocks, start=1):
        for x in block:
            w[x - 1] = idx
    return w


def format_blocks(blocks):
    """The partition text of ``blocks`` in the given order: the library's
    former block formatter, verbatim."""
    return "/".join(",".join(map(str, block)) for block in blocks)


def openers_of(blocks):
    return {min(b) for b in blocks}


def closers_of(blocks):
    return {max(b) for b in blocks}


def coord(blocks, side, reference, comparison, i):
    """One coordinate count for element i, literally from the definition."""
    w = word_of(blocks)
    refs = openers_of(blocks) if reference == "opener" else closers_of(blocks)
    wi = w[i - 1]
    total = 0
    for j in refs:
        if j == i:
            continue
        if comparison == "smaller" and not j < i:
            continue
        if comparison == "bigger" and not j > i:
            continue
        wj = w[j - 1]
        if side == "right" and wj > wi:
            total += 1
        if side == "left" and wj < wi:
            total += 1
    return total


def coord_sum(blocks, side, reference, comparison):
    n = sum(len(b) for b in blocks)
    return sum(coord(blocks, side, reference, comparison, i) for i in range(1, n + 1))


def mak(blocks):
    return coord_sum(blocks, "right", "opener", "smaller") + coord_sum(
        blocks, "left", "closer", "smaller"
    )


def makp(blocks):
    return coord_sum(blocks, "left", "opener", "bigger") + coord_sum(
        blocks, "right", "closer", "bigger"
    )


def lmak(blocks):
    n = sum(len(b) for b in blocks)
    k = len(blocks)
    if k == 0:
        return 0
    return (
        n * (k - 1)
        - coord_sum(blocks, "left", "opener", "smaller")
        - coord_sum(blocks, "right", "closer", "smaller")
    )


def lmakp(blocks):
    n = sum(len(b) for b in blocks)
    k = len(blocks)
    if k == 0:
        return 0
    return (
        n * (k - 1)
        - coord_sum(blocks, "left", "closer", "bigger")
        - coord_sum(blocks, "right", "opener", "bigger")
    )


def _block_index_of(b, blocks):
    for idx, blk in enumerate(blocks, start=1):
        if b in blk:
            return idx
    raise ValueError(f"{b} is in no block")


def rinv(b, blocks):
    """Elements of strictly later blocks that are smaller than b."""
    j = _block_index_of(b, blocks)
    return sum(
        1
        for idx, blk in enumerate(blocks, start=1)
        if idx > j
        for a in blk
        if a < b
    )


def nrinv(b, blocks):
    """Elements of strictly later blocks that are bigger than b."""
    j = _block_index_of(b, blocks)
    return sum(
        1
        for idx, blk in enumerate(blocks, start=1)
        if idx > j
        for a in blk
        if a > b
    )


def linv(b, blocks):
    """Elements of strictly earlier blocks that are bigger than b."""
    j = _block_index_of(b, blocks)
    return sum(
        1
        for idx, blk in enumerate(blocks, start=1)
        if idx < j
        for a in blk
        if a > b
    )


def mak_l(blocks, l):
    k = len(blocks)
    return mak(blocks) - nrinv(max(blocks[l - 1]), blocks) + k - l


def stat_i(blocks, i):
    k = len(blocks) - 1
    rinv_closers = sum(rinv(max(b), blocks) for b in blocks)
    return k - rinv_closers - nrinv(max(blocks[i - 1]), blocks)


def dominates(a, b):
    return all(x > y for x in a for y in b)


def bmaj(blocks):
    return sum(i for i in range(1, len(blocks)) if dominates(blocks[i - 1], blocks[i]))


def binv(blocks):
    k = len(blocks)
    return sum(
        1 for i in range(k) for j in range(i + 1, k) if dominates(blocks[i], blocks[j])
    )


def incomplete_in_trace(blocks, i):
    """0-based indices of blocks with a non-empty, proper restriction to [i]."""
    out = []
    for t, b in enumerate(blocks):
        restricted = [x for x in b if x <= i]
        if restricted and len(restricted) < len(b):
            out.append(t)
    return out


def l_gamma(blocks):
    """The (l_i, gamma_i) sequences, built from explicit traces."""
    n = sum(len(b) for b in blocks)
    w = word_of(blocks)
    ls, gammas = [], []
    for i in range(1, n + 1):
        ls.append(len(incomplete_in_trace(blocks, i - 1)))
        j = w[i - 1] - 1
        gammas.append(1 + sum(1 for t in incomplete_in_trace(blocks, i) if t < j))
    return ls, gammas


class ProfileError(ValueError):
    """A (kind, gamma) profile that no partition realizes."""


def rebuild_from_profile(kinds, gamma):
    """The unique canonical partition whose trace profile is (kinds, gamma).

    Openers and singletons start a new rightmost block (for them gamma
    must equal the current incomplete count plus one); closers and
    passants join the gamma-th incomplete block from the left, a closer
    sealing it.  Raises ProfileError when no partition fits.
    """
    if len(kinds) != len(gamma):
        raise ProfileError("kinds and gamma have different lengths")
    word = []
    incomplete = []  # indices of the incomplete blocks, ascending
    top = 0
    for i, (kind, g) in enumerate(zip(kinds, gamma), start=1):
        count = len(incomplete)
        if kind is OPENER or kind is SINGLETON:
            if g != count + 1:
                raise ProfileError(
                    f"element {i}: a new block must carry gamma {count + 1}, got {g}"
                )
            top += 1
            word.append(top)
            if kind is OPENER:
                incomplete.append(top)
        else:
            if not 1 <= g <= count:
                raise ProfileError(
                    f"element {i}: gamma {g} outside the {count} incomplete blocks"
                )
            word.append(incomplete[g - 1])
            if kind is CLOSER:
                del incomplete[g - 1]
    if incomplete:
        raise ProfileError("profile ends with unclosed blocks")
    return SetPartition(tuple(word))


def all_partitions(n):
    """Every partition of [n] as a block tuple ordered by minima.

    Independent of the restricted-growth machinery: element m is placed
    into each existing block or a new last block.
    """
    if n == 0:
        yield ()
        return
    for smaller in all_partitions(n - 1):
        for t in range(len(smaller)):
            yield smaller[:t] + (smaller[t] + (n,),) + smaller[t + 1 :]
        yield smaller + ((n,),)


def stirling(n, k):
    if n == 0:
        return 1 if k == 0 else 0
    if k < 1 or k > n:
        return 0
    return stirling(n - 1, k - 1) + k * stirling(n - 1, k)


def bell(n):
    return sum(stirling(n, k) for k in range(n + 1))


def q_stirling_dict(n, k):
    """S_q(n, k) as an exponent -> coefficient dict, by the recurrence
    S_q(n, k) = q^(k-1) S_q(n-1, k-1) + [k]_q S_q(n-1, k)."""
    if n == 0 or k == 0:
        return {0: 1} if n == k else {}
    if k > n:
        return {}
    out: dict[int, int] = {}
    for e, c in q_stirling_dict(n - 1, k - 1).items():
        out[e + k - 1] = out.get(e + k - 1, 0) + c
    for e, c in q_stirling_dict(n - 1, k).items():
        for d in range(k):
            out[e + d] = out.get(e + d, 0) + c
    return {e: c for e, c in out.items() if c}
