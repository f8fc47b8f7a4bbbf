"""
Bijections on canonical set partitions.

``phi`` is the involution exchanging the statistics mak and makp.  It
mirrors the source's trace profile through i -> n+1-i in one pass from
element n down to 1: singletons stay singletons, non-singleton openers
and closers trade places, passants stay passants and keep their own
gamma, and the mirror image of opener a takes the gamma of the closer
matched to a by level.  The same pass writes the image's word: an
image opener or singleton opens a new rightmost block, an image closer
or passant joins the gamma-th incomplete block from the left, a closer
sealing it, and ``classify`` must find in that word the roles the pass
wrote.  It also files every element into its certificate row (the
image's four role rows, the source's closer and passant rows), so no
row is scanned for afterwards.  The certificate and its rows are named
tuples.

The level matching is load-bearing, not a tie-break.  Opener a sits at
trace level l_a, its matched closer at level l_a + 1, and the mirrored
position n+1-a again has l_a + 1 incomplete blocks in front of it, so
every transferred label stays inside the range its new position
accepts.  Carrying the closer gamma row over in source order instead
can demand an impossible insertion (smallest failures at n = 6).

``phi_i`` exchanges material between blocks i and i+1 while preserving
the set of block minima; on a partition with k+1 blocks it shifts
stat_i by one: stat_i(p) = stat_{i+1}(phi_i(p)) - 1.

``match_openers_closers`` pairs each non-singleton opener a with the
smallest unused non-singleton closer at trace level l_a + 1, witnessing
that the two level sums agree.  It is the lemma1 suite's independent
witness: ``phi`` does not call it, and pairs each mirrored opener with
its closer through the stack of its own pass.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    CLOSER,
    OPENER,
    SINGLETON,
    PartitionError,
    SetPartition,
    _require_canonical,
    classify,
    trace_profile,
)


class ConsistencyError(RuntimeError):
    """An internal step of a bijection found impossible data.

    Unreachable for valid inputs; raised rather than patched over.
    """


class GammaRow(NamedTuple):
    """A sorted element row paired with its gamma labels."""

    values: tuple[int, ...]
    gammas: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"values": list(self.values), "gammas": list(self.gammas)}


class PhiCertificate(NamedTuple):
    """Source, image, and the four gamma matrices behind one phi step."""

    source: SetPartition
    image: SetPartition
    source_f: GammaRow
    source_p: GammaRow
    image_f: GammaRow
    image_p: GammaRow

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.text(),
            "image": self.image.text(),
            "source_f": self.source_f.to_json_dict(),
            "source_p": self.source_p.to_json_dict(),
            "image_f": self.image_f.to_json_dict(),
            "image_p": self.image_p.to_json_dict(),
        }


def phi_certificate(p: SetPartition) -> PhiCertificate:
    """The involution applied to ``p``, with its gamma matrices."""
    p = _require_canonical(p, "phi is defined on canonically ordered partitions only")
    profile = trace_profile(p)

    # Reading the source profile from n down to 1 writes the image left to
    # right.  The mirror of a source opener takes the gamma of the closer
    # pushed last onto ``pending``, the one matched to it by level, and
    # joins the incomplete block that gamma names.  The same pass files
    # each element into its row: image element b into the image rows
    # (ascending), source element a into the source closer and passant
    # rows (descending until reversed below).
    word, incomplete, pending = [], [], []  # incomplete: the image's, ascending
    singles, openers, closers, closer_g, passants, passant_g = [], [], [], [], [], []
    source_f, source_f_g, source_p = [], [], []
    top = 0
    n = p.n
    for a, b, kind, g in zip(
        range(n, 0, -1), range(1, n + 1), reversed(profile.kinds), reversed(profile.gamma)
    ):
        if kind is CLOSER:  # an image opener
            source_f.append(a)
            source_f_g.append(g)
            pending.append(g)
            openers.append(b)
            top += 1
            word.append(top)
            incomplete.append(top)
            continue
        if kind is SINGLETON:
            singles.append(b)
            top += 1
            word.append(top)
            continue
        if kind is OPENER:  # an image closer
            g = pending.pop()
            closers.append(b)
            closer_g.append(g)
        else:  # a passant keeps its gamma
            source_p.append(a)
            passants.append(b)
            passant_g.append(g)
        if not 1 <= g <= len(incomplete):
            raise ConsistencyError(
                f"transferred labels rejected: element {b}: "
                f"gamma {g} outside the {len(incomplete)} incomplete blocks"
            )
        word.append(incomplete.pop(g - 1) if kind is OPENER else incomplete[g - 1])
    if incomplete:
        raise ConsistencyError("transferred labels rejected: profile ends with unclosed blocks")
    image = SetPartition._trusted(tuple(word))

    image_f = GammaRow(tuple(closers), tuple(closer_g))
    image_p = GammaRow(tuple(passants), tuple(passant_g))
    found = classify(image)  # an independent pass over the image's word
    if (tuple(singles), tuple(openers), image_f.values, image_p.values) != (
        found.singletons,
        found.opener_nonsingletons,
        found.closer_nonsingletons,
        found.passants,
    ):
        raise ConsistencyError("image classification does not mirror the source")
    source_f = GammaRow(tuple(reversed(source_f)), tuple(reversed(source_f_g)))
    source_p = GammaRow(tuple(reversed(source_p)), tuple(reversed(passant_g)))
    return PhiCertificate(p, image, source_f, source_p, image_f, image_p)


def phi(p: SetPartition) -> SetPartition:
    """The mak/makp-exchanging involution."""
    return phi_certificate(p).image


def phi_i(p: SetPartition, i: int) -> SetPartition:
    """Exchange material between blocks i and i+1, preserving minima.

    With C = B_{i+1}, g = max(C) and T = {a in B_i : a > g}:
    if |C| > 1, move g into B_i and T into C; if C = {g}, the map is the
    identity when max(B_i) < g and otherwise moves T onto C leaving
    B_i without its tail.
    """
    p = _require_canonical(p, "phi_i is defined on canonically ordered partitions only")
    if p.k < 2:
        raise PartitionError(f"phi_i needs at least two blocks, got {p.k}")
    if not 1 <= i <= p.k - 1:
        raise PartitionError(f"block index {i} outside 1..{p.k - 1}")
    blocks = [list(b) for b in p.blocks]
    a, c = blocks[i - 1], blocks[i]
    g = c[-1]
    tail = [x for x in a if x > g]
    if len(c) > 1:
        new_a = [x for x in a if x < g] + [g]
        new_c = c[:-1] + tail
    else:
        if a[-1] < g:
            return p
        new_a = [x for x in a if x < g]
        new_c = [g] + tail
    blocks[i - 1] = sorted(new_a)
    blocks[i] = sorted(new_c)
    if not new_a:
        raise ConsistencyError(f"phi_{i} emptied block {i}")
    image = SetPartition.from_blocks(blocks)
    if classify(image).openers != classify(p).openers:
        raise ConsistencyError(f"phi_{i} changed the opener set of {p.text()}")
    return image


def match_openers_closers(p: SetPartition) -> dict[int, int]:
    """Greedy level matching of non-singleton openers to closers.

    Openers are processed in increasing order; opener a takes the
    smallest unused non-singleton closer a' with l_{a'} = l_a + 1.
    """
    p = _require_canonical(
        p, "match_openers_closers is defined on canonically ordered partitions only"
    )
    cls, ls = classify(p), trace_profile(p).l
    available: dict[int, list[int]] = {}
    for c in cls.closer_nonsingletons:
        available.setdefault(ls[c - 1], []).append(c)
    for level in available.values():
        level.sort(reverse=True)  # pop() then yields the smallest
    matching: dict[int, int] = {}
    for a in cls.opener_nonsingletons:
        level = ls[a - 1] + 1
        bucket = available.get(level)
        if not bucket:
            raise ConsistencyError(f"no closer left at level {level} for opener {a}")
        matching[a] = bucket.pop()
    return matching
