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
sealing it.  The pass files only where the image's blocks start
(openers and singletons) and end (closers and singletons), and the
first and the last occurrences of the letters of the built word must
fall exactly there; the two sets fix the singletons, the other openers
and closers, and the passants.  ``phi_certificate`` pairs the source
with that image, and its four gamma rows (closers and passants of each
side) are views read off the two trace profiles when asked, so a caller
that takes only the image builds neither a row nor the image's profile.
The certificate and its rows are named tuples.

The level matching is load-bearing, not a tie-break.  Opener a sits at
trace level l_a, its matched closer at level l_a + 1, and the mirrored
position n+1-a again has l_a + 1 incomplete blocks in front of it, so
every transferred label stays inside the range its new position
accepts.  Carrying the closer gamma row over in source order instead
can demand an impossible insertion (smallest failures at n = 6).

``phi_i`` exchanges material between blocks i and i+1 while preserving
the set of block minima; on a partition with k+1 blocks it shifts
stat_i by one: stat_i(p) = stat_{i+1}(phi_i(p)) - 1.  It writes its
image word by swapping the letters i and i+1 of the moved elements; the
first occurrences of the built word's letters must stay at the source's
openers, letter j at the j-th, so the word stays a restricted growth
word.

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
    PASSANT,
    SINGLETON,
    Kind,
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


def _row(p: SetPartition, kind: Kind) -> GammaRow:
    """The non-singleton closers or the passants of ``p`` with their gammas,
    read off its trace profile."""
    profile = trace_profile(p)
    values = tuple([i for i, k in enumerate(profile.kinds, start=1) if k is kind])
    return GammaRow(values, tuple([profile.gamma[i - 1] for i in values]))


class PhiCertificate(NamedTuple):
    """Source and image of one phi step.  The four gamma matrices behind it
    are views, each read off the trace profile of its side when asked."""

    source: SetPartition
    image: SetPartition
    source_f = property(lambda self: _row(self.source, CLOSER))
    source_p = property(lambda self: _row(self.source, PASSANT))
    image_f = property(lambda self: _row(self.image, CLOSER))
    image_p = property(lambda self: _row(self.image, PASSANT))

    def to_json_dict(self) -> dict:
        return {
            "source": self.source.text(),
            "image": self.image.text(),
            "source_f": self.source_f.to_json_dict(),
            "source_p": self.source_p.to_json_dict(),
            "image_f": self.image_f.to_json_dict(),
            "image_p": self.image_p.to_json_dict(),
        }


def _firsts(word: tuple[int, ...]) -> dict[int, int]:
    """Each letter of ``word`` with the position of its first occurrence."""
    return dict(zip(reversed(word), range(len(word), 0, -1)))


def _mirror(p: SetPartition) -> SetPartition:
    p = _require_canonical(p, "phi is defined on canonically ordered partitions only")
    profile = trace_profile(p)

    # Reading the source profile from n down to 1 writes the image left to
    # right.  The mirror of a source opener takes the gamma of the closer
    # pushed last onto ``pending``, the one matched to it by level, and
    # joins the incomplete block that gamma names.  The same pass files
    # where the image's blocks start and where they end, ascending.
    word, incomplete, pending, starts, ends = [], [], [], [], []  # incomplete: the image's
    top = 0
    for b, kind, g in zip(range(1, p.n + 1), reversed(profile.kinds), reversed(profile.gamma)):
        if kind is CLOSER:  # an image opener
            pending.append(g)
            starts.append(b)
            top += 1
            word.append(top)
            incomplete.append(top)
            continue
        if kind is SINGLETON:
            starts.append(b)
            ends.append(b)
            top += 1
            word.append(top)
            continue
        if kind is OPENER:  # an image closer
            g = pending.pop()
            ends.append(b)
        if not 1 <= g <= len(incomplete):
            raise ConsistencyError(
                f"transferred labels rejected: element {b}: "
                f"gamma {g} outside the {len(incomplete)} incomplete blocks"
            )
        word.append(incomplete.pop(g - 1) if kind is OPENER else incomplete[g - 1])
    if incomplete:
        raise ConsistencyError("transferred labels rejected: profile ends with unclosed blocks")
    image = SetPartition._trusted(tuple(word))

    # An independent reading of the built word: the first and the last
    # position of each letter.
    w = image.word
    lasts = dict(zip(w, range(1, len(w) + 1)))
    if sorted(_firsts(w).values()) != starts or sorted(lasts.values()) != ends:
        raise ConsistencyError("image classification does not mirror the source")
    return image


def phi_certificate(p: SetPartition) -> PhiCertificate:
    """The involution applied to ``p``, with its gamma matrices as views."""
    return PhiCertificate(p, _mirror(p))


def phi(p: SetPartition) -> SetPartition:
    """The mak/makp-exchanging involution."""
    return _mirror(p)


def phi_i(p: SetPartition, i: int) -> SetPartition:
    """Exchange material between blocks i and i+1, preserving minima.

    With C = B_{i+1}, g = max(C) and T = {a in B_i : a > g}, T moves to
    C and g moves to B_i unless C = {g}; the map is the identity when
    C = {g} and T is empty.  The minima stay put, so each moved element
    takes the other letter of the pair (i, i+1) in the word.
    """
    p = _require_canonical(p, "phi_i is defined on canonically ordered partitions only")
    if p.k < 2:
        raise PartitionError(f"phi_i needs at least two blocks, got {p.k}")
    if not 1 <= i <= p.k - 1:
        raise PartitionError(f"block index {i} outside 1..{p.k - 1}")
    word = list(p.word)
    n = len(word)
    g = n - word[::-1].index(i + 1)  # max C
    moved = [x for x in range(g + 1, n + 1) if word[x - 1] == i]  # T
    if word.index(i + 1) < g - 1:  # C holds more than g
        moved.append(g)
    elif not moved:
        return p
    for x in moved:
        word[x - 1] = 2 * i + 1 - word[x - 1]
    image = SetPartition._trusted(tuple(word))
    # Same opener positions with the same letters: the word is still a
    # restricted growth word.
    if _firsts(image.word) != dict(enumerate(classify(p).openers, start=1)):
        raise ConsistencyError(f"phi_{i} changed the openers of {p.text()}")
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
