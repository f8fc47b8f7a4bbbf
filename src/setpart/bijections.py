"""
Bijections on canonical set partitions.

``phi`` is the involution exchanging the statistics mak and makp.  It
works in four steps: read off the gamma labels of the closers and
passants of the source, mirror the four element classes through
i -> n+1-i (singletons stay singletons, non-singleton openers and
closers trade places, passants stay passants), transfer the labels
(the mirror image of opener a takes the gamma of the closer matched to
a by level, while each passant keeps its own gamma at the mirrored
position), and rebuild by inserting elements in increasing order, each
closer or passant into the gamma-th incomplete block from the left, an
incoming closer sealing its block.

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
that the two level sums agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ElementClassification,
    Kind,
    PartitionError,
    ProfileError,
    SetPartition,
    TraceProfile,
    _require_canonical,
    classify,
    rebuild_from_profile,
    trace_profile,
)


class ConsistencyError(RuntimeError):
    """An internal step of a bijection found impossible data.

    Unreachable for valid inputs; raised rather than patched over.
    """


@dataclass(frozen=True)
class GammaRow:
    """A sorted element row paired with its gamma labels."""

    values: tuple[int, ...]
    gammas: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"values": list(self.values), "gammas": list(self.gammas)}


@dataclass(frozen=True)
class PhiCertificate:
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
    n = p.n
    cls = classify(p)
    profile = trace_profile(p)
    f_values = cls.closer_nonsingletons
    p_values = cls.passants
    f_row = GammaRow(f_values, tuple(profile.gamma[i - 1] for i in f_values))
    p_row = GammaRow(p_values, tuple(profile.gamma[i - 1] for i in p_values))

    mirror = lambda xs: tuple(sorted(n + 1 - x for x in xs))
    new_singletons = mirror(cls.singletons)
    new_openers = mirror(f_values)  # closers become openers
    new_closers = mirror(cls.opener_nonsingletons)
    new_passants = mirror(p_values)

    matching = _level_matching(cls, profile)
    gamma_at = {n + 1 - a: profile.gamma[c - 1] for a, c in matching.items()}
    gamma_at.update((n + 1 - q, profile.gamma[q - 1]) for q in p_values)

    kind_at = {j: Kind.SINGLETON for j in new_singletons}
    kind_at.update((j, Kind.OPENER) for j in new_openers)
    kind_at.update((j, Kind.CLOSER) for j in new_closers)
    kind_at.update((j, Kind.PASSANT) for j in new_passants)

    kinds: list[Kind] = []
    gamma: list[int] = []
    h = 0
    for j in range(1, n + 1):
        kind = kind_at[j]
        kinds.append(kind)
        if kind in (Kind.OPENER, Kind.SINGLETON):
            gamma.append(h + 1)
            if kind is Kind.OPENER:
                h += 1
        else:
            gamma.append(gamma_at[j])
            if kind is Kind.CLOSER:
                h -= 1
    try:
        image = rebuild_from_profile(kinds, gamma)
    except ProfileError as exc:
        raise ConsistencyError(f"transferred labels rejected: {exc}") from exc

    image_f = GammaRow(new_closers, tuple(gamma_at[j] for j in new_closers))
    image_p = GammaRow(new_passants, tuple(gamma_at[j] for j in new_passants))

    image_cls = classify(image)
    if (
        image_cls.singletons != new_singletons
        or image_cls.opener_nonsingletons != new_openers
        or image_cls.closer_nonsingletons != new_closers
        or image_cls.passants != new_passants
    ):
        raise ConsistencyError("image classification does not mirror the source")
    return PhiCertificate(
        source=p,
        image=image,
        source_f=f_row,
        source_p=p_row,
        image_f=image_f,
        image_p=image_p,
    )


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


def _level_matching(cls: ElementClassification, profile: TraceProfile) -> dict[int, int]:
    available: dict[int, list[int]] = {}
    for c in cls.closer_nonsingletons:
        available.setdefault(profile.l[c - 1], []).append(c)
    for level in available.values():
        level.sort(reverse=True)  # pop() then yields the smallest
    matching: dict[int, int] = {}
    for a in cls.opener_nonsingletons:
        level = profile.l[a - 1] + 1
        bucket = available.get(level)
        if not bucket:
            raise ConsistencyError(f"no closer left at level {level} for opener {a}")
        matching[a] = bucket.pop()
    return matching


def match_openers_closers(p: SetPartition) -> dict[int, int]:
    """Greedy level matching of non-singleton openers to closers.

    Openers are processed in increasing order; opener a takes the
    smallest unused non-singleton closer a' with l_{a'} = l_a + 1.
    """
    p = _require_canonical(
        p, "match_openers_closers is defined on canonically ordered partitions only"
    )
    return _level_matching(classify(p), trace_profile(p))
