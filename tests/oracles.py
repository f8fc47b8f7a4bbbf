"""
Definition-literal brute forces used as independent oracles.

Everything here works on plain block tuples and recomputes each quantity
straight from its set-theoretic definition, quadratically or worse.  No
function imports the scan implementations under test, so agreement is a
genuine cross-check rather than the same code run twice.

The exceptions are copies of library code that faster code replaced:
``rebuild_from_profile``, the former profile rebuild, which
``motzkin.decode`` and the image pass of ``bijections.phi_certificate``
replaced (it keeps every check it had and hands its word to the checked
``SetPartition`` constructor), ``phi_i``, the former block-list
exchange map, which ``bijections.phi_i`` replaced by editing the word
(it splices and sorts the two blocks and hands them to the checked
``SetPartition.from_blocks``), ``phi_certificate`` with its six-field
``PhiCertificate``, the former pass that filed the four gamma rows as
it wrote the image and checked the image against ``classify``, which
``bijections.phi_certificate`` replaced by rows read off the two trace
profiles when asked, and the former recursive enumerators
``_rgf_words`` and ``enumerate_paths``, which the successor steps of
``core._rgf_words`` and ``motzkin.enumerate_paths`` replaced,
``mak_histograms``, the former packed transfer DP that added a closer's
or singleton's whole remaining count at the step where the block closed
and walked every cell of the flat state list, which the per-step
closed-block lift and the height bands of ``verify.mak_histograms``
replaced, and ``q_stirling``, the former recurrence on ``QPolynomial``
values that multiplied by ``q_int(j)`` term by term, which the window
product of ``qseries.q_stirling`` replaced, and ``parse_blocks`` with
``parse_ordered``, the former text parser that split every block, called
``int()`` on every element and handed the blocks to the checked
``OrderedSetPartition``, which the name-table pass of
``core.parse_ordered`` replaced, and ``trace_pass`` with ``encode``, the
former left-to-right pass that filed each element's kind, l and gamma
and the former ``motzkin.encode`` that wrote the path from that
profile in a second loop, which the one step-writing pass of
``core._path_steps`` replaced (``core.trace_profile`` is now read off
its steps).  ``phi_certificate`` reads the profile of ``trace_pass``.

``assert_one_pass_agrees`` is the one comparison kept here: it runs the
library's ``trace_profile``, ``encode`` and ``phi`` and compares them
with these oracles, for the Tier-1 test and the extended check to share.
"""

from __future__ import annotations

import itertools
import struct
from bisect import bisect_left
from typing import Iterator, NamedTuple

from setpart import bijections, core, motzkin
from setpart.bijections import ConsistencyError, GammaRow
from setpart.core import (
    CLOSER,
    OPENER,
    PASSANT,
    SINGLETON,
    OrderedSetPartition,
    ParseError,
    PartitionError,
    SetPartition,
    TraceProfile,
    _e_steps,
    _parse_error,
    _require_canonical,
    _se_steps,
    classify,
)
from setpart.motzkin import _E1_STAR, _NE1, E, SE, LabeledMotzkinPath, PathError, Step
from setpart.qseries import QPolynomial, q_int
from setpart.verify import _STRUCT_CODES, _limb_bytes, bell_number


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


def trace_pass(p: SetPartition) -> TraceProfile:
    """Kinds plus (l_i, gamma_i) for each element of a canonical partition,
    in one left-to-right pass over its word that keeps the indices of
    the incomplete blocks as a sorted list."""
    p = _require_canonical(p, "trace profiles are defined on canonical partitions")
    word = p.word
    last = {letter: i for i, letter in enumerate(word)}
    incomplete: list[int] = []  # indices of the incomplete blocks, ascending
    kinds, ls, gammas = [], [], []
    top = 0
    for i, letter in enumerate(word):
        ls.append(len(incomplete))
        if letter > top:
            top = letter
            gammas.append(len(incomplete) + 1)
            if last[letter] == i:
                kinds.append(SINGLETON)
            else:
                kinds.append(OPENER)
                incomplete.append(letter)
        else:
            pos = bisect_left(incomplete, letter)
            gammas.append(pos + 1)
            if last[letter] == i:
                kinds.append(CLOSER)
                del incomplete[pos]
            else:
                kinds.append(PASSANT)
    return TraceProfile(tuple(kinds), tuple(ls), tuple(gammas))


def encode(p: SetPartition) -> LabeledMotzkinPath:
    """The labeled path of a canonical partition, written from its
    ``trace_pass`` profile in a second loop."""
    profile = trace_pass(p)
    # labels run from 1 to the height, which is at most n / 2
    se, e = _se_steps(p.n // 2), _e_steps(p.n // 2)
    steps = []
    for kind, g in zip(profile.kinds, profile.gamma):
        if kind is OPENER:
            steps.append(_NE1)
        elif kind is SINGLETON:
            steps.append(_E1_STAR)
        else:
            steps.append(se[g] if kind is CLOSER else e[g])
    return LabeledMotzkinPath._trusted(tuple(steps))


def assert_one_pass_agrees(p: SetPartition) -> None:
    """The trace profile, path and phi image that the library reads off
    the one profile pass of ``p`` equal ``trace_pass``, ``l_gamma``,
    ``encode`` and the image of ``phi_certificate``."""
    profile = core.trace_profile(p)
    assert profile == trace_pass(p), p.text()
    assert (list(profile.l), list(profile.gamma)) == l_gamma(p.blocks), p.text()
    assert motzkin.encode(p) == encode(p), p.text()
    assert bijections.phi(p) == phi_certificate(p).image, p.text()


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
    profile = trace_pass(p)

    # Reading the source profile from n down to 1 writes the image left to
    # right.  The mirror of a source opener takes the gamma of the closer
    # pushed last onto ``pending``, the one matched to it by level, and
    # joins the incomplete block that gamma names.  The same pass files
    # each image element b into its image row (ascending); the source
    # closers and passants are the mirrors n + 1 - b of the image openers
    # and passants, so their rows are read off those at the end.
    word, incomplete, pending = [], [], []  # incomplete: the image's, ascending
    singles, openers, closers, closer_g, passants, passant_g = [], [], [], [], [], []
    source_f_g = []  # the source closers' gammas, descending by element
    top = 0
    n = p.n
    for b, kind, g in zip(range(1, n + 1), reversed(profile.kinds), reversed(profile.gamma)):
        if kind is CLOSER:  # an image opener
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
    source_f = GammaRow(tuple([n + 1 - b for b in reversed(openers)]), tuple(reversed(source_f_g)))
    source_p = GammaRow(tuple([n + 1 - b for b in reversed(passants)]), tuple(reversed(passant_g)))
    return PhiCertificate(p, image, source_f, source_p, image_f, image_p)


def _rgf_words(n: int, k: int | None) -> Iterator[tuple[int, ...]]:
    if n == 0:
        if k is None or k == 0:
            yield ()
        return
    if k is not None and not 1 <= k <= n:
        return
    word = [0] * n

    def rec(i: int, top: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if k is None or top == k:
                yield tuple(word)
            return
        limit = top + 1
        if k is not None:
            limit = min(limit, k)
        for letter in range(1, limit + 1):
            new_top = top if letter <= top else letter
            if k is not None and new_top + (n - i - 1) < k:
                continue
            word[i] = letter
            yield from rec(i + 1, new_top)

    yield from rec(0, 0)


def enumerate_paths(n: int) -> Iterator[LabeledMotzkinPath]:
    """All valid labeled paths of length n (count: Bell number)."""
    if n < 0:
        raise PathError("path length must be non-negative")
    steps: list[Step] = []
    # The SE and E steps of labels 1, 2, ..., made once; heights stay <= n / 2.
    se = [Step(SE, g) for g in range(1, n // 2 + 1)]
    e = [Step(E, g) for g in range(1, n // 2 + 1)]

    def rec(i: int, h: int) -> Iterator[LabeledMotzkinPath]:
        if i == n:
            if h == 0:
                yield LabeledMotzkinPath._trusted(tuple(steps))
            return
        rem = n - i - 1  # steps after this one
        if h >= 1:
            for step in se[:h]:
                steps.append(step)
                yield from rec(i + 1, h - 1)
                steps.pop()
            if h <= rem:
                for step in e[:h]:
                    steps.append(step)
                    yield from rec(i + 1, h)
                    steps.pop()
        if h <= rem:
            steps.append(_E1_STAR)
            yield from rec(i + 1, h)
            steps.pop()
        if h + 1 <= rem:
            steps.append(_NE1)
            yield from rec(i + 1, h + 1)
            steps.pop()

    yield from rec(0, 0)


def parse_blocks(text: str) -> list[list[int]]:
    compact = "".join(text.split())
    if not compact:
        return []
    blocks = [block.split(",") for block in compact.split("/")]
    if not all(map(str.isdigit, itertools.chain.from_iterable(blocks))):
        raise _parse_error(text, compact)
    return [list(map(int, block)) for block in blocks]


def parse_ordered(text: str) -> OrderedSetPartition:
    """Parse the block grammar keeping the written block order."""
    blocks = parse_blocks(text)
    try:
        return OrderedSetPartition(blocks)
    except PartitionError as exc:
        raise ParseError(str(exc)) from exc


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


def mak_histograms(n: int, threads: int = 1) -> dict[int, list[int]]:
    """Coefficient lists of the mak distribution over the k-block
    partitions of [n], for every k, by a transfer DP over labeled
    Motzkin-path states.

    ``mak_histograms(n)[k][m]`` is the number of partitions of [n] into
    k blocks with mak equal to m.  Trailing zeros are trimmed and empty
    rows left out.

    A state is (h, blocks opened) after a prefix of the path; it carries
    the mak coefficient list summed over all prefixes that reach it.
    Step i, with rem = n - i elements still to come, adds to mak
    rem + d for a closer, d for a passant (d = h - label ranging over
    0..h-1), rem for a singleton and nothing for an opener.  The work is
    polynomial in n instead of Bell(n).  ``threads`` is accepted for
    compatibility and ignored.

    Each coefficient list is packed into one int, coefficient m in the
    W-bit limb m (Kronecker substitution q = x = 2^W), so the steps are
    big-int shifts and adds.  Every prefix the DP keeps can still be
    completed and distinct prefixes complete to distinct partitions, so
    no coefficient ever exceeds Bell(n), and W = the bits of Bell(n)
    rounded up to whole bytes never carries.  A carry would lower the sum
    of the unpacked counts, which is checked against Bell(n).

    The states live in one flat list, (h, opened) at index
    h * (n + 2) + opened, so a closer, passant, singleton and opener move
    a row by the fixed offsets -(n + 2), 0, +1 and n + 3; each step fills
    a fresh list, reading only the cells that its prefixes can reach and
    skipping the empty ones.  While Bell(n) fits in 8 bytes (n <= 25), W
    is rounded up to 8, 16, 32 or 64 bits and each row is read with one
    little-endian ``struct.unpack`` call; wider limbs are read as
    ``int.from_bytes`` slices.
    """
    if n < 0:
        raise core.PartitionError("n must be non-negative")
    bell = bell_number(n)
    size = _limb_bytes(bell)
    if size <= 8:
        size = 1 << (size - 1).bit_length()  # 1, 2, 4 or 8: one struct code
    width = 8 * size
    # state (h, opened) at index h * stride + opened; h never exceeds n // 2
    stride = n + 2
    states = [0] * ((n // 2 + 2) * stride)
    states[0] = 1
    for i in range(1, n + 1):
        rem = n - i
        lift = rem * width
        nxt = [0] * len(states)
        # after i - 1 steps, h <= min(i - 1, n - i + 1) and opened <= i - 1
        for at, row in enumerate(states[: min(i - 1, n - i + 1) * stride + i]):
            if not row:
                continue
            h = at // stride
            if h:
                # box = row * (1 + x + ... + x^(span-1)), grown by doubling
                # to span = h along the bits of h below its leading one
                box, span = row, 1
                for bit in bin(h)[3:]:
                    box += box << span * width
                    span *= 2
                    if bit == "1":
                        box = (box << width) + row
                        span += 1
                nxt[at - stride] += box << lift  # closer
                if h <= rem:
                    nxt[at] += box  # passant
            if h <= rem:
                nxt[at + 1] += row << lift  # singleton
            if h < rem:
                nxt[at + stride + 1] += row  # opener
        states = nxt
    # Every surviving state ends at height 0; a row's top limb is its
    # highest non-zero coefficient, so none needs trimming.
    code = _STRUCT_CODES.get(size)
    hists = {}
    for k, packed in enumerate(states[:stride]):
        if packed:
            count = -(-packed.bit_length() // width)
            data = packed.to_bytes(count * size, "little")
            if code:
                hists[k] = list(struct.unpack(f"<{count}{code}", data))
            else:
                hists[k] = [
                    int.from_bytes(data[j : j + size], "little") for j in range(0, len(data), size)
                ]
    total = sum(map(sum, hists.values()))
    if total != bell:
        raise bijections.ConsistencyError(
            f"mak counts for n={n} sum to {total}, not Bell({n}) = {bell}: "
            f"a {width}-bit coefficient overflowed"
        )
    return hists


_STIRLING_CACHE: dict[tuple[int, int], QPolynomial] = {}


def q_stirling(n: int, k: int) -> QPolynomial:
    """S_q(n, k) by the two-term recurrence, memoized by (n, k)."""
    if n < 0 or k < 0:
        raise ValueError("q-Stirling numbers need n, k >= 0")
    if k > n:
        return QPolynomial.zero()
    try:
        return _STIRLING_CACHE[(n, k)]
    except KeyError:
        pass
    for m in range(0, n + 1):
        for j in range(0, min(m, k) + 1):
            if (m, j) in _STIRLING_CACHE:
                continue
            if m == 0 or j == 0:
                val = QPolynomial.one() if m == j else QPolynomial.zero()
            else:
                left = _STIRLING_CACHE.get((m - 1, j - 1), QPolynomial.zero())
                right = _STIRLING_CACHE.get((m - 1, j), QPolynomial.zero())
                val = left.shift(j - 1) + q_int(j) * right
            _STIRLING_CACHE[(m, j)] = val
    return _STIRLING_CACHE[(n, k)]
