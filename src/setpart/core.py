"""
Representations of set partitions of [n] = {1, ..., n}.

Two kinds of objects live here:

- SetPartition: blocks listed in increasing order of their minima (the
  canonical order).  Internally a partition is stored as its restricted
  growth word w, where w_i is the index of the block containing i; the
  block view is derived from the word.
- OrderedSetPartition: blocks in an arbitrary, meaningful order.  Stored
  as the block tuple; its word w_i (index of the block containing i) is
  derived and is generally not a restricted growth word.

Elements are 1-based everywhere.  n = 0 is allowed and denotes the empty
partition (zero blocks), which counts as one object.

The text grammar, used by the CLI and the parsers below, separates blocks
with `/` and elements with `,`, e.g. ``1,4,8/2/3,7,9/5,6``.  Whitespace is
ignored.  The empty string denotes the empty partition.

Element roles: the minimum of a block is an opener, the maximum a closer,
a sole element is a singleton (both opener and closer), anything else is
a passant.  The i-th trace T_i of a canonical partition is the family of
restrictions B ∩ [i]; a non-empty restriction is complete if it already
equals its block and incomplete otherwise.  For each element i,

- l_i = number of incomplete blocks in T_{i-1}  (l_1 = 0), and
- gamma_i = 1 + number of incomplete blocks strictly left of i's block
  in T_i.

The pair sequence (kind_i, gamma_i) determines the partition uniquely;
``rebuild_from_profile`` inverts ``trace_profile``.

Both read the restricted growth word once from left to right, keeping
the indices of the incomplete blocks as a sorted list: l_i is its
length before element i, and gamma_i is one plus the position of i's
block in it.  An opener or singleton starts a new rightmost block, a
closer leaves the list.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class PartitionError(ValueError):
    """Invalid partition data (bad blocks, bad word, bad profile)."""


class ParseError(PartitionError):
    """Unparsable partition text; ``position`` is the 0-based offset of
    the offending character, or None when the text parses but its blocks
    do not form a partition."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (position {position})")
        self.position = position


class ProfileError(PartitionError):
    """A (kind, gamma) profile that no partition realizes."""


class Kind(enum.Enum):
    OPENER = "opener"
    CLOSER = "closer"
    PASSANT = "passant"
    SINGLETON = "singleton"


def _check_rgf(letters: Sequence[int]) -> None:
    top = 0
    for pos, letter in enumerate(letters):
        if not isinstance(letter, int) or letter < 1 or letter > top + 1:
            raise PartitionError(
                f"restricted growth violated at index {pos + 1}: "
                f"letter {letter!r} after maximum {top}"
            )
        if letter > top:
            top = letter


@dataclass(frozen=True)
class RgfWord:
    """A restricted growth word: w_1 = 1 and w_i <= max(w_1..w_{i-1}) + 1."""

    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        _check_rgf(self.letters)

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def k(self) -> int:
        return max(self.letters, default=0)

    def text(self) -> str:
        return " ".join(str(x) for x in self.letters)

    def __str__(self) -> str:
        return self.text()


def _blocks_from_word(word: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    k = max(word, default=0)
    blocks: list[list[int]] = [[] for _ in range(k)]
    for i, letter in enumerate(word, start=1):
        blocks[letter - 1].append(i)
    return tuple(tuple(b) for b in blocks)


def _word_from_blocks(blocks: Sequence[Sequence[int]]) -> tuple[int, ...]:
    word = [0] * sum(len(b) for b in blocks)
    for idx, block in enumerate(blocks, start=1):
        for x in block:
            word[x - 1] = idx
    return tuple(word)


def _validate_blocks(blocks: Sequence[Iterable[int]]) -> list[list[int]]:
    cleaned = []
    seen: dict[int, int] = {}
    for pos, block in enumerate(blocks, start=1):
        items = sorted(block)
        if not items:
            raise PartitionError(f"block {pos} is empty")
        for x in items:
            if not isinstance(x, int) or x < 1:
                raise PartitionError(f"element {x!r} in block {pos} is not a positive integer")
            if x in seen:
                where = f"in blocks {seen[x]} and {pos}"
                if seen[x] == pos:
                    where = f"twice in block {pos}"
                raise PartitionError(f"element {x} appears {where}")
            seen[x] = pos
        cleaned.append(items)
    n = len(seen)
    for x in range(1, n + 1):
        if x not in seen:
            raise PartitionError(f"element {x} is missing (ground set has {n} elements)")
    return cleaned


@dataclass(frozen=True)
class SetPartition:
    """A partition of [n] with blocks in increasing order of minima.

    The canonical representation is the restricted growth word; ``blocks``
    is a derived view.

    >>> SetPartition.from_blocks([[2, 1], [3]]).text()
    '1,2/3'
    >>> SetPartition.from_rgf([1, 2, 1]).blocks
    ((1, 3), (2,))
    """

    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        _check_rgf(self.word)

    @classmethod
    def from_rgf(cls, word: RgfWord | Sequence[int]) -> "SetPartition":
        letters = word.letters if isinstance(word, RgfWord) else tuple(word)
        return cls(letters)

    @classmethod
    def from_blocks(cls, blocks: Sequence[Iterable[int]]) -> "SetPartition":
        cleaned = _validate_blocks(blocks)
        cleaned.sort(key=lambda b: b[0])
        return cls(_word_from_blocks(cleaned))

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return _blocks_from_word(self.word)

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def k(self) -> int:
        return max(self.word, default=0)

    def to_rgf(self) -> RgfWord:
        return RgfWord(self.word)

    def letter(self, i: int) -> int:
        """Block index of element i (1-based)."""
        return self.word[i - 1]

    def text(self) -> str:
        return format_blocks(self.blocks)

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class OrderedSetPartition:
    """A partition of [n] whose block order carries meaning.

    ``word`` maps each element to the index of its block in the given
    order; it need not be a restricted growth word.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cleaned = _validate_blocks(self.blocks)
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in cleaned))

    @classmethod
    def from_blocks(cls, blocks: Sequence[Iterable[int]]) -> "OrderedSetPartition":
        return cls(tuple(tuple(b) for b in blocks))

    @cached_property
    def word(self) -> tuple[int, ...]:
        return _word_from_blocks(self.blocks)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    def letter(self, i: int) -> int:
        return self.word[i - 1]

    def canonical(self) -> SetPartition:
        return SetPartition.from_blocks(self.blocks)

    def is_canonical(self) -> bool:
        minima = [b[0] for b in self.blocks]
        return all(a < b for a, b in zip(minima, minima[1:]))

    def text(self) -> str:
        return format_blocks(self.blocks)

    def __str__(self) -> str:
        return self.text()


Partition = SetPartition | OrderedSetPartition


def format_blocks(blocks: Sequence[Sequence[int]]) -> str:
    return "/".join(",".join(str(x) for x in block) for block in blocks)


def _parse_blocks(text: str) -> list[list[int]]:
    blocks: list[list[int]] = []
    current: list[int] = []
    digits = ""
    digits_at = 0

    def flush_element(pos: int) -> None:
        nonlocal digits
        if not digits:
            raise ParseError("expected an element", pos)
        current.append(int(digits))
        digits = ""

    stripped_any = False
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        stripped_any = True
        if ch.isdigit():
            if not digits:
                digits_at = pos
            digits += ch
        elif ch == ",":
            flush_element(pos)
        elif ch == "/":
            flush_element(pos)
            blocks.append(current)
            current = []
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    if not stripped_any:
        return []
    flush_element(len(text))
    blocks.append(current)
    return blocks


def parse_ordered(text: str) -> OrderedSetPartition:
    """Parse the block grammar keeping the written block order."""
    blocks = _parse_blocks(text)
    try:
        return OrderedSetPartition.from_blocks(blocks)
    except PartitionError as exc:
        raise ParseError(str(exc)) from exc


def parse_partition(text: str) -> SetPartition:
    """Parse the block grammar, normalizing blocks to canonical order.

    >>> parse_partition("3 / 2,1").text()
    '1,2/3'
    """
    blocks = _parse_blocks(text)
    try:
        return SetPartition.from_blocks(blocks)
    except PartitionError as exc:
        raise ParseError(str(exc)) from exc


def parse_rgf(text: str) -> RgfWord:
    """Parse a space-separated restricted growth word."""
    parts = text.split()
    try:
        letters = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"not an integer: {exc}", 0) from exc
    return RgfWord(letters)


@dataclass(frozen=True)
class ElementClassification:
    """Openers, closers, passants and singletons of a partition."""

    openers: tuple[int, ...]
    closers: tuple[int, ...]
    passants: tuple[int, ...]
    singletons: tuple[int, ...]

    @property
    def opener_nonsingletons(self) -> tuple[int, ...]:
        s = set(self.singletons)
        return tuple(x for x in self.openers if x not in s)

    @property
    def closer_nonsingletons(self) -> tuple[int, ...]:
        s = set(self.singletons)
        return tuple(x for x in self.closers if x not in s)


def classify(p: Partition) -> ElementClassification:
    """Sorted opener/closer/passant/singleton sets of ``p``.

    Works for canonical and ordered partitions alike: the roles depend
    only on the blocks, not on their order.
    """
    openers, closers, singles, passants = [], [], [], []
    for block in p.blocks:
        openers.append(block[0])
        closers.append(block[-1])
        if len(block) == 1:
            singles.append(block[0])
        else:
            passants.extend(block[1:-1])
    return ElementClassification(
        openers=tuple(sorted(openers)),
        closers=tuple(sorted(closers)),
        passants=tuple(sorted(passants)),
        singletons=tuple(sorted(singles)),
    )


@dataclass(frozen=True)
class TraceProfile:
    """Per-element kinds with the l and gamma sequences."""

    kinds: tuple[Kind, ...]
    l: tuple[int, ...]
    gamma: tuple[int, ...]


def _require_canonical(p: Partition, message: str) -> SetPartition:
    """``p`` itself when its blocks are in canonical order; otherwise a
    PartitionError carrying ``message``."""
    if isinstance(p, SetPartition):
        return p
    raise PartitionError(message)


def trace_profile(p: SetPartition) -> TraceProfile:
    """Kinds plus (l_i, gamma_i) for each element of a canonical partition,
    in one left-to-right pass over its word."""
    word = _require_canonical(p, "trace profiles are defined on canonical partitions").word
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
                kinds.append(Kind.SINGLETON)
            else:
                kinds.append(Kind.OPENER)
                incomplete.append(letter)
        else:
            pos = bisect_left(incomplete, letter)
            gammas.append(pos + 1)
            if last[letter] == i:
                kinds.append(Kind.CLOSER)
                del incomplete[pos]
            else:
                kinds.append(Kind.PASSANT)
    return TraceProfile(kinds=tuple(kinds), l=tuple(ls), gamma=tuple(gammas))


def rebuild_from_profile(kinds: Sequence[Kind], gamma: Sequence[int]) -> SetPartition:
    """The unique canonical partition whose trace profile is (kinds, gamma).

    Openers and singletons start a new rightmost block (for them gamma
    must equal the current incomplete count plus one); closers and
    passants join the gamma-th incomplete block from the left, a closer
    sealing it.  Raises ProfileError when no partition fits.
    """
    if len(kinds) != len(gamma):
        raise ProfileError("kinds and gamma have different lengths")
    word: list[int] = []
    incomplete: list[int] = []  # indices of the incomplete blocks, ascending
    top = 0
    for i, (kind, g) in enumerate(zip(kinds, gamma), start=1):
        count = len(incomplete)
        if kind in (Kind.OPENER, Kind.SINGLETON):
            if g != count + 1:
                raise ProfileError(
                    f"element {i}: a new block must carry gamma {count + 1}, got {g}"
                )
            top += 1
            word.append(top)
            if kind is Kind.OPENER:
                incomplete.append(top)
        else:
            if not 1 <= g <= count:
                raise ProfileError(
                    f"element {i}: gamma {g} outside the {count} incomplete blocks"
                )
            word.append(incomplete[g - 1])
            if kind is Kind.CLOSER:
                del incomplete[g - 1]
    if incomplete:
        raise ProfileError("profile ends with unclosed blocks")
    return SetPartition(tuple(word))


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


def enumerate_partitions(n: int, k: int | None = None) -> Iterator[SetPartition]:
    """All partitions of [n] (into k blocks if given), in lexicographic
    order of their restricted growth words.

    k > n or (k = 0 and n > 0) give an empty stream.
    """
    if n < 0 or (k is not None and k < 0):
        raise PartitionError("n and k must be non-negative")
    for word in _rgf_words(n, k):
        yield SetPartition(word)


def enumerate_ordered(n: int, k: int | None = None) -> Iterator[OrderedSetPartition]:
    """All ordered partitions of [n]: canonical partitions in word order,
    each expanded through its block permutations in lexicographic order."""
    for p in enumerate_partitions(n, k):
        for perm in itertools.permutations(p.blocks):
            yield OrderedSetPartition(perm)
