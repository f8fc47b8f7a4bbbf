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
a passant.  ``classify`` reads them off the word, canonical or ordered,
in one pass without the block view or any sorting: an element opens its
block at the block's first occurrence and closes it at the last.  The
i-th trace T_i of a canonical partition is the family of restrictions
B ∩ [i]; a non-empty restriction is complete if it already equals its
block and incomplete otherwise.  For each element i,

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

Partitions are immutable, so each object computes its classification
and its trace profile (and a canonical partition its block count ``k``)
once, on first request, and keeps them in its instance dict next to the
cached ``blocks`` view (``_memo``); they live exactly as long as the
object and take no part in equality or hashing.

Validation happens at the boundary only: the public constructors
(``SetPartition(word)``, ``SetPartition.from_blocks`` and
``OrderedSetPartition(blocks)``) and the parsers check everything they
are given.
Words that this module builds valid by construction (enumeration,
``from_blocks`` after its block check, ``rebuild_from_profile``) go
through the private ``SetPartition._trusted`` without a second check,
and so do the block permutations of ``enumerate_ordered``
(``OrderedSetPartition._trusted``).
"""

from __future__ import annotations

import enum
import itertools
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

_T = TypeVar("_T")


class _cached:
    """A view computed on first access and kept in the instance dict,
    which later lookups find before this non-data descriptor.  It is
    ``functools.cached_property`` without the lock it takes on every
    first access before Python 3.12; the objects here are immutable, so
    a race at worst computes the same value twice."""

    def __init__(self, compute: Callable):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner: type | None = None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


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


# Module names for the members: unlike ``Kind.OPENER``, no metaclass lookup.
OPENER, CLOSER, PASSANT, SINGLETON = Kind


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
    >>> SetPartition([1, 2, 1]).blocks
    ((1, 3), (2,))
    """

    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        _check_rgf(self.word)

    @classmethod
    def _trusted(cls, word: tuple[int, ...]) -> "SetPartition":
        """The partition of ``word``, built valid by the caller; no check."""
        p = object.__new__(cls)
        object.__setattr__(p, "word", word)
        return p

    @classmethod
    def from_blocks(cls, blocks: Sequence[Iterable[int]]) -> "SetPartition":
        cleaned = _validate_blocks(blocks)
        cleaned.sort(key=lambda b: b[0])
        return cls._trusted(_word_from_blocks(cleaned))

    @_cached
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return _blocks_from_word(self.word)

    @property
    def n(self) -> int:
        return len(self.word)

    @_cached
    def k(self) -> int:
        return max(self.word, default=0)

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
    def _trusted(cls, blocks: tuple[tuple[int, ...], ...]) -> "OrderedSetPartition":
        """The ordered partition of ``blocks``, valid and sorted by the
        caller's construction; no check."""
        p = object.__new__(cls)
        object.__setattr__(p, "blocks", blocks)
        return p

    @_cached
    def word(self) -> tuple[int, ...]:
        return _word_from_blocks(self.blocks)

    @_cached
    def n(self) -> int:
        return sum(map(len, self.blocks))

    @property
    def k(self) -> int:
        return len(self.blocks)

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
    return "/".join(",".join(map(str, block)) for block in blocks)


def _parse_blocks(text: str) -> list[list[int]]:
    compact = "".join(text.split())
    if not compact:
        return []
    blocks = [block.split(",") for block in compact.split("/")]
    if not all(map(str.isdigit, itertools.chain.from_iterable(blocks))):
        raise _parse_error(text, compact)
    return [list(map(int, block)) for block in blocks]


def _parse_error(text: str, compact: str) -> ParseError:
    """The error at the first element of ``compact`` (``text`` without
    whitespace) that is empty (placed at the separator after it, or the
    end) or holds a non-digit (at that character), located in ``text``."""
    at = 0
    for element in re.split("[,/]", compact):
        if not element.isdigit():
            break
        int(element)  # read in order, so one int() rejects ("1²") raises first
        at += len(element) + 1
    positions = [pos for pos, ch in enumerate(text) if not ch.isspace()] + [len(text)]
    for i, ch in enumerate(element):
        if not ch.isdigit():
            return ParseError(f"unexpected character {ch!r}", positions[at + i])
    return ParseError("expected an element", positions[at])


def parse_ordered(text: str) -> OrderedSetPartition:
    """Parse the block grammar keeping the written block order."""
    blocks = _parse_blocks(text)
    try:
        return OrderedSetPartition(blocks)
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


@dataclass(frozen=True)
class ElementClassification:
    """Openers, closers, passants and singletons of a partition, each
    ascending; the openers and closers include the singletons."""

    openers: tuple[int, ...]
    closers: tuple[int, ...]
    passants: tuple[int, ...]
    singletons: tuple[int, ...]
    opener_nonsingletons: tuple[int, ...]
    closer_nonsingletons: tuple[int, ...]


def _memo(p: Partition, name: str, compute: Callable[[Partition], _T]) -> _T:
    """``compute(p)``, computed once per object and kept in its instance
    dict under ``name``, the storage ``_cached`` uses for ``blocks``.
    Only for immutable results derived from ``p`` alone."""
    value = p.__dict__.get(name)
    if value is None:
        value = p.__dict__[name] = compute(p)
    return value


def classify(p: Partition) -> ElementClassification:
    """Sorted opener/closer/passant/singleton sets of ``p``.

    Works for canonical and ordered partitions alike: the roles depend
    only on the blocks, not on their order.
    """
    return _memo(p, "_classification", _classify)


def _classify(p: Partition) -> ElementClassification:
    word = p.word
    last = {letter: i for i, letter in enumerate(word, start=1)}
    seen = set()  # blocks whose opener has been read
    roles = [[] for _ in range(6)]  # in ElementClassification field order
    openers, closers, passants, singles, open_only, close_only = roles
    for i, letter in enumerate(word, start=1):
        closes = last[letter] == i
        if letter not in seen:
            seen.add(letter)
            openers.append(i)
            (singles if closes else open_only).append(i)
        elif closes:
            close_only.append(i)
        else:
            passants.append(i)
        if closes:
            closers.append(i)
    return ElementClassification(*map(tuple, roles))


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
    p = _require_canonical(p, "trace profiles are defined on canonical partitions")
    return _memo(p, "_profile", _trace_pass)


def _trace_pass(p: SetPartition) -> TraceProfile:
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
    return SetPartition._trusted(tuple(word))


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
        yield SetPartition._trusted(word)


def enumerate_ordered(n: int, k: int | None = None) -> Iterator[OrderedSetPartition]:
    """All ordered partitions of [n]: canonical partitions in word order,
    each expanded through its block permutations in lexicographic order."""
    for p in enumerate_partitions(n, k):
        for perm in itertools.permutations(p.blocks):
            yield OrderedSetPartition._trusted(perm)
