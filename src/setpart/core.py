"""
Representations of set partitions of [n] = {1, ..., n}.

A partition is stored as its block-index word w, where w_i is the
block that holds i.  The base class ``Partition`` holds the word and
reads off it the block view, ``n``, ``k``, the block masks and the text;
it has no public constructor.  Two kinds of objects derive from it:

- SetPartition: blocks listed in increasing order of their minima (the
  canonical order), so its word is a restricted growth word.
- OrderedSetPartition: blocks in an arbitrary, meaningful order.  Its
  word numbers the blocks in that order and is generally not a
  restricted growth word; each block is still read in ascending order.

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
``motzkin.decode`` inverts ``trace_profile`` on the same profile written
as a labeled path.

The profile is written once, as that path.  ``_path_steps`` reads the
restricted growth word once from left to right, keeping the indices of
the incomplete blocks as a sorted list, and writes one ``Step`` per
element: an opener starts a new rightmost block and writes the shared
NE step ``_NE1``, a singleton the shared starred E step ``_E1_STAR``; a
closer leaves the list and writes the SE step labeled one plus its
block's position in the list, a passant the plain E step so labeled,
both read from the shared step tables ``_se_steps`` and ``_e_steps``.
``trace_profile`` reads the profile off those steps: the kinds, l_i as
the height before step i, and gamma_i as the label, or l_i + 1 for an
NE or starred E step.  ``motzkin.encode`` and ``bijections.phi`` read
the steps themselves, so one pass serves all three.

The mirror and the word writer are written once, here beside the pass,
so ``phi`` loads no ``motzkin``.  ``_reverse_read`` reads steps from
right to left: an SE step becomes ``_NE1`` and pushes its label, an NE
step becomes the shared SE step with the label pushed last (the SE step
that closes it, its match by level), and an E step stays as it is.  It
files the 0-based positions, ascending, where the mirrored path's blocks
start (NE, starred E) and end (SE, starred E).  ``_write_word`` reads
steps from left to right: an NE or starred E step opens a new rightmost
block, and an SE or plain E step joins the label-th incomplete block
from the left, SE sealing it; a label outside 1 up to the number of
incomplete blocks, or a block left open, is a ConsistencyError.
``motzkin.decode`` is the writer, ``motzkin.reflect`` the reader over
checked steps, and ``bijections.phi`` the writer over the reader over
``_path_steps``.

Partitions are immutable: ``Partition`` and ``motzkin.LabeledMotzkinPath``
derive from ``_Value``, the one frozen-value base, which writes equality,
hashing, repr, str, the refusals and ``_trusted`` once for the field
named in ``__match_args__``.  Each object computes a view once, on first
request, and keeps it in its instance dict: ``blocks``, ``k`` and
``masks`` (one int per block, with bit i - 1 set for each element i)
through ``_cached``, the classification, the path's steps and the trace
profile (tuples) through ``_memo``.  Views live exactly as long as the
object and take no part in equality or hashing.  Atoms indexed by a small int
are shared by the process: ``_growing(make)`` gives ``upto(top)``, a
tuple t with t[i] == make(i) for i <= top, built on first use and never
changed, only replaced by a longer one.  ``text`` reads element names so,
and ``parse_ordered`` the numbers of names from their inverse table.

``enumerate_partitions`` steps from word to word in lexicographic order
(Knuth, TAOCP 4A, 7.2.1.5, Algorithm H).  It keeps the prefix maxima
tops[i] = max(w[:i]); the next word raises the rightmost position i >= 1
whose letter is below min(tops[i] + 1, k) and refills the suffix after it
with its smallest completion, 1s and then the ramp up to k (all 1s
without k); the last position takes each of its letters in turn.  Each
partition is built with its word and ``k`` in one store.
``enumerate_ordered`` relabels the word through each block permutation,
old block b becoming its position in the permutation, and stores ``k``
and the permuted ``masks`` with it.

Validation happens at the boundary only: in the two public
constructors ``SetPartition(word)`` and ``OrderedSetPartition(blocks)``,
and in ``parse_ordered`` for text.  The block check reads the blocks in
order, each one sorted, reports the first defect it meets, names the
smallest missing element last and returns every element's block
position, which ``OrderedSetPartition`` keeps as its word.
``parse_ordered`` reads each element name's number from the shared
inverse of the name table and writes the name's written block position
into the word, and accepts the text when every number is one of 1..n
and each was written once, with no block check.  Any other text (a
grammar error, a name such as ``01`` or ``٣`` that the table lacks, a
number above n, a repeat or a gap) goes to the checked route: the
grammar error, then ``int()`` on each name in order (a decimal name
over int()'s digit limit is a ParseError at that name), then
``OrderedSetPartition`` on the blocks, so it gives the same result or
error as if the table had not been tried.  ``canonical`` is the one
place that renumbers a word, in order of first occurrence, with no
second block check: ``SetPartition.from_blocks(b)`` is
``OrderedSetPartition(b).canonical()`` and ``parse_partition(t)`` is
``parse_ordered(t).canonical()``.  Words built valid go through the
private ``_Value._trusted``, or for the enumerators the same store
inline, without a second check: ``canonical``, the accepted texts of
``parse_ordered``, ``_write_word`` (``motzkin.decode`` and the images
of ``bijections.phi``) and the images of ``bijections.phi_i``.
"""

from __future__ import annotations

import enum
import itertools
import re
from bisect import bisect_left
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

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


def _growing(make: Callable[[int], _T], collect: Callable = tuple) -> Callable:
    """``upto(top)``: a shared table t with t[i] == make(i) for i <= top,
    by default a tuple; ``collect`` builds it from the items in order,
    and iterating a table must yield its items in order, since a longer
    table is collected from the shorter one and the new items.  A short
    one is replaced by one at least twice as long that starts with the
    same item objects, never changed, so a caller may read its table
    while another one grows it, and an item kept from an older table is
    the newer table's own."""
    table = collect(())

    def upto(top: int):
        nonlocal table
        t = table
        if top >= len(t):
            more = map(make, range(len(t), max(top + 1, 2 * len(t))))
            t = table = collect(itertools.chain(t, more))
        return t

    return upto


# The decimal name of each element, for ``text``, and its inverse, the
# number of each name, for ``parse_ordered``.
_names = _growing(str)
_numbers = _growing(str, lambda names: dict(zip(names, itertools.count())))


class PartitionError(ValueError):
    """Invalid partition data (bad blocks, bad word)."""


class ConsistencyError(RuntimeError):
    """Impossible data inside a bijection or a kernel: never met on valid input."""


class ParseError(PartitionError):
    """Unparsable partition text; ``position`` is the 0-based offset of
    the offending character, or None when the text parses but its blocks
    do not form a partition."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (position {position})")
        self.position = position


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


def _validate_blocks(blocks: Sequence[Iterable[int]]) -> list[int]:
    """Each element's 1-based block position, from one pass over the blocks
    in order, each read sorted, that reports the first defect it meets and
    names the smallest missing element last."""
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
    n = len(seen)
    try:
        positions = list(map(seen.__getitem__, range(1, n + 1)))
    except KeyError as exc:
        (missing,) = exc.args
        message = f"element {missing} is missing (ground set has {n} elements)"
        raise PartitionError(message) from None
    return positions


def _first_occurrence_word(letters: Sequence[int]) -> tuple[int, ...]:
    """``letters`` renumbered 1, 2, ... in order of first occurrence: the
    restricted growth word of the blocks they name."""
    label = dict(zip(dict.fromkeys(letters), itertools.count(1)))
    return tuple(map(label.__getitem__, letters))


_new = object.__new__  # read once, not per object built


class _Value:
    """A frozen value of one field, named once per class by its
    ``__match_args__``: it equals only a value of its own class with an
    equal field, hashes as ``hash((field,))``, prints as
    ``Class(field=...)`` and as its ``text()``, matches the pattern
    ``Class(field)``, and refuses assignment and deletion of any
    attribute.  The field and its views live in the instance dict; a
    copy or pickle carries the field alone and computes its views anew."""

    _field: str

    def __init_subclass__(cls):
        (cls._field,) = cls.__match_args__

    @classmethod
    def _trusted(cls, value):
        """An object of this class holding ``value``, built valid by the
        caller; no check."""
        obj = _new(cls)
        obj.__dict__[cls._field] = value
        return obj

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            field = self._field
            return self.__dict__[field] == other.__dict__[field]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.__dict__[self._field],))

    def __repr__(self) -> str:
        field = self._field
        return f"{type(self).__qualname__}({field}={self.__dict__[field]!r})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __str__(self) -> str:
        return self.text()

    def __reduce__(self):
        return type(self)._trusted, (self.__dict__[self._field],)


class Partition(_Value):
    """A partition of [n] stored as its block-index word, where w_i is the
    block that holds i; the block view, ``n``, ``k`` and the text are read
    off the word.  It has no public constructor: build a ``SetPartition``
    or an ``OrderedSetPartition``.  It is a frozen value (``_Value``) of
    its word, which it equals, hashes and prints by.
    """

    word: tuple[int, ...]
    __match_args__ = ("word",)

    def __init__(self, *args, **kwargs):
        raise TypeError("build a SetPartition or an OrderedSetPartition")

    @_cached
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return _blocks_from_word(self.word)

    @property
    def n(self) -> int:
        return len(self.word)

    @_cached
    def k(self) -> int:
        return max(self.word, default=0)

    @_cached
    def masks(self) -> tuple[int, ...]:
        """One int per block, in block order, with bit i - 1 set for each
        of its elements i."""
        masks = [0] * self.k
        for i, letter in enumerate(self.word):
            masks[letter - 1] |= 1 << i
        return tuple(masks)

    def text(self) -> str:
        names = _names(self.n)
        parts: list[list[str]] = [[] for _ in range(self.k)]
        for i, letter in enumerate(self.word, start=1):
            parts[letter - 1].append(names[i])
        return "/".join(map(",".join, parts))


class SetPartition(Partition):
    """A partition of [n] with blocks in increasing order of minima.

    The canonical representation is the restricted growth word; ``blocks``
    is a derived view.

    >>> SetPartition.from_blocks([[2, 1], [3]]).text()
    '1,2/3'
    >>> SetPartition([1, 2, 1])
    SetPartition(word=(1, 2, 1))
    >>> SetPartition([1, 2, 1]).blocks
    ((1, 3), (2,))
    """

    def __init__(self, word: Iterable[int]):
        word = tuple(word)
        _check_rgf(word)
        self.__dict__["word"] = word

    @classmethod
    def from_blocks(cls, blocks: Sequence[Iterable[int]]) -> "SetPartition":
        return OrderedSetPartition(blocks).canonical()


class OrderedSetPartition(Partition):
    """A partition of [n] whose block order carries meaning.

    Its word numbers the blocks in the given order, so it need not be a
    restricted growth word; ``blocks`` lists them in that order, each
    ascending.
    """

    def __init__(self, blocks: Sequence[Iterable[int]]):
        self.__dict__["word"] = tuple(_validate_blocks(blocks))

    def canonical(self) -> SetPartition:
        return SetPartition._trusted(_first_occurrence_word(self.word))


def _located(text: str, at: int) -> int:
    """Where offset ``at`` of ``text`` without whitespace lies in
    ``text``; its end lies at the end of ``text``."""
    positions = [pos for pos, ch in enumerate(text) if not ch.isspace()] + [len(text)]
    return positions[at]


def _number(text: str, name: str, at: int) -> int:
    """``int(name)`` for the element name at offset ``at`` of ``text``
    without whitespace.  A decimal name that int() refuses is over its
    digit limit, and no element of a text that short: a ParseError there."""
    try:
        return int(name)
    except ValueError:
        if not name.isdecimal():
            raise  # a digit int() rejects, such as "²", keeps int()'s message
        raise ParseError(f"element of {len(name)} digits is too large", _located(text, at)) from None


def _parse_error(text: str, compact: str) -> ParseError:
    """The error at the first element of ``compact`` (``text`` without
    whitespace) that is empty (placed at the separator after it, or the
    end) or holds a non-digit (at that character), located in ``text``."""
    at = 0
    for element in re.split("[,/]", compact):
        if not element.isdigit():
            break
        _number(text, element, at)  # read in order, so one int() rejects ("1²") raises first
        at += len(element) + 1
    for i, ch in enumerate(element):
        if not ch.isdigit():
            return ParseError(f"unexpected character {ch!r}", _located(text, at + i))
    return ParseError("expected an element", _located(text, at))


def parse_ordered(text: str) -> OrderedSetPartition:
    """Parse the block grammar keeping the written block order.

    One pass looks each element name up in the shared table ``_numbers``
    and writes its written block's position into the word; a text that
    pass cannot settle goes to ``_parse_checked``."""
    compact = "".join(text.split())
    names = compact.replace("/", ",").split(",")
    n = len(names)
    sizes = [block.count(",") + 1 for block in compact.split("/")]
    word = [1] + [0] * n  # slot 0 is no element; a 0 left is an element never written
    labels = itertools.chain.from_iterable(map(itertools.repeat, itertools.count(1), sizes))
    try:
        # each store returns None, so any() makes every one
        any(map(word.__setitem__, map(_numbers(n).__getitem__, names), labels))
    except (KeyError, IndexError):  # a name the table lacks, or a number above n
        return _parse_checked(text, compact, names, sizes)
    if 0 in word:  # a repeated (or a 0) element left one of 1..n unwritten
        return _parse_checked(text, compact, names, sizes)
    del word[0]
    return OrderedSetPartition._trusted(tuple(word))


def _parse_checked(
    text: str, compact: str, names: list[str], sizes: list[int]
) -> OrderedSetPartition:
    """The partition, or the first error, of a text the table did not
    settle: the grammar (``_parse_error``), then ``int()`` on each name in
    order (``_number``), then ``OrderedSetPartition`` on the blocks."""
    if not compact:
        return OrderedSetPartition(())
    if not all(map(str.isdigit, names)):
        raise _parse_error(text, compact)
    offsets = itertools.accumulate((len(name) + 1 for name in names), initial=0)
    numbers = map(_number, itertools.repeat(text), names, offsets)
    blocks = [list(itertools.islice(numbers, size)) for size in sizes]
    try:
        return OrderedSetPartition(blocks)
    except PartitionError as exc:
        raise ParseError(str(exc)) from exc


def parse_partition(text: str) -> SetPartition:
    """Parse the block grammar, normalizing blocks to canonical order.

    >>> parse_partition("3 / 2,1").text()
    '1,2/3'
    """
    return parse_ordered(text).canonical()


class ElementClassification(NamedTuple):
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


class TraceProfile(NamedTuple):
    """Per-element kinds with the l and gamma sequences."""

    kinds: tuple[Kind, ...]
    l: tuple[int, ...]
    gamma: tuple[int, ...]


NE, SE, E = "NE", "SE", "E"


class Step(NamedTuple):
    """One step of a labeled Motzkin path: kind NE, SE or E, its label,
    and the star of a singleton."""

    kind: str
    label: int
    starred: bool = False

    def text(self) -> str:
        star = "*" if self.starred else ""
        return f"{self.kind}({self.label}{star})"


# Every opener and singleton step is the same; steps are immutable.
_NE1 = Step(NE, 1)
_E1_STAR = Step(E, 1, starred=True)
# The SE and the plain E step of each label g, at index g.
_se_steps = _growing(lambda g: Step(SE, g))
_e_steps = _growing(lambda g: Step(E, g))


def _require_canonical(p: Partition, message: str) -> SetPartition:
    """``p`` itself when its blocks are in canonical order; otherwise a
    PartitionError carrying ``message``."""
    if isinstance(p, SetPartition):
        return p
    raise PartitionError(message)


def _path_steps(p: SetPartition) -> tuple[Step, ...]:
    """The steps of the labeled path of a canonical partition, written
    by one left-to-right pass over its word and kept on ``p``."""
    p = _require_canonical(p, "trace profiles are defined on canonical partitions")
    return _memo(p, "_steps", _step_pass)


def _step_pass(p: SetPartition) -> tuple[Step, ...]:
    word = p.word
    last = {letter: i for i, letter in enumerate(word)}
    # labels run from 1 to the height, which is at most n / 2
    se, e = _se_steps(len(word) // 2), _e_steps(len(word) // 2)
    incomplete: list[int] = []  # indices of the incomplete blocks, ascending
    steps, top = [], 0
    for i, letter in enumerate(word):
        if letter > top:
            top = letter
            if last[letter] == i:
                steps.append(_E1_STAR)
            else:
                steps.append(_NE1)
                incomplete.append(letter)
        else:
            pos = bisect_left(incomplete, letter)
            if last[letter] == i:
                steps.append(se[pos + 1])
                del incomplete[pos]
            else:
                steps.append(e[pos + 1])
    return tuple(steps)


def _reverse_read(steps: Sequence[Step]) -> tuple[list[Step], list[int], list[int]]:
    """The mirrored steps, and where their blocks start and end: see the module docstring."""
    se = _se_steps(len(steps) // 2)
    out = list(reversed(steps))  # E steps stay as they are
    pending, starts, ends = [], [], []  # pending: the labels of the SE steps not yet paired
    for i, step in enumerate(out):  # (kind, label, starred), read by index
        kind = step[0]
        if kind == SE:
            out[i] = _NE1
            pending.append(step[1])
            starts.append(i)
        elif kind == NE:
            out[i] = se[pending.pop()]
            ends.append(i)
        elif step[2]:
            starts.append(i)
            ends.append(i)
    return out, starts, ends


def _write_word(steps: Iterable[Step]) -> SetPartition:
    """The canonical partition whose path has these steps: see the module docstring."""
    word: list[int] = []
    incomplete = [0]  # slot 0 is no block; slot g holds the g-th incomplete block
    top = 0
    try:
        for step in steps:  # (kind, label, starred), read by index
            kind = step[0]
            if kind == NE:
                top += 1
                word.append(top)
                incomplete.append(top)
            elif kind == SE:
                g = step[1]
                if g < 1:
                    raise IndexError  # as a label above the height does
                word.append(incomplete.pop(g))
            elif step[2]:
                top += 1
                word.append(top)
            else:
                g = step[1]
                if g < 1:
                    raise IndexError
                word.append(incomplete[g])
    except IndexError:
        h = len(incomplete) - 1
        message = f"element {len(word) + 1}: gamma {step[1]} outside the {h} incomplete blocks"
        raise ConsistencyError(message) from None
    if len(incomplete) > 1:
        raise ConsistencyError("profile ends with unclosed blocks")
    return SetPartition._trusted(tuple(word))


def trace_profile(p: SetPartition) -> TraceProfile:
    """Kinds plus (l_i, gamma_i) for each element of a canonical partition,
    read off the steps of its labeled path."""
    p = _require_canonical(p, "trace profiles are defined on canonical partitions")
    return _memo(p, "_profile", _profile_of_steps)


def _profile_of_steps(p: SetPartition) -> TraceProfile:
    kinds, ls, gammas = [], [], []
    h = 0  # the height before the step
    # the pass writes only shared steps, so identity tells them apart;
    # trace_profile has checked p, so its steps are read off the memo
    for step in _memo(p, "_steps", _step_pass):
        ls.append(h)
        if step is _NE1:
            kinds.append(OPENER)
            h += 1
            gammas.append(h)
        elif step is _E1_STAR:
            kinds.append(SINGLETON)
            gammas.append(h + 1)
        elif step[0] is SE:
            kinds.append(CLOSER)
            h -= 1
            gammas.append(step[1])
        else:
            kinds.append(PASSANT)
            gammas.append(step[1])
    return TraceProfile(tuple(kinds), tuple(ls), tuple(gammas))


def _rgf_words(n: int, k: int | None) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each restricted growth word of length n (with top letter k if
    given) with its top letter, in lexicographic order, by successor
    steps: see the module docstring."""
    if n == 0:
        if not k:
            yield (), 0
        return
    if k is not None and not 1 <= k <= n:
        return
    last = n - 1
    word, tops = [0] * n, [0] * n  # tops[i] = max(word[:i])
    i, letter = 0, 1  # the first word raises position 0 from 0
    while True:
        word[i] = letter
        t = tops[i] if tops[i] > letter else letter
        ramp = n - (t if k is None else k) + t  # where the ramp t + 1..k starts
        for j in range(i + 1, n):
            tops[j] = t
            if j < ramp:
                word[j] = 1
            else:
                t += 1
                word[j] = t
        t = tops[last]
        for letter in range(word[last], (k or t + 1) + 1):
            word[last] = letter
            yield tuple(word), k or (letter if letter > t else t)
        i = last - 1
        while i > 0 and (word[i] > tops[i] or word[i] == k):
            i -= 1
        if i <= 0:
            return
        letter = word[i] + 1


def enumerate_partitions(n: int, k: int | None = None) -> Iterator[SetPartition]:
    """All partitions of [n] (into k blocks if given), in lexicographic
    order of their restricted growth words, each built with its ``k``.

    k > n or (k = 0 and n > 0) give an empty stream.
    """
    if n < 0 or (k is not None and k < 0):
        raise PartitionError("n and k must be non-negative")
    for word, top in _rgf_words(n, k):
        p = _new(SetPartition)
        p.__dict__.update(word=word, k=top)  # the word and the known k in one store
        yield p


def enumerate_ordered(n: int, k: int | None = None) -> Iterator[OrderedSetPartition]:
    """All ordered partitions of [n]: canonical partitions in word order,
    each expanded through its block permutations in lexicographic order,
    each built with its ``k`` and ``masks``."""
    for p in enumerate_partitions(n, k):
        word, top = p.word, p.k
        perms = itertools.permutations(range(1, top + 1))
        for perm, masks in zip(perms, itertools.permutations(p.masks)):
            place = ((0,) + perm).index  # old block index -> its position in the new order
            op = _new(OrderedSetPartition)
            op.__dict__.update(word=tuple(map(place, word)), k=top, masks=masks)
            yield op
