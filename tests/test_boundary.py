"""The text boundary: block validation, ``from_blocks`` and ``text``.

The validator returns each element's block position and ``from_blocks``
numbers those positions in order of first occurrence, which gives the
restricted growth word.  It is checked here against a verbatim copy of
the validator and block sort that it replaced: on seeded block lists with
every defect kind, both must raise the same exception type with the same
message, or build equal objects.
"""

import random

import pytest

from setpart.core import (
    OrderedSetPartition,
    ParseError,
    PartitionError,
    SetPartition,
    _parse_blocks,
    enumerate_partitions,
    format_blocks,
    parse_ordered,
    parse_partition,
)

from test_core import seeded_word


# -- the replaced implementation, verbatim -----------------------------


def _word_from_blocks(blocks):
    word = [0] * sum(len(b) for b in blocks)
    for idx, block in enumerate(blocks, start=1):
        for x in block:
            word[x - 1] = idx
    return tuple(word)


def _validate_blocks(blocks):
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


def _from_blocks(blocks):
    cleaned = _validate_blocks(blocks)
    cleaned.sort(key=lambda b: b[0])
    return SetPartition._trusted(_word_from_blocks(cleaned))


def _ordered(blocks):
    cleaned = _validate_blocks(blocks)
    return OrderedSetPartition._trusted(tuple(tuple(b) for b in cleaned))


def _parsed(build):
    def parse(text):
        blocks = _parse_blocks(text)
        try:
            return build(blocks)
        except PartitionError as exc:
            raise ParseError(str(exc)) from exc

    return parse


# -- seeded inputs -----------------------------------------------------

# Stand-ins for elements that are not positive ints; bools are ints.
_ODD = (0, -1, True, False, 1.0, 2.5, "1", None)


def _element(rng: random.Random, n: int):
    roll = rng.random()
    if roll < 0.9:
        return rng.randint(1, max(n, 1))
    if roll < 0.95:
        return rng.choice((n + 1, n + 2, 2 * n + 5, 10**20))
    return rng.choice(_ODD)


def _block_list(rng: random.Random) -> list:
    """A recipe of blocks: valid partitions, shuffled, and then broken in
    one or more ways (repeats, holes, foreign elements, empty blocks,
    non-iterable or one-shot blocks)."""
    n = rng.randint(0, 12)
    k = rng.randint(1, n) if n else 0
    blocks = [list(b) for b in SetPartition(seeded_word(rng, n, k)).blocks]
    for block in blocks:
        rng.shuffle(block)
    rng.shuffle(blocks)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        defect = rng.randrange(7)
        block = rng.choice([b for b in blocks if isinstance(b, list) and b] or [[]])
        if defect == 0:  # a repeat or a foreign element
            block.append(_element(rng, n))
        elif defect == 1 and block:
            block[rng.randrange(len(block))] = _element(rng, n)
        elif defect == 2 and block:
            block.pop(rng.randrange(len(block)))
        elif defect == 3:
            blocks.insert(rng.randint(0, len(blocks)), [])
        elif defect == 4:
            blocks.insert(rng.randint(0, len(blocks)), rng.choice((5, None, 2.5)))
        elif defect == 5:
            blocks.append([_element(rng, n) for _ in range(rng.randint(1, 3))])
        else:
            blocks.insert(rng.randint(0, len(blocks)), ("iter", [_element(rng, n)]))
    return blocks


def _materialise(recipe: list, outer=list):
    """Fresh blocks for one call: tagged entries become one-shot
    iterators, and so does the block list itself with ``outer=iter``."""
    out = []
    for block in recipe:
        if isinstance(block, tuple):
            out.append(iter(block[1]))
        elif isinstance(block, list):
            out.append(list(block))
        else:
            out.append(block)
    return outer(out)


def _outcome(build, arg):
    try:
        result = build(arg)
    except Exception as exc:  # every failure is compared, not just PartitionError
        return type(exc), str(exc)
    return "ok", result


# a word of each message the fuzz must meet
_KINDS = ("appears", "missing", "empty", "positive integer", "not iterable", "not supported")


def test_validation_equals_the_replaced_two_pass_route():
    rng = random.Random(61)
    met = set()
    for _ in range(6000):
        recipe, outer = _block_list(rng), rng.choice((list, list, iter))
        for new, old in (
            (SetPartition.from_blocks, _from_blocks),
            (OrderedSetPartition, _ordered),
        ):
            got = _outcome(new, _materialise(recipe, outer))
            want = _outcome(old, _materialise(recipe, outer))
            assert got == want, recipe
            met.add("ok" if got[0] == "ok" else next(k for k in _KINDS if k in got[1]))
    assert met == {"ok", *_KINDS}


def test_parsing_equals_the_replaced_two_pass_route():
    rng = random.Random(62)
    for _ in range(3000):
        recipe = [b for b in _block_list(rng) if isinstance(b, list)]
        # the grammar carries only non-negative ints; spaces are ignored
        blocks = [[x for x in b if type(x) is int and x >= 0] for b in recipe]
        text = " / ".join(", ".join(map(str, b)) for b in blocks)
        for new, old in (
            (parse_partition, _parsed(_from_blocks)),
            (parse_ordered, _parsed(_ordered)),
        ):
            assert _outcome(new, text) == _outcome(old, text), text


def test_missing_elements_name_the_smallest():
    for blocks, missing, n in (([[4, 5, 6]], 1, 3), ([[3, 1], [5]], 2, 3), ([[1], [10**20]], 2, 2)):
        for build in (SetPartition.from_blocks, OrderedSetPartition):
            with pytest.raises(PartitionError) as err:
                build(blocks)
            assert str(err.value) == f"element {missing} is missing (ground set has {n} elements)"


def test_the_first_defect_is_met_before_a_later_block_is_read():
    # a block is only iterated when its turn comes, however large it is
    for blocks in ([[0], range(1, 10**10)], [[], range(1, 10**10)], [[1], [1], range(2, 10**10)]):
        want = _outcome(_from_blocks, blocks)
        assert want[0] is PartitionError
        for build in (SetPartition.from_blocks, OrderedSetPartition):
            assert _outcome(build, blocks) == want


def _check_text(p: SetPartition) -> None:
    text = p.text()
    assert text == format_blocks(p.blocks)
    assert parse_partition(text) == p


def test_text_equals_the_block_format_for_every_small_partition():
    for n in range(9):
        for p in enumerate_partitions(n):
            _check_text(p)


def test_text_equals_the_block_format_on_seeded_words():
    rng = random.Random(63)
    for _ in range(2000):
        n = rng.randint(16, 64)
        _check_text(SetPartition(seeded_word(rng, n, rng.randint(1, n))))


def test_shuffled_blocks_and_elements_give_the_canonical_text():
    rng = random.Random(64)
    for _ in range(500):
        n = rng.randint(1, 64)
        p = SetPartition(seeded_word(rng, n, rng.randint(1, n)))
        blocks = [rng.sample(block, len(block)) for block in p.blocks]
        rng.shuffle(blocks)
        q = SetPartition.from_blocks(blocks)
        assert q == p and q.text() == p.text()
        assert parse_partition(format_blocks(blocks)) == p
        assert parse_ordered(format_blocks(blocks)).canonical().text() == p.text()
