import itertools
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from setpart import core
from setpart.core import (
    Kind,
    OrderedSetPartition,
    ParseError,
    PartitionError,
    SetPartition,
    classify,
    enumerate_ordered,
    enumerate_partitions,
    parse_ordered,
    parse_partition,
    trace_profile,
    _check_rgf,
)

EX_TEXT = "1,4,8/2/3,7,9/5,6"
EX_BLOCKS = ((1, 4, 8), (2,), (3, 7, 9), (5, 6))
EX_WORD = (1, 2, 3, 1, 4, 4, 3, 1, 3)


@st.composite
def rgf_words(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    letters = []
    top = 0
    for _ in range(n):
        letter = draw(st.integers(1, top + 1))
        letters.append(letter)
        top = max(top, letter)
    return tuple(letters)


def seeded_word(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """A random restricted growth word of length n with k blocks."""
    word, top = [], 0
    for i in range(n):
        # open a new block when the remaining elements are all needed
        letter = top + 1 if n - i == k - top else rng.randint(1, min(top + 1, k))
        word.append(letter)
        top = max(top, letter)
    return tuple(word)


def _seeded_words():
    """60 restricted growth words with 2 <= n <= 64 and 1 <= k <= n/2
    blocks, drawn from a fixed seed."""
    rng = random.Random(2001)
    words = []
    for _ in range(60):
        n = rng.randint(2, 64)
        words.append(seeded_word(rng, n, rng.randint(1, n // 2)))
    return words


SEEDED_WORDS = _seeded_words()


def _long_seeded_words():
    """500 restricted growth words with 16 <= n <= 64 and 1 <= k <= n
    blocks, drawn from a fixed seed."""
    rng = random.Random(2010)
    words = []
    for _ in range(500):
        n = rng.randint(16, 64)
        words.append(seeded_word(rng, n, rng.randint(1, n)))
    return words


LONG_SEEDED_WORDS = _long_seeded_words()


def _with_seeded_words(test):
    """Add every seeded word as an explicit hypothesis example."""
    for word in SEEDED_WORDS:
        test = example(word)(test)
    return test


def test_parse_fixture():
    p = parse_partition(EX_TEXT)
    assert p.blocks == EX_BLOCKS
    assert p.word == EX_WORD
    assert p.n == 9
    assert p.k == 4
    assert p.text() == EX_TEXT
    assert p.word[6] == 3


def test_parse_normalizes_block_order_and_whitespace():
    assert parse_partition("3 / 2,1").text() == "1,2/3"
    assert parse_partition(" 5,6/1, 4,8 /3,7,9/ 2 ").text() == EX_TEXT


def test_parse_position_errors():
    with pytest.raises(ParseError) as err:
        parse_partition("1,,2")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_partition("1,2/x")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_partition("1,2/")


# Malformed text -> (message, position); whitespace is ignored everywhere,
# also between digits, and positions count it.
MALFORMED = {
    ",1": ("expected an element", 0),
    "1,": ("expected an element", 2),
    "1//2": ("expected an element", 2),
    "1,,2": ("expected an element", 2),
    "1,2/x": ("unexpected character 'x'", 4),
    "1,2/": ("expected an element", 4),
    "1 2/3": ("element 1 is missing (ground set has 2 elements)", None),
    " , ": ("expected an element", 1),
    "1,2/ /3": ("expected an element", 5),
    "/": ("expected an element", 0),
    "1, x": ("unexpected character 'x'", 3),
    "  1 , 2 / 3 x": ("unexpected character 'x'", 12),
    "1\t,\n2/3/;": ("unexpected character ';'", 8),
    "1,2//": ("expected an element", 4),
    "2": ("element 1 is missing (ground set has 1 elements)", None),
    "1,2/0": ("element 0 in block 2 is not a positive integer", None),
}


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_messages_and_positions(text):
    message, position = MALFORMED[text]
    for parse in (parse_partition, parse_ordered):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position
        suffix = "" if position is None else f" (position {position})"
        assert str(err.value) == message + suffix


def test_digit_that_int_rejects_fails_before_a_later_error():
    # "²" counts as a digit, so "1²" is an element that int() refuses;
    # it is read before the bad "x" that follows
    for text in ("1²", "1²,x"):
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_partition(text)
    with pytest.raises(ParseError, match="unexpected character 'x' \\(position 1\\)"):
        parse_partition("²x")


def test_semantic_parse_errors_carry_no_position():
    for parse in (parse_partition, parse_ordered):
        with pytest.raises(ParseError) as err:
            parse("1,1")
        assert err.value.position is None
        assert str(err.value) == "element 1 appears twice in block 1"


def test_invalid_blocks_name_the_offender():
    with pytest.raises(PartitionError, match="element 2 appears in blocks 1 and 2"):
        SetPartition.from_blocks([[1, 2], [2, 3]])
    with pytest.raises(PartitionError, match="element 2 is missing"):
        SetPartition.from_blocks([[1], [3]])
    with pytest.raises(PartitionError, match="block 2 is empty"):
        SetPartition.from_blocks([[1], []])
    with pytest.raises(PartitionError, match="not a positive integer"):
        SetPartition.from_blocks([[0, 1]])


def test_restricted_growth_validation():
    with pytest.raises(PartitionError, match="index 2"):
        SetPartition((1, 3))
    with pytest.raises(PartitionError, match="index 1"):
        SetPartition((2,))


def test_empty_partition():
    p = parse_partition("")
    assert p.n == 0
    assert p.k == 0
    assert p.blocks == ()
    assert p.text() == ""
    assert parse_partition("   ") == p


def test_classification_fixture():
    cls = classify(parse_partition(EX_TEXT))
    assert cls.openers == (1, 2, 3, 5)
    assert cls.closers == (2, 6, 8, 9)
    assert cls.passants == (4, 7)
    assert cls.singletons == (2,)
    assert cls.opener_nonsingletons == (1, 3, 5)
    assert cls.closer_nonsingletons == (6, 8, 9)


def test_trace_fixture():
    profile = trace_profile(parse_partition(EX_TEXT))
    assert profile.l == (0, 1, 1, 2, 2, 3, 2, 2, 1)
    assert profile.gamma == (1, 2, 2, 1, 3, 3, 2, 1, 1)
    assert profile.kinds == (
        Kind.OPENER,
        Kind.SINGLETON,
        Kind.OPENER,
        Kind.PASSANT,
        Kind.OPENER,
        Kind.CLOSER,
        Kind.PASSANT,
        Kind.CLOSER,
        Kind.CLOSER,
    )


def test_trace_second_fixture():
    profile = trace_profile(parse_partition("1,4,8/2,9/3,7/5,6"))
    assert profile.l == (0, 1, 2, 3, 3, 4, 3, 2, 1)
    assert profile.gamma == (1, 2, 3, 1, 4, 4, 3, 1, 1)


def test_trace_requires_canonical_order():
    with pytest.raises(PartitionError):
        trace_profile(parse_ordered("2/1"))


def test_cached_views_equal_a_fresh_computation():
    for word in SEEDED_WORDS:
        p = SetPartition(word)
        first = trace_profile(p)
        assert trace_profile(p) is first  # kept on the object
        assert first == trace_profile(SetPartition(word))
        assert classify(p) is classify(p)
        assert classify(p) == classify(SetPartition(word))
    ordered = parse_ordered("3,4/1/2")
    with pytest.raises(PartitionError, match="trace profiles are defined on canonical"):
        trace_profile(ordered)
    classify(ordered)
    with pytest.raises(PartitionError, match="trace profiles are defined on canonical"):
        trace_profile(ordered)


def test_equality_and_hash_ignore_the_cached_views():
    from setpart.stats import coord_sums_all

    pairs = [(SetPartition(w), SetPartition(w)) for w in SEEDED_WORDS[:10]]
    pairs += [(parse_ordered(t), parse_ordered(t)) for t in ("2/1", "3,4/1/2", EX_TEXT)]
    for warm, cold in pairs:
        classify(warm)
        coord_sums_all(warm)
        if isinstance(warm, SetPartition):
            trace_profile(warm)
            assert warm.k == max(warm.word, default=0)
            assert "k" in warm.__dict__ and "k" not in cold.__dict__
        else:
            assert warm.k == len(warm.blocks)
            assert "k" in warm.__dict__ and "k" not in cold.__dict__
        assert warm.__dict__.keys() != cold.__dict__.keys()
        assert warm == cold and cold == warm
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert len({warm, cold}) == 1


def test_rebuild_inverts_trace():
    # the profile determines the partition: the oracle's rebuild, with
    # all its checks, returns each partition from its trace profile
    for n in range(7):
        for p in enumerate_partitions(n):
            profile = trace_profile(p)
            assert oracles.rebuild_from_profile(profile.kinds, profile.gamma) == p
    for word in SEEDED_WORDS:
        p = SetPartition(word)
        profile = trace_profile(p)
        assert (list(profile.l), list(profile.gamma)) == oracles.l_gamma(p.blocks)
        assert oracles.rebuild_from_profile(profile.kinds, profile.gamma) == p


def test_kind_members_have_module_names():
    assert core.OPENER is Kind.OPENER
    assert core.CLOSER is Kind.CLOSER
    assert core.PASSANT is Kind.PASSANT
    assert core.SINGLETON is Kind.SINGLETON


def _trusted_builds(p):
    """What each site that skips the word check builds for ``p``."""
    from setpart.bijections import phi

    image = phi(p)  # built by phi's mirror pass
    assert type(image.word) is tuple
    _check_rgf(image.word)
    yield phi(image)
    yield SetPartition.from_blocks([block[::-1] for block in reversed(p.blocks)])
    shuffled = " / ".join(",".join(map(str, b)) for b in reversed(p.blocks))
    yield parse_partition(shuffled)
    yield parse_ordered(shuffled).canonical()


def test_trusted_sites_build_valid_words():
    # enumeration, from_blocks, canonical and phi's mirror pass skip
    # _check_rgf: every word they build must pass it
    enumerated = [p for n in range(9) for p in enumerate_partitions(n)]
    enumerated += [p for n in range(9) for k in range(n + 1) for p in enumerate_partitions(n, k)]
    assert len(enumerated) == 2 * sum(oracles.bell(n) for n in range(9))
    seeded = [SetPartition(word) for word in SEEDED_WORDS]
    for p in enumerated + seeded:
        assert type(p.word) is tuple
        _check_rgf(p.word)
        for q in _trusted_builds(p):
            assert type(q.word) is tuple
            _check_rgf(q.word)
            assert q == p and hash(q) == hash(p)


def _masks_of(word):
    """One mask per block of ``word``, element by element: bit i - 1 of
    block b's mask is set when element i sits in block b."""
    masks = [0] * max(word, default=0)
    for i in range(1, len(word) + 1):
        masks[word[i - 1] - 1] += 2 ** (i - 1)
    return tuple(masks)


def test_trusted_ordered_enumeration_builds_valid_blocks():
    # enumerate_ordered skips _validate_blocks: the blocks of every word
    # it yields must pass it and give that word back, and the views it
    # seeds must equal those the checked constructor computes
    for n in range(7):
        for op in enumerate_ordered(n):
            assert {"k", "masks"} <= op.__dict__.keys() and "blocks" not in op.__dict__
            assert type(op.blocks) is tuple
            assert all(type(block) is tuple for block in op.blocks)
            assert core._validate_blocks(op.blocks) == list(op.word)
            fresh = OrderedSetPartition(op.blocks)
            assert op == fresh
            assert op.k == fresh.k == max(op.word, default=0)
            assert op.masks == fresh.masks == _masks_of(op.word)


def _given_ordered_blocks():
    """Block lists in a meaningful order, elements shuffled: every block
    permutation of every partition of n <= 6, then 500 seeded shuffles
    with 16 <= n <= 64."""
    rng = random.Random(16)
    for n in range(7):
        for p in enumerate_partitions(n):
            for perm in itertools.permutations(p.blocks):
                yield [rng.sample(block, len(block)) for block in perm]
    for word in LONG_SEEDED_WORDS:
        blocks = [rng.sample(block, len(block)) for block in SetPartition(word).blocks]
        rng.shuffle(blocks)
        yield blocks


def _check_ordered(op, given):
    sorted_blocks = tuple(tuple(sorted(block)) for block in given)
    assert type(op) is OrderedSetPartition and type(op.word) is tuple
    assert op.blocks == sorted_blocks
    assert list(op.word) == oracles.word_of(op.blocks) == oracles.word_of(given)
    assert op.text() == str(op) == oracles.format_blocks(sorted_blocks)
    assert op.n == sum(map(len, given)) and op.k == len(given)


def test_an_ordered_partition_is_the_word_of_its_given_blocks():
    cases = 0
    for given in _given_ordered_blocks():
        _check_ordered(OrderedSetPartition(given), given)
        cases += 1
    ordered = sum(math.factorial(k) * oracles.stirling(n, k) for n in range(7) for k in range(n + 1))
    assert cases == ordered + 500


def test_an_ordered_partition_stores_only_its_word():
    # no block view until one is read: not from the constructor, the
    # enumeration or canonical(), which reads the word alone
    for n in range(8):
        for op in enumerate_ordered(n):
            op.canonical()
            assert "blocks" not in op.__dict__
    for given in _given_ordered_blocks():
        op = OrderedSetPartition(given)
        assert op.__dict__.keys() == {"word"}
        minima = [min(block) for block in given]
        assert (op.canonical().word == op.word) == (minima == sorted(minima))
        assert "blocks" not in op.__dict__
        assert op.blocks == tuple(tuple(sorted(block)) for block in given)


def test_enumerate_ordered_equals_the_checked_constructor():
    for n in range(7):
        perms = [perm for p in enumerate_partitions(n) for perm in itertools.permutations(p.blocks)]
        enumerated = list(enumerate_ordered(n))
        assert enumerated == [OrderedSetPartition(perm) for perm in perms]
        for op, perm in zip(enumerated, perms):
            _check_ordered(op, perm)


def test_a_growing_table_is_replaced_and_never_changed():
    made = []
    upto = core._growing(lambda i: made.append(i) or (i,))
    first = upto(3)
    assert first == ((0,), (1,), (2,), (3,)) and upto(2) is first and upto(3) is first
    second = upto(4)
    assert len(second) >= 2 * len(first) and second[: len(first)] == first
    assert first == ((0,), (1,), (2,), (3,))
    assert all(entry == (i,) for i, entry in enumerate(second))
    # one long request builds just what it asks for, once
    assert len(upto(100)) == 101 and upto(50) is upto(100)
    assert made == [*range(4), *range(len(second)), *range(101)]


def test_text_reads_element_names_from_a_shared_table_that_only_grows():
    held = core._names(0)
    copy = list(held)
    n = 2 * len(held) + 3  # past any size the table had
    singletons = SetPartition(range(1, n + 1))
    assert singletons.text() == "/".join(map(str, range(1, n + 1)))
    grown = core._names(0)
    assert len(grown) > n and list(held) == copy and grown[: len(held)] == held
    assert all(name == str(i) for i, name in enumerate(grown))
    # a shorter partition does not shrink it
    assert parse_partition("3/1,2").text() == "1,2/3" and core._names(0) is grown


def test_partition_has_no_public_constructor():
    assert isinstance(SetPartition((1,)), core.Partition)
    assert isinstance(OrderedSetPartition([[1]]), core.Partition)
    for args, kwargs in (((), {}), (((1,),), {}), ((), {"word": (1,)})):
        with pytest.raises(TypeError, match="build a SetPartition or an OrderedSetPartition"):
            core.Partition(*args, **kwargs)


def test_classify_matches_minima_and_maxima_of_the_blocks():
    ordered = [p for n in range(7) for p in enumerate_ordered(n)]
    seeded = [SetPartition(word) for word in SEEDED_WORDS]
    assert len(seeded) == 60
    for p in ordered + seeded:
        cls = classify(p)
        openers = oracles.openers_of(p.blocks)
        closers = oracles.closers_of(p.blocks)
        singles = openers & closers
        assert cls.openers == tuple(sorted(openers))
        assert cls.closers == tuple(sorted(closers))
        assert cls.singletons == tuple(sorted(singles))
        assert cls.passants == tuple(sorted(set(range(1, p.n + 1)) - openers - closers))
        assert cls.opener_nonsingletons == tuple(sorted(openers - singles))
        assert cls.closer_nonsingletons == tuple(sorted(closers - singles))


def test_enumeration_counts_match_bell_and_stirling():
    for n in range(8):
        assert sum(1 for _ in enumerate_partitions(n)) == oracles.bell(n)
        for k in range(n + 1):
            assert sum(1 for _ in enumerate_partitions(n, k)) == oracles.stirling(n, k)


def test_enumeration_is_word_lexicographic():
    texts = [p.text() for p in enumerate_partitions(3)]
    assert texts == ["1,2,3", "1,2/3", "1,3/2", "1/2,3", "1/2/3"]
    assert [p.text() for p in enumerate_partitions(3, 2)] == ["1,2/3", "1,3/2", "1/2,3"]
    for n in range(7):
        words = [p.word for p in enumerate_partitions(n)]
        assert words == sorted(words)


def test_enumeration_agrees_with_independent_construction():
    ours = {p.text() for p in enumerate_partitions(6)}
    theirs = {oracles.format_blocks(blocks) for blocks in oracles.all_partitions(6)}
    assert ours == theirs


def test_enumeration_edge_cases():
    assert [p.text() for p in enumerate_partitions(0)] == [""]
    assert list(enumerate_partitions(3, 0)) == []
    assert list(enumerate_partitions(2, 5)) == []
    with pytest.raises(PartitionError):
        next(enumerate_partitions(-1))


def test_successor_enumeration_equals_the_recursive_oracle():
    for n in range(10):
        for k in (None, *range(n + 2)):
            assert [word for word, _ in core._rgf_words(n, k)] == list(oracles._rgf_words(n, k))


def test_enumeration_seeds_k_and_masks_equal_their_oracle():
    for n in range(9):
        for k in (None, *range(n + 1)):
            for p in enumerate_partitions(n, k):
                assert "k" in p.__dict__
                assert p.k == max(p.word, default=0)
                assert p.masks == _masks_of(p.word)


def test_ordered_enumeration_counts():
    import math

    for n in range(6):
        for k in range(n + 1):
            count = sum(1 for _ in enumerate_ordered(n, k))
            assert count == math.factorial(k) * oracles.stirling(n, k)


def test_ordered_partitions():
    p = parse_ordered("3/1,2")
    assert p.blocks == ((3,), (1, 2))
    assert p.word == (2, 2, 1)
    assert p.canonical().word != p.word
    assert p.canonical().text() == "1,2/3"
    op = parse_ordered("1,2/3")
    assert op.canonical().word == op.word
    with pytest.raises(ParseError):
        parse_ordered("1,1/2")


def test_canonical_equals_from_blocks():
    # canonical() numbers the checked word; from_blocks checks the blocks
    # read back from it before numbering them the same way
    ordered = [op for n in range(7) for op in enumerate_ordered(n)]
    rng = random.Random(15)
    for word in LONG_SEEDED_WORDS:
        blocks = [list(block) for block in SetPartition(word).blocks]
        rng.shuffle(blocks)
        for block in blocks:
            rng.shuffle(block)
        ordered.append(OrderedSetPartition(blocks))
    for op in ordered:
        p = op.canonical()
        assert type(p) is SetPartition and type(p.word) is tuple
        _check_rgf(p.word)
        assert p == SetPartition.from_blocks(op.blocks), op.text()


@given(rgf_words())
def test_word_and_block_views_round_trip(word):
    p = SetPartition(word)
    assert p.word == word
    assert SetPartition.from_blocks(p.blocks) == p
    assert parse_partition(p.text()) == p
    minima = [b[0] for b in p.blocks]
    assert minima == sorted(minima)
    assert p.k == max(word, default=0)


@given(rgf_words())
def test_classification_partitions_the_ground_set(word):
    p = SetPartition(word)
    cls = classify(p)
    singles = set(cls.singletons)
    assert singles <= set(cls.openers) and singles <= set(cls.closers)
    weighted = (
        sorted(cls.openers)
        + sorted(cls.closers)
        + sorted(cls.passants)
        + sorted(cls.singletons)
    )
    # every element once, except singletons which sit in three classes
    assert len(weighted) == p.n + 2 * len(singles)
    covered = set(cls.openers) | set(cls.closers) | set(cls.passants)
    assert covered == set(range(1, p.n + 1))


@given(rgf_words(max_n=7))
@_with_seeded_words
def test_trace_matches_literal_traces(word):
    p = SetPartition(word)
    profile = trace_profile(p)
    ls, gammas = oracles.l_gamma(p.blocks)
    assert list(profile.l) == ls
    assert list(profile.gamma) == gammas
