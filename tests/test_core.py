import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from setpart.core import (
    Kind,
    OrderedSetPartition,
    ParseError,
    PartitionError,
    ProfileError,
    RgfWord,
    SetPartition,
    classify,
    enumerate_ordered,
    enumerate_partitions,
    format_blocks,
    parse_ordered,
    parse_partition,
    parse_rgf,
    rebuild_from_profile,
    trace_profile,
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


def _seeded_words():
    """60 restricted growth words with 2 <= n <= 64 and 1 <= k <= n/2
    blocks, drawn from a fixed seed."""
    rng = random.Random(2001)
    words = []
    for _ in range(60):
        n = rng.randint(2, 64)
        k = rng.randint(1, n // 2)
        word, top = [], 0
        for i in range(n):
            # open a new block when the remaining elements are all needed
            letter = top + 1 if n - i == k - top else rng.randint(1, min(top + 1, k))
            word.append(letter)
            top = max(top, letter)
        words.append(tuple(word))
    return words


SEEDED_WORDS = _seeded_words()


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
    assert p.letter(7) == 3


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
        RgfWord((2,))
    assert parse_rgf("1 2 3 1 4 4 3 1 3").letters == EX_WORD
    with pytest.raises(ParseError):
        parse_rgf("1 two")


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


def test_rebuild_inverts_trace():
    for n in range(7):
        for p in enumerate_partitions(n):
            profile = trace_profile(p)
            assert rebuild_from_profile(profile.kinds, profile.gamma) == p
    for word in SEEDED_WORDS:
        p = SetPartition(word)
        profile = trace_profile(p)
        assert (list(profile.l), list(profile.gamma)) == oracles.l_gamma(p.blocks)
        assert rebuild_from_profile(profile.kinds, profile.gamma) == p


def test_rebuild_rejects_impossible_profiles():
    with pytest.raises(ProfileError, match="element 1"):
        rebuild_from_profile([Kind.OPENER], [2])
    with pytest.raises(ProfileError, match="element 2: gamma 2"):
        rebuild_from_profile([Kind.OPENER, Kind.CLOSER], [1, 2])
    with pytest.raises(ProfileError, match="unclosed"):
        rebuild_from_profile([Kind.OPENER], [1])
    with pytest.raises(ProfileError, match="different lengths"):
        rebuild_from_profile([Kind.SINGLETON], [1, 1])


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
    theirs = {format_blocks(blocks) for blocks in oracles.all_partitions(6)}
    assert ours == theirs


def test_enumeration_edge_cases():
    assert [p.text() for p in enumerate_partitions(0)] == [""]
    assert list(enumerate_partitions(3, 0)) == []
    assert list(enumerate_partitions(2, 5)) == []
    with pytest.raises(PartitionError):
        next(enumerate_partitions(-1))


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
    assert not p.is_canonical()
    assert p.canonical().text() == "1,2/3"
    assert parse_ordered("1,2/3").is_canonical()
    with pytest.raises(ParseError):
        parse_ordered("1,1/2")


@given(rgf_words())
def test_word_and_block_views_round_trip(word):
    p = SetPartition.from_rgf(word)
    assert p.word == word
    assert p.to_rgf().letters == word
    assert SetPartition.from_blocks(p.blocks) == p
    assert parse_partition(p.text()) == p
    minima = [b[0] for b in p.blocks]
    assert minima == sorted(minima)
    assert p.k == max(word, default=0)


@given(rgf_words())
def test_classification_partitions_the_ground_set(word):
    p = SetPartition.from_rgf(word)
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
    p = SetPartition.from_rgf(word)
    profile = trace_profile(p)
    ls, gammas = oracles.l_gamma(p.blocks)
    assert list(profile.l) == ls
    assert list(profile.gamma) == gammas
