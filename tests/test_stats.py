import random

import pytest
from hypothesis import given, settings

import oracles
from setpart import stats
from setpart.core import (
    OrderedSetPartition,
    PartitionError,
    SetPartition,
    enumerate_ordered,
    enumerate_partitions,
    parse_ordered,
    parse_partition,
)
from setpart.stats import (
    ELEMENT_STATISTICS,
    STATISTICS,
    CoordKind,
    binv,
    bmaj,
    coord_stat,
    coord_sums_all,
    linv,
    linv_closers,
    linv_openers,
    lmak,
    lmakp,
    mak,
    mak_l,
    makp,
    nrinv,
    resolve_statistic,
    rinv,
    rinv_closers,
    stat_i,
)
from test_core import LONG_SEEDED_WORDS, SEEDED_WORDS, rgf_words, seeded_word

# No per-example deadline, loaded before the first @given reads the default.
settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

P2 = parse_partition("1,4,8/2,9/3,7/5,6")
P3 = parse_partition("1,4,8/2/3,7,9/5,6")

# per-element rows of P2 in block-reading order 1,4,8,2,9,3,7,5,6
P2_ORDER = (1, 4, 8, 2, 9, 3, 7, 5, 6)
P2_ROWS = {
    CoordKind.ROS: (0, 2, 3, 0, 2, 0, 1, 0, 0),
    CoordKind.LCS: (0, 0, 0, 0, 1, 0, 0, 0, 0),
    CoordKind.LOB: (0, 0, 0, 0, 0, 0, 0, 0, 0),
    CoordKind.RCB: (3, 3, 1, 2, 0, 1, 0, 0, 0),
    CoordKind.LCB: (0, 0, 0, 1, 0, 2, 2, 3, 3),
    CoordKind.ROB: (3, 1, 0, 2, 0, 1, 0, 0, 0),
    CoordKind.LOS: (0, 0, 0, 1, 1, 2, 2, 3, 3),
    CoordKind.RCS: (0, 0, 2, 0, 2, 0, 1, 0, 0),
}


def element_sum(p, kind):
    # the per-element count summed over the elements: the cross-check of the pass
    return sum(coord_stat(p, kind, i) for i in range(1, p.n + 1))


def test_coordinate_rows_fixture():
    for kind, row in P2_ROWS.items():
        got = tuple(coord_stat(P2, kind, i) for i in P2_ORDER)
        assert got == row, kind


def test_coordinate_sums_fixture():
    sums = coord_sums_all(P2)
    assert sums[CoordKind.ROS] == 8
    assert sums[CoordKind.LCS] == 1
    assert sums[CoordKind.LOB] == 0
    assert sums[CoordKind.RCB] == 10
    assert sums[CoordKind.LCB] == 11
    assert sums[CoordKind.ROB] == 7
    assert sums[CoordKind.LOS] == 12
    assert sums[CoordKind.RCS] == 5
    for kind in CoordKind:
        assert element_sum(P2, kind) == sums[kind]


def test_mak_family_fixture():
    assert mak(P2) == 9
    assert makp(P2) == 10
    assert lmak(P2) == 10
    assert lmakp(P2) == 9


def test_rinv_family_fixture():
    # closers of P3 blockwise: 8, 2, 9, 6
    assert nrinv(8, P3) == 1
    assert nrinv(2, P3) == 5
    assert nrinv(9, P3) == 0
    assert nrinv(6, P3) == 0
    assert rinv(5, P3) == 0
    assert linv(4, P3) == 0
    assert linv(7, P3) == 1
    assert rinv(8, P3) == 5
    for b in range(1, 10):
        assert rinv(b, P3) == oracles.rinv(b, P3.blocks)
        assert nrinv(b, P3) == oracles.nrinv(b, P3.blocks)
        assert linv(b, P3) == oracles.linv(b, P3.blocks)
    for fn in (rinv, nrinv, linv):
        for b in (0, 10):
            with pytest.raises(PartitionError, match=f"^element {b} outside 1..9$"):
                fn(b, P3)


def test_mak_l_fixture():
    # the adjusted values implied by Definition 2 at base mak(P3) = 13
    assert mak(P3) == 13
    assert [mak_l(P3, l) for l in (1, 2, 3, 4)] == [15, 10, 14, 13]
    for l in range(1, 5):
        closer = P3.blocks[l - 1][-1]
        assert mak_l(P3, l) == mak(P3) - nrinv(closer, P3) + P3.k - l
    assert mak_l(P3, P3.k) == mak(P3)
    with pytest.raises(PartitionError):
        mak_l(P3, 0)
    with pytest.raises(PartitionError):
        mak_l(P3, 5)
    with pytest.raises(PartitionError):
        mak_l(parse_ordered("2/1"), 1)


def test_mak_k_equals_mak_everywhere():
    for n in range(7):
        for p in enumerate_partitions(n):
            if p.k:
                assert mak_l(p, p.k) == mak(p)


def test_mak_ls_equals_the_formula_at_every_block():
    partitions = [p for n in range(9) for p in enumerate_partitions(n)]
    partitions += [SetPartition(w) for w in SEEDED_WORDS + LONG_SEEDED_WORDS]
    for p in partitions:
        ls = range(1, p.k + 1)
        want = [mak(p) - nrinv(max(p.blocks[l - 1]), p) + p.k - l for l in ls]
        assert list(stats.mak_ls(p)) == want
        assert [mak_l(p, l) for l in ls] == want
    with pytest.raises(PartitionError, match="^mak_l is defined on canonically ordered"):
        stats.mak_ls(parse_ordered("2/1"))


def test_stat_i_fixtures():
    pi0 = parse_partition("1,4,8/2/3/5,6,7,9")
    pi7 = parse_partition("1,4,8/2/3,6,7,9/5")
    assert stat_i(pi0, 3) == -6
    assert stat_i(pi0, 4) == -2
    assert stat_i(pi7, 3) == -3
    assert stat_i(pi7, 4) == -3
    with pytest.raises(PartitionError):
        stat_i(pi0, 5)
    with pytest.raises(PartitionError):
        stat_i(parse_ordered("2/1"), 1)


def test_stat_i_equals_the_oracle_on_seeded_words():
    # every partition of n <= 7 is in test_c10_cross_oracle_agreement; the
    # oracle is cubic in n, so a quarter of the long words
    for word in SEEDED_WORDS + LONG_SEEDED_WORDS[::4]:
        p = SetPartition(word)
        ls = range(1, p.k + 1)
        got = [stat_i(p, i) for i in ls]
        assert "blocks" not in p.__dict__  # each closer is read off the masks
        assert got == [oracles.stat_i(p.blocks, i) for i in ls], p.text()


def test_stat_i_runs_the_coord_pass_once_per_object(monkeypatch):
    calls = []
    kernel = stats._coord_pass

    def counting(p):
        calls.append(p)
        return kernel(p)

    monkeypatch.setattr(stats, "_coord_pass", counting)
    p = parse_partition("1,4,8/2/3/5,6,7,9")
    assert [stat_i(p, i) for i in (3, 4, 3)] == [-6, -2, -6]
    assert len(calls) == 1
    # rinv(F) is the pass's lcb, kept for every reader of the same object
    assert stats.rinv_closers(p) == 5 == coord_sums_all(p)[CoordKind.LCB]
    assert (linv_openers(p), linv_closers(p), mak(p)) == (5, 4, 15)
    assert len(calls) == 1
    # an equal but distinct object counts again: the memo is per object
    assert stat_i(parse_partition("1,4,8/2/3/5,6,7,9"), 4) == -2
    assert len(calls) == 2


def test_single_block_and_all_singletons():
    single = parse_partition("1,2,3,4,5")
    assert (mak(single), makp(single), lmak(single), lmakp(single)) == (0, 0, 0, 0)
    n = 5
    singles = parse_partition("/".join(str(i) for i in range(1, n + 1)))
    assert mak(singles) == makp(singles) == n * (n - 1) // 2


def test_empty_partition_statistics():
    empty = parse_partition("")
    assert (mak(empty), makp(empty), lmak(empty), lmakp(empty)) == (0, 0, 0, 0)
    assert bmaj(empty) == binv(empty) == 0


def test_block_descent_fixtures():
    assert (bmaj(parse_ordered("3/2/1")), binv(parse_ordered("3/2/1"))) == (3, 3)
    assert (bmaj(parse_ordered("1,4/2,3")), binv(parse_ordered("1,4/2,3"))) == (0, 0)
    assert (bmaj(parse_ordered("3,4/1,2")), binv(parse_ordered("3,4/1,2"))) == (1, 1)
    assert bmaj(parse_partition("1,2/3,4")) == 0
    # dominance is a partial order: interleaved blocks do not compare
    assert binv(parse_ordered("2,4/1,3")) == 0


def test_block_descents_equal_the_oracle():
    ordered = [op for n in range(7) for op in enumerate_ordered(n)]
    # seeded partitions up to n = 64, parsed from texts with their blocks shuffled
    rng = random.Random(1802)
    for word in SEEDED_WORDS + LONG_SEEDED_WORDS:
        blocks = list(SetPartition(word).blocks)
        rng.shuffle(blocks)
        ordered.append(parse_ordered("/".join(",".join(map(str, b)) for b in blocks)))
    assert len(ordered) == 5317 + 560
    for op in ordered:
        assert bmaj(op) == oracles.bmaj(op.blocks), op.text()
        assert binv(op) == oracles.binv(op.blocks), op.text()


def test_statistic_registry():
    assert set(STATISTICS) >= {
        "ros", "rob", "rcs", "rcb", "los", "lob", "lcs", "lcb",
        "mak", "makp", "lmak", "lmakp", "bmaj", "binv",
    }
    assert set(ELEMENT_STATISTICS) == {"rinv", "nrinv", "linv"}
    assert resolve_statistic("mak")(P2) == 9
    assert resolve_statistic("mak_l", l=1)(P3) == 15
    assert resolve_statistic("nrinv", b=2)(P3) == 5
    ordered = parse_ordered("3/1,2")
    assert resolve_statistic("mak+bmaj")(ordered) == mak(ordered) + bmaj(ordered) == 2
    with pytest.raises(PartitionError):
        resolve_statistic("mak_l")
    with pytest.raises(PartitionError):
        resolve_statistic("rinv")
    with pytest.raises(PartitionError):
        resolve_statistic("no_such_stat")


def test_coord_stat_range_check():
    for i in (0, 10):
        with pytest.raises(PartitionError, match=f"^element {i} outside 1..9$"):
            coord_stat(P2, CoordKind.ROS, i)


def test_pointwise_exchange_small():
    for n in range(7):
        for p in enumerate_partitions(n):
            assert mak(p) == lmakp(p)
            assert makp(p) == lmak(p)
    for n in range(5):
        for p in enumerate_ordered(n):
            assert mak(p) == lmakp(p)
            assert makp(p) == lmak(p)


def test_linv_rinv_aggregates():
    from setpart.core import classify

    def check(p):
        cls = classify(p)
        assert linv_openers(p) == sum(linv(b, p) for b in cls.openers), p.text()
        assert rinv_closers(p) == sum(rinv(b, p) for b in cls.closers), p.text()
        assert linv_closers(p) == sum(linv(b, p) for b in cls.closers), p.text()

    for n in range(9):
        for p in enumerate_partitions(n):
            check(p)
    for n in range(7):
        for op in enumerate_ordered(n):
            check(op)
    # more than 64 blocks, as in the kernel test beyond one machine word
    rng = random.Random(150)
    for _ in range(4):
        p = SetPartition(seeded_word(rng, 150, rng.randint(70, 100)))
        shuffled = list(p.blocks)
        rng.shuffle(shuffled)
        check(p)
        check(OrderedSetPartition(shuffled))


@given(rgf_words(max_n=7))
def test_coordinates_match_literal_definitions(word):
    p = SetPartition(word)
    sums = coord_sums_all(p)
    for kind in CoordKind:
        assert element_sum(p, kind) == oracles.coord_sum(p.blocks, *kind.value)
        assert sums[kind] == element_sum(p, kind)
    assert mak(p) == oracles.mak(p.blocks)
    assert makp(p) == oracles.makp(p.blocks)
    assert lmak(p) == oracles.lmak(p.blocks)
    assert lmakp(p) == oracles.lmakp(p.blocks)


def test_kernel_matches_literal_definitions_exhaustively():
    # the ordered n <= 6 and the n = 150 cases are the two tests around
    # this one; coord_sums_all runs the kernel on each fresh object
    for n in range(9):
        for p in enumerate_partitions(n):
            sums = stats._coord_pass(p)
            for kind, got in zip(CoordKind, sums):
                assert got == oracles.coord_sum(p.blocks, *kind.value), (p.text(), kind)


def test_coordinates_match_literal_definitions_on_ordered_partitions():
    for n in range(7):
        for op in enumerate_ordered(n):
            sums = coord_sums_all(op)
            for kind in CoordKind:
                assert sums[kind] == oracles.coord_sum(op.blocks, *kind.value), (op.text(), kind)


def test_per_element_counts_match_literal_definitions_on_ordered_partitions():
    # every ordered partition with n <= 5, and shuffled words with more
    # than 64 blocks, so the block masks span several machine words
    ordered = [op for n in range(6) for op in enumerate_ordered(n)]
    rng = random.Random(66)
    for _ in range(3):
        blocks = list(SetPartition(seeded_word(rng, 100, rng.randint(66, 80))).blocks)
        rng.shuffle(blocks)
        ordered.append(OrderedSetPartition(blocks))
    for op in ordered:
        blocks = op.blocks
        for i in range(1, op.n + 1):
            for kind in CoordKind:
                want = oracles.coord(blocks, *kind.value, i)
                assert coord_stat(op, kind, i) == want, (op.text(), kind, i)
            assert rinv(i, op) == oracles.rinv(i, blocks), (op.text(), i)
            assert nrinv(i, op) == oracles.nrinv(i, blocks), (op.text(), i)
            assert linv(i, op) == oracles.linv(i, blocks), (op.text(), i)


def test_coord_sums_all_returns_a_fresh_dict():
    p = parse_partition("1,4,8/2,9/3,7/5,6")
    sums = coord_sums_all(p)
    expected = dict(sums)
    sums[CoordKind.ROS] += 100
    sums.clear()
    assert coord_sums_all(p) == expected
    assert coord_sums_all(p) is not coord_sums_all(p)
    assert mak(p) == 9


def test_mak_family_runs_the_kernel_once(monkeypatch):
    calls = []
    kernel = stats._coord_pass

    def counting(p):
        calls.append(p)
        return kernel(p)

    monkeypatch.setattr(stats, "_coord_pass", counting)
    p = parse_partition("1,4,8/2,9/3,7/5,6")
    assert (mak(p), makp(p), lmak(p), lmakp(p)) == (9, 10, 10, 9)
    assert stats.four_stats(p) == (9, 10, 10, 9)
    assert coord_sums_all(p)[CoordKind.LCB] == 11
    assert len(calls) == 1
    # an equal but distinct object counts again: the memo is per object
    assert mak(parse_partition("1,4,8/2,9/3,7/5,6")) == 9
    assert len(calls) == 2


def test_kernel_matches_literal_definitions_beyond_one_machine_word():
    # more than 64 blocks, so the block bitmasks span several machine words
    rng = random.Random(150)
    for _ in range(4):
        word = seeded_word(rng, 150, rng.randint(70, 100))
        p = SetPartition(word)
        assert p.k >= 70
        shuffled = list(p.blocks)
        rng.shuffle(shuffled)
        for q in (p, OrderedSetPartition(shuffled)):
            sums = coord_sums_all(q)
            for kind in CoordKind:
                assert sums[kind] == oracles.coord_sum(q.blocks, *kind.value), (word, kind)
