import pytest
from hypothesis import given

import oracles
from setpart.core import (
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
    coord_sum,
    coord_sums_all,
    linv,
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
from test_core import rgf_words

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
        assert coord_sum(P2, kind) == sums[kind]


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
    with pytest.raises(PartitionError):
        rinv(0, P3)
    with pytest.raises(PartitionError):
        nrinv(10, P3)


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
    with pytest.raises(PartitionError):
        coord_stat(P2, CoordKind.ROS, 0)
    with pytest.raises(PartitionError):
        coord_stat(P2, CoordKind.ROS, 10)


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

    for n in range(6):
        for p in enumerate_partitions(n):
            cls = classify(p)
            assert linv_openers(p) == sum(linv(b, p) for b in cls.openers)
            assert rinv_closers(p) == sum(rinv(b, p) for b in cls.closers)


@given(rgf_words(max_n=7))
def test_coordinates_match_literal_definitions(word):
    p = SetPartition.from_rgf(word)
    sums = coord_sums_all(p)
    for kind in CoordKind:
        assert coord_sum(p, kind) == oracles.coord_sum(
            p.blocks, kind.side, kind.reference, kind.comparison
        )
        assert sums[kind] == coord_sum(p, kind)
    assert mak(p) == oracles.mak(p.blocks)
    assert makp(p) == oracles.makp(p.blocks)
    assert lmak(p) == oracles.lmak(p.blocks)
    assert lmakp(p) == oracles.lmakp(p.blocks)


def test_coordinates_match_literal_definitions_on_ordered_partitions():
    for n in range(7):
        for op in enumerate_ordered(n):
            sums = coord_sums_all(op)
            for kind in CoordKind:
                assert sums[kind] == oracles.coord_sum(
                    op.blocks, kind.side, kind.reference, kind.comparison
                ), (op.text(), kind)
