"""Acceptance gate: one test per delivery criterion, pinned tolerances.

The terminal summary (wired up in conftest) prints one PASS/FAIL line per
criterion after the run.  Criteria:

  C01  worked-example fidelity, exact, under one second
  C02  mak = lmakp and makp = lmak pointwise, every partition, n <= 9
  C03  the involution phi: self-inverse and exchanges mak with makp, n <= 8
  C04  generating functions of the mak family equal S_q(n,k), n <= 9
  C05  trace identities and the constant-sum law, n <= 8
  C06  block-exchange maps: bijectivity, stat shift, polynomial identity
  C07  Motzkin path round-trip, reflection route, path counts, n <= 9
  C08  eight combined statistics on ordered partitions match [k]_q! S_q
  C09  full n = 12 mak sweep under 60 s; threads never change results
  C10  direct-scan statistics agree with a definition-literal brute force
"""

import time

from setpart import verify
from setpart.bijections import phi_certificate, phi_i
from setpart.core import (
    SetPartition,
    classify,
    enumerate_ordered,
    parse_partition,
    trace_profile,
)
from setpart.qseries import QPolynomial, q_stirling
from setpart.stats import (
    CoordKind,
    binv,
    bmaj,
    coord_stat,
    coord_sums_all,
    linv,
    lmak,
    lmakp,
    mak,
    mak_l,
    makp,
    nrinv,
    rinv,
    stat_i,
)

import oracles
from test_bijections import ORBIT
from test_stats import P2_ORDER, P2_ROWS


def test_c01_example_fidelity():
    start = time.perf_counter()

    # element classification and the RGF word
    p = parse_partition("1,4,8/2/3,7,9/5,6")
    cls = classify(p)
    assert cls.openers == (1, 2, 3, 5)
    assert cls.closers == (2, 6, 8, 9)
    assert cls.passants == (4, 7)
    assert cls.singletons == (2,)
    assert p.word == (1, 2, 3, 1, 4, 4, 3, 1, 3)

    # the eight coordinate rows and the four aggregate statistics
    p2 = parse_partition("1,4,8/2,9/3,7/5,6")
    for kind, row in P2_ROWS.items():
        assert tuple(coord_stat(p2, kind, i) for i in P2_ORDER) == row
    assert (mak(p2), makp(p2), lmak(p2), lmakp(p2)) == (9, 10, 10, 9)

    # block-indexed family: mak_l = mak - nrinv(max B_l) + k - l, and the
    # last entry reduces to mak itself
    assert mak(p) == 13
    assert tuple(nrinv(b, p) for b in (8, 2, 9, 6)) == (1, 5, 0, 0)
    assert tuple(mak_l(p, l) for l in (1, 2, 3, 4)) == (15, 10, 14, 13)
    maxima = [block[-1] for block in p.blocks]
    for l in range(1, p.k + 1):
        assert mak_l(p, l) == mak(p) - nrinv(maxima[l - 1], p) + p.k - l
    assert mak_l(p, p.k) == mak(p)

    # trace profile rows
    profile = trace_profile(p)
    assert profile.l == (0, 1, 1, 2, 2, 3, 2, 2, 1)
    assert profile.gamma == (1, 2, 2, 1, 3, 3, 2, 1, 1)

    # the involution's image and all four label matrices
    cert = phi_certificate(p)
    assert cert.image.text() == "1,6,7/2,3,9/4,5/8"
    assert cert.source_f.values == (6, 8, 9) and cert.source_f.gammas == (3, 1, 1)
    assert cert.source_p.values == (4, 7) and cert.source_p.gammas == (1, 2)
    assert cert.image_f.values == (5, 7, 9) and cert.image_f.gammas == (3, 1, 1)
    assert cert.image_p.values == (3, 6) and cert.image_p.gammas == (2, 1)

    # the period-8 orbit of the block-exchange map at index 3
    partitions = [parse_partition(text) for text, _, _ in ORBIT]
    for j, (q, (_, shifted, direct)) in enumerate(zip(partitions, ORBIT)):
        assert stat_i(q, 4) - 1 == shifted
        assert stat_i(q, 3) == direct
        assert phi_i(q, 3) == partitions[(j + 1) % 8]
    assert len(set(partitions)) == 8

    assert time.perf_counter() - start < 1.0


def test_c02_pointwise_equality_sweep():
    report = verify.run_suite("theorem2", n_max=9)
    assert report.passed
    assert report.cases == 26443


def test_c03_involution_exchanges_mak_makp():
    report = verify.run_suite("theorem1", n_max=8)
    assert report.passed
    assert report.cases == 5296


def test_c04_q_stirling_generating_functions():
    report = verify.run_suite("theorem3", n_max=9)
    assert report.passed


def test_c05_trace_identities():
    for name in ("lemma1", "eq4", "los-linv"):
        report = verify.run_suite(name, n_max=8)
        assert report.passed, name
        assert report.cases == 5296, name


def test_c06_block_exchange_bijections():
    assert verify.run_suite("phi-i", n_max=7).passed
    assert verify.run_suite("eq13", n_max=8).passed


def test_c07_motzkin_round_trip():
    report = verify.run_suite("motzkin", n_max=9)
    assert report.passed


def test_c08_ordered_equidistribution():
    report = verify.run_suite("euler-mahonian", n_max=7)
    assert report.passed


def test_c09_bell12_sweep_performance():
    start = time.perf_counter()
    hists = verify.mak_histograms(12, threads=1)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"single-thread sweep took {elapsed:.1f}s"

    assert sorted(hists) == list(range(1, 13))
    assert sum(sum(row) for row in hists.values()) == verify.bell_number(12) == 4213597
    for k, row in hists.items():
        assert QPolynomial(row) == q_stirling(12, k), k

    assert verify.mak_histograms(12, threads=4) == hists


def test_c10_cross_oracle_agreement():
    for n in range(8):
        for blocks in oracles.all_partitions(n):
            p = SetPartition.from_blocks(blocks)
            sums = coord_sums_all(p)
            for kind in CoordKind:
                want_row = [oracles.coord(blocks, *kind.value, i) for i in range(1, n + 1)]
                got_row = [coord_stat(p, kind, i) for i in range(1, n + 1)]
                assert got_row == want_row
                assert sums[kind] == sum(want_row)
            assert mak(p) == oracles.mak(blocks)
            assert makp(p) == oracles.makp(blocks)
            assert lmak(p) == oracles.lmak(blocks)
            assert lmakp(p) == oracles.lmakp(blocks)
            for b in range(1, n + 1):
                assert rinv(b, p) == oracles.rinv(b, blocks)
                assert nrinv(b, p) == oracles.nrinv(b, blocks)
                assert linv(b, p) == oracles.linv(b, blocks)
            for l in range(1, p.k + 1):
                assert mak_l(p, l) == oracles.mak_l(blocks, l)
                assert stat_i(p, l) == oracles.stat_i(blocks, l)
            profile = trace_profile(p)
            ls, gammas = oracles.l_gamma(blocks)
            assert list(profile.l) == ls and list(profile.gamma) == gammas

    for n in range(6):
        for q in enumerate_ordered(n):
            assert bmaj(q) == oracles.bmaj(q.blocks)
            assert binv(q) == oracles.binv(q.blocks)
