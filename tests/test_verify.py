import math
from collections import Counter

import pytest

import oracles
from setpart import bijections, cli, core, motzkin, stats, verify
from setpart.qseries import QPolynomial, generating_function, q_stirling
from setpart.core import PartitionError, enumerate_partitions
from setpart.verify import (
    ENUMERATION_BUDGET,
    SUITE_NAMES,
    SUITES,
    Failure,
    VerificationReport,
    bell_number,
    family_size,
    mak_histograms,
    run_suite,
    stirling2,
    suite_size,
    _worker_count,
)


def test_counting_helpers_match_literal_recurrences():
    for n in range(11):
        assert bell_number(n) == oracles.bell(n)
        for k in range(n + 2):
            assert stirling2(n, k) == oracles.stirling(n, k)
    assert bell_number(12) == 4213597


def test_suite_names_and_defaults():
    assert SUITE_NAMES == tuple(SUITES)
    assert len(SUITE_NAMES) == 10
    for n_max, _ in SUITES.values():
        assert n_max >= 5


def test_every_suite_passes_at_small_range():
    for name in SUITE_NAMES:
        report = run_suite(name, n_max=5)
        assert report.passed, report.render_text()
        assert report.failure_count == 0
        assert report.failures == []
        assert report.cases > 0
        assert report.suite == name
        assert report.n_max == 5
        assert report.wall_time_s >= 0


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("theorem9")


def test_report_rendering_and_json():
    report = run_suite("theorem2", n_max=4)
    text = report.render_text()
    assert "suite: theorem2" in text
    assert "result: PASS" in text
    assert "wall" not in text  # timing stays out of comparable output
    data = report.to_json_dict()
    assert data["suite"] == "theorem2"
    assert data["passed"] is True
    assert data["failures"] == []
    assert data["cases"] == sum(oracles.bell(n) for n in range(5))
    assert isinstance(data["wall_time_s"], float)


def test_failed_report_rendering():
    report = VerificationReport(
        suite="demo",
        n_max=3,
        cases=7,
        failure_count=2,
        failures=[Failure("1,2/3", "0", "1")],
        detail={"n=3": 7},
        wall_time_s=0.01,
    )
    assert not report.passed
    text = report.render_text()
    assert "result: FAIL" in text
    assert "1,2/3" in text
    data = report.to_json_dict()
    assert data["passed"] is False
    assert data["failures"][0]["witness"] == "1,2/3"


def test_threads_do_not_change_the_report():
    # every suite's tasks pickle, and the merged report is the same
    for name in SUITE_NAMES:
        n_max = 6 if name == "theorem3" else 5
        one = run_suite(name, n_max=n_max, threads=1).to_json_dict()
        two = run_suite(name, n_max=n_max, threads=2).to_json_dict()
        del one["wall_time_s"], two["wall_time_s"]
        assert one == two, name


def _altered(fn, change):
    # fn with change applied to its result
    return lambda *args: change(fn(*args))


def _plus_one(value):
    return value + 1


def _plus_one_at(i):
    return lambda values: values[:i] + (values[i] + 1,) + values[i + 1 :]


# One fault per suite, each in something the suite checks.
_FAULTS = {
    "theorem1": (stats, "makp", _altered(stats.makp, _plus_one)),
    "theorem2": (stats, "four_stats", _altered(stats.four_stats, _plus_one_at(3))),
    "theorem3": (stats, "four_stats", _altered(stats.four_stats, _plus_one_at(2))),
    "lemma1": (stats, "four_stats", _altered(stats.four_stats, _plus_one_at(0))),
    "eq4": (
        core,
        "trace_profile",
        _altered(core.trace_profile, lambda t: t._replace(l=tuple(x + 1 for x in t.l))),
    ),
    "los-linv": (stats, "linv_openers", _altered(stats.linv_openers, _plus_one)),
    "phi-i": (bijections, "phi_i", lambda p, i: p),
    # every closer's nrinv one too high
    "eq13": (stats, "mak_ls", _altered(stats.mak_ls, lambda ms: tuple(m - 1 for m in ms))),
    "motzkin": (
        motzkin,
        "enumerate_paths",
        _altered(motzkin.enumerate_paths, lambda paths: list(paths)[1:]),
    ),
    "euler-mahonian": (stats, "bmaj", _altered(stats.bmaj, _plus_one)),
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_fails_on_a_fault(name, monkeypatch):
    module, attr, faulty = _FAULTS[name]
    monkeypatch.setattr(module, attr, faulty)
    report = run_suite(name, n_max=5, threads=1)
    assert report.failure_count > 0
    assert "result: FAIL" in report.render_text()


# Exact FAIL lines each distribution suite prints under its _FAULTS entry.
_FAULT_LINES = {
    "theorem3": ["FAIL n=3 k=2 stat=lmak: expected 2*q + q^2, got 2*q^2 + q^3"],
    "eq13": [
        "FAIL 1,2: expected mak_1+0 >= 0, got -1",
        "FAIL n=3 k=2 stat=mak_2+1: expected 2*q^2 + q^3, got 2*q + q^2",
    ],
    "euler-mahonian": ["FAIL n=2 k=2 stat=makp+bmaj: expected q + q^2, got q^2 + q^3"],
}


@pytest.mark.parametrize("name", sorted(_FAULT_LINES))
def test_distribution_suites_print_the_faulty_polynomial(name, monkeypatch):
    module, attr, faulty = _FAULTS[name]
    monkeypatch.setattr(module, attr, faulty)
    lines = run_suite(name, n_max=5, threads=1, max_witnesses=100).render_text().splitlines()
    for line in _FAULT_LINES[name]:
        assert line in lines


def test_eq4_prints_the_summed_identity_witness(monkeypatch):
    # every l one too high: each summed identity is off by n
    module, attr, faulty = _FAULTS["eq4"]
    monkeypatch.setattr(module, attr, faulty)
    lines = run_suite("eq4", n_max=3, threads=1, max_witnesses=100).render_text().splitlines()
    assert [line for line in lines if "summed" in line] == [
        "FAIL 1: expected summed identity nk = 1, got 2",
        "FAIL 1,2: expected summed identity nk = 2, got 4",
        "FAIL 1/2: expected summed identity nk = 4, got 6",
        "FAIL 1,2,3: expected summed identity nk = 3, got 6",
        "FAIL 1,2/3: expected summed identity nk = 6, got 9",
        "FAIL 1,3/2: expected summed identity nk = 6, got 9",
        "FAIL 1/2,3: expected summed identity nk = 6, got 9",
        "FAIL 1/2/3: expected summed identity nk = 9, got 12",
    ]


def _oldest_first_reflect(path):
    # reflect with each SE step closing the oldest open NE step, not the newest
    out, opened = list(path.steps), []
    for idx, step in enumerate(path.steps):
        if step.kind == motzkin.NE:
            opened.append(idx)
        elif step.kind == motzkin.SE:
            out[opened.pop(0)], out[idx] = step, motzkin.Step(motzkin.NE, 1)
    return motzkin.LabeledMotzkinPath(tuple(reversed(out)))


def _first_closer_label_plus_one(p, encode=motzkin.encode):
    # the default keeps the real encode once this fault replaces it
    steps = list(encode(p).steps)
    first = next((i for i, s in enumerate(steps) if s.kind == motzkin.SE), None)
    if first is not None:
        steps[first] = motzkin.Step(motzkin.SE, steps[first].label + 1)
    return motzkin.LabeledMotzkinPath._trusted(tuple(steps))


# A fault in a step of the path route: FAIL lines it must print at
# n_max = 5, and its number of failures.
_PATH_FAULTS = {
    "reflect": (
        _oldest_first_reflect,
        ["FAIL 1,4/2,3: expected phi via paths = phi, got raised: step 4: label 2 outside [1, 1]"],
        1,
    ),
    "encode": (
        _first_closer_label_plus_one,
        [
            "FAIL 1,2: expected decode(encode(p)) = p, got raised: step 2: label 2 outside [1, 1]",
            "FAIL 1,3/2,4: expected decode(encode(p)) = p, got 1,4/2,3",
            "FAIL 1,4/2,3: expected decode(encode(p)) = p, got raised: step 3: label 3 outside [1, 2]",
            "FAIL 1,2: expected phi via paths = phi, got raised: step 2: label 2 outside [1, 1]",
        ],
        89,
    ),
}


@pytest.mark.parametrize("attr", sorted(_PATH_FAULTS))
def test_motzkin_suite_prints_the_witness_of_a_path_fault(attr, monkeypatch):
    faulty, want, count = _PATH_FAULTS[attr]
    monkeypatch.setattr(motzkin, attr, faulty)
    report = run_suite("motzkin", n_max=5, threads=1, max_witnesses=100)
    lines = report.render_text().splitlines()
    assert lines[-1] == "result: FAIL"
    fails = [line for line in lines if line.startswith("FAIL")]
    assert report.failure_count == len(fails) == count
    for line in want:
        assert line in fails


def test_theorem3_recurrence_reads_the_mak_dp(monkeypatch):
    real = verify.mak_histograms

    def off_by_one(n, threads=1):
        hists = real(n, threads)
        if n == 3:
            hists[2][1] += 1  # S_q(3, 2) = 2q + q^2 becomes 3q + q^2
        return hists

    monkeypatch.setattr(verify, "mak_histograms", off_by_one)
    report = run_suite("theorem3", n_max=5, threads=1)
    assert not report.passed
    assert [f.witness for f in report.failures] == ["n=4 k=2 recurrence", "n=4 k=3 recurrence"]
    assert "FAIL n=4 k=2 recurrence: expected 3*q + 3*q^2 + q^3, got 4*q + 4*q^2 + q^3" in (
        report.render_text().splitlines()
    )


def test_verify_all_covers_every_suite(capsys):
    code = cli.main(["verify", "all", "--n-max", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.removeprefix("suite: ") for line in lines if line.startswith("suite: ")] == list(
        SUITE_NAMES
    )
    assert lines.count("n_max: 4") == 10
    assert lines.count("result: PASS") == 10


def test_mak_histograms_match_both_routes():
    for n in range(7):
        hists = mak_histograms(n)
        ks = [k for k in range(n + 1) if oracles.stirling(n, k)]
        assert sorted(hists) == ks
        for k in ks:
            sweep = QPolynomial(hists[k])
            slow = generating_function(enumerate_partitions(n, k), stats.mak)
            assert sweep == slow
            assert sweep.to_dict() == oracles.q_stirling_dict(n, k)


def test_mak_histograms_thread_invariance():
    assert mak_histograms(8, threads=3) == mak_histograms(8, threads=1)
    assert mak_histograms(2, threads=4) == mak_histograms(2)


def test_mak_dp_matches_enumeration_for_every_k():
    for n in range(9):
        hists = mak_histograms(n)
        for k in range(n + 1):
            slow = generating_function(enumerate_partitions(n, k), stats.mak)
            assert QPolynomial(hists.get(k, [])) == slow, (n, k)


def test_mak_dp_matches_q_stirling_at_larger_n():
    for n in (20, 30):
        hists = mak_histograms(n)
        assert sorted(hists) == list(range(1, n + 1))
        for k in range(n + 1):
            assert QPolynomial(hists.get(k, [])) == q_stirling(n, k), (n, k)
        if n == 30:
            assert sum(sum(row) for row in hists.values()) == bell_number(30)


def test_packed_mak_dp_matches_q_stirling_and_bell_at_n40():
    hists = mak_histograms(40)
    assert sorted(hists) == list(range(1, 41))
    for k in range(1, 41):
        assert QPolynomial(hists[k]) == q_stirling(40, k), k
    assert sum(sum(row) for row in hists.values()) == 157450588391204931289324344702531067  # B(40)


def test_packed_mak_dp_refuses_a_limb_that_overflows(monkeypatch):
    real = verify._limb_bytes
    monkeypatch.setattr(verify, "_limb_bytes", lambda total: real(total) - 1)
    with pytest.raises(bijections.ConsistencyError, match="overflowed"):
        mak_histograms(12)


@pytest.mark.parametrize("n, bits", [(12, 16), (30, 72)])
def test_packed_mak_dp_catches_an_overflow_on_both_unpack_routes(monkeypatch, n, bits):
    # One byte short: Bell(12) has 23 bits, so a 2-byte limb read by struct;
    # Bell(30) has 80, so a 9-byte limb read by from_bytes, and the largest
    # coefficient at n = 30 has 73 bits.
    real = verify._limb_bytes
    monkeypatch.setattr(verify, "_limb_bytes", lambda total: real(total) - 1)
    with pytest.raises(bijections.ConsistencyError, match=f"a {bits}-bit coefficient overflowed"):
        mak_histograms(n)


def test_mak_dp_matches_q_stirling_and_bell_on_every_limb_width():
    # Bell(n) needs 1 to 8 bytes for n <= 25 (struct limbs of 1, 2, 4 and 8
    # bytes) and 9 at n = 26 (from_bytes slices).
    widths = [verify._limb_bytes(bell_number(n)) for n in (0, 6, 7, 24, 25, 26)]
    assert widths == [1, 1, 2, 8, 8, 9]
    for n in range(27):
        hists = mak_histograms(n)
        assert sorted(hists) == [k for k in range(n + 1) if stirling2(n, k)], n
        for k in range(n + 1):
            assert QPolynomial(hists.get(k, [])) == q_stirling(n, k), (n, k)
        assert sum(map(sum, hists.values())) == bell_number(n), n


def test_mak_dp_return_contract():
    assert mak_histograms(0) == {0: [1]}
    with pytest.raises(PartitionError):
        mak_histograms(-1)
    hists = mak_histograms(10)
    assert list(hists) == sorted(hists)
    assert all(row and row[-1] for row in hists.values())
    for threads in (0, 2, 64):
        assert mak_histograms(10, threads=threads) == hists


def test_worker_count_is_clamped():
    assert _worker_count(1, 8, 100) == 1
    assert _worker_count(4, 2, 100) == 2
    assert _worker_count(4, 8, 3) == 3
    assert _worker_count(10**9, 2, 10**6) == 2
    assert _worker_count(4, None, 100) == 1
    assert _worker_count(4, 8, 0) == 1
    assert _worker_count(0, 8, 100) == 1


def test_family_size_counts_without_enumerating():
    for n in range(9):
        assert family_size(n) == oracles.bell(n)
        assert family_size(n, ordered=True) == sum(1 for _ in core.enumerate_ordered(n))
        for k in range(n + 2):
            assert family_size(n, k) == oracles.stirling(n, k)
            assert family_size(n, k, ordered=True) == math.factorial(k) * oracles.stirling(n, k)
    assert family_size(3, -1) == 0 and family_size(3, -1, ordered=True) == 0
    assert family_size(20) == 51724158235372
    assert family_size(0) == family_size(0, 0) == 1


def test_every_default_range_fits_the_budget():
    for name in SUITE_NAMES:
        assert suite_size(name) == suite_size(name, SUITES[name][0])
        assert suite_size(name) <= ENUMERATION_BUDGET
    assert sum(suite_size(name) for name in SUITE_NAMES) <= ENUMERATION_BUDGET
    assert suite_size("theorem2", 14) > ENUMERATION_BUDGET


def _counting(fn, counts, key):
    def wrapper(*args):
        for item in fn(*args):
            counts[key] += 1
            yield item

    return wrapper


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_size_is_what_the_suite_builds(name, monkeypatch):
    counts = Counter()
    for module, attr in (
        (core, "enumerate_partitions"),
        (core, "enumerate_ordered"),
        (motzkin, "enumerate_paths"),
    ):
        monkeypatch.setattr(module, attr, _counting(getattr(module, attr), counts, attr))
    run_suite(name, n_max=5, threads=1)
    # enumerate_ordered walks enumerate_partitions too; count it once
    built = counts["enumerate_ordered"] or counts["enumerate_partitions"] + counts["enumerate_paths"]
    assert built == suite_size(name, 5) > 0


def test_mak_histograms_row_k_is_q_stirling():
    assert QPolynomial(mak_histograms(4).get(2, [])) == q_stirling(4, 2)
    assert QPolynomial(mak_histograms(3).get(7, [])).is_zero
