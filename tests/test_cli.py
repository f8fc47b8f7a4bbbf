"""End-to-end checks of the command-line interface.

Each test drives cli.main directly with an argv list and inspects the
captured stdout/stderr plus the exit code, so the pins match exactly what
a shell user sees.  One subprocess smoke test confirms the module entry
point works outside the test process.
"""

import json
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from setpart import cli, core, stats
from setpart.stats import CoordKind

from test_core import seeded_word
from test_stats import P2_ORDER, P2_ROWS


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# enumerate
# ----------------------------------------------------------------------


def test_enumerate_text(capsys):
    code, out, err = run(["enumerate", "-n", "3", "-k", "2"], capsys)
    assert code == 0
    assert out == "1,2/3\n1,3/2\n1/2,3\n"
    assert err == ""


def test_enumerate_json(capsys):
    code, out, _ = run(["enumerate", "-n", "3", "-k", "2", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["k"] == 2
    assert payload["ordered"] is False
    assert payload["count"] == 3
    assert payload["partitions"] == ["1,2/3", "1,3/2", "1/2,3"]


def test_enumerate_ordered(capsys):
    code, out, _ = run(["enumerate", "-n", "3", "-k", "2", "--ordered"], capsys)
    assert code == 0
    assert out == "1,2/3\n3/1,2\n1,3/2\n2/1,3\n1/2,3\n2,3/1\n"


def test_enumerate_edge_sizes(capsys):
    code, out, _ = run(["enumerate", "-n", "0"], capsys)
    assert code == 0
    assert out == "\n"
    code, out, _ = run(["enumerate", "-n", "2", "-k", "0"], capsys)
    assert code == 0
    assert out == ""


def test_enumerate_bad_ranges(capsys):
    for argv in (
        ["enumerate", "-n", "-1"],
        ["enumerate", "-n", "2", "-k", "3"],
        ["enumerate", "-n", "2", "-k", "-1"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_enumerate_refuses_families_above_the_budget(capsys, monkeypatch):
    monkeypatch.setattr(core, "enumerate_partitions", _no_enumeration)
    monkeypatch.setattr(core, "enumerate_ordered", _no_enumeration)
    for argv, size in (
        (["enumerate", "-n", "14"], 190899322),
        (["enumerate", "-n", "9", "--ordered"], 7087261),
        (["enumerate", "-n", "14", "--json"], 190899322),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err == f"error: would enumerate {size} partitions, at most 1000000\n"


def test_enumerate_budget_counts_only_the_requested_k(capsys):
    code, out, err = run(["enumerate", "-n", "14", "-k", "2"], capsys)
    assert (code, err) == (0, "")
    assert out.count("\n") == 2**13 - 1


def test_sizes_above_the_caps_are_refused_before_counting(capsys):
    for argv, message in (
        (["enumerate", "-n", "65"], "error: n must be at most 64\n"),
        (["enumerate", "-n", "1000000", "-k", "1"], "error: n must be at most 64\n"),
        (["verify", "all", "--n-max", "21"], "error: --n-max must be at most 20\n"),
        (["verify", "theorem1", "--n-max", "1000000"], "error: --n-max must be at most 20\n"),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", message), argv


def test_usage_refusals_print_one_exact_line(capsys):
    for argv, message in (
        (["enumerate", "-n", "3", "-k", "5"], "k must satisfy 0 <= k <= n, got n=3 k=5"),
        (["stats", "1,2/3", "-s", " , "], "no statistics requested"),
        (["genfun", "-n", "3", "-k", "x"], "-k takes an integer or 'all', got 'x'"),
        (["qstirling", "-n", "3", "-k", "x", "--json"], "-k takes an integer or 'all', got 'x'"),
        (["motzkin", "1,2", "--decode", "NE SE"], "give a partition or --decode, not both"),
        (["motzkin", "--decode", "NE SE", "--ascii"], "--ascii applies when encoding a partition"),
        (["motzkin"], "give a partition to encode or --decode with a path"),
        (["verify", "all", "--n-max", "-1"], "--n-max must be non-negative"),
        (["genfun", "-n", "3", "-k", "x", "--threads", "0"], "--threads must be at least 1"),
        # a negative -k is refused before any route runs, on every route
        (["genfun", "-n", "3", "-k", "-1"], "-k must be non-negative"),
        (["genfun", "-n", "3", "-k", "-1", "--json"], "-k must be non-negative"),
        (["genfun", "-n", "3", "-k", "-1", "-s", "makp"], "-k must be non-negative"),
        (["genfun", "-n", "3", "-k", "-1", "--ordered"], "-k must be non-negative"),
        (["genfun", "-n", "3", "-k", "-1", "--compare", "qstirling"], "-k must be non-negative"),
        (["qstirling", "-n", "3", "-k", "-1"], "-k must be non-negative"),
        (["qstirling", "-n", "3", "-k", "-2", "--shifted"], "-k must be non-negative"),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------


def test_stats_default_statistics(capsys):
    code, out, _ = run(["stats", "1,4,8/2,9/3,7/5,6"], capsys)
    assert code == 0
    assert out == "mak,makp,lmak,lmakp\n9,10,10,9\n"


def test_stats_per_element_grid(capsys):
    code, out, _ = run(["stats", "1,4,8/2,9/3,7/5,6", "--per-element"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i," + ",".join(str(x) for x in P2_ORDER)
    assert len(lines) == 9
    for line, kind in zip(lines[1:], CoordKind):
        want = kind.name.lower() + "," + ",".join(str(v) for v in P2_ROWS[kind])
        assert line == want


def test_stats_per_element_json(capsys):
    code, out, _ = run(["stats", "1,4,8/2,9/3,7/5,6", "--per-element", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == "1,4,8/2,9/3,7/5,6"
    assert payload["elements"] == list(P2_ORDER)
    for kind in CoordKind:
        assert payload["rows"][kind.name.lower()] == list(P2_ROWS[kind])


def test_stats_single_block_zero_sums(capsys):
    names = "ros,rob,rcs,rcb,los,lob,lcs,lcb"
    code, out, _ = run(["stats", "1,2,3", "-s", names], capsys)
    assert code == 0
    assert out == names + "\n0,0,0,0,0,0,0,0\n"


def test_stats_block_indexed(capsys):
    code, out, _ = run(["stats", "1,4,8/2/3,7,9/5,6", "-s", "mak_l", "-l", "2"], capsys)
    assert code == 0
    assert out == "mak_l\n10\n"


def test_stats_element_statistic(capsys):
    code, out, _ = run(["stats", "1,4,8/2/3,7,9/5,6", "-s", "nrinv", "-b", "2"], capsys)
    assert code == 0
    assert out == "nrinv\n5\n"


def test_stats_sum_of_statistics(capsys):
    code, out, _ = run(["stats", "3/1,2", "-s", "mak+bmaj"], capsys)
    assert code == 0
    assert out == "mak+bmaj\n2\n"


def test_stats_json(capsys):
    code, out, _ = run(["stats", "1,4,8/2,9/3,7/5,6", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == "1,4,8/2,9/3,7/5,6"
    assert payload["values"] == {"mak": 9, "makp": 10, "lmak": 10, "lmakp": 9}


def test_stats_checks_each_partition_text_once(capsys, monkeypatch):
    # canonical() numbers the word parse_ordered checked; it checks no block again
    calls = []
    validate = core._validate_blocks

    def counting(blocks):
        calls.append(blocks)
        return validate(blocks)

    monkeypatch.setattr(core, "_validate_blocks", counting)
    for text, want in (("1,4,8/2,9/3,7/5,6", "9,10,10,9"), ("3/1,2", "1,2,2,1")):
        calls.clear()
        code, out, _ = run(["stats", text], capsys)
        assert (code, out) == (0, "mak,makp,lmak,lmakp\n" + want + "\n")
        assert len(calls) == 1, text


def test_cli_parse_renumbers_each_partition_text_once(monkeypatch):
    # canonical() is built once and its word compared, not renumbered again
    calls = []
    renumber = core._first_occurrence_word

    def counting(letters):
        calls.append(letters)
        return renumber(letters)

    monkeypatch.setattr(core, "_first_occurrence_word", counting)
    for text, kind in (
        ("1,4,8/2,9/3,7/5,6", core.SetPartition),
        ("3/1,2", core.OrderedSetPartition),
    ):
        calls.clear()
        assert type(cli._parse_cli_partition(text)) is kind
        assert len(calls) == 1, text


def test_stats_no_names(capsys):
    code, out, err = run(["stats", "1,2", "-s", ""], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_stats_unknown_name(capsys):
    code, _, err = run(["stats", "1,2", "-s", "nosuch"], capsys)
    assert code == 1
    assert err.startswith("error:")


# ----------------------------------------------------------------------
# genfun
# ----------------------------------------------------------------------


def test_genfun_compare_equal(capsys):
    code, out, _ = run(["genfun", "-n", "4", "-k", "2", "--compare", "qstirling"], capsys)
    assert code == 0
    assert out == "3*q + 3*q^2 + q^3\nEQUAL\n"


def test_genfun_diagonal(capsys):
    code, out, _ = run(["genfun", "-n", "4", "-k", "4", "--compare", "qstirling"], capsys)
    assert code == 0
    assert out == "q^6\nEQUAL\n"


def test_genfun_ordered_sum_statistic(capsys):
    argv = [
        "genfun", "-n", "3", "-k", "2", "-s", "mak+bmaj",
        "--ordered", "--compare", "qstirling-times-qfact",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "2*q + 3*q^2 + q^3\nEQUAL\n"


def test_genfun_differ_exits_one(capsys):
    code, out, _ = run(["genfun", "-n", "3", "-k", "2", "-s", "bmaj", "--compare", "qstirling"], capsys)
    assert code == 1
    assert out == "3\nDIFFER at q^0: got 3, expected 0\n"


def test_genfun_threads_do_not_change_stdout(capsys):
    base = ["genfun", "-n", "5", "--compare", "qstirling"]
    code1, out1, _ = run(base, capsys)
    code2, out2, _ = run(base + ["--threads", "2"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("EQUAL") == 5


def test_genfun_fast_and_slow_routes_agree(capsys):
    # mak takes the sweep fast path, makp walks the family; same distribution.
    _, fast, _ = run(["genfun", "-n", "5"], capsys)
    _, slow, _ = run(["genfun", "-n", "5", "-s", "makp"], capsys)
    assert fast == slow


def test_genfun_json_single_k(capsys):
    argv = ["genfun", "-n", "4", "-k", "2", "--compare", "qstirling", "--json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4 and payload["k"] == 2
    assert payload["statistic"] == "mak"
    assert payload["polynomial"] == {"coeffs": {"1": 3, "2": 3, "3": 1}}
    assert payload["compare"] == {"verdict": "EQUAL", "witness": None}


def test_genfun_rejects_n_above_the_cap(capsys):
    code, out, err = run(["genfun", "-n", "65"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: n must be at most 64\n"
    code, _, err = run(["genfun", "-n", "100000", "-k", "1"], capsys)
    assert (code, err) == (2, "error: n must be at most 64\n")


def _no_enumeration(*args):
    raise AssertionError("enumerated before the size check")


def test_genfun_refuses_enumerations_above_the_budget(capsys, monkeypatch):
    monkeypatch.setattr(core, "enumerate_partitions", _no_enumeration)
    monkeypatch.setattr(core, "enumerate_ordered", _no_enumeration)
    for argv, size in (
        (["genfun", "-n", "20", "-s", "makp"], 51724158235372),
        (["genfun", "-n", "12", "-s", "lmak"], 4213597),
        (["genfun", "-n", "10", "-k", "5", "--ordered", "-s", "mak+bmaj"], 5103000),
    ):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert err == f"error: would enumerate {size} partitions, at most 1000000\n"


def test_genfun_budget_counts_only_the_requested_k(capsys):
    # one partition of [20] into one block; mak alone never enumerates
    code, out, _ = run(["genfun", "-n", "20", "-k", "1", "-s", "makp"], capsys)
    assert (code, out) == (0, "1\n")
    code, _, _ = run(["genfun", "-n", "20", "-k", "10"], capsys)
    assert code == 0


def test_genfun_bad_k(capsys):
    code, _, err = run(["genfun", "-n", "3", "-k", "two"], capsys)
    assert code == 2
    assert err.startswith("error:")


# ----------------------------------------------------------------------
# qstirling
# ----------------------------------------------------------------------


def test_qstirling_single(capsys):
    code, out, _ = run(["qstirling", "-n", "4", "-k", "2"], capsys)
    assert code == 0
    assert out == "3*q + 3*q^2 + q^3\n"


def test_qstirling_shifted(capsys):
    code, out, _ = run(["qstirling", "-n", "4", "-k", "2", "--shifted"], capsys)
    assert code == 0
    assert out == "3 + 3*q + q^2\n"


def test_qstirling_all(capsys):
    code, out, _ = run(["qstirling", "-n", "3"], capsys)
    assert code == 0
    assert out == "k=0: 0\nk=1: 1\nk=2: 2*q + q^2\nk=3: q^3\n"


def test_qstirling_rejects_n_above_the_cap(capsys):
    code, out, err = run(["qstirling", "-n", "65"], capsys)
    assert (code, out, err) == (2, "", "error: n must be at most 64\n")
    code, _, err = run(["qstirling", "-n", "100", "--shifted"], capsys)
    assert (code, err) == (2, "error: n must be at most 64\n")


def test_qstirling_shifted_out_of_range(capsys):
    # S_q(2, 5) = 0 is divisible by any power of q, so the shifted row is 0 too
    assert run(["qstirling", "-n", "2", "-k", "5", "--shifted"], capsys) == (0, "0\n", "")
    code, out, err = run(["qstirling", "-n", "2", "-k", "5", "--shifted", "--json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 2, "shifted": True, "k": 5, "polynomial": {"coeffs": {}}}


# ----------------------------------------------------------------------
# phi and phi-i
# ----------------------------------------------------------------------


def test_phi_text(capsys):
    code, out, _ = run(["phi", "1,4,8/2/3,7,9/5,6"], capsys)
    assert code == 0
    assert out == "1,6,7/2,3,9/4,5/8\n"


def test_phi_json(capsys):
    code, out, _ = run(["phi", "1,4,8/2/3,7,9/5,6", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"source": "1,4,8/2/3,7,9/5,6", "image": "1,6,7/2,3,9/4,5/8"}


def test_phi_certificate(capsys):
    code, out, _ = run(["phi", "1,4,8/2/3,7,9/5,6", "--certificate"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["source"] == "1,4,8/2/3,7,9/5,6"
    assert payload["image"] == "1,6,7/2,3,9/4,5/8"
    assert payload["source_f"] == {"values": [6, 8, 9], "gammas": [3, 1, 1]}
    assert payload["source_p"] == {"values": [4, 7], "gammas": [1, 2]}
    assert payload["image_f"] == {"values": [5, 7, 9], "gammas": [3, 1, 1]}
    assert payload["image_p"] == {"values": [3, 6], "gammas": [2, 1]}


def test_phi_i_text(capsys):
    code, out, _ = run(["phi-i", "1,4,8/2/3/5,6,7,9", "-i", "3"], capsys)
    assert code == 0
    assert out == "1,4,8/2/3,9/5,6,7\n"


def test_phi_i_bad_index(capsys):
    code, _, err = run(["phi-i", "1,2/3", "-i", "5"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_phi_i_needs_two_blocks(capsys):
    for argv, k in ((["phi-i", "", "-i", "0"], 0), (["phi-i", "1,2", "-i", "1"], 1)):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: phi_i needs at least two blocks, got {k}\n"


# ----------------------------------------------------------------------
# motzkin
# ----------------------------------------------------------------------


def test_motzkin_encode(capsys):
    code, out, _ = run(["motzkin", "1,2"], capsys)
    assert code == 0
    assert out == "NE(1) SE(1)\n"


def test_motzkin_decode(capsys):
    path = "NE(1) E(1*) NE(1) E(1) NE(1) SE(3) E(2) SE(1) SE(1)"
    code, out, _ = run(["motzkin", "--decode", path], capsys)
    assert code == 0
    assert out == "1,4,8/2/3,7,9/5,6\n"


def test_motzkin_round_trip(capsys):
    _, encoded, _ = run(["motzkin", "1,4,8/2,9/3,7/5,6"], capsys)
    code, out, _ = run(["motzkin", "--decode", encoded.strip()], capsys)
    assert code == 0
    assert out == "1,4,8/2,9/3,7/5,6\n"


def test_motzkin_json(capsys):
    code, out, _ = run(["motzkin", "1,2", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "steps": [
            {"kind": "NE", "label": 1, "starred": False},
            {"kind": "SE", "label": 1, "starred": False},
        ]
    }


def test_motzkin_ascii(capsys):
    code, out, _ = run(["motzkin", "1,3/2", "--ascii"], capsys)
    assert code == 0
    assert "/" in out and "\\" in out


def test_motzkin_usage_errors(capsys):
    for argv in (
        ["motzkin"],
        ["motzkin", "1,2", "--decode", "NE(1) SE(1)"],
        ["motzkin", "--decode", "NE(1) SE(1)", "--ascii"],
    ):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:")


def test_motzkin_bad_path_text(capsys):
    code, _, err = run(["motzkin", "--decode", "XX(1)"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_motzkin_bad_path_json(capsys):
    for path in (
        '{"steps":[{"kind":"NE"}]}',
        '{"steps":[{"kind":"UP","label":1}]}',
        '{"steps":7}',
    ):
        code, out, err = run(["motzkin", "--decode", path], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


GOLDEN = Path(__file__).resolve().parent / "golden"


def assert_equals_golden(got: str, name: str) -> None:
    """Require ``got`` to equal the golden file ``name`` exactly, failing
    with the first differing line and both line counts: pytest's own
    diff of two transcripts this long runs for minutes."""
    want = (GOLDEN / name).read_text()
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    # None past the last line, so a shorter transcript differs at its end
    line, got_line, want_line = next(
        (i, g, w)
        for i, (g, w) in enumerate(zip(got_lines + [None], want_lines + [None]), start=1)
        if g != w
    )
    pytest.fail(
        f"{name}: first difference at line {line}: got {got_line!r}, expected {want_line!r} "
        f"({len(got_lines)} lines, expected {len(want_lines)})",
        pytrace=False,
    )


def phi_motzkin_transcript(stdout_of) -> str:
    """Every phi and motzkin output form for the README example and 50
    seeded partitions with n <= 64, as ``$ setpart ARGS`` lines each
    followed by the command's stdout; ``stdout_of(args)`` runs one command.
    ``motzkin --decode`` is given the text that ``motzkin`` printed."""
    rng = random.Random(10)
    texts = ["1,4,8/2/3,7,9/5,6"]
    for _ in range(50):
        n = rng.randint(1, 64)
        texts.append(core.SetPartition(seeded_word(rng, n, rng.randint(1, n))).text())
    commands = [["motzkin", "--decode", "NE(1) SE(1)"]]
    for text in texts:
        commands += [["phi", text], ["phi", text, "--json"], ["phi", text, "--certificate"]]
        commands += [["motzkin", text, "--json"], ["motzkin", text, "--ascii"]]
        commands += [["motzkin", text], ["motzkin", "--decode", None]]
    transcript, out = [], ""
    for args in commands:
        args = [out.strip() if arg is None else arg for arg in args]
        out = stdout_of(args)
        transcript.append(f"$ setpart {shlex.join(args)}\n{out}")
    return "".join(transcript)


def test_phi_and_motzkin_stdout_equals_the_golden_file(capsys):
    def stdout_of(args):
        code, out, err = run(args, capsys)
        assert (code, err) == (0, ""), args
        return out

    assert_equals_golden(phi_motzkin_transcript(stdout_of), "phi_motzkin.txt")


# Partition texts in shuffled block and element order, with spacing, and
# malformed: a repeat inside one block and across two, missing elements
# (the smallest one is named), a zero, an empty element, a stray character
# and an element far above n.
BOUNDARY_TEXTS = (
    "3,1/2",
    "9,3/1,4,8/7/5,6,2",
    "6,5,4/3,2,1",
    " 1 , 4 ,8 / 2/ 3,7 , 9/5,6 ",
    "",
    "   ",
    "1,1/2",
    "2,1/1",
    "3,1/5",
    "4,5,6",
    "0,1",
    "1//2",
    "1, 2/x",
    "1/99999999999999999999",
)


def parse_boundary_transcript(run_one) -> str:
    """``stats``, ``phi`` and ``motzkin`` on every boundary text, as
    ``$ setpart ARGS`` lines each followed by the command's stdout and,
    when it fails, an ``[exit CODE]`` line and its one stderr line;
    ``run_one(args)`` runs one command and returns (code, stdout, stderr)."""
    transcript = []
    for text in BOUNDARY_TEXTS:
        for command in ("stats", "phi", "motzkin"):
            args = [command, text]
            code, out, err = run_one(args)
            transcript.append(f"$ setpart {shlex.join(args)}\n{out}")
            if code:
                assert out == "" and err.count("\n") == 1, args
                transcript.append(f"[exit {code}]\n{err}")
            else:
                assert err == "", args
    return "".join(transcript)


def test_partition_text_boundary_equals_the_golden_file(capsys):
    assert_equals_golden(
        parse_boundary_transcript(lambda args: run(args, capsys)), "parse_boundary.txt"
    )


# Texts whose blocks are out of canonical order, so `stats` keeps them as
# ordered partitions: reversed blocks, descending elements, a singleton
# first, blocks that dominate their successors and blocks that interleave.
ORDERED_TEXTS = (
    "2/1",
    "3,1/2",
    "6,5,4/3,2,1",
    "5/4/3/2/1",
    "2,4/1,3",
    "7,1/6,2/5,3/4",
    "9,3/1,4,8/7/5,6,2",
    "3/1,4,8/2,9/5,6,7",
    "10,2/9,3,1/8,4/7,5/6",
    "12,1/3,11,5/2,7/10/4,6,8,9",
)


def ordered_transcript(stdout_of) -> str:
    """Every command that builds ordered partitions: enumeration, genfun
    with the block-order statistics, stats on out-of-order texts (and the
    element inversion counts at every element of each text and of its
    canonical form) and the euler-mahonian suite, as ``$ setpart ARGS``
    lines each followed by the command's stdout; ``stdout_of(args)`` runs
    one command."""
    commands = [
        ["enumerate", "-n", "5", "--ordered"],
        ["enumerate", "-n", "4", "-k", "2", "--ordered", "--json"],
        ["genfun", "-n", "6", "--ordered", "-s", "mak+bmaj", "--compare", "qstirling-times-qfact"],
        ["genfun", "-n", "5", "--ordered", "-s", "lmakp+binv", "--json"],
    ]
    for text in ORDERED_TEXTS:
        commands += [["stats", text], ["stats", text, "--per-element"]]
        commands += [["stats", text, "-s", "ros,rob,rcs,rcb,los,lob,lcs,lcb,bmaj,binv"]]
        p = core.parse_ordered(text)
        for form in (text, p.canonical().text()):
            for b in range(1, p.n + 1):
                commands.append(["stats", form, "-s", "rinv,nrinv,linv", "-b", str(b)])
    commands.append(["verify", "euler-mahonian", "--n-max", "6"])
    return "".join(f"$ setpart {shlex.join(args)}\n{stdout_of(args)}" for args in commands)


def test_ordered_partition_stdout_equals_the_golden_file(capsys):
    def stdout_of(args):
        code, out, err = run(args, capsys)
        assert code == 0, args
        assert args[0] == "verify" or err == "", args
        return out

    assert_equals_golden(ordered_transcript(stdout_of), "ordered.txt")


def enumerate_transcript(stdout_of) -> str:
    """Canonical enumeration at every size up to 6, one fixed k, k = 0 and
    two JSON forms, as ``$ setpart ARGS`` lines each followed by the
    command's stdout; ``stdout_of(args)`` runs one command."""
    commands = [["enumerate", "-n", str(n)] for n in range(7)]
    commands += [["enumerate", "-n", "8", "-k", "3"], ["enumerate", "-n", "7", "-k", "0"]]
    commands += [["enumerate", "-n", "5", "--json"], ["enumerate", "-n", "6", "-k", "4", "--json"]]
    return "".join(f"$ setpart {shlex.join(args)}\n{stdout_of(args)}" for args in commands)


def test_canonical_enumeration_stdout_equals_the_golden_file(capsys):
    def stdout_of(args):
        code, out, err = run(args, capsys)
        assert (code, err) == (0, ""), args
        return out

    assert_equals_golden(enumerate_transcript(stdout_of), "enumerate.txt")


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_text_report(capsys):
    code, out, err = run(["verify", "theorem2", "--n-max", "4"], capsys)
    assert code == 0
    assert "suite: theorem2" in out
    assert "result: PASS" in out
    assert "wall" not in out
    assert "[theorem2] wall time:" in err


def test_verify_all_json(capsys):
    code, out, _ = run(["verify", "all", "--n-max", "2", "--json"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 10
    assert all(r["failure_count"] == 0 for r in reports)


def test_verify_bad_flags(capsys):
    code, _, err = run(["verify", "theorem2", "--n-max", "-1"], capsys)
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(["verify", "theorem2", "--threads", "0"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_verify_refuses_ranges_above_the_budget(capsys, monkeypatch):
    monkeypatch.setattr(core, "enumerate_partitions", _no_enumeration)
    code, out, err = run(["verify", "theorem2", "--n-max", "14"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: would enumerate 223578344 partitions, at most 1000000\n"
    code, out, err = run(["verify", "all", "--n-max", "9"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: would enumerate ") and err.count("\n") == 1


def test_verify_rejects_negative_max_witnesses(capsys):
    code, out, err = run(["verify", "theorem2", "--n-max", "2", "--max-witnesses", "-1"], capsys)
    assert (code, out, err) == (2, "", "error: --max-witnesses must be non-negative\n")


def test_verify_max_witnesses_caps_fail_lines_not_the_count(capsys, monkeypatch):
    four_stats = stats.four_stats
    # lmakp off by one: every partition fails theorem2
    monkeypatch.setattr(stats, "four_stats", lambda p: four_stats(p)[:3] + (four_stats(p)[3] + 1,))
    argv = ["verify", "theorem2", "--n-max", "4"]
    code, out, _ = run(argv + ["--max-witnesses", "1"], capsys)
    assert code == 1
    assert sum(line.startswith("FAIL ") for line in out.splitlines()) == 1
    assert "failures: 24\n" in out  # B(0) + ... + B(4) partitions
    _, out, _ = run(argv + ["--max-witnesses", "0"], capsys)
    assert "FAIL " not in out and "failures: 24\n" in out and "result: FAIL" in out


def test_threads_below_one_rejected_by_every_subcommand(capsys):
    for argv in (
        ["enumerate", "-n", "2"],
        ["stats", "1,2"],
        ["genfun", "-n", "3"],
        ["qstirling", "-n", "3"],
        ["phi", "1,2"],
        ["phi-i", "1/2", "-i", "1"],
        ["motzkin", "1,2"],
        ["verify", "theorem2", "--n-max", "2"],
    ):
        for bad in ("0", "-5"):
            code, out, err = run(argv + ["--threads", bad], capsys)
            assert code == 2, argv
            assert out == ""
            assert err == "error: --threads must be at least 1\n"


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch"])
    assert exc.value.code == 2


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built, real = [], cli.build_parser

    def counting_build_parser():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    first = run(["genfun", "-n", "4", "--compare", "qstirling"], capsys)
    second = run(["qstirling", "-n", "3"], capsys)
    assert len(built) == 1
    assert first[0] == second[0] == 0
    assert first[1].count("EQUAL") == 4


def test_dispatch_reads_the_subcommand_at_call_time(monkeypatch, capsys):
    code, out, _ = run(["genfun", "-n", "3"], capsys)
    assert code == 0 and out
    seen = []

    def fake_genfun(args):
        seen.append(args.n)
        return 0

    monkeypatch.setattr(cli, "cmd_genfun", fake_genfun)
    code, out, _ = run(["genfun", "-n", "5"], capsys)
    assert (code, out, seen) == (0, "", [5])


# ----------------------------------------------------------------------
# error handling and process entry
# ----------------------------------------------------------------------


def test_repeated_element_wording(capsys):
    code, _, err = run(["stats", "1,1"], capsys)
    assert code == 1
    assert err.startswith("error: element 1 appears twice in block 1")
    assert err == "error: element 1 appears twice in block 1\n"


def test_domain_error_exit_code(capsys):
    code, out, err = run(["phi", "1,3"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "setpart", "enumerate", "-n", "3", "-k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1,2/3\n1,3/2\n1/2,3\n"
