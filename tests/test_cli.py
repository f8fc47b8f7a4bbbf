"""End-to-end checks of the command-line interface.

Each test drives cli.main directly with an argv list and inspects the
captured stdout/stderr plus the exit code, so the pins match exactly what
a shell user sees.  One subprocess smoke test confirms the module entry
point works outside the test process.
"""

import json
import subprocess
import sys

import pytest

from setpart import cli
from setpart.stats import CoordKind

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


def test_qstirling_shifted_out_of_range(capsys):
    code, _, err = run(["qstirling", "-n", "2", "-k", "5", "--shifted"], capsys)
    assert code == 1
    assert err.startswith("error:")


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
