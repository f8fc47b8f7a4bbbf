"""Checks of the paper's results past the ranges Tier-1 reaches.

Each function is one CI step: the mak distribution against S_q(n, k) at
n = 40 and 64, the verification suites beyond their default ranges, the
kernels against the oracles they replaced, and every committed golden
transcript replayed command by command.  Every ``setpart`` command runs as
its own ``python -m setpart`` process from the repository root.  pytest
collects tests only from ``test_*.py``, so a plain ``pytest`` run leaves
these out; the README's Tests section gives the commands that list and
run them.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import oracles
import pytest
from setpart.bijections import phi_certificate
from setpart.core import enumerate_partitions
from setpart.qseries import q_stirling
from setpart.verify import mak_histograms

from goldens import GOLDEN, assert_equals_golden

ROOT = Path(__file__).resolve().parent.parent


def setpart(*args: str) -> tuple[int, str, str]:
    """Run ``PYTHONPATH=src python -m setpart ARGS < /dev/null`` and return
    its exit code, stdout and stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "setpart", *args],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        stdin=subprocess.DEVNULL,
        capture_output=True,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def stdout_of(*args: str) -> str:
    code, out, err = setpart(*args)
    assert code == 0, f"setpart {shlex.join(args)} exited {code}:\n{out[-2000:]}{err}"
    return out


def assert_genfun_equals_qstirling(n: int) -> None:
    rows = stdout_of("genfun", "-n", str(n), "--compare", "qstirling").splitlines()
    assert sum(row.endswith(": EQUAL") for row in rows) == n, [r for r in rows if ": DIFFER" in r]


def assert_verify_passes(suite: str, n_max: int) -> None:
    out = stdout_of("verify", suite, "--n-max", str(n_max), "--threads", "2")
    assert "result: PASS" in out.splitlines(), out[-2000:]


def test_verify_all_equals_golden_at_every_thread_count():
    assert_equals_golden(stdout_of("verify", "all"), "verify_all.txt")
    assert_equals_golden(stdout_of("verify", "all", "--threads", "2"), "verify_all.txt")


def test_genfun_equals_qstirling_at_n40():
    assert_genfun_equals_qstirling(40)


def test_genfun_equals_qstirling_at_n64():
    # the -n cap, where the kernel's limbs are wider than 8 bytes
    assert_genfun_equals_qstirling(64)


def test_mak_kernel_and_q_stirling_equal_their_oracles_at_n64():
    assert mak_histograms(64) == oracles.mak_histograms(64)
    for k in range(66):
        assert q_stirling(64, k) == oracles.q_stirling(64, k), k


def test_verify_motzkin_passes_at_n10():
    assert_verify_passes("motzkin", 10)


def test_verify_theorem1_passes_at_n9():
    # phi on all 21,147 partitions of [9]
    assert_verify_passes("theorem1", 9)


def test_phi_certificates_equal_the_oracle_on_all_of_9():
    cases = 0
    for cases, p in enumerate(enumerate_partitions(9), 1):
        got, want = phi_certificate(p), oracles.phi_certificate(p)
        assert got.to_json_dict() == want.to_json_dict(), p.text()
    assert cases == 21147, cases


def test_profile_path_and_phi_equal_the_passes_they_replace_on_all_of_10():
    cases = 0
    for cases, p in enumerate(enumerate_partitions(10), 1):
        oracles.assert_one_pass_agrees(p)
    assert cases == 115975, cases


def test_verify_phi_i_passes_at_n9():
    # 89,532 block exchanges with n <= 9
    assert_verify_passes("phi-i", 9)


def test_verify_los_linv_passes_at_n10():
    # 142,418 partitions with n <= 10
    assert_verify_passes("los-linv", 10)


def test_verify_euler_mahonian_passes_at_n8():
    # 598,445 ordered partitions with n <= 8
    assert_verify_passes("euler-mahonian", 8)


@pytest.mark.parametrize("name", ["phi_motzkin", "parse_boundary", "ordered", "enumerate"])
def test_golden_transcript_replays(name):
    """Run each ``$ setpart ARGS`` line of the transcript and rebuild it:
    the line, the command's stdout and, only on a non-zero exit, an
    ``[exit N]`` line and its stderr.  test_cli.py builds the same
    transcripts in process; here each command goes through the shell
    quoting of its line and the module entry point, as a user runs it."""
    transcript = []
    for line in (GOLDEN / f"{name}.txt").read_text().split("\n"):
        if line.startswith("$ setpart "):
            code, out, err = setpart(*shlex.split(line[len("$ setpart ") :]))
            transcript.append(f"{line}\n{out}" + (f"[exit {code}]\n{err}" if code else ""))
    assert_equals_golden("".join(transcript), f"{name}.txt")
