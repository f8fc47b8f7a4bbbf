#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py with --tiny in a
process of its own, untraced and traced, and checks that the result line
holds exactly the metrics BENCHMARK.json names, each with its unit, and
that every output passed its checks.  It then runs each workload with
--corrupt, which alters one output per pass, and checks that the result
counts failures and its error rate is above 0.  Exit status 0 means all
checks held.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402


def run(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return json.loads(lines[-1]), record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    for name, top in reference.SUITES.items():
        cases = reference.expected_suite(name, top)[0]
        if cases != reference.SEED_CASES[name]:
            problems.append(f"reference cases of {name}: {cases} != {reference.SEED_CASES[name]}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics differ from {key}: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            for name, m in result["metrics"].items():
                value = m["value"]
                if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{workload} trace={trace}: {name} = {value!r}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: outputs failed: {result['failed']}/{result['attempted']}")

        result, record = run(workload, 0, "--corrupt")
        if result["correct"] or result["failed"] < 1 or record["error_rate"] <= 0:
            problems.append(f"{workload}: corrupted output not caught ({result['failed']} failed)")
        if result["metrics"]["success_rate"]["value"] >= 1:
            problems.append(f"{workload}: success_rate stays 1 with corrupted output")
        print(f"{workload}: corrupted run failed {result['failed']}/{result['attempted']}, "
              f"error_rate {record['error_rate']:.4f}")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
