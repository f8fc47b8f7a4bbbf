#!/usr/bin/env python3
"""Benchmark of the setpart library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): verify-all, genfun-mak, partition-queries.
Run from the repository root; the library is imported from ./src.

With --trace 0 the workload is set up several times (import setpart,
generate the inputs, fill the q-Stirling cache) and then runs passes for
about --seconds, at least two; every output is checked against the
benchmark's own references outside the timed regions.  setup_s is the
median set-up.  Each pass runs the same queries, and a query's latency is
its median over the passes.  The speed of a shared host drifts by up to a
factor of two within seconds, so every time is given in reference seconds
(see speed.py): measured seconds scaled by the speed of a fixed
calibration loop run every 50 ms next to the work.  wall_ref_s sums the
query latencies of one pass; query_p50_ref_us and query_p99_ref_us are
percentiles over the queries.  The record line also gives the same
figures in measured seconds.

With --trace 1 it alternates untraced and traced passes, reports per-layer
self times, call counts and shares from the spans, the tracing overhead,
and the n = 9 table of microseconds per partition of each per-partition
layer.

Lines starting with "record " describe the run.  The last line is the
result: {"correct", "attempted", "failed", "metrics"}.

--tiny and --corrupt exist for selftest.py: tiny sizes, and one output
per pass corrupted on purpose so that the checks must catch it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_PASS = 3
TRACE_ROUNDS = 3


def run_record(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "setpart").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def timed_setup(workload) -> tuple[float, float]:
    """(start, end) of one set-up."""
    t0 = perf_counter()
    workload.setup(workloads.load_library(SRC))
    return t0, perf_counter()


def spare_setup(make_workload) -> tuple[float, float]:
    """Time the set-up of a throwaway workload, then put the measured
    workload's setpart modules back into sys.modules."""
    kept = {name: m for name, m in sys.modules.items() if name == "setpart" or name.startswith("setpart.")}
    try:
        return timed_setup(make_workload())
    finally:
        sys.modules.update(kept)


def measure(workload, make_workload, seconds: float) -> tuple[dict, dict, int, int]:
    # Every interval below is kept as (start, end) and turned into
    # reference seconds after the clock has stopped.
    clock = speed.Clock()
    with clock:
        setups = [timed_setup(workload)]
        warm = workload.warm_up()
        passes = []
        started = perf_counter()
        while True:
            t0 = perf_counter()
            result = workload.run_pass()
            workload.check(result)
            passes.append(result)
            # More set-ups between passes, so that their median is taken
            # over the same stretch of time as the passes.
            setups += [spare_setup(make_workload) for _ in range(SETUPS_PER_PASS)]
            now = perf_counter()
            if len(passes) >= workload.MIN_PASSES and now - started + (now - t0) > seconds:
                break
    extra_attempted, extra_failed = workload.final_checks()
    attempted = warm.attempted + sum(p.attempted for p in passes) + extra_attempted
    failed = warm.failed + sum(p.failed for p in passes) + extra_failed

    def query_us(convert, p: workloads.Pass) -> list[float]:
        return [convert(s, s + us / 1e6) * 1e6 for s, us in zip(p.starts, p.latencies_us)]

    # Each query's median over the passes, in reference and in measured
    # seconds (both without the calibrations that ran inside the query).
    typical = [statistics.median(runs) for runs in zip(*(query_us(clock.reference_s, p) for p in passes))]
    measured = [statistics.median(runs) for runs in zip(*(query_us(clock.work_s, p) for p in passes))]
    metrics = {
        "setup_s": (statistics.median(clock.reference_s(*s) for s in setups), "s"),
        "wall_ref_s": (sum(typical) / 1e6, "s"),
        "query_p50_ref_us": (reference.percentile(typical, 0.50), "us"),
        "query_p99_ref_us": (reference.percentile(typical, 0.99), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1 - failed / attempted, "fraction"),
    }
    latency = f"{len(typical)} queries, each the median of {len(passes)} passes"
    samples = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_ref_s": latency,
        "query_p50_ref_us": latency,
        "query_p99_ref_us": latency,
        "peak_rss_mb": 1,
        "success_rate": attempted,
        "calibrations": len(clock.costs),
    }
    unscaled = {
        "calibration_s": clock.median_cost_s(),
        "reference_calibration_s": speed.REF_S,
        "setup_s": statistics.median(clock.work_s(*s) for s in setups),
        "wall_s": sum(measured) / 1e6,
        "query_p50_us": reference.percentile(measured, 0.50),
        "query_p99_us": reference.percentile(measured, 0.99),
    }
    return metrics, {"samples": samples, "measured_seconds": unscaled}, attempted, failed


def best_latencies(passes) -> list[float]:
    """Each query's best latency over passes that ran the same queries."""
    return [min(runs) for runs in zip(*(p.latencies_us for p in passes))]


MODULE_NAMES = tracing.MODULES + ("bench",)


def trace(workload, table_n: int) -> tuple[dict, dict, int, int]:
    setpart = workloads.load_library(SRC)
    workload.setup(setpart)
    warm = workload.warm_up()

    # Untraced and traced passes alternate, so that host drift hits both.
    plain, traced = [], []
    tracer = tracing.Tracer()
    for _ in range(TRACE_ROUNDS):
        plain.append(workload.run_pass())
        tracer.install(setpart)
        try:
            with tracer.span("bench.pass"):
                traced.append(workload.run_pass(tracer))
        finally:
            tracer.uninstall()
    for result in plain + traced:
        workload.check(result)
    attempted = warm.attempted + sum(r.attempted for r in plain + traced)
    failed = warm.failed + sum(r.failed for r in plain + traced)

    agg = tracer.aggregate()
    zero = {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0}
    get = lambda name: agg.get(name, zero)  # noqa: E731

    def us_per(name: str, per: str = "calls") -> float:
        row = get(name)
        return row["total_s"] / row[per] * 1e6 if row[per] else 0.0

    # Times and counts below are per pass; shares are of the traced passes.
    wall = get("bench.pass")["total_s"]
    queries = len(traced[0].latencies_us)
    metrics: dict[str, tuple[float, str]] = {
        "core.enumerate_partitions.us_per_partition": (us_per("core.enumerate_partitions", "items"), "us"),
        "core.parse_partition.us_per_call": (us_per("core.parse_partition"), "us"),
        "core.format.us_per_call": (us_per("core.format_blocks"), "us"),
        "core.classify.us_per_call": (us_per("core.classify"), "us"),
        "core.trace_profile.us_per_call": (us_per("core.trace_profile"), "us"),
        "core.rebuild_from_profile.us_per_call": (us_per("core.rebuild_from_profile"), "us"),
        "stats.coord_sums_all.us_per_call": (us_per("stats.coord_sums_all"), "us"),
        "stats.coord_sums_all.calls_per_query": (
            get("stats.coord_sums_all")["calls"] / (queries * TRACE_ROUNDS), "count"),
        "bijections.phi_certificate.us_per_call": (us_per("bijections.phi_certificate"), "us"),
        "bijections.phi_i.us_per_call": (us_per("bijections.phi_i"), "us"),
        "motzkin.encode.us_per_call": (us_per("motzkin.encode"), "us"),
        "motzkin.decode.us_per_call": (us_per("motzkin.decode"), "us"),
        "motzkin.reflect.us_per_call": (us_per("motzkin.reflect"), "us"),
        "motzkin.enumerate_paths.us_per_path": (us_per("motzkin.enumerate_paths", "items"), "us"),
        "qseries.q_stirling.self_s": (get("qseries.q_stirling")["self_s"] / TRACE_ROUNDS, "s"),
        "qseries.generating_function.self_s": (
            get("qseries.generating_function")["self_s"] / TRACE_ROUNDS, "s"),
        "cli.self_s": (sum(r["self_s"] for n, r in agg.items() if n.startswith("cli.")) / TRACE_ROUNDS, "s"),
    }

    kernel = "verify.mak_histograms"
    kernel_by_n: dict[int, float] = {}  # self seconds per genfun size
    for i in tracer.spans_named(kernel):
        query = tracer.enclosing(i, "bench.query.n")
        if query:
            n = int(query.rpartition(".n")[2])
            kernel_by_n[n] = kernel_by_n.get(n, 0.0) + tracer.self_time(i) / TRACE_ROUNDS
    for n in (10, 11, 12):
        metrics[f"{kernel}.self_s.n{n}"] = (kernel_by_n.get(n, 0.0), "s")
    swept_s = sum(kernel_by_n.values())
    swept = sum(reference.bell(n) for n in kernel_by_n)
    metrics[f"{kernel}.partitions_per_s"] = (swept / swept_s if swept_s else 0.0, "1/s")
    metrics[f"{kernel}.calls"] = (get(kernel)["calls"] // TRACE_ROUNDS, "count")
    metrics[f"{kernel}.self_share"] = (get(kernel)["self_s"] / wall, "fraction")

    plain_best = best_latencies(plain)
    suites = workload.suite_metrics(plain[0].outputs, plain_best)
    for name in reference.SUITES:
        for key, unit in (("wall_s", "s"), ("cases", "count")):
            metric = f"verify.suite.{name}.{key}"
            metrics[metric] = suites.get(metric, (0 if unit == "count" else 0.0, unit))

    for module in MODULE_NAMES:
        rows = [r for n, r in agg.items() if n.startswith(module + ".")]
        metrics[f"{module}.self_share"] = (sum(r["self_s"] for r in rows) / wall, "fraction")
        if module != "bench":
            metrics[f"{module}.calls"] = (sum(r["calls"] for r in rows) // TRACE_ROUNDS, "count")
    overhead = sum(best_latencies(traced)) / sum(plain_best) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    metrics["trace.spans"] = (len(tracer.start) // TRACE_ROUNDS, "count")

    table = workloads.layer_table(setpart.core, setpart.stats, setpart.bijections, setpart.motzkin, table_n)
    for name, value in table.items():
        metrics[f"n9.{name}.us_per_partition"] = (value, "us")

    samples = {
        "passes": f"{TRACE_ROUNDS} untraced and {TRACE_ROUNDS} traced, alternating",
        "queries_per_pass": queries,
        "spans": len(tracer.start),
        "table_n": table_n,
    }
    return metrics, {"samples": samples}, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (self-test)")
    parser.add_argument("--corrupt", action="store_true", help="corrupt outputs on purpose (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "setpart" / "__init__.py").is_file():
        print(f"error: no setpart package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def make_workload():
        return workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.corrupt)

    workload = make_workload()
    if args.trace:
        metrics, details, attempted, failed = trace(workload, 5 if args.tiny else 9)
    else:
        metrics, details, attempted, failed = measure(workload, make_workload, args.seconds)

    record = run_record(args)
    record.update(details, error_rate=failed / attempted, **workload.record())
    if args.trace:
        record["trace_limitation"] = tracing.LIMITATION
    print("record " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
