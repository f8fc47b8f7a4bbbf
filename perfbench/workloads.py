"""The three workloads: what one pass runs, and how its outputs are checked.

All three are closed loops with one client in one process, calling the
library's public functions in-process at `--threads 1`.

- verify-all: `setpart verify SUITE --n-max N` for each of the ten suites,
  with N one below the suite's default range (n <= 8).  It runs
  enumeration and every per-partition layer at small n, where fixed
  per-call cost dominates, and never calls the mak distribution kernel.
- genfun-mak: `setpart genfun -n N --compare qstirling` for N = 10, 11, 12.
  The kernel `verify.mak_histograms` does almost all the work and the
  per-partition layers are bypassed.
- partition-queries: seeded random partitions with 16 <= n <= 64 and
  2 <= k <= n // 2, each received as text and queried the way `setpart
  stats`, `phi` and `motzkin` do.  The O(n k) loops of the per-partition
  layers dominate.

A "query" is the unit each workload's latency percentiles count: one
partition query, one `genfun` command, or one `verify` command.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference


def load_library(src: Path):
    """Import setpart and its CLI afresh from `src`, as a new CLI process would."""
    for name in [m for m in sys.modules if m == "setpart" or m.startswith("setpart.")]:
        del sys.modules[name]
    importlib.import_module("setpart.cli")
    setpart = sys.modules["setpart"]
    if Path(setpart.__file__).resolve().parent != (src / "setpart").resolve():
        raise ImportError(f"setpart imported from {setpart.__file__}, not from {src}")
    return setpart


def _run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _span(tracer, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


@dataclass
class Pass:
    latencies_us: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # perf_counter at each query's start
    outputs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Workload:
    """One workload.  `setup` is timed as set-up; `run_pass` is the timed
    work; `check` and `final_checks` run outside both."""

    name = ""
    MIN_PASSES = 2

    def __init__(self, seed: int, tiny: bool, corrupt: bool) -> None:
        self.seed, self.tiny, self.corrupt = seed, tiny, corrupt

    def setup(self, setpart) -> None:
        self.lib = setpart

    def warm_up(self) -> Pass:
        """Untimed work before the timed passes; returns its checked counts."""
        return Pass()

    def run_pass(self, tracer=None) -> Pass:
        raise NotImplementedError

    def check(self, result: Pass) -> None:
        raise NotImplementedError

    def final_checks(self) -> tuple[int, int]:
        """(attempted, failed) of checks made once after the timed passes."""
        return 0, 0

    def record(self) -> dict:
        return {}

    def suite_metrics(self, outputs: list, latencies_us: list[float]) -> dict[str, tuple[float, str]]:
        """Per-suite wall time and cases; only verify-all runs suites."""
        return {}


class VerifyAll(Workload):
    name = "verify-all"

    def setup(self, setpart) -> None:
        super().setup(setpart)
        # One below each suite's default range: the same mix of suites as
        # `verify all`, in passes short enough for many per run.
        self.n_max = {name: 3 if self.tiny else n - 1 for name, n in reference.SUITES.items()}
        # theorem3 and euler-mahonian read q_stirling(n, k); a CLI process
        # fills that cache on every run.
        top = max(self.n_max["theorem3"], self.n_max["euler-mahonian"])
        for k in range(top + 1):
            setpart.qseries.q_stirling(top, k)

    def run_pass(self, tracer=None) -> Pass:
        result = Pass()
        for name, n_max in self.n_max.items():
            with _span(tracer, "bench.query"):
                t0 = perf_counter()
                code, out, _ = _run_cli(self.lib.cli, ["verify", name, "--n-max", str(n_max)])
                dt = perf_counter() - t0
            if self.corrupt and not result.outputs:
                out = out.replace("result: PASS", "result: FAIL", 1)
            result.starts.append(t0)
            result.latencies_us.append(dt * 1e6)
            result.outputs.append((name, code, out))
        return result

    def check(self, result: Pass) -> None:
        for name, code, out in result.outputs:
            fields = reference.parse_verify_report(out).get(name)
            result.attempted += 1
            result.failed += code != 0 or not reference.suite_ok(fields, name, self.n_max[name])

    def suite_metrics(self, outputs: list, latencies_us: list[float]) -> dict[str, tuple[float, str]]:
        metrics = {}
        for (name, _, out), latency in zip(outputs, latencies_us):
            cases = reference.parse_verify_report(out).get(name, {}).get("cases", "0")
            metrics[f"verify.suite.{name}.wall_s"] = (latency / 1e6, "s")
            metrics[f"verify.suite.{name}.cases"] = (int(cases), "count")
        return metrics


class GenfunMak(Workload):
    name = "genfun-mak"

    def setup(self, setpart) -> None:
        super().setup(setpart)
        self.sizes = (4, 5, 6) if self.tiny else (10, 11, 12)
        self.checked_polys: dict[int, dict[int, int]] | None = None
        for k in range(self.sizes[-1] + 1):
            setpart.qseries.q_stirling(self.sizes[-1], k)

    def _argv(self, n: int) -> list[str]:
        return ["genfun", "-n", str(n), "--compare", "qstirling"]

    def warm_up(self) -> Pass:
        _run_cli(self.lib.cli, self._argv(self.sizes[0] - 2))
        return Pass()

    def run_pass(self, tracer=None) -> Pass:
        result = Pass()
        for n in self.sizes:
            with _span(tracer, f"bench.query.n{n}"):
                t0 = perf_counter()
                code, out, _ = _run_cli(self.lib.cli, self._argv(n))
                dt = perf_counter() - t0
            if self.corrupt and n == self.sizes[0]:
                out = out.replace("EQUAL", "DIFFER", 1)
            result.starts.append(t0)
            result.latencies_us.append(dt * 1e6)
            result.outputs.append((n, code, out))
        return result

    def check(self, result: Pass) -> None:
        for n, code, out in result.outputs:
            failed, polys = reference.genfun_failures(out, n)
            result.attempted += n
            result.failed += n if code != 0 else failed
            if n == self.sizes[0] and self.checked_polys is None:
                self.checked_polys = polys

    def final_checks(self) -> tuple[int, int]:
        # Two worker processes must give the histograms one process gave.
        hists = self.lib.verify.mak_histograms(self.sizes[0], threads=2)
        got = {k: {e: c for e, c in enumerate(row) if c} for k, row in hists.items()}
        return 1, int(got != self.checked_polys)


class PartitionQueries(Workload):
    name = "partition-queries"

    def setup(self, setpart) -> None:
        super().setup(setpart)
        count, lo, hi = (30, 4, 12) if self.tiny else (1000, 16, 64)
        self.words = reference.query_inputs(self.seed, count, lo, hi)
        self.texts = [reference.partition_text(w) for w in self.words]
        # query index -> its checked (values, image text); None if it failed
        self.expected: dict[int, tuple | None] = {}

    def _query(self, text: str):
        lib = self.lib
        p = lib.core.parse_partition(text)
        stats = lib.stats
        values = (stats.mak(p), stats.makp(p), stats.lmak(p), stats.lmakp(p))
        image = lib.bijections.phi_certificate(p).image
        back = lib.motzkin.decode(lib.motzkin.encode(p))
        return p, values, image, back, image.text()

    def warm_up(self) -> Pass:
        # One untimed pass checks every query against the identities, so
        # that all timed passes do the same cheap comparison.
        return self.run_pass()

    def run_pass(self, tracer=None) -> Pass:
        # Untraced passes check each query as soon as it is timed, so that
        # no outputs pile up in memory; traced passes keep them to check
        # after tracing stops.
        result = Pass()
        for i, text in enumerate(self.texts):
            with _span(tracer, "bench.query"):
                t0 = perf_counter()
                try:
                    out = self._query(text)
                except Exception as exc:  # a raising query is a failed operation
                    out = exc
                dt = perf_counter() - t0
            result.starts.append(t0)
            result.latencies_us.append(dt * 1e6)
            if self.corrupt and i == 0 and not isinstance(out, Exception):
                p, values, *rest = out
                out = (p, (values[0] + 1,) + values[1:], *rest)
            if tracer:
                result.outputs.append(out)
            else:
                self._tally(result, i, out)
        return result

    def _full_check(self, i: int, out) -> bool:
        lib = self.lib
        p, (mak, makp, lmak, lmakp), image, back, image_text = out
        return (
            p.word == self.words[i]
            and p.text() == self.texts[i]
            and back == p
            and lib.core.parse_partition(image_text) == image
            and lib.bijections.phi(image) == p
            and mak == lib.stats.makp(image)
            and makp == lib.stats.mak(image)
            and mak == lmakp
            and makp == lmak
        )

    def _tally(self, result: Pass, i: int, out) -> None:
        # The first output of each query is checked against the identities;
        # later passes must reproduce that checked output exactly.
        result.attempted += 1
        if isinstance(out, Exception):
            ok = False
        elif i not in self.expected:
            try:
                ok = self._full_check(i, out)
            except Exception:
                ok = False
            self.expected[i] = (out[1], out[4]) if ok else None
        else:
            p, values, _, back, image_text = out
            ok = p.word == self.words[i] and back == p and self.expected[i] == (values, image_text)
        result.failed += not ok

    def check(self, result: Pass) -> None:
        for i, out in enumerate(result.outputs):
            self._tally(result, i, out)

    def record(self) -> dict:
        return {"queries_per_pass": len(self.texts), "nk_histogram": reference.nk_histogram(self.words)}


WORKLOADS = {w.name: w for w in (VerifyAll, GenfunMak, PartitionQueries)}


def layer_table(core, stats, bijections, motzkin, n: int) -> dict[str, float]:
    """Microseconds per partition of each per-partition layer, over all
    partitions of [n], each layer on freshly built partitions after a
    warm-up on smaller ones."""
    def fresh(m: int) -> list:
        return list(core.enumerate_partitions(m))

    layers = {
        "parse_partition": core.parse_partition,
        "text": core.SetPartition.text,
        "classify": core.classify,
        "trace_profile": core.trace_profile,
        "coord_sums_all": stats.coord_sums_all,
        "phi": bijections.phi,
        "encode": motzkin.encode,
        "decode": motzkin.decode,
    }
    inputs = {
        "parse_partition": lambda m: [p.text() for p in fresh(m)],
        "decode": lambda m: [motzkin.encode(p) for p in fresh(m)],
    }
    table = {}
    for name, fn in layers.items():
        make = inputs.get(name, fresh)
        for x in make(max(0, n - 3)):
            fn(x)
        items = make(n)
        t0 = perf_counter()
        for x in items:
            fn(x)
        table[name] = (perf_counter() - t0) / len(items) * 1e6
    return table
