"""
Exhaustive verification suites over all partitions at desk scale, plus a
polynomial-time transfer DP for the distribution of mak.

Each suite decomposes into independent (n, k) cells, so the work can be
spread over processes with ``threads``; cell results are merged in task
order and by commutative sums, which keeps every byte of the report
independent of the thread count.  Wall time is carried separately for
the same reason.

Suite names are fixed CLI vocabulary:

- theorem1        the involution exchanges mak and makp, squares to the
                  identity, and mirrors the element classes
- theorem2        mak = lmakp and makp = lmak pointwise
- theorem3        generating functions of mak, makp, lmak, lmakp and
                  every mak_l over the k-block partitions all equal
                  S_q(n, k), and the two-term recurrence splits the mak
                  distribution
- lemma1          the two trace-label identities for mak and makp, the
                  level-sum identity, and the opener-closer matching
- eq4             the per-element block-count identity and its sum
- los-linv        los + linv over openers is the fixed class value
- phi-i           the block-exchange maps are bijections on each class
                  with fixed minima and shift stat_i by one
- eq13            the closer-adjusted mak distribution is a q-shift of
                  the plain one, for every block index
- motzkin         path encode/decode round-trip, reflection realizes the
                  involution, and path counts match Bell numbers
- euler-mahonian  all eight combined statistics on ordered partitions
                  have generating function [k]_q! S_q(n, k), and the two
                  pointwise identities survive arbitrary block order
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, sub

from . import bijections, core, motzkin, stats
from .qseries import QPolynomial, generating_function, q_factorial, q_int, q_stirling
from .stats import CoordKind


@dataclass(frozen=True)
class Failure:
    witness: str
    expected: str
    actual: str

    def to_json_dict(self) -> dict:
        return {"witness": self.witness, "expected": self.expected, "actual": self.actual}


@dataclass
class VerificationReport:
    suite: str
    n_max: int
    cases: int
    failure_count: int
    failures: list[Failure]
    detail: dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n_max": self.n_max,
            "cases": self.cases,
            "failure_count": self.failure_count,
            "failures": [f.to_json_dict() for f in self.failures],
            "detail": self.detail,
            "passed": self.passed,
            "wall_time_s": self.wall_time_s,
        }

    def render_text(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"n_max: {self.n_max}",
            f"cases: {self.cases}",
            f"failures: {self.failure_count}",
        ]
        if self.detail:
            parts = " ".join(f"{key}:{value}" for key, value in self.detail.items())
            lines.append(f"counts: {parts}")
        for f in self.failures:
            lines.append(f"FAIL {f.witness}: expected {f.expected}, got {f.actual}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def bell_number(n: int) -> int:
    """Bell numbers by the additive triangle (independent oracle)."""
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for x in row:
            new.append(new[-1] + x)
        row = new
    return row[0]


def stirling2(n: int, k: int) -> int:
    """Plain Stirling numbers of the second kind, additive recurrence."""
    if n == 0 or k == 0:
        return 1 if n == k else 0
    if k > n:
        return 0
    prev = [1] + [0] * k
    for _ in range(n):
        cur = [0] * (k + 1)
        for j in range(1, k + 1):
            cur[j] = prev[j - 1] + j * prev[j]
        prev = cur
    return prev[k]


# ----------------------------------------------------------------------
# mak distribution by a transfer DP over path states
# ----------------------------------------------------------------------


def _box(row: list[int], h: int) -> list[int]:
    # Coefficients of row * (1 + q + ... + q^(h-1)) as a running window
    # sum: each entry adds the coefficient entering the window and drops
    # the one leaving it.
    return list(accumulate(map(sub, row + [0] * (h - 1), [0] * h + row)))


def _add_shifted(
    states: dict[tuple[int, int], list[int]], key: tuple[int, int], row: list[int], shift: int
) -> None:
    # states[key] += q^shift * row
    acc = states.get(key)
    if acc is None:
        states[key] = [0] * shift + row
        return
    end = shift + len(row)
    if len(acc) < end:
        acc.extend([0] * (end - len(acc)))
    acc[shift:end] = map(add, acc[shift:end], row)


def mak_histograms(n: int, threads: int = 1) -> dict[int, list[int]]:
    """Coefficient lists of the mak distribution over the k-block
    partitions of [n], for every k, by a transfer DP over labeled
    Motzkin-path states.

    ``mak_histograms(n)[k][m]`` is the number of partitions of [n] into
    k blocks with mak equal to m.  Trailing zeros are trimmed and empty
    rows left out.

    A state is (h, blocks opened) after a prefix of the path; it carries
    the mak coefficient list summed over all prefixes that reach it.
    Step i, with rem = n - i elements still to come, adds to mak
    rem + d for a closer, d for a passant (d = h - label ranging over
    0..h-1), rem for a singleton and nothing for an opener.  The work is
    polynomial in n instead of Bell(n).  ``threads`` is accepted for
    compatibility and ignored.
    """
    if n < 0:
        raise core.PartitionError("n must be non-negative")
    states: dict[tuple[int, int], list[int]] = {(0, 0): [1]}
    for i in range(1, n + 1):
        rem = n - i
        nxt: dict[tuple[int, int], list[int]] = {}
        for (h, opened), row in states.items():
            if h:
                box = _box(row, h)
                _add_shifted(nxt, (h - 1, opened), box, rem)  # closer
                if h <= rem:
                    _add_shifted(nxt, (h, opened), box, 0)  # passant
            if h <= rem:
                _add_shifted(nxt, (h, opened + 1), row, rem)  # singleton
            if h < rem:
                _add_shifted(nxt, (h + 1, opened + 1), row, 0)  # opener
        states = nxt
    # Every surviving state ends at height 0; rows only ever grow by
    # non-negative terms ending in a non-zero one, so none needs trimming.
    return {k: states[(0, k)] for k in sorted(k for _, k in states)}


def mak_polynomial(n: int, k: int, threads: int = 1) -> QPolynomial:
    """The mak generating function over the k-block partitions of [n].
    ``threads`` is ignored, as in ``mak_histograms``."""
    return QPolynomial(mak_histograms(n, threads=threads).get(k, []))


# ----------------------------------------------------------------------
# suite cells
# ----------------------------------------------------------------------

CellResult = tuple[int, list[tuple[str, str, str]], dict[str, int]]

_CELLS: dict[str, object] = {}


def _cell(fn):
    _CELLS[fn.__name__] = fn
    return fn


@_cell
def _theorem1_cell(n: int) -> CellResult:
    failures = []
    cases = 0
    for p in core.enumerate_partitions(n):
        cases += 1
        text = p.text()
        try:
            cert = bijections.phi_certificate(p)
        except bijections.ConsistencyError as exc:
            failures.append((text, "a consistent involution image", str(exc)))
            continue
        image = cert.image
        m = stats.mak(p)
        mp = stats.makp(image)
        if m != mp:
            failures.append((text, f"makp of image = {m}", str(mp)))
        if bijections.phi(image) != p:
            failures.append((text, "involution returns to the source", bijections.phi(image).text()))
        mirror = tuple(sorted(n + 1 - i for i in core.classify(p).opener_nonsingletons))
        if core.classify(image).closer_nonsingletons != mirror:
            failures.append((text, f"image closers {mirror}", str(core.classify(image).closer_nonsingletons)))
    return cases, failures, {f"n={n}": cases}


@_cell
def _theorem2_cell(n: int, k: int) -> CellResult:
    failures = []
    cases = 0
    for p in core.enumerate_partitions(n, k):
        cases += 1
        mak_, makp_, lmak_, lmakp_ = stats.four_stats(p)
        if mak_ != lmakp_:
            failures.append((p.text(), f"lmakp = mak = {mak_}", str(lmakp_)))
        if makp_ != lmak_:
            failures.append((p.text(), f"lmak = makp = {makp_}", str(lmak_)))
    return cases, failures, {f"n={n},k={k}": cases}


@_cell
def _theorem3_cell(n: int, k: int) -> CellResult:
    failures = []
    names = ["mak", "makp", "lmak", "lmakp"] + [f"mak_{l}" for l in range(1, k + 1)]
    sums: dict[str, dict[int, int]] = {name: {} for name in names}
    count = 0
    for p in core.enumerate_partitions(n, k):
        count += 1
        mak_, makp_, lmak_, lmakp_ = stats.four_stats(p)
        values = {"mak": mak_, "makp": makp_, "lmak": lmak_, "lmakp": lmakp_}
        for l in range(1, k + 1):
            closer = p.blocks[l - 1][-1]
            values[f"mak_{l}"] = mak_ - stats.nrinv(closer, p) + k - l
        for name, v in values.items():
            if v < 0:
                failures.append((p.text(), f"{name} >= 0", str(v)))
                continue
            d = sums[name]
            d[v] = d.get(v, 0) + 1
    target = q_stirling(n, k)
    for name in names:
        got = QPolynomial.from_dict(sums[name])
        if got != target:
            failures.append((f"n={n} k={k} stat={name}", target.text(), got.text()))
    if n >= 1 and k >= 1:
        genfun = lambda m, j: generating_function(core.enumerate_partitions(m, j), stats.mak)
        left = genfun(n, k)
        right = genfun(n - 1, k - 1).shift(k - 1) + q_int(k) * genfun(n - 1, k)
        if left != right:
            failures.append((f"n={n} k={k} recurrence", left.text(), right.text()))
    return count * len(names), failures, {f"n={n},k={k}": count}


@_cell
def _lemma1_cell(n: int, k: int) -> CellResult:
    failures = []
    cases = 0
    for p in core.enumerate_partitions(n, k):
        cases += 1
        text = p.text()
        prof = core.trace_profile(p)
        cls = core.classify(p)
        closers_below_total = sum(n - a for a in cls.closers)
        mid = [
            idx
            for idx, kind in enumerate(prof.kinds)
            if kind in (core.Kind.CLOSER, core.Kind.PASSANT)
        ]
        mak_, makp_, _, _ = stats.four_stats(p)
        eq5 = sum(prof.l[idx] - prof.gamma[idx] for idx in mid) + closers_below_total
        if eq5 != mak_:
            failures.append((text, f"trace form of mak = {mak_}", str(eq5)))
        eq6 = (
            sum(k - prof.gamma[idx] for idx in mid)
            + sum(k - 1 - prof.l[o - 1] for o in cls.openers)
            - closers_below_total
        )
        if eq6 != makp_:
            failures.append((text, f"trace form of makp = {makp_}", str(eq6)))
        lhs = sum(prof.l[c - 1] for c in cls.closer_nonsingletons)
        rhs = sum(prof.l[o - 1] + 1 for o in cls.opener_nonsingletons)
        if lhs != rhs:
            failures.append((text, f"closer level sum = {rhs}", str(lhs)))
        try:
            match = bijections.match_openers_closers(p)
        except bijections.ConsistencyError as exc:
            failures.append((text, "a complete opener-closer matching", str(exc)))
            continue
        ok = (
            tuple(sorted(match)) == cls.opener_nonsingletons
            and tuple(sorted(match.values())) == cls.closer_nonsingletons
            and all(prof.l[c - 1] == prof.l[o - 1] + 1 for o, c in match.items())
        )
        if not ok:
            failures.append((text, "a level-respecting matching", str(match)))
    return cases, failures, {f"n={n},k={k}": cases}


@_cell
def _eq4_cell(n: int, k: int) -> CellResult:
    failures = []
    cases = 0
    for p in core.enumerate_partitions(n, k):
        cases += 1
        text = p.text()
        prof = core.trace_profile(p)
        cls = core.classify(p)
        openers, closers = set(cls.openers), set(cls.closers)
        total = 0
        for i in range(1, n + 1):
            above = sum(1 for a in openers if a > i)
            below = sum(1 for a in closers if a < i)
            term = prof.l[i - 1] + above + below
            total += term
            if (1 if i in openers else 0) + term != k:
                failures.append(
                    (text, f"element identity k = {k} at i={i}", str((i in openers) + term))
                )
        if len(openers) + total != n * k:
            failures.append((text, f"summed identity nk = {n * k}", str(len(openers) + total)))
    return cases, failures, {f"n={n},k={k}": cases}


@_cell
def _loslinv_cell(n: int, k: int) -> CellResult:
    failures = []
    cases = 0
    for p in core.enumerate_partitions(n, k):
        cases += 1
        value = stats.coord_sum(p, CoordKind.LOS) + stats.linv_openers(p)
        expected = sum(n - x + 1 for x in core.classify(p).openers if x != 1)
        if value != expected:
            failures.append((p.text(), f"los + linv over openers = {expected}", str(value)))
    return cases, failures, {f"n={n},k={k}": cases}


@_cell
def _phii_cell(n: int, kk: int) -> CellResult:
    # kk is the number of blocks (k + 1 in the stat_i convention)
    failures = []
    cases = 0
    classes: dict[tuple[int, ...], list[core.SetPartition]] = defaultdict(list)
    for p in core.enumerate_partitions(n, kk):
        classes[core.classify(p).openers].append(p)
    for openers, members in classes.items():
        member_set = set(members)
        for i in range(1, kk):
            images = []
            for p in members:
                cases += 1
                try:
                    img = bijections.phi_i(p, i)
                except bijections.ConsistencyError as exc:
                    failures.append((p.text(), f"phi_{i} stays in the class", str(exc)))
                    continue
                images.append(img)
                if img not in member_set:
                    failures.append((p.text(), f"phi_{i} image in class {openers}", img.text()))
                left = stats.stat_i(p, i)
                right = stats.stat_i(img, i + 1) - 1
                if left != right:
                    failures.append(
                        (p.text(), f"stat_{i} = stat_{i + 1}(image) - 1 = {right}", str(left))
                    )
            if len(set(images)) != len(members):
                failures.append(
                    (f"n={n} blocks={kk} openers={openers} i={i}",
                     f"{len(members)} distinct images",
                     str(len(set(images)))),
                )
    return cases, failures, {f"n={n},k={kk}": sum(len(m) for m in classes.values())}


@_cell
def _eq13_cell(m: int, kk: int) -> CellResult:
    # family: partitions of [m] into kk blocks; k = kk - 1
    failures = []
    k = kk - 1
    base: dict[int, int] = {}
    adjusted: list[dict[int, int]] = [dict() for _ in range(kk)]
    count = 0
    for p in core.enumerate_partitions(m, kk):
        count += 1
        mak_ = stats.mak(p)
        base[mak_] = base.get(mak_, 0) + 1
        for i in range(kk):  # i = 0..k, block index i+1
            closer = p.blocks[i][-1]
            e = mak_ + k - stats.nrinv(closer, p)
            if e < 0:
                failures.append((p.text(), f"non-negative shifted exponent (i={i})", str(e)))
                continue
            adjusted[i][e] = adjusted[i].get(e, 0) + 1
    base_poly = QPolynomial.from_dict(base)
    for i in range(kk):
        got = QPolynomial.from_dict(adjusted[i])
        want = base_poly.shift(i)
        if got != want:
            failures.append((f"m={m} blocks={kk} i={i}", want.text(), got.text()))
    return count * kk, failures, {f"n={m},k={kk}": count}


@_cell
def _motzkin_roundtrip_cell(n: int) -> CellResult:
    failures = []
    cases = 0
    for p in core.enumerate_partitions(n):
        cases += 1
        try:
            back = motzkin.decode(motzkin.encode(p))
        except (motzkin.PathError, core.PartitionError, core.ProfileError) as exc:
            failures.append((p.text(), "decode(encode(p)) = p", f"raised: {exc}"))
            continue
        if back != p:
            failures.append((p.text(), "decode(encode(p)) = p", back.text()))
    return cases, failures, {f"roundtrip n={n}": cases}


@_cell
def _motzkin_reflect_cell(n: int) -> CellResult:
    failures = []
    cases = 0
    caught = (
        motzkin.PathError,
        bijections.ConsistencyError,
        core.PartitionError,
        core.ProfileError,
    )
    for p in core.enumerate_partitions(n):
        cases += 1
        try:
            via_paths = motzkin.phi_via_paths(p)
            direct = bijections.phi(p)
        except caught as exc:
            failures.append((p.text(), "phi via paths = phi", f"raised: {exc}"))
            continue
        if via_paths != direct:
            failures.append((p.text(), direct.text(), via_paths.text()))
        try:
            path = motzkin.encode(p)
            twice = motzkin.reflect(motzkin.reflect(path))
        except caught as exc:
            failures.append((p.text(), "reflect is an involution", f"raised: {exc}"))
            continue
        if twice != path:
            failures.append((p.text(), "reflect is an involution", "differs"))
    return cases, failures, {f"reflect n={n}": cases}


@_cell
def _motzkin_count_cell(n: int) -> CellResult:
    failures = []
    total = 0
    by_k: Counter[int] = Counter()
    for path in motzkin.enumerate_paths(n):
        total += 1
        openings = sum(
            1 for s in path.steps if s.kind == motzkin.NE or (s.kind == motzkin.E and s.starred)
        )
        by_k[openings] += 1
    want = bell_number(n)
    if total != want:
        failures.append((f"paths of length {n}", str(want), str(total)))
    for k in range(n + 1):
        if by_k.get(k, 0) != stirling2(n, k):
            failures.append(
                (f"paths of length {n} with {k} openings", str(stirling2(n, k)), str(by_k.get(k, 0)))
            )
    return total, failures, {f"paths n={n}": total}


@_cell
def _euler_cell(n: int, k: int) -> CellResult:
    failures = []
    count = 0
    combo_names = [
        "mak+bmaj", "makp+bmaj", "lmak+bmaj", "lmakp+bmaj",
        "mak+binv", "makp+binv", "lmak+binv", "lmakp+binv",
    ]
    sums: dict[str, dict[int, int]] = {name: {} for name in combo_names}
    for op in core.enumerate_ordered(n, k):
        count += 1
        mak_, makp_, lmak_, lmakp_ = stats.four_stats(op)
        if mak_ != lmakp_:
            failures.append((op.text(), f"lmakp = mak = {mak_}", str(lmakp_)))
        if makp_ != lmak_:
            failures.append((op.text(), f"lmak = makp = {makp_}", str(lmak_)))
        bm, bi = stats.bmaj(op), stats.binv(op)
        base = {"mak": mak_, "makp": makp_, "lmak": lmak_, "lmakp": lmakp_}
        for stat_name, value in base.items():
            for extra_name, extra in (("bmaj", bm), ("binv", bi)):
                v = value + extra
                name = f"{stat_name}+{extra_name}"
                if v < 0:
                    failures.append((op.text(), f"{name} >= 0", str(v)))
                    continue
                d = sums[name]
                d[v] = d.get(v, 0) + 1
    target = q_factorial(k) * q_stirling(n, k)
    for name in combo_names:
        got = QPolynomial.from_dict(sums[name])
        if got != target:
            failures.append((f"n={n} k={k} stat={name}", target.text(), got.text()))
    return count, failures, {f"n={n},k={k}": count}


def _run_cell(task: tuple[str, tuple]) -> CellResult:
    name, args = task
    return _CELLS[name](*args)


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------

SUITE_DEFAULT_N_MAX: dict[str, int] = {
    "theorem1": 8,
    "theorem2": 9,
    "theorem3": 9,
    "lemma1": 8,
    "eq4": 8,
    "los-linv": 8,
    "phi-i": 7,
    "eq13": 8,
    "motzkin": 9,
    "euler-mahonian": 7,
}

SUITE_NAMES: tuple[str, ...] = tuple(SUITE_DEFAULT_N_MAX)


def _suite_tasks(name: str, n_max: int) -> list[tuple[str, tuple]]:
    per_nk = lambda cell: [
        (cell, (n, k)) for n in range(n_max + 1) for k in range(0 if n == 0 else 1, n + 1)
    ]
    if name == "theorem1":
        return [("_theorem1_cell", (n,)) for n in range(n_max + 1)]
    if name == "theorem2":
        return per_nk("_theorem2_cell")
    if name == "theorem3":
        return per_nk("_theorem3_cell")
    if name == "lemma1":
        return per_nk("_lemma1_cell")
    if name == "eq4":
        return per_nk("_eq4_cell")
    if name == "los-linv":
        return per_nk("_loslinv_cell")
    if name == "phi-i":
        return [
            ("_phii_cell", (n, kk))
            for n in range(2, n_max + 1)
            for kk in range(2, n + 1)
        ]
    if name == "eq13":
        return [
            ("_eq13_cell", (m, kk))
            for m in range(0, n_max)
            for kk in range(1, m + 1)
        ]
    if name == "motzkin":
        tasks: list[tuple[str, tuple]] = []
        tasks += [("_motzkin_roundtrip_cell", (n,)) for n in range(n_max + 1)]
        tasks += [("_motzkin_reflect_cell", (n,)) for n in range(max(0, n_max))]
        tasks += [("_motzkin_count_cell", (n,)) for n in range(n_max + 1)]
        return tasks
    if name == "euler-mahonian":
        return per_nk("_euler_cell")
    raise ValueError(f"unknown suite {name!r}")


def _worker_count(threads: int, cpus: int | None, tasks: int) -> int:
    """Processes worth starting: no more than requested, than there are
    CPUs (1 when unknown) or than there are tasks, and at least one."""
    return max(1, min(threads, cpus or 1, tasks))


def run_suite(
    name: str,
    n_max: int | None = None,
    threads: int = 1,
    max_witnesses: int = 10,
) -> VerificationReport:
    """Run one suite and aggregate its cells into a report."""
    if name not in SUITE_DEFAULT_N_MAX:
        raise ValueError(f"unknown suite {name!r}")
    if n_max is None:
        n_max = SUITE_DEFAULT_N_MAX[name]
    tasks = _suite_tasks(name, n_max)
    start = time.perf_counter()
    workers = _worker_count(threads, os.cpu_count(), len(tasks))
    if workers == 1:
        results = [_run_cell(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, tasks))
    cases = 0
    failures: list[Failure] = []
    failure_count = 0
    detail: dict[str, int] = {}
    for cell_cases, cell_failures, cell_detail in results:
        cases += cell_cases
        failure_count += len(cell_failures)
        for item in cell_failures:
            if len(failures) < max_witnesses:
                failures.append(Failure(*item))
        for key, value in cell_detail.items():
            detail[key] = detail.get(key, 0) + value
    wall = time.perf_counter() - start
    return VerificationReport(
        suite=name,
        n_max=n_max,
        cases=cases,
        failure_count=failure_count,
        failures=failures,
        detail=detail,
        wall_time_s=wall,
    )


def run_all(
    n_max: int | None = None, threads: int = 1, max_witnesses: int = 10
) -> list[VerificationReport]:
    """Every suite at its own default range (or a shared override)."""
    return [
        run_suite(name, n_max=n_max, threads=threads, max_witnesses=max_witnesses)
        for name in SUITE_NAMES
    ]
