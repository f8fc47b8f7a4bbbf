"""
Exhaustive verification suites over all partitions at desk scale, plus a
polynomial-time transfer DP for the distribution of mak.

The DP (``mak_histograms``) packs each state's coefficient list into one
int, a fixed-width limb per coefficient, so that its steps are big-int
shifts and adds; the states sit in one flat list indexed by (height,
blocks opened), every step moves a row by a fixed index offset, and each
final row is unpacked in one ``struct`` call while its limbs fit in 8
bytes.  Each step lifts a row by its closed blocks and walks the states
band by band in height.  The unpacked counts must sum to Bell(n), or it
raises.

``SUITES`` maps each suite name to its default range and to the list of
its tasks, independent (cell function, args) pairs over the (n, k)
families, so the work can be spread over processes with ``threads``;
cell results are merged in task order and by commutative sums, which
keeps every byte of the report independent of the thread count.  Wall
time is carried separately for the same reason.  Per-partition
identities are checks: generators that yield (expected, actual) for each
identity broken on one partition, run over a family by ``_each``.  The
distribution cells (theorem3, eq13, euler-mahonian) walk their family
the same way, tallying named values into histograms that they compare
with the target polynomials afterwards.

Suite names are fixed CLI vocabulary, copied into ``cli.SUITE_NAMES``:

- theorem1        the involution exchanges mak and makp, squares to the
                  identity, and mirrors the element classes
- theorem2        mak = lmakp and makp = lmak pointwise
- theorem3        generating functions of mak, makp, lmak, lmakp and
                  every mak_l over the k-block partitions all equal
                  S_q(n, k), and the enumerated mak distribution obeys
                  the two-term recurrence over the DP's at n - 1
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

import functools
import math
import os
import struct
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping
from types import MappingProxyType
from typing import NamedTuple

from . import bijections, core, motzkin, stats
from .qseries import QPolynomial, q_factorial, q_int, q_stirling


class Failure(NamedTuple):
    witness: str
    expected: str
    actual: str


class VerificationReport(NamedTuple):
    suite: str
    n_max: int
    cases: int
    failure_count: int
    failures: list[Failure]
    detail: Mapping[str, int] = MappingProxyType({})  # read-only, so one default serves all
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json_dict(self) -> dict:
        data = self._asdict()
        wall_time_s = data.pop("wall_time_s")
        data["failures"] = [f._asdict() for f in self.failures]
        data["detail"] = dict(self.detail)
        return {**data, "passed": self.passed, "wall_time_s": wall_time_s}

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


@functools.cache
def bell_number(n: int) -> int:
    """Bell numbers by the additive triangle (independent oracle),
    memoized: ``mak_histograms`` checks its counts against one per call."""
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
    if not 0 < k <= n:
        return 0
    prev = [1] + [0] * k
    for _ in range(n):
        cur = [0] * (k + 1)
        for j in range(1, k + 1):
            cur[j] = prev[j - 1] + j * prev[j]
        prev = cur
    return prev[k]


def family_size(n: int, k: int | None = None, ordered: bool = False) -> int:
    """How many partitions of [n] there are (into k blocks if given;
    ordered ones, k! S(n, k) per k, if ``ordered``)."""
    if k is None:
        return sum(family_size(n, j, ordered) for j in range(n + 1))
    count = stirling2(n, k)  # 0 for k < 0, where k! is undefined
    return count * math.factorial(k) if ordered and count else count


# Most partitions (or paths) one command may enumerate, about a minute of
# per-partition work; the largest default suite walks 58,182.
ENUMERATION_BUDGET = 10**6


# ----------------------------------------------------------------------
# mak distribution by a transfer DP over path states
# ----------------------------------------------------------------------


def _limb_bytes(total: int) -> int:
    """Bytes per packed coefficient: enough to hold any count up to ``total``."""
    return (total.bit_length() + 7) // 8


# Little-endian struct codes of the limb widths that one unpack call reads.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


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
    0..h-1), rem for a singleton and nothing for an opener.  A block
    closed at step c adds n - c, 1 per later step, so step i first lifts
    each row by its opened - h closed blocks and then adds only the d
    terms: a row grows with its prefix, not as wide as a final row from
    the start.  The work is polynomial in n instead of Bell(n).
    ``threads`` is accepted for compatibility and ignored.

    Each coefficient list is packed into one int, coefficient m in the
    W-bit limb m (Kronecker substitution q = x = 2^W), so the steps are
    big-int shifts and adds.  Every prefix the DP keeps can still be
    completed and distinct prefixes complete to distinct partitions, so
    no coefficient ever exceeds Bell(n), and W = the bits of Bell(n)
    rounded up to whole bytes never carries.  A carry would lower the sum
    of the unpacked counts, which is checked against Bell(n).

    The states live in one flat list, (h, opened) at index
    h * (n + 2) + opened, so a closer, passant, singleton and opener move
    a row by the fixed offsets -(n + 2), 0, +1 and n + 3; each step fills
    a fresh list, reading the reachable cells band by band (h from 0 to
    min(i - 1, n - i + 1), opened from h to i - 1) and skipping the empty
    ones; each band builds its doubling plan for 1 + x + ... + x^(h-1)
    once.  While Bell(n) fits in 8 bytes (n <= 25), W
    is rounded up to 8, 16, 32 or 64 bits and each row is read with one
    little-endian ``struct.unpack`` call; wider limbs are read as
    ``int.from_bytes`` slices.
    """
    if n < 0:
        raise core.PartitionError("n must be non-negative")
    bell = bell_number(n)
    size = _limb_bytes(bell)
    if size <= 8:
        size = 1 << (size - 1).bit_length()  # 1, 2, 4 or 8: one struct code
    width = 8 * size
    # state (h, opened) at index h * stride + opened; h never exceeds n // 2
    stride = n + 2
    states = [0] * ((n // 2 + 2) * stride)
    states[0] = 1
    for i in range(1, n + 1):
        rem = n - i
        nxt = [0] * len(states)
        # after i - 1 steps, h <= min(i - 1, n - i + 1) and h <= opened <= i - 1
        for h in range(min(i - 1, rem + 1) + 1):
            # box = row * (1 + x + ... + x^(h-1)) by doubling along the bits
            # of h below its leading one: (shift, add one more)
            plan, span = [], 1
            for bit in bin(h)[3:]:
                plan.append((span * width, bit == "1"))
                span = 2 * span + (bit == "1")
            at = h * stride + h
            # lift by the opened - h closed blocks
            for lift in range(0, (i - h) * width, width):
                row = states[at]
                if row:
                    row <<= lift
                    if h:
                        box = row
                        for shift, one in plan:
                            box += box << shift
                            if one:
                                box = (box << width) + row
                        nxt[at - stride] += box  # closer
                        if h <= rem:
                            nxt[at] += box  # passant
                    if h <= rem:
                        nxt[at + 1] += row  # singleton
                    if h < rem:
                        nxt[at + stride + 1] += row  # opener
                at += 1
        states = nxt
    # Every surviving state ends at height 0; a row's top limb is its
    # highest non-zero coefficient, so none needs trimming.
    code = _STRUCT_CODES.get(size)
    hists = {}
    for k, packed in enumerate(states[:stride]):
        if packed:
            count = -(-packed.bit_length() // width)
            data = packed.to_bytes(count * size, "little")
            if code:
                hists[k] = list(struct.unpack(f"<{count}{code}", data))
            else:
                hists[k] = [
                    int.from_bytes(data[j : j + size], "little") for j in range(0, len(data), size)
                ]
    total = sum(map(sum, hists.values()))
    if total != bell:
        raise core.ConsistencyError(
            f"mak counts for n={n} sum to {total}, not Bell({n}) = {bell}: "
            f"a {width}-bit coefficient overflowed"
        )
    return hists


# ----------------------------------------------------------------------
# per-partition checks
# ----------------------------------------------------------------------

# A check reads one partition and yields (expected, actual) for every
# identity it finds broken there; ``_each`` runs it over a family.  The
# aliases subscript collections.abc, not typing: typing caches its
# aliases, and one over core.SetPartition would keep every re-imported
# copy of the package alive.
Check = Callable[[core.SetPartition], Iterator[tuple[str, str]]]
CellResult = tuple[int, list[tuple[str, str, str]], dict[str, int]]


def _each(
    check: Check, label: str, n: int, k: int | None = None, ordered: bool = False
) -> CellResult:
    """Run ``check`` on every partition of [n] (into k blocks if given;
    ordered ones if ``ordered``); each failure is witnessed by the
    partition's text."""
    failures = []
    cases = 0
    family = core.enumerate_ordered(n, k) if ordered else core.enumerate_partitions(n, k)
    for cases, p in enumerate(family, 1):
        for expected, actual in check(p):
            failures.append((p.text(), expected, actual))
    return cases, failures, {f"{label}n={n}" + ("" if k is None else f",k={k}"): cases}


def _theorem1(p: core.SetPartition) -> Iterator[tuple[str, str]]:
    try:
        image = bijections.phi_certificate(p).image
    except core.ConsistencyError as exc:
        yield "a consistent involution image", str(exc)
        return
    m, mp = stats.mak(p), stats.makp(image)
    if m != mp:
        yield f"makp of image = {m}", str(mp)
    back = bijections.phi(image)
    if back != p:
        yield "involution returns to the source", back.text()
    mirror = tuple(sorted(p.n + 1 - i for i in core.classify(p).opener_nonsingletons))
    closers = core.classify(image).closer_nonsingletons
    if closers != mirror:
        yield f"image closers {mirror}", str(closers)


def _theorem2(p: core.Partition) -> Iterator[tuple[str, str]]:
    mak_, makp_, lmak_, lmakp_ = stats.four_stats(p)
    if mak_ != lmakp_:
        yield f"lmakp = mak = {mak_}", str(lmakp_)
    if makp_ != lmak_:
        yield f"lmak = makp = {makp_}", str(lmak_)


def _lemma1(p: core.SetPartition) -> Iterator[tuple[str, str]]:
    n, k = p.n, p.k
    prof = core.trace_profile(p)
    cls = core.classify(p)
    closers_below_total = sum(n - a for a in cls.closers)
    mid = [
        idx for idx, kind in enumerate(prof.kinds) if kind is core.CLOSER or kind is core.PASSANT
    ]
    mak_, makp_, _, _ = stats.four_stats(p)
    eq5 = sum(prof.l[idx] - prof.gamma[idx] for idx in mid) + closers_below_total
    if eq5 != mak_:
        yield f"trace form of mak = {mak_}", str(eq5)
    eq6 = (
        sum(k - prof.gamma[idx] for idx in mid)
        + sum(k - 1 - prof.l[o - 1] for o in cls.openers)
        - closers_below_total
    )
    if eq6 != makp_:
        yield f"trace form of makp = {makp_}", str(eq6)
    lhs = sum(prof.l[c - 1] for c in cls.closer_nonsingletons)
    rhs = sum(prof.l[o - 1] + 1 for o in cls.opener_nonsingletons)
    if lhs != rhs:
        yield f"closer level sum = {rhs}", str(lhs)
    try:
        match = bijections.match_openers_closers(p)
    except core.ConsistencyError as exc:
        yield "a complete opener-closer matching", str(exc)
        return
    ok = (
        tuple(sorted(match)) == cls.opener_nonsingletons
        and tuple(sorted(match.values())) == cls.closer_nonsingletons
        and all(prof.l[c - 1] == prof.l[o - 1] + 1 for o, c in match.items())
    )
    if not ok:
        yield "a level-respecting matching", str(match)


def _eq4(p: core.SetPartition) -> Iterator[tuple[str, str]]:
    n, k = p.n, p.k
    prof = core.trace_profile(p)
    cls = core.classify(p)
    openers, closers = set(cls.openers), set(cls.closers)
    total = 0
    above, below = len(openers), 0  # openers after i and closers before i
    for i in range(1, n + 1):
        opens = i in openers
        above -= opens
        term = prof.l[i - 1] + above + below
        total += term
        if opens + term != k:
            yield f"element identity k = {k} at i={i}", str(opens + term)
        below += i in closers
    if len(openers) + total != n * k:
        yield f"summed identity nk = {n * k}", str(len(openers) + total)


def _los_linv(p: core.SetPartition) -> Iterator[tuple[str, str]]:
    value = stats.coord_sums_all(p)[stats.CoordKind.LOS] + stats.linv_openers(p)
    expected = sum(p.n - x + 1 for x in core.classify(p).openers if x != 1)
    if value != expected:
        yield f"los + linv over openers = {expected}", str(value)


def _motzkin_roundtrip(p: core.SetPartition) -> Iterator[tuple[str, str]]:
    try:
        back = motzkin.decode(motzkin.encode(p))
    except (motzkin.PathError, core.PartitionError) as exc:
        yield "decode(encode(p)) = p", f"raised: {exc}"
        return
    if back != p:
        yield "decode(encode(p)) = p", back.text()


def _motzkin_reflect(p: core.SetPartition) -> Iterator[tuple[str, str]]:
    caught = (motzkin.PathError, core.ConsistencyError, core.PartitionError)
    try:
        path = motzkin.encode(p)
        mirror = motzkin.reflect(path)
        direct = motzkin.encode(bijections.phi(p))  # the forward pass over phi's word
    except caught as exc:
        yield "phi via paths = phi", f"raised: {exc}"
        return
    if mirror.steps != direct.steps:
        yield direct.text(), mirror.text()
    try:
        twice = motzkin.reflect(mirror)
    except caught as exc:
        yield "reflect is an involution", f"raised: {exc}"
        return
    if twice != path:
        yield "reflect is an involution", "differs"


# ----------------------------------------------------------------------
# aggregate cells: a distribution or a count over a whole family
# ----------------------------------------------------------------------

Tally = dict[str, Counter[int]]
_FOUR = ("mak", "makp", "lmak", "lmakp")  # the order of stats.four_stats


def _tally(hist: Tally, names: tuple[str, ...], values: Iterable[int]) -> Iterator[tuple[str, str]]:
    """Count each named value into ``hist``; a negative one is a failure."""
    for name, v in zip(names, values):
        if v < 0:
            yield f"{name} >= 0", str(v)
        else:
            hist[name][v] += 1


def _compare(at: str, hist: Tally, targets: dict[str, QPolynomial]) -> list[tuple[str, str, str]]:
    """A failure for each tallied distribution that is not its target."""
    failures = []
    for name, want in targets.items():
        got = QPolynomial.from_dict(hist[name])
        if got != want:
            failures.append((f"{at} stat={name}", want.text(), got.text()))
    return failures


def _theorem3_cell(n: int, k: int) -> CellResult:
    ls = range(1, k + 1)
    names = (*_FOUR, *(f"mak_{l}" for l in ls))
    hist: Tally = {name: Counter() for name in names}

    def check(p: core.SetPartition) -> Iterator[tuple[str, str]]:
        return _tally(hist, names, [*stats.four_stats(p), *stats.mak_ls(p)])

    cases, failures, detail = _each(check, "", n, k)
    failures += _compare(f"n={n} k={k}", hist, dict.fromkeys(names, q_stirling(n, k)))
    if n and k:
        # the enumerated mak distribution at n against the DP's at n - 1
        below = mak_histograms(n - 1)
        fewer, same = (QPolynomial._trusted(below.get(j, ())) for j in (k - 1, k))
        left, right = QPolynomial.from_dict(hist["mak"]), fewer.shift(k - 1) + q_int(k) * same
        if left != right:
            failures.append((f"n={n} k={k} recurrence", left.text(), right.text()))
    return cases * len(names), failures, detail


def _eq13_cell(n: int, kk: int) -> CellResult:
    # Eq. (13) over the kk-block partitions (k = kk - 1 in its convention):
    # mak_l + l - 1 is distributed as q^(l - 1) times mak
    ls = range(1, kk + 1)
    shifted = tuple(f"mak_{l}+{l - 1}" for l in ls)
    names = ("mak", *shifted)
    hist: Tally = {name: Counter() for name in names}

    def check(p: core.SetPartition) -> Iterator[tuple[str, str]]:
        return _tally(hist, names, [stats.mak(p), *[m + i for i, m in enumerate(stats.mak_ls(p))]])

    cases, failures, detail = _each(check, "", n, kk)
    base = QPolynomial.from_dict(hist["mak"])
    targets = {name: base.shift(l - 1) for l, name in zip(ls, shifted)}
    return cases * kk, failures + _compare(f"n={n} k={kk}", hist, targets), detail


def _euler_cell(n: int, k: int) -> CellResult:
    # tallied statistic by statistic, compared extra by extra
    names = tuple(f"{s}+{e}" for s in _FOUR for e in ("bmaj", "binv"))
    hist: Tally = {f"{s}+{e}": Counter() for e in ("bmaj", "binv") for s in _FOUR}

    def check(op: core.OrderedSetPartition) -> Iterator[tuple[str, str]]:
        yield from _theorem2(op)
        bm, bi = stats.bmaj(op), stats.binv(op)
        yield from _tally(hist, names, [v + x for v in stats.four_stats(op) for x in (bm, bi)])

    cases, failures, detail = _each(check, "", n, k, ordered=True)
    target = q_factorial(k) * q_stirling(n, k)
    return cases, failures + _compare(f"n={n} k={k}", hist, dict.fromkeys(hist, target)), detail


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
                except core.ConsistencyError as exc:
                    failures.append((p.text(), f"phi_{i} stays in the class", str(exc)))
                    continue
                images.append(img)
                if img not in member_set:
                    failures.append((p.text(), f"phi_{i} image in class {openers}", img.text()))
                    continue  # its block i + 1 need not exist
                left = stats.stat_i(p, i)
                right = stats.stat_i(img, i + 1) - 1
                if left != right:
                    failures.append(
                        (p.text(), f"stat_{i} = stat_{i + 1}(image) - 1 = {right}", str(left))
                    )
            if len(set(images)) != len(members):
                where = f"n={n} blocks={kk} openers={openers} i={i}"
                failures.append((where, f"{len(members)} distinct images", str(len(set(images)))))
    return cases, failures, {f"n={n},k={kk}": sum(len(m) for m in classes.values())}


def _motzkin_count_cell(n: int) -> CellResult:
    failures = []
    total = 0
    by_k: Counter[int] = Counter()
    for total, path in enumerate(motzkin.enumerate_paths(n), 1):
        # an opening is an NE(1) or an E(1*) step
        steps = path.steps
        by_k[steps.count(motzkin._NE1) + steps.count(motzkin._E1_STAR)] += 1
    want = bell_number(n)
    if total != want:
        failures.append((f"paths of length {n}", str(want), str(total)))
    for k in range(n + 1):
        if by_k[k] != stirling2(n, k):
            where = f"paths of length {n} with {k} openings"
            failures.append((where, str(stirling2(n, k)), str(by_k[k])))
    return total, failures, {f"paths n={n}": total}


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------

# A task is a cell function and its arguments; module-level functions
# pickle by reference, so tasks cross to worker processes as they are.
Task = tuple[Callable[..., CellResult], tuple]


def _nk(n_max: int) -> list[tuple[int, int]]:
    return [(n, k) for n in range(n_max + 1) for k in range(0 if n == 0 else 1, n + 1)]


def _each_nk(check: Check) -> Callable[[int], list[Task]]:
    return lambda n_max: [(_each, (check, "", n, k)) for n, k in _nk(n_max)]


def _cell_nk(cell: Callable[[int, int], CellResult]) -> Callable[[int], list[Task]]:
    return lambda n_max: [(cell, nk) for nk in _nk(n_max)]


# suite name -> (default n_max, tasks for a given n_max), in report order
SUITES: dict[str, tuple[int, Callable[[int], list[Task]]]] = {
    "theorem1": (8, lambda n_max: [(_each, (_theorem1, "", n)) for n in range(n_max + 1)]),
    "theorem2": (9, _each_nk(_theorem2)),
    "theorem3": (9, _cell_nk(_theorem3_cell)),
    "lemma1": (8, _each_nk(_lemma1)),
    "eq4": (8, _each_nk(_eq4)),
    "los-linv": (8, _each_nk(_los_linv)),
    "phi-i": (7, lambda n_max: [(_phii_cell, nk) for nk in _nk(n_max) if nk[1] >= 2]),
    "eq13": (8, lambda n_max: [(_eq13_cell, nk) for nk in _nk(n_max - 1) if nk[1]]),
    "motzkin": (
        9,
        lambda n_max: [(_each, (_motzkin_roundtrip, "roundtrip ", n)) for n in range(n_max + 1)]
        + [(_each, (_motzkin_reflect, "reflect ", n)) for n in range(n_max)]
        + [(_motzkin_count_cell, (n,)) for n in range(n_max + 1)],
    ),
    "euler-mahonian": (7, _cell_nk(_euler_cell)),
}

SUITE_NAMES: tuple[str, ...] = tuple(SUITES)


def suite_size(name: str, n_max: int | None = None) -> int:
    """How many partitions and paths suite ``name`` builds up to
    ``n_max``, counted from its tasks without building any."""
    default_n_max, build = SUITES[name]
    total = 0
    for fn, args in build(default_n_max if n_max is None else n_max):
        if fn is _each:
            args = args[2:]  # (check, label, n[, k])
        total += family_size(*args, ordered=fn is _euler_cell)
    return total


def _run(task: Task) -> CellResult:
    fn, args = task
    return fn(*args)


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
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    default_n_max, build = SUITES[name]
    n_max = default_n_max if n_max is None else n_max
    tasks = build(n_max)
    start = time.perf_counter()
    workers = _worker_count(threads, os.cpu_count(), len(tasks))
    if workers == 1:
        results = [_run(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run, tasks))
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

