"""Independent references for checking the benchmark's outputs.

Nothing here imports setpart: Bell and Stirling numbers come from their
own recurrences, inputs come from a seeded sampler, and the command
outputs are parsed from text.
"""

from __future__ import annotations

import math
import random
import re
from functools import lru_cache

# Default range of each suite of `setpart verify all`, in report order.
SUITES: dict[str, int] = {
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

# `cases:` of each suite at its default range, as the library reported
# them when this benchmark was written.
SEED_CASES: dict[str, int] = dict(
    zip(SUITES, (5296, 26443, 221746, 5296, 5296, 5296, 2984, 4139, 58182, 52610))
)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == 0 or k == 0:
        return int(n == k)
    if k > n:
        return 0
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def _per_nk(n_max: int) -> list[tuple[int, int]]:
    return [(n, k) for n in range(n_max + 1) for k in range(0 if n == 0 else 1, n + 1)]


def expected_suite(name: str, n_max: int) -> tuple[int, dict[str, int]]:
    """The `cases:` value and the `counts:` entries of one suite report."""
    if name == "theorem1":
        counts = {f"n={n}": bell(n) for n in range(n_max + 1)}
        return sum(counts.values()), counts
    if name in ("theorem2", "theorem3", "lemma1", "eq4", "los-linv"):
        cells = _per_nk(n_max)
        counts = {f"n={n},k={k}": stirling2(n, k) for n, k in cells}
        if name == "theorem3":  # mak, makp, lmak, lmakp and every mak_l
            return sum(stirling2(n, k) * (4 + k) for n, k in cells), counts
        return sum(counts.values()), counts
    if name == "phi-i":
        cells = [(n, kk) for n in range(2, n_max + 1) for kk in range(2, n + 1)]
        counts = {f"n={n},k={kk}": stirling2(n, kk) for n, kk in cells}
        return sum(stirling2(n, kk) * (kk - 1) for n, kk in cells), counts
    if name == "eq13":
        cells = [(m, kk) for m in range(n_max) for kk in range(1, m + 1)]
        counts = {f"n={m},k={kk}": stirling2(m, kk) for m, kk in cells}
        return sum(stirling2(m, kk) * kk for m, kk in cells), counts
    if name == "motzkin":
        counts = {f"roundtrip n={n}": bell(n) for n in range(n_max + 1)}
        counts.update({f"reflect n={n}": bell(n) for n in range(n_max)})
        counts.update({f"paths n={n}": bell(n) for n in range(n_max + 1)})
        return sum(counts.values()), counts
    if name == "euler-mahonian":  # ordered partitions: k! S(n, k)
        counts = {f"n={n},k={k}": math.factorial(k) * stirling2(n, k) for n, k in _per_nk(n_max)}
        return sum(counts.values()), counts
    raise ValueError(f"unknown suite {name!r}")


_COUNT = re.compile(r"((?:roundtrip |reflect |paths )?n=\d+(?:,k=\d+)?):(\d+)")


def parse_verify_report(text: str) -> dict[str, dict]:
    """Split `setpart verify all` text into one field dict per suite."""
    reports: dict[str, dict] = {}
    for block in text.strip().split("\n\n"):
        fields: dict = {"fail_lines": 0}
        for line in block.splitlines():
            key, _, value = line.partition(": ")
            if key == "counts":
                fields["counts"] = {k: int(v) for k, v in _COUNT.findall(value)}
            elif key in ("suite", "n_max", "cases", "failures", "result"):
                fields[key] = value
            elif line.startswith("FAIL "):
                fields["fail_lines"] += 1
        reports[fields.get("suite", "")] = fields
    return reports


def suite_ok(fields: dict | None, name: str, n_max: int) -> bool:
    if fields is None:
        return False
    cases, counts = expected_suite(name, n_max)
    return (
        fields.get("result") == "PASS"
        and fields.get("failures") == "0"
        and fields.get("fail_lines") == 0
        and fields.get("n_max") == str(n_max)
        and fields.get("cases") == str(cases)
        and fields.get("counts") == counts
    )


_TERM = re.compile(r"^(?:(\d+)|(?:(\d+)\*)?q(?:\^(\d+))?)$")


def parse_polynomial(text: str) -> dict[int, int]:
    """Exponent -> coefficient of the `genfun` polynomial text."""
    coeffs: dict[int, int] = {}
    if text.strip() == "0":
        return coeffs
    for term in text.split(" + "):
        m = _TERM.match(term.strip())
        if m is None:
            raise ValueError(f"bad polynomial term {term!r}")
        if m.group(1) is not None:
            e, c = 0, int(m.group(1))
        else:
            c = int(m.group(2)) if m.group(2) else 1
            e = int(m.group(3)) if m.group(3) else 1
        coeffs[e] = coeffs.get(e, 0) + c
    return coeffs


def genfun_failures(text: str, n: int) -> tuple[int, dict[int, dict[int, int]]]:
    """Failed k lines of `genfun -n N --compare qstirling`, and the parsed
    polynomials.  Each k counts once; a wrong Bell total fails every k."""
    lines = text.strip().splitlines()
    polys: dict[int, dict[int, int]] = {}
    failed = 0
    for k in range(1, n + 1):
        poly_line, verdict_line = (lines[2 * k - 2 : 2 * k] + ["", ""])[:2]
        prefix = f"k={k}: "
        try:
            if not poly_line.startswith(prefix):
                raise ValueError(poly_line)
            poly = parse_polynomial(poly_line[len(prefix) :])
        except ValueError:
            failed += 1
            continue
        polys[k] = poly
        if verdict_line != prefix + "EQUAL" or sum(poly.values()) != stirling2(n, k):
            failed += 1
    if len(lines) != 2 * n or sum(sum(p.values()) for p in polys.values()) != bell(n):
        failed = n
    return failed, polys


# -- partition-queries inputs ---------------------------------------------


def _completions(k: int, n_max: int) -> list[list[int]]:
    # ways[r][b]: ways to place r more elements, starting from b blocks,
    # so that exactly k blocks result.
    ways = [[int(b == k) for b in range(k + 2)]]
    for r in range(1, n_max + 1):
        prev = ways[-1]
        ways.append([b * prev[b] + prev[b + 1] if b <= k else 0 for b in range(k + 1)] + [0])
    return ways


def random_partition(rng: random.Random, n: int, k: int, tables: dict) -> tuple[int, ...]:
    """Restricted growth word of a uniform random partition of [n] into k blocks."""
    ways = tables.get(k)
    if ways is None or len(ways) <= n:
        ways = tables[k] = _completions(k, max(n, 64))
    word: list[int] = []
    b = 0
    for i in range(n):
        r = n - i - 1
        pick = rng.randrange(ways[r + 1][b])
        if pick < b * ways[r][b]:
            word.append(pick // ways[r][b] + 1)
        else:
            b += 1
            word.append(b)
    return tuple(word)


def partition_text(word: tuple[int, ...]) -> str:
    blocks: list[list[int]] = [[] for _ in range(max(word, default=0))]
    for i, letter in enumerate(word, start=1):
        blocks[letter - 1].append(i)
    return "/".join(",".join(map(str, block)) for block in blocks)


def query_inputs(seed: int, count: int, n_lo: int, n_hi: int) -> list[tuple[int, ...]]:
    """`count` seeded random partitions in shuffled order.

    Every (n, k) with n_lo <= n <= n_hi and 2 <= k <= n // 2 occurs once,
    and seeded draws from that grid fill up to `count`, so the total work
    of a pass depends little on the seed.
    """
    rng = random.Random(seed)
    grid = [(n, k) for n in range(n_lo, n_hi + 1) for k in range(2, n // 2 + 1)]
    shapes = grid + [rng.choice(grid) for _ in range(count - len(grid))]
    rng.shuffle(shapes)
    tables: dict = {}
    return [random_partition(rng, n, k, tables) for n, k in shapes]


def nk_histogram(words: list[tuple[int, ...]]) -> dict[str, int]:
    """Counts of the inputs by n in bands of 8 and k in octaves."""
    hist: dict[str, int] = {}
    for w in words:
        n, k = len(w), max(w)
        lo = n - n % 8
        k_lo = 1 << (k.bit_length() - 1)
        key = f"n={lo}-{lo + 7},k={k_lo}-{2 * k_lo - 1}"
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items()))


def percentile(values: list[float], q: float) -> float:
    """Percentile by linear interpolation between the closest ranks."""
    ranked = sorted(values)
    pos = q * (len(ranked) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ranked) - 1)
    return ranked[lo] + (ranked[hi] - ranked[lo]) * (pos - lo)
