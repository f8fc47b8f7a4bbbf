"""
Command-line front end.

Subcommands: enumerate, stats, genfun, qstirling, phi, phi-i, motzkin,
verify.  Flags ``--json`` and ``--threads`` are accepted by every
subcommand (after the subcommand name); ``--threads`` must be at least 1
and only spreads verification suites over processes.  Exit codes: 0 on
success or a verified identity, 1 on a domain error or a failed
verification, 2 on usage errors.

Partition and path outputs round-trip: enumerate and the bijection
commands emit the partition grammar that every partition argument
accepts, and motzkin emits the compact path text that ``--decode``
accepts.  genfun and qstirling emit the polynomial text format, which
nothing reads back.  Wall-clock timing goes to stderr (text mode) or a
dedicated JSON field, so stdout is independent of ``--threads``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections, core, motzkin, qseries, stats, verify
from .qseries import QPolynomial


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


class _Refused(Exception):
    """A request refused before any work: exit 2 with one error line."""


def _within_budget(size: int) -> None:
    """Refuse an enumeration of ``size`` partitions above the budget."""
    if size > verify.ENUMERATION_BUDGET:
        raise _Refused(f"would enumerate {size} partitions, at most {verify.ENUMERATION_BUDGET}")


# Largest n that enumerate, genfun and qstirling accept: `genfun -n 64`
# takes 1.2-1.9 s and a 50.5 MB process peak (2-core Xeon, Python 3.11),
# q_stirling(64, k) for all k takes 0.25-0.4 s, and counting a family (for
# the budget) slows as n grows: all partitions of [1000] take minutes to
# count.  Enumerations are held to verify.ENUMERATION_BUDGET as well.
N_MAX = 64
# Largest verify --n-max: every suite is over the budget from 13 on, and
# counting a suite at 200 takes minutes.
VERIFY_N_MAX = 20


def _check_range(name: str, value: int, top: int | None = None) -> None:
    """Refuse a value below 0 or above ``top``."""
    if value < 0:
        raise _Refused(f"{name} must be non-negative")
    if top is not None and value > top:
        raise _Refused(f"{name} must be at most {top}")


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    n, k = args.n, args.k
    _check_range("n", n, N_MAX)
    if k is not None and not 0 <= k <= n:
        raise _Refused(f"k must satisfy 0 <= k <= n, got n={n} k={k}")
    _within_budget(verify.family_size(n, k, args.ordered))
    family = core.enumerate_ordered(n, k) if args.ordered else core.enumerate_partitions(n, k)
    if args.json:
        texts = [p.text() for p in family]
        _emit(
            {
                "n": n,
                "k": k,
                "ordered": bool(args.ordered),
                "count": len(texts),
                "partitions": texts,
            }
        )
    else:
        for p in family:
            print(p.text())
    return 0


def _parse_cli_partition(text: str) -> core.Partition:
    """Ordered if the blocks are out of canonical order, canonical otherwise."""
    p = core.parse_ordered(text)
    canonical = p.canonical()
    return canonical if canonical.word == p.word else p


def cmd_stats(args) -> int:
    p = _parse_cli_partition(args.partition)
    if args.per_element:
        order = [x for block in p.blocks for x in block]
        rows = {
            kind.name.lower(): [stats.coord_stat(p, kind, x) for x in order]
            for kind in stats.CoordKind
        }
        if args.json:
            _emit({"partition": p.text(), "elements": order, "rows": rows})
        else:
            print("i," + ",".join(str(x) for x in order))
            for name, values in rows.items():
                print(name + "," + ",".join(str(v) for v in values))
        return 0
    names = [s.strip() for s in args.stats.split(",") if s.strip()]
    if not names:
        raise _Refused("no statistics requested")
    values = {name: stats.resolve_statistic(name, l=args.l, b=args.b)(p) for name in names}
    if args.json:
        _emit({"partition": p.text(), "values": values})
    else:
        print(",".join(names))
        print(",".join(str(values[name]) for name in names))
    return 0


def _first_difference(got: QPolynomial, want: QPolynomial) -> tuple[int, int, int]:
    for e in range(max(got.degree, want.degree) + 1):
        if got.coefficient(e) != want.coefficient(e):
            return e, got.coefficient(e), want.coefficient(e)
    raise AssertionError("polynomials compare unequal but share all coefficients")


def _per_k(args, all_ks: range, head: dict, rows) -> int:
    """Report one row per block count named by ``-k``: every k in
    ``all_ks`` for 'all' (text lines prefixed ``k=K: ``, JSON rows under
    "results"), or a single integer (bare lines, JSON row merged into
    ``head``).  ``rows(ks)`` yields (JSON entry, text lines, ok) per k;
    the entry is read only with ``--json``, so text mode may leave it empty.
    Refuses a ``-k`` that is not 'all' or a non-negative integer.  A k
    above n is left to ``rows``, and every route gives the zero row.  1
    if any row is not ok, 0 otherwise."""
    if args.k == "all":
        ks, prefix = list(all_ks), "k={}: "
    else:
        try:
            ks, prefix = [int(args.k)], ""
        except ValueError:
            raise _Refused(f"-k takes an integer or 'all', got {args.k!r}") from None
        _check_range("-k", ks[0])
    results, lines, ok = [], [], True
    for k, (entry, texts, row_ok) in zip(ks, rows(ks)):
        results.append(entry)
        lines += [prefix.format(k) + text for text in texts]
        ok = ok and row_ok
    if args.json:
        _emit({**head, "results": results} if args.k == "all" else {**head, **results[0]})
    else:
        print("\n".join(lines))
    return 0 if ok else 1


def cmd_genfun(args) -> int:
    n = args.n
    _check_range("n", n, N_MAX)

    def genfun_for(k: int, hists: dict[int, list[int]] | None) -> QPolynomial:
        if hists is not None:
            return QPolynomial._trusted(hists.get(k, ()))
        fn = stats.resolve_statistic(args.stat, l=args.l)
        family = (
            core.enumerate_ordered(n, k) if args.ordered else core.enumerate_partitions(n, k)
        )
        return qseries.generating_function(family, fn)

    def target_for(k: int) -> QPolynomial | None:
        if args.compare == "qstirling":
            return qseries.q_stirling(n, k)
        if args.compare == "qstirling-times-qfact":
            return qseries.q_factorial(k) * qseries.q_stirling(n, k)
        return None

    def rows(ks: list[int]):
        # _per_k reads -k before the first row, so a bad -k never runs the kernel
        fast = args.stat == "mak" and not args.ordered
        if not fast:
            _within_budget(sum(verify.family_size(n, k, args.ordered) for k in ks))
        hists = verify.mak_histograms(n) if fast else None
        for k in ks:
            poly = genfun_for(k, hists)
            target = target_for(k)
            entry = {"k": k, "polynomial": poly.to_json_dict()} if args.json else {}
            lines = [poly.text()]
            if target is not None:
                if poly == target:
                    entry["compare"] = {"verdict": "EQUAL", "witness": None}
                    lines.append("EQUAL")
                else:
                    e, got, want = _first_difference(poly, target)
                    entry["compare"] = {
                        "verdict": "DIFFER",
                        "witness": {"exponent": e, "got": got, "expected": want},
                    }
                    lines.append(f"DIFFER at q^{e}: got {got}, expected {want}")
            yield entry, lines, target is None or poly == target

    head = {"n": n, "statistic": args.stat, "ordered": bool(args.ordered)}
    return _per_k(args, range(0, 1) if n == 0 else range(1, n + 1), head, rows)


def cmd_qstirling(args) -> int:
    n = args.n
    _check_range("n", n, N_MAX)
    make = qseries.shifted_stirling if args.shifted else qseries.q_stirling

    def rows(ks: list[int]):
        for k in ks:
            poly = make(n, k)
            entry = {"k": k, "polynomial": poly.to_json_dict()} if args.json else {}
            yield entry, [poly.text()], True

    return _per_k(args, range(n + 1), {"n": n, "shifted": bool(args.shifted)}, rows)


def cmd_phi(args) -> int:
    p = core.parse_partition(args.partition)
    cert = bijections.phi_certificate(p)
    if args.certificate:
        _emit(cert.to_json_dict())
    elif args.json:
        _emit({"source": p.text(), "image": cert.image.text()})
    else:
        print(cert.image.text())
    return 0


def cmd_phi_i(args) -> int:
    p = core.parse_partition(args.partition)
    image = bijections.phi_i(p, args.i)
    if args.json:
        _emit({"source": p.text(), "i": args.i, "image": image.text()})
    else:
        print(image.text())
    return 0


def cmd_motzkin(args) -> int:
    if args.decode is not None and args.partition is not None:
        raise _Refused("give a partition or --decode, not both")
    if args.decode is not None:
        if args.ascii:
            raise _Refused("--ascii applies when encoding a partition")
        path = motzkin.LabeledMotzkinPath.parse(args.decode)
        p = motzkin.decode(path)
        if args.json:
            _emit({"partition": p.text()})
        else:
            print(p.text())
        return 0
    if args.partition is None:
        raise _Refused("give a partition to encode or --decode with a path")
    p = core.parse_partition(args.partition)
    path = motzkin.encode(p)
    if args.json:
        _emit(path.to_json_dict())
    elif args.ascii:
        print(motzkin.ascii_art(path))
    else:
        print(path.text())
    return 0


def cmd_verify(args) -> int:
    if args.n_max is not None:
        _check_range("--n-max", args.n_max, VERIFY_N_MAX)
    _check_range("--max-witnesses", args.max_witnesses)
    names = list(verify.SUITE_NAMES) if args.suite == "all" else [args.suite]
    _within_budget(sum(verify.suite_size(name, args.n_max) for name in names))
    reports = [
        verify.run_suite(
            name, n_max=args.n_max, threads=args.threads, max_witnesses=args.max_witnesses
        )
        for name in names
    ]
    for report in reports:
        print(f"[{report.suite}] wall time: {report.wall_time_s:.3f}s", file=sys.stderr)
    if args.json:
        if args.suite == "all":
            _emit([r.to_json_dict() for r in reports])
        else:
            _emit(reports[0].to_json_dict())
    else:
        print("\n\n".join(r.render_text() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for verification suites (default 1); other "
        "subcommands accept it and run in one process",
    )

    parser = argparse.ArgumentParser(
        prog="setpart",
        description="Set-partition statistics, bijections, labeled Motzkin paths, "
        "and exhaustive identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "enumerate",
        parents=[common],
        help="list the partitions of {1..n}, optionally with a fixed block count",
    )
    p.add_argument("-n", type=int, required=True, help="ground-set size")
    p.add_argument("-k", type=int, default=None, help="block count (default: all)")
    p.add_argument("--ordered", action="store_true", help="ordered partitions")

    p = sub.add_parser(
        "stats",
        parents=[common],
        help="evaluate statistics on one partition (CSV or JSON)",
    )
    p.add_argument("partition", help="partition text, e.g. 1,4,8/2,9/3,7/5,6")
    p.add_argument(
        "-s",
        "--stats",
        default="mak,makp,lmak,lmakp",
        help="comma-separated statistic names (default: mak,makp,lmak,lmakp)",
    )
    p.add_argument("-l", type=int, default=None, help="block index for mak_l / stat_i")
    p.add_argument("-b", type=int, default=None, help="element for rinv / nrinv / linv")
    p.add_argument(
        "--per-element",
        action="store_true",
        help="emit the eight per-element coordinate rows in block-reading order",
    )

    p = sub.add_parser(
        "genfun",
        parents=[common],
        help="distribution polynomial of a statistic over a partition family",
    )
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", default="all", help="block count or 'all' (default: all)")
    p.add_argument("-s", "--stat", default="mak", help="statistic name, sums allowed (a+b)")
    p.add_argument("-l", type=int, default=None, help="block index for mak_l")
    p.add_argument("--ordered", action="store_true", help="sum over ordered partitions")
    p.add_argument(
        "--compare",
        choices=["none", "qstirling", "qstirling-times-qfact"],
        default="none",
        help="verdict against the q-Stirling target",
    )

    p = sub.add_parser("qstirling", parents=[common], help="q-Stirling polynomials")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", default="all", help="block count or 'all' (default: all)")
    p.add_argument("--shifted", action="store_true", help="divide by the minimal power of q")

    p = sub.add_parser(
        "phi",
        parents=[common],
        help="apply the statistic-exchanging involution",
    )
    p.add_argument("partition")
    p.add_argument(
        "--certificate",
        action="store_true",
        help="emit the full certificate (both label matrices) as JSON",
    )

    p = sub.add_parser(
        "phi-i",
        parents=[common],
        help="apply the block-exchange map at index i",
    )
    p.add_argument("partition")
    p.add_argument("-i", "--i", type=int, required=True, dest="i", help="block index, 1 <= i < k")

    p = sub.add_parser(
        "motzkin",
        parents=[common],
        help="encode a partition as a labeled Motzkin path, or decode one",
    )
    p.add_argument("partition", nargs="?", default=None)
    p.add_argument("--decode", default=None, metavar="PATH", help="path text or JSON to decode")
    p.add_argument("--ascii", action="store_true", help="ASCII picture instead of compact text")

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="run an exhaustive verification suite",
    )
    p.add_argument("suite", choices=list(verify.SUITE_NAMES) + ["all"])
    p.add_argument("--n-max", type=int, default=None, help="override the suite's default range")
    p.add_argument(
        "--max-witnesses", type=int, default=10, help="cap on reported failures (default 10)"
    )

    return parser


# Built by main on its first call and reused by every later call in the
# process: building it costs about as much as a small genfun command.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # Look the subcommand up when it runs, so that a rebound cmd_* is the
    # one that runs, whenever the parser was built.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if args.threads < 1:
            raise _Refused("--threads must be at least 1")
        return command(args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, bijections.ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
