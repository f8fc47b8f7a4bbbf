"""
Command-line front end.

Subcommands: enumerate, stats, genfun, qstirling, phi, phi-i, motzkin,
verify.  Flags ``--json`` and ``--threads`` are accepted by every
subcommand (after the subcommand name); ``--threads`` must be at least 1
and only spreads verification suites over processes.  Exit codes: 0 on
success or a verified identity, 1 on a domain error or a failed
verification, 2 on usage errors.

Text outputs round-trip: enumerate and the bijection commands emit the
partition grammar, motzkin emits the compact path text, genfun and
qstirling emit the polynomial text format.  Wall-clock timing goes to
stderr (text mode) or a dedicated JSON field, so stdout is independent
of ``--threads``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bijections, core, motzkin, qseries, stats, verify
from .qseries import QPolynomial


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    n, k = args.n, args.k
    if n < 0:
        print("error: n must be non-negative", file=sys.stderr)
        return 2
    if k is not None and not 0 <= k <= n:
        print(f"error: k must satisfy 0 <= k <= n, got n={n} k={k}", file=sys.stderr)
        return 2
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
    return p.canonical() if p.is_canonical() else p


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
        print("error: no statistics requested", file=sys.stderr)
        return 2
    values = {name: stats.resolve_statistic(name, l=args.l, b=args.b)(p) for name in names}
    if args.json:
        _emit({"partition": p.text(), "values": values})
    else:
        print(",".join(names))
        print(",".join(str(values[name]) for name in names))
    return 0


# Largest n that genfun accepts: the mak DP's state grows about as n^4
# integers, and every other statistic walks all Bell(n) partitions.
GENFUN_N_MAX = 64


def _first_difference(got: QPolynomial, want: QPolynomial) -> tuple[int, int, int]:
    for e in range(max(got.degree, want.degree) + 1):
        if got.coefficient(e) != want.coefficient(e):
            return e, got.coefficient(e), want.coefficient(e)
    raise AssertionError("polynomials compare unequal but share all coefficients")


def cmd_genfun(args) -> int:
    n = args.n
    if n < 0:
        print("error: n must be non-negative", file=sys.stderr)
        return 2
    if n > GENFUN_N_MAX:
        print(f"error: n must be at most {GENFUN_N_MAX}", file=sys.stderr)
        return 2
    if args.k == "all" or args.k is None:
        ks = list(range(0, 1) if n == 0 else range(1, n + 1))
        all_mode = True
    else:
        try:
            ks = [int(args.k)]
        except ValueError:
            print(f"error: -k takes an integer or 'all', got {args.k!r}", file=sys.stderr)
            return 2
        all_mode = False

    fast = args.stat == "mak" and not args.ordered
    hists = verify.mak_histograms(n) if fast else None

    def genfun_for(k: int) -> QPolynomial:
        if hists is not None:
            return QPolynomial(hists.get(k, []))
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

    failed = False
    results = []
    lines = []
    for k in ks:
        poly = genfun_for(k)
        target = target_for(k)
        prefix = f"k={k}: " if all_mode else ""
        lines.append(prefix + poly.text())
        entry = {"k": k, "polynomial": poly.to_json_dict()}
        if target is not None:
            if poly == target:
                entry["compare"] = {"verdict": "EQUAL", "witness": None}
                lines.append(prefix + "EQUAL")
            else:
                failed = True
                e, got, want = _first_difference(poly, target)
                entry["compare"] = {
                    "verdict": "DIFFER",
                    "witness": {"exponent": e, "got": got, "expected": want},
                }
                lines.append(prefix + f"DIFFER at q^{e}: got {got}, expected {want}")
        results.append(entry)
    if args.json:
        payload = {"n": n, "statistic": args.stat, "ordered": bool(args.ordered)}
        if all_mode:
            payload["results"] = results
        else:
            payload.update(results[0])
        _emit(payload)
    else:
        print("\n".join(lines))
    return 1 if failed else 0


def cmd_qstirling(args) -> int:
    n = args.n
    if n < 0:
        print("error: n must be non-negative", file=sys.stderr)
        return 2
    if args.k == "all" or args.k is None:
        ks = list(range(0, n + 1))
        all_mode = True
    else:
        try:
            ks = [int(args.k)]
        except ValueError:
            print(f"error: -k takes an integer or 'all', got {args.k!r}", file=sys.stderr)
            return 2
        all_mode = False
    make = qseries.shifted_stirling if args.shifted else qseries.q_stirling
    results = []
    lines = []
    for k in ks:
        poly = make(n, k)
        prefix = f"k={k}: " if all_mode else ""
        lines.append(prefix + poly.text())
        results.append({"k": k, "polynomial": poly.to_json_dict()})
    if args.json:
        payload = {"n": n, "shifted": bool(args.shifted)}
        if all_mode:
            payload["results"] = results
        else:
            payload.update(results[0])
        _emit(payload)
    else:
        print("\n".join(lines))
    return 0


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
        print("error: give a partition or --decode, not both", file=sys.stderr)
        return 2
    if args.decode is not None:
        if args.ascii:
            print("error: --ascii applies when encoding a partition", file=sys.stderr)
            return 2
        path = motzkin.LabeledMotzkinPath.parse(args.decode)
        p = motzkin.decode(path)
        if args.json:
            _emit({"partition": p.text()})
        else:
            print(p.text())
        return 0
    if args.partition is None:
        print("error: give a partition to encode or --decode with a path", file=sys.stderr)
        return 2
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
    if args.n_max is not None and args.n_max < 0:
        print("error: --n-max must be non-negative", file=sys.stderr)
        return 2
    names = list(verify.SUITE_NAMES) if args.suite == "all" else [args.suite]
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
    p.set_defaults(func=cmd_enumerate)

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
    p.set_defaults(func=cmd_stats)

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
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("qstirling", parents=[common], help="q-Stirling polynomials")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", default="all", help="block count or 'all' (default: all)")
    p.add_argument("--shifted", action="store_true", help="divide by the minimal power of q")
    p.set_defaults(func=cmd_qstirling)

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
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser(
        "phi-i",
        parents=[common],
        help="apply the block-exchange map at index i",
    )
    p.add_argument("partition")
    p.add_argument("-i", "--i", type=int, required=True, dest="i", help="block index, 1 <= i < k")
    p.set_defaults(func=cmd_phi_i)

    p = sub.add_parser(
        "motzkin",
        parents=[common],
        help="encode a partition as a labeled Motzkin path, or decode one",
    )
    p.add_argument("partition", nargs="?", default=None)
    p.add_argument("--decode", default=None, metavar="PATH", help="path text or JSON to decode")
    p.add_argument("--ascii", action="store_true", help="ASCII picture instead of compact text")
    p.set_defaults(func=cmd_motzkin)

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
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, bijections.ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
