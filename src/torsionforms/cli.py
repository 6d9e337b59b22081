"""Command-line front end: detect, generate, scan, verify-identities, bound.

Exit codes: 0 success/agreement, 1 usage or arithmetic error, 2 reserved for
a witness that disagrees with the plain integral-system validation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import chain, islice

from .bounds import mazur_count_bound, prime_factor_count
from .curves import Curve
from .errors import DegenerateParameterError, FamilyDataError, SideConditionError
from .exact import decimal_to_int, int_to_decimal, rational_to_decimal
from .families import FAMILIES, FAMILY_ORDERS
from .records import CurveRecord
from .tate import tate_AB
from .thue import Witness, detect, generate_curve, param_cross_check
from .torsion import has_point_of_order

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DISCREPANCY = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; reroute to status 1."""

    def error(self, message):
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # a second "--" in place of a positional hands it an empty list,
        # which no type= conversion sees
        for name, value in vars(parsed).items():
            if value == []:
                self.error(f"argument {name}: expected one argument, got '--'")
        return parsed


def _branches(n: int, selector: str) -> tuple[Fraction, ...]:
    fam = FAMILIES[n]
    if selector == "all":
        return fam.kset
    k = Fraction(selector)
    if k not in fam.kset:
        raise UsageError(f"k = {selector} is not a branch of the n = {n} family")
    return (k,)


def _build_parser() -> _Parser:
    parser = _Parser(prog="torsionforms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="find an order-n witness for an integral curve")
    p.add_argument("A", type=decimal_to_int)
    p.add_argument("B", type=decimal_to_int)
    p.add_argument("n", type=int, choices=FAMILY_ORDERS)

    p = sub.add_parser("generate", help="emit the validated curve record of one witness")
    p.add_argument("n", type=int, choices=FAMILY_ORDERS)
    p.add_argument("p", type=decimal_to_int)
    p.add_argument("q", type=decimal_to_int)
    p.add_argument("--k", default="1", help="branch value: 1, 1/2 or 1/3 (default 1)")

    p = sub.add_parser("scan", help="emit JSONL records over a (p, q, k) grid")
    p.add_argument("n", type=int, choices=FAMILY_ORDERS)
    p.add_argument("--search-bound", type=int, default=50)
    p.add_argument("--pmin", type=decimal_to_int, default=None)
    p.add_argument("--pmax", type=decimal_to_int, default=None)
    p.add_argument("--qmin", type=decimal_to_int, default=None)
    p.add_argument("--qmax", type=decimal_to_int, default=None)
    p.add_argument("--k", choices=["all", "1", "1/2", "1/3"], default="all")
    p.add_argument("--out", default=None, help="output path (default standard output)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", action="store_true", help="flat summary instead of JSONL")

    p = sub.add_parser("verify-identities", help="run the per-order identity suites")
    p.add_argument("n", type=int)

    p = sub.add_parser("bound", help="count bound M_n(t) from a discriminant")
    p.add_argument("n", type=int)
    p.add_argument("delta", type=decimal_to_int)
    p.add_argument("--trial-limit", type=int, default=10**6,
                   help="trial-division limit for factorizations (default 1000000)")

    return parser


# ---------------------------------------------------------------------------
# subcommands

def cmd_detect(args) -> int:
    curve = Curve(args.A, args.B)
    trace = detect(curve, args.n)
    oracle = has_point_of_order(curve, args.n)
    report = {
        "A": int_to_decimal(args.A),
        "B": int_to_decimal(args.B),
        "n": str(args.n),
        "present": trace is not None,
        "oracle_present": oracle,
        "agree": (trace is not None) == oracle,
    }
    if trace is None:
        report["message"] = f"no point of order {args.n}"
    else:
        report["message"] = "witness found"
        report["alpha"] = rational_to_decimal(trace.alpha)
        report["u"] = rational_to_decimal(trace.u)
        report["u2"] = int_to_decimal(trace.u2)
        report["scale"] = int_to_decimal(trace.scale)
        report["discrepancy"] = trace.discrepancy
        w = trace.witness
        report["witness"] = {"p": int_to_decimal(w.p), "q": int_to_decimal(w.q), "k": str(w.k)}
    print(json.dumps(report, sort_keys=True))
    if not report["agree"]:
        print("error: witness search and torsion oracle disagree", file=sys.stderr)
        return EXIT_ERROR
    if trace is not None and trace.discrepancy is not None:
        return EXIT_DISCREPANCY
    return EXIT_OK


def cmd_generate(args) -> int:
    w = Witness(args.n, args.p, args.q, args.k)
    record = generate_curve(w)
    print(record.to_json_line())
    return EXIT_OK


def _scan_cell(cell) -> tuple[str, str]:
    n, p, q, k_str, csv = cell
    try:
        w = Witness(n, p, q, Fraction(k_str))
    except SideConditionError:
        return "skip_side", ""
    try:
        record = generate_curve(w)
    except DegenerateParameterError:
        return "skip_degenerate", ""
    return "record", record.to_csv_row() if csv else record.to_json_line()


def cmd_scan(args) -> int:
    if args.search_bound < 1 or args.workers < 1:
        raise UsageError("bounds and worker counts must be positive")
    bound = args.search_bound
    branches = _branches(args.n, args.k)
    ps = range(-bound if args.pmin is None else args.pmin,
               (bound if args.pmax is None else args.pmax) + 1)
    qs = range(-bound if args.qmin is None else args.qmin,
               (bound if args.qmax is None else args.qmax) + 1)
    # the grid is walked lazily: it can be far larger than memory
    cells = ((args.n, p, q, str(k), args.csv) for p in ps for q in qs for k in branches)
    out = open(args.out, "w") if args.out else sys.stdout
    stats = {"record": 0, "skip_side": 0, "skip_degenerate": 0}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(args.workers, cpus or 1)  # more processes would only wait for a CPU
    try:
        if workers > 1:
            import multiprocessing

            # Pool.imap drains its whole input at once, so it gets the cells
            # one bounded batch at a time
            size = 512 * workers
            batches = iter(lambda: list(islice(cells, size)), [])
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                results = chain.from_iterable(
                    pool.imap(_scan_cell, batch, chunksize=8) for batch in batches
                )
                _write_scan(results, out, args.csv, stats)
        else:
            _write_scan(map(_scan_cell, cells), out, args.csv, stats)
    finally:
        if args.out:
            out.close()
    print(
        f"scanned={sum(stats.values())} emitted={stats['record']} "
        f"skipped_side={stats['skip_side']} skipped_degenerate={stats['skip_degenerate']}",
        file=sys.stderr,
    )
    return EXIT_OK


def _write_scan(results, out, csv: bool, stats: dict) -> None:
    if csv:
        out.write(CurveRecord.CSV_HEADER + "\n")
    for kind, line in results:
        stats[kind] += 1
        if kind == "record":
            out.write(line + "\n")


def cmd_verify_identities(args) -> int:
    if args.n not in FAMILY_ORDERS:
        raise UsageError(f"identity suites exist for n in {list(FAMILY_ORDERS)}")
    n = args.n
    fam = FAMILIES[n]
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    def pipeline(p: int, q: int) -> tuple[Fraction, Fraction]:
        A, B = tate_AB(n, Fraction(fam.sigma * p, q))
        scale = fam.pipeline_scale(p, q)
        return scale**4 * A, scale**6 * B

    # tate_bc's b, c are polynomials in alpha (c over alpha for n = 8), so both
    # sides below are polynomials in x, or forms in (p, q), of degree <= deg V:
    # agreeing at deg V + 1 points x, or ratios p/q, they are equal.
    xs = range(1, fam.V.degree + 2)
    check(
        f"tate-pipeline coefficients n={n} (pipeline == transcribed tables)",
        all((fam.tate_A_num(x), fam.tate_B_num(x)) == pipeline(fam.sigma * x, 1) for x in xs),
    )
    check(
        f"binary-form homogenization n={n} (sigma = {fam.sigma:+d})",
        all((fam.F(p, q), fam.G(p, q)) == pipeline(p, q)
            for p, q in ((fam.sigma * x, x + 1) for x in xs)),
    )
    degs = (
        fam.U.degree,
        fam.V.degree,
        fam.point_x[0].degree,
        fam.point_y[0].degree,
    )
    check(f"degree table n={n} {degs}", degs == fam.degrees)
    try:
        for u, alpha in [(1, 2), (2, 3), (Fraction(1, 2), Fraction(3, 2)),
                         (3, Fraction(-2, 5)), (Fraction(5, 7), -3)]:
            param_cross_check(n, u, alpha)
        check(f"elimination cross-check n={n}", True)
    except FamilyDataError as exc:  # hard identity failure
        print(f"      {exc}", file=sys.stderr)
        check(f"elimination cross-check n={n}", False)
    print(f"sigma_{n} = {fam.sigma:+d}")
    return EXIT_OK if failures == 0 else EXIT_ERROR


def cmd_bound(args) -> int:
    t = prime_factor_count(args.delta, args.trial_limit)
    bound = mazur_count_bound(args.n, t)
    print(f"t = {t}")
    # the n = 7 bound has ~16k digits, past the default int-to-str limit
    print(f"M_{args.n}({t}) = {int_to_decimal(bound)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "detect": cmd_detect,
            "generate": cmd_generate,
            "scan": cmd_scan,
            "verify-identities": cmd_verify_identities,
            "bound": cmd_bound,
        }[args.command]
        status = handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout (``scan | head``): exit 1, and send the
        # interpreter's own flush at exit to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    # every typed error of errors.py but FamilyDataError (a data bug) is a
    # ValueError; OSError covers an --out path that cannot be opened
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
