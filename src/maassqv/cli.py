"""Command-line interface: per-topic verification experiments with reports.

Every subcommand builds a list of ExperimentReport objects, prints one
line per report, optionally serializes them, and exits 0 iff all passed.
A typed `MaassqvError` is printed as one line to stderr and exits 2.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys

from .errors import HypothesisViolated, MaassqvError, TruncationInsufficient
from .halfint import (
    QuadPoly,
    b_direct,
    b_residue,
    b_series,
    c_closed,
    c_series,
    eisenstein_residue_const,
    make_level,
    reduction_check,
    reduction_check_second_form,
    _contour_t,
    _max_nonzero_mprime,
)
from .hecke import make_source
from .ideals import kronecker_table, lambda_k_table
from .lattice import n_beta, offdiag_frame
from .lfun import dirichlet_l_one
from .quadfield import QuadInt, make_field, norm
from .report import ExperimentReport, timed, write_csv, write_jsonl
from .weights import SmoothWeight
from . import experiments


def _field_and_source(args: argparse.Namespace):
    """(F, psi) for --D and --table or --seed; psi's level must be D."""
    F = make_field(args.D)
    src = make_source(table=args.table) if args.table else make_source(synthetic=args.seed, D=F.D)
    if src.level != F.D:
        raise HypothesisViolated(f"--table {args.table} has level {src.level}, not --D {F.D}")
    return F, src


def cmd_field_info(args) -> list[ExperimentReport]:
    F = make_field(args.D)
    print(f"D = {F.D} = {F.p1} * {F.p2}")
    print(f"fundamental unit: {F.unit_x} + {F.unit_y}*omega, log eps = {F.log_eps!r}")
    ref = 2.0 * F.log_eps / math.sqrt(F.D)  # class-number-one value
    tol = args.tol if args.tol is not None else 1e-6
    with timed() as el:
        L = dirichlet_l_one(F)
    return [ExperimentReport.build(
        "field_info_class_number", {"D": F.D}, L, ref, tol, el(), mode="rel",
    )]


def cmd_lambda_table(args) -> list[ExperimentReport]:
    if args.nmax < 1:
        raise TruncationInsufficient(f"--nmax {args.nmax} leaves no n to check")
    if args.kmax < 0:
        raise TruncationInsufficient(f"--kmax {args.kmax} leaves no k to check")
    F = make_field(args.D)
    with timed() as el:
        tables = {k: lambda_k_table(F, k, args.nmax) for k in range(0, args.kmax + 1, 2)}
        if args.table_out:
            import csv

            with open(args.table_out, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["k", "n", "lambda_k_n"])
                for k, tab in tables.items():
                    for n, v in enumerate(tab[1:].tolist(), start=1):
                        w.writerow([k, n, repr(v)])
        # Hecke relation spot-check: lam(m)lam(n) = sum_{d | (m,n)} chi(d) lam(mn/d^2)
        chi = kronecker_table(F.D)
        rng = random.Random(0)
        worst = 0.0
        checks = 0
        for k, tab in tables.items():
            for _ in range(40):
                m = rng.randint(1, int(math.isqrt(args.nmax)))
                n = rng.randint(1, args.nmax // m)
                rhs = sum(
                    chi[d % F.D] * tab[m * n // (d * d)]
                    for d in range(1, math.gcd(m, n) + 1)
                    if m % d == 0 and n % d == 0
                )
                worst = max(worst, abs(tab[m] * tab[n] - rhs))
                checks += 1
    tol = args.tol if args.tol is not None else 1e-9
    return [ExperimentReport.build(
        "lambda_table_hecke_relation",
        {"D": F.D, "kmax": args.kmax, "nmax": args.nmax, "checks": checks},
        worst, 0.0, tol, el(), mode="abs",
    )]


def cmd_verify_lattice(args) -> list[ExperimentReport]:
    bound = args.norm_bound
    if bound < 1:
        raise TruncationInsufficient(f"--norm-bound {bound} admits no element")
    F = make_field(args.D)
    box = int(2.2 * math.sqrt(bound)) + 2
    with timed() as el:
        failures = 0
        checked = 0
        for m in range(-box, box + 1):
            for n in range(-box, box + 1):
                beta = QuadInt(m, n)
                if beta.is_zero() or abs(norm(F, beta)) > bound:
                    continue
                nb = n_beta(F, beta)[0]
                want = {1: nb, 2: -F.D * nb, 3: F.p1 * nb, 4: -F.p2 * nb}
                for j in (1, 2, 3, 4):
                    fr = offdiag_frame(F, beta, j)
                    if norm(F, QuadInt(fr.b, fr.a)) != want[j]:
                        failures += 1
                    checked += 1
    return [ExperimentReport.build(
        "lattice_frame_identities",
        {"D": F.D, "norm_bound": bound, "checked": checked},
        float(failures), 0.0, 0.0, el(), mode="abs",
    )]


def cmd_verify_gauss(args) -> list[ExperimentReport]:
    if args.nmax < 1:
        raise TruncationInsufficient(f"--nmax {args.nmax} leaves no m to check")
    L = make_level(args.M)
    tol = args.tol if args.tol is not None else 1e-10
    with timed() as el:
        worst = 0.0
        for m in range(1, args.nmax + 1):
            n = m * m
            brute = c_series(n, 0.75, L, bound=4 * _max_nonzero_mprime(n, L))
            worst = max(worst, abs(brute - c_closed(m, L, 0.75)))
    return [ExperimentReport.build(
        "gauss_c_closed_vs_series", {"M": args.M, "nmax": args.nmax},
        worst, 0.0, tol, el(), mode="abs",
    )]


def cmd_verify_appendixb(args) -> list[ExperimentReport]:
    L = make_level(args.M)
    tol = args.tol if args.tol is not None else 1e-4
    out = []
    with timed() as el:
        worst = 0.0
        for n in (0, 2, 3, 5, 12):
            dev = abs(b_series(n, 1.5, L, trunc=40000) - b_direct(n, 1.5, L, qmax=2001))
            worst = max(worst, dev)
    out.append(ExperimentReport.build(
        "residue_series_vs_direct", {"M": args.M}, worst, 0.0, tol, el(), mode="abs",
    ))
    with timed() as el:
        got = eisenstein_residue_const(L)
        # residue of b(0, s) times the constant term c(0, 3/4), whose
        # prime-power factor comes from the geometric series of c_closed
        want = 2 * math.pi * b_residue(0, L) * c_closed(0, L, 0.75).real
    out.append(ExperimentReport.build(
        "eisenstein_residue_closed_form", {"M": args.M}, got, want, 1e-12, el(),
        mode="rel",
    ))
    return out


def cmd_poisson(args) -> list[ExperimentReport]:
    F = make_field(args.D)
    try:
        m, n = (int(s) for s in args.beta.split(","))
    except ValueError:
        raise HypothesisViolated(f"--beta {args.beta!r} is not two integers m,n") from None
    tol = args.tol if args.tol is not None else 1e-6
    return [experiments.poisson_check(F, QuadInt(m, n), args.K, tol=tol)]


def cmd_first_moment(args) -> list[ExperimentReport]:
    F, src = _field_and_source(args)
    kw = {} if args.tol is None else {"tol": args.tol}
    return [experiments.first_moment(F, src, args.K, n_twist=args.twist, **kw)]


def cmd_variance(args) -> list[ExperimentReport]:
    F, src = _field_and_source(args)
    kw = {} if args.tol is None else {"tol": args.tol}
    return [
        experiments.variance_table(F, src, args.K, **kw),
        experiments.expected_value(F, src, args.K),
    ]


def cmd_dirichlet_poly(args) -> list[ExperimentReport]:
    F = make_field(args.D)
    kw = {} if args.tol is None else {"tol": args.tol}
    return [experiments.dirichlet_poly_check(F, args.k, args.x, **kw)]


def cmd_nonsplit(args) -> list[ExperimentReport]:
    if not math.isfinite(args.Ymax):
        raise HypothesisViolated(f"--Ymax {args.Ymax:g}: the Y ladder would not end")
    if args.Ymax < 1.0e4:
        raise TruncationInsufficient(f"--Ymax {args.Ymax:g} is below the first Y = 1e4")
    Q = QuadPoly(args.a, args.b, args.c)
    _contour_t(Q, second_form=True)  # the last report's precondition, before any sum
    _, src = _field_and_source(args)
    W = SmoothWeight()
    ladder = (1.0e4 * 4.0**j for j in itertools.count())
    Ys = list(itertools.takewhile(lambda y: y <= args.Ymax, ladder))
    out = [experiments.nonsplit_decay_scan(src, Q, Ys=Ys, W=W)]
    out.append(reduction_check(src, Q, Ys[-1], W))
    out.append(reduction_check_second_form(src, Q, Ys[-1], W))
    return out


_COMMANDS = {
    "field-info": cmd_field_info,
    "lambda-table": cmd_lambda_table,
    "verify-lattice": cmd_verify_lattice,
    "verify-gauss": cmd_verify_gauss,
    "verify-appendixB": cmd_verify_appendixb,
    "poisson": cmd_poisson,
    "first-moment": cmd_first_moment,
    "variance": cmd_variance,
    "dirichlet-poly": cmd_dirichlet_poly,
    "nonsplit": cmd_nonsplit,
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="maassqv")
    p.add_argument("--out", help="write reports to this path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--tol", type=float, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        sp = sub.add_parser(name)
        for flag, (typ, req, default) in flags.items():
            sp.add_argument(f"--{flag}", type=typ, required=req, default=default)
        return sp

    add("field-info", D=(int, True, None))
    # its own dest: the global --out (the report file) is args.out
    add("lambda-table", D=(int, True, None), kmax=(int, False, 10),
        nmax=(int, False, 200)).add_argument("--out", dest="table_out")
    add("verify-lattice", D=(int, True, None), **{"norm-bound": (int, False, 2000)})
    add("verify-gauss", M=(int, True, None), nmax=(int, False, 12))
    add("verify-appendixB", M=(int, True, None))
    add("poisson", D=(int, True, None), K=(float, False, 100.0),
        beta=(str, False, "1,1"))
    add("first-moment", D=(int, True, None), K=(float, False, 100.0),
        twist=(int, False, 1), table=(str, False, None), seed=(int, False, 42))
    add("variance", D=(int, True, None), K=(float, False, 100.0),
        table=(str, False, None), seed=(int, False, 42))
    add("dirichlet-poly", D=(int, True, None), k=(int, False, 20),
        x=(int, False, 10000))
    add("nonsplit", D=(int, False, 21), a=(int, False, 1), b=(int, False, 0),
        c=(int, False, -21), Ymax=(float, False, 1.0e6),
        table=(str, False, None), seed=(int, False, 42))
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        reports = _COMMANDS[args.command](args)
    except MaassqvError as exc:
        print(f"maassqv: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: computed={r.computed:.6g} "
              f"reference={r.reference:.6g} tol={r.tolerance:g} ({r.mode}) "
              f"[{r.runtime_seconds:.2f}s]")
    if args.out:
        if args.format == "csv":
            write_csv(reports, args.out)
        else:
            write_jsonl(reports, args.out)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
