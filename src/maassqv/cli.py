"""Command-line interface: per-topic verification experiments with reports.

Every subcommand builds a list of ExperimentReport objects, prints one
line per report, optionally serializes them, and exits 0 iff all passed.
A typed `MaassqvError` is printed as one line to stderr and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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
    _contour_t,
    _level_divisors,
    _max_nonzero_mprime,
)
from .hecke import make_source
from .ideals import kronecker_table, lambda_k_table
from .lattice import n_beta, offdiag_frame
from .lfun import dirichlet_l_one
from .quadfield import QuadInt, make_field, norm
from .report import ExperimentReport, timed, write_csv, write_jsonl
from . import experiments

# desk bounds, each refused before any sum: about a minute's run on a 2-vCPU VM
_NORM_BOUND_MAX = 500_000  # verify-lattice --norm-bound: 71 s at the bound
_GAUSS_TERMS_MAX = 1 << 30  # odd d that verify-gauss sums: 70 s for 9.7e8 at M = 84

# each report's fixed tolerance; the other commands' checks own theirs
_CLASS_NUMBER_TOL = 1e-6  # field-info: relative
_HECKE_RELATION_TOL = 1e-9  # lambda-table: absolute
_GAUSS_TOL = 1e-10  # verify-gauss: absolute
_APPENDIX_B_TOL = 1e-4  # verify-appendixB, series against direct: absolute
_RESIDUE_TOL = 1e-12  # verify-appendixB, the Eisenstein residue: relative


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
    with timed() as el:
        L = dirichlet_l_one(F)
    return [ExperimentReport.build(
        "field_info_class_number", {"D": F.D}, L, ref, _CLASS_NUMBER_TOL, el(), mode="rel",
    )]


def cmd_lambda_table(args) -> list[ExperimentReport]:
    if args.nmax < 1:
        raise TruncationInsufficient(f"--nmax {args.nmax} leaves no n to check")
    if args.kmax < 0:
        raise TruncationInsufficient(f"--kmax {args.kmax} leaves no k to check")
    F = make_field(args.D)
    chi = kronecker_table(F.D)
    rng = random.Random(0)
    worst = 0.0
    checks = 0
    with timed() as el, contextlib.ExitStack() as stack:
        # one table at a time: build it, write its rows, check it, drop it,
        # so lambda_k_table's memory guard covers the whole command
        for k in range(0, args.kmax + 1, 2):
            tab = lambda_k_table(F, k, args.nmax)
            if args.table_out:
                if k == 0:  # every k has one size: the guard has passed
                    rows = csv.writer(stack.enter_context(open(args.table_out, "w", newline="")))
                    rows.writerow(["k", "n", "lambda_k_n"])
                for n, v in enumerate(tab[1:].tolist(), start=1):
                    rows.writerow([k, n, repr(v)])
            # Hecke relation spot-check: lam(m)lam(n) = sum_{d | (m,n)} chi(d) lam(mn/d^2)
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
            del tab
    return [ExperimentReport.build(
        "lambda_table_hecke_relation",
        {"D": F.D, "kmax": args.kmax, "nmax": args.nmax, "checks": checks},
        worst, 0.0, _HECKE_RELATION_TOL, el(), mode="abs",
    )]


def cmd_verify_lattice(args) -> list[ExperimentReport]:
    bound = args.norm_bound
    if bound < 1:
        raise TruncationInsufficient(f"--norm-bound {bound} admits no element")
    if bound > _NORM_BOUND_MAX:
        raise HypothesisViolated(f"desk bound --norm-bound <= {_NORM_BOUND_MAX}, got {bound}")
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
    # c_series(m^2) sums (M' + 1) // 2 odd d for each M' up to its bound:
    # the run time is the total, refused past the desk bound as it passes it
    bounds, terms = [], 0
    for m in range(1, args.nmax + 1):
        bounds.append(4 * _max_nonzero_mprime(m * m, L))
        terms += sum((mp + 1) // 2 for mp in _level_divisors(L, bounds[-1]))
        if terms > _GAUSS_TERMS_MAX:
            raise HypothesisViolated(
                f"desk bound of {_GAUSS_TERMS_MAX} summed terms passed at m = {m} "
                f"of --nmax {args.nmax}"
            )
    with timed() as el:
        worst = 0.0
        for m, bound in enumerate(bounds, start=1):
            brute = c_series(m * m, 0.75, L, bound=bound)
            worst = max(worst, abs(brute - c_closed(m, L, 0.75)))
    return [ExperimentReport.build(
        "gauss_c_closed_vs_series", {"M": args.M, "nmax": args.nmax},
        worst, 0.0, _GAUSS_TOL, el(), mode="abs",
    )]


def cmd_verify_appendixb(args) -> list[ExperimentReport]:
    L = make_level(args.M)
    out = []
    with timed() as el:
        worst = 0.0
        for n in (0, 2, 3, 5, 12):
            dev = abs(b_series(n, 1.5, L, trunc=40000) - b_direct(n, 1.5, L, qmax=2001))
            worst = max(worst, dev)
    out.append(ExperimentReport.build(
        "residue_series_vs_direct", {"M": args.M}, worst, 0.0, _APPENDIX_B_TOL, el(),
        mode="abs",
    ))
    with timed() as el:
        got = eisenstein_residue_const(L)
        # residue of b(0, s) times the constant term c(0, 3/4), whose
        # prime-power factor comes from the geometric series of c_closed
        want = 2 * math.pi * b_residue(0, L) * c_closed(0, L, 0.75).real
    out.append(ExperimentReport.build(
        "eisenstein_residue_closed_form", {"M": args.M}, got, want, _RESIDUE_TOL, el(),
        mode="rel",
    ))
    return out


def cmd_poisson(args) -> list[ExperimentReport]:
    F = make_field(args.D)
    try:
        m, n = (int(s) for s in args.beta.split(","))
    except ValueError:
        raise HypothesisViolated(f"--beta {args.beta!r} is not two integers m,n") from None
    return [experiments.poisson_check(F, QuadInt(m, n), args.K)]


def cmd_first_moment(args) -> list[ExperimentReport]:
    F, src = _field_and_source(args)
    return [experiments.first_moment(F, src, args.K, n_twist=args.twist)]


def cmd_variance(args) -> list[ExperimentReport]:
    F, src = _field_and_source(args)
    return [experiments.variance_table(F, src, args.K), experiments.expected_value(F, src, args.K)]


def cmd_dirichlet_poly(args) -> list[ExperimentReport]:
    return [experiments.dirichlet_poly_check(make_field(args.D), args.k, args.x)]


def cmd_nonsplit(args) -> list[ExperimentReport]:
    if not math.isfinite(args.Ymax):
        raise HypothesisViolated(f"--Ymax {args.Ymax:g}: the Y ladder would not end")
    if args.Ymax < 1.0e4:
        raise TruncationInsufficient(f"--Ymax {args.Ymax:g} is below the first Y = 1e4")
    Q = QuadPoly(args.a, args.b, args.c)
    _contour_t(Q, second_form=True)  # the last report's precondition, before any sum
    _, src = _field_and_source(args)
    ladder = (1.0e4 * 4.0**j for j in itertools.count())
    Ys = list(itertools.takewhile(lambda y: y <= args.Ymax, ladder))
    out = [experiments.nonsplit_decay_scan(src, Q, Ys=Ys)]
    return out + [reduction_check(src, Q, Ys[-1], form) for form in (False, True)]


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
