"""Command-line interface.

Every verb returns a ReportDocument and `main` alone prints it; only
`verify-exp*` have a text form.  `approx --degree` fits by least squares.
Exit codes: 0 all checks passed, 1 a check failed or the solver did not
converge, 2 usage or input errors.  The argument parser is built once per
process; every parse_args call fills a namespace of its own.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .errors import ConfigurationError, Error, NumericError
from .experiments import run_experiment
from .funcapprox import (
    approx_error,
    builtin,
    check_trig_substitution,
    fourier_fit,
    fourier_to_poly,
    lsq_poly_fit,
    trig_term_budget,
    unipoly_to_text,
)
from .multipoly import poly_from_text, poly_to_text
from .network import expand_network, load_network, load_dataset, save_network
from .report import ReportDocument, emit_report
from .synthesis import build_coefficient_system, build_data_system, compress_network, solve_system, with_weights


def _add_solver_flags(sub) -> None:
    sub.add_argument("--seed", type=int, default=0, help="seed for solver restarts")
    sub.add_argument("--trace", action="store_true", help="solver iterations to stderr")


def _trace(args):
    return sys.stderr if args.trace else None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built on the first call and shared by every
    later one: parse with it, change nothing on it."""
    parser = argparse.ArgumentParser(
        prog="polynet",
        description="expand polynomial-activation networks, approximate activations, "
        "and synthesize weights by coefficient matching",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("approx", help="fit a polynomial surrogate for an activation")
    p.add_argument("--fn", required=True, help="sigmoid, tanh, relu or square")
    p.add_argument("--interval", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    p.add_argument("--degree", type=int, help="fit by least squares at this degree")
    p.add_argument("--fourier-n", type=int, help="harmonics of the trigonometric fit (default 8)")
    p.add_argument("--terms", type=int, help="series terms substituted per harmonic")
    p.add_argument("--out", default=None, help="write the polynomial here")
    p.set_defaults(handler=_cmd_approx, machine=True)

    p = subs.add_parser("expand", help="expand a network into explicit polynomials")
    p.add_argument("--net", required=True)
    p.add_argument("--out", required=True, help="output path; multi-output nets get .<k> inserted")
    p.set_defaults(handler=_cmd_expand, machine=True)

    p = subs.add_parser("synth", help="solve for weights matching target polynomials")
    p.add_argument("--arch", required=True, help="architecture file; weight values are placeholders")
    p.add_argument("--targets", nargs="+", required=True, help="one polynomial file per output")
    p.add_argument("--out", default=None, help="write the solved network here")
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_synth, machine=True)

    p = subs.add_parser("fit-data", help="solve for weights matching a dataset")
    p.add_argument("--arch", required=True)
    p.add_argument("--data", required=True, help="CSV with header f1,...,fd,y")
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_fit_data, machine=True)

    p = subs.add_parser("compress", help="fit a smaller network to a truncated expansion")
    p.add_argument("--teacher", required=True)
    p.add_argument("--student-arch", required=True)
    p.add_argument("--degree", type=int, required=True, help="truncation degree for the teacher")
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(handler=_cmd_compress, machine=True)

    for exp_id in (1, 2, 3, 4):
        p = subs.add_parser(f"verify-exp{exp_id}", help=f"run reference experiment {exp_id}")
        p.add_argument("--machine", action="store_true", help="stable key=value output")
        p.set_defaults(handler=_cmd_verify, exp_id=exp_id)

    return parser


def _cmd_approx(args) -> ReportDocument:
    lo, hi = args.interval
    f = builtin(args.fn, lo, hi)
    if args.degree is not None:
        if args.fourier_n is not None or args.terms is not None:
            raise ConfigurationError("--degree (least squares) takes no --fourier-n or --terms")
        poly = lsq_poly_fit(f, (lo, hi), args.degree)
    else:
        if lo != -hi:
            raise ConfigurationError("without --degree, the interval must be symmetric, [-l, l]")
        n = 8 if args.fourier_n is None else args.fourier_n
        terms = args.terms if args.terms is not None else trig_term_budget(n)
        check_trig_substitution(n, terms, hi)  # before the quadrature, which it does not need
        poly = fourier_to_poly(fourier_fit(f, hi, n), terms)
    err = approx_error(f, poly, (lo, hi))
    line = unipoly_to_text(poly)
    if args.out:
        Path(args.out).write_text(line)
    else:
        sys.stdout.write(line)
    doc = ReportDocument("approx")
    doc.info("approx.degree", "degree", poly.degree)
    doc.info("approx.max_abs", "max_abs", err.max_abs)
    doc.info("approx.rmse", "rmse", err.rmse)
    return doc


def _expand_out_path(base: str, k: int, n: int) -> Path:
    p = Path(base)
    return p if n == 1 else p.with_name(f"{p.stem}.{k}{p.suffix}")


def _cmd_expand(args) -> ReportDocument:
    net = load_network(args.net)
    polys = expand_network(net)
    doc = ReportDocument("expand")
    written = []
    try:
        for k, poly in enumerate(polys):
            path = _expand_out_path(args.out, k, len(polys))
            path.write_text(poly_to_text(poly))
            written.append(path)
            doc.info(f"expand.out{k}", f"out{k}", path)
            doc.info(f"expand.out{k}.terms", "terms", len(poly.terms))
            doc.info(f"expand.out{k}.degree", "degree", poly.degree())
    except BaseException:  # leave no file of a failed run behind
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return doc


def _solver_document(args, net, report) -> ReportDocument:
    """Write the solved net to `--out` if one is given, and report the solve."""
    if args.out:
        save_network(net, args.out)
    doc = ReportDocument(args.verb)
    doc.check("converged", "converged", report.converged, 1, 0)
    doc.info("residual_norm", "residual norm", report.final_residual_norm)
    doc.info("iterations", "iterations", report.iterations)
    doc.info("restarts", "restarts used", report.restarts_used)
    return doc


def _cmd_synth(args) -> ReportDocument:
    arch = load_network(args.arch)
    targets = [poly_from_text(Path(p).read_text()) for p in args.targets]
    system = build_coefficient_system(arch, targets)
    w, report = solve_system(system, args.seed, _trace(args))
    return _solver_document(args, with_weights(arch, w), report)


def _cmd_fit_data(args) -> ReportDocument:
    arch = load_network(args.arch)
    ds = load_dataset(args.data)
    system = build_data_system(arch, ds)
    w, report = solve_system(system, args.seed, _trace(args))
    return _solver_document(args, with_weights(arch, w), report)


def _cmd_compress(args) -> ReportDocument:
    teacher = load_network(args.teacher)
    student_arch = load_network(args.student_arch)
    student, report = compress_network(teacher, student_arch, args.degree, args.seed, _trace(args))
    return _solver_document(args, student, report)


def _cmd_verify(args) -> ReportDocument:
    return run_experiment(args.exp_id)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # before dispatch, so before any input is read
            raise ConfigurationError("seed must be non-negative")
        return emit_report(args.handler(args), args.machine)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
