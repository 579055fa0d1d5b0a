"""Command-line front end.

Subcommands:
  constants  print kernel and bound constants for (p, alpha) at a sigma
             or across the gamma-indexed family
  apply      evaluate D^alpha or I^alpha on a radial function file
  solve      run the full Cauchy pipeline, write a solution CSV and a
             JSON report
  verify     run the oracle-equivalence and identity suites
  sweep      solve a (p, alpha, gamma) grid, one CSV row per cell

Numbers are printed with 12 significant digits; summation orders are
fixed, so repeated runs with the same configuration are bit-identical.
Exit codes: 0 success, 2 precondition violation, 3 convergence or
verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .errors import (
    BudgetError,
    DegenerationError,
    DomainError,
    IndeterminateResidualError,
    MagnitudeError,
    MetadataError,
    NonConvergenceError,
    require_depth,
    require_finite,
    require_tol,
)
from .haar import (
    DEFAULT_DEPTH,
    ball_log_integral,
    ball_log_integral_oracle,
    ball_power_integral,
    ball_power_integral_oracle,
    p_pow,
    sphere_shifted_log_integral,
    sphere_shifted_log_integral_oracle,
    sphere_shifted_power_integral,
    sphere_shifted_power_integral_oracle,
)
from .radial import RadialFunction, TailModel, check_summability, dump_radial, load_radial
from .vladimirov import apply_dalpha, apply_dalpha_oracle
from .fracint import (
    apply_ialpha,
    assemble_fractional_integral,
    bound_constants,
    kernel_constant,
    kernel_constant_oracle,
)
from .cauchy import (
    ProblemSpec,
    catalog_nonlinearity,
    check_global_hypotheses,
    residual,
    solve_problem,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_FAILURE = 3
# what exits 2 and what exits 3, and what a sweep row reports as precondition or failure
PRECONDITION_ERRORS = (DomainError, MetadataError, MagnitudeError)
FAILURE_ERRORS = (NonConvergenceError, BudgetError, IndeterminateResidualError)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# -- run configuration ---------------------------------------------------------

_CONFIG_KEYS = {
    "p": int, "alpha": float, "gamma": float, "u0": float,
    "rhs": str, "rhs_amplitude": float, "rhs_beta": float,
    "tol": float, "max_iter": int, "extend_to": int,
    "csv_out": str, "report_out": str, "solution_out": str,
}
_PROBLEM_FIELDS = ("p", "alpha", "gamma", "u0")


def _run_config(config_path, args) -> dict:
    """Solver run parameters from a key = value file plus flag overrides, which win; a
    missing problem field or a malformed file line is a DomainError that names it."""
    cfg = _parse_config(config_path) if config_path else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    for field in _PROBLEM_FIELDS:
        if field not in cfg:
            raise DomainError(f"missing required field {field!r}")
    return cfg


def _emit(lines: list, path: str | None) -> None:
    """Write the lines to ``path``, or print them when ``path`` is empty."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)


def _parse_config(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path} line {lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise DomainError(f"{path} line {lineno}: unknown key {key!r}")
            if val == "":
                continue
            try:
                out[key] = _CONFIG_KEYS[key](val)
            except ValueError as err:
                raise DomainError(f"{path} line {lineno}: field {key!r}: {err}") from err
    return out


# -- constants ----------------------------------------------------------------

def cmd_constants(args) -> int:
    if (args.sigma is None) == (args.gamma is None):
        raise DomainError("exactly one of --sigma or --gamma is required")
    if args.nmax < 0:
        raise DomainError(f"--nmax must be >= 0, got {args.nmax}")
    if args.sigma is not None:
        kc = kernel_constant(args.p, args.alpha, args.sigma)
        print(f"d_abs {_fmt(kc.d_abs)}")
        print(f"s_signed {_fmt(kc.s_signed)}")
        print(f"a_bound {_fmt(kc.a_bound)}")
        return EXIT_OK
    c_n = bound_constants(args.p, args.alpha, args.gamma)
    for n in range(args.nmax + 1):
        print(f"C_{n} {_fmt(c_n(n))}")
    print(f"C {_fmt(c_n(0))}")
    return EXIT_OK


# -- apply --------------------------------------------------------------------

def _parse(flag: str, text: str, convert):
    """convert(text), a malformed value being a precondition violation that names the flag."""
    try:
        return convert(text)
    except ValueError as err:
        raise DomainError(f"malformed {flag} {text!r}: {err}") from err


def _levels(text: str) -> range:
    lo, sep, hi = text.partition(":")
    levels = range(int(lo), int(hi if sep else lo) + 1)
    if not levels:
        raise ValueError("lo must not exceed hi")
    return levels


def cmd_apply(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        u = load_radial(fh.read())
    op = {"dalpha": apply_dalpha, "ialpha": apply_ialpha}.get(args.op)
    if op is None:
        raise DomainError(f"--op must be dalpha or ialpha, got {args.op!r}")
    for k in _parse("--levels", args.levels, _levels):
        print(f"{k} {_fmt(op(u, args.alpha, k))}")
    return EXIT_OK


# -- solve --------------------------------------------------------------------

def _verified_solve(problem: ProblemSpec, tol: float, levels, **options) -> tuple:
    """(report, hypotheses, estimates, worst) of one solve at ``tol``: the :func:`residual`
    at each level of ``levels(u)`` where it is certified at max(100 tol, 1e-9), if the
    hypotheses make residuals meaningful, and the largest |residual| of them or None."""
    report = solve_problem(problem, tol=tol, **options)
    hyp = check_global_hypotheses(problem)
    u = report.solution
    estimates = {}
    for n in levels(u) if hyp.residual_verifiable else ():
        try:
            estimates[n] = residual(u, problem, n, tol=max(tol * 100.0, 1e-9))
        except IndeterminateResidualError:
            pass
    worst = max((abs(est.value) for est in estimates.values()), default=None)
    return report, hyp, estimates, worst


def cmd_solve(args) -> int:
    cfg = _run_config(args.config, args)
    rhs = catalog_nonlinearity(cfg.get("rhs", "zero"), cfg["p"], beta=cfg.get("rhs_beta", 2.0),
                               amplitude=cfg.get("rhs_amplitude", 0.1))
    problem = ProblemSpec(**{key: cfg[key] for key in _PROBLEM_FIELDS}, rhs=rhs)
    report, hyp, estimates, worst = _verified_solve(
        problem, cfg.get("tol", 1e-10), lambda u: range(u.k_min, u.k_max + 1),
        max_iter=cfg.get("max_iter", 1000), extend_to=cfg.get("extend_to"),
    )
    u = report.solution

    rows = []
    cont = report.c_uniform * problem.rhs.bound_M / (1.0 - report.q_contraction)  # q < 1
    for k in range(u.k_min, u.k_max + 1):
        bound = ""
        if k <= report.local_radius_N:
            bound = _fmt(cont * p_pow(problem.p, k * (problem.alpha - problem.gamma)))
        est = estimates.get(k)
        res, unc = (_fmt(est.value), _fmt(est.uncertainty)) if est else ("", "")
        rows.append(f"{k},{k},{_fmt(u.value_at(k))},{bound},{res},{unc}")

    _emit(["k,radius_exponent,u,apriori_bound,residual,residual_uncertainty"] + rows,
          cfg.get("csv_out"))
    if cfg.get("report_out"):
        payload = report.to_dict()
        payload["hypotheses"] = dataclasses.asdict(hyp)
        _emit([json.dumps(payload, indent=2, sort_keys=True)], cfg["report_out"])
    if cfg.get("solution_out"):
        _emit(dump_radial(u).splitlines(), cfg["solution_out"])

    print(f"N {report.local_radius_N}")
    print(f"k_min {u.k_min}")
    print(f"k_max {u.k_max}")
    print(f"picard_iterations {report.picard_iterations}")
    print(f"truncation_budget {_fmt(report.truncation_budget)}")
    if hyp.residual_verifiable:
        print(f"max_residual {_fmt(worst) if worst is not None else 'none'}")
    else:
        print(f"residuals unavailable: {hyp.detail}")
    return EXIT_OK


# -- verify -------------------------------------------------------------------

def _cell(name: str, limit: float, errors, metric: str = "max_rel") -> tuple:
    """The cell ``name`` of the worst of ``errors``: it passes when that is at most ``limit``."""
    worst = max(errors)
    return name, worst <= limit, f"{metric} {worst:.2e}"


def _suite_haar(depth: int, family: str):
    cells = []
    for p in (2, 3, 5):
        for a in (0.5, 1.0, 1.5, 2.0, 3.0):
            errors = []
            for n in range(-5, 6):
                c, s = ball_power_integral(p, a, n), sphere_shifted_power_integral(p, a, n)
                errors += [abs(c - ball_power_integral_oracle(p, a, n, depth)) / abs(c),
                           abs(s - sphere_shifted_power_integral_oracle(p, a, n, depth)) / abs(s)]
            cells.append(_cell(f"power-p{p}-a{a:g}", 1e-12, errors))
        errors = []
        for n in range(-5, 6):
            c, s = ball_log_integral(p, n), sphere_shifted_log_integral(p, n)
            errors += [abs(c - ball_log_integral_oracle(p, n, depth)) / (1 + abs(c)),
                       abs(s - sphere_shifted_log_integral_oracle(p, n, depth)) / (1 + abs(s))]
        cells.append(_cell(f"log-p{p}", 1e-12, errors))
    return cells


def _suite_kernel(depth: int, family: str):
    cells = []
    for p in (2, 3, 5):
        for alpha in (0.5, 1.0, 2.0):
            errors = []
            for sigma in (max(-1.0 / alpha, -1.0) + (0.4 + 0.3 * i) / alpha for i in range(20)):
                d = kernel_constant(p, alpha, sigma).d_abs
                errors.append(abs(d - kernel_constant_oracle(p, alpha, sigma, depth)) / abs(d))
            cells.append(_cell(f"p{p}-alpha{alpha:g}", 1e-12, errors))
    for cell, alpha, exact in (("spot-d(2,2,0)", 2.0, 1.0 / 3.0),
                               ("spot-d(2,1,0)", 1.0, math.log(2.0))):
        cells.append(_cell(cell, 1e-13, [abs(kernel_constant(2, alpha, 0.0).d_abs - exact)], "abs"))
    return cells


def _suite_bounds(depth: int, family: str):
    cells = []
    for p in (2, 3, 5):
        for alpha in (0.5, 1.0, 2.0):
            boundary = max(-1.0 / alpha, -1.0)
            a_shared = kernel_constant(p, alpha, boundary + 0.05).a_bound
            ok = all(kernel_constant(p, alpha, sigma).d_abs * p_pow(p, alpha * sigma)
                     <= a_shared * (1.0 + 1e-12)
                     for sigma in (boundary + 0.05 + 0.07 * i for i in range(100)))
            cells.append((f"envelope-p{p}-alpha{alpha:g}", ok, ""))
            c_n = bound_constants(p, alpha, 0.4 * min(1.0, alpha))
            c = c_n(0)
            ok = all(c_n(n) <= c * (1.0 + 1e-12) for n in range(51))
            cells.append((f"cn-p{p}-alpha{alpha:g}", ok, f"C {c:.6g}"))
    return cells


_FAMILIES = {  # the test functions over p of each --family
    "indicator": lambda p: [RadialFunction.indicator_unit_ball(p)],
    "const-minus-indicator": lambda p: [RadialFunction(
        p, 0, 0, (1.5,), TailModel.constant(1.5), TailModel.constant(2.5), 1.5)],
    "power": lambda p: [RadialFunction.split_power(p, 0.0, -0.5),
                        RadialFunction.split_power(p, 0.5, -1.0)],
}


def _test_family(p: int, family: str) -> list:
    return [u for name in (_FAMILIES if family == "all" else [family]) for u in _FAMILIES[name](p)]


def _suite_dalpha_oracle(depth: int, family: str):
    cells = []
    for p in (2, 3, 5):
        for alpha in (0.5, 1.0, 2.0):
            errors = []
            for u in _test_family(p, family):
                for n in range(-8, 9):
                    a = apply_dalpha(u, alpha, n)
                    errors.append(abs(a - apply_dalpha_oracle(u, alpha, n, depth)) / (1.0 + abs(a)))
            cells.append(_cell(f"p{p}-alpha{alpha:g}", 1e-10, errors))
    return cells


_INVERSE_CELLS = [(p, alpha) for p in (2, 3) for alpha in (0.5, 1.0, 2.0)]


def _inverse_members(p: int, alpha: float, family: str) -> list:
    """The members v of ``family`` over p that meet :func:`check_summability` at alpha,
    as Kochubei's right inverse D^alpha I^alpha v = v needs."""
    return [v for v in _test_family(p, family)
            if check_summability(v, alpha).all_applicable_hold()]


def _suite_right_inverse(depth: int, family: str):
    cells = []
    for p, alpha in _INVERSE_CELLS:
        errors = []
        for v in _inverse_members(p, alpha, family):
            vmax = max(abs(v.value_at(k)) for k in range(-10, 11))
            iv = assemble_fractional_integral(v, alpha)
            errors += [abs(apply_dalpha(iv, alpha, n) - v.value_at(n)) / (1.0 + vmax)
                       for n in range(-8, 9)]
        cells.append(_cell(f"p{p}-alpha{alpha:g}", 1e-8, errors, "max_err"))
    return cells


_SUITES = {
    "haar": _suite_haar,
    "kernel": _suite_kernel,
    "bounds": _suite_bounds,
    "dalpha-oracle": _suite_dalpha_oracle,
    "right-inverse": _suite_right_inverse,
}


def cmd_verify(args) -> int:
    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in _SUITES:
            raise DomainError(f"unknown suite {name!r}; options: {sorted(_SUITES)} or all")
    if args.family not in [*_FAMILIES, "all"]:
        raise DomainError(f"unknown test family {args.family!r}; options: "
                          f"{sorted(_FAMILIES)} or all")
    require_depth(args.depth)
    for p, alpha in _INVERSE_CELLS if "right-inverse" in names else ():
        if not _inverse_members(p, alpha, args.family):
            raise DomainError(f"no member of test family {args.family!r} meets the summability "
                              f"conditions of the right inverse at p = {p}, alpha = {alpha:g}")
    results = sorted((nm, cell, ok, detail) for nm in names  # (suite, cell) is unique
                     for cell, ok, detail in _SUITES[nm](args.depth, args.family))
    for suite, cell, ok, detail in results:
        print(" ".join(filter(None, (suite, cell, "pass" if ok else "FAIL", detail))))
    failures = sum(not ok for _, _, ok, _ in results)
    print(f"{'ALL PASS' if failures == 0 else f'FAILURES {failures}'} ({len(results)} cells)")
    return EXIT_OK if failures == 0 else EXIT_FAILURE


# -- sweep --------------------------------------------------------------------

def cmd_sweep(args) -> int:
    ps = _parse("--p-list", args.p_list, lambda t: [int(x) for x in t.split(",")])
    alphas = _parse("--alpha-list", args.alpha_list, lambda t: [float(x) for x in t.split(",")])
    # options every cell shares are refused once, before the first cell; the catalog
    # checks f's name and constants alike at every p, so p = 2 stands for all
    require_tol(args.tol)
    if not 0.0 <= args.gamma_frac < 1.0:  # 0 <= gamma < min(1, alpha) for every alpha > 0
        raise DegenerationError(f"gamma_frac must be in [0, 1), got {args.gamma_frac}")
    require_finite(u0=args.u0)
    catalog_nonlinearity(args.rhs, 2, amplitude=args.rhs_amplitude, beta=args.rhs_beta)
    header = ("p,alpha,gamma,N,k_min,k_max,picard_iterations,"
              "max_abs_residual,residual_levels,truncation_budget,status")
    lines = [header]
    for p in ps:
        for alpha in alphas:
            gamma = args.gamma_frac * min(1.0, alpha)
            row = f"{p},{_fmt(alpha)},{_fmt(gamma)}"
            try:
                rhs = catalog_nonlinearity(args.rhs, p, amplitude=args.rhs_amplitude,
                                           beta=args.rhs_beta)
                problem = ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=args.u0, rhs=rhs)
                report, _, estimates, worst = _verified_solve(
                    problem, args.tol, lambda u: range(u.k_min + 1, u.k_max + 1))
                max_resid = _fmt(worst) if worst is not None else ""
                u = report.solution
                row += (f",{report.local_radius_N},{u.k_min},{u.k_max},"
                        f"{report.picard_iterations},{max_resid},{len(estimates)},"
                        f"{_fmt(report.truncation_budget)},ok")
            except PRECONDITION_ERRORS as err:
                row += f",,,,,,,,precondition: {type(err).__name__}"
            except FAILURE_ERRORS as err:
                row += f",,,,,,,,failure: {type(err).__name__}"
            lines.append(row)
    _emit(lines, args.out)
    return EXIT_OK


# -- entry point ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="padic-radial",
                                  description="Radial calculus over the p-adic numbers")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="kernel and bound constants")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--sigma", type=float, default=None)
    c.add_argument("--gamma", type=float, default=None)
    c.add_argument("--nmax", type=int, default=20)
    c.set_defaults(func=cmd_constants)

    a = sub.add_parser("apply", help="apply D^alpha or I^alpha to a radial function file")
    a.add_argument("--op", required=True)
    a.add_argument("--alpha", type=float, required=True)
    a.add_argument("--input", required=True)
    a.add_argument("--levels", default="0")
    a.set_defaults(func=cmd_apply)

    s = sub.add_parser("solve", help="solve a degenerate Cauchy problem")
    s.add_argument("--config", default=None)
    for key, kind in _CONFIG_KEYS.items():
        s.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, default=None)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="run the verification suites")
    v.add_argument("--suite", default="all")
    v.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    v.add_argument("--family", default="all")
    v.set_defaults(func=cmd_verify)

    w = sub.add_parser("sweep", help="solve a (p, alpha, gamma) grid")
    w.add_argument("--p-list", dest="p_list", default="2,3,5")
    w.add_argument("--alpha-list", dest="alpha_list", default="0.5,1,2")
    w.add_argument("--gamma-frac", dest="gamma_frac", type=float, default=0.4)
    w.add_argument("--u0", type=float, default=1.0)
    w.add_argument("--rhs", default="cos-decay")
    w.add_argument("--rhs-amplitude", dest="rhs_amplitude", type=float, default=0.1)
    w.add_argument("--rhs-beta", dest="rhs_beta", type=float, default=2.0)
    w.add_argument("--tol", type=float, default=1e-10)
    w.add_argument("--out", default=None)
    w.set_defaults(func=cmd_sweep)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PRECONDITION_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except FAILURE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
