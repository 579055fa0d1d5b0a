"""Correctness checks of every operation's output against ``reference``.

No check compares against stored output of the package.  Solves are held
to the integral equation they solve, recomputed in mpmath, and to the
bounds the method must satisfy; operator outputs are held to the mpmath
series, to the right-inverse identity, and to the package's own closed
form / oracle twins.

Tolerances.  A floating-point sum of W <= 400 terms, each a guarded
exp(t) with |t| <= 745, is accurate to about (W + 745) * 2^-52 < 3e-13
relative to the sum of the magnitudes of its terms (the "scale").
``FLOAT_REL`` allows four times that.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

import reference
from workloads import (RESIDUAL_TOL, SOLVE_TOL, Cell, FunctionSpec, SolveOutput,
                       build_function, roundtrip_window)

FLOAT_REL = 1e-12


def _bound_m(cell: Cell) -> float:
    """The bound |f| <= M declared for each catalog right-hand side."""
    if cell.rhs == "const":
        return abs(cell.amplitude) if cell.amplitude != 0.0 else 1.0
    if cell.rhs == "zero":
        return 1.0
    return cell.amplitude


def check_solve(cell: Cell, out: SolveOutput) -> list:
    rep = out.report
    u = rep.solution
    errors = []
    target = cell.extend_to if cell.extend_to is not None else rep.local_radius_N + 35
    if u.k_max != target:
        errors.append(f"window ends at {u.k_max}, not at the target {target}")
    image, scales = reference.fixed_point_image(
        cell.p, cell.alpha, cell.gamma, cell.u0, cell.rhs, cell.amplitude, cell.beta,
        u.k_min, u.values)
    for k, x, ref, scale in zip(range(u.k_min, u.k_max + 1), u.values, image, scales):
        allowed = rep.truncation_budget + SOLVE_TOL * max(1.0, abs(x)) + FLOAT_REL * scale
        err = float(abs(mpf(x) - ref))
        if not err <= allowed:
            errors.append(f"u(p^{k}) = {x!r} is {err:.3g} from u0 + I^a[...] "
                          f"(allowed {allowed:.3g})")
    envelope = rep.c_uniform * _bound_m(cell) / (1.0 - rep.q_contraction)
    for k in range(u.k_min, rep.local_radius_N + 1):
        bound = envelope * cell.p ** (k * (cell.alpha - cell.gamma))
        dev = abs(u.value_at(k) - cell.u0)
        if not dev <= bound * (1.0 + FLOAT_REL) + 1e-15:
            errors.append(f"|u(p^{k}) - u0| = {dev:.3g} breaks the a-priori envelope {bound:.3g}")
    for n, est in out.residuals.items():
        if not (abs(est.value) <= RESIDUAL_TOL and est.uncertainty <= RESIDUAL_TOL):
            errors.append(f"residual at level {n} is {est.value:.3g} +- {est.uncertainty:.3g}, "
                          f"outside tol {RESIDUAL_TOL}")
    return errors


def _compare(name: str, levels, got, want, allowed) -> list:
    errors = []
    for n, g, w, a in zip(levels, got, want, allowed):
        err = float(abs(mpf(g) - w))
        if not err <= a:
            errors.append(f"{name} at level {n}: {g!r} is {err:.3g} from the reference "
                          f"(allowed {a:.3g})")
    return errors


def _roundtrip_truncation(ru, spec: FunctionSpec, hi: int):
    """|d_a| (1 - 1/p) |sum_{l > hi} p^(-a l) (I^a v)(p^l)|: what the zero right
    tail of the assembled I^a v drops from D^a at every level of the window."""
    kind, _, rho = spec.right
    rate = min(1.0, spec.alpha, -rho if kind == "power" else 1.0)
    extra = int(60 * math.log(10) / (rate * math.log(spec.p))) + 2
    above, _ = reference.ialpha(ru, spec.alpha, hi + 1, hi + extra)
    with mp.workdps(reference.working_dps(spec.p, spec.alpha, spec.kmin, hi + extra)):
        P, a = mpf(spec.p), mpf(spec.alpha)
        d_a = abs((1 - P ** a) / (1 - P ** (-a - 1)))
        dropped = sum(P ** (-a * l) * x for l, x in enumerate(above, start=hi + 1))
        return float(d_a * (1 - 1 / P) * abs(dropped))


def check_operator(lib, kind: str, spec: FunctionSpec, output) -> list:
    ru = reference.Radial(spec.p, spec.kmin, spec.values, spec.left, spec.right)
    lo, hi, alpha = spec.kmin, spec.kmax, spec.alpha
    levels = range(lo, hi + 1)
    if kind == "dalpha":
        want = reference.dalpha(ru, alpha, lo, hi)
        scale = reference.dalpha_scale(ru, alpha, lo, hi)
        return _compare("D^alpha", levels, output, want, [FLOAT_REL * s for s in scale])
    if kind == "ialpha":
        want, scale = reference.ialpha(ru, alpha, lo, hi)
        return _compare("I^alpha", levels, output, want, [FLOAT_REL * s for s in scale])
    if kind == "roundtrip":
        iv, back = output
        lo, hi = roundtrip_window(spec)
        levels = range(lo, hi + 1)
        want, scale = reference.ialpha(ru, alpha, lo - 3, hi)
        errors = _compare("assembled I^alpha", levels, iv.values, want[3:],
                          [FLOAT_REL * s for s in scale[3:]])
        errors += _compare("assembled left tail", range(lo - 3, lo),
                           [iv.left_tail.value_at(spec.p, n) for n in range(lo - 3, lo)],
                           want[:3], [FLOAT_REL * s for s in scale[:3]])
        # D^a I^a v = v, up to the dropped right tail and rounding
        trunc = _roundtrip_truncation(ru, spec, hi)
        d_scale = reference.dalpha_scale(reference.Radial.from_package(iv), alpha, lo, hi)
        errors += _compare("D^alpha I^alpha v - v", levels, back,
                           [ru.at(n) for n in levels],
                           [trunc * (1 + FLOAT_REL) + FLOAT_REL * s for s in d_scale])
        return errors
    if kind == "oracles":
        return _check_oracles(lib, spec, ru, output)
    raise ValueError(f"no check for operation kind {kind!r}")


def _check_oracles(lib, spec: FunctionSpec, ru, output) -> list:
    dal, ker, haar = output
    p, alpha = spec.p, spec.alpha
    errors = []
    v = None
    for n, got in zip(spec.oracle_levels, dal):
        want = reference.dalpha(ru, alpha, n, n)
        scale = FLOAT_REL * reference.dalpha_scale(ru, alpha, n, n)[0]
        errors += _compare("D^alpha oracle", [n], [got], want, [scale])
        if v is None:
            v = build_function(lib, spec)
        errors += _compare("D^alpha oracle vs apply_dalpha", [n], [got],
                           [mpf(lib.apply_dalpha(v, alpha, n))], [2 * scale])
    for sigma, got in zip(spec.sigmas, ker):
        want = reference.kernel_constant(p, alpha, sigma)
        # the oracle sums DEFAULT_DEPTH spheres; near the divergence boundary
        # the spheres it leaves out are not negligible
        dropped = float(reference.kernel_constant(p, alpha, sigma, skip=lib.DEFAULT_DEPTH))
        closed = lib.kernel_constant(p, alpha, sigma).d_abs
        allowed = FLOAT_REL * abs(float(want))
        errors += _compare(f"kernel oracle sigma={sigma:.6g}", [0, 0], [got, closed],
                           [want, want], [allowed + dropped * (1 + FLOAT_REL), allowed])
    lp = math.log(p)
    for (a, n), (bp, sp, bl, sl) in zip(spec.haar_args, haar):
        pairs = [
            ("ball power", bp, reference.ball_power_integral(p, a, n),
             lib.ball_power_integral(p, a, n)),
            ("shifted sphere power", sp, reference.sphere_shifted_power_integral(p, a, n),
             lib.sphere_shifted_power_integral(p, a, n)),
            ("ball log", bl, reference.ball_log_integral(p, n), lib.ball_log_integral(p, n)),
            ("shifted sphere log", sl, reference.sphere_shifted_log_integral(p, n),
             lib.sphere_shifted_log_integral(p, n)),
        ]
        for name, got, want, closed in pairs:
            # log integrals can vanish (ball, p = 2, n = 1): measure against p^n (|n| + 1) ln p
            allowed = FLOAT_REL * (abs(float(want)) + p ** n * (abs(n) + 1) * lp)
            errors += _compare(f"Haar {name} oracle (a={a:.6g}, n={n})", [n, n],
                               [got, closed], [want, want], [allowed, allowed])
    return errors


def check(lib, op, output) -> list:
    if isinstance(output, SolveOutput):
        return check_solve(op.spec, output)
    return check_operator(lib, op.kind, op.spec, output)
