"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import math

import pytest

from padicradial.errors import (
    ContractionError,
    DegenerationError,
    IndeterminateResidualError,
)
from padicradial.haar import (
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
from padicradial.radial import RadialFunction, TailModel
from padicradial.vladimirov import apply_dalpha, apply_dalpha_oracle
from padicradial.fracint import (
    apply_ialpha,
    assemble_fractional_integral,
    bound_constants,
    kernel_constant,
    kernel_constant_oracle,
)
from padicradial.cauchy import (
    Nonlinearity,
    ProblemSpec,
    catalog_nonlinearity,
    check_global_hypotheses,
    picard_solve,
    residual,
    solve_problem,
)

PRIMES = (2, 3, 5)
ALPHAS = (0.5, 1.0, 2.0)


def _ok(label):
    print(f"PASS {label}")


def dalpha_family(p):
    return [
        RadialFunction.indicator_unit_ball(p),
        RadialFunction.constant(p, 2.0),
        RadialFunction(p, 0, 0, (1.0,), TailModel.constant(1.0),
                       TailModel.constant(2.0), 1.0),  # const minus indicator
        RadialFunction.split_power(p, 0.0, -0.5),
        RadialFunction.split_power(p, 0.5, -1.0),
    ]


def inverse_family(p):
    return [
        RadialFunction.indicator_unit_ball(p),
        RadialFunction.split_power(p, 0.0, -0.5),
        RadialFunction.split_power(p, 0.5, -1.0),
    ]


def test_criterion_01_haar_formula_equivalence():
    for p in PRIMES:
        for a in (0.5, 1.0, 1.5, 2.0, 3.0):
            for n in range(-5, 6):
                c = ball_power_integral(p, a, n)
                assert abs(c - ball_power_integral_oracle(p, a, n, 200)) <= 1e-12 * abs(c)
                c = sphere_shifted_power_integral(p, a, n)
                assert abs(c - sphere_shifted_power_integral_oracle(p, a, n, 200)) \
                    <= 1e-12 * abs(c)
        for n in range(-5, 6):
            c = ball_log_integral(p, n)
            assert abs(c - ball_log_integral_oracle(p, n, 200)) <= 1e-12 * (1 + abs(c))
            c = sphere_shifted_log_integral(p, n)
            assert abs(c - sphere_shifted_log_integral_oracle(p, n, 200)) \
                <= 1e-12 * (1 + abs(c))
            # the unscaled variant must disagree away from n = 0 wherever the
            # integral itself is nonzero
            unscaled = (1 - 1 / p) * n * math.log(p) - math.log(p) / (p - 1)
            if n != 0 and abs(c) > 1e-13:
                assert abs(c - unscaled) > 1e-9 * abs(c)
    _ok("criterion 1: Haar closed forms == 200-stratum sums (1e-12); "
        "unscaled sphere-log variant disagrees off center")


def test_criterion_02_kernel_constants():
    for p in PRIMES:
        for alpha in ALPHAS:
            boundary = max(-1.0 / alpha, -1.0)
            for i in range(20):
                sigma = boundary + (0.4 + 0.3 * i) / alpha
                d = kernel_constant(p, alpha, sigma).d_abs
                o = kernel_constant_oracle(p, alpha, sigma, 200)
                assert abs(d - o) <= 1e-12 * abs(d), (p, alpha, sigma)
    assert kernel_constant(2, 2.0, 0.0).d_abs == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert kernel_constant(2, 1.0, 0.0).d_abs == pytest.approx(math.log(2.0), rel=1e-13)
    _ok("criterion 2: kernel constants == depth-200 oracle (1e-12); "
        "spots 1/3 and ln 2")


def test_criterion_03_envelope_and_uniform_bounds():
    for p in PRIMES:
        for alpha in ALPHAS:
            boundary = max(-1.0 / alpha, -1.0)
            shared = kernel_constant(p, alpha, boundary + 0.05).a_bound
            for i in range(100):
                sigma = boundary + 0.05 + 0.07 * i
                kc = kernel_constant(p, alpha, sigma)
                lhs = kc.d_abs * p_pow(p, alpha * sigma)
                assert lhs <= shared * (1 + 1e-12)
                assert lhs <= kc.a_bound * (1 + 1e-12)
            gamma = 0.4 * min(1.0, alpha)
            c_n = bound_constants(p, alpha, gamma)
            for n in range(51):
                assert 0 < c_n(n) <= c_n(0) * (1 + 1e-12)
    _ok("criterion 3: envelope bound on the 100-point sigma grid; "
        "c_n <= c_uniform for n = 0..50")


def test_criterion_04_series_vs_direct_integral():
    for p in PRIMES:
        for alpha in ALPHAS:
            for u in dalpha_family(p):
                for n in range(-8, 9):
                    a = apply_dalpha(u, alpha, n)
                    b = apply_dalpha_oracle(u, alpha, n, 200)
                    assert abs(a - b) <= 1e-10 * (1 + abs(a)), (p, alpha, n)
    _ok("criterion 4: D^alpha series == stratified integral on the test "
        "family (1e-10), n in [-8, 8]")


def test_criterion_05_right_inverse_identity():
    for p in (2, 3):
        for alpha in ALPHAS:
            for v in inverse_family(p):
                vmax = max(abs(v.value_at(k)) for k in range(-10, 11))
                iv = assemble_fractional_integral(v, alpha)
                for n in range(-8, 9):
                    err = abs(apply_dalpha(iv, alpha, n) - v.value_at(n))
                    assert err <= 1e-8 * (1 + vmax), (p, alpha, n, err)
    _ok("criterion 5: D^alpha(I^alpha v) == v within 1e-8 (1 + max|v|), "
        "alpha in {0.5, 1, 2}, n in [-8, 8]")


def _local_theory_checks(problem, tol=1e-11):
    report = solve_problem(problem, tol=tol)
    m = problem.rhs.bound_M
    # the ball contracts (q_N <= 1/2), and the solve's levels on it are the local solve's
    assert report.q_contraction <= 0.5 * (1 + 1e-12)
    local = picard_solve(problem, report.local_radius_N, tol=tol,
                         reserve_top=report.solution.k_max + 1)
    assert local.solution.values == report.solution.values[:len(local.solution.values)]
    scale = report.c_uniform * m / (1.0 - report.q_contraction)
    for k in range(report.solution.k_min, report.local_radius_N + 1):
        dev = abs(report.solution.value_at(k) - problem.u0)
        bound = scale * p_pow(problem.p, k * (problem.alpha - problem.gamma))
        assert dev <= bound + 1e-15
    return report


def _residual_checks(problem, report, tol_gate=5e-9):
    assert check_global_hypotheses(problem).residual_verifiable
    m = problem.rhs.bound_M
    count, worst = 0, 0.0
    u = report.solution
    for n in range(max(report.solution.k_min + 1, -15), u.k_max - 2):
        try:
            est = residual(u, problem, n, tol=tol_gate)
        except IndeterminateResidualError:
            continue
        count += 1
        worst = max(worst, abs(est.value))
        assert abs(est.value) <= 1e-8 * (1 + m), (n, est)
    assert count >= 15
    return count, worst


def test_criterion_06_local_existence_uniqueness():
    problem = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                          rhs=catalog_nonlinearity("cos-decay", 2,
                                                   amplitude=0.1, beta=2.0))
    report = _local_theory_checks(problem)
    _ok(f"criterion 6: local solve at N = {report.local_radius_N}: q_N <= 1/2, the "
        "solve's window on the ball, continuity envelope at zero")


def test_criterion_07_extension_contraction():
    p_, alpha_, gamma_ = 2, 0.5, 0.2

    def make_rhs(scale):
        # eval stays bounded; the declared per-level constants follow the
        # unclamped profile scale * p^(-alpha l), an over-declaration at
        # negative levels and exact at l >= 0
        def f(k, x):
            return scale * p_pow(p_, -alpha_ * max(k, 0)) * math.sin(x)
        return Nonlinearity(
            eval=f, bound_M=scale, lipschitz_F=scale,
            per_level_F=lambda k: scale * p_pow(p_, -alpha_ * k),
            decay=(scale, alpha_))

    good = ProblemSpec(p=p_, alpha=alpha_, gamma=gamma_, u0=1.0, rhs=make_rhs(0.5))
    report = solve_problem(good, tol=1e-11)
    N = report.local_radius_N
    levels = [N + 1 + i for i in range(20)]
    for level in levels:
        diag = report.extension_diagnostics[level]
        assert diag.kappa < 1.0, (level, diag)
        # each measured step is checked against kappa times the previous
        # step plus a few ulps; reaching here means none was exceeded
    bad = ProblemSpec(p=p_, alpha=alpha_, gamma=gamma_, u0=1.0, rhs=make_rhs(2.0))
    # the fourfold bound puts the local radius 7 levels lower (q_N <= 1/2); F = 2 bounds the
    # levels below 0, where kappa = 2 p^((alpha - gamma) n - alpha) first reaches 1 at -1
    with pytest.raises(ContractionError, match="extension to level -1 "):
        solve_problem(bad, tol=1e-11)
    _ok(f"criterion 7: extension steps contract (kappa < 1, each measured step "
        f"<= kappa * previous step + 4 ulp) for l in [N, N+20] with N = {N}; "
        "doubled per-level bound rejected")


def test_criterion_08_residual_and_decay_gate():
    problem = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                          rhs=catalog_nonlinearity("cos-decay", 2,
                                                   amplitude=0.1, beta=2.0))
    report = solve_problem(problem, tol=1e-11)
    count, worst = _residual_checks(problem, report)
    # weak declared decay: beta + gamma <= alpha is reported instead of a residual
    fast = catalog_nonlinearity("cos-decay", 2, amplitude=0.1, beta=2.0)
    weak = Nonlinearity(eval=fast.eval, bound_M=0.1, lipschitz_F=0.1,
                        per_level_F=fast.per_level_F, decay=(0.1, 1.0))
    weak_problem = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=weak)
    hyp = check_global_hypotheses(weak_problem)
    assert hyp.decay_ok is False and not hyp.residual_verifiable
    assert "beta + gamma" in hyp.detail
    _ok(f"criterion 8: |p^(g n) D^a u - f| <= 1e-8 (1+M) on {count} levels "
        f"(max {worst:.2e}); weak decay flagged instead of a residual")


def test_criterion_09_degeneration_gate():
    for alpha in ALPHAS:
        rhs = catalog_nonlinearity("zero", 2)
        edge = min(1.0, alpha)
        with pytest.raises(DegenerationError):
            ProblemSpec(p=2, alpha=alpha, gamma=edge, u0=0.0, rhs=rhs)
        with pytest.raises(DegenerationError):
            ProblemSpec(p=2, alpha=alpha, gamma=edge + 0.1, u0=0.0, rhs=rhs)
        ProblemSpec(p=2, alpha=alpha, gamma=edge - 1e-6, u0=0.0, rhs=rhs)
    _ok("criterion 9: gamma gate rejects min(1, alpha) and above, accepts "
        "min(1, alpha) - 1e-6")


def test_criterion_10_log_kernel_parity():
    # criteria 2, 5 already sweep alpha = 1 above; rerun 6 and 8 on the
    # logarithmic-kernel branch
    problem = ProblemSpec(p=2, alpha=1.0, gamma=0.25, u0=1.0,
                          rhs=catalog_nonlinearity("cos-decay", 2,
                                                   amplitude=0.1, beta=2.0))
    report = _local_theory_checks(problem)
    count, worst = _residual_checks(problem, report)
    _ok(f"criterion 10: alpha = 1 parity (local solve at N = "
        f"{report.local_radius_N}, residuals on {count} levels, max {worst:.2e})")
