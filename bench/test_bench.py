"""Tests of the benchmark's own code.

The reference (``reference.py``) is checked against closed forms derived by
hand from the stratification of Q_p, and each workload is smoke-run for a
few operations through the same checks the benchmark applies.
"""

from dataclasses import replace

import pytest
from mpmath import mp, mpf

import checks
import reference as ref
import run
import workloads as wl


@pytest.fixture(autouse=True)
def high_precision():
    """Closed forms below are evaluated at 60 digits, as the reference is."""
    with mp.workdps(60):
        yield


def rel(a, b):
    return float(abs(a - b) / abs(b))


def gamma_p(p, z):
    """The p-adic Gamma factor (1 - p^(z-1)) / (1 - p^-z)."""
    return (1 - mpf(p) ** (z - 1)) / (1 - mpf(p) ** (-z))


def power(p, rho, c=1.0):
    """c |x|^rho as a one-level window joined to power-law tails."""
    return ref.Radial(p, 0, [c], ("power", c, rho), ("power", c, rho))


@pytest.mark.parametrize("p,alpha", [(2, 0.5), (3, 1.0), (5, 2.5)])
def test_dalpha_of_a_constant_is_zero(p, alpha):
    u = ref.Radial(p, -4, [0.75] * 9, ("const", 0.75, 0.0), ("const", 0.75, 0.0))
    for value in ref.dalpha(u, alpha, -6, 6):
        assert abs(value) < mpf(10) ** -40


@pytest.mark.parametrize("p,alpha,s", [(2, 0.5, 0.2), (3, 1.0, -0.5), (7, 2.0, 1.5), (2, 1.5, 0.3)])
def test_dalpha_of_a_power_is_the_vladimirov_formula(p, alpha, s):
    # D^a |x|^s = Gamma_p(s + 1) / Gamma_p(s + 1 - a) |x|^(s - a), for -1 < s < a
    values = ref.dalpha(power(p, s), alpha, -3, 3)
    s, alpha = mpf(s), mpf(alpha)
    coef = gamma_p(p, s + 1) / gamma_p(p, s + 1 - alpha)
    for n, value in zip(range(-3, 4), values):
        assert rel(value, coef * mpf(p) ** ((s - alpha) * n)) < 1e-40


@pytest.mark.parametrize("p,a,n", [(2, 0.5, 0), (3, 1.0, 2), (5, 2.5, -3), (7, 0.3, 1)])
def test_ball_and_sphere_integrals_of_a_power(p, a, n):
    P = mpf(p)
    # sum over spheres S_k, k <= n, of (1 - 1/p) p^k p^((a-1) k)
    assert rel(ref.ball_power_integral(p, a, n),
               (1 - 1 / P) / (1 - P ** -a) * P ** (a * n)) < 1e-45
    assert rel(ref.sphere_power_integral(p, a, n), (1 - 1 / P) * P ** (a * n)) < 1e-45
    # (1 - 1/p) p^(a n) p^-a / (1 - p^-a) + (1 - 2/p) p^(a n)
    assert rel(ref.sphere_shifted_power_integral(p, a, n),
               (p - 2 + P ** -a) / (P * (1 - P ** -a)) * P ** (a * n)) < 1e-45


@pytest.mark.parametrize("p,n", [(2, 3), (3, -2), (5, 0)])
def test_log_integrals(p, n):
    P, lp = mpf(p), mp.log(p)
    assert rel(ref.ball_log_integral(p, n), (n - 1 / (P - 1)) * P ** n * lp) < 1e-45
    assert rel(ref.sphere_shifted_log_integral(p, n),
               P ** n * ((1 - 1 / P) * n * lp - lp / (P - 1))) < 1e-45


def ialpha_power_coefficient(p, alpha, rho):
    """I^a |x|^rho = C |x|^(a + rho), summing the kernel over spheres k < n by hand."""
    P, rho = mpf(p), mpf(rho)
    frac = 1 - 1 / P
    if alpha == 1.0:
        y = P ** (-(1 + rho))  # sum_{i >= 1} i y^i = y / (1 - y)^2
        return 1 / P - frac * frac * y / (1 - y) ** 2
    alpha = mpf(alpha)
    pref = (1 - P ** -alpha) / (1 - P ** (alpha - 1))
    return P ** -alpha + pref * frac * (P ** (-1 - rho) / (1 - P ** (-1 - rho))
                                       - P ** (-alpha - rho) / (1 - P ** (-alpha - rho)))


@pytest.mark.parametrize("p,alpha,rho", [(2, 0.5, -0.2), (3, 1.0, 0.5), (5, 2.0, -0.4), (2, 1.5, 1.0)])
def test_ialpha_of_a_pure_power(p, alpha, rho):
    values, _ = ref.ialpha(power(p, rho), alpha, -3, 3)
    coef = ialpha_power_coefficient(p, alpha, rho)
    alpha, rho = mpf(alpha), mpf(rho)
    for n, value in zip(range(-3, 4), values):
        assert rel(value, coef * mpf(p) ** ((alpha + rho) * n)) < 1e-40
    # and D^a undoes it: C * Gamma_p(a + rho + 1) / Gamma_p(rho + 1) = 1
    assert rel(coef * gamma_p(p, alpha + rho + 1) / gamma_p(p, rho + 1), mpf(1)) < 1e-40


@pytest.mark.parametrize("p,alpha,sigma", [(2, 2.0, 0.0), (3, 0.5, 0.4), (2, 1.0, 0.0), (5, 1.0, 0.7)])
def test_kernel_constant(p, alpha, sigma):
    want = ref.kernel_constant(p, alpha, sigma)
    P, alpha, sigma = mpf(p), mpf(alpha), mpf(sigma)
    frac = 1 - 1 / P
    if alpha == 1.0:
        y = P ** (-(1 + sigma))
        closed = frac * mp.log(P) * y / (1 - y) ** 2
    else:
        closed = frac * abs(1 / (P ** (1 + alpha * sigma) - 1)
                            - 1 / (P ** (alpha + alpha * sigma) - 1))
    assert rel(want, closed) < 1e-45
    if (p, alpha, sigma) == (2, 2.0, 0.0):
        assert rel(closed, mpf(1) / 3) < 1e-45
    if (p, alpha, sigma) == (2, 1.0, 0.0):
        assert rel(closed, mp.log(2)) < 1e-45


def test_fixed_point_image_of_the_zero_rhs_is_u0():
    image, _ = ref.fixed_point_image(3, 1.5, 0.3, 1.25, "zero", 0.1, 2.0, -5, [1.25] * 8)
    assert all(v == mpf(1.25) for v in image)


def test_rounds_depend_only_on_the_seed():
    for build in (wl.deep_cells, wl.sweep_cells, wl.operator_functions):
        assert build(7) == build(7)
        assert build(7) != build(8)
    cells = wl.sweep_cells(3)
    assert cells.count(wl.KNOWN_FAILING_CELL) == 1
    assert not set(cells[:-1]) & wl.SWEEP_EXCLUDED


def test_roundtrip_inputs_have_a_summable_right_tail():
    for spec in wl.operator_functions(0):
        assert spec.right[0] != "power" or spec.right[2] < 0


@pytest.fixture(scope="module")
def lib():
    import padicradial
    return padicradial


@pytest.mark.parametrize("workload,picks", [
    ("solve-deep", [-1]),            # the smallest window, p = 7
    ("sweep-grid", [0, 1, 2, 3]),    # the four cells of one (p, alpha) pair
    ("operators", [11, 12, 13, 14]),  # every op kind on the smallest window
])
def test_workload_smoke(lib, workload, picks):
    ops = wl.build_round(lib, workload, 0)
    for i in picks:
        out = ops[i].run()
        assert checks.check(lib, ops[i], out) == [], ops[i].label


def test_checks_reject_a_perturbed_solution(lib):
    op = wl.build_round(lib, "sweep-grid", 0)[0]
    out = op.run()
    u = out.report.solution
    values = list(u.values)
    values[len(values) // 2] += 1e-6
    bent = lib.RadialFunction(u.p, u.k_min, u.k_max, tuple(values), u.left_tail,
                              u.right_tail, u.value_at_zero)
    out.report = replace(out.report, solution=bent)
    assert any("from u0 + I^a" in e for e in checks.check(lib, op, out))


def test_checks_reject_a_perturbed_operator_output(lib):
    ops = wl.build_round(lib, "operators", 0)
    op = next(o for o in ops[11:] if o.kind == "dalpha")
    out = list(op.run())
    out[3] *= 1 + 1e-9
    assert checks.check(lib, op, tuple(out))


def test_only_the_known_cell_may_fail(lib):
    ops = wl.build_round(lib, "sweep-grid", 0)
    known = next(i for i, op in enumerate(ops) if op.expect_failure)
    other = next(i for i, op in enumerate(ops) if not op.expect_failure)
    outputs = run.Outputs()
    outputs.keep(known, ops[known], RuntimeError("known fault"))
    assert outputs.check(lib, ops) == []
    outputs.keep(other, ops[other], RuntimeError("new fault"))
    errors = outputs.check(lib, ops)
    assert len(errors) == 1 and "new fault" in errors[0]
