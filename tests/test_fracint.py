import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from padicradial.errors import DegenerationError, DivergenceError, DomainError, MagnitudeError
from padicradial.haar import p_pow
from padicradial.radial import RadialFunction, TailModel
from padicradial.vladimirov import apply_dalpha
from padicradial.fracint import (
    _IalphaSweep,
    _kernel_envelope,
    _sweep_below,
    apply_ialpha,
    assemble_fractional_integral,
    bound_constants,
    kernel_constant,
    kernel_constant_oracle,
    power_image_coefficient,
)

PRIMES = (2, 3, 5)
ALPHAS = (0.5, 1.0, 2.0)


def sigma_grid(alpha, points=20):
    boundary = max(-1.0 / alpha, -1.0)
    # spacing chosen so the depth-200 oracle's geometric remainder sits far
    # below 1e-12: the stratum decay rate is alpha (sigma - boundary)
    return [boundary + (0.4 + 0.3 * i) / alpha for i in range(points)]


def test_kernel_spot_values():
    # frozen from the brute-force stratified oracle at depth 800
    assert kernel_constant(2, 2.0, 0.0).d_abs == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert kernel_constant(2, 1.0, 0.0).d_abs == pytest.approx(math.log(2.0), rel=1e-14)
    assert kernel_constant(2, 2.0, -0.25).d_abs == pytest.approx(0.933647700847534, rel=1e-13)
    assert kernel_constant_oracle(2, 2.0, 0.0, 100) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert kernel_constant_oracle(2, 1.0, 0.0, 100) == pytest.approx(math.log(2.0), rel=1e-13)


def test_kernel_boundary_rejected():
    with pytest.raises(DivergenceError, match="max\\(-1/alpha, -1\\)"):
        kernel_constant(2, 2.0, -0.5)
    with pytest.raises(DivergenceError):
        kernel_constant_oracle(2, 0.5, -1.0, 50)


def test_kernel_sign_convention():
    assert kernel_constant(2, 2.0, 0.1).s_signed > 0
    assert kernel_constant(2, 0.5, 0.1).s_signed < 0
    assert kernel_constant(2, 1.0, 0.1).s_signed > 0
    kc = kernel_constant(3, 0.5, 0.3)
    assert kc.s_signed == -kc.d_abs


@pytest.mark.parametrize("p", PRIMES + (1000003,))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_kernel_closed_form_matches_oracle(p, alpha):
    for sigma in sigma_grid(alpha):
        d = kernel_constant(p, alpha, sigma).d_abs
        o = kernel_constant_oracle(p, alpha, sigma, 200)
        assert abs(d - o) <= 1e-12 * abs(d), (p, alpha, sigma)


@pytest.mark.parametrize("p", (2, 7))
@pytest.mark.parametrize("sigma", (0.0, 0.7))
@pytest.mark.parametrize("alpha", (1 - 1e-9, 1 + 1e-9, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6,
                                   0.5, 1.5, 2.5))
def test_kernel_constant_next_to_alpha_one_matches_mpmath(p, sigma, alpha):
    # |1 - p^(alpha - 1)| cancels next to alpha = 1 unless formed by expm1, in the
    # closed form and in each stratum of the oracle; the reference sums the strata at 50 digits
    from mpmath import mp, mpf
    with mp.workdps(50):
        P, a, s = mpf(p), mpf(alpha), mpf(sigma)
        depth = int(80 / ((a * s + min(a, 1)) * mp.log10(P))) + 1  # remainder below 1e-80
        want = (1 - 1 / P) * sum(P ** -nu * abs(1 - P ** ((1 - a) * nu)) * P ** (-a * s * nu)
                                 for nu in range(1, depth + 1))
        assert abs(kernel_constant(p, alpha, sigma).d_abs - want) <= 2e-15 * want
        assert abs(kernel_constant_oracle(p, alpha, sigma) - want) <= 2e-15 * want


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_kernel_envelope_bound(p, alpha):
    boundary = max(-1.0 / alpha, -1.0)
    shared = kernel_constant(p, alpha, boundary + 0.05).a_bound
    for i in range(100):
        sigma = boundary + 0.05 + 0.07 * i
        kc = kernel_constant(p, alpha, sigma)
        assert kc.d_abs * p_pow(p, alpha * sigma) <= shared * (1 + 1e-12)
        assert kc.d_abs * p_pow(p, alpha * sigma) <= kc.a_bound * (1 + 1e-12)
        assert kc.d_abs > 0


@pytest.mark.parametrize("p, alpha, sigma", [(2, 0.5, -0.9999999), (2, 2.0, -0.4999999),
                                             (3, 1.0, -0.99999995)])
def test_kernel_envelope_covers_d_next_to_the_boundary(p, alpha, sigma):
    # a_bound was once the envelope at the boundary plus 1e-6, 10 to 400 times below
    # d_abs * p^(alpha sigma) within 1e-6 of the boundary
    kc = kernel_constant(p, alpha, sigma)
    assert kc.a_bound == _kernel_envelope(p, alpha, sigma)
    assert kc.a_bound >= kc.d_abs * p_pow(p, alpha * sigma)


def test_ialpha_zero_function():
    u = RadialFunction(2, 0, 0, (0.0,))
    for n in (-3, 0, 4):
        assert apply_ialpha(u, 1.5, n) == 0.0


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", (-4, 0, 3))
def test_ialpha_constants_cancel(p, alpha, n):
    # kernel antisymmetry makes I^alpha of a constant vanish; the branch
    # must reproduce the cancellation at the scale of its diagonal term
    c = 2.0
    val = apply_ialpha(RadialFunction.constant(p, c), alpha, n)
    scale = p_pow(p, alpha * (n - 1)) * c
    assert abs(val) <= 1e-13 * scale


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
def test_ialpha_of_a_constant_is_exactly_zero(p, alpha):
    u = RadialFunction.constant(p, 2.0, -4, 3)
    assert [apply_ialpha(u, alpha, n) for n in (-40, -5, 0, 2, 7, 40)] == [0.0] * 6
    assert assemble_fractional_integral(u, alpha, -8, 12).values == (0.0,) * 21


def _ialpha_mpmath(u, alpha, n, depth=300):
    """(I^alpha u)(p^n) from the kernel form of the integral, at 50 digits: the diagonal
    term plus the interior strata k = n - depth .. n - 1 (log kernel at alpha = 1), and
    the sum of the terms' magnitudes, both as mpf.  A power left tail is evaluated in
    mpmath: the double of ``value_at`` rounds a subnormal tail value to a few bits."""
    from mpmath import mp, mpf
    with mp.workdps(50):
        p, a, tail = mpf(u.p), mpf(alpha), u.left_tail

        def value(k):
            if k < u.k_min and tail.kind == "power":
                return mpf(tail.offset) + mpf(tail.c) * p ** (mpf(tail.rho) * k)
            return mpf(u.value_at(k))

        diag = p ** (a * (n - 1)) * value(n)
        terms = []
        for k in range(n - depth, n):
            if alpha == 1.0:
                kernel = (1 - p) / p * (n - k)
            else:
                kernel = (1 - p ** -a) / (1 - p ** (a - 1)) * (p ** ((a - 1) * n) - p ** ((a - 1) * k))
            terms.append((1 - 1 / p) * p ** k * kernel * value(k))
        return diag + sum(terms), abs(diag) + sum(abs(t) for t in terms)


def _within_mpmath_bound(got, want, scale):
    """|got - want| <= 1e-14 scale, plus one subnormal step where that bound underflows."""
    from mpmath import mp, mpf
    with mp.workdps(50):
        return abs(got - want) <= mpf(1e-14) * scale + mpf(2) ** -1074


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), delta=st.floats(-1e-6, 1e-6),
       k_min=st.integers(-5, 5), values=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=10),
       c=st.floats(-2.0, 2.0), rho=st.one_of(st.just(0.0), st.floats(-0.4, 0.8)),
       offset=st.integers(-3, 13))
@example(p=2, delta=1e-13, k_min=0, values=[1.0], c=1.0, rho=0.5, offset=0)
@example(p=5, delta=0.0, k_min=-5, values=[0.0], c=7.89748286542269e-305, rho=0.0, offset=0)
@example(p=2, delta=0.0, k_min=0, values=[0.0], c=2.225073858507e-311, rho=0.5, offset=0)
def test_ialpha_next_to_alpha_one_matches_mpmath(p, delta, k_min, values, c, rho, offset):
    # the kernel's 1 - p^(alpha - 1) division cancels next to alpha = 1; the walk has none
    left = TailModel.constant(c) if rho == 0.0 else TailModel.power_law(c, rho)
    u = RadialFunction(p, k_min, k_min + len(values) - 1, values, left_tail=left)
    n = k_min - 3 + offset
    want, scale = _ialpha_mpmath(u, 1.0 + delta, n)
    assert _within_mpmath_bound(apply_ialpha(u, 1.0 + delta, n), want, scale)


@pytest.mark.xfail(strict=True, reason="the I^alpha walk loses digits through subnormal "
                   "intermediates: FOUND in CHANGES.md, ROADMAP direction 3")
def test_ialpha_keeps_a_normal_result_with_subnormal_intermediates():
    # I^1 of 2^-1022 at level 0 is -5.69618907777844e-308 at level 4, a normal double, but
    # the walk's Bc and Gc go subnormal on the way: it returns -5.696189077778261e-308
    u = RadialFunction(5, 0, 0, [2.2250738585072014e-308])
    want, scale = _ialpha_mpmath(u, 1.0, 4)
    assert _within_mpmath_bound(apply_ialpha(u, 1.0, 4), want, scale)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
def test_ialpha_of_an_offset_tail_matches_mpmath(p, alpha):
    # I^alpha annihilates the offset of offset + c p^(rho k), so the sweep is seeded with
    # the state of the power part alone, and steps from the tail's full value; levels below,
    # at and above the window's floor, apply_ialpha and assembly alike
    values = (1.25, 1.5, 0.75, -0.5, 1.0, 2.0)
    for rho in (-0.3, 0.4):
        u = RadialFunction(p, -3, 2, values, left_tail=TailModel.power_law(-0.3, rho, 1.125))
        levels = range(-8, 4)
        assembled = assemble_fractional_integral(u, alpha, -8, 3).values
        for n, got in zip(levels, assembled):
            want, scale = _ialpha_mpmath(u, alpha, n)
            assert _within_mpmath_bound(apply_ialpha(u, alpha, n), want, scale), (rho, n)
            assert got == apply_ialpha(u, alpha, n)


def test_ialpha_power_law_golden():
    # u(|y|) = |y|^-0.5 at p = 2, alpha = 2: coefficient frozen from the
    # depth-800 stratified oracle (and from kernel_constant independently)
    u = RadialFunction.power(2, -0.5)
    coeff = -0.45023577563565054
    assert power_image_coefficient(2, 2.0, -0.5) == pytest.approx(coeff, rel=1e-14)
    for n in (-2, 0, 1, 3):
        want = coeff * p_pow(2, 1.5 * n)
        assert apply_ialpha(u, 2.0, n) == pytest.approx(want, rel=1e-12)


def test_ialpha_power_law_golden_alpha_one():
    # log-kernel branch, rho = -0.25, p = 2: frozen from the stratified sum
    u = RadialFunction.power(2, -0.25)
    coeff = -0.4044980717767187
    assert power_image_coefficient(2, 1.0, -0.25) == pytest.approx(coeff, rel=1e-13)
    for n in (-2, 0, 2):
        want = coeff * p_pow(2, 0.75 * n)
        assert apply_ialpha(u, 1.0, n) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p, alpha, rho", [(5, 2.0, 300.0), (5, 2.0, 440.0), (5, 2.0, 600.0),
                                            (3, 1.0, 700.0), (2, 0.5, 1030.0)])
def test_power_image_of_a_steep_left_tail_matches_mpmath(p, alpha, rho):
    # the tail seed's expm1((alpha + rho) ln p) overflows a double in all but the first case
    from mpmath import mp, mpf
    with mp.workdps(50):
        P, a = mpf(p), mpf(alpha)
        if alpha == 1.0:
            kernel = [(1 - P) / P * -k for k in range(-30, 0)]
        else:
            kernel = [(1 - P ** -a) / (1 - P ** (a - 1)) * (1 - P ** ((a - 1) * k))
                      for k in range(-30, 0)]
        want = P ** -a + sum((1 - 1 / P) * P ** k * w * P ** (mpf(rho) * k)
                             for w, k in zip(kernel, range(-30, 0)))
    assert power_image_coefficient(p, alpha, rho) == pytest.approx(float(want), rel=1e-14)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("rho", (-0.4, 0.2))
def test_ialpha_homogeneity(p, alpha, rho):
    u = RadialFunction.power(p, rho)
    step = p_pow(p, alpha + rho)
    for n in (-3, 0, 2):
        a = apply_ialpha(u, alpha, n)
        b = apply_ialpha(u, alpha, n + 1)
        assert b / a == pytest.approx(step, rel=1e-12)


def test_ialpha_divergence_reported():
    u = RadialFunction(2, 0, 0, (1.0,), left_tail=TailModel.power_law(1.0, -1.2))
    with pytest.raises(DivergenceError):
        apply_ialpha(u, 1.0, 0)


def test_bound_constants_gamma_zero():
    p, alpha = 2, 2.0
    c_n = bound_constants(p, alpha, 0.0)
    ratio = abs((1 - p_pow(p, -alpha)) / (1 - p_pow(p, alpha - 1)))
    want = p_pow(p, -alpha) + ratio * kernel_constant(p, alpha, 0.0).d_abs
    assert c_n(0) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_bound_constants_uniform(p, alpha):
    gamma = 0.4 * min(1.0, alpha)
    c_n = bound_constants(p, alpha, gamma)
    for n in range(51):
        assert 0 < c_n(n) <= c_n(0) * (1 + 1e-12)


def test_bound_constants_refuse_a_negative_index():
    c_n = bound_constants(2, 1.5, 0.25)
    with pytest.raises(DivergenceError, match="^bound constant index must be >= 0, got -1$"):
        c_n(-1)


@pytest.mark.parametrize("p", (2, 3, 7))
@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
def test_c_uniform_is_c_0_and_bounds_every_c_n_next_to_degeneration(p, alpha):
    # c_n falls with n, so c_0 bounds them all with no slack; a sigma_0 clamped 1e-6 above
    # the boundary once put the uniform constant 500 times below c_0 at alpha = 0.5
    c_n = bound_constants(p, alpha, (1.0 - 1e-9) * min(1.0, alpha))
    assert all(c_n(n) <= c_n(0) for n in range(51))


def test_a_denominator_within_rounding_of_the_boundary_is_a_divergence():
    # sigma = -1 + 2^-53 at alpha = 0.5 is above the boundary -1, but p^alpha - p^(-alpha s)
    # rounds to 0: once a ZeroDivisionError, in the kernel constants and the bound constants
    with pytest.raises(DivergenceError, match="within rounding of the boundary"):
        kernel_constant(2, 0.5, -0.9999999999999999)
    with pytest.raises(DivergenceError, match="within rounding of the boundary"):
        bound_constants(2, 0.5, 0.49999999999999994)(0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_bound_constants_gamma_gate(alpha):
    with pytest.raises(DegenerationError):
        bound_constants(2, alpha, min(1.0, alpha))
    with pytest.raises(DegenerationError):
        bound_constants(2, alpha, -0.1)


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_right_inverse_identity(p, alpha):
    members = [
        RadialFunction.indicator_unit_ball(p),
        RadialFunction.split_power(p, 0.0, -0.5),
        RadialFunction.split_power(p, 0.5, -1.0),
    ]
    for v in members:
        vmax = max(abs(v.value_at(k)) for k in range(-10, 11))
        iv = assemble_fractional_integral(v, alpha)
        for n in range(-8, 9):
            got = apply_dalpha(iv, alpha, n)
            assert abs(got - v.value_at(n)) <= 1e-8 * (1 + vmax), (v, n)


def test_assembly_rejects_window_above_v():
    v = RadialFunction.indicator_unit_ball(2)
    with pytest.raises(DivergenceError):
        assemble_fractional_integral(v, 1.0, k_lo=5, k_hi=20)


def test_assembly_of_a_window_wholly_below_v():
    # the one-pass part reads v.values_on(0, -3), which once returned 9 stored values
    v = RadialFunction(2, 0, 10, tuple(1.0 / (1 + k) for k in range(11)),
                       left_tail=TailModel.constant(1.0))
    iv = assemble_fractional_integral(v, 1.5, k_lo=-20, k_hi=-3)
    assert (iv.k_min, iv.k_max) == (-20, -3)
    assert iv.value_at(-3) == apply_ialpha(v, 1.5, -3)


def test_kernel_constant_rejects_nan():
    with pytest.raises(DomainError, match="finite"):
        kernel_constant(2, math.nan, 0)
    with pytest.raises(DomainError, match="finite"):
        bound_constants(2, 1.5, math.inf)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5, 2.5))
def test_assembly_is_bit_identical_to_per_level_ialpha(alpha):
    # the one-pass assembly sums in the same order as apply_ialpha, level by level
    p = 3
    funcs = [
        RadialFunction.indicator_unit_ball(p),
        RadialFunction.split_power(p, 0.5, -1.0, c=-0.7),
        RadialFunction(p, -6, 4, tuple(math.sin(1.3 * k) for k in range(11)),
                       left_tail=TailModel.constant(0.25), right_tail=TailModel.power_law(0.5, -1.5)),
        RadialFunction(p, -3, 5, tuple(0.1 * k for k in range(9))),
    ]
    for v in funcs:
        for k_lo, k_hi in ((v.k_min - 7, v.k_max + 9), (v.k_min, v.k_max), (v.k_min - 4, v.k_min - 1)):
            iv = assemble_fractional_integral(v, alpha, k_lo=k_lo, k_hi=k_hi)
            assert iv.values == tuple(apply_ialpha(v, alpha, n) for n in range(k_lo, k_hi + 1))


def _per_level(sweep, phis):
    """I^alpha at each next level, read from ahead, stepping one level at a time."""
    out = []
    for phi in phis:
        known, c, shift = sweep.ahead()
        out.append(known + c * (phi - shift))
        sweep.advance((phi,))
    return out


def _one_pass(sweep, phis):
    sweep.advance(phis)
    return []


def _pass_outcome(run, sweep, phis):
    """(values or the error's type and text, the level and state left behind)."""
    try:
        got = [x.hex() for x in run(sweep, phis)]
    except MagnitudeError as err:
        got = (type(err), str(err))
    return got, sweep.level, [x.hex() for x in sweep.state]


_SINE = RadialFunction(3, -9, 12, tuple(math.sin(1.3 * k) for k in range(22)),
                       left_tail=TailModel.power_law(0.25, 0.3),
                       right_tail=TailModel.power_law(0.5, -1.5))


@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
def test_window_pass_matches_value_then_push(alpha):
    # seeded as apply_ialpha seeds it, over levels that cross 0: one advance over the levels
    # leaves the state one level at a time leaves, bit for bit, and the values read ahead of
    # each step are apply_ialpha's
    v, levels = _SINE, range(-9, 13)
    phis = [v.value_at(n) for n in levels]
    seeded = [_sweep_below(v, alpha, levels.start) for _ in range(2)]
    assert seeded[0].level == -10 and 0.0 not in seeded[0].state
    values, *left = _pass_outcome(_per_level, seeded[1], phis)
    assert values == [apply_ialpha(v, alpha, n).hex() for n in levels]
    assert _pass_outcome(_one_pass, seeded[0], phis)[1:] == tuple(left)
    # shorter inputs stop the pass early, as the loop stops
    short = [_sweep_below(v, alpha, levels.start) for _ in range(2)]
    assert _pass_outcome(_one_pass, short[0], phis[:5])[1:] \
        == _pass_outcome(_per_level, short[1], phis[:5])[1:]


@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
def test_window_pass_past_the_guard_raises_at_the_same_level(alpha):
    # p^(alpha k) leaves the double range 20 levels up: one advance raises what reading one
    # level at a time raises at the first level past it, but before stepping, so it stays at
    # the start
    v = RadialFunction.constant(2, 1.0)
    top = math.floor(700.0 / (alpha * math.log(2.0)))
    levels = range(top - 20, top + 20)
    phis = [2.0 ** -k for k in levels]
    sweeps = [_sweep_below(v, alpha, levels.start) for _ in range(3)]
    assert sweeps[0].top == top
    got = _pass_outcome(_one_pass, sweeps[0], phis)
    want = _pass_outcome(_per_level, sweeps[1], phis)
    assert got[0] == want[0] and got[0][0] is MagnitudeError and want[1] == top
    assert got[1:] == (levels.start - 1, [x.hex() for x in sweeps[2].state])


@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
@pytest.mark.parametrize("m", (0, 1, 9, 21, 22))
def test_advance_then_window_matches_one_window(alpha, m):
    # advance steps as reading each level does, forming no value: the rest of the pass is
    # bit-identical
    v, levels = _SINE, range(-9, 13)
    phis = [v.value_at(n) for n in levels]
    whole, split = _sweep_below(v, alpha, levels.start), _sweep_below(v, alpha, levels.start)
    want = _per_level(whole, phis)[m:]
    split.advance(phis[:m])
    assert split.level == levels.start - 1 + m
    got = _per_level(split, phis[m:])
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert split.level == whole.level
    assert [x.hex() for x in split.state] == [x.hex() for x in whole.state]


# the function of tools/output_digest.py's u.txt: p = 3 on [-12, 12]
_DIGEST_U = RadialFunction(3, -12, 12, tuple(0.75 + 0.1 * ((7 * k) % 11 - 5) / (1 + abs(k))
                                             for k in range(-12, 13)),
                           left_tail=TailModel.constant(0.75), right_tail=TailModel.power_law(0.5, -0.8))


@pytest.mark.parametrize("n", (425, 426, 430))
def test_single_level_ialpha_past_the_guard_names_the_first_level_past_it(n):
    # 3^(1.5 k) leaves the double range at k = 425: a level above it raises there, not at n
    assert math.isfinite(apply_ialpha(_DIGEST_U, 1.5, 424))
    with pytest.raises(MagnitudeError, match="^power 3\\*\\*637\\.5 exceeds the overflow guard"):
        apply_ialpha(_DIGEST_U, 1.5, n)
    # a window that starts past the guard raises at its start
    high = RadialFunction(3, 500, 501, (1.0, 2.0))
    with pytest.raises(MagnitudeError, match="^power 3\\*\\*750\\.0 exceeds"):
        apply_ialpha(high, 1.5, 600)


def test_apply_ialpha_writes_nothing_to_u():
    before = dict(vars(_DIGEST_U))
    assert apply_ialpha(_DIGEST_U, 1.5, 3) == apply_ialpha(_DIGEST_U, 1.5, 3)
    assert vars(_DIGEST_U) == before


def _sweep_at(alpha, gamma, below_top):
    """A sweep at p = 2 stepped up to ``below_top`` levels under its top."""
    top = _IalphaSweep(2, alpha, gamma, 0).top
    sweep = _IalphaSweep(2, alpha, gamma, top - 7)
    sweep.advance([0.5 + 0.125 * k for k in range(8 - below_top)])
    assert sweep.level == top - below_top
    return sweep


@pytest.mark.parametrize("alpha, gamma", ((0.5, 0.0), (1.0, 0.3), (1.5, 0.25)))
def test_sweep_steps_past_the_top_raise_at_the_first_level_past_it(alpha, gamma):
    # ahead and advance test the range inline: a step that stays at or below top forms
    # no power of the guard, and one past it raises at top + 1, before stepping
    first_past = re.escape(f"power 2**{(alpha - gamma) * (_sweep_at(alpha, gamma, 0).top + 1)} ")
    sweep = _sweep_at(alpha, gamma, 1)
    assert all(math.isfinite(x) for x in sweep.ahead())
    sweep.advance((0.25,))
    with pytest.raises(MagnitudeError, match="^" + first_past):
        sweep.ahead()
    for fs in ((0.25,) * 4, [0.25] * 9):
        sweep = _sweep_at(alpha, gamma, 3)
        level, state = sweep.level, sweep.state
        with pytest.raises(MagnitudeError, match="^" + first_past):
            sweep.advance(fs)
        assert sweep.level == level and sweep.state == state
    sweep.advance((0.25,) * 3)  # ends exactly at top
    assert sweep.level == sweep.top and sweep.state != state
