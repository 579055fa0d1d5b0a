import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import padicradial.radial as radial
import padicradial.vladimirov as vladimirov
from padicradial.cauchy import (EDGE_LEVELS, ProblemSpec, catalog_nonlinearity, residual,
                                solve_problem)
from padicradial.errors import DivergenceError, IndeterminateResidualError, MagnitudeError
from padicradial.fracint import _sweep_below, apply_ialpha
from padicradial.haar import ball_power_integral, p_pow
from padicradial.radial import RadialFunction, TailModel, check_summability
from padicradial.vladimirov import apply_dalpha, apply_dalpha_oracle, d_alpha, dalpha_window

PRIMES = (2, 3, 5)
ALPHAS = (0.5, 1.0, 2.0)


@pytest.mark.parametrize("alpha", (1e-3, 1e-6, 1e-9))
def test_d_alpha_keeps_its_digits_for_small_alpha(alpha):
    # 1 - p^alpha cancels as alpha -> 0; against 50 digits d_alpha is off by a few ulps
    from mpmath import mp, mpf
    with mp.workdps(50):
        p, a = mpf(2), mpf(alpha)
        want = (1 - p ** a) / (1 - p ** (-a - 1))
    got = d_alpha(2, alpha)
    assert abs(got - want) <= 4 * math.ulp(got)


def family(p):
    """Indicator, shifted indicator, and mixed power-law tails."""
    return [
        RadialFunction.indicator_unit_ball(p),
        RadialFunction(p, 0, 0, (1.5,), TailModel.constant(1.5),
                       TailModel.constant(2.5), 1.5),
        RadialFunction.split_power(p, 0.0, -0.5),
        RadialFunction.split_power(p, 0.5, -1.0),
    ]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_coefficient_signs(p, alpha):
    assert d_alpha(p, alpha) < 0


@pytest.mark.parametrize("alpha", (1010.0, 1100.0))
def test_d_alpha_past_the_overflow_guard_is_a_magnitude_error(alpha):
    # alpha ln 2 past the guard of 700: at 1100 expm1 itself would overflow, and at 1010
    # (700.1) it would not, but I^alpha and the kernel constants refuse that alpha too
    u = RadialFunction(2, 0, 0, (1.0,), TailModel.zero(), TailModel.zero(), 0.0)
    for call in (lambda: d_alpha(2, alpha), lambda: apply_dalpha(u, alpha, 0)):
        with pytest.raises(MagnitudeError, match=f"2\\*\\*{alpha} exceeds the overflow guard"):
            call()
    assert d_alpha(2, 1000.0) < 0  # 693.1: inside the guard


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("n", (-6, -1, 0, 3))
def test_constants_annihilated(p, alpha, n):
    u = RadialFunction.constant(p, 7.3)
    assert apply_dalpha(u, alpha, n) == 0.0
    assert apply_dalpha_oracle(u, alpha, n, depth=50) == 0.0


def test_indicator_spot_values():
    omega = RadialFunction.indicator_unit_ball(2)
    # closed form d_alpha p^(-(alpha+1) n) at n = 1
    assert apply_dalpha(omega, 1.0, 1) == pytest.approx(-1.0 / 3.0, rel=1e-13)
    assert apply_dalpha_oracle(omega, 1.0, 1, depth=100) == pytest.approx(-1.0 / 3.0, rel=1e-12)
    # cross-check against the transform-side value at n = 0:
    # integral of |xi|_p over the unit ball
    want = ball_power_integral(2, 2.0, 0)
    assert apply_dalpha(omega, 1.0, 0) == pytest.approx(want, rel=1e-13)
    assert want == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_oracle_spot_p3():
    omega = RadialFunction.indicator_unit_ball(3)
    a = apply_dalpha(omega, 0.5, 2)
    b = apply_dalpha_oracle(omega, 0.5, 2, depth=100)
    assert abs(a - b) <= 1e-12 * (1 + abs(a))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_oracle_equivalence_family(p, alpha):
    for u in family(p):
        for n in range(-8, 9):
            a = apply_dalpha(u, alpha, n)
            b = apply_dalpha_oracle(u, alpha, n, depth=200)
            assert abs(a - b) <= 1e-10 * (1 + abs(a)), (u, n)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_linearity(alpha):
    # functions sharing tail exponents combine into a representable function
    p = 2
    tails = dict(left_tail=TailModel.power_law(1.0, 0.5),
                 right_tail=TailModel.power_law(1.0, -1.0))
    u = RadialFunction(p, -1, 1, (0.5, 1.0, 0.25), **tails)
    v = RadialFunction(p, -1, 1, (-1.0, 2.0, 0.5), **tails)
    a, b = 2.0, -0.75
    w = RadialFunction(
        p, -1, 1, tuple(a * x + b * y for x, y in zip(u.values, v.values)),
        left_tail=TailModel.power_law(a + b, 0.5),
        right_tail=TailModel.power_law(a + b, -1.0),
    )
    for n in range(-5, 6):
        want = a * apply_dalpha(u, alpha, n) + b * apply_dalpha(v, alpha, n)
        assert apply_dalpha(w, alpha, n) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_divergent_right_tail_is_reported():
    alpha = 1.5
    u = RadialFunction(2, 0, 0, (1.0,), right_tail=TailModel.power_law(1.0, alpha + 0.5))
    with pytest.raises(DivergenceError, match="e \\+ rho < 0"):
        apply_dalpha(u, alpha, 0)


def test_divergent_left_tail_is_reported():
    u = RadialFunction(2, 0, 0, (1.0,), left_tail=TailModel.power_law(1.0, -1.5))
    with pytest.raises(DivergenceError, match="e \\+ rho > 0"):
        apply_dalpha(u, 1.0, 0)


def test_oracle_depth_validation():
    u = RadialFunction.indicator_unit_ball(2)
    with pytest.raises(DivergenceError):
        apply_dalpha_oracle(u, 1.0, 0, depth=0)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    alpha=st.floats(0.3, 2.5),
    n=st.integers(-6, 6),
    c=st.floats(-4.0, 4.0),
)
def test_adding_constants_changes_nothing(p, alpha, n, c):
    base = RadialFunction.indicator_unit_ball(p)
    shifted = RadialFunction(
        p, 0, 0, (1.0 + c,),
        left_tail=TailModel.constant(1.0 + c),
        right_tail=TailModel.constant(c),
        value_at_zero=1.0 + c,
    )
    a = apply_dalpha(base, alpha, n)
    b = apply_dalpha(shifted, alpha, n)
    assert b == pytest.approx(a, rel=1e-11, abs=1e-11)


# -- the window pass and the residual that reads it ------------------------------

def _exact_dalpha_window(u, alpha):
    """D^alpha u at every window level from the uncentered series in mpmath,
    with enough digits to absorb its (alpha + 1) |n| log10 p digits of cancellation."""
    from mpmath import mp, mpf

    reach = max(abs(u.k_min), abs(u.k_max), 1)
    with mp.workdps(60 + int((alpha + 1.0) * reach * math.log10(u.p))):
        p, a = mpf(u.p), mpf(alpha)
        lt, rt = u.left_tail, u.right_tail
        lrate = 1 + (lt.rho if lt.kind == "power" else 0)
        rrate = (rt.rho if rt.kind == "power" else 0) - a
        # sum_{k < k_min} p^k u_k and sum_{l > k_max} p^(-a l) u_l in closed form
        left = mpf(lt.c) * p ** (lrate * u.k_min) / (p ** lrate - 1)
        right = mpf(rt.c) * p ** (rrate * (u.k_max + 1)) / (1 - p ** rrate)
        vals = [mpf(v) for v in u.values]
        lefts, rights = [], [None] * len(vals)
        for i, v in enumerate(vals):
            lefts.append(left)
            left += p ** (u.k_min + i) * v
        for i in reversed(range(len(vals))):
            rights[i] = right
            right += p ** (-a * (u.k_min + i)) * vals[i]
        coef = (1 - p ** a) / (1 - p ** (-a - 1)) * (1 - 1 / p)
        out = []
        for i, c in enumerate(vals):
            n = u.k_min + i
            centered_left = lefts[i] - c * p ** n / (p - 1)
            centered_right = rights[i] - c * p ** (-a * (n + 1)) / (1 - p ** -a)
            out.append(coef * (p ** (-(a + 1) * n) * centered_left + centered_right))
        return out


def _rough_function(p, alpha, k_min, width, seed):
    """Values drawn in [-1, 1] with a constant left and a power-law right tail."""
    rng = random.Random(seed)
    values = [rng.uniform(-1.0, 1.0) for _ in range(width)]
    rho = -0.5 * alpha
    return RadialFunction(p, k_min, k_min + width - 1, values,
                          left_tail=TailModel.constant(rng.uniform(-1.0, 1.0)),
                          right_tail=TailModel.power_law(p_pow(p, -rho * (k_min + width)), rho))


@pytest.mark.parametrize("n", (-200, 200))
def test_dalpha_of_a_power_far_from_its_window(n):
    # D^a |x|^s = Gamma_p(s + 1) / Gamma_p(s + 1 - a) |x|^(s - a); at n = 200 the
    # unscaled left sum used to be dropped where p^(-(a+1) n) underflows, and at
    # n = -200 p^(-(a+1) n) overflowed
    p, s, alpha = 7, -0.5, 1.0

    def gamma_p(z):
        return (1.0 - p ** (z - 1.0)) / (1.0 - p ** -z)

    want = gamma_p(s + 1.0) / gamma_p(s + 1.0 - alpha) * float(p) ** ((s - alpha) * n)
    got = apply_dalpha(RadialFunction.power(p, s), alpha, n)
    assert abs(got - want) <= 1e-12 * abs(want)
    if n == 200:
        assert abs(got + 5.1411318157623e-254) <= 1e-12 * 5.1411318157623e-254


@pytest.mark.parametrize("n", (-200, 200))
def test_dalpha_oracle_of_a_power_far_from_its_window(n):
    # the oracle used to return +1.70e-254 at n = 200, where its unscaled
    # p^(-(a+1) n) underflowed, and to raise MagnitudeError at n = -200
    p, s, alpha = 7, -0.5, 1.0

    def gamma_p(z):
        return (1.0 - p ** (z - 1.0)) / (1.0 - p ** -z)

    want = gamma_p(s + 1.0) / gamma_p(s + 1.0 - alpha) * float(p) ** ((s - alpha) * n)
    got = apply_dalpha_oracle(RadialFunction.power(p, s), alpha, n)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_dalpha_oracle_far_above_the_window_sums_no_zero_levels(monkeypatch):
    # its completions below level n once summed every level between the window and n
    calls = []

    def counted(base, e):
        calls.append(e)
        return p_pow(base, e)

    monkeypatch.setattr(radial, "p_pow", counted)
    u = RadialFunction(2, -1, 1, (0.25, 1.0, 0.5), left_tail=TailModel.constant(1.0))
    assert apply_dalpha_oracle(u, 1.5, 10 ** 6, depth=50) == 0.0  # p^(-alpha n) underflows
    assert len(calls) <= 20


@pytest.mark.parametrize("p,alpha,k_min", [(2, 0.5, -30), (3, 1.0, -12), (5, 2.5, 4), (7, 0.05, -3)])
def test_window_pass_matches_apply_dalpha_and_the_oracle(p, alpha, k_min):
    u = _rough_function(p, alpha, k_min, 25, seed=p)
    values, rounding, scales = dalpha_window(u, alpha)
    assert len(values) == len(rounding) == len(scales) == len(u.values)
    for n, value, scale in zip(range(u.k_min, u.k_max + 1), values, scales):
        assert value == apply_dalpha(u, alpha, n)  # bit for bit
        assert scale == p_pow(p, -alpha * n)
        oracle = apply_dalpha_oracle(u, alpha, n)
        assert abs(value - oracle) <= 1e-10 * (1 + abs(value))


@pytest.mark.parametrize("p,alpha,k_min", [(2, 0.5, -120), (3, 1.0, -60), (7, 0.05, -3),
                                           (11, 2.5, -40), (101, 0.2, -100), (2, 1.0, 1040)])
def test_window_rounding_bound_covers_the_error(p, alpha, k_min):
    # at p = 2, alpha = 1 from level 1022 on d_a (1 - 1/p) p^(-alpha n) is subnormal: its
    # absolute rounding once passed the bound, which was 0.0 where the error was 5e-324
    from mpmath import mpf

    u = _rough_function(p, alpha, k_min, 60, seed=k_min)
    values, rounding, _ = dalpha_window(u, alpha)
    exact = _exact_dalpha_window(u, alpha)
    for value, bound, want in zip(values, rounding, exact):
        assert float(abs(mpf(value) - want)) <= bound


def test_window_is_cached_and_apply_dalpha_bypasses_the_cache():
    # the operators write nothing to u; residual keeps its rows in the one memo and reads them
    u = _rough_function(3, 1.5, -10, 20, seed=1)
    before = dict(vars(u))
    assert apply_dalpha(u, 1.5, 0) == apply_dalpha(u, 1.5, 0)
    values, _, _ = dalpha_window(u, 1.5)
    apply_ialpha(u, 1.5, 0)
    assert vars(u) == before
    prob = ProblemSpec(p=3, alpha=1.5, gamma=0.3, u0=0.0, rhs=catalog_nonlinearity("zero", 3))
    est = residual(u, prob, 0, tol=1.0)
    memo = u._residual_memo
    rows = memo[1.5, 0.3]
    assert list(memo) == [(1.5, 0.3)] and len(rows) == 20 - EDGE_LEVELS
    assert rows[10] == (values[10], est.uncertainty)  # p^(gamma 0) = 1
    rows[10] = (values[10] + 1.0, est.uncertainty)
    assert residual(u, prob, 0, tol=1.0).value == est.value + 1.0
    assert apply_dalpha(u, 1.5, 0) == values[10]  # apply_dalpha reads nothing


def _with_tails(u, left, right):
    """u with a zero, constant or power tail on each side: the constant left and power
    right tails are :func:`_rough_function`'s own, the power left tail decays as p^(k/2)
    towards level -inf."""
    p = u.p
    lefts = {"zero": TailModel.zero(), "const": u.left_tail,
             "power": TailModel.power_law(p_pow(p, -0.5 * (u.k_min - 1)), 0.5)}
    rights = {"zero": TailModel.zero(), "const": TailModel.constant(-0.625),
              "power": u.right_tail}
    return RadialFunction(p, u.k_min, u.k_max, u.values,
                          left_tail=lefts[left], right_tail=rights[right])


def _rewindowed(u, lo, hi):
    """u stored on [lo, hi], tail levels evaluated, with u's tails."""
    return RadialFunction(u.p, lo, hi, u.values_on(lo, hi),
                          left_tail=u.left_tail, right_tail=u.right_tail)


@pytest.mark.parametrize("right", ("zero", "const", "power"))
@pytest.mark.parametrize("left", ("zero", "const", "power"))
@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.5))
def test_sub_ranges_inside_the_window_match_the_window_pass(alpha, left, right):
    # every level of the window, both ends included, is the single-level walk bit for bit,
    # for every closed-form seed of the walks
    u = _with_tails(_rough_function(3, alpha, -15, 31, seed=4), left, right)
    values, _, _ = dalpha_window(u, alpha)
    assert len(values) == 31
    assert [apply_dalpha(u, alpha, n).hex() for n in range(u.k_min, u.k_max + 1)] \
        == [v.hex() for v in values]
    # a level outside the window walks from n: it is the window pass over the window
    # widened to n, with the same tails; in a one-level window both walks to its level
    # are empty
    for w in (u, _rewindowed(u, 0, 0), RadialFunction.split_power(3, 0.5, -0.5 * alpha)):
        for n in (w.k_min - 9, w.k_min - 1, w.k_max, w.k_max + 1, w.k_max + 9):
            lo, hi = min(n, w.k_min), max(n, w.k_max)
            widened, _, _ = dalpha_window(_rewindowed(w, lo, hi), alpha)
            assert apply_dalpha(w, alpha, n).hex() == widened[n - lo].hex()


def _damped(x, ratio, terms):
    """[x, then x = x * ratio + t for each t]: one walk of the recurrences."""
    out = [x]
    for t in terms:
        x = x * ratio + t
        out.append(x)
    return out


def _window_by_passes(u, alpha):
    """dalpha_window composed pass by pass from the recurrences of the module docstring:
    Lhat up, Rhat down, p^(-alpha n) per level, the values, then each side's per-step
    rounding terms walked as the values are and joined with the scale; (values, rounding,
    scales) as dalpha_window returns them."""
    coef, p, q, qm1, a, vals, left, right = vladimirov._walk_start(u, alpha, u.k_min, u.k_max)
    b, pm1, lnp, unit = u.k_max, p - 1.0, math.log(u.p), vladimirov._UNIT
    lefts = [left]
    for v, w in zip(vals, vals[1:]):
        left = left / p + (v - w) / pm1
        lefts.append(left)
    down = vals[::-1]
    rights = _damped(right, q, [(v - w) / qm1 for v, w in zip(down, down[1:])])
    values, scale = [], []
    for n, l, r in zip(range(a, b + 1), lefts, reversed(rights)):
        try:
            scale.append(p_pow(u.p, -alpha * n))
            values.append(coef * scale[-1] * (l + r))
        except MagnitudeError:
            scale.append(None)
            values.append(None)
    x = alpha * lnp
    seed_l = vladimirov._seed_rounding(u.left_tail, a, 1.0, lefts[0], vals[0], 1.0 / pm1, lnp)
    err_l = _damped(seed_l, 1.0 / p, [unit * (2.0 * abs(l0) / p + 2.0 * abs(v - w) / pm1 + abs(l1))
                                      for l0, l1, v, w in zip(lefts, lefts[1:], vals, vals[1:])])
    c_q, c_d = 2.0 + 3.0 * x, 3.0 + 2.0 * x / (1.0 - q)
    seed_r = vladimirov._seed_rounding(u.right_tail, b, -alpha, rights[0], vals[-1], 1.0 / qm1,
                                       lnp)
    err_r = _damped(seed_r, q, [unit * (c_q * q * abs(r0) + c_d * abs(v - w) / qm1 + abs(r1))
                                for r0, r1, v, w in zip(rights, rights[1:], down, down[1:])])
    c_coef = 9.0 + (1.0 + 3.0 * x) / (1.0 - q) + 6.0 * (alpha + 1.0) * lnp
    rounding = []
    for n, v, w, l, r in zip(range(a, b + 1), values, scale, lefts, reversed(rights)):
        if v is None:
            rounding.append(None)
            continue
        el, er = err_l[n - a], err_r[b - n]
        bound = abs(coef) * w * (el + er) + unit * (c_coef + 3.0 * abs(n) * x) * abs(v)
        if min(w, abs(coef) * w) < 2.0 ** -1022:  # a subnormal factor rounds by 2^-1074
            bound += ((abs(coef) + 1.0) * (abs(l + r) + el + er) + 1.0) * 2.0 ** -1074
        rounding.append(bound)
    return values, rounding, scale


def _hex(xs):
    return [None if x is None else x.hex() for x in xs]


@pytest.mark.parametrize("right", ("zero", "const", "power"))
@pytest.mark.parametrize("left", ("zero", "const", "power"))
@pytest.mark.parametrize("p, alpha, k_min", [(2, 1.0, -1030), (3, 0.5, -15), (7, 2.5, -8),
                                             (2, 1.0, 1000)])
def test_window_walks_match_the_recurrences_pass_by_pass(p, alpha, k_min, left, right):
    # one walk per side forms each sum with its rounding bound; values and bounds are those
    # of the separate passes bit for bit, for every closed-form seed; at p = 2 the levels
    # below -1009 are past the guard of p^(-alpha n), and are None in both, and from level
    # 1022 on the product d_a (1 - 1/p) p^(-alpha n) = -2^(-n) / 3 is subnormal
    u = _with_tails(_rough_function(p, alpha, k_min, 40, seed=p), left, right)
    values, rounding, scales = dalpha_window(u, alpha)
    want_values, want_rounding, want_scales = _window_by_passes(u, alpha)
    assert _hex(values) == _hex(want_values) and _hex(rounding) == _hex(want_rounding)
    assert _hex(scales) == _hex(want_scales)
    assert (None in values) == (k_min == -1030) and values.count(None) == rounding.count(None)


def test_apply_dalpha_refuses_levels_beyond_double_range():
    with pytest.raises(MagnitudeError, match="p\\^\\(-alpha n\\)"):
        apply_dalpha(RadialFunction.constant(2, 1.0), 1.5, -1000)


def _deep_problem():
    rhs = catalog_nonlinearity("cos-decay", 7, amplitude=0.075, beta=2.5)
    return ProblemSpec(p=7, alpha=1.0, gamma=0.3, u0=1.25, rhs=rhs)


def test_residual_profile_sums_the_seeds_once(monkeypatch):
    calls = {"seeds": 0, "sums": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vladimirov, "_tail_sum", counted(vladimirov._tail_sum, "seeds"))
    monkeypatch.setattr(vladimirov, "_sum", counted(vladimirov._sum, "sums"))
    prob = _deep_problem()
    u = solve_problem(prob, tol=1e-10, extend_to=250).solution
    assert len(u.values) >= 270
    reported = 0
    for n in range(u.k_min, u.k_max + 1):
        try:
            residual(u, prob, n)
            reported += 1
        except IndeterminateResidualError:
            pass
    assert reported >= 250
    assert calls == {"seeds": 2, "sums": 0}  # one closed-form seed per walk


def test_residual_uncertainty_covers_the_dalpha_error():
    # p = 7, alpha = 1, gamma = 0.3: at levels 186-246 the unscaled left sum
    # underflowed, and the error of D^alpha exceeded the reported uncertainty
    from mpmath import mpf

    prob = _deep_problem()
    u = solve_problem(prob, tol=1e-10, extend_to=250).solution
    exact = _exact_dalpha_window(u, prob.alpha)
    reported = 0
    for n in range(u.k_min, u.k_max + 1):
        try:
            est = residual(u, prob, n)
        except IndeterminateResidualError:
            continue
        reported += 1
        weight = mpf(7) ** (mpf(prob.gamma) * n)
        want = weight * exact[n - u.k_min] - mpf(prob.rhs.eval(n, u.value_at(n)))
        assert float(abs(mpf(est.value) - want)) <= est.uncertainty, n
    assert reported >= 250


def test_residual_values_are_the_weighted_single_level_formula_bit_for_bit():
    # the pass shares p^(-alpha n) with the window's join; every certified value is still
    # p^(gamma n) D^alpha u - f formed level by level
    prob = _deep_problem()
    u = solve_problem(prob, tol=1e-10, extend_to=250).solution
    p, alpha, gamma = prob.p, prob.alpha, prob.gamma
    reported = 0
    for n, u_n in zip(range(u.k_min, u.k_max + 1), u.values):
        try:
            est = residual(u, prob, n)
        except IndeterminateResidualError:
            continue
        reported += 1
        want = p_pow(p, gamma * n) * apply_dalpha(u, alpha, n) - prob.rhs.eval(n, u_n)
        assert est.value.hex() == want.hex(), n
    assert reported >= 250


def test_window_and_residuals_cover_the_error_where_the_scale_is_subnormal():
    # p = 2, alpha = 1, gamma = 0.9, f = 0.1 to level 1110: from level 1022 on
    # d_a (1 - 1/p) p^(-alpha n) is subnormal and keeps few bits (5 at level 1070); the
    # window's bound once missed that rounding, and residual certified 30 levels whose
    # value exceeded their uncertainty, -0.1 +- 2.7e-9 at level 1076 among them
    from mpmath import mpf

    prob = ProblemSpec(p=2, alpha=1.0, gamma=0.9, u0=1.0, rhs=catalog_nonlinearity("const", 2))
    u = solve_problem(prob, tol=1e-10, extend_to=1110).solution
    values, rounding, _ = dalpha_window(u, prob.alpha)
    exact = _exact_dalpha_window(u, prob.alpha)
    for n, value, bound, want in zip(range(u.k_min, u.k_max + 1), values, rounding, exact):
        assert float(abs(mpf(value) - want)) <= bound, n
    reported = []
    for n in range(u.k_min, u.k_max + 1):
        try:
            est = residual(u, prob, n)
        except IndeterminateResidualError:
            continue
        reported.append(n)
        weight = mpf(2) ** (mpf(prob.gamma) * n)
        want = weight * exact[n - u.k_min] - mpf(prob.rhs.eval(n, u.value_at(n)))
        assert float(abs(mpf(est.value) - want)) <= est.uncertainty, n
    assert len(reported) >= 130 and reported[-1] > 1040  # subnormal-scale levels among them


# -- the dilation law of the operators --------------------------------------------
#
# v_k = u_(k-s) shifts u's window by s levels; then (D^a v)_n = p^(-a s) (D^a u)_(n-s) and
# (I^a v)_n = p^(a s) (I^a u)_(n-s).  Each side is compared with the other within the
# rounding of the computations alone, never within a fixed tolerance.

def _dilated(u, s):
    """v_k = u_(k-s): the window moved by s levels, a power tail c p^(rho k) turned into
    c p^(-rho s) p^(rho k), constant and zero tails kept."""
    def moved(tail):
        if tail.kind != "power":
            return tail
        return TailModel.power_law(tail.c * p_pow(u.p, -tail.rho * s), tail.rho)

    return RadialFunction(u.p, u.k_min + s, u.k_max + s, u.values, left_tail=moved(u.left_tail),
                          right_tail=moved(u.right_tail), value_at_zero=u.value_at_zero)


def _pow_units(p, e):
    """A bound, in units of 2^-53, on the relative error of p_pow(p, e) = exp(e ln p)."""
    return 2.0 + 2.0 * abs(e) * math.log(p)


@st.composite
def _dilation_case(draw, ialpha):
    """(u, alpha, s): u over p in {2, 3, 5, 7} with dyadic window values (no subnormal
    intermediates) and a zero, constant or power tail on each side, its rates inside what
    the operator's convergence conditions admit; alpha may be 1."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    alpha = draw(st.one_of(st.just(1.0), st.floats(0.2, 3.0)))
    k_min = draw(st.integers(-8, 4))
    values = draw(st.lists(st.integers(-32, 32), min_size=1, max_size=12))
    # the open rate intervals of the left and the right tail, 0.05 inside their boundaries
    lows = (-min(1.0, alpha) if ialpha else -1.0) + 0.05, -2.5
    highs = 2.5, (2.5 if ialpha else alpha - 0.05)
    tails = []
    for lo, hi in zip(lows, highs):
        kind = draw(st.sampled_from(("zero", "const", "power")))
        c = draw(st.integers(-16, 16).filter(bool)) / 8.0
        rho = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
        tails.append({"zero": TailModel.zero(), "const": TailModel.constant(c),
                      "power": TailModel.power_law(c, rho)}[kind])
    u = RadialFunction(p, k_min, k_min + len(values) - 1, [x / 8.0 for x in values],
                       left_tail=tails[0], right_tail=tails[1])
    rep = check_summability(u, alpha)
    assert rep.cond_2_7.holds if ialpha else rep.cond_3_1.holds and rep.cond_3_1_prime.holds
    return u, alpha, draw(st.integers(-30, 30))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_dilation_case(ialpha=False))
def test_dalpha_of_a_dilated_function_is_the_scaled_shifted_image(case):
    # both windows' own rounding bounds, plus that of the factor p^(-alpha s) and of the
    # product: v's power tails hold a rounded c p^(-rho s), whose error the seed bounds of
    # both windows cover, as they take 3 |rho| ln p units per level of their two origins
    u, alpha, s = case
    v = _dilated(u, s)
    factor, unit = p_pow(u.p, -alpha * s), vladimirov._UNIT
    (du, ru, _), (dv, rv, _) = dalpha_window(u, alpha), dalpha_window(v, alpha)
    for n, a, ea, b, eb in zip(range(u.k_min, u.k_max + 1), du, ru, dv, rv):
        want = factor * a
        bound = eb + factor * ea + unit * (_pow_units(u.p, alpha * s) + 1.0) * abs(want)
        assert abs(b - want) <= bound, (n, b, want, bound)


def _ialpha_parts(u, alpha, n):
    """(known, c, last, shift) of apply_ialpha(u, alpha, n) = known + c (last - shift), as
    apply_ialpha reads them from the sweep: the value from the levels below n, the output
    scale of u_n and u_n itself, and p^gamma u_(n-1) (gamma = 0)."""
    start = min(n, u.k_min)
    fs = u.values_on(start, n)
    last = fs.pop()
    sweep = _sweep_below(u, alpha, start)
    sweep.advance(fs)
    known, c, shift = sweep.ahead()
    assert known + c * (last - shift) == apply_ialpha(u, alpha, n)
    return known, c, last, shift


def _ialpha_rounding_weight(u, alpha, n):
    """|known| + |c| (|last| + |shift|): the magnitude a relative rounding of the parts of
    apply_ialpha(u, alpha, n) is taken of."""
    known, c, last, shift = _ialpha_parts(u, alpha, n)
    return abs(known) + abs(c) * (abs(last) + abs(shift))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_dilation_case(ialpha=True))
def test_ialpha_of_a_dilated_function_is_the_scaled_shifted_image(case):
    # up to u's window top the two sweeps take the same steps on the same window values
    # (above it each reads its own rounded right tail), so they differ only where they read
    # the left tail, at the start and the level below it, and in their output scales.  A
    # tail value c p^(rho k) differs from the rounded c p^(-rho s) p^(rho (k + s)) by the
    # units of three powers, and enters linearly: as it does in the parts of I^alpha of the
    # left tail alone (u's window set to 0).  The scales, integer powers of one rounded
    # p^alpha, differ by s of its rounding steps; each side's last products and sum round
    # at most 2 units of its parts
    u, alpha, s = case
    v = _dilated(u, s)
    p, rho = u.p, u.left_tail.rho
    factor, unit = p_pow(p, alpha * s), vladimirov._UNIT
    rate_units = _pow_units(p, alpha * s) + abs(s) * _pow_units(p, alpha) + 3.0
    left = RadialFunction(p, u.k_min, u.k_max, (0.0,) * len(u.values), left_tail=u.left_tail)
    for n in range(u.k_min - 3, u.k_max + 1):
        want = factor * apply_ialpha(u, alpha, n)
        got = apply_ialpha(v, alpha, n + s)
        start = min(n, u.k_min)
        tail_units = max(3.0 + _pow_units(p, rho * s) + _pow_units(p, rho * k)
                         + _pow_units(p, rho * (k + s)) for k in (start - 1, start))
        bound = unit * (rate_units * abs(want)
                        + 2.0 * tail_units * factor * _ialpha_rounding_weight(left, alpha, n)
                        + 2.0 * _ialpha_rounding_weight(v, alpha, n + s)
                        + 2.0 * factor * _ialpha_rounding_weight(u, alpha, n))
        assert abs(got - want) <= bound, (n, got, want, bound)
