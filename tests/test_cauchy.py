import math
import re
import sys
from dataclasses import replace
from itertools import islice

import pytest

from padicradial.errors import (
    BudgetError,
    ContractionError,
    DegenerationError,
    DivergenceError,
    DomainError,
    IndeterminateResidualError,
    MagnitudeError,
    MetadataError,
    NonConvergenceError,
)
import padicradial.cauchy as cauchy
from padicradial import haar
from padicradial.haar import ball_power_integral, p_pow
from padicradial.radial import RadialFunction, TailModel, check_summability, weighted_sum_left
from padicradial.fracint import _IalphaSweep, kernel_constant_oracle, power_image_coefficient
from padicradial.cauchy import (
    Nonlinearity,
    ProblemSpec,
    _choose_window_floor,
    _radius_from_constants,
    catalog_nonlinearity,
    check_global_hypotheses,
    choose_local_radius,
    picard_solve,
    residual,
    solve_problem,
)


def catalog_problem(alpha=1.5, beta=2.0):
    rhs = catalog_nonlinearity("cos-decay", 2, amplitude=0.1, beta=beta)
    return ProblemSpec(p=2, alpha=alpha, gamma=0.25, u0=1.0, rhs=rhs)


def march_at(prob, N, top, tol=1e-12):
    """The solve's march to ``top`` from a local radius N the caller chose, its floor
    reserved for top + 1: what solve_problem runs with its own N."""
    return cauchy._march(prob, N, top, tol, 1000, top + 1)


def _truncation_bound(problem, k_cut, start):
    """rem(n) of cauchy._truncation_constants for n = start, start + 1, ..., one step each:
    the per-level oracle of the window floor's closed-form sum; the walk up to start forms
    no power."""
    p = problem.p
    c, h, r = cauchy._truncation_constants(problem)
    e = (problem.alpha - problem.gamma) * (k_cut - 1)
    flat = cauchy._scaled_power(c, p, e) / r
    walk = islice(cauchy._kernel_walk(p, problem.alpha), start - k_cut, None)
    for m, (s, _) in enumerate(walk, start - k_cut + 1):
        yield cauchy._scaled_power(c, p, e + h * m) * s + flat


# -- metadata and problem construction ---------------------------------------

def test_nonlinearity_validation():
    with pytest.raises(DomainError):
        Nonlinearity(eval=lambda k, x: 0.0, bound_M=0.0, lipschitz_F=0.0)
    with pytest.raises(DomainError):
        Nonlinearity(eval=lambda k, x: 0.0, bound_M=1.0, lipschitz_F=-1.0)
    for amplitude in (0.0, -0.5):
        message = f"^decay amplitude must be positive, got {amplitude}$"
        with pytest.raises(DomainError, match=message):
            Nonlinearity(eval=lambda k, x: 0.0, bound_M=1.0, lipschitz_F=0.0,
                         decay=(amplitude, 2.0))


def test_spot_check_rejects_wrong_bound():
    bad = Nonlinearity(eval=lambda k, x: math.cos(x), bound_M=0.5, lipschitz_F=1.0)
    with pytest.raises(MetadataError, match="bound_M"):
        bad.spot_check(2)


def test_spot_check_rejects_wrong_lipschitz():
    bad = Nonlinearity(eval=lambda k, x: math.sin(3.0 * x), bound_M=1.0, lipschitz_F=0.5)
    with pytest.raises(MetadataError, match="Lipschitz"):
        bad.spot_check(2)


def test_spot_check_rejects_wrong_decay():
    bad = Nonlinearity(eval=lambda k, x: 0.5, bound_M=1.0, lipschitz_F=0.0,
                       decay=(0.5, 2.0))
    with pytest.raises(MetadataError, match="decay"):
        bad.spot_check(2)


def _counted(eval_):
    calls = []

    def counted(k, x):
        calls.append((k, x))
        return eval_(k, x)
    return counted, calls


def test_spot_check_reads_the_decay_samples_from_the_grid():
    # 25 levels of 41 points; the decay samples at levels 1..12 are evaluated once
    counted, calls = _counted(catalog_nonlinearity("cos-decay", 3).eval)
    Nonlinearity(eval=counted, bound_M=0.1, lipschitz_F=0.1, decay=(0.1, 2.0)).spot_check(3)
    assert len(calls) == 25 * 41 and len(set(calls)) == len(calls)
    # the same decision and message at the same level, at the level's first sample
    for k_bad in (1, 7, 12):
        counted, calls = _counted(lambda k, x: 0.5 if k == k_bad else 0.0)
        bad = Nonlinearity(eval=counted, bound_M=1.0, lipschitz_F=0.0, decay=(0.5, 2.0))
        with pytest.raises(MetadataError, match=f"^declared decay \\(A=0.5, beta=2.0\\) "
                                                f"violated at level {k_bad}$"):
            bad.spot_check(2)
        assert len(calls) == (k_bad + 12) * 41 + 1


def test_spot_check_tests_every_sample_against_the_decay_envelope():
    # one sample at level 3 is 64 times the envelope 0.5 * 2^-6, far below bound_M
    bad = Nonlinearity(eval=lambda k, x: 0.5 if (k == 3 and x == -7.6) else 0.0,
                       bound_M=1.0, lipschitz_F=2.0, decay=(0.5, 2.0))
    with pytest.raises(MetadataError, match=r"^declared decay \(A=0.5, beta=2.0\) "
                                            r"violated at level 3$"):
        bad.spot_check(2)


@pytest.mark.parametrize("value, message", [
    (math.nan, "is not finite"), (math.inf, "is not finite"), (2.0, "bound_M = 1.0 violated")])
def test_spot_check_names_the_cap_a_sample_breaks(value, message):
    # above bound_M the bound is named even where the decay envelope is lower
    bad = Nonlinearity(eval=lambda k, x: value if k == 3 else 0.0, bound_M=1.0,
                       lipschitz_F=0.0, decay=(0.5, 2.0))
    with pytest.raises(MetadataError, match=message):
        bad.spot_check(2)


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_spot_check_admits_its_bounds_exactly_on_both_sides(sign):
    # a sample at +-cap and a neighbour difference of +-step pass; one ulp beyond each is
    # refused with the message of the cap or bound it breaks
    xs = [-8.0 + 16.0 * i / 40.0 for i in range(41)]
    dx = xs[1] - xs[0]
    step = (1.0 + 1e-9) * dx + 1e-9  # F = 1
    # bound_M = 1 and the decay's envelope at level 2, each plus the slack 1e-9 max(1, bound_M)
    cap_0 = 1.0 + 1e-9
    cap_2 = min(1.0, 0.5 * p_pow(2, -2.0 * 2)) + 1e-9

    def nonlinearity(at_0, at_2, spike):
        # at_0 on level 0, at_2 on level 2, and a spike at x = 0 of level -1 between zeros
        def f(k, x):
            if k == 0:
                return at_0
            if k == 2:
                return at_2
            return spike if k == -1 and x == 0.0 else 0.0
        return Nonlinearity(eval=f, bound_M=1.0, lipschitz_F=1.0, decay=(0.5, 2.0))

    def beyond(x):
        return math.nextafter(x, math.inf)

    nonlinearity(sign * cap_0, sign * cap_2, sign * step).spot_check(2)
    refusals = [
        (nonlinearity(sign * beyond(cap_0), 0.0, 0.0),
         f"declared bound_M = 1.0 violated: |f(p^0, -8.0)| = {beyond(cap_0)}"),
        (nonlinearity(0.0, sign * beyond(cap_2), 0.0),
         "declared decay (A=0.5, beta=2.0) violated at level 2"),
        # past the decay's cap the refusal names bound_M only beyond its own cap
        (nonlinearity(0.0, sign * cap_0, 0.0),
         "declared decay (A=0.5, beta=2.0) violated at level 2"),
        (nonlinearity(0.0, sign * beyond(cap_0), 0.0),
         f"declared bound_M = 1.0 violated: |f(p^2, -8.0)| = {beyond(cap_0)}"),
        (nonlinearity(0.0, 0.0, sign * beyond(step)),
         f"declared Lipschitz bound violated near (p^-1, 0.0): |df| = {beyond(step)} "
         f"over dx = {dx}"),
    ]
    for bad, message in refusals:
        with pytest.raises(MetadataError, match=f"^{re.escape(message)}$"):
            bad.spot_check(2)


@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0))
def test_degeneration_gate(alpha):
    rhs = catalog_nonlinearity("zero", 2)
    edge = min(1.0, alpha)
    with pytest.raises(DegenerationError):
        ProblemSpec(p=2, alpha=alpha, gamma=edge, u0=0.0, rhs=rhs)
    with pytest.raises(DegenerationError):
        ProblemSpec(p=2, alpha=alpha, gamma=edge + 0.1, u0=0.0, rhs=rhs)
    ok = ProblemSpec(p=2, alpha=alpha, gamma=edge - 1e-6, u0=0.0, rhs=rhs)
    assert ok.gamma == edge - 1e-6


def test_non_finite_parameters_rejected():
    rhs = catalog_nonlinearity("zero", 2)
    for bad in ({"gamma": math.nan}, {"alpha": math.nan}, {"alpha": math.inf},
                {"u0": math.nan}, {"u0": -math.inf}):
        args = {"p": 2, "alpha": 1.5, "gamma": 0.25, "u0": 1.0, **bad}
        with pytest.raises(DomainError, match="finite"):
            ProblemSpec(rhs=rhs, **args)
    for bad in ({"bound_M": math.inf}, {"lipschitz_F": math.nan},
                {"decay": (math.nan, 2.0)}, {"decay": (1.0, math.inf)}):
        args = {"bound_M": 1.0, "lipschitz_F": 0.0, **bad}
        with pytest.raises(DomainError, match="finite"):
            Nonlinearity(eval=lambda k, x: 0.0, **args)


# -- local radius ---------------------------------------------------------------

def test_radius_from_constants_exact_boundary():
    # 2 * 1 * 2^(0.5 N) <= 1/2 exactly at N = -4
    assert _radius_from_constants(2.0, 1.0, 2, 0.5) == -4
    # 1 * F * 2^N <= 1/2 holds up to N = 3 - 5e-10: the guess floor(t + 1e-9) is 3, one past it
    assert _radius_from_constants(1.0, 0.5 * 2.0 ** -(3 - 5e-10), 2, 1.0) == 2


def test_radius_zero_lipschitz_hits_cap():
    assert _radius_from_constants(1.0, 0.0, 2, 1.0, n_cap=8) == 8
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=0.0,
                       rhs=catalog_nonlinearity("zero", 2))
    assert choose_local_radius(prob) == 8


def test_radius_search_starts_at_the_cap():
    # F = 1e-310 puts the logarithmic guess near N = 1028; the search once formed
    # 2^(1.25 * 823) there, past the overflow guard, before capping N at 8
    assert _radius_from_constants(1.0, 1e-310, 2, 1.25) == 8
    rhs = Nonlinearity(eval=lambda k, x: 1e-310 * math.sin(x), bound_M=1.0, lipschitz_F=1e-310)
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=rhs)
    assert choose_local_radius(prob) == 8
    assert solve_problem(prob, extend_to=10).local_radius_N == 8


def test_radius_infeasible():
    # N has no floor: 1e30 * 1e30 * 2^(N / 2) <= 1/2 first holds at N = -401
    assert _radius_from_constants(1e30, 1e30, 2, 0.5) == -401


# -- window floor ------------------------------------------------------------------

@pytest.mark.parametrize("p, alpha, gamma", [(2, 0.5, 0.2), (2, 1.0, 0.3), (3, 1.5, 0.3),
                                             (7, 1.0, 0.3), (5, 2.5, 0.6)])
def test_window_budget_closed_form_matches_level_sum(p, alpha, gamma):
    prob = ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", p, amplitude=0.1, beta=2.5))
    for n_top in (0, 40, 251):
        k_min, budget = _choose_window_floor(prob, n_top, 1e-10)
        assert budget <= 1e-11
        levels = sum(islice(_truncation_bound(prob, k_min, k_min), n_top - k_min + 1))
        assert budget == pytest.approx(levels, rel=1e-13)
        # the candidate before K_min does not certify
        before = _truncation_bound(prob, k_min + 4, k_min + 4)
        assert sum(islice(before, n_top - k_min - 3)) > 1e-11 \
            or k_min + 4 > min(n_top, 0) - 8


@pytest.mark.parametrize("p, alpha, gamma, extend_to, k_min", [
    (3, 0.5, 0.2, 392, -92),
    (2, 1.5, 0.25, 250, -216),
    (2, 0.3, 0.18, None, -364),
])
def test_deep_targets_certify_without_a_level_cap(p, alpha, gamma, extend_to, k_min):
    prob = ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", p, amplitude=0.1, beta=2.0))
    rep = solve_problem(prob, tol=1e-10, extend_to=extend_to)
    N, k_max = rep.local_radius_N, rep.solution.k_max
    assert rep.solution.k_min == k_min
    assert k_max == (extend_to if extend_to is not None else N + 35)
    assert rep.truncation_budget <= 1e-10
    # the floor's sum covers every continuation level's remainder, so the solve
    # reports picard_solve's budget for the same top as it is
    floor, floor_sum = _choose_window_floor(prob, k_max + 1, 1e-10)
    rems = list(islice(_truncation_bound(prob, k_min, N + 1), k_max - N))
    assert floor == k_min and max(rems) <= floor_sum <= 1e-11
    assert rep.truncation_budget == picard_solve(
        prob, N, 1e-10, reserve_top=k_max + 1).truncation_budget


@pytest.mark.parametrize("rhs, alpha, gamma", [
    ("zero", 0.5, 0.5 - 1e-9),
    ("const", 1e-6, 0.0),
])
def test_window_floor_stops_at_the_work_limit(rhs, alpha, gamma):
    # with alpha - gamma at 1e-9 or 1e-6 the budget decays like p^((alpha - gamma) K), so
    # the floor would lie millions of levels down; the search refuses past MAX_WINDOW
    # levels, naming the limit and the bound at the last candidate, 99 997 levels wide
    prob = ProblemSpec(p=2, alpha=alpha, gamma=gamma, u0=1.0,
                       rhs=catalog_nonlinearity(rhs, 2))
    limit = f"work limit of {cauchy.MAX_WINDOW} window levels "
    with pytest.raises(BudgetError, match=re.escape(limit) + r"\(bound \S+ at K_min = -99952\)"):
        solve_problem(prob, tol=1e-10)


@pytest.mark.parametrize("p, alpha, gamma, rhs, N, width", [
    (2, 0.05, 0.025, "cos-decay", 8, 1848),
    (2, 1.7, 0.99, "cos-decay", -6, 6222),
    (2, 0.3, 0.297, "cos-decay", -1520, 16556),
    (2, 0.3, 0.297, "const", 8, 18124),
    (2, 0.5, 0.499, "const", 8, 58596),
])
def test_deep_regimes_solve_within_the_work_limit(p, alpha, gamma, rhs, N, width):
    # a tiny alpha, gamma at 0.99 min(1, alpha), and N far below level -60 all certify; each
    # window reaches past the level where p^(-gamma k) or p^((alpha - 1) k) leaves the double
    # range, which the level-scaled sweep never forms
    prob = ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=1.0,
                       rhs=catalog_nonlinearity(rhs, p))
    rep = solve_problem(prob, tol=1e-10)
    assert rep.local_radius_N == N and len(rep.solution.values) == width
    assert rep.truncation_budget <= 1e-10


def test_q_is_formed_in_the_radius_searchs_order():
    # c_uniform F = 6.7 * 1e308 overflows; F p^(N (alpha - gamma)) does not, so the local
    # ball contracts at the radius the search returns
    rhs = Nonlinearity(eval=lambda k, x: math.cos(x), bound_M=1.0, lipschitz_F=1e308)
    prob = ProblemSpec(p=2, alpha=0.5, gamma=0.4, u0=1.0, rhs=rhs)
    rep = picard_solve(prob, choose_local_radius(prob))
    assert math.isfinite(rep.q_contraction) and rep.q_contraction <= 0.5
    assert all(map(math.isfinite, rep.solution.values))


def test_overflowing_c_uniform_f_meets_the_work_limit():
    # N = -10 303 264 contracts; the floor would then lie millions of levels lower
    prob = ProblemSpec(p=2, alpha=0.5, gamma=0.4999, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", 2, amplitude=1e306))
    with pytest.raises(BudgetError, match=f"work limit of {cauchy.MAX_WINDOW} window levels"):
        solve_problem(prob)


def test_a_picard_sweep_out_of_the_double_range_is_a_magnitude_error():
    # the scaled sweep sums about 1e306 / (1 - 2^-0.01) per level, past the double range
    prob = ProblemSpec(p=2, alpha=0.5, gamma=0.49, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", 2, amplitude=1e306))
    with pytest.raises(MagnitudeError, match=r"^the step at level -106970 left the double range: "
                                             "-inf$"):
        solve_problem(prob)


def test_a_nan_in_a_picard_sweep_is_refused():
    # f is NaN at level -20, which spot_check does not sample: the march checks each value
    # of f it uses as spot_check does, and refuses the first one
    rhs = Nonlinearity(eval=lambda k, x: math.nan if k == -20 else 0.1 * math.cos(x),
                       bound_M=0.1, lipschitz_F=0.1)
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=rhs)
    with pytest.raises(MetadataError, match=r"^f\(p\^-20, \S+\) is not finite$"):
        picard_solve(prob, choose_local_radius(prob))


def test_a_value_of_f_past_bound_m_off_the_sampled_levels_is_refused():
    # f is 5 M at level -20, which spot_check does not sample; it once solved silently
    rhs = Nonlinearity(eval=lambda k, x: 0.5 if k == -20 else 0.1 * math.cos(x),
                       bound_M=0.1, lipschitz_F=0.1)
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=rhs)
    with pytest.raises(MetadataError, match=r"^declared bound_M = 0.1 violated: "
                                            r"\|f\(p\^-20, \S+\)\| = 0.5$"):
        solve_problem(prob, extend_to=2)


def test_the_last_value_of_f_at_a_level_is_checked_against_bound_m():
    # F = 0: each level takes one step and evaluates f twice, at its start and at its
    # result; armed after spot_check, f is 5 M at level 0 on the second call, the value the
    # sweep would carry to every level above
    armed, calls = [False], []

    def f(k, x):
        if armed[0] and k == 0:
            calls.append(x)
            if len(calls) == 2:
                return 0.5
        return 0.1

    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=Nonlinearity(eval=f, bound_M=0.1, lipschitz_F=0.0))
    armed[0] = True
    with pytest.raises(MetadataError, match=r"^declared bound_M = 0.1 violated: "
                                            r"\|f\(p\^0, \S+\)\| = 0.5$"):
        picard_solve(prob, 2)
    assert len(calls) == 2


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_a_non_finite_f_above_the_sampled_levels_is_refused(bad):
    # f decays but is NaN or inf at level 20, above spot_check's levels: a NaN once spun
    # 1000 steps to a NonConvergenceError, an inf raised ValueError: math domain error
    good = catalog_nonlinearity("cos-decay", 2)
    rhs = replace(good, eval=lambda k, x: bad if k == 20 else good.eval(k, x))
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=rhs)
    with pytest.raises(MetadataError, match=r"^f\(p\^20, \S+\) is not finite$"):
        solve_problem(prob, extend_to=30)


@pytest.mark.parametrize("amplitude, N, k_min", [(5.0, -3, -56), (0.1, -1, -48)])
def test_extend_to_minus_one_reserves_level_zero(amplitude, N, k_min):
    # target + 1 = 0 is a level to reserve, not "no reserve": the floor covers level 0
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", 2, amplitude=amplitude))
    rep = solve_problem(prob, tol=1e-10, extend_to=-1)
    floor, floor_sum = _choose_window_floor(prob, 0, 1e-10, N)
    assert rep.local_radius_N == N and rep.solution.k_min == floor == k_min
    assert rep.truncation_budget == floor_sum / (1.0 - rep.q_contraction)
    rems = list(islice(_truncation_bound(prob, k_min, k_min), -k_min + 1))
    assert sum(rems) <= rep.truncation_budget


def _reference():
    """bench/reference.py, the package-independent mpmath reference, loaded read-only."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("p, alpha, gamma", [(2, 0.05, 0.025), (2, 0.3, 0.297), (3, 0.5, 0.2)])
def test_const_solution_matches_an_independent_reference(p, alpha, gamma):
    # for f = lam, u(p^n) = u0 + lam c(-gamma) p^((alpha - gamma) n) exactly, with
    # c(-gamma) = (I^alpha |t|^(-gamma))(1) from the reference's 50-digit strata sums
    from mpmath import mp, mpf
    reference = _reference()
    lam = 0.1
    prob = ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=1.0,
                       rhs=catalog_nonlinearity("const", p, amplitude=lam))
    rep = solve_problem(prob, tol=1e-10)
    power = ("power", 1.0, -gamma)
    c = reference.ialpha(reference.Radial(p, 0, [1.0], power, power), alpha, 0, 0)[0][0]
    with mp.workdps(30):
        P, rate = mpf(p), mpf(alpha) - mpf(gamma)
        for n, u in enumerate(rep.solution.values, rep.solution.k_min):
            ref = float(1 + lam * c * P ** (rate * n))
            # the tol term covers rounding where |u| is large: at (3, 0.5, 0.2) |u| nears 1e5
            assert abs(u - ref) <= rep.truncation_budget + 1e-10 * max(1.0, abs(u)), n


@pytest.mark.parametrize("p, alpha, gamma, lam, top", [
    (2, 1.5, 0.25, 0.05, 3), (3, 0.8, 0.3, -0.2, 3), (5, 1.0, 0.5, 0.1, 3), (2, 0.5, 0.2, 0.3, 2)])
def test_a_u_dependent_rhs_matches_its_exact_power_series(p, alpha, gamma, lam, top):
    # f(p^k, x) = lam clamp(x, -R, R) is lam x wherever |u| <= R, and there the solution is
    # u(p^n) = u0 sum_j lam^j C_j p^(j (alpha - gamma) n), C_0 = 1 and
    # C_(j+1) = C_j c(j (alpha - gamma) - gamma): I^alpha maps |t|^(-gamma) |t|^(j (alpha -
    # gamma)) to c |t|^((j+1) (alpha - gamma)), c(rho) = (I^alpha |t|^rho)(1) from the
    # reference's 50-digit strata sums; 80 terms leave a remainder far below 1e-16
    from mpmath import mp, mpf
    reference = _reference()
    R, u0, tol = 10.0, 1.0, 1e-10
    rhs = Nonlinearity(eval=lambda k, x: lam * min(max(x, -R), R), bound_M=abs(lam) * R,
                       lipschitz_F=abs(lam))
    rep = solve_problem(ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=u0, rhs=rhs), tol=tol,
                        extend_to=top)
    u = rep.solution
    assert u.k_max == top
    with mp.workdps(50):
        rate, coefs = (mpf(alpha) - mpf(gamma)) * mp.log(p), [mpf(1)]
        for j in range(79):
            power = ("power", 1.0, j * (alpha - gamma) - gamma)
            c = reference.ialpha(reference.Radial(p, 0, [1.0], power, power), alpha, 0, 0)[0][0]
            coefs.append(coefs[-1] * lam * c)
        for n, x in zip(range(u.k_min, top + 1), u.values):
            exact = float(u0 * sum(a * mp.exp(j * rate * n) for j, a in enumerate(coefs)))
            assert abs(exact) <= R  # the clamp never acts on the solution
            assert abs(x - exact) <= rep.truncation_budget + tol * max(1.0, abs(x)), n


@pytest.mark.parametrize("p, alpha, gamma, amplitude, beta", [
    (2, 1.5, 0.25, 0.1, 2.0), (3, 0.5, 0.2, 0.1, 2.0), (2, 1.3, 0.4, 0.3, 1.5)])
def test_march_matches_a_60_digit_forward_substitution(p, alpha, gamma, amplitude, beta):
    # the truncated system (ftilde = 0 below K_min) solved level by level in mpmath, from the
    # reference's kernel and right-hand side: each level's scalar equation
    # x = u0 + S_n + p^(alpha (n - 1)) p^(-gamma n) f(p^n, x) iterated to 1e-50
    from mpmath import mp, mpf
    reference = _reference()
    tol = 1e-10
    prob = ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", p, amplitude=amplitude, beta=beta))
    rep = solve_problem(prob, tol=tol)
    u = rep.solution
    with mp.workdps(reference.working_dps(p, alpha, u.k_min, u.k_max) + 10):
        P, a, g = mpf(p), mpf(alpha), mpf(gamma)
        coef = reference.interior_prefactor(p, alpha) * (1 - 1 / P)
        s1 = sa = mpf(0)  # sum over k < n of p^k ftilde_k and p^(alpha k) ftilde_k
        x = mpf(prob.u0)
        for n, got in enumerate(u.values, u.k_min):
            base = prob.u0 + coef * (P ** ((a - 1) * n) * s1 - sa)
            diag = P ** (a * (n - 1) - g * n)
            while True:
                x_new = base + diag * reference.rhs_value("cos-decay", p, amplitude, beta, n, x)
                if abs(x_new - x) <= mpf(10) ** -50:
                    break
                x = x_new
            x = x_new
            phi = P ** (-g * n) * reference.rhs_value("cos-decay", p, amplitude, beta, n, x)
            s1 += P ** n * phi
            sa += P ** (a * n) * phi
            assert abs(got - x) <= rep.truncation_budget + tol * max(1.0, abs(got)), n


@pytest.mark.parametrize("alpha", [0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5, 2.5])
@pytest.mark.parametrize("p", [2, 7])
def test_truncation_bound_is_the_exact_sum_below_the_floor(p, alpha):
    # sum_{k < K} |kernel(n, k)| M p^(-gamma k) in 50 digits, with the log kernel at alpha = 1
    from mpmath import mp, mpf
    gamma, k_cut = 0.3, -20
    prob = ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", p, amplitude=0.1))
    got = list(islice(_truncation_bound(prob, k_cut, k_cut), 31))
    with mp.workdps(50):
        P, a, g, m = mpf(p), mpf(alpha), mpf(gamma), mpf("0.1")
        ks = range(k_cut - 400, k_cut)  # the rest is below 1e-24 of the sum
        pref = (1 - 1 / P) if alpha == 1.0 else (1 - P ** -a) / (1 - P ** (a - 1)) * (1 - 1 / P)
        for n in (k_cut, k_cut + 1, k_cut + 5, k_cut + 30):
            kernel = ((1 - 1 / P) * (n - k) if alpha == 1.0
                      else P ** ((a - 1) * n) - P ** ((a - 1) * k) for k in ks)
            want = sum(abs(pref * t) * P ** k * m * P ** (-g * k) for t, k in zip(kernel, ks))
            assert abs(got[n - k_cut] - want) <= 1e-13 * want, n


@pytest.mark.parametrize("p, k_min", [(2, -76), (7, -28)])
def test_window_floor_is_continuous_through_alpha_one(p, k_min):
    # the budget is continuous in alpha, with no 1 / |alpha - 1| next to alpha = 1
    for alpha in (1.0 - 1e-9, 1.0, 1.0 + 1e-9):
        prob = ProblemSpec(p=p, alpha=alpha, gamma=0.4, u0=1.0,
                           rhs=catalog_nonlinearity("cos-decay", p))
        assert _choose_window_floor(prob, choose_local_radius(prob) + 36, 1e-10)[0] == k_min


def test_window_floor_rejects_non_positive_tol():
    for tol in (0.0, -1e-10, math.nan):
        with pytest.raises(DomainError, match="tol"):
            _choose_window_floor(catalog_problem(), 10, tol)


@pytest.mark.parametrize("gamma, amplitude, u0, tol, n_top, highest, k_min", [
    (0.4, 1e306, 0.0, 1e-290, -959, -960, -2511),  # solve --extend-to -960 --tol 1e-290
    (0.25, 1e200, 1.0, 1e-200, -533 + 36, math.inf, -1449),  # the top N + 36
])
def test_window_floor_budget_covers_the_sum_where_p_e_underflows(gamma, amplitude, u0, tol,
                                                                   n_top, highest, k_min):
    # C ~ M once multiplied a p^e that had underflowed to 0.0 or to a subnormal: the floors
    # -995 and -1101 were certified with budget 0.0, their sums being 4.5e-18 and 1.6e-123
    from mpmath import mp, mpf
    prob = ProblemSpec(p=2, alpha=1.5, gamma=gamma, u0=u0,
                       rhs=catalog_nonlinearity("cos-decay", 2, amplitude=amplitude))
    got, budget = _choose_window_floor(prob, n_top, tol, highest)
    assert got == k_min and budget <= tol / 10.0
    # sum over n in [K, n_top] of sum_{k < K} |kernel(n, k)| M p^(-gamma k), the kernel
    # p^((a-1) n) - p^((a-1) k) summed over k < K as two geometric series, in 60 digits
    with mp.workdps(60):
        P, a, g, m = mpf(2), mpf(1.5), mpf(gamma), mpf(amplitude)
        pref = (1 - P ** -a) / (P ** (a - 1) - 1) * (1 - 1 / P)
        low_1 = P ** ((1 - g) * (k_min - 1)) / (1 - P ** (g - 1))
        low_a = P ** ((a - g) * (k_min - 1)) / (1 - P ** (g - a))
        want = sum(pref * m * (P ** ((a - 1) * n) * low_1 - low_a)
                   for n in range(k_min, n_top + 1))
        assert budget >= want and budget <= want * (1 + mpf(10) ** -11)
    if u0 == 0.0:  # the first repro end to end: the solve certifies the same floor
        rep = solve_problem(prob, tol=tol, extend_to=-960)
        assert rep.solution.k_min == k_min and rep.truncation_budget >= want


# -- local iteration -------------------------------------------------------------

def test_picard_zero_rhs():
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 2))
    rep = picard_solve(prob, N=2, tol=1e-12)
    assert rep.picard_iterations == 1
    assert all(v == 1.0 for v in rep.solution.values)
    assert rep.solution.left_tail == TailModel.constant(1.0)


def test_a_solve_from_u0_zero_has_a_zero_left_tail():
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=0.0, rhs=catalog_nonlinearity("zero", 2))
    rep = picard_solve(prob, N=2, tol=1e-12)
    assert rep.solution.left_tail == TailModel.zero()
    assert rep.to_dict()["solution"]["left_tail"] == "zero"


def test_picard_constant_rhs_closed_form():
    lam = 0.37
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("const", 2, amplitude=lam))
    rep = picard_solve(prob, N=3, tol=1e-12)
    coeff = power_image_coefficient(2, 1.5, -0.25)
    for k in range(rep.solution.k_min, 4):
        want = 1.0 + lam * coeff * p_pow(2, 1.25 * k)
        assert rep.solution.value_at(k) == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_picard_solve_is_the_march_stopped_at_n():
    # with the solve's floor, picard_solve's window is the solve's first levels bit for bit,
    # and its count is the most steps any of them took
    prob = catalog_problem()
    full = solve_problem(prob, tol=1e-11)
    N = full.local_radius_N
    rep = picard_solve(prob, N, tol=1e-11, reserve_top=full.solution.k_max + 1)
    assert rep.solution.k_min == full.solution.k_min and rep.solution.k_max == N
    assert rep.solution.values == full.solution.values[:N - rep.solution.k_min + 1]
    assert rep.picard_iterations == full.picard_iterations >= 2
    assert rep.extension_diagnostics == {}
    rep = picard_solve(prob, N=1, tol=1e-11)
    assert rep.q_contraction <= 0.5 * (1 + 1e-12)
    assert rep.truncation_budget <= 1e-11 / (1 - rep.q_contraction) * 1.01


def test_picard_rejects_non_contractive_radius():
    prob = catalog_problem()
    with pytest.raises(DomainError, match="q_N"):
        picard_solve(prob, N=30)


@pytest.mark.parametrize("solve", (lambda prob: picard_solve(prob, N=1, max_iter=0),
                                   lambda prob: solve_problem(prob, max_iter=0)))
def test_picard_rejects_max_iter_below_one(solve):
    # no sweep means no last difference to report: a precondition, not an IndexError
    with pytest.raises(DomainError, match="max_iter must be >= 1, got 0"):
        solve(catalog_problem())


@pytest.mark.parametrize("name, good", (("extend_to", 3), ("max_iter", 50)))
def test_extend_to_and_max_iter_must_be_integers(name, good):
    # extend_to = 2.5 was a ValueError from islice, max_iter = 2.5 a TypeError from range
    prob = catalog_problem()
    for bad in (2.5, math.nan, math.inf, "3"):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            solve_problem(prob, **{name: bad})
    assert solve_problem(prob, **{name: float(good)}) == solve_problem(prob, **{name: good})


# -- extension -------------------------------------------------------------------

def test_extension_constant_zero_rhs():
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 2))
    rep = march_at(prob, 2, 37)
    assert [d.v0 for d in rep.extension_diagnostics.values()] == [0.0] * 35


@pytest.mark.parametrize("alpha", (1.5, 1.0))
def test_extension_constant_const_rhs_matches_brute_sum(alpha):
    # independent check: stratified numeric sum of the kernel against the
    # constant integrand, gamma = 0
    lam, p = 0.4, 2
    prob = ProblemSpec(p=p, alpha=alpha, gamma=0.0, u0=0.0,
                       rhs=catalog_nonlinearity("const", p, amplitude=lam))
    ell = 1
    rep = march_at(prob, ell, ell + 1)
    got = rep.extension_diagnostics[ell + 1].v0
    depth = 600
    if alpha == 1.0:
        brute = (1 - p) / (p * math.log(p)) * sum(
            (1 - 1 / p) * p ** k * (ell + 1 - k) * math.log(p) * lam
            for k in range(ell - depth, ell + 1))
    else:
        brute = (1 - p ** -alpha) / (1 - p ** (alpha - 1.0)) * sum(
            (1 - 1 / p) * p ** k * (p ** ((ell + 1) * (alpha - 1.0)) - p ** (k * (alpha - 1.0))) * lam
            for k in range(ell - depth, ell + 1))
    assert got == pytest.approx(brute, rel=1e-12)


def test_extend_step_zero_rhs():
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 2))
    rep = march_at(prob, 2, 3)
    diag = rep.extension_diagnostics[3]
    assert rep.solution.value_at(3) == 1.0 and diag.kappa == 0.0 and diag.iterations == 1


def test_extend_step_affine_exact():
    lam = 0.25
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("const", 2, amplitude=lam))
    rep = march_at(prob, 1, 2)
    diag = rep.extension_diagnostics[2]
    want = 1.0 + diag.v0 + p_pow(2, 1.5) * lam * p_pow(2, -0.25 * 2)
    assert diag.iterations == 1 and diag.kappa == 0.0
    assert rep.solution.value_at(2) == pytest.approx(want, rel=1e-13)


def test_extend_step_contraction_violation():
    # the per-level bound 2 p^(-alpha k) is above F = 2 below level 0, so F is the level's
    # bound there and kappa = 2 p^((alpha - gamma) n - alpha) is below 1 up to level -2; from
    # level 0 on kappa is 2 p^(-gamma n - alpha), at least 1 up to n = 2: level -1 is refused
    p_, alpha_, gamma_ = 2, 0.5, 0.2

    def f(k, x):
        return 2.0 * p_pow(p_, -alpha_ * max(k, 0)) * math.sin(x)

    rhs = Nonlinearity(eval=f, bound_M=2.0, lipschitz_F=2.0,
                       per_level_F=lambda k: 2.0 * p_pow(p_, -alpha_ * k))
    prob = ProblemSpec(p=p_, alpha=alpha_, gamma=gamma_, u0=1.0, rhs=rhs)
    with pytest.raises(ContractionError, match="extension to level -1 .*kappa"):
        march_at(prob, -10, 25)


def test_extend_step_detects_wrong_metadata():
    # a blatant lie is already caught at declaration time by the sampler
    def f(k, x):
        return 0.4 * math.sin(x + 0.7 * k)

    with pytest.raises(MetadataError):
        ProblemSpec(p=2, alpha=1.5, gamma=0.0, u0=1.0,
                    rhs=Nonlinearity(eval=f, bound_M=0.4, lipschitz_F=0.01))
    # a lie injected past the declaration check is caught by the measured
    # step-ratio guard inside the fixed-point iteration, at a window level below N;
    # f depends on the level, so each level's iteration starts away from its fixed point
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.0, u0=1.0,
                       rhs=Nonlinearity(eval=f, bound_M=0.4, lipschitz_F=0.4))
    honest = march_at(prob, -2, 1)
    assert honest.extension_diagnostics[-1].iterations > 2
    lying = Nonlinearity(eval=f, bound_M=0.4, lipschitz_F=0.4,
                         per_level_F=lambda k: 1e-6)
    object.__setattr__(prob, "rhs", lying)
    with pytest.raises(MetadataError, match="ratio .* at level -12:"):
        march_at(prob, -2, 33)


@pytest.mark.parametrize("p, alpha, gamma, u0, amplitude, beta", [
    (2, 2.5, 0.0, 1.0, 0.05, 3.0),
    (2, 1.0, 0.6, 0.5, 0.2, 2.5),
])
def test_rounding_near_convergence_is_not_wrong_metadata(p, alpha, gamma, u0, amplitude, beta):
    # step differences near convergence are a few ulps; their rounding once
    # pushed a measured ratio just past kappa and raised MetadataError
    rhs = catalog_nonlinearity("cos-decay", p, amplitude=amplitude, beta=beta)
    prob = ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=u0, rhs=rhs)
    rep = solve_problem(prob, tol=1e-10)
    assert rep.solution.k_max == rep.local_radius_N + 35


@pytest.mark.parametrize("extend_to", (100, 200))
def test_continuation_evaluates_f_a_linear_number_of_times(extend_to):
    rhs = catalog_nonlinearity("cos-decay", 2, amplitude=0.1, beta=2.0)
    calls = [0]

    def counted(k, x):
        calls[0] += 1
        return rhs.eval(k, x)

    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=replace(rhs, eval=counted))
    calls[0] = 0
    rep = solve_problem(prob, tol=1e-10, extend_to=extend_to)
    width = len(rep.solution.values)
    picard = (rep.local_radius_N - rep.solution.k_min + 1) * rep.picard_iterations
    extension = sum(d.iterations for d in rep.extension_diagnostics.values())
    assert width > extend_to
    assert calls[0] - picard <= width + extension + 2


# -- dilation ----------------------------------------------------------------------

def _dilated(rhs, p, alpha, gamma, s):
    """f_s(p^k, x) = p^((gamma - alpha) s) f(p^(k - s), x), with M, F and F_k scaled by the
    same factor; a decay pair (A, beta) does not carry over in that form, so none is declared."""
    scale = p_pow(p, (gamma - alpha) * s)
    return Nonlinearity(eval=lambda k, x: scale * rhs.eval(k - s, x),
                        bound_M=scale * rhs.bound_M, lipschitz_F=scale * rhs.lipschitz_F,
                        per_level_F=lambda k: scale * rhs.per_level_F(k - s))


@pytest.mark.parametrize("s", (-3, 1, 4))
@pytest.mark.parametrize("p, alpha, gamma", [(2, 1.5, 0.25), (3, 0.5, 0.2), (7, 2.0, 0.6),
                                             (5, 1.0, 0.0), (2, 0.3, 0.29)])
def test_a_dilated_problem_is_solved_by_the_shifted_solution(p, alpha, gamma, s):
    # D^alpha is homogeneous of degree alpha under t -> p^s t, so if u solves the problem
    # with f, v_n = u_(n-s) solves it with f_s and the same u0: N moves by s, the floor by
    # s up to its 4-level grid, and the values agree within both budgets and the steps'
    # relative stop, on every shared level (57 to 4812 of them here)
    tol = 1e-10
    rhs = catalog_nonlinearity("cos-decay", p)
    u = solve_problem(ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=1.0, rhs=rhs), tol=tol)
    v = solve_problem(ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=1.0,
                                  rhs=_dilated(rhs, p, alpha, gamma, s)), tol=tol)
    assert v.local_radius_N == u.local_radius_N + s
    assert abs(v.solution.k_min - (u.solution.k_min + s)) < 4
    assert v.solution.k_max == u.solution.k_max + s
    budgets = u.truncation_budget + v.truncation_budget
    for n in range(max(v.solution.k_min, u.solution.k_min + s), v.solution.k_max + 1):
        old = u.solution.value_at(n - s)
        assert abs(v.solution.value_at(n) - old) <= budgets + 2 * tol * max(1.0, abs(old)), n


# -- global hypotheses -----------------------------------------------------------

def test_hypotheses_pass():
    rhs = catalog_nonlinearity("cos-decay", 2, amplitude=0.1, beta=2.0)
    half = Nonlinearity(eval=rhs.eval, bound_M=0.1, lipschitz_F=0.1,
                        per_level_F=lambda k: 0.5 * p_pow(2, -1.5 * k)
                        if k >= 0 else 0.1, decay=(0.1, 2.0))
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=half)
    hyp = check_global_hypotheses(prob)
    assert hyp.per_level_ok and hyp.decay_ok and hyp.residual_verifiable


def test_hypotheses_fail_per_level():
    rhs = catalog_nonlinearity("cos-decay", 2, amplitude=0.1, beta=2.0)
    double = Nonlinearity(eval=rhs.eval, bound_M=0.1, lipschitz_F=0.1,
                          per_level_F=lambda k: 2.0 * p_pow(2, -1.5 * k),
                          decay=(0.1, 2.0))
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=double)
    hyp = check_global_hypotheses(prob)
    assert not hyp.per_level_ok
    assert hyp.witness_level is not None
    assert not hyp.residual_verifiable


def test_hypotheses_weak_decay_flagged():
    # declared decay envelope weaker than the actual one: the per-level
    # condition still passes, but beta + gamma = 1.25 <= alpha = 1.5
    fast = catalog_nonlinearity("cos-decay", 2, amplitude=0.1, beta=2.0)
    weak = Nonlinearity(eval=fast.eval, bound_M=0.1, lipschitz_F=0.1,
                        per_level_F=fast.per_level_F, decay=(0.1, 1.0))
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=weak)
    hyp = check_global_hypotheses(prob)
    assert hyp.per_level_ok
    assert hyp.decay_ok is False
    assert not hyp.residual_verifiable
    assert "decay" in hyp.detail


# -- residual --------------------------------------------------------------------

def test_residual_zero_rhs_is_zero():
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 2))
    # on a genuinely constant function the residual vanishes identically
    # (window wide enough that the beyond-window envelope is negligible)
    const = RadialFunction.constant(2, 1.0, k_min=-10, k_max=45)
    est = residual(const, prob, 0)
    assert est.value == 0.0
    # the solver output models the unknown right side as zero; its residual
    # artifact must stay within the attached uncertainty
    rep = solve_problem(prob, tol=1e-10, extend_to=20)
    est = residual(rep.solution, prob, 0)
    assert abs(est.value) <= est.uncertainty


def test_residual_buffer_gate():
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 2))
    rep = solve_problem(prob, tol=1e-10, extend_to=20)
    with pytest.raises(IndeterminateResidualError, match="window edge"):
        residual(rep.solution, prob, rep.solution.k_max)


def test_uncertainty_refusal_text_is_formatted_when_read():
    # the refusal carries its numbers and builds the text of the f-string it replaced
    prob = ProblemSpec(p=5, alpha=2.0, gamma=0.6, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 5))
    u = solve_problem(prob, tol=1e-10).solution
    text = ("residual uncertainty 2.1948611615507969e+130 at level -147 exceeds tol = 1e-08; "
            "extend the solution to higher levels")
    with pytest.raises(IndeterminateResidualError, match=f"^{re.escape(text)}$") as info:
        residual(u, prob, -147)
    err = info.value
    assert str(err) == text and f"{err}" == text
    assert "2.1948611615507969e+130" in repr(err) and "-147" in repr(err) and "1e-08" in repr(err)
    # a one-argument refusal is its text as given, braces and all
    assert str(IndeterminateResidualError("level {n} is {x}")) == "level {n} is {x}"


def test_residual_refuses_levels_beyond_double_range():
    # at the deepest window levels the rounding bound, which grows like
    # p^(-alpha n), exceeds tol; it is computed without overflow
    prob = ProblemSpec(p=5, alpha=2.0, gamma=0.6, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 5))
    u = solve_problem(prob, tol=1e-10).solution
    with pytest.raises(IndeterminateResidualError, match="uncertainty .* exceeds tol"):
        residual(u, prob, u.k_min + 1)
    # where p^(-alpha n) itself leaves the double range the level is refused as such
    deep = RadialFunction.constant(2, 1.0, k_min=-1100, k_max=5)
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 2))
    with pytest.raises(IndeterminateResidualError, match="double precision"):
        residual(deep, prob, -1000)
    # a window this deep has no D^alpha value at any level: the tail fit is not formed
    deeper = RadialFunction.constant(2, 1.0, k_min=-2000, k_max=-1900)
    with pytest.raises(IndeterminateResidualError, match="double precision"):
        residual(deeper, prob, -1950)


def test_residual_refuses_a_weight_past_the_overflow_guard(monkeypatch):
    # p^(gamma n) at level 1123 is 2**1010.7: residual once raised MagnitudeError there,
    # after a solve that had succeeded; the one range rule of both powers refuses it
    prob = ProblemSpec(p=2, alpha=1.0, gamma=0.9, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", 2))
    u = solve_problem(prob, tol=1e-10, extend_to=1126).solution
    assert u.k_min == -556
    powers = []
    monkeypatch.setattr(cauchy, "p_pow", lambda *args: powers.append(args) or p_pow(*args))
    with pytest.raises(IndeterminateResidualError,
                       match=re.escape("level 1123 is out of range in double precision: "
                                       "p^(gamma n) = 2**1010.7 exceeds the overflow guard")):
        residual(u, prob, 1123)
    assert len(powers) > 1000  # the one pass forms the powers; a call forms none of its own
    powers.clear()
    assert residual(u, prob, 1122).uncertainty < 1e-8
    assert powers == [(2, -2.0 * 1122)]  # f's own p^(-beta k)


def test_residual_refuses_a_function_of_another_p():
    # D^alpha of a p = 2 function used to be weighted with 3^(gamma n)
    prob = ProblemSpec(p=3, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 3))
    u = RadialFunction.constant(2, 1.0, k_min=-10, k_max=45)
    with pytest.raises(DomainError, match="p = 2, the problem's p is 3"):
        residual(u, prob, 0)


def test_residual_refuses_levels_below_the_window():
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 2))
    u = RadialFunction.constant(2, 1.0, k_min=-10, k_max=45)
    with pytest.raises(IndeterminateResidualError, match="below the window floor"):
        residual(u, prob, -11)


def test_residual_refuses_a_fitted_growth_at_or_above_alpha():
    # u = 2^(2.5 k) grows faster than D^1.5 can absorb above the window: the envelope's
    # rate log_p(u(p^10) / u(p^9)) = 2.5 is not below alpha
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=catalog_nonlinearity("zero", 2))
    u = RadialFunction(2, 0, 10, tuple(2.0 ** (2.5 * k) for k in range(11)))
    with pytest.raises(IndeterminateResidualError,
                       match=r"^fitted tail growth exponent 2.5 is not below alpha = 1.5; "
                             "the discarded right-tail contribution cannot be bounded$"):
        residual(u, prob, 5)


def test_solved_residuals_small():
    prob = catalog_problem()
    rep = solve_problem(prob, tol=1e-11)
    assert check_global_hypotheses(prob).residual_verifiable
    count, worst = 0, 0.0
    for n in range(max(rep.solution.k_min + 1, -15), rep.solution.k_max - 2):
        try:
            est = residual(rep.solution, prob, n, tol=5e-9)
        except IndeterminateResidualError:
            continue
        count += 1
        worst = max(worst, abs(est.value))
        assert abs(est.value) <= 1e-8 * (1 + 0.1)
    assert count >= 20


# -- full pipeline ----------------------------------------------------------------

def test_solve_problem_extends_and_reports():
    prob = catalog_problem()
    rep = solve_problem(prob, tol=1e-11, extend_to=15)
    assert rep.solution.k_max == 15
    diags = rep.extension_diagnostics
    assert sorted(diags) == list(range(rep.local_radius_N + 1, 16))
    assert all(d.kappa < 1 for d in diags.values())
    assert all(d.iterations >= 1 for d in diags.values())
    # report serialization carries the window
    payload = rep.to_dict()
    assert payload["k_max"] == 15
    assert payload["solution"]["levels"][str(15)] == rep.solution.value_at(15)


def test_continuity_at_zero_bound():
    prob = catalog_problem()
    rep = solve_problem(prob, tol=1e-11)
    scale = rep.c_uniform * prob.rhs.bound_M / (1 - rep.q_contraction)
    for k in range(rep.solution.k_min, rep.local_radius_N + 1):
        dev = abs(rep.solution.value_at(k) - prob.u0)
        assert dev <= scale * p_pow(2, k * 1.25) + 1e-15


def test_catalog_rejects_unknown():
    with pytest.raises(DomainError):
        catalog_nonlinearity("chaos", 2)


def test_bounded_sigmoid_solves():
    # a level-independent Lipschitz constant only extends while
    # p^(alpha l) F p^(-gamma (l+1)) stays below 1, so stop at level 4
    rhs = catalog_nonlinearity("bounded-sigmoid", 3, amplitude=0.4)
    prob = ProblemSpec(p=3, alpha=0.8, gamma=0.1, u0=0.5, rhs=rhs)
    rep = solve_problem(prob, tol=1e-10, extend_to=4)
    assert rep.solution.k_max == 4
    # kappa = 0.9 at level 4 takes 213 steps: max_iter caps the steps of each level
    assert rep.extension_diagnostics[4].iterations == 213
    with pytest.raises(NonConvergenceError, match="^fixed point at level 4 did not converge "
                                                  "in 200 steps$"):
        solve_problem(prob, tol=1e-10, extend_to=4, max_iter=200)
    with pytest.raises(ContractionError):
        solve_problem(prob, tol=1e-10, extend_to=8)


# -- powers computed once per solve ------------------------------------------------

def _guarded_powers(fn, funcs=(haar.p_pow,)):
    """(fn(), the number of calls of funcs, by default p_pow, it made)."""
    codes = {func.__code__ for func in funcs}
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, calls


def test_guarded_powers_per_solve_do_not_scale_with_picard_iterations():
    prob = catalog_problem()
    per_level = {}
    for tol in (1e-6, 1e-13):
        rep, calls = _guarded_powers(lambda: solve_problem(prob, tol=tol))
        per_level[rep.picard_iterations] = calls / len(rep.solution.values)
    (few, a), (many, b) = sorted(per_level.items())
    assert many >= 2 * few  # at most 5 and 10 steps at a level
    # every Picard sweep used to take five powers per level (27 and 50 per level here)
    assert a <= 6.0 and b <= 6.0 and abs(a - b) <= 0.5


@pytest.mark.parametrize("alpha", (1.5, 1.0, 0.5))
def test_continuation_reuses_picards_power_tables(alpha):
    # a solve builds one sweep and walks it from the window floor to the target, however
    # deep the window; it once built a second one for the levels above N
    rhs = catalog_nonlinearity("cos-decay", 3, amplitude=0.075, beta=2.5)
    prob = ProblemSpec(p=3, alpha=alpha, gamma=0.3, u0=1.0, rhs=rhs)
    for extend_to in (30, 60):
        def solve():
            return solve_problem(prob, tol=1e-10, extend_to=extend_to)
        rep, sweeps = _guarded_powers(solve, funcs=(_IalphaSweep.__init__,))
        assert rep.solution.k_max == extend_to and len(rep.extension_diagnostics) > extend_to - 10
        assert sweeps == 1


def test_picard_keeps_its_tables_when_the_continuations_pass_the_guard():
    # 7^(1.2 k) leaves the double range at k = 300, below extend_to = 400: a sweep from
    # picard_solve's floor passes every level up to 299, and level 300 raises when a pass reaches
    # it, not before
    prob = ProblemSpec(p=7, alpha=1.5, gamma=0.3, u0=1.0,
                       rhs=catalog_nonlinearity("bounded-sigmoid", 7))
    k_min = picard_solve(prob, 0, 1e-10, 200, reserve_top=401).solution.k_min
    sweep = _IalphaSweep(7, 1.5, 0.3, k_min)
    sweep.advance([0.0] * (1 - k_min))
    assert sweep.level == 0 and sweep.top == 299
    assert sweep.step == p_pow(7, 1.5 - 0.3)
    for _ in range(299):
        assert all(math.isfinite(x) for x in sweep.ahead())
        sweep.advance((0.0,))
    assert sweep.level == 299
    with pytest.raises(MagnitudeError, match="7\\*\\*360"):
        sweep.advance([0.0])
    with pytest.raises(MagnitudeError, match="7\\*\\*360"):
        sweep.ahead()


def test_residual_profile_fits_the_envelope_once(monkeypatch):
    calls = []
    rows = cauchy._residual_rows
    monkeypatch.setattr(cauchy, "_residual_rows", lambda *args: calls.append(1) or rows(*args))
    rhs = catalog_nonlinearity("cos-decay", 7, amplitude=0.075, beta=2.5)
    prob = ProblemSpec(p=7, alpha=1.0, gamma=0.3, u0=1.25, rhs=rhs)
    u = solve_problem(prob, tol=1e-10, extend_to=250).solution
    assert 270 <= len(u.values) <= 280
    reported = 0
    for n in range(u.k_min, u.k_max + 1):
        try:
            residual(u, prob, n)
            reported += 1
        except IndeterminateResidualError:
            pass
    assert reported >= 250 and len(calls) == 1


@pytest.mark.parametrize("p,alpha,gamma,rhs,extend_to,error,message", [
    (1000003, 1.5, 0.4, "cos-decay", None, None, None),  # solves: no unscaled power of p is left
    (7, 1.5, 0.3, "bounded-sigmoid", 400, ContractionError,
     "extension to level 3 is not a contraction: kappa = 1.4881472039478574 >= 1 "
     "(per-level Lipschitz bound 0.025 is not below p^(-alpha ell) p^(gamma (ell+1)) "
     "= 0.01679941334679682)"),
    (7, 1.5, 0.3, "cos-decay", 400, MagnitudeError,
     "power 7**360.0 exceeds the overflow guard (exponent * ln base = 700.5 > 700.0)"),
])
def test_failing_solves_raise_where_they_did_before_the_tables(p, alpha, gamma, rhs, extend_to,
                                                                error, message):
    # a table of the powers up to extend_to would overflow before these levels; the
    # cos-decay one fails at level 300, where the output scale 7^(1.2 n) leaves the double range
    prob = ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=1.0, rhs=catalog_nonlinearity(rhs, p))
    if error is None:
        rep = solve_problem(prob, tol=1e-10, extend_to=extend_to)
        assert rep.solution.k_max == rep.local_radius_N + 35
        return
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        solve_problem(prob, tol=1e-10, extend_to=extend_to)


def test_cancelling_const_solve_stays_within_its_budget():
    # I^1 of a constant vanishes, so u = 1 up to the sub-window truncation at every level
    prob = ProblemSpec(p=2, alpha=1.0, gamma=0.0, u0=1.0,
                       rhs=catalog_nonlinearity("const", 2, amplitude=0.2, beta=2.5))
    rep = solve_problem(prob, tol=1e-10)
    assert rep.solution.k_max == rep.local_radius_N + 35
    assert max(abs(x - 1.0) for x in rep.solution.values) <= rep.truncation_budget + 1e-10


def test_large_p_solves_at_the_default_extension_and_matches_mpmath():
    # p = 1000003: p^(alpha n) alone leaves the double range at level 34, the solution does not
    from mpmath import mp, mpf
    p, alpha, gamma = 1000003, 1.5, 0.4
    rhs = catalog_nonlinearity("cos-decay", p)
    prob = ProblemSpec(p=p, alpha=alpha, gamma=gamma, u0=1.0, rhs=rhs)
    rep = solve_problem(prob, tol=1e-10)
    u = rep.solution
    assert u.k_max == rep.local_radius_N + 35 == 36
    with mp.workdps(50 + int((alpha + 1) * 40 * math.log10(p))):
        # u0 + I^alpha[p^(-gamma k) f(p^k, u)] from the kernel form, ftilde = 0 below k_min
        P, a, g = mpf(p), mpf(alpha), mpf(gamma)
        pref = (1 - P ** -a) / (1 - P ** (a - 1)) * (1 - 1 / P)
        phi = [P ** (-g * k) * mpf(rhs.eval(k, x)) for k, x in enumerate(u.values, u.k_min)]
        for n, x in enumerate(u.values, u.k_min):
            terms = [P ** (a * (n - 1)) * phi[n - u.k_min]]
            terms += [pref * P ** k * (P ** ((a - 1) * n) - P ** ((a - 1) * k)) * phi[k - u.k_min]
                      for k in range(u.k_min, n)]
            scale = sum(abs(t) for t in terms)
            assert abs(mpf(x) - 1 - sum(terms)) <= 1e-10 * max(1.0, abs(x)) + 1e-13 * scale, n


def _with_solution(call, tol):
    prob = catalog_problem()
    return call(solve_problem(prob, tol=1e-10).solution, prob, 10, tol=tol)


@pytest.mark.parametrize("call", [
    lambda: p_pow(2, math.nan),
    lambda: weighted_sum_left(RadialFunction.constant(2, 1.0), 0, math.nan),
    lambda: ball_power_integral(2, math.nan, 0),
    lambda: kernel_constant_oracle(2, math.nan, 0),
    lambda: check_summability(RadialFunction.constant(2, 1.0), math.nan),
    lambda: _with_solution(residual, math.nan),
    lambda: _with_solution(residual, math.inf),
    lambda: solve_problem(catalog_problem(), tol=math.nan),
])
def test_nan_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_window_floor_lies_at_or_below_picards_top():
    # a tiny M next to F certifies the budget at the first candidate, -8, while the local
    # radius is -12: the floor steps on to N, so picard_solve's window holds level N, and the
    # solve refuses the first continuation level that does not contract
    rhs = Nonlinearity(eval=lambda k, x: 1e-300 * math.cos(x), bound_M=1e-300, lipschitz_F=1e4)
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=rhs)
    assert choose_local_radius(prob) == -12
    assert _choose_window_floor(prob, 24, 1e-10)[0] == -8
    assert _choose_window_floor(prob, 24, 1e-10, -12)[0] == -12
    rep = picard_solve(prob, -12, 1e-10, reserve_top=24)
    assert rep.solution.k_min == -12 and rep.solution.values == (1.0,)
    with pytest.raises(ContractionError, match="extension to level -9 "):
        solve_problem(prob)
    rep = solve_problem(prob, extend_to=-10)
    assert rep.solution.k_min == -17 and rep.solution.k_max == -10


def test_per_level_records_are_named_tuples():
    # one record per continuation level and per residual level: plain tuples with names,
    # the fields, repr and immutability of the frozen records they replace
    est = cauchy.ResidualEstimate(value=0.5, uncertainty=1e-9)
    diag = cauchy.ExtensionDiagnostic(v0=-0.25, kappa=0.0125, iterations=7)
    assert cauchy.ResidualEstimate._fields == ("value", "uncertainty")
    assert cauchy.ExtensionDiagnostic._fields == ("v0", "kappa", "iterations")
    assert repr(est) == "ResidualEstimate(value=0.5, uncertainty=1e-09)"
    assert repr(diag) == "ExtensionDiagnostic(v0=-0.25, kappa=0.0125, iterations=7)"
    assert est == (0.5, 1e-9) and tuple(diag) == (-0.25, 0.0125, 7)
    for record, name in ((est, "value"), (est, "uncertainty"), (diag, "v0"), (diag, "kappa"),
                         (diag, "iterations")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
    prob = catalog_problem()
    rep = solve_problem(prob)
    diags = rep.to_dict()["extension_diagnostics"]
    assert list(diags) == [str(n) for n in range(2, 37)]
    assert {n: (d["v0"].hex(), d["kappa"].hex(), d["iterations"]) for n, d in diags.items()
            if n in ("2", "10", "36")} == {
        "2": ("-0x1.2e9cfc5342243p-3", "0x1.999999999999ap-7", 7),
        "10": ("-0x1.17cd0a5ab491ap+2", "0x1.9999999999998p-13", 4),
        "36": ("-0x1.2165951583fabp+15", "0x1.21a1851ff6309p-32", 2)}
    assert all(list(d) == ["v0", "kappa", "iterations"] for d in diags.values())
    # the package builds both positionally: the type, repr and equality of a record by name
    for built, record in ((residual(rep.solution, prob, 0), cauchy.ResidualEstimate),
                          (rep.extension_diagnostics[2], cauchy.ExtensionDiagnostic)):
        by_name = record(**built._asdict())
        assert type(built) is record and repr(built) == repr(by_name) and built == by_name


@pytest.mark.parametrize("amplitude, witness", [(1e306, -10), (1e303, -9)])
def test_global_hypotheses_past_the_overflow_guard(amplitude, witness):
    # 2^(101.2 * 10) = e^701.5 is past p_pow's overflow guard at l = -10, where checking
    # F_l < p^(-alpha l) once raised a MagnitudeError; F = 1e306 lies above that power, and
    # 1e303 below it but above 2^(101.2 * 9) at l = -9
    rhs = catalog_nonlinearity("bounded-sigmoid", 2, amplitude=4.0 * amplitude)
    hyp = check_global_hypotheses(ProblemSpec(p=2, alpha=101.2, gamma=0.5, u0=1.0, rhs=rhs))
    assert hyp.witness_level == witness and not hyp.per_level_ok
    if witness == -10:
        power = math.exp(101.2 * 10 * math.log(2.0))
        assert hyp.detail.startswith(f"per-level Lipschitz bound fails at level -10: "
                                     f"F_l = 1e+306 >= p^(-alpha l) = {power}")


def test_global_hypotheses_pass_a_zero_lipschitz_bound_where_the_power_underflows():
    # p^(-alpha l) = 100000007^(-40.5) underflows to 0.0 at l = 27, where F_l = 0 once failed
    # F_l < 0.0; the true power is positive, so F_l = 0 is below it and no other level fails
    prob = ProblemSpec(p=100000007, alpha=1.5, gamma=0.5, u0=1.0,
                       rhs=catalog_nonlinearity("zero", 100000007))
    hyp = check_global_hypotheses(prob)
    assert hyp.per_level_ok and hyp.witness_level is None and hyp.residual_verifiable
    rhs = Nonlinearity(eval=lambda k, x: 0.0, bound_M=1.0, lipschitz_F=5e-324)
    hyp = check_global_hypotheses(ProblemSpec(p=100000007, alpha=1.5, gamma=0.5, u0=1.0,
                                              rhs=rhs))
    assert hyp.witness_level == 27 and not hyp.per_level_ok  # a positive F_l still fails


def test_catalog_declares_the_magnitude_of_a_negative_amplitude():
    for name in ("cos-decay", "bounded-sigmoid"):
        neg, pos = (catalog_nonlinearity(name, 3, amplitude=a) for a in (-0.1, 0.1))
        for field in ("bound_M", "lipschitz_F", "decay"):
            assert getattr(neg, field) == getattr(pos, field)
        assert [neg.level_lipschitz(k) for k in (-3, 0, 4)] == \
            [pos.level_lipschitz(k) for k in (-3, 0, 4)]
        assert neg.eval(2, 0.5) == -pos.eval(2, 0.5)
        with pytest.raises(DomainError, match="bound_M must be positive"):
            catalog_nonlinearity(name, 3, amplitude=0.0)


def test_contraction_refusal_deep_below_level_zero_names_a_threshold_past_the_double_range():
    # p^(-alpha ell + gamma (ell + 1)) = 3^645.5 at ell = -1290 is past p_pow's overflow guard,
    # which once turned the ContractionError into a MagnitudeError raised while formatting it;
    # the message names 1 / c, the threshold kappa = c F was compared with, formed by no power
    prob = ProblemSpec(p=3, alpha=1.0, gamma=0.5, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", 3, amplitude=1e308))
    message = ("extension to level -1289 is not a contraction: kappa = 1.0428697696415323 >= 1 "
               "(per-level Lipschitz bound 1e+308 is not below p^(-alpha ell) p^(gamma (ell+1)) "
               "= 9.588924994380957e+307)")
    with pytest.raises(ContractionError, match=f"^{re.escape(message)}$"):
        solve_problem(prob, tol=1e-10)


def test_residual_at_small_alpha_names_the_uncertainty_it_refuses_for():
    # the fallback growth exponent max(alpha - 1, 0) + 0.05 once reached alpha = 0.05 and
    # refused every level for the tail growth; min(0.05, alpha / 2) keeps it below alpha,
    # and what refuses the levels of this window is their uncertainty
    prob = ProblemSpec(p=2, alpha=0.05, gamma=0.025, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", 2))
    u = solve_problem(prob, tol=1e-10).solution
    for n in range(u.k_min, u.k_max - 2):
        with pytest.raises(IndeterminateResidualError, match=f"^residual uncertainty \\S+ at level {n} "):
            residual(u, prob, n)
