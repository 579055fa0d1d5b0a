import math

import pytest

from padicradial.errors import DomainError
from padicradial.cauchy import (ProblemSpec, catalog_nonlinearity, choose_local_radius,
                                picard_solve, residual, solve_problem)
from padicradial.fracint import (apply_ialpha, assemble_fractional_integral, bound_constants,
                                 kernel_constant, kernel_constant_oracle)
from padicradial.haar import (ball_log_integral, ball_log_integral_oracle, ball_power_integral,
                              ball_power_integral_oracle, sphere_shifted_log_integral,
                              sphere_shifted_log_integral_oracle, sphere_shifted_power_integral,
                              sphere_shifted_power_integral_oracle)
from padicradial.radial import RadialFunction, check_summability
from padicradial.vladimirov import apply_dalpha, apply_dalpha_oracle, d_alpha

_U = RadialFunction.split_power(2, 0.0, -0.5)

# every entry point that checks alpha itself; apply_ialpha checks it through _sweep_below
ENTRY_POINTS = {
    "kernel_constant": lambda a: kernel_constant(2, a, 0.0),
    "kernel_constant_oracle": lambda a: kernel_constant_oracle(2, a, 0.0),
    "apply_ialpha": lambda a: apply_ialpha(_U, a, 0),
    "bound_constants": lambda a: bound_constants(2, a, 0.0),
    "d_alpha": lambda a: d_alpha(2, a),
    "check_summability": lambda a: check_summability(_U, a),
    "ProblemSpec": lambda a: ProblemSpec(p=2, alpha=a, gamma=0.0, u0=1.0,
                                         rhs=catalog_nonlinearity("zero", 2)),
}


@pytest.mark.parametrize("alpha", (0.0, -1.0, math.nan))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_alpha_must_be_finite_and_positive(entry, alpha):
    with pytest.raises(DomainError, match="alpha"):
        ENTRY_POINTS[entry](alpha)


def _residual_at(n):
    prob = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0,
                       rhs=catalog_nonlinearity("cos-decay", 2))
    return residual(solve_problem(prob).solution, prob, n)


_ZERO = ProblemSpec(p=2, alpha=1.5, gamma=0.25, u0=1.0, rhs=catalog_nonlinearity("zero", 2))


# the Haar closed forms and their oracles, each at its level n
HAAR_LEVEL_ENTRY_POINTS = {
    "ball_power_integral": lambda n: ball_power_integral(3, 1.5, n),
    "ball_power_integral_oracle": lambda n: ball_power_integral_oracle(3, 1.5, n),
    "sphere_shifted_power_integral": lambda n: sphere_shifted_power_integral(3, 1.5, n),
    "sphere_shifted_power_integral_oracle":
        lambda n: sphere_shifted_power_integral_oracle(3, 1.5, n),
    "ball_log_integral": lambda n: ball_log_integral(3, n),
    "ball_log_integral_oracle": lambda n: ball_log_integral_oracle(3, n),
    "sphere_shifted_log_integral": lambda n: sphere_shifted_log_integral(3, n),
    "sphere_shifted_log_integral_oracle": lambda n: sphere_shifted_log_integral_oracle(3, n),
}
# every entry point that takes a level n
LEVEL_ENTRY_POINTS = {
    **HAAR_LEVEL_ENTRY_POINTS,
    "apply_dalpha": lambda n: apply_dalpha(_U, 1.5, n),
    "apply_dalpha_oracle": lambda n: apply_dalpha_oracle(_U, 1.5, n),
    "apply_ialpha": lambda n: apply_ialpha(_U, 1.5, n),
    "residual": _residual_at,
    "assemble_fractional_integral(k_lo)": lambda n: assemble_fractional_integral(_U, 1.5, k_lo=n),
    "assemble_fractional_integral(k_hi)": lambda n: assemble_fractional_integral(_U, 1.5, k_hi=n),
    "picard_solve(N)": lambda n: picard_solve(_ZERO, n),
    "picard_solve(reserve_top)": lambda n: picard_solve(_ZERO, -2, reserve_top=n),
    "choose_local_radius(n_cap)": lambda n: choose_local_radius(_ZERO, n_cap=n),
}
# the name a refusal gives the level, where it is not "level n"
LEVEL_NAMES = {"assemble_fractional_integral(k_lo)": "k_lo",
               "assemble_fractional_integral(k_hi)": "k_hi",
               "picard_solve(N)": "N", "picard_solve(reserve_top)": "reserve_top",
               "choose_local_radius(n_cap)": "n_cap"}
# entries whose level may be None, its default
OPTIONAL_LEVELS = {"picard_solve(reserve_top)"}


@pytest.mark.parametrize("entry", sorted(LEVEL_ENTRY_POINTS))
def test_levels_must_be_integers(entry):
    # nan was a TypeError and 1.0 a ValueError from islice; an integral float is converted.
    # picard_solve's N = inf was a MagnitudeError, and its reserve_top = nan was replaced by N;
    # choose_local_radius returned a non-integer n_cap of a zero Lipschitz bound as N
    call = LEVEL_ENTRY_POINTS[entry]
    name = LEVEL_NAMES.get(entry, "level n")
    for bad in (1.5, math.nan, math.inf, -math.inf, "1", None):
        if bad is None and entry in OPTIONAL_LEVELS:
            continue
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            call(bad)
    assert call(-2.0) == call(-2)


@pytest.mark.parametrize("entry", sorted(HAAR_LEVEL_ENTRY_POINTS))
def test_haar_levels_are_converted_bit_for_bit(entry):
    # the Haar forms took n unchecked: 2.5 gave a number, inf a MagnitudeError, nan a
    # DomainError about 2**nan, and every oracle a TypeError from range, even at 3.0
    call = HAAR_LEVEL_ENTRY_POINTS[entry]
    assert call(3.0).hex() == call(3).hex()
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="level n must be an integer"):
            call(bad)


# every oracle, each at its depth
DEPTH_ENTRY_POINTS = {
    "ball_power_integral_oracle": lambda d: ball_power_integral_oracle(3, 1.5, 2, depth=d),
    "sphere_shifted_power_integral_oracle":
        lambda d: sphere_shifted_power_integral_oracle(3, 1.5, 2, depth=d),
    "ball_log_integral_oracle": lambda d: ball_log_integral_oracle(3, 2, depth=d),
    "sphere_shifted_log_integral_oracle":
        lambda d: sphere_shifted_log_integral_oracle(3, 2, depth=d),
    "apply_dalpha_oracle": lambda d: apply_dalpha_oracle(_U, 1.5, 0, depth=d),
    "kernel_constant_oracle": lambda d: kernel_constant_oracle(2, 1.5, 0.0, depth=d),
}


@pytest.mark.parametrize("entry", sorted(DEPTH_ENTRY_POINTS))
def test_oracle_depths_must_be_integers(entry):
    # depth 2.5, nan and inf once reached range, a TypeError; -inf was refused as below 1
    call = DEPTH_ENTRY_POINTS[entry]
    for bad in (2.5, math.nan, math.inf, -math.inf, "3"):
        with pytest.raises(DomainError, match="oracle depth must be an integer"):
            call(bad)
    assert call(3.0).hex() == call(3).hex()


def test_records_carry_only_what_is_read():
    # KernelConstants once echoed p, alpha and sigma, and NonConvergenceError kept the
    # differences of its iteration; nothing read either
    import dataclasses
    from padicradial.errors import NonConvergenceError
    from padicradial.fracint import KernelConstants
    assert [f.name for f in dataclasses.fields(KernelConstants)] == ["d_abs", "s_signed", "a_bound"]
    assert repr(kernel_constant(2, 2.0, 0.0)).startswith("KernelConstants(d_abs=0.333333333333333")
    err = NonConvergenceError("did not converge")
    assert str(err) == "did not converge" and not hasattr(err, "diffs")
    # the summability report once kept (2.8) and (3.3) apart from (2.7) and (3.2), one of
    # each pair None, and SolveReport once copied its solution's k_min
    from padicradial.cauchy import SolveReport
    from padicradial.radial import SummabilityReport
    assert [f.name for f in dataclasses.fields(SummabilityReport)] == [
        "cond_3_1", "cond_3_1_prime", "cond_2_7", "cond_3_2"]
    assert [f.name for f in dataclasses.fields(SolveReport)] == [
        "solution", "local_radius_N", "picard_iterations", "extension_diagnostics",
        "truncation_budget", "q_contraction", "c_uniform"]
