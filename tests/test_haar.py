import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from padicradial.errors import DivergenceError, DomainError, MagnitudeError
from padicradial.haar import (
    Prime,
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
from padicradial.fracint import kernel_constant

PRIMES = (2, 3, 5)
EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0)


def test_prime_accepts_primes():
    assert Prime(2) == 2
    assert Prime(97) == 97


@pytest.mark.parametrize("bad", [0, 1, 4, 15, 91])
def test_prime_rejects_composites(bad):
    with pytest.raises(DomainError):
        Prime(bad)


@pytest.mark.parametrize("bad", [2.5, 2.9, 7.000001, math.nan, math.inf, -math.inf])
def test_prime_refuses_a_non_integral_base(bad):
    # Prime(2.5) once truncated to 2, and nan and inf escaped as ValueError and OverflowError
    with pytest.raises(DomainError, match="prime base must be an integer"):
        Prime(bad)
    with pytest.raises(DomainError):
        kernel_constant(bad, 1.0, 0.0)


def test_prime_keeps_an_integral_float():
    assert Prime(7.0) == 7 and type(Prime(7.0)) is Prime


def test_prime_of_a_prime_is_itself_and_composites_still_fail():
    # a Prime passed the trial division when made; an int subclass that is not one is tested
    q = Prime(7)
    assert Prime(q) is q

    class Plain(int):
        pass

    for bad in (15, Plain(15)):
        with pytest.raises(DomainError, match="base must be prime, got 15 = 3 \\* 5"):
            Prime(bad)


def test_p_pow_overflow_guard():
    with pytest.raises(MagnitudeError):
        p_pow(2, 2000.0)


def test_p_pow_underflow_is_zero():
    assert p_pow(5, -600.0) == 0.0


def _power_or_error(base, e):
    try:
        return p_pow(base, e).hex()
    except (DomainError, MagnitudeError) as err:
        return type(err).__name__


@pytest.mark.parametrize("p", [2, 3, 7, 1000003])
def test_stored_ln_gives_the_powers_of_a_float_base(p):
    # a Prime's ln is math.log of its value, so every power, every refusal at the
    # 700 guard, every zero below exp(-745) and the NaN refusal are those of float(p)
    q, lnp = Prime(p), math.log(p)
    assert q.ln == lnp
    exponents = [0.0, 1.0, -1.0, 0.5, -1.0 / 3.0, 17.25, -17.25, math.nan, -math.inf]
    exponents += [t / lnp for t in (699.9, 700.0, 700.1, -700.0, -744.9, -745.0, -745.1, -800.0)]
    exponents += [math.nextafter(700.0 / lnp, s) for s in (0.0, math.inf)]
    got = [_power_or_error(q, e) for e in exponents]
    assert got == [_power_or_error(float(p), e) for e in exponents]
    assert got == [_power_or_error(p, e) for e in exponents]
    assert {"MagnitudeError", "DomainError", "0x0.0p+0"} <= set(got)
    with pytest.raises(DomainError, match="is not a number"):
        p_pow(q, math.nan)


def test_prime_keeps_its_ln_through_copies_and_pickles():
    q = Prime(7)
    assert Prime(q) is q
    copies = [copy.copy(q), copy.deepcopy(q)]
    copies += [pickle.loads(pickle.dumps(q, protocol=k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)]
    for r in copies:
        assert type(r) is Prime and r == 7 and r.ln.hex() == q.ln.hex()


@pytest.mark.parametrize("p,a,n,expected", [
    (2, 1.0, 0, 1.0),       # frozen from the 200-stratum sphere-sum oracle
    (3, 2.0, 1, 6.75),
])
def test_ball_power_values(p, a, n, expected):
    assert ball_power_integral(p, a, n) == pytest.approx(expected, rel=1e-13)
    assert ball_power_integral_oracle(p, a, n) == pytest.approx(expected, rel=1e-12)


def test_ball_power_divergence():
    with pytest.raises(DivergenceError):
        ball_power_integral(2, 0.0, 0)
    with pytest.raises(DivergenceError):
        ball_power_integral_oracle(2, -1.0, 0)


@pytest.mark.parametrize("p,a,n,expected", [
    # frozen from the measure-decomposition oracle: strata |x-a| = p^j carry
    # (1-1/p) p^j for j < n and p^n (1-2/p) for j = n
    (2, 1.0, 0, 0.5),
    (3, 1.0, 0, 2.0 / 3.0),
    (2, 2.0, 1, 2.0 / 3.0),
])
def test_sphere_shifted_power_values(p, a, n, expected):
    assert sphere_shifted_power_integral(p, a, n) == pytest.approx(expected, rel=1e-13)
    assert sphere_shifted_power_integral_oracle(p, a, n) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p,n,expected", [
    (2, 0, -math.log(2)),
    (2, 1, 0.0),            # coefficient n - 1/(p-1) vanishes at p = 2, n = 1
    (3, 1, 1.5 * math.log(3)),
])
def test_ball_log_values(p, n, expected):
    assert ball_log_integral(p, n) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("p,n,expected", [
    (2, 0, -math.log(2)),
    (2, 1, -math.log(2)),   # sum_{j<=0} j ln2 2^(j-1) = -ln 2
    (3, 0, -math.log(3) / 2.0),
])
def test_sphere_shifted_log_values(p, n, expected):
    assert sphere_shifted_log_integral(p, n) == pytest.approx(expected, rel=1e-13)
    assert sphere_shifted_log_integral_oracle(p, n) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("a", EXPONENTS)
@pytest.mark.parametrize("n", range(-5, 6))
def test_closed_forms_match_stratum_oracles(p, a, n):
    c = ball_power_integral(p, a, n)
    assert abs(c - ball_power_integral_oracle(p, a, n)) <= 1e-12 * abs(c)
    c = sphere_shifted_power_integral(p, a, n)
    assert abs(c - sphere_shifted_power_integral_oracle(p, a, n)) <= 1e-12 * abs(c)
    c = ball_log_integral(p, n)
    assert abs(c - ball_log_integral_oracle(p, n)) <= 1e-12 * (1 + abs(c))
    c = sphere_shifted_log_integral(p, n)
    assert abs(c - sphere_shifted_log_integral_oracle(p, n)) <= 1e-12 * (1 + abs(c))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", range(-4, 5))
def test_ball_additivity(p, n):
    # ball at level n = ball at level n-1 + sphere at level n, whose integrand is constant:
    # |x|^(a-1) = p^((a-1) n) and log |x| = n ln p over the mass (1 - 1/p) p^n; at a = 1
    # the ball integral is the ball's volume p^n
    for a in EXPONENTS:
        assert ball_power_integral(p, a, n) == pytest.approx(
            ball_power_integral(p, a, n - 1) + (1 - 1 / p) * p_pow(p, a * n), rel=1e-12)
    assert ball_power_integral(p, 1.0, n) == pytest.approx(p_pow(p, n), rel=1e-13)
    assert ball_log_integral(p, n) == pytest.approx(
        ball_log_integral(p, n - 1) + n * math.log(p) * (1 - 1 / p) * p_pow(p, n),
        abs=1e-12 * p_pow(p, n))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", range(-4, 5))
def test_stratum_measures_sum_to_sphere_volume(p, n):
    strata = sum((1 - 1 / p) * p_pow(p, j) for j in range(n - 300, n))
    strata += p_pow(p, n) * (1 - 2 / p)
    assert strata == pytest.approx((1 - 1 / p) * p_pow(p, n), rel=1e-12)


@pytest.mark.parametrize("p", PRIMES)
def test_unscaled_log_variant_disagrees_off_center(p):
    # the variant without the p^n factor only agrees at n = 0 (or where the
    # integral itself vanishes, which happens at p = 2, n = 2)
    lp = math.log(p)
    for n in range(-5, 6):
        unscaled = (1 - 1 / p) * n * lp - lp / (p - 1)
        scaled = sphere_shifted_log_integral(p, n)
        if n == 0:
            assert scaled == pytest.approx(unscaled, rel=1e-13)
        elif abs(scaled) > 1e-13:
            assert abs(scaled - unscaled) > 1e-9 * abs(scaled)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), a=st.floats(0.1, 4.0), n=st.integers(-6, 6))
def test_ball_power_telescopes(p, a, n):
    total = ball_power_integral(p, a, n - 1) + (1 - 1 / p) * p_pow(p, a * n)
    assert total == pytest.approx(ball_power_integral(p, a, n), rel=1e-12)


@pytest.mark.parametrize("depth", [0, -3])
@pytest.mark.parametrize("oracle, args", [
    (ball_power_integral_oracle, (2, 1.0, 0)),
    (sphere_shifted_power_integral_oracle, (2, 1.0, 0)),
    (ball_log_integral_oracle, (2, 0)),
    (sphere_shifted_log_integral_oracle, (2, 0)),
])
def test_oracles_refuse_a_depth_below_one(oracle, args, depth):
    # at depth -3 the ball oracle once summed no sphere and returned 0.0 for the closed form 1.0
    with pytest.raises(DivergenceError, match=f"oracle depth must be >= 1, got {depth}"):
        oracle(*args, depth=depth)
