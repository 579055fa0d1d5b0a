import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from padicradial.errors import DivergenceError, DomainError, MagnitudeError
from padicradial.haar import p_pow
from padicradial.radial import (
    RadialFunction,
    TailModel,
    _sum,
    check_summability,
    dump_radial,
    load_radial,
    weighted_sum_left,
)


def three_values(p=2):
    return RadialFunction(
        p, -1, 1, (1.0, 2.0, 3.0),
        left_tail=TailModel.constant(1.0),
        right_tail=TailModel.power_law(3.0, -1.0),
        value_at_zero=1.0,
    )


def test_eval_window_and_tails():
    u = three_values()
    assert u.value_at(0) == 2.0
    assert u.value_at(-5) == 1.0
    assert u.value_at(3) == pytest.approx(3.0 * 2 ** -3, rel=1e-13)


def test_power_tail_with_zero_coefficient_normalizes():
    assert TailModel.power_law(0.0, 2.0).kind == "zero"
    # with an offset it is that constant, and with a zero offset zero
    assert TailModel.power_law(-0.0, 2.0, 1.5) == TailModel.constant(1.5)
    assert TailModel.power_law(0.0, 2.0, -0.0) == TailModel.zero()
    assert TailModel.constant(2.0) == TailModel("const", 2.0, 0.0, 7.0)  # no offset on a constant


def test_an_offset_free_power_tail_keeps_its_signed_zero():
    # offset + c p^(rho k) is c p^(rho k) itself without an offset: 0.0 + -0.0 would be 0.0
    tail = TailModel.power_law(-1.0, 1.0)
    assert math.copysign(1.0, tail.value_at(2, -1100)) == -1.0
    shifted = TailModel.power_law(-1.0, 1.0, 0.5)
    assert shifted.value_at(2, -1100) == 0.5 and shifted.value_at(2, 1) == -1.5


def test_constant_tail_of_zero_normalizes():
    # a constant 0 is summable however the levels are weighted, as the zero tail is
    tail = TailModel.constant(0.0)
    assert tail == TailModel.zero() == TailModel.constant(-0.0)
    assert tail.to_token() == TailModel.from_token("const:0.0").to_token() == "zero"
    u = RadialFunction(2, -1, 1, (1.0, 1.0, 0.5), left_tail=TailModel.constant(1.0),
                       right_tail=tail, value_at_zero=1.0)
    assert _sum(u, 0, None, 0.0) == 1.5
    assert check_summability(u, 1.5).cond_3_2.holds


def test_tail_token_round_trip():
    for tail in (TailModel.zero(), TailModel.constant(-2.5), TailModel.power_law(1.5, -0.75),
                 TailModel.power_law(1.5, -0.75, 0.1)):
        assert TailModel.from_token(tail.to_token()) == tail
    # a power tail's token names its offset only when it has one
    assert TailModel.power_law(1.5, -0.75).to_token() == "power:1.5:-0.75"
    assert TailModel.power_law(1.5, -0.75, 0.1).to_token() == "power:1.5:-0.75:0.1"
    assert TailModel.from_token("power:0:2:0.25") == TailModel.constant(0.25)
    for token in ("power:1", "power:1:2:3:4", "const:1:2"):
        with pytest.raises(DomainError, match="^malformed tail token"):
            TailModel.from_token(token)


def test_tail_refusals():
    kinds = r"\('zero', 'const', 'power'\)"
    with pytest.raises(DomainError, match=f"^tail kind must be one of {kinds}, got 'linear'$"):
        TailModel("linear", 1.0)
    with pytest.raises(DomainError, match="^tail parameters must be finite$"):
        TailModel.power_law(1.0, math.nan)
    for offset in (math.nan, math.inf):
        for c in (1.0, 0.0):
            with pytest.raises(DomainError, match="^tail parameters must be finite$"):
                TailModel.power_law(c, 0.5, offset)
    with pytest.raises(DomainError, match="^malformed tail token 'const:x': could not convert "
                                          "string to float: 'x'$"):
        TailModel.from_token("const:x")


def test_window_validation():
    with pytest.raises(DomainError):
        RadialFunction(2, 1, 0, (1.0, 2.0))
    with pytest.raises(DomainError):
        RadialFunction(2, 0, 1, (1.0,))
    with pytest.raises(DomainError):
        RadialFunction(2, 0, 0, (float("nan"),))
    with pytest.raises(DomainError):
        RadialFunction(4, 0, 0, (1.0,))
    with pytest.raises(DomainError, match="^value at zero must be finite$"):
        RadialFunction(2, 0, 0, (1.0,), value_at_zero=math.inf)


def test_levels_must_be_integers():
    # a level of 0.5 or 1.5 was stored and failed later with a TypeError; an integral
    # float is converted, as a prime base is
    with pytest.raises(DomainError, match="k_min must be an integer, got 0.5"):
        RadialFunction(2, 0.5, 1.5, (1.0, 2.0))
    for bad in (1.5, math.nan, math.inf, "1"):
        with pytest.raises(DomainError, match="k_max must be an integer"):
            RadialFunction(2, 0, bad, (1.0, 2.0))
    u = RadialFunction(2, 1.0, 2.0, (1.0, 2.0))
    assert (u.k_min, u.k_max) == (1, 2) and type(u.k_min) is int
    assert u == RadialFunction(2, 1, 2, (1.0, 2.0))


def test_immutable():
    u = three_values()
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.k_min = 0


def test_weighted_sum_left_constant_one():
    u = RadialFunction.constant(2, 1.0)
    assert weighted_sum_left(u, 0, 1.0) == pytest.approx(2.0, rel=1e-13)


def test_weighted_sum_left_divergent_constant():
    u = RadialFunction.constant(2, 1.0)
    with pytest.raises(DivergenceError, match="e > 0"):
        weighted_sum_left(u, 0, 0.0)


def test_weighted_sum_left_indicator():
    u = RadialFunction.indicator_unit_ball(3)
    assert weighted_sum_left(u, 5, 1.0) == pytest.approx(1.5, rel=1e-13)


def test_sums_past_the_window_form_no_power_where_the_tail_equals_c():
    # the levels above the indicator's window add exact zeros; 2^1010 was once formed for them
    assert weighted_sum_left(RadialFunction.indicator_unit_ball(2), 1100, 1.0) == 2.0
    below = RadialFunction(2, 1, 1, (1.0,), right_tail=TailModel.constant(1.0))
    assert _sum(below, -1100, 1, -1.0) == p_pow(2, -1.0)
    u = RadialFunction.constant(3, 2.5, k_min=-2, k_max=2)
    assert _sum(u, -2000, 2000, 1.0, c=2.5) == 0.0
    # a power tail is not clipped: its levels are summed and its powers formed
    with pytest.raises(MagnitudeError):
        _sum(RadialFunction.power(2, -0.5), 0, 1100, 1.0)


def test_weighted_sum_right_constant():
    u = RadialFunction.constant(2, 1.0)
    assert _sum(u, 1, None, -1.0) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(DivergenceError, match="e < 0"):
        _sum(u, 1, None, 0.0)


def test_weighted_sum_right_indicator_vanishes():
    u = RadialFunction.indicator_unit_ball(5)
    assert _sum(u, 1, None, -1.0) == 0.0


def test_zero_tails_reduce_to_finite_sums():
    u = RadialFunction(2, -2, 2, (1.0, -2.0, 0.5, 4.0, -1.0))
    for e in (-1.5, 0.0, 2.0):
        want_left = sum(p_pow(2, e * k) * u.value_at(k) for k in range(-2, 2))
        assert weighted_sum_left(u, 1, e) == pytest.approx(want_left, rel=1e-13)
        want_right = sum(p_pow(2, e * k) * u.value_at(k) for k in range(-1, 3))
        assert _sum(u, -1, None, e) == pytest.approx(want_right, rel=1e-13)


def test_values_on_an_empty_range_that_starts_in_the_window_is_empty():
    # lo in the window and hi below k_min - 1 once took the in-window slice, whose negative
    # stop counts from the end: values_on(0, -3) returned 9 of the 11 stored values
    u = RadialFunction(2, 0, 10, tuple(float(k) for k in range(11)))
    assert u.values_on(0, -3) == [] and u.values_on(5, 2) == [] and u.values_on(0, -1) == []
    assert u.values_on(0, 10) == list(u.values)


_TAILS = {"zero": TailModel.zero(), "const": TailModel.constant(-0.75),
          "power": TailModel.power_law(1.5, 0.5), "decay": TailModel.power_law(-2.0, -1.25),
          "offset": TailModel.power_law(-2.0, -1.25, 0.625)}


@pytest.mark.parametrize("left", sorted(_TAILS))
@pytest.mark.parametrize("right", sorted(_TAILS))
def test_values_on_and_finite_sums_match_level_by_level(left, right):
    u = RadialFunction(3, -2, 3, (1.0, -2.0, 0.5, 4.0, -1.0, 0.25),
                       left_tail=_TAILS[left], right_tail=_TAILS[right])
    # below, across the lower edge, inside, across both edges, across the upper edge,
    # above, a single level, and empty ranges inside and outside the window
    ranges = [(-9, -4), (-6, 0), (-1, 2), (-5, 7), (1, 8), (5, 9), (3, 3),
              (2, 1), (-5, -7), (9, 4)]
    for lo, hi in ranges:
        want = [u.value_at(k) for k in range(lo, hi + 1)]
        got = u.values_on(lo, hi)
        assert got == want
        got.append(7.0)  # a new list on every call, even for a range inside the window
        got[0] = 7.0
        assert u.values_on(lo, hi) == want
        assert u.values == (1.0, -2.0, 0.5, 4.0, -1.0, 0.25)
        for c, origin in ((0.0, 0), (0.5, 0), (-1.25, 4), (2.0, -3)):
            for e in (-1.5, 0.0, 0.75):
                direct = sum(p_pow(3, e * (k - origin)) * (u.value_at(k) - c)
                             for k in range(lo, hi + 1))
                got = _sum(u, lo, hi, e, c=c, origin=origin)
                assert got == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_open_end_sums_split_at_any_level():
    # the left sum reaching into the right tail, the right sum reaching into the left
    # tail and the sum over every level are the closed-form ends plus finite ranges
    u = RadialFunction(2, -2, 2, (1.0, -2.0, 0.5, 4.0, -1.0),
                       left_tail=TailModel.power_law(0.5, 1.0),
                       right_tail=TailModel.power_law(-3.0, -2.0))
    e = 0.5
    for origin in (0, 5):
        for m in (-6, 0, 5):
            assert _sum(u, None, m + 4, e, origin=origin) == pytest.approx(
                _sum(u, None, m, e, origin=origin) + _sum(u, m + 1, m + 4, e, origin=origin),
                rel=1e-13)
            assert _sum(u, m - 4, None, e, origin=origin) == pytest.approx(
                _sum(u, m - 4, m - 1, e, origin=origin) + _sum(u, m, None, e, origin=origin),
                rel=1e-13)
            assert _sum(u, None, None, e, origin=origin) == pytest.approx(
                _sum(u, None, m, e, origin=origin) + _sum(u, m + 1, None, e, origin=origin),
                rel=1e-13)


def test_an_offset_tail_sums_as_its_constant_and_power_parts():
    # offset + c p^(rho k) beyond the window: the closed form of each part, centered on c'
    # and counted from an origin, against 400 of the series' terms
    u = RadialFunction(2, -2, 2, (1.0, -2.0, 0.5, 4.0, -1.0),
                       left_tail=TailModel.power_law(0.5, 1.0, -0.75),
                       right_tail=TailModel.power_law(-3.0, -2.0, 0.25))
    for c, origin in ((0.0, 0), (1.25, 3), (-0.75, -4)):
        for m in (-6, 0, 5):
            left = _sum(u, None, m, 0.5, c=c, origin=origin)
            right = _sum(u, m, None, -0.5, c=c, origin=origin)
            assert left == pytest.approx(_sum(u, m - 400, m, 0.5, c=c, origin=origin),
                                         rel=1e-13, abs=1e-13)
            assert right == pytest.approx(_sum(u, m, m + 400, -0.5, c=c, origin=origin),
                                          rel=1e-13, abs=1e-13)
    # the offset is a constant part: it needs e < 0 on the right, where the power alone
    # converges at e + rho = -2 < 0, and e > 0 on the left
    assert check_summability(u, 1.5).cond_3_2.detail == (
        "right series sum p^(e k) u(p^k) diverges: constant right tail requires e < 0, "
        "got e = 0.0")
    with pytest.raises(DivergenceError, match="constant left tail requires e > 0"):
        _sum(u, None, 0, 0.0)


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5)),
    e=st.floats(0.2, 2.5),
    m=st.integers(-6, 6),
    values=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
def test_left_sum_telescopes(p, e, m, values):
    u = RadialFunction(p, -1, 1, tuple(values),
                       left_tail=TailModel.constant(values[0]),
                       right_tail=TailModel.power_law(values[-1], -1.0),
                       value_at_zero=values[0])
    total = weighted_sum_left(u, m, e) + p_pow(p, e * (m + 1)) * u.value_at(m + 1)
    target = weighted_sum_left(u, m + 1, e)
    assert total == pytest.approx(target, rel=1e-12, abs=1e-12)


def test_summability_constant_one():
    rep = check_summability(RadialFunction.constant(2, 1.0), 0.5)
    assert rep.cond_3_1.holds
    assert rep.cond_3_1_prime.holds
    assert rep.cond_2_7.holds
    assert not rep.cond_3_2.holds  # sum over l >= m of a constant diverges


def test_summability_indicator_alpha2():
    rep = check_summability(RadialFunction.indicator_unit_ball(3), 2.0)
    assert rep.all_applicable_hold()


def test_summability_boundary_power_tail():
    alpha = 1.5
    u = RadialFunction(2, 0, 0, (1.0,),
                       left_tail=TailModel.constant(1.0),
                       right_tail=TailModel.power_law(1.0, alpha))
    rep = check_summability(u, alpha)
    assert not rep.cond_3_1_prime.holds


def test_summability_alpha_one_populates_log_conditions():
    # at alpha = 1 cond_2_7 and cond_3_2 are the paper's log conditions (2.8) and (3.3)
    rep = check_summability(RadialFunction.indicator_unit_ball(2), 1.0)
    assert rep.cond_2_7.holds and rep.cond_3_2.holds


def _converges(u, weight, side):
    """Whether sum weight(k) |u(p^k)| converges as k -> -inf (left) or +inf (right), read
    from two terms 60 levels apart: a tail of rate r > 0 shrinks them by p^(-60 r), at
    least 2^-15 for the rates below, and a boundary rate keeps or grows them."""
    near, far = (-60, -120) if side == "left" else (60, 120)
    term_near, term_far = (weight(k) * abs(u.value_at(k)) for k in (near, far))
    return term_far <= 1e-3 * term_near


_RATE_TAILS = [TailModel.zero(), TailModel.constant(-1.5)] + [
    TailModel.power_law(0.5, 0.25 * i) for i in range(-10, 11, 2)] + [
    TailModel.power_law(-2.0, rho) for rho in (-1.75, -0.25, 0.25, 1.25)]


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.25, 2.0))
def test_summability_table_matches_the_series_terms(p, alpha):
    # each condition by its own weight, decided from the terms of its series beyond the
    # window: no rate is read from the tail models
    for left in _RATE_TAILS:
        for right in _RATE_TAILS:
            u = RadialFunction(p, -2, 2, (1.0, -2.0, 0.0, 4.0, -1.0),
                               left_tail=left, right_tail=right)
            rep = check_summability(u, alpha)
            near = _converges(u, lambda k: max(p ** k, p ** (alpha * k)), "left")
            if alpha == 1.0:  # the weights |k| of (2.8) and (3.3)
                near = _converges(u, lambda k: abs(k) * p ** k, "left")
                far = _converges(u, abs, "right")
            else:
                far = _converges(u, lambda k: 1.0, "right")
            got = (rep.cond_2_7, rep.cond_3_2)
            want = (_converges(u, lambda k: p ** k, "left"),
                    _converges(u, lambda k: p ** (-alpha * k), "right"), near, near and far)
            checks = (rep.cond_3_1, rep.cond_3_1_prime) + got
            assert tuple(c.holds for c in checks) == want, (left, right)
            for c in checks:
                assert (c.detail == "") == c.holds and (c.holds or "diverges" in c.detail)
            if not near:  # the joint condition keeps the first failing detail
                assert got[1].detail == got[0].detail


def test_summability_needs_no_sum_of_the_window():
    # both summed a finite part once, whose p^(e k) or tail values passed the overflow
    # guard: MagnitudeError at split level 700, and at every split below the window
    assert check_summability(RadialFunction.indicator_unit_ball(2), 2.0).all_applicable_hold()
    u = RadialFunction(2, 1100, 1101, (1.0, 1.0), left_tail=TailModel.power_law(1.0, 1.0))
    for alpha in (0.5, 1.0, 2.0):
        assert check_summability(u, alpha).all_applicable_hold()


@settings(max_examples=40, deadline=None)
@given(rho=st.floats(-3.0, -0.05), shrink=st.floats(0.01, 0.9))
def test_summability_monotone_toward_boundary(rho, shrink):
    # moving a convergent right-tail exponent toward the boundary never
    # turns a failing condition into a passing one
    alpha = 1.5

    def holds(r):
        u = RadialFunction(2, 0, 0, (1.0,), right_tail=TailModel.power_law(1.0, r))
        rep = check_summability(u, alpha)
        return (rep.cond_3_1_prime.holds, rep.cond_3_2.holds)

    near = tuple(rho * shrink for _ in range(1))[0]
    far = holds(rho)
    close = holds(near)
    for got_far, got_close in zip(far, close):
        if got_close:
            assert got_far


def test_serialization_round_trip():
    u = three_values()
    text = dump_radial(u)
    v = load_radial(text)
    assert v == u
    u = dataclasses.replace(u, left_tail=TailModel.power_law(-0.25, 0.5, 1.0))
    assert dump_radial(u).startswith("2 -1 1 1.0 power:-0.25:0.5:1.0 power:3.0:-1.0\n")
    assert load_radial(dump_radial(u)) == u


def test_load_errors_are_line_addressed():
    with pytest.raises(DomainError, match="line 1"):
        load_radial("2 0 0 1.0 zero\n0 1\n")
    with pytest.raises(DomainError, match="line 2"):
        load_radial("2 0 0 1.0 zero zero\n0 one\n")
    with pytest.raises(DomainError, match="missing"):
        load_radial("2 0 1 1.0 zero zero\n0 1\n")
    # the last of two lines for one level used to win, and a level outside the window was dropped
    with pytest.raises(DomainError, match="line 4: level 1 is given twice"):
        load_radial("2 0 1 0.0 zero zero\n0 1.0\n1 2.0\n1 5.0\n7 9.0\n")
    with pytest.raises(DomainError, match="line 4: level 7 is outside"):
        load_radial("2 0 1 0.0 zero zero\n0 1.0\n1 2.0\n7 9.0\n")
    # comment and blank lines count: the reported line is the file's own
    with pytest.raises(DomainError, match="line 6: level 1 is given twice"):
        load_radial("# a comment\n\n2 0 1 0.0 zero zero\n0 1.0\n1 2.0\n1 5.0\n")
    with pytest.raises(DomainError, match="line 3: header"):
        load_radial("# a comment\n\n2 0 0 1.0 zero\n0 1\n")
    with pytest.raises(DomainError, match="line 3: could not convert"):
        load_radial("2 0 0 1.0 zero zero\n# a comment\n0 one\n")
    for text in ("", "# only a comment\n\n"):
        with pytest.raises(DomainError, match="^empty radial function file$"):
            load_radial(text)
    with pytest.raises(DomainError, match="^line 2: invalid literal for int\\(\\) with base 10: "
                                          "'0.5'$"):
        load_radial("# a comment\n2 0.5 1 1.0 zero zero\n0 1\n")
    with pytest.raises(DomainError, match="^line 2: expected 'k value', got '0'$"):
        load_radial("2 0 0 1.0 zero zero\n0\n")
