"""The Vladimirov fractional derivative D^alpha on radial functions.

For a radial u and |x|_p = p^n the hypersingular integral

    (D^a u)(x) = d_a * integral |y|^(-a-1) [u(|x - y|) - u(|x|)] dy,
    d_a = (1 - p^a) / (1 - p^(-a-1)),

depends only on n and reduces to an explicit series: a left sum of
p^k u(p^k) over k < n, a diagonal coefficient acting on u(p^n), and a
right sum of p^(-a l) u(p^l) over l > n.  The operator annihilates
constants, so every route here subtracts u(p^n) first: evaluated
literally, the series terms reach ~p^(a |n|) |u| and cancel, destroying
up to a |n| log10(p) digits.

:func:`apply_dalpha` and :func:`dalpha_window` walk the centered sums
scaled to their own level, Lhat(n) = p^(-n) sum_{k<n} p^k (u_k - u_n)
and Rhat(n) = p^(a n) sum_{l>n} p^(-a l) (u_l - u_n), through

    Lhat(n+1) = Lhat(n) / p + (u_n - u_{n+1}) / (p - 1),
    Rhat(n-1) = p^(-a) Rhat(n) + (u_n - u_{n-1}) / (p^a - 1),
    D^a u(p^n) = d_a (1 - 1/p) p^(-a n) (Lhat(n) + Rhat(n)),

each seeded at its end of the window (or at n, beyond it) with the
centered tail beyond in closed form.  Each walk reads every value once and
carries the one before it as the neighbour of the next step.
:func:`apply_dalpha` keeps only the running values, :func:`dalpha_window`
every level, with the p^(-a n) that joined it: O(W) either way, a
single-level call included, and neither caches anything.
Scaled, the intermediates stay near |u| / (p - 1) and |u| / (p^a - 1) at
any level, where the unscaled sums leave the double range with
p^(-(a+1) n) or p^(-a l).
Centering survives: the walks step by differences of neighbouring values,
never by an uncentered sum, and damp by 1/p and p^(-a) < 1, so rounding
decays along them.  The window pass bounds each value's rounding to
first order in 2^-53 by walking the per-step bounds the same way from a
bound on the seed, then adding the relative error of d_a, of p^(-a n)
(1 + 3 a |n| ln p units: exp of a rounded exponent) and of the products,
and where p^(-a n) or d_a (1 - 1/p) p^(-a n) is subnormal, its absolute
rounding.

:func:`apply_dalpha_oracle` sums the strata of the defining integral one
by one (the equal-norm sphere |y| = |x| is split by |x - y| = p^j into
masses (1 - 1/p) p^j for j < n and p^n (1 - 2/p) for j = n, the latter
multiplying a zero bracket) and completes the truncated ends in closed
form with the centered weighted sums of :mod:`padicradial.radial`.
"""

from __future__ import annotations

import math

from .errors import DivergenceError, MagnitudeError, require_alpha, require_depth, require_level
from .haar import DEFAULT_DEPTH, OVERFLOW_GUARD, Prime, p_pow
from .radial import RadialFunction, _sum, _tail_sum

_UNIT = 2.0 ** -53  # unit roundoff of a double


def d_alpha(p: int, alpha: float) -> float:
    """The constant of the radial series for D^alpha: (1 - p^alpha) / (1 - p^(-alpha-1)) < 0;
    :class:`MagnitudeError` where p^alpha passes the overflow guard."""
    p = Prime(p)
    require_alpha(alpha)
    t = alpha * math.log(p)
    if t > OVERFLOW_GUARD:
        p_pow(p, alpha)  # raises
    return -math.expm1(t) / (1.0 - p_pow(p, -alpha - 1.0))


def _seed_rounding(tail, origin: int, e: float, seed: float, c: float, g: float,
                   lnp: float) -> float:
    """Rounding bound of a closed-form seed with weights summing to g: its tail
    part is at most |seed| + |c| g, its centering part |c| g, each off by a
    few units plus 3 |exponent ln p| per power of p, times 1 / (1 - p^-r)
    for a geometric sum of ratio p^-r."""
    damp = max(-1.0 / math.expm1(-abs(r) * lnp) for r in (e, e + tail.rho))
    rho = abs(tail.rho)
    units = 10.0 + 4.0 * (1.0 + rho + abs(e)) * lnp + 3.0 * rho * abs(origin) * lnp
    return _UNIT * units * damp * (abs(seed) + 2.0 * abs(c) * g)


def _walk_start(u: RadialFunction, alpha: float, lo: int, hi: int) -> tuple:
    """(coef, p, p^-a, p^a - 1, a, vals, Lhat(a), Rhat(b)) for the walks over [a, b] =
    [min(lo, k_min), max(hi, k_max)]: coef = d_a (1 - 1/p), p a float divisor (exact, and
    CPython's fast path), vals = u on [a, b] (u.values if that is the window), closed-form seeds."""
    coef = d_alpha(u.p, alpha) * (1.0 - 1.0 / u.p)
    a, b = min(lo, u.k_min), max(hi, u.k_max)
    vals = u.values if a == u.k_min and b == u.k_max else u.values_on(a, b)
    try:
        seed_l = _tail_sum(0.0, u.left_tail, u.p, a - 1, 1.0, vals[0], "left", a)
        seed_r = _tail_sum(0.0, u.right_tail, u.p, b + 1, -alpha, vals[-1], "right", b)
    except DivergenceError as err:
        raise DivergenceError(f"D^alpha at levels [{lo}, {hi}]: {err}") from err
    return (coef, float(u.p), p_pow(u.p, -alpha), math.expm1(alpha * math.log(u.p)), a, vals,
            seed_l, seed_r)


def apply_dalpha(u: RadialFunction, alpha: float, n: int) -> float:
    """(D^alpha u)(p^n) via the explicit radial series, in O(W + |n - window|).

    Walks Lhat up to n and Rhat down to n from the ends of the window (or
    from n, outside it), keeping only the running value; nothing is cached.
    Requires the left series sum p^k |u(p^k)| and the right series
    sum p^(-alpha l) |u(p^l)| to converge; a violated tail raises
    :class:`DivergenceError` naming the failed inequality, and a level
    whose p^(-alpha n) exceeds the double range :class:`MagnitudeError`.
    """
    n = require_level(n)
    coef, p, q, qm1, a, vals, left, right = _walk_start(u, alpha, n, n)
    pm1, i = p - 1.0, n - a  # n in vals
    v = vals[0]
    for w in vals[1:i + 1]:
        left = left / p + (v - w) / pm1
        v = w
    v = vals[-1]
    for w in vals[-2:i - len(vals) - 1:-1]:  # vals[-2] down to vals[i]
        right = q * right + (v - w) / qm1
        v = w
    try:
        return coef * p_pow(u.p, -alpha * n) * (left + right)
    except MagnitudeError:
        raise MagnitudeError(f"D^alpha at level {n}: p^(-alpha n) = {u.p}**{-alpha * n} "
                             "exceeds the overflow guard") from None


def dalpha_window(u: RadialFunction, alpha: float) -> tuple:
    """(values, rounding, scales) of D^alpha u on the window in O(W): one walk per side
    forms Lhat or Rhat with its rounding bound, and one pass over the levels joins them.

    ``values[i]`` is :func:`apply_dalpha` at level k_min + i, bit for bit, or
    None where that raises :class:`MagnitudeError`; ``rounding[i]`` bounds its
    error to first order, taking the tails as exact; ``scales[i]`` is the join's
    p^(-alpha n), or None there too.  Where p^(-alpha n) or
    d_a (1 - 1/p) p^(-alpha n) is subnormal, the value keeps only that subnormal's
    bits, and the bound adds their absolute rounding,
    2^-1074 ((|d_a (1 - 1/p)| + 1) (|Lhat + Rhat| + its bound) + 1).  Nothing is cached.
    """
    coef, p, q, qm1, a, vals, left, right = _walk_start(u, alpha, u.k_min, u.k_max)
    b, pm1, lnp, inv_p, unit, fabs = u.k_max, p - 1.0, math.log(u.p), 1.0 / p, _UNIT, abs
    # per step, damped as the value is: the rounding of each operation on the magnitudes
    # at hand, with q and 1/(p^a - 1) themselves off by 1 + 3x and 1 + 2x/(1-q) units
    x = alpha * lnp
    c_q, c_d = 2.0 + 3.0 * x, 3.0 + 2.0 * x / (1.0 - q)
    e = _seed_rounding(u.left_tail, a, 1.0, left, vals[0], 1.0 / pm1, lnp)
    lefts, errs_l = [left], [e]  # Lhat(a .. b) and their bounds
    v = vals[0]
    for w in vals[1:]:
        d, v = v - w, w
        l0, left = left, left / p + d / pm1
        e = e * inv_p + unit * (2.0 * fabs(l0) / p + 2.0 * fabs(d) / pm1 + fabs(left))
        lefts.append(left)
        errs_l.append(e)
    e = _seed_rounding(u.right_tail, b, -alpha, right, vals[-1], 1.0 / qm1, lnp)
    rights, errs_r = [right], [e]  # Rhat(b .. a) and their bounds
    v = vals[-1]
    for w in vals[-2::-1]:
        d, v = v - w, w
        r0, right = right, right * q + d / qm1
        e = e * q + unit * (c_q * q * fabs(r0) + c_d * fabs(d) / qm1 + fabs(right))
        rights.append(right)
        errs_r.append(e)
    # d_a: a few units from expm1; the 1/(1-q) units are kept as margin
    c_coef = 9.0 + (1.0 + 3.0 * x) / (1.0 - q) + 6.0 * (alpha + 1.0) * lnp
    # below ``tiny`` p^(-a n) or d_a (1 - 1/p) p^(-a n) is subnormal, in steps of 2^-1074
    values, rounding, scales = [], [], []
    abs_coef, base, tiny = fabs(coef), u.p, 2.0 ** -1022 / min(1.0, fabs(coef))
    for n, l, el, r, er in zip(range(a, b + 1), lefts, errs_l, reversed(rights),
                               reversed(errs_r)):
        try:
            scale = p_pow(base, -alpha * n)
        except MagnitudeError:
            values.append(None)
            rounding.append(None)
            scales.append(None)
            continue
        v = coef * scale * (l + r)
        bound = abs_coef * scale * (el + er) + unit * (c_coef + 3.0 * fabs(n) * x) * fabs(v)
        if scale < tiny:
            bound += ((abs_coef + 1.0) * (fabs(l + r) + el + er) + 1.0) * 2.0 ** -1074
        values.append(v)
        rounding.append(bound)
        scales.append(scale)
    return values, rounding, scales


def apply_dalpha_oracle(u: RadialFunction, alpha: float, n: int,
                        depth: int = DEFAULT_DEPTH) -> float:
    """(D^alpha u)(p^n) by direct stratified summation of the defining integral.

    Sums ``depth`` strata on each side of level n explicitly and completes
    the rest in closed form from the tail models.  Spheres |y|_p = p^j with
    j < n land in the |x - y| = p^j stratum of the equal-norm sphere's
    decomposition; spheres with j > n contribute through |x - y| = p^j.
    """
    depth = require_depth(depth)
    n = require_level(n)
    d = d_alpha(u.p, alpha)
    p = u.p
    frac = 1.0 - 1.0 / p
    c = u.value_at(n)

    # each stratum's p^i p^(-(alpha+1) n) as one power, and the completion summed
    # relative to level n, so that the left part stays in range at any level
    e_n = -(alpha + 1.0) * n
    diag = 0.0
    for i, v in zip(range(n - depth, n), u.values_on(n - depth, n - 1)):
        diag += frac * p_pow(p, i + e_n) * (v - c)
    # |x - y| = p^n stratum has mass p^n (1 - 2/p) but a zero bracket.
    diag += frac * p_pow(p, -alpha * n) * _sum(u, None, n - depth - 1, 1.0, c=c, origin=n)

    right = 0.0
    for k, v in zip(range(n + 1, n + depth + 1), u.values_on(n + 1, n + depth)):
        right += frac * p_pow(p, -alpha * k) * (v - c)
    right += frac * _sum(u, n + depth + 1, None, -alpha, c=c)

    return d * (diag + right)
