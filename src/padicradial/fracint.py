"""The p-adic fractional integral I^alpha and its kernel constants.

On radial functions the integral reduces, for |x|_p = p^n, to a diagonal
term plus a strictly interior ball integral:

    (I^a u)(p^n) = p^(-a) p^(a n) u(p^n)
                   + (1 - p^-a)/(1 - p^(a-1)) *
                     integral_{|y| < |x|} (|x|^(a-1) - |y|^(a-1)) u(|y|) dy

for a != 1, and with the kernel log|x| - log|y| and the prefactor
(1 - p)/(p ln p) for a = 1.  The interior integral is a stratified sum
over levels k <= n - 1 whose infinite part collapses to geometric series
through the weighted sums of :mod:`padicradial.radial`.

Applied to a pure power |y|^(a sigma) the interior kernel integral is
homogeneous of degree a (sigma + 1) in |t|, with a t-independent
constant d_{a,sigma}; :func:`kernel_constant` evaluates its closed form
and :func:`kernel_constant_oracle` rebuilds it stratum by stratum.  Both
the absolute constant (used for bounds) and the signed one (used when
evaluating I^alpha itself) are carried, because for a < 1 the kernel and
the prefactor flip sign together - dropping one of the two flips is the
classic sign error in this computation.

:func:`bound_constants` packages the growth constants for powers of the
integral operator: c_n bounds |I^a phi| / (mu |t|^((n+1)(a-g))) over the
envelope class |phi| <= mu |t|^(n a - (n+1) g), and c_uniform dominates
every c_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import DegenerationError, DivergenceError, require_finite
from .haar import Prime, DEFAULT_DEPTH, _Powers, p_pow, p_pow_levels
from .radial import (
    RadialFunction,
    TailModel,
    level_weighted_sum_left,
    weighted_sum_left,
)

# Floor for the slack used when building the sigma-uniform envelope bound.
_EPS_FLOOR = 1e-6


@dataclass(frozen=True)
class KernelConstants:
    """Kernel integral constants at a fixed (p, alpha, sigma).

    d_abs    : the positive constant d_{alpha,sigma} of the absolute-kernel
               integral, normalized by |t|^(alpha (sigma + 1)).
    s_signed : the signed-kernel analogue: sign(alpha - 1) * d_abs for
               alpha != 1, and d_abs itself for alpha = 1 (the log kernel
               is positive on |y| < |t|).
    a_bound  : envelope constant with d_abs <= a_bound * p^(-alpha sigma)
               for every sigma' >= theta; built at theta = boundary + epsilon.
    epsilon  : slack used for a_bound, the actual distance of sigma from
               the divergence boundary floored at 1e-6.
    """

    p: int
    alpha: float
    sigma: float
    d_abs: float
    s_signed: float
    a_bound: float
    epsilon: float
    theta: float


def _domain_boundary(alpha: float) -> float:
    return max(-1.0 / alpha, -1.0)


def _check_sigma(alpha: float, sigma: float) -> float:
    boundary = _domain_boundary(alpha)
    if sigma <= boundary:
        raise DivergenceError(
            "kernel integral diverges: requires sigma > max(-1/alpha, -1) "
            f"= {boundary}, got sigma = {sigma}"
        )
    return boundary


def _kernel_envelope(p: int, alpha: float, s: float) -> float:
    """The sigma-free factor of d_{alpha,sigma}, evaluated at s.

    d_{alpha,sigma} = _kernel_envelope(p, alpha, sigma) * p^(-alpha sigma),
    and the map s -> envelope(s) is decreasing, which is what makes the
    envelope at theta dominate every sigma >= theta.
    """
    if alpha == 1.0:
        return (1.0 - 1.0 / p) * math.log(p) * (1.0 / p) / (1.0 - p_pow(p, -s - 1.0)) ** 2
    num = abs(p_pow(p, alpha - 1.0) - 1.0)
    den = (1.0 - p_pow(p, -alpha * s - 1.0)) * (p_pow(p, alpha) - p_pow(p, -alpha * s))
    return (1.0 - 1.0 / p) * num / den


@lru_cache(maxsize=4096)
def _kernel_constant_cached(p: int, alpha: float, sigma: float) -> KernelConstants:
    boundary = _check_sigma(alpha, sigma)
    epsilon = max(sigma - boundary, _EPS_FLOOR)
    theta = boundary + epsilon
    d_abs = _kernel_envelope(p, alpha, sigma) * p_pow(p, -alpha * sigma)
    s_signed = d_abs if alpha >= 1.0 else -d_abs
    a_bound = _kernel_envelope(p, alpha, theta)
    return KernelConstants(p=p, alpha=alpha, sigma=sigma, d_abs=d_abs,
                           s_signed=s_signed, a_bound=a_bound,
                           epsilon=epsilon, theta=theta)


def kernel_constant(p: int, alpha: float, sigma: float) -> KernelConstants:
    """Closed-form kernel constants; memoized per (p, alpha, sigma)."""
    require_finite(alpha=alpha, sigma=sigma)
    if alpha <= 0:
        raise DivergenceError(f"alpha must be positive, got {alpha}")
    return _kernel_constant_cached(int(Prime(p)), float(alpha), float(sigma))


def kernel_constant_oracle(p: int, alpha: float, sigma: float,
                           depth: int = DEFAULT_DEPTH) -> float:
    """d_{alpha,sigma} by brute-force stratified summation at reference level 0.

    Sums ``depth`` interior spheres of integral_{|y| < 1}
    ||t|^(a-1) - |y|^(a-1)| |y|^(a sigma) dy (log kernel for a = 1); the
    neglected remainder is a geometric tail with rate
    p^(-(alpha sigma + min(alpha, 1))) below the deepest retained stratum.
    """
    p = Prime(p)
    require_finite(alpha=alpha, sigma=sigma)
    if alpha <= 0:
        raise DivergenceError(f"alpha must be positive, got {alpha}")
    if depth < 1:
        raise DivergenceError(f"oracle depth must be >= 1, got {depth}")
    _check_sigma(alpha, sigma)
    frac = 1.0 - 1.0 / p
    if alpha == 1.0:
        lp = math.log(p)
        return frac * lp * sum(nu * p_pow(p, -nu * (sigma + 1.0))
                               for nu in range(depth, 0, -1))
    total = 0.0
    for kernel, weight, w in zip(p_pow_levels(p, alpha - 1.0, -depth, -1),
                                 p_pow_levels(p, alpha * sigma, -depth, -1),
                                 p_pow_levels(p, 1, -depth, -1)):
        total += abs(1.0 - kernel) * weight * frac * w
    return total


def _interior_prefactor(p: int, alpha: float) -> float:
    """The signed coefficient multiplying the interior kernel integral."""
    if alpha == 1.0:
        return (1.0 - p) / (p * math.log(p))
    return (1.0 - p_pow(p, -alpha)) / (1.0 - p_pow(p, alpha - 1.0))


def power_image_coefficient(p: int, alpha: float, rho: float) -> float:
    """Coefficient of I^alpha on the pure power |y|^rho.

    (I^a |.|^rho)(|t|) = coefficient * |t|^(alpha + rho); requires
    rho/alpha above the kernel domain boundary.
    """
    kc = kernel_constant(p, alpha, rho / alpha)
    return p_pow(p, -alpha) + _interior_prefactor(p, alpha) * kc.s_signed


class _IalphaSweep:
    """Running sums of the interior I^alpha integral over ascending levels.

    After levels k < n have been pushed it holds s1 = sum p^k phi_k and
    s2 = sum p^(alpha k) phi_k (s2 = sum k p^k phi_k on the alpha = 1 log
    branch), so the value at level n costs O(1) and a whole window one
    O(W) pass in a fixed ascending summation order.  The powers of p that
    weight ``levels`` are built once, for every pass over them; without
    levels (one value) the methods pk, pa and pm call :func:`p_pow`.
    """

    lists = None  # (p^k, p^(alpha (k-1)), p^(alpha k), p^((alpha-1) k)) over levels

    def __init__(self, p: int, alpha: float, levels: range = range(0),
                 s1: float = 0.0, s2: float = 0.0):
        self.p = p
        self.alpha = alpha
        self.levels = levels
        self.s1 = s1
        self.s2 = s2
        self.pref = _interior_prefactor(p, alpha)
        self.frac = 1.0 - 1.0 / p
        self.coef = (p - 1.0) ** 2 / (p * p)
        if levels:  # tables, in place of the methods below
            below = range(levels.start - 1, levels.stop)
            pk = _Powers(p, 1, below)
            pa = pk if alpha == 1.0 else _Powers(p, alpha, below)
            pm = _Powers(p, alpha - 1.0, levels)
            self.pk, self.pa, self.pm = pk.__getitem__, pa.__getitem__, pm.__getitem__
            if pk.table and pa.table and pm.table:
                self.lists = (pk.table[1:], pa.table, pa.table[1:], pm.table)

    def pk(self, k: float) -> float:  # p^k
        return p_pow(self.p, k)

    def pa(self, k: float) -> float:  # p^(alpha k)
        return p_pow(self.p, self.alpha * k)

    def pm(self, n: int) -> float:  # p^((alpha-1) n)
        return p_pow(self.p, (self.alpha - 1.0) * n)

    def value(self, n: int, phi: float) -> float:
        """(I^a phi)(p^n) given phi_n; phi = 0 leaves the interior part alone."""
        if self.alpha == 1.0:
            return self.pk(n - 1.0) * phi - self.coef * (n * self.s1 - self.s2)
        interior = self.frac * (self.pm(n) * self.s1 - self.s2)
        return self.pa(n - 1.0) * phi + self.pref * interior

    def push(self, k: int, phi: float) -> None:
        """Add level k, which must be the level after the last one pushed."""
        w = self.pk(k)
        self.s1 += w * phi
        if self.alpha == 1.0:
            self.s2 += k * w * phi
        else:
            self.s2 += self.pa(k) * phi

    def window(self, phis) -> list:
        """value(n, phi) then push(n, phi) for n over ``levels`` and phi over phis, in one loop."""
        out = []
        if self.lists is None:  # no tables: level by level, raising where value and push do
            for n, phi in zip(self.levels, phis):
                out.append(self.value(n, phi))
                self.push(n, phi)
            return out
        pk, pa_prev, pa, pm = self.lists
        s1, s2 = self.s1, self.s2
        frac, pref, coef = self.frac, self.pref, self.coef
        if self.alpha == 1.0:
            for n, phi, w_prev, w in zip(self.levels, phis, pa_prev, pk):
                out.append(w_prev * phi - coef * (n * s1 - s2))
                s1 += w * phi
                s2 += n * w * phi
        else:
            for phi, a_prev, m, w, a in zip(phis, pa_prev, pm, pk, pa):
                out.append(a_prev * phi + pref * (frac * (m * s1 - s2)))
                s1 += w * phi
                s2 += a * phi
        self.s1, self.s2 = s1, s2
        return out


def _sweep_below(u: RadialFunction, alpha: float, n: int,
                 levels: range = range(0)) -> _IalphaSweep:
    """A sweep over ``levels`` holding u on every level k <= n - 1, its tails in closed form."""
    try:
        s1 = weighted_sum_left(u, n - 1, 1.0)
        if alpha == 1.0:
            return _IalphaSweep(u.p, alpha, levels, s1, level_weighted_sum_left(u, n - 1, 1.0))
        return _IalphaSweep(u.p, alpha, levels, s1, weighted_sum_left(u, n - 1, alpha))
    except DivergenceError as err:
        raise DivergenceError(f"I^alpha at level {n}: {err}") from err


def apply_ialpha(u: RadialFunction, alpha: float, n: int) -> float:
    """(I^alpha u)(p^n) via the diagonal term plus the interior stratified sum.

    The interior integral runs over levels k <= n - 1 only (strict
    inequality |y| < |x|); the level-n sphere enters solely through the
    diagonal term p^(-alpha) |x|^alpha u(|x|).  Convergence of the
    interior sums is exactly the max(p^k, p^(alpha k)) condition for
    alpha != 1 and the |k| p^k condition for alpha = 1.
    """
    require_finite(alpha=alpha)
    if alpha <= 0:
        raise DivergenceError(f"alpha must be positive, got {alpha}")
    return _sweep_below(u, alpha, n).value(n, u.value_at(n))


@dataclass(frozen=True)
class BoundConstants:
    """Growth constants for iterated applications of I^alpha.

    c0 bounds the first application on the envelope |phi| <= mu |t|^(-gamma);
    c_n(n) the n-th; 0 < c_n(n) <= c_uniform for every n >= 0.
    """

    c0: float
    c_n: Callable[[int], float]
    c_uniform: float


def bound_constants(p: int, alpha: float, gamma: float) -> BoundConstants:
    """Constants c_0, c_n, c_uniform for the weak-degeneration regime."""
    p = Prime(p)
    require_finite(alpha=alpha, gamma=gamma)
    if alpha <= 0:
        raise DivergenceError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= gamma < min(1.0, alpha):
        raise DegenerationError(
            f"weak degeneration requires 0 <= gamma < min(1, alpha) "
            f"= {min(1.0, alpha)}, got gamma = {gamma}"
        )
    abs_pref = abs(_interior_prefactor(p, alpha))

    def sigma_n(n: int) -> float:
        return (n * alpha - (n + 1) * gamma) / alpha

    def c_n(n: int) -> float:
        if n < 0:
            raise DivergenceError(f"bound constant index must be >= 0, got {n}")
        return p_pow(p, -alpha) + abs_pref * kernel_constant(p, alpha, sigma_n(n)).d_abs

    c0 = c_n(0)
    a_bound = kernel_constant(p, alpha, sigma_n(0)).a_bound
    c_uniform = p_pow(p, -alpha) + abs_pref * a_bound * p_pow(p, gamma)
    return BoundConstants(c0=c0, c_n=c_n, c_uniform=c_uniform)


def assemble_fractional_integral(v: RadialFunction, alpha: float,
                                 k_lo: int = -60, k_hi: int = 80) -> RadialFunction:
    """Evaluate I^alpha v on [k_lo, k_hi] and package it as a RadialFunction.

    The left tail of the result is exact: below v's window a zero or
    constant v integrates to exactly 0 (the kernel annihilates constants),
    and a power-law v of exponent rho maps to the power law of exponent
    alpha + rho with :func:`power_image_coefficient` in front.

    The right side of I^alpha v mixes three asymptotic components
    (p^((alpha+rho) m), p^((alpha-1) m) and a constant), which no single
    tail model represents, so the right tail is set to zero and the window
    must absorb the error instead: feeding the result to D^alpha weights
    level m by p^(-alpha m), so the discarded part contributes
    O(p^(-min(alpha, 1, -rho) k_hi)).  The default k_hi = 80 keeps that
    below 1e-10 for every admissible v with rho <= -1/2 and alpha >= 1/2.
    """
    if k_lo > v.k_min:
        raise DivergenceError(
            f"assembly window must start at or below v's window (k_lo = {k_lo} "
            f"> k_min = {v.k_min}), or the exact left tail is unavailable"
        )
    # closed form below v's window, then one sweep in _sum_left's order
    values = [apply_ialpha(v, alpha, n) for n in range(k_lo, min(v.k_min, k_hi + 1))]
    levels = range(v.k_min, k_hi + 1)
    values += _sweep_below(v, alpha, v.k_min, levels).window(v.value_at(n) for n in levels)
    tail = v.left_tail
    if tail.kind in ("zero", "const"):
        left = TailModel.zero()
    else:
        coeff = power_image_coefficient(v.p, alpha, tail.rho)
        left = TailModel.power_law(tail.c * coeff, alpha + tail.rho)
    return RadialFunction(
        v.p, k_lo, k_hi, values,
        left_tail=left, right_tail=TailModel.zero(), value_at_zero=0.0,
    )
