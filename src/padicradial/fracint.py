"""The p-adic fractional integral I^alpha and its kernel constants.

On radial functions, for |x|_p = p^n, the integral is a diagonal term plus
a strictly interior ball integral,

    (I^a u)(p^n) = p^(-a) p^(a n) u(p^n) + (1 - p^-a)/(1 - p^(a-1)) *
                   integral_{|y| < |x|} (|x|^(a-1) - |y|^(a-1)) u(|y|) dy,

with the kernel log|x| - log|y| and the prefactor (1 - p)/(p ln p) at
a = 1.  Over the strata k < n both are one sum, with no branch at a = 1:

    (I^a u)(p^n) = p^(a n) [p^(-a) u_n + (1 - p^-a)(1 - 1/p) sum_{k<n} g(n - k) u_k],
    g(j) = -sum_{i=1..j} p^(-(j-i)) p^(-a i)    (-j p^-j at a = 1).

I^a annihilates constants, so :class:`_IalphaSweep` walks the centered
sums scaled to their own level, Bc(n) = sum_{k<n} p^(a (k-n)) (u_k - u_n)
and Gc(n) = sum_{k<n} g(n - k) (u_k - u_n), through

    Bc(n+1) = p^(-a) Bc(n) + (u_n - u_{n+1}) / (p^a - 1),
    Gc(n+1) = Gc(n) / p - (u_n - u_{n+1}) / ((p^a - 1)(p - 1)) - Bc(n+1),
    (I^a u)(p^n) = p^(a n) [(1 - p^-a)(1 - 1/p) (Gc(n-1) / p - p^-a Bc(n-1))
                   + p^-a (u_n - u_{n-1})],

in O(1) per level, with no 1 - p^(a-1) division and exactly 0 for a
constant.  The value at n is read from the sums below it: the one formula
the solver and the operator API share.  The walks damp by p^(-a) and 1/p
and step by differences of neighbouring values, so rounding decays along them.  Their seed is the
left tail in closed form: sum_j g(j) z^j = -z p^-a / ((1 - z/p)(1 - z p^-a))
is a product of two geometric series, so a tail part c p^(rho k) adds
c p^(rho n) b to Bc(n) and c p^(rho n) b / (p^(-1-rho) - 1) to Gc(n),
b = 1 / (p^(a+rho) - 1); the centering -u_n is the part with rho = 0, and
both converge iff rho > -min(1, a).  A tail's constant part adds nothing.
For the solver's ftilde_k = p^(-g k) f_k the walks, scaled by p^(g n) too,
take f itself, with ratios p^(g-a) and p^(g-1) and differences
p^g f_n - f_{n+1}; the one power of p left is the output scale p^((a-g) n),
an integer power of one rounded p^(a-g).  Its seed below the floor is the
same closed form (:func:`_power_state`) of the tail ftilde_k = f0 p^(-g k):
scaled to its level, the power f0 with rho = -g.

Applied to a pure power |y|^(a sigma) the interior kernel integral is
homogeneous of degree a (sigma + 1) in |t|, with a t-independent
constant d_{a,sigma}; :func:`kernel_constant` evaluates its closed form
and :func:`kernel_constant_oracle` rebuilds it stratum by stratum.  Both
the absolute constant (used for bounds) and the signed one are carried,
because for a < 1 the kernel and the prefactor flip sign together -
dropping one of the two flips is the classic sign error in this
computation.

:func:`bound_constants` returns the growth constants of powers of the
integral operator as the function n -> c_n: c_n bounds |I^a phi| /
(mu |t|^((n+1)(a-g))) over the envelope class |phi| <= mu |t|^(n a - (n+1) g);
c_n falls with n, so the uniform constant C = c_n(0) dominates every c_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (DivergenceError, require_alpha, require_depth, require_finite,
                     require_level, require_weak_degeneration)
from .haar import DEFAULT_DEPTH, OVERFLOW_GUARD, Prime, p_pow
from .radial import RadialFunction, TailModel, _require_convergent


@dataclass(frozen=True)
class KernelConstants:
    """Kernel integral constants at a fixed (p, alpha, sigma).

    d_abs    : the positive constant d_{alpha,sigma} of the absolute-kernel
               integral, normalized by |t|^(alpha (sigma + 1)).
    s_signed : the signed-kernel analogue: sign(alpha - 1) * d_abs for
               alpha != 1, and d_abs itself for alpha = 1 (the log kernel
               is positive on |y| < |t|).
    a_bound  : envelope constant with d_{alpha,sigma'} <= a_bound * p^(-alpha sigma')
               for every sigma' >= sigma: the sigma-free factor of d_abs at sigma,
               so d_abs = a_bound * p^(-alpha sigma).
    """

    d_abs: float
    s_signed: float
    a_bound: float


def _domain_boundary(alpha: float) -> float:
    return max(-1.0 / alpha, -1.0)


def _check_sigma(alpha: float, sigma: float) -> None:
    boundary = _domain_boundary(alpha)
    if sigma <= boundary:
        raise DivergenceError(
            "kernel integral diverges: requires sigma > max(-1/alpha, -1) "
            f"= {boundary}, got sigma = {sigma}"
        )


def _kernel_envelope(p: int, alpha: float, s: float) -> float:
    """The sigma-free factor of d_{alpha,sigma}, evaluated at s.

    d_{alpha,sigma} = _kernel_envelope(p, alpha, sigma) * p^(-alpha sigma),
    and the map s -> envelope(s) is decreasing, which is what makes the
    envelope at theta dominate every sigma >= theta.
    """
    if alpha == 1.0:
        return (1.0 - 1.0 / p) * math.log(p) * (1.0 / p) / (1.0 - p_pow(p, -s - 1.0)) ** 2
    den = _envelope_denominator(p, alpha, s)  # its p^alpha raises before expm1 can overflow
    return (1.0 - 1.0 / p) * abs(math.expm1((alpha - 1.0) * math.log(p))) / den


def _envelope_denominator(p: int, alpha: float, s: float) -> float:
    """(1 - p^(-alpha s - 1)) (p^alpha - p^(-alpha s)), shared by the kernel envelope and
    the branch-free bound constants: positive above the boundary, and refused where it
    rounds to 0 or below."""
    den = (1.0 - p_pow(p, -alpha * s - 1.0)) * (p_pow(p, alpha) - p_pow(p, -alpha * s))
    if not den > 0.0:
        raise DivergenceError(f"kernel integral diverges: sigma = {s} lies within rounding "
                              f"of the boundary max(-1/alpha, -1) = {_domain_boundary(alpha)}")
    return den


def kernel_constant(p: int, alpha: float, sigma: float) -> KernelConstants:
    """Closed-form kernel constants at (p, alpha, sigma)."""
    require_alpha(alpha)
    require_finite(sigma=sigma)
    p = Prime(p)
    _check_sigma(alpha, sigma)
    a_bound = _kernel_envelope(p, alpha, sigma)
    d_abs = a_bound * p_pow(p, -alpha * sigma)
    return KernelConstants(d_abs=d_abs, s_signed=d_abs if alpha >= 1.0 else -d_abs,
                           a_bound=a_bound)


def kernel_constant_oracle(p: int, alpha: float, sigma: float,
                           depth: int = DEFAULT_DEPTH) -> float:
    """d_{alpha,sigma} by brute-force stratified summation at reference level 0.

    Sums ``depth`` interior spheres of integral_{|y| < 1}
    ||t|^(a-1) - |y|^(a-1)| |y|^(a sigma) dy (log kernel for a = 1); the
    neglected remainder is a geometric tail with rate
    p^(-(alpha sigma + min(alpha, 1))) below the deepest retained stratum.
    """
    p = Prime(p)
    require_alpha(alpha)
    require_finite(sigma=sigma)
    depth = require_depth(depth)
    _check_sigma(alpha, sigma)
    frac = 1.0 - 1.0 / p
    if alpha == 1.0:
        lp = math.log(p)
        return frac * lp * sum(nu * p_pow(p, -nu * (sigma + 1.0))
                               for nu in range(depth, 0, -1))
    # stratum k's |p^x - 1| p^((a sigma + 1) k), x = (a - 1) k, as (1 - p^-|x|) times one
    # power p^(max(x, 0) + (a sigma + 1) k), of a negative exponent: it can only underflow
    lnp, total = math.log(p), 0.0
    for k in range(-depth, 0):
        x = (alpha - 1.0) * k
        power = p_pow(p, max(x, 0.0) + (alpha * sigma + 1.0) * k)
        total += -math.expm1(-abs(x) * lnp) * power * frac
    return total


def power_image_coefficient(p: int, alpha: float, rho: float) -> float:
    """c in (I^a |.|^rho)(|t|) = c |t|^(alpha + rho): the value at |t| = 1, rho > -min(1, a)."""
    return apply_ialpha(RadialFunction.power(p, rho), alpha, 0)


class _IalphaSweep:
    """Bc and Gc of ftilde = p^(-gamma k) f over ascending levels, scaled by p^(gamma n).

    ``state`` is (Bc, Gc, f) at ``level``, which starts just below ``start`` with the state
    of what lies below it.  :meth:`ahead` reads I^alpha at the next level from it and
    :meth:`advance` steps it.  A value at level n is scaled by ``step ** n``, an integer
    power of one rounded p^(alpha - gamma): smooth from level to level.  ``top`` is the last
    level whose power is inside the overflow guard; a step past it raises
    :class:`MagnitudeError` at the first such level, before stepping.
    """

    def __init__(self, p: int, alpha: float, gamma: float, start: int,
                 state: tuple = (0.0, 0.0, 0.0)):
        lnp = math.log(p)
        e = alpha - gamma
        top = math.floor(OVERFLOW_GUARD / (e * lnp)) + 1
        while e * top * lnp > OVERFLOW_GUARD:  # the test p_pow makes
            top -= 1
        self.p, self.e, self.top = p, e, top
        self.level, self.state = start - 1, state
        self.step = p_pow(p, e)
        self.q = p_pow(p, -alpha)
        ib = 1.0 / math.expm1(alpha * lnp)
        # the ratios of Bc and Gc, p^gamma, their step weights and (1 - p^-a)(1 - 1/p)
        self.consts = (p_pow(p, gamma - alpha), p_pow(p, gamma - 1.0), p_pow(p, gamma),
                       ib, ib / (p - 1.0), -math.expm1(-alpha * lnp) * (1.0 - 1.0 / p))

    def _guard(self) -> None:
        """Raise at the first level past ``top`` after ``level``: each step calls it
        only once its last level would lie past ``top``."""
        p_pow(self.p, self.e * max(self.level + 1, self.top + 1))  # raises

    def ahead(self) -> tuple:
        """(known, c, shift) of the next level n: I^alpha there is known + c (f_n - shift),
        with c = p^((alpha - gamma) n - alpha) and shift = p^gamma f_(n-1)."""
        if self.level >= self.top:
            self._guard()
        rb, rg, pg, _, _, coef = self.consts
        bc, gc, last = self.state
        s = self.step ** (self.level + 1)
        return s * (coef * (rg * gc - rb * bc)), s * self.q, pg * last

    def advance(self, fs: Sequence[float]) -> None:
        """Step to each next level with its f."""
        if self.level + len(fs) > self.top:
            self._guard()
        rb, rg, pg, ib, ig, _ = self.consts
        bc, gc, last = self.state
        for f in fs:
            d = pg * last - f
            bc = rb * bc + d * ib
            gc = rg * gc - d * ig - bc
            last = f
        self.level += len(fs)
        self.state = (bc, gc, last)


def _power_state(p: int, alpha: float, c: float, rho: float) -> tuple:
    """(Bc, Gc) at a level L of the power c p^(rho (k - L)) on the levels k <= L, scaled to
    L as the sweep keeps them, in closed form; rho > -min(1, alpha).  The two parts, the
    power and its centering -c, are exact negatives at rho = 0, and 0.0 at c = 0: both
    give 0.0."""
    lnp = math.log(p)
    bc = gc = 0.0
    for x, r in ((c, rho), (-c, 0.0)):  # the tail part, then the centering
        t = (alpha + r) * lnp
        try:
            b = x / math.expm1(t)
        except OverflowError:  # e^t is past the double range; 1 / (e^t - 1) = -e^-t / expm1(-t)
            b = -x * math.exp(-t) / math.expm1(-t)
        bc += b
        gc += b / math.expm1(-(1.0 + r) * lnp)
    return bc, gc


def _sweep_below(u: RadialFunction, alpha: float, start: int) -> _IalphaSweep:
    """A sweep seeded with u's left tail to stand just below ``start``, at or below u's window:
    the state of its power part, as I^alpha annihilates its constant part."""
    require_alpha(alpha)
    tail = u.left_tail
    last = u.value_at(start - 1)  # in the left tail
    _require_convergent(tail, "left", min(1.0, alpha),
                        series="I^alpha (a left sum at e = min(1, alpha))")
    c = tail.c * p_pow(u.p, tail.rho * (start - 1)) if tail.offset else last
    return _IalphaSweep(u.p, alpha, 0.0, start, (*_power_state(u.p, alpha, c, tail.rho), last))


def apply_ialpha(u: RadialFunction, alpha: float, n: int) -> float:
    """(I^alpha u)(p^n): the sweep seeded below min(n, k_min), advanced up to n.

    Steps over the levels below n without forming their values and reads the
    value at n alone from :meth:`_IalphaSweep.ahead`, with its one power
    p^(alpha n); nothing is cached.  The left tail must obey the convergence
    condition rho > -min(1, alpha); a level from min(n, k_min) to n past the
    overflow guard raises :class:`MagnitudeError` at the first such level.
    O(1) below u's window, O(n - k_min) above its start.
    """
    n = require_level(n)
    start = min(n, u.k_min)
    fs = u.values_on(start, n)
    last = fs.pop()
    sweep = _sweep_below(u, alpha, start)
    sweep.advance(fs)
    known, c, shift = sweep.ahead()
    return known + c * (last - shift)


def bound_constants(p: int, alpha: float, gamma: float) -> Callable[[int], float]:
    """n -> c_n, the growth constants of iterated I^alpha in the weak-degeneration regime:
    c_n(n) bounds the n-th application, on |phi| <= mu |t|^(n a - (n+1) g).  c_n falls
    strictly with n, so the uniform constant C is c_n(0): 0 < c_n(n) <= C for every n."""
    p = Prime(p)
    require_alpha(alpha)
    require_finite(gamma=gamma)
    require_weak_degeneration(alpha, gamma)
    q = p_pow(p, -alpha)
    frac = (1.0 - q) * (1.0 - 1.0 / p)

    def interior(s: float) -> float:
        # |prefactor| * _kernel_envelope(s): the 1 - p^(alpha-1) of both cancels
        return frac / _envelope_denominator(p, alpha, s)

    def sigma_n(n: int) -> float:
        return (n * alpha - (n + 1) * gamma) / alpha

    def c_n(n: int) -> float:
        if n < 0:
            raise DivergenceError(f"bound constant index must be >= 0, got {n}")
        s = sigma_n(n)
        return q + interior(s) * p_pow(p, -alpha * s)

    # interior(s) and p^(-alpha s) both fall as sigma_n rises with n
    return c_n


def assemble_fractional_integral(v: RadialFunction, alpha: float,
                                 k_lo: int = -60, k_hi: int = 80) -> RadialFunction:
    """Evaluate I^alpha v on [k_lo, k_hi] and package it as a RadialFunction.

    The left tail of the result is exact: below v's window a tail c p^(rho k)
    maps to the power law of exponent alpha + rho with c times
    :func:`power_image_coefficient` in front, which is exactly 0.0 for a
    zero or constant tail (rho = 0: the kernel annihilates constants).

    The right side of I^alpha v mixes three asymptotic components
    (p^((alpha+rho) m), p^((alpha-1) m) and a constant), which no single
    tail model represents, so the right tail is set to zero and the window
    must absorb the error instead: feeding the result to D^alpha weights
    level m by p^(-alpha m), so the discarded part contributes
    O(p^(-min(alpha, 1, -rho) k_hi)).  The default k_hi = 80 keeps that
    below 1e-10 for every admissible v with rho <= -1/2 and alpha >= 1/2.
    """
    k_lo, k_hi = require_level(k_lo, "k_lo"), require_level(k_hi, "k_hi")
    if k_lo > v.k_min:
        raise DivergenceError(
            f"assembly window must start at or below v's window (k_lo = {k_lo} "
            f"> k_min = {v.k_min}), or the exact left tail is unavailable"
        )
    # O(1) per level below v's window, then one pass: the same steps as apply_ialpha's
    values = [apply_ialpha(v, alpha, n) for n in range(k_lo, min(v.k_min, k_hi + 1))]
    sweep = _sweep_below(v, alpha, v.k_min)
    for f in v.values_on(v.k_min, k_hi):
        known, c, shift = sweep.ahead()
        values.append(known + c * (f - shift))
        sweep.advance((f,))
    tail = v.left_tail
    left = TailModel.power_law(tail.c * power_image_coefficient(v.p, alpha, tail.rho),
                               alpha + tail.rho)
    return RadialFunction(
        v.p, k_lo, k_hi, values,
        left_tail=left, right_tail=TailModel.zero(), value_at_zero=0.0,
    )
