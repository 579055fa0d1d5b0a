"""Solver for the weakly degenerate radial Cauchy problem.

The problem |t|_p^g (D^a u)(|t|_p) = f(|t|_p, u(|t|_p)), u(0) = u0, with
0 <= g < min(1, a), is solved through its integral form

    u = u0 + I^a [ |.|^(-g) f(., u(.)) ],

in two stages:

1. *Level march* (:func:`solve_problem`).  The truncated system is lower-triangular
   in the levels, so one ascending pass solves it, as the step-by-step method for
   Volterra equations does.  Level n solves x = u0 + K + c (f(p^n, x) - p^g f_(n-1)),
   c = p^((a - g) n - a), by iteration from the level below, with K in O(1) from the
   state of one I^a sweep over the levels below n; for a constant f and g = 0 the
   correction is exactly 0.  A level is solved only when kappa_n = c Lip(f(p^n, .)) is
   below 1, measured steps are checked against it, and every value of f is checked
   against bound_M.  The local radius N, with q_N = C F p^(N (a - g)) at most 1/2,
   bounds kappa_n by q_N on the levels up to N; :func:`picard_solve` stops there.

2. *Residual verification* (:func:`residual`).  The differential form is
   checked directly: p^(g n) (D^a u)(p^n) - f(p^n, u(p^n)), with an
   attached uncertainty that accounts for the unknown part of u beyond
   the computed window and for floating-point cancellation; the top
   EDGE_LEVELS levels of the window are refused.

Truncation policy: the integrals extend to level -infinity, but the
march starts at a window floor K_min.  The kernel has one sign on
|y| < |x|, so the sup of a neglected sub-window contribution over
|ftilde| <= M p^(-g k) is the kernel's own sum, two damped geometric
walks with no branch at a = 1 (:func:`_truncation_constants`).  K_min is
lowered until that bound, summed over every level up to one above the
final window top, is below tol / 10, within a work limit of MAX_WINDOW
levels; the sum over (1 - q_N) is reported as ``truncation_budget`` rather
than silently dropped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import (
    BudgetError,
    ContractionError,
    DomainError,
    IndeterminateResidualError,
    MagnitudeError,
    MetadataError,
    NonConvergenceError,
    require_alpha,
    require_finite,
    require_level,
    require_tol,
    require_weak_degeneration,
)
from .haar import OVERFLOW_GUARD, Prime, p_pow
from .radial import RadialFunction, TailModel
from .fracint import _IalphaSweep, bound_constants
from .vladimirov import d_alpha, dalpha_window

# the widest window [K_min, N] the floor search certifies, in levels: a work limit
MAX_WINDOW = 100_000
# the top levels of a window that residual refuses: their D^alpha leans on the fitted envelope
EDGE_LEVELS = 3
# builds a per-level named tuple from a tuple of its fields, without the Python-level __new__
_record = tuple.__new__


@dataclass(frozen=True)
class Nonlinearity:
    """Right-hand side f with its certified metadata.

    eval(k, x) returns f(p^k, x).  The metadata is declared by the caller
    and trusted; ``spot_check`` samples roughly a thousand grid points and
    rejects declarations that the samples violate by more than 1e-9.

    bound_M     : global bound |f| <= M (must be positive).
    lipschitz_F : global Lipschitz constant in the state variable.
    per_level_F : optional k -> F_k with |f(p^k, x) - f(p^k, y)| <= F_k |x - y|.
    decay       : optional (A, beta) with |f(p^l, x)| <= A p^(-beta l) for l >= 1.
    """

    eval: Callable[[int, float], float]
    bound_M: float
    lipschitz_F: float
    per_level_F: Optional[Callable[[int], float]] = None
    decay: Optional[tuple] = None

    def __post_init__(self):
        require_finite(bound_M=self.bound_M, lipschitz_F=self.lipschitz_F)
        if not self.bound_M > 0:
            raise DomainError(f"bound_M must be positive, got {self.bound_M}")
        if self.lipschitz_F < 0:
            raise DomainError(f"lipschitz_F must be >= 0, got {self.lipschitz_F}")
        if self.decay is not None:
            a, beta = self.decay
            require_finite(decay_amplitude=a, decay_beta=beta)
            if not a > 0:
                raise DomainError(f"decay amplitude must be positive, got {a}")
            object.__setattr__(self, "decay", (float(a), float(beta)))

    def level_lipschitz(self, k: int) -> float:
        """min(F, F_k): both are declared bounds on level k."""
        if self.per_level_F is None:
            return self.lipschitz_F
        return min(self.lipschitz_F, self.per_level_F(k))

    def _refuse(self, k: int, x: float, val: float) -> None:
        """Raise the MetadataError of a value f(p^k, x) = val past bound_M."""
        if not math.isfinite(val):
            raise MetadataError(f"f(p^{k}, {x}) is not finite")
        raise MetadataError(
            f"declared bound_M = {self.bound_M} violated: |f(p^{k}, {x})| = {abs(val)}")

    def _capped(self, bound: float) -> float:
        """``bound`` plus the slack of 1e-9 max(1, bound_M) that values of f are allowed."""
        return bound + 1e-9 * max(1.0, self.bound_M)

    def spot_check(self, p: int) -> None:
        """Sample eval at 41 points of [-8, 8] on levels -12..12 and reject metadata
        that the samples violate by more than 1e-9.  Each sample is tested once against
        its level's cap, bound_M or on levels >= 1 the decay envelope where tighter."""
        p = Prime(p)
        tol = 1e-9
        xs = [-8.0 + 16.0 * i / 40.0 for i in range(41)]
        f = self.eval
        bound = self._capped(self.bound_M)
        dx = xs[1] - xs[0]
        for k in range(-12, 13):
            cap = bound
            if self.decay is not None and k >= 1:
                cap = self._capped(min(self.bound_M, self.decay[0] * p_pow(p, -self.decay[1] * k)))
            f_prev = None
            step = (self.level_lipschitz(k) + tol) * dx + tol
            low, step_low = -cap, -step
            for x in xs:
                val = f(k, x)
                if not low <= val <= cap:  # NaN and inf fail it too
                    if not -bound <= val <= bound:
                        self._refuse(k, x, val)
                    a, beta = self.decay
                    raise MetadataError(f"declared decay (A={a}, beta={beta}) violated at level {k}")
                # |df| > step, which a NaN df (two infinite samples under an infinite cap) passes
                if f_prev is not None and ((df := val - f_prev) > step or df < step_low):
                    raise MetadataError(
                        f"declared Lipschitz bound violated near (p^{k}, {x}): "
                        f"|df| = {abs(df)} over dx = {dx}"
                    )
                f_prev = val


@dataclass(frozen=True)
class ProblemSpec:
    """The full Cauchy problem (p, alpha, gamma, u0, f)."""

    p: int
    alpha: float
    gamma: float
    u0: float
    rhs: Nonlinearity

    def __post_init__(self):
        object.__setattr__(self, "p", Prime(self.p))
        require_alpha(self.alpha)
        require_finite(gamma=self.gamma, u0=self.u0)
        require_weak_degeneration(self.alpha, self.gamma)
        self.rhs.spot_check(self.p)


class ExtensionDiagnostic(NamedTuple):
    v0: float
    kappa: float
    iterations: int


@dataclass(frozen=True)
class SolveReport:
    """Solution plus the per-stage diagnostics of a solve."""

    solution: RadialFunction
    local_radius_N: int
    picard_iterations: int
    extension_diagnostics: dict
    truncation_budget: float
    q_contraction: float
    c_uniform: float

    def to_dict(self) -> dict:
        u = self.solution
        return {
            "p": int(u.p),
            "local_radius_N": self.local_radius_N,
            "k_min": u.k_min,
            "k_max": u.k_max,
            "picard_iterations": self.picard_iterations,
            "q_contraction": self.q_contraction,
            "c_uniform": self.c_uniform,
            "truncation_budget": self.truncation_budget,
            "extension_diagnostics": {
                str(level): {"v0": d.v0, "kappa": d.kappa, "iterations": d.iterations}
                for level, d in sorted(self.extension_diagnostics.items())
            },
            "solution": {
                "value_at_zero": u.value_at_zero,
                "left_tail": u.left_tail.to_token(),
                "right_tail": u.right_tail.to_token(),
                "levels": {str(u.k_min + i): v for i, v in enumerate(u.values)},
            },
        }


def _radius_from_constants(c_uniform: float, lipschitz: float, p: int,
                           alpha_minus_gamma: float, n_cap: int = 8) -> int:
    """Largest N <= n_cap with c_uniform * lipschitz * p^(N (alpha - gamma)) <= 1/2, however
    deep; the guess sums logarithms and the test forms lipschitz times the power first, as
    the march does, so neither overflows where c_uniform * lipschitz would."""
    if lipschitz == 0.0:
        return n_cap
    t = (math.log(0.5) - math.log(c_uniform) - math.log(lipschitz)) \
        / (alpha_minus_gamma * math.log(p))
    n = min(math.floor(t + 1e-9), n_cap)
    while c_uniform * (lipschitz * p_pow(p, n * alpha_minus_gamma)) > 0.5 * (1.0 + 1e-12):
        n -= 1
    return n


def choose_local_radius(problem: ProblemSpec, n_cap: int = 8) -> int:
    """Local ball exponent N <= ``n_cap`` (a level) with contraction factor q_N <= 1/2."""
    n_cap = require_level(n_cap, "n_cap")
    c = bound_constants(problem.p, problem.alpha, problem.gamma)(0)
    return _radius_from_constants(c, problem.rhs.lipschitz_F, problem.p,
                                  problem.alpha - problem.gamma, n_cap)


def _kernel_walk(p: int, alpha: float) -> Iterator[tuple]:
    """(S_m, D_m) for m = 1, 2, ..., scaled by p^(-h m), h = max(alpha - 1, 0):
    S_m = 1 + w + ... + w^(m-1), w = p^(alpha - 1), and D_m = S_1 + ... + S_m.
    Both walks damp by p^(-|alpha - 1|) or p^(-h), and give m and m (m + 1) / 2
    at alpha = 1 with no test on alpha."""
    r, d = p_pow(p, -abs(alpha - 1.0)), p_pow(p, -max(alpha - 1.0, 0.0))
    s = total = 0.0
    while True:
        s = r * s + d
        total = d * total + s
        yield s, total


def _truncation_constants(problem: ProblemSpec) -> tuple:
    """(C, h, r) with rem(n) = C p^(e + h m) S_m + C p^e / r, e = (a - g)(k_cut - 1),
    m = n - k_cut + 1, S_m as :func:`_kernel_walk` scales it: the exact sup of the part
    of (I^a ftilde)(p^n) that lies below k_cut, over |ftilde_k| <= M p^(-g k).  The
    kernel g(n - k) has one sign, so summing |g(j)| p^(g j) over j > n - k_cut splits
    into two geometric series: C = M (1 - p^-a)(1 - 1/p) / (1 - p^(g-1)),
    h = max(a - 1, 0) and r = p^(a - g) - 1.  None of them depends on k_cut."""
    p, alpha, gamma = problem.p, problem.alpha, problem.gamma
    lnp = math.log(p)
    c = problem.rhs.bound_M * math.expm1(-alpha * lnp) * (1.0 - 1.0 / p) \
        / math.expm1((gamma - 1.0) * lnp)
    return c, max(alpha - 1.0, 0.0), math.expm1((alpha - gamma) * lnp)


def _scaled_power(c: float, p: int, e: float) -> float:
    """c p^e for c > 0 (the C of :func:`_truncation_constants`, ~ M): c times p^e where
    p^e is a normal double, else one power p^(e + log_p c), so that a huge c does not
    scale up a p^e that underflowed to 0.0 or to a subnormal with few bits.  That power's
    exponent, off by a few units of |e ln p| + |ln c|, is unbounded (|e ln p| < 709 in the
    product), so its value is raised by 8 units of them: the bound stays above the sum."""
    power = p_pow(p, e)
    if power >= sys.float_info.min:
        return c * power
    lnp, lnc = math.log(p), math.log(c)
    return p_pow(p, e + lnc / lnp) * (1.0 + 2.0 ** -50 * (abs(e) * lnp + abs(lnc) + 1.0))


def _choose_window_floor(problem: ProblemSpec, n_top: int, tol: float,
                        highest: float = math.inf) -> tuple:
    """Lower window edge K_min at or below ``highest`` (the local radius N; n_top by default)
    with total certified truncation <= tol / 10.

    The budget of a candidate K is rem(n) of :func:`_truncation_constants` summed
    over [K, n_top], C p^(e + h W) D_W + W C p^e / r with W = n_top - K + 1, read
    from :func:`_kernel_walk`.  K_min steps down 4 levels at a time, so each
    candidate costs 4 steps of the walk.  The budget decays like p^((alpha - gamma) K),
    so gamma near alpha or a tiny alpha can ask for millions of levels:
    a window wider than MAX_WINDOW is a BudgetError, met after 25 000 candidates.
    """
    require_tol(tol)
    p, alpha, gamma = problem.p, problem.alpha, problem.gamma
    k_min = min(n_top, 0) - 8
    width = n_top - k_min + 1
    c, h, r = _truncation_constants(problem)
    walk = _kernel_walk(p, alpha)
    _, total = next(islice(walk, width - 1, None))
    while True:
        e = (alpha - gamma) * (k_min - 1)
        budget = _scaled_power(c, p, e + h * width) * total \
            + width * (_scaled_power(c, p, e) / r)
        if budget <= tol / 10.0 and k_min <= highest:
            return k_min, budget
        k_min -= 4
        width += 4
        _, total = next(islice(walk, 3, None))
        if width > MAX_WINDOW:
            raise BudgetError(
                f"cannot certify the sub-window truncation below tol/10 = {tol / 10.0} "
                f"within the work limit of {MAX_WINDOW} window levels "
                f"(bound {budget} at K_min = {k_min + 4})"
            )


def _march(problem: ProblemSpec, N: int, top: int, tol: float, max_iter: int,
           reserve: int) -> SolveReport:
    """Solve the levels K_min..top in one ascending pass, the window floor chosen for
    ``reserve``: see :func:`solve_problem`."""
    max_iter = require_level(max_iter, "max_iter")
    if not max_iter >= 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    p, alpha, gamma, u0 = problem.p, problem.alpha, problem.gamma, problem.u0
    rhs = problem.rhs
    f, lip_at = rhs.eval, rhs.level_lipschitz
    c_uni = bound_constants(p, alpha, gamma)(0)
    q = c_uni * (rhs.lipschitz_F * p_pow(p, N * (alpha - gamma)))  # c_uni * F may overflow
    if q >= 1.0:
        raise DomainError(
            f"local contraction factor q_N = {q} >= 1 at N = {N}; "
            "choose a more negative local radius"
        )
    k_min, budget = _choose_window_floor(problem, reserve, tol, N)
    cap = rhs._capped(rhs.bound_M)
    low = -cap
    # ftilde is 0 below the window, where the truncation budget bounds it
    sweep = _IalphaSweep(p, alpha, gamma, k_min)
    values, diags, steps = [], {}, 0
    x, stop, inf, neg_inf = u0, tol / 100.0, math.inf, -math.inf
    for n in range(k_min, top + 1):
        known, c, shift = sweep.ahead()
        lip = lip_at(n)
        kappa = c * lip
        if kappa >= 1.0:  # ell = n - 1
            raise ContractionError(
                f"extension to level {n} is not a contraction: kappa = {kappa} >= 1 "
                f"(per-level Lipschitz bound {lip} is not below p^(-alpha ell) p^(gamma (ell+1)) "
                f"= {1.0 / c})")
        base, prev = u0 + known, None
        fx = f(n, x)
        for iters in range(1, max_iter + 1):
            if not low <= fx <= cap:  # NaN and inf fail it too
                rhs._refuse(n, x, fx)
            x_new = base + c * (fx - shift)
            if not neg_inf < x_new < inf:
                raise MagnitudeError(f"the step at level {n} left the double range: {x_new}")
            fx = f(n, x_new)
            d = abs(x_new - x)
            x = x_new
            if kappa == 0.0 or d <= stop * max(1.0, abs(x)):
                break
            # a few ulps of slack cover the rounding of the two step evaluations
            if prev is not None and d > kappa * prev + 4.0 * math.ulp(max(1.0, abs(x))):
                raise MetadataError(
                    f"measured contraction ratio {d / prev} exceeds kappa = {kappa} "
                    f"at level {n}: declared per-level Lipschitz metadata is wrong"
                )
            prev = d
        else:
            raise NonConvergenceError(
                f"fixed point at level {n} did not converge in {max_iter} steps")
        if not low <= fx <= cap:
            rhs._refuse(n, x, fx)
        if n > N:  # v0: I^alpha at level n of the levels below it alone
            diags[n] = _record(ExtensionDiagnostic, (known - c * shift, kappa, iters))
        elif iters > steps:
            steps = iters
        values.append(x)
        sweep.advance((fx,))
    solution = RadialFunction(p, k_min, top, tuple(values), left_tail=TailModel.constant(u0),
                              right_tail=TailModel.zero(), value_at_zero=u0)
    return SolveReport(
        solution=solution, local_radius_N=N, picard_iterations=steps,
        extension_diagnostics=diags, truncation_budget=budget / (1.0 - q),
        q_contraction=q, c_uniform=c_uni,
    )


def picard_solve(problem: ProblemSpec, N: int, tol: float = 1e-10, max_iter: int = 1000,
                 reserve_top: Optional[int] = None) -> SolveReport:
    """The march of :func:`solve_problem` stopped at the local radius N: levels K_min..N.

    ``reserve_top`` sizes the truncation budget for a later march up to that level: the
    part below the floor grows like p^((alpha-1) n) with the level n for alpha above 1, so
    the window floor must be chosen for the highest level that will ever integrate over it.
    ``picard_iterations`` is the most fixed-point steps any level of [K_min, N] took;
    ``max_iter`` caps them at every level.  ``N`` and ``reserve_top`` are levels: an
    integral float is converted, anything else is a :class:`DomainError` naming them.
    """
    N = require_level(N, "N")
    reserve = N if reserve_top is None else max(N, require_level(reserve_top, "reserve_top"))
    return _march(problem, N, N, tol, max_iter, reserve)


@dataclass(frozen=True)
class GlobalHypothesesReport:
    """Outcome of the global-extension and decay hypotheses.

    per_level_ok     : F_l < p^(-alpha l) on the checked range.
    witness_level    : first level violating it, if any.
    decay_ok         : beta + gamma > alpha, or None when no decay metadata
                       was declared.
    residual_verifiable: both conditions hold, so the solution of the
                       integral equation is certified to satisfy the
                       differential form and residual checks make sense.
    """

    per_level_ok: bool
    witness_level: Optional[int]
    decay_ok: Optional[bool]
    residual_verifiable: bool
    detail: str = ""


def _level_power(p: int, e: float) -> float:
    """p^e as p_pow forms it, also past its overflow guard, where p_pow raises: there it
    is exp(e ln p), and inf past the double range, which every finite bound is below."""
    t = e * math.log(p)
    if t <= OVERFLOW_GUARD:
        return p_pow(p, e)
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def check_global_hypotheses(problem: ProblemSpec) -> GlobalHypothesesReport:
    """Check F_l < p^(-alpha l) on levels -10..30 and beta + gamma > alpha.  F_l = 0 passes
    also where the power underflows to 0.0, which every positive double is at least."""
    p, alpha, gamma = problem.p, problem.alpha, problem.gamma
    lips = ((l, problem.rhs.level_lipschitz(l)) for l in range(-10, 31))
    witness = next((l for l, lip in lips
                    if lip != 0.0 and not lip < _level_power(p, -alpha * l)), None)
    per_level_ok = witness is None
    decay_ok = None
    detail = ""
    if problem.rhs.decay is not None:
        _, beta = problem.rhs.decay
        decay_ok = beta + gamma > alpha
        if not decay_ok:
            detail = (f"decay exponent too weak: beta + gamma = {beta + gamma} "
                      f"<= alpha = {alpha}")
    else:
        detail = "no decay metadata declared"
    if witness is not None:
        detail = (f"per-level Lipschitz bound fails at level {witness}: "
                  f"F_l = {problem.rhs.level_lipschitz(witness)} >= "
                  f"p^(-alpha l) = {_level_power(p, -alpha * witness)}"
                  + ("; " + detail if detail else ""))
    return GlobalHypothesesReport(
        per_level_ok=per_level_ok, witness_level=witness, decay_ok=decay_ok,
        residual_verifiable=per_level_ok and decay_ok is True, detail=detail,
    )


class ResidualEstimate(NamedTuple):
    value: float
    uncertainty: float


def _residual_rows(u: RadialFunction, alpha: float, gamma: float) -> list:
    """:func:`residual`'s answer at each level k_min + i below the top EDGE_LEVELS, in one
    pass: (p^(g n) D^a u, uncertainty) or the text of the refusal.  The range of p^(-a n)
    and p^(g n) is decided first, and no tail is fitted where no level is in range."""
    p = u.p
    window, rounding, scales = dalpha_window(u, alpha)
    env = max(abs(u.value_at(k)) for k in range(u.k_max - 2, u.k_max + 1))
    rho_hat = max(alpha - 1.0, 0.0) + min(0.05, alpha / 2.0)  # the fallback, below alpha
    a_last, b_last = abs(u.value_at(u.k_max)), abs(u.value_at(u.k_max - 1))
    if a_last > 1e-300 and b_last > 1e-300:
        rho_hat = max(rho_hat, math.log(a_last / b_last) / math.log(p))
    tail = None
    if rho_hat < alpha and window[-1] is not None:  # else no level is in range
        x = p_pow(p, rho_hat - alpha)
        tail = (p_pow(p, -rho_hat * u.k_max), p_pow(x, u.k_max + 1), 1.0 - x)
    unfit = (f"fitted tail growth exponent {rho_hat} is not below alpha = {alpha}; "
             "the discarded right-tail contribution cannot be bounded")
    # rounding: the window's bound for D^alpha, plus the stored values being
    # rounded themselves, by 1e-15 max(1, |u|) each, which D^alpha amplifies by
    # at most |d_a| (1 - 1/p) p^(-a n) (p/(p-1) + 1/(p^a - 1)); p^(g n) and
    # the product add 2 + 3 g |n| ln p units; p^(-a n) is the window's own
    frac, lnp, d = 1.0 - 1.0 / p, math.log(p), abs(d_alpha(p, alpha))
    d_frac, data = d * frac, 1e-15 * max(1.0, max(map(abs, u.values))) * d * frac
    amp = p / (p - 1.0) + 1.0 / math.expm1(alpha * lnp)
    rows, fabs = [], abs
    for n, dalpha_val, bound, c, scale in zip(range(u.k_min, u.k_max - EDGE_LEVELS + 1),
                                              window, rounding, u.values, scales):
        # the one range rule: p^(-a n) grows with the depth below level 0, p^(g n) above it
        e = -alpha * n if n < 0 else gamma * n
        if e * lnp > OVERFLOW_GUARD:
            power = "-alpha n" if n < 0 else "gamma n"
            rows.append(f"level {n} is out of range in double precision: "
                        f"p^({power}) = {p}**{e} exceeds the overflow guard")
            continue
        if tail is None:
            rows.append(unfit)
            continue
        tail_bound = d_frac * ((env + fabs(c)) * tail[0] * tail[1] / tail[2])
        weight = p_pow(p, gamma * n)
        noise = weight * (data * scale * amp + bound) \
            + 2.0 ** -53 * (2.0 + 3.0 * gamma * fabs(n) * lnp) * weight * fabs(dalpha_val)
        rows.append((weight * dalpha_val, weight * tail_bound + noise))
    return rows


def residual(u: RadialFunction, problem: ProblemSpec, n: int,
             tol: float = 1e-8) -> ResidualEstimate:
    """p^(g n) (D^a u)(p^n) - f(p^n, u(p^n)) with a certified-ish uncertainty.

    u is trusted as declared on and below its window; above k_max its
    unknown continuation is bounded by an envelope fitted from the last
    window values (growth exponent log_p of the last ratio, at least the
    kernel growth max(alpha - 1, 0) plus min(0.05, alpha / 2)); the
    rounding of D^alpha (the window's bound) and that of the stored values
    (1e-15 relative each, as D^alpha amplifies it) are added.  A level
    outside the window or among its top EDGE_LEVELS, a level whose
    p^(-alpha n) or p^(gamma n) passes the overflow guard, a fitted growth at or
    above alpha, or an uncertainty above tol is refused rather than reported; a
    u over another p is a DomainError.  Every level is decided by one
    :func:`_residual_rows` pass per (u, alpha, gamma), kept in u's one cache, so a call
    forms no power of p and every level of a solution costs O(W) in total.  A refusal
    on the uncertainty carries its numbers; its message is formatted when it is read.
    """
    p, alpha, gamma = problem.p, problem.alpha, problem.gamma
    if u.p != p:
        raise DomainError(f"u is a function over p = {u.p}, the problem's p is {p}")
    require_tol(tol)
    n = require_level(n)
    if n > u.k_max - EDGE_LEVELS:
        raise IndeterminateResidualError(
            f"level {n} is within {EDGE_LEVELS} levels of the window edge k_max = {u.k_max}; "
            "extend the solution further")
    if n < u.k_min:
        raise IndeterminateResidualError(
            f"level {n} is below the window floor k_min = {u.k_min}, where u is its tail model")
    memo = u._residual_memo
    rows = memo.get((alpha, gamma))
    if rows is None:
        rows = memo[alpha, gamma] = _residual_rows(u, alpha, gamma)
    row = rows[n - u.k_min]
    if type(row) is str:
        raise IndeterminateResidualError(row)
    value, uncertainty = row
    if uncertainty > tol:
        raise IndeterminateResidualError(
            "residual uncertainty {} at level {} exceeds tol = {}; "
            "extend the solution to higher levels", uncertainty, n, tol)
    return _record(ResidualEstimate,
                   (value - problem.rhs.eval(n, u.values[n - u.k_min]), uncertainty))


def solve_problem(problem: ProblemSpec, tol: float = 1e-10, max_iter: int = 1000,
                  extend_to: Optional[int] = None) -> SolveReport:
    """Choose N with :func:`choose_local_radius`, capped at 8 and at extend_to, then solve
    every level from the window floor K_min up to the target (extend_to, by default
    N + 35) in one ascending pass.  :func:`picard_solve` is the entry point that takes N.

    Level n solves x = u0 + known + c (f(p^n, x) - shift) by iteration from the value at
    n - 1 (u0 below the window), (known, c, shift) read from one I^alpha sweep walked over
    the levels below n.  kappa = c Lip(f(p^n, .)) at or above 1 is a
    :class:`ContractionError`; on the window [K_min, N] kappa <= q_N <= 1/2.  A step longer
    than kappa times the previous one (plus a few ulps of rounding) is wrong declared
    metadata, and more than ``max_iter`` steps at one level is a
    :class:`NonConvergenceError`.  Every value of f the pass uses is checked against
    bound_M with spot_check's slack (a :class:`MetadataError`), and a step that leaves the
    double range is a :class:`MagnitudeError`.  The window floor is chosen for target + 1,
    so the truncation budget covers every level.
    """
    if extend_to is not None:
        extend_to = require_level(extend_to, "extend_to")
    # never pick a local radius beyond the requested window top
    n_cap = 8 if extend_to is None else min(8, extend_to)
    N = choose_local_radius(problem, n_cap=n_cap)
    target = extend_to if extend_to is not None else N + 35
    return _march(problem, N, target, tol, max_iter, target + 1)


# -- built-in right-hand sides for the CLI -----------------------------------

def catalog_nonlinearity(name: str, p: int, amplitude: float = 0.1,
                         beta: float = 2.0) -> Nonlinearity:
    """Reproducible right-hand sides: zero, const, cos-decay, bounded-sigmoid.

    cos-decay is f(p^l, x) = A p^(-beta max(l, 0)) cos(x) with per-level
    Lipschitz constants |A| p^(-beta max(l, 0)) and decay pair (|A|, beta);
    bounded-sigmoid is a level-independent saturating nonlinearity.  zero, const and
    bounded-sigmoid declare no per-level bound: lipschitz_F holds at every level.  The
    metadata declares |A|, so a negative amplitude is as admissible as a positive one.
    """
    p = Prime(p)
    a, m = amplitude, abs(amplitude)
    if name == "zero":
        return Nonlinearity(eval=lambda k, x: 0.0, bound_M=1.0, lipschitz_F=0.0,
                            decay=(1.0, beta))
    if name == "const":
        return Nonlinearity(eval=lambda k, x: a, bound_M=m if a != 0.0 else 1.0,
                            lipschitz_F=0.0)
    if name == "cos-decay":

        def f(k: int, x: float) -> float:  # p^(-beta max(k, 0)) is 1 at k <= 0
            return (a * p_pow(p, -beta * k) if k > 0 else a) * math.cos(x)

        return Nonlinearity(eval=f, bound_M=m, lipschitz_F=m,
                            per_level_F=lambda k: m * p_pow(p, -beta * k) if k > 0 else m,
                            decay=(m, beta))
    if name == "bounded-sigmoid":
        return Nonlinearity(eval=lambda k, x: a * math.tanh(x / 2.0) / 2.0,
                            bound_M=m / 2.0, lipschitz_F=m / 4.0)
    raise DomainError(f"unknown catalog nonlinearity {name!r}")
