"""The Vladimirov fractional derivative D^alpha on radial functions.

For a radial u and |x|_p = p^n the hypersingular integral

    (D^a u)(x) = d_a * integral |y|^(-a-1) [u(|x - y|) - u(|x|)] dy,
    d_a = (1 - p^a) / (1 - p^(-a-1)),

depends only on n and reduces to an explicit series: a left sum of
p^k u(p^k) over k < n, a diagonal coefficient acting on u(p^n), and a
right sum of p^(-a l) u(p^l) over l > n.

Both entry points here subtract u(p^n) before summing.  That changes
nothing analytically (the operator annihilates constants, so
D^a u = D^a (u - u(p^n)) with the diagonal term contributing exactly
zero) but it is essential numerically: evaluated literally, the three
series terms reach magnitude ~p^(a |n|) * |u| and cancel to a result
that can be arbitrarily smaller, destroying up to a |n| log10(p) digits.
The sums centered on c = u(p^n) (``c`` of the weighted sums in
:mod:`padicradial.radial`) carry no such cancellation.

:func:`apply_dalpha` evaluates the series with closed-form tails;
:func:`apply_dalpha_oracle` sums the strata of the defining integral one
by one (the equal-norm sphere |y| = |x| is split by |x - y| = p^j into
masses (1 - 1/p) p^j for j < n and p^n (1 - 2/p) for j = n, the latter
multiplying a zero bracket) and completes the truncated ends in closed
form where the tail model permits.  The two routes share only the
centered weighted sums, which the oracle uses for its closed-form ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DivergenceError, require_finite
from .haar import DEFAULT_DEPTH, Prime, p_pow
from .radial import RadialFunction, _sum_left, _sum_right


@dataclass(frozen=True)
class DalphaCoefficients:
    """Per-(p, alpha) constants of the radial series for D^alpha.

    d_alpha = (1 - p^alpha) / (1 - p^(-alpha-1)) < 0 and the diagonal
    coefficient (p^alpha + p - 2) / (1 - p^(-alpha-1)) > 0.
    """

    p: int
    alpha: float
    d_alpha: float
    diag_coef: float

    @staticmethod
    def create(p: int, alpha: float) -> "DalphaCoefficients":
        p = Prime(p)
        require_finite(alpha=alpha)
        if alpha <= 0:
            raise DivergenceError(f"alpha must be positive, got {alpha}")
        denom = 1.0 - p_pow(p, -alpha - 1.0)
        return DalphaCoefficients(
            p=p, alpha=alpha,
            d_alpha=(1.0 - p_pow(p, alpha)) / denom,
            diag_coef=(p_pow(p, alpha) + p - 2.0) / denom,
        )


def apply_dalpha(u: RadialFunction, alpha: float, n: int) -> float:
    """(D^alpha u)(p^n) via the explicit radial series.

    Requires the left series sum p^k |u(p^k)| and the right series
    sum p^(-alpha l) |u(p^l)| to converge; a violated tail raises
    :class:`DivergenceError` naming the failed inequality.
    """
    coeffs = DalphaCoefficients.create(u.p, alpha)
    c = u.value_at(n)
    try:
        left = _sum_left(u, n - 1, 1.0, c=c)
    except DivergenceError as err:
        raise DivergenceError(f"D^alpha at level {n}: {err}") from err
    try:
        right = _sum_right(u, n + 1, -alpha, c=c)
    except DivergenceError as err:
        raise DivergenceError(f"D^alpha at level {n}: {err}") from err
    frac = 1.0 - 1.0 / u.p
    return coeffs.d_alpha * frac * (p_pow(u.p, -(alpha + 1.0) * n) * left + right)


def apply_dalpha_oracle(u: RadialFunction, alpha: float, n: int,
                        depth: int = DEFAULT_DEPTH) -> float:
    """(D^alpha u)(p^n) by direct stratified summation of the defining integral.

    Sums ``depth`` strata on each side of level n explicitly and completes
    the rest in closed form from the tail models.  Spheres |y|_p = p^j with
    j < n land in the |x - y| = p^j stratum of the equal-norm sphere's
    decomposition; spheres with j > n contribute through |x - y| = p^j.
    """
    if depth < 1:
        raise DivergenceError(f"oracle depth must be >= 1, got {depth}")
    coeffs = DalphaCoefficients.create(u.p, alpha)
    p = u.p
    frac = 1.0 - 1.0 / p
    c = u.value_at(n)

    diag = 0.0
    for i in range(n - depth, n):
        diag += frac * p_pow(p, i) * (u.value_at(i) - c)
    # |x - y| = p^n stratum has mass p^n (1 - 2/p) but a zero bracket.
    diag += frac * _sum_left(u, n - depth - 1, 1.0, c=c)
    diag *= p_pow(p, -(alpha + 1.0) * n)

    right = 0.0
    for l in range(n + 1, n + depth + 1):
        right += frac * p_pow(p, -alpha * l) * (u.value_at(l) - c)
    right += frac * _sum_right(u, n + depth + 1, -alpha, c=c)

    return coeffs.d_alpha * (diag + right)
