"""Independent high-precision reference for the benchmark's correctness checks.

Everything here is written from the defining stratified sums, in mpmath,
and shares no code with ``padicradial``.  A radial function is a window of
values on levels ``kmin..kmax`` plus a tail ``(kind, c, rho)`` on each
side, exactly as the package stores it, so outputs of the package can be
compared level by level.

Precision: the operators below use running (uncentered) prefix sums, which
at level n can cancel up to ``(alpha + 1) |n| log10 p`` digits.  Every
evaluation therefore carries at least 50 digits on top of that loss.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

BASE_DPS = 50
ZERO_TAIL = ("zero", 0.0, 0.0)


def working_dps(p: int, alpha: float, lo: int, hi: int) -> int:
    """Digits that keep 50 significant ones through prefix-sum cancellation."""
    reach = max(abs(lo), abs(hi), 1)
    return BASE_DPS + int((alpha + 1.0) * reach * math.log10(p)) + 1


class Radial:
    """A radial function: window values on kmin..kmax plus analytic tails."""

    def __init__(self, p, kmin, values, left=ZERO_TAIL, right=ZERO_TAIL):
        self.p = int(p)
        self.kmin = int(kmin)
        self.values = list(values)
        self.kmax = self.kmin + len(self.values) - 1
        self.left = left
        self.right = right

    @classmethod
    def from_package(cls, u) -> "Radial":
        """Read the stored data of a ``padicradial.RadialFunction``."""
        def tail(t):
            return (t.kind, t.c, t.rho)
        return cls(u.p, u.k_min, u.values, tail(u.left_tail), tail(u.right_tail))

    def at(self, k: int):
        if self.kmin <= k <= self.kmax:
            return mpf(self.values[k - self.kmin])
        kind, c, rho = self.left if k < self.kmin else self.right
        if kind == "zero":
            return mpf(0)
        if kind == "const":
            return mpf(c)
        return mpf(c) * mpf(self.p) ** (mpf(rho) * k)

    def _tail_ratio(self, tail, e):
        kind, c, rho = tail
        rate = mpf(e) + (mpf(rho) if kind == "power" else 0)
        return mpf(c), mpf(self.p) ** rate

    def left_sum(self, j: int, e, level_weight: bool = False, absolute: bool = False):
        """sum_{k < j} [k] p^(e k) u(p^k) over the left tail; needs j <= kmin."""
        if self.left[0] == "zero":
            return mpf(0)
        c, x = self._tail_ratio(self.left, e)
        if absolute:
            c = abs(c)
        if x <= 1:
            raise ValueError("left tail sum diverges")
        m = j - 1
        # sum_{i>=0} x^(m-i) = x^m x/(x-1);  sum_{i>=0} (m-i) x^(m-i) = x^m (m x/(x-1) - x/(x-1)^2)
        geo = x ** m * x / (x - 1)
        if level_weight:
            return c * (m * geo - x ** m * x / (x - 1) ** 2)
        return c * geo

    def right_sum(self, j: int, e, absolute: bool = False):
        """sum_{l > j} p^(e l) u(p^l) over the right tail; needs j >= kmax."""
        if self.right[0] == "zero":
            return mpf(0)
        c, y = self._tail_ratio(self.right, e)
        if absolute:
            c = abs(c)
        if y >= 1:
            raise ValueError("right tail sum diverges")
        return c * y ** (j + 1) / (1 - y)


def interior_prefactor(p, alpha):
    """The coefficient of the interior kernel integral of I^alpha (alpha != 1)."""
    p, a = mpf(p), mpf(alpha)
    return (1 - p ** (-a)) / (1 - p ** (a - 1))


def ialpha(u: Radial, alpha: float, lo: int, hi: int):
    """(I^alpha u)(p^n) for n = lo..hi, with the scale of each interior sum.

    I^a u(p^n) = p^(a (n-1)) u(p^n) + P_a (1 - 1/p) sum_{k<n} p^k (p^((a-1) n) - p^((a-1) k)) u(p^k),
    P_a = (1 - p^-a)/(1 - p^(a-1)); for a = 1 the kernel is (n - k) ln p and the
    combined factor -(1 - 1/p)^2.  The kernel has one sign on k < n, so the same
    sums taken over |u| give the magnitude of every term (the scale).
    """
    with mp.workdps(working_dps(u.p, alpha, min(lo, u.kmin), hi)):
        p, a = mpf(u.p), mpf(alpha)
        frac = 1 - 1 / p
        log_branch = alpha == 1.0
        j0 = min(lo, u.kmin)
        s1, sa, sk = u.left_sum(j0, 1), u.left_sum(j0, a), u.left_sum(j0, 1, True)
        b1 = u.left_sum(j0, 1, absolute=True)
        ba = u.left_sum(j0, a, absolute=True)
        bk = u.left_sum(j0, 1, True, absolute=True)
        coef = frac * frac if log_branch else interior_prefactor(p, a) * frac
        values, scales = [], []
        for n in range(j0, hi + 1):
            un = u.at(n)
            if n >= lo:
                if log_branch:
                    diag = p ** (n - 1) * un
                    val = diag - coef * (n * s1 - sk)
                    scale = abs(diag) + coef * (n * b1 - bk)
                else:
                    diag = p ** (a * (n - 1)) * un
                    val = diag + coef * (p ** ((a - 1) * n) * s1 - sa)
                    scale = abs(diag) + abs(coef * (p ** ((a - 1) * n) * b1 - ba))
                values.append(+val)
                scales.append(float(scale))
            w = p ** n
            s1 += w * un
            b1 += w * abs(un)
            sk += n * w * un
            bk += n * w * abs(un)
            wa = p ** (a * n)
            sa += wa * un
            ba += wa * abs(un)
        return values, scales


def dalpha(u: Radial, alpha: float, lo: int, hi: int):
    """(D^alpha u)(p^n) for n = lo..hi from the radial series.

    D^a u(p^n) = d_a (1 - 1/p) [p^(-(a+1) n) sum_{k<n} p^k (u_k - u_n)
                                 + sum_{l>n} p^(-a l) (u_l - u_n)],
    d_a = (1 - p^a)/(1 - p^(-a-1)).  The sums run as a prefix and a suffix over
    u, and the centering uses sum_{k<n} p^k = p^n/(p-1) and
    sum_{l>n} p^(-a l) = p^(-a (n+1))/(1 - p^-a).
    """
    with mp.workdps(working_dps(u.p, alpha, lo, hi)):
        p, a = mpf(u.p), mpf(alpha)
        d_a = (1 - p ** a) / (1 - p ** (-a - 1))
        frac = 1 - 1 / p
        if lo <= u.kmin:
            left = u.left_sum(lo, 1)
        else:
            left = u.left_sum(u.kmin, 1) + sum(p ** k * u.at(k) for k in range(u.kmin, lo))
        lefts = []
        for n in range(lo, hi + 1):
            lefts.append(left)
            left += p ** n * u.at(n)
        if hi >= u.kmax:
            right = u.right_sum(hi, -a)
        else:
            right = u.right_sum(u.kmax, -a) \
                + sum(p ** (-a * l) * u.at(l) for l in range(hi + 1, u.kmax + 1))
        out = [None] * (hi - lo + 1)
        for n in range(hi, lo - 1, -1):
            c = u.at(n)
            centered_left = lefts[n - lo] - c * p ** n / (p - 1)
            centered_right = right - c * p ** (-a * (n + 1)) / (1 - p ** (-a))
            out[n - lo] = +(d_a * frac * (p ** (-(a + 1) * n) * centered_left + centered_right))
            right += p ** (-a * n) * c
        return out


def dalpha_scale(u: Radial, alpha: float, lo: int, hi: int):
    """Magnitude of the terms of the centered D^alpha series at n = lo..hi.

    |d_a| (1 - 1/p) [p^(-(a+1) n) sum_{k<n} p^k |u_k - u_n| + sum_{l>n} p^(-a l) |u_l - u_n|],
    window part summed in floats, tail part bounded with |tail| + |u_n|.
    This is the quantity a floating-point evaluation of the series is
    accurate relative to.
    """
    p, a = u.p, alpha
    d_a = abs((1 - p ** a) / (1 - p ** (-a - 1)))
    frac = 1 - 1 / p
    span = range(min(lo, u.kmin), max(hi, u.kmax) + 1)
    vals = [float(u.at(k)) for k in span]
    base = span.start
    down = [p ** (-j) for j in range(len(vals) + 1)]
    down_a = [p ** (-a * j) for j in range(len(vals) + 1)]
    j_lo, j_hi = span.start, span.stop - 1
    with mp.workdps(BASE_DPS):
        mp_p = mpf(p)
        tail_left = u.left_sum(j_lo, 1, absolute=True) if j_lo <= u.kmin else mpf(0)
        tail_right = u.right_sum(j_hi, -a, absolute=True) if j_hi >= u.kmax else mpf(0)
        scales = []
        for n in range(lo, hi + 1):
            i = n - base
            c = vals[i]
            inner_left = sum(down[i - j] * abs(vals[j] - c) for j in range(i))
            inner_right = sum(down_a[j - i] * abs(vals[j] - c) for j in range(i + 1, len(vals)))
            tails = mp_p ** (-(a + 1) * n) * (tail_left + abs(c) * mp_p ** j_lo / (p - 1)) \
                + tail_right + abs(c) * mp_p ** (-a * (j_hi + 1)) / (1 - mp_p ** (-a))
            scale = mp_p ** (-a * n) * (inner_left + inner_right) + tails
            scales.append(float(d_a * frac * scale))
        return scales


# -- kernel constants and Haar integrals, by strata -------------------------

def _strata_depth(rate: float, p: int) -> int:
    """Strata after which a geometric tail of ratio p^-rate is below 1e-60."""
    return int(60 * math.log(10) / (rate * math.log(p))) + 2


def kernel_constant(p: int, alpha: float, sigma: float, skip: int = 0):
    """d_{alpha,sigma} = int_{|y|<1} |1 - |y|^(a-1)| |y|^(a sigma) dy (log kernel at a = 1).

    Summed sphere by sphere: S_k, k <= -1, has measure (1 - 1/p) p^k.  With
    ``skip`` the spheres -1 .. -skip are left out, which gives what a sum
    over only those spheres drops.
    """
    with mp.workdps(BASE_DPS):
        P, a, s = mpf(p), mpf(alpha), mpf(sigma)
        frac = 1 - 1 / P
        rate = alpha * sigma + min(alpha, 1.0)
        total = mpf(0)
        for nu in range(skip + 1, skip + _strata_depth(rate, p)):
            if alpha == 1.0:
                kern = nu * mp.log(P)
            else:
                kern = abs(1 - P ** (-nu * (a - 1)))
            total += frac * P ** (-nu) * kern * P ** (-nu * a * s)
        return total


def ball_power_integral(p: int, a: float, n: int):
    """int_{B_n} |x|^(a-1) dx as the sum over spheres S_k, k <= n."""
    with mp.workdps(BASE_DPS):
        P, A = mpf(p), mpf(a)
        frac = 1 - 1 / P
        return sum(frac * P ** k * P ** ((A - 1) * k)
                   for k in range(n - _strata_depth(a, p), n + 1))


def sphere_power_integral(p: int, a: float, n: int):
    """int_{S_n} |x|^(a-1) dx: one sphere of measure (1 - 1/p) p^n."""
    with mp.workdps(BASE_DPS):
        P = mpf(p)
        return (1 - 1 / P) * P ** n * P ** ((mpf(a) - 1) * n)


def sphere_shifted_power_integral(p: int, a: float, n: int):
    """int_{S_n} |x - a0|^(a-1) dx for |a0| = p^n, by distance strata.

    The strata |x - a0| = p^j, j < n, have measure (1 - 1/p) p^j; the rest of
    S_n, at distance p^n, has measure p^n (1 - 2/p).
    """
    with mp.workdps(BASE_DPS):
        P, A = mpf(p), mpf(a)
        frac = 1 - 1 / P
        near = sum(frac * P ** j * P ** ((A - 1) * j)
                   for j in range(n - _strata_depth(a, p), n))
        return near + P ** n * (1 - 2 / P) * P ** ((A - 1) * n)


def ball_log_integral(p: int, n: int):
    """int_{B_n} log|x| dx as the sum over spheres S_k, k <= n."""
    with mp.workdps(BASE_DPS):
        P = mpf(p)
        lp = mp.log(P)
        return sum((1 - 1 / P) * P ** k * k * lp
                   for k in range(n - _strata_depth(0.9, p), n + 1))


def sphere_shifted_log_integral(p: int, n: int):
    """int_{S_n} log|x - a0| dx for |a0| = p^n, by distance strata."""
    with mp.workdps(BASE_DPS):
        P = mpf(p)
        lp = mp.log(P)
        near = sum((1 - 1 / P) * P ** j * j * lp for j in range(n - _strata_depth(0.9, p), n))
        return near + P ** n * (1 - 2 / P) * n * lp


# -- the Cauchy problem -----------------------------------------------------

def rhs_value(name: str, p: int, amplitude: float, beta: float, k: int, x):
    """f(p^k, x) for the catalog right-hand sides, written from their definitions."""
    if name == "zero":
        return mpf(0)
    if name == "const":
        return mpf(amplitude)
    if name == "cos-decay":
        return mpf(amplitude) * mpf(p) ** (-mpf(beta) * max(k, 0)) * mp.cos(mpf(x))
    raise ValueError(f"no reference for right-hand side {name!r}")


def fixed_point_image(p, alpha, gamma, u0, rhs, amplitude, beta, kmin, values):
    """u0 + I^alpha[|.|^(-gamma) f(., u)] at every window level of u.

    u is the window ``values`` on kmin.. with the constant u0 below it, so the
    integrand below the window is f(p^k, u0) p^(-gamma k), a power law
    (kmin < 0, where the catalog right-hand sides do not decay).  Returns the
    image and the scale of each I^alpha sum.
    """
    with mp.workdps(working_dps(p, alpha, kmin, kmin + len(values))):
        P, g = mpf(p), mpf(gamma)
        phi = [P ** (-g * k) * rhs_value(rhs, p, amplitude, beta, k, x)
               for k, x in enumerate(values, start=kmin)]
        f0 = rhs_value(rhs, p, amplitude, beta, kmin - 1, u0)
        if f0 == 0:
            left = ZERO_TAIL
        elif gamma == 0.0:
            left = ("const", f0, 0.0)
        else:
            left = ("power", f0, -g)
        image, scales = ialpha(Radial(p, kmin, phi, left), alpha, kmin, kmin + len(values) - 1)
        return [mpf(u0) + v for v in image], scales
