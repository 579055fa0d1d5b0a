"""Radial functions on the value lattice p^Z with analytic tails.

A radial function u is stored by its values on a finite level window
[k_min, k_max] (``values[i] = u(p^(k_min + i))``) together with a
:class:`TailModel` on each side and the value u(0).  Tails are limited
to zero / constant / power-law; that is exactly the class needed by the
operator modules, and it makes every weighted infinite sum a geometric
series with a closed form, so there is no truncation error at infinity.

The weighted sums here, ``sum_{k<=m} p^(e k) u(p^k)`` and its mirror image,
are one private sum over levels lo <= k <= hi that also centers u on a
constant c and sums an open end in closed form; it serves the D^alpha
oracle, and the D^alpha walks take their seeds from its tail part.  Every
tail series converges or diverges by one rule on its rate, which also
decides :func:`check_summability` with no sum formed.
:meth:`RadialFunction.values_on` reads u on a range of levels into a new
list, one slice of the stored tuple in the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DivergenceError, DomainError, require_alpha, require_level
from .haar import Prime, p_pow

_TAIL_KINDS = ("zero", "const", "power")


@dataclass(frozen=True)
class TailModel:
    """Analytic description of u(p^k) outside the stored window.

    kind ``zero``: identically 0; ``const``: the constant ``c``;
    ``power``: ``c * p^(rho k)``.  A constant or a power law with c = 0
    normalizes to zero.  A constant is a power law with rho = 0 (its rho
    is set to 0) but is kept distinct so constant tails stay exact.
    """

    kind: str
    c: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in _TAIL_KINDS:
            raise DomainError(f"tail kind must be one of {_TAIL_KINDS}, got {self.kind!r}")
        if self.c == 0.0:
            object.__setattr__(self, "kind", "zero")
        if self.kind != "power":  # the power law with rho = 0, which the operators rely on
            object.__setattr__(self, "rho", 0.0)
        if self.kind == "zero":
            object.__setattr__(self, "c", 0.0)
        if not (math.isfinite(self.c) and math.isfinite(self.rho)):
            raise DomainError("tail parameters must be finite")

    @staticmethod
    def zero() -> "TailModel":
        return TailModel("zero")

    @staticmethod
    def constant(c: float) -> "TailModel":
        return TailModel("const", c=float(c))

    @staticmethod
    def power_law(c: float, rho: float) -> "TailModel":
        return TailModel("power", c=float(c), rho=float(rho))

    def value_at(self, p: int, k: int) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "const":
            return self.c
        return self.c * p_pow(p, self.rho * k)

    def to_token(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "const":
            return f"const:{self.c!r}"
        return f"power:{self.c!r}:{self.rho!r}"

    @staticmethod
    def from_token(token: str) -> "TailModel":
        parts = token.split(":")
        try:
            if parts[0] == "zero" and len(parts) == 1:
                return TailModel.zero()
            if parts[0] == "const" and len(parts) == 2:
                return TailModel.constant(float(parts[1]))
            if parts[0] == "power" and len(parts) == 3:
                return TailModel.power_law(float(parts[1]), float(parts[2]))
        except ValueError as err:
            raise DomainError(f"malformed tail token {token!r}: {err}") from err
        raise DomainError(f"malformed tail token {token!r}")


@dataclass(frozen=True)
class RadialFunction:
    """Immutable radial function u: p^Z union {0} -> R."""

    p: int
    k_min: int
    k_max: int
    values: tuple
    left_tail: TailModel = field(default_factory=TailModel.zero)
    right_tail: TailModel = field(default_factory=TailModel.zero)
    value_at_zero: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", Prime(self.p))
        object.__setattr__(self, "k_min", require_level(self.k_min, "k_min"))
        object.__setattr__(self, "k_max", require_level(self.k_max, "k_max"))
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if self.k_min > self.k_max:
            raise DomainError(f"window requires k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if len(self.values) != self.k_max - self.k_min + 1:
            raise DomainError(
                f"window [{self.k_min}, {self.k_max}] needs "
                f"{self.k_max - self.k_min + 1} values, got {len(self.values)}"
            )
        if not all(map(math.isfinite, self.values)):
            raise DomainError("all window values must be finite")
        if not math.isfinite(self.value_at_zero):
            raise DomainError("value at zero must be finite")

    @staticmethod
    def constant(p: int, c: float, k_min: int = -1, k_max: int = 1) -> "RadialFunction":
        n = k_max - k_min + 1
        return RadialFunction(
            p, k_min, k_max, (float(c),) * n,
            left_tail=TailModel.constant(c), right_tail=TailModel.constant(c),
            value_at_zero=float(c),
        )

    @staticmethod
    def indicator_unit_ball(p: int) -> "RadialFunction":
        """The indicator of {|x|_p <= 1}: value 1 for k <= 0, 0 for k > 0."""
        return RadialFunction(
            p, 0, 0, (1.0,),
            left_tail=TailModel.constant(1.0), right_tail=TailModel.zero(),
            value_at_zero=1.0,
        )

    @staticmethod
    def power(p: int, rho: float, c: float = 1.0) -> "RadialFunction":
        """The pure power u(p^k) = c p^(rho k); u(0) = 0."""
        return RadialFunction.split_power(p, rho, rho, c)

    @staticmethod
    def split_power(p: int, rho_left: float, rho_right: float, c: float = 1.0) -> "RadialFunction":
        """c p^(rho_left k) for k <= 0 joined to c p^(rho_right k) for k >= 0."""
        return RadialFunction(
            p, 0, 0, (float(c),),
            left_tail=TailModel.power_law(c, rho_left),
            right_tail=TailModel.power_law(c, rho_right),
            value_at_zero=0.0,
        )

    def value_at(self, k: int) -> float:
        if k < self.k_min:
            return self.left_tail.value_at(self.p, k)
        if k > self.k_max:
            return self.right_tail.value_at(self.p, k)
        return self.values[k - self.k_min]

    def values_on(self, lo: int, hi: int) -> list:
        """[u(p^k) for k = lo .. hi] in a new list: the stored values sliced, tails evaluated."""
        p, k_min, k_max = self.p, self.k_min, self.k_max
        if k_min <= lo <= hi <= k_max:
            return list(self.values[lo - k_min:hi + 1 - k_min])
        out = [self.left_tail.value_at(p, k) for k in range(lo, min(hi + 1, k_min))]
        out += self.values[max(lo - k_min, 0):max(hi + 1 - k_min, 0)]
        out.extend(self.right_tail.value_at(p, k) for k in range(max(lo, k_max + 1), hi + 1))
        return out

    @cached_property
    def _residual_memo(self) -> dict:
        """(alpha, gamma) -> :func:`padicradial.cauchy._residual_rows` of this function: the
        one cache."""
        return {}


# -- geometric primitives ---------------------------------------------------
#
# All infinite tails reduce to the sum below, written for the ratio
# x = p^e (or p^(e + rho)).

def _geom(x: float, j: int, side: str) -> float:
    """sum_{k <= j} x^k for x > 1 (side "left"), sum_{k >= j} x^k for 0 < x < 1 ("right")."""
    if side == "left":
        return p_pow(x, j) * x / (x - 1.0)
    return p_pow(x, j) / (1.0 - x)


def _require_convergent(tail: TailModel, side: str, e: float, c: float = 0.0,
                        series: str = "") -> None:
    """The one convergence rule of a tail: sum p^(e k) (tail(k) - c) over the levels beyond
    a window on ``side`` ("left": k -> -inf, "right": k -> +inf) is geometric, of rate
    e + rho for a power law and e for a constant or a centering c != 0, and converges iff
    each rate is > 0 on the left and < 0 on the right; a boundary rate diverges.  Anything
    else raises :class:`DivergenceError` naming ``series`` (the weighted sum by default)
    and the broken inequality.
    """
    sign, rel = (1.0, ">") if side == "left" else (-1.0, "<")
    if tail.kind == "power" and sign * (e + tail.rho) <= 0.0:
        broken = f"power-law {side} tail requires e + rho {rel} 0, got e + rho = {e + tail.rho}"
    elif (tail.kind == "const" or c != 0.0) and sign * e <= 0.0:
        broken = f"constant {side} tail requires e {rel} 0, got e = {e}"
    else:
        return
    series = series or f"{side} series sum p^(e k) u(p^k)"
    raise DivergenceError(f"{series} diverges: {broken}")


def _tail_sum(total: float, tail: TailModel, p: int, j: int, e: float, c: float,
              side: str, origin: int = 0) -> float:
    """total + sum p^(e (k - s)) (tail(k) - c) over the levels beyond j, in closed form.

    ``side`` is "left" (levels k <= j) or "right" (k >= j); a divergent
    series raises through :func:`_require_convergent`.  Adding to the
    caller's running total keeps one summation order for the plain and the
    centered sums.  Levels are counted from s = ``origin``, so a sum scaled
    to its own level stays in the double range however far that level lies
    from 0.
    """
    _require_convergent(tail, side, e, c)
    shift = tail.c - c
    if tail.kind == "power":
        total += tail.value_at(p, origin) * _geom(p_pow(p, e + tail.rho), j - origin, side)
        shift = -c
    if shift != 0.0:
        total += shift * _geom(p_pow(p, e), j - origin, side)
    return total


def _equals(tail: TailModel, c: float) -> bool:
    """Whether the tail is the constant c at every level (a zero tail when c = 0)."""
    return tail.kind != "power" and tail.c == c


def _sum(u: RadialFunction, lo: int | None, hi: int | None, e: float,
         c: float = 0.0, origin: int = 0) -> float:
    """sum_{lo <= k <= hi} p^(e (k - s)) (u(p^k) - c), s = ``origin``; an end given as None
    is the tail beyond the window on that side, in closed form.  c = s = 0 gives the
    plain weighted sums, and s near the range keeps a sum far from level 0 in range.
    Levels of the range past the window whose tail equals c add exactly 0 and are
    skipped, so a range reaching far beyond the window forms no power there."""
    p = u.p
    total = 0.0
    if lo is None:
        lo = u.k_min if hi is None else min(hi + 1, u.k_min)
        total = _tail_sum(total, u.left_tail, p, lo - 1, e, c, "left", origin)
    top = max(lo, u.k_max + 1) - 1 if hi is None else hi
    first = max(lo, u.k_min) if _equals(u.left_tail, c) else lo
    last = min(top, u.k_max) if _equals(u.right_tail, c) else top
    for k, v in zip(range(first, last + 1), u.values_on(first, last)):
        total += p_pow(p, e * (k - origin)) * (v - c)
    if hi is None:
        total = _tail_sum(total, u.right_tail, p, top + 1, e, c, "right", origin)
    return total


def weighted_sum_left(u: RadialFunction, m: int, e: float) -> float:
    """sum_{k <= m} p^(e k) u(p^k), with the sub-window part in closed form."""
    return _sum(u, None, m, e)


# -- summability ------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class SummabilityReport:
    """Outcome of the convergence conditions the operator modules assume.

    cond_3_1      : sum p^k |u(p^k)| < inf over the levels k -> -inf
    cond_3_1_prime: sum p^(-alpha l) |u(p^l)| < inf over the levels l -> +inf
    cond_2_7      : sum max(p^k, p^(alpha k)) |u(p^k)| < inf, k -> -inf
    cond_3_2      : cond_2_7 plus sum |u(p^l)| < inf, l -> +inf

    At alpha = 1, cond_2_7 and cond_3_2 are the paper's (2.8) and (3.3), whose
    series carry a factor |k| (|l|): a geometric tail's verdict never depends on
    it.  Each series splits at any level into finitely many terms and a tail
    beyond the window, so each verdict is the tail's rate alone, by
    :func:`_require_convergent`: at k -> -inf max(p^k, p^(alpha k)) is
    p^(min(1, alpha) k), and boundary rates are classified divergent.  A failing
    cond_3_2 keeps the first failing detail.
    """

    cond_3_1: ConditionCheck
    cond_3_1_prime: ConditionCheck
    cond_2_7: ConditionCheck
    cond_3_2: ConditionCheck

    def all_applicable_hold(self) -> bool:
        return all(c.holds for c in (self.cond_3_1, self.cond_3_1_prime,
                                     self.cond_2_7, self.cond_3_2))


def _rate_check(tail: TailModel, side: str, e: float) -> ConditionCheck:
    try:
        _require_convergent(tail, side, e)
    except DivergenceError as err:
        return ConditionCheck(False, str(err))
    return ConditionCheck(True)


def check_summability(u: RadialFunction, alpha: float) -> SummabilityReport:
    """Evaluate the convergence conditions for u from its tails' kinds and rates."""
    require_alpha(alpha)
    cond_3_1 = _rate_check(u.left_tail, "left", 1.0)
    cond_3_1_prime = _rate_check(u.right_tail, "right", -alpha)
    left = _rate_check(u.left_tail, "left", min(1.0, alpha))
    both = _rate_check(u.right_tail, "right", 0.0) if left.holds else left
    return SummabilityReport(cond_3_1, cond_3_1_prime, left, both)


# -- serialization ----------------------------------------------------------
#
# Line-oriented text format: a header
#     p k_min k_max u0 left_tail right_tail
# followed by one "k value" pair per window level.

def dump_radial(u: RadialFunction) -> str:
    lines = [
        f"{int(u.p)} {u.k_min} {u.k_max} {u.value_at_zero!r} "
        f"{u.left_tail.to_token()} {u.right_tail.to_token()}"
    ]
    for i, v in enumerate(u.values):
        lines.append(f"{u.k_min + i} {v!r}")
    return "\n".join(lines) + "\n"


def load_radial(text: str) -> RadialFunction:
    lines = [(idx, ln.strip()) for idx, ln in enumerate(text.splitlines(), start=1)]
    lines = [(idx, ln) for idx, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise DomainError("empty radial function file")
    first, header = lines[0]
    head = header.split()
    if len(head) != 6:
        raise DomainError(
            f"line {first}: header needs 'p k_min k_max u0 left_tail right_tail', got {header!r}"
        )
    try:
        p, k_min, k_max = int(head[0]), int(head[1]), int(head[2])
        u0 = float(head[3])
    except ValueError as err:
        raise DomainError(f"line {first}: {err}") from err
    left = TailModel.from_token(head[4])
    right = TailModel.from_token(head[5])
    values = {}
    for idx, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise DomainError(f"line {idx}: expected 'k value', got {ln!r}")
        try:
            k, value = int(parts[0]), float(parts[1])
        except ValueError as err:
            raise DomainError(f"line {idx}: {err}") from err
        if not k_min <= k <= k_max:
            raise DomainError(f"line {idx}: level {k} is outside the window [{k_min}, {k_max}]")
        if k in values:
            raise DomainError(f"line {idx}: level {k} is given twice")
        values[k] = value
    missing = [k for k in range(k_min, k_max + 1) if k not in values]
    if missing:
        raise DomainError(f"missing values for levels {missing}")
    return RadialFunction(
        p, k_min, k_max, tuple(values[k] for k in range(k_min, k_max + 1)),
        left_tail=left, right_tail=right, value_at_zero=u0,
    )
