"""Exception types shared across the package, and the checks of finiteness, of levels,
of alpha, of the degeneration exponent and of an oracle's depth that several modules share.

The CLI maps these onto its exit codes: everything rooted at
:class:`DomainError`, :class:`MetadataError` and :class:`MagnitudeError`
is a precondition violation (exit 2), while :class:`NonConvergenceError`,
:class:`BudgetError` and :class:`IndeterminateResidualError` are runtime
failures (exit 3).
"""

import math
import operator


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


def require_finite(**values) -> None:
    """Raise :class:`DomainError` naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def require_level(value, name: str = "level n") -> int:
    """``value`` as an int level: an integral float such as 2.0 is converted, as a prime
    base is; anything else, NaN and inf included, is a :class:`DomainError`."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def require_tol(tol: float) -> None:
    """Raise :class:`DomainError` unless the tolerance is finite and positive."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")


class DivergenceError(DomainError):
    """An infinite series required by an operation diverges.

    The message names the violated inequality (e.g. ``e + rho > 0``).
    """


def require_depth(depth: int) -> int:
    """``depth`` as an int by the rule of :func:`require_level` (a :class:`DomainError`
    naming the oracle depth), then :class:`DivergenceError` unless it is at least 1."""
    depth = require_level(depth, "oracle depth")
    if depth < 1:
        raise DivergenceError(f"oracle depth must be >= 1, got {depth}")
    return depth


class DegenerationError(DomainError):
    """The degeneration exponent violates ``0 <= gamma < min(1, alpha)``."""


class ContractionError(DomainError):
    """A fixed-point map is not a contraction (``kappa >= 1``)."""


def require_alpha(alpha: float) -> None:
    """Raise :class:`DomainError` unless alpha is finite, :class:`DivergenceError` unless
    it is positive: the kernels of D^alpha and I^alpha need alpha > 0."""
    require_finite(alpha=alpha)
    if alpha <= 0:
        raise DivergenceError(f"alpha must be positive, got {alpha}")


def require_weak_degeneration(alpha: float, gamma: float) -> None:
    """Raise :class:`DegenerationError` unless 0 <= gamma < min(1, alpha)."""
    if not 0.0 <= gamma < min(1.0, alpha):
        raise DegenerationError(
            "weak degeneration requires 0 <= gamma < min(1, alpha) = "
            f"{min(1.0, alpha)}, got gamma = {gamma}"
        )


class MetadataError(ValueError):
    """Declared nonlinearity metadata is inconsistent with observed values."""


class MagnitudeError(OverflowError):
    """A guarded exponential ``p**x`` would exceed the floating-point range."""


class NonConvergenceError(RuntimeError):
    """An iteration hit its step limit before reaching tolerance."""


class BudgetError(RuntimeError):
    """A certified truncation bound exceeds the allowed error budget."""


class IndeterminateResidualError(RuntimeError):
    """The residual cannot be certified at the requested level.

    Raised as ``(text,)`` or as ``(template, *values)``: the message is then
    ``template.format(*values)``, formed only when it is read.
    """

    def __str__(self) -> str:
        if len(self.args) > 1:
            return self.args[0].format(*self.args[1:])
        return super().__str__()
