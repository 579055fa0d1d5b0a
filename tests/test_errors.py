import math

import pytest

from padicradial.errors import DomainError
from padicradial.cauchy import ProblemSpec, catalog_nonlinearity
from padicradial.fracint import apply_ialpha, bound_constants, kernel_constant, kernel_constant_oracle
from padicradial.radial import RadialFunction, check_summability
from padicradial.vladimirov import d_alpha

_U = RadialFunction.split_power(2, 0.0, -0.5)

# every entry point that checks alpha itself; apply_ialpha checks it through _sweep_below
ENTRY_POINTS = {
    "kernel_constant": lambda a: kernel_constant(2, a, 0.0),
    "kernel_constant_oracle": lambda a: kernel_constant_oracle(2, a, 0.0),
    "apply_ialpha": lambda a: apply_ialpha(_U, a, 0),
    "bound_constants": lambda a: bound_constants(2, a, 0.0),
    "d_alpha": lambda a: d_alpha(2, a),
    "check_summability": lambda a: check_summability(_U, a, 0),
    "ProblemSpec": lambda a: ProblemSpec(p=2, alpha=a, gamma=0.0, u0=1.0,
                                         rhs=catalog_nonlinearity("zero", 2)),
}


@pytest.mark.parametrize("alpha", (0.0, -1.0, math.nan))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_alpha_must_be_finite_and_positive(entry, alpha):
    with pytest.raises(DomainError, match="alpha"):
        ENTRY_POINTS[entry](alpha)


def test_records_carry_only_what_is_read():
    # KernelConstants once echoed p, alpha and sigma, and NonConvergenceError kept the
    # differences of its iteration; nothing read either
    import dataclasses
    from padicradial.errors import NonConvergenceError
    from padicradial.fracint import KernelConstants
    assert [f.name for f in dataclasses.fields(KernelConstants)] == ["d_abs", "s_signed", "a_bound"]
    assert repr(kernel_constant(2, 2.0, 0.0)).startswith("KernelConstants(d_abs=0.333333333333333")
    err = NonConvergenceError("did not converge")
    assert str(err) == "did not converge" and not hasattr(err, "diffs")
