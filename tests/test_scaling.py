"""Depth-scaling covariance of the resolvent layer.

If u solves the model at depth d on a circle of length L, then
u_lam(x, t) = lam u(lam x, lam^2 t) solves it at depth d/lam on length
L/lam.  Coefficients are stored as integral u exp(-i x xi) dx, so u_lam has
the coefficient array of u on the shorter circle.  Its Lax truncation is
lam times that of u, so the resolvent state at the shift lam kappa is 1/lam
times the one at kappa, its samples on the grid and the form's gradient
are those of u, and the form is unchanged.  The weighted form's flow
derivative at depth d/lam scales by lam^(2s+3).

For lam = 2^k the FFTs, the conjugate-gradient recurrence and the rule's
nodes scale by exact powers of 2, so these relations hold bit for bit.  A
factor sqrt(lam) is exact only at even k: the Cholesky factor of the
shifted matrix scales by it, and so does lam^(2s+3) = lam^2.5 at s = -1/4.
At odd k those two hold to the rounding of that factor.
"""

import numpy as np
import pytest

from ilw_lab import (
    RealField,
    SpectralGrid,
    build_lax,
    form_flow_derivative,
    random_field,
    resolvent_state,
)

TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps
POWERS = (-3, -1, 1, 2, 4, 10, 20)


def _rescaled(u, lam):
    """u_lam: the coefficients of u on the circle of length L/lam."""
    return RealField(SpectralGrid(u.grid.length / lam, u.grid.n_points),
                     u.coeffs)


def _gronwall_field(seed):
    # the law of a default gronwall member
    return random_field(SpectralGrid(TWO_PI, 256), -0.25, 0.4, seed,
                        decay=0.25)


@pytest.mark.parametrize("seed", [1, 3])
def test_certified_resolvent_state_scales_exactly(seed):
    u = _gronwall_field(seed)
    base = resolvent_state(build_lax(u), 32.0)
    assert base.iterations > 0
    form = base.form(u)
    for k in POWERS:
        lam = 2.0 ** k
        u_lam = _rescaled(u, lam)
        state = resolvent_state(build_lax(u_lam), lam * 32.0)
        assert np.array_equal(state.coeffs * lam, base.coeffs), k
        assert state.iterations == base.iterations, k
        assert state.form(u_lam) == form, k
        assert np.array_equal(state.gradient, base.gradient), k


def test_cholesky_resolvent_state_scales_exactly_at_even_powers():
    # a + kappa <= 0 < lambda_min + kappa: the dense fallback at every scale
    u = random_field(SpectralGrid(TWO_PI, 256), -0.25, 5.0, 11, decay=0.0)
    lax = build_lax(u, 63.0)
    kappa = 0.9 * abs(float(lax.bound))
    assert lax.bound + kappa < 0.0
    base = resolvent_state(lax, kappa)
    assert base.iterations == 0
    form = base.form(u)
    for k in POWERS:
        lam = 2.0 ** k
        u_lam = _rescaled(u, lam)
        state = resolvent_state(build_lax(u_lam, lam * 63.0), lam * kappa)
        assert state.iterations == 0, k
        assert state.form(u_lam) == form, k
        if k % 2 == 0:
            assert np.array_equal(state.coeffs * lam, base.coeffs), k
            assert np.array_equal(state.gradient, base.gradient), k
        else:
            gap = np.linalg.norm(state.coeffs * lam - base.coeffs)
            assert gap <= 2.0 * EPS * np.linalg.norm(base.coeffs), k


@pytest.mark.parametrize("seed", [1, 3])
def test_flow_derivative_scales_by_lambda_to_the_2s_plus_3(seed):
    u = _gronwall_field(seed)
    base = form_flow_derivative(u, 32.0, 1.0, -0.25)
    assert base != 0.0
    for k in POWERS:
        lam = 2.0 ** k
        flow = form_flow_derivative(_rescaled(u, lam), lam * 32.0, 1.0 / lam,
                                    -0.25)
        want = lam ** 2.5 * base
        if k % 2 == 0:
            assert flow == want, k
        else:
            assert abs(flow - want) <= 3.0 * np.spacing(abs(want)), k
