"""Depth-scaling covariance of the resolvent and Lanczos layers and the
stepper.

If u solves the model at depth d on a circle of length L, then
u_lam(x, t) = lam u(lam x, lam^2 t) solves it at depth d/lam on length
L/lam.  Coefficients are stored as integral u exp(-i x xi) dx, so u_lam has
the coefficient array of u on the shorter circle.  Its Lax truncation is
lam times that of u, so the resolvent state at the shift lam kappa is 1/lam
times the one at kappa, its samples on the grid and the form's gradient
are those of u, and the form is unchanged.  The weighted form's flow
derivative at depth d/lam scales by lam^(2s+3).  The Lanczos recurrence
from P_+ u_lam at lam kappa gives lam times the Jacobi entries of u at
kappa in the same steps, so the Gauss rule's nodes and weights scale by
lam and beta_s = sum_j w_j W(lambda_j) at lam kappa by lam^(2s+1).  The
ETDRK4 stepper at depth d/lam and step dt/lam^2 takes u_lam through the
states of u at times scaled by 1/lam^2, on which the Hamiltonian scales
by lam^2 and the mass by lam.

The admissible-shift threshold c_s (1 + ||u||_{H^s_kappa})^(1/(2 sigma)) is
not covariant: its 1 does not scale with the norm.  It is left out.

For lam = 2^k the FFTs, the conjugate-gradient and Lanczos recurrences,
the rule's nodes and the stepper's phi-tables scale by exact powers of 2,
so these relations hold bit for bit.  A factor sqrt(lam) is exact only at
even k: the Cholesky factor of the shifted matrix scales by it, and so do
lam^(2s+3) = lam^2.5 and lam^(2s+1) = lam^0.5 at s = -1/4.  At odd k
those hold to the rounding of that factor.
"""

import numpy as np
import pytest

from ilw_lab import (
    KappaRule,
    LaxSpectrum,
    RealField,
    SpectralGrid,
    build_lax,
    etdrk4_samples,
    form_flow_derivative,
    hamiltonian,
    make_ilw,
    mass,
    random_field,
    resolvent_state,
)
from ilw_lab.lax import _lanczos

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


def test_lanczos_recurrence_and_gauss_rule_scale_exactly():
    u = _gronwall_field(1)
    lax = build_lax(u)
    alpha, beta, steps = _lanczos(lax, 32.0)
    base = LaxSpectrum.lanczos(lax, 32.0)
    rule = KappaRule.build(32.0, -0.25)
    value = rule.values(base)
    assert steps[0] > 0 and value > 0.0
    for k in POWERS:
        lam = 2.0 ** k
        lax_lam = build_lax(_rescaled(u, lam))
        alpha_lam, beta_lam, steps_lam = _lanczos(lax_lam, lam * 32.0)
        assert np.array_equal(alpha_lam / lam, alpha), k
        assert np.array_equal(beta_lam / lam, beta), k
        assert np.array_equal(steps_lam, steps), k
        spectrum = LaxSpectrum.lanczos(lax_lam, lam * 32.0)
        assert np.array_equal(spectrum.nodes / lam, base.nodes), k
        assert np.array_equal(spectrum.weights / lam, base.weights), k
        # beta_s scales by lam^(2s+1) = sqrt(lam)
        scaled = KappaRule.build(lam * 32.0, -0.25).values(spectrum)
        want = lam ** 0.5 * value
        if k % 2 == 0:
            assert scaled == want, k
        else:
            assert abs(scaled - want) <= 2.0 * EPS * want, k


def _default_members():
    # the 30 members of a default gronwall run, depth-major: seeds 1-10 at
    # depths 0.5, 1 and 2
    return [(depth, _gronwall_field(seed))
            for depth in (0.5, 1.0, 2.0) for seed in range(1, 11)]


def test_stepper_scales_exactly():
    members = _default_members()
    stack = np.stack([u.coeffs for _, u in members])
    grid = members[0][1].grid

    def run(lam):
        grid_lam = SpectralGrid(TWO_PI / lam, 256)
        problems = [make_ilw(depth / lam, grid_lam) for depth, _ in members]
        return list(etdrk4_samples(problems, stack, 0.2 / lam ** 2,
                                   1e-3 / lam ** 2, 4))

    base = run(1.0)
    assert len(base) == 5 and not np.array_equal(base[-1][1], stack)
    for k in POWERS:
        lam = 2.0 ** k
        samples = run(lam)
        assert [t * lam ** 2 for t, _ in samples] == [t for t, _ in base], k
        for (_, coeffs), (_, want) in zip(samples, base):
            assert np.array_equal(coeffs, want), k
    for k in (-3, 1, 4):
        lam = 2.0 ** k
        for depth, u in members[::10]:
            u_lam = _rescaled(u, lam)
            energy = make_ilw(depth, grid).energy_symbol
            energy_lam = make_ilw(depth / lam, u_lam.grid).energy_symbol
            assert hamiltonian(u_lam, energy_lam) == lam ** 2 * hamiltonian(
                u, energy), k
            assert mass(u_lam) == lam * mass(u), k
