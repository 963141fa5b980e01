"""Truncated Lax matrix, resolvent functionals, weighted-form quadrature,
and the growth experiments built on them."""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from ilw_lab import (
    ContractError,
    KappaTooSmallError,
    NumericalError,
    RealField,
    SpectralGrid,
    apriori_bound,
    build_lax,
    build_weighted_rule,
    check_kappa,
    evolve,
    form_flow_derivative,
    forward_transform,
    gronwall_experiment,
    make_bo,
    make_ilw,
    modes_to_xi_max,
    random_field,
    resolvent_form,
    resolvent_form_gradient,
    resolvent_solve,
    resolvent_state,
    weighted_resolvent_form,
)
from ilw_lab.experiments import load_config, run
from ilw_lab.lax import LaxSpectrum
from ilw_lab.spectral import hardy_project

TWO_PI = 2.0 * np.pi


def constant_field(grid, value):
    coeffs = np.zeros(grid.n_points, dtype=np.complex128)
    coeffs[0] = value * grid.length
    return RealField(grid, coeffs)


def dense_oracle(u, n_modes):
    # entry (i, j) is u_hat(xi_i - xi_j)/L plus the diagonal frequency
    grid = u.grid
    m = np.empty((n_modes, n_modes), dtype=np.complex128)
    for i in range(n_modes):
        for j in range(n_modes):
            m[i, j] = u.coeffs[(i - j) % grid.n_points] / grid.length
            if i == j:
                m[i, j] += grid.fundamental * i
    return m


# ------------------------------------------------------------- truncation

def test_lax_matrix_zero_and_constant_fields():
    grid = SpectralGrid(TWO_PI, 128)
    zero = RealField(grid, np.zeros(128, dtype=np.complex128))
    lax = build_lax(zero, 31.0)
    assert lax.frequencies.shape == (32,)
    assert np.array_equal(lax.matrix, np.diag(np.arange(32.0)))
    # adding a constant shifts every eigenvalue by that constant
    shifted = build_lax(constant_field(grid, -2.0), 31.0)
    spectrum = LaxSpectrum(shifted, constant_field(grid, -2.0))
    assert np.max(np.abs(np.sort(spectrum.eigenvalues)
                         - (np.arange(32.0) - 2.0))) < 1e-13
    assert spectrum.lambda_min == pytest.approx(-2.0, abs=1e-13)


def test_lax_matrix_against_dense_oracle():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    lax = build_lax(u, 31.0)
    oracle = dense_oracle(u, 32)
    assert np.max(np.abs(lax.matrix - oracle)) == 0.0
    assert np.max(np.abs(lax.matrix - lax.matrix.conj().T)) == 0.0


def test_lax_eigenvalues_stay_within_sup_norm():
    # the multiplication part is a Hermitian perturbation bounded by sup|u|
    grid = SpectralGrid(TWO_PI, 128)
    for seed in range(5):
        u = random_field(grid, -0.25, 0.3, seed, decay=0.25)
        spectrum = LaxSpectrum(build_lax(u, 31.0), u)
        gap = np.max(np.abs(np.sort(spectrum.eigenvalues) - np.arange(32.0)))
        assert gap <= u.sup_norm() * (1.0 + 1e-12)


def test_build_lax_validation():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 1)
    with pytest.raises(ContractError):
        build_lax(u, 0.0)
    with pytest.raises(ContractError):
        build_lax(u, 32.0)  # beyond half the bandwidth (max pair is 63)
    assert modes_to_xi_max(grid, 64) == 63.0
    assert build_lax(u, modes_to_xi_max(grid, 16)).frequencies.shape == (16,)
    with pytest.raises(ContractError):
        modes_to_xi_max(grid, 0)
    with pytest.raises(ContractError):
        LaxSpectrum(build_lax(u, 31.0), random_field(SpectralGrid(1.0, 128),
                                                     -0.25, 0.3, 1))


# ---------------------------------------------------------- shift admissibility

def test_check_kappa_zero_field():
    grid = SpectralGrid(TWO_PI, 128)
    zero = RealField(grid, np.zeros(128, dtype=np.complex128))
    check = check_kappa(zero, -0.25, 1.0)
    assert check.norm == 0.0
    assert check.threshold == 1.0
    assert check.lambda_min == pytest.approx(0.0, abs=1e-14)
    assert check.ok


def test_check_kappa_negative_constant_fails():
    grid = SpectralGrid(TWO_PI, 128)
    check = check_kappa(constant_field(grid, -2.0), -0.25, 1.0)
    assert check.lambda_min == pytest.approx(-2.0, abs=1e-13)
    assert not check.ok


def test_check_kappa_threshold_monotone():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.5, 4, decay=0.25)
    thresholds = [check_kappa(u, -0.25, k).threshold
                  for k in (1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
    with pytest.raises(ContractError):
        check_kappa(u, -0.25, 0.5)
    with pytest.raises(ContractError):
        check_kappa(u, -0.25, 2.0, c_s=0.0)
    with pytest.raises(ContractError):
        check_kappa(u, -0.75, 2.0)


# ------------------------------------------------------------- resolvent

def test_resolvent_solve_diagonal_case():
    grid = SpectralGrid(TWO_PI, 128)
    zero = RealField(grid, np.zeros(128, dtype=np.complex128))
    lax = build_lax(zero, 31.0)
    g = np.arange(32.0) + 1j
    x = resolvent_solve(lax, 5.0, g)
    assert np.max(np.abs(x - g / (np.arange(32.0) + 5.0))) < 1e-14
    shifted = lax.matrix + 5.0 * np.eye(32)
    assert np.linalg.norm(shifted @ x - g) < 1e-12 * np.linalg.norm(g)
    with pytest.raises(ContractError):
        resolvent_solve(lax, 5.0, g[:10])


def test_resolvent_solve_rejects_bad_shift():
    grid = SpectralGrid(TWO_PI, 128)
    u = constant_field(grid, -2.0)
    lax = build_lax(u, 31.0)
    with pytest.raises(KappaTooSmallError):
        resolvent_solve(lax, 1.0, hardy_project(u)[:32])


def test_resolvent_state_decays_with_kappa():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    assert resolvent_state(u, 8.0).norms == {}
    logs = []
    for kappa in (8.0, 16.0, 32.0, 64.0):
        state = resolvent_state(u, kappa, s=-0.25)
        assert set(state.norms) == {"m_smoothed", "m_plain", "u", "u_plain"}
        logs.append(np.log(state.norms["m_plain"]))
    slope = np.polyfit(np.log([8.0, 16.0, 32.0, 64.0]), logs, 1)[0]
    assert slope < -0.9


def test_resolvent_state_neumann_expansion():
    # against the second-order Neumann series the error falls off cubically
    grid = SpectralGrid(TWO_PI, 128)
    shape = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    direction = shape.samples() / shape.sup_norm()
    kappa = 16.0
    r0 = np.diag(1.0 / (np.arange(32.0) + kappa))
    errors = []
    sizes = (1e-2, 5e-3, 2.5e-3)
    for eps in sizes:
        u = forward_transform(eps * direction, grid)
        lax = build_lax(u, 31.0)
        g = hardy_project(u)[:32]
        m = -resolvent_solve(lax, kappa, g)
        t = lax.matrix - np.diag(lax.frequencies)
        m2 = -r0 @ g + r0 @ t @ r0 @ g
        errors.append(np.linalg.norm(m - m2))
    assert errors[0] > errors[1] > errors[2]
    order = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert order > 2.9


def test_resolvent_form_against_dense_solve():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    value = resolvent_form(u, 32.0, xi_max=31.0)
    oracle_matrix = dense_oracle(u, 32) + 32.0 * np.eye(32)
    g = hardy_project(u)[:32]
    x = np.linalg.solve(oracle_matrix, g)
    oracle = float(np.real(np.vdot(g, x))) / grid.length
    assert value == pytest.approx(oracle, rel=1e-12)
    assert value > 0.0


def test_resolvent_form_perturbative_value():
    # for a small single harmonic the form is |u_hat|^2/(L*(xi_0 + kappa))
    # up to fourth order
    grid = SpectralGrid(1.0, 128)
    eps = 1e-3
    u = forward_transform(2.0 * eps * np.cos(TWO_PI * grid.nodes), grid)
    value = resolvent_form(u, 32.0)
    assert abs(value - eps ** 2 / (TWO_PI + 32.0)) < 1e-8


def test_resolvent_form_translation_invariant():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    base = resolvent_form(u, 32.0)
    assert resolvent_form(u.shifted(0.79), 32.0) == pytest.approx(base,
                                                                  rel=1e-12)


def test_form_decreases_with_kappa():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    values = [resolvent_form(u, k) for k in (8.0, 16.0, 32.0, 64.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_form_times_tau_converges_to_hardy_mass():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    spectrum = LaxSpectrum(build_lax(u, 31.0), u)
    g = hardy_project(u)[:32]
    hardy_mass = float(np.sum(np.abs(g) ** 2)) / grid.length
    tau = 1e4
    assert tau * spectrum.form_at(np.array([tau]))[0] == pytest.approx(
        hardy_mass, rel=0.01)


# ------------------------------------------------------------ weighted form

def test_weighted_form_zero_field():
    grid = SpectralGrid(TWO_PI, 128)
    zero = RealField(grid, np.zeros(128, dtype=np.complex128))
    profile = weighted_resolvent_form(zero, 8.0, -0.25)
    assert profile.value == 0.0
    assert profile.rule.tail_coeff == 0.0


def test_weighted_form_perturbative_closed_form():
    # integral of tau^(-1/2)/(xi_0 + tau) has an elementary antiderivative
    grid = SpectralGrid(1.0, 128)
    eps = 1e-3
    u = forward_transform(2.0 * eps * np.cos(TWO_PI * grid.nodes), grid)
    profile = weighted_resolvent_form(u, 32.0, -0.25)
    closed = eps ** 2 * (2.0 / np.sqrt(TWO_PI)) * (
        np.pi / 2.0 - np.arctan(np.sqrt(32.0 / TWO_PI)))
    assert abs(profile.value - closed) < 1e-8


def test_weighted_form_against_adaptive_quadrature():
    # same spectral data, independent integrator: geometric segments plus
    # the 1/tau tail model far out
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    s, kappa = -0.35, 8.0
    profile = weighted_resolvent_form(u, kappa, s, xi_max=31.0, rtol=1e-10)
    spectrum = LaxSpectrum(build_lax(u, 31.0), u)

    def integrand(tau):
        return tau ** (2.0 * s) * spectrum.form_at(np.array([tau]))[0]

    edges = [kappa * 4.0 ** j for j in range(10)]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        part, _ = scipy.integrate.quad(integrand, a, b, epsrel=1e-12,
                                       limit=200)
        total += part
    horizon = edges[-1]
    total += (spectrum.form_at(np.array([horizon]))[0]
              * horizon ** (2.0 * s + 1.0) / (2.0 * abs(s)))
    assert profile.value == pytest.approx(total, rel=1e-8)


def test_weighted_form_monotone_in_kappa():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    values = [weighted_resolvent_form(u, k, -0.35).value
              for k in (8.0, 16.0, 32.0)]
    assert values[0] > values[1] > values[2]


def test_weighted_form_stable_under_deeper_truncation():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=1.0)
    v16 = weighted_resolvent_form(u, 8.0, -0.35, xi_max=16.0).value
    v31 = weighted_resolvent_form(u, 8.0, -0.35, xi_max=31.0).value
    assert abs(v16 - v31) < 1e-9 * v31


def test_weighted_form_validation():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    with pytest.raises(ContractError):
        weighted_resolvent_form(u, 0.5, -0.25)
    with pytest.raises(ContractError):
        weighted_resolvent_form(u, 8.0, -0.6)
    with pytest.raises(ContractError):
        weighted_resolvent_form(u, 8.0, 0.1)
    rule = weighted_resolvent_form(u, 8.0, -0.25).rule
    with pytest.raises(ContractError):
        weighted_resolvent_form(u, 16.0, -0.25, rule=rule)
    with pytest.raises(KappaTooSmallError):
        weighted_resolvent_form(constant_field(grid, -2.0), 1.0, -0.25)


# ------------------------------------------------------------- derivatives

def test_gradient_matches_finite_differences():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    gradient = resolvent_form_gradient(u, 32.0)
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(20):
        shape = random_field(grid, -0.25, 1.0, int(rng.integers(10 ** 6)),
                             decay=0.2)
        v = shape.samples() / shape.sup_norm()
        plus = forward_transform(u.samples() + h * v, grid)
        minus = forward_transform(u.samples() - h * v, grid)
        fd = (resolvent_form(plus, 32.0) - resolvent_form(minus, 32.0)) / (2 * h)
        pairing = float(np.sum(gradient.samples() * v)) * grid.spacing
        assert abs(fd - pairing) < 1e-6


def test_flow_derivative_structure():
    grid = SpectralGrid(TWO_PI, 128)
    zero = RealField(grid, np.zeros(128, dtype=np.complex128))
    flow = form_flow_derivative(zero, 8.0, 1.0, -0.25)
    assert flow.total == 0.0 and flow.I1 == 0.0 and flow.I3 == 0.0
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    flow = form_flow_derivative(u, 8.0, 1.0, -0.25)
    assert flow.I2 == flow.I1.conjugate()
    assert flow.total == pytest.approx(2.0 * flow.I1.real + flow.I3, abs=0.0)


def test_flow_derivative_matches_finite_differences():
    # evolve the actual equation and difference the weighted form in time
    grid = SpectralGrid(TWO_PI, 256)
    u0 = random_field(grid, -0.25, 0.25, 9, decay=0.25)
    xi_max = modes_to_xi_max(grid, 64)
    kappa, s, depth, h = 32.0, -0.25, 0.5, 1e-3
    problem = make_ilw(depth, grid)
    states = {t: evolve(problem, u0, t, dt=1e-4, store_stride=10 ** 9).final()
              for t in (0.25 - h, 0.25, 0.25 + h)}
    mid = states[0.25]
    spectrum = LaxSpectrum(build_lax(mid, xi_max), mid)
    rule = build_weighted_rule(spectrum.form_at, kappa, s, rtol=1e-10)

    def beta(state):
        return weighted_resolvent_form(state, kappa, s, xi_max=xi_max,
                                       rule=rule).value

    fd = (beta(states[0.25 + h]) - beta(states[0.25 - h])) / (2.0 * h)
    flow = form_flow_derivative(mid, kappa, depth, s, xi_max=xi_max, rule=rule)
    assert abs(fd - flow.total) < 2e-4 * abs(flow.total)


def test_weighted_form_conserved_by_deep_water_flow():
    grid = SpectralGrid(TWO_PI, 256)
    u0 = random_field(grid, -0.25, 0.25, 9, decay=0.25)
    xi_max = modes_to_xi_max(grid, 64)
    kappa, s, h = 32.0, -0.25, 1e-3
    problem = make_bo(grid)
    states = {t: evolve(problem, u0, t, dt=1e-4, store_stride=10 ** 9).final()
              for t in (0.25 - h, 0.25, 0.25 + h)}
    mid = states[0.25]
    spectrum = LaxSpectrum(build_lax(mid, xi_max), mid)
    rule = build_weighted_rule(spectrum.form_at, kappa, s, rtol=1e-10)

    def beta(state):
        return weighted_resolvent_form(state, kappa, s, xi_max=xi_max,
                                       rule=rule).value

    fd = (beta(states[0.25 + h]) - beta(states[0.25 - h])) / (2.0 * h)
    assert abs(fd) < 1e-7 * beta(mid)


# ------------------------------------------------------------- experiments

def test_gronwall_experiment_reports():
    grid = SpectralGrid(TWO_PI, 128)
    u0 = random_field(grid, -0.25, 0.3, 5, decay=0.3)
    report = gronwall_experiment(u0, 1.0, -0.25, 32.0, t_final=0.2, dt=1e-3,
                                 n_samples=10)
    assert report.bound_ok
    assert report.kappa_margin > 0.0
    assert report.a_hat < 1e-3
    assert report.a_reference == pytest.approx(2.0, rel=1e-14)
    d = report.to_dict()
    assert d["equation"] == "ilw" and d["bound_ok"]

    control = gronwall_experiment(u0, None, -0.25, 32.0, t_final=0.2, dt=1e-3,
                                  n_samples=10, equation="bo")
    # the deep-water flow conserves the form: only integrator noise remains
    assert control.a_hat < 1e-6
    assert control.a_hat < report.a_hat


def test_gronwall_experiment_matches_public_functions():
    # the same trajectory through check_kappa and weighted_resolvent_form,
    # on a rule frozen at u0, gives exactly the experiment's numbers
    grid = SpectralGrid(TWO_PI, 128)
    u0 = random_field(grid, -0.25, 0.3, 5, decay=0.3)
    s, kappa = -0.25, 32.0
    report = gronwall_experiment(u0, 1.0, s, kappa, t_final=0.2, dt=1e-3,
                                 n_samples=10)
    states = evolve(make_ilw(1.0, grid), u0, 0.2, dt=1e-3,
                    store_stride=20).states
    rule = weighted_resolvent_form(u0, kappa, s).rule
    values = [weighted_resolvent_form(state, kappa, s, rule=rule).value
              for state in states]
    margin = min(kappa - check_kappa(state, s, kappa).threshold
                 for state in states)
    assert len(states) == len(report.times) == 11
    assert report.form_values.tolist() == values
    assert report.kappa_margin == margin


def test_one_eigendecomposition_per_state(tmp_path, monkeypatch):
    calls = []
    eigh = scipy.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    grid = SpectralGrid(TWO_PI, 128)
    u0 = random_field(grid, -0.25, 0.3, 5, decay=0.3)
    report = gronwall_experiment(u0, 1.0, -0.25, 32.0, t_final=0.05, dt=1e-3,
                                 n_samples=5)
    assert len(report.times) == 6
    assert len(calls) == 6
    calls.clear()
    run(load_config("beta", overrides={"n": 128},
                    output_dir=str(tmp_path / "beta")))
    assert calls == [(32, 32)]


def test_gronwall_experiment_validation():
    grid = SpectralGrid(TWO_PI, 128)
    u0 = random_field(grid, -0.25, 0.3, 5, decay=0.3)
    with pytest.raises(ContractError):
        gronwall_experiment(u0, None, -0.25, 32.0, t_final=0.1, dt=1e-3)
    with pytest.raises(ContractError):
        gronwall_experiment(u0, 1.0, -0.25, 32.0, equation="kdv")


@pytest.mark.filterwarnings("ignore:advisory CFL")
def test_gronwall_experiment_rejects_inadmissible_shift():
    grid = SpectralGrid(TWO_PI, 128)
    big = random_field(grid, -0.25, 5.0, 3, decay=0.3)
    assert not check_kappa(big, -0.25, 2.0).ok
    with pytest.raises(NumericalError):
        gronwall_experiment(big, 1.0, -0.25, 2.0, t_final=0.01, dt=1e-3,
                            n_samples=2)


def test_apriori_bound():
    grid = SpectralGrid(TWO_PI, 128)
    u0 = random_field(grid, -0.25, 0.3, 5, decay=0.3)
    bound = apriori_bound(u0, -0.25, 1.0, 0.2, 1.6, 1e-3, dt=1e-3)
    assert bound.ok
    # at s = -1/4 the bracket exponent 2|s|/(1 - 2|s|) is exactly one
    from ilw_lab import SobolevIndex, sobolev_norm
    n0 = sobolev_norm(u0, SobolevIndex(-0.25, 1.0))
    growth = np.exp(1e-3 * 0.2)
    expected = 1.6 ** 1.25 * growth * (1.0 + 2.0 * 1.6 * growth * n0) * n0
    assert bound.rhs == pytest.approx(expected, rel=1e-12)
    for seed in range(20):
        z0 = random_field(grid, -0.25, 0.3, seed, decay=0.3)
        assert apriori_bound(z0, -0.25, 1.0, 0.2, 1.6, 1e-3, dt=1e-3).ok
