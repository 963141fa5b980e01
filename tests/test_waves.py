"""Traveling waves: line profiles, periodization, lattice identities,
degeneration diagnostics."""

import numpy as np
import pytest

from ilw_lab import (
    ContractError,
    RealField,
    SpectralGrid,
    evolve,
    forward_transform,
    galilean,
    make_ilw,
)
from ilw_lab import waves as waves_module
from ilw_lab.waves import (
    dirac_tail,
    distance_to_dirac,
    illposed_observables,
    interaction_sum_v,
    lattice_profile,
    periodic_profile,
    periodic_speed,
    periodic_wave_constants,
    traveling_residual,
)
from oracles import (
    WaveParams,
    dirac_norm_sq,
    line_profile,
    line_profile_fourier,
    pair_product_aggregate,
    pair_product_residual,
    traveling_mode_2pi,
    wave_coth_image,
    wave_number_from_speed,
)

TWO_PI = 2.0 * np.pi


# ------------------------------------------------------------- line waves

def test_wave_number_from_speed_examples():
    # y*cot(y) = 1 - c*depth; at c*depth = 1 the right side is 0, y = pi/2
    assert wave_number_from_speed(1.0, 1.0) == pytest.approx(np.pi / 2, rel=1e-13)
    assert wave_number_from_speed(0.5, 2.0) == pytest.approx(np.pi / 4, rel=1e-13)
    # slow waves are wide, fast waves approach the collapse wave number
    a_slow = wave_number_from_speed(1e-6, 1.0)
    assert 0.0 < a_slow < 0.01
    a_fast = wave_number_from_speed(1000.0, 1.0)
    assert 0.0 < np.pi - a_fast < 0.01


def test_wave_number_solves_defining_equation():
    rng = np.random.default_rng(5)
    prev = 0.0
    for c in sorted(rng.uniform(0.05, 50.0, size=20)):
        for depth in (0.5, 1.0, 2.0):
            a = wave_number_from_speed(c, depth)
            y = a * depth
            assert abs(y * np.cos(y) / np.sin(y) - (1.0 - c * depth)) < 1e-12 * (
                1.0 + c * depth)
        a1 = wave_number_from_speed(c, 1.0)
        assert a1 > prev
        prev = a1
    with pytest.raises(ContractError):
        wave_number_from_speed(-1.0, 1.0)
    with pytest.raises(ContractError):
        wave_number_from_speed(1.0, 0.0)


def test_line_profile_shape():
    params = WaveParams.line(1.0, 1.0)
    a, depth = params.a, params.depth
    x = np.linspace(-30.0, 30.0, 4001)
    u = line_profile(x, 0.0, params)
    assert np.all(u < 0.0)
    # trough value -a*sin(a*depth)/(1 + cos(a*depth)) = -a*tan(a*depth/2)
    assert np.min(u) == pytest.approx(-a * np.tan(0.5 * a * depth), rel=1e-12)
    assert u[2000] == np.min(u)
    # exponential tail with rate a
    slope = (np.log(-u[-1]) - np.log(-u[-401])) / (x[-1] - x[-401])
    assert slope == pytest.approx(-a, rel=1e-3)
    # the wave translates at speed c
    moved = line_profile(x, 2.0, params)
    direct = line_profile(x - 2.0 * params.c, 0.0, params)
    assert np.max(np.abs(moved - direct)) < 1e-15


def test_line_fourier_against_quadrature():
    # wrap the profile onto a long periodic box; the collocation transform
    # divided by sqrt(2*pi) is the unitary line transform up to exp(-100*a)
    grid = SpectralGrid(200.0, 2 ** 15)
    for c in (1.0, 10.0):
        params = WaveParams.line(c, 1.0)
        x = grid.nodes.copy()
        x[x > 100.0] -= 200.0
        u = forward_transform(line_profile(x, 0.0, params), grid)
        formula = line_profile_fourier(grid.frequencies, params)
        assert np.max(np.abs(u.coeffs / np.sqrt(TWO_PI) - formula)) < 1e-12


def test_line_fourier_zero_mode_and_fast_limit():
    params = WaveParams.line(1.0, 1.0)
    a, depth = params.a, params.depth
    value = line_profile_fourier(np.array([0.0]), params)[0]
    assert value == pytest.approx(-np.sqrt(TWO_PI) * a * depth / np.pi, rel=1e-14)
    # as c grows the transform flattens to the constant -sqrt(2*pi),
    # the transform of the Dirac limit
    gaps = []
    for c in (10.0, 100.0, 1000.0):
        p = WaveParams.line(c, 1.0)
        gaps.append(abs(line_profile_fourier(np.array([3.0]), p)[0]
                        + np.sqrt(TWO_PI)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


# ------------------------------------------------------- periodized waves

def test_periodization_routes_agree():
    # Fourier coefficients vs direct lattice summation (Poisson summation)
    grid = SpectralGrid(1.0, 256)
    for adelta in (1.0, 2.0, 3.0):
        profile = periodic_profile(adelta, 1.0, grid)
        gap = np.max(np.abs(profile.coeffs
                            - lattice_profile(adelta, 1.0, grid).coeffs))
        assert gap < 1e-10
        assert profile.coeffs[0] == pytest.approx(-2.0 * adelta, rel=1e-14)


def test_periodic_profile_validation():
    grid = SpectralGrid(1.0, 64)
    for route in (periodic_profile, lattice_profile):
        with pytest.raises(ContractError):
            route(np.pi - 1e-4, 1.0, grid)  # too close to collapse
        with pytest.raises(ContractError):
            route(-1.0, 1.0, grid)
        with pytest.raises(ContractError):
            route(1.0, -1.0, grid)
        with pytest.raises(ContractError):
            route(2.0, 1.0, SpectralGrid(2.0, 64))  # unit circle only


def test_periodic_speed_examples():
    # at a*depth = pi/2 both the cotangent and the interaction sum vanish
    assert periodic_speed(np.pi / 2, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert periodic_speed(np.pi / 4, 2.0) == pytest.approx(0.5, rel=1e-13)
    # the speed diverges toward the collapse
    speeds = [periodic_speed(ad, 1.0) for ad in (3.0, 3.1, 3.14)]
    assert speeds[0] < speeds[1] < speeds[2]
    assert speeds[2] > 100.0
    # widely separated translates interact weakly: the correction V fades
    # as a grows at fixed a*depth
    vs = [abs(interaction_sum_v(a, 2.0 / a)) for a in (2.0, 4.0, 8.0)]
    assert vs[0] > vs[1] > vs[2]


def test_periodic_wave_constants():
    k = periodic_wave_constants(2.0, 1.0)
    assert k.V == pytest.approx(interaction_sum_v(2.0, 1.0), rel=1e-14)
    assert k.D > 0.0
    assert k.B == -k.D
    # V changes sign with sin(2*a*depth)
    assert interaction_sum_v(1.0, 1.0) > 0.0  # 2*a*depth < pi
    assert interaction_sum_v(2.0, 1.0) < 0.0  # 2*a*depth > pi


def test_traveling_equation_residual_mesh():
    grid = SpectralGrid(1.0, 2048)
    for adelta in (0.8, 1.5, 2.2, 2.8, 3.05):
        for depth in (0.5, 1.0, 2.0):
            a = adelta / depth
            profile = periodic_profile(a, depth, grid)
            k = periodic_wave_constants(a, depth)
            residual = traveling_residual(profile, periodic_speed(a, depth),
                                          k.B, depth)
            assert residual < 1e-9, (adelta, depth, residual)


def test_traveling_residual_detects_wrong_speed():
    grid = SpectralGrid(1.0, 1024)
    profile = periodic_profile(2.0, 1.0, grid)
    k = periodic_wave_constants(2.0, 1.0)
    c = periodic_speed(2.0, 1.0)
    assert traveling_residual(profile, c + 0.1, k.B, 1.0) >= 0.099 * profile.sup_norm()
    zero = RealField(grid, np.zeros(grid.n_points // 2 + 1, dtype=np.complex128))
    assert traveling_residual(zero, c, 0.0, 1.0) == 0.0


def test_dispersion_image_routes_agree():
    # multiplier route vs lattice summation with its linear counterterm
    grid = SpectralGrid(1.0, 512)
    routes = wave_coth_image(2.0, 1.0, grid)
    gap = np.max(np.abs(routes.multiplier.coeffs - routes.lattice.coeffs))
    assert gap < 1e-10
    # principal-value convention: the image has zero mean
    assert routes.multiplier.coeffs[0] == 0.0
    # the profile is even about x = 0, so its dispersion image is odd
    samples = routes.multiplier.samples()
    assert abs(samples[0]) < 1e-10
    assert np.max(np.abs(samples[1:] + samples[:0:-1])) < 1e-10


# ------------------------------------------------------- product identities

def test_pair_product_identity_pointwise():
    assert pair_product_residual(1.3, 1.1, 0.37, 0, 3) < 1e-13
    assert pair_product_residual(1.3, 1.1, 0.37, 3, 0) == pytest.approx(
        pair_product_residual(1.3, 1.1, 0.37, 0, 3), abs=1e-16)
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.uniform(0.5, 2.5)
        depth = rng.uniform(0.1, 3.0 / a)
        x = rng.uniform(-2.0, 2.0)
        n, m = rng.choice(np.arange(-5, 6), size=2, replace=False)
        assert pair_product_residual(a, depth, x, int(n), int(m)) < 1e-12
    with pytest.raises(ContractError):
        pair_product_residual(1.3, 1.1, 0.37, 2, 2)


def test_pair_product_aggregate_matches_closed_form():
    for x in (0.0, 0.37, -1.4):
        double_sum, closed = pair_product_aggregate(1.3, 1.1, x, 60)
        assert double_sum == pytest.approx(closed, rel=1e-9)
    # the closed form's constant part is the interaction constant D
    double_sum, closed = pair_product_aggregate(2.0, 1.0, 0.2, 60)
    k = periodic_wave_constants(2.0, 1.0)
    ells = np.arange(1, 121)
    denom = np.sinh(0.5 * 2.0 * ells) ** 2 + np.sin(2.0) ** 2
    constant_part = 2.0 * np.sum(ells / np.tanh(0.5 * 2.0 * ells) / denom)
    assert k.D == pytest.approx(4.0 * np.sin(2.0) ** 2 * constant_part,
                                rel=1e-12)


# --------------------------------------------------- degeneration diagnostics

def test_dirac_tail_block_consistency():
    # removing a finite block from the tail leaves the tail further out
    s = -0.6
    k = np.arange(7, 1007, dtype=float)
    block = float(np.sum((1.0 + (TWO_PI * k) ** 2) ** s))
    assert dirac_tail(7, s) - dirac_tail(1007, s) == pytest.approx(block,
                                                                   rel=1e-12)


def test_dirac_tail_absolute_value():
    k = np.arange(1, 20001, dtype=float)
    brute = float(np.sum((1.0 + (TWO_PI * k) ** 2) ** -4.0))
    assert dirac_tail(1, -4.0) == pytest.approx(brute, rel=1e-13)
    assert dirac_norm_sq(-4.0) == pytest.approx(1.0 + 2.0 * brute, rel=1e-13)
    with pytest.raises(ContractError):
        dirac_tail(1, -0.5)
    with pytest.raises(ContractError):
        dirac_tail(0, -1.0)
    for bad_s in (np.nan, -np.inf):
        with pytest.raises(ContractError):
            dirac_tail(1, bad_s)
        with pytest.raises(ContractError):
            dirac_norm_sq(bad_s)


def test_distance_to_dirac():
    grid = SpectralGrid(1.0, 1024)
    s = -0.6
    profiles = [periodic_profile(ad, 1.0, grid) for ad in (2.8, 3.0, 3.1, 3.14)]
    distances = distance_to_dirac(profiles, s)
    assert distances == sorted(distances, reverse=True)
    # each field's distance does not depend on the others of its grid
    assert distances == [distance_to_dirac([profile], s)[0]
                         for profile in profiles]
    # a field whose grid coefficients all equal -2*pi differs from the comb
    # only beyond the grid, which is the pure tail
    truncated = RealField(grid, np.full(grid.n_points // 2 + 1, -TWO_PI,
                                        dtype=np.complex128))
    expected = np.sqrt(TWO_PI ** 2 * 2.0 * dirac_tail(512, s))
    assert distance_to_dirac([truncated], s)[0] == pytest.approx(expected,
                                                                 rel=1e-12)
    for bad_s in (-0.4, np.nan, -np.inf):
        with pytest.raises(ContractError):
            distance_to_dirac([truncated], bad_s)
    # the profiles share one grid, and so one tail
    with pytest.raises(ContractError):
        distance_to_dirac([truncated, periodic_profile(2.8, 1.0,
                                                       SpectralGrid(1.0, 64))], s)


def test_traveling_mode_matches_profile():
    grid = SpectralGrid(1.0, 128)
    for adelta in (1.5, 2.0, 2.9):
        profile = periodic_profile(adelta, 1.0, grid)
        z0 = traveling_mode_2pi(adelta, 1.0, 0.0)
        assert z0 == pytest.approx(complex(profile.coeffs[1]), rel=1e-13)
    # modulus climbs to 2*pi at the collapse
    gaps = [TWO_PI - abs(traveling_mode_2pi(ad, 1.0, 0.0))
            for ad in (2.8, 3.0, 3.1, 3.14)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.05


def _counted_speeds(monkeypatch):
    """The (a, speed) pairs of every ``periodic_speed`` call in ``waves``."""
    calls = []

    def counted(a, depth):
        c = periodic_speed(a, depth)
        calls.append((a, c))
        return c

    monkeypatch.setattr(waves_module, "periodic_speed", counted)
    return calls


def test_mode_phase_rate(monkeypatch):
    speeds = _counted_speeds(monkeypatch)
    for t in (0.3, 1.0):
        speeds.clear()
        rate = illposed_observables(2.0, 1.0, t, 0.5).phase_rate
        assert abs(rate + TWO_PI * t) < 1e-10 * TWO_PI * t
        # the probe reads the speed at a and further out, at a + step
        (a1, c1), (_, c2) = speeds[0], speeds[-1]
        assert a1 == 2.0 and c2 > c1
    with pytest.raises(ContractError):
        illposed_observables(2.0, 1.0, 0.0, 0.5)


def test_illposed_observables_fields():
    obs = illposed_observables(2.0, 1.0, 0.7, 0.5)
    assert obs.wave_mean == pytest.approx(-4.0, rel=1e-14)
    assert obs.speed == pytest.approx(periodic_speed(2.0, 1.0), rel=1e-14)
    # with alpha equal to the wave mean the boost is trivial, and both read
    # the one closed form of the mode
    plain = illposed_observables(2.0, 1.0, 0.7, obs.wave_mean)
    assert plain.mode_2pi == traveling_mode_2pi(2.0, 1.0, 0.7)


def test_mode_phase_rate_sums_three_speeds(monkeypatch):
    # the base speed, the slope probe and the far speed; the boosted mode
    # and both probe modes reuse the base and far speeds
    calls = _counted_speeds(monkeypatch)
    illposed_observables(2.0, 1.0, 0.7, 0.5)
    assert len(calls) == 3


def test_mode_formulas_against_evolution():
    # advance the actual wave with the solver and read off the exp(2*pi*i*x)
    # coefficient, bare and Galilean-boosted
    a, depth, t, alpha = 2.0, 1.0, 0.05, 0.5
    grid = SpectralGrid(1.0, 256)
    profile = periodic_profile(a, depth, grid)
    u_t = evolve(make_ilw(depth, grid), profile, t, dt=2e-5,
                 n_samples=1).final()
    z = traveling_mode_2pi(a, depth, t)
    assert abs(complex(u_t.coeffs[1]) - z) < 1e-10 * abs(z)

    mu = -2.0 * a * depth
    boosted = galilean(u_t, mu - alpha, t)
    obs = illposed_observables(a, depth, t, alpha)
    assert abs(complex(boosted.coeffs[1]) - obs.mode_2pi) < 1e-10 * abs(obs.mode_2pi)
    assert abs(boosted.mean() - alpha) < 1e-12


def test_fast_waves_escape_any_window():
    # pairing with a fixed bump at time 1: faster waves have left the window
    psi_scale = 40.0
    values = []
    for c in (10.0, 20.0, 40.0, 80.0):
        params = WaveParams.line(c, 1.0)
        x = np.linspace(-400.0, 600.0, 1_000_001)
        psi = np.exp(-((x / psi_scale) ** 2))
        values.append(abs(np.trapezoid(line_profile(x, 1.0, params) * psi, x)))
    assert values[0] > values[1] > values[2] > values[3]
    assert values[3] < 0.05 * values[0]
