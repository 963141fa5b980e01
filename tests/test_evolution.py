"""Problem assembly, time stepping, conserved quantities, Galilean boosts."""

import numpy as np
import pytest

from ilw_lab import (
    MAX_STEPS,
    BlowUpError,
    ContractError,
    EvolutionProblem,
    RealField,
    SpectralGrid,
    evolve,
    forward_transform,
    galilean,
    hamiltonian,
    make_bo,
    make_bo_two_speed,
    make_ilw,
    etdrk4_samples,
    make_two_depth,
    mass,
    random_field,
    relative_drift,
    rhs,
    step_count,
)
from ilw_lab import evolution
from ilw_lab.spectral import MAX_POINTS
from ilw_lab.symbols import (
    coth_dx2_symbol,
    depth_dispersion_dx_symbol,
    hilbert_dx2_symbol,
    smoothing_symbol,
)
from ilw_lab.waves import periodic_profile, periodic_speed
from oracles import depth_dispersion_dx2_symbol

TWO_PI = 2.0 * np.pi


def zero_field(grid):
    return RealField(grid, np.zeros(grid.n_points // 2 + 1, dtype=np.complex128))


def hamiltonian_bo(state):
    """The deep-water energy: ``hamiltonian`` on the symbol |xi|."""
    return hamiltonian(state, np.abs(state.grid.frequencies))


def hamiltonian_ilw(state, depth):
    """The finite-depth energy: ``hamiltonian`` on the symbol
    xi*coth(depth*xi) - 1/depth."""
    return hamiltonian(state, depth_dispersion_dx_symbol(state.grid.frequencies,
                                                         depth))


def full_spectrum(u):
    # independent full-lattice route: the complex FFT of the samples, with
    # its frequencies in FFT order
    grid = u.grid
    xi = TWO_PI * np.fft.fftfreq(grid.n_points, d=grid.spacing)
    return xi, np.fft.fft(u.samples()) * grid.spacing


# ------------------------------------------------------------ problem assembly

def test_symbols_vanish_at_zero_mode():
    grid = SpectralGrid(1.0, 64)
    for problem in (make_ilw(1.0, grid), make_bo(grid),
                    make_two_depth(1.0, 1.0, 1.0, 2.0, grid)):
        assert problem.linear_symbol[0] == 0.0
        assert problem.linear_symbol[grid.nyquist_index] == 0.0


def test_deep_water_symbol_limit():
    # after removing the transport term (the change of frame the two-depth
    # construction applies), the depth-50 symbol is the deep-water one to
    # 1e-10 over the whole lattice
    grid = SpectralGrid(1.0, 256)
    renorm = make_two_depth(1.0, 0.0, 50.0, 50.0, grid, frame="renormalized")
    bo = make_bo(grid)
    gap = np.max(np.abs(renorm.linear_symbol - bo.linear_symbol))
    assert gap < 1e-10

    # the full finite-depth symbol differs from deep water by exactly that
    # transport term
    ilw = make_ilw(50.0, grid)
    xi = grid.frequencies.copy()
    xi[grid.nyquist_index] = 0.0
    residue = ilw.linear_symbol - (bo.linear_symbol - 1j * xi / 50.0)
    scale = np.max(np.abs(ilw.linear_symbol))
    assert np.max(np.abs(residue)) < 1e-14 * scale


def test_two_depth_degenerate_reduction():
    grid = SpectralGrid(1.0, 128)
    problem = make_two_depth(0.7, 0.0, 2.0, 5.0, grid)
    single = 0.7 * coth_dx2_symbol(grid.frequencies, 2.0)
    single[grid.nyquist_index] = 0.0
    assert np.max(np.abs(problem.linear_symbol - single)) == 0.0
    # the dormant depth2 leaves no trace
    other = make_two_depth(0.7, 0.0, 2.0, 11.0, grid)
    assert np.array_equal(problem.linear_symbol, other.linear_symbol)


def test_two_depth_frames_differ_by_drift():
    grid = SpectralGrid(1.0, 128)
    ren = make_two_depth(1.0, 0.5, 1.0, 3.0, grid, frame="renormalized")
    orig = make_two_depth(1.0, 0.5, 1.0, 3.0, grid, frame="original")
    gamma = 1.0 / 1.0 + 0.5 / 3.0
    xi = grid.frequencies.copy()
    xi[grid.nyquist_index] = 0.0
    gap = orig.linear_symbol - (ren.linear_symbol - 1j * gamma * xi)
    assert np.max(np.abs(gap)) < 1e-12 * np.max(np.abs(orig.linear_symbol))


def test_problem_validation():
    grid = SpectralGrid(1.0, 64)
    with pytest.raises(ContractError):
        make_ilw(-1.0, grid)
    with pytest.raises(ContractError):
        make_two_depth(0.0, 1.0, 1.0, 1.0, grid)
    with pytest.raises(ContractError):
        make_two_depth(1.0, 1.0, 1.0, -2.0, grid)
    with pytest.raises(ContractError):
        make_two_depth(1.0, 1.0, 1.0, 2.0, grid, frame="sideways")
    with pytest.raises(ContractError):
        make_bo_two_speed(-1.0, 1.0, grid)
    with pytest.raises(ContractError):
        EvolutionProblem(grid=grid, linear_symbol=np.ones(33), energy_symbol=None)
    with pytest.raises(ContractError, match="energy symbol"):
        EvolutionProblem(grid=grid, linear_symbol=np.zeros(33, dtype=complex),
                         energy_symbol=np.ones(32))


# ------------------------------------------------------------------ rhs

def test_rhs_zero_state():
    grid = SpectralGrid(1.0, 64)
    problem = make_ilw(1.0, grid)
    out = rhs(problem, zero_field(grid))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_rhs_single_mode_support():
    # quadratic term of one harmonic lives at the 0th and 2nd harmonics only
    grid = SpectralGrid(1.0, 64)
    problem = make_bo(grid)
    eps = 1e-3
    u = forward_transform(2.0 * eps * np.cos(TWO_PI * grid.nodes), grid)
    out = rhs(problem, u)
    nonlinear = out.coeffs - problem.linear_symbol * u.coeffs
    allowed = {0, 2}
    for i in range(33):
        if i not in allowed:
            assert abs(nonlinear[i]) < 1e-18
    # d/dx kills the zero mode too
    assert abs(nonlinear[0]) < 1e-18
    assert abs(nonlinear[2] - 1j * 2.0 * TWO_PI * eps ** 2) < 1e-12 * eps ** 2


def test_rhs_has_zero_mean():
    grid = SpectralGrid(1.0, 64)
    problem = make_ilw(0.5, grid)
    for seed in range(5):
        u = random_field(grid, -0.25, 0.5, seed)
        assert rhs(problem, u).coeffs[0] == 0.0
    with pytest.raises(ContractError):
        rhs(problem, zero_field(SpectralGrid(1.0, 128)))


# ------------------------------------------------------------------ evolve

def test_zero_data_stays_zero():
    grid = SpectralGrid(1.0, 64)
    trajectory = evolve(make_ilw(1.0, grid), zero_field(grid), 0.5, dt=1e-2)
    assert all(s.sup_norm() == 0.0 for s in trajectory.states)


@pytest.mark.filterwarnings("ignore:advisory CFL")
def test_traveling_wave_translates_rigidly():
    # the explicit periodic wave, advanced by the full solver, reproduces
    # its own translation at the closed-form speed
    depth, a = 1.0, 2.0
    grid = SpectralGrid(1.0, 512)
    profile = periodic_profile(a, depth, grid)
    c = periodic_speed(a, depth)
    trajectory = evolve(make_ilw(depth, grid), profile, 1.0, dt=1e-4,
                        n_samples=1)
    target = profile.shifted(c * 1.0)
    gap = (trajectory.final() - target).sup_norm()
    assert gap < 1e-6


def test_spatial_mean_is_conserved():
    grid = SpectralGrid(1.0, 128)
    u0 = random_field(grid, -0.25, 0.4, 12, decay=0.3)
    trajectory = evolve(make_ilw(1.0, grid), u0, 1.0, dt=1e-3)
    means = trajectory.diagnostics["mean"]
    assert np.max(np.abs(means - means[0])) < 1e-12 * max(1.0, abs(means[0]))


def test_blow_up_is_reported():
    grid = SpectralGrid(1.0, 64)
    huge = forward_transform(400.0 * np.cos(TWO_PI * grid.nodes), grid)
    with pytest.raises(BlowUpError) as info:
        with pytest.warns(RuntimeWarning):
            evolve(make_ilw(1.0, grid), huge, 1.0, dt=1e-3)
    assert info.value.time > 0.0


@pytest.mark.parametrize("row", [0, 1])
def test_non_finite_row_blows_up_at_the_first_step(row):
    # the sup bound carries the NaN, so the first step reports it, in
    # either row, with an infinite sup-norm
    grid = SpectralGrid(1.0, 64)
    problem = make_ilw(1.0, grid)
    calm = random_field(grid, -0.25, 0.1, 1, decay=0.3).coeffs
    stack = np.stack([calm, calm])
    stack[row] = np.nan
    samples = etdrk4_samples([problem, problem], stack, 1.0, 1e-3, 100)
    assert next(samples)[0] == 0.0
    with pytest.raises(BlowUpError) as info:
        next(samples)
    assert info.value.time == 1e-3
    assert info.value.sup_norm == np.inf


def test_advisory_cfl_warning_fires():
    grid = SpectralGrid(1.0, 256)
    u0 = random_field(grid, -0.25, 1.0, 3, decay=0.3)
    with pytest.warns(RuntimeWarning, match="advisory CFL"):
        evolve(make_bo(grid), u0, 2e-3, dt=1e-3)


def test_evolve_validation():
    grid = SpectralGrid(1.0, 64)
    problem = make_ilw(1.0, grid)
    u0 = zero_field(grid)
    with pytest.raises(ContractError):
        evolve(problem, u0, -1.0)
    with pytest.raises(ContractError):
        evolve(problem, u0, 1.0, dt=0.0)
    with pytest.raises(ContractError):
        evolve(problem, zero_field(SpectralGrid(1.0, 128)), 1.0)
    with pytest.raises(ContractError, match="limit"):
        evolve(problem, u0, 1e300)


def test_diagnostics_are_evaluated_when_first_read(monkeypatch):
    # a run whose diagnostics are never read evaluates no monitor; the
    # first read evaluates each monitor once per stored state
    calls = []
    monkeypatch.setattr(evolution, "hamiltonian",
                        lambda state, energy: calls.append((state, energy))
                        or hamiltonian(state, energy))
    grid = SpectralGrid(TWO_PI, 64)
    problem = make_ilw(1.0, grid)
    trajectory = evolve(problem, random_field(grid, -0.25, 0.25, 2,
                                              decay=0.25), 0.02, dt=1e-3,
                        n_samples=4)
    assert calls == []
    diagnostics = trajectory.diagnostics
    assert len(calls) == 5
    assert all(a is b for (a, _), b in zip(calls, trajectory.states))
    # each call reads the problem's own energy symbol
    assert all(energy is problem.energy_symbol for _, energy in calls)
    assert sorted(diagnostics) == ["hamiltonian", "l2", "mass", "mean", "sup"]
    assert trajectory.diagnostics is diagnostics and len(calls) == 5
    assert diagnostics["mass"].tolist() == [mass(u) for u in trajectory.states]
    assert diagnostics["hamiltonian"].tolist() == [
        hamiltonian_ilw(u, 1.0) for u in trajectory.states]


def test_step_count_lands_on_t_final_and_is_bounded():
    assert step_count(1.0, 1e-3) == (1000, 1e-3)
    assert step_count(1e-4, 1e-3) == (1, 1e-4)
    n_steps, dt = step_count(0.3, 0.07)
    assert n_steps == 4 and dt == 0.3 / 4
    assert step_count(MAX_STEPS * 1e-3, 1e-3)[0] == MAX_STEPS
    for t_final, dt in ((1e300, 1e-3), (1e300, 1e-10), ((MAX_STEPS + 1) * 1e-3, 1e-3)):
        with pytest.raises(ContractError, match="limit"):
            step_count(t_final, dt)
    for t_final, dt in ((0.0, 1e-3), (np.nan, 1e-3), (1.0, 0.0), (1.0, np.nan)):
        with pytest.raises(ContractError, match="positive"):
            step_count(t_final, dt)


def _samples(problems, stack, t_final, dt, n_samples):
    # copy each yielded stack: the caller owns only what it copies
    return [(t, c.copy()) for t, c in etdrk4_samples(problems, stack, t_final,
                                                     dt, n_samples)]


def test_batched_stepper_matches_single_rows():
    # rows of different size, a zero row and the Nyquist slot set: each row
    # of the batch evolves bit for bit as it does alone
    grid = SpectralGrid(TWO_PI, 64)
    problem = make_ilw(0.7, grid)
    rows = [random_field(grid, -0.25, amp, seed, decay=0.2).coeffs
            for amp, seed in ((0.3, 1), (1.5, 2), (0.05, 3))]
    rows.append(np.zeros(33, dtype=np.complex128))
    rows[0] = rows[0].copy()
    rows[0][-1] = 0.01
    stack = np.stack(rows)
    batched = _samples([problem] * len(rows), stack, 0.05, 1e-3, 7)
    assert [t for t, _ in batched] == [k * 1e-3 for k in (0, 7, 14, 21, 28, 35,
                                                          42, 49, 50)]
    assert all(c.shape == stack.shape for _, c in batched)
    for i, row in enumerate(rows):
        alone = _samples([problem], row[None, :], 0.05, 1e-3, 7)
        assert [t for t, _ in alone] == [t for t, _ in batched]
        for (_, c_alone), (_, c_batch) in zip(alone, batched):
            assert np.array_equal(c_alone[0], c_batch[i])
    # evolve is the one-row case
    trajectory = evolve(problem, RealField(grid, rows[1]), 0.05, dt=1e-3,
                        n_samples=7)
    assert trajectory.times.tolist() == [t for t, _ in batched]
    for state, (_, c_batch) in zip(trajectory.states, batched):
        assert np.array_equal(state.coeffs, c_batch[1])

    # rows under different problems, one of them on two rows, each evolve
    # as they do alone under their own problem
    shallow = make_ilw(0.5, grid)
    problems = [shallow, make_ilw(1.0, grid), make_ilw(2.0, grid),
                make_bo(grid), shallow]
    mixed_rows = rows + [rows[1]]
    mixed = _samples(problems, np.stack(mixed_rows), 0.05, 1e-3, 7)
    assert [t for t, _ in mixed] == [t for t, _ in batched]
    for i, (row_problem, row) in enumerate(zip(problems, mixed_rows)):
        alone = _samples([row_problem], row[None, :], 0.05, 1e-3, 7)
        for (_, c_alone), (_, c_batch) in zip(alone, mixed):
            assert np.array_equal(c_alone[0], c_batch[i])
    assert not np.array_equal(mixed[-1][1][1], mixed[-1][1][4])


def _dealias_mask(grid):
    return np.abs(grid.frequencies) < (2.0 / 3.0) * grid.fundamental \
        * (grid.n_points // 2) - 1e-12


def _masked_quadratic_term(grid, c):
    # the full-width term the band term replaced: the 2/3 rule is a mask
    # applied before the square and after it
    n, length, mask = grid.n_points, grid.length, _dealias_mask(grid)
    u = np.fft.irfft(np.where(mask, c, 0.0), n) * (n / length)
    out = 1j * grid.frequencies * ((length / n) * np.fft.rfft(u * u))
    return np.where(mask, out, 0.0)


def _masked_samples(problems, stack, t_final, dt, stride):
    # the full-width stepper the band stepper replaced: every stage spans
    # the half spectrum
    grid = problems[0].grid
    n_steps, dt = step_count(t_final, dt)
    tables = [np.stack(t) for t in zip(*(
        evolution._etdrk4_tables(p.linear_symbol, dt) for p in problems))]
    exp_full, exp_half, f0, f1, f2, f3 = tables
    c = np.array(stack, dtype=np.complex128)
    samples = [(0.0, c)]
    for step in range(1, n_steps + 1):
        n_a = _masked_quadratic_term(grid, c)
        a = exp_half * c + f0 * n_a
        n_b = _masked_quadratic_term(grid, a)
        b = exp_half * c + f0 * n_b
        n_c = _masked_quadratic_term(grid, b)
        d = exp_half * a + f0 * (2.0 * n_c - n_a)
        n_d = _masked_quadratic_term(grid, d)
        c = exp_full * c + f1 * n_a + 2.0 * f2 * (n_b + n_c) + f3 * n_d
        if step % stride == 0 or step == n_steps:
            samples.append((step * dt, c))
    return samples


def test_band_stepper_matches_the_masked_stepper():
    # 3 depths x 2 seeds for 1,000 steps: stepping the dealiased band in
    # place moves no row by more than 1e-14 of its size in the max norm,
    # and no yielded stack changes after later steps
    grid = SpectralGrid(TWO_PI, 256)
    problems, rows = [], []
    for depth in (0.5, 1.0, 2.0):
        for seed in (1, 2):
            problems.append(make_ilw(depth, grid))
            rows.append(random_field(grid, -0.25, 0.4, seed, decay=0.25).coeffs)
    stack = np.stack(rows)
    yielded, snapshots = [], []
    for t, c in etdrk4_samples(problems, stack, 1.0, 1e-3, 10):
        yielded.append((t, c))
        snapshots.append(c.copy())
    assert all(np.array_equal(c, snapshot)
               for (_, c), snapshot in zip(yielded, snapshots))
    oracle = _masked_samples(problems, stack, 1.0, 1e-3, 100)
    assert [t for t, _ in yielded] == [t for t, _ in oracle]
    assert len(oracle) == 11
    for (_, c), (_, expected) in zip(yielded, oracle):
        gap = np.max(np.abs(c - expected), axis=1)
        assert np.all(gap <= 1e-14 * np.max(np.abs(expected), axis=1))


def test_rhs_matches_the_masked_quadratic_term():
    grid = SpectralGrid(TWO_PI, 256)
    problem = make_ilw(1.0, grid)
    u = random_field(grid, -0.25, 0.4, 3, decay=0.25)
    expected = problem.linear_symbol * u.coeffs \
        + _masked_quadratic_term(grid, u.coeffs)
    got = rhs(problem, u).coeffs
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
    # past the band only the linear part acts, bit for bit
    outside = ~_dealias_mask(grid)
    assert np.all(got[outside]
                  == problem.linear_symbol[outside] * u.coeffs[outside])


def test_batched_stepper_checks_each_row():
    grid = SpectralGrid(1.0, 64)
    problem = make_ilw(1.0, grid)
    calm = random_field(grid, -0.25, 0.1, 1, decay=0.3).coeffs
    huge = forward_transform(400.0 * np.cos(TWO_PI * grid.nodes), grid).coeffs
    # inside a batch with a calm row, the huge row still warns and blows up
    with pytest.raises(BlowUpError) as info:
        with pytest.warns(RuntimeWarning, match="advisory CFL"):
            for _ in etdrk4_samples([problem, problem], np.stack([calm, huge]),
                                    1.0, 1e-3, 100):
                pass
    assert info.value.time > 0.0
    with pytest.raises(ContractError):
        next(etdrk4_samples([problem], calm, 1.0, 1e-3, 100))
    with pytest.raises(ContractError, match="n_samples must be positive"):
        next(etdrk4_samples([problem], np.stack([calm]), 1.0, 1e-3, 0))
    # one problem per row, all on one grid
    pair = np.stack([calm, calm])
    for problems in ([problem], [problem] * 3, []):
        with pytest.raises(ContractError, match="one problem per row"):
            next(etdrk4_samples(problems, pair, 1.0, 1e-3, 100))
    other_grid = make_ilw(1.0, SpectralGrid(2.0, 64))
    with pytest.raises(ContractError, match="different grids"):
        next(etdrk4_samples([problem, other_grid], pair, 1.0, 1e-3, 100))


# ------------------------------------------------------------- conservation

def test_mass_examples():
    grid = SpectralGrid(1.0, 64)
    assert mass(zero_field(grid)) == 0.0
    f = forward_transform(2.0 * np.cos(TWO_PI * grid.nodes), grid)
    assert mass(f) == pytest.approx(1.0, rel=1e-14)


def test_mass_and_energy_drift_tiny_on_short_run():
    grid = SpectralGrid(1.0, 256)
    u0 = random_field(grid, -0.25, 0.25, 7, decay=0.25)
    trajectory = evolve(make_ilw(1.0, grid), u0, 0.1, dt=1e-3, n_samples=10)
    assert relative_drift(trajectory.diagnostics["mass"]) < 1e-9
    assert relative_drift(trajectory.diagnostics["hamiltonian"]) < 1e-9


def test_hamiltonian_decomposition_identity():
    # finite-depth energy equals deep-water energy - mass/depth + smoothing
    # quadratic form, recomputed here from raw coefficients
    grid = SpectralGrid(1.0, 128)
    depth = 0.7
    for seed in range(100):
        u = random_field(grid, -0.25, 0.5, seed, decay=0.05)
        h = hamiltonian_ilw(u, depth)
        xi, coeffs = full_spectrum(u)
        quad_q = float(np.real(np.sum(smoothing_symbol(xi, depth)
                                      * np.abs(coeffs) ** 2))) / grid.length
        expected = hamiltonian_bo(u) - mass(u) / depth + 0.5 * quad_q
        assert abs(h - expected) < 1e-12 * max(1.0, abs(h))
        decomposed = (evolution.quadratic_energy_decomposed(u, depth)
                      + evolution._cubic_integral(u) / 3.0)
        assert abs(decomposed - expected) < 1e-12 * max(1.0, abs(h))


def test_diagnostics_read_without_raising_at_small_depth():
    # the decomposition identity is checked by simulate, not by a monitor:
    # at depth 1e-7, where its gap (6.1e-12) exceeds the tolerance, the
    # diagnostics still read
    grid = SpectralGrid(TWO_PI, 64)
    u0 = random_field(grid, -0.25, 0.25, 1, decay=0.25)
    diagnostics = evolve(make_ilw(1e-7, grid), u0, 1.0).diagnostics
    assert sorted(diagnostics) == ["hamiltonian", "l2", "mass", "mean", "sup"]
    assert all(np.isfinite(values).all() for values in diagnostics.values())


def test_problems_carry_the_energy_symbol_of_their_flow():
    # the finite-depth and deep-water problems carry the symbol of their
    # conserved energy bit for bit, Nyquist slot included, and their linear
    # symbols are i*xi times it, as the dx2 symbols give them; the
    # two-depth problems carry none and record no hamiltonian
    grid = SpectralGrid(TWO_PI, 64)
    xi, nyquist = grid.frequencies, grid.nyquist_index
    for problem, energy, linear in (
            (make_ilw(0.7, grid), depth_dispersion_dx_symbol(xi, 0.7),
             depth_dispersion_dx2_symbol(xi, 0.7)),
            (make_bo(grid), np.abs(xi), hilbert_dx2_symbol(xi))):
        assert problem.energy_symbol.tobytes() == energy.tobytes()
        assert problem.energy_symbol[nyquist] == energy[nyquist] != 0.0
        assert not problem.energy_symbol.flags.writeable
        linear[nyquist] = 0.0
        assert problem.linear_symbol.tobytes() == linear.tobytes()
    u0 = random_field(grid, -0.25, 0.25, 3, decay=0.25)
    for problem in (make_two_depth(1.0, 1.0, 10.0, 20.0, grid),
                    make_two_depth(1.0, 1.0, 10.0, 20.0, grid,
                                   frame="original"),
                    make_bo_two_speed(1.0, 1.0, grid)):
        assert problem.energy_symbol is None
        diagnostics = evolve(problem, u0, 0.01, dt=1e-3).diagnostics
        assert sorted(diagnostics) == ["l2", "mass", "mean", "sup"]


def test_cubic_term_matches_quadrature():
    grid = SpectralGrid(1.0, 128)
    u = random_field(grid, -0.25, 0.5, 21, decay=0.2)
    fine = u.embedded(1024).samples()
    cubic = np.sum(fine ** 3) / 1024.0
    xi, coeffs = full_spectrum(u)
    quad = float(np.real(np.sum(np.abs(xi) * np.abs(coeffs) ** 2)))
    expected = 0.5 * quad + cubic / 3.0
    assert hamiltonian_bo(u) == pytest.approx(expected, rel=1e-12)


def test_hamiltonians_on_the_largest_grid():
    # the cubic term pads the half spectrum to twice the grid, bit for bit
    # as RealField.embedded does, without building a grid of that size
    u = random_field(SpectralGrid(1.0, 128), -0.25, 0.5, 21, decay=0.2)
    fine = u.embedded(256)
    assert evolution._cubic_integral(u) \
        == float(np.sum(fine.samples() ** 3) * fine.grid.spacing)
    u = random_field(SpectralGrid(1.0, MAX_POINTS), -0.25, 0.5, 21, decay=0.2)
    assert np.isfinite(hamiltonian_bo(u))
    assert np.isfinite(hamiltonian_ilw(u, 1.0))


def test_linear_flow_is_l2_isometry(monkeypatch):
    # switch the quadratic term off: the run is the bare unitary propagator
    def no_quadratic_term(problem, band, out, *work):
        out[...] = 0.0
        return out

    monkeypatch.setattr(evolution, "_nonlinear_coeffs", no_quadratic_term)
    grid = SpectralGrid(1.0, 128)
    u0 = random_field(grid, -0.25, 0.5, 4, decay=0.1)
    trajectory = evolve(make_ilw(1.0, grid), u0, 1.0, dt=1e-3)
    assert relative_drift(trajectory.diagnostics["l2"]) < 1e-13


def test_deep_water_gap_shrinks_with_depth():
    grid = SpectralGrid(1.0, 128)
    u0 = random_field(grid, -0.25, 0.3, 15, decay=0.3)
    bo_final = evolve(make_bo(grid), u0, 0.5, dt=1e-3, n_samples=1).final()
    gaps = []
    for depth in (10.0, 20.0, 40.0):
        final = evolve(make_ilw(depth, grid), u0, 0.5, dt=1e-3,
                       n_samples=1).final()
        gaps.append((final - bo_final).l2_norm())
    assert gaps[0] > gaps[1] > gaps[2]


# ------------------------------------------------------------------ Galilean

def test_galilean_identity_and_mean():
    grid = SpectralGrid(1.0, 64)
    u = random_field(grid, -0.25, 0.5, 8, decay=0.1)
    same = galilean(u, 0.0, 0.7)
    assert np.max(np.abs(same.coeffs - u.coeffs)) == 0.0
    boosted = galilean(u, 0.3, 0.7)
    assert boosted.mean() == pytest.approx(u.mean() - 0.3, abs=1e-14)


def test_galilean_boost_maps_solutions_to_solutions():
    grid = SpectralGrid(1.0, 128)
    gamma = 0.2
    u0 = random_field(grid, -0.25, 0.3, 30, decay=0.3)
    problem = make_ilw(1.0, grid)
    t = 0.5
    u_t = evolve(problem, u0, t, dt=1e-3, n_samples=1).final()
    v0 = galilean(u0, gamma, 0.0)
    v_t = evolve(problem, v0, t, dt=1e-3, n_samples=1).final()
    expected = galilean(u_t, gamma, t)
    assert (v_t - expected).sup_norm() < 1e-6
