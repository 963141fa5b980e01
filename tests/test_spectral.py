"""Grids, transforms, weighted norms, the Hardy data, multipliers."""

import numpy as np
import pytest

from ilw_lab import (
    ContractError,
    RealField,
    SobolevIndex,
    SpectralGrid,
    forward_transform,
    multiplier_apply,
    sobolev_norms,
)
from ilw_lab.lax import ResolventState
from ilw_lab.spectral import MAX_POINTS
from oracles import hardy_norm


def random_real_field(grid, rng, amplitude=1.0, rolloff=1.5, nyquist=False):
    half = grid.n_points // 2
    coeffs = np.zeros(half + 1, dtype=np.complex128)
    mags = amplitude * (1.0 + np.abs(grid.frequencies[1:half])) ** (-rolloff)
    phases = rng.uniform(0.0, 2.0 * np.pi, half - 1)
    coeffs[1:half] = mags * np.exp(1j * phases)
    coeffs[0] = amplitude * rng.standard_normal()
    if nyquist:
        coeffs[half] = amplitude * rng.standard_normal()
    return RealField(grid, coeffs)


def naive_dft(samples, grid):
    # quadrature definition of the coefficients, O(N^2), the transform oracle
    x = grid.nodes
    out = np.empty(grid.frequencies.shape[0], dtype=np.complex128)
    for i, xi in enumerate(grid.frequencies):
        out[i] = np.sum(samples * np.exp(-1j * xi * x)) * grid.spacing
    return out


# ---------------------------------------------------------------- grid basics

def test_grid_validation():
    with pytest.raises(ContractError):
        SpectralGrid(1.0, 7)
    with pytest.raises(ContractError):
        SpectralGrid(1.0, 4)
    with pytest.raises(ContractError):
        SpectralGrid(0.0, 16)
    with pytest.raises(ContractError):
        SpectralGrid(-2.0, 16)
    # an infinite period would leave a lattice with fundamental 0
    for length in (float("inf"), float("nan")):
        with pytest.raises(ContractError,
                           match="^grid length must be positive and finite$"):
            SpectralGrid(length, 8)
    # a spacing that underflows to 0, or is subnormal, leaves no lattice
    for length in (5e-324, 1e-310):
        with pytest.raises(ContractError, match="not a positive normal float"):
            SpectralGrid(length, 8)
    # the size limit admits every size the commands run at, and a grid is
    # checked before anything of its size is allocated
    assert MAX_POINTS >= 4096
    assert SpectralGrid(1.0, MAX_POINTS).n_points == MAX_POINTS
    for n_points in (MAX_POINTS + 2, 2_000_000_000_000, 2 ** 62):
        with pytest.raises(ContractError, match="exceeds the limit of %d"
                           % MAX_POINTS):
            SpectralGrid(1.0, n_points)


def test_unit_grid_lattice_is_2pi_integers():
    grid = SpectralGrid(1.0, 16)
    k = np.fft.rfftfreq(16, d=1.0 / 16)
    assert np.allclose(grid.frequencies, 2.0 * np.pi * k, rtol=0, atol=0)
    assert grid.fundamental == pytest.approx(2.0 * np.pi, rel=1e-15)
    # every slot stands for a pair +-xi except zero and the Nyquist slot
    half = 8
    assert grid.nyquist_index == half
    assert grid.multiplicity.tolist() == [1.0] + [2.0] * 7 + [1.0]
    assert grid.multiplicity.sum() == grid.n_points


def test_hermitian_symmetry_enforced():
    grid = SpectralGrid(1.0, 16)
    for slot in (0, 8):  # the self-conjugate slots must be real
        coeffs = np.zeros(9, dtype=np.complex128)
        coeffs[slot] = 1.0 + 1.0j
        with pytest.raises(ContractError):
            RealField(grid, coeffs)
    with pytest.raises(ContractError):
        RealField(grid, np.full(9, np.nan, dtype=np.complex128))


# ----------------------------------------------------------------- transform

def test_forward_constant_and_single_harmonic():
    grid = SpectralGrid(1.0, 32)
    f = forward_transform(np.ones(32), grid)
    assert f.coeffs[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(f.coeffs[1:])) < 1e-15

    g = forward_transform(2.0 * np.cos(2.0 * np.pi * grid.nodes), grid)
    i_plus = np.argmin(np.abs(grid.frequencies - 2.0 * np.pi))
    assert g.coeffs[i_plus] == pytest.approx(1.0, abs=1e-14)
    rest = np.delete(np.abs(g.coeffs), [i_plus])
    assert np.max(rest) < 1e-14


def test_forward_matches_quadrature_definition():
    grid = SpectralGrid(3.0, 32)
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(32)
    f = forward_transform(samples, grid)
    oracle = naive_dft(samples, grid)
    assert np.max(np.abs(f.coeffs - oracle)) < 1e-12 * np.max(np.abs(oracle))


def test_round_trip_identity():
    rng = np.random.default_rng(11)
    for length in (1.0, 100.0):
        grid = SpectralGrid(length, 64)
        for _ in range(20):
            f = random_real_field(grid, rng, nyquist=True)
            samples = f.samples()
            back = forward_transform(samples, grid)
            scale = np.max(np.abs(f.coeffs))
            assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * scale


def test_forward_validation():
    grid = SpectralGrid(1.0, 16)
    with pytest.raises(ContractError):
        forward_transform(np.ones(15), grid)
    with pytest.raises(ContractError):
        forward_transform(np.ones(16, dtype=complex), grid)
    bad = np.ones(16)
    bad[3] = np.inf
    with pytest.raises(ContractError):
        forward_transform(bad, grid)


def test_synthesize_is_fourier_series():
    # a resolvent state's one-sided coefficients, synthesized on the grid
    grid = SpectralGrid(2.0, 16)
    coeffs = np.zeros(3, dtype=np.complex128)
    coeffs[2] = 1.5 - 0.5j
    vals = ResolventState(grid, coeffs, 0).samples
    xi = grid.frequencies[2]
    expected = coeffs[2] * np.exp(1j * xi * grid.nodes) / grid.length
    assert np.max(np.abs(vals - expected)) < 1e-14


# ------------------------------------------------------------------- norms

def test_sobolev_norm_examples():
    grid = SpectralGrid(1.0, 32)
    zero = RealField(grid, np.zeros(17, dtype=np.complex128))
    assert sobolev_norms(grid, zero.coeffs, SobolevIndex(-0.25, 2.0)) == 0.0

    f = forward_transform(2.0 * np.cos(2.0 * np.pi * grid.nodes), grid)
    # two unit coefficients, weight 1 at s = 0: norm sqrt(2) by Plancherel
    assert sobolev_norms(grid, f.coeffs, SobolevIndex(0.0, 1.0)) \
        == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_sobolev_index_validation():
    with pytest.raises(ContractError):
        SobolevIndex(-0.25, 0.5)
    with pytest.raises(ContractError):
        SobolevIndex(np.nan, 1.0)
    # the bracket squares kappa: a kappa whose square overflows is refused
    for kappa in (1e155, 1e200, 1e308):
        with pytest.raises(ContractError):
            SobolevIndex(-0.25, kappa)
    top = SobolevIndex(-0.25, 1e154)
    assert np.isfinite(top.bracket(np.array([0.0, 1e6]))).all()


def test_plancherel_both_period_scales():
    rng = np.random.default_rng(3)
    for length in (1.0, 100.0):
        grid = SpectralGrid(length, 128)
        f = random_real_field(grid, rng)
        phys = np.sqrt(np.sum(f.samples() ** 2) * grid.spacing)
        spec = sobolev_norms(grid, f.coeffs, SobolevIndex(0.0, 1.0))
        assert abs(phys - spec) < 1e-12 * spec
        assert abs(f.l2_norm() - spec) < 1e-12 * spec


def test_plain_norm_bounded_by_shifted_norm():
    # for s < 0: |f|_{H^s} <= kappa^{-s} |f|_{H^s_kappa}
    grid = SpectralGrid(1.0, 64)
    rng = np.random.default_rng(5)
    s = -0.25
    for _ in range(1000):
        f = random_real_field(grid, rng, amplitude=rng.uniform(0.1, 3.0))
        kappa = rng.uniform(1.0, 50.0)
        plain = sobolev_norms(grid, f.coeffs, SobolevIndex(s, 1.0))
        shifted = sobolev_norms(grid, f.coeffs, SobolevIndex(s, kappa))
        assert plain <= kappa ** (-s) * shifted * (1.0 + 1e-12)


def test_norm_nonincreasing_in_kappa():
    grid = SpectralGrid(1.0, 64)
    rng = np.random.default_rng(9)
    for _ in range(50):
        f = random_real_field(grid, rng)
        norms = [sobolev_norms(grid, f.coeffs, SobolevIndex(-0.25, k))
                 for k in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)]
        assert all(a >= b * (1.0 - 1e-12) for a, b in zip(norms, norms[1:]))


# ------------------------------------------------------------------- Hardy

def test_hardy_keeps_nonnegative_modes():
    grid = SpectralGrid(1.0, 32)
    f = forward_transform(2.0 * np.cos(2.0 * np.pi * grid.nodes), grid)
    plus = f.coeffs[: grid.n_points // 2]
    hit = np.flatnonzero(np.abs(plus) > 1e-13)
    assert hit.tolist() == [1]
    assert plus[1] == pytest.approx(1.0, abs=1e-14)

    const = forward_transform(np.ones(32), grid)
    assert const.coeffs[0] == pytest.approx(1.0, abs=1e-15)


def test_hardy_parseval_split():
    grid = SpectralGrid(1.0, 64)
    rng = np.random.default_rng(13)
    for _ in range(50):
        f = random_real_field(grid, rng, nyquist=True)
        plus = f.coeffs[: grid.n_points // 2]
        # the full lattice, by the independent route of a complex FFT
        full = np.abs(np.fft.fft(f.samples()) * grid.spacing) ** 2
        plus_sq = np.sum(np.abs(plus) ** 2)
        minus_sq = np.sum(full) - plus_sq  # complement, zero mode excluded
        total = plus_sq + minus_sq
        assert abs(total - np.sum(full)) < 1e-12 * np.sum(full)
        l2_sq = f.l2_norm() ** 2 * grid.length
        assert abs(total - l2_sq) < 1e-11 * l2_sq


def test_hardy_idempotent_and_contractive():
    grid = SpectralGrid(1.0, 64)
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = random_real_field(grid, rng, nyquist=True)
        plus = f.coeffs[: grid.n_points // 2]
        # a real field's half spectrum is its one-sided data plus Nyquist
        embedded = RealField(grid, np.append(plus, 0.0))
        again = embedded.coeffs[: grid.n_points // 2]
        assert np.max(np.abs(again - plus)) == 0.0
        for s, kappa in ((-0.25, 1.0), (-0.4, 8.0), (0.0, 2.0)):
            idx = SobolevIndex(s, kappa)
            proj = hardy_norm(plus, grid.frequencies[: grid.n_points // 2],
                              grid.length, idx)
            assert proj <= sobolev_norms(grid, f.coeffs, idx) * (1.0 + 1e-12)


# --------------------------------------------------------------- multipliers

def test_multiplier_identity_and_derivative():
    grid = SpectralGrid(1.0, 64)
    rng = np.random.default_rng(19)
    f = random_real_field(grid, rng)
    same = multiplier_apply(f, lambda xi: np.ones_like(xi) + 0j)
    assert np.max(np.abs(same.coeffs - f.coeffs)) == 0.0

    g = forward_transform(np.sin(2.0 * np.pi * grid.nodes), grid)
    dg = multiplier_apply(g, lambda xi: 1j * xi)
    target = 2.0 * np.pi * np.cos(2.0 * np.pi * grid.nodes)
    assert np.max(np.abs(dg.samples() - target)) < 1e-11


def test_hilbert_squared_is_minus_identity_on_mean_zero():
    grid = SpectralGrid(1.0, 64)
    rng = np.random.default_rng(23)
    sgn = lambda xi: -1j * np.sign(xi)
    for _ in range(20):
        f = random_real_field(grid, rng)
        coeffs = f.coeffs.copy()
        coeffs[0] = 0.0
        f0 = RealField(grid, coeffs)
        twice = multiplier_apply(multiplier_apply(f0, sgn), sgn)
        scale = np.max(np.abs(f0.coeffs))
        assert np.max(np.abs(twice.coeffs + f0.coeffs)) < 1e-14 * scale


def test_odd_symbol_zeroes_nyquist():
    grid = SpectralGrid(1.0, 16)
    rng = np.random.default_rng(29)
    f = random_real_field(grid, rng, nyquist=True)
    out = multiplier_apply(f, lambda xi: -1j * np.sign(xi))
    assert out.coeffs[grid.nyquist_index] == 0.0


# ------------------------------------------------------ translation, embedding

def test_shift_translates_samples():
    grid = SpectralGrid(1.0, 64)
    rng = np.random.default_rng(31)
    f = random_real_field(grid, rng)
    h = 11.0 * grid.spacing  # lattice shift: compare against a roll
    rolled = np.roll(f.samples(), 11)
    assert np.max(np.abs(f.shifted(h).samples() - rolled)) < 1e-12

    g = f.shifted(0.377).shifted(-0.377)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-13 * np.max(np.abs(f.coeffs))


def test_shift_keeps_nyquist_real():
    grid = SpectralGrid(1.0, 16)
    coeffs = np.zeros(9, dtype=np.complex128)
    coeffs[8] = 2.0  # pure Nyquist cosine
    f = RealField(grid, coeffs)
    out = f.shifted(0.21)
    xi_n = grid.frequencies[8]
    assert out.coeffs[8] == pytest.approx(2.0 * np.cos(xi_n * 0.21), rel=1e-14)
    assert abs(out.coeffs[8].imag) == 0.0


def test_embedding_preserves_values_and_mass():
    grid = SpectralGrid(1.0, 32)
    rng = np.random.default_rng(37)
    f = random_real_field(grid, rng, nyquist=True)
    fine = f.embedded(128)
    coarse_vals = f.samples()
    fine_vals = fine.samples()[::4]  # common nodes
    assert np.max(np.abs(fine_vals - coarse_vals)) < 1e-12
    # the L2 norm is exactly preserved once no energy sits in the unpaired
    # slot (the half-and-half split re-weights that one mode)
    g = random_real_field(grid, rng, nyquist=False)
    assert g.embedded(128).l2_norm() == pytest.approx(g.l2_norm(), rel=1e-13)
    with pytest.raises(ContractError):
        f.embedded(16)
    with pytest.raises(ContractError):
        f.embedded(33)
