"""Dispersive symbols, the depth-smoothing operator, and its norm scan."""

import decimal

import numpy as np
import pytest

from ilw_lab import (
    ContractError,
    SobolevIndex,
    SpectralGrid,
    apply_smoothing_dx,
    forward_transform,
    smoothing_operator_scan,
    smoothing_symbol,
    sobolev_norms,
)
from ilw_lab.symbols import (
    _coth_minus_inverse,
    coth_dx_symbol,
    depth_dispersion_dx_symbol,
)
from oracles import coth_symbol, depth_dispersion_dx2_symbol, hilbert_symbol


TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------- raw symbols

def test_hilbert_symbol_signs():
    vals = hilbert_symbol(np.array([0.0, TWO_PI, -TWO_PI]))
    assert vals[0] == 0.0
    assert vals[1] == -1j
    assert vals[2] == 1j


def test_depth_dispersion_symbol_values():
    # the finite-depth multiplier coth(depth*xi) - 1/(depth*xi), the symbol
    # -i times it, through its one evaluation
    assert _coth_minus_inverse(np.array([0.0]), 1.0)[0] == 0.0
    # printed reference value at depth 1, xi 1
    v = _coth_minus_inverse(np.array([1.0]), 1.0)[0]
    assert v == pytest.approx(1.0 / np.tanh(1.0) - 1.0, rel=1e-14)
    assert abs(v - 0.3130) < 5e-5
    # deep-water limit: the gap to the Hilbert multiplier is the
    # 1/(depth*xi) transport part, so it closes like 1/depth
    gaps = [abs(_coth_minus_inverse(np.array([3.0]), d)[0] - 1.0)
            for d in (50.0, 500.0, 5e3, 1e13)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] == pytest.approx(1.0 / 150.0, rel=1e-10)
    assert gaps[-1] < 1e-12
    # small-argument branch agrees with the direct formula just above the cut
    lo = _coth_minus_inverse(np.array([0.009, 0.011]), 1.0)
    direct = 1.0 / np.tanh(0.011) - 1.0 / 0.011
    assert lo[1] == pytest.approx(direct, rel=1e-12)
    assert abs(lo[0] / 0.009 - lo[1] / 0.011) < 1e-3


def test_depth_multiplier_holds_at_every_depth():
    # xi*(coth(depth*xi) - 1/(depth*xi)) against 60-digit decimal
    # arithmetic; subtracting 1/depth from xi*coth(depth*xi) in floats
    # loses every digit at depth 1e-8
    xi = np.arange(1.0, 129.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for depth in (1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0):
            want = []
            for k in range(1, 129):
                y = decimal.Decimal(depth) * k
                e = (2 * y).exp()
                want.append(float(k * ((e + 1) / (e - 1) - 1 / y)))
            got = depth_dispersion_dx_symbol(xi, depth)
            assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want)), depth


def test_symbols_reject_bad_depth():
    for bad in (0.0, -1.0, np.inf):
        with pytest.raises(ContractError):
            smoothing_symbol(np.array([1.0]), bad)
        with pytest.raises(ContractError):
            _coth_minus_inverse(np.array([1.0]), bad)
        with pytest.raises(ContractError):
            coth_symbol(np.array([1.0]), bad)


def test_smoothing_symbol_values_and_decay():
    assert smoothing_symbol(np.array([0.0]), 1.0)[0] == 1.0
    assert smoothing_symbol(np.array([0.0]), 4.0)[0] == 0.25
    v = smoothing_symbol(np.array([1.0]), 1.0)[0]
    assert v == pytest.approx(2.0 / (np.e ** 2 - 1.0), rel=1e-14)
    assert abs(v - 0.31304) < 5e-6

    xi = np.linspace(-80.0, 80.0, 4001)
    vals = smoothing_symbol(xi, 1.0)
    assert np.all(vals > 0.0)
    # faster than any polynomial: xi^10 * symbol still decays
    weighted = np.abs(xi) ** 10 * vals
    tail = weighted[np.abs(xi) > 40.0]
    assert np.max(tail) < weighted[np.argmin(np.abs(xi - 20.0))]
    # monotone decreasing beyond the knee at 1/depth
    right = vals[xi >= 1.0]
    assert np.all(np.diff(right) <= 0.0)


def test_smoothing_symbol_overflow_guard():
    # beyond the exp guard the true value is below 1e-300; the symbol is 0
    assert smoothing_symbol(np.array([400.0]), 1.0)[0] == 0.0
    assert smoothing_symbol(np.array([1.0]), 351.0)[0] == 0.0
    just_below = smoothing_symbol(np.array([349.0]), 1.0)[0]
    assert 0.0 < just_below < 1e-300 * 1e10


def test_coth_symbol_is_principal_valued():
    vals = coth_symbol(np.array([0.0, 2.0, -2.0]), 0.5)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(-1j / np.tanh(1.0), rel=1e-14)
    assert vals[2] == pytest.approx(1j / np.tanh(1.0), rel=1e-14)


def test_dispersion_symbol_decomposition():
    # full dispersion = deep-water part - transport/depth + smoothing part,
    # pointwise on the lattice
    grid = SpectralGrid(1.0, 256)
    xi = grid.frequencies
    for depth in (0.25, 1.0, 4.0):
        full = depth_dispersion_dx2_symbol(xi, depth)
        reassembled = (1j * xi * np.abs(xi)
                       - (1j / depth) * xi
                       + 1j * xi * smoothing_symbol(xi, depth))
        scale = np.max(np.abs(full))
        assert np.max(np.abs(full - reassembled)) < 1e-13 * scale


def test_composed_coth_symbol_zero_mode():
    xi = np.array([0.0, 1.0, -1.0])
    # the composed symbol i*xi^2*coth(depth*xi) as make_two_depth writes it
    vals = 1j * xi * coth_dx_symbol(xi, 2.0)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(1j / np.tanh(2.0), rel=1e-14)
    assert vals[2] == -vals[1]  # odd imaginary, hence Hermitian


# ------------------------------------------------------------ operator action

def test_smoothing_dx_on_constant_and_single_mode():
    grid = SpectralGrid(1.0, 64)
    const = forward_transform(np.full(64, 3.7), grid)
    out = apply_smoothing_dx(const, 1.0)
    assert np.max(np.abs(out.coeffs)) == 0.0

    f = forward_transform(2.0 * np.cos(TWO_PI * grid.nodes), grid)
    image = apply_smoothing_dx(f, 1.0)
    q = smoothing_symbol(np.array([TWO_PI]), 1.0)[0]
    target = -2.0 * TWO_PI * q * np.sin(TWO_PI * grid.nodes)
    assert np.max(np.abs(image.samples() - target)) < 1e-13


def test_smoothing_dx_gains_regularity():
    # data just in L2 maps into H^10 with a modest norm
    grid = SpectralGrid(1.0, 512)
    rng = np.random.default_rng(41)
    half = 256
    coeffs = np.zeros(half + 1, dtype=np.complex128)
    mags = (1.0 + np.abs(grid.frequencies[1:half])) ** (-0.6)
    coeffs[1:half] = mags * np.exp(1j * rng.uniform(0, TWO_PI, half - 1))
    from ilw_lab import RealField
    rough = RealField(grid, coeffs)
    image = apply_smoothing_dx(rough, 1.0)
    high = sobolev_norms(grid, image.coeffs, SobolevIndex(10.0, 1.0))
    assert np.isfinite(high)
    # bounded by the sup of the weighted symbol times the L2 norm
    xi = grid.frequencies
    gain = np.abs(xi) * smoothing_symbol(xi, 1.0) * (1.0 + xi ** 2) ** 5.0
    cap = np.max(gain) * sobolev_norms(grid, rough.coeffs,
                                       SobolevIndex(0.0, 1.0))
    assert high <= cap * (1.0 + 1e-12)


def test_smoothing_dx_output_is_real():
    grid = SpectralGrid(1.0, 128)
    rng = np.random.default_rng(43)
    samples = rng.standard_normal(128)
    out = apply_smoothing_dx(forward_transform(samples, grid), 0.5)
    vals = out.samples()
    assert np.all(np.isreal(vals))
    back = forward_transform(vals, grid)
    assert np.max(np.abs(back.coeffs - out.coeffs)) < 1e-12


# ------------------------------------------------------------------ norm scan

def test_scan_measured_is_grid_operator_norm():
    grid = SpectralGrid(1.0, 256)
    scan = smoothing_operator_scan(0.0, 0.0, 1.0, grid)
    xi = np.abs(grid.frequencies)
    safe = np.where(xi > 0.0, np.minimum(xi, 350.0), 1.0)
    oracle = np.max(np.where((xi > 0.0) & (xi <= 350.0),
                             xi * 2.0 * safe / np.expm1(2.0 * safe), 0.0))
    assert scan.measured == pytest.approx(oracle, rel=1e-14)
    assert scan.bound == pytest.approx(2.0, rel=1e-14)
    assert scan.measured > 0.0


def test_scan_rejects_decreasing_order():
    grid = SpectralGrid(1.0, 64)
    with pytest.raises(ContractError):
        smoothing_operator_scan(1.0, 0.0, 1.0, grid)


def test_scan_ratio_uniform_over_depth_and_orders():
    # the depth bound holds with one constant: ratios vary by < 10x across
    # the depth sweep and both index pairs (resolution fine enough that the
    # symbol peak near 1/depth is on the lattice for every depth)
    grid = SpectralGrid(8.0 * TWO_PI, 2048)
    ratios = []
    for depth in (0.25, 1.0, 4.0):
        for s1, s2 in ((-0.5, 1.0), (0.0, 2.0)):
            scan = smoothing_operator_scan(s1, s2, depth, grid)
            ratios.append(scan.ratio)
    assert max(ratios) / min(ratios) < 10.0
    assert max(ratios) < 1.0  # the closed-form bound really dominates


def test_scan_vanishes_in_deep_water():
    grid = SpectralGrid(8.0 * TWO_PI, 2048)
    measured = [smoothing_operator_scan(0.0, 0.0, d, grid).measured
                for d in (1.0, 4.0, 16.0, 64.0)]
    assert all(a > b for a, b in zip(measured, measured[1:]))
    assert measured[-1] < 1e-3 * measured[0]
