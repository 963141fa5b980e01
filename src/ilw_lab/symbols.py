"""Fourier symbols of the dispersive operators and smoothing diagnostics.

All symbols are evaluated on angular-frequency arrays.  ``depth`` is the
stratification depth parameter: the coth-type symbols degenerate to their
Hilbert-transform counterparts as depth -> infinity and the finite-depth
corrections vanish accordingly.  The bare coth multiplier is singular on
constants, so it appears here only regularized, less 1/(depth*xi) or
composed with a derivative, each with its removable value at xi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .spectral import RealField, SpectralGrid, multiplier_apply

# 2*depth*|xi| beyond this would overflow exp; the symbol is below 1e-300 there.
_EXP_GUARD = 700.0

# below this |depth*xi| the cancellation in coth(y) - 1/y needs the series
_SERIES_CUT = 1e-2


def _require_depth(depth: float):
    if not np.isfinite(depth) or depth <= 0:
        raise ContractError("depth must be positive and finite")


def _coth_minus_inverse(xi, depth: float) -> np.ndarray:
    """coth(depth*xi) - 1/(depth*xi), removable value 0 at xi = 0: the one
    evaluation of the finite-depth multiplier, by its series where the two
    terms cancel."""
    _require_depth(depth)
    y = depth * np.asarray(xi, dtype=float)
    ysafe = np.where(np.abs(y) < _SERIES_CUT, 1.0, y)
    direct = 1.0 / np.tanh(ysafe) - 1.0 / ysafe
    series = y / 3.0 - y ** 3 / 45.0 + 2.0 * y ** 5 / 945.0
    return np.where(np.abs(y) < _SERIES_CUT, series, direct)


def smoothing_symbol(xi, depth: float) -> np.ndarray:
    """Real even symbol 2|xi| / (exp(2*depth*|xi|) - 1); value 1/depth at 0.

    Measures the gap between the finite-depth and deep-water dispersions:
    coth(y) = 1 + 2/(exp(2y) - 1).  Underflow guard: zero once
    2*depth*|xi| > 700.
    """
    _require_depth(depth)
    axi = np.abs(np.asarray(xi, dtype=float))
    y = 2.0 * depth * axi
    small = y <= _EXP_GUARD
    ysafe = np.where((y > 0.0) & small, y, 1.0)
    out = np.where((y > 0.0) & small, 2.0 * axi / np.expm1(ysafe), 0.0)
    return np.where(axi == 0.0, 1.0 / depth, out)


def coth_dx_symbol(xi, depth: float) -> np.ndarray:
    """Composed symbol xi*coth(depth*xi) of (coth multiplier) o d/dx.

    Real, even, >= 1/depth everywhere; the xi = 0 value is the limit
    1/depth.  This composition (not the bare coth) is what enters the
    traveling-wave equation and the Hamiltonians.
    """
    _require_depth(depth)
    xi = np.asarray(xi, dtype=float)
    y = depth * xi
    ysafe = np.where(y != 0.0, y, 1.0)
    return np.where(y != 0.0, xi / np.tanh(ysafe), 1.0 / depth)


def depth_dispersion_dx_symbol(xi, depth: float) -> np.ndarray:
    """xi*coth(depth*xi) - 1/depth with removable value 0 at xi = 0, taken
    as xi times the multiplier so that no 1/depth cancels."""
    xi = np.asarray(xi, dtype=float)
    return xi * _coth_minus_inverse(xi, depth)


def apply_smoothing_dx(field: RealField, depth: float) -> RealField:
    """Apply the operator with symbol i*xi*smoothing_symbol(xi)."""

    def sym(xi):
        return 1j * np.asarray(xi) * smoothing_symbol(xi, depth)

    return multiplier_apply(field, sym)


def smoothing_bound(depth: float, exponent: float) -> float:
    """depth^-2 (1 + depth^exponent), the bound on the smoothing term behind
    the Gronwall rate, or inf where it overflows or divides by zero."""
    try:
        return depth ** -2.0 * (1.0 + depth ** exponent)
    except (OverflowError, ZeroDivisionError):
        return np.inf


@dataclass(frozen=True)
class SmoothingScan:
    """Grid operator norm of the smoothing-derivative composition against
    the closed-form depth bound."""

    s1: float
    s2: float
    depth: float
    measured: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.measured / self.bound


def smoothing_operator_scan(s1: float, s2: float, depth: float,
                            grid: SpectralGrid) -> SmoothingScan:
    """Exact H^s1 -> H^s2 operator norm of i*xi*smoothing_symbol on the grid.

    The norm of a diagonal operator is the sup over the lattice of
    |xi| * symbol(xi) * <xi>^(s2 - s1), bracket at kappa = 1.  The reference
    bound is ``smoothing_bound(depth, s1 - s2)``.
    """
    if s1 > s2:
        raise ContractError("scan requires s1 <= s2")
    _require_depth(depth)
    bound = smoothing_bound(depth, s1 - s2)
    if not (np.isfinite(bound) and bound > 0.0):
        raise ContractError("depth %.6g puts the smoothing bound %.3g outside "
                            "(0, inf)" % (depth, bound))
    xi = grid.frequencies
    gain = np.abs(xi) * smoothing_symbol(xi, depth)
    weight = (1.0 + xi ** 2) ** (0.5 * (s2 - s1))
    measured = float(np.max(gain * weight))
    if measured == 0.0:
        raise ContractError("depth %.6g: the smoothing symbol vanishes on every "
                            "nonzero lattice frequency; lengthen the box" % depth)
    return SmoothingScan(s1=s1, s2=s2, depth=depth, measured=measured, bound=bound)
