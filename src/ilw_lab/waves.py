"""Explicit depression traveling waves of the finite-depth equation.

The family is parameterized by the interior wave number ``a`` and the depth;
``a * depth`` must stay in (0, pi).  On the line the profile is

    u(t, x) = -a * sin(a*depth) / (cosh(a*(x - c*t)) + cos(a*depth)),

and its unit periodization solves the traveling equation on the circle with
a speed correction V coming from tail interactions.  The periodization has
two independent routes, its Fourier coefficients (``periodic_profile``)
and the direct sum of its translates (``lattice_profile``), and
``periodic_wave_constants`` sums V once for both V and the speed.  As
a*depth -> pi the periodized profiles concentrate to a negative multiple
of the Dirac comb, which drives the low-regularity degeneration
experiments; ``distance_to_dirac`` measures it for the profiles of one
grid, which share one Dirac tail.  The exp(2*pi*i*x) coefficient of the
periodization (the 2*pi-mode) has one closed form, a negative real
amplitude whose modulus tends to 2*pi, times exp(-2*pi*i*c*t) at a phase
speed c.  ``illposed_observables`` reads it for the Galilean-boosted
family and, at two nearby wave numbers, for the phase-rate probe, from
one speed sum at a.

All hyperbolic expressions are evaluated in the exp(-|y|) form, so
profiles and lattice sums stay finite far from the core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .spectral import RealField, SpectralGrid, forward_transform, multiplier_apply
from .symbols import _require_depth, coth_dx_symbol

SERIES_TOL = 1e-16
SERIES_CAP = 100_000
ADELTA_MAX = np.pi - 1e-3

_TWO_PI = 2.0 * np.pi
# ``illposed_observables`` sizes its phase probe step in a so that the
# speed moves by about this much over |t|: the phase difference
# 2*pi*t*(c2 - c1) then stays near 0.6, on one branch of arg
_PHASE_PROBE_DC = 0.1


def _require_regime(a: float, depth: float):
    if not np.isfinite(a) or a <= 0:
        raise ContractError("wave number a must be positive")
    if not np.isfinite(a * a):
        raise ContractError("wave number a = %.3g is too large: a^2 overflows" % a)
    _require_depth(depth)
    if a * depth >= ADELTA_MAX:
        raise ContractError(
            "a*depth = %.6f is outside the supported regime (< pi - 1e-3); "
            "the profile denominators degenerate there" % (a * depth))


def _lattice_denominator(a: float, ad: float, l):
    """sinh(a*l/2)^2 + sin(ad)^2, the denominator of every lattice sum; the
    sinh argument is capped at 350, where its square is still finite and
    already swamps the other term."""
    return np.sinh(np.minimum(0.5 * a * np.abs(l), 350.0)) ** 2 + np.sin(ad) ** 2


def _inv_cosh_plus(y, adelta: float):
    """1 / (cosh(y) + cos(adelta)), stable for all y: both sides scaled by
    2*exp(-|y|), which writes the denominator as
    (1 - exp(-|y|))^2 + 4*cos(adelta/2)^2*exp(-|y|)."""
    ay = np.abs(y)
    e = np.exp(-ay)
    em = -np.expm1(-ay)  # 1 - exp(-|y|), accurate near 0
    return 2.0 * e / (em * em + 4.0 * np.cos(0.5 * adelta) ** 2 * e)


def _sinh_ratio(p, q):
    """sinh(p)/sinh(q) for 0 <= p < q elementwise, overflow-safe."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.exp(p - q) * np.expm1(-2.0 * p) / np.expm1(-2.0 * q)


def _profile_ratio(xi, a: float, depth: float) -> np.ndarray:
    """sinh(depth*|xi|)/sinh(pi*|xi|/a), with its limit a*depth/pi at xi = 0:
    the transform of the wave profile up to its normalization."""
    xi = np.abs(np.asarray(xi, dtype=float))
    safe = np.where(xi > 0.0, xi, 1.0)
    return np.where(xi > 0.0, _sinh_ratio(depth * safe, (np.pi / a) * safe),
                    a * depth / np.pi)


def _mode_2pi(a: float, depth: float, c: float, t: float) -> complex:
    """Coefficient of exp(2*pi*i*x) at time t in the periodized wave whose
    phase travels at speed c:

        -2*pi*exp(-2*pi*i*c*t) * sinh(2*pi*depth)/sinh(2*pi^2/a).

    The modulus converges to 2*pi as a*depth -> pi while the phase turns at
    rate -2*pi*t per unit of speed, which is the mechanism behind norm
    deflation at low regularity.
    """
    modulus = -_TWO_PI * float(_sinh_ratio(_TWO_PI * depth, 2.0 * np.pi ** 2 / a))
    return complex(modulus * np.exp(-2j * np.pi * c * t))


def _require_unit_circle(grid: SpectralGrid):
    if abs(grid.length - 1.0) > 1e-12:
        raise ContractError("periodic-wave operations require a length-1 grid")


def _series(term, start, what: str):
    """start + term(1) + term(2) + ... until a term falls below SERIES_TOL
    in sup norm; the terms are scalars or arrays of one shape."""
    total = start
    for n in range(1, SERIES_CAP + 1):
        step = term(n)
        total = total + step
        if float(np.max(np.abs(step))) < SERIES_TOL:
            return total
    raise NumericalError("%s series did not converge in %d terms"
                         % (what, SERIES_CAP))


def periodic_speed(a: float, depth: float) -> float:
    """Speed of the unit-periodized wave:

        c = 1/depth - a*cot(a*depth) - V(a, depth),

    where V collects the interactions between lattice translates.
    """
    return _speed(a, depth, interaction_sum_v(a, depth))


def _speed(a: float, depth: float, v: float) -> float:
    """The formula of ``periodic_speed`` at a summed V."""
    ad = a * depth
    return 1.0 / depth - a * np.cos(ad) / np.sin(ad) - v


def interaction_sum_v(a: float, depth: float) -> float:
    """V = sum_{l>=1} a*sin(2*a*depth) / (sinh(a*l/2)^2 + sin(a*depth)^2)."""
    _require_regime(a, depth)
    ad = a * depth

    def term(l):
        return a * np.sin(2.0 * ad) / _lattice_denominator(a, ad, l)

    return _series(term, 0.0, "speed-correction")


@dataclass(frozen=True)
class PeriodicWaveConstants:
    """Closed-form lattice constants entering the periodized traveling
    equation: speed correction V, the speed it gives (``periodic_speed``),
    interaction constant D > 0, and the equation's constant right side
    B = -D."""

    V: float
    speed: float
    D: float

    @property
    def B(self) -> float:
        return -self.D


def periodic_wave_constants(a: float, depth: float) -> PeriodicWaveConstants:
    """Constants of the periodized traveling equation.

    V is the speed correction from interacting translates, summed once for
    both V and the speed.  D is the constant part of the squared wave left
    over after matching the V*U term,

        D = 2*a^2*sin(a*depth)^2 * sum_{l>=1} l*coth(a*l/2)
            / (sinh(a*l/2)^2 + sin(a*depth)^2),

    obtained by aggregating the two-translate product identity over ordered
    pairs grouped by their difference; B = -D is then forced by the zero
    mode of the equation.
    """
    _require_regime(a, depth)
    ad = a * depth
    s2 = np.sin(ad) ** 2

    def term_d(l):
        return l / np.tanh(0.5 * a * l) / _lattice_denominator(a, ad, l)

    d = 2.0 * a ** 2 * s2 * _series(term_d, 0.0, "interaction-constant")
    v = interaction_sum_v(a, depth)
    return PeriodicWaveConstants(V=v, speed=_speed(a, depth, v), D=d)


def periodic_profile(a: float, depth: float, grid: SpectralGrid) -> RealField:
    """Unit periodization of the line wave from its coefficients
    -2*pi*sinh(depth*xi)/sinh(pi*xi/a) on xi in 2*pi*Z (value -2*a*depth at
    xi = 0, so the mean is -2*a*depth).  ``lattice_profile`` sums the same
    field in physical space; the two agree by Poisson summation.
    """
    _require_regime(a, depth)
    _require_unit_circle(grid)
    ratio = _profile_ratio(grid.frequencies, a, depth)
    return RealField(grid, -_TWO_PI * ratio + 0j)


def lattice_profile(a: float, depth: float, grid: SpectralGrid) -> RealField:
    """Unit periodization of the line wave by direct summation of its
    translates: the summand decays like exp(-a*|n|), so symmetric
    truncation at SERIES_TOL is exact to rounding.  The independent route
    to ``periodic_profile``.
    """
    _require_regime(a, depth)
    _require_unit_circle(grid)
    x = grid.nodes
    ad = a * depth
    amp = -a * np.sin(ad)

    def term(n):
        return amp * _inv_cosh_plus(a * (x + n), ad)

    samples = _series(lambda n: term(n) + term(-n), term(0), "profile")
    return forward_transform(samples, grid)


def traveling_residual(profile: RealField, c: float, b: float, depth: float) -> float:
    """Sup-norm residual of the periodized traveling equation

        -c*U + U/depth - (coth o d/dx) U - U^2 - B = 0,

    with the composed symbol xi*coth(depth*xi) (value 1/depth at xi = 0;
    that limit reproduces the zero mode of the lattice-differentiated
    dispersion, which is what the equation means on nonzero-mean profiles).
    """
    grid = profile.grid
    image = multiplier_apply(profile, lambda xi: coth_dx_symbol(xi, depth) + 0j)
    u = profile.samples()
    res = (-c + 1.0 / depth) * u - image.samples() - u * u - b
    return float(np.max(np.abs(res)))


# -- degeneration diagnostics ---------------------------------------------------

def dirac_tail(k_start: int, s: float) -> float:
    """sum_{k >= k_start} (1 + (2*pi*k)^2)^s for s < -1/2.

    Direct block summation followed by an Euler-Maclaurin remainder; the
    asymptotic integral is expanded in inverse powers of (2*pi*k)^2.
    """
    if not (np.isfinite(s) and s < -0.5):
        raise ContractError("the Dirac tail converges only for a finite s < -1/2")
    if k_start < 1:
        raise ContractError("tail starts at k >= 1")
    block = 50_000
    k = np.arange(k_start, k_start + block, dtype=float)
    direct = float(np.sum((1.0 + (_TWO_PI * k) ** 2) ** s))
    kp = float(k_start + block)
    c2 = _TWO_PI ** 2
    integral = (c2 ** s) * (kp ** (2 * s + 1) / (-(2 * s + 1))
                            + (s / c2) * kp ** (2 * s - 1) / (-(2 * s - 1)))
    g = (1.0 + c2 * kp ** 2) ** s
    gprime = 2.0 * s * c2 * kp * (1.0 + c2 * kp ** 2) ** (s - 1.0)
    return direct + integral + 0.5 * g - gprime / 12.0


def distance_to_dirac(profiles, s: float) -> list:
    """H^s distances from periodic fields on one grid to -2*pi*delta_0 for
    s < -1/2, one per field.

    The Dirac's coefficients are identically 1, so the squared distance is
    the lattice sum of <xi>^(2s) |u_hat(xi) + 2*pi|^2.  Modes beyond the grid
    contribute the pure Dirac tail, which every field of the grid shares;
    the Nyquist pair +-N/2 is treated as part of that tail for symmetry.
    """
    if not (np.isfinite(s) and s < -0.5):
        raise ContractError("the Dirac distance needs a finite s < -1/2")
    grid = profiles[0].grid
    _require_unit_circle(grid)
    if any(profile.grid != grid for profile in profiles):
        raise ContractError("fields live on different grids")
    half = grid.n_points // 2
    xi = grid.frequencies[:half]
    w = grid.multiplicity[:half] * (1.0 + xi ** 2) ** s
    tail = (_TWO_PI ** 2) * 2.0 * dirac_tail(half, s)
    distances = []
    for profile in profiles:
        on_grid = float(np.sum(w * np.abs(profile.coeffs[:half] + _TWO_PI) ** 2))
        distances.append(float(np.sqrt(on_grid + tail)))
    return distances


@dataclass(frozen=True)
class IllposedObservables:
    """Closed-form observables of the Galilean-boosted wave family, and the
    measured phase rate of its 2*pi-mode."""

    speed: float
    wave_mean: float
    mode_2pi: complex
    phase_rate: float


def illposed_observables(a: float, depth: float, t: float,
                         alpha: float) -> IllposedObservables:
    """Observables of v = (boosted wave) with gamma = mean - alpha.

    The boost translates by 2*gamma*t and subtracts gamma, so the
    exp(2*pi*i*x) coefficient picks up the phase
    exp(-2*pi*i*(c + 2*(mu - alpha))*t) where mu = -2*a*depth is the wave
    mean; at alpha = mu this reduces to the plain traveling phase.

    ``phase_rate`` is d(arg mode)/dc of the plain traveling wave, measured
    between a and a nearby wave number.  The amplitude factor is real of
    one sign, so the phase difference is entirely -2*pi*t*(c2 - c1); the
    probe step in a is sized so that the phase stays within one branch of
    arg.  It needs t != 0.
    """
    _require_regime(a, depth)
    if t == 0.0:
        raise ContractError("the phase rate is measured at a nonzero time")
    c1 = periodic_speed(a, depth)
    da = 1e-8 * a
    slope = float(abs(periodic_speed(a + da, depth) - c1) / da)
    # on Python floats a step too large for a float reads inf, without a
    # warning, and the clamp below takes over
    spread = float(abs(t) * max(slope, 1e-300))
    step = _PHASE_PROBE_DC / spread if spread else np.inf
    step = min(step, 0.5 * (ADELTA_MAX / depth - a), 0.1 * a)
    c2 = periodic_speed(a + step, depth)
    z1 = _mode_2pi(a, depth, c1, t)
    z2 = _mode_2pi(a + step, depth, c2, t)
    if z1 == 0 or c2 == c1:
        raise NumericalError("no phase rate at a=%.6g, depth=%.6g: the 2*pi mode "
                             "or the speed step underflows" % (a, depth))
    mu = -2.0 * a * depth
    return IllposedObservables(
        speed=c1, wave_mean=mu,
        mode_2pi=_mode_2pi(a, depth, c1 + 2.0 * (mu - alpha), t),
        phase_rate=float(np.angle(z2 / z1) / (c2 - c1)))
