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
experiments.  The exp(2*pi*i*x) coefficient of that periodization (the
2*pi-mode) has one closed form, a negative real amplitude whose modulus
tends to 2*pi, times exp(-2*pi*i*c*t) at a phase speed c; the traveling
wave, the Galilean-boosted family and the phase-rate probe each read it at
their own speed.

All hyperbolic expressions are evaluated in the exp(-|y|) form, over one
shared denominator, so profiles and lattice sums stay finite far from the
core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalError
from .spectral import RealField, SpectralGrid, forward_transform, multiplier_apply
from .symbols import _require_depth, coth_dx_symbol, coth_symbol

SERIES_TOL = 1e-16
SERIES_CAP = 100_000
ADELTA_MAX = np.pi - 1e-3

_TWO_PI = 2.0 * np.pi
# ``mode_phase_rate`` sizes its probe step in a so that the speed moves by
# about this much over |t|: the phase difference 2*pi*t*(c2 - c1) then
# stays near 0.6, on one branch of arg
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


def _scaled_cosh_plus(y, adelta: float):
    """exp(-|y|) and 2*exp(-|y|)*(cosh(y) + cos(adelta)), finite for all y;
    the second is written (1 - exp(-|y|))^2 + 4*cos(adelta/2)^2*exp(-|y|)."""
    ay = np.abs(y)
    e = np.exp(-ay)
    em = -np.expm1(-ay)  # 1 - exp(-|y|), accurate near 0
    return e, em * em + 4.0 * np.cos(0.5 * adelta) ** 2 * e


def _inv_cosh_plus(y, adelta: float):
    """1 / (cosh(y) + cos(adelta)), stable for all y."""
    e, denominator = _scaled_cosh_plus(y, adelta)
    return 2.0 * e / denominator


def _tanh_like(y, adelta: float):
    """sinh(y) / (cosh(y) + cos(adelta)), stable for all y."""
    _, denominator = _scaled_cosh_plus(y, adelta)
    return np.sign(y) * (1.0 - np.exp(-2.0 * np.abs(y))) / denominator


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
    """The 2*pi-mode at time t of the periodized wave whose phase travels at
    speed c (the formula of ``traveling_mode_2pi``)."""
    modulus = -_TWO_PI * float(_sinh_ratio(_TWO_PI * depth, 2.0 * np.pi ** 2 / a))
    return complex(modulus * np.exp(-2j * np.pi * c * t))


@dataclass(frozen=True)
class WaveParams:
    """One line wave of the traveling family: a and c are linked by
    a*depth*cot(a*depth) = 1 - c*depth."""

    depth: float
    a: float
    c: float

    def __post_init__(self):
        _require_regime(self.a, self.depth)

    @classmethod
    def line(cls, c: float, depth: float) -> "WaveParams":
        return cls(depth=depth, a=wave_number_from_speed(c, depth), c=c)


def wave_number_from_speed(c: float, depth: float) -> float:
    """Solve a*depth*cot(a*depth) = 1 - c*depth for a in (0, pi/depth).

    y*cot(y) decreases strictly from 1 to -inf on (0, pi), so the root is
    unique for every c > 0.  Plain bisection to 1e-14 relative width.
    """
    if not np.isfinite(c) or c <= 0:
        raise ContractError("speed must be positive")
    _require_depth(depth)
    target = 1.0 - c * depth

    def shifted(y):
        return y * np.cos(y) / np.sin(y) - target

    lo, hi = 1e-300, np.pi * (1.0 - 1e-16)
    if shifted(hi) > 0.0:
        raise NumericalError("bisection bracket failed at the collapse end")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if shifted(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            return 0.5 * (lo + hi) / depth
    raise NumericalError("bisection did not reach the requested width")


def line_profile(x, t: float, params: WaveParams) -> np.ndarray:
    """Samples of the line wave -a*sin(a*depth)/(cosh(a*(x-c*t))+cos(a*depth))."""
    a, depth = params.a, params.depth
    y = a * (np.asarray(x, dtype=float) - params.c * t)
    return -a * np.sin(a * depth) * _inv_cosh_plus(y, a * depth)


def line_profile_fourier(xi, params: WaveParams) -> np.ndarray:
    """Line-convention transform of the t = 0 profile.

    With the unitary normalization u_hat(xi) = (2*pi)^(-1/2) * integral
    u exp(-i xi x) dx the profile transforms to
    -sqrt(2*pi) * sinh(depth*xi)/sinh(pi*xi/a), value -sqrt(2*pi)*a*depth/pi
    at xi = 0.  The collocation convention of this package carries an extra
    factor sqrt(2*pi).
    """
    return -np.sqrt(_TWO_PI) * _profile_ratio(xi, params.a, params.depth)


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
    pairs grouped by their difference (see pair_product_aggregate); B = -D is
    then forced by the zero mode of the equation.
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


@dataclass(frozen=True)
class CothImageRoutes:
    """The dispersion image of the periodized wave via two routes."""

    multiplier: RealField
    lattice: RealField


def wave_coth_image(a: float, depth: float, grid: SpectralGrid) -> CothImageRoutes:
    """Image of the periodized wave under the bare coth multiplier.

    Multiplier route: principal-value convention (zero mode -> 0) applied to
    the Fourier-route profile.  Lattice route: termwise image

        -sum_n a*sinh(a*(x+n)) / (cosh(a*(x+n)) + cos(a*depth)),

    summed in symmetric pairs.  Because the summand tends to -+a as
    n -> +-infinity, the symmetric partial sums carry an exact linear drift
    -2*a*x; adding 2*a*x back selects the periodic branch that the
    multiplier route produces.
    """
    image = multiplier_apply(periodic_profile(a, depth, grid),
                             lambda xi: coth_symbol(xi, depth))

    x = grid.nodes
    ad = a * depth

    def term(n):
        return -a * _tanh_like(a * (x + n), ad)

    samples = _series(lambda n: term(n) + term(-n), term(0), "dispersion-image")
    samples = samples + 2.0 * a * x
    lattice = forward_transform(samples, grid)
    return CothImageRoutes(multiplier=image, lattice=lattice)


# -- lattice product identities ------------------------------------------------

def pair_product_residual(a: float, depth: float, x: float, n: int, m: int) -> float:
    """Residual of the two-translate product identity.

    With b_k = 1/(cosh(a*(x+k)) + cos(a*depth)) and d_k = b_k*sinh(a*(x+k)),
    for n != m:

        2*b_n*b_m = [-cos(a*depth)*(b_n + b_m)
                     + coth(a*(n-m)/2)*(d_n - d_m)]
                    / (sinh(a*(m-n)/2)^2 + sin(a*depth)^2).

    Returns |lhs - rhs|.
    """
    _require_regime(a, depth)
    if n == m:
        raise ContractError("the product identity needs distinct translates")
    ad = a * depth
    bn, bm = (float(_inv_cosh_plus(a * (x + k), ad)) for k in (n, m))
    dn, dm = (float(_tanh_like(a * (x + k), ad)) for k in (n, m))
    denom = _lattice_denominator(a, ad, m - n)
    lhs = 2.0 * bn * bm
    rhs = (-np.cos(ad) * (bn + bm) + (dn - dm) / np.tanh(0.5 * a * (n - m))) / denom
    return float(abs(lhs - rhs))


def pair_product_aggregate(a: float, depth: float, x: float, n_max: int):
    """Both sides of the aggregated product identity, truncated at |n| <= n_max.

    sum_{n != m} b_n b_m  =  -2*(sum_{l>=1} cos(a*depth)/(sinh(a*l/2)^2
                              + sin(a*depth)^2)) * sum_k b_k
                              + 2*sum_{l>=1} l*coth(a*l/2)/(sinh(a*l/2)^2
                              + sin(a*depth)^2).

    Grouping ordered pairs by the difference l = n - m, the b-part of the
    two-translate identity contributes 2*sum_k b_k per difference while the
    d-part telescopes to the boundary value 2*l, whence the coefficients.
    Returns (double_sum, closed_form); the truncation error decays like
    exp(-a*n_max).
    """
    _require_regime(a, depth)
    ad = a * depth
    ns = np.arange(-n_max, n_max + 1)
    b = _inv_cosh_plus(a * (x + ns), ad)
    total = np.sum(b)
    double_sum = float(total * total - np.sum(b * b))

    ells = np.arange(1, 2 * n_max + 1)
    denom = _lattice_denominator(a, ad, ells)
    closed = (-2.0 * np.cos(ad) * np.sum(1.0 / denom) * total
              + 2.0 * np.sum(ells / np.tanh(0.5 * a * ells) / denom))
    return double_sum, float(closed)


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


def dirac_norm_sq(s: float) -> float:
    """Squared H^s norm of the unit Dirac comb mode sum: sum <xi>^(2s)."""
    return 1.0 + 2.0 * dirac_tail(1, s)


def distance_to_dirac(profile: RealField, s: float) -> float:
    """H^s distance from a periodic field to -2*pi*delta_0 for s < -1/2.

    The Dirac's coefficients are identically 1, so the squared distance is
    the lattice sum of <xi>^(2s) |u_hat(xi) + 2*pi|^2.  Modes beyond the grid
    contribute the pure Dirac tail; the Nyquist pair +-N/2 is treated as part
    of that tail for symmetry.
    """
    if not (np.isfinite(s) and s < -0.5):
        raise ContractError("the Dirac distance needs a finite s < -1/2")
    _require_unit_circle(profile.grid)
    grid = profile.grid
    half = grid.n_points // 2
    xi = grid.frequencies[:half]
    w = grid.multiplicity[:half] * (1.0 + xi ** 2) ** s
    on_grid = float(np.sum(w * np.abs(profile.coeffs[:half] + _TWO_PI) ** 2))
    tail = (_TWO_PI ** 2) * 2.0 * dirac_tail(half, s)
    return float(np.sqrt(on_grid + tail))


def traveling_mode_2pi(a: float, depth: float, t: float) -> complex:
    """Coefficient of exp(2*pi*i*x) in the evolved periodized wave:

        -2*pi*exp(-2*pi*i*c*t) * sinh(2*pi*depth)/sinh(2*pi^2/a).

    The modulus converges to 2*pi as a*depth -> pi while the phase turns at
    rate -2*pi*t per unit of speed, which is the mechanism behind norm
    deflation at low regularity.
    """
    return _mode_2pi(a, depth, periodic_speed(a, depth), t)


def mode_phase_rate(a: float, depth: float, t: float):
    """Measured d(arg mode)/dc between two nearby wave numbers.

    The amplitude factor is real of one sign, so the phase difference is
    entirely -2*pi*t*(c2 - c1); the probe step in a is sized so that the
    phase stays within one branch of arg.  Returns (rate, c1, c2).
    """
    _require_regime(a, depth)
    if t == 0.0:
        raise ContractError("the phase rate is measured at a nonzero time")
    c1 = periodic_speed(a, depth)
    da = 1e-8 * a
    slope = abs(periodic_speed(a + da, depth) - c1) / da
    step = _PHASE_PROBE_DC / (abs(t) * max(slope, 1e-300))
    step = min(step, 0.5 * (ADELTA_MAX / depth - a), 0.1 * a)
    c2 = periodic_speed(a + step, depth)
    z1 = _mode_2pi(a, depth, c1, t)
    z2 = _mode_2pi(a + step, depth, c2, t)
    if z1 == 0 or c2 == c1:
        raise NumericalError("no phase rate at a=%.6g, depth=%.6g: the 2*pi mode "
                             "or the speed step underflows" % (a, depth))
    rate = float(np.angle(z2 / z1) / (c2 - c1))
    return rate, c1, c2


@dataclass(frozen=True)
class IllposedObservables:
    """Closed-form observables of the Galilean-boosted wave family."""

    a: float
    depth: float
    t: float
    alpha: float
    speed: float
    wave_mean: float
    mode_2pi: complex


def illposed_observables(a: float, depth: float, t: float,
                         alpha: float) -> IllposedObservables:
    """Observables of v = (boosted wave) with gamma = mean - alpha.

    The boost translates by 2*gamma*t and subtracts gamma, so the
    exp(2*pi*i*x) coefficient picks up the phase
    exp(-2*pi*i*(c + 2*(mu - alpha))*t) where mu = -2*a*depth is the wave
    mean; at alpha = mu this reduces to the plain traveling phase.
    """
    c = periodic_speed(a, depth)
    mu = -2.0 * a * depth
    mode = _mode_2pi(a, depth, c + 2.0 * (mu - alpha), t)
    return IllposedObservables(a=a, depth=depth, t=t, alpha=alpha, speed=c,
                               wave_mean=mu, mode_2pi=mode)
