"""Closed forms and identities that only the tests read.

The library's commands never call these; the tests check the library
against them:

- the line soliton and its speed-to-wave-number relation, of which the
  library's periodic waves are the unit periodization;
- the derivation identities behind the periodized traveling equation: the
  bare coth image of the wave by two routes and the two-translate product
  identity with its aggregate over ordered pairs;
- oracles: the traveling 2*pi-mode at the periodic speed, the squared H^s
  norm of the Dirac comb, the Hilbert symbol, the finite-depth linear
  symbol and the Sobolev norm of a one-sided coefficient vector.
"""

from dataclasses import dataclass

import numpy as np

from ilw_lab.errors import ContractError, NumericalError
from ilw_lab.spectral import (
    RealField,
    SobolevIndex,
    SpectralGrid,
    forward_transform,
    multiplier_apply,
)
from ilw_lab.symbols import _require_depth, depth_dispersion_dx_symbol
from ilw_lab.waves import (
    _TWO_PI,
    _inv_cosh_plus,
    _lattice_denominator,
    _mode_2pi,
    _profile_ratio,
    _require_regime,
    _series,
    dirac_tail,
    periodic_profile,
    periodic_speed,
)


# -- symbols and norms ---------------------------------------------------------

def hilbert_symbol(xi) -> np.ndarray:
    """-i*sgn(xi), with sgn(0) = 0."""
    return -1j * np.sign(np.asarray(xi, dtype=float))


def coth_symbol(xi, depth: float) -> np.ndarray:
    """-i*coth(depth*xi), principal-value convention 0 at xi = 0.

    The bare coth multiplier is singular on constants; it is only ever
    applied to profiles where the symmetric-sum (principal value) reading is
    the meaningful one.  Compositions with a derivative use the library's
    composed symbols.
    """
    _require_depth(depth)
    xi = np.asarray(xi, dtype=float)
    y = depth * np.where(xi != 0.0, xi, 1.0)
    return np.where(xi != 0.0, -1j / np.tanh(y), 0.0)


def depth_dispersion_dx2_symbol(xi, depth: float) -> np.ndarray:
    """i*xi^2*(coth(depth*xi) - 1/(depth*xi)); removable value 0 at xi = 0.
    The finite-depth linear symbol in closed form: ``make_ilw`` builds it
    as i*xi times its energy symbol."""
    xi = np.asarray(xi, dtype=float)
    return 1j * xi * depth_dispersion_dx_symbol(xi, depth)


def hardy_norm(coeffs: np.ndarray, frequencies: np.ndarray, length: float,
               index: SobolevIndex) -> float:
    """Sobolev norm of a one-sided coefficient vector (complex function)."""
    w = index.bracket(frequencies) ** (2.0 * index.s)
    return float(np.sqrt(np.sum(w * np.abs(coeffs) ** 2) / length))


# -- the line soliton ----------------------------------------------------------

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
    at xi = 0.  The collocation convention of the library carries an extra
    factor sqrt(2*pi).
    """
    return -np.sqrt(_TWO_PI) * _profile_ratio(xi, params.a, params.depth)


# -- derivation identities -----------------------------------------------------

def _tanh_like(y, adelta: float):
    """sinh(y) / (cosh(y) + cos(adelta)), stable for all y: both sides
    scaled by 2*exp(-|y|), as in the library's 1 / (cosh(y) + cos(adelta))."""
    ay = np.abs(y)
    em = -np.expm1(-ay)  # 1 - exp(-|y|), accurate near 0
    denominator = em * em + 4.0 * np.cos(0.5 * adelta) ** 2 * np.exp(-ay)
    return np.sign(y) * (1.0 - np.exp(-2.0 * ay)) / denominator


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
    The constant part is the library's interaction constant D.  Returns
    (double_sum, closed_form); the truncation error decays like
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


# -- oracles of the degeneration diagnostics -----------------------------------

def dirac_norm_sq(s: float) -> float:
    """Squared H^s norm of the unit Dirac comb mode sum: sum <xi>^(2s)."""
    return 1.0 + 2.0 * dirac_tail(1, s)


def traveling_mode_2pi(a: float, depth: float, t: float) -> complex:
    """Coefficient of exp(2*pi*i*x) in the evolved periodized wave, at the
    periodic speed:

        -2*pi*exp(-2*pi*i*c*t) * sinh(2*pi*depth)/sinh(2*pi^2/a).
    """
    return _mode_2pi(a, depth, periodic_speed(a, depth), t)
