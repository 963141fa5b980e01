"""Periodic spectral grids, transforms, weighted Sobolev norms and Fourier
multipliers of real fields.

Conventions.  On a period-``L`` domain the transform pair is

    u_hat(xi) = integral_0^L u(x) exp(-i xi x) dx,
    u(x)      = (1/L) * sum_xi u_hat(xi) exp(i xi x),

with xi running over the lattice (2*pi/L)*k, |k| <= N/2.  For L = 1 this is
the standard circle convention with xi in 2*pi*Z, and Parseval reads
||u||_L2^2 = (1/L) * sum |u_hat|^2.  A real field has u_hat(-xi) =
conj(u_hat(xi)) and is stored by its half spectrum, k = 0 .. N/2 in
``np.fft.rfft`` order.  Slots 0 and N/2 are self-conjugate, hence real, and
stand for one mode each (on the grid the pair +-N/2 is the single mode
cos(xi_N x)); every other slot stands for the pair +-xi.  Full-lattice sums
weight the slots by ``SpectralGrid.multiplicity``, and multipliers act on the
Nyquist slot through the real part of their symbol, zeroing it for odd ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError

# bound on |u_hat - conj(mirrored u_hat)| relative to max(1, max |u_hat|)
HERMITIAN_RTOL = 1e-10
# largest kappa whose square a float holds (the bracket squares it)
_KAPPA_MAX = float(np.sqrt(np.finfo(float).max))
# the largest grid accepted, far above any run's (4096 at most)
MAX_POINTS = 2 ** 20


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid with N sample points on [0, L)."""

    length: float
    n_points: int

    def __post_init__(self):
        if not np.isfinite(self.length) or self.length <= 0:
            raise ContractError("grid length must be positive and finite")
        if self.n_points < 8 or self.n_points % 2 != 0:
            raise ContractError("n_points must be an even integer >= 8")
        if self.n_points > MAX_POINTS:
            raise ContractError("n_points = %d exceeds the limit of %d"
                                % (self.n_points, MAX_POINTS))
        # a subnormal spacing loses digits, and one that underflows to 0
        # leaves no frequency lattice
        if not self.length / self.n_points >= np.finfo(float).tiny:
            raise ContractError("grid spacing %.3g is not a positive normal "
                                "float" % (self.length / self.n_points))

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Angular frequencies of the half spectrum: (2*pi/L)*[0, 1, .., N/2]."""
        xi = 2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.length / self.n_points)
        xi.setflags(write=False)
        return xi

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """Full-lattice modes per half-spectrum slot: 1 at slots 0 and N/2,
        2 elsewhere.  Weight every full-lattice sum by it."""
        weights = np.full(self.n_points // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        weights.setflags(write=False)
        return weights

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.arange(self.n_points) * (self.length / self.n_points)
        x.setflags(write=False)
        return x

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @property
    def fundamental(self) -> float:
        """Smallest positive lattice frequency 2*pi/L."""
        return 2.0 * np.pi / self.length

    @property
    def max_frequency(self) -> float:
        """Largest paired positive frequency, (2*pi/L)*(N/2 - 1)."""
        return self.fundamental * (self.n_points // 2 - 1)

    @property
    def nyquist_index(self) -> int:
        return self.n_points // 2


@dataclass(frozen=True)
class RealField:
    """Real-valued field stored by its half spectrum (``np.fft.rfft`` order).

    The constructor requires the self-conjugate slots 0 and N/2 to be real
    to ``HERMITIAN_RTOL`` and stores them real; the negative frequencies are
    the conjugates of the stored ones by construction.  Instances are
    immutable; operations return new fields.
    """

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (self.grid.n_points // 2 + 1,):
            raise ContractError("coefficient array must have shape (n_points//2 + 1,)")
        if not np.all(np.isfinite(coeffs)):
            raise ContractError("coefficients must be finite")
        ends = coeffs[[0, -1]]
        scale = max(1.0, np.max(np.abs(coeffs)))
        if np.max(np.abs(ends - ends.conj())) > HERMITIAN_RTOL * scale:
            raise ContractError("zero and Nyquist coefficients must be real")
        coeffs[[0, -1]] = ends.real
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    # -- synthesis ---------------------------------------------------------

    def samples(self) -> np.ndarray:
        n = self.grid.n_points
        return np.fft.irfft(self.coeffs, n) * (n / self.grid.length)

    def mean(self) -> float:
        return float(self.coeffs[0].real) / self.grid.length

    def l2_norm(self) -> float:
        total = np.sum(self.grid.multiplicity * np.abs(self.coeffs) ** 2)
        return float(np.sqrt(total / self.grid.length))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.samples())))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "RealField") -> "RealField":
        self._require_same_grid(other)
        return RealField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "RealField") -> "RealField":
        self._require_same_grid(other)
        return RealField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "RealField":
        return RealField(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _require_same_grid(self, other: "RealField"):
        if other.grid != self.grid:
            raise ContractError("fields live on different grids")

    # -- geometry ----------------------------------------------------------

    def shifted(self, h: float) -> "RealField":
        """Translate by h: x -> u(x - h), exact in coefficient space.

        The Nyquist slot represents cos(xi_N x); its translate keeps only the
        cosine part (the sine component vanishes on the grid), so that slot
        is scaled by cos(xi_N h) and stays real.
        """
        phase = np.exp(-1j * self.grid.frequencies * h)
        coeffs = self.coeffs * phase
        ny = self.grid.nyquist_index
        coeffs[ny] = self.coeffs[ny].real * np.cos(self.grid.frequencies[ny] * h)
        return RealField(self.grid, coeffs)

    def embedded(self, n_points: int) -> "RealField":
        """Zero-pad onto a finer grid of the same length.

        The Nyquist coefficient is split half-and-half between +-N/2, which
        are paired modes of the finer lattice; the function values are kept.
        """
        n_old = self.grid.n_points
        if n_points < n_old or n_points % 2 != 0:
            raise ContractError("embedding target must be an even n_points >= source")
        if n_points == n_old:
            return self
        return RealField(SpectralGrid(self.grid.length, n_points),
                         _zero_padded(self.coeffs, n_points))


def _zero_padded(coeffs: np.ndarray, n_points: int) -> np.ndarray:
    """The half spectrum of ``RealField.embedded`` on ``n_points``, built
    without its grid."""
    half = coeffs.shape[0] - 1
    out = np.zeros(n_points // 2 + 1, dtype=np.complex128)
    out[:half] = coeffs[:half]
    out[half] = 0.5 * coeffs[half]
    return out


def forward_transform(samples: np.ndarray, grid: SpectralGrid) -> RealField:
    """Collocation transform of real samples into a RealField."""
    samples = np.asarray(samples)
    if samples.shape != (grid.n_points,):
        raise ContractError("sample array must have shape (n_points,)")
    if np.iscomplexobj(samples):
        raise ContractError("samples must be real")
    if not np.all(np.isfinite(samples)):
        raise ContractError("samples must be finite")
    coeffs = (grid.length / grid.n_points) * np.fft.rfft(samples.astype(float))
    return RealField(grid, coeffs)


@dataclass(frozen=True)
class SobolevIndex:
    """Regularity s with an inflation parameter kappa >= 1.

    The weight is <xi>_kappa = sqrt(kappa^2 + xi^2); kappa = 1 recovers the
    plain Sobolev bracket.
    """

    s: float
    kappa: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ContractError("s must be finite")
        if not np.isfinite(self.kappa) or self.kappa < 1.0:
            raise ContractError("kappa must satisfy kappa >= 1")
        if self.kappa > _KAPPA_MAX:
            raise ContractError("kappa = %.3g is too large: kappa^2 overflows"
                                % self.kappa)

    def bracket(self, xi: np.ndarray) -> np.ndarray:
        return np.sqrt(self.kappa ** 2 + np.asarray(xi) ** 2)


def sobolev_norms(grid: SpectralGrid, coeffs: np.ndarray,
                  index: SobolevIndex) -> np.ndarray:
    """Weighted norm (1/L * sum <xi>_kappa^(2s) |u_hat|^2)^(1/2) of each
    half spectrum along the last axis of ``coeffs``; a row's value does not
    depend on the rest of the stack."""
    w = grid.multiplicity * index.bracket(grid.frequencies) ** (2.0 * index.s)
    return np.sqrt((w * np.abs(coeffs) ** 2).sum(axis=-1) / grid.length)


def multiplier_apply(field: RealField, symbol) -> RealField:
    """Apply the Fourier multiplier ``symbol``, a callable xi -> value called
    once on ``grid.frequencies`` (xi >= 0; at -xi it acts by the conjugate
    value).  Values of another shape or that are not finite are a
    ContractError.

    The Nyquist slot gets the real part of the symbol, which zeroes it for
    odd (sign-discontinuous) symbols.
    """
    grid = field.grid
    values = np.asarray(symbol(grid.frequencies), dtype=np.complex128)
    if values.shape != grid.frequencies.shape:
        raise ContractError("symbol array must have shape (n_points//2 + 1,)")
    if not np.all(np.isfinite(values)):
        raise ContractError("symbol values must be finite")
    out = field.coeffs * values
    nyq = grid.nyquist_index
    out[nyq] = field.coeffs[nyq] * values[nyq].real
    return RealField(grid, out)
