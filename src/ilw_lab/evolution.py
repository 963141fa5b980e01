"""Pseudo-spectral time integration of the dispersive model family

    du/dt = (dispersive symbol) u + d/dx (u^2),

covering the finite-depth equation, its deep-water (Benjamin-Ono) limit,
and the two-depth variant.  The linear part is integrated exactly; the
quadratic term is dealiased with the 2/3 rule and advanced with the
fourth-order exponential integrator of Cox & Matthews, with the phi-
coefficients evaluated by contour averaging as in Kassam & Trefethen
(SIAM J. Sci. Comput. 26, 2005).  The 2/3 band is a prefix of the half
spectrum, so the stages and the quadratic term are computed on that band
alone, and the modes past it advance by the linear propagator.  Each
problem carries the symbol of the energy its flow conserves, and a
trajectory's ``hamiltonian`` diagnostic reads it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BlowUpError, ContractError
from .spectral import RealField, SpectralGrid, _zero_padded
from .symbols import (
    coth_dx2_symbol,
    depth_dispersion_dx_symbol,
    hilbert_dx2_symbol,
    smoothing_symbol,
)

_BLOWUP_FACTOR = 1e6
_CONTOUR_POINTS = 32
# the longest run accepted; 1e7 steps at N = 256 take tens of minutes
MAX_STEPS = 10_000_000
# the most members a gronwall ensemble accepts; each is one row of every
# ETDRK4 stage
MAX_MEMBERS = 10_000
# the 2/3 rule: the largest band whose quadratic products do not alias
_DEALIAS_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class EvolutionProblem:
    """Grid, linear dispersion symbol, and the energy the flow conserves.

    ``linear_symbol`` lives on ``grid.frequencies`` and must be purely
    imaginary so the linear flow is unitary; the Nyquist entry is zeroed.
    ``energy_symbol`` is the real symbol of the quadratic part of the
    Hamiltonian that the flow conserves (see ``hamiltonian``), on the same
    frequencies with its Nyquist entry kept, or None for a flow whose
    energy is not monitored.
    """

    grid: SpectralGrid
    linear_symbol: np.ndarray
    energy_symbol: Optional[np.ndarray]

    def __post_init__(self):
        sym = np.asarray(self.linear_symbol, dtype=np.complex128)
        if sym.shape != self.grid.frequencies.shape:
            raise ContractError("linear symbol must match the grid")
        scale = max(1.0, float(np.max(np.abs(sym))))
        if float(np.max(np.abs(sym.real))) > 1e-12 * scale:
            raise ContractError("linear symbol must be purely imaginary")
        sym = sym.copy()
        sym[self.grid.nyquist_index] = 0.0
        sym.setflags(write=False)
        object.__setattr__(self, "linear_symbol", sym)
        if self.energy_symbol is not None:
            energy = np.array(self.energy_symbol, dtype=float)
            if energy.shape != sym.shape:
                raise ContractError("energy symbol must match the grid")
            energy.setflags(write=False)
            object.__setattr__(self, "energy_symbol", energy)

    @cached_property
    def quadratic_factor(self) -> np.ndarray:
        """i*xi/(N*L) on the band the 2/3 rule keeps, which is a prefix of
        the half spectrum; its length is the band's width.  It carries the
        scales of both transforms of ``_nonlinear_coeffs``."""
        grid = self.grid
        cutoff = _DEALIAS_FRACTION * grid.fundamental * (grid.n_points // 2)
        width = np.count_nonzero(grid.frequencies < cutoff - 1e-12)
        factor = 1j * grid.frequencies[:width] / (grid.n_points * grid.length)
        factor.setflags(write=False)
        return factor


def make_ilw(depth: float, grid: SpectralGrid) -> EvolutionProblem:
    """Finite-depth problem: symbol i*xi^2*(coth(depth*xi) - 1/(depth*xi)),
    i*xi times its energy symbol xi*coth(depth*xi) - 1/depth."""
    xi = grid.frequencies
    energy = depth_dispersion_dx_symbol(xi, depth)
    return EvolutionProblem(grid=grid, linear_symbol=1j * xi * energy,
                            energy_symbol=energy)


def make_bo(grid: SpectralGrid) -> EvolutionProblem:
    """Deep-water limit: symbol i*xi*|xi|, i*xi times its energy symbol
    |xi|."""
    xi = grid.frequencies
    energy = np.abs(xi)
    return EvolutionProblem(grid=grid, linear_symbol=1j * xi * energy,
                            energy_symbol=energy)


def make_problem(equation: str, depth: Optional[float],
                 grid: SpectralGrid) -> EvolutionProblem:
    """``make_ilw`` at ``depth`` for "ilw", ``make_bo`` for "bo"."""
    if equation == "ilw":
        if depth is None:
            raise ContractError("the finite-depth run needs a depth")
        return make_ilw(depth, grid)
    if equation == "bo":
        return make_bo(grid)
    raise ContractError("equation must be 'ilw' or 'bo'")


def make_two_depth(c1: float, c2: float, depth1: float, depth2: float,
                   grid: SpectralGrid, frame: str = "renormalized") -> EvolutionProblem:
    """Two-depth problem c1*T_{depth1} + c2*T_{depth2} acting through dx2.

    ``frame="renormalized"`` uses the pure coth symbols (the transport part
    removed by the Galilean change of frame); ``frame="original"`` keeps the
    full finite-depth symbols, which differ exactly by the drift
    gamma = c1/depth1 + c2/depth2 times i*xi.
    """
    if c1 <= 0 or c2 < 0:
        raise ContractError("two-depth weights need c1 > 0, c2 >= 0")
    if frame not in ("renormalized", "original"):
        raise ContractError("frame must be 'renormalized' or 'original'")
    xi = grid.frequencies
    sym = c1 * coth_dx2_symbol(xi, depth1) + c2 * coth_dx2_symbol(xi, depth2)
    if frame == "original":
        gamma = c1 / depth1 + c2 / depth2
        sym = sym - 1j * gamma * xi
    return EvolutionProblem(grid=grid, linear_symbol=sym, energy_symbol=None)


def make_bo_two_speed(c1: float, c2: float, grid: SpectralGrid) -> EvolutionProblem:
    """Deep-water limit of the two-depth problem: (c1 + c2) * i*xi*|xi|."""
    if c1 <= 0 or c2 < 0:
        raise ContractError("two-depth weights need c1 > 0, c2 >= 0")
    sym = (c1 + c2) * hilbert_dx2_symbol(grid.frequencies)
    return EvolutionProblem(grid=grid, linear_symbol=sym, energy_symbol=None)


# -- right-hand side ---------------------------------------------------------

def _nonlinear_coeffs(problem: EvolutionProblem, band: np.ndarray,
                      out: Optional[np.ndarray] = None,
                      real: Optional[np.ndarray] = None,
                      spectrum: Optional[np.ndarray] = None) -> np.ndarray:
    """The dealiased d/dx (u^2) on the 2/3 band: ``band`` holds the first
    ``len(problem.quadratic_factor)`` coefficients of a half spectrum (or
    of each row of a stack), and so does the result; past the band the
    term is exactly 0.  ``out``, ``real`` (the N samples) and ``spectrum``
    (the half spectrum) are optional work buffers, so a caller that steps
    allocates none per call."""
    real = np.fft.irfft(band, problem.grid.n_points, norm="forward", out=real)
    np.square(real, out=real)
    spectrum = np.fft.rfft(real, out=spectrum)
    return np.multiply(spectrum[..., :band.shape[-1]], problem.quadratic_factor,
                       out=out)


def rhs(problem: EvolutionProblem, state: RealField) -> RealField:
    """Full semi-discrete right-hand side at a state."""
    if state.grid != problem.grid:
        raise ContractError("state grid does not match the problem grid")
    out = problem.linear_symbol * state.coeffs
    width = problem.quadratic_factor.shape[0]
    out[:width] += _nonlinear_coeffs(problem, state.coeffs[:width])
    return RealField(problem.grid, out)


def default_dt(problem: EvolutionProblem, state: RealField) -> float:
    """Advisory step: min(1e-3, 0.5 / (xi_max * (1 + sup|u0|)))."""
    xi_max = problem.grid.fundamental * (problem.grid.n_points // 2)
    return min(1e-3, 0.5 / (xi_max * (1.0 + state.sup_norm())))


def default_step(problem: EvolutionProblem, state: RealField,
                 t_final: float) -> float:
    """``default_dt``, checked by ``step_count`` against ``t_final``.

    The default step shrinks with sup|u0|, so a run that needs more than
    ``MAX_STEPS`` of them is a ContractError naming the step and sup|u0|.
    """
    dt = default_dt(problem, state)
    try:
        step_count(t_final, dt)
    except ContractError as exc:
        if not t_final > 0:
            raise
        raise ContractError("%s: the default step is %.3g at sup|u0| = %.3g"
                            % (exc, dt, state.sup_norm())) from exc
    return dt


# -- diagnostics --------------------------------------------------------------

def mass(state: RealField) -> float:
    """M(u) = 1/2 integral u^2."""
    return 0.5 * state.l2_norm() ** 2


def _cubic_integral(state: RealField) -> float:
    # zero-pad to 2N so the trapezoid sum of u^3 is alias-free; no 2N grid
    # is built, so a state on a MAX_POINTS grid has one too
    n_fine = 2 * state.grid.n_points
    u = np.fft.irfft(_zero_padded(state.coeffs, n_fine), n_fine) \
        * (n_fine / state.grid.length)
    return float(np.sum(u ** 3) * (state.grid.length / n_fine))


def quadratic_energy(state: RealField, symbol_values: np.ndarray) -> float:
    """1/2 integral u*(E u) for the real symbol E on the half lattice."""
    weights = state.grid.multiplicity * symbol_values
    total = np.sum(weights * np.abs(state.coeffs) ** 2) / state.grid.length
    return 0.5 * float(total.real)


def hamiltonian(state: RealField, energy_symbol: np.ndarray) -> float:
    """H = 1/2 integral u*(E u) + 1/3 integral u^3, where E is the real
    energy symbol of a flow (``EvolutionProblem.energy_symbol``): |xi|, the
    symbol of the Hilbert transform of d/dx, for the deep-water flow and
    xi*coth(depth*xi) - 1/depth for the finite-depth one."""
    return quadratic_energy(state, energy_symbol) + _cubic_integral(state) / 3.0


def quadratic_energy_decomposed(state: RealField, depth: float) -> float:
    """The quadratic part of the finite-depth energy from its three parts:
    the deep-water one perturbed by the mass and the smoothing term,
    1/2 integral u*(|D| u) - (1/depth)*M + 1/2 integral u*(smoothing u).
    The cubic part of the energy is the same for every flow, so this agrees
    with ``quadratic_energy`` on the ``make_ilw`` energy symbol to
    rounding, and ``simulate`` checks that at every stored state; a
    persistent gap means a symbol regression."""
    xi = state.grid.frequencies
    return (quadratic_energy(state, np.abs(xi)) - mass(state) / depth
            + quadratic_energy(state, smoothing_symbol(xi, depth)))


# -- time stepping ------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled states of one evolution run."""

    problem: EvolutionProblem
    times: np.ndarray
    states: list

    @cached_property
    def diagnostics(self) -> dict:
        """mass, mean, l2 and sup at every stored state, and the
        ``hamiltonian`` of a problem with an energy symbol; evaluated when
        first read."""
        monitors = {"mass": mass, "mean": RealField.mean,
                    "l2": RealField.l2_norm, "sup": RealField.sup_norm}
        energy = self.problem.energy_symbol
        if energy is not None:
            monitors["hamiltonian"] = lambda u: hamiltonian(u, energy)
        return {name: np.asarray([fn(state) for state in self.states])
                for name, fn in monitors.items()}

    def final(self) -> RealField:
        return self.states[-1]


def _etdrk4_tables(symbol: np.ndarray, dt: float):
    """Exponential propagators and contour-averaged stage coefficients."""
    lam = dt * symbol
    exp_full = np.exp(lam)
    exp_half = np.exp(0.5 * lam)
    m = _CONTOUR_POINTS
    roots = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
    lr = lam[:, None] + roots[None, :]
    elr = np.exp(lr)
    f0 = dt * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
    f1 = dt * np.mean((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr ** 2)) / lr ** 3, axis=1)
    f2 = dt * np.mean((2.0 + lr + elr * (-2.0 + lr)) / lr ** 3, axis=1)
    f3 = dt * np.mean((-4.0 - 3.0 * lr - lr ** 2 + elr * (4.0 - lr)) / lr ** 3, axis=1)
    return exp_full, exp_half, f0, f1, f2, f3


def step_count(t_final: float, dt: float) -> tuple:
    """Steps that land exactly on ``t_final``, and the step rounded to fit.

    Raises ContractError for a nonpositive ``t_final`` or ``dt`` and for a
    run of more than ``MAX_STEPS`` steps.
    """
    if not t_final > 0:
        raise ContractError("t_final must be positive")
    if not dt > 0:
        raise ContractError("dt must be positive")
    ratio = t_final / dt
    if not ratio < MAX_STEPS + 0.5:
        raise ContractError("t_final/dt = %.3g exceeds the limit of %d steps"
                            % (ratio, MAX_STEPS))
    n_steps = max(1, int(round(ratio)))
    return n_steps, t_final / n_steps


def etdrk4_samples(problems: list, coeffs: np.ndarray,
                   t_final: float, dt: float, n_samples: int):
    """Advance a stack of half spectra, one state per row, to ``t_final``.

    ``coeffs`` has shape (B, N//2 + 1) and ``problems`` holds the problem of
    each row; they must share one grid, so only the linear symbol differs
    from row to row.  The phi-tables are computed once per distinct problem
    and gathered per row.  Every row takes the same steps, rounded as in
    ``step_count``; the scheme acts row by row, so a row evolves exactly as
    it would alone.  The stack is stepped in place on buffers allocated
    once: the stages and the quadratic term live on the band the 2/3 rule
    keeps (a prefix of the half spectrum), and the modes past it, where
    the quadratic term is exactly 0, advance by the linear propagator
    alone.  Yields ``(t, coeffs)`` at t = 0, every
    ``max(1, n_steps // n_samples)`` steps and at ``t_final``, where
    ``n_steps`` is the ``step_count`` of the run; each yielded array is a
    copy that is never modified afterwards.  A nonpositive ``n_samples`` is
    a ContractError raised before any step.  Each row keeps its own checks:
    an advisory CFL warning, and BlowUpError when it stops being finite or
    its sup-norm exceeds 1e6 times its initial one.
    """
    c = np.array(coeffs, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] != len(problems) or not problems:
        raise ContractError("states must be a non-empty (B, n_points//2 + 1) "
                            "stack with one problem per row")
    # the rows share the grid and the dealiasing band, so the nonlinear
    # term reads them from the first problem
    problem = problems[0]
    grid = problem.grid
    if any(p.grid != grid for p in problems):
        raise ContractError("problems live on different grids")
    if c.shape[1] != grid.frequencies.shape[0]:
        raise ContractError("states must be a (B, n_points//2 + 1) stack")
    n_steps, dt = step_count(t_final, dt)
    if n_samples < 1:
        raise ContractError("n_samples must be positive")
    stride = max(1, n_steps // n_samples)

    n = grid.n_points
    sup0 = np.max(np.abs(np.fft.irfft(c, n) * (n / grid.length)), axis=1)
    xi_max = grid.fundamental * (n // 2)
    for sup in sup0:
        if dt * xi_max * max(sup, 1e-30) > 0.5:
            warnings.warn("advisory CFL dt*xi_max*sup|u0| exceeds 0.5",
                          RuntimeWarning)
    blowup_level = _BLOWUP_FACTOR * np.maximum(sup0, 1e-30)

    distinct = {id(p): p for p in problems}
    order = list(distinct)
    rows = [order.index(id(p)) for p in problems]
    yield 0.0, c.copy()
    # one set of phi-tables per distinct problem, gathered per row; past the
    # band only exp_full acts
    width = problem.quadratic_factor.shape[0]
    tables = zip(*(_etdrk4_tables(p.linear_symbol, dt)
                   for p in distinct.values()))
    exp_full, exp_half, f0, f1, f2, f3 = (np.stack(t)[rows] for t in tables)
    exp_half, f0, f1, f3 = (np.ascontiguousarray(t[:, :width])
                            for t in (exp_half, f0, f1, f3))
    f2_twice = 2.0 * f2[:, :width]
    band = c[:, :width]
    half, a, b, d, n_a, n_b, n_c, n_d = np.empty((8,) + band.shape,
                                                 dtype=np.complex128)
    real, spectrum = np.empty((c.shape[0], n)), np.empty_like(c)
    for step in range(1, n_steps + 1):
        _nonlinear_coeffs(problem, band, n_a, real, spectrum)
        np.multiply(exp_half, band, out=half)
        np.multiply(f0, n_a, out=a)
        a += half
        _nonlinear_coeffs(problem, a, n_b, real, spectrum)
        np.multiply(f0, n_b, out=b)
        b += half
        _nonlinear_coeffs(problem, b, n_c, real, spectrum)
        # d = exp_half * a + f0 * (2 n_c - n_a)
        np.multiply(2.0, n_c, out=d)
        d -= n_a
        np.multiply(f0, d, out=d)
        np.multiply(exp_half, a, out=a)
        d += a
        _nonlinear_coeffs(problem, d, n_d, real, spectrum)
        # c = exp_full * c + f1 * n_a + 2 f2 * (n_b + n_c) + f3 * n_d
        n_b += n_c
        np.multiply(f2_twice, n_b, out=n_b)
        np.multiply(f1, n_a, out=n_a)
        np.multiply(f3, n_d, out=n_d)
        np.multiply(exp_full, c, out=c)
        band += n_a
        band += n_b
        band += n_d

        # cheap sup bound: (1/L) * sum over the full lattice of |u_hat| >= sup |u|;
        # abs and the sum carry inf and NaN into it, so it also tells a row
        # that stopped being finite
        bound = np.sum(grid.multiplicity * np.abs(c), axis=-1) / grid.length
        if not np.isfinite(bound).all():
            raise BlowUpError(step * dt, float("inf"))
        for row in np.flatnonzero(bound > blowup_level):
            sup = RealField(grid, c[row]).sup_norm()
            if sup > blowup_level[row]:
                raise BlowUpError(step * dt, sup)

        if step % stride == 0 or step == n_steps:
            yield step * dt, c.copy()


def evolve(problem: EvolutionProblem, initial: RealField, t_final: float,
           dt: Optional[float] = None, n_samples: int = 100) -> Trajectory:
    """Advance the problem to t_final and sample along the way.

    The step is rounded so an integer number of steps lands exactly on
    ``t_final``; more than ``MAX_STEPS`` steps is a ContractError.  States
    are recorded at the times ``etdrk4_samples`` yields for ``n_samples``;
    their diagnostics are evaluated when first read.  Raises BlowUpError when the state stops being finite or its
    sup-norm exceeds 1e6 times the initial one.
    The run is the one-row case of ``etdrk4_samples``, which steps in place
    on the dealiased band, and is deterministic given its inputs.
    """
    if initial.grid != problem.grid:
        raise ContractError("initial state grid does not match the problem grid")
    if dt is None:
        dt = default_step(problem, initial, t_final)

    times, states = [], []
    for t, c in etdrk4_samples([problem], initial.coeffs[None, :], t_final,
                               dt, n_samples):
        times.append(t)
        states.append(RealField(problem.grid, c[0]) if states else initial)
    return Trajectory(problem=problem, times=np.asarray(times), states=states)


def galilean(state: RealField, gamma: float, t: float) -> RealField:
    """Galilean image u(x - 2*gamma*t) - gamma of a state at time t, the
    symmetry of the single-depth family (the subtracted constant rides
    along with a doubled transport)."""
    out = state.shifted(2.0 * gamma * t)
    coeffs = out.coeffs.copy()
    coeffs[0] -= gamma * state.grid.length
    return RealField(state.grid, coeffs)


def relative_drift(values: np.ndarray) -> float:
    """Max relative deviation from the initial entry of a diagnostic series."""
    values = np.asarray(values, dtype=float)
    scale = max(abs(values[0]), 1e-300)
    return float(np.max(np.abs(values - values[0])) / scale)
