"""Pseudo-spectral time integration of the dispersive model family

    du/dt = (dispersive symbol) u + d/dx (u^2),

covering the finite-depth equation, its deep-water (Benjamin-Ono) limit,
and the two-depth variant.  The linear part is integrated exactly; the
quadratic term is dealiased with the 2/3 rule and advanced with the
fourth-order exponential integrator of Cox & Matthews, with the phi-
coefficients evaluated by contour averaging as in Kassam & Trefethen
(SIAM J. Sci. Comput. 26, 2005).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BlowUpError, ContractError
from .spectral import RealField, SpectralGrid
from .symbols import (
    coth_dx2_symbol,
    depth_dispersion_dx_symbol,
    depth_dispersion_dx2_symbol,
    hilbert_dx2_symbol,
    smoothing_symbol,
)

_BLOWUP_FACTOR = 1e6
_CONTOUR_POINTS = 32


@dataclass(frozen=True)
class EvolutionProblem:
    """Grid, linear dispersion symbol, and nonlinearity configuration.

    ``linear_symbol`` must be purely imaginary and odd-Hermitian so the
    linear flow is unitary; the Nyquist entry is zeroed at construction.
    ``depth`` is carried for Hamiltonian bookkeeping where applicable.
    """

    grid: SpectralGrid
    linear_symbol: np.ndarray
    label: str
    depth: Optional[float] = None
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        sym = np.asarray(self.linear_symbol, dtype=np.complex128)
        if sym.shape != (self.grid.n_points,):
            raise ContractError("linear symbol must match the grid")
        scale = max(1.0, float(np.max(np.abs(sym))))
        if float(np.max(np.abs(sym.real))) > 1e-12 * scale:
            raise ContractError("linear symbol must be purely imaginary")
        mirrored = np.conj(sym[self.grid._conjugate_index])
        gap = np.abs(sym - mirrored)
        gap[self.grid.nyquist_index] = 0.0
        if float(np.max(gap)) > 1e-12 * scale:
            raise ContractError("linear symbol must be odd-Hermitian")
        sym = sym.copy()
        sym[self.grid.nyquist_index] = 0.0
        sym.setflags(write=False)
        object.__setattr__(self, "linear_symbol", sym)
        if not 0.0 < self.dealias_fraction <= 2.0 / 3.0:
            raise ContractError("dealias fraction must lie in (0, 2/3] for a "
                                "quadratic nonlinearity")

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        cutoff = self.dealias_fraction * self.grid.fundamental * (self.grid.n_points // 2)
        mask = np.abs(self.grid.frequencies) < cutoff - 1e-12
        mask.setflags(write=False)
        return mask


def make_ilw(depth: float, grid: SpectralGrid) -> EvolutionProblem:
    """Finite-depth problem: symbol i*xi^2*(coth(depth*xi) - 1/(depth*xi))."""
    sym = depth_dispersion_dx2_symbol(grid.frequencies, depth)
    return EvolutionProblem(grid=grid, linear_symbol=sym, label="ilw", depth=depth)


def make_bo(grid: SpectralGrid) -> EvolutionProblem:
    """Deep-water limit: symbol i*xi*|xi|."""
    sym = hilbert_dx2_symbol(grid.frequencies)
    return EvolutionProblem(grid=grid, linear_symbol=sym, label="bo", depth=None)


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
    if depth1 <= 0 or depth2 <= 0:
        raise ContractError("depths must be positive")
    if frame not in ("renormalized", "original"):
        raise ContractError("frame must be 'renormalized' or 'original'")
    xi = grid.frequencies
    sym = c1 * coth_dx2_symbol(xi, depth1) + c2 * coth_dx2_symbol(xi, depth2)
    if frame == "original":
        gamma = c1 / depth1 + c2 / depth2
        sym = sym - 1j * gamma * xi
    label = "two_depth_%s" % frame
    return EvolutionProblem(grid=grid, linear_symbol=sym, label=label, depth=None)


def make_bo_two_speed(c1: float, c2: float, grid: SpectralGrid) -> EvolutionProblem:
    """Deep-water limit of the two-depth problem: (c1 + c2) * i*xi*|xi|."""
    if c1 <= 0 or c2 < 0:
        raise ContractError("two-depth weights need c1 > 0, c2 >= 0")
    sym = (c1 + c2) * hilbert_dx2_symbol(grid.frequencies)
    return EvolutionProblem(grid=grid, linear_symbol=sym, label="bo_two_speed",
                            depth=None)


# -- right-hand side ---------------------------------------------------------

def _nonlinear_coeffs(problem: EvolutionProblem, coeffs: np.ndarray) -> np.ndarray:
    grid = problem.grid
    mask = problem.dealias_mask
    w = np.where(mask, coeffs, 0.0)
    u = (np.fft.ifft(w) * (grid.n_points / grid.length)).real
    p = (grid.length / grid.n_points) * np.fft.fft(u * u)
    out = 1j * grid.frequencies * p
    return np.where(mask, out, 0.0)


def rhs(problem: EvolutionProblem, state: RealField) -> RealField:
    """Full semi-discrete right-hand side at a state."""
    if state.grid != problem.grid:
        raise ContractError("state grid does not match the problem grid")
    lin = problem.linear_symbol * state.coeffs
    return RealField(problem.grid, lin + _nonlinear_coeffs(problem, state.coeffs))


def default_dt(problem: EvolutionProblem, state: RealField) -> float:
    """Advisory step: min(1e-3, 0.5 / (xi_max * (1 + sup|u0|)))."""
    xi_max = problem.grid.fundamental * (problem.grid.n_points // 2)
    return min(1e-3, 0.5 / (xi_max * (1.0 + state.sup_norm())))


# -- diagnostics --------------------------------------------------------------

def mass(state: RealField) -> float:
    """M(u) = 1/2 integral u^2."""
    return 0.5 * state.l2_norm() ** 2


def _cubic_integral(state: RealField) -> float:
    # zero-pad to 2N so the trapezoid sum of u^3 is alias-free
    fine = state.embedded(2 * state.grid.n_points)
    u = fine.samples()
    return float(np.sum(u ** 3) * fine.grid.spacing)


def _quadratic_form(state: RealField, symbol_values: np.ndarray) -> float:
    total = np.sum(symbol_values * np.abs(state.coeffs) ** 2) / state.grid.length
    return float(total.real)


def hamiltonian_bo(state: RealField) -> float:
    """H = 1/2 integral u*(Hilbert d/dx u) + 1/3 integral u^3."""
    quad = _quadratic_form(state, np.abs(state.grid.frequencies))
    return 0.5 * quad + _cubic_integral(state) / 3.0


def hamiltonian_ilw(state: RealField, depth: float) -> float:
    """Finite-depth energy, checked against its three-part decomposition.

    Direct form:  1/2 integral u*(G d/dx u) + 1/3 integral u^3 with
    G d/dx symbol xi*coth(depth*xi) - 1/depth.  Decomposed form:
    H_bo - (1/depth)*M + 1/2 integral u*(smoothing u).  The two must agree
    to rounding; a persistent gap means a symbol regression.
    """
    xi = state.grid.frequencies
    cubic = _cubic_integral(state) / 3.0
    direct = 0.5 * _quadratic_form(state, depth_dispersion_dx_symbol(xi, depth)) + cubic
    decomposed = (hamiltonian_bo(state)
                  - mass(state) / depth
                  + 0.5 * _quadratic_form(state, smoothing_symbol(xi, depth)))
    gap = abs(direct - decomposed)
    if gap > 1e-12 * max(1.0, abs(direct)):
        raise AssertionError(
            "Hamiltonian decomposition identity violated (gap %.3e)" % gap)
    return direct


def default_monitors(problem: EvolutionProblem) -> dict:
    monitors = {
        "mass": mass,
        "mean": lambda u: u.mean(),
        "l2": lambda u: u.l2_norm(),
        "sup": lambda u: u.sup_norm(),
    }
    if problem.label == "ilw":
        depth = problem.depth
        monitors["hamiltonian"] = lambda u: hamiltonian_ilw(u, depth)
    elif problem.label == "bo":
        monitors["hamiltonian"] = hamiltonian_bo
    return monitors


# -- time stepping ------------------------------------------------------------

@dataclass
class Trajectory:
    """Sampled states and diagnostics of one evolution run."""

    problem: EvolutionProblem
    times: np.ndarray
    states: list
    diagnostics: dict

    def final(self) -> RealField:
        return self.states[-1]

    def write_csv(self, path):
        names = sorted(self.diagnostics)
        with open(path, "w") as fh:
            fh.write(",".join(["time"] + names) + "\n")
            for i, t in enumerate(self.times):
                row = [repr(float(t))]
                row += [repr(float(self.diagnostics[n][i])) for n in names]
                fh.write(",".join(row) + "\n")


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


def evolve(problem: EvolutionProblem, initial: RealField, t_final: float,
           dt: Optional[float] = None, monitors: Optional[dict] = None,
           store_stride: Optional[int] = None) -> Trajectory:
    """Advance the problem to t_final and sample along the way.

    The step is rounded so an integer number of steps lands exactly on
    ``t_final``.  States and diagnostics are recorded every ``store_stride``
    steps (defaults to roughly 100 samples along the run).  Raises
    BlowUpError when the state stops being finite or its sup-norm exceeds
    1e6 times the initial one.  The run is deterministic given its inputs.
    """
    if initial.grid != problem.grid:
        raise ContractError("initial state grid does not match the problem grid")
    if t_final <= 0:
        raise ContractError("t_final must be positive")
    if dt is None:
        dt = default_dt(problem, initial)
    if dt <= 0:
        raise ContractError("dt must be positive")
    n_steps = max(1, int(round(t_final / dt)))
    dt = t_final / n_steps
    if store_stride is None:
        store_stride = max(1, n_steps // 100)

    sup0 = initial.sup_norm()
    xi_max = problem.grid.fundamental * (problem.grid.n_points // 2)
    if dt * xi_max * max(sup0, 1e-30) > 0.5:
        warnings.warn("advisory CFL dt*xi_max*sup|u0| exceeds 0.5", RuntimeWarning)

    exp_full, exp_half, f0, f1, f2, f3 = _etdrk4_tables(problem.linear_symbol, dt)
    if monitors is None:
        monitors = default_monitors(problem)

    times = [0.0]
    states = [initial]
    diagnostics = {name: [fn(initial)] for name, fn in monitors.items()}

    c = initial.coeffs.copy()
    blowup_level = _BLOWUP_FACTOR * max(sup0, 1e-30)
    for step in range(1, n_steps + 1):
        n_a = _nonlinear_coeffs(problem, c)
        a = exp_half * c + f0 * n_a
        n_b = _nonlinear_coeffs(problem, a)
        b = exp_half * c + f0 * n_b
        n_c = _nonlinear_coeffs(problem, b)
        d = exp_half * a + f0 * (2.0 * n_c - n_a)
        n_d = _nonlinear_coeffs(problem, d)
        c = exp_full * c + f1 * n_a + 2.0 * f2 * (n_b + n_c) + f3 * n_d

        if not np.all(np.isfinite(c)):
            raise BlowUpError(step * dt, float("inf"))
        # cheap sup bound: (1/L) * sum |u_hat| >= sup |u|
        if float(np.sum(np.abs(c))) / problem.grid.length > blowup_level:
            state = RealField(problem.grid, c)
            sup = state.sup_norm()
            if sup > blowup_level:
                raise BlowUpError(step * dt, sup)

        if step % store_stride == 0 or step == n_steps:
            state = RealField(problem.grid, c)
            times.append(step * dt)
            states.append(state)
            for name, fn in monitors.items():
                diagnostics[name].append(fn(state))

    return Trajectory(problem=problem,
                      times=np.asarray(times),
                      states=states,
                      diagnostics={k: np.asarray(v) for k, v in diagnostics.items()})


def galilean(state: RealField, gamma: float, t: float, flavor: str) -> RealField:
    """Galilean images of a state at time t.

    ``shift_subtract``: u(x - 2*gamma*t) - gamma, the symmetry of the
    single-depth family (the subtracted constant rides along with a doubled
    transport).  ``pure_shift``: u(x + gamma*t), the change of frame used by
    the two-depth renormalization.
    """
    if flavor == "shift_subtract":
        out = state.shifted(2.0 * gamma * t)
        coeffs = out.coeffs.copy()
        coeffs[0] -= gamma * state.grid.length
        return RealField(state.grid, coeffs)
    if flavor == "pure_shift":
        return state.shifted(-gamma * t)
    raise ContractError("flavor must be 'shift_subtract' or 'pure_shift'")


def relative_drift(values: np.ndarray) -> float:
    """Max relative deviation from the initial entry of a diagnostic series."""
    values = np.asarray(values, dtype=float)
    scale = max(abs(values[0]), 1e-300)
    return float(np.max(np.abs(values - values[0])) / scale)
