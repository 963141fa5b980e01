"""Truncated nonnegative-frequency Lax matrix of the deep-water flow and
the resolvent functionals built on it.

For a real field u the operator -i d/dx + P_+(u .) acts on the Hardy space
of nonnegative frequencies.  Its truncation to 0 <= xi, eta <= xi_max has
entries eta*[xi == eta] + u_hat(xi - eta)/L and is Hermitian.  The quadratic
resolvent form

    form(kappa; u) = < P_+ u, (L_u + kappa)^(-1) P_+ u >

is nonnegative for admissible shifts, is conserved by the deep-water flow,
and its s-weighted integral in kappa is equivalent to the squared H^s_kappa
norm.  The weighted integral is evaluated on a frozen composite
Gauss-Kronrod rule in the substitution tau = kappa*exp(t), whose nodes are
then reused verbatim across the states of a trajectory so that differences
of the functional reflect dynamics rather than quadrature jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import ContractError, KappaTooSmallError, NumericalError
from .evolution import default_dt, evolve, make_bo, make_ilw
from .spectral import (
    RealField,
    SobolevIndex,
    SpectralGrid,
    forward_transform,
    hardy_embed,
    hardy_norm,
    hardy_project,
    sobolev_norm,
    synthesize,
)
from .symbols import apply_smoothing_dx

# 15-point Kronrod extension of 7-point Gauss; nodes on [-1, 1].
_K15_NODES = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])


def _panel_nodes(a: float, b: float):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pos = _K15_NODES[:-1]
    nodes = np.concatenate((mid - half * pos, [mid], mid + half * pos[::-1]))
    wk = np.concatenate((_K15_WEIGHTS[:-1], [_K15_WEIGHTS[-1]],
                         _K15_WEIGHTS[:-1][::-1])) * half
    # Gauss nodes sit at the odd Kronrod positions
    wg = np.zeros_like(wk)
    wg[1:-1:2] = np.concatenate((_G7_WEIGHTS[:-1], [_G7_WEIGHTS[-1]],
                                 _G7_WEIGHTS[:-1][::-1])) * half
    return nodes, wk, wg


@dataclass(frozen=True)
class LaxTruncation:
    """Hermitian truncation of the Lax matrix on the Hardy lattice."""

    grid: SpectralGrid
    xi_max: float
    frequencies: np.ndarray
    matrix: np.ndarray


def build_lax(u: RealField, xi_max: float) -> LaxTruncation:
    """Assemble the truncated matrix for all Hardy frequencies <= xi_max.

    Requires xi_max <= (grid max frequency)/2 so every convolution entry
    u_hat(xi - eta) is carried exactly by a well-resolved grid; embed the
    field on a finer grid first when a deeper truncation is needed.
    """
    grid = u.grid
    if not np.isfinite(xi_max) or xi_max <= 0:
        raise ContractError("xi_max must be positive")
    if xi_max > 0.5 * grid.max_frequency + 1e-9:
        raise ContractError("xi_max exceeds half the grid bandwidth; "
                            "embed the field on a finer grid first")
    n_modes = int(np.floor(xi_max / grid.fundamental + 1e-9)) + 1
    freqs = grid.fundamental * np.arange(n_modes)
    conv = u.coeffs[np.arange(n_modes)] / grid.length
    conv_neg = u.coeffs[(-np.arange(n_modes)) % grid.n_points] / grid.length
    matrix = scipy.linalg.toeplitz(conv, conv_neg)
    matrix[np.diag_indices(n_modes)] += freqs
    herm_gap = float(np.max(np.abs(matrix - matrix.conj().T)))
    if herm_gap > 1e-13 * max(1.0, float(np.max(np.abs(matrix)))):
        raise NumericalError("truncated Lax matrix lost Hermitian symmetry")
    return LaxTruncation(grid=grid, xi_max=xi_max, frequencies=freqs,
                         matrix=matrix)


def modes_to_xi_max(grid: SpectralGrid, n_modes: int) -> float:
    """Frequency cut carrying exactly ``n_modes`` Hardy modes (0 included)."""
    if n_modes < 1:
        raise ContractError("need at least one Hardy mode")
    return grid.fundamental * (n_modes - 1)


class LaxSpectrum:
    """Eigen-decomposition of one truncation, reused across resolvent shifts.

    All shifted solves reduce to scalar operations on the eigenvalues, so a
    single O(m^3) factorization serves every quadrature node.
    """

    def __init__(self, lax: LaxTruncation, u: RealField):
        if u.grid != lax.grid:
            raise ContractError("field and truncation grids differ")
        self.lax = lax
        self.grid = lax.grid
        self.u = u
        self.g = hardy_project(u)[: lax.frequencies.shape[0]]
        self.eigenvalues, self.eigenvectors = scipy.linalg.eigh(lax.matrix)
        self._coords = self.eigenvectors.conj().T @ self.g

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    def require_shift(self, tau: float):
        if self.lambda_min + tau <= 0.0:
            raise KappaTooSmallError(
                "shift %.6g does not clear lambda_min = %.6g"
                % (tau, self.lambda_min))

    def form_at(self, taus: np.ndarray) -> np.ndarray:
        """form(tau) = (1/L) sum |<w_j, g>|^2 / (lambda_j + tau), vectorized."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        self.require_shift(float(np.min(taus)))
        weights = np.abs(self._coords) ** 2 / self.grid.length
        return (weights[:, None] / (self.eigenvalues[:, None] + taus[None, :])).sum(axis=0)

    def m_at(self, taus: np.ndarray) -> np.ndarray:
        """Hardy coefficients of m(tau) = -(L_u + tau)^(-1) P_+ u, one column
        per shift."""
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        self.require_shift(float(np.min(taus)))
        scaled = -self._coords[:, None] / (self.eigenvalues[:, None] + taus[None, :])
        return self.eigenvectors @ scaled

    def check_kappa(self, s: float, kappa: float, c_s: float = 1.0) -> KappaCheck:
        """Check kappa >= c_s*(1 + ||u||_{H^s_kappa})^(1/(2*sigma)), sigma =
        (1/2 + s)/2, plus positivity of the shifted truncation."""
        _require_weight_exponent(s)
        if kappa < 1.0:
            raise ContractError("kappa must be >= 1")
        if c_s <= 0:
            raise ContractError("c_s must be positive")
        sigma = 0.5 * (0.5 + s)
        norm = sobolev_norm(self.u, SobolevIndex(s, kappa))
        threshold = c_s * (1.0 + norm) ** (1.0 / (2.0 * sigma))
        return KappaCheck(kappa=kappa, threshold=threshold,
                          lambda_min=self.lambda_min, norm=norm)

    def weighted_form(self, kappa: float, s: float,
                      rule: Optional[WeightedFormRule] = None,
                      rtol: float = 1e-8) -> WeightedFormProfile:
        """integral_kappa^inf tau^(2s) form(tau) dtau on a frozen rule.

        Pass the same ``rule`` for every state of a trajectory when the
        values will be differenced; the default builds a fresh rule adapted
        to this spectrum.
        """
        _require_weight_exponent(s)
        if kappa < 1.0:
            raise ContractError("kappa must be >= 1")
        self.require_shift(kappa)
        if rule is None:
            rule = build_weighted_rule(self.form_at, kappa, s, rtol)
        if abs(rule.kappa - kappa) > 1e-12 or abs(rule.s - s) > 1e-15:
            raise ContractError("rule was frozen for different (kappa, s)")
        values = self.form_at(rule.tau_nodes)
        tail_value = float(self.form_at(np.array([rule.tau_star]))[0])
        value = float(np.real(rule.combine(values, tail_value)))
        if value < 0.0:
            raise NumericalError("weighted form came out negative")
        return WeightedFormProfile(kappa=kappa, s=s, tau_nodes=rule.tau_nodes,
                                   form_values=values, value=value, rule=rule)


@dataclass(frozen=True)
class KappaCheck:
    """Outcome of the admissible-shift test at one state."""

    kappa: float
    threshold: float
    lambda_min: float
    norm: float

    @property
    def ok(self) -> bool:
        return self.kappa >= self.threshold and self.lambda_min + self.kappa > 0.0


def check_kappa(u: RealField, s: float, kappa: float, c_s: float = 1.0,
                xi_max: Optional[float] = None) -> KappaCheck:
    """Admissible-shift test of ``u``; see ``LaxSpectrum.check_kappa``."""
    if xi_max is None:
        xi_max = 0.5 * u.grid.max_frequency
    return LaxSpectrum(build_lax(u, xi_max), u).check_kappa(s, kappa, c_s)


def resolvent_solve(lax: LaxTruncation, kappa: float, g: np.ndarray) -> np.ndarray:
    """Solve (L_u + kappa) x = g by Cholesky with a residual check."""
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != lax.frequencies.shape:
        raise ContractError("right-hand side does not match the truncation")
    shifted = lax.matrix + kappa * np.eye(lax.frequencies.shape[0])
    try:
        factor = scipy.linalg.cho_factor(shifted, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise KappaTooSmallError(
            "shifted Lax matrix is not positive definite at kappa=%.6g"
            % kappa) from exc
    x = scipy.linalg.cho_solve(factor, g)
    gnorm = float(np.linalg.norm(g))
    if gnorm > 0.0:
        residual = float(np.linalg.norm(shifted @ x - g)) / gnorm
        if residual > 1e-12:
            raise NumericalError("resolvent solve residual %.3e" % residual)
    return x


@dataclass(frozen=True)
class ResolventState:
    """The auxiliary state m = -(L_u + kappa)^(-1) P_+ u with diagnostics."""

    kappa: float
    frequencies: np.ndarray
    coeffs: np.ndarray
    norms: dict


def resolvent_state(u: RealField, kappa: float, xi_max: Optional[float] = None,
                    s: Optional[float] = None) -> ResolventState:
    if xi_max is None:
        xi_max = 0.5 * u.grid.max_frequency
    lax = build_lax(u, xi_max)
    g = hardy_project(u)[: lax.frequencies.shape[0]]
    m = -resolvent_solve(lax, kappa, g)
    norms = {}
    if s is not None:
        norms["m_smoothed"] = hardy_norm(m, lax.frequencies, u.grid.length,
                                         SobolevIndex(s + 1.0, kappa))
        norms["m_plain"] = hardy_norm(m, lax.frequencies, u.grid.length,
                                      SobolevIndex(s, 1.0))
        norms["u"] = sobolev_norm(u, SobolevIndex(s, kappa))
        norms["u_plain"] = sobolev_norm(u, SobolevIndex(s, 1.0))
    return ResolventState(kappa=kappa, frequencies=lax.frequencies,
                          coeffs=m, norms=norms)


def resolvent_form(u: RealField, kappa: float, xi_max: Optional[float] = None) -> float:
    """form(kappa; u) through two routes, cross-checked.

    Route one pairs the Hardy data with the resolvent image in coefficient
    space; route two synthesizes m and integrates -u*m over the period.
    They agree to rounding because m has no negative frequencies.
    """
    if xi_max is None:
        xi_max = 0.5 * u.grid.max_frequency
    lax = build_lax(u, xi_max)
    g = hardy_project(u)[: lax.frequencies.shape[0]]
    m = -resolvent_solve(lax, kappa, g)
    grid = u.grid
    route_coeff = -np.vdot(g, m) / grid.length
    m_phys = synthesize(grid, hardy_embed(grid, m))
    route_phys = -np.sum(u.samples() * m_phys) * grid.spacing
    if abs(route_coeff.imag) > 1e-11 * (1.0 + abs(route_coeff.real)):
        raise NumericalError("resolvent form acquired an imaginary part")
    if abs(route_coeff - route_phys) > 1e-11 * (1.0 + abs(route_coeff)):
        raise NumericalError(
            "resolvent form routes disagree: %.15e vs %.15e"
            % (route_coeff.real, route_phys.real))
    value = route_coeff.real
    if value < -1e-12 * (1.0 + abs(value)):
        raise KappaTooSmallError("resolvent form is negative; raise kappa")
    return float(value)


def resolvent_form_gradient(u: RealField, kappa: float,
                            xi_max: Optional[float] = None) -> RealField:
    """Variational derivative -(m + conj(m) + |m|^2) as a real field."""
    state = resolvent_state(u, kappa, xi_max)
    m_phys = synthesize(u.grid, hardy_embed(u.grid, state.coeffs))
    samples = -(2.0 * m_phys.real + np.abs(m_phys) ** 2)
    return forward_transform(samples, u.grid)


# -- weighted integral -----------------------------------------------------------

def _require_weight_exponent(s: float):
    if not -0.5 < s < 0.0:
        raise ContractError("the weighted form needs s in (-1/2, 0)")


@dataclass(frozen=True)
class WeightedFormRule:
    """Frozen quadrature for integral_kappa^inf tau^(2s) form(tau) dtau.

    Substituting tau = kappa*exp(t) turns the weight into
    kappa^(2s+1)*exp((2s+1)t) against a geometrically decaying integrand.
    ``tau_nodes``/``weights`` give the finite part; the tail beyond
    tau_star adds tail_coeff * form(tau_star) under the 1/tau decay model.
    """

    kappa: float
    s: float
    panel_edges: np.ndarray
    tau_nodes: np.ndarray
    weights: np.ndarray
    tau_star: float
    tail_coeff: float
    build_error: float

    def combine(self, node_values: np.ndarray, tail_value) -> complex:
        return (self.weights * node_values).sum() + self.tail_coeff * tail_value

    @property
    def sigma(self) -> float:
        return 0.5 * (0.5 + self.s)


def _weighted_integrand_factory(form_at: Callable, kappa: float, s: float):
    scale = kappa ** (2.0 * s + 1.0)

    def h(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return scale * np.exp((2.0 * s + 1.0) * t) * form_at(kappa * np.exp(t))

    return h


def build_weighted_rule(form_at: Callable, kappa: float, s: float,
                        rtol: float = 1e-8) -> WeightedFormRule:
    """Adapt panels on the reference profile, then freeze them.

    The horizon grows until the modeled tail drops below 1e-9 of the total;
    panels then bisect (worst first) until the Gauss/Kronrod gap is below
    ``rtol`` of the integral.  Raises NumericalError with the panel map if
    the refinement stalls.
    """
    _require_weight_exponent(s)
    if kappa < 1.0:
        raise ContractError("kappa must be >= 1")
    h = _weighted_integrand_factory(form_at, kappa, s)

    def tail_at(t_star: float) -> float:
        tau_star = kappa * np.exp(t_star)
        return float(form_at(np.array([tau_star]))[0]
                     * tau_star ** (2.0 * s + 1.0) / (2.0 * abs(s)))

    reference = float(form_at(np.array([kappa]))[0])
    if reference == 0.0:
        # zero state: any rule integrates it exactly
        nodes, wk, _ = _panel_nodes(0.0, 2.0)
        return WeightedFormRule(kappa=kappa, s=s,
                                panel_edges=np.array([0.0, 2.0]),
                                tau_nodes=kappa * np.exp(nodes),
                                weights=np.zeros_like(wk),
                                tau_star=kappa * np.exp(2.0),
                                tail_coeff=0.0, build_error=0.0)

    # grow the horizon a panel at a time; those panels seed the refinement
    t_star, rough, results = 0.0, 0.0, {}
    while True:
        panel = (t_star, t_star + 2.0)
        results[panel] = _gk_panel(h, *panel)
        rough += results[panel][0]
        t_star = panel[1]
        tail = tail_at(t_star)
        if tail <= 1e-9 * (abs(rough) + tail):
            break
        if t_star >= 400.0:
            raise NumericalError("weighted-form horizon runaway")

    for _ in range(400):
        total = sum(r[0] for r in results.values())
        err = sum(r[1] for r in results.values())
        if err <= rtol * abs(total):
            break
        worst = max(results, key=lambda p: results[p][1])
        a, b = worst
        mid = 0.5 * (a + b)
        del results[worst]
        results[(a, mid)] = _gk_panel(h, a, mid)
        results[(mid, b)] = _gk_panel(h, mid, b)
    else:
        dump = sorted(results)
        raise NumericalError("weighted-form quadrature stalled; panels: %s"
                             % dump)

    edges = sorted({edge for p in results for edge in p})
    t_nodes, t_weights = [], []
    for a, b in sorted(results):
        nodes, wk, _ = _panel_nodes(a, b)
        t_nodes.append(nodes)
        t_weights.append(wk)
    t_nodes = np.concatenate(t_nodes)
    t_weights = np.concatenate(t_weights)
    scale = kappa ** (2.0 * s + 1.0)
    weights = t_weights * scale * np.exp((2.0 * s + 1.0) * t_nodes)
    tau_star = kappa * np.exp(t_star)
    return WeightedFormRule(kappa=kappa, s=s,
                            panel_edges=np.asarray(edges),
                            tau_nodes=kappa * np.exp(t_nodes),
                            weights=weights,
                            tau_star=tau_star,
                            tail_coeff=tau_star ** (2.0 * s + 1.0) / (2.0 * abs(s)),
                            build_error=float(err / abs(total)))


def _gk_panel(h: Callable, a: float, b: float):
    nodes, wk, wg = _panel_nodes(a, b)
    vals = h(nodes)
    kronrod = float(np.sum(wk * vals))
    gauss = float(np.sum(wg * vals))
    return kronrod, abs(kronrod - gauss)


@dataclass(frozen=True)
class WeightedFormProfile:
    """The weighted integral with the profile it was assembled from."""

    kappa: float
    s: float
    tau_nodes: np.ndarray
    form_values: np.ndarray
    value: float
    rule: WeightedFormRule

    @property
    def sigma(self) -> float:
        sigma = 0.5 * (0.5 + self.s)
        if not 0.0 < sigma < 0.25:
            raise ContractError("sigma left (0, 1/4); s out of range")
        return sigma

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("tau,form\n")
            for tau, val in zip(self.tau_nodes, self.form_values):
                fh.write("%s,%s\n" % (repr(float(tau)), repr(float(val))))


def weighted_resolvent_form(u: RealField, kappa: float, s: float,
                            xi_max: Optional[float] = None,
                            rule: Optional[WeightedFormRule] = None,
                            rtol: float = 1e-8) -> WeightedFormProfile:
    """integral_kappa^inf tau^(2s) form(tau; u) dtau on a frozen rule; see
    ``LaxSpectrum.weighted_form``."""
    if xi_max is None:
        xi_max = 0.5 * u.grid.max_frequency
    return LaxSpectrum(build_lax(u, xi_max), u).weighted_form(kappa, s, rule, rtol)


@dataclass(frozen=True)
class FlowDerivative:
    """Time derivative of the weighted form along the finite-depth flow,
    split by the source term: I1 from m, I2 from conj(m), I3 from |m|^2."""

    I1: complex
    I2: complex
    I3: float
    total: float


def form_flow_derivative(u: RealField, kappa: float, depth: float, s: float,
                         xi_max: Optional[float] = None,
                         rule: Optional[WeightedFormRule] = None) -> FlowDerivative:
    """Evaluate d/dt of the weighted form via the commutator identity.

    Under the deep-water part of the flow the form is exactly conserved, so
    the derivative reduces to the pairing of the gradient with the
    smoothing-derivative term:

        d/dt = -integral tau^(2s) integral (m + conj(m) + |m|^2)
               (smoothing d/dx u) dx dtau.

    The outer integral reuses the weighted-form rule so the value is
    directly comparable with finite differences of the same functional.
    """
    _require_weight_exponent(s)
    if xi_max is None:
        xi_max = 0.5 * u.grid.max_frequency
    grid = u.grid
    spectrum = LaxSpectrum(build_lax(u, xi_max), u)
    spectrum.require_shift(kappa)
    if rule is None:
        rule = build_weighted_rule(spectrum.form_at, kappa, s)

    q = apply_smoothing_dx(u, depth).samples()
    taus = np.concatenate((rule.tau_nodes, [rule.tau_star]))
    m_cols = spectrum.m_at(taus)
    n_modes = m_cols.shape[0]
    full = np.zeros((taus.shape[0], grid.n_points), dtype=np.complex128)
    full[:, :n_modes] = m_cols.T
    m_phys = np.fft.ifft(full, axis=1) * (grid.n_points / grid.length)

    i1_nodes = -(m_phys @ q) * grid.spacing
    i3_nodes = -((np.abs(m_phys) ** 2) @ q) * grid.spacing
    i1 = complex(rule.combine(i1_nodes[:-1], i1_nodes[-1]))
    i3_c = complex(rule.combine(i3_nodes[:-1], i3_nodes[-1]))
    i2 = i1.conjugate()
    total = 2.0 * i1.real + i3_c.real
    return FlowDerivative(I1=i1, I2=i2, I3=i3_c.real, total=total)


# -- growth experiments -----------------------------------------------------------

@dataclass(frozen=True)
class GrowthReport:
    """Weighted-form trace along one run with its fitted growth rate."""

    depth: Optional[float]
    s: float
    kappa: float
    equation: str
    times: np.ndarray
    form_values: np.ndarray
    a_hat: float
    bound_ok: bool
    a_reference: float
    kappa_margin: float

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "s": self.s,
            "kappa": self.kappa,
            "equation": self.equation,
            "a_hat": self.a_hat,
            "bound_ok": bool(self.bound_ok),
            "a_reference": self.a_reference,
            "kappa_margin": self.kappa_margin,
            "form_initial": float(self.form_values[0]),
            "form_final": float(self.form_values[-1]),
        }


def gronwall_experiment(u0: RealField, depth: Optional[float], s: float,
                        kappa: float, t_final: float = 1.0,
                        dt: Optional[float] = None, n_samples: int = 100,
                        xi_max: Optional[float] = None, c_s: float = 1.0,
                        epsilon: float = 0.01,
                        equation: str = "ilw") -> GrowthReport:
    """Track the weighted form along a run and fit its exponential rate.

    The fitted rate is the worst absolute log-slope between consecutive
    samples, i.e. the empirical Lipschitz rate of log form(t); the drift can
    have either sign, and the unsigned rate is what scales with the
    depth-correction strength.  The report also checks
    form(t) <= exp(a_hat * t) * form(0) pointwise and that the
    admissible-shift condition holds at every sample (a NumericalError
    aborts the run otherwise).  ``equation="bo"`` drops the depth
    correction, under which the form is conserved and a_hat collapses to
    integrator noise.
    """
    _require_weight_exponent(s)
    grid = u0.grid
    if equation == "ilw":
        if depth is None:
            raise ContractError("the finite-depth run needs a depth")
        problem = make_ilw(depth, grid)
    elif equation == "bo":
        problem = make_bo(grid)
    else:
        raise ContractError("equation must be 'ilw' or 'bo'")
    if xi_max is None:
        xi_max = 0.5 * grid.max_frequency

    if n_samples < 1:
        raise ContractError("n_samples must be positive")
    if dt is None:
        dt = default_dt(problem, u0)
    n_steps = max(1, int(round(t_final / dt)))
    stride = max(1, n_steps // n_samples)
    trajectory = evolve(problem, u0, t_final, dt, store_stride=stride,
                        monitors={})

    rule = None
    values = []
    margin = np.inf
    for state in trajectory.states:
        spectrum = LaxSpectrum(build_lax(state, xi_max), state)
        if rule is None:
            # states[0] is u0: the rule is frozen on the initial profile
            rule = build_weighted_rule(spectrum.form_at, kappa, s)
            if not rule.weights.any():
                # all weights vanish exactly when form(kappa; u0) = 0
                raise ContractError("initial data has zero weighted form; "
                                    "no growth rate can be fitted")
        check = spectrum.check_kappa(s, kappa, c_s)
        if not check.ok:
            raise NumericalError(
                "admissible-shift condition failed along the run: "
                "kappa=%.4g threshold=%.4g lambda_min=%.4g"
                % (check.kappa, check.threshold, check.lambda_min))
        margin = min(margin, kappa - check.threshold)
        values.append(spectrum.weighted_form(kappa, s, rule).value)
    values = np.asarray(values)
    times = trajectory.times

    slopes = np.diff(np.log(values)) / np.diff(times)
    a_hat = float(np.max(np.abs(slopes)))
    bound = values[0] * np.exp(a_hat * times)
    bound_ok = bool(np.all(values <= bound * (1.0 + 1e-6)))
    a_reference = (depth ** -2.0 * (1.0 + depth ** (-abs(s) - 0.5 - epsilon))
                   if depth is not None else 0.0)
    return GrowthReport(depth=depth, s=s, kappa=kappa, equation=equation,
                        times=times, form_values=values, a_hat=a_hat,
                        bound_ok=bound_ok, a_reference=a_reference,
                        kappa_margin=float(margin))


@dataclass(frozen=True)
class AprioriBound:
    """One evaluation of the closed-form growth bound against the flow."""

    t: float
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs


def apriori_bound(u0: RealField, s: float, depth: float, t: float,
                  c_s: float, a_rate: float,
                  dt: Optional[float] = None) -> AprioriBound:
    """Compare ||u(t)||_{H^s} with the closed-form bound

        c_s^(|s|+1) * exp(a*t) * (1 + 2*c_s*exp(a*t)*||u0||)^(2|s|/(1-2|s|))
            * ||u0||_{H^s}.
    """
    _require_weight_exponent(s)
    index = SobolevIndex(s, 1.0)
    problem = make_ilw(depth, u0.grid)
    trajectory = evolve(problem, u0, t, dt, monitors={})
    lhs = sobolev_norm(trajectory.final(), index)
    n0 = sobolev_norm(u0, index)
    growth = np.exp(a_rate * t)
    power = 2.0 * abs(s) / (1.0 - 2.0 * abs(s))
    rhs = (c_s ** (abs(s) + 1.0) * growth
           * (1.0 + 2.0 * c_s * growth * n0) ** power * n0)
    return AprioriBound(t=t, lhs=lhs, rhs=float(rhs))
