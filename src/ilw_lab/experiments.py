"""Deterministic experiment drivers behind the command line.

Each runner consumes a resolved ExperimentConfig and returns its summary
numbers, its failed in-run checks and the bytes of its tables; it
touches no file.  ``run`` renders report.json and manifest.json, and only
then creates the output directory and writes every file, so a run that
raises leaves nothing behind, and a run whose checks fail writes them
all.  Given the same parameters and seed the tabular outputs are
byte-identical; only the manifest carries wall-clock information.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ContractError, NumericalError
from .evolution import (
    MAX_MEMBERS,
    default_step,
    etdrk4_samples,
    evolve,
    galilean,
    make_bo_two_speed,
    make_problem,
    make_two_depth,
    quadratic_energy,
    quadratic_energy_decomposed,
    relative_drift,
    step_count,
)
from .lax import KappaRule, LaxSpectrum, _shift_index, _truncation_size, \
    build_lax, build_weighted_rule, gronwall_ensemble, kappa_threshold, \
    modes_to_xi_max, resolvent_state
from .spectral import HERMITIAN_RTOL, RealField, SpectralGrid, sobolev_norms
from .symbols import smoothing_bound, smoothing_operator_scan
from .waves import (
    distance_to_dirac,
    illposed_observables,
    lattice_profile,
    periodic_profile,
    periodic_wave_constants,
    traveling_residual,
)

_SNAPSHOT_MAGIC = b"ILW1"


# -- seeded data ---------------------------------------------------------------

def random_field(grid: SpectralGrid, s_target: float, amplitude: float,
                 seed: int, decay: float = 0.0) -> RealField:
    """Rough random data with coefficient law amplitude*(1+|xi|)^(-r).

    r = |s_target| + 0.6 places the field just below H^{s_target} in the
    large-N limit.  Phases come from one seeded generator; the zero mode
    takes amplitude*cos(theta_0) so the field stays real.  ``decay > 0``
    multiplies exp(-decay*|xi|), giving the analytic variants needed by the
    tight conservation experiments.
    """
    if amplitude < 0:
        raise ContractError("amplitude must be nonnegative")
    if decay < 0:
        raise ContractError("decay must be nonnegative")
    if seed < 0:
        raise ContractError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    half = grid.n_points // 2
    theta = rng.uniform(0.0, 2.0 * np.pi, half)
    r = abs(s_target) + 0.6
    xi = np.abs(grid.frequencies[1:half])
    mag = amplitude * (1.0 + xi) ** (-r)
    if decay > 0.0:
        mag = mag * np.exp(-decay * xi)
    coeffs = np.zeros(half + 1, dtype=np.complex128)
    coeffs[0] = amplitude * np.cos(theta[0])
    coeffs[1:half] = mag * np.exp(1j * theta[1:])
    return RealField(grid, coeffs)


# -- coefficient snapshots -------------------------------------------------------

def snapshot_bytes(state: RealField) -> bytes:
    """16-byte header (magic, n_points uint32, period float64, little
    endian) followed by all N coefficients (FFT order) as little-endian
    complex128."""
    half = state.coeffs
    full = np.concatenate((half, np.conj(half[-2:0:-1])))
    return (_SNAPSHOT_MAGIC
            + struct.pack("<I", state.grid.n_points)
            + struct.pack("<d", state.grid.length)
            + full.astype("<c16").tobytes())


def write_snapshot(path, state: RealField):
    Path(path).write_bytes(snapshot_bytes(state))


def read_snapshot(path) -> RealField:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ContractError("cannot read snapshot %s: %s"
                            % (path, exc.strerror or exc)) from exc
    if len(data) < 16 or data[:4] != _SNAPSHOT_MAGIC:
        raise ContractError("not a coefficient snapshot: %s" % path)
    n_points = struct.unpack("<I", data[4:8])[0]
    length = struct.unpack("<d", data[8:16])[0]
    if (len(data) - 16) % 16:
        raise ContractError("snapshot payload is not a whole number of "
                            "complex128 coefficients: %s" % path)
    coeffs = np.frombuffer(data[16:], dtype="<c16").astype(np.complex128)
    if coeffs.shape[0] != n_points:
        raise ContractError("snapshot payload does not match its header")
    grid = SpectralGrid(length, n_points)
    # outside data: the full spectrum must be Hermitian before its negative
    # half is dropped
    gap = np.max(np.abs(coeffs - np.conj(coeffs[(-np.arange(n_points)) % n_points])))
    if gap > HERMITIAN_RTOL * max(1.0, np.max(np.abs(coeffs))):
        raise ContractError("snapshot breaks Hermitian symmetry (gap %.3e): %s"
                            % (gap, path))
    return RealField(grid, coeffs[: n_points // 2 + 1])


# -- configuration ---------------------------------------------------------------

# declared ranges: the words of the error and the predicate each value
# (each element of a list) must meet
_AT_LEAST_ONE = ("must be >= 1", lambda v: v >= 1)
_POSITIVE = ("must be positive", lambda v: v > 0)
_STEP = ("must be >= 0 (0 selects the default step)", lambda v: v >= 0)
_EQUATION = ("must be 'ilw' or 'bo'", lambda v: v in ("ilw", "bo"))

# how a flag or an ini value is read, by kind; a ValueError rejects it
_PARSERS = {
    "int": int,
    "float": float,
    "float_list": lambda raw: [float(tok) for tok in raw.split(",")
                               if tok.strip()],
    "str": str,
}

# per-command parameter schema: name -> (kind, default[, range])
_SCHEMAS = {
    "simulate": {
        "equation": ("str", "ilw", _EQUATION),
        "depth": ("float", 1.0, _POSITIVE),
        "n": ("int", 256),
        "length": ("float", 6.283185307179586),
        "seed": ("int", 1),
        "amplitude": ("float", 0.25),
        "s_target": ("float", -0.25),
        # default spectra decay fast enough that the dealiased band carries
        # the whole field; the in-run mass check depends on it
        "decay": ("float", 0.25),
        "t_final": ("float", 1.0),
        "dt": ("float", 0.0, _STEP),
        "samples": ("int", 100, _AT_LEAST_ONE),
        "initial": ("str", ""),
    },
    "wave": {
        "depth": ("float", 1.0, _POSITIVE),
        "adelta": ("float", 2.0),
        "n": ("int", 1024),
        "s_dirac": ("float", -0.6),
    },
    "beta": {
        "n": ("int", 256),
        "length": ("float", 1.0),
        "seed": ("int", 1),
        "amplitude": ("float", 0.3),
        "decay": ("float", 0.02),
        "s": ("float", -0.25),
        "kappa": ("float", 32.0),
        "modes": ("int", 0, ("must be >= 0 (0 keeps every mode)",
                             lambda v: v >= 0)),
    },
    "gronwall": {
        "equation": ("str", "ilw", _EQUATION),
        "depth_list": ("float_list", [0.5, 1.0, 2.0], _POSITIVE),
        "seeds": ("int", 10, _AT_LEAST_ONE),
        "seed": ("int", 1),
        "s": ("float", -0.25),
        "kappa": ("float", 32.0),
        "t_final": ("float", 1.0),
        "dt": ("float", 0.0, _STEP),
        "n": ("int", 256),
        "length": ("float", 6.283185307179586),
        "amplitude": ("float", 0.4),
        # fast spectral decay keeps the truncated-matrix conservation error
        # far below the smoothing-term signal that the fit measures
        "decay": ("float", 0.25),
        "samples": ("int", 100, _AT_LEAST_ONE),
        "c_s": ("float", 1.0),
        "epsilon": ("float", 0.01),
    },
    "illposed": {
        "depth": ("float", 1.0, _POSITIVE),
        "adelta_list": ("float_list", [2.8, 3.0, 3.1, 3.14]),
        "s": ("float", -0.6),
        "t": ("float", 1.0),
        "alpha": ("float", 0.5),
        "n": ("int", 1024),
    },
    "smoothing": {
        "depth_list": ("float_list", [0.25, 1.0, 4.0], _POSITIVE),
        "s1_list": ("float_list", [-0.5, 0.0]),
        "s2_list": ("float_list", [1.0, 2.0]),
        # frequency spacing 1/4 resolves the symbol peak near 1/depth for
        # every depth in the default sweep
        "n": ("int", 2048),
        "length": ("float", 25.132741228718345),
    },
    "twodepth": {
        "c1": ("float", 1.0),
        "c2": ("float", 1.0),
        "depth_ratio": ("float", 2.0, _POSITIVE),
        "min_depth_list": ("float_list", [10.0, 20.0, 40.0], _POSITIVE),
        "frame": ("str", "renormalized",
                  ("must be 'renormalized' or 'original'",
                   lambda v: v in ("renormalized", "original"))),
        "n": ("int", 256),
        # the finite-depth correction at depth 40 is exp(-2*40*xi); only a
        # circle with fundamental frequency 1/8 keeps it above rounding
        "length": ("float", 50.26548245743669),
        "seed": ("int", 1),
        "amplitude": ("float", 0.25),
        "s_target": ("float", -0.25),
        "decay": ("float", 0.5),
        "t_final": ("float", 0.5),
        "dt": ("float", 0.0, _STEP),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One resolved run: command name, typed parameters, output directory."""

    command: str
    params: dict
    output_dir: Path


def _coerce(command: str, key: str, raw) -> object:
    kind, _, *declared = _SCHEMAS[command][key]
    value = raw
    if isinstance(raw, str):
        try:
            value = _PARSERS[kind](raw)
        except ValueError as exc:
            raise ContractError("bad value for %s.%s: %r"
                                % (command, key, raw)) from exc
    values = value if kind == "float_list" else [value]
    if kind == "float_list" and not values:
        raise ContractError("%s.%s needs at least one value" % (command, key))
    if kind in ("float", "float_list") and not np.all(np.isfinite(values)):
        raise ContractError("%s.%s must be finite: %r" % (command, key, raw))
    for words, admits in declared:
        if not all(map(admits, values)):
            raise ContractError("%s.%s %s: %r" % (command, key, words, raw))
    return value


def load_config(command: str, config_path: Optional[str] = None,
                overrides: Optional[dict] = None,
                output_dir: Optional[str] = None) -> ExperimentConfig:
    """Resolve defaults, then the [command] section of an ini file, then
    explicit overrides.  Unknown keys and a malformed file are usage
    errors."""
    if command not in _SCHEMAS:
        raise ContractError("unknown command %r" % command)
    schema = _SCHEMAS[command]
    params = {key: spec[1] for key, spec in schema.items()}
    if config_path:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            found = parser.read(config_path, encoding="utf-8")
            items = parser.items(command) if parser.has_section(command) else []
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ContractError("malformed config file %s: %s"
                                % (config_path, exc)) from exc
        if not found:
            raise ContractError("cannot read config file %s" % config_path)
        for key, raw in items:
            if key not in schema:
                raise ContractError("unknown key %r in [%s]" % (key, command))
            params[key] = _coerce(command, key, raw)
    for key, raw in (overrides or {}).items():
        if key not in schema:
            raise ContractError("unknown parameter %r for %s" % (key, command))
        params[key] = _coerce(command, key, raw)
    out = Path(output_dir) if output_dir else Path("ilw_lab_%s" % command)
    return ExperimentConfig(command=command, params=params, output_dir=out)


# -- report plumbing --------------------------------------------------------------

@dataclass
class RunReport:
    """Outcome of one runner: summary numbers, failed checks, and the
    bytes of each output file by name."""

    command: str
    report: dict
    failures: list = field(default_factory=list)
    files: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _fmt_cell(value) -> str:
    # float first: np.float64 is a float subclass, and neither bool nor
    # np.bool_ is one
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def _csv(header, rows) -> bytes:
    lines = [",".join(header)]
    lines += [",".join(map(_fmt_cell, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _non_finite_key(payload, prefix=""):
    """Dotted key of the first non-finite float in ``payload``, or None."""
    if isinstance(payload, dict):
        items = sorted(payload.items())
    elif isinstance(payload, (list, tuple)):
        items = enumerate(payload)
    elif isinstance(payload, float) and not np.isfinite(payload):
        return prefix
    else:
        return None
    for key, value in items:
        found = _non_finite_key(value, "%s.%s" % (prefix, key) if prefix
                                else str(key))
        if found is not None:
            return found
    return None


def _json(name, payload) -> bytes:
    """Render strict JSON; a non-finite value is a NumericalError naming the
    file and the key."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError("non-finite value at %s in %s"
                             % (_non_finite_key(payload), name)) from exc
    return (text + "\n").encode()


def _worker_count() -> int:
    # every runner works on the calling thread; the benchmark harness
    # (perfbench/child.py) still reads this to record the worker count
    return 1


# -- runners ---------------------------------------------------------------------

def _make_grid(params) -> SpectralGrid:
    return SpectralGrid(params["length"], params["n"])


def _initial_state(params, grid: SpectralGrid) -> RealField:
    if params.get("initial"):
        state = read_snapshot(params["initial"])
        if state.grid != grid:
            raise ContractError("snapshot grid does not match n/length")
        return state
    return random_field(grid, params["s_target"], params["amplitude"],
                        params["seed"], params.get("decay", 0.0))


def _sweep(cfg: ExperimentConfig, key: str) -> list:
    """The values of a sweep in ascending order; its check compares
    neighbours, which a repeated value would always fail."""
    values = sorted(cfg.params[key])
    if len(set(values)) < len(values):
        raise ContractError("%s.%s repeats a value: %s"
                            % (cfg.command, key, cfg.params[key]))
    return values


def _decreasing(values: list) -> bool:
    """Each value strictly below the one before it: the check of a
    figure along a sweep; a NaN fails it."""
    return all(x > y for x, y in zip(values, values[1:]))


def _below_threshold(kappa: float, threshold: float) -> str:
    """The failure of the admissible-shift test, in the words that ``beta``
    and ``gronwall`` share."""
    return "kappa %.4g below admissible threshold %.4g" % (kappa, threshold)


def _relative_gap(value: float, reference: float) -> float:
    """|value - reference| relative to |reference|, or absolute where the
    reference is 0."""
    return abs(value - reference) / (abs(reference) or 1.0)


def run_simulate(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    grid = _make_grid(p)
    state = _initial_state(p, grid)
    problem = make_problem(p["equation"], p["depth"], grid)
    dt = p["dt"] or default_step(problem, state, p["t_final"])
    n_steps, _ = step_count(p["t_final"], dt)
    trajectory = evolve(problem, state, p["t_final"], dt, p["samples"])
    names = sorted(trajectory.diagnostics)
    files = {
        "trajectory.csv": _csv(["time"] + names, zip(
            trajectory.times, *(trajectory.diagnostics[n] for n in names))),
        "final.bin": snapshot_bytes(trajectory.final()),
    }

    mean_drift = float(np.max(np.abs(trajectory.diagnostics["mean"]
                                     - trajectory.diagnostics["mean"][0])))
    mass_drift = relative_drift(trajectory.diagnostics["mass"])
    report = {
        "equation": p["equation"],
        "dt": dt,
        "steps": n_steps,
        "mean_drift": mean_drift,
        "mass_drift": mass_drift,
        "final_sup": trajectory.final().sup_norm(),
    }
    failures = []
    if p["equation"] == "ilw":
        # the cubic term is the same on both sides, so only the quadratic
        # parts are compared, against the scale of the whole energy
        energy = trajectory.diagnostics["hamiltonian"]
        gaps = np.abs([quadratic_energy(u, problem.energy_symbol)
                       - quadratic_energy_decomposed(u, p["depth"])
                       for u in trajectory.states])
        violated = np.flatnonzero(gaps > 1e-12 * np.maximum(1.0, np.abs(energy)))
        if violated.size:
            failures.append("Hamiltonian decomposition identity violated "
                            "(gap %.3e)" % gaps[violated[0]])
    if mean_drift > 1e-12 * max(1.0, abs(trajectory.diagnostics["mean"][0])):
        failures.append("spatial mean drifted: %.3e" % mean_drift)
    if mass_drift > 1e-6:
        failures.append("mass drift %.3e exceeds 1e-6" % mass_drift)
    return RunReport(cfg.command, report, failures, files)


def run_wave(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    a = p["adelta"] / p["depth"]
    grid = SpectralGrid(1.0, p["n"])
    profile = periodic_profile(a, p["depth"], grid)
    lattice = lattice_profile(a, p["depth"], grid)
    constants = periodic_wave_constants(a, p["depth"])
    residual = traveling_residual(profile, constants.speed, constants.B,
                                  p["depth"])
    u_fourier, u_lattice = profile.samples(), lattice.samples()
    route_gap = float(np.max(np.abs(u_fourier - u_lattice)))
    distance = distance_to_dirac([profile], p["s_dirac"])[0]
    table = _csv(["x", "u_fourier", "u_lattice"],
                 zip(grid.nodes, u_fourier, u_lattice))
    report = {
        "a": a,
        "depth": p["depth"],
        "speed": constants.speed,
        "v_const": constants.V,
        "d_const": constants.D,
        "b_const": constants.B,
        "mean": profile.mean(),
        "residual_sup": residual,
        "route_gap": route_gap,
        "delta_distance": distance,
        "s_dirac": p["s_dirac"],
    }
    failures = []
    if residual >= 1e-8:
        failures.append("traveling residual %.3e >= 1e-8" % residual)
    if route_gap >= 1e-10:
        failures.append("profile routes differ by %.3e >= 1e-10" % route_gap)
    return RunReport(cfg.command, report, failures, {"wave.csv": table})


def run_beta(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    grid = _make_grid(p)
    state = random_field(grid, p["s"], p["amplitude"], p["seed"], p["decay"])
    # past the grid's Hardy modes, the cut is a usage error named for modes
    limit = _truncation_size(grid, None)
    if p["modes"] > limit:
        raise ContractError("beta.modes = %d exceeds %d, the Hardy modes that "
                            "n = %d resolves" % (p["modes"], limit, p["n"]))
    xi_max = modes_to_xi_max(grid, p["modes"]) if p["modes"] > 0 else None
    # a bad s or kappa fails before anything is measured
    index = _shift_index(p["s"], p["kappa"])
    # one truncation serves the Lanczos measure and the resolvent solve
    lax = build_lax(state, xi_max)
    spectrum = LaxSpectrum.lanczos(lax, p["kappa"])
    norm = sobolev_norms(grid, state.coeffs, index)
    threshold = kappa_threshold(norm, p["s"], 1.0)
    # the adaptive Gauss-Kronrod rule, with the tau profile it adapted on
    rule = build_weighted_rule(spectrum.form_at, p["kappa"], p["s"])
    # the shared closed-form rule that gronwall uses, against the adaptive one
    shared_value = KappaRule.build(p["kappa"], p["s"]).values(spectrum)
    rule_gap = _relative_gap(shared_value, rule.value)
    resolved = resolvent_state(lax, p["kappa"])
    form_value = resolved.form(state)
    # the resolvent solve against the certified Lanczos measure
    gauss_value = float(spectrum.form_at(p["kappa"])[0])
    route_gap = _relative_gap(form_value, gauss_value)
    table = _csv(["tau", "form"], zip(rule.tau_nodes, rule.form_values))
    report = {
        "kappa": p["kappa"],
        "s": p["s"],
        "sigma": rule.sigma,
        "form_at_kappa": form_value,
        "form_route_gap": route_gap,
        "resolvent_iterations": resolved.iterations,
        "weighted_value": rule.value,
        "weighted_value_shared": shared_value,
        "weighted_rule_gap": rule_gap,
        "n_nodes": int(rule.tau_nodes.shape[0]),
        "rule_build_error": rule.build_error,
        # an overflowed threshold fails the check below; JSON holds no inf
        "kappa_threshold": threshold if np.isfinite(threshold) else None,
        "lambda_min": spectrum.lambda_min,
        "lambda_min_bound": float(spectrum.lambda_bound),
        "lanczos_steps": int(spectrum.steps),
        "norm_h_s_kappa": norm,
    }
    failures = []
    # lambda_min clears -kappa: the rule's first form_at raised otherwise.
    # "not >=" fails a NaN threshold too
    if not p["kappa"] >= threshold:
        failures.append(_below_threshold(p["kappa"], threshold))
    if route_gap > 1e-12:
        failures.append("resolvent and Lanczos forms differ by %.3e > 1e-12"
                        % route_gap)
    return RunReport(cfg.command, report, failures,
                     {"beta_profile.csv": table})


def _reference_rate(depth: float, s: float, epsilon: float) -> float:
    """The growth rate depth^-2 (1 + depth^(-|s| - 1/2 - epsilon)), the
    ``smoothing_bound`` that the fitted rate is reported against at each
    ``--depth-list`` depth; a ContractError names epsilon and the depth
    where it overflows."""
    rate = smoothing_bound(depth, -abs(s) - 0.5 - epsilon)
    if not np.isfinite(rate):
        raise ContractError("the reference rate overflows at epsilon = %.3g "
                            "and depth %.6g" % (epsilon, depth))
    return rate


def run_gronwall(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    grid = _make_grid(p)
    depths = _sweep(cfg, "depth_list")
    if p["seeds"] * len(depths) > MAX_MEMBERS:
        raise ContractError("gronwall.seeds = %d at %d depths exceeds the "
                            "limit of %d ensemble members"
                            % (p["seeds"], len(depths), MAX_MEMBERS))
    seeds = range(p["seed"], p["seed"] + p["seeds"])
    initials = {seed: random_field(grid, p["s"], p["amplitude"], seed,
                                   p["decay"])
                for seed in seeds}
    tasks = [(depth, seed) for depth in depths for seed in seeds]
    # a bad s, kappa or c_s and an overflowing reference rate fail here,
    # before any step is taken
    _shift_index(p["s"], p["kappa"], p["c_s"])
    references = {depth: _reference_rate(depth, p["s"], p["epsilon"])
                  for depth in depths}
    # one problem per flow: one per depth under ilw, and one deep-water flow
    # under bo, which reads no depth and serves every depth's rows
    flows = [None] if p["equation"] == "bo" else depths
    problems = [make_problem(p["equation"], depth, grid) for depth in flows]
    # one call over every member, flow-major: the flows of a seed share its
    # step, so they are stepped as one batch
    measured = gronwall_ensemble(
        [initials[seed] for _ in problems for seed in seeds],
        [problem for problem in problems for _ in seeds],
        p["s"], p["kappa"], t_final=p["t_final"], dt=p["dt"] or None,
        n_samples=p["samples"])
    # the reports in the depth-major order of tasks
    results = measured * (len(tasks) // len(measured))
    # the smallest kappa - threshold over each member's samples
    margins = [float((p["kappa"] - kappa_threshold(rep.norms, p["s"],
                                                   p["c_s"])).min())
               for rep in results]
    # form(t) <= exp(a_hat t) form(0) at every sample
    bound_ok = [bool(np.all(rep.form_values <= rep.form_values[0]
                            * np.exp(rep.a_hat * rep.times) * (1.0 + 1e-6)))
                for rep in results]
    table = _csv(["depth", "seed", "a_hat", "a_reference", "bound_ok",
                  "kappa_margin", "form_initial", "form_final"],
                 [(depth, seed, rep.a_hat, references[depth], ok, margin,
                   float(rep.form_values[0]), float(rep.form_values[-1]))
                  for (depth, seed), rep, ok, margin
                  in zip(tasks, results, bound_ok, margins)])

    # tasks run depth-major, so row i holds the rates at depths[i]
    a_hats = np.reshape([rep.a_hat for rep in results], (len(depths), -1))
    rates = a_hats.mean(axis=1).tolist()
    report = {
        "equation": p["equation"],
        "s": p["s"],
        "kappa": p["kappa"],
        "depths": depths,
        "runs": len(tasks),
        "mean_a_hat": {repr(d): rate for d, rate in zip(depths, rates)},
        "max_a_hat": float(max(rep.a_hat for rep in results)),
        "all_bound_ok": all(bound_ok),
    }
    failures = []
    # "not >= 0" fails a NaN margin too, and argmin names a NaN first
    if not all(margin >= 0.0 for margin in margins):
        worst = int(np.argmin(margins))
        depth, seed = tasks[worst]
        failures.append("%s at depth=%g seed=%d" % (_below_threshold(
            p["kappa"], p["kappa"] - margins[worst]), depth, seed))
    for (depth, seed), ok in zip(tasks, bound_ok):
        if not ok:
            failures.append("growth bound violated at depth=%g seed=%d"
                            % (depth, seed))
    if p["equation"] == "ilw" and not _decreasing(rates):
        failures.append("fitted rates not decreasing in depth: %s" % rates)
    return RunReport(cfg.command, report, failures, {"runs.csv": table})


def run_illposed(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    grid = SpectralGrid(1.0, p["n"])
    t = p["t"]
    adeltas = _sweep(cfg, "adelta_list")
    wave_numbers = [adelta / p["depth"] for adelta in adeltas]
    profiles = [periodic_profile(a, p["depth"], grid) for a in wave_numbers]
    distances = distance_to_dirac(profiles, p["s"])
    rows = []
    moduli, rate_gaps, mean_gaps = [], [], []
    for adelta, a, profile, distance in zip(adeltas, wave_numbers, profiles,
                                            distances):
        obs = illposed_observables(a, p["depth"], t, p["alpha"])
        gamma = obs.wave_mean - p["alpha"]
        boosted = galilean(profile, gamma, t)
        mean_gap = abs(boosted.mean() - p["alpha"])
        rows.append((adelta, a, obs.speed, distance, abs(obs.mode_2pi),
                     float(np.angle(obs.mode_2pi)), obs.phase_rate, mean_gap))
        moduli.append(abs(obs.mode_2pi))
        rate_gaps.append(abs(obs.phase_rate + 2.0 * np.pi * t))
        mean_gaps.append(mean_gap)
    table = _csv(["adelta", "a", "speed", "delta_distance", "mode_abs",
                  "mode_arg", "arg_rate", "mean_gap"], rows)
    report = {
        "s": p["s"],
        "t": t,
        "alpha": p["alpha"],
        "delta_distances": distances,
        "mode_moduli": moduli,
        "max_rate_gap": max(rate_gaps),
        "max_mean_gap": max(mean_gaps),
    }
    failures = []
    if not _decreasing(distances):
        failures.append("Dirac distances not decreasing: %s" % distances)
    if not _decreasing([abs(m - 2.0 * np.pi) for m in moduli]):
        failures.append("mode moduli not converging to 2*pi: %s" % moduli)
    if max(rate_gaps) > 1e-10:
        failures.append("phase rate differs from -2*pi*t by %.3e" % max(rate_gaps))
    if max(mean_gaps) > 1e-12:
        failures.append("family mean off alpha by %.3e" % max(mean_gaps))
    return RunReport(cfg.command, report, failures, {"illposed.csv": table})


def run_smoothing(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    if len(p["s1_list"]) != len(p["s2_list"]):
        raise ContractError("s1_list and s2_list must pair up")
    grid = _make_grid(p)
    rows = []
    ratios = []
    for depth in p["depth_list"]:
        for s1, s2 in zip(p["s1_list"], p["s2_list"]):
            scan = smoothing_operator_scan(s1, s2, depth, grid)
            rows.append((depth, s1, s2, scan.measured, scan.bound, scan.ratio))
            ratios.append(scan.ratio)
    table = _csv(["depth", "s1", "s2", "measured", "bound", "ratio"], rows)
    spread = max(ratios) / min(ratios)
    report = {
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
        "ratio_spread": spread,
    }
    failures = []
    if spread >= 10.0:
        failures.append("measured/bound ratio spread %.3f >= 10" % spread)
    return RunReport(cfg.command, report, failures, {"smoothing.csv": table})


def run_twodepth(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    depths = _sweep(cfg, "min_depth_list")
    grid = _make_grid(p)
    u0 = random_field(grid, p["s_target"], p["amplitude"], p["seed"], p["decay"])
    limit_problem = make_bo_two_speed(p["c1"], p["c2"], grid)
    dt = p["dt"] or default_step(limit_problem, u0, p["t_final"])
    problems = [limit_problem] + [
        make_two_depth(p["c1"], p["c2"], d1, p["depth_ratio"] * d1, grid,
                       frame=p["frame"]) for d1 in depths]
    # the deep-water limit and every depth step as one batch; one sample
    # yields only the initial and the final stack
    _, finals = list(etdrk4_samples(problems,
                                    np.tile(u0.coeffs, (len(problems), 1)),
                                    p["t_final"], dt, 1))[-1]
    limit_final = RealField(grid, finals[0])

    gaps = []
    for d1, coeffs in zip(depths, finals[1:]):
        d2 = p["depth_ratio"] * d1
        state = RealField(grid, coeffs)
        if p["frame"] == "original":
            # back to the original frame: u(x + gamma*t)
            gamma = p["c1"] / d1 + p["c2"] / d2
            state = state.shifted(-gamma * p["t_final"])
        gaps.append((state - limit_final).l2_norm())
    table = _csv(["min_depth", "depth1", "depth2", "l2_gap"],
                 [(d, d, p["depth_ratio"] * d, gap)
                  for d, gap in zip(depths, gaps)])
    report = {
        "c1": p["c1"],
        "c2": p["c2"],
        "frame": p["frame"],
        "min_depths": depths,
        "l2_gaps": [float(g) for g in gaps],
    }
    failures = []
    if not _decreasing(gaps):
        failures.append("deep-water gap not decreasing: %s" % gaps)
    return RunReport(cfg.command, report, failures, {"twodepth.csv": table})


RUNNERS = {
    "simulate": run_simulate,
    "wave": run_wave,
    "beta": run_beta,
    "gronwall": run_gronwall,
    "illposed": run_illposed,
    "smoothing": run_smoothing,
    "twodepth": run_twodepth,
}


def run(cfg: ExperimentConfig) -> RunReport:
    """Dispatch a resolved config, render report.json and manifest.json, and
    only then write every file into the output directory: the one place
    that writes outputs, so a run that raises leaves no directory behind."""
    started = time.time()
    result = RUNNERS[cfg.command](cfg)
    result.files["report.json"] = _json(cfg.output_dir / "report.json", {
        "command": cfg.command,
        "passed": result.passed,
        "failures": result.failures,
        "report": result.report,
    })
    result.files["manifest.json"] = _json(cfg.output_dir / "manifest.json", {
        "command": cfg.command,
        "config": {k: (repr(v) if isinstance(v, float) else v)
                   for k, v in sorted(cfg.params.items())},
        "outputs": sorted(result.files),
        "versions": {"numpy": np.__version__},
        "wall_time_s": time.time() - started,
    })
    _write_outputs(cfg.output_dir, result.files)
    return result


def _write_outputs(directory: Path, files: dict):
    """Write each file into ``directory``, creating it as needed.

    An OSError becomes a ContractError, after the files opened here and the
    directories created here are removed again, so a failed write leaves
    nothing behind either.
    """
    created = [d for d in (directory, *directory.parents) if not d.exists()]
    written = []
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            with open(directory / name, "wb") as fh:
                written.append(directory / name)
                fh.write(data)
    except OSError as exc:
        for path in written:
            path.unlink(missing_ok=True)
        # rmdir removes only empty directories, never a file
        for d in created:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise ContractError("cannot write output directory %s: %s"
                            % (directory, exc)) from exc
