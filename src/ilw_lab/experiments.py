"""Deterministic experiment drivers behind the command line.

Each runner consumes a resolved ExperimentConfig, writes CSV tables plus a
JSON report into the output directory, and returns the in-run assertion
outcomes.  Given the same parameters and seed the tabular outputs are
byte-identical; only the manifest carries wall-clock information.
"""

from __future__ import annotations

import configparser
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from .errors import ContractError
from .evolution import (
    default_dt,
    evolve,
    galilean,
    make_bo,
    make_bo_two_speed,
    make_ilw,
    make_two_depth,
    relative_drift,
)
from .lax import LaxSpectrum, build_lax, gronwall_experiment, \
    modes_to_xi_max, resolvent_form
from .spectral import RealField, SpectralGrid
from .symbols import smoothing_operator_scan
from .waves import (
    distance_to_dirac,
    illposed_observables,
    mode_phase_rate,
    periodic_profile,
    periodic_speed,
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
    rng = np.random.default_rng(seed)
    half = grid.n_points // 2
    theta = rng.uniform(0.0, 2.0 * np.pi, half)
    r = abs(s_target) + 0.6
    xi = np.abs(grid.frequencies[1:half])
    mag = amplitude * (1.0 + xi) ** (-r)
    if decay > 0.0:
        mag = mag * np.exp(-decay * xi)
    coeffs = np.zeros(grid.n_points, dtype=np.complex128)
    coeffs[0] = amplitude * np.cos(theta[0])
    idx = np.arange(1, half)
    coeffs[idx] = mag * np.exp(1j * theta[1:])
    coeffs[-idx] = np.conj(coeffs[idx])
    return RealField(grid, coeffs)


# -- coefficient snapshots -------------------------------------------------------

def write_snapshot(path, state: RealField):
    """16-byte header (magic, n_points uint32, period float64, little
    endian) followed by the coefficients as little-endian complex128."""
    header = (_SNAPSHOT_MAGIC
              + struct.pack("<I", state.grid.n_points)
              + struct.pack("<d", state.grid.length))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.coeffs).astype("<c16").tobytes())


def read_snapshot(path) -> RealField:
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != _SNAPSHOT_MAGIC:
        raise ContractError("not a coefficient snapshot: %s" % path)
    n_points = struct.unpack("<I", data[4:8])[0]
    length = struct.unpack("<d", data[8:16])[0]
    if (len(data) - 16) % 16:
        raise ContractError("snapshot payload is not a whole number of "
                            "complex128 coefficients: %s" % path)
    coeffs = np.frombuffer(data[16:], dtype="<c16")
    if coeffs.shape[0] != n_points:
        raise ContractError("snapshot payload does not match its header")
    return RealField(SpectralGrid(length, n_points), coeffs.astype(np.complex128))


# -- configuration ---------------------------------------------------------------

# per-command parameter schema: name -> (kind, default)
_SCHEMAS = {
    "simulate": {
        "equation": ("str", "ilw"),
        "depth": ("float", 1.0),
        "n": ("int", 256),
        "length": ("float", 6.283185307179586),
        "seed": ("int", 1),
        "amplitude": ("float", 0.25),
        "s_target": ("float", -0.25),
        # default spectra decay fast enough that the dealiased band carries
        # the whole field; the in-run mass assertion depends on it
        "decay": ("float", 0.25),
        "t_final": ("float", 1.0),
        "dt": ("float", 0.0),
        "samples": ("int", 100),
        "initial": ("str", ""),
    },
    "wave": {
        "depth": ("float", 1.0),
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
        "modes": ("int", 0),
    },
    "gronwall": {
        "equation": ("str", "ilw"),
        "depth_list": ("float_list", [0.5, 1.0, 2.0]),
        "seeds": ("int", 10),
        "seed": ("int", 1),
        "s": ("float", -0.25),
        "kappa": ("float", 32.0),
        "t_final": ("float", 1.0),
        "dt": ("float", 0.0),
        "n": ("int", 256),
        "length": ("float", 6.283185307179586),
        "amplitude": ("float", 0.4),
        # fast spectral decay keeps the truncated-matrix conservation error
        # far below the smoothing-term signal that the fit measures
        "decay": ("float", 0.25),
        "samples": ("int", 100),
        "c_s": ("float", 1.0),
        "epsilon": ("float", 0.01),
    },
    "illposed": {
        "depth": ("float", 1.0),
        "adelta_list": ("float_list", [2.8, 3.0, 3.1, 3.14]),
        "s": ("float", -0.6),
        "t": ("float", 1.0),
        "alpha": ("float", 0.5),
        "n": ("int", 1024),
    },
    "smoothing": {
        "depth_list": ("float_list", [0.25, 1.0, 4.0]),
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
        "depth_ratio": ("float", 2.0),
        "min_depth_list": ("float_list", [10.0, 20.0, 40.0]),
        "frame": ("str", "renormalized"),
        "n": ("int", 256),
        # the finite-depth correction at depth 40 is exp(-2*40*xi); only a
        # circle with fundamental frequency 1/8 keeps it above rounding
        "length": ("float", 50.26548245743669),
        "seed": ("int", 1),
        "amplitude": ("float", 0.25),
        "s_target": ("float", -0.25),
        "decay": ("float", 0.5),
        "t_final": ("float", 0.5),
        "dt": ("float", 0.0),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One resolved run: command name, typed parameters, output directory."""

    command: str
    params: dict
    output_dir: Path


def _coerce(command: str, key: str, raw) -> object:
    kind = _SCHEMAS[command][key][0]
    if not isinstance(raw, str):
        return raw
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "float_list":
            return [float(tok) for tok in raw.split(",") if tok.strip()]
        return raw
    except ValueError as exc:
        raise ContractError("bad value for %s.%s: %r" % (command, key, raw)) from exc


def load_config(command: str, config_path: Optional[str] = None,
                overrides: Optional[dict] = None,
                output_dir: Optional[str] = None) -> ExperimentConfig:
    """Resolve defaults, then the [command] section of an ini file, then
    explicit overrides.  Unknown keys are usage errors."""
    if command not in _SCHEMAS:
        raise ContractError("unknown command %r" % command)
    schema = _SCHEMAS[command]
    params = {key: default for key, (_, default) in schema.items()}
    if config_path:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        if not parser.read(config_path):
            raise ContractError("cannot read config file %s" % config_path)
        if parser.has_section(command):
            for key, raw in parser.items(command):
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
    """Outcome of one runner: summary numbers plus failed assertions."""

    command: str
    report: dict
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _fmt_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(cell) for cell in row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def run_simulate(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    grid = _make_grid(p)
    state = _initial_state(p, grid)
    if p["equation"] == "ilw":
        problem = make_ilw(p["depth"], grid)
    elif p["equation"] == "bo":
        problem = make_bo(grid)
    else:
        raise ContractError("simulate equation must be 'ilw' or 'bo'")
    dt = p["dt"] if p["dt"] > 0 else default_dt(problem, state)
    n_steps = max(1, int(round(p["t_final"] / dt)))
    stride = max(1, n_steps // max(1, p["samples"]))
    trajectory = evolve(problem, state, p["t_final"], dt, store_stride=stride)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output_dir / "trajectory.csv"
    trajectory.write_csv(csv_path)
    snap_path = cfg.output_dir / "final.bin"
    write_snapshot(snap_path, trajectory.final())

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
    if mean_drift > 1e-12 * max(1.0, abs(trajectory.diagnostics["mean"][0])):
        failures.append("spatial mean drifted: %.3e" % mean_drift)
    if mass_drift > 1e-6:
        failures.append("mass drift %.3e exceeds 1e-6" % mass_drift)
    return RunReport(cfg.command, report, failures, [csv_path, snap_path])


def run_wave(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    a = p["adelta"] / p["depth"]
    grid = SpectralGrid(1.0, p["n"])
    profiles = periodic_profile(a, p["depth"], grid)
    constants = periodic_wave_constants(a, p["depth"])
    speed = periodic_speed(a, p["depth"])
    residual = traveling_residual(profiles.fourier, speed, constants.B, p["depth"])
    route_gap = float(np.max(np.abs(profiles.fourier.samples()
                                    - profiles.lattice.samples())))
    distance = distance_to_dirac(profiles.fourier, p["s_dirac"])

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output_dir / "wave.csv"
    _write_csv(csv_path, ["x", "u_fourier", "u_lattice"],
               zip(grid.nodes, profiles.fourier.samples(),
                   profiles.lattice.samples()))
    report = {
        "a": a,
        "depth": p["depth"],
        "speed": speed,
        "v_const": constants.V,
        "d_const": constants.D,
        "b_const": constants.B,
        "mean": profiles.fourier.mean(),
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
    return RunReport(cfg.command, report, failures, [csv_path])


def run_beta(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    grid = _make_grid(p)
    state = random_field(grid, p["s"], p["amplitude"], p["seed"], p["decay"])
    xi_max = (modes_to_xi_max(grid, p["modes"]) if p["modes"] > 0
              else 0.5 * grid.max_frequency)
    spectrum = LaxSpectrum(build_lax(state, xi_max), state)
    kcheck = spectrum.check_kappa(p["s"], p["kappa"])
    profile = spectrum.weighted_form(p["kappa"], p["s"])
    # free its m x m matrices before the independent Cholesky cross-check
    del spectrum
    form_value = resolvent_form(state, p["kappa"], xi_max=xi_max)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output_dir / "beta_profile.csv"
    profile.write_csv(csv_path)
    report = {
        "kappa": p["kappa"],
        "s": p["s"],
        "sigma": profile.sigma,
        "form_at_kappa": form_value,
        "weighted_value": profile.value,
        "n_nodes": int(profile.tau_nodes.shape[0]),
        "rule_build_error": profile.rule.build_error,
        "kappa_threshold": kcheck.threshold,
        "lambda_min": kcheck.lambda_min,
        "norm_h_s_kappa": kcheck.norm,
    }
    failures = []
    if not kcheck.ok:
        failures.append("kappa %.4g below admissible threshold %.4g"
                        % (kcheck.kappa, kcheck.threshold))
    return RunReport(cfg.command, report, failures, [csv_path])


def run_gronwall(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    grid = _make_grid(p)
    dt = p["dt"] if p["dt"] > 0 else None
    depths = sorted(p["depth_list"])
    tasks = [(depth, p["seed"] + i) for depth in depths for i in range(p["seeds"])]
    if not tasks:
        raise ContractError("empty ensemble: no seeds or no depths")
    results = [
        gronwall_experiment(
            random_field(grid, p["s"], p["amplitude"], seed, p["decay"]),
            depth, p["s"], p["kappa"], t_final=p["t_final"], dt=dt,
            n_samples=p["samples"], c_s=p["c_s"], epsilon=p["epsilon"],
            equation=p["equation"])
        for depth, seed in tasks]

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output_dir / "runs.csv"
    rows = []
    for (depth, seed), rep in zip(tasks, results):
        rows.append((depth, seed, rep.a_hat, rep.a_reference, rep.bound_ok,
                     rep.kappa_margin, float(rep.form_values[0]),
                     float(rep.form_values[-1])))
    _write_csv(csv_path, ["depth", "seed", "a_hat", "a_reference", "bound_ok",
                          "kappa_margin", "form_initial", "form_final"], rows)

    by_depth = {depth: [rep.a_hat for (d, _), rep in zip(tasks, results)
                        if d == depth] for depth in depths}
    mean_rates = {depth: float(np.mean(vals)) for depth, vals in by_depth.items()}
    report = {
        "equation": p["equation"],
        "s": p["s"],
        "kappa": p["kappa"],
        "depths": depths,
        "runs": len(tasks),
        "mean_a_hat": {repr(d): mean_rates[d] for d in depths},
        "max_a_hat": float(max(rep.a_hat for rep in results)),
        "all_bound_ok": all(rep.bound_ok for rep in results),
    }
    failures = []
    for (depth, seed), rep in zip(tasks, results):
        if not rep.bound_ok:
            failures.append("growth bound violated at depth=%g seed=%d"
                            % (depth, seed))
    if p["equation"] == "ilw" and len(depths) > 1:
        rates = [mean_rates[d] for d in depths]
        if not all(x > y for x, y in zip(rates, rates[1:])):
            failures.append("fitted rates not decreasing in depth: %s" % rates)
    return RunReport(cfg.command, report, failures, [csv_path])


def run_illposed(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    grid = SpectralGrid(1.0, p["n"])
    t = p["t"]
    rows = []
    distances, moduli, rate_gaps, mean_gaps = [], [], [], []
    for adelta in p["adelta_list"]:
        a = adelta / p["depth"]
        obs = illposed_observables(a, p["depth"], t, p["alpha"])
        profiles = periodic_profile(a, p["depth"], grid)
        distance = distance_to_dirac(profiles.fourier, p["s"])
        rate, c1, _ = mode_phase_rate(a, p["depth"], t)
        gamma = obs.wave_mean - p["alpha"]
        boosted = galilean(profiles.fourier, gamma, t, "shift_subtract")
        mean_gap = abs(boosted.mean() - p["alpha"])
        rows.append((adelta, a, obs.speed, distance, abs(obs.mode_2pi),
                     float(np.angle(obs.mode_2pi)), rate, mean_gap))
        distances.append(distance)
        moduli.append(abs(obs.mode_2pi))
        rate_gaps.append(abs(rate + 2.0 * np.pi * t))
        mean_gaps.append(mean_gap)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output_dir / "illposed.csv"
    _write_csv(csv_path, ["adelta", "a", "speed", "delta_distance", "mode_abs",
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
    if not all(x > y for x, y in zip(distances, distances[1:])):
        failures.append("Dirac distances not decreasing: %s" % distances)
    gaps_to_limit = [abs(m - 2.0 * np.pi) for m in moduli]
    if not all(x > y for x, y in zip(gaps_to_limit, gaps_to_limit[1:])):
        failures.append("mode moduli not converging to 2*pi: %s" % moduli)
    if max(rate_gaps) > 1e-10:
        failures.append("phase rate differs from -2*pi*t by %.3e" % max(rate_gaps))
    if max(mean_gaps) > 1e-12:
        failures.append("family mean off alpha by %.3e" % max(mean_gaps))
    return RunReport(cfg.command, report, failures, [csv_path])


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

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output_dir / "smoothing.csv"
    _write_csv(csv_path, ["depth", "s1", "s2", "measured", "bound", "ratio"], rows)
    spread = max(ratios) / min(ratios)
    report = {
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
        "ratio_spread": spread,
    }
    failures = []
    if spread >= 10.0:
        failures.append("measured/bound ratio spread %.3f >= 10" % spread)
    return RunReport(cfg.command, report, failures, [csv_path])


def run_twodepth(cfg: ExperimentConfig) -> RunReport:
    p = cfg.params
    grid = _make_grid(p)
    u0 = random_field(grid, p["s_target"], p["amplitude"], p["seed"], p["decay"])
    limit_problem = make_bo_two_speed(p["c1"], p["c2"], grid)
    dt = p["dt"] if p["dt"] > 0 else default_dt(limit_problem, u0)
    n_steps = max(1, int(round(p["t_final"] / dt)))
    limit_final = evolve(limit_problem, u0, p["t_final"], dt,
                         store_stride=n_steps).final()

    depths = sorted(p["min_depth_list"])
    gaps = []
    for d1 in depths:
        d2 = p["depth_ratio"] * d1
        problem = make_two_depth(p["c1"], p["c2"], d1, d2, grid,
                                 frame=p["frame"])
        state = evolve(problem, u0, p["t_final"], dt,
                       store_stride=n_steps).final()
        if p["frame"] == "original":
            gamma = p["c1"] / d1 + p["c2"] / d2
            state = galilean(state, gamma, p["t_final"], "pure_shift")
        gaps.append((state - limit_final).l2_norm())

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output_dir / "twodepth.csv"
    rows = [(d, d, p["depth_ratio"] * d, gap) for d, gap in zip(depths, gaps)]
    _write_csv(csv_path, ["min_depth", "depth1", "depth2", "l2_gap"], rows)
    report = {
        "c1": p["c1"],
        "c2": p["c2"],
        "frame": p["frame"],
        "min_depths": depths,
        "l2_gaps": [float(g) for g in gaps],
    }
    failures = []
    if len(depths) > 1 and not all(x > y for x, y in zip(gaps, gaps[1:])):
        failures.append("deep-water gap not decreasing: %s" % gaps)
    return RunReport(cfg.command, report, failures, [csv_path])


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
    """Dispatch a resolved config, then write report.json and manifest.json."""
    started = time.time()
    result = RUNNERS[cfg.command](cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    report_path = cfg.output_dir / "report.json"
    _write_json(report_path, {
        "command": cfg.command,
        "passed": result.passed,
        "failures": result.failures,
        "report": result.report,
    })
    result.outputs.append(report_path)
    manifest_path = cfg.output_dir / "manifest.json"
    _write_json(manifest_path, {
        "command": cfg.command,
        "config": {k: (repr(v) if isinstance(v, float) else v)
                   for k, v in sorted(cfg.params.items())},
        "outputs": sorted(p.name for p in result.outputs),
        "versions": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": time.time() - started,
    })
    return result
