"""Seeded data, snapshots, configuration resolution, experiment runners,
and the command-line surface."""

import ast
import csv
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ilw_lab import (
    ContractError,
    NumericalError,
    SpectralGrid,
    default_dt,
    gronwall_experiment,
    kappa_threshold,
    make_ilw,
    random_field,
)
from ilw_lab import experiments
from ilw_lab.cli import build_parser, main
from ilw_lab.evolution import MAX_MEMBERS
from ilw_lab.spectral import MAX_POINTS
from ilw_lab.waves import ADELTA_MAX
from ilw_lab.experiments import (
    _CONSTRAINTS,
    _SCHEMAS,
    RunReport,
    _csv,
    _json,
    load_config,
    read_snapshot,
    run,
    snapshot_bytes,
)


# ------------------------------------------------------------- random data

def test_random_field_is_deterministic():
    grid = SpectralGrid(2 * np.pi, 128)
    a = random_field(grid, -0.25, 0.4, 7, decay=0.1)
    b = random_field(grid, -0.25, 0.4, 7, decay=0.1)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_field(grid, -0.25, 0.4, 8, decay=0.1)
    assert np.max(np.abs(a.coeffs - c.coeffs)) > 1e-3


def test_random_field_coefficient_law():
    grid = SpectralGrid(2 * np.pi, 128)
    amplitude, decay = 0.4, 0.1
    u = random_field(grid, -0.25, amplitude, 7, decay=decay)
    xi = grid.frequencies[1:64]
    law = amplitude * (1.0 + xi) ** (-0.85) * np.exp(-decay * xi)
    assert np.max(np.abs(np.abs(u.coeffs[1:64]) - law)) < 1e-15
    assert abs(u.coeffs[0]) <= amplitude
    assert u.coeffs[64] == 0.0  # unpaired slot stays empty
    assert np.max(np.abs(u.samples().imag)) == 0.0


# 2**160 + 7 has more 32-bit words than SeedSequence's pool of four
@pytest.mark.parametrize("seed", [0, 1, 12, 2**32 - 1, 2**32, 2**64 + 3,
                                  10**30, 2**160 + 7, np.int64(12)])
@pytest.mark.parametrize("n", [8, 256, 4096])
@pytest.mark.parametrize("decay", [0.0, 0.1])
def test_random_field_draws_numpys_stream(seed, n, decay):
    # the phases are numpy's default_rng(seed).uniform(0, 2*pi, n/2) bit for
    # bit, though the library never imports numpy.random
    grid = SpectralGrid(2 * np.pi, n)
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n // 2)
    xi = np.abs(grid.frequencies[1:n // 2])
    mag = 0.4 * (1.0 + xi) ** (-0.85)
    if decay > 0.0:
        mag = mag * np.exp(-decay * xi)
    expected = np.zeros(n // 2 + 1, dtype=np.complex128)
    expected[0] = 0.4 * np.cos(theta[0])
    expected[1:n // 2] = mag * np.exp(1j * theta[1:])
    assert np.array_equal(random_field(grid, -0.25, 0.4, seed, decay).coeffs,
                          expected)


def test_seeded_runs_never_import_numpy_random(tmp_path):
    # random_field draws its stream without numpy.random, whose import
    # brings in secrets and OpenSSL's _hashlib
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "\n".join([
        "import sys",
        "from ilw_lab import cli",
        "assert cli.main(['beta', '--n', '64', '--outdir', 'b']) == 0",
        "assert cli.main(['gronwall', '--n', '64', '--seeds', '1',"
        " '--samples', '2', '--t-final', '0.01', '--outdir', 'g']) == 0",
        "print(sorted({'numpy.random', 'secrets', '_hashlib'}"
        " & set(sys.modules)))"])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_random_field_validation():
    grid = SpectralGrid(2 * np.pi, 128)
    zero = random_field(grid, -0.25, 0.0, 7)
    assert np.max(np.abs(zero.coeffs)) == 0.0
    with pytest.raises(ContractError):
        random_field(grid, -0.25, -1.0, 7)
    with pytest.raises(ContractError):
        random_field(grid, -0.25, 1.0, 7, decay=-0.1)
    with pytest.raises(ContractError):
        random_field(grid, -0.25, 1.0, -1)


# ------------------------------------------------------------- snapshots

def test_snapshot_round_trip(tmp_path):
    grid = SpectralGrid(3.5, 64)
    u = random_field(grid, -0.25, 0.4, 3, decay=0.1)
    path = tmp_path / "state.bin"
    path.write_bytes(snapshot_bytes(u))
    back = read_snapshot(path)
    assert back.grid == grid
    assert np.array_equal(back.coeffs, u.coeffs)
    raw = path.read_bytes()
    assert raw[:4] == b"ILW1"
    assert struct.unpack("<I", raw[4:8])[0] == 64
    assert struct.unpack("<d", raw[8:16])[0] == 3.5
    assert len(raw) == 16 + 64 * 16


def test_snapshot_rejects_corruption(tmp_path):
    grid = SpectralGrid(1.0, 32)
    u = random_field(grid, -0.25, 0.4, 3)
    path = tmp_path / "state.bin"
    path.write_bytes(snapshot_bytes(u))
    raw = path.read_bytes()
    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ContractError):
        read_snapshot(bad_magic)
    short = tmp_path / "short.bin"
    short.write_bytes(raw[:-16])
    with pytest.raises(ContractError):
        read_snapshot(short)
    stub = tmp_path / "stub.bin"
    stub.write_bytes(b"ILW")
    with pytest.raises(ContractError):
        read_snapshot(stub)
    # the payload is a full spectrum: a broken mirror pair is rejected
    coeffs = np.frombuffer(raw[16:], dtype="<c16").copy()
    coeffs[1] = 1.0 + 1.0j
    coeffs[31] = 1.0 + 1.0j  # should be the conjugate
    mirror = tmp_path / "mirror.bin"
    mirror.write_bytes(raw[:16] + coeffs.tobytes())
    with pytest.raises(ContractError):
        read_snapshot(mirror)


# ----------------------------------------------------------- configuration

def test_load_config_defaults():
    cfg = load_config("simulate")
    assert cfg.command == "simulate"
    assert cfg.params == {key: spec[1]
                          for key, spec in _SCHEMAS["simulate"].items()}
    assert cfg.output_dir.name == "ilw_lab_simulate"


def test_load_config_layering(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[beta]\nkappa = 64\nseed = 9\n")
    cfg = load_config("beta", config_path=str(ini),
                      overrides={"seed": "11", "modes": "32"},
                      output_dir=str(tmp_path / "out"))
    assert cfg.params["kappa"] == 64.0
    assert cfg.params["seed"] == 11  # override beats the file
    assert cfg.params["modes"] == 32
    assert cfg.params["amplitude"] == 0.3  # untouched default
    assert cfg.output_dir == tmp_path / "out"


def test_load_config_parses_lists():
    cfg = load_config("gronwall", overrides={"depth_list": "0.5, 1.0,2.0"})
    assert cfg.params["depth_list"] == [0.5, 1.0, 2.0]


# every (command, key) whose schema entry declares a range
RANGED = [(command, key) for command, schema in sorted(_SCHEMAS.items())
          for key, spec in schema.items() if len(spec) > 2]


def test_schema_declares_the_ranges():
    assert set(RANGED) == {
        ("simulate", "samples"), ("simulate", "dt"), ("gronwall", "dt"),
        ("twodepth", "dt"), ("wave", "depth"), ("illposed", "depth"),
        ("beta", "modes"), ("gronwall", "seeds"), ("gronwall", "depth_list"),
        ("gronwall", "samples"), ("simulate", "equation"),
        ("gronwall", "equation"), ("twodepth", "frame"), ("simulate", "depth"),
        ("smoothing", "depth_list"), ("twodepth", "min_depth_list"),
        ("twodepth", "depth_ratio"),
        *((command, "n") for command in _SCHEMAS),
        *((command, "length") for command in ("simulate", "beta", "gronwall",
                                               "smoothing", "twodepth")),
        *((command, "t_final") for command in ("simulate", "gronwall",
                                                "twodepth")),
        ("beta", "s"), ("beta", "kappa"), ("gronwall", "s"),
        ("gronwall", "kappa"), ("gronwall", "c_s"),
        *((command, key) for command in ("beta", "gronwall", "twodepth")
          for key in ("seed", "decay", "amplitude")),
        ("wave", "adelta"), ("wave", "s_dirac"), ("illposed", "adelta_list"),
        ("illposed", "s"), ("illposed", "t"), ("twodepth", "c1"),
        ("twodepth", "c2")}


@pytest.mark.parametrize("command, key", RANGED)
def test_declared_ranges_reject_violations(tmp_path, capsys, monkeypatch,
                                           command, key):
    # a value outside the range is rejected while the config resolves, as a
    # flag and as an ini value alike
    monkeypatch.setitem(experiments.RUNNERS, command, None)
    words, admits = _SCHEMAS[command][key][2]
    raw = next(raw for raw in ("0", "-1") if not admits(float(raw)))
    ini = tmp_path / "run.ini"
    ini.write_text("[%s]\n%s = %s\n" % (command, key, raw))
    out = tmp_path / "x"
    for source in (["--" + key.replace("_", "-"), raw], ["--config", str(ini)]):
        assert main([command, *source, "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error: %s.%s %s: '%s'" % (command, key, words, raw) in err
        assert not out.exists()


@pytest.mark.parametrize("command, key, raw", [
    ("simulate", "dt", "0"), ("gronwall", "dt", "0"), ("twodepth", "dt", "0"),
    ("beta", "modes", "0"), ("simulate", "samples", "1"),
    ("gronwall", "seeds", "1"), ("gronwall", "samples", "1"),
    *((command, "n", raw) for command in sorted(_SCHEMAS)
      for raw in ("8", str(MAX_POINTS))),
    *((command, key, "0") for command in ("simulate", "beta", "gronwall",
                                          "twodepth")
      for key in ("seed", "decay")),
    ("simulate", "amplitude", "0"), ("beta", "amplitude", "0"),
    ("twodepth", "c2", "0"), ("beta", "kappa", "1"), ("gronwall", "kappa", "1"),
    # the cross-key constraints at their edges: the 64 Hardy modes of the
    # default n = 256, and 3,333 seeds at the three default depths
    ("beta", "modes", "2"), ("beta", "modes", "64"),
    ("gronwall", "seeds", str(MAX_MEMBERS // 3)),
])
def test_declared_ranges_admit_their_boundaries(tmp_path, command, key, raw):
    ini = tmp_path / "run.ini"
    ini.write_text("[%s]\n%s = %s\n" % (command, key, raw))
    assert load_config(command, overrides={key: raw}).params[key] == int(raw)
    assert load_config(command, str(ini)).params[key] == int(raw)


# one violation of each cross-key constraint: the command, the key it names
# and the settings that break it
CONSTRAINT_VIOLATIONS = [
    ("simulate", "seed", {"seed": "-1"}),
    ("simulate", "amplitude", {"amplitude": "-1"}),
    ("simulate", "decay", {"decay": "-1"}),
    ("beta", "modes", {"modes": "65"}),
    ("gronwall", "depth_list", {"depth_list": "1,1"}),
    ("gronwall", "seeds", {"seeds": "5000"}),
    ("illposed", "adelta_list", {"adelta_list": "2.8,2.8"}),
    ("smoothing", "s1_list", {"s1_list": "3", "s2_list": "1"}),
    ("smoothing", "s1_list", {"s1_list": "0", "s2_list": "1,2"}),
    ("twodepth", "min_depth_list", {"min_depth_list": "10,10"}),
]


def test_every_constraint_has_a_violation():
    assert {(command, key) for command, key, _ in CONSTRAINT_VIOLATIONS} == {
        (command, key) for command, entries in _CONSTRAINTS.items()
        for key, _, _ in entries}


@pytest.mark.parametrize("command, key, settings", CONSTRAINT_VIOLATIONS)
def test_constraints_reject_violations(tmp_path, capsys, monkeypatch, command,
                                       key, settings):
    # a broken constraint is a usage error that names its key once the
    # config resolves, from flags and from an ini file alike; the runner is
    # never reached
    monkeypatch.setitem(experiments.RUNNERS, command, None)
    ini = tmp_path / "run.ini"
    ini.write_text("[%s]\n" % command + "".join(
        "%s = %s\n" % item for item in settings.items()))
    flags = [token for name, raw in settings.items()
             for token in ("--" + name.replace("_", "-"), raw)]
    out = tmp_path / "x"
    for source in (flags, ["--config", str(ini)]):
        assert main([command, *source, "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: %s.%s " % (command, key))
        assert err.count("\n") == 1 and not out.exists()


def test_simulate_reads_no_seed_from_a_snapshot(tmp_path, capsys):
    # seed, amplitude and decay make no field when --initial gives it
    first = tmp_path / "first"
    assert main(["simulate", "--n", "64", "--t-final", "0.01", "--outdir",
                 str(first)]) == 0
    for key in ("seed", "amplitude", "decay"):
        assert main(["simulate", "--initial", str(first / "final.bin"),
                     "--" + key, "-1", "--n", "64", "--t-final", "0.01",
                     "--outdir", str(tmp_path / key)]) == 0
    capsys.readouterr()


def test_simulate_reports_the_step_it_took(tmp_path, capsys):
    # 0.1 / 0.003 rounds to 33 steps, so each step is 0.1 / 33, not 0.003
    out = tmp_path / "rounded"
    assert main(["simulate", "--n", "64", "--t-final", "0.1", "--dt", "0.003",
                 "--outdir", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["steps"] == 33
    assert report["dt"] == 0.1 / 33


def test_cli_empty_list_is_a_usage_error(tmp_path, capsys):
    # a list flag that holds no value names its key, with no traceback
    out = tmp_path / "empty"
    assert main(["smoothing", "--depth-list", ",", "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: smoothing.depth_list needs at least one value\n")
    assert not out.exists()


def test_twodepth_zero_field_is_a_usage_error(tmp_path, capsys):
    # a zero field has no deep-water gap to order: the run is not started,
    # rather than failing its ordering check on a gap of 0 at every depth
    out = tmp_path / "t"
    assert main(["twodepth", "--amplitude", "0", "--n", "64", "--t-final",
                 "0.01", "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: twodepth.amplitude must be positive: '0'\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "beta"])
def test_help_shows_each_default_and_range(capsys, command):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for key, (_, default, *declared) in _SCHEMAS[command].items():
        shown = "; ".join(["default %r" % (default,)]
                          + [words for words, _ in declared])
        assert "--%s V %s" % (key.replace("_", "-"), shown) in text


def test_cli_reads_negative_numbers_in_exponent_form(tmp_path, capsys):
    # argparse alone takes -1e-1 and -1,1 for options
    assert main(["beta", "--s", "-1e-1", "--outdir", str(tmp_path / "a")]) == 0
    assert main(["beta", "--s=-0.1", "--outdir", str(tmp_path / "b")]) == 0
    for name in ("beta_profile.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes()
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text())
                 for d in "ab"]
    for manifest in manifests:
        del manifest["wall_time_s"]
    assert manifests[0] == manifests[1]
    capsys.readouterr()
    out = tmp_path / "g"
    assert main(["gronwall", "--depth-list", "-1,1", "--outdir", str(out)]) == 1
    assert "usage error: gronwall.depth_list must be positive: '-1,1'" \
        in capsys.readouterr().err
    assert not out.exists()
    # a flag prefix is a usage error whatever its value looks like
    for value in ("1e308", "-1e308"):
        assert main(["gronwall", "--eps", value, "--outdir", str(out)]) == 1
        assert "unrecognized arguments: --eps" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["smoothing", "--depth-list", ""],
    ["smoothing", "--s1-list", " , "],
    ["illposed", "--adelta-list", ""],
    ["twodepth", "--min-depth-list", ""],
    ["simulate", "--t-final", "inf"],
    ["simulate", "--t-final", "nan"],
    ["simulate", "--dt=-inf"],
    ["wave", "--s-dirac", "nan"],
    ["gronwall", "--depth-list", "1.0,nan"],
    ["beta", "--kappa", "1e308"],
    ["gronwall", "--kappa", "1e200"],
    ["wave", "--depth", "0"],
    ["illposed", "--depth", "0"],
    ["simulate", "--samples", "0"],
    ["simulate", "--samples", "-3"],
    ["beta", "--modes", "-1"],
    ["simulate", "--seed", "-1"],
    ["beta", "--seed", "-1"],
    ["twodepth", "--seed", "-1"],
    ["gronwall", "--seed", "-3"],
    ["simulate", "--dt", "-1"],
    ["twodepth", "--dt", "-1"],
    ["gronwall", "--dt", "-1"],
    # a deep-water run reads its depths only for the reference rate
    ["gronwall", "--equation", "bo", "--depth-list=-1,1", "--n", "64",
     "--seeds", "1", "--samples", "2", "--t-final", "0.01"],
    # the deep-water flow reads no depth, but its depth is still declared
    ["simulate", "--equation", "bo", "--depth", "-5", "--n", "64",
     "--t-final", "0.05"],
])
def test_cli_rejects_empty_lists_and_non_finite_numbers(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main(argv + ["--outdir", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--t-final", "1e300"],
    ["simulate", "--t-final", "1e300", "--dt", "1e-10"],
    ["gronwall", "--t-final", "1e300"],
    ["twodepth", "--t-final", "1e300"],
    # the default step shrinks with sup|u0|
    ["simulate", "--amplitude", "1e300"],
    ["gronwall", "--amplitude", "1e100"],
    ["twodepth", "--amplitude", "1e300"],
])
def test_cli_rejects_runs_beyond_the_step_limit(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main(argv + ["--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "steps" in err
    # a default step is named with the sup|u0| it came from
    assert ("the default step is" in err) == ("--dt" not in argv)
    assert ("sup|u0| = " in err) == ("--dt" not in argv)
    assert not out.exists()


@pytest.mark.parametrize("kappa", ["1e150", "1e200", "1e300", "1.7e308"])
def test_gronwall_large_kappa_exits_cleanly(tmp_path, capsys, kappa):
    # a kappa whose square overflows is rejected before any step; one just
    # below that limit runs
    out = tmp_path / "g"
    argv = ["gronwall", "--kappa", kappa, "--depth-list", "1.0", "--n", "128",
            "--seeds", "2", "--samples", "5", "--t-final", "0.05",
            "--outdir", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    too_large = "kappa = %.3g is too large: kappa^2 overflows" % float(kappa)
    if float(kappa) < 1e154:
        assert code == 0 and too_large not in err
    else:
        assert code == 1 and too_large in err and not out.exists()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in err and "Traceback" not in err


@pytest.mark.parametrize("flags, epsilon, depth", [
    (["--epsilon", "1e308"], "1e+308", "0.5"),
    (["--epsilon=-1e308"], "-1e+308", "2"),
    # the deep-water run keeps its depths for the reference rate alone
    (["--equation", "bo", "--depth-list", "0"], "0.01", "0"),
    (["--epsilon", "-1e308"], "-1e+308", "2"),
])
def test_gronwall_overflowing_reference_rate_exits_before_any_step(
        tmp_path, capsys, monkeypatch, flags, epsilon, depth):
    # the reference rate depth^-2 (1 + depth^(-|s| - 1/2 - epsilon)) is
    # computed for every depth before the ensemble takes a step
    from ilw_lab import lax as lax_module

    stepped = []
    monkeypatch.setattr(lax_module, "etdrk4_samples",
                        lambda *args, **kwargs: stepped.append(args) or iter(()))
    out = tmp_path / "g"
    assert main(["gronwall", "--n", "32", "--t-final", "0.01", "--samples",
                 "2", "--seeds", "1", *flags, "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    message = ("the reference rate overflows at epsilon = %s and depth %s"
               % (epsilon, depth))
    if "bo" in flags:
        # the command line rejects a depth of 0 by its declared range; the
        # runner's reference rate still names it
        assert "usage error: gronwall.depth_list must be positive: '0'" in err
        with pytest.raises(ContractError, match=re.escape(message)):
            experiments._reference_rate(0.0, -0.25, 0.01)
        assert experiments._reference_rate(1.0, -0.25, 0.01) == \
            pytest.approx(2.0, rel=1e-14)
    else:
        assert "usage error: " + message in err
    assert "Traceback" not in err
    assert stepped == [] and not out.exists()


def test_gronwall_rejects_a_huge_ensemble_at_once(tmp_path, capsys,
                                                  monkeypatch):
    # no initial state is built past the member limit
    def no_field(*args):
        raise AssertionError("an initial state was built")

    monkeypatch.setattr(experiments, "random_field", no_field)
    out = tmp_path / "g"
    started = time.perf_counter()
    code = main(["gronwall", "--seeds", "100000000000000000000",
                 "--outdir", str(out)])
    elapsed = time.perf_counter() - started
    err = capsys.readouterr().err
    assert code == 1 and elapsed < 1.0
    assert "usage error: gronwall.seeds = 100000000000000000000 at 3 depths " \
        "exceeds the limit of %d ensemble members" % MAX_MEMBERS in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv", [
    ["wave", "--n", "2000000000000"],
    ["wave", "--n", "4611686018427387904"],
    ["smoothing", "--n", "2000000000000"],
    ["beta", "--n", "2000000000000"],
    ["gronwall", "--n", "2000000000000"],
])
def test_cli_rejects_grids_beyond_the_point_limit(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main(argv + ["--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("usage error: %s.n must be an even integer from 8 to %d: '%s'"
            % (argv[0], MAX_POINTS, argv[2])) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_load_config_rejects_bad_input(tmp_path):
    with pytest.raises(ContractError):
        load_config("warp")
    with pytest.raises(ContractError):
        load_config("beta", overrides={"kappa": "many"})
    with pytest.raises(ContractError):
        load_config("beta", overrides={"not_a_key": "1"})
    ini = tmp_path / "run.ini"
    ini.write_text("[beta]\nnot_a_key = 1\n")
    with pytest.raises(ContractError):
        load_config("beta", config_path=str(ini))
    with pytest.raises(ContractError):
        load_config("beta", config_path=str(tmp_path / "absent.ini"))
    # a malformed file names itself in the usage error
    for text in (b"kappa = 8\n",                       # no section header
                 b"[beta]\nkappa = 8\nkappa = 9\n",    # duplicate option
                 b"[beta]\nkappa = 8\n[beta]\ns = -0.3\n",  # duplicate section
                 b"[beta]\nkappa = \xff\xfe8\n",       # not UTF-8
                 b"[beta]\nkappa\n",                    # no '='
                 b"[beta]\nkappa = %(x)s\n"):           # bad interpolation
        ini.write_bytes(text)
        with pytest.raises(ContractError, match="malformed config file .*run.ini"):
            load_config("beta", config_path=str(ini))


def test_cli_malformed_config_is_a_usage_error(tmp_path, capsys):
    ini = tmp_path / "dup.ini"
    ini.write_text("[wave]\ndepth = 1\ndepth = 2\n")
    out = tmp_path / "wv"
    assert main(["wave", "--config", str(ini), "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: malformed config file %s" % ini)
    assert "Traceback" not in err
    assert not out.exists()


# ------------------------------------------------------------ CLI surface

def test_cli_wave_passes(tmp_path, capsys):
    out = tmp_path / "wv"
    assert main(["wave", "--outdir", str(out)]) == 0
    assert capsys.readouterr().out == "ok: wave -> %s\n" % out
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "report.json", "wave.csv"]
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["failures"] == []
    assert report["report"]["residual_sup"] < 1e-8
    assert report["report"]["route_gap"] < 1e-10
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "wave"
    assert manifest["outputs"] == ["report.json", "wave.csv"]
    assert set(manifest["versions"]) == {"numpy"}
    assert manifest["config"]["depth"] == repr(1.0)
    assert manifest["wall_time_s"] >= 0.0


def test_python_m_runs_the_cli(tmp_path):
    # ``python -m ilw_lab`` is the same front end as the ``ilw-lab`` script
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = tmp_path / "wv"
    done = subprocess.run(
        [sys.executable, "-m", "ilw_lab", "wave", "--n", "64",
         "--outdir", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok: wave -> %s\n" % out
    assert json.loads((out / "report.json").read_text())["passed"] is True


def test_certified_runs_never_import_scipy_linalg(tmp_path):
    # numpy is the only runtime dependency: no command loads scipy, not even
    # the uncertified beta run whose resolvent takes the Cholesky fallback
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    runs = [
        (["simulate", "--n", "64", "--t-final", "0.05"], 0),
        (["wave", "--n", "64"], 0),
        (["beta", "--n", "4096"], 0),
        (["beta", "--amplitude", "2", "--kappa", "3"], 3),
        (["gronwall", "--n", "128", "--seeds", "2", "--samples", "5",
          "--t-final", "0.05"], 0),
        (["illposed", "--n", "64"], 0),
        (["smoothing", "--n", "256"], 0),
        (["twodepth", "--n", "64", "--t-final", "0.05"], 0),
    ]
    code = "\n".join(
        ["import sys", "import ilw_lab.cli"]
        + ["assert ilw_lab.cli.main(%r) == %d"
           % (argv + ["--outdir", "o%d" % i], exit_code)
           for i, (argv, exit_code) in enumerate(runs)]
        + ["print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_perfbench_tracer_wraps_every_layer_it_names(tmp_path):
    # perfbench/tracing.py rebinds the package's layer functions and
    # methods by name, and a renamed or re-signed one fails its traced
    # run; the tracer monkeypatches the package, so it runs in a fresh
    # process, with small beta, gronwall and simulate runs and the dense
    # LaxSpectrum call that perfbench's diagnostic times
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    runs = [["beta", "--n", "256"],
            ["gronwall", "--n", "64", "--seeds", "1", "--samples", "2",
             "--t-final", "0.01"],
            ["simulate", "--n", "64", "--t-final", "0.05"]]
    code = "\n".join([
        "import json, sys",
        "sys.path.insert(0, %r)" % str(root / "perfbench"),
        "import tracing",
        "from ilw_lab import cli, lax",
        "from ilw_lab.experiments import random_field",
        "from ilw_lab.spectral import SpectralGrid",
        "tracer = tracing.Tracer()",
        "tracing.install(tracer)",
        "codes = [cli.main(argv + ['--outdir', 'o%%d' %% i])"
        " for i, argv in enumerate(%r)]" % runs,
        "u = random_field(SpectralGrid(1.0, 128), -0.25, 0.3, 1, 0.0)",
        "lax.LaxSpectrum(lax.build_lax(u, lax.modes_to_xi_max(u.grid, 16)),"
        " u)",
        "print(json.dumps({'codes': codes, 'errors': tracer.errors,"
        " 'names': sorted({span[2] for span in tracer.spans})}))"])
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["errors"] == []
    assert {"lax.eigh", "lax.form_at"} <= set(result["names"])


def test_cli_usage_errors(tmp_path, capsys):
    assert main([]) == 1
    assert main(["wave", "--n", "abc", "--outdir", str(tmp_path / "x")]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["--n", "4096", "--kappa", "0.5"], "beta.kappa must be >= 1: '0.5'"),
    (["--n", "4096", "--s", "-0.75"], "beta.s must lie in (-1/2, 0): '-0.75'"),
], ids=["kappa", "s"])
def test_beta_checks_s_and_kappa_before_it_measures(tmp_path, capsys,
                                                   monkeypatch, argv, message):
    # at n = 4096 kappa = 0.5 is not certified, so measuring first would
    # take a dense 1024 x 1024 eigh before the usage error; neither the
    # Lanczos run nor the dense measure is reached, and nothing is written
    from ilw_lab import lax as lax_module
    reached = []

    def refuse(name):
        return lambda *args, **kwargs: reached.append(name)

    monkeypatch.setattr(lax_module.LaxSpectrum, "lanczos", refuse("lanczos"))
    monkeypatch.setattr(lax_module, "_dense_measure", refuse("dense"))
    out = tmp_path / "b"
    assert main(["beta", *argv, "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == "usage error: %s\n" % message
    assert reached == [] and not out.exists()


def test_cli_unknown_equation_is_named_before_any_work(tmp_path, capsys,
                                                       monkeypatch):
    # the schema declares the equation, so an unknown one is rejected while
    # the config resolves, ahead of the reference rate that overflows here
    monkeypatch.setitem(experiments.RUNNERS, "gronwall", None)
    out = tmp_path / "g"
    assert main(["gronwall", "--n", "64", "--seeds", "1", "--samples", "2",
                 "--t-final", "0.01", "--equation", "kdv", "--epsilon",
                 "1e308", "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "usage error: gronwall.equation must be 'ilw' or 'bo': 'kdv'\n")
    assert not out.exists()


def test_cli_numerical_failure_exit(tmp_path, capsys):
    # an amplitude this large drops the spectrum below the default shift
    assert main(["beta", "--amplitude", "100",
                 "--outdir", str(tmp_path / "bt")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_beta_solves_the_resolvent_without_a_dense_matrix(tmp_path, capsys,
                                                         monkeypatch):
    from ilw_lab.lax import LaxTruncation

    dense = []
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda *args, **kwargs: dense.append("cholesky"))
    monkeypatch.setattr(LaxTruncation, "matrix",
                        property(lambda self: dense.append("matrix")))
    for seed in (1, 2, 3):
        out = tmp_path / ("seed-%d" % seed)
        assert main(["beta", "--n", "4096", "--seed", str(seed),
                     "--outdir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())["report"]
        # the resolvent solve against the certified Lanczos Gauss value
        assert report["form_route_gap"] < 1e-12
        # the shared closed-form rule against the adaptive Gauss-Kronrod one
        assert report["weighted_rule_gap"] < 1e-12
        assert 0 < report["resolvent_iterations"] <= 12
    capsys.readouterr()
    assert dense == []


def test_beta_checks_its_form_route_gap(tmp_path, capsys, monkeypatch):
    # a resolvent state off by 1e-11 moves the form by as much, past the
    # 1e-12 that the two routes must meet
    solve = experiments.resolvent_state

    def skewed(*args, **kwargs):
        state = solve(*args, **kwargs)
        return dataclasses.replace(state, coeffs=state.coeffs * (1.0 + 1e-11))

    monkeypatch.setattr(experiments, "resolvent_state", skewed)
    out = tmp_path / "bt"
    assert main(["beta", "--outdir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("FAILED:") == 1
    assert "FAILED: resolvent and Lanczos forms differ by 1.0" in err
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert 9e-12 < report["report"]["form_route_gap"] < 1.1e-11


def test_beta_keeps_its_rules_together_at_the_critical_edge(tmp_path):
    # near s = -1/2 the default kappa fails its admissible threshold (exit
    # 3), and the closed-form kernel still agrees with the adaptive rule
    result = run(load_config("beta", overrides={"n": 256, "s": -0.49999},
                             output_dir=str(tmp_path / "beta")))
    assert not result.passed
    assert len(result.failures) == 1
    assert result.failures[0].startswith("kappa 32 below admissible threshold")
    assert result.report["weighted_rule_gap"] < 1e-12


@pytest.mark.parametrize("argv, message", [
    # the kappa threshold overflows to inf; the shift also fails to clear
    # lambda_min, a numerical failure as at amplitude 100
    (["--amplitude", "1e100"], "does not clear lambda_min"),
    # without a certifying kappa the default shift fails here too (with one,
    # see test_cli_overflowed_kappa_threshold_is_a_failed_check)
    (["--amplitude", "1e120"], "does not clear lambda_min"),
    # ||P_+ u|| overflows in the dense constructor
    (["--amplitude", "1e160"], "is not finite"),
    (["--amplitude", "1e200"], "is not finite"),
])
def test_cli_huge_amplitude_is_a_numerical_failure(tmp_path, capsys, argv,
                                                   message):
    out = tmp_path / "bt"
    assert main(["beta"] + argv + ["--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_overflowed_kappa_threshold_is_a_failed_check(tmp_path, capsys):
    # a certified shift whose admissible-shift threshold overflows: the run
    # completes and reports the failed check, with a null threshold
    out = tmp_path / "bt"
    assert main(["beta", "--amplitude", "1e120", "--kappa", "1e121",
                 "--outdir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "FAILED: kappa 1e+121 below admissible threshold inf" in err
    assert "Traceback" not in err
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["report"]["kappa_threshold"] is None


def test_cli_reported_check_failure_exit(tmp_path, capsys):
    # a unit box cannot resolve the symbol peak; the spread blows past 10
    out = tmp_path / "sm"
    assert main(["smoothing", "--length", "1.0", "--n", "256",
                 "--outdir", str(out)]) == 3
    assert "FAILED" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert not report["passed"]
    assert any("spread" in item for item in report["failures"])


def _reject_non_finite(token):
    raise ValueError("non-finite JSON value %s" % token)


def test_simulate_reports_the_hamiltonian_identity_as_a_failed_check(
        tmp_path, capsys):
    # at depth 1e-7 the decomposed energy misses the direct one by 6.1e-12,
    # past 1e-12*max(1, |H|): the identity fails like every other check,
    # with one FAILED line and every output written
    out = tmp_path / "sim"
    assert main(["simulate", "--n", "64", "--depth", "1e-7",
                 "--outdir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("FAILED:") == 1
    assert re.search(r"^FAILED: Hamiltonian decomposition identity violated "
                     r"\(gap \d\.\d{3}e-\d+\)$", err, re.MULTILINE)
    assert "internal check failed" not in err
    assert (out / "trajectory.csv").is_file()
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_reject_non_finite)
    assert report["passed"] is False
    assert report["failures"] == [err.strip()[len("FAILED: "):]]


def test_package_has_one_failure_channel():
    # a check fails through RunReport.failures alone: the package holds no
    # assert statement (which -O strips) and raises or catches no
    # AssertionError
    package = Path(__file__).resolve().parents[1] / "src" / "ilw_lab"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


@pytest.mark.parametrize("argv, code, line", [
    # depth^-2 overflows the smoothing bound
    (["smoothing", "--depth-list", "1e-300", "--length", "0.25"], 1,
     "usage error"),
    # the bound underflows to 0 and its ratio would divide by it
    (["smoothing", "--depth-list", "1e308"], 1, "usage error"),
    # the symbol vanishes on the whole lattice, so the measured norm is 0
    (["smoothing", "--depth-list", "1e10"], 1, "usage error"),
    # the 2*pi mode underflows to 0 and the phase rate would divide by it
    (["illposed", "--depth", "1e300"], 2, "numerical failure"),
    # the grid spacing underflows to 0, which leaves no frequency lattice
    *[([command, "--length", "5e-324"], 1,
       "usage error: grid spacing 0 is not a positive normal float")
      for command in ("simulate", "beta", "gronwall", "twodepth",
                      "smoothing")],
    # a = adelta/depth = 2e154, whose square overflows
    (["wave", "--depth", "1e-154"], 1,
     "usage error: wave number a = 2e+154 is too large: a^2 overflows"),
    # one s1 for two s2: the sweep has no pairs to scan
    pytest.param(["smoothing", "--s1-list", "0", "--s2-list", "1,2"], 1,
                 "usage error: smoothing.s1_list must pair up with s2_list, "
                 "each value at most its pair: [0.0] and [1.0, 2.0]",
                 id="smoothing-pairing"),
])
def test_cli_extreme_depths_exit_without_traceback(tmp_path, capsys, argv,
                                                   code, line):
    out = tmp_path / "run"
    assert main(argv + ["--outdir", str(out)]) == code
    err = capsys.readouterr().err
    assert line in err and "Traceback" not in err
    assert not out.exists()


def test_cli_illposed_passes(tmp_path, capsys):
    assert main(["illposed", "--outdir", str(tmp_path / "ip")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, key", [
    (["gronwall", "--depth-list", "1.0,0.5,1.0", "--seeds", "2", "--n", "128",
      "--samples", "5", "--t-final", "0.05"], "gronwall.depth_list"),
    (["twodepth", "--min-depth-list", "10,10,20", "--n", "64",
      "--t-final", "0.05"], "twodepth.min_depth_list"),
    (["illposed", "--adelta-list", "2.8,2.8,3.0", "--n", "64"],
     "illposed.adelta_list"),
])
def test_cli_repeated_sweep_value_is_a_usage_error(tmp_path, capsys, argv,
                                                   key):
    # each sweep's check compares neighbours, which a repeat always fails
    out = tmp_path / "run"
    assert main(argv + ["--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: %s repeats a value: [" % key)
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, key, raw", [
    ("wave", "adelta", "3.2"), ("illposed", "adelta_list", "2.8,3.2"),
    ("wave", "adelta", repr(ADELTA_MAX))])
def test_cli_adelta_at_or_above_its_bound_names_the_flag(tmp_path, capsys,
                                                         command, key, raw):
    # the declared range names the flag, from a flag and from an ini file,
    # before the library checks the product a*depth
    ini = tmp_path / "run.ini"
    ini.write_text("[%s]\n%s = %s\n" % (command, key, raw))
    out = tmp_path / "run"
    for source in (["--" + key.replace("_", "-"), raw], ["--config", str(ini)]):
        assert main([command, *source, "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "usage error: %s.%s must be below pi - 1e-3: '%s'\n" % (
            command, key, raw)
        assert not out.exists()


def test_cli_adelta_below_its_bound_is_still_checked_as_a_product(tmp_path,
                                                                  capsys):
    # the largest adelta below the bound passes the range, but at depth 0.3
    # a*depth = (adelta/0.3)*0.3 rounds up to the bound, which the library
    # rejects
    adelta = float(np.nextafter(ADELTA_MAX, 0.0))
    assert (adelta / 0.3) * 0.3 >= ADELTA_MAX
    out = tmp_path / "run"
    assert main(["wave", "--depth", "0.3", "--adelta", repr(adelta),
                 "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: a*depth = 3.140593 is outside the "
                          "supported regime (< pi - 1e-3)")
    assert not out.exists()


def test_cli_beta_needs_two_hardy_modes(tmp_path, capsys):
    # one mode would put the frequency cut at 0; the schema's range names
    # beta.modes, not the count that the library checks
    out = tmp_path / "one"
    assert main(["beta", "--modes", "1", "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: beta.modes must be 0 (every mode) or "
                          ">= 2: '1'")
    assert "Traceback" not in err
    assert not out.exists()
    assert main(["beta", "--modes", "2", "--outdir",
                 str(tmp_path / "two")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, modes, limit, n", [
    (["--n", "8", "--modes", "3"], 3, 2, 8),
    (["--modes", "65"], 65, 64, 256),
])
def test_cli_beta_modes_past_the_grid_name_the_modes(tmp_path, capsys,
                                                     monkeypatch, argv, modes,
                                                     limit, n):
    # more modes than the grid resolves: the error names beta.modes, the
    # largest count the grid resolves and n, not the cut xi_max, which the
    # command line never set, and no truncation is built
    built = []
    build_lax = experiments.build_lax
    monkeypatch.setattr(experiments, "build_lax",
                        lambda *args: built.append(args) or build_lax(*args))
    out = tmp_path / "past"
    assert main(["beta", *argv, "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("usage error: beta.modes = %d exceeds %d, the Hardy modes "
                   "that n = %d resolves\n" % (modes, limit, n))
    assert built == [] and not out.exists()
    # the largest count the grid resolves runs
    assert main(["beta", *argv[:-1], str(limit), "--outdir",
                 str(tmp_path / "limit")]) == 0
    capsys.readouterr()


def test_illposed_sorts_its_sweep(tmp_path, capsys):
    out = tmp_path / "ip"
    assert main(["illposed", "--adelta-list", "3.0,2.8", "--n", "64",
                 "--outdir", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "illposed.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [2.8, 3.0]


def test_wave_sums_the_speed_correction_once(monkeypatch):
    # the wave constants carry the speed of their own V
    from ilw_lab import waves

    calls = []
    interaction_sum_v = waves.interaction_sum_v

    def counted(a, depth):
        calls.append(a)
        return interaction_sum_v(a, depth)

    monkeypatch.setattr(waves, "interaction_sum_v", counted)
    experiments.run_wave(load_config("wave"))
    assert len(calls) == 1


def test_wave_synthesizes_each_profile_route_once(monkeypatch):
    # route_gap and wave.csv read one synthesis of each route; the other two
    # are traveling_residual's own (the profile and its dispersion image)
    from ilw_lab.spectral import RealField

    calls = []
    samples = RealField.samples
    monkeypatch.setattr(RealField, "samples",
                        lambda self: calls.append(self) or samples(self))
    experiments.run_wave(load_config("wave"))
    assert len(calls) == 4


def test_simulate_evaluates_the_depth_multiplier_once(monkeypatch):
    # make_ilw evaluates the energy symbol once and takes the linear symbol
    # from it; the hamiltonian diagnostic reads that symbol at every state
    from ilw_lab import symbols

    calls = []
    coth_minus_inverse = symbols._coth_minus_inverse
    monkeypatch.setattr(symbols, "_coth_minus_inverse",
                        lambda xi, depth: calls.append(depth)
                        or coth_minus_inverse(xi, depth))
    result = experiments.run_simulate(load_config("simulate"))
    assert calls == [1.0]
    assert result.passed


def test_simulate_computes_the_cubic_term_once_per_state(monkeypatch):
    # the hamiltonian diagnostic takes the cubic term of each of the 101
    # stored states; the decomposition check compares the quadratic parts
    # alone, because the cubic term is the same on both sides
    from ilw_lab import evolution

    calls = []
    cubic_integral = evolution._cubic_integral
    monkeypatch.setattr(evolution, "_cubic_integral",
                        lambda state: calls.append(state)
                        or cubic_integral(state))
    result = experiments.run_simulate(load_config("simulate"))
    assert len(calls) == 101
    assert len({id(state) for state in calls}) == 101
    assert result.passed


def test_beta_passes_each_tau_of_its_rule_to_the_form_once(monkeypatch):
    # the adaptive rule keeps the profile it adapted on, so beta evaluates
    # no tau twice except kappa: once for the rule's shift check and once
    # for the Gauss value of its route check
    from ilw_lab.lax import LaxSpectrum

    taus = []
    form_at = LaxSpectrum.form_at

    def recorded(self, values):
        taus.extend(np.atleast_1d(values).tolist())
        return form_at(self, values)

    monkeypatch.setattr(LaxSpectrum, "form_at", recorded)
    cfg = load_config("beta")
    result = experiments.run_beta(cfg)
    nodes = [float(row.split(",")[0]) for row in
             result.files["beta_profile.csv"].decode().splitlines()[1:]]
    assert len(taus) == 338
    assert taus.count(cfg.params["kappa"]) == 2
    assert len(set(taus)) == len(taus) - 1
    assert set(nodes) <= set(taus)


def test_illposed_sums_no_lattice_profile(monkeypatch):
    # the sweep reads only the Fourier profile, so it sums no translates
    from ilw_lab import waves

    calls = []
    inv_cosh_plus = waves._inv_cosh_plus

    def counted(y, adelta):
        calls.append(adelta)
        return inv_cosh_plus(y, adelta)

    monkeypatch.setattr(waves, "_inv_cosh_plus", counted)
    experiments.run_illposed(load_config("illposed"))
    assert calls == []
    # the wave command still sums its lattice route through it
    experiments.run_wave(load_config("wave"))
    assert calls


def test_illposed_sums_the_dirac_tail_and_each_speed_once(monkeypatch):
    # the sweep's profiles share one grid, so they share one Dirac tail;
    # one observables call per wave number sums the speed at a, at the
    # slope probe and at the far probe
    from ilw_lab import waves

    tails, speeds = [], []
    dirac_tail, periodic_speed = waves.dirac_tail, waves.periodic_speed

    def counted_tail(k_start, s):
        tails.append((k_start, s))
        return dirac_tail(k_start, s)

    def counted_speed(a, depth):
        speeds.append(a)
        return periodic_speed(a, depth)

    monkeypatch.setattr(waves, "dirac_tail", counted_tail)
    monkeypatch.setattr(waves, "periodic_speed", counted_speed)
    experiments.run_illposed(load_config("illposed"))
    assert tails == [(512, -0.6)]
    assert len(speeds) == 12
    sweep = [2.8, 3.0, 3.1, 3.14]
    assert [a for a in speeds if a in sweep] == sweep
    # the wave command measures one profile, so it sums one tail too
    experiments.run_wave(load_config("wave"))
    assert len(tails) == 2


@pytest.mark.parametrize("flags, reference", [
    ([], "illposed-tiny-t"),
    # slopes near 0.04: |t|*slope rounds to 0
    (["--depth", "0.01", "--adelta-list", "0.05,0.1"],
     "illposed-tiny-t-shallow"),
])
def test_illposed_tiny_time_clamps_its_probe_without_a_warning(
        tmp_path, capsys, flags, reference):
    # at t = 5e-324 the probe step 0.1/(|t|*slope) is too large for a float:
    # it reads inf and the clamp takes over, with no overflow or
    # divide-by-zero warning
    out = tmp_path / "ip"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["illposed", "--n", "64", "--t", "5e-324", *flags,
                     "--outdir", str(out)]) == 0
    assert "Warning" not in capsys.readouterr().err
    assert (out / "illposed.csv").read_bytes() == (
        TEST_REFERENCE / reference / "illposed.csv").read_bytes()


# -------------------------------------------------------------- determinism

SIM_ARGS = ["simulate", "--n", "128", "--t-final", "0.1", "--dt", "1e-3",
            "--samples", "10"]
GRONWALL_ARGS = ["gronwall", "--depth-list", "1.0", "--seeds", "2",
                 "--t-final", "0.2", "--dt", "1e-3", "--n", "128",
                 "--samples", "10"]
TWODEPTH_ARGS = ["twodepth", "--c2", "0", "--min-depth-list", "10,20",
                 "--t-final", "0.1", "--n", "128", "--dt", "1e-3"]


def _config(argv, outdir):
    """The config ``cli.main`` resolves for ``argv``."""
    args = vars(build_parser().parse_args(argv))
    overrides = {key: value for key, value in args.items()
                 if key not in ("command", "config", "outdir")
                 and value is not None}
    return load_config(args["command"], None, overrides, str(outdir))


@pytest.mark.parametrize("argv", [
    SIM_ARGS,
    ["wave", "--n", "256"],
    ["beta"],
    GRONWALL_ARGS,
    ["illposed", "--n", "256"],
    ["smoothing", "--n", "512"],
    TWODEPTH_ARGS,
], ids=lambda argv: argv[0])
def test_reruns_byte_identical(tmp_path, argv):
    a = run(_config(argv, tmp_path / "a"))
    b = run(_config(argv, tmp_path / "b"))
    assert a.passed, a.failures
    # only the manifest carries wall-clock time
    assert sorted(a.files) == sorted(b.files)
    for name, data in a.files.items():
        assert data == (tmp_path / "a" / name).read_bytes()
        if name != "manifest.json":
            assert data == b.files[name], name
    if argv[0] == "simulate":
        header = a.files["trajectory.csv"].decode().splitlines()[0]
        assert header.startswith("time,")
        assert "mass" in header and "hamiltonian" in header
    if argv[0] == "gronwall":
        report = json.loads(a.files["report.json"])
        assert report["passed"] is True
        assert report["report"]["all_bound_ok"] is True


def test_failed_report_leaves_no_output_directory(tmp_path, monkeypatch):
    # the runner finished and produced a table, but its report cannot go
    # into strict JSON: nothing may reach the disk
    def runner(cfg):
        return RunReport(cfg.command, {"gap": float("nan")}, [],
                         {"wave.csv": b"x\n1.0\n"})

    monkeypatch.setitem(experiments.RUNNERS, "wave", runner)
    out = tmp_path / "wv"
    with pytest.raises(NumericalError, match="report.gap"):
        run(load_config("wave", output_dir=str(out)))
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--samples", "0"], ["--seeds", "0"],
                                   ["--depth-list", ""]])
def test_gronwall_rejects_empty_ensemble(tmp_path, capsys, extra):
    assert main(GRONWALL_ARGS + extra + ["--outdir", str(tmp_path / "g")]) == 1
    assert "usage error" in capsys.readouterr().err


def test_gronwall_rejects_zero_initial_data(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(GRONWALL_ARGS + ["--amplitude", "0", "--outdir", str(out)]) == 1
    assert "usage error: gronwall.amplitude must be positive: '0'" \
        in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_gronwall_batches_match_member_runs(tmp_path, capsys):
    # at this amplitude the three members resolve three different steps, so
    # the ensemble runs three batches in all, each holding both depths of one
    # seed; the table is the one per-member runs give
    overrides = {"n": "128", "t_final": "0.05", "samples": "5", "seeds": "3",
                 "depth_list": "0.5,1.0", "amplitude": "30", "kappa": "1e4"}
    argv = [arg for key, value in overrides.items()
            for arg in ("--" + key.replace("_", "-"), value)]
    out = tmp_path / "g"
    assert main(["gronwall"] + argv + ["--outdir", str(out)]) == 0
    capsys.readouterr()
    p = load_config("gronwall", overrides=overrides).params
    grid = SpectralGrid(p["length"], p["n"])
    initials = {seed: random_field(grid, p["s"], p["amplitude"], seed, p["decay"])
                for seed in (1, 2, 3)}
    steps = {default_dt(make_ilw(1.0, grid), u0) for u0 in initials.values()}
    assert len(steps) == 3
    rows = []
    for depth in (0.5, 1.0):
        a_reference = experiments._reference_rate(depth, p["s"], p["epsilon"])
        problem = make_ilw(depth, grid)
        for seed, u0 in initials.items():
            rep = gronwall_experiment(u0, problem, p["s"], p["kappa"],
                                      t_final=p["t_final"], n_samples=p["samples"])
            bound_ok = np.all(rep.form_values <= rep.form_values[0]
                              * np.exp(rep.a_hat * rep.times) * (1.0 + 1e-6))
            margin = float((p["kappa"] - kappa_threshold(
                rep.norms, p["s"], p["c_s"])).min())
            rows.append((depth, seed, rep.a_hat, a_reference, bound_ok,
                         margin, float(rep.form_values[0]),
                         float(rep.form_values[-1])))
    expected = _csv(["depth", "seed", "a_hat", "a_reference", "bound_ok",
                     "kappa_margin", "form_initial", "form_final"], rows)
    assert (out / "runs.csv").read_bytes() == expected


def _failed_lines(err):
    return [line for line in err.splitlines() if line.startswith("FAILED:")]


def test_gronwall_checks_the_admissible_shift(tmp_path, capsys):
    # kappa = 1 clears lambda_min but not the norm threshold 2.008: every
    # form is computable, so the run writes all its outputs, and its one
    # FAILED line names the worst member, in beta's words (exit 3)
    out = tmp_path / "g"
    assert main(["gronwall", "--kappa", "1", "--n", "64", "--seeds", "1",
                 "--samples", "2", "--t-final", "0.01",
                 "--outdir", str(out)]) == 3
    assert _failed_lines(capsys.readouterr().err) == [
        "FAILED: kappa 1 below admissible threshold 2.008 at depth=0.5 seed=1"]
    assert sorted(path.name for path in out.iterdir()) == [
        "manifest.json", "report.json", "runs.csv"]
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False and len(report["failures"]) == 1
    rows = list(csv.DictReader((out / "runs.csv").read_text().splitlines()))
    assert [float(row["depth"]) for row in rows] == [0.5, 1.0, 2.0]
    for row in rows:
        assert float(row["kappa_margin"]) == pytest.approx(-1.008, abs=1e-3)
    # the depth ordering holds, so it adds no line
    rates = [report["report"]["mean_a_hat"][d] for d in ("0.5", "1.0", "2.0")]
    assert rates[0] > rates[1] > rates[2]


def test_gronwall_checks_the_depth_ordering(tmp_path, capsys, monkeypatch):
    # the fitted rates reversed across depths fail the ordering check alone
    ensemble = experiments.gronwall_ensemble

    def reversed_rates(initials, problems, *args, **kwargs):
        reports = ensemble(initials, problems, *args, **kwargs)
        by_depth = np.reshape(reports, (len(set(map(id, problems))), -1))
        return [dataclasses.replace(rep, a_hat=mirror.a_hat)
                for rep, mirror in zip(by_depth.ravel(),
                                       by_depth[::-1].ravel())]

    monkeypatch.setattr(experiments, "gronwall_ensemble", reversed_rates)
    out = tmp_path / "g"
    assert main(["gronwall", "--n", "128", "--seeds", "2", "--samples", "5",
                 "--t-final", "0.05", "--outdir", str(out)]) == 3
    failed = _failed_lines(capsys.readouterr().err)
    assert len(failed) == 1
    assert failed[0].startswith("FAILED: fitted rates not decreasing in depth")
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["report"]["all_bound_ok"] is True


def _wrap(monkeypatch, name, fault):
    """Replace ``experiments.<name>`` by ``fault`` applied to its output."""
    original = getattr(experiments, name)
    monkeypatch.setattr(experiments, name,
                        lambda *args, **kwargs: fault(original(*args, **kwargs)))


def _drift(diagnostic, change):
    """A fault of ``evolve``: ``change`` applied in place to the last entry
    of one diagnostic series of the trajectory."""
    def fault(trajectory):
        series = trajectory.diagnostics[diagnostic]
        series[-1] = change(series[-1])
        return trajectory
    return fault


def _reverse_depths(samples):
    """A fault of ``etdrk4_samples``: the depth rows of every sample of the
    two-depth batch in reverse order, behind the deep-water row."""
    for t, stack in samples:
        yield t, np.concatenate((stack[:1], stack[:0:-1]))


# one witness per FAILED line of a run at small size that passes as it
# stands: the name of the one route its check compares, the fault put into
# that route's output, and the line the fault must give alone; a line that
# ends in a space is the prefix of one whose measured figures follow
CHECK_WITNESSES = [
    ("wave --n 64", "traveling_residual", lambda r: r + 1e-6,
     "FAILED: traveling residual 1.000e-06 >= 1e-8"),
    ("wave --n 64", "lattice_profile", lambda u: u.shifted(1e-3),
     "FAILED: profile routes differ by "),
    ("illposed --n 64", "distance_to_dirac", lambda d: d[::-1],
     "FAILED: Dirac distances not decreasing: "),
    ("illposed --n 64", "illposed_observables",
     lambda obs: dataclasses.replace(obs, mode_2pi=1.0 + 0.0j),
     "FAILED: mode moduli not converging to 2*pi: [1.0, 1.0, 1.0, 1.0]"),
    ("illposed --n 64", "illposed_observables",
     lambda obs: dataclasses.replace(obs, phase_rate=obs.phase_rate + 1e-6),
     "FAILED: phase rate differs from -2*pi*t by 1.000e-06"),
    ("illposed --n 64", "galilean", lambda u: u * (1.0 + 1e-6),
     "FAILED: family mean off alpha by 5.000e-07"),
    ("twodepth --n 64 --t-final 0.05", "etdrk4_samples", _reverse_depths,
     "FAILED: deep-water gap not decreasing: "),
    ("simulate --n 64 --t-final 0.05", "evolve",
     _drift("mean", lambda mean: mean + 1e-3),
     "FAILED: spatial mean drifted: 1.000e-03"),
    ("simulate --n 64 --t-final 0.05", "evolve",
     _drift("mass", lambda value: value * (1.0 + 1e-3)),
     "FAILED: mass drift 1.000e-03 exceeds 1e-6"),
    ("simulate --n 64 --t-final 0.05", "quadratic_energy_decomposed",
     lambda energy: energy + 1e-6,
     "FAILED: Hamiltonian decomposition identity violated (gap 1.000e-06)"),
    ("smoothing --n 256", "smoothing_operator_scan",
     lambda scan: (dataclasses.replace(scan, measured=100.0 * scan.measured)
                   if scan.depth == 4.0 else scan),
     "FAILED: measured/bound ratio spread 109.699 >= 10"),
]


@pytest.mark.parametrize("argv, route, fault, line", CHECK_WITNESSES, ids=[
    "%s-%s-%d" % (argv.split()[0], route, i)
    for i, (argv, route, _, _) in enumerate(CHECK_WITNESSES)])
def test_each_check_fails_alone_on_a_fault_in_its_route(
        tmp_path, capsys, monkeypatch, argv, route, fault, line):
    # the run passes as it stands; with the fault it exits 3, writes every
    # output with "passed": false, and gives exactly its one FAILED line
    out = tmp_path / "clean"
    assert main(argv.split() + ["--outdir", str(out)]) == 0
    assert _failed_lines(capsys.readouterr().err) == []
    _wrap(monkeypatch, route, fault)
    out = tmp_path / "fault"
    assert main(argv.split() + ["--outdir", str(out)]) == 3
    failed = _failed_lines(capsys.readouterr().err)
    assert len(failed) == 1 and failed[0].startswith(line), failed
    if not line.endswith(" "):
        assert failed == [line]
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["failures"] == [failed[0][len("FAILED: "):]]
    assert (out / "manifest.json").is_file()


def test_gronwall_steps_every_member_in_one_batch(tmp_path, capsys,
                                                  monkeypatch):
    # 2 depths x 3 seeds at one resolved step: one stepper run over all six
    # rows, and Lanczos calls of at most 64 rows in whole samples, so the
    # six samples of six rows take one call over 36 rows
    from ilw_lab import lax as lax_module

    stepped, measured = [], []
    stepper = lax_module.etdrk4_samples
    lanczos = lax_module.LaxSpectrum.lanczos

    def counting_stepper(problems, coeffs, *args):
        stepped.append(len(coeffs))
        return stepper(problems, coeffs, *args)

    def counting_lanczos(lax, *args):
        measured.append(len(lax.g))
        return lanczos(lax, *args)

    monkeypatch.setattr(lax_module, "etdrk4_samples", counting_stepper)
    monkeypatch.setattr(lax_module.LaxSpectrum, "lanczos", counting_lanczos)
    argv = ["gronwall", "--depth-list", "0.5,1.0", "--seeds", "3",
            "--t-final", "0.05", "--dt", "1e-3", "--n", "128",
            "--samples", "5", "--outdir", str(tmp_path / "g")]
    assert main(argv) == 0
    capsys.readouterr()
    assert stepped == [6]
    assert measured == [36]


def test_gronwall_steps_each_deep_water_seed_once(tmp_path, capsys,
                                                  monkeypatch):
    # the deep-water flow reads no depth: each seed is stepped once, in one
    # stack, and every depth's rows repeat the one run's, which is the run
    # at a single depth up to the depth and its reference rate; under ilw
    # every seed is still stepped at every depth
    from ilw_lab import lax as lax_module

    stepped = []
    stepper = lax_module.etdrk4_samples

    def counting_stepper(problems, coeffs, *args):
        stepped.append(len(coeffs))
        return stepper(problems, coeffs, *args)

    monkeypatch.setattr(lax_module, "etdrk4_samples", counting_stepper)
    small = ["--n", "64", "--seeds", "2", "--samples", "2", "--t-final", "0.01"]

    def rows(name, *argv):
        stepped.clear()
        out = tmp_path / name
        assert main(["gronwall", *argv, *small, "--outdir", str(out)]) == 0
        capsys.readouterr()
        return _read_rows(out / "runs.csv")

    one = rows("one", "--equation", "bo", "--depth-list", "1")
    assert stepped == [2]
    three = rows("three", "--equation", "bo")
    assert stepped == [2]
    assert [row["depth"] for row in three] == ["0.5"] * 2 + ["1.0"] * 2 \
        + ["2.0"] * 2
    kept = [key for key in three[0] if key not in ("depth", "a_reference")]
    for depth in range(3):
        for row, single in zip(three[2 * depth:2 * depth + 2], one):
            assert [row[key] for key in kept] == [single[key] for key in kept]
    assert len({row["a_reference"] for row in three}) == 3
    assert len(rows("ilw")) == 6
    assert stepped == [6]


def test_gronwall_builds_no_rule_and_no_field_per_row(tmp_path, capsys,
                                                      monkeypatch):
    # the default three depths at two seeds: past the initial states, the
    # ensemble builds no adaptive rule and wraps no sampled row in a field
    from ilw_lab import lax as lax_module
    from ilw_lab.spectral import RealField

    inside, fields, rules = [], [], []
    ensemble = experiments.gronwall_ensemble
    post_init = RealField.__post_init__
    build_rule = lax_module.build_weighted_rule

    def tracked_ensemble(*args, **kwargs):
        inside.append(True)
        try:
            return ensemble(*args, **kwargs)
        finally:
            inside.pop()

    def counting_post_init(self):
        if inside:
            fields.append(self)
        post_init(self)

    def counting_rule(*args, **kwargs):
        rules.append(args)
        return build_rule(*args, **kwargs)

    monkeypatch.setattr(experiments, "gronwall_ensemble", tracked_ensemble)
    monkeypatch.setattr(RealField, "__post_init__", counting_post_init)
    monkeypatch.setattr(lax_module, "build_weighted_rule", counting_rule)
    out = tmp_path / "g"
    assert main(["gronwall", "--n", "128", "--seeds", "2", "--samples", "5",
                 "--t-final", "0.05", "--outdir", str(out)]) == 0
    capsys.readouterr()
    assert (out / "runs.csv").read_text().count("\n") == 1 + 3 * 2
    assert fields == [] and rules == []


@pytest.mark.parametrize("below", ["", "x"])
def test_unwritable_outdir_is_a_usage_error(tmp_path, capsys, below):
    # --outdir names an existing file, or a path under one
    blocker = tmp_path / "file"
    blocker.write_bytes(b"kept")
    outdir = blocker / below if below else blocker
    assert main(["wave", "--n", "64", "--outdir", str(outdir)]) == 1
    err = capsys.readouterr().err
    assert "usage error: cannot write output directory" in err
    assert "Traceback" not in err
    assert blocker.read_bytes() == b"kept"


def test_failed_write_removes_what_it_wrote(tmp_path, monkeypatch):
    def runner(cfg):
        return RunReport(cfg.command, {}, [], {"wave.csv": b"x\n1.0\n"})

    monkeypatch.setitem(experiments.RUNNERS, "wave", runner)
    # report.json cannot be written over a directory: wave.csv goes again,
    # and the directory, which was there before, stays
    out = tmp_path / "existing"
    (out / "report.json").mkdir(parents=True)
    with pytest.raises(ContractError, match="cannot write output directory"):
        run(load_config("wave", output_dir=str(out)))
    assert [p.name for p in out.iterdir()] == ["report.json"]
    # a file under a missing subdirectory fails after the run created both
    # levels of its output directory: both go again
    monkeypatch.setitem(experiments.RUNNERS, "wave", lambda cfg: RunReport(
        cfg.command, {}, [], {"wave.csv": b"1\n", "missing/x.csv": b"1\n"}))
    out = tmp_path / "new" / "wv"
    with pytest.raises(ContractError, match="cannot write output directory"):
        run(load_config("wave", output_dir=str(out)))
    assert not (tmp_path / "new").exists()


def test_write_json_rejects_non_finite_values(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(NumericalError, match=r"report\.runs\.1 in .*report\.json"):
        _json(path, {"ok": 1.0, "report": {"runs": [0.5, float("nan")]}})
    assert not path.exists()
    with pytest.raises(NumericalError, match=r"at a\.b in"):
        _json(path, {"a": {"b": float("-inf")}})
    data = _json(path, {"b": [1.0, True, None], "a": "x"})
    assert json.loads(data) == {"a": "x", "b": [1.0, True, None]}


def test_twodepth_ignores_dormant_second_depth(tmp_path, capsys):
    # with c2 = 0 the second layer is inert: only its echo column changes
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(TWODEPTH_ARGS + ["--depth-ratio", "2.0",
                                 "--outdir", str(a)]) == 0
    assert main(TWODEPTH_ARGS + ["--depth-ratio", "3.0",
                                 "--outdir", str(b)]) == 0
    capsys.readouterr()
    rows_a = (a / "twodepth.csv").read_text().splitlines()
    rows_b = (b / "twodepth.csv").read_text().splitlines()
    assert len(rows_a) == len(rows_b) == 3
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        ca, cb = ra.split(","), rb.split(",")
        assert ca[0] == cb[0] and ca[1] == cb[1] and ca[3] == cb[3]
        assert ca[2] != cb[2]
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_twodepth_original_frame_shifts_back_to_the_renormalized_gaps(
        tmp_path, capsys):
    # the original frame moves each depth's run by gamma*t; shifted back, it
    # leaves the deep-water gaps of the renormalized frame to rounding
    gaps = {}
    for frame in ("original", "renormalized"):
        out = tmp_path / frame
        assert main(["twodepth", "--n", "64", "--frame", frame,
                     "--outdir", str(out)]) == 0
        gaps[frame] = json.loads(
            (out / "report.json").read_text())["report"]["l2_gaps"]
    capsys.readouterr()
    assert len(gaps["original"]) == len(gaps["renormalized"]) == 3
    for original, renormalized in zip(gaps["original"], gaps["renormalized"]):
        assert abs(original - renormalized) <= 1e-15


def test_simulate_resumes_from_snapshot(tmp_path, capsys):
    first = tmp_path / "first"
    assert main(SIM_ARGS + ["--outdir", str(first)]) == 0
    resumed = tmp_path / "resumed"
    assert main(["simulate", "--n", "128", "--t-final", "0.05",
                 "--dt", "1e-3", "--initial", str(first / "final.bin"),
                 "--outdir", str(resumed)]) == 0
    mismatched = tmp_path / "mismatched"
    assert main(["simulate", "--n", "256", "--t-final", "0.05",
                 "--dt", "1e-3", "--initial", str(first / "final.bin"),
                 "--outdir", str(mismatched)]) == 1
    assert "snapshot grid" in capsys.readouterr().err


def test_simulate_rejects_truncated_snapshot(tmp_path, capsys):
    grid = SpectralGrid(2 * np.pi, 128)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(snapshot_bytes(random_field(grid, -0.25, 0.25, 1)))
    bad.write_bytes(bad.read_bytes()[:-8])
    assert main(["simulate", "--n", "128", "--t-final", "0.05", "--dt", "1e-3",
                 "--initial", str(bad), "--outdir", str(tmp_path / "x")]) == 1
    assert "whole number" in capsys.readouterr().err


@pytest.mark.parametrize("initial", ["missing.bin", "."])
def test_simulate_rejects_unreadable_initial(tmp_path, capsys, initial):
    # a missing file and a directory: both are usage errors naming the path
    path = tmp_path / initial
    out = tmp_path / "x"
    assert main(["simulate", "--n", "128", "--initial", str(path),
                 "--outdir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and str(path) in err
    assert not out.exists()


def test_run_rejects_unknown_equation(tmp_path):
    with pytest.raises(ContractError, match="simulate.equation must be"):
        run(load_config("simulate", overrides={"equation": "kdv"},
                        output_dir=str(tmp_path / "x")))
    assert not (tmp_path / "x").exists()


# ----------------------------------------------- recorded reference outputs

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
# the explicit-solution commands have no benchmark workload; their tables are
# recorded here, as absolute paths that replace REFERENCE when joined to it
TEST_REFERENCE = Path(__file__).resolve().parent / "reference"
# Refactors must reproduce the recorded tables to these tolerances.  a_hat is
# a log-slope between samples 1/100 apart, so a relative error e in the form
# values moves it by up to 2*e/0.01 in absolute terms.
VALUE_RTOL = 1e-12
A_HAT_ATOL = 2e-10


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("argv, table, reference", [
    (["gronwall", "--seed", "1", "--seeds", "2", "--depth-list", "0.5,2.0"],
     "runs.csv", "gronwall-ensemble/seed-1/runs.csv"),
    (["beta", "--n", "4096", "--seed", "1"],
     "beta_profile.csv", "beta-large/seed-1/beta_profile.csv"),
    (["wave", "--n", "64"], "wave.csv", TEST_REFERENCE / "wave-n64/wave.csv"),
    (["illposed"], "illposed.csv", TEST_REFERENCE / "illposed/illposed.csv"),
    # a nonzero boost at another depth and time
    (["illposed", "--depth", "0.5", "--adelta-list", "1,2,3", "--t", "0.3",
      "--alpha", "-1"],
     "illposed.csv", TEST_REFERENCE / "illposed-boost/illposed.csv"),
    # the deep-water control run: each seed once, its rows repeated per depth
    (["gronwall", "--equation", "bo", "--n", "64", "--seeds", "2",
      "--samples", "5", "--t-final", "0.05"],
     "runs.csv", TEST_REFERENCE / "gronwall-bo/runs.csv"),
    (["simulate", "--n", "64", "--t-final", "0.05"],
     "trajectory.csv", TEST_REFERENCE / "simulate-n64/trajectory.csv"),
    (["smoothing"], "smoothing.csv", TEST_REFERENCE / "smoothing/smoothing.csv"),
])
def test_outputs_match_recorded_reference(tmp_path, capsys, argv, table,
                                          reference):
    out = tmp_path / "out"
    assert main(argv + ["--outdir", str(out)]) == 0
    capsys.readouterr()
    got = _read_rows(out / table)
    want = _read_rows(REFERENCE / reference)
    if reference == "gronwall-ensemble/seed-1/runs.csv":
        # the short ensemble runs four of the recorded members
        members = {(row["depth"], row["seed"]) for row in got}
        want = [row for row in want if (row["depth"], row["seed"]) in members]
        assert len(want) == 4
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert list(row) == list(ref)
        for column, cell in row.items():
            if column in ("depth", "seed", "bound_ok"):
                assert cell == ref[column], column
            elif column == "a_hat":
                assert abs(float(cell) - float(ref[column])) <= A_HAT_ATOL
            else:
                x, r = float(cell), float(ref[column])
                assert abs(x - r) <= VALUE_RTOL * abs(r), (column, x, r)


# ---------------------------------------------- contracts stated elsewhere

ROOT = Path(__file__).resolve().parents[1]

# every command at small size, with the exit code and the one FAILED line
# each run must give (None where none is checked); each usage error writes
# to ``--outdir usage``.  The CI workflow's numpy-only leg runs these with
# scipy absent, and its last step calls the installed script for six of
# them: one per exit code, and the c_s and the unknown equation that the
# gronwall schema rejects
SMOKE_RUNS = [
    ("simulate --n 64 --t-final 0.05 --outdir simulate", 0, None),
    # at depth 1e-6 the Hamiltonian identity misses its tolerance: a failed
    # check like any other (exit 3, one FAILED line, outputs written)
    ("simulate --depth 1e-6 --t-final 0.1 --outdir simulate-shallow", 3,
     "FAILED: Hamiltonian decomposition identity violated"),
    ("wave --n 64 --outdir wave", 0, None),
    ("beta --n 4096 --outdir beta", 0, None),
    # uncertified but positive definite: the Cholesky fallback runs, and the
    # threshold check fails
    ("beta --amplitude 2 --kappa 3 --outdir beta-fallback", 3, None),
    # certified near critical: an 89-step recurrence that conjugate
    # gradients cross-check; only the threshold check fails
    ("beta --n 4096 --amplitude 15 --outdir beta-near-critical", 3,
     "FAILED: kappa 32 below admissible threshold"),
    ("gronwall --n 128 --seeds 2 --samples 5 --t-final 0.05 --outdir gronwall",
     0, None),
    # 6 members take up to 10 samples per Lanczos call: the 9 samples of
    # this run leave the call partly filled
    ("gronwall --n 128 --seeds 2 --samples 7 --t-final 0.05 "
     "--outdir gronwall-blocks", 0, None),
    # a negative number in exponent form is read as the flag's value
    ("gronwall --epsilon -1e-2 --n 128 --seeds 2 --samples 5 --t-final 0.05 "
     "--outdir gronwall-epsilon", 0, None),
    # kappa clears lambda_min but not the norm threshold: a failed check,
    # as in beta
    ("gronwall --kappa 1 --n 64 --seeds 1 --samples 2 --t-final 0.01 "
     "--outdir gronwall-shift", 3,
     "FAILED: kappa 1 below admissible threshold"),
    # kappa does not clear lambda_min, so there is no form: a numerical
    # failure, which writes nothing
    ("beta --kappa 1 --amplitude 3 --outdir beta-spectrum", 2, None),
    ("illposed --n 64 --outdir illposed", 0, None),
    ("smoothing --n 256 --outdir smoothing", 0, None),
    ("twodepth --n 64 --t-final 0.05 --outdir twodepth", 0, None),
    # usage errors: a grid spacing that underflows to 0, a wave number whose
    # square overflows, a config file with a duplicate option, a sweep that
    # repeats a value, a c_s that is not positive, an unknown equation, and
    # a phase rate asked for at time 0
] + [(argv + " --outdir usage", 1, None) for argv in (
    "simulate --length 5e-324", "wave --depth 1e-154", "wave --config dup.ini",
    "gronwall --depth-list 1,1 --n 64",
    "gronwall --c-s 0 --n 64 --seeds 1 --samples 2 --t-final 0.01",
    "gronwall --equation kdv --n 64 --seeds 1 --samples 2 --t-final 0.01",
    "illposed --adelta-list 2.8,2.8", "illposed --t 0")]


@pytest.mark.parametrize("argv, exit_code, failed", SMOKE_RUNS, ids=[
    argv.replace(" ", "_") for argv, _, _ in SMOKE_RUNS])
def test_ci_smoke_step_runs_in_process(tmp_path, capsys, monkeypatch, argv,
                                       exit_code, failed):
    # the exit code, the FAILED line, the report written by every completed
    # run, and no traceback
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dup.ini").write_text("[wave]\ndepth = 1\ndepth = 2\n")
    assert main(argv.split()) == exit_code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    failed_lines = [line for line in err.splitlines()
                    if line.startswith("FAILED:")]
    if failed is not None:
        assert len(failed_lines) == 1
        assert failed_lines[0].startswith(failed)
    elif exit_code != 3:
        assert failed_lines == []
    outdir = tmp_path / argv.split("--outdir ")[1]
    assert (outdir / "report.json").is_file() == (exit_code in (0, 3))


def test_readme_lists_every_declared_range():
    # the range table of "Command line" in the schema's words: one row per
    # command and range, with the keys that share it; a key with two ranges
    # (adelta) is listed under each
    rows = re.findall(r"^\| `(\w+)` \| ((?:`\w+`(?:, )?)+) \| (.+?) \|$",
                      (ROOT / "README.md").read_text(), re.M)
    listed = [(command, key, words) for command, keys, words in rows
              for key in re.findall(r"`(\w+)`", keys)]
    declared = [(command, key, words) for command, key in RANGED
                for words, _ in _SCHEMAS[command][key][2:]]
    assert len(listed) == len(set(listed)) == len(declared)
    assert set(listed) == set(declared)


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    # every python block of README.md runs as written
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % i, "exec"), {})
    capsys.readouterr()
