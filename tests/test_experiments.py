"""Seeded data, snapshots, configuration resolution, experiment runners,
and the command-line surface."""

import json
import struct

import numpy as np
import pytest

from ilw_lab import ContractError, SpectralGrid, random_field
from ilw_lab.cli import main
from ilw_lab.experiments import (
    _SCHEMAS,
    load_config,
    read_snapshot,
    run,
    write_snapshot,
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


def test_random_field_validation():
    grid = SpectralGrid(2 * np.pi, 128)
    zero = random_field(grid, -0.25, 0.0, 7)
    assert np.max(np.abs(zero.coeffs)) == 0.0
    with pytest.raises(ContractError):
        random_field(grid, -0.25, -1.0, 7)
    with pytest.raises(ContractError):
        random_field(grid, -0.25, 1.0, 7, decay=-0.1)


# ------------------------------------------------------------- snapshots

def test_snapshot_round_trip(tmp_path):
    grid = SpectralGrid(3.5, 64)
    u = random_field(grid, -0.25, 0.4, 3, decay=0.1)
    path = tmp_path / "state.bin"
    write_snapshot(path, u)
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
    write_snapshot(path, u)
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


# ----------------------------------------------------------- configuration

def test_load_config_defaults():
    cfg = load_config("simulate")
    assert cfg.command == "simulate"
    assert cfg.params == {key: default
                          for key, (_, default) in _SCHEMAS["simulate"].items()}
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
    assert set(manifest["versions"]) == {"numpy", "scipy"}
    assert manifest["config"]["depth"] == repr(1.0)
    assert manifest["wall_time_s"] >= 0.0


def test_cli_usage_errors(tmp_path, capsys):
    assert main([]) == 1
    assert main(["wave", "--n", "abc", "--outdir", str(tmp_path / "x")]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_cli_numerical_failure_exit(tmp_path, capsys):
    # an amplitude this large drops the spectrum below the default shift
    assert main(["beta", "--amplitude", "100",
                 "--outdir", str(tmp_path / "bt")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_reported_check_failure_exit(tmp_path, capsys):
    # a unit box cannot resolve the symbol peak; the spread blows past 10
    out = tmp_path / "sm"
    assert main(["smoothing", "--length", "1.0", "--n", "256",
                 "--outdir", str(out)]) == 3
    assert "FAILED" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert not report["passed"]
    assert any("spread" in item for item in report["failures"])


def test_cli_illposed_passes(tmp_path, capsys):
    assert main(["illposed", "--outdir", str(tmp_path / "ip")]) == 0
    capsys.readouterr()


# -------------------------------------------------------------- determinism

SIM_ARGS = ["simulate", "--n", "128", "--t-final", "0.1", "--dt", "1e-3",
            "--samples", "10"]


def test_simulate_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(SIM_ARGS + ["--outdir", str(a)]) == 0
    assert main(SIM_ARGS + ["--outdir", str(b)]) == 0
    capsys.readouterr()
    for name in ("trajectory.csv", "final.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    header = (a / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("time,")
    assert "mass" in header and "hamiltonian" in header


def test_wave_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["wave", "--outdir", str(a)]) == 0
    assert main(["wave", "--outdir", str(b)]) == 0
    capsys.readouterr()
    assert (a / "wave.csv").read_bytes() == (b / "wave.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


GRONWALL_ARGS = ["gronwall", "--depth-list", "1.0", "--seeds", "2",
                 "--t-final", "0.2", "--dt", "1e-3", "--n", "128",
                 "--samples", "10"]


def test_gronwall_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(GRONWALL_ARGS + ["--outdir", str(a)]) == 0
    assert main(GRONWALL_ARGS + ["--outdir", str(b)]) == 0
    capsys.readouterr()
    assert (a / "runs.csv").read_bytes() == (b / "runs.csv").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    report = json.loads((a / "report.json").read_text())
    assert report["passed"] is True
    assert report["report"]["all_bound_ok"] is True


@pytest.mark.parametrize("extra", [["--samples", "0"], ["--seeds", "0"],
                                   ["--depth-list", ""]])
def test_gronwall_rejects_empty_ensemble(tmp_path, capsys, extra):
    assert main(GRONWALL_ARGS + extra + ["--outdir", str(tmp_path / "g")]) == 1
    assert "usage error" in capsys.readouterr().err


def test_gronwall_rejects_zero_initial_data(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(GRONWALL_ARGS + ["--amplitude", "0", "--outdir", str(out)]) == 1
    assert "zero weighted form" in capsys.readouterr().err
    assert not (out / "report.json").exists()


TWODEPTH_ARGS = ["twodepth", "--c2", "0", "--min-depth-list", "10,20",
                 "--t-final", "0.1", "--n", "128", "--dt", "1e-3"]


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
    write_snapshot(bad, random_field(grid, -0.25, 0.25, 1))
    bad.write_bytes(bad.read_bytes()[:-8])
    assert main(["simulate", "--n", "128", "--t-final", "0.05", "--dt", "1e-3",
                 "--initial", str(bad), "--outdir", str(tmp_path / "x")]) == 1
    assert "whole number" in capsys.readouterr().err


def test_run_rejects_unknown_equation(tmp_path):
    cfg = load_config("simulate", overrides={"equation": "kdv"},
                      output_dir=str(tmp_path / "x"))
    with pytest.raises(ContractError):
        run(cfg)
