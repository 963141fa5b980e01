"""Property tests of the half-spectrum representation of real fields."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from ilw_lab import RealField, SpectralGrid, forward_transform
from ilw_lab.cli import main
from ilw_lab.experiments import read_snapshot, write_snapshot

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

grids = st.builds(SpectralGrid,
                  st.floats(0.5, 50.0),
                  st.integers(4, 32).map(lambda k: 2 * k))
parts = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def fields(draw, grid, nyquist=True):
    """A real field on ``grid`` from a random half spectrum; the zero and
    Nyquist slots are drawn real."""
    m = grid.n_points // 2 + 1
    re = np.array(draw(st.lists(parts, min_size=m, max_size=m)))
    im = np.array(draw(st.lists(parts, min_size=m, max_size=m)))
    im[[0, -1]] = 0.0
    coeffs = re + 1j * im
    if not nyquist:
        coeffs[-1] = 0.0
    return RealField(grid, coeffs)


@st.composite
def grid_and_fields(draw, count=1, nyquist=True):
    grid = draw(grids)
    return (grid,) + tuple(draw(fields(grid, nyquist)) for _ in range(count))


def sup_bound(*fs):
    # (1/L) * sum over the full lattice of |u_hat| bounds every sample
    return max(np.sum(f.grid.multiplicity * np.abs(f.coeffs)) / f.grid.length
               for f in fs)


@PROPERTY_SETTINGS
@given(grid_and_fields(count=2), st.floats(-5.0, 5.0))
def test_algebra_matches_samples(data, scalar):
    _, u, v = data
    tol = 1e-12 * (1.0 + abs(scalar)) * (1.0 + sup_bound(u, v))
    assert np.max(np.abs((u + v).samples() - (u.samples() + v.samples()))) <= tol
    assert np.max(np.abs((u - v).samples() - (u.samples() - v.samples()))) <= tol
    assert np.max(np.abs((u * scalar).samples() - scalar * u.samples())) <= tol
    assert np.max(np.abs((scalar * u).samples() - scalar * u.samples())) <= tol


@PROPERTY_SETTINGS
@given(grid_and_fields(nyquist=False), st.floats(-10.0, 10.0))
def test_shift_there_and_back_is_identity(data, h):
    # the Nyquist slot is left empty: a translate keeps only the cosine part
    # of that mode, so it cannot be undone
    _, u = data
    back = u.shifted(h).shifted(-h)
    scale = 1.0 + np.max(np.abs(u.coeffs))
    assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(grid_and_fields(), st.sampled_from([1, 2, 4]))
def test_embedding_preserves_samples(data, factor):
    grid, u = data
    fine = u.embedded(factor * grid.n_points)
    tol = 1e-12 * (1.0 + sup_bound(u))
    assert np.max(np.abs(fine.samples()[::factor] - u.samples())) <= tol


@PROPERTY_SETTINGS
@given(grid_and_fields(nyquist=False), st.sampled_from([1, 2, 4]))
def test_embedding_preserves_l2_norm(data, factor):
    # exact once the Nyquist slot is empty: its half-and-half split
    # re-weights that one mode
    grid, u = data
    fine = u.embedded(factor * grid.n_points)
    assert abs(fine.l2_norm() - u.l2_norm()) <= 1e-13 * (1.0 + u.l2_norm())


@PROPERTY_SETTINGS
@given(grid_and_fields())
def test_forward_transform_round_trips(data):
    grid, u = data
    back = forward_transform(u.samples(), grid)
    scale = 1.0 + np.max(np.abs(u.coeffs))
    assert np.max(np.abs(back.coeffs - u.coeffs)) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(grid_and_fields())
def test_snapshot_round_trips(data):
    grid, u = data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.bin"
        write_snapshot(path, u)
        assert path.stat().st_size == 16 + 16 * grid.n_points
        back = read_snapshot(path)
    assert back.grid == grid
    assert np.array_equal(back.coeffs, u.coeffs)


@PROPERTY_SETTINGS
@given(grid_and_fields(), st.data())
def test_non_hermitian_snapshot_exits_1(data, draw):
    grid, u = data
    slot = draw.draw(st.integers(0, grid.n_points - 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.bin"
        write_snapshot(path, u)
        raw = path.read_bytes()
        coeffs = np.frombuffer(raw[16:], dtype="<c16").copy()
        # an imaginary kick breaks the mirror pair of a paired slot and the
        # realness of a self-conjugate one, far beyond the 1e-10 tolerance
        coeffs[slot] += 1j * (1.0 + np.max(np.abs(coeffs)))
        path.write_bytes(raw[:16] + coeffs.tobytes())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["simulate", "--initial", str(path),
                         "--outdir", str(Path(tmp) / "out")])
    assert code == 1
    assert "Hermitian" in err.getvalue()
