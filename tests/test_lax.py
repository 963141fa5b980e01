"""Truncated Lax matrix, resolvent functionals, weighted-form quadrature,
and the growth experiments built on them."""

import warnings

import numpy as np
import pytest

from ilw_lab import (
    BlowUpError,
    ContractError,
    KappaTooSmallError,
    NumericalError,
    RealField,
    SpectralGrid,
    apriori_bound,
    build_lax,
    build_weighted_rule,
    check_kappa,
    default_dt,
    evolve,
    form_flow_derivative,
    forward_transform,
    gronwall_ensemble,
    gronwall_experiment,
    kappa_threshold,
    make_bo,
    make_ilw,
    modes_to_xi_max,
    random_field,
    resolvent_form,
    resolvent_state,
    weighted_resolvent_form,
)
from ilw_lab.cli import main
from ilw_lab.evolution import make_problem
from ilw_lab.experiments import load_config, run, run_beta
from ilw_lab import lax as lax_module
from ilw_lab.lax import (
    KappaCheck,
    KappaRule,
    LaxSpectrum,
    LaxTruncation,
    ResolventState,
    _shift_index,
)
from ilw_lab.spectral import SobolevIndex, sobolev_norms
from ilw_lab.symbols import apply_smoothing_dx
from oracles import hardy_norm

TWO_PI = 2.0 * np.pi


def constant_field(grid, value):
    coeffs = np.zeros(grid.n_points // 2 + 1, dtype=np.complex128)
    coeffs[0] = value * grid.length
    return RealField(grid, coeffs)


def _stacked_lax(fields, xi_max=None):
    """The stacked truncation of ``fields``, each cut as ``build_lax`` cuts
    it."""
    return LaxTruncation(fields[0].grid,
                         np.stack([build_lax(u, xi_max).g for u in fields]))


def full_spectrum(u):
    # independent full-lattice route: the complex FFT of the samples
    return np.fft.fft(u.samples()) * u.grid.spacing


def dense_oracle(full, grid, n_modes):
    # entry (i, j) is u_hat(xi_i - xi_j)/L plus the diagonal frequency, read
    # from all N coefficients in FFT order
    m = np.empty((n_modes, n_modes), dtype=np.complex128)
    for i in range(n_modes):
        for j in range(n_modes):
            m[i, j] = full[(i - j) % grid.n_points] / grid.length
            if i == j:
                m[i, j] += grid.fundamental * i
    return m


# ------------------------------------------------------------- truncation

def test_lax_matrix_zero_and_constant_fields():
    grid = SpectralGrid(TWO_PI, 128)
    zero = RealField(grid, np.zeros(65, dtype=np.complex128))
    lax = build_lax(zero, 31.0)
    assert lax.frequencies.shape == (32,)
    assert np.array_equal(lax.matrix, np.diag(np.arange(32.0)))
    # adding a constant shifts every eigenvalue by that constant
    shifted = build_lax(constant_field(grid, -2.0), 31.0)
    spectrum = LaxSpectrum(shifted, constant_field(grid, -2.0))
    assert np.max(np.abs(np.sort(spectrum.nodes)
                         - (np.arange(32.0) - 2.0))) < 1e-13
    assert spectrum.lambda_min == pytest.approx(-2.0, abs=1e-13)


def test_lax_matrix_against_dense_oracle():
    grid = SpectralGrid(TWO_PI, 128)
    full = full_spectrum(random_field(grid, -0.25, 0.3, 7, decay=0.25))
    # symmetrized, the full spectrum is exactly Hermitian, so the field
    # built from its half has exactly these negative-frequency entries
    full = 0.5 * (full + np.conj(full[(-np.arange(128)) % 128]))
    u = RealField(grid, full[:65])
    lax = build_lax(u, 31.0)
    oracle = dense_oracle(full, grid, 32)
    assert np.max(np.abs(lax.matrix - oracle)) == 0.0
    assert np.max(np.abs(lax.matrix - lax.matrix.conj().T)) == 0.0


def test_lax_eigenvalues_stay_within_sup_norm():
    # the multiplication part is a Hermitian perturbation bounded by sup|u|
    grid = SpectralGrid(TWO_PI, 128)
    for seed in range(5):
        u = random_field(grid, -0.25, 0.3, seed, decay=0.25)
        spectrum = LaxSpectrum(build_lax(u, 31.0), u)
        gap = np.max(np.abs(np.sort(spectrum.nodes) - np.arange(32.0)))
        assert gap <= u.sup_norm() * (1.0 + 1e-12)


# ----------------------------------------------------------- decomposition

def _with_zero_mean(u):
    coeffs = u.coeffs.copy()
    coeffs[0] = 0.0
    return RealField(u.grid, coeffs)


_GRID = SpectralGrid(TWO_PI, 128)
# the reflector's phase comes from g_0, so one case starts with g_0 = 0
_DECOMPOSITION_CASES = {
    "small": (random_field(_GRID, -0.25, 0.3, 7, decay=0.25), 31.0),
    "large": (random_field(_GRID, -0.25, 5.0, 3, decay=0.3), 31.0),
    "g0_zero": (_with_zero_mean(random_field(_GRID, -0.25, 0.3, 7,
                                             decay=0.25)), 31.0),
    "zero": (RealField(_GRID, np.zeros(65, dtype=np.complex128)), 31.0),
    # |g|^2 near the underflow threshold: the reflector must stay finite
    "tiny": (random_field(_GRID, -0.25, 1e-131, 7, decay=0.25), 31.0),
    "one_mode": (random_field(_GRID, -0.25, 0.3, 7, decay=0.25), 0.5),
    "two_modes": (random_field(_GRID, -0.25, 0.3, 7, decay=0.25), 1.0),
    "three_modes": (random_field(_GRID, -0.25, 0.3, 7, decay=0.25), 2.0),
}


@pytest.mark.parametrize("case", sorted(_DECOMPOSITION_CASES))
def test_lax_spectrum_against_dense_oracles(case):
    u, xi_max = _DECOMPOSITION_CASES[case]
    lax = build_lax(u, xi_max)
    spectrum = LaxSpectrum(lax, u)
    a, g, length = lax.matrix, lax.g, _GRID.length
    linalg = pytest.importorskip("scipy.linalg")
    dense = linalg.eigh(a, eigvals_only=True)
    lam = spectrum.nodes
    assert np.all(np.abs(lam - dense) <= 1e-12 * (1.0 + np.abs(dense)))

    taus = -spectrum.lambda_min + np.array([1.0, 4.0, 32.0, 1e3, 1e6])
    forms = spectrum.form_at(taus)
    for tau, form in zip(taus, forms):
        solved = -resolvent_state(lax, tau).coeffs
        oracle = np.vdot(g, solved).real / length
        assert abs(form - oracle) <= 1e-12 * abs(oracle)
    if case == "zero":
        assert not forms.any()


def test_lax_spectrum_keeps_no_matrix():
    # a spectrum is the measure alone: nothing of size m x m outlives __init__
    grid = SpectralGrid(TWO_PI, 256)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    spectrum = LaxSpectrum(build_lax(u, modes_to_xi_max(grid, 64)), u)
    arrays = {name: value for name, value in vars(spectrum).items()
              if isinstance(value, np.ndarray)}
    assert {"nodes", "weights"} <= set(arrays)
    assert all(value.shape == (64,) for value in arrays.values()), \
        {name: value.shape for name, value in arrays.items()}


# ---------------------------------------------------------------- Lanczos

def _jacobi(lax, kappa):
    """The Lanczos run from the one-state truncation ``lax``:
    (alpha_1..alpha_k, beta_1..beta_k), beta_k being the last residual
    norm."""
    alpha, beta, steps = lax_module._lanczos(
        LaxTruncation(lax.grid, lax.g[None]), kappa)
    return alpha[0, :steps[0]], beta[0, :steps[0]]


def _gauss_and_gap(lax, jacobi, steps, tau):
    """Gauss value of form(tau) after ``steps`` Lanczos steps and the amount
    its Gauss-Radau completion adds, by dense solves on the Jacobi entries.

    The completion extends T_k by beta_k and the diagonal entry that makes
    the symbol bound a an eigenvalue; by the Schur complement it adds
    beta_k^2 (e_1^T x)^2 / (corner + tau - beta_k^2 e_k^T x) to the Gauss
    value, with x = (T_k + tau)^{-1} e_k.  With a at a node of T_k already
    it is undefined and bounds nothing.
    """
    alpha, beta = jacobi
    jac = (np.diag(alpha[:steps]) + np.diag(beta[:steps - 1], 1)
           + np.diag(beta[:steps - 1], -1))
    eye = np.eye(steps)
    scale = np.vdot(lax.g, lax.g).real / lax.grid.length
    gauss = scale * np.linalg.solve(jac + tau * eye, eye[0])[0]
    a, b = lax.bound, beta[steps - 1]
    if np.linalg.eigvalsh(jac)[0] <= a:
        return gauss, np.inf
    corner = a + b * b * np.linalg.solve(jac - a * eye, eye[-1])[-1]
    x = np.linalg.solve(jac + tau * eye, eye[-1])
    return gauss, scale * b * b * x[0] ** 2 / (corner + tau - b * b * x[-1])


def _enclosure_cases():
    grid = SpectralGrid(TWO_PI, 256)
    cases = []
    for m in range(1, 65):
        for amplitude, seed in ((0.3, 7), (5.0, 3)):
            rough = random_field(grid, -0.25, amplitude, seed, decay=0.0)
            cases.append((rough, m))
    zero = RealField(grid, np.zeros(129, dtype=np.complex128))
    constant = constant_field(grid, -2.0)
    return cases + [(zero, 32), (constant, 32),
                    (constant_field(grid, 3.0), 64)]


_ENCLOSURE_CASES = _enclosure_cases()
# rounding allowance for the enclosure: a converged rule meets the exact
# value to rounding and may land a few ulps past it (at most 9.4e-16 over
# these cases)
_ENCLOSURE_SLACK = 4e-15


@pytest.mark.parametrize("case", range(len(_ENCLOSURE_CASES)))
def test_lanczos_gauss_radau_enclosure(case):
    u, m = _ENCLOSURE_CASES[case]
    kappa, s = 32.0, -0.25
    xi_max = (m - 0.5) * u.grid.fundamental  # m modes; m = 1 included
    lax = build_lax(u, xi_max)
    spectrum = LaxSpectrum.lanczos(lax, kappa)
    dense = LaxSpectrum(build_lax(u, xi_max), u)
    steps = spectrum.steps
    assert 1 <= steps <= m
    assert spectrum.lambda_bound + kappa > 0.0
    exact = dense.form_at(np.array([kappa]))[0]
    if not dense.weights.any():
        # the zero field: its measure is all zero, found in one step
        assert steps == 1 and not spectrum.weights.any()
        return
    gauss = spectrum.form_at(np.array([kappa]))[0]
    assert gauss <= exact * (1 + _ENCLOSURE_SLACK)
    jacobi = _jacobi(lax, kappa)
    assert jacobi[0].shape == (steps,)
    for j in range(1, steps + 1):
        gauss, gap = _gauss_and_gap(lax, jacobi, j, kappa)
        assert gauss <= exact * (1 + _ENCLOSURE_SLACK), (j, gauss, exact)
        assert exact <= (gauss + gap) * (1 + _ENCLOSURE_SLACK), (j, gap, exact)
    # the run stops at the first k whose gap is below 1e-14 of the Gauss
    # value (the 1e-6 allows for the rounding of this route), at breakdown,
    # or at k = m
    if steps > 1:
        gauss, gap = _gauss_and_gap(lax, jacobi, steps - 1, kappa)
        assert gap > 1e-14 * (1 - 1e-6) * gauss
    gauss, gap = _gauss_and_gap(lax, jacobi, steps, kappa)
    beta_k = jacobi[1][-1]
    assert (gap <= 1e-14 * (1 + 1e-6) * gauss or steps == m
            or beta_k <= 1e-13 * (m - spectrum.lambda_bound))
    if m > 1 and not u.coeffs[1:].any():
        # a constant field: g is an eigenvector, so the run breaks down
        assert steps == 1
    rule = build_weighted_rule(dense.form_at, kappa, s)
    nodes = np.concatenate((rule.tau_nodes, [rule.tau_star]))
    want = dense.form_at(nodes)
    assert np.all(np.abs(spectrum.form_at(nodes) - want) <= 1e-12 * want)


def test_lanczos_rows_do_not_depend_on_the_batch():
    grid = SpectralGrid(TWO_PI, 256)
    fields = [random_field(grid, -0.25, amplitude, seed, decay=decay)
              for seed, (amplitude, decay) in enumerate(
                  [(0.4, 0.25), (5.0, 0.0), (0.3, 0.0), (0.0, 0.0),
                   (2.0, 0.25), (0.4, 0.5), (1.0, 0.1), (0.1, 0.0),
                   (3.0, 0.3), (0.4, 0.25)])]
    fields[3] = constant_field(grid, -1.5)
    for m in (3, 17, 64):
        xi_max = modes_to_xi_max(grid, m)
        batch = LaxSpectrum.lanczos(_stacked_lax(fields, xi_max), 32.0)
        assert len(set(batch.steps.tolist())) > 1
        for i, u in enumerate(fields):
            lax = build_lax(u, xi_max)
            alone = LaxSpectrum.lanczos(lax, 32.0)
            assert np.array_equal(lax.g, u.coeffs[:m])
            steps = batch.steps[i]
            assert steps == alone.steps
            # the row's measure, then its zero padding
            for name, row in (("nodes", batch.nodes[i]),
                              ("weights", batch.weights[i])):
                assert np.array_equal(row[:steps], getattr(alone, name)), name
                assert not row[steps:].any(), name


@pytest.mark.parametrize("m", [2, 32])
def test_lanczos_second_pass_runs_at_breakdown(m):
    # g = u_0 e_1 is an eigenvector, so w is 0 up to the matvec's rounding
    # after the first step: the run breaks down there, and the one-node
    # measure is the dense one
    grid = SpectralGrid(TWO_PI, 256)
    u = constant_field(grid, -2.0)
    xi_max = modes_to_xi_max(grid, m)
    spectrum = LaxSpectrum.lanczos(build_lax(u, xi_max), 32.0)
    assert spectrum.steps == 1
    dense = LaxSpectrum(build_lax(u, xi_max), u)
    taus = np.array([32.0, 32.0 * np.e ** 3, 1e4])
    want = dense.form_at(taus)
    assert np.all(np.abs(spectrum.form_at(taus) - want) <= 1e-12 * want)
    heaviest = np.argmax(dense.weights)
    assert abs(spectrum.nodes[0] - dense.nodes[heaviest]) <= 1e-12
    assert (abs(spectrum.weights[0] - dense.weights.sum())
            <= 1e-12 * dense.weights.sum())


class _FirstBlock(Exception):
    pass


def _lanczos_fields(tmp_path, monkeypatch):
    """The first Lanczos block of the default ``gronwall`` (60 rows: 2
    samples of 30 members, at m = 64), the ``beta --n 4096`` seed-1 field
    (m = 1024) and a certified near-critical field (m = 1024, 89 steps,
    lambda_min/kappa = -0.50), with the grid and kappa of each."""
    blocks = []

    def first_block(lax, kappa):
        blocks.append((lax.grid, lax.g.copy(), kappa))
        raise _FirstBlock

    with monkeypatch.context() as patch:
        patch.setattr(LaxSpectrum, "lanczos", first_block)
        with pytest.raises(_FirstBlock):
            run(load_config("gronwall", output_dir=str(tmp_path / "g")))
    p = load_config("beta", overrides={"n": 4096}).params
    grid = SpectralGrid(p["length"], p["n"])
    u = random_field(grid, p["s"], p["amplitude"], p["seed"], p["decay"])
    near = random_field(SpectralGrid(1.0, 4096), -0.25, 15.0, 1, 0.02)
    return blocks + [(grid, u.coeffs[None], p["kappa"]),
                     (near.grid, near.coeffs[None], 32.0)]


def _reorthogonalized_lanczos(g, fundamental, length, kappa, bound):
    """A fully reorthogonalized Lanczos run, the oracle of the plain
    ``lax._lanczos``: the same matvec and stop rule, with one classical
    Gram-Schmidt pass against the stored basis per step and a second one
    on the rows whose first pass kept at most half of ||w||^2 (the DGKS
    test of Daniel, Gragg, Kaufman & Stewart 1976, as in ARPACK)."""
    def projection(basis, w):
        return np.matmul(np.vecdot(basis, w[:, None, :])[:, None, :],
                         basis)[:, 0]

    rows, m = g.shape
    freqs = fundamental * np.arange(m)
    symbol = lax_module._circulant_symbol(g / length)
    norm = np.sqrt(np.vecdot(g, g).real)
    padded = np.zeros((rows, 2 * m), dtype=np.complex128)
    spectrum = np.empty_like(padded)
    q = padded[:, :m]
    q[:, 0] = 1.0
    live = norm > 0.0
    q[live] = g[live] / norm[live, None]
    tiny = np.finfo(float).eps * m * (freqs[-1] - bound)
    alpha, beta = np.zeros((rows, m)), np.zeros((rows, m))
    steps = np.zeros(rows, dtype=int)
    index = np.arange(rows)
    basis = np.empty((rows, m, m), dtype=np.complex128)
    q_prev, beta_prev = np.zeros_like(q), np.zeros(rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            basis[:, k] = q
            w = lax_module._apply_lax(padded, spectrum, symbol, freqs)
            a_k = np.vecdot(q, w).real
            w -= a_k[:, None] * q + beta_prev[:, None] * q_prev
            span = basis[:, :k + 1]
            w_sq = np.vecdot(w, w).real
            w -= projection(span, w)
            b_sq = np.vecdot(w, w).real
            again = b_sq <= 0.5 * w_sq
            if again.any():
                w[again] -= projection(span[again], w[again])
                b_sq[again] = np.vecdot(w[again], w[again]).real
            b_k = np.sqrt(b_sq)
            alpha[index, k], beta[index, k] = a_k, b_k
            if k == 0:
                pivot, pivot_a = a_k + kappa, a_k - bound
                gauss = 1.0 / pivot
                corner = gauss * gauss
            else:
                r = beta_prev * beta_prev
                pivot = a_k + kappa - r / pivot
                pivot_a = a_k - bound - r / pivot_a
                step = r * corner / pivot
                gauss = gauss + step
                corner = step / pivot
            rb = b_k * b_k
            radau_pivot = bound + kappa + rb / pivot_a - rb / pivot
            gap = np.where(pivot_a > 0.0, rb * corner / radau_pivot, np.inf)
            done = ((gap <= lax_module._ENCLOSURE_RTOL * gauss)
                    | (b_k <= tiny) | (k + 1 == m))
            if done.any():
                steps[index[done]] = k + 1
                if done.all():
                    break
                keep = ~done
                (index, symbol, tiny, bound, basis, padded, spectrum, w, b_k,
                 pivot, pivot_a, gauss, corner) = (
                    x[keep] for x in (index, symbol, tiny, bound, basis,
                                      padded, spectrum, w, b_k, pivot,
                                      pivot_a, gauss, corner))
            q_prev, q, beta_prev = basis[:, k], padded[:, :m], b_k
            np.divide(w, b_k[:, None], out=q)
    return alpha, beta, steps


def _plain_basis(g, fundamental, length, alpha, beta, k):
    """The k basis vectors of the plain run from the Hardy data g, rebuilt
    from its alpha and beta: (k, m) rows.  The rebuild repeats the kernel's
    arithmetic operation by operation, so it gives the run's vectors bit
    for bit; one that rounds differently drifts away from them, because a
    recurrence with fixed coefficients amplifies rounding along the
    converged Ritz vectors."""
    m = g.shape[0]
    freqs = fundamental * np.arange(m)
    symbol = lax_module._circulant_symbol(g[None] / length)
    padded = np.zeros((1, 2 * m), dtype=np.complex128)
    spectrum = np.empty_like(padded)
    padded[0, :m] = g / np.sqrt(np.vecdot(g, g).real)
    basis, q_prev = [padded[0, :m].copy()], np.zeros(m, dtype=np.complex128)
    for j in range(k - 1):
        w = lax_module._apply_lax(padded, spectrum, symbol, freqs)
        w -= alpha[j] * padded[:, :m] + (beta[j - 1] if j else 0.0) * q_prev
        q_prev = padded[0, :m].copy()
        np.divide(w, beta[j], out=padded[:, :m])
        basis.append(padded[0, :m].copy())
    return np.array(basis)


def test_plain_lanczos_matches_the_reorthogonalized_run(tmp_path,
                                                         monkeypatch):
    # the plain recurrence against the reorthogonalized one, row by row: the
    # same steps, the same Gauss values to 1e-14 and the same smallest node
    # to 1e-12 kappa, and a basis orthonormal to sqrt(eps)
    fields = _lanczos_fields(tmp_path, monkeypatch)
    assert [len(coeffs) for _, coeffs, _ in fields] == [60, 1, 1]
    for grid, coeffs, kappa in fields:
        taus = np.array([kappa, kappa * np.e ** 3, 1e4])
        g = coeffs[:, :lax_module._truncation_size(grid, None)]
        bound = lax_module._symbol_bound(g, grid.length)
        assert np.all(bound + kappa > 0.0)
        plain = LaxSpectrum.lanczos(LaxTruncation(grid, g), kappa)
        alpha, beta, steps = lax_module._lanczos(LaxTruncation(grid, g),
                                                 kappa)
        want_alpha, want_beta, want_steps = _reorthogonalized_lanczos(
            g, grid.fundamental, grid.length, kappa, bound)
        assert np.array_equal(plain.steps, want_steps)
        gnorm_sq = np.vecdot(g, g).real
        for i, k in enumerate(steps.tolist()):
            nodes, first = lax_module._golub_welsch(want_alpha[i:i + 1, :k],
                                                    want_beta[i:i + 1, :k - 1])
            want = lax_module._form_at(nodes[0],
                                       gnorm_sq[i] * first[0] / grid.length,
                                       taus)
            got = lax_module._form_at(plain.nodes[i], plain.weights[i], taus)
            assert np.all(np.abs(got - want) <= 1e-14 * want), (i, got, want)
            assert abs(plain.lambda_min[i] - nodes[0, 0]) <= 1e-12 * kappa
            basis = _plain_basis(g[i], grid.fundamental, grid.length,
                                 alpha[i], beta[i], k)
            gram = basis.conj() @ basis.T
            assert np.max(np.abs(gram - np.eye(k))) <= np.sqrt(
                np.finfo(float).eps), i
    # the last field is the near-critical one
    assert steps.tolist() == [89] and plain.lambda_min[0] / kappa < -0.49


def test_shared_rule_rows_do_not_depend_on_the_batch():
    # rows of 6 to 24 Lanczos steps in one zero-padded stack: each row's
    # padding is exactly 0, and its shared-rule value is the one it gets
    # alone, although the widths cross the blocks of numpy's pairwise sums
    grid = SpectralGrid(TWO_PI, 1024)
    fields = [random_field(grid, -0.25, amplitude, seed, decay=decay)
              for seed, (amplitude, decay) in enumerate(
                  [(0.4, 0.25), (3.0, 0.0), (0.3, 0.0), (1.0, 0.0),
                   (2.0, 0.05), (0.4, 0.5)])]
    kappa, s = 32.0, -0.25
    measures = LaxSpectrum.lanczos(_stacked_lax(fields), kappa)
    steps = measures.steps
    assert steps.min() < 8 and steps.max() > 16
    assert measures.nodes.shape == measures.weights.shape == (6, steps.max())
    assert np.array_equal(measures.lambda_min, measures.nodes[:, 0])
    rule = KappaRule.build(kappa, s)
    values = rule.values(measures)
    for i, u in enumerate(fields):
        assert not measures.nodes[i, steps[i]:].any()
        assert not measures.weights[i, steps[i]:].any()
        alone = LaxSpectrum.lanczos(build_lax(u), kappa)
        assert alone.steps == steps[i]
        assert values[i] == rule.values(alone)


def test_symbol_bound_is_below_lambda_min():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    linalg = pytest.importorskip("scipy.linalg")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(0, 10 ** 6), st.floats(0.0, 50.0),
                      st.sampled_from([0.0, 0.05, 0.25]), st.integers(1, 64))
    def bound_below_lambda_min(seed, amplitude, decay, m):
        grid = SpectralGrid(TWO_PI, 256)
        u = random_field(grid, -0.25, amplitude, seed, decay=decay)
        lax = build_lax(u, (m - 0.5) * grid.fundamental)
        lam = linalg.eigh(lax.matrix, eigvals_only=True)[0]
        bound = LaxSpectrum(lax, u).lambda_bound
        assert bound <= lam + 1e-12 * (1.0 + abs(lam))

    bound_below_lambda_min()


def test_spectra_carry_the_symbol_bound_of_their_measure():
    # a Lanczos view, the dense constructor and a stacked call all read the
    # bound of their truncation; each equals the bound of the Hardy data
    grid = SpectralGrid(TWO_PI, 128)
    fields = [random_field(grid, -0.25, amp, seed, decay=0.25)
              for amp, seed in ((0.3, 7), (5.0, 3), (0.0, 1))]
    kappa = 2.0
    measures = LaxSpectrum.lanczos(_stacked_lax(fields), kappa)
    for u, bound in zip(fields, measures.lambda_bound):
        spectrum = LaxSpectrum.lanczos(build_lax(u), kappa)
        expected = lax_module._symbol_bound(build_lax(u).g, grid.length)
        assert spectrum.lambda_bound == bound == expected
        assert LaxSpectrum(build_lax(u), u).lambda_bound == expected
    assert measures.lambda_bound[1] + kappa <= 0.0


def test_uncertified_rows_take_the_dense_path():
    # a + kappa <= 0 cannot be certified: that row is the dense spectrum,
    # and the rest of the batch is unchanged by it.  A one-state call gives
    # its row of the stacked call bit for bit, certified or dense: the
    # measure, the shared-rule value and the admissible-shift test
    grid = SpectralGrid(TWO_PI, 128)
    big = random_field(grid, -0.25, 5.0, 3, decay=0.3)
    small = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    kappa = 2.0
    dense = LaxSpectrum(build_lax(big), big)
    assert dense.lambda_bound + kappa <= 0.0
    mixed = LaxSpectrum.lanczos(_stacked_lax([small, big]), kappa)
    assert mixed.steps[1] == 0
    assert np.array_equal(mixed.nodes[1], dense.nodes)
    assert np.array_equal(mixed.weights[1], dense.weights)
    lone = LaxSpectrum.lanczos(build_lax(big), kappa)
    assert lone.steps == 0
    for name in ("nodes", "weights", "lambda_bound"):
        assert np.array_equal(getattr(lone, name), getattr(dense, name))
    alone = LaxSpectrum.lanczos(build_lax(small), kappa)
    steps = alone.steps
    assert steps > 0 and mixed.steps[0] == steps
    assert np.array_equal(mixed.weights[0, :steps], alone.weights)
    assert np.array_equal(mixed.nodes[0, :steps], alone.nodes)
    assert not mixed.weights[0, steps:].any()
    rule, index = KappaRule.build(kappa, -0.25), SobolevIndex(-0.25, kappa)
    values = rule.values(mixed)
    norms = sobolev_norms(grid, np.stack([small.coeffs, big.coeffs]), index)
    checks = KappaCheck(kappa=kappa,
                        threshold=kappa_threshold(norms, -0.25, 1.0),
                        lambda_min=mixed.lambda_min, norm=norms)
    for i, (u, one) in enumerate(((small, alone), (big, lone))):
        assert one.nodes.ndim == 1 and np.ndim(one.steps) == 0
        assert one.lambda_min == mixed.lambda_min[i]
        assert one.lambda_bound == mixed.lambda_bound[i]
        assert rule.values(one) == values[i]
        check = check_kappa(u, -0.25, kappa)
        for name in ("threshold", "lambda_min", "norm", "ok"):
            assert getattr(check, name) == getattr(checks, name)[i], name
    with pytest.raises(ContractError, match="one state"):
        mixed.form_at(np.array([kappa]))
    with pytest.raises(ContractError):
        LaxSpectrum.lanczos(build_lax(small), np.inf)


def test_all_uncertified_lanczos_takes_no_matvec(monkeypatch):
    # with no certified row no row runs, so the recurrence stops before its
    # first matvec; every row is the dense measure
    grid = SpectralGrid(TWO_PI, 128)
    fields = [random_field(grid, -0.25, 5.0, seed, decay=0.3)
              for seed in (3, 5)]
    kappa = 1.5
    calls = []
    apply_lax = lax_module._apply_lax

    def counting_apply_lax(padded, *args):
        calls.append(padded.shape)
        return apply_lax(padded, *args)

    monkeypatch.setattr(lax_module, "_apply_lax", counting_apply_lax)
    for lax in (build_lax(fields[0]), _stacked_lax(fields)):
        assert np.all(lax.bound + kappa <= 0.0)
        calls.clear()
        spectrum = LaxSpectrum.lanczos(lax, kappa)
        assert calls == []
        assert not np.any(spectrum.steps)
        nodes, weights = np.atleast_2d(spectrum.nodes, spectrum.weights)
        for i, u in enumerate(fields[:len(nodes)]):
            dense = LaxSpectrum(build_lax(u), u)
            assert np.array_equal(nodes[i], dense.nodes)
            assert np.array_equal(weights[i], dense.weights)


def test_lanczos_rows_stay_in_place(monkeypatch):
    # one stack of certified rows that stop at different steps, a zero row,
    # an uncertified row and one whose norm overflows: every row keeps its
    # index, a certified row equals its one-row run bit for bit, no entry is
    # written past a row's steps, the matvec runs max(steps) times, and no
    # row raises a numpy warning
    grid = SpectralGrid(TWO_PI, 128)
    kappa = 32.0
    fields = [random_field(grid, -0.25, amp, seed, decay=decay)
              for amp, seed, decay in ((0.3, 5, 0.3), (1e-6, 2, 2.0),
                                       (20.0, 4, 0.0), (0.01, 1, 1.0),
                                       (30.0, 6, 0.0), (1e300, 7, 0.0))]
    fields.insert(2, constant_field(grid, 0.0))
    lax = _stacked_lax(fields)
    certified = lax.bound + kappa > 0.0
    assert certified.tolist() == [True] * 5 + [False] * 2
    calls = []
    apply_lax = lax_module._apply_lax

    def counting_apply_lax(padded, *args):
        calls.append(padded.shape[0])
        return apply_lax(padded, *args)

    monkeypatch.setattr(lax_module, "_apply_lax", counting_apply_lax)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, beta, steps = lax_module._lanczos(lax, kappa)
        assert calls == [len(fields)] * steps.max()
        with pytest.raises(NumericalError, match="is not finite"):
            LaxSpectrum.lanczos(lax, kappa)
        spectra = LaxSpectrum.lanczos(_stacked_lax(fields[:-1]), kappa)
        ones = [lax_module._lanczos(LaxTruncation(grid, g[None]), kappa)
                for g in lax.g]
    assert steps.tolist() == [8, 4, 1, 11, 5, 0, 0]
    assert np.array_equal(spectra.steps, steps[:-1])
    for i, (one_alpha, one_beta, one_steps) in enumerate(ones):
        k = steps[i]
        assert one_steps.tolist() == [k]
        assert np.array_equal(alpha[i], one_alpha[0])
        assert np.array_equal(beta[i], one_beta[0])
        assert not alpha[i, k:].any() and not beta[i, k:].any()
        if k:
            one = LaxSpectrum.lanczos(build_lax(fields[i]), kappa)
            assert np.array_equal(spectra.nodes[i, :k], one.nodes)
            assert np.array_equal(spectra.weights[i, :k], one.weights)


def test_build_lax_validation():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 1)
    with pytest.raises(ContractError):
        build_lax(u, 0.0)
    with pytest.raises(ContractError):
        build_lax(u, 32.0)  # beyond half the bandwidth (max pair is 63)
    assert modes_to_xi_max(grid, 64) == 63.0
    assert build_lax(u, modes_to_xi_max(grid, 16)).frequencies.shape == (16,)
    with pytest.raises(ContractError):
        modes_to_xi_max(grid, 0)
    with pytest.raises(ContractError):
        LaxSpectrum(build_lax(u, 31.0), random_field(SpectralGrid(1.0, 128),
                                                     -0.25, 0.3, 1))


# ---------------------------------------------------------- shift admissibility

def test_check_kappa_zero_field():
    grid = SpectralGrid(TWO_PI, 128)
    zero = RealField(grid, np.zeros(65, dtype=np.complex128))
    check = check_kappa(zero, -0.25, 1.0)
    assert check.norm == 0.0
    assert check.threshold == 1.0
    assert check.lambda_min == pytest.approx(0.0, abs=1e-14)
    assert check.ok


def test_check_kappa_negative_constant_fails():
    grid = SpectralGrid(TWO_PI, 128)
    check = check_kappa(constant_field(grid, -2.0), -0.25, 1.0)
    assert check.lambda_min == pytest.approx(-2.0, abs=1e-13)
    assert not check.ok


def test_check_kappa_threshold_monotone():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.5, 4, decay=0.25)
    thresholds = [check_kappa(u, -0.25, k).threshold
                  for k in (1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
    with pytest.raises(ContractError):
        check_kappa(u, -0.25, 0.5)
    with pytest.raises(ContractError, match="c_s must be positive"):
        _shift_index(-0.25, 2.0, 0.0)
    with pytest.raises(ContractError):
        check_kappa(u, -0.75, 2.0)


def test_check_kappa_checks_s_and_kappa_before_it_measures(monkeypatch):
    reached = []
    monkeypatch.setattr(LaxSpectrum, "lanczos",
                        lambda *args: reached.append(args))
    u = random_field(SpectralGrid(TWO_PI, 128), -0.25, 0.5, 4, decay=0.25)
    for s, kappa in ((-0.25, 0.5), (-0.75, 2.0), (-0.25, np.inf)):
        with pytest.raises(ContractError):
            check_kappa(u, s, kappa)
    assert reached == []


def test_check_kappa_threshold_overflow_fails_the_check():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 1e100, 7, decay=0.25)
    check = check_kappa(u, -0.25, 32.0)
    assert check.threshold == np.inf and not check.ok


def test_kappa_check_ok_is_elementwise():
    # the verdict read on arrays, elementwise: an entry fails on its
    # threshold, on a NaN threshold or on lambda_min
    check = KappaCheck(kappa=32.0,
                       threshold=np.array([31.0, 32.0, 33.0, np.nan, 1.0]),
                       lambda_min=np.array([0.0, -31.0, 0.0, 0.0, -32.0]),
                       norm=np.zeros(5))
    assert check.ok.tolist() == [True, True, False, False, False]


def test_kappa_threshold_rows_equal_their_one_state_calls():
    # one numpy power serves one norm and a stack of them, so each row's
    # threshold is its one-state call bit for bit, and so is check_kappa's.
    # Over these 64 fields a float64 scalar's ** (libm's pow) would differ
    # from the vectorized power in the last bit on 3 rows of an AVX-512
    # host; an overflowed row reads inf
    grid = SpectralGrid(TWO_PI, 256)
    index = SobolevIndex(-0.25, 32.0)
    fields = [random_field(grid, -0.25, 0.4, seed, decay=0.25)
              for seed in range(1, 65)]
    fields.append(random_field(grid, -0.25, 1e100, 7, decay=0.25))
    norms = sobolev_norms(grid, np.stack([u.coeffs for u in fields]), index)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thresholds = kappa_threshold(norms, -0.25, 1.0)
        for i, u in enumerate(fields):
            norm = sobolev_norms(grid, u.coeffs, index)
            threshold = kappa_threshold(norm, -0.25, 1.0)
            assert np.ndim(threshold) == 0
            assert threshold == thresholds[i], i
            assert norm == norms[i], i
    for i in range(0, len(fields), 16):
        check = check_kappa(fields[i], -0.25, 32.0)
        assert (check.norm, check.threshold) == (norms[i], thresholds[i])
    assert np.isfinite(thresholds[:-1]).all()
    assert thresholds[-1] == np.inf and not 32.0 >= thresholds[-1]


@pytest.mark.parametrize("overrides", [
    {"seed": "1"},
    {"seed": "2"},
    # the Ritz value reads +9.09e-4 here, the smallest eigenvalue -2.01e-3
    {"n": "4096", "seed": "12"},
])
def test_beta_lambda_min_brackets_the_smallest_eigenvalue(overrides):
    # beta's lambda_min is the smallest Ritz value at the step that
    # certifies its form: it bounds the smallest eigenvalue from above, as
    # lambda_min_bound does from below, and need not have converged to it
    cfg = load_config("beta", overrides=overrides)
    report = run_beta(cfg).report
    p = cfg.params
    u = random_field(SpectralGrid(p["length"], p["n"]), p["s"],
                     p["amplitude"], p["seed"], p["decay"])
    assert report["lanczos_steps"] > 0
    smallest = LaxSpectrum(build_lax(u), u).lambda_min
    assert report["lambda_min_bound"] <= smallest <= report["lambda_min"]


@pytest.mark.parametrize("amplitude", [1e160, 1e200])
def test_dense_spectrum_rejects_overflowing_data(amplitude):
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, amplitude, 7, decay=0.25)
    with pytest.raises(NumericalError, match="not finite"):
        LaxSpectrum(build_lax(u, 31.0), u)


def _eigh_fails(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh_nan(a):
    m = np.shape(a)[-1]
    return np.full(m, np.nan), np.full((m, m), np.nan, dtype=np.complex128)


@pytest.mark.parametrize("fake, message", [
    (_eigh_fails, "did not converge"), (_eigh_nan, "not finite")])
def test_dense_eigh_failure_is_a_numerical_error(tmp_path, capsys,
                                                 monkeypatch, fake, message):
    # LinAlgError is a ValueError that the CLI does not catch; a failed or
    # non-finite dense decomposition must end as a NumericalError (exit 2)
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    lax = build_lax(u, 31.0)
    monkeypatch.setattr(np.linalg, "eigh", fake)
    with pytest.raises(NumericalError, match=message):
        LaxSpectrum(lax, u)
    # an uncertified row takes the dense path inside the CLI
    out = tmp_path / "bt"
    assert main(["beta", "--n", "128", "--amplitude", "1e100",
                 "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and message in err
    assert "Traceback" not in err and not out.exists()


# ------------------------------------------------------------- resolvent

def test_resolvent_solve_diagonal_case():
    # a constant field c has the truncation diag(xi + c) and the Hardy data
    # g = (cL, 0, ..., 0)
    grid = SpectralGrid(TWO_PI, 128)
    lax = build_lax(constant_field(grid, 1.5), 31.0)
    g = lax.g
    assert g[0] == 1.5 * grid.length and not g[1:].any()
    x = -resolvent_state(lax, 5.0).coeffs
    assert np.max(np.abs(x - g / (np.arange(32.0) + 6.5))) < 1e-14
    shifted = lax.matrix + 5.0 * np.eye(32)
    assert np.linalg.norm(shifted @ x - g) < 1e-12 * np.linalg.norm(g)


def test_resolvent_state_refuses_a_stacked_truncation():
    grid = SpectralGrid(TWO_PI, 128)
    fields = [random_field(grid, -0.25, 0.3, seed, decay=0.25)
              for seed in (7, 8)]
    with pytest.raises(ContractError, match="one-state truncation"):
        resolvent_state(_stacked_lax(fields, 31.0), 32.0)


def test_resolvent_solve_rejects_bad_shift():
    grid = SpectralGrid(TWO_PI, 128)
    u = constant_field(grid, -2.0)
    lax = build_lax(u, 31.0)
    with pytest.raises(KappaTooSmallError,
                       match="not positive definite at kappa=1$"):
        resolvent_state(lax, 1.0)


def _cholesky_oracle(lax, kappa, g):
    linalg = pytest.importorskip("scipy.linalg")
    shifted = lax.matrix + kappa * np.eye(g.shape[0])
    return shifted, linalg.cho_solve(linalg.cho_factor(shifted, lower=True), g)


_SOLVER_FIELDS = {"smooth": (0.3, 0.25), "rough": (5.0, 0.0)}


@pytest.mark.parametrize("field", sorted(_SOLVER_FIELDS))
@pytest.mark.parametrize("m", [1, 2, 17, 64, 1024])
def test_resolvent_solve_against_cholesky(m, field, monkeypatch):
    amplitude, decay = _SOLVER_FIELDS[field]
    grid = SpectralGrid(TWO_PI, max(256, 4 * m))
    u = random_field(grid, -0.25, amplitude, 11, decay=decay)
    lax = build_lax(u, (m - 0.5) * grid.fundamental)
    g = u.coeffs[:m]
    bound = float(lax_module._symbol_bound(g, grid.length))
    kappas = [k for k in (-bound + 1e-4 * abs(bound), -bound + 1.0, 32.0)
              if k <= 32.0]
    assert len(kappas) >= 2
    oracles = [_cholesky_oracle(lax, kappa, g) for kappa in kappas]
    # certified shifts never reach the dense factorization
    monkeypatch.setattr(np.linalg, "cholesky", None)
    for kappa, (shifted, oracle) in zip(kappas, oracles):
        state = resolvent_state(lax, kappa)
        x, iterations = -state.coeffs, state.iterations
        assert (iterations == 0) if m == 1 else (0 < iterations <= 12)
        assert np.linalg.norm(x - oracle) <= 1e-12 * np.linalg.norm(oracle)
        residual = np.linalg.norm(shifted @ x - g)
        assert residual <= 1e-12 * np.linalg.norm(g)


def test_resolvent_solve_zero_right_hand_side():
    grid = SpectralGrid(TWO_PI, 128)
    lax = build_lax(RealField(grid, np.zeros(65, dtype=np.complex128)), 31.0)
    state = resolvent_state(lax, 32.0)
    assert state.iterations == 0 and not state.coeffs.any()


def test_resolvent_solve_uncertified_shift_is_cholesky(monkeypatch):
    # a + kappa <= 0 < lambda_min + kappa: positive definite, not certified
    grid = SpectralGrid(TWO_PI, 256)
    u = random_field(grid, -0.25, 5.0, 11, decay=0.0)
    lax = build_lax(u, 63.0)
    g = u.coeffs[:64]
    bound = float(lax_module._symbol_bound(g, grid.length))
    linalg = pytest.importorskip("scipy.linalg")
    lam = linalg.eigh(lax.matrix, eigvals_only=True)[0]
    assert bound < lam
    kappa = -0.5 * (bound + lam)
    oracle = _cholesky_oracle(lax, kappa, g)[1]
    factored = []
    np_cholesky = np.linalg.cholesky

    def counting_cholesky(a, *args, **kwargs):
        factored.append(np.shape(a))
        return np_cholesky(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    state = resolvent_state(lax, kappa)
    x, iterations = -state.coeffs, state.iterations
    assert iterations == 0 and factored == [(64, 64)]
    assert np.linalg.norm(x - oracle) <= 1e-14 * np.linalg.norm(oracle)


def test_one_bound_certifies_both_routes():
    # kappa = -a exactly: the shift is not certified, so the Lanczos route
    # takes the dense measure and the resolvent solve the Cholesky
    # factorization, both read off the truncation's one bound (a bound of
    # g/L instead of g sits an ulp higher here, and certified the solve)
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 3.0, 14, decay=0.3)
    kappa = 1.1631720455308805
    lax = build_lax(u)
    assert lax.bound + kappa == 0.0
    assert LaxSpectrum.lanczos(lax, kappa).steps == 0
    state = resolvent_state(lax, kappa)
    x, iterations = -state.coeffs, state.iterations
    assert iterations == 0
    shifted = lax.matrix + kappa * np.eye(lax.g.shape[0])
    assert np.linalg.norm(shifted @ x - lax.g) <= 1e-12 * np.linalg.norm(lax.g)


def test_cg_give_up_hands_over_to_cholesky(monkeypatch):
    # with a residual target of 0 the conjugate gradients never converge:
    # they give up after m iterations (129 matvecs at m = 64) and the
    # Cholesky fallback solves the certified shift of criterion 5's field
    grid = SpectralGrid(TWO_PI, 256)
    lax = build_lax(random_field(grid, -0.25, 0.3, 7, decay=0.25))
    solved = resolvent_state(lax, 32.0)
    assert solved.iterations > 0
    monkeypatch.setattr(lax_module, "_PCG_RTOL", 0.0)
    fallback = resolvent_state(lax, 32.0)
    assert fallback.iterations == 0
    assert np.linalg.norm(fallback.coeffs - solved.coeffs) \
        <= 1e-12 * np.linalg.norm(solved.coeffs)


# each route that takes a shift, called with a bad value and a form_at that
# counts its calls; apriori_bound takes the bad value as its c_s
_BAD_SHIFT_ROUTES = {
    "KappaRule.build": lambda u, value, calls: KappaRule.build(value, -0.25),
    "build_weighted_rule": lambda u, value, calls: build_weighted_rule(
        lambda taus: calls.append("form_at") or np.ones_like(taus), value,
        -0.25),
    "form_flow_derivative": lambda u, value, calls: form_flow_derivative(
        u, value, 1.0, -0.25),
    "resolvent_state": lambda u, value, calls: resolvent_state(
        build_lax(u), value),
    "resolvent_form": lambda u, value, calls: resolvent_form(u, value),
    "LaxSpectrum.lanczos": lambda u, value, calls: LaxSpectrum.lanczos(
        build_lax(u), value),
    "apriori_bound": lambda u, value, calls: apriori_bound(
        1.0, -0.25, 1.0, value, 0.0),
}


@pytest.mark.parametrize("route, value, message", [
    *[(route, kappa, "kappa must be finite")
      for route in sorted(set(_BAD_SHIFT_ROUTES) - {"apriori_bound"})
      for kappa in (np.nan, np.inf, -np.inf)],
    *[("apriori_bound", c_s, "c_s must be positive")
      for c_s in (0.0, -1.0, np.nan)],
])
def test_bad_shift_is_a_usage_error_on_every_route(route, value, message,
                                                   monkeypatch):
    # rejected before anything is measured or solved
    reached = []

    def refuse(name):
        return lambda *args, **kwargs: reached.append(name)

    for name in ("_apply_lax", "_dense_measure", "_preconditioned_cg"):
        monkeypatch.setattr(lax_module, name, refuse(name))
    monkeypatch.setattr(np.linalg, "cholesky", refuse("cholesky"))
    u = random_field(SpectralGrid(TWO_PI, 256), -0.25, 0.3, 7, decay=0.25)
    with pytest.raises(ContractError, match="^%s$" % message):
        _BAD_SHIFT_ROUTES[route](u, value, reached)
    assert reached == []


@pytest.mark.parametrize("taus", [[np.nan], [np.inf], [-np.inf],
                                  [32.0, np.inf]])
def test_form_at_rejects_a_shift_that_is_not_finite(taus, monkeypatch):
    # the spectrum is measured first; then no tau reaches the measure
    u = random_field(SpectralGrid(TWO_PI, 256), -0.25, 0.3, 7, decay=0.25)
    spectrum = LaxSpectrum.lanczos(build_lax(u), 32.0)
    reached = []
    monkeypatch.setattr(lax_module, "_form_at",
                        lambda *args: reached.append(args))
    with pytest.raises(ContractError, match="^kappa must be finite$"):
        spectrum.form_at(np.array(taus))
    assert reached == []


def test_weighted_rule_horizon_stops_before_its_taus_overflow():
    # near s = 0 the tail decays too slowly for the horizon to close, and
    # kappa * exp(400) overflows at kappa = 1e150: the runaway is raised
    # before a tau that is not finite reaches form_at, with no overflow
    u = random_field(SpectralGrid(TWO_PI, 256), -0.25, 0.3, 7, decay=0.25)
    spectrum = LaxSpectrum.lanczos(build_lax(u), 1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="horizon runaway"):
            build_weighted_rule(spectrum.form_at, 1e150, -0.01)


def _scaled_synthesis(monkeypatch, factor):
    samples = ResolventState.samples.func
    monkeypatch.setattr(ResolventState, "samples",
                        property(lambda state: factor * samples(state)))


def _negated_weights(spectrum):
    out = LaxSpectrum.__new__(LaxSpectrum)
    vars(out).update(vars(spectrum), weights=-spectrum.weights)
    return out


# one fault per safety exit that a run which passes never reaches, on
# criterion 5's field: each gets (monkeypatch, u, its resolvent state, its
# spectrum) and makes the call that must stop at the exit
_SAFETY_EXITS = {
    "imaginary form": (
        lambda mp, u, state, spectrum: ResolventState(
            state.grid, 1j * state.coeffs, 0).form(u),
        NumericalError, "resolvent form acquired an imaginary part$"),
    "negative form": (
        lambda mp, u, state, spectrum: ResolventState(
            state.grid, -state.coeffs, 0).form(u),
        KappaTooSmallError, "resolvent form is negative"),
    "routes disagree": (
        lambda mp, u, state, spectrum: _scaled_synthesis(mp, 1.0 + 1e-6)
        or ResolventState(state.grid, state.coeffs, 0).form(u),
        NumericalError, "resolvent form routes disagree: "),
    "negative weighted form": (
        lambda mp, u, state, spectrum: KappaRule.build(32.0, -0.25).values(
            _negated_weights(spectrum)),
        NumericalError, "weighted form came out negative$"),
    "solve residual": (
        lambda mp, u, state, spectrum: mp.setattr(
            lax_module, "_PCG_RTOL", 1e-6)
        or resolvent_state(build_lax(u), 32.0),
        NumericalError, r"resolvent solve residual 4\.882e-07$"),
}


@pytest.mark.parametrize("name", sorted(_SAFETY_EXITS))
def test_safety_exits_fire_on_injected_faults(name, monkeypatch):
    u = random_field(SpectralGrid(TWO_PI, 256), -0.25, 0.3, 7, decay=0.25)
    state = resolvent_state(build_lax(u), 32.0)
    spectrum = LaxSpectrum.lanczos(build_lax(u), 32.0)
    # the field as it is passes every exit
    state.form(u)
    KappaRule.build(32.0, -0.25).values(spectrum)
    call, error, message = _SAFETY_EXITS[name]
    with pytest.raises(error, match="^" + message):
        call(monkeypatch, u, state, spectrum)


def test_lax_truncation_builds_its_matrix_only_when_read():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    lax = build_lax(u, 31.0)
    resolvent_state(lax, 32.0)
    assert "matrix" not in vars(lax)
    assert lax.matrix is lax.matrix and "matrix" in vars(lax)


def test_resolvent_state_decays_with_kappa():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    frequencies = build_lax(u).frequencies
    logs = []
    for kappa in (8.0, 16.0, 32.0, 64.0):
        state = resolvent_state(build_lax(u), kappa)
        logs.append(np.log(hardy_norm(state.coeffs, frequencies, grid.length,
                                      SobolevIndex(-0.25, 1.0))))
    slope = np.polyfit(np.log([8.0, 16.0, 32.0, 64.0]), logs, 1)[0]
    assert slope < -0.9


def test_resolvent_state_neumann_expansion():
    # against the second-order Neumann series the error falls off cubically
    grid = SpectralGrid(TWO_PI, 128)
    shape = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    direction = shape.samples() / shape.sup_norm()
    kappa = 16.0
    r0 = np.diag(1.0 / (np.arange(32.0) + kappa))
    errors = []
    sizes = (1e-2, 5e-3, 2.5e-3)
    for eps in sizes:
        u = forward_transform(eps * direction, grid)
        lax = build_lax(u, 31.0)
        g = u.coeffs[:32]
        m = resolvent_state(lax, kappa).coeffs
        t = lax.matrix - np.diag(lax.frequencies)
        m2 = -r0 @ g + r0 @ t @ r0 @ g
        errors.append(np.linalg.norm(m - m2))
    assert errors[0] > errors[1] > errors[2]
    order = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
    assert order > 2.9


def test_resolvent_form_against_dense_solve():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    value = resolvent_form(u, 32.0)
    oracle_matrix = dense_oracle(full_spectrum(u), grid, 32) + 32.0 * np.eye(32)
    g = u.coeffs[:32]
    x = np.linalg.solve(oracle_matrix, g)
    oracle = float(np.real(np.vdot(g, x))) / grid.length
    assert value == pytest.approx(oracle, rel=1e-12)
    assert value > 0.0


def test_resolvent_form_perturbative_value():
    # for a small single harmonic the form is |u_hat|^2/(L*(xi_0 + kappa))
    # up to fourth order
    grid = SpectralGrid(1.0, 128)
    eps = 1e-3
    u = forward_transform(2.0 * eps * np.cos(TWO_PI * grid.nodes), grid)
    value = resolvent_form(u, 32.0)
    assert abs(value - eps ** 2 / (TWO_PI + 32.0)) < 1e-8


def test_resolvent_form_translation_invariant():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    base = resolvent_form(u, 32.0)
    assert resolvent_form(u.shifted(0.79), 32.0) == pytest.approx(base,
                                                                  rel=1e-12)


def test_form_decreases_with_kappa():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    values = [resolvent_form(u, k) for k in (8.0, 16.0, 32.0, 64.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_form_times_tau_converges_to_hardy_mass():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    spectrum = LaxSpectrum(build_lax(u, 31.0), u)
    g = u.coeffs[:32]
    hardy_mass = float(np.sum(np.abs(g) ** 2)) / grid.length
    tau = 1e4
    assert tau * spectrum.form_at(np.array([tau]))[0] == pytest.approx(
        hardy_mass, rel=0.01)


# ------------------------------------------------------------ weighted form

def test_weighted_form_zero_field():
    grid = SpectralGrid(TWO_PI, 128)
    zero = RealField(grid, np.zeros(65, dtype=np.complex128))
    rule = weighted_resolvent_form(zero, 8.0, -0.25)
    assert rule.value == 0.0
    assert rule.build_error == 0.0
    # one horizon panel of 15 Kronrod nodes, all of form value 0
    assert rule.tau_nodes.shape == (15,)
    assert not rule.form_values.any()


@pytest.mark.parametrize("overrides", [{}, {"n": "4096", "seed": "12"},
                                       {"amplitude": "0"}])
def test_weighted_rule_keeps_the_profile_it_adapted_on(overrides):
    # the rule keeps the form values of its final panels and of its
    # horizon: they equal a fresh evaluation at its nodes, and its value is
    # the rule combined over that fresh profile, bit for bit (on the beta
    # states at the defaults, at n = 4096 with seed 12, and on the zero
    # field)
    p = load_config("beta", overrides=overrides).params
    grid = SpectralGrid(p["length"], p["n"])
    u = random_field(grid, p["s"], p["amplitude"], p["seed"], p["decay"])
    spectrum = LaxSpectrum.lanczos(build_lax(u), p["kappa"])
    rule = build_weighted_rule(spectrum.form_at, p["kappa"], p["s"])
    fresh = spectrum.form_at(rule.taus)
    assert rule.form_values.tobytes() == fresh[:-1].tobytes()
    assert rule.value == float(np.real(rule.combine(fresh)))
    assert rule.sigma == 0.5 * (0.5 + p["s"])
    assert (rule.value == 0.0) == (p["amplitude"] == 0.0)


def test_weighted_rule_refuses_a_negative_value():
    # the rule carries its value, and with it the positivity check
    with pytest.raises(NumericalError, match="negative"):
        build_weighted_rule(lambda taus: -1.0 / np.asarray(taus), 8.0, -0.25)


def test_weighted_form_perturbative_closed_form():
    # integral of tau^(-1/2)/(xi_0 + tau) has an elementary antiderivative
    grid = SpectralGrid(1.0, 128)
    eps = 1e-3
    u = forward_transform(2.0 * eps * np.cos(TWO_PI * grid.nodes), grid)
    profile = weighted_resolvent_form(u, 32.0, -0.25)
    closed = eps ** 2 * (2.0 / np.sqrt(TWO_PI)) * (
        np.pi / 2.0 - np.arctan(np.sqrt(32.0 / TWO_PI)))
    assert abs(profile.value - closed) < 1e-8


def test_weighted_form_against_adaptive_quadrature():
    # same spectral data, independent integrator: geometric segments plus
    # the 1/tau tail model far out
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    s, kappa = -0.35, 8.0
    profile = weighted_resolvent_form(u, kappa, s)
    spectrum = LaxSpectrum(build_lax(u, 31.0), u)

    def integrand(tau):
        return tau ** (2.0 * s) * spectrum.form_at(np.array([tau]))[0]

    integrate = pytest.importorskip("scipy.integrate")
    edges = [kappa * 4.0 ** j for j in range(10)]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        part, _ = integrate.quad(integrand, a, b, epsrel=1e-12, limit=200)
        total += part
    horizon = edges[-1]
    total += (spectrum.form_at(np.array([horizon]))[0]
              * horizon ** (2.0 * s + 1.0) / (2.0 * abs(s)))
    assert profile.value == pytest.approx(total, rel=1e-8)


def test_weighted_rule_bisects_a_near_critical_state():
    # lambda_min is -0.68 kappa: the form peaks at kappa, and the horizon
    # panels miss _RULE_RTOL, so the rule bisects them; the bisected rule
    # still agrees with the shared closed-form rule to rounding
    u = random_field(SpectralGrid(1.0, 256), -0.25, 20.0, 1, 0.02)
    kappa, s = 32.0, -0.25
    spectrum = LaxSpectrum.lanczos(build_lax(u), kappa)
    assert spectrum.lambda_min < -0.5 * kappa
    rule = build_weighted_rule(spectrum.form_at, kappa, s)
    horizon_panels = round(np.log(rule.tau_star / kappa) / 2.0)
    assert rule.tau_nodes.shape[0] > 15 * horizon_panels
    assert rule.build_error <= lax_module._RULE_RTOL
    shared = KappaRule.build(kappa, s).values(spectrum)
    assert abs(rule.value - shared) <= 1e-12 * shared


def test_weighted_form_monotone_in_kappa():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    values = [weighted_resolvent_form(u, k, -0.35).value
              for k in (8.0, 16.0, 32.0)]
    assert values[0] > values[1] > values[2]


def test_weighted_form_stable_under_deeper_truncation():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=1.0)
    v16 = build_weighted_rule(
        LaxSpectrum.lanczos(build_lax(u, 16.0), 8.0).form_at, 8.0, -0.35).value
    v31 = weighted_resolvent_form(u, 8.0, -0.35).value
    assert abs(v16 - v31) < 1e-9 * v31


def test_weighted_form_validation():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    with pytest.raises(ContractError):
        weighted_resolvent_form(u, 0.5, -0.25)
    with pytest.raises(ContractError):
        weighted_resolvent_form(u, 8.0, -0.6)
    with pytest.raises(ContractError):
        weighted_resolvent_form(u, 8.0, 0.1)
    with pytest.raises(KappaTooSmallError):
        weighted_resolvent_form(constant_field(grid, -2.0), 1.0, -0.25)


# z = lambda/kappa from next to the pole at -1, across the switches at -1/2
# and 8, to far above
_RULE_Z = np.concatenate((-1.0 + np.geomspace(1e-3, 0.5, 15),
                          [-0.5 + 1e-12, -0.3, 0.0, 8.0, 8.0 + 1e-12],
                          np.geomspace(1e-6, 1e8, 43)))


@pytest.mark.parametrize("s, rtol", [(-0.01, 1e-13), (-0.05, 1e-13),
                                     (-0.25, 1e-13), (-0.45, 1e-13),
                                     (-0.49, 1e-13), (-0.499, 1e-13),
                                     (-0.4999, 1e-13), (-0.49999, 1e-13)])
def test_kappa_rule_against_hypergeometric(s, rtol):
    # at kappa = 1, W(lambda) = 2F1(1, b; b + 1; -lambda)/b with b = -2s
    mpmath = pytest.importorskip("mpmath")
    rule = KappaRule.build(1.0, s)
    got = rule.kernel(_RULE_Z)
    b = -2.0 * s
    with mpmath.workdps(40):
        want = np.array([float(mpmath.hyp2f1(1, b, b + 1, -mpmath.mpf(z)) / b)
                         for z in _RULE_Z])
    assert np.all(np.abs(got - want) <= rtol * want), \
        np.max(np.abs(got - want) / want)


def test_shared_rule_takes_the_closed_form_below_half_kappa(monkeypatch):
    # a constant field c has one node, lambda = c, of weight c^2 L; below
    # -kappa/2 it is certified, and its row takes the closed form like
    # every other, with no adaptive rule
    mpmath = pytest.importorskip("mpmath")
    grid = SpectralGrid(TWO_PI, 128)
    kappa, s = 32.0, -0.25
    builds = []
    monkeypatch.setattr(lax_module, "build_weighted_rule",
                        lambda *args, **kwargs: builds.append(args))
    for c in (-0.75 * kappa, -0.99 * kappa):
        field = constant_field(grid, c)
        spectrum = LaxSpectrum.lanczos(build_lax(field), kappa)
        assert spectrum.steps == 1
        assert spectrum.lambda_bound + kappa > 0.0
        assert spectrum.lambda_min == pytest.approx(c, rel=1e-15)
        value = KappaRule.build(kappa, s).values(spectrum)
        with mpmath.workdps(30):
            exact = float(c * c * grid.length * mpmath.quad(
                lambda tau: tau ** (2 * s) / (c + tau),
                [kappa, 2 * kappa, 16 * kappa, mpmath.inf]))
        assert abs(value - exact) <= 1e-13 * exact, c
    assert builds == []


# ------------------------------------------------------------- derivatives

def test_gradient_matches_finite_differences():
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    gradient = resolvent_state(build_lax(u), 32.0).gradient
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(20):
        shape = random_field(grid, -0.25, 1.0, int(rng.integers(10 ** 6)),
                             decay=0.2)
        v = shape.samples() / shape.sup_norm()
        plus = forward_transform(u.samples() + h * v, grid)
        minus = forward_transform(u.samples() - h * v, grid)
        fd = (resolvent_form(plus, 32.0) - resolvent_form(minus, 32.0)) / (2 * h)
        pairing = float(np.sum(gradient * v)) * grid.spacing
        assert abs(fd - pairing) < 1e-6


def test_flow_derivative_structure():
    grid = SpectralGrid(TWO_PI, 128)
    zero = RealField(grid, np.zeros(65, dtype=np.complex128))
    assert form_flow_derivative(zero, 8.0, 1.0, -0.25) == 0.0
    u = random_field(grid, -0.25, 0.3, 7, decay=0.25)
    flow = form_flow_derivative(u, 8.0, 1.0, -0.25)
    assert type(flow) is float and flow != 0.0


@pytest.mark.parametrize("amplitude, seed, kappa", [(0.3, 7, 8.0),
                                                    (5.0, 3, 64.0)])
def test_flow_derivative_against_dense_eigenvectors(amplitude, seed, kappa):
    # m(tau) = -W diag(1/(lambda + tau)) W^H g from a dense eigh, synthesized
    # mode by mode: independent of the resolvent solves
    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, amplitude, seed, decay=0.25)
    lax = build_lax(u)
    # the rule that form_flow_derivative builds
    rule = build_weighted_rule(
        LaxSpectrum.lanczos(lax, kappa).form_at, kappa, -0.25)
    flow = form_flow_derivative(u, kappa, 1.0, -0.25)

    g = u.coeffs[:lax.frequencies.shape[0]]
    linalg = pytest.importorskip("scipy.linalg")
    lam, w = linalg.eigh(lax.matrix)
    taus = rule.taus
    m_cols = -w @ ((w.conj().T @ g)[:, None] / (lam[:, None] + taus[None, :]))
    # the state that the flow derivative reads, at every node of its rule
    for tau, m in zip(taus, m_cols.T):
        state = resolvent_state(lax, tau).coeffs
        assert np.linalg.norm(state - m) <= 1e-12 * np.linalg.norm(m), tau
    m_phys = np.array([ResolventState(grid, m, 0).samples for m in m_cols.T])
    q = apply_smoothing_dx(u, 1.0).samples()
    i1 = -(m_phys @ q) * grid.spacing
    i3 = -((np.abs(m_phys) ** 2) @ q) * grid.spacing
    i1 = rule.combine(i1)
    i3 = rule.combine(i3).real
    # the total cancels most of 2 Re(I1) against I3: judge it on |I1|
    assert abs(flow - (2.0 * i1.real + i3)) <= 1e-12 * abs(i1)


def test_flow_derivative_matches_finite_differences():
    # evolve the actual equation and difference the weighted form in time
    grid = SpectralGrid(TWO_PI, 256)
    u0 = random_field(grid, -0.25, 0.25, 9, decay=0.25)
    xi_max = modes_to_xi_max(grid, 64)
    kappa, s, depth, h = 32.0, -0.25, 0.5, 1e-3
    problem = make_ilw(depth, grid)
    states = {t: evolve(problem, u0, t, dt=1e-4, n_samples=1).final()
              for t in (0.25 - h, 0.25, 0.25 + h)}
    mid = states[0.25]

    def beta(state):
        # the shared rule does not depend on the state
        return KappaRule.build(kappa, s).values(
            LaxSpectrum.lanczos(build_lax(state, xi_max), kappa))

    fd = (beta(states[0.25 + h]) - beta(states[0.25 - h])) / (2.0 * h)
    flow = form_flow_derivative(mid, kappa, depth, s)
    assert abs(fd - flow) < 2e-4 * abs(flow)


def test_weighted_form_conserved_by_deep_water_flow():
    grid = SpectralGrid(TWO_PI, 256)
    u0 = random_field(grid, -0.25, 0.25, 9, decay=0.25)
    xi_max = modes_to_xi_max(grid, 64)
    kappa, s, h = 32.0, -0.25, 1e-3
    problem = make_bo(grid)
    states = {t: evolve(problem, u0, t, dt=1e-4, n_samples=1).final()
              for t in (0.25 - h, 0.25, 0.25 + h)}
    mid = states[0.25]

    def beta(state):
        return KappaRule.build(kappa, s).values(
            LaxSpectrum.lanczos(build_lax(state, xi_max), kappa))

    fd = (beta(states[0.25 + h]) - beta(states[0.25 - h])) / (2.0 * h)
    assert abs(fd) < 1e-7 * beta(mid)


# ------------------------------------------------------------- experiments

def test_gronwall_experiment_reports():
    grid = SpectralGrid(TWO_PI, 128)
    u0 = random_field(grid, -0.25, 0.3, 5, decay=0.3)
    report = gronwall_experiment(u0, make_ilw(1.0, grid), -0.25, 32.0,
                                 t_final=0.2, dt=1e-3, n_samples=10)
    assert np.all(np.isfinite(report.form_values) & (report.form_values > 0.0))
    assert report.norms.shape == report.times.shape == (11,)
    assert np.all(32.0 - kappa_threshold(report.norms, -0.25, 1.0) > 0.0)
    assert report.a_hat < 1e-3

    control = gronwall_experiment(u0, make_bo(grid), -0.25, 32.0,
                                  t_final=0.2, dt=1e-3, n_samples=10)
    # the deep-water flow conserves the form: only integrator noise remains
    assert control.a_hat < 1e-6
    assert control.a_hat < report.a_hat


def test_gronwall_experiment_matches_public_functions():
    # the same trajectory through check_kappa and the one-row shared-rule
    # value gives exactly the experiment's numbers, and the adaptive rule of
    # u0, applied to each state's form, agrees with them to rounding
    grid = SpectralGrid(TWO_PI, 128)
    u0 = random_field(grid, -0.25, 0.3, 5, decay=0.3)
    s, kappa = -0.25, 32.0
    problem = make_ilw(1.0, grid)
    report = gronwall_experiment(u0, problem, s, kappa, t_final=0.2, dt=1e-3,
                                 n_samples=10)
    states = evolve(problem, u0, 0.2, dt=1e-3, n_samples=10).states
    values = [KappaRule.build(kappa, s).values(
        LaxSpectrum.lanczos(build_lax(state), kappa)) for state in states]
    rule = build_weighted_rule(
        LaxSpectrum.lanczos(build_lax(u0), kappa).form_at, kappa, s)
    spectra = [LaxSpectrum.lanczos(build_lax(state), kappa)
               for state in states]
    frozen = np.array([rule.combine(spectrum.form_at(rule.taus))
                       for spectrum in spectra])
    # the rows of one call over the states are their one-field measures
    measures = LaxSpectrum.lanczos(_stacked_lax(states), kappa)
    for i, spectrum in enumerate(spectra):
        steps = spectrum.steps
        assert measures.steps[i] == steps
        assert np.array_equal(measures.nodes[i, :steps], spectrum.nodes)
        assert np.array_equal(measures.weights[i, :steps], spectrum.weights)
    checks = [check_kappa(state, s, kappa) for state in states]
    assert len(states) == len(report.times) == 11
    assert report.form_values.tolist() == values
    assert np.all(np.abs(report.form_values - frozen) <= 1e-12 * frozen)
    assert report.norms.tolist() == [check.norm for check in checks]
    assert kappa_threshold(report.norms, s, 1.0).tolist() == [
        check.threshold for check in checks]


def test_check_kappa_and_the_ensemble_share_the_shift_test():
    # a field near the constant -2 has lambda_min near -2: kappa = 1 clears
    # the threshold of its norm at a small c_s but not the spectrum, so the
    # shift test fails, and the ensemble, which takes no c_s, has no form
    # there: its rule raises KappaTooSmallError, the error a spectrum below
    # -kappa gives everywhere
    grid = SpectralGrid(TWO_PI, 64)
    coeffs = np.zeros(33, dtype=np.complex128)
    coeffs[0], coeffs[1] = -2.0 * grid.length, 0.01 * grid.length
    u0 = RealField(grid, coeffs)
    s, kappa, c_s = -0.25, 1.0, 1e-6
    check = check_kappa(u0, s, kappa)
    threshold = kappa_threshold(check.norm, s, c_s)
    assert kappa >= threshold and check.lambda_min + kappa <= 0.0
    assert check.threshold == kappa_threshold(check.norm, s, 1.0)
    assert not check.ok
    assert not KappaCheck(kappa=kappa, threshold=threshold,
                          lambda_min=check.lambda_min, norm=check.norm).ok
    with pytest.raises(KappaTooSmallError,
                       match="^shift 1 does not clear lambda_min = -2"):
        gronwall_experiment(u0, make_ilw(1.0, grid), s, kappa, t_final=0.01,
                            dt=1e-3, n_samples=2)


def test_ensemble_blocks_measure_each_sample_as_alone(monkeypatch):
    # 3 members take 21 samples per LaxSpectrum.lanczos call, so 31
    # samples make a full block and a partial one; each sample's rows of a
    # block are bit for bit its own call, up to the block's wider zero
    # padding, and so is each row's one-state call with its shared-rule
    # value; the reports equal those of one call per sample
    grid = SpectralGrid(TWO_PI, 128)
    initials = [random_field(grid, -0.25, 0.4, seed, decay=0.25)
                for seed in (1, 2, 3)]
    kappa = 32.0
    calls = []
    lanczos = LaxSpectrum.lanczos
    rule = KappaRule.build(kappa, -0.25)

    def recording_lanczos(lax, *args):
        measures = lanczos(lax, *args)
        calls.append((lax.g.copy(), measures))
        return measures

    problems = [make_ilw(depth, grid) for depth in (0.5, 1.0, 2.0)]

    def run_ensemble():
        return gronwall_ensemble(initials, problems, -0.25, kappa,
                                 t_final=0.03, dt=1e-3, n_samples=30)

    monkeypatch.setattr(LaxSpectrum, "lanczos", recording_lanczos)
    blocked = run_ensemble()
    assert [len(coeffs) for coeffs, _ in calls] == [63, 30]
    for coeffs, measures in calls:
        values = rule.values(measures)
        for i, row in enumerate(coeffs):
            one = lanczos(LaxTruncation(grid, row), kappa)
            assert np.array_equal(measures.nodes[i, :one.steps], one.nodes)
            assert np.array_equal(measures.weights[i, :one.steps],
                                  one.weights)
            assert one.lambda_min == measures.lambda_min[i]
            assert rule.values(one) == values[i]
        for start in range(0, len(coeffs), 3):
            alone = lanczos(LaxTruncation(grid, coeffs[start:start + 3]),
                            kappa)
            width = alone.nodes.shape[1]
            rows = slice(start, start + 3)
            for name in ("nodes", "weights"):
                block = getattr(measures, name)[rows]
                assert np.array_equal(block[:, :width], getattr(alone, name))
                assert not block[:, width:].any()
            for name in ("lambda_min", "lambda_bound", "steps"):
                assert np.array_equal(getattr(measures, name)[rows],
                                      getattr(alone, name))
    calls.clear()
    monkeypatch.setattr(lax_module, "_LANCZOS_BLOCK_ROWS", 1)
    single = run_ensemble()
    assert [len(coeffs) for coeffs, _ in calls] == [3] * 31
    for a, b in zip(blocked, single):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.form_values, b.form_values)
        assert np.array_equal(a.norms, b.norms)
        assert a.a_hat == b.a_hat


@pytest.mark.parametrize("shift", [
    pytest.param(64.0, id="shifted"),
    pytest.param(0.0, id="clean"),
])
def test_a_stepper_error_leaves_pending_samples_unmeasured(
        shift, tmp_path, capsys, monkeypatch):
    # the stepper yields a second sample, then blows up while that sample
    # still waits for its Lanczos block.  Shifted, that sample's spectrum
    # lies below -kappa; either way no block is measured, the blow-up is
    # the numerical failure reported (exit 2), and nothing is written
    measured = []
    lanczos = LaxSpectrum.lanczos

    def counting_lanczos(lax, *args):
        measured.append(len(lax.g))
        return lanczos(lax, *args)

    def failing_stepper(problems, coeffs, t_final, dt, n_samples):
        yield 0.0, coeffs
        grid = problems[0].grid
        shifted = coeffs.copy()
        shifted[:, 0] -= shift * grid.length
        yield dt, shifted
        raise BlowUpError(2 * dt, 1e9)

    monkeypatch.setattr(lax_module, "etdrk4_samples", failing_stepper)
    monkeypatch.setattr(LaxSpectrum, "lanczos", counting_lanczos)
    argv = ["gronwall", "--n", "64", "--seeds", "1", "--depth-list", "1",
            "--samples", "5", "--t-final", "0.05", "--dt", "1e-3",
            "--outdir", str(tmp_path / "g")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: solution blow-up at t=")
    assert measured == []
    assert not (tmp_path / "g").exists()


def test_a_block_reports_its_lowest_node_below_the_shift(tmp_path, capsys,
                                                         monkeypatch):
    # three samples share one Lanczos block and the 2nd and 3rd have
    # spectra below -kappa, with different lambda_min: the block's one rule
    # evaluation raises KappaTooSmallError on its lowest node, the 3rd's, a
    # numerical failure (exit 2) that writes nothing
    measured, failing = [], []
    lanczos = LaxSpectrum.lanczos

    def counting_lanczos(lax, *args):
        measured.append(len(lax.g))
        return lanczos(lax, *args)

    def stepper(problems, coeffs, t_final, dt, n_samples):
        yield 0.0, coeffs
        grid = problems[0].grid
        for j, drop in enumerate((64.0, 96.0), start=1):
            shifted = coeffs.copy()
            shifted[:, 0] -= drop * grid.length
            failing.append(RealField(grid, shifted[0]))
            yield j * dt, shifted

    monkeypatch.setattr(lax_module, "etdrk4_samples", stepper)
    monkeypatch.setattr(LaxSpectrum, "lanczos", counting_lanczos)
    argv = ["gronwall", "--n", "64", "--seeds", "1", "--depth-list", "1",
            "--samples", "5", "--t-final", "0.05", "--dt", "1e-3",
            "--outdir", str(tmp_path / "g")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert measured == [3]
    second, third = (check_kappa(u, -0.25, 32.0) for u in failing)
    assert not second.ok and not third.ok
    assert third.lambda_min < second.lambda_min < -32.0
    named = "lambda_min = %.6g"
    assert named % second.lambda_min != named % third.lambda_min
    assert err.startswith("numerical failure: shift 32 does not clear "
                          + named % third.lambda_min)
    assert not (tmp_path / "g").exists()


def test_one_eigendecomposition_per_state(tmp_path, monkeypatch):
    # certified states take one Lanczos run each and no dense eigh; a forced
    # fallback takes one m x m eigh per state (the stacked k x k Jacobi
    # eighs of the Lanczos path are 3-D and not counted), and its resolvent
    # solves take the dense Cholesky factorization
    dense_calls, cholesky_calls, lanczos_rows = [], [], []
    np_eigh, np_cholesky = np.linalg.eigh, np.linalg.cholesky
    lanczos = lax_module._lanczos

    def counting_eigh(a, *args, **kwargs):
        if np.ndim(a) == 2:
            dense_calls.append(np.shape(a))
        return np_eigh(a, *args, **kwargs)

    def counting_cholesky(a, *args, **kwargs):
        cholesky_calls.append(np.shape(a))
        return np_cholesky(a, *args, **kwargs)

    def counting_lanczos(lax, *args):
        # the rows that took a step: an uncertified row stays in the stack
        # with 0 steps
        alpha, beta, steps = lanczos(lax, *args)
        lanczos_rows.extend(row.tobytes() for row, k
                            in zip(np.atleast_2d(lax.g), steps) if k > 0)
        return alpha, beta, steps

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(lax_module, "_lanczos", counting_lanczos)
    grid = SpectralGrid(TWO_PI, 128)
    u0 = random_field(grid, -0.25, 0.3, 5, decay=0.3)

    def run_both():
        report = gronwall_experiment(u0, make_ilw(1.0, grid), -0.25, 32.0,
                                     t_final=0.05, dt=1e-3, n_samples=5)
        assert len(report.times) == 6
        states = len(lanczos_rows), list(dense_calls)
        run(load_config("beta", overrides={"n": 128},
                        output_dir=str(tmp_path / "beta")))
        return states

    def per_call(fn, *args, **kwargs):
        # the dense eigh calls of one call
        before = len(dense_calls)
        fn(*args, **kwargs)
        return dense_calls[before:]

    def single_calls():
        return [per_call(check_kappa, u0, -0.25, 32.0),
                per_call(form_flow_derivative, u0, 32.0, 1.0, -0.25)]

    (runs, dense_run) = run_both()
    assert runs == len(set(lanczos_rows[:6])) == 6
    assert dense_run == [] and len(lanczos_rows) == 7
    assert dense_calls == [] and cholesky_calls == []
    assert single_calls() == [[]] * 2
    assert dense_calls == [] and cholesky_calls == []

    lanczos_rows.clear()
    monkeypatch.setattr(lax_module, "_symbol_bound",
                        lambda g, length: np.full(np.shape(g)[:-1], -1e6))
    (runs, dense_run) = run_both()
    assert runs == 0 and dense_run == [(32, 32)] * 6
    assert dense_calls == [(32, 32)] * 7 and lanczos_rows == []
    # beta's one resolvent solve
    assert cholesky_calls == [(32, 32)]
    dense_calls.clear()
    assert single_calls() == [[(32, 32)]] * 2
    assert lanczos_rows == []


def test_dense_route_serves_only_uncertified_fields(monkeypatch):
    # a certified field never reads the m x m matrix, factors it or
    # diagonalizes it; an uncertified one still takes the dense route
    calls = []
    np_eigh, np_cholesky = np.linalg.eigh, np.linalg.cholesky
    gather = lax_module.LaxTruncation.matrix.func

    def counting(name, fn):
        def counted(a, *args, **kwargs):
            if np.ndim(a) == 2:
                calls.append(name)
            return fn(a, *args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np_eigh))
    monkeypatch.setattr(np.linalg, "cholesky",
                        counting("cholesky", np_cholesky))
    monkeypatch.setattr(lax_module.LaxTruncation, "matrix", property(
        lambda self: calls.append("matrix") or gather(self)))

    def dense_route(u, kappa):
        routes = []
        for fn, args in ((check_kappa, (u, -0.25, kappa)),
                         (weighted_resolvent_form, (u, kappa, -0.25)),
                         (resolvent_form, (u, kappa)),
                         (form_flow_derivative, (u, kappa, 1.0, -0.25))):
            calls.clear()
            fn(*args)
            routes.append(sorted(set(calls)))
        return routes

    grid = SpectralGrid(TWO_PI, 128)
    u = random_field(grid, -0.25, 0.3, 5, decay=0.3)
    assert dense_route(u, 32.0) == [[]] * 4

    # a + kappa <= 0 < lambda_min + kappa: positive definite, not certified
    grid = SpectralGrid(TWO_PI, 256)
    u = random_field(grid, -0.25, 5.0, 11, decay=0.0)
    bound = float(lax_module._symbol_bound(u.coeffs[:64], grid.length))
    kappa = -0.5 * (bound + LaxSpectrum(build_lax(u), u).lambda_min)
    assert kappa >= 1.0
    assert dense_route(u, kappa) == [
        ["eigh", "matrix"], ["eigh", "matrix"], ["cholesky", "matrix"],
        ["cholesky", "eigh", "matrix"]]


def _scalars(report):
    return report.a_hat, report.norms.tolist()


def test_gronwall_ensemble_matches_members():
    # the first member resolves a shorter step than the others, so the
    # ensemble runs two batches; every report equals the member's own run
    grid = SpectralGrid(TWO_PI, 128)
    initials = [random_field(grid, -0.25, amp, seed, decay=0.25)
                for amp, seed in ((30.0, 1), (0.3, 2), (0.4, 3))]
    problems = {depth: make_ilw(depth, grid) for depth in (0.5, 1.0, 2.0)}
    steps = [default_dt(problems[1.0], u0) for u0 in initials]
    assert steps[0] < steps[1] == steps[2]
    reports = gronwall_ensemble(initials, [problems[1.0]] * 3, -0.25, 1e4,
                                t_final=0.05, n_samples=5)
    assert len(reports) == 3
    for u0, rep in zip(initials, reports):
        alone = gronwall_experiment(u0, problems[1.0], -0.25, 1e4,
                                    t_final=0.05, n_samples=5)
        assert rep.times.tolist() == alone.times.tolist()
        assert rep.form_values.tolist() == alone.form_values.tolist()
        assert _scalars(rep) == _scalars(alone)
    # every initial state at several depths, in one call: each batch mixes
    # depths, and each report still equals the member's own run
    members = [(u0, depth) for depth in (0.5, 1.0, 2.0) for u0 in initials]
    reports = gronwall_ensemble([u0 for u0, _ in members],
                                [problems[depth] for _, depth in members],
                                -0.25, 1e4, t_final=0.05, n_samples=5)
    for (u0, depth), rep in zip(members, reports):
        alone = gronwall_experiment(u0, problems[depth], -0.25, 1e4,
                                    t_final=0.05, n_samples=5)
        assert rep.times.tolist() == alone.times.tolist()
        assert rep.form_values.tolist() == alone.form_values.tolist()
        assert _scalars(rep) == _scalars(alone)
    with pytest.raises(ContractError):
        gronwall_ensemble([], [], -0.25, 32.0)
    with pytest.raises(ContractError, match="problems for"):
        gronwall_ensemble(initials, [problems[1.0]], -0.25, 32.0)
    with pytest.raises(ContractError):
        gronwall_ensemble([initials[0], random_field(SpectralGrid(TWO_PI, 64),
                                                     -0.25, 0.3, 1)],
                          [problems[1.0]] * 2, -0.25, 32.0)
    # a problem on another grid with the same n: the state's shape passes
    # the stepper's check, so only the ensemble's grid check names it
    with pytest.raises(ContractError, match="members live on different grids"):
        gronwall_ensemble(initials[:1], [make_ilw(1.0, SpectralGrid(1.0, 128))],
                          -0.25, 32.0)


def test_gronwall_experiment_validation():
    grid = SpectralGrid(TWO_PI, 128)
    u0 = random_field(grid, -0.25, 0.3, 5, decay=0.3)
    # the flow is the caller's choice; make_problem guards its own inputs
    with pytest.raises(ContractError):
        make_problem("ilw", None, grid)
    with pytest.raises(ContractError):
        make_problem("kdv", 1.0, grid)
    with pytest.raises(ContractError, match="n_samples must be positive"):
        gronwall_experiment(u0, make_ilw(1.0, grid), -0.25, 32.0, n_samples=0)


def test_gronwall_ensemble_rejects_zero_initial_data():
    # a zero field has form(kappa; u0) = 0, so there is no growth to fit;
    # the command line rejects gronwall --amplitude 0 by its declared range
    grid = SpectralGrid(TWO_PI, 64)
    zero = random_field(grid, -0.25, 0.0, 1)
    with pytest.raises(ContractError, match="zero weighted form"):
        gronwall_ensemble([zero], [make_ilw(1.0, grid)], -0.25, 32.0,
                          t_final=0.01, dt=1e-3, n_samples=2)


@pytest.mark.filterwarnings("ignore:advisory CFL")
def test_gronwall_experiment_rejects_inadmissible_shift():
    # kappa = 2 clears lambda_min but not the norm threshold: the run is
    # measured, and the threshold of its initial norm lies above kappa,
    # which the gronwall runner fails
    grid = SpectralGrid(TWO_PI, 128)
    big = random_field(grid, -0.25, 5.0, 3, decay=0.3)
    check = check_kappa(big, -0.25, 2.0)
    assert not check.ok and check.lambda_min + 2.0 > 0.0
    report = gronwall_experiment(big, make_ilw(1.0, grid), -0.25, 2.0,
                                 t_final=0.01, dt=1e-3, n_samples=2)
    assert report.norms[0] == check.norm
    margin = (2.0 - kappa_threshold(report.norms, -0.25, 1.0)).min()
    assert margin <= 2.0 - check.threshold < 0.0


def test_apriori_bound():
    # the bound reads the initial norm, for one norm or elementwise; the
    # norms at t come from runs that the test evolves itself
    grid = SpectralGrid(TWO_PI, 128)
    problem = make_ilw(1.0, grid)
    index = SobolevIndex(-0.25, 1.0)

    def norms(u0):
        u_t = evolve(problem, u0, 0.2, dt=1e-3).final()
        return (float(sobolev_norms(grid, u0.coeffs, index)),
                float(sobolev_norms(grid, u_t.coeffs, index)))

    n0, n_t = norms(random_field(grid, -0.25, 0.3, 5, decay=0.3))
    bound = apriori_bound(n0, -0.25, 0.2, 1.6, 1e-3)
    assert n_t <= bound
    # at s = -1/4 the bracket exponent 2|s|/(1 - 2|s|) is exactly one
    growth = np.exp(1e-3 * 0.2)
    expected = 1.6 ** 1.25 * growth * (1.0 + 2.0 * 1.6 * growth * n0) * n0
    assert bound == pytest.approx(expected, rel=1e-12)
    initial, final = np.array([
        norms(random_field(grid, -0.25, 0.3, seed, decay=0.3))
        for seed in range(20)]).T
    bounds = apriori_bound(initial, -0.25, 0.2, 1.6, 1e-3)
    assert np.all(final <= bounds)
    assert bounds.tolist() == [apriori_bound(n, -0.25, 0.2, 1.6, 1e-3)
                               for n in initial]
    with pytest.raises(ContractError):
        apriori_bound(n0, -0.5, 0.2, 1.6, 1e-3)
    # an overflowed bound reads inf, as an overflowed threshold does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert apriori_bound(n0, -0.25, 0.2, 1e300, 1e-3) == np.inf
