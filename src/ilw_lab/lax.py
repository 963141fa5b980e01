"""Truncated nonnegative-frequency Lax matrix of the deep-water flow and
the resolvent functionals built on it.

For a real field u the operator -i d/dx + P_+(u .) acts on the Hardy space
of nonnegative frequencies.  Its truncation to the frequencies 0 <= xi,
eta below a cut has entries eta*[xi == eta] + u_hat(xi - eta)/L and is
Hermitian.  The quadratic resolvent form

    form(kappa; u) = < P_+ u, (L_u + kappa)^(-1) P_+ u >

is nonnegative for admissible shifts, is conserved by the deep-water flow,
and its s-weighted integral in kappa is equivalent to the squared H^s_kappa
norm.  ``build_lax`` makes the truncation (``LaxTruncation``) of a state,
and a stack of states is one truncation too; it is the one place that
chooses the cut (the field-level entries below take the largest one the
grid resolves) and derives the diagonal, the Toeplitz column, its
circulant symbol and the symbol bound on lambda_min, and every route below
takes the truncation it is given, so one bound per state certifies a shift
for all of them (``LaxTruncation.certifies``, which also rejects a kappa
that is not finite).  Every shift reads the form off one spectral measure
of P_+ u (``LaxSpectrum``).  The experiments take it as the Gauss rule of
a Lanczos run from P_+ u, whose matrix-vector products go through an FFT,
stopped once a Gauss-Radau upper bound certifies it at the smallest shift;
one dense eigendecomposition of the whole matrix stays as its fallback and
oracle.
The run is the plain three-term recurrence, which keeps two basis vectors
and reorthogonalizes nothing: for the Gauss rule of a smooth function such
as 1/(lambda + tau) on a certified shift it is stable in finite precision
whether or not its basis stays orthogonal (Greenbaum 1989; Musco, Musco &
Sidford 2018), and on the fields measured its basis stays orthonormal to
1e-11 or better.  Its FFTs run in place on buffers allocated once per run
(``_apply_lax``).
``LaxSpectrum`` is that measure for one state or for a stack of them,
as ``LaxTruncation`` is the truncation: the experiments call
``LaxSpectrum.lanczos`` on whole stacks of states, and on one state the
same call gives the same row.  A stack keeps one row layout from the
truncation to the spectrum: each state stays at its own index, the run
decides once which rows are certified, and a row that stops or is not
certified stays in place (in the default ``gronwall`` every call's rows
stop within one step of each other).
The resolvent state m = -(L_u + kappa)^(-1) P_+ u has one solve,
``resolvent_state``: Jacobi-preconditioned conjugate gradients on the same
buffered FFT operator of the same truncation whenever its symbol bound
certifies the shift, with a dense Cholesky solve as fallback and oracle, so
the certified path never builds an m x m matrix.  The ``ResolventState``
it returns carries m on the grid and the form's gradient, which the form
and the flow derivative read.
The weighted integral integrates each node of the measure in closed form:
integral_kappa^inf tau^(2s)/(lambda + tau) dtau is a hypergeometric
function of lambda/kappa, which three 32-node Gauss-Jacobi rules
(``KappaRule``) evaluate to rounding at every admissible node.  Those
rules and the Lanczos Gauss rules come from one Golub-Welsch
diagonalization of stacked Jacobi matrices (``_golub_welsch``).  The rule
does not depend on the state, so one rule serves a whole stack of states
and every state of a trajectory.  An adaptive composite Gauss-Kronrod rule
in the substitution tau = kappa*exp(t) (``build_weighted_rule``) gives the
tau profile that ``beta`` reports, its cross-check of the closed form, and
the flow derivative; the ``WeightedFormRule`` keeps the profile it adapted
on and the weighted value, so no tau is evaluated twice.
The admissible-shift test asks kappa to clear a threshold in the H^s_kappa
norm of the state (``kappa_threshold``), which ``check_kappa`` and the
``beta`` and ``gronwall`` runners all compute.  The module measures and its
callers decide: ``apriori_bound`` is the closed-form H^s bound of an
initial norm, for one norm or elementwise, and the caller compares it with
the norms that it holds.
The growth layer tracks the weighted form along runs that it steps itself
(``gronwall_ensemble``), from one initial state and one ``EvolutionProblem``
per member, as ``etdrk4_samples`` takes them; the caller builds the
problems, so the choice of flow is not made here.  Its ``GrowthReport``
holds measurements only: the trace, the H^s_kappa norm of each sample and
the fitted rate.  The ``gronwall`` runner chooses the flows, brings the
constants and applies every check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, KappaTooSmallError, NumericalError
from .evolution import EvolutionProblem, default_step, etdrk4_samples
from .spectral import (
    RealField,
    SobolevIndex,
    SpectralGrid,
    hardy_embed,
    hardy_project,
    sobolev_norms,
    synthesize,
)
from .symbols import apply_smoothing_dx

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]: the left half and
# the centre of each table, mirrored once; the Gauss nodes sit at the odd
# Kronrod positions
_K15_LEFT = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
])
_K15_NODES = np.concatenate((_K15_LEFT, -_K15_LEFT[-2::-1]))
_K15_WEIGHTS, _G7_WEIGHTS = (np.concatenate((w, w[-2::-1])) for w in (
    np.array([0.022935322010529, 0.063092092629979, 0.104790010322250,
              0.140653259715525, 0.169004726639267, 0.190350578064785,
              0.204432940075298, 0.209482141084728]),
    np.array([0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
              0.381830050505119, 0.0, 0.417959183673469])))


def _panel_nodes(a, b):
    """Kronrod nodes on [a, b] with their Kronrod and Gauss weights; (P, 1)
    columns of panel ends give one row of each per panel."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * _K15_NODES, half * _K15_WEIGHTS, half * _G7_WEIGHTS


@dataclass(frozen=True)
class LaxTruncation:
    """Hermitian truncation of the Lax matrix on the Hardy lattice, for one
    state or a stack of them.

    It stores the grid and the Hardy data ``g`` = (u_0, ..., u_{m-1}), of
    shape (m,) for one state or (B, m) for a stack, and derives everything
    else from them once, when first read: the diagonal ``frequencies``, the
    first column u_k/L of the Toeplitz part (``column``), its circulant
    ``symbol``, through which products go, and the symbol ``bound`` on
    lambda_min (``_symbol_bound``), which certifies a shift for every route.
    The dense ``matrix`` of one state is gathered only when read (the dense
    ``LaxSpectrum``, the Cholesky fallback of ``resolvent_state`` and the
    tests).
    """

    grid: SpectralGrid
    g: np.ndarray

    @cached_property
    def frequencies(self) -> np.ndarray:
        return self.grid.fundamental * np.arange(self.g.shape[-1])

    @cached_property
    def column(self) -> np.ndarray:
        return self.g / self.grid.length

    @cached_property
    def symbol(self) -> np.ndarray:
        return _circulant_symbol(self.column)

    @cached_property
    def bound(self) -> np.ndarray:
        return _symbol_bound(self.g, self.grid.length)

    def certifies(self, kappa: float):
        """Whether the symbol bound clears -kappa, one bool per state: the
        one test that certifies a shift, for every route.  A kappa that is
        not finite is a ContractError."""
        if not np.isfinite(kappa):
            raise ContractError("kappa must be finite")
        return self.bound + kappa > 0.0

    @cached_property
    def matrix(self) -> np.ndarray:
        # entry (xi, eta) is u_hat(xi - eta)/L: Hermitian, as u_hat(-k) = conj(u_hat(k))
        m = self.column.shape[0]
        by_lag = np.concatenate((np.conj(self.column[:0:-1]), self.column))
        matrix = by_lag[np.arange(m)[:, None] - np.arange(m) + (m - 1)]
        matrix[np.diag_indices(m)] += self.frequencies
        return matrix


def build_lax(u: RealField, xi_max: Optional[float] = None) -> LaxTruncation:
    """Assemble the truncated matrix for all Hardy frequencies <= xi_max.

    Requires xi_max <= (grid max frequency)/2 so every convolution entry
    u_hat(xi - eta) is carried exactly by a well-resolved grid; embed the
    field on a finer grid first when a deeper truncation is needed.  The
    default is that largest cut.
    """
    return LaxTruncation(u.grid, u.coeffs[:_truncation_size(u.grid, xi_max)])


def _truncation_size(grid: SpectralGrid, xi_max: Optional[float]) -> int:
    """Number of Hardy modes below the cut; see ``build_lax``."""
    if xi_max is None:
        xi_max = 0.5 * grid.max_frequency
    if not np.isfinite(xi_max) or xi_max <= 0:
        raise ContractError("xi_max must be positive")
    if xi_max > 0.5 * grid.max_frequency + 1e-9:
        raise ContractError("xi_max exceeds half the grid bandwidth; "
                            "embed the field on a finer grid first")
    return int(np.floor(xi_max / grid.fundamental + 1e-9)) + 1


def modes_to_xi_max(grid: SpectralGrid, n_modes: int) -> float:
    """Frequency cut carrying exactly ``n_modes`` Hardy modes (0 included).

    ``n_modes`` must be at least 2: one mode would put the cut at 0, and a
    truncation needs a positive cut (see ``build_lax``).
    """
    if n_modes < 2:
        raise ContractError("need at least 2 Hardy modes, got %d" % n_modes)
    return grid.fundamental * (n_modes - 1)


# a Lanczos run stops once its Gauss and Gauss-Radau values of form(kappa)
# agree to this fraction of the Gauss value
_ENCLOSURE_RTOL = 1e-14


def _symbol_bound(g: np.ndarray, length: float) -> np.ndarray:
    """a = -(|u_0| + 2 sum_{0<k<m} |u_k|)/L <= lambda_min, along the last axis
    of the Hardy data g = (u_0, ..., u_{m-1}).

    The truncation is D plus a Hermitian Toeplitz matrix; D >= 0 and the
    Toeplitz part's norm is at most the sup of its symbol
    sum_{|k|<m} u_k e^{ik theta} / L.
    """
    mags = np.abs(g)
    return -(2.0 * mags.sum(axis=-1) - mags[..., 0]) / length


def _circulant_symbol(column: np.ndarray) -> np.ndarray:
    """Symbol of the circulant of size 2m that embeds the Hermitian Toeplitz
    matrix with first column ``column``, row by row along the last axis."""
    m = column.shape[-1]
    full = np.zeros(column.shape[:-1] + (2 * m,), dtype=np.complex128)
    full[..., :m] = column
    full[..., m + 1:] = np.conj(column[..., :0:-1])
    # the embedding's column is Hermitian, so its symbol is real; it is kept
    # complex, so the product with a transform needs no casting
    symbol = np.fft.fft(full)
    symbol.imag = 0.0
    return symbol


def _apply_lax(padded: np.ndarray, spectrum: np.ndarray, symbol: np.ndarray,
               diagonal: np.ndarray) -> np.ndarray:
    """(Toeplitz part + diag(diagonal)) x by FFT, row by row, on buffers the
    caller owns and reuses.

    x is the first m columns of ``padded``, a (..., 2m) array whose last m
    columns stay zero.  The transform goes into ``spectrum``, of the same
    shape, and back in place; the product is returned as the view of its
    first m columns, which the next call overwrites.
    """
    m = padded.shape[-1] // 2
    np.fft.fft(padded, out=spectrum)
    spectrum *= symbol
    np.fft.ifft(spectrum, out=spectrum)
    product = spectrum[..., :m]
    product += diagonal * padded[..., :m]
    return product


def _lanczos(lax: LaxTruncation, kappa: float) -> tuple:
    """Plain three-term Lanczos runs from the Hardy data of each state of
    ``lax``, a one-state truncation taken as a stack of one row.

    The matvec is a circulant embedding of size 2m of the Toeplitz part,
    applied by FFT, plus the diagonal D, so no m x m matrix is built; it
    runs on two (rows, 2m) buffers allocated once per run (``_apply_lax``),
    the current basis vector sitting in the zero-tailed input.  Only q_k and
    q_{k-1} are kept: no basis is stored and none is reorthogonalized.  For
    the Gauss rule of a smooth function such as 1/(lambda + tau) on a
    certified shift the plain recurrence is stable in finite precision,
    whether or not its basis stays orthogonal (Greenbaum, Linear Algebra
    Appl. 113, 1989; Musco, Musco & Sidford, SODA 2018).  Measured, the
    basis stays orthonormal to 6.3e-13 on the ``beta --n 4096`` fields of
    seeds 1-18 and to 6.6e-12 on certified near-critical fields
    (lambda_min/kappa down to -0.54), far below sqrt(eps) = 1.5e-8.

    Step k updates the top-down pivots of T_k + kappa and T_k - a, from
    which the Gauss value e_1^T (T_k + kappa)^{-1} e_1 and its Gauss-Radau
    completion (T_k extended by beta_k and the diagonal entry that makes a
    an eigenvalue) follow in O(1) per step.  A row stops when the two agree
    to ``_ENCLOSURE_RTOL``, when beta_k is at the matvec's rounding level
    (breakdown: the Krylov space is invariant and the rule exact), or at
    k = m.  Every row keeps its index from input to output: a ``running``
    mask starts at the certified rows (``lax.certifies(kappa)``), only a
    running row records its alpha, beta and steps or moves its basis
    vector, and the run ends when no row runs, so a stack with no certified
    row takes no matvec.  A stopped row rides along in the matvecs until
    then; in the default ``gronwall`` every call's rows stop at step 8 or
    9, which costs 1.1 times the row-steps of running each row alone.
    Every operation acts row by row, so the batch never changes a row's
    numbers.  Returns the (rows, m) arrays alpha and beta and the steps k
    of each row: row i holds alpha_1..alpha_k and beta_1..beta_k in its
    first k entries and zeros after them, and an uncertified row has k = 0.
    A row with g = 0 starts from e_1, and its weights come out exactly 0.
    """
    g = np.atleast_2d(lax.g)
    rows, m = g.shape
    freqs, symbol = lax.frequencies, np.atleast_2d(lax.symbol)
    bound = np.atleast_1d(lax.bound)
    running = np.atleast_1d(lax.certifies(kappa))
    padded = np.zeros((rows, 2 * m), dtype=np.complex128)
    spectrum = np.empty_like(padded)
    q = padded[:, :m]
    q[running, 0] = 1.0
    # only a running row's norm is taken: an uncertified one may overflow
    norm, start = np.zeros(rows), g[running]
    norm[running] = np.sqrt(np.vecdot(start, start).real)
    live = norm > 0.0
    q[live] = g[live] / norm[live, None]
    tiny = np.finfo(float).eps * m * (freqs[-1] - bound)

    alpha, beta = np.zeros((rows, m)), np.zeros((rows, m))
    steps = np.zeros(rows, dtype=int)
    q_prev, beta_prev = np.zeros_like(q), np.zeros(rows)
    for k in range(m):
        if not running.any():
            break
        w = _apply_lax(padded, spectrum, symbol, freqs)
        a_k = np.vecdot(q, w).real
        w -= a_k[:, None] * q + beta_prev[:, None] * q_prev
        b_k = np.sqrt(np.vecdot(w, w).real)
        alpha[running, k], beta[running, k] = a_k[running], b_k[running]
        with np.errstate(divide="ignore", invalid="ignore"):
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
            done = running & ((gap <= _ENCLOSURE_RTOL * gauss)
                              | (b_k <= tiny) | (k + 1 == m))
        steps[done] = k + 1
        running &= ~done
        q_prev, beta_prev = q.copy(), b_k
        # a stopped row keeps its vector: its beta may be 0 (breakdown)
        np.divide(w, b_k[:, None], out=q, where=running[:, None])
    return alpha, beta, steps


def _dense_measure(lax: LaxTruncation):
    """Every eigenvalue of a one-state truncation and the weight
    |<w_j, g>|^2 / L of each eigenvector, from one ``np.linalg.eigh`` of the
    dense matrix."""
    with np.errstate(over="ignore"):
        gnorm = float(np.linalg.norm(lax.g))
    if not np.isfinite(gnorm):
        raise NumericalError("||P_+ u|| = %.3g is not finite" % gnorm)
    try:
        values, vectors = np.linalg.eigh(lax.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("dense eigh failed: %s" % exc) from exc
    if not (np.isfinite(values).all() and np.isfinite(vectors).all()):
        raise NumericalError("dense eigendecomposition is not finite")
    # a zero field gives every weight exactly 0
    return values, np.abs(lax.g @ vectors.conj()) ** 2 / lax.grid.length


def _golub_welsch(diagonal: np.ndarray, off: np.ndarray):
    """Eigenvalues of each symmetric tridiagonal matrix of a stack, with
    diagonals ``diagonal`` (B, k) and off-diagonals ``off`` (B, k - 1), and
    the squared first component of each eigenvector, from one stacked
    ``np.linalg.eigh``: the nodes and normalized weights of each Gauss rule
    (Golub & Welsch, Math. Comp. 23, 1969)."""
    k = diagonal.shape[-1]
    jac = np.zeros(diagonal.shape + (k,))
    index = np.arange(k)
    jac[:, index, index] = diagonal
    jac[:, index[1:], index[:-1]] = off
    jac[:, index[:-1], index[1:]] = off
    nodes, vectors = np.linalg.eigh(jac)
    return nodes, vectors[:, 0, :] ** 2


def _form_at(nodes: np.ndarray, weights: np.ndarray,
             taus: np.ndarray) -> np.ndarray:
    """sum_j weights_j / (nodes_j + tau) at each tau; zero padding adds 0."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    return (weights[:, None] / (nodes[:, None] + taus[None, :])).sum(axis=0)


class LaxSpectrum:
    """Spectral measure of P_+ u for one truncation A, reused across
    resolvent shifts: of one state, or of each state of a stacked
    truncation, one per row.

    The form only needs nodes lambda_j and the weights of g = P_+ u on
    them, which the Jacobi matrix of a tridiagonalization started at g
    carries (Golub & Welsch, Math. Comp. 23, 1969).  Two constructors build
    it:

    - ``LaxSpectrum.lanczos(lax, kappa)`` runs the Lanczos recurrence from
      the Hardy data of each state of ``lax`` and keeps the Gauss rule of
      its k x k Jacobi matrix: the Ritz values and ||g||^2 S[0, j]^2 / L.
      Each row stops on its own once the Gauss rule (a lower bound on
      form(kappa)) and the Gauss-Radau rule with its extra node at the
      symbol bound ``lambda_bound`` <= lambda_min (an upper bound) agree to
      1e-14 relative, at breakdown, or at k = m (Golub & Meurant, Matrices,
      Moments and Quadrature, 2010, ch. 6-7).  A row whose bound does not
      clear -kappa is not certified and takes the dense measure.
    - ``LaxSpectrum(lax, u)`` diagonalizes the whole m x m matrix of the
      one-state truncation ``lax`` of ``u`` with one ``np.linalg.eigh``,
      A = W diag(lambda) W^H, and weighs each eigenvector by
      |<w_j, g>|^2 / L.  It gives every eigenvalue of A and is the oracle
      for the Lanczos rule.

    It holds ``nodes`` (ascending) and ``weights``, of shape (k,) for one
    state or (B, width) for a stack, whose row i keeps its measure in its
    first entries and zeros after them, so a padded weight is exactly 0 and
    a padded node is 0; a row's numbers do not depend on the rest of the
    stack.  ``steps`` is the Lanczos steps k of each state, 0 for a dense
    one, ``lambda_bound`` the symbol bound of its truncation
    (``LaxTruncation.bound``) and ``lambda_min`` its smallest node.  A
    spectrum holds no m x m array; the resolvent state m(tau) itself comes
    from ``resolvent_state`` on the same truncation.
    """

    def __init__(self, lax: LaxTruncation, u: RealField):
        if u.grid != lax.grid or lax.g.ndim != 1:
            raise ContractError("a dense spectrum takes the one-state "
                                "truncation of its field")
        self.nodes, self.weights = _dense_measure(lax)
        self.steps, self.lambda_bound = 0, lax.bound

    @classmethod
    def lanczos(cls, lax: LaxTruncation, kappa: float) -> "LaxSpectrum":
        """The Gauss rule of a Lanczos run from P_+ u for each state of
        ``lax``, certified at kappa.

        One batched recurrence (``_lanczos``) serves every row of ``lax``
        as given, each at its own index, and decides which rows are
        certified (``lax.certifies(kappa)``, which rejects a kappa that is
        not finite), read back here as a positive step count.  The k x k
        Jacobi matrices are diagonalized in one stacked ``np.linalg.eigh``
        per distinct k, which keeps each row's numbers free of the batch;
        row i keeps the Ritz values and ||g||^2 S[0, j]^2 / L, ||g||^2
        taken per group, so an uncertified row's norm is never formed
        here.  A row with 0 steps is not
        certified and takes the dense measure of its truncation
        (``_dense_measure``).  A one-state truncation gives a one-state
        spectrum, which fills its whole width.
        """
        g = np.atleast_2d(lax.g)
        alpha, beta, steps = _lanczos(lax, kappa)
        certified = steps > 0
        width = max(steps.max(initial=0), 0 if certified.all() else g.shape[1])
        nodes = np.zeros((g.shape[0], width))
        weights = np.zeros((g.shape[0], width))
        # not np.unique, which imports numpy.ma: +1.7 MB of peak RSS in
        # the default gronwall
        for k in sorted(set(steps[certified].tolist())):
            group = steps == k
            theta, first = _golub_welsch(alpha[group, :k], beta[group, :k - 1])
            gnorm_sq = (g[group].real ** 2 + g[group].imag ** 2).sum(axis=1)
            nodes[group, :k] = theta
            weights[group, :k] = gnorm_sq[:, None] * first / lax.grid.length
        for i in np.flatnonzero(~certified):
            row = lax if lax.g.ndim == 1 else LaxTruncation(lax.grid, g[i])
            nodes[i], weights[i] = _dense_measure(row)
        spectrum = cls.__new__(cls)
        state = slice(None) if lax.g.ndim > 1 else 0
        vars(spectrum).update(nodes=nodes[state], weights=weights[state],
                              steps=steps[state], lambda_bound=lax.bound)
        return spectrum

    @property
    def lambda_min(self):
        """The smallest node: a number for one state, a (B,) array for a
        stack."""
        return np.take(self.nodes, 0, axis=-1)

    def form_at(self, taus: np.ndarray) -> np.ndarray:
        """form(tau) = (1/L) sum |<w_j, g>|^2 / (lambda_j + tau) of one
        state, vectorized; a stack, or a tau that is not finite, is a
        ContractError."""
        if self.nodes.ndim != 1:
            raise ContractError("form_at takes the spectrum of one state")
        if not np.isfinite(taus).all():
            raise ContractError("kappa must be finite")
        _require_shift(self.lambda_min, float(np.min(taus)))
        return _form_at(self.nodes, self.weights, taus)


def _require_shift(lambda_min: float, tau: float):
    """KappaTooSmallError unless the shift tau clears -lambda_min."""
    if lambda_min + tau <= 0.0:
        raise KappaTooSmallError(
            "shift %.6g does not clear lambda_min = %.6g" % (tau, lambda_min))


def _shift_index(s: float, kappa: float, c_s: float = 1.0) -> SobolevIndex:
    """The H^s_kappa index of the admissible-shift test, once s, kappa and
    c_s meet its contract; a kappa whose square overflows fails here."""
    _require_weight_exponent(s, kappa)
    if not c_s > 0:
        raise ContractError("c_s must be positive")
    return SobolevIndex(s, kappa)


def kappa_threshold(norms, s: float, c_s: float):
    """c_s*(1 + norm)^(1/(2*sigma)), sigma = (1/2 + s)/2: the shift that
    kappa must clear at a state of H^s_kappa norm ``norms``, for one norm
    or elementwise for an array of them.  An overflowed threshold is inf,
    which no finite kappa clears.  ``np.power`` takes one norm through the
    same ufunc loop as an array's, so each element's threshold equals its
    one-norm call bit for bit (a float64 scalar's ``**`` would call libm's
    pow, which differs from the vectorized loop in the last bit)."""
    sigma = 0.5 * (0.5 + s)
    with np.errstate(over="ignore"):
        return c_s * np.power(1.0 + norms, 1.0 / (2.0 * sigma))


@dataclass(frozen=True)
class KappaCheck:
    """Outcome of the admissible-shift test at one state; ``ok`` also reads
    (B,) arrays of ``threshold`` and ``lambda_min`` elementwise.  A
    threshold that overflowed is inf, so its check fails."""

    kappa: float
    threshold: float
    lambda_min: float
    norm: float

    @property
    def ok(self):
        """kappa clears the threshold and -lambda_min, elementwise; a NaN
        threshold fails."""
        return (self.kappa >= self.threshold) & (self.lambda_min + self.kappa > 0.0)


def check_kappa(u: RealField, s: float, kappa: float) -> KappaCheck:
    """Admissible-shift test of ``u`` on the Lanczos spectrum of its
    ``build_lax`` truncation at kappa: the H^s_kappa ``norm`` of u, its
    ``kappa_threshold`` at c_s = 1 (a caller with another c_s applies
    ``kappa_threshold`` to ``norm``) and ``lambda_min``, the smallest Ritz value of a
    certified state, which clears -kappa as the eigenvalues do.  s and
    kappa are checked before anything is measured."""
    index = _shift_index(s, kappa)
    spectrum = LaxSpectrum.lanczos(build_lax(u), kappa)
    norm = sobolev_norms(u.grid, u.coeffs, index)
    return KappaCheck(kappa=kappa, threshold=kappa_threshold(norm, s, 1.0),
                      lambda_min=spectrum.lambda_min, norm=norm)


# conjugate gradients stop once the residual is below this fraction of ||g||
_PCG_RTOL = 1e-14


def _preconditioned_cg(lax: LaxTruncation, kappa: float, g: np.ndarray,
                       gnorm: float):
    """Conjugate gradients on (L_u + kappa) x = g preconditioned by the
    diagonal D of the shifted matrix, from x = D^(-1) g.

    The Toeplitz part's norm is at most |a| < kappa + xi, so D^(-1) times the
    shifted matrix is close to the identity and a few iterations suffice
    (Saad, Iterative Methods for Sparse Linear Systems, 2003, sec. 9.2).
    The residual is recomputed as g - (L_u + kappa) x at every iteration,
    and the run stops once it is below ``_PCG_RTOL * ||g||``.  Returns
    (x, ||residual||, iterations), or None after m iterations without
    convergence or on a direction of nonpositive curvature.
    """
    m = g.shape[0]
    freqs = lax.frequencies + kappa
    diagonal = freqs + lax.column[0].real
    # x and p live in the zero-tailed inputs of the matvec
    x_padded, p_padded = np.zeros((2, 2 * m), dtype=np.complex128)
    spectrum = np.empty(2 * m, dtype=np.complex128)
    x, p = x_padded[:m], p_padded[:m]
    np.divide(g, diagonal, out=x)
    r = g - _apply_lax(x_padded, spectrum, lax.symbol, freqs)
    z = r / diagonal
    p[:] = z
    rz = np.vdot(r, z).real
    for iterations in range(m + 1):
        residual = float(np.linalg.norm(r))
        if residual <= _PCG_RTOL * gnorm:
            return x, residual, iterations
        if iterations == m:
            break
        curvature = np.vdot(
            p, _apply_lax(p_padded, spectrum, lax.symbol, freqs)).real
        if not curvature > 0.0:
            break
        x += (rz / curvature) * p
        r = g - _apply_lax(x_padded, spectrum, lax.symbol, freqs)
        z = r / diagonal
        rz, rz_prev = np.vdot(r, z).real, rz
        p *= rz / rz_prev
        p += z
    return None


@dataclass(frozen=True)
class ResolventState:
    """The auxiliary state m = -(L_u + kappa)^(-1) P_+ u of one truncation,
    with the grid it was solved on; ``iterations`` counts the
    conjugate-gradient steps, 0 on the dense path.  Its ``samples`` (m on
    the grid) and the form's ``gradient`` -(m + conj(m) + |m|^2) on the
    grid are derived once, when first read."""

    grid: SpectralGrid
    coeffs: np.ndarray
    iterations: int

    @cached_property
    def samples(self) -> np.ndarray:
        return synthesize(self.grid, hardy_embed(self.grid, self.coeffs))

    @cached_property
    def gradient(self) -> np.ndarray:
        return -(2.0 * self.samples.real + np.abs(self.samples) ** 2)

    def form(self, u: RealField) -> float:
        """form(kappa; u) through two routes, cross-checked.

        Route one pairs the Hardy data with m in coefficient space; route
        two integrates -u*m over the period on the grid.  They agree to
        rounding because m has no negative frequencies.
        """
        g = hardy_project(u)[: self.coeffs.shape[0]]
        route_coeff = -np.vdot(g, self.coeffs) / self.grid.length
        route_phys = -np.sum(u.samples() * self.samples) * self.grid.spacing
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


def resolvent_state(lax: LaxTruncation, kappa: float) -> ResolventState:
    """m = -(L_u + kappa)^(-1) P_+ u on the one-state truncation ``lax``,
    solved from its Hardy data ``lax.g`` with a residual check.

    A shift certified by the symbol bound (``lax.certifies(kappa)``, the
    test that ``LaxSpectrum.lanczos`` makes) runs Jacobi-preconditioned
    conjugate gradients on the FFT operator; otherwise, or if they have not
    converged after m iterations, a Cholesky factorization of the dense
    matrix solves it and raises KappaTooSmallError when the shifted matrix
    is not positive definite.  Either way a relative residual above 1e-12
    is a NumericalError.  A stacked truncation and a kappa that is not
    finite are ContractErrors, raised before any solve.
    """
    if lax.g.ndim != 1:
        raise ContractError("a resolvent state takes a one-state truncation")
    certified = lax.certifies(kappa)
    g = lax.g
    gnorm = float(np.linalg.norm(g))
    if not np.isfinite(gnorm):
        raise NumericalError("right-hand side norm %.3g is not finite" % gnorm)
    solved = _preconditioned_cg(lax, kappa, g, gnorm) if certified else None
    if solved is None:
        shifted = lax.matrix + kappa * np.eye(lax.frequencies.shape[0])
        try:
            factor = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError as exc:
            raise KappaTooSmallError(
                "shifted Lax matrix is not positive definite at kappa=%.6g"
                % kappa) from exc
        x = np.linalg.solve(factor.conj().T, np.linalg.solve(factor, g))
        residual = float(np.linalg.norm(shifted @ x - g))
        solved = x, residual, 0
    x, residual, iterations = solved
    if gnorm > 0.0 and residual / gnorm > 1e-12:
        raise NumericalError("resolvent solve residual %.3e"
                             % (residual / gnorm))
    return ResolventState(grid=lax.grid, coeffs=-x, iterations=iterations)


def resolvent_form(u: RealField, kappa: float) -> float:
    """form(kappa; u) on the ``build_lax`` truncation of u, through two
    routes, cross-checked; see ``ResolventState.form``."""
    return resolvent_state(build_lax(u), kappa).form(u)


# -- weighted integral -----------------------------------------------------------

def _require_weight_exponent(s: float, kappa: float):
    if not -0.5 < s < 0.0:
        raise ContractError("the weighted form needs s in (-1/2, 0)")
    if not np.isfinite(kappa):
        raise ContractError("kappa must be finite")
    if not kappa >= 1.0:
        raise ContractError("kappa must be >= 1")


# nodes of each Gauss-Jacobi rule of ``KappaRule``, and the z = lambda/kappa
# above which it inverts the integral: checked against mpmath's 2F1, the
# x^(b-1) rule holds to rounding up to z = 8 (a switch at 30 loses two
# digits), and the nodes of the default gronwall all lie below it
_KAPPA_RULE_NODES = 32
_KAPPA_RULE_SWITCH = 8.0

# rows per LaxSpectrum.lanczos call of gronwall_ensemble, in whole samples and
# at least one sample: the default 30 members take two samples per call.
# The 3,030 sampled rows of the default gronwall took 0.21 s in calls of
# 60 rows, 0.18 s in calls of 120 or 240 and 0.23 s in one call (medians of
# 15 alternated rounds in one process, one core of a 2-vCPU Xeon VM, one
# BLAS thread).  Whole default gronwall passes did not resolve the gap:
# 128 rows won 9 and 256 rows 8 of 12 alternated pairs against 64
_LANCZOS_BLOCK_ROWS = 64


def _gauss_jacobi(exponents, n: int):
    """n-node Gauss rules on [0, 1] for the weights x^c, one row per
    exponent c > -1, by ``_golub_welsch``: the Jacobi recurrence of
    (1 - y)^0 (1 + y)^c on [-1, 1], mapped by x = (1 + y)/2.  The weight
    x^c has mass 1/(c + 1)."""
    c = np.asarray(exponents, dtype=float)[:, None]
    k = np.arange(1, n)
    two_k = 2.0 * k + c
    diag = np.concatenate((c / (c + 2.0), c * c / (two_k * (two_k + 2.0))),
                          axis=1)
    off = np.sqrt(4.0 * k * k * (k + c) ** 2
                  / (two_k ** 2 * (two_k + 1.0) * (two_k - 1.0)))
    nodes, first = _golub_welsch(0.5 * (1.0 + diag), 0.5 * off)
    return nodes, first / (c + 1.0)


@dataclass(frozen=True)
class KappaRule:
    """The s-weighted integral of the form, node by node in closed form.

    For a spectral measure with nodes lambda_j and weights w_j,
    beta_s = integral_kappa^inf tau^(2s) form(tau) dtau = sum_j w_j
    W(lambda_j) with W(lambda) = integral_kappa^inf tau^(2s)/(lambda + tau)
    dtau.  With b = -2s, z = lambda/kappa and tau = kappa/x,

        W = kappa^(2s) integral_0^1 x^(b-1)/(1 + z x) dx
          = kappa^(2s) 2F1(1, b; b + 1; -z)/b               (DLMF 15.6.1).

    Three 32-node Gauss-Jacobi rules on [0, 1], of weights x^(b-1),
    x^(1-b) and 1, evaluate it for every admissible z > -1:

    - -1/2 < z <= 8: the x^(b-1) rule applied to 1/(1 + z x);
    - z > 8: with t = z x, split integral_0^z t^(b-1)/(1 + t) dt at 1 and
      write 1/(1 + t) = 1/t - 1/(t (1 + t)) above it, so that
      W = z^(-b) [C - D - expm1((b-1) log z)/(1-b)
      + z^(b-2) integral_0^1 x^(1-b)/(1 + x/z) dx], where C and D are
      the x^(b-1) and x^(1-b) rules applied to 1/(1 + x): every term is
      positive, so nothing cancels as s -> -1/2;
    - -1 < z <= -1/2: [0, 1/2] takes the x^(b-1) rule at z/2, scaled by
      2^(-b); on [1/2, 1] the pole x_p = -1/z is subtracted, which leaves
      x_p^(b-1) (log1p(z) - log1p(z/2))/z plus the Gauss-Legendre rule of
      the smooth -x_p^(b-1) expm1((b-1) log1p(d))/d, d = (x - x_p)/x_p.

    Against mpmath's 2F1 the kernel holds to about 1e-15 relative for z in
    [-1 + 1e-3, 1e8] and s in [-0.49999, -0.01].  The rule does not depend
    on the state, so one serves every state.
    """

    kappa: float
    s: float
    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def build(cls, kappa: float, s: float) -> "KappaRule":
        _require_weight_exponent(s, kappa)
        b = -2.0 * s
        nodes, weights = _gauss_jacobi([b - 1.0, 1.0 - b, 0.0],
                                       _KAPPA_RULE_NODES)
        return cls(kappa=kappa, s=s, nodes=nodes, weights=weights)

    def kernel(self, lam: np.ndarray) -> np.ndarray:
        """W(lambda) for lambda > -kappa, elementwise."""
        b = -2.0 * self.s
        (x, x_far, x_mid), (w, w_far, w_mid) = self.nodes, self.weights
        z = np.asarray(lam, dtype=float) / self.kappa
        out = np.empty(z.shape)
        low, high = z <= -0.5, z > _KAPPA_RULE_SWITCH
        near = ~(low | high)
        out[near] = (w / (1.0 + z[near, None] * x)).sum(axis=-1)
        far = z[high]
        inner = (w / (1.0 + x)).sum() - (w_far / (1.0 + x_far)).sum()
        out[high] = far ** -b * (
            inner - np.expm1((b - 1.0) * np.log(far)) / (1.0 - b)
            + far ** (b - 2.0)
            * (w_far / (1.0 + x_far / far[:, None])).sum(axis=-1))
        mid = z[low]
        pole = -1.0 / mid
        d = (0.5 + 0.5 * x_mid - pole[:, None]) / pole[:, None]
        lower = (w / (1.0 + 0.5 * mid[:, None] * x)).sum(axis=-1)
        upper = ((np.log1p(mid) - np.log1p(0.5 * mid)) / mid
                 - 0.5 * (w_mid * np.expm1((b - 1.0) * np.log1p(d))
                          / d).sum(axis=-1))
        out[low] = 2.0 ** -b * lower + pole ** (b - 1.0) * upper
        return self.kappa ** (2.0 * self.s) * out

    def values(self, spectrum: LaxSpectrum):
        """beta_s of one state's measure, or of each row of a zero-padded
        stack of them (``LaxSpectrum``).  Raises KappaTooSmallError when a
        node does not clear -kappa, and NumericalError on a negative
        value."""
        nodes = spectrum.nodes
        _require_shift(float(nodes.min()), self.kappa)
        # running sums: a row's zero padding then adds exact zeros, so its
        # value does not depend on the width of the stack
        values = np.take((spectrum.weights * self.kernel(nodes))
                         .cumsum(axis=-1), -1, axis=-1)
        if np.any(values < 0.0):
            raise NumericalError("weighted form came out negative")
        return values


@dataclass(frozen=True)
class WeightedFormRule:
    """Frozen quadrature for integral_kappa^inf tau^(2s) form(tau) dtau,
    with the profile it was adapted on.

    Substituting tau = kappa*exp(t) turns the weight into
    kappa^(2s+1)*exp((2s+1)t) against a geometrically decaying integrand.
    ``taus`` holds the panel nodes ``tau_nodes`` followed by the horizon
    ``tau_star``.  ``combine`` takes an integrand's values at ``taus``:
    ``weights`` give the finite part from the node values, and the tail
    beyond tau_star adds tail_coeff times the last value under the 1/tau
    decay model.  ``form_values`` is the profile form(tau) at ``tau_nodes``
    and ``value`` the weighted form, the rule combined over that profile.
    """

    kappa: float
    s: float
    tau_nodes: np.ndarray
    weights: np.ndarray
    tau_star: float
    tail_coeff: float
    build_error: float
    form_values: np.ndarray
    value: float

    @property
    def taus(self) -> np.ndarray:
        return np.append(self.tau_nodes, self.tau_star)

    @property
    def sigma(self) -> float:
        return 0.5 * (0.5 + self.s)

    def combine(self, values: np.ndarray) -> complex:
        return (self.weights * values[:-1]).sum() + self.tail_coeff * values[-1]


# the adaptive weighted-form rule bisects its panels until their summed
# Gauss/Kronrod gap is below this fraction of the integral
_RULE_RTOL = 1e-8


def build_weighted_rule(form_at: Callable, kappa: float,
                        s: float) -> WeightedFormRule:
    """Adapt panels on the reference profile, then freeze them.

    The horizon grows until the modeled tail drops below 1e-9 of the total;
    panels then bisect (worst first) until the Gauss/Kronrod gap is below
    ``_RULE_RTOL`` of the integral.  The rule keeps the profile it
    evaluated on its final panels and at its horizon, so no tau of the
    rule is passed to ``form_at`` twice.  Raises NumericalError with the
    panel map if the refinement stalls, and when the weighted form comes
    out negative.
    """
    _require_weight_exponent(s, kappa)
    power = 2.0 * s + 1.0
    scale = kappa ** power

    def panel(a: float, b: float):
        """Kronrod value, Gauss/Kronrod gap and profile of one panel."""
        nodes, wk, wg = _panel_nodes(a, b)
        form = form_at(kappa * np.exp(nodes))
        vals = scale * np.exp(power * nodes) * form
        kronrod = float(np.sum(wk * vals))
        return kronrod, abs(kronrod - float(np.sum(wg * vals))), form

    # the shift check at kappa itself: the first Kronrod node lies above it
    form_at(np.array([kappa]))

    # grow the horizon a panel at a time; those panels seed the refinement
    t_star, rough, results = 0.0, 0.0, {}
    while True:
        edges = (t_star, t_star + 2.0)
        results[edges] = panel(*edges)
        rough += results[edges][0]
        t_star = edges[1]
        tau_star = kappa * np.exp(t_star)
        form_star = form_at(np.array([tau_star]))[0]
        tail = float(form_star * tau_star ** power / (2.0 * abs(s)))
        if tail <= 1e-9 * (abs(rough) + tail):
            break
        # the horizon stops at 400, and before the next panel's taus
        # would overflow (form_at takes no tau that is not finite)
        if t_star >= min(400.0, np.log(np.finfo(float).max / kappa) - 2.0):
            raise NumericalError("weighted-form horizon runaway")

    for _ in range(400):
        total = sum(r[0] for r in results.values())
        err = sum(r[1] for r in results.values())
        if err <= _RULE_RTOL * abs(total):
            break
        worst = max(results, key=lambda p: results[p][1])
        a, b = worst
        mid = 0.5 * (a + b)
        del results[worst]
        results[(a, mid)] = panel(a, mid)
        results[(mid, b)] = panel(mid, b)
    else:
        dump = sorted(results)
        raise NumericalError("weighted-form quadrature stalled; panels: %s"
                             % dump)

    edges = sorted(results)
    panels = np.array(edges)
    t_nodes, t_weights, _ = (x.ravel() for x in
                             _panel_nodes(panels[:, :1], panels[:, 1:]))
    weights = t_weights * scale * np.exp(power * t_nodes)
    tail_coeff = tau_star ** power / (2.0 * abs(s))
    form_values = np.concatenate([results[e][2] for e in edges])
    value = float((weights * form_values).sum() + tail_coeff * form_star)
    if value < 0.0:
        raise NumericalError("weighted form came out negative")
    # a zero state gives total = err = 0, and any rule integrates it exactly
    return WeightedFormRule(kappa=kappa, s=s,
                            tau_nodes=kappa * np.exp(t_nodes),
                            weights=weights, tau_star=tau_star,
                            tail_coeff=tail_coeff,
                            build_error=float(err / abs(total)) if total else 0.0,
                            form_values=form_values, value=value)


def weighted_resolvent_form(u: RealField, kappa: float,
                            s: float) -> WeightedFormRule:
    """integral_kappa^inf tau^(2s) form(tau; u) dtau on the adaptive rule of
    the Lanczos spectrum of its ``build_lax`` truncation
    (``build_weighted_rule``), which carries the value and the tau profile.
    Values to be differenced along a trajectory come from
    ``KappaRule.values``, whose rule does not depend on the state."""
    return build_weighted_rule(
        LaxSpectrum.lanczos(build_lax(u), kappa).form_at, kappa, s)


def form_flow_derivative(u: RealField, kappa: float, depth: float,
                         s: float) -> float:
    """Evaluate d/dt of the weighted form via the commutator identity.

    Under the deep-water part of the flow the form is exactly conserved, so
    the derivative reduces to the pairing of the form's gradient with the
    smoothing-derivative term:

        d/dt = -integral tau^(2s) integral (m + conj(m) + |m|^2)
               (smoothing d/dx u) dx dtau.

    The outer integral takes the adaptive weighted-form rule of the spectrum
    of the state's ``build_lax`` truncation (``build_weighted_rule``); at
    each rule node the gradient is ``resolvent_state(lax, tau).gradient``,
    with its residual check.
    """
    _require_weight_exponent(s, kappa)
    lax = build_lax(u)
    # its first form_at checks the shift
    rule = build_weighted_rule(LaxSpectrum.lanczos(lax, kappa).form_at,
                               kappa, s)
    q = apply_smoothing_dx(u, depth).samples()
    pairings = [(resolvent_state(lax, tau).gradient @ q) * u.grid.spacing
                for tau in rule.taus]
    return float(rule.combine(np.array(pairings)))


# -- growth experiments -----------------------------------------------------------

@dataclass(frozen=True)
class GrowthReport:
    """Weighted-form trace along one run: the sample ``times``, the form at
    each (``form_values``), the H^s_kappa norm of each sampled state
    (``norms``) and the fitted growth rate ``a_hat``.  It holds
    measurements only: no constant of the theory and no check verdict."""

    times: np.ndarray
    form_values: np.ndarray
    norms: np.ndarray
    a_hat: float


def gronwall_experiment(u0: RealField, problem: EvolutionProblem, s: float,
                        kappa: float, t_final: float = 1.0,
                        dt: Optional[float] = None,
                        n_samples: int = 100) -> GrowthReport:
    """Track the weighted form along the run of ``problem`` from ``u0`` and
    fit its exponential rate.

    The fitted rate is the worst absolute log-slope between consecutive
    samples, i.e. the empirical Lipschitz rate of log form(t); the drift can
    have either sign, and the unsigned rate is what scales with the
    depth-correction strength.  The report also carries the H^s_kappa norm
    of each sampled state, from which the caller reads the admissible-shift
    thresholds (``kappa_threshold``) at its own c_s and decides what fails.
    The form at each sample is the ``KappaRule.values`` of the sampled
    state's Lanczos spectrum.
    Under the deep-water flow (``make_bo``) the form is conserved and a_hat
    collapses to integrator noise.  This is the one-member case of
    ``gronwall_ensemble``.
    """
    return gronwall_ensemble([u0], [problem], s, kappa, t_final=t_final,
                             dt=dt, n_samples=n_samples)[0]


def gronwall_ensemble(initials: list, problems: list, s: float,
                      kappa: float, t_final: float = 1.0,
                      dt: Optional[float] = None, n_samples: int = 100) -> list:
    """``gronwall_experiment`` for each initial state under its own problem.

    ``problems`` holds one ``EvolutionProblem`` per member, as
    ``etdrk4_samples`` takes them, and every state and every problem lives
    on one grid.  The caller chooses the flows: members that share one
    problem object share its phi-tables.  Members that resolve the same step
    are advanced together as one batch by ``etdrk4_samples``, whatever their
    problems: the default step depends only on the grid and the state, so
    one initial state under several flows lands in one batch.  Each batch
    is sampled as ``etdrk4_samples`` samples ``n_samples``, which also
    rejects a nonpositive count before any step.  The samples
    are measured in blocks of consecutive ones, so no trajectory is stored:
    one ``LaxSpectrum.lanczos`` call takes the stacks of as many samples as
    fit in ``_LANCZOS_BLOCK_ROWS`` rows, and at least one, in time order and
    then member order.  A row's measure does not depend on the rest of the
    call, so it equals the one its sample gets alone.  Each block then takes
    one pass over all its rows: the zero-form check (first block), one
    H^s_kappa norm reduction (``sobolev_norms``, so each row's norm is its
    own) and one evaluation of the ``KappaRule`` built once per call; no
    field or spectrum is built per row.  A row whose spectrum does not clear
    -kappa has no form, and the rule raises KappaTooSmallError; a stepper
    error propagates as raised.  Reports come back in the order of
    ``initials``, each equal to the member's own ``gronwall_experiment``.
    """
    # a bad s or kappa fails here, before any step is taken
    index = _shift_index(s, kappa)
    if not initials:
        raise ContractError("empty ensemble: no initial states")
    if len(problems) != len(initials):
        raise ContractError("%d problems for %d initial states"
                            % (len(problems), len(initials)))
    grid = initials[0].grid
    if any(m.grid != grid for m in (*initials, *problems)):
        raise ContractError("ensemble members live on different grids")
    n_modes = _truncation_size(grid, None)

    batches = {}
    for i, (u0, problem) in enumerate(zip(initials, problems)):
        step = dt if dt is not None else default_step(problem, u0, t_final)
        batches.setdefault(step, []).append(i)
    rule = KappaRule.build(kappa, s)
    reports = [None] * len(initials)
    for step, members in batches.items():
        times, values, norms = [], [], []
        stack = np.stack([initials[i].coeffs for i in members])
        samples = etdrk4_samples([problems[i] for i in members], stack,
                                 t_final, step, n_samples)
        per_call = max(1, _LANCZOS_BLOCK_ROWS // len(members))
        while block := list(islice(samples, per_call)):
            # rows in time order, then member order
            coeffs = np.concatenate([c for _, c in block])
            spectra = LaxSpectrum.lanczos(
                LaxTruncation(grid, coeffs[:, :n_modes]), kappa)
            if not times and not spectra.weights[:len(members)].any(axis=1).all():
                # all weights vanish exactly when form(kappa; u0) = 0
                raise ContractError("initial data has zero weighted form; "
                                    "no growth rate can be fitted")
            by_sample = (len(block), len(members))
            norms.append(sobolev_norms(grid, coeffs, index).reshape(by_sample))
            times += [t for t, _ in block]
            values.append(rule.values(spectra).reshape(by_sample))
        times, values = np.asarray(times), np.concatenate(values)
        norms = np.concatenate(norms)
        # the worst absolute log-slope of each member
        slopes = np.diff(np.log(values), axis=0) / np.diff(times)[:, None]
        a_hat = np.max(np.abs(slopes), axis=0)
        for j, i in enumerate(members):
            reports[i] = GrowthReport(
                times=times, form_values=values[:, j], norms=norms[:, j],
                a_hat=float(a_hat[j]))
    return reports


def apriori_bound(norm0, s: float, t: float, c_s: float, a_rate: float):
    """The closed-form H^s bound at time t on a state evolved from one of
    H^s norm ``norm0``,

        c_s^(|s|+1) * exp(a*t) * (1 + 2*c_s*exp(a*t)*norm0)^(2|s|/(1-2|s|))
            * norm0,

    for one norm or elementwise for an array of them, as ``kappa_threshold``
    is; the caller compares it with the norms that it holds.  An overflowed
    bound is inf, through ``np.power`` (a float's ``**`` would raise).  s and
    c_s meet the contract of the admissible-shift test (``_shift_index``)."""
    _shift_index(s, 1.0, c_s)
    power = 2.0 * abs(s) / (1.0 - 2.0 * abs(s))
    with np.errstate(over="ignore"):
        growth = np.exp(a_rate * t)
        return (np.power(c_s, abs(s) + 1.0) * growth
                * np.power(1.0 + 2.0 * c_s * growth * norm0, power) * norm0)
