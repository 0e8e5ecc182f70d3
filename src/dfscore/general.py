"""Score and observed-information estimation for generic models.

Everything here operates on a plain log-likelihood evaluator.  The route is:
draw parameters from the perturbation prior, weight them by likelihood
(self-normalized importance sampling), and rescale the resulting posterior
mean and covariance into derivative estimates.  Central finite differences
are the baseline alternative, and a trapezoidal-quadrature version of the
posterior moments serves as an exact low-dimensional oracle.

``score_from_moments`` and ``observed_info_from_moments`` are the only
rescalers: importance sampling, quadrature and the extended filter (through
``FixedLagAccumulator.moments``) all hand them a ``PosteriorMoments``, whose
``horizon`` says how many perturbed parameters the moments sum over.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .perturbation import PerturbationKernel
from .results import InfoEstimate, ScoreEstimate

__all__ = [
    "GeneralModel",
    "PosteriorMoments",
    "DegeneratePosteriorError",
    "OracleAccuracyWarning",
    "posterior_moments_is",
    "posterior_moments_quadrature",
    "score_from_moments",
    "observed_info_from_moments",
    "FDConfig",
    "fd_score",
    "fd_info",
]


class DegeneratePosteriorError(RuntimeError):
    """Raised when every sampled parameter has zero likelihood.

    Signals a mis-scaled shrinkage factor rather than a recoverable state."""


class OracleAccuracyWarning(UserWarning):
    """Raised when the quadrature oracle's finest grid has not converged.

    ``posterior_moments_quadrature`` still returns that grid's moments, but
    their error may far exceed the ladder's tolerance: the posterior is too
    narrow for the grid, which spans a fixed number of prior SDs."""


@dataclass(frozen=True)
class GeneralModel:
    """A model reduced to its log-likelihood surface.

    ``log_likelihood`` maps an ``(n, dim)`` batch of parameter vectors to an
    ``(n,)`` array of log-likelihood values.  It must be deterministic given
    identical inputs (noisy evaluators own their random stream) and return
    finite values or ``-inf`` for impossible parameters: a wrong shape, a NaN
    or a +inf raises ``ValueError`` naming ``log_likelihood``.  The batch may be
    the transposed view of a component-major ``(dim, n)`` buffer: index it
    by column (``thetas[:, i]``), do not assume C order, and do not write
    into it.  Sum over components column by column into an ``(n,)`` buffer,
    not along axis 1 of the view, which is about 6× slower.

    Importance sampling and quadrature call it on blocks of at most 2^15
    rows, so a row's value must not depend on the other rows in its batch.
    Importance sampling makes all its prior draws before the first call.
    """

    dim: int
    log_likelihood: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PosteriorMoments:
    """Mean/covariance of the artificial posterior plus sampling diagnostics.

    ``ess`` and ``n`` are None for analytically computed moments (quadrature
    reports ``n`` as the grid size and no ess).  ``horizon`` is the number
    of perturbed parameters, each with prior ``N(theta, tau^2 Sigma)``, whose
    sum the moments describe: 1 for importance sampling and quadrature, and
    the number of steps ``T`` for the filter's ``sum_t theta_t``.
    """

    mean: np.ndarray
    covariance: np.ndarray
    ess: Optional[float] = None
    n: Optional[int] = None
    horizon: int = 1

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        cov = np.asarray(self.covariance, dtype=np.float64)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if self.ess is not None and self.n is not None:
            if not 1.0 <= self.ess <= self.n:
                raise ValueError("ess must lie in [1, n]")


def _checked_log_values(values, n: int, name: str, step: Optional[int] = None):
    """``(values, max)`` of a model callable's log-values as float64; raises
    ``ValueError`` naming the callable ``name`` (and the filter ``step``)
    unless they have shape ``(n,)`` and no NaN or +inf.  ``-inf`` passes."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n,):
        at = "" if step is None else f" at step {step}"
        raise ValueError(f"{name} returned shape {values.shape}{at}, expected ({n},)")
    top = values.max()
    if not top < np.inf:  # also true for NaN
        at = "" if step is None else f" at step {step}"
        raise ValueError(f"{name} returned NaN or +inf{at}, expected finite values or -inf")
    return values, top


def posterior_moments_is(
    model: GeneralModel,
    theta,
    tau: float,
    kernel: PerturbationKernel,
    n: int,
    rng: np.random.Generator,
) -> PosteriorMoments:
    """Importance-sampling posterior moments using the prior as proposal.

    Draws ``n`` parameters from the perturbation prior centered at ``theta``,
    weights them by likelihood with a max-shifted exponentiation, and returns
    the self-normalized mean, plug-in covariance and effective sample size.
    Blocks of ``kernels._BLOCK_ROWS`` draws all precede the first likelihood call.
    The weights overwrite the log-likelihoods, so besides the draws the
    estimate holds one ``(n,)`` vector.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if model.dim != kernel.dim:
        raise ValueError("model and kernel dimensions differ")
    rows = kernels._BLOCK_ROWS
    blocks = [slice(s, min(s + rows, n)) for s in range(0, n, rows)]
    thetas = np.empty((model.dim, n)).T  # component-major, as ``sample`` lays it out
    for b in blocks:
        thetas[b] = kernel.sample(theta, tau, rng, size=b.stop - b.start)
    logl = np.empty(n)
    top = -np.inf
    for b in blocks:
        logl[b], block_top = _checked_log_values(
            model.log_likelihood(thetas[b]), b.stop - b.start, "log_likelihood"
        )
        top = max(top, block_top)
    if top == -np.inf:
        raise DegeneratePosteriorError(
            "all importance weights are zero; tau is likely mis-scaled"
        )
    w, _ = kernels.normalize_log_weights(logl, out=logl)
    mean, cov = kernels.weighted_mean_cov(thetas, w)
    ess = min(max(1.0 / float(w @ w), 1.0), float(n))
    return PosteriorMoments(mean=mean, covariance=cov, ess=ess, n=n)


# The quadrature ladder: the coarsest and finest nodes per axis, each level
# 2m - 1 nodes after one of m, so each grid halves the spacing and contains
# the one before it.  Every grid spans +-8 prior standard deviations.  A
# level is accepted when its moments agree with the previous level's to
# _QUAD_RTOL posterior SDs, beyond _QUAD_ULPS ulps of the nodes' magnitude,
# and each posterior SD spans at least _QUAD_MIN_STEPS grid steps.
_QUAD_POINTS = (2**5 + 1, 2**11 + 1)
_QUAD_HALF_WIDTH_SDS = 8.0
_QUAD_RTOL = 1e-12
_QUAD_MIN_STEPS = 2.0
_QUAD_ULPS = 8.0


def _grid_sums(model: GeneralModel, a0, a1, log_w0, log_w1, centre1: float):
    """Streamed sums of the 2-D posterior weights on the grid ``a0 x a1``.

    The grid goes to ``log_likelihood`` in blocks of as many whole rows as
    fit in ``kernels._BLOCK_ROWS`` nodes (the whole 65-point grid in one
    block, 15 rows of the 2049-point one), and every block passes the same
    checks as a single call would.  Each block's nodes are a fresh
    component-major ``(2, nodes)`` array, passed as its ``(nodes, 2)``
    transpose.

    With ``W[i, j] = exp(L[i, j] - shift)`` for the log-posterior
    ``L = logl + log_w0[i] + log_w1[j]``, returns ``(rows, moments, cols)``:
    the row sums of ``W``, ``W @ (a1 - centre1)`` and the column sums of
    ``W``.  No ``(m, m)`` matrix exists.  Each block is exponentiated in
    place as ``exp(logl + log_w1 - top)``, with ``top`` its largest
    ``logl`` plus the largest ``log_w1``, and its rows are then scaled by
    ``exp(log_w0[i] + top - shift)``.  ``shift`` is the running maximum of
    the blocks' ``top + max log_w0``: when a block raises it, the sums
    already held are rescaled by ``exp(old - new)`` (the online normaliser).
    These bounds exceed the true maxima by at most the two log-priors'
    ranges (about 33 nats each), so nothing overflows and no weight that
    matters leaves the normal floating-point range.  A block whose entries
    are all ``-inf`` adds nothing; if every block is,
    ``DegeneratePosteriorError`` is raised.
    """
    m0, m1 = a0.size, a1.size
    step = max(1, kernels._BLOCK_ROWS // m1)
    # one product with these columns gives a block's row sums and moments
    row_basis = np.column_stack([np.ones(m1), a1 - centre1])
    rows, moments, cols = np.zeros(m0), np.zeros(m0), np.zeros(m1)
    shift = -np.inf
    top_w1 = np.max(log_w1)
    for start in range(0, m0, step):
        block = slice(start, min(start + step, m0))
        b = block.stop - start
        points = np.empty((2, b, m1))
        points[0] = a0[block, None]
        points[1] = a1
        logl, top = _checked_log_values(
            model.log_likelihood(points.reshape(2, -1).T), b * m1, "log_likelihood"
        )
        if top == -np.inf:
            continue
        top += top_w1
        peak = np.max(log_w0[block]) + top
        if peak > shift:
            rescale = np.exp(shift - peak)
            rows *= rescale
            moments *= rescale
            cols *= rescale
            shift = peak
        w = logl.reshape(b, m1) - (top - log_w1)
        np.exp(w, out=w)
        row_scale = np.exp(log_w0[block] + (top - shift))
        rows[block], moments[block] = (w @ row_basis).T * row_scale
        cols += row_scale @ w
    if shift == -np.inf:
        raise DegeneratePosteriorError("posterior mass vanished on the grid")
    return rows, moments, cols


def _quadrature_level(
    model: GeneralModel, theta: np.ndarray, tau: float, kernel: PerturbationKernel, m: int
) -> PosteriorMoments:
    """Posterior moments by the trapezoid rule on one grid of ``m`` nodes per
    axis, spanning ``_QUAD_HALF_WIDTH_SDS`` prior SDs either side of ``theta``.

    The prior density and the trapezoid coefficients factor over the axes,
    so their log-weights are one ``(m,)`` vector per axis and the grid is
    never materialized as a point array.  The 1-D grid is evaluated in a
    single call and weighted as ``W = exp(L - max L)``.  In 2-D
    ``_grid_sums`` streams blocks of whole rows into three ``(m,)`` vectors,
    so memory is O(m) besides one block.  The means and variances come from
    the row sums ``r`` and the column sums of ``W``.  The cross term is
    ``d0' (s + r (theta1 - mu1)) / sum(W)`` with ``s = W (a1 - theta1)``
    and ``d0`` the first axis minus its mean ``mu0``.  The ``r`` term is
    zero in exact arithmetic, but it cancels the rounding of ``mu0``, which
    ``d0' s`` alone would carry into the cross term times ``mu1 - theta1``.
    """
    axes = []
    log_w = []
    for i in range(model.dim):
        scale = tau * kernel.sigmas[i]
        half = _QUAD_HALF_WIDTH_SDS * scale
        axis = np.linspace(theta[i] - half, theta[i] + half, m)
        coeff = np.full(m, axis[1] - axis[0])
        coeff[0] *= 0.5
        coeff[-1] *= 0.5
        z = (axis - theta[i]) / scale
        axes.append(axis)
        log_w.append(np.log(coeff) - 0.5 * z * z)

    if model.dim == 1:
        logl, top = _checked_log_values(
            model.log_likelihood(axes[0][:, None]), m, "log_likelihood"
        )
        if top == -np.inf:  # the log-prior weights are finite
            raise DegeneratePosteriorError("posterior mass vanished on the grid")
        log_post = logl + log_w[0]
        marginals = [kernels.normalize_log_weights(log_post, out=log_post)[0]]
    else:
        rows, moments, cols = _grid_sums(model, *axes, *log_w, theta[1])
        total = rows.sum()
        marginals = [rows / total, cols / total]
    mean = np.array([p @ axis for p, axis in zip(marginals, axes)])
    dev = [axis - mu for axis, mu in zip(axes, mean)]
    cov = np.diag([p @ (d * d) for p, d in zip(marginals, dev)])
    if model.dim == 2:
        cov[0, 1] = cov[1, 0] = dev[0] @ (moments + rows * (theta[1] - mean[1])) / total
    return PosteriorMoments(mean=mean, covariance=cov, ess=None, n=m**model.dim)


def posterior_moments_quadrature(
    model: GeneralModel,
    theta,
    tau: float,
    kernel: PerturbationKernel,
) -> PosteriorMoments:
    """Posterior moments by trapezoidal quadrature (dim <= 2 only), on a grid
    sized to the posterior.

    Climbs a ladder of grids with ``m = 2^k + 1`` nodes per axis,
    ``k = 5 ... 11`` (33 to 2049, the bounds ``_QUAD_POINTS``), each spanning
    ``_QUAD_HALF_WIDTH_SDS`` = 8 prior SDs either side of ``theta`` at half
    the previous spacing.  The first level ``k >= 6`` is accepted whose
    moments agree with level ``k - 1``'s, ``|dmu_i| <= 1e-12 s_i`` and
    ``|dSigma_ij| <= 1e-12 s_i s_j`` with ``s`` its posterior SDs, and on
    which every ``s_i`` spans at least 2 grid steps.  The differences are
    taken beyond the nodes' round-off, 8 ulps of ``|theta_i|`` plus the
    half-span (times ``s_j`` for the covariance), which a tiny ``tau`` at a
    large ``theta`` would otherwise never get under.  On smooth integrands
    the trapezoid rule converges exponentially in ``m``, so a posterior
    about as wide as its prior (small ``tau``) stops at 65 or 129 nodes.
    If no level passes, the 2049-point moments are returned with an
    ``OracleAccuracyWarning`` that names the last difference.  ``n`` is the
    accepted level's node count.  Each level is ``_quadrature_level``,
    evaluated afresh.
    """
    if model.dim > 2:
        raise ValueError("quadrature oracle supports dim <= 2 only")
    if model.dim != kernel.dim:
        raise ValueError("model and kernel dimensions differ")
    if tau <= 0.0:
        raise ValueError("tau must be > 0 for quadrature moments")
    theta = np.asarray(theta, dtype=np.float64)
    span = 2.0 * _QUAD_HALF_WIDTH_SDS * tau * np.asarray(kernel.sigmas)
    # the nodes sit on the floating-point grid of their magnitude, so no level
    # places a moment closer than a few of its ulps: the change between levels
    # is judged beyond that floor
    floor = _QUAD_ULPS * np.spacing(np.abs(theta) + span / 2.0)

    m, finest = _QUAD_POINTS
    coarse = _quadrature_level(model, theta, tau, kernel, m)
    while m < finest:
        m = 2 * m - 1
        fine = _quadrature_level(model, theta, tau, kernel, m)
        sd = np.sqrt(np.diag(fine.covariance))
        d_mean = np.abs(fine.mean - coarse.mean) - floor
        cross_floor = np.outer(floor, sd)
        d_cov = np.abs(fine.covariance - coarse.covariance) - cross_floor - cross_floor.T
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero SD fails the step test
            gap = max(np.max(d_mean / sd), np.max(d_cov / np.outer(sd, sd)))
        steps = np.min(sd / span) * (m - 1)
        if gap <= _QUAD_RTOL and steps >= _QUAD_MIN_STEPS:
            return fine
        coarse = fine
    warnings.warn(
        f"quadrature did not converge by {m} nodes per axis: the last two grids' "
        f"moments differ by {gap:.3g} posterior SDs (tolerance {_QUAD_RTOL:g}) and "
        f"the narrowest posterior SD spans {steps:.3g} grid steps (at least "
        f"{_QUAD_MIN_STEPS:g} needed)",
        OracleAccuracyWarning,
        stacklevel=2,
    )
    return fine


def _kernel_variances(sigma, dim: int) -> np.ndarray:
    """Diagonal of the kernel covariance, checked against the estimate's dim."""
    if not isinstance(sigma, PerturbationKernel):
        raise TypeError(f"sigma must be a PerturbationKernel, got {type(sigma).__name__}")
    if sigma.dim != dim:
        raise ValueError(f"kernel has dimension {sigma.dim}, estimate has {dim}")
    return sigma.variances()


def score_from_moments(
    moments: PosteriorMoments, theta, tau: float, sigma: PerturbationKernel
) -> ScoreEstimate:
    """Rescale the posterior mean displacement into a score estimate.

    Computes ``Sigma^-1 (mean - T theta) / tau^2`` with ``Sigma`` the
    covariance of the kernel ``sigma`` and ``T = moments.horizon``; the bias
    of the result is second order in ``tau``.  ``theta`` has the mean's
    shape, or is a scalar when that is ``(1,)``.
    """
    if not np.all(np.isfinite(moments.mean)):
        raise ValueError("posterior mean must be finite")
    theta = np.asarray(theta, dtype=np.float64)
    if np.atleast_1d(theta).shape != moments.mean.shape:
        raise ValueError(
            f"theta has shape {theta.shape}, posterior mean has shape {moments.mean.shape}"
        )
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    displacement = moments.mean - moments.horizon * theta
    var = _kernel_variances(sigma, moments.mean.size)
    return ScoreEstimate(displacement / var / tau**2)


def observed_info_from_moments(
    moments: PosteriorMoments, tau: float, sigma: PerturbationKernel
) -> InfoEstimate:
    """Rescale the posterior covariance deficit into an information estimate.

    Computes ``Sigma^-1 (T tau^2 Sigma - cov) Sigma^-1 / tau^4`` with
    ``Sigma`` the covariance of the kernel ``sigma`` and ``T =
    moments.horizon``.  The diagonal ``Sigma`` divides elementwise through
    the outer product of the variances, and ``(M + M.T) / 2`` makes the
    result symmetric exactly.
    """
    covariance = moments.covariance
    if not np.all(np.isfinite(covariance)):
        raise ValueError("posterior covariance must be finite")
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    var = _kernel_variances(sigma, covariance.shape[0])
    deficit = np.diag(tau**2 * moments.horizon * var) - covariance
    full = deficit / np.outer(var, var) / tau**4
    return InfoEstimate((full + full.T) / 2.0)


@dataclass(frozen=True)
class FDConfig:
    """Step size and stream seeding for the finite-difference baselines.

    Every stencil node is evaluated with its own independent stream derived
    from ``base_seed`` (the paper's setting: no common random numbers).
    """

    h: float
    base_seed: int

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("h must be > 0")


def _node_rng(config: FDConfig, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((config.base_seed, k)))


def _fd_stencil(d: int, target: str) -> np.ndarray:
    """Central-difference node offsets in units of ``h``, one row per node.

    Rows are in stream order: node ``k`` of an FD estimate draws from stream
    ``k``.  ``score`` has ``+e_r, -e_r`` for each coordinate ``r`` (``2d``
    nodes).  ``oim`` has ``+e_r, 0, -e_r`` for each ``r``, then ``(+,+),
    (+,-), (-,+), (-,-)`` in ``(e_r, e_s)`` for each pair ``r < s``
    (``3d + 2d(d-1)`` nodes).
    """
    eye = np.eye(d)
    if target == "score":
        return np.stack([eye, -eye], axis=1).reshape(2 * d, d)
    diagonal = np.stack([eye, np.zeros_like(eye), -eye], axis=1).reshape(3 * d, d)
    r, s = np.triu_indices(d, 1)
    pairs = np.arange(r.size)
    cross = np.zeros((r.size, 4, d))
    cross[pairs, :, r] = (1.0, 1.0, -1.0, -1.0)
    cross[pairs, :, s] = (1.0, -1.0, 1.0, -1.0)
    return np.vstack([diagonal, cross.reshape(-1, d)])


def _fd_derivatives(values: np.ndarray, d: int, h: float, target: str):
    """``(gradient, Hessian)`` from node values in ``_fd_stencil`` order.

    The ``score`` stencil gives no Hessian (``None``); the ``oim`` stencil
    reads the gradient off its ``+e_r, -e_r`` nodes.  Each entry keeps the
    textbook subtraction form, ``(up - down) / 2h``,
    ``(up - 2 mid + down) / h^2`` and ``(pp - pm - mp + mm) / 4h^2``, whose
    round-off a weighted sum of the node values would not reproduce.
    """
    if target == "score":
        up, down = values.reshape(d, 2).T
        return (up - down) / (2.0 * h), None
    up, mid, down = values[: 3 * d].reshape(d, 3).T
    hess = np.diag((up - 2.0 * mid + down) / h**2)
    pp, pm, mp, mm = values[3 * d :].reshape(-1, 4).T
    r, s = np.triu_indices(d, 1)
    hess[r, s] = hess[s, r] = (pp - pm - mp + mm) / (4.0 * h**2)
    return (up - down) / (2.0 * h), hess


def _fd_evaluate(loglik, theta, config: FDConfig, target: str):
    """Evaluate the stencil at ``theta`` (node ``k`` on stream ``k``) and
    difference it."""
    theta = np.asarray(theta, dtype=np.float64)
    nodes = theta + config.h * _fd_stencil(theta.size, target)
    values = np.array([float(loglik(node, _node_rng(config, k))) for k, node in enumerate(nodes)])
    _checked_log_values(values, len(nodes), "loglik")
    if values.min() == -np.inf:  # a difference needs every node finite
        raise ValueError(f"loglik returned -inf at {nodes[values.argmin()]}, expected finite")
    return _fd_derivatives(values, theta.size, config.h, target)


def fd_score(
    loglik: Callable[[np.ndarray, np.random.Generator], float],
    theta,
    config: FDConfig,
) -> ScoreEstimate:
    """Central finite-difference score: (l(theta+h e_r) - l(theta-h e_r)) / 2h.

    ``loglik(theta, rng)`` may be a Monte Carlo estimator; the +h and -h
    evaluations of each coordinate use independent streams.
    """
    values, _ = _fd_evaluate(loglik, theta, config, "score")
    return ScoreEstimate(values)


def fd_info(
    loglik: Callable[[np.ndarray, np.random.Generator], float],
    theta,
    config: FDConfig,
) -> InfoEstimate:
    """Finite-difference observed information (negated second differences).

    Diagonal entries use the three-point second difference; off-diagonal
    entries the standard four-point cross stencil.  All stencil node
    evaluations are independent.
    """
    _, hess = _fd_evaluate(loglik, theta, config, "oim")
    return InfoEstimate(-hess)
