"""Score and observed-information estimation for generic models.

Everything here operates on a plain log-likelihood evaluator.  The route is:
draw parameters from the perturbation prior, weight them by likelihood
(self-normalized importance sampling), and rescale the resulting posterior
mean and covariance into derivative estimates.  Central finite differences
are the baseline alternative, and a trapezoidal-quadrature version of the
posterior moments serves as an exact low-dimensional oracle.
"""

from __future__ import annotations

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
    "posterior_moments_is",
    "GridSpec",
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


@dataclass(frozen=True)
class GeneralModel:
    """A model reduced to its log-likelihood surface.

    ``log_likelihood`` maps an ``(n, dim)`` batch of parameter vectors to an
    ``(n,)`` array of log-likelihood values.  It must be deterministic given
    identical inputs (noisy evaluators own their random stream) and return
    finite values or ``-inf`` for impossible parameters.
    """

    dim: int
    log_likelihood: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PosteriorMoments:
    """Mean/covariance of the artificial posterior plus sampling diagnostics.

    ``ess`` and ``n`` are None for analytically computed moments (quadrature
    reports ``n`` as the grid size and no ess).
    """

    mean: np.ndarray
    covariance: np.ndarray
    ess: Optional[float] = None
    n: Optional[int] = None

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        cov = np.asarray(self.covariance, dtype=np.float64)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if self.ess is not None and self.n is not None:
            if not 1.0 <= self.ess <= self.n:
                raise ValueError("ess must lie in [1, n]")


def _evaluate_loglik(model: GeneralModel, thetas: np.ndarray) -> np.ndarray:
    logl = np.asarray(model.log_likelihood(thetas), dtype=np.float64)
    if logl.shape != (thetas.shape[0],):
        raise ValueError(
            f"log_likelihood returned shape {logl.shape}, expected ({thetas.shape[0]},)"
        )
    if not np.all(logl < np.inf):  # also false for NaN
        raise ValueError("log_likelihood must return finite values or -inf")
    return logl


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
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if model.dim != kernel.dim:
        raise ValueError("model and kernel dimensions differ")
    thetas = kernel.sample(theta, tau, rng, size=n)
    logl = _evaluate_loglik(model, thetas)
    if np.max(logl) == -np.inf:
        raise DegeneratePosteriorError(
            "all importance weights are zero; tau is likely mis-scaled"
        )
    w, _ = kernels.normalize_log_weights(logl)
    mean, cov = kernels.weighted_mean_cov(thetas, w)
    ess = 1.0 / float(w @ w)
    ess = min(max(ess, 1.0), float(n))
    return PosteriorMoments(mean=mean, covariance=cov, ess=ess, n=n)


@dataclass(frozen=True)
class GridSpec:
    """Tensor-grid resolution for the quadrature oracle.

    The grid spans ``half_width_sds`` prior standard deviations either side
    of the center with ``points_per_axis`` nodes; both have floors that keep
    the trapezoid error far below sampling noise.
    """

    points_per_axis: int = 2001
    half_width_sds: float = 8.0

    def __post_init__(self):
        if self.points_per_axis < 2001:
            raise ValueError("points_per_axis must be >= 2001")
        if self.half_width_sds < 8.0:
            raise ValueError("half_width_sds must be >= 8")


# Nodes per likelihood call when the 2-D grid is streamed in row blocks: big
# enough to amortize the call, small next to the (m, m) log-posterior matrix.
_QUAD_BLOCK_NODES = 100_000


def _grid_loglik(model: GeneralModel, a0: np.ndarray, a1: np.ndarray) -> np.ndarray:
    """Log-likelihood on the ``ij``-ordered tensor grid ``a0 x a1``.

    Returns the ``(a0.size, a1.size)`` matrix whose ``[i, j]`` entry is the
    log-likelihood at ``(a0[i], a1[j])``.  The grid goes to ``log_likelihood``
    in blocks of whole rows, about ``_QUAD_BLOCK_NODES`` nodes each, and every
    block passes the same checks as a single call would.
    """
    m0, m1 = a0.size, a1.size
    rows = max(1, _QUAD_BLOCK_NODES // m1)
    out = np.empty((m0, m1))
    for start in range(0, m0, rows):
        block = a0[start : start + rows]
        points = np.empty((block.size, m1, 2))
        points[:, :, 0] = block[:, None]
        points[:, :, 1] = a1
        logl = _evaluate_loglik(model, points.reshape(-1, 2))
        out[start : start + block.size] = logl.reshape(block.size, m1)
    return out


def posterior_moments_quadrature(
    model: GeneralModel,
    theta,
    tau: float,
    kernel: PerturbationKernel,
    grid: GridSpec = GridSpec(),
) -> PosteriorMoments:
    """Exact posterior moments by trapezoidal quadrature (dim <= 2 only).

    Error is dominated by grid truncation, not sampling; with the default
    grid it is far below 1e-8 for smooth likelihoods.

    The prior density and the trapezoid coefficients factor over the axes,
    so their log-weights are one ``(m,)`` vector per axis and the grid is
    never materialized as a point array.  In 2-D the likelihood is
    evaluated in blocks of about 10^5 grid nodes (whole rows of the
    ``ij``-ordered grid), so ``log_likelihood`` is called several times per
    estimate; each block goes through the same shape, NaN and ``+inf``
    checks.  The blocks fill one ``(m, m)`` log-posterior matrix ``L``; after
    a max-shifted exponentiation ``W = exp(L - max L)``, the means and
    variances come from the row and column sums of ``W`` and the cross term
    is ``d0' W d1 / sum(W)`` with ``d_k`` the axis nodes minus their mean.
    The 1-D grid is evaluated in a single call.
    """
    if model.dim > 2:
        raise ValueError("quadrature oracle supports dim <= 2 only")
    if model.dim != kernel.dim:
        raise ValueError("model and kernel dimensions differ")
    if tau <= 0.0:
        raise ValueError("tau must be > 0 for quadrature moments")
    theta = np.asarray(theta, dtype=np.float64)

    m = grid.points_per_axis
    axes = []
    log_w = []
    for i in range(model.dim):
        scale = tau * kernel.sigmas[i]
        half = grid.half_width_sds * scale
        axis = np.linspace(theta[i] - half, theta[i] + half, m)
        coeff = np.full(m, axis[1] - axis[0])
        coeff[0] *= 0.5
        coeff[-1] *= 0.5
        z = (axis - theta[i]) / scale
        axes.append(axis)
        log_w.append(np.log(coeff) - 0.5 * z * z)

    if model.dim == 1:
        log_post = _evaluate_loglik(model, axes[0][:, None]) + log_w[0]
    else:
        log_post = _grid_loglik(model, axes[0], axes[1])
        log_post += log_w[0][:, None]
        log_post += log_w[1]
    peak = np.max(log_post)
    if peak == -np.inf:
        raise DegeneratePosteriorError("posterior mass vanished on the grid")
    log_post -= peak
    weights = np.exp(log_post, out=log_post)
    total = weights.sum()
    if model.dim == 1:
        marginals = [weights / total]
    else:
        marginals = [weights.sum(axis=1) / total, weights.sum(axis=0) / total]
    mean = np.array([p @ axis for p, axis in zip(marginals, axes)])
    dev = [axis - mu for axis, mu in zip(axes, mean)]
    cov = np.diag([p @ (d * d) for p, d in zip(marginals, dev)])
    if model.dim == 2:
        cov[0, 1] = cov[1, 0] = dev[0] @ (weights @ dev[1]) / total
    return PosteriorMoments(mean=mean, covariance=cov, ess=None, n=weights.size)


def _kernel_variances(sigma, dim: int) -> np.ndarray:
    """Diagonal of the kernel covariance, checked against the estimate's dim."""
    if not isinstance(sigma, PerturbationKernel):
        raise TypeError(f"sigma must be a PerturbationKernel, got {type(sigma).__name__}")
    if sigma.dim != dim:
        raise ValueError(f"kernel has dimension {sigma.dim}, estimate has {dim}")
    return sigma.variances()


def _rescale_score(displacement: np.ndarray, tau: float, sigma) -> np.ndarray:
    """``Sigma^-1 displacement / tau^2`` for the diagonal kernel covariance.

    ``displacement`` is ``E[theta] - theta`` for one perturbed parameter and
    ``sum_t E[theta_t] - T theta`` for the filter's ``T`` step parameters.
    """
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    return displacement / _kernel_variances(sigma, displacement.size) / tau**2


def _rescale_info(covariance: np.ndarray, horizon: int, tau: float, sigma) -> np.ndarray:
    """``Sigma^-1 (T tau^2 Sigma - covariance) Sigma^-1 / tau^4``, symmetrized.

    ``covariance`` is the posterior covariance of ``sum_t theta_t`` over the
    ``T = horizon`` perturbed parameters.  The diagonal ``Sigma`` divides
    elementwise through the outer product of the variances, and
    ``(M + M.T) / 2`` makes the result symmetric exactly.
    """
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    var = _kernel_variances(sigma, covariance.shape[0])
    deficit = np.diag(tau**2 * horizon * var) - covariance
    full = deficit / np.outer(var, var) / tau**4
    return (full + full.T) / 2.0


def score_from_moments(
    moments: PosteriorMoments, theta, tau: float, sigma: PerturbationKernel
) -> ScoreEstimate:
    """Rescale the posterior mean displacement into a score estimate.

    Computes ``Sigma^-1 (mean - theta) / tau^2`` with ``Sigma`` the
    covariance of the kernel ``sigma``; the bias of the result is second
    order in ``tau``.
    """
    if not np.all(np.isfinite(moments.mean)):
        raise ValueError("posterior mean must be finite")
    displacement = moments.mean - np.asarray(theta, dtype=np.float64)
    values = _rescale_score(displacement, tau, sigma)
    return ScoreEstimate(values=values, tau=tau, n=moments.n, method="posterior-mean")


def observed_info_from_moments(
    moments: PosteriorMoments, tau: float, sigma: PerturbationKernel
) -> InfoEstimate:
    """Rescale the posterior covariance deficit into an information estimate.

    Computes ``Sigma^-1 (tau^2 Sigma - cov) Sigma^-1 / tau^4`` with ``Sigma``
    the covariance of the kernel ``sigma``, symmetric exactly.
    """
    values = _rescale_info(moments.covariance, 1, tau, sigma)
    return InfoEstimate(values=values, tau=tau, n=moments.n, method="posterior-cov")


@dataclass(frozen=True)
class FDConfig:
    """Step size and stream seeding for the finite-difference baselines.

    Every stencil node is evaluated with its own independent stream derived
    from ``base_seed`` (the paper's setting: no common random numbers).
    """

    h: float
    base_seed: Optional[int] = None

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("h must be > 0")


def _node_rng(config: FDConfig, k: int) -> np.random.Generator:
    if config.base_seed is None:
        return np.random.default_rng()
    return np.random.default_rng(np.random.SeedSequence((config.base_seed, k)))


def _checked_eval(loglik, theta, rng) -> float:
    value = float(loglik(theta, rng))
    if np.isnan(value) or np.isinf(value):
        raise ValueError(f"log-likelihood evaluation at {theta} is not finite")
    return value


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
    values = np.array(
        [_checked_eval(loglik, node, _node_rng(config, k)) for k, node in enumerate(nodes)]
    )
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
    return ScoreEstimate(values=values, tau=None, n=None, method="fd-central")


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
    return InfoEstimate(values=-hess, tau=None, n=None, method="fd-central")
