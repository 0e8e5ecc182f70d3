"""Extended bootstrap particle filter with fixed-lag moment accumulation.

The filter runs on the modified model in which the parameter is re-drawn
from the perturbation prior at every time step (i.i.d. across time, not a
random walk) while the latent state evolves through the sample-only
transition under that step's parameter.  At each step the filter reads off
weighted posterior means/variances of the lagged parameter and the sum of
its cross-covariances with the in-lag earlier parameters; those moments
assemble into score and observed information estimates for the original
model.

Covariance is bilinear, so ``sum_s Cov_w(theta_s, theta_t)`` over the lag
window equals ``Cov_w(S_t, theta_t)`` with ``S_t`` the window sum of the
parameters along each particle's ancestral line: one cross-covariance per
read-off, whatever the lag.  ``S_t`` and the draw itself are differences of
prefix sums ``P_k = sum_{s<k} (theta_s - theta)`` of the centred draws taken
along the ancestral line: ``S_t = P_t - P_f`` with ``f = max(0, t - lag)``,
and ``theta_t - theta = P_{t+1} - P_t``.  Centring keeps both differences
at the scale of the draws.

The prefix sums live in a ring of ``slots = min(2*lag + 2, T + 1)`` slots
(prefix ``k`` in slot ``k % slots``) split into two arrays:

* ``values``, one ``(d, n)`` float64 buffer per slot: slot ``k % slots``
  holds ``P_k`` of the particles alive at the step that wrote it,
  component-major (one contiguous row of ``n`` per coordinate).  A slot is
  written once and never moved.  Separate slot buffers need no single
  ``slots * d * n`` block, which a fragmented heap may not have free.
* ``lineage`` ``(n, slots)`` int32: ``lineage[i, k % slots]`` is the
  column, within that slot, of current particle ``i``'s ancestor.

Looking a prefix up is ``np.take(values[k], lineage[:, k], axis=1)``, and
resampling gathers only the ``lineage`` rows, never the float values.  Every
prefix and every difference is the same float a ring of per-particle paths
would hold.  At lag 0 there is no window and the read-off uses the current
draws directly, without a ring.

Particles are otherwise stored struct-of-arrays: parameters component-major
(the sampler's ``(n, d)`` draws are the transpose of a ``(d, n)`` buffer,
and the centred draw is ``thetas.T - theta[:, None]``), states ``(n,)`` and
one weight vector.  The moment kernels receive ``.T`` views of the
``(d, n)`` arrays.  Moment read-off happens after weighting and before
resampling, so it uses the posterior-at-u weights exactly.  RNG consumption
does not depend on the lag, which makes runs with different lags but equal
seeds traverse identical particle trajectories.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .general import _rescale_info, _rescale_score
from .perturbation import PerturbationKernel, make_gaussian_kernel
from .results import InfoEstimate, ScoreEstimate
from .state_space import StateSpaceModel

__all__ = [
    "ParticleCollapseError",
    "ExtendedFilterConfig",
    "FixedLagAccumulator",
    "resample",
    "run_extended_bootstrap",
    "score_from_accumulator",
    "observed_info_from_accumulator",
    "bootstrap_loglik",
]

RESAMPLING_SCHEMES = ("multinomial", "systematic")


class ParticleCollapseError(RuntimeError):
    """Every particle weight vanished at some step (1-based ``step``)."""

    def __init__(self, step: int):
        super().__init__(f"all particle weights are zero at step {step}")
        self.step = step


@dataclass(frozen=True)
class ExtendedFilterConfig:
    """Settings for one extended-bootstrap run.

    ``lag >= T - 1`` is legal and means full smoothing.  ``tau = 0`` turns
    the filter into a plain bootstrap filter at ``theta`` (useful for
    likelihood estimation; the moment read-offs then carry no information).
    ``ess_threshold = None`` resamples every step, which is the analyzed
    setting; a fractional threshold enables ESS-triggered resampling.
    ``pairwise = True`` also keeps every in-lag cross-covariance on its own
    (``FixedLagAccumulator.crosscovs``), at a cost that grows with the lag.
    """

    theta: np.ndarray
    tau: float
    kernel: PerturbationKernel
    lag: int
    n_particles: int
    resampling: str = "multinomial"
    ess_threshold: Optional[float] = None
    pairwise: bool = False

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        if theta.shape != (self.kernel.dim,):
            raise ValueError("theta dimension does not match kernel dimension")
        if self.tau < 0.0:
            raise ValueError("tau must be >= 0")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if self.resampling not in RESAMPLING_SCHEMES:
            raise ValueError(f"resampling must be one of {RESAMPLING_SCHEMES}")
        if self.ess_threshold is not None and not 0.0 < self.ess_threshold <= 1.0:
            raise ValueError("ess_threshold must lie in (0, 1]")


@dataclass
class FixedLagAccumulator:
    """Per-time posterior moments of the step parameters, plus diagnostics.

    ``means[t]`` and ``covariances[t]`` estimate the lagged-horizon posterior
    mean/covariance of the step-(t+1) parameter, and ``pair_sums[t]`` the sum
    of its cross-covariances ``C_st = Cov(theta_s, theta_t)`` over 0-based
    ``s`` with ``1 <= t - s <= lag`` (zero when there is no such ``s``).
    ``crosscovs[(s, t)]`` holds each ``C_st`` on its own when the filter ran
    with ``pairwise=True`` and is ``None`` otherwise.
    ``readoff_horizon[t]`` records the 1-based step whose weights produced
    the read-off (``min(t + 1 + lag, T)`` by construction).
    """

    means: np.ndarray
    covariances: np.ndarray
    pair_sums: np.ndarray
    loglik_estimate: float
    readoff_horizon: np.ndarray
    ess_trace: np.ndarray
    tau: float
    lag: int
    n_particles: int
    crosscovs: Optional[dict] = None

    @property
    def horizon(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def is_complete(self) -> bool:
        """True when every per-time slot was filled."""
        return not any(
            np.any(np.isnan(a)) for a in (self.means, self.covariances, self.pair_sums)
        )

    def save_moments_csv(self, path) -> None:
        """Rows ``t,component,mean,var_diag`` with 1-based indices."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "component", "mean", "var_diag"])
            for t in range(self.horizon):
                for i in range(self.dim):
                    writer.writerow(
                        [
                            t + 1,
                            i + 1,
                            repr(float(self.means[t, i])),
                            repr(float(self.covariances[t, i, i])),
                        ]
                    )

    def save_crosscov_csv(self, path) -> None:
        """Rows ``s,t,i,j,crosscov`` with 1-based indices.

        Needs the per-pair cross-covariances of a ``pairwise=True`` run.
        """
        if self.crosscovs is None:
            raise ValueError(
                "per-pair cross-covariances were not kept; run the filter "
                "with ExtendedFilterConfig(pairwise=True)"
            )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["s", "t", "i", "j", "crosscov"])
            for (s, t) in sorted(self.crosscovs):
                c = self.crosscovs[(s, t)]
                for i in range(self.dim):
                    for j in range(self.dim):
                        writer.writerow(
                            [s + 1, t + 1, i + 1, j + 1, repr(float(c[i, j]))]
                        )


def resample(weights, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Draw ancestor indices under the given scheme.

    Multinomial draws i.i.d. categorical ancestors; systematic uses a single
    uniform and stratified inversion.  Both are unbiased in expected
    offspring counts.  The multinomial positions are the order statistics
    of ``n`` uniforms, made in O(n) from normalised cumulative sums of
    ``n + 1`` standard exponentials, so under either scheme the positions
    are sorted and the returned ancestors are nondecreasing.  (Earlier
    versions inverted unsorted uniforms, so multinomial trajectories for a
    given seed differ from theirs.)
    """
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and non-negative")
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("weights must have positive sum")
    n = weights.shape[0]
    cumw = np.cumsum(weights / total)
    if scheme == "multinomial":
        spacings = np.cumsum(rng.standard_exponential(n + 1))
        positions = spacings[:-1] / spacings[-1]
    elif scheme == "systematic":
        positions = (rng.random() + np.arange(n)) / n
    else:
        raise ValueError(f"resampling must be one of {RESAMPLING_SCHEMES}")
    return kernels.inverse_cdf_indices(cumw, positions)


def run_extended_bootstrap(
    model: StateSpaceModel,
    ys,
    config: ExtendedFilterConfig,
    rng: np.random.Generator,
    weight_observer=None,
) -> FixedLagAccumulator:
    """Run the extended bootstrap filter and accumulate fixed-lag moments.

    At each step the parameter is drawn fresh from the prior centered at
    ``config.theta``, the state propagates under it, and particles are
    weighted by the observation density.  Read-off for time ``t`` happens at
    step ``min(t + lag, T)``; remaining slots are flushed at the final step.

    ``weight_observer``, when given, is called as ``observer(step, weights)``
    with the 1-based step and that step's normalized weights (a diagnostics
    hook; it must not mutate the array).
    """
    ys = np.asarray(ys)
    horizon = ys.shape[0]
    if horizon < 1:
        raise ValueError("need at least one observation")
    if model.param_dim != config.kernel.dim:
        raise ValueError("model and kernel dimensions differ")

    n = config.n_particles
    d = config.kernel.dim
    # every lag >= T - 1 is the full lag, so T = 1 always takes the lag-0 path
    lag = min(config.lag, horizon - 1)
    theta = config.theta

    if lag:
        # a read-off at step u touches prefixes u - 2*lag .. u + 1
        slots = min(2 * lag + 2, horizon + 1)
        # P_0 = 0 in slot 0; every other slot is written before it is read
        values = [np.zeros((d, n))] + [np.empty((d, n)) for _ in range(slots - 1)]
        rows = np.arange(n, dtype=np.int32)
        lineage = np.repeat(rows[:, None], slots, axis=1)
        spare = np.empty_like(lineage)
    means = np.full((horizon, d), np.nan)
    covariances = np.full((horizon, d, d), np.nan)
    pair_sums = np.full((horizon, d, d), np.nan)
    crosscovs = {} if config.pairwise else None
    readoff_horizon = np.zeros(horizon, dtype=np.int64)
    ess_trace = np.empty(horizon)
    loglik = 0.0
    log_prev = None  # None encodes uniform weights from the last resampling
    x = None

    def prefix(k):
        """``P_k`` of the current particles, ``(d, n)``."""
        k %= slots
        return np.take(values[k], lineage[:, k], axis=1)

    def read_off(t, u, w):
        readoff_horizon[t] = u + 1
        if not lag:
            means[t], covariances[t] = kernels.weighted_mean_cov(thetas, w)
            pair_sums[t] = 0.0
            return
        p_t = prefix(t)
        draw = prefix(t + 1) - p_t
        mean, covariances[t] = kernels.weighted_mean_cov(draw.T, w)
        means[t] = theta + mean
        first = max(0, t - lag)
        if t == first:
            pair_sums[t] = 0.0
        else:
            window = p_t - prefix(first)
            pair_sums[t] = kernels.weighted_crosscov(window.T, draw.T, w)
        if crosscovs is not None:
            for s in range(first, t):
                draw_s = prefix(s + 1) - prefix(s)
                crosscovs[(s, t)] = kernels.weighted_crosscov(draw_s.T, draw.T, w)

    for u in range(horizon):
        thetas = config.kernel.sample(theta, config.tau, rng, size=n)
        if u == 0:
            x = model.init_sampler(thetas, rng)
        else:
            x = model.transition_sampler(x, thetas, rng)
        logg = np.asarray(model.obs_logdensity(ys[u], x, thetas), dtype=np.float64)
        if logg.shape != (n,):
            raise ValueError(
                f"obs_logdensity returned shape {logg.shape} at step {u + 1}, "
                f"expected ({n},)"
            )
        if not np.all(logg < np.inf):
            raise ValueError(f"obs_logdensity returned NaN or +inf at step {u + 1}")
        logw = logg if log_prev is None else log_prev + logg
        if np.max(logw) == -np.inf:
            raise ParticleCollapseError(step=u + 1)
        w, lse = kernels.normalize_log_weights(logw)
        loglik += lse - (math.log(n) if log_prev is None else 0.0)
        ess_trace[u] = 1.0 / float(w @ w)
        if weight_observer is not None:
            weight_observer(u + 1, w)

        if lag:
            new = (u + 1) % slots
            np.add(prefix(u), thetas.T - theta[:, None], out=values[new])
            lineage[:, new] = rows

        t = u - lag
        if t >= 0:
            read_off(t, u, w)
        if u == horizon - 1:
            for t_tail in range(max(0, horizon - lag), horizon):
                read_off(t_tail, u, w)

        if config.ess_threshold is None:
            do_resample = True
        else:
            do_resample = ess_trace[u] < config.ess_threshold * n
        if do_resample:
            ancestors = resample(w, config.resampling, rng)
            x = np.take(x, ancestors, axis=0)
            if lag:
                np.take(lineage, ancestors, axis=0, out=spare, mode="clip")
                lineage, spare = spare, lineage
            log_prev = None
        else:
            log_prev = logw - lse

    return FixedLagAccumulator(
        means=means,
        covariances=covariances,
        pair_sums=pair_sums,
        loglik_estimate=loglik,
        readoff_horizon=readoff_horizon,
        ess_trace=ess_trace,
        tau=config.tau,
        lag=config.lag,
        n_particles=n,
        crosscovs=crosscovs,
    )


def _require_complete(acc: FixedLagAccumulator) -> None:
    if not acc.is_complete():
        raise ValueError("accumulator is incomplete; run the filter to horizon")


def score_from_accumulator(
    acc: FixedLagAccumulator, theta, tau: float, sigma: PerturbationKernel
) -> ScoreEstimate:
    """Assemble the score: ``Sigma^-1 (sum_t mean_t - T theta) / tau^2``."""
    _require_complete(acc)
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    displacement = acc.means.sum(axis=0) - acc.horizon * theta
    values = _rescale_score(displacement, tau, sigma)
    return ScoreEstimate(values=values, tau=tau, n=acc.n_particles, method="smc-fixed-lag")


def observed_info_from_accumulator(
    acc: FixedLagAccumulator, tau: float, sigma: PerturbationKernel
) -> InfoEstimate:
    """Assemble the observed information from variances and in-lag pairs.

    The covariance of ``sum_t theta_t`` is ``sum_t var_t + sum_t (A_t +
    A_t.T)`` with ``A_t = pair_sums[t]``; it goes through the same rescaling
    as one parameter's covariance, with ``T tau^2 Sigma`` as the prior term.
    The pair sum symmetrizes each cross-covariance instead of doubling it,
    which is exact for the true posterior and keeps the estimate symmetric.
    """
    _require_complete(acc)
    pairs = acc.pair_sums.sum(axis=0)
    covariance = acc.covariances.sum(axis=0) + (pairs + pairs.T)
    values = _rescale_info(covariance, acc.horizon, tau, sigma)
    return InfoEstimate(values=values, tau=tau, n=acc.n_particles, method="smc-fixed-lag")


def bootstrap_loglik(
    model: StateSpaceModel,
    ys,
    theta,
    n_particles: int,
    rng: np.random.Generator,
    resampling: str = "multinomial",
) -> float:
    """Plain bootstrap-filter log-likelihood estimate at a fixed parameter.

    Runs the extended filter with ``tau = 0`` (the prior degenerates to the
    point mass at ``theta``), which reduces it to the standard bootstrap
    filter.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    config = ExtendedFilterConfig(
        theta=theta,
        tau=0.0,
        kernel=make_gaussian_kernel(np.ones(theta.size)),
        lag=0,
        n_particles=n_particles,
        resampling=resampling,
    )
    acc = run_extended_bootstrap(model, ys, config, rng=rng)
    return acc.loglik_estimate
