"""Extended bootstrap particle filter with fixed-lag moment accumulation.

The filter runs on the modified model in which the parameter is re-drawn
from the perturbation prior at every time step (i.i.d. across time, not a
random walk) while the latent state evolves through the sample-only
transition under that step's parameter.  At each step the filter reads off
weighted posterior means/variances of the lagged parameter and the sum of
its cross-covariances with the in-lag earlier parameters.
``FixedLagAccumulator.moments`` sums them into the ``PosteriorMoments`` of
``sum_t theta_t`` with ``horizon = T``, and ``general``'s rescalers turn
those into score and observed information estimates for the original model,
as they do for one perturbed parameter.

Covariance is bilinear, so ``sum_s Cov_w(theta_s, theta_t)`` over the lag
window equals ``Cov_w(S_t, theta_t)`` with ``S_t`` the window sum of the
parameters along each particle's ancestral line: one cross-covariance per
read-off, whatever the lag.  ``S_t`` and the draw itself are differences of
prefix sums ``P_k = sum_{s<k} (theta_s - theta)`` of the centred draws taken
along the ancestral line: ``S_t = P_t - P_f`` with ``f = max(0, t - lag)``,
and ``theta_t - theta = P_{t+1} - P_t``.  Centring keeps both differences
at the scale of the draws.

The prefix sums live in a ring of ``slots = min(2*lag + 2, T + 1)`` slots
(prefix ``k`` in slot ``k % slots``), one ``(d, n)`` float64 buffer per slot,
component-major (one contiguous row of ``n`` per coordinate).  Slot ``k`` is
written at step ``k - 1`` for the particles alive then, its generation.
Separate slot buffers need no single ``slots * d * n`` block, which a
fragmented heap may not have free.  A live slot holds ``P_k`` in one of two
particle orders, set by a checkpoint generation ``base``:

* the slots of generations up to ``base`` are indexed by the ``base``
  particles;
* the slots written since ``base`` are indexed by their own generation's
  particles.

A ``cursor`` maps the current particles to their ``base`` ancestors
(``None`` while it is the identity), and the ancestors drawn since ``base``
are kept as int32.  Looking a prefix up is one gather,
``values[k].take(cursor, axis=1)``, or the slot itself while the cursor is
``None``.  Resampling costs one ``n``-gather of the cursor, and the ring
write at step ``u`` reads slot ``u`` through the last ancestors directly.  A
read-off at step ``u`` touches only slots of generation ``<= u - lag``, so
the ring is rebased on the current particles once ``base`` falls behind
that, every ``lag + 1`` steps, and at the last step, whose tail read-offs
reach the newest slot.  The rebase gathers the slots written since ``base``
through the stored ancestors, composed backwards from the newest and each
released as it is used, and the older live slots through the cursor.  Each
slot costs one ``O(d n)`` gather per rebase, so the bookkeeping costs
``O(d n)`` per step amortized, whatever the lag.  A gather moves floats
without changing them, so every prefix and every difference is the same
float a ring of per-particle paths would hold.  At lag 0 there is no window
and the read-off uses the current draws directly, without a ring.

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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .general import PosteriorMoments, observed_info_from_moments, score_from_moments
from .perturbation import PerturbationKernel, make_gaussian_kernel
from .results import InfoEstimate, ScoreEstimate, _write_csv
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
    """

    theta: np.ndarray
    tau: float
    kernel: PerturbationKernel
    lag: int
    n_particles: int
    resampling: str = "multinomial"
    ess_threshold: Optional[float] = None

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
    ``s`` with ``1 <= t - s <= lag`` (zero when there is no such ``s``),
    computed as one cross-covariance of the window sum; the observed
    information needs only that sum.  ``readoff_horizon[t]`` records the
    1-based step whose weights produced the read-off (``min(t + 1 + lag,
    T)`` by construction).  ``loglik_estimate`` is the filter's
    log-likelihood estimate and ``ess_trace[u]`` the effective sample size
    at 1-based step ``u + 1``.
    """

    means: np.ndarray
    covariances: np.ndarray
    pair_sums: np.ndarray
    loglik_estimate: float
    readoff_horizon: np.ndarray
    ess_trace: np.ndarray

    @property
    def horizon(self) -> int:
        return self.means.shape[0]

    def is_complete(self) -> bool:
        """True when every per-time slot was filled."""
        return not any(
            np.any(np.isnan(a)) for a in (self.means, self.covariances, self.pair_sums)
        )

    def moments(self) -> PosteriorMoments:
        """Posterior moments of ``sum_t theta_t`` over the ``T`` steps.

        The mean is ``sum_t mean_t`` and the covariance ``sum_t var_t +
        sum_t (A_t + A_t.T)`` with ``A_t = pair_sums[t]``.  The pair sum
        symmetrizes each cross-covariance instead of doubling it, which is
        exact for the true posterior and keeps the covariance symmetric.
        ``horizon = T``, so the rescalers take ``T tau^2 Sigma`` as the
        prior term.
        """
        if not self.is_complete():
            raise ValueError("accumulator is incomplete; run the filter to horizon")
        pairs = self.pair_sums.sum(axis=0)
        return PosteriorMoments(
            mean=self.means.sum(axis=0),
            covariance=self.covariances.sum(axis=0) + (pairs + pairs.T),
            horizon=self.horizon,
        )

    def save_moments_csv(self, path) -> None:
        """Rows ``t,component,mean,var_diag`` with 1-based indices."""
        entries = [
            (t + 1, i + 1, self.means[t, i], self.covariances[t, i, i])
            for t, i in np.ndindex(self.means.shape)
        ]
        _write_csv(path, ("t", "component", "mean", "var_diag"), entries)


def resample(weights, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """Draw ancestor indices under the given scheme.

    Multinomial draws i.i.d. categorical ancestors; systematic uses a single
    uniform and stratified inversion.  Both are unbiased in expected
    offspring counts.  The multinomial positions are the order statistics
    of ``n`` uniforms, made in O(n) from normalised cumulative sums of
    ``n + 1`` standard exponentials, so under either scheme the positions
    are sorted and the returned ancestors are nondecreasing.
    """
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    # a NaN fails the min test; +inf (alone or beside -inf) makes the sum inf or NaN
    if not (weights.min() >= 0.0 and total < np.inf):
        raise ValueError("weights must be finite and non-negative")
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
) -> FixedLagAccumulator:
    """Run the extended bootstrap filter and accumulate fixed-lag moments.

    At each step the parameter is drawn fresh from the prior centered at
    ``config.theta``, the state propagates under it, and particles are
    weighted by the observation density.  Read-off for time ``t`` happens at
    step ``min(t + lag, T)``; remaining slots are flushed at the final step.
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
        base, cursor = 0, None
        since = []  # int32 ancestors of steps base+1.., None where none were drawn
    means = np.full((horizon, d), np.nan)
    covariances = np.full((horizon, d, d), np.nan)
    pair_sums = np.full((horizon, d, d), np.nan)
    readoff_horizon = np.zeros(horizon, dtype=np.int64)
    ess_trace = np.empty(horizon)
    loglik = 0.0
    log_prev = None  # None encodes uniform weights from the last resampling
    x = None
    ancestors = None  # of the previous step; None when it did not resample

    def prefix(k):
        """``P_k`` of the current particles, ``(d, n)``."""
        p_k = values[k % slots]
        return p_k if cursor is None else p_k.take(cursor, axis=1)

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
        top = logg.max()  # NaN if any entry is NaN
        if not top < np.inf:
            raise ValueError(f"obs_logdensity returned NaN or +inf at step {u + 1}")
        if log_prev is None:
            logw = logg
        else:
            logw = log_prev + logg
            top = logw.max()
        if top == -np.inf:
            raise ParticleCollapseError(step=u + 1)
        w, lse = kernels.normalize_log_weights(logw)
        loglik += lse - (math.log(n) if log_prev is None else 0.0)
        ess_trace[u] = 1.0 / float(w @ w)

        if lag:
            new = (u + 1) % slots
            p_u = values[u % slots]
            if ancestors is not None:
                p_u = p_u.take(ancestors, axis=1)
            np.add(p_u, thetas.T - theta[:, None], out=values[new])
            if u - lag > base or u == horizon - 1:
                # rebase: index every live slot by the current particles
                path = None  # current particles -> the generation of slot k
                for k in range(u, base + 1, -1):
                    a = since.pop()  # the ancestors drawn at step k - 1
                    if a is not None:
                        path = a if path is None else a.take(path)
                    if path is not None:
                        values[k % slots] = values[k % slots].take(path, axis=1)
                if cursor is not None:
                    # read-offs from step u on reach back to prefix u - 2*lag
                    for k in range(max(0, u - 2 * lag), base + 2):
                        values[k % slots] = values[k % slots].take(cursor, axis=1)
                base, cursor = u, None

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
            log_prev = None
        else:
            ancestors = None
            log_prev = logw - lse
        if lag:
            if u > base:  # the ancestors drawn at base itself live in the cursor
                since.append(ancestors if ancestors is None else ancestors.astype(np.int32))
            if ancestors is not None:
                cursor = ancestors if cursor is None else cursor.take(ancestors)

    return FixedLagAccumulator(
        means=means,
        covariances=covariances,
        pair_sums=pair_sums,
        loglik_estimate=loglik,
        readoff_horizon=readoff_horizon,
        ess_trace=ess_trace,
    )


def score_from_accumulator(
    acc: FixedLagAccumulator, theta, tau: float, sigma: PerturbationKernel
) -> ScoreEstimate:
    """Assemble the score: ``Sigma^-1 (sum_t mean_t - T theta) / tau^2``."""
    return score_from_moments(acc.moments(), theta, tau, sigma)


def observed_info_from_accumulator(
    acc: FixedLagAccumulator, tau: float, sigma: PerturbationKernel
) -> InfoEstimate:
    """Assemble the observed information from variances and in-lag pairs:
    ``Sigma^-1 (T tau^2 Sigma - Cov(sum_t theta_t)) Sigma^-1 / tau^4``."""
    return observed_info_from_moments(acc.moments(), tau, sigma)


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
    filter.  A ``tau = 0`` draw consumes no randomness, so ``rng`` feeds
    only the model's dynamics and the resampler.
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
