"""State-space models with sample-only dynamics, plus exact linear oracles.

The model abstraction deliberately has no transition density: dynamics are
things you can simulate, nothing more.  Observation densities are pointwise
evaluable (the particle filter needs them for weighting).  The scalar
AR(1)-plus-noise model is the reference case: the Kalman recursion gives its
exact likelihood, and the same recursion carried forward with first and
second derivatives gives its exact score and observed information, which is
what the acceptance checks compare against.  The cubic-shock AR(1) is the
same wiring with its transition sampler swapped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Optional

import numpy as np

from . import kernels
from .results import _write_csv

__all__ = [
    "StateSpaceModel",
    "simulate",
    "save_observations",
    "load_observations",
    "LinearGaussianSSM",
    "ParameterDomainError",
    "kalman_loglik",
    "KalmanDerivatives",
    "kalman_score_info",
    "make_nonlinear_shock_model",
]

PARAM_NAMES = ("phi", "log_sigma_v", "log_sigma_w")
_LOG_2PI = np.log(2.0 * np.pi)


class ParameterDomainError(ValueError):
    """A parameter value lies outside the model's domain.

    Raised per run (for instance when a perturbed draw leaves the stationary
    region), so the harness records it as a failed run instead of aborting.
    """


@dataclass(frozen=True)
class StateSpaceModel:
    """Latent Markov chain observed through a pointwise density.

    All callables are vectorized over particles: ``thetas`` is ``(n, d)``,
    states are arrays with leading dimension ``n``.  ``thetas`` may be the
    transposed view of a component-major ``(d, n)`` buffer, as the filter's
    draws are: index it by column (``thetas[:, i]``), do not assume C order,
    and do not write into it.

    ``init_sampler(thetas, rng)`` draws x_1, ``transition_sampler(states,
    thetas, rng)`` advances one step, ``obs_logdensity(y, states, thetas)``
    returns per-particle log observation densities.  ``obs_sampler`` is only
    needed for data simulation.
    """

    param_dim: int
    init_sampler: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    transition_sampler: Callable[
        [np.ndarray, np.ndarray, np.random.Generator], np.ndarray
    ]
    obs_logdensity: Callable[[Any, np.ndarray, np.ndarray], np.ndarray]
    obs_sampler: Optional[
        Callable[[np.ndarray, np.ndarray, np.random.Generator], np.ndarray]
    ] = None


def simulate(model: StateSpaceModel, theta, horizon: int, rng: np.random.Generator):
    """Forward-simulate ``horizon`` steps; returns (states, observations)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if model.obs_sampler is None:
        raise ValueError("model has no obs_sampler; cannot simulate observations")
    thetas = np.atleast_1d(np.asarray(theta, dtype=np.float64))[None, :]
    states = []
    ys = []
    x = model.init_sampler(thetas, rng)
    for _ in range(horizon):
        ys.append(model.obs_sampler(x, thetas, rng)[0])
        states.append(x[0])
        x = model.transition_sampler(x, thetas, rng)
    return np.asarray(states), np.asarray(ys)


def save_observations(path, ys) -> None:
    """Write observations as CSV rows ``t,y`` (t is 1-based), full precision."""
    _write_csv(path, ("t", "y"), enumerate(np.asarray(ys, dtype=np.float64), start=1))


def load_observations(path) -> np.ndarray:
    """Read a ``t,y`` observation CSV back into a float array.

    The one definition of a valid observation file: the header ``t,y``, then
    one or more rows ``t,y`` with ``t`` = 1, 2, ..., T in order and every
    ``y`` finite.  Any other file raises ``ValueError``.
    """
    ys = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["t", "y"]:
            raise ValueError(f"unexpected observation CSV header: {header}")
        for t, row in enumerate(reader, start=1):
            if len(row) != 2 or row[0] != str(t):
                raise ValueError(f"{path} line {reader.line_num}: expected {t},y, got {row}")
            y = float(row[1])
            if not math.isfinite(y):
                raise ValueError(f"{path}: observation t={t} is {y}, not finite")
            ys.append(y)
    if not ys:
        raise ValueError(f"{path} holds no observations")
    return np.array(ys)


class ParameterNameError(ValueError):
    """``free`` and ``fixed`` do not name each model parameter exactly once."""


@dataclass(frozen=True)
class LinearGaussianSSM:
    """Scalar AR(1) state plus Gaussian observation noise.

    x_1 ~ N(m0, p0), x_{t+1} = phi x_t + sigma_v v_t, y_t = x_t + sigma_w w_t.
    ``init="stationary"`` uses m0=0, p0 = sigma_v^2/(1-phi^2) and requires
    |phi| < 1; ``init="fixed"`` uses (init_mean, init_sd^2) and places no
    constraint on phi, which keeps per-particle perturbed parameters valid.
    """

    free: tuple = PARAM_NAMES
    fixed: Mapping[str, float] = field(default_factory=dict)
    init: str = "stationary"
    init_mean: float = 0.0
    init_sd: float = 1.0

    def __post_init__(self):
        if self.init not in ("stationary", "fixed"):
            raise ValueError("init must be 'stationary' or 'fixed'")
        if self.init == "fixed" and self.init_sd <= 0.0:
            raise ValueError("init_sd must be > 0")
        free = tuple(self.free)
        for name in free:
            if name not in PARAM_NAMES:
                raise ParameterNameError(f"unknown parameter name {name!r}")
        if len(set(free)) != len(free):
            raise ParameterNameError("duplicate names in free")
        for name in self.fixed:
            if name not in PARAM_NAMES:
                raise ParameterNameError(f"unknown parameter name {name!r}")
        missing = [n for n in PARAM_NAMES if n not in free and n not in self.fixed]
        if missing:
            raise ParameterNameError(f"parameters neither free nor fixed: {missing}")
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "fixed", dict(self.fixed))

    @property
    def param_dim(self) -> int:
        return len(self.free)

    def _readers(self):
        """One ``thetas -> value`` map for each of (phi, sigma_v, sigma_w),
        broadcast over the rows of ``thetas``: a ``free`` column, or a
        ``fixed`` value computed here once; scales enter via log."""
        readers = []
        for name in PARAM_NAMES:
            log_scale = name.startswith("log_")
            if name in self.free:
                i = self.free.index(name)
                if log_scale:
                    readers.append(lambda thetas, i=i: np.exp(thetas[..., i]))
                else:
                    readers.append(lambda thetas, i=i: thetas[..., i])
            else:
                value = np.float64(self.fixed[name])
                value = np.exp(value) if log_scale else value
                readers.append(lambda thetas, value=value: value)
        return tuple(readers)

    def params(self, theta):
        """Scalar (phi, sigma_v, sigma_w) at a single parameter vector."""
        theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        if theta.shape != (self.param_dim,):
            raise ValueError(f"theta must have shape ({self.param_dim},)")
        phi, sv, sw = (read(theta) for read in self._readers())
        self._check_phi(phi)
        return float(phi), float(sv), float(sw)

    def _check_phi(self, phi) -> None:
        if self.init == "stationary" and np.any(np.abs(phi) >= 1.0):
            raise ParameterDomainError(
                "stationary initial law needs |phi| < 1; use init='fixed' or "
                "a smaller perturbation scale"
            )

    def init_moments(self, phi, sigma_v):
        if self.init == "stationary":
            return 0.0, sigma_v**2 / (1.0 - phi**2)
        return self.init_mean, self.init_sd**2

    def state_space(self) -> StateSpaceModel:
        """The sampling interface used by the particle filter.

        Each callable computes only the parameters it reads; a fixed one,
        and the log of a fixed sigma_w, are computed once here.
        """
        phi_of, sv_of, sw_of = self._readers()
        # a fixed reader ignores thetas; log(exp(.)) is the float the free path takes
        log_sw = None if "log_sigma_w" in self.free else np.log(sw_of(None))

        def init_sampler(thetas, rng):
            phi = phi_of(thetas)
            self._check_phi(phi)
            if self.init == "stationary":
                sd0 = sv_of(thetas) / np.sqrt(1.0 - phi**2)
                m0 = 0.0
            else:
                sd0 = self.init_sd
                m0 = self.init_mean
            return m0 + sd0 * rng.standard_normal(thetas.shape[0])

        def transition_sampler(states, thetas, rng):
            return phi_of(thetas) * states + sv_of(thetas) * rng.standard_normal(states.shape[0])

        def obs_logdensity(y, states, thetas):
            sw = sw_of(thetas)
            e = (y - states) / sw
            return -0.5 * (_LOG_2PI + e * e) - (np.log(sw) if log_sw is None else log_sw)

        def obs_sampler(states, thetas, rng):
            return states + sw_of(thetas) * rng.standard_normal(states.shape[0])

        return StateSpaceModel(
            param_dim=self.param_dim,
            init_sampler=init_sampler,
            transition_sampler=transition_sampler,
            obs_logdensity=obs_logdensity,
            obs_sampler=obs_sampler,
        )


def kalman_loglik(model: LinearGaussianSSM, theta, ys) -> float:
    """Exact log-likelihood via the prediction error decomposition."""
    phi, sv, sw = model.params(theta)
    m0, p0 = model.init_moments(phi, sv)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    return float(kernels.kalman_loglik_core(ys, phi, sv**2, sw**2, m0, p0))


@dataclass(frozen=True)
class KalmanDerivatives:
    """Exact score and observed information of the Kalman log-likelihood."""

    score: np.ndarray
    info: np.ndarray


def kalman_score_info(model: LinearGaussianSSM, theta, ys) -> KalmanDerivatives:
    """Score and observed information of the exact Kalman log-likelihood.

    Chains ``kernels.kalman_loglik_jet`` over u = (phi, sv2, sw2) to theta,
    with du/dtheta = (1, 2 sv2, 2 sw2) and d2u/dtheta2 = (0, 4 sv2, 4 sw2),
    and keeps the free coordinates.
    """
    phi, sv, sw = model.params(theta)
    sv2, sw2 = sv**2, sw**2
    m0, p0 = model.init_moments(phi, sv)
    if model.init == "stationary":
        p0 = None  # sv2 / (1 - phi^2), differentiated along with phi and sv2
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    _, grad, hess = kernels.kalman_loglik_jet(ys, phi, sv2, sw2, m0, p0)
    jac = np.array([1.0, 2.0 * sv2, 2.0 * sw2])
    curv = np.array([0.0, 4.0 * sv2, 4.0 * sw2])
    hess = np.outer(jac, jac) * hess + np.diag(curv * grad)
    idx = [PARAM_NAMES.index(name) for name in model.free]
    return KalmanDerivatives(score=(jac * grad)[idx], info=-hess[np.ix_(idx, idx)])


_CUBIC_SHOCK_SCALE = np.sqrt(14.0 / 3.0)  # Var(z + z^3/3) for z ~ N(0,1)


def make_nonlinear_shock_model(
    free=("phi",),
    fixed: Optional[Mapping[str, float]] = None,
    init_mean: float = 0.0,
    init_sd: float = 1.0,
) -> StateSpaceModel:
    """AR(1) whose shocks pass through a cubic warp: sample-only dynamics.

    The transition noise is ``(z + z^3/3)`` rescaled to unit variance, for z
    standard normal.  Nothing in the package ever evaluates this transition
    density; the model exists to exercise the sample-only interface.
    Observations are ``y = x + sigma_w w`` with w standard normal.  A scale
    that is neither free nor in ``fixed`` is pinned at log-scale 0.0.
    """
    free = tuple(free)
    defaults = {name: 0.0 for name in ("log_sigma_v", "log_sigma_w") if name not in free}
    spec = LinearGaussianSSM(free, {**defaults, **(fixed or {})}, "fixed", init_mean, init_sd)
    phi_of, sv_of, _ = spec._readers()

    def transition_sampler(states, thetas, rng):
        z = rng.standard_normal(states.shape[0])
        return phi_of(thetas) * states + sv_of(thetas) * ((z + z**3 / 3.0) / _CUBIC_SHOCK_SCALE)

    return replace(spec.state_space(), transition_sampler=transition_sampler)
