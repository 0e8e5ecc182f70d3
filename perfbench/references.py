"""Reference values computed without any dfscore code.

The benchmark checks the program's outputs against these:

* the exact log-likelihood of the scalar linear-Gaussian state-space model,
  from the explicit joint Gaussian of y_1:T (Cholesky of its covariance),
  differentiated by Richardson-extrapolated central differences;
* the closed-form targets of the conjugate Gaussian location model, which
  the perturbation estimators hit exactly at any shrinkage scale tau;
* Student-t quantiles, so that "k standard errors" keeps the two-sided tail
  of a normal k-sigma band when only a few replicates exist.
"""

from __future__ import annotations

import math

import numpy as np

NORMAL_4SD_TAIL = math.erfc(4.0 / math.sqrt(2.0))  # two-sided, about 6.3e-5


def lgssm_loglik(ys, phi, sigma_v, sigma_w, m0, p0) -> float:
    """Log-density of y_1:T for x_1 ~ N(m0, p0), x_t+1 = phi x_t + sigma_v v_t,
    y_t = x_t + sigma_w w_t, from the explicit T x T covariance."""
    ys = np.asarray(ys, dtype=np.float64)
    big_t = ys.size
    var_x = np.empty(big_t)
    mean_x = np.empty(big_t)
    var_x[0], mean_x[0] = p0, m0
    for t in range(1, big_t):
        var_x[t] = phi * phi * var_x[t - 1] + sigma_v * sigma_v
        mean_x[t] = phi * mean_x[t - 1]
    idx = np.arange(big_t)
    lo = np.minimum.outer(idx, idx)
    gap = np.abs(np.subtract.outer(idx, idx))
    cov = var_x[lo] * np.power(phi, gap) + sigma_w * sigma_w * np.eye(big_t)
    chol = np.linalg.cholesky(cov)
    alpha = np.linalg.solve(chol, ys - mean_x)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(-0.5 * (big_t * math.log(2.0 * math.pi) + logdet + alpha @ alpha))


def lgssm_free_loglik(ys, init_mean=0.0, init_sd=1.0, log_sigma_w=0.0):
    """Log-likelihood as a function of theta = (phi, log_sigma_v), with the
    observation scale pinned and a fixed initial law (the benchmark's model)."""

    def f(theta):
        phi, log_sv = theta
        return lgssm_loglik(
            ys, phi, math.exp(log_sv), math.exp(log_sigma_w), init_mean, init_sd**2
        )

    return f


def richardson_derivatives(f, theta, h=0.01, levels=3):
    """Gradient and negated Hessian of a smooth scalar ``f`` at ``theta``.

    Central differences at steps h, h/2, ..., h/2**(levels-1), combined in a
    Romberg table; each level cancels the next even power of the step, so the
    result is exact on polynomials of degree 2*levels + 1.
    """
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.size
    f0 = f(theta)
    unit = np.eye(d)

    def extrapolate(diff):
        row = [diff(h / 2.0**k) for k in range(levels)]
        for m in range(1, levels):
            factor = 4.0**m
            row = [(factor * row[k + 1] - row[k]) / (factor - 1.0) for k in range(len(row) - 1)]
        return row[0]

    grad = np.empty(d)
    hess = np.empty((d, d))
    for r in range(d):
        e = unit[r]
        grad[r] = extrapolate(lambda s: (f(theta + s * e) - f(theta - s * e)) / (2.0 * s))
        hess[r, r] = extrapolate(
            lambda s: (f(theta + s * e) - 2.0 * f0 + f(theta - s * e)) / (s * s)
        )
    for r in range(d):
        for c in range(r + 1, d):
            a, b = unit[r], unit[c]
            hess[r, c] = hess[c, r] = extrapolate(
                lambda s: (
                    f(theta + s * (a + b))
                    - f(theta + s * (a - b))
                    - f(theta - s * (a - b))
                    + f(theta - s * (a + b))
                )
                / (4.0 * s * s)
            )
    return grad, -hess


def conjugate_targets(theta, y, obs_sd, tau, sigmas):
    """Score and information the perturbation estimators hit exactly on the
    Gaussian location model: (y - theta_i) / (obs_sd^2 + tau^2 sigma_i^2) and
    diag(1 / (obs_sd^2 + tau^2 sigma_i^2))."""
    theta = np.asarray(theta, dtype=np.float64)
    denom = obs_sd**2 + tau**2 * np.asarray(sigmas, dtype=np.float64) ** 2
    return (y - theta) / denom, np.diag(1.0 / denom)


def student_t_two_sided_tail(x: float, dof: int) -> float:
    """P(|T| > x) for Student's t with integer ``dof`` (Abramowitz & Stegun
    26.7.3-4, exact finite series)."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    x = abs(x)
    th = math.atan(x / math.sqrt(dof))
    c2 = math.cos(th) ** 2
    if dof % 2 == 1:
        if dof == 1:
            inside = 2.0 * th / math.pi
        else:
            term = total = 1.0
            for k in range(1, (dof - 1) // 2):
                term *= c2 * (2.0 * k) / (2.0 * k + 1.0)
                total += term
            inside = 2.0 / math.pi * (th + math.sin(th) * math.cos(th) * total)
    else:
        term = total = 1.0
        for k in range(1, dof // 2):
            term *= c2 * (2.0 * k - 1.0) / (2.0 * k)
            total += term
        inside = math.sin(th) * total
    return max(0.0, 1.0 - inside)


def t_multiplier(tail: float, dof: int) -> float:
    """Half-width, in standard errors, of the two-sided band with tail mass
    ``tail`` for a mean estimated from ``dof + 1`` replicates."""
    lo, hi = 0.0, 1.0
    while student_t_two_sided_tail(hi, dof) > tail:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_two_sided_tail(mid, dof) > tail:
            lo = mid
        else:
            hi = mid
    return hi
