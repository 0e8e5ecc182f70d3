"""Numeric hot kernels: numba-jitted fast path with a pure-numpy fallback.

The backend is fixed at import time.  Numba is used when it is importable
and the environment variable ``DFSCORE_NUMBA`` is not set to ``0``,
``false`` or ``off``.  Both implementations stay importable side by side
(``*_np`` and ``*_nb`` names) so tests can assert agreement between them.

All kernels are pure array-in/array-out functions.  Input validation and
random-number generation happen in the callers; this keeps the jitted code
free of Python objects and makes results independent of the backend up to
floating-point summation order.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "backend",
    "normalize_log_weights",
    "weighted_mean_cov",
    "weighted_crosscov",
    "inverse_cdf_indices",
    "kalman_loglik_core",
]


def _numba_wanted() -> bool:
    value = os.environ.get("DFSCORE_NUMBA", "1").strip().lower()
    return value not in ("0", "false", "off")


try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    njit = None
    _HAVE_NUMBA = False

_USE_NUMBA = _HAVE_NUMBA and _numba_wanted()


def backend() -> str:
    """Name of the active kernel backend, ``"numba"`` or ``"numpy"``."""
    return "numba" if _USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def normalize_log_weights_np(logw):
    """Self-normalized weights from log-weights, plus their log-sum-exp.

    Returns ``(w, lse)`` with ``w = exp(logw - lse)`` summing to one up to
    round-off and ``lse = log(sum(exp(logw)))``.  Max-shifted so peaked
    log-weights do not overflow.  Callers must reject all ``-inf`` input.
    """
    m = np.max(logw)
    shifted = np.exp(logw - m)
    s = shifted.sum()
    return shifted / s, m + np.log(s)


def weighted_mean_cov_np(x, w):
    """Weighted mean and plug-in covariance of rows of ``x``.

    ``x`` is ``(n, d)``, ``w`` a normalized weight vector.  The covariance
    is mirrored from its upper triangle so the output is symmetric
    bit-for-bit.
    """
    mean = w @ x
    dx = x - mean
    cov = (dx * w[:, None]).T @ dx
    d = cov.shape[0]
    for a in range(d):
        for b in range(a + 1, d):
            cov[b, a] = cov[a, b]
    return mean, cov


def weighted_crosscov_np(xs, xt, w):
    """Weighted plug-in cross-covariance between rows of ``xs`` and ``xt``."""
    dxs = xs - w @ xs
    dxt = xt - w @ xt
    return (dxs * w[:, None]).T @ dxt


def inverse_cdf_indices_np(cumw, positions):
    """Map uniform positions through the inverse CDF given by ``cumw``.

    ``cumw`` is a cumulative weight vector ending at ~1.  Returns, for each
    position, the smallest index whose cumulative weight reaches it.
    """
    idx = np.searchsorted(cumw, positions, side="left")
    return np.minimum(idx, cumw.shape[0] - 1).astype(np.int64)


def kalman_loglik_core_np(ys, phi, sv2, sw2, m0, p0):
    """Prediction-error-decomposition log-likelihood of a scalar AR(1)+noise.

    ``ys`` is the (T,) observation array; ``sv2``/``sw2`` are the state and
    observation noise variances, ``(m0, p0)`` the moments of the initial
    state.
    """
    log2pi = np.log(2.0 * np.pi)
    m_pred = m0
    p_pred = p0
    loglik = 0.0
    for t in range(ys.shape[0]):
        s = p_pred + sw2
        e = ys[t] - m_pred
        loglik += -0.5 * (log2pi + np.log(s) + e * e / s)
        gain = p_pred / s
        m_filt = m_pred + gain * e
        p_filt = p_pred * (1.0 - gain)
        m_pred = phi * m_filt
        p_pred = phi * phi * p_filt + sv2
    return loglik


# ---------------------------------------------------------------------------
# numba twins
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:

    @njit(cache=True)
    def normalize_log_weights_nb(logw):
        n = logw.shape[0]
        m = logw[0]
        for i in range(1, n):
            if logw[i] > m:
                m = logw[i]
        w = np.empty(n)
        s = 0.0
        for i in range(n):
            w[i] = np.exp(logw[i] - m)
            s += w[i]
        for i in range(n):
            w[i] /= s
        return w, m + np.log(s)

    @njit(cache=True)
    def weighted_mean_cov_nb(x, w):
        n, d = x.shape
        mean = np.zeros(d)
        for i in range(n):
            for a in range(d):
                mean[a] += w[i] * x[i, a]
        cov = np.zeros((d, d))
        for i in range(n):
            for a in range(d):
                dxa = x[i, a] - mean[a]
                for b in range(a, d):
                    cov[a, b] += w[i] * dxa * (x[i, b] - mean[b])
        for a in range(d):
            for b in range(a + 1, d):
                cov[b, a] = cov[a, b]
        return mean, cov

    @njit(cache=True)
    def weighted_crosscov_nb(xs, xt, w):
        n, d = xs.shape
        ms = np.zeros(d)
        mt = np.zeros(d)
        for i in range(n):
            for a in range(d):
                ms[a] += w[i] * xs[i, a]
                mt[a] += w[i] * xt[i, a]
        c = np.zeros((d, d))
        for i in range(n):
            for a in range(d):
                dxs = xs[i, a] - ms[a]
                for b in range(d):
                    c[a, b] += w[i] * dxs * (xt[i, b] - mt[b])
        return c

    @njit(cache=True)
    def inverse_cdf_indices_nb(cumw, positions):
        idx = np.searchsorted(cumw, positions, side="left")
        out = np.empty(positions.shape[0], dtype=np.int64)
        last = cumw.shape[0] - 1
        for i in range(positions.shape[0]):
            out[i] = idx[i] if idx[i] < last else last
        return out

    @njit(cache=True)
    def kalman_loglik_core_nb(ys, phi, sv2, sw2, m0, p0):
        log2pi = np.log(2.0 * np.pi)
        m_pred = m0
        p_pred = p0
        loglik = 0.0
        for t in range(ys.shape[0]):
            s = p_pred + sw2
            e = ys[t] - m_pred
            loglik += -0.5 * (log2pi + np.log(s) + e * e / s)
            gain = p_pred / s
            m_filt = m_pred + gain * e
            p_filt = p_pred * (1.0 - gain)
            m_pred = phi * m_filt
            p_pred = phi * phi * p_filt + sv2
        return loglik


if _USE_NUMBA:
    normalize_log_weights = normalize_log_weights_nb
    weighted_mean_cov = weighted_mean_cov_nb
    weighted_crosscov = weighted_crosscov_nb
    inverse_cdf_indices = inverse_cdf_indices_nb
    kalman_loglik_core = kalman_loglik_core_nb
else:
    normalize_log_weights = normalize_log_weights_np
    weighted_mean_cov = weighted_mean_cov_np
    weighted_crosscov = weighted_crosscov_np
    inverse_cdf_indices = inverse_cdf_indices_np
    kalman_loglik_core = kalman_loglik_core_np


def warm_up() -> None:
    """Trigger JIT compilation of every kernel (no-op on the numpy path)."""
    logw = np.array([-0.5, -1.0, -0.25])
    w, _ = normalize_log_weights(logw)
    x = np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.05]])
    weighted_mean_cov(x, w)
    weighted_crosscov(x, x, w)
    inverse_cdf_indices(np.cumsum(w), np.array([0.1, 0.6]))
    kalman_loglik_core(np.array([0.4, -0.2]), 0.5, 1.0, 1.0, 0.0, 1.0)
