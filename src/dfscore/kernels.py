"""Numeric hot kernels in numpy.

Weight normalization, weighted moments and cross-covariances, inverse-CDF
resampling indices, and the scalar Kalman recursion.  All kernels are pure
array-in/array-out functions; input validation and random-number generation
happen in the callers.

The moment kernels take particles as ``(n, d)`` arrays but compute on the
component-major ``(d, n)`` layout: each input is first brought to a
C-contiguous ``(d, n)`` array with ``np.ascontiguousarray(x.T)``, which is
free for the transposed views the samplers and the filter pass and a copy
otherwise.  Their output bits therefore do not depend on the input's memory
layout.  They never write into their inputs, which may be the caller's own
buffers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize_log_weights",
    "weighted_mean_cov",
    "weighted_crosscov",
    "inverse_cdf_indices",
    "kalman_loglik_core",
]


def normalize_log_weights(logw):
    """Self-normalized weights from log-weights, plus their log-sum-exp.

    Returns ``(w, lse)`` with ``w = exp(logw - lse)`` summing to one up to
    round-off and ``lse = log(sum(exp(logw)))``.  Max-shifted so peaked
    log-weights do not overflow.  Callers must reject all ``-inf`` input.
    """
    m = np.max(logw)
    shifted = np.exp(logw - m)
    s = shifted.sum()
    return shifted / s, m + np.log(s)


def weighted_mean_cov(x, w):
    """Weighted mean and plug-in covariance of rows of ``x``.

    ``x`` is ``(n, d)``, ``w`` a normalized non-negative weight vector.
    The centred particles are scaled by ``sqrt(w)`` in place, so the
    covariance is one Gram product with no second ``(d, n)`` temporary.  It
    is mirrored from its upper triangle so the output is symmetric
    bit-for-bit.
    """
    cols = np.ascontiguousarray(x.T)
    mean = cols @ w
    dx = cols - mean[:, None]
    dx *= np.sqrt(w)
    cov = dx @ dx.T
    d = cov.shape[0]
    for a in range(d):
        for b in range(a + 1, d):
            cov[b, a] = cov[a, b]
    return mean, cov


def weighted_crosscov(xs, xt, w):
    """Weighted plug-in cross-covariance between rows of ``xs`` and ``xt``."""
    a = np.ascontiguousarray(xs.T)
    b = np.ascontiguousarray(xt.T)
    da = a - (a @ w)[:, None]
    da *= w
    db = b - (b @ w)[:, None]
    return da @ db.T


def inverse_cdf_indices(cumw, positions):
    """Map uniform positions through the inverse CDF given by ``cumw``.

    ``cumw`` is a cumulative weight vector ending at ~1.  Returns, for each
    position, the smallest index whose cumulative weight reaches it.
    """
    idx = np.searchsorted(cumw, positions, side="left")
    return np.minimum(idx, cumw.shape[0] - 1).astype(np.int64)


def kalman_loglik_core(ys, phi, sv2, sw2, m0, p0):
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
