"""Numeric hot kernels in numpy.

Weight normalization, weighted moments and cross-covariances, inverse-CDF
resampling indices, and the scalar Kalman recursion, plain and with exact
derivatives.  All kernels are pure array-in/array-out functions; input
validation and random-number generation happen in the callers.

The moment kernels take particles as ``(n, d)`` arrays but compute on the
component-major ``(d, n)`` layout: each input is first brought to a
C-contiguous ``(d, n)`` array with ``np.ascontiguousarray(x.T)``, which is
free for the transposed views the samplers and the filter pass and a copy
otherwise.  Their output bits therefore do not depend on the input's memory
layout.  A kernel writes into a caller's buffer only when that buffer is
passed as ``out``; otherwise it never writes into its inputs, which may be
the caller's own buffers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize_log_weights",
    "weighted_mean_cov",
    "weighted_crosscov",
    "inverse_cdf_indices",
    "kalman_loglik_core",
    "kalman_loglik_jet",
]

_BLOCK_ROWS = 1 << 15  # rows per block of every streamed pass, sized for L2


def normalize_log_weights(logw, out=None):
    """Self-normalized weights from log-weights, plus their log-sum-exp.

    Returns ``(w, lse)`` with ``w = exp(logw - lse)`` summing to one up to
    round-off and ``lse = log(sum(exp(logw)))``.  Max-shifted so peaked
    log-weights do not overflow.  Callers must reject all ``-inf`` input.
    As in numpy, ``out`` is an array to write ``w`` into and return; passing
    ``out=logw`` overwrites the log-weights and allocates nothing, with the
    same output bits.
    """
    m = np.max(logw)
    w = np.subtract(logw, m, out=out)
    np.exp(w, out=w)
    s = w.sum()
    w /= s
    return w, m + np.log(s)


def weighted_mean_cov(x, w):
    """Weighted mean and plug-in covariance of rows of ``x``.

    ``x`` is ``(n, d)``, ``w`` a normalized non-negative weight vector.
    The mean is one product over all rows.  The Gram product is summed over
    blocks of ``_BLOCK_ROWS`` rows, each centred into a block-sized buffer
    and scaled by ``sqrt(w)`` in place.  The covariance is mirrored from its
    upper triangle so the output is symmetric bit-for-bit.
    """
    cols = np.ascontiguousarray(x.T)
    mean = cols @ w
    for start in range(0, cols.shape[1], _BLOCK_ROWS):
        dx = cols[:, start : start + _BLOCK_ROWS] - mean[:, None]
        dx *= np.sqrt(w[start : start + _BLOCK_ROWS])
        gram = dx @ dx.T
        cov = gram if start == 0 else cov + gram
    for a in range(1, mean.size):
        cov[a, :a] = cov[:a, a]
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
    position, the smallest index whose cumulative weight reaches it.  A
    position past ``cumw[-1]`` (round-off) maps to the first index that
    reaches ``cumw[-1]``, so trailing zero-weight particles are never picked.
    """
    idx = np.searchsorted(cumw, positions, side="left")
    last = np.searchsorted(cumw, cumw[-1], side="left")
    return np.minimum(idx, last, out=idx).astype(np.int64, copy=False)


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


# A jet is a tuple of 10 entries over the raw parameters u = (phi, sv2, sw2):
# the value, the gradient and the Hessian's upper triangle (00, 01, 02, 11,
# 12, 22).  Entries are floats, or length-T arrays for a batch of jets.


def _jmul(a, b):
    """Jet of the product ``a * b``."""
    a0, a1, a2, a3, a11, a12, a13, a22, a23, a33 = a
    b0, b1, b2, b3, b11, b12, b13, b22, b23, b33 = b
    return (
        a0 * b0, a0 * b1 + b0 * a1, a0 * b2 + b0 * a2, a0 * b3 + b0 * a3,
        a0 * b11 + b0 * a11 + 2.0 * a1 * b1,
        a0 * b12 + b0 * a12 + a1 * b2 + a2 * b1,
        a0 * b13 + b0 * a13 + a1 * b3 + a3 * b1,
        a0 * b22 + b0 * a22 + 2.0 * a2 * b2,
        a0 * b23 + b0 * a23 + a2 * b3 + a3 * b2,
        a0 * b33 + b0 * a33 + 2.0 * a3 * b3,
    )


def _jfun(a, f0, f1, f2):
    """Jet of ``f(a)``, given ``f``, ``f'`` and ``f''`` at the value of ``a``."""
    _, a1, a2, a3, a11, a12, a13, a22, a23, a33 = a
    return (
        f0, f1 * a1, f1 * a2, f1 * a3,
        f1 * a11 + f2 * a1 * a1, f1 * a12 + f2 * a1 * a2, f1 * a13 + f2 * a1 * a3,
        f1 * a22 + f2 * a2 * a2, f1 * a23 + f2 * a2 * a3,
        f1 * a33 + f2 * a3 * a3,
    )


def _jlin(a, b, cb=1.0):
    """Jet of the linear combination ``a + cb * b``."""
    return tuple([x + cb * y for x, y in zip(a, b)])


def _jinv(a):
    """Jet of ``1 / a``."""
    inv = 1.0 / a[0]
    return _jfun(a, inv, -inv * inv, 2.0 * inv * inv * inv)


def kalman_loglik_jet(ys, phi, sv2, sw2, m0, p0):
    """``kalman_loglik_core`` with its exact gradient and Hessian.

    Returns ``(loglik, grad, hess)`` over ``(phi, sv2, sw2)``.  ``p0=None``
    selects the stationary initial variance ``sv2 / (1 - phi^2)``.  The
    filter carries ``(m, P)`` as jets and keeps each step's innovation ``e``
    and its variance ``S``; ``log S + e^2 / S`` is then summed over arrays.
    """
    zero = (0.0,) * 9
    phi_j = (phi, 1.0) + zero[:8]
    sv2_j = (sv2, 0.0, 1.0) + zero[:7]
    sw2_j = (sw2, 0.0, 0.0, 1.0) + zero[:6]
    phi2 = _jmul(phi_j, phi_j)
    m, p = (m0,) + zero, (p0,) + zero
    if p0 is None:  # stationary: p0 = sv2 / (1 - phi^2) moves with phi and sv2
        p = _jmul(sv2_j, _jinv(_jfun(phi2, 1.0 - phi2[0], -1.0, 0.0)))
    # an array, not a list of T tuples, which would pin small-object memory
    steps = np.empty((ys.shape[0], 20))
    for t, y in enumerate(ys.tolist()):
        s = _jlin(p, sw2_j)
        e = _jfun(m, y - m[0], -1.0, 0.0)
        steps[t, :10] = s
        steps[t, 10:] = e
        gain = _jmul(p, _jinv(s))
        m = _jmul(phi_j, _jlin(m, _jmul(gain, e)))
        p = _jlin(_jmul(phi2, _jlin(p, _jmul(gain, p), -1.0)), sv2_j)
    s, e = steps.T.reshape(2, 10, -1)  # rows are the jet entries
    inv_s = 1.0 / s[0]
    log_s = _jfun(s, np.log(s[0]), inv_s, -inv_s * inv_s)
    total = [x.sum() for x in _jlin(log_s, _jmul(_jmul(e, e), _jinv(s)))]
    hess = -0.5 * np.array(total)[[[4, 5, 6], [5, 7, 8], [6, 8, 9]]]
    loglik = -0.5 * (ys.shape[0] * np.log(2.0 * np.pi) + total[0])
    return float(loglik), -0.5 * np.array(total[1:4]), hess
