"""Reference and edge-case tests for the numeric kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfscore import kernels


def _rng():
    return np.random.default_rng(1234)


def test_normalize_log_weights_matches_direct_computation():
    logw = _rng().normal(size=500) * 3.0 - 50.0
    w, lse = kernels.normalize_log_weights(logw)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    direct = np.exp(logw) / np.exp(logw).sum()
    np.testing.assert_allclose(w, direct, rtol=1e-10)
    assert lse == pytest.approx(np.log(np.exp(logw).sum()), rel=1e-12)


def test_flat_log_weights_are_bitwise_uniform():
    for n in (7, 10, 64, 1000):
        w, _ = kernels.normalize_log_weights(np.full(n, -3.71))
        assert np.all(w == 1.0 / n)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    spread=st.floats(0.0, 800.0),
    dead=st.floats(0.0, 0.9),
)
def test_normalize_log_weights_in_place_matches_a_fresh_array(seed, n, spread, dead):
    # log-weights spread over up to 800 nats, some of them -inf, at least
    # one finite; out=x must return x itself with the bits of a fresh result,
    # and without out the input must stay untouched
    rng = np.random.default_rng(seed)
    x = rng.uniform(-spread, 0.0, size=n) + rng.normal(size=n) - 40.0
    x[rng.random(n) < dead] = -np.inf
    x[rng.integers(n)] = rng.normal()
    kept = x.copy()
    w, lse = kernels.normalize_log_weights(x)
    assert np.array_equal(x, kept)
    w_in_place, lse_in_place = kernels.normalize_log_weights(x, out=x)
    assert w_in_place is x
    assert np.array_equal(w_in_place, w)
    assert lse_in_place == lse


def test_weighted_mean_cov_against_numpy_reference():
    rng = _rng()
    x = rng.normal(size=(400, 3))
    w = rng.random(400)
    w /= w.sum()
    mean, cov = kernels.weighted_mean_cov(x, w)
    np.testing.assert_allclose(mean, w @ x, rtol=1e-12)
    dx = x - w @ x
    np.testing.assert_allclose(cov, (dx * w[:, None]).T @ dx, rtol=1e-10)
    assert np.array_equal(cov, cov.T)


def test_weighted_crosscov_reference():
    rng = _rng()
    xs = rng.normal(size=(300, 2))
    xt = rng.normal(size=(300, 2))
    w = rng.random(300)
    w /= w.sum()
    c = kernels.weighted_crosscov(xs, xt, w)
    dxs = xs - w @ xs
    dxt = xt - w @ xt
    np.testing.assert_allclose(c, (dxs * w[:, None]).T @ dxt, rtol=1e-10)


def test_inverse_cdf_indices_basic_and_clipping():
    cumw = np.array([0.2, 0.5, 1.0])
    idx = kernels.inverse_cdf_indices(cumw, np.array([0.1, 0.2, 0.3, 0.99, 1.0]))
    np.testing.assert_array_equal(idx, [0, 0, 1, 2, 2])
    # positions beyond a short cumulative sum clip to the last index
    short = np.array([0.3, 0.6, 0.999999])
    idx = kernels.inverse_cdf_indices(short, np.array([0.9999999]))
    assert idx[0] == 2


def test_inverse_cdf_indices_never_picks_trailing_zero_weight():
    cumw = np.cumsum([0.1] * 10 + [0.0])
    assert cumw[-1] < 1.0
    positions = np.array([np.nextafter(cumw[-2], 1.0), 1.0])
    np.testing.assert_array_equal(kernels.inverse_cdf_indices(cumw, positions), [9, 9])


def test_kalman_loglik_core_single_step():
    # y ~ N(0, p0 + sw2): direct density arithmetic
    ll = kernels.kalman_loglik_core(np.array([0.0]), 0.5, 1.0, 1.0, 0.0, 1.0)
    assert ll == pytest.approx(-0.5 * np.log(4.0 * np.pi), rel=1e-12)


def test_kalman_loglik_jet_single_step_closed_form():
    # y ~ N(m0, s) with s = p0 + sw2: only sw2 moves the likelihood
    y, p0, sw2 = 0.7, 1.5, 0.4
    s = p0 + sw2
    ll, grad, hess = kernels.kalman_loglik_jet(np.array([y]), 0.5, 1.0, sw2, 0.0, p0)
    assert ll == pytest.approx(-0.5 * (np.log(2.0 * np.pi * s) + y * y / s), rel=1e-14)
    np.testing.assert_allclose(grad, [0.0, 0.0, -0.5 * (1.0 / s - y * y / s**2)], rtol=1e-14)
    want = np.zeros((3, 3))
    want[2, 2] = -0.5 * (2.0 * y * y / s**3 - 1.0 / s**2)
    np.testing.assert_allclose(hess, want, rtol=1e-14)


@pytest.mark.parametrize("p0", [1.3, None])
def test_kalman_loglik_jet_value_matches_core(p0):
    ys = np.random.default_rng(5).normal(size=40)
    phi, sv2, sw2 = 0.6, 0.8, 1.1
    core_p0 = sv2 / (1.0 - phi * phi) if p0 is None else p0
    ll, _, hess = kernels.kalman_loglik_jet(ys, phi, sv2, sw2, 0.2, p0)
    assert ll == pytest.approx(
        kernels.kalman_loglik_core(ys, phi, sv2, sw2, 0.2, core_p0), rel=1e-13
    )
    assert np.array_equal(hess, hess.T)


def _particles(seed, n, d):
    """Two ``(d, n)`` component-major particle arrays and normalized weights.

    Row ``d - 1 - i`` of the second is row ``i`` of the first, halved and
    shifted, so no cross-covariance is zero by construction.
    """
    rng = np.random.default_rng(seed)
    xt = rng.normal(size=(d, n)) * rng.uniform(0.1, 10.0, size=(d, 1))
    xt += rng.uniform(-5.0, 5.0, size=(d, 1))
    w = rng.random(n)
    return xt, xt[::-1] * 0.5 + 1.0, w / w.sum()


# particle counts past the block size, where weighted_mean_cov sums its Gram
# product over blocks
_ABOVE_BLOCK = (kernels._BLOCK_ROWS + 1, 2 * kernels._BLOCK_ROWS + 7, 3 * kernels._BLOCK_ROWS)

_PARTICLE_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 300) | st.sampled_from(_ABOVE_BLOCK),
    d=st.integers(1, 4),
)


def _mean_cov_and_crosscov(x, y, w):
    return (*kernels.weighted_mean_cov(x, w), kernels.weighted_crosscov(x, y, w))


@settings(max_examples=40)
@given(**_PARTICLE_CASES)
def test_moment_kernels_ignore_input_layout_and_leave_inputs_intact(seed, n, d):
    xt, yt, w = _particles(seed, n, d)
    layouts = {
        "c": (np.ascontiguousarray(xt.T), np.ascontiguousarray(yt.T)),
        "fortran": (np.asfortranarray(xt.T), np.asfortranarray(yt.T)),
        "transposed-view": (xt.T, yt.T),
    }
    outputs = {}
    for name, (x, y) in layouts.items():
        before = (x.copy(), y.copy(), xt.copy(), yt.copy(), w.copy())
        outputs[name] = _mean_cov_and_crosscov(x, y, w)
        for kept, now in zip(before, (x, y, xt, yt, w)):
            assert np.array_equal(kept, now), name
    for name in ("fortran", "transposed-view"):
        for ref, out in zip(outputs["c"], outputs[name]):
            assert np.array_equal(ref, out), name


@settings(max_examples=40)
@given(**_PARTICLE_CASES)
def test_moment_kernels_are_invariant_to_particle_order(seed, n, d):
    xt, yt, w = _particles(seed, n, d)
    perm = np.random.default_rng(seed + 1).permutation(n)
    straight = _mean_cov_and_crosscov(xt.T, yt.T, w)
    permuted = _mean_cov_and_crosscov(xt[:, perm].T, yt[:, perm].T, w[perm])
    # the mean is measured against the particles, the covariances against
    # themselves
    scales = (np.abs(xt).max(), np.abs(straight[1]).max(), np.abs(straight[2]).max())
    for a, b, scale in zip(straight, permuted, scales):
        assert np.abs(a - b).max() <= 1e-12 * scale


def _weighted_sd(xt, w):
    return np.sqrt((xt - (xt @ w)[:, None]) ** 2 @ w)


@settings(max_examples=40)
@given(**_PARTICLE_CASES)
def test_relabelling_the_particles_moves_each_moment_within_its_own_scale(seed, n, d):
    # one permutation of the rows of x, xs and xt and of the entries of w.
    # Each entry is bounded by its own components' sds, fixed beforehand: an
    # entrywise rtol fails on covariances that cancel to near zero, and the
    # test above scales every entry by the largest one.
    x, xt, w = _particles(seed, n, d)
    rng = np.random.default_rng(seed + 1)
    xs = x + rng.normal(size=x.shape) * _weighted_sd(x, w)[:, None]
    perm = rng.permutation(n)
    mean, cov = kernels.weighted_mean_cov(x.T, w)
    cross = kernels.weighted_crosscov(xs.T, xt.T, w)
    p_mean, p_cov = kernels.weighted_mean_cov(x[:, perm].T, w[perm])
    p_cross = kernels.weighted_crosscov(xs[:, perm].T, xt[:, perm].T, w[perm])
    sd, sd_s, sd_t = (_weighted_sd(a, w) for a in (x, xs, xt))
    assert np.all(np.abs(p_mean - mean) <= 1e-12 * (np.abs(mean) + sd))
    assert np.all(np.abs(p_cov - cov) <= 1e-12 * np.outer(sd, sd))
    assert np.all(np.abs(p_cross - cross) <= 1e-12 * np.outer(sd_s, sd_t))


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(_ABOVE_BLOCK), d=st.integers(1, 4))
@example(seed=93019335, n=98304, d=4)
@example(seed=130134, n=98304, d=2)
@example(seed=613575, n=65543, d=4)
def test_blocked_mean_cov_matches_the_whole_array_formula(seed, n, d):
    # the examples each hold an off-diagonal entry a few 1e-7 of the
    # diagonal, which no float64 sum meets to an entrywise rtol of 1e-12,
    # so every entry is bounded by its own components' sds instead
    xt, _, w = _particles(seed, n, d)
    mean, cov = kernels.weighted_mean_cov(xt.T, w)
    assert np.array_equal(cov, cov.T)
    # one centring and one Gram product over all n rows
    ref_mean = xt @ w
    dx = (xt - ref_mean[:, None]) * np.sqrt(w)
    assert np.array_equal(mean, ref_mean)
    sd = _weighted_sd(xt, w)
    assert np.all(np.abs(cov - dx @ dx.T) <= 1e-12 * np.outer(sd, sd))
