"""Perturbation prior: construction, sampling law, and exact identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfscore import make_gaussian_kernel

safe_sigmas = st.lists(
    st.floats(min_value=0.05, max_value=20.0, allow_nan=False), min_size=1, max_size=4
)


@pytest.mark.parametrize("bad", [[], [0.0], [-1.0], [1.0, 0.0], [np.nan]])
def test_construction_rejects_bad_sigmas(bad):
    with pytest.raises(ValueError):
        make_gaussian_kernel(bad)


def test_tau_zero_returns_center():
    # a fill of the center, zero signs included, in the component-major
    # layout, that takes nothing from the generator
    k = make_gaussian_kernel([1.0, 2.0, 0.5])
    center = np.array([3.0, -1.0, -0.0])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for shape, size in (((3,), None), ((5, 3), 5)):
        out = k.sample(center, 0.0, rng, size=size)
        assert out.shape == shape
        assert out.tobytes() == np.ascontiguousarray(np.broadcast_to(center, shape)).tobytes()
        assert out.T.flags.c_contiguous
        assert rng.bit_generator.state == state


def test_dimension_mismatch_errors():
    k = make_gaussian_kernel([1.0, 1.0])
    with pytest.raises(ValueError):
        k.sample(np.array([0.0]), 0.1, np.random.default_rng(0))


def test_empirical_mean_cov_of_large_sample():
    # 1e6 draws: mean within 4 SE of center, covariance within 4 SE of tau^2 Sigma
    k = make_gaussian_kernel([1.0, 0.5])
    center = np.array([2.0, -1.0])
    tau = 0.3
    n = 10**6
    draws = k.sample(center, tau, np.random.default_rng(77), size=n)
    target_sd = tau * k.sigmas
    se_mean = target_sd / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - center) < 4 * se_mean)
    emp_var = draws.var(axis=0)
    se_var = target_sd**2 * np.sqrt(2.0 / n)
    assert np.all(np.abs(emp_var - target_sd**2) < 4 * se_var)
    # off-diagonal of the empirical covariance is zero within 4 SE
    emp_cov = np.cov(draws.T)
    se_off = target_sd[0] * target_sd[1] / np.sqrt(n)
    assert abs(emp_cov[0, 1]) < 4 * se_off


def test_empirical_fourth_moment_matches_analytic():
    k = make_gaussian_kernel([0.5])
    n = 10**6
    draws = k.sample(np.array([0.0]), 1.0, np.random.default_rng(5), size=n)
    emp = np.mean(draws[:, 0] ** 4)
    # Var(z^4) = 96 sigma^8 for centered Gaussians
    se = np.sqrt(96.0 * 0.5**8 / n)
    assert abs(emp - 0.1875) < 4 * se


@settings(max_examples=50)
@given(
    sigmas=safe_sigmas,
    tau=st.floats(min_value=0.001, max_value=2.0),
    log2c=st.integers(min_value=-6, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_scale_equivalence_power_of_two(sigmas, tau, log2c, seed):
    # (tau, Sigma) and (tau/c, c^2 Sigma) produce identical draws from two
    # generators on one seed; exact in binary floats when c is a power of two.
    c = 2.0**log2c
    k1 = make_gaussian_kernel(sigmas)
    k2 = make_gaussian_kernel(np.asarray(sigmas) * c)
    center = np.random.default_rng(seed).normal(size=k1.dim)
    np.testing.assert_array_equal(
        k1.sample(center, tau, np.random.default_rng(seed + 1)),
        k2.sample(center, tau / c, np.random.default_rng(seed + 1)),
    )


@settings(max_examples=50)
@given(
    sigmas=safe_sigmas,
    tau=st.one_of(st.just(0.0), st.floats(min_value=0.001, max_value=2.0)),
    size=st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sample_is_bitwise_affine_map_of_replayed_draws(sigmas, tau, size, seed):
    # the draw is center + tau * (sigmas * z) bit for bit, z being the normals
    # a generator on the same seed replays
    k = make_gaussian_kernel(sigmas)
    shape = (k.dim,) if size is None else (size, k.dim)
    center = np.random.default_rng(seed).normal(size=k.dim)
    drawn = k.sample(center, tau, np.random.default_rng(seed), size=size)
    z_drawn = np.random.default_rng(seed).standard_normal(shape)
    np.testing.assert_array_equal(drawn, center + tau * (k.sigmas * z_drawn))
    assert drawn.shape == shape
