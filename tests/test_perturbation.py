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


def test_injected_z_affine_map():
    k = make_gaussian_kernel([1.0])
    out = k.sample(np.array([1.0]), 0.1, z=np.array([2.0]))
    assert out[0] == pytest.approx(1.2, abs=1e-15)


def test_dimension_mismatch_errors():
    k = make_gaussian_kernel([1.0, 1.0])
    with pytest.raises(ValueError):
        k.sample(np.array([0.0]), 0.1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        k.sample(np.zeros(2), 0.1, z=np.zeros(3))


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
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_symmetry_in_injected_noise(sigmas, tau, seed):
    k = make_gaussian_kernel(sigmas)
    d = k.dim
    rng = np.random.default_rng(seed)
    center = rng.normal(size=d)
    z = rng.normal(size=d)
    up = k.sample(center, tau, z=z)
    down = k.sample(center, tau, z=-z)
    # the applied offsets negate exactly; the additions each round once, so
    # the recentered sum matches 2*center to a couple of ulps
    np.testing.assert_array_equal(tau * (k.sigmas * z), -(tau * (k.sigmas * -z)))
    scale = np.abs(center) + tau * k.sigmas * np.abs(z) + 1.0
    np.testing.assert_allclose(up + down, 2 * center, rtol=0, atol=1e-14 * np.max(scale))


@settings(max_examples=50)
@given(
    sigmas=safe_sigmas,
    tau=st.floats(min_value=0.001, max_value=2.0),
    log2c=st.integers(min_value=-6, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_scale_equivalence_power_of_two(sigmas, tau, log2c, seed):
    # (tau, Sigma) and (tau/c, c^2 Sigma) produce identical draws for the
    # same injected noise; exact in binary floats when c is a power of two.
    c = 2.0**log2c
    k1 = make_gaussian_kernel(sigmas)
    k2 = make_gaussian_kernel(np.asarray(sigmas) * c)
    rng = np.random.default_rng(seed)
    center = rng.normal(size=k1.dim)
    z = rng.normal(size=k1.dim)
    np.testing.assert_array_equal(
        k1.sample(center, tau, z=z), k2.sample(center, tau / c, z=z)
    )


@settings(max_examples=50)
@given(
    sigmas=safe_sigmas,
    tau=st.one_of(st.just(0.0), st.floats(min_value=0.001, max_value=2.0)),
    size=st.one_of(st.none(), st.integers(min_value=1, max_value=7)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_sample_is_bitwise_affine_map_and_keeps_injected_z(sigmas, tau, size, seed):
    k = make_gaussian_kernel(sigmas)
    shape = (k.dim,) if size is None else (size, k.dim)
    rng = np.random.default_rng(seed)
    center = rng.normal(size=k.dim)
    z = rng.normal(size=shape)
    z_before = z.copy()
    out = k.sample(center, tau, size=size, z=z)
    np.testing.assert_array_equal(out, center + tau * (k.sigmas * z))
    np.testing.assert_array_equal(z, z_before)
    assert out.shape == shape
    drawn = k.sample(center, tau, np.random.default_rng(seed), size=size)
    z_drawn = np.random.default_rng(seed).standard_normal(shape)
    np.testing.assert_array_equal(drawn, center + tau * (k.sigmas * z_drawn))
