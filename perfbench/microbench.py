"""Kernel micro-benchmark, reported with the traced run's per-layer figures.

Times each numeric kernel of ``dfscore.kernels`` on fixed synthetic inputs
at filter size (5000 rows) and at 10^6 rows (d=3, as the kernel timings
have always been quoted), the Kalman recursion at T=10^4, and one extended
filter pass (T=50, N=5000, lag 10).  Each figure is the best of several
calls, in milliseconds.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

SIZES = ((5000, 50), (10**6, 3))  # (rows, repeats)


def _best_ms(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best * 1e3


ARRAY_KERNELS = ("normalize_log_weights", "weighted_mean_cov", "weighted_crosscov",
                 "inverse_cdf_indices")


def names():
    return [f"kernels.{kernel}.bench_n{rows}_ms" for rows, _ in SIZES for kernel in ARRAY_KERNELS] + [
        "kernels.kalman_loglik_core.bench_t10000_ms",
        "smc.run_extended_bootstrap.bench_t50_n5000_ms",
    ]


def run(kernels, dfs):
    """Figures for the kernels module ``kernels`` and the package ``dfs``."""
    rng = np.random.default_rng(0)
    out = {}
    for rows, repeat in SIZES:
        logw = rng.normal(size=rows) - 40.0
        x3 = rng.normal(size=(rows, 3))
        w = np.full(rows, 1.0 / rows)
        cumw = np.cumsum(w)
        positions = rng.random(rows)
        args = {
            "normalize_log_weights": (logw,),
            "weighted_mean_cov": (x3, w),
            "weighted_crosscov": (x3, x3, w),
            "inverse_cdf_indices": (cumw, positions),
        }
        for kernel in ARRAY_KERNELS:
            fn = getattr(kernels, kernel)
            out[f"kernels.{kernel}.bench_n{rows}_ms"] = _best_ms(lambda: fn(*args[kernel]), repeat)
    ys = rng.normal(size=10**4)
    out["kernels.kalman_loglik_core.bench_t10000_ms"] = _best_ms(
        lambda: kernels.kalman_loglik_core(ys, 0.8, 1.0, 0.5, 0.0, 1.0), 5
    )

    spec = dfs.LinearGaussianSSM(
        free=("phi",), fixed={"log_sigma_v": 0.0, "log_sigma_w": 0.0}, init="fixed", init_sd=1.0
    )
    ssm = spec.state_space()
    theta = np.array([0.6])
    _, obs = dfs.simulate(ssm, theta, 50, np.random.default_rng(1))
    config = dfs.ExtendedFilterConfig(
        theta=theta, tau=0.05, kernel=dfs.make_gaussian_kernel([2.0]), lag=10, n_particles=5000
    )
    out["smc.run_extended_bootstrap.bench_t50_n5000_ms"] = _best_ms(
        lambda: dfs.run_extended_bootstrap(ssm, obs, config, rng=np.random.default_rng(2)), 3
    )
    return out
