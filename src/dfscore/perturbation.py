"""Gaussian perturbation prior placed around a parameter point.

The prior is a centered Gaussian with diagonal covariance, scaled by a
shrinkage factor ``tau``: a draw is ``center + tau * (sigmas * z)`` with
``z`` standard normal from the caller's generator, which tests replay on
the same seed.  Coordinate-wise independence and Gaussian kurtosis (fourth
moment exactly ``3 * sigma**4``) are what the downstream information-matrix
identity requires, so no other prior family is shipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PerturbationKernel", "make_gaussian_kernel"]


@dataclass(frozen=True)
class PerturbationKernel:
    """Centered Gaussian prior with per-coordinate standard deviations.

    Immutable after construction; safe to share across concurrent tasks.
    Every sampling call draws from the random stream it is given.
    """

    sigmas: np.ndarray

    def __post_init__(self):
        sigmas = np.atleast_1d(np.asarray(self.sigmas, dtype=np.float64))
        if sigmas.ndim != 1 or sigmas.size == 0:
            raise ValueError("sigmas must be a non-empty 1-d vector")
        if not np.all(np.isfinite(sigmas)) or np.any(sigmas <= 0.0):
            raise ValueError("all kernel standard deviations must be finite and > 0")
        sigmas = sigmas.copy()
        sigmas.flags.writeable = False
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def dim(self) -> int:
        return self.sigmas.shape[0]

    def variances(self) -> np.ndarray:
        """Diagonal of the covariance matrix."""
        return self.sigmas**2

    def sample(self, center, tau, rng, size=None):
        """Draw from the prior centered at ``center`` with scale ``tau``.

        ``tau = 0`` is the degenerate point mass at the center: the draw is
        a fill of ``center`` that consumes no randomness, so ``rng`` is left
        as it was.

        Returns shape ``(dim,)`` when ``size`` is None, else ``(size, dim)``.
        A batch is the transpose of a C-contiguous ``(dim, size)`` buffer,
        so each coordinate's draws are contiguous; the values are those of
        ``center + tau * (sigmas * rng.standard_normal(shape))`` bit for bit,
        except that a ``tau = 0`` fill keeps the sign of a zero in ``center``.
        """
        center = np.asarray(center, dtype=np.float64)
        if center.shape != (self.dim,):
            raise ValueError(
                f"center has shape {center.shape}, kernel dimension is {self.dim}"
            )
        if tau < 0.0:
            raise ValueError("tau must be >= 0")
        shape = (self.dim,) if size is None else (size, self.dim)
        if tau == 0.0:
            out = np.empty(shape[::-1]).T
            out[...] = center
            return out
        # the (size, dim) transpose of a C-contiguous (dim, size) copy of the draw
        out = rng.standard_normal(shape).T.copy().T
        out *= self.sigmas
        out *= tau
        out += center
        return out


def make_gaussian_kernel(sigmas) -> PerturbationKernel:
    """Build the Gaussian perturbation prior from per-coordinate sigmas."""
    return PerturbationKernel(np.asarray(sigmas, dtype=np.float64))
