"""Probabilistic trajectory model over demonstrations.

Each joint trajectory is represented as a weighted sum of normalized Gaussian
bumps over normalized phase [0, 1]. Per-demonstration weights come from a
ridge least-squares fit; a Gaussian over each joint's K weights (sample mean +
unbiased sample covariance) turns a set of demonstrations into a distribution
over trajectories, queried for its mean, marginal standard deviation bands,
and trajectory log-likelihood.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable

import numpy as np

from .errors import GlovekitError, require_nonnegative, require_positive
from .record import Record

DEFAULT_K = 20
DEFAULT_LAMBDA = 1e-6
DEFAULT_EPS_REG = 1e-8

_RCOND_LIMIT = 1e-12


class BasisConfig(Record):
    """Gaussian basis layout: K centers evenly spaced over [0, 1], width h."""

    __slots__ = ("K", "h", "lam")

    def __init__(self, K: int = DEFAULT_K, h: float | None = None, lam: float = DEFAULT_LAMBDA):
        if K < 1:
            raise GlovekitError(f"K must be >= 1, got {K}")
        # the K float64 centers must be addressable
        if K > sys.maxsize // 8:
            raise GlovekitError(f"{K} basis functions do not fit in memory")
        if h is None:  # the neighbor-center spacing
            h = 1.0 / (K - 1) if K > 1 else 1.0
        super().__init__(K, h, lam)
        # the basis divides by 2*h*h, which must be a finite positive number
        if not (self.h > 0 and (width := 2.0 * self.h * self.h) > 0 and math.isfinite(width)):
            raise GlovekitError(f"h must be positive with 2*h*h finite and nonzero, got {self.h}")
        require_nonnegative("lambda", self.lam)

    @property
    def centers(self) -> np.ndarray:
        if self.K == 1:
            return np.array([0.5])
        try:
            return np.linspace(0.0, 1.0, self.K)
        except ValueError:  # numpy refuses the few counts just below __init__'s bound too
            raise GlovekitError(f"{self.K} basis functions do not fit in memory") from None


class Demonstration(Record):
    """A (T, D) joint-angle trajectory sampled uniformly at dt seconds."""

    __slots__ = ("values", "dt")
    __eq__, __hash__ = object.__eq__, object.__hash__  # it holds an array

    def __init__(self, values: np.ndarray, dt: float):
        v = np.atleast_2d(np.asarray(values, dtype=float))
        super().__init__(v, dt)
        if v.shape[0] < 2:
            raise GlovekitError(f"demonstration needs T >= 2 samples, got {v.shape[0]}")
        if v.shape[1] < 1:
            raise GlovekitError(f"demonstration needs D >= 1 joints, got {v.shape[1]}")
        if not np.all(np.isfinite(v)):
            raise GlovekitError("demonstration contains non-finite values")
        require_positive("dt", self.dt)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def D(self) -> int:
        return self.values.shape[1]


def _basis(phases: np.ndarray, config: BasisConfig) -> np.ndarray:
    """The K basis functions at each phase: shape ``phases.shape + (K,)``."""
    psi = np.exp(-((phases[..., None] - config.centers) ** 2) / (2.0 * config.h**2))
    psi /= psi.sum(axis=-1, keepdims=True)
    return psi


def design_matrix(T: int, config: BasisConfig) -> np.ndarray:
    """(T, K) basis matrix Phi at phases i/(T-1); every model query takes it."""
    if T < 2:
        raise GlovekitError(f"T must be >= 2, got {T}")
    return _basis(np.arange(T) / (T - 1), config)


def fit_weights(demo: Demonstration, config: BasisConfig, phi: np.ndarray) -> np.ndarray:
    """Ridge least-squares weights, (K, D), on ``phi = design_matrix(demo.T, config)``."""
    gram = phi.T @ phi + config.lam * np.eye(config.K)
    if config.lam == 0.0:
        rcond = 1.0 / np.linalg.cond(gram)
        if not np.isfinite(rcond) or rcond < _RCOND_LIMIT:
            raise GlovekitError(
                f"basis Gram matrix is numerically singular (rcond {rcond:.2e}); "
                "use lambda > 0"
            )
    # numpy's own loop, not BLAS: the bits do not depend on the BLAS thread count
    return np.linalg.solve(gram, np.einsum("tk,td->kd", phi, demo.values))


def fit_distribution(
    weights: list[np.ndarray], eps_reg: float = DEFAULT_EPS_REG
) -> tuple[np.ndarray, np.ndarray]:
    """Per joint d of (K, D) weight matrices: mu_w[d], the sample mean of its K
    weights, and sigma_w[d], their unbiased sample covariance + eps_reg * I, which
    is eps_reg * I exactly for a single demonstration. Shapes (D, K), (D, K, K)."""
    if not weights:
        raise GlovekitError("at least one weight matrix is required")
    shapes = {np.asarray(w).shape for w in weights}
    if len(shapes) != 1:
        raise GlovekitError(f"weight matrices disagree in shape: {sorted(shapes)}")
    stacked = np.stack(weights)  # (N, K, D)
    n, k, d = stacked.shape
    # C order, as load_model gives it: mean_trajectory's product sums alike for both
    mu = np.ascontiguousarray(stacked.mean(axis=0).T)
    sigma = np.repeat(eps_reg * np.eye(k)[None], d, axis=0)
    for j, block in enumerate(sigma):  # one demonstration: centered is 0, its Gram 0
        centered = stacked[:, :, j] - mu[j]
        block += centered.T @ centered / max(n - 1, 1)
    return mu, sigma


def estimate_noise(
    residuals: Iterable[np.ndarray], eps_reg: float = DEFAULT_EPS_REG
) -> np.ndarray:
    """Diagonal observation-noise variances pooled over (T_i, D) residual arrays,
    taken one at a time. Divisor is (total samples - 1); each entry is floored at eps_reg."""
    sq_sum = 0.0
    total = 0
    for residual in residuals:
        sq_sum += (residual**2).sum(axis=0)
        total += residual.shape[0]
        del residual  # not held while the next one is made
    return np.maximum(sq_sum / max(total - 1, 1), eps_reg)


class TrajectoryModel(Record):
    """Learned Gaussian distribution over trajectories."""

    __slots__ = ("basis", "mu_w", "sigma_w", "sigma_y", "eps_reg")
    __eq__, __hash__ = object.__eq__, object.__hash__  # it holds arrays

    def __init__(
        self,
        basis: BasisConfig,
        mu_w: np.ndarray,  # (D, K): row d is joint d's mean weights
        sigma_w: np.ndarray,  # (D, K, K): joint d's covariance of its weights
        sigma_y: np.ndarray,  # (D,) diagonal observation-noise variances
        eps_reg: float = DEFAULT_EPS_REG,
    ):
        mu = np.asarray(mu_w, dtype=float)
        sw = np.asarray(sigma_w, dtype=float)
        sy = np.asarray(sigma_y, dtype=float)
        super().__init__(basis, mu, sw, sy, eps_reg)
        k = self.basis.K
        if mu.ndim != 2 or mu.shape[1] != k or sw.shape != (self.D, k, k) or sy.shape != (self.D,):
            raise GlovekitError("model parameter shapes inconsistent with K and D")
        if self.D < 1:
            raise GlovekitError(f"model needs D >= 1 joints, got {self.D}")
        for name, values in (("mu_w", mu), ("sigma_w", sw), ("sigma_y", sy)):
            if not np.all(np.isfinite(values)):
                raise GlovekitError(f"{name} must be finite")
        if np.any(sy < 0):
            raise GlovekitError("sigma_y entries must be nonnegative")
        require_nonnegative("eps_reg", self.eps_reg)

    @property
    def D(self) -> int:
        return self.mu_w.shape[0]


def train_model(
    demos: Iterable[Demonstration],
    config: BasisConfig,
    eps_reg: float = DEFAULT_EPS_REG,
) -> TrajectoryModel:
    """Fit per-demo weights, the per-joint weight distribution, and the noise model.

    ``demos`` is taken one at a time: each demo is fitted and its residual
    pooled before the next is requested, so only one basis matrix per length
    and the (K, D) weights of each demo are kept."""
    phis: dict[int, np.ndarray] = {}
    weights: list[np.ndarray] = []

    def residual(demo: Demonstration) -> np.ndarray:
        if weights and demo.D != weights[0].shape[1]:
            dims = sorted({weights[0].shape[1], demo.D})
            raise GlovekitError(f"demonstrations disagree in dimension: {dims}")
        phi = phis.get(demo.T)
        if phi is None:
            phi = phis[demo.T] = design_matrix(demo.T, config)
        weights.append(fit_weights(demo, config, phi))
        return demo.values - phi @ weights[-1]

    # map holds no demo between calls, as a for loop's variable would
    sigma_y = estimate_noise(map(residual, demos), eps_reg)
    if not weights:
        raise GlovekitError("at least one demonstration is required")
    mu_w, sigma_w = fit_distribution(weights, eps_reg)
    return TrajectoryModel(config, mu_w, sigma_w, sigma_y, eps_reg)


def mean_trajectory(model: TrajectoryModel, phi: np.ndarray) -> np.ndarray:
    """(T, D) mean trajectory at the phases of the design matrix ``phi``."""
    return phi @ model.mu_w.T


def marginal_std(model: TrajectoryModel, phi: np.ndarray) -> np.ndarray:
    """(T, D) pointwise standard deviation including observation noise at ``phi``'s phases."""
    std = np.empty((phi.shape[0], model.D))
    for d in range(model.D):
        # numpy's own loops, not BLAS: the bits do not depend on the BLAS thread count;
        # nested, so one joint's (T, K) product is freed before the next is made
        var = np.einsum("tl,tl->t", np.einsum("tk,kl->tl", phi, model.sigma_w[d]), phi)
        var += model.sigma_y[d]
        std[:, d] = np.sqrt(np.maximum(var, 0.0))
    return std


def log_likelihood_per_joint(
    model: TrajectoryModel, demo: Demonstration, mean: np.ndarray
) -> np.ndarray:
    """Per-joint log-probability (nats) of a demonstration around a (T, D) mean
    trajectory under the diagonal noise; its sum is the demo's log-likelihood."""
    if demo.D != model.D:
        raise GlovekitError(f"demo dimension {demo.D} != model dimension {model.D}")
    residual = demo.values - mean
    var = np.maximum(model.sigma_y, model.eps_reg)
    return -0.5 * (demo.T * np.log(2.0 * np.pi * var) + (residual**2).sum(axis=0) / var)
