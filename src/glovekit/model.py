"""Probabilistic trajectory model over demonstrations.

Each joint trajectory is represented as a weighted sum of normalized Gaussian
bumps over normalized phase [0, 1]. Per-demonstration weights come from a
ridge least-squares fit; a Gaussian over the stacked weight vectors (sample
mean + unbiased sample covariance) turns a set of demonstrations into a
distribution over trajectories, queried for its mean, marginal standard
deviation bands, and trajectory log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GlovekitError, ShapeMismatchError, SingularSystemError

DEFAULT_K = 20
DEFAULT_LAMBDA = 1e-6
DEFAULT_EPS_REG = 1e-8

_RCOND_LIMIT = 1e-12


@dataclass(frozen=True)
class BasisConfig:
    """Gaussian basis layout: K centers evenly spaced over [0, 1], width h."""

    K: int = DEFAULT_K
    h: float | None = None  # defaults to the neighbor-center spacing 1/(K-1)
    lam: float = DEFAULT_LAMBDA
    normalize: bool = True

    def __post_init__(self):
        if self.K < 1:
            raise GlovekitError(f"K must be >= 1, got {self.K}")
        if self.h is None:
            object.__setattr__(self, "h", 1.0 / (self.K - 1) if self.K > 1 else 1.0)
        if self.h <= 0:
            raise GlovekitError(f"h must be positive, got {self.h}")
        if self.lam < 0:
            raise GlovekitError(f"lambda must be nonnegative, got {self.lam}")

    @property
    def centers(self) -> np.ndarray:
        if self.K == 1:
            return np.array([0.5])
        return np.linspace(0.0, 1.0, self.K)


@dataclass(frozen=True)
class Demonstration:
    """A (T, D) joint-angle trajectory sampled uniformly at dt seconds."""

    values: np.ndarray
    dt: float

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", v)
        if v.shape[0] < 2:
            raise GlovekitError(f"demonstration needs T >= 2 samples, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise GlovekitError("demonstration contains non-finite values")
        if self.dt <= 0:
            raise GlovekitError(f"dt must be positive, got {self.dt}")

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def D(self) -> int:
        return self.values.shape[1]


def basis_row(t: float, config: BasisConfig) -> np.ndarray:
    """Evaluate the K basis functions at phase t in [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise GlovekitError(f"phase {t} outside [0, 1]")
    psi = np.exp(-((t - config.centers) ** 2) / (2.0 * config.h**2))
    if config.normalize:
        return psi / psi.sum()
    return psi


def design_matrix(T: int, config: BasisConfig) -> np.ndarray:
    """(T, K) basis matrix at phases i/(T-1)."""
    if T < 2:
        raise GlovekitError(f"T must be >= 2, got {T}")
    phases = np.arange(T) / (T - 1)
    psi = np.exp(-((phases[:, None] - config.centers[None, :]) ** 2) / (2.0 * config.h**2))
    if config.normalize:
        psi /= psi.sum(axis=1, keepdims=True)
    return psi


def _design_matrices(demos: list[Demonstration], config: BasisConfig) -> dict[int, np.ndarray]:
    """One basis matrix per distinct demo length."""
    return {T: design_matrix(T, config) for T in sorted({demo.T for demo in demos})}


def fit_weights(demo: Demonstration, config: BasisConfig) -> np.ndarray:
    """Ridge least-squares weights, (K, D): one basis-weight column per joint."""
    return _fit_weights(demo, config, design_matrix(demo.T, config))


def _fit_weights(demo: Demonstration, config: BasisConfig, phi: np.ndarray) -> np.ndarray:
    gram = phi.T @ phi + config.lam * np.eye(config.K)
    if config.lam == 0.0:
        rcond = 1.0 / np.linalg.cond(gram)
        if not np.isfinite(rcond) or rcond < _RCOND_LIMIT:
            raise SingularSystemError(
                f"basis Gram matrix is numerically singular (rcond {rcond:.2e}); "
                "use lambda > 0"
            )
    return np.linalg.solve(gram, phi.T @ demo.values)


def stack_weights(w: np.ndarray) -> np.ndarray:
    """Column-major stacking of a (K, D) weight matrix into a (K*D,) vector."""
    return np.asarray(w, dtype=float).flatten(order="F")


def fit_distribution(
    weights: list[np.ndarray], eps_reg: float = DEFAULT_EPS_REG
) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased sample covariance of stacked weight vectors.

    Returns (mu_w, Sigma_w) with Sigma_w = sample covariance + eps_reg * I;
    a single demonstration yields Sigma_w = eps_reg * I exactly.
    """
    if not weights:
        raise GlovekitError("at least one weight matrix is required")
    shapes = {np.asarray(w).shape for w in weights}
    if len(shapes) != 1:
        raise ShapeMismatchError(f"weight matrices disagree in shape: {sorted(shapes)}")
    stacked = np.stack([stack_weights(w) for w in weights])  # (N, K*D)
    n, dim = stacked.shape
    mu = stacked.mean(axis=0)
    sigma = eps_reg * np.eye(dim)
    if n > 1:
        centered = stacked - mu
        sigma = sigma + centered.T @ centered / (n - 1)
    return mu, sigma


def estimate_noise(
    demos: list[Demonstration],
    weights: list[np.ndarray],
    config: BasisConfig,
    eps_reg: float = DEFAULT_EPS_REG,
) -> np.ndarray:
    """Diagonal observation-noise variances pooled over all residuals.

    Divisor is (total samples - 1); each entry is floored at eps_reg.
    """
    return _estimate_noise(demos, weights, _design_matrices(demos, config), eps_reg)


def _estimate_noise(
    demos: list[Demonstration],
    weights: list[np.ndarray],
    phis: dict[int, np.ndarray],
    eps_reg: float,
) -> np.ndarray:
    if len(demos) != len(weights):
        raise ShapeMismatchError("demos and weights must pair up")
    d = demos[0].D
    sq_sum = np.zeros(d)
    total = 0
    for demo, w in zip(demos, weights):
        residual = demo.values - phis[demo.T] @ w
        sq_sum += (residual**2).sum(axis=0)
        total += demo.T
    return np.maximum(sq_sum / max(total - 1, 1), eps_reg)


@dataclass(frozen=True)
class TrajectoryModel:
    """Learned Gaussian distribution over trajectories."""

    basis: BasisConfig
    mu_w: np.ndarray  # (K*D,)
    sigma_w: np.ndarray  # (K*D, K*D)
    sigma_y: np.ndarray  # (D,) diagonal observation-noise variances
    D: int
    eps_reg: float = DEFAULT_EPS_REG

    def __post_init__(self):
        mu = np.asarray(self.mu_w, dtype=float)
        sw = np.asarray(self.sigma_w, dtype=float)
        sy = np.asarray(self.sigma_y, dtype=float)
        object.__setattr__(self, "mu_w", mu)
        object.__setattr__(self, "sigma_w", sw)
        object.__setattr__(self, "sigma_y", sy)
        kd = self.basis.K * self.D
        if mu.shape != (kd,) or sw.shape != (kd, kd) or sy.shape != (self.D,):
            raise ShapeMismatchError("model parameter shapes inconsistent with K and D")
        if np.any(sy < 0):
            raise GlovekitError("sigma_y entries must be nonnegative")


def train_model(
    demos: list[Demonstration],
    config: BasisConfig,
    eps_reg: float = DEFAULT_EPS_REG,
) -> TrajectoryModel:
    """Fit per-demo weights, the weight distribution, and the noise model."""
    if not demos:
        raise GlovekitError("at least one demonstration is required")
    dims = {demo.D for demo in demos}
    if len(dims) != 1:
        raise ShapeMismatchError(f"demonstrations disagree in dimension: {sorted(dims)}")
    phis = _design_matrices(demos, config)
    weights = [_fit_weights(demo, config, phis[demo.T]) for demo in demos]
    mu_w, sigma_w = fit_distribution(weights, eps_reg)
    sigma_y = _estimate_noise(demos, weights, phis, eps_reg)
    return TrajectoryModel(config, mu_w, sigma_w, sigma_y, demos[0].D, eps_reg)


def _mean_weights(model: TrajectoryModel) -> np.ndarray:
    return model.mu_w.reshape((model.basis.K, model.D), order="F")


def mean_trajectory(model: TrajectoryModel, T: int) -> np.ndarray:
    """(T, D) mean trajectory at phases i/(T-1)."""
    return design_matrix(T, model.basis) @ _mean_weights(model)


def marginal_std(model: TrajectoryModel, T: int) -> np.ndarray:
    """(T, D) pointwise standard deviation including observation noise."""
    return _marginal_std(model, design_matrix(T, model.basis))


def _marginal_std(model: TrajectoryModel, phi: np.ndarray) -> np.ndarray:
    k = model.basis.K
    std = np.empty((phi.shape[0], model.D))
    for d in range(model.D):
        block = model.sigma_w[d * k : (d + 1) * k, d * k : (d + 1) * k]
        var = np.einsum("tk,kl,tl->t", phi, block, phi) + model.sigma_y[d]
        std[:, d] = np.sqrt(np.maximum(var, 0.0))
    return std


def log_likelihood(model: TrajectoryModel, demo: Demonstration) -> float:
    """Log-probability of a demonstration under the mean weights (nats)."""
    return float(log_likelihood_per_joint(model, demo).sum())


def log_likelihood_per_joint(model: TrajectoryModel, demo: Demonstration) -> np.ndarray:
    """Per-joint decomposition of :func:`log_likelihood` (diagonal noise)."""
    if demo.D != model.D:
        raise ShapeMismatchError(f"demo dimension {demo.D} != model dimension {model.D}")
    return _log_likelihood_per_joint(model, demo, mean_trajectory(model, demo.T))


def _log_likelihood_per_joint(
    model: TrajectoryModel, demo: Demonstration, mean: np.ndarray
) -> np.ndarray:
    """:func:`log_likelihood_per_joint` against a precomputed (T, D) mean."""
    residual = demo.values - mean
    var = np.maximum(model.sigma_y, model.eps_reg)
    return -0.5 * (demo.T * np.log(2.0 * np.pi * var) + (residual**2).sum(axis=0) / var)
