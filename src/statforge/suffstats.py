"""Closed-form sufficient statistics for the nlar1 model.

The triple (alpha_hat, sigma2_hat, order) parametrizes the exact likelihood:
with f applied to the lagged states, alpha_hat is the least-squares
autocorrelation estimator, sigma2_hat the mean squared residual, and order
the mean of f^2, an order parameter that tells the two attractors apart.

``stats_batch`` is the one implementation, over a (B, N) batch; ``suff_stats``
is its B=1 row for a single trajectory.

Note on naming: the residual statistic estimates sigma^2 (it is a mean of
squared residuals) even though it plays the role of a scale statistic, so it
is exported here as ``sigma2_hat``; its square root is provided alongside for
comparisons against sigma itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UndefinedStatisticError
from .models import Trajectory, f_nlar1
from .samples import csv_text


@dataclass(frozen=True)
class SufficientStats:
    alpha_hat: float
    sigma2_hat: float
    order: float

    @property
    def sigma_hat(self) -> float:
        return float(np.sqrt(self.sigma2_hat))

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha_hat, self.sigma2_hat, self.order])


def stats_batch(x: np.ndarray, x0: float) -> np.ndarray:
    """(B, 3) statistic rows for a (B, N) trajectory batch."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lagged = np.concatenate([np.full((x.shape[0], 1), float(x0)), x[:, :-1]], axis=1)
    f_prev = f_nlar1(lagged)
    n = x.shape[1]
    sff = np.einsum("ij,ij->i", f_prev, f_prev)
    if np.any(sff == 0.0):
        raise UndefinedStatisticError("sum of squared regressors is zero")
    a_hat = np.einsum("ij,ij->i", x, f_prev) / sff
    r = x - a_hat[:, None] * f_prev
    s2 = np.einsum("ij,ij->i", r, r) / n
    return np.column_stack([a_hat, s2, sff / n])


def suff_stats(traj: Trajectory) -> SufficientStats:
    """Statistics of one trajectory: the single row of ``stats_batch``."""
    a_hat, s2, order = stats_batch(traj.x, traj.x0)[0]
    return SufficientStats(alpha_hat=float(a_hat), sigma2_hat=float(s2), order=float(order))


def stats_to_csv(rows) -> str:
    """CSV rows (alpha_hat, sigma2_hat, order) plus sqrt(sigma2_hat)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))[:, :3]
    return csv_text(["alpha_hat", "sigma2_hat", "order", "sigma_hat"],
                    np.column_stack([rows, np.sqrt(rows[:, 1])]))
