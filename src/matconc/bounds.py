"""Closed-form tail bounds and the Laplace-transform optimization pipeline.

Sub-Gaussian matrix tail bounds of the form d * exp(-t^2 / v) for the
bounded-differences variance parameter, the Dobrushin-corrected variant,
the Hoeffding specialization, and the weaker eighth-exponent comparison
bound.  Bounds are reported unclamped; use display_clamp for min(bound, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hermitian import HermitianMatrix, _coerce_all, _integer, _spectral_norm


class DifferenceBoundSet:
    """Sequence {A_k} of equal-dimension Hermitian difference bounds.

    Carries the derived sum of squares and the variance parameter
    sigma^2 = || sum_k A_k^2 || (spectral norm).  A sum of squares or a
    sigma^2 that overflows is a numerical failure, refused with an
    ``ArithmeticError``.
    """

    def __init__(self, matrices: Sequence):
        self.matrices = _coerce_all(matrices)
        d = self.dim
        total = np.zeros((d, d), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            for M in self.matrices:
                total += M.mat @ M.mat
        if not np.isfinite(total).all():
            raise ArithmeticError("the sum of squared difference bounds sum_k A_k^2 "
                                  "overflows: an entry is not finite")
        self.sum_of_squares = HermitianMatrix(total)
        self.sigma_sq = _spectral_norm(self.sum_of_squares.mat)
        if not math.isfinite(self.sigma_sq):
            raise ArithmeticError("the variance parameter sigma^2 = ||sum_k A_k^2|| "
                                  "overflows: it is not finite")

    @property
    def dim(self) -> int:
        return self.matrices[0].dim


def dobrushin_constant(norm1: float, norm_inf: float) -> float:
    """c = (1/(1-|D|_1) + 1/(1-|D|_inf)) / 2; both norms must lie in [0, 1)."""
    for name, v in (("norm1", norm1), ("norm_inf", norm_inf)):
        if not 0.0 <= v < 1.0:
            raise ValueError(
                f"hypothesis violated: {name} = {v} is outside [0, 1); "
                "the weak-dependence tail bound requires max norm < 1"
            )
    return (1.0 / (1.0 - norm1) + 1.0 / (1.0 - norm_inf)) / 2.0


def _exp_bound(d: int, denom: float, t: float) -> float:
    if not t >= 0:  # NaN fails too
        raise ValueError("t must be >= 0")
    d = _integer("d", d)
    if d < 1:
        raise ValueError("d must be >= 1")
    if not denom >= 0:
        raise ValueError("variance must be >= 0")
    if denom == 0.0:
        return 0.0 if t > 0 else float(d)
    val = d * math.exp(-(t * t) / denom)
    return min(max(val, 0.0), float(d))


def tail_bound_independent(d: int, sigma_sq: float, t: float) -> float:
    """d * exp(-t^2 / sigma^2), clamped to [0, d]."""
    return _exp_bound(d, sigma_sq, t)


def tail_bound_dependent(d: int, sigma_sq: float, c: float, t: float) -> float:
    """d * exp(-t^2 / (c sigma^2)) for dependence constant c >= 1."""
    if not c >= 1:
        raise ValueError("dependence constant c must be >= 1")
    return _exp_bound(d, c * sigma_sq, t)


def hoeffding_bound(d: int, sigma_sq: float, t: float) -> float:
    """d * exp(-t^2 / (4 sigma^2)): the centered-summand specialization."""
    return _exp_bound(d, 4.0 * sigma_sq, t)


def tropp_bound(d: int, sigma_sq: float, t: float) -> float:
    """Comparison bound d * exp(-t^2 / (8 sigma^2)) with the weaker exponent."""
    return _exp_bound(d, 8.0 * sigma_sq, t)


def display_clamp(bound: float) -> float:
    """Probability-display variant min(bound, 1)."""
    return min(bound, 1.0)


@dataclass(frozen=True)
class LaplaceBound:
    """Grid infimum of d * exp(-theta t + theta^2 v / 4), plus its closed form if v > 0."""

    bound: float
    theta: float
    closed_form_bound: float | None = None
    closed_form_theta: float | None = None


def laplace_infimum(variance: float, t: float, theta_grid, d: int = 1) -> LaplaceBound:
    """Minimize d * exp(-theta t + theta^2 variance / 4) over a one-signed theta grid.

    A positive grid targets the largest-eigenvalue tail; a negative grid the
    smallest-eigenvalue tail.  For a positive variance the analytic optimum
    is returned alongside and the grid minimum is verified against it.
    """
    variance = float(variance)
    if not variance >= 0:  # NaN fails too
        raise ValueError("quadratic profile variance must be >= 0")
    grid = np.asarray(theta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("theta grid must be nonempty")
    if not (math.isfinite(t) and np.isfinite(grid).all()):
        raise ValueError("t and every theta grid point must be finite")
    if not (np.all(grid > 0) or np.all(grid < 0)):
        raise ValueError("theta grid must be strictly one-signed")
    d = _integer("d", d)
    if d < 1:
        raise ValueError("d must be >= 1")

    objective = -grid * t + grid * grid * variance / 4.0
    idx = int(np.argmin(objective))
    bound = d * math.exp(float(objective[idx]))

    closed_bound = closed_theta = None
    if variance > 0:
        positive = bool(grid[0] > 0)
        theta_star = 2.0 * t / variance
        if (positive and theta_star > 0) or (not positive and theta_star < 0):
            closed_theta = theta_star
            closed_bound = d * math.exp(-(t * t) / variance)
        else:
            closed_theta = 0.0
            closed_bound = float(d)
        if bound < closed_bound * (1.0 - 1e-9) - 1e-300:
            raise ArithmeticError(
                f"grid infimum {bound!r} fell below the closed form {closed_bound!r}"
            )
    return LaplaceBound(bound, float(grid[idx]), closed_bound, closed_theta)
