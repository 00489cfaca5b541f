"""Closed-form tail bounds and the Laplace-transform optimization pipeline.

Sub-Gaussian matrix tail bounds of the form d * exp(-t^2 / v) for the
bounded-differences variance parameter, the Dobrushin-corrected variant,
the Hoeffding specialization, and the weaker eighth-exponent comparison
bound.  Bounds are reported unclamped; use display_clamp for min(bound, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hermitian import HermitianMatrix, _coerce, spectral_norm


class DifferenceBoundSet:
    """Sequence {A_k} of equal-dimension Hermitian difference bounds.

    Carries the derived sum of squares and the variance parameter
    sigma^2 = || sum_k A_k^2 || (spectral norm).
    """

    def __init__(self, matrices: Sequence):
        mats = [_coerce(M) for M in matrices]
        if not mats:
            raise ValueError("need at least one matrix")
        d = mats[0].dim
        if any(M.dim != d for M in mats):
            raise ValueError("all matrices must share one dimension")
        self.matrices = tuple(mats)
        total = np.zeros((d, d), dtype=np.complex128)
        for M in mats:
            total += M.mat @ M.mat
        self.sum_of_squares = HermitianMatrix((total + total.conj().T) / 2.0)
        self.sigma_sq = spectral_norm(self.sum_of_squares)

    @property
    def dim(self) -> int:
        return self.matrices[0].dim


@dataclass(frozen=True)
class BoundParams:
    """Dimension, variance parameter, and dependence constant for tail bounds."""

    d: int
    sigma_sq: float
    c: float = 1.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.sigma_sq < 0:
            raise ValueError("sigma_sq must be >= 0")
        if self.c < 1:
            raise ValueError("dependence constant c must be >= 1")


def variance_parameter(bound_set: DifferenceBoundSet) -> float:
    """sigma^2 = spectral norm of sum_k A_k^2."""
    return bound_set.sigma_sq


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
    if t < 0:
        raise ValueError("t must be >= 0")
    if d < 1:
        raise ValueError("d must be >= 1")
    if denom < 0:
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
    if c < 1:
        raise ValueError("dependence constant c must be >= 1")
    return _exp_bound(d, c * sigma_sq, t)


def hoeffding_bound(d: int, sigma_sq: float, t: float) -> float:
    """d * exp(-t^2 / (4 sigma^2)): the centered-summand specialization."""
    return _exp_bound(d, 4.0 * sigma_sq, t)


def hoeffding_bound_dependent(d: int, sigma_sq: float, c: float, t: float) -> float:
    """d * exp(-t^2 / (4 c sigma^2))."""
    if c < 1:
        raise ValueError("dependence constant c must be >= 1")
    return _exp_bound(d, 4.0 * c * sigma_sq, t)


def tropp_bound(d: int, sigma_sq: float, t: float) -> float:
    """Comparison bound d * exp(-t^2 / (8 sigma^2)) with the weaker exponent."""
    return _exp_bound(d, 8.0 * sigma_sq, t)


def display_clamp(bound: float) -> float:
    """Probability-display variant min(bound, 1)."""
    return min(bound, 1.0)


@dataclass(frozen=True)
class LaplaceBound:
    """Grid infimum of d * exp(-theta t + log m(theta)), plus optional closed form."""

    bound: float
    theta: float
    closed_form_bound: float | None = None
    closed_form_theta: float | None = None


def laplace_infimum(log_mgf: Callable[[float], float] | float, t: float,
                    theta_grid, d: int = 1) -> LaplaceBound:
    """Minimize d * exp(-theta t + log m(theta)) over a one-signed theta grid.

    ``log_mgf`` is either a callable theta -> log m(theta) or a number v,
    meaning the quadratic profile theta^2 v / 4.  A positive grid targets the
    largest-eigenvalue tail; a negative grid the smallest-eigenvalue tail.
    For the quadratic profile the analytic optimum is returned alongside and
    the grid minimum is verified against it.
    """
    grid = np.asarray(theta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("theta grid must be nonempty")
    if not (np.all(grid > 0) or np.all(grid < 0)):
        raise ValueError("theta grid must be strictly one-signed")
    if d < 1:
        raise ValueError("d must be >= 1")

    variance = None
    if isinstance(log_mgf, (int, float)):
        variance = float(log_mgf)
        if variance < 0:
            raise ValueError("quadratic profile variance must be >= 0")
        log_vals = grid * grid * variance / 4.0
    else:
        log_vals = np.asarray([float(log_mgf(th)) for th in grid])
    if np.isnan(log_vals).any():
        bad = grid[int(np.argmax(np.isnan(log_vals)))]
        raise ValueError(f"log m(theta) is NaN at theta = {bad}")

    objective = -grid * t + log_vals
    idx = int(np.argmin(objective))
    bound = d * math.exp(float(objective[idx]))

    closed_bound = closed_theta = None
    if variance is not None and variance > 0:
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


@dataclass(frozen=True)
class TrMgfEstimate:
    """Monte Carlo estimate of the normalized trace mgf over a theta grid."""

    theta_grid: tuple
    values: tuple
    std_errors: tuple
    sample_count: int
    overflow: tuple

    def __post_init__(self):
        for th, v in zip(self.theta_grid, self.values):
            if th == 0.0 and v != 1.0:
                raise ValueError("m(0) must equal 1 exactly")


def trace_mgf_estimate(samples: Sequence, theta_grid) -> TrMgfEstimate:
    """Estimate m(theta) = (1/d) E Tr exp(theta X) from matrix realizations.

    Plain Monte Carlo mean per grid point (pairwise-summed, so aggregation is
    order independent) with the sample standard error.  m(0) is pinned to 1
    exactly.  Overflow at extreme theta * |X| flags the grid point instead of
    failing the whole estimate.
    """
    mats = [_coerce(M) for M in samples]
    if not mats:
        raise ValueError("need at least one sample")
    d = mats[0].dim
    if any(M.dim != d for M in mats):
        raise ValueError("all samples must share one dimension")
    evals = np.linalg.eigvalsh(np.stack([M.mat for M in mats]))  # (N, d)
    N = evals.shape[0]
    values, errs, flags = [], [], []
    for th in np.asarray(theta_grid, dtype=float):
        if th == 0.0:
            values.append(1.0)
            errs.append(0.0)
            flags.append(False)
            continue
        with np.errstate(over="ignore"):
            per_sample = np.exp(th * evals).mean(axis=1)
        bad = not np.isfinite(per_sample).all()
        flags.append(bad)
        if bad:
            values.append(float("inf"))
            errs.append(float("inf"))
            continue
        values.append(float(per_sample.mean()))
        errs.append(0.0 if N == 1 else float(per_sample.std(ddof=1) / math.sqrt(N)))
    return TrMgfEstimate(tuple(float(t) for t in np.asarray(theta_grid, dtype=float)),
                         tuple(values), tuple(errs), N, tuple(flags))
