"""One-dimensional binomial-mixing approximation of the stochastic dynamics.

Collapsing the network to a single representative node with the rounded mean
degree d, the blue fraction nu evolves as d(nu)/dt = theta_sigma(nu, d) - nu,
where theta_sigma is the probability that a Binomial(d, nu) count of blue
neighbors clears the hard threshold sigma * d (with half weight on an exact
integer hit). The interior root of the drift separates the basins of the
all-red and all-blue states and tracks the empirically estimated critical
occupation of the full process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from ._csv import write_csv
from .graphgen import Graph

__all__ = [
    "ApproxModel",
    "q_binom",
    "theta_sigma",
    "NuTrajectory",
    "integrate_nu",
    "critical_nu",
    "save_drift_csv",
]


@dataclass(frozen=True)
class ApproxModel:
    """Collapsed model: integer mean degree plus the hard threshold sigma."""

    mean_degree: int
    sigma: float

    def __post_init__(self):
        if self.mean_degree < 1:
            raise ValueError("mean_degree must be >= 1")
        if not (0 < self.sigma < 1):
            raise ValueError("sigma must be in (0, 1)")

    @classmethod
    def from_graph(cls, g: Graph, sigma: float) -> "ApproxModel":
        """Round the graph's mean degree to the nearest integer."""
        return cls(mean_degree=int(round(float(g.degrees.mean()))), sigma=sigma)


def q_binom(d: int, alpha: float, k) -> float | np.ndarray:
    """Binomial pmf C(d, k) alpha^k (1-alpha)^(d-k), computed in log space.

    Stable for d up to 1e4. ``k`` may be a scalar or an integer array.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    k_arr = np.asarray(k)
    if np.any(k_arr < 0) or np.any(k_arr > d):
        raise ValueError("k out of range [0, d]")
    k_arr = k_arr.astype(np.float64)
    if alpha == 0.0:
        out = np.where(k_arr == 0, 1.0, 0.0)
    elif alpha == 1.0:
        out = np.where(k_arr == d, 1.0, 0.0)
    else:
        log_pmf = (
            gammaln(d + 1.0)
            - gammaln(k_arr + 1.0)
            - gammaln(d - k_arr + 1.0)
            + k_arr * np.log(alpha)
            + (d - k_arr) * np.log1p(-alpha)
        )
        out = np.exp(log_pmf)
    return float(out) if np.ndim(k) == 0 else out


def theta_sigma(nu: float, d: int, sigma: float) -> float:
    """Probability that the blue-neighbor count clears the threshold:
    sum of Q(d, nu, k) over k > sigma*d, plus half of Q at k = sigma*d when
    that product is an integer."""
    if not (0.0 <= nu <= 1.0):
        raise ValueError("nu must lie in [0, 1]")
    sd = sigma * d
    boundary = int(round(sd)) if abs(sd - round(sd)) < 1e-9 else None
    lowest = boundary + 1 if boundary is not None else int(np.floor(sd)) + 1
    total = 0.0
    if lowest <= d:
        total += float(q_binom(d, nu, np.arange(lowest, d + 1)).sum())
    if boundary is not None and 0 <= boundary <= d:
        total += 0.5 * q_binom(d, nu, boundary)
    return min(total, 1.0)


@dataclass(frozen=True, eq=False)
class NuTrajectory:
    times: np.ndarray
    nu: np.ndarray


def integrate_nu(
    model: ApproxModel, nu0: float, horizon: float, dt: float = 0.01
) -> NuTrajectory:
    """Forward Euler on the collapsed drift d(nu)/dt = theta - nu."""
    if not (0.0 <= nu0 <= 1.0):
        raise ValueError("nu0 must lie in [0, 1]")
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = int(round(horizon / dt))
    times = np.arange(steps + 1) * dt
    nu = np.empty(steps + 1)
    x = float(nu0)
    for i in range(steps + 1):
        nu[i] = x
        if i == steps:
            break
        x = x + (theta_sigma(x, model.mean_degree, model.sigma) - x) * dt
        x = min(max(x, 0.0), 1.0)
    return NuTrajectory(times=times, nu=nu)


def _drift(model: ApproxModel, nu: float) -> float:
    return theta_sigma(nu, model.mean_degree, model.sigma) - nu


def critical_nu(
    model: ApproxModel, scan_points: int = 1001, xtol: float = 1e-12
) -> Optional[float]:
    """Interior root of the drift on (0, 1) separating the basins of 0 and 1.

    A sign-change scan brackets candidate roots; the negative-to-positive
    crossing (unstable separator) is refined by bisection. If several such
    crossings exist the largest is returned (it bounds the basin of the
    all-blue state). Returns None when no interior sign change exists.

    Degenerate case: when the drift is identically zero on the grid (the
    d = 2 symmetric threshold makes theta(nu) = nu exactly) every state is
    stationary and the midpoint of the stationary interval is returned.
    """
    grid = np.linspace(0.0, 1.0, scan_points)
    vals = np.array([_drift(model, x) for x in grid])

    flat_tol = 1e-10
    if np.all(np.abs(vals) < flat_tol):
        return 0.5 * (grid[0] + grid[-1])

    neg = vals < -flat_tol
    pos = vals > flat_tol
    bracket = None
    for i in range(scan_points - 1):
        if neg[i]:
            # next strictly-positive point with no strictly-negative point between
            j = i + 1
            while j < scan_points and not pos[j] and not neg[j]:
                j += 1
            if j < scan_points and pos[j]:
                bracket = (grid[i], grid[j])
    if bracket is None:
        return None
    lo, hi = bracket
    f_lo = _drift(model, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _drift(model, mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= xtol:
            break
    return 0.5 * (lo + hi)


def save_drift_csv(model: ApproxModel, path, points: int = 1001) -> None:
    """Emit the (nu, theta_sigma(nu) - nu) drift curve for plotting."""
    grid = np.linspace(0.0, 1.0, points)
    write_csv(path, "nu,drift", ((float(x), float(_drift(model, x))) for x in grid))
