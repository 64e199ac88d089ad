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

import numpy as np
from scipy.special import bdtrc

from .graphgen import Graph

__all__ = [
    "ApproxModel",
    "theta_sigma",
    "critical_nu",
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


def theta_sigma(nu, d: int, sigma: float) -> float | np.ndarray:
    """Probability that the blue-neighbor count clears the threshold:
    P(K > sigma*d) for K ~ Binomial(d, nu), plus half of P(K = sigma*d) when
    that product is an integer.

    ``nu`` may be a scalar (a float is returned) or an array of points.
    """
    nu_arr = np.asarray(nu, dtype=np.float64)
    if not np.all((nu_arr >= 0.0) & (nu_arr <= 1.0)):
        raise ValueError("nu must lie in [0, 1]")
    if not (0.0 <= sigma <= 1.0):
        raise ValueError("sigma must lie in [0, 1]")
    sd = sigma * d
    r = round(sd)
    if abs(sd - r) < 1e-9:
        # P(K > r) + P(K = r)/2 is the mean of the tails above r and above r - 1.
        out = 0.5 * (bdtrc(r, d, nu_arr) + bdtrc(r - 1, d, nu_arr))
    else:
        out = bdtrc(int(sd), d, nu_arr)  # sd >= 0, so int() is floor()
    return float(out) if out.ndim == 0 else out


def _drift(model: ApproxModel, nu):
    return theta_sigma(nu, model.mean_degree, model.sigma) - nu


def critical_nu(model: ApproxModel) -> float | None:
    """Interior root of the drift on (0, 1) separating the basins of 0 and 1.

    A sign-change scan on 1001 evenly spaced points brackets candidate roots;
    the negative-to-positive crossing (unstable separator) is refined by
    bisection to a bracket of width 1e-12. If several such
    crossings exist the largest is returned (it bounds the basin of the
    all-blue state). Returns None when no interior sign change exists.

    Degenerate case: when the drift is identically zero on the grid (the
    d = 2 symmetric threshold makes theta(nu) = nu exactly) every state is
    stationary and the midpoint of the stationary interval is returned.
    """
    grid = np.linspace(0.0, 1.0, 1001)
    vals = _drift(model, grid)

    flat_tol = 1e-10
    if np.all(np.abs(vals) < flat_tol):
        return float(0.5 * (grid[0] + grid[-1]))

    # A crossing is a negative point whose next non-flat point is positive.
    nonflat = np.flatnonzero(np.abs(vals) > flat_tol)
    signs = vals[nonflat]
    ups = np.flatnonzero((signs[:-1] < 0) & (signs[1:] > 0))
    if ups.size == 0:
        return None
    lo, hi = grid[nonflat[ups[-1]]], grid[nonflat[ups[-1] + 1]]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _drift(model, mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    return float(0.5 * (lo + hi))
