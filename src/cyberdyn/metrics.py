"""Agreement measures between the stochastic ensemble and the mean-field run.

The relative error of a node integrates the squared gap between its
ensemble-estimated blue probability and its mean-field probability over the
horizon, normalized by the integrated squared ensemble probability. The
Jensen probe checks the sign of the ensemble-vs-mean-field gap against the
direction implied by the combat family's curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combat import CombatFunction
from .graphgen import Graph
from .markov import MarkovEnsemble
from .meanfield import MeanFieldTrajectory

__all__ = [
    "RelativeErrorReport",
    "relative_error",
    "relative_error_report",
    "JensenPoint",
    "JensenReport",
    "jensen_gap_probe",
]


@dataclass(frozen=True, eq=False)
class RelativeErrorReport:
    per_node: np.ndarray  # nan where the denominator integral vanished
    mean: float
    n_excluded: int


def relative_error(
    markov_B: np.ndarray, meanfield_B: np.ndarray, times: np.ndarray
) -> RelativeErrorReport:
    """Per-node relative error by trapezoidal quadrature on the sample grid.

    RE_v = int (markov_B_v - meanfield_B_v)^2 dt / int markov_B_v^2 dt.
    Inputs are (T, n) arrays on a shared time grid (1-d inputs are treated as
    one aggregate node). Nodes whose denominator vanishes (never blue in any
    run) get nan and are excluded from the mean, with a count.
    """
    bm = np.asarray(markov_B, dtype=np.float64)
    bf = np.asarray(meanfield_B, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if bm.ndim == 1:
        bm = bm[:, None]
    if bf.ndim == 1:
        bf = bf[:, None]
    if bm.shape != bf.shape or bm.shape[0] != len(times):
        raise ValueError("series must share one time grid and node set")

    num = np.trapezoid((bm - bf) ** 2, times, axis=0)
    den = np.trapezoid(bm**2, times, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        re = np.where(den > 0, num / np.maximum(den, 1e-300), np.nan)
    defined = ~np.isnan(re)
    mean = float(re[defined].mean()) if defined.any() else float("nan")
    return RelativeErrorReport(
        per_node=re, mean=mean, n_excluded=int((~defined).sum())
    )


def relative_error_report(ens: MarkovEnsemble, traj: MeanFieldTrajectory) -> RelativeErrorReport:
    """Per-node relative error of an ensemble against a mean-field trajectory
    sharing the same snapshot grid."""
    if ens.node_freq is None:
        raise ValueError("ensemble was run without per-node frequencies")
    # Both grids come from one step_grid, so they must agree exactly.
    if not np.array_equal(ens.sample_times, traj.sample_times):
        raise ValueError("ensemble and trajectory snapshot grids differ")
    return relative_error(ens.node_freq, traj.states, ens.sample_times)


@dataclass(frozen=True)
class JensenPoint:
    t: float
    gap: float  # ensemble mean minus mean-field mean
    stderr: float
    consistent: bool


@dataclass(frozen=True, eq=False)
class JensenReport:
    prediction: str  # "meanfield_over" or "meanfield_under"
    points: list

    @property
    def all_consistent(self) -> bool:
        return all(p.consistent for p in self.points)


def _curvature_prediction(f: CombatFunction, B0: np.ndarray) -> str:
    """Direction of the mean-field bias implied by the family's curvature.

    Concave recovery rates make the mean-field model overestimate the
    stochastic mean; convex ones make it underestimate. Every family is
    convex below its bend and concave above it, so the side of the initial
    occupation decides: above the bend (never for the convex family, whose
    bend is 1) the mean field runs over, at or below it under.
    """
    if f.bend is None:
        raise ValueError(f"no curvature prediction for family {f.family!r}")
    mean0 = float(np.asarray(B0, dtype=np.float64).mean())
    return "meanfield_over" if mean0 > f.bend else "meanfield_under"


def jensen_gap_probe(
    g: Graph,
    f: CombatFunction,
    B0: np.ndarray,
    ens: MarkovEnsemble,
    traj: MeanFieldTrajectory,
    checkpoints: Sequence[float],
) -> JensenReport:
    """Signed ensemble-vs-mean-field gap at the checkpoints, classified
    against the curvature prediction as a one-sided check with a margin of
    3 standard errors."""
    prediction = _curvature_prediction(f, B0)
    points = []
    for t in checkpoints:
        i_e = int(np.argmin(np.abs(ens.times - t)))
        i_m = int(np.argmin(np.abs(traj.times - t)))
        if abs(ens.times[i_e] - traj.times[i_m]) > 1e-9:
            raise ValueError(f"checkpoint {t} not on both grids")
        gap = float(ens.mean_xi[i_e] - traj.mean_blue[i_m])
        se = float(ens.stderr[i_e])
        margin = 3.0 * se
        if prediction == "meanfield_over":
            consistent = gap <= margin
        else:
            consistent = gap >= -margin
        points.append(
            JensenPoint(t=float(ens.times[i_e]), gap=gap, stderr=se, consistent=consistent)
        )
    return JensenReport(prediction=prediction, points=points)
