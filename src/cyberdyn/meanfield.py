"""Deterministic mean-field dynamics of per-node blue probabilities.

Each node's blue probability follows dB_v/dt = f_RB(y_v) - B_v, where y_v is
the arithmetic mean of B over v's neighbors. Integration is synchronous
forward Euler with a fixed step (0.01 by default): every update reads the
previous snapshot, which keeps the scheme identical to the discrete-time
stochastic simulator up to the randomness.

The Euler loop runs in the compiled stepper of ``_kernel.c`` when the
process has the library the Markov chain loads, and in numpy otherwise;
both give the same bytes (see ``integrate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from . import markov
from ._csv import write_csv
from ._stepgrid import step_grid
from .combat import CombatFunction
from .graphgen import Graph

__all__ = [
    "MeanFieldTrajectory",
    "EquilibriumVerdict",
    "EquilibriumKind",
    "IntegratorInstabilityError",
    "MonotonicityReport",
    "neighbor_fractions",
    "integrate",
    "classify_equilibrium",
    "predicted_convergence_rate",
    "empirical_convergence_rate",
    "monotonicity_probe",
    "save_trajectory_csv",
]

_BOX_SLACK = 1e-12
_RESIDUAL_TOL = 1e-9  # classify_equilibrium: largest |f(y) - B*| of an equilibrium


class IntegratorInstabilityError(RuntimeError):
    """State escaped [0, 1] by more than the clamp tolerance."""


def neighbor_fractions(g: Graph, values: np.ndarray) -> np.ndarray:
    """Per-node arithmetic mean of ``values`` over each node's neighbors."""
    return (g.csr @ np.asarray(values, dtype=np.float64)) * g.inv_degrees


@dataclass(frozen=True, eq=False)
class MeanFieldTrajectory:
    """Euler trajectory with full-resolution scalar series and strided
    per-node snapshots.

    ``times``/``mean_blue``/``min_B``/``max_B`` cover every step;
    ``sample_times``/``states`` hold the stored snapshots (always including
    the initial and final states). ``rate_evals`` counts the steps on which
    the rates were evaluated (telemetry; no output file records it).
    """

    times: np.ndarray
    mean_blue: np.ndarray
    min_B: np.ndarray
    max_B: np.ndarray
    sample_times: np.ndarray
    states: np.ndarray
    dt: float
    rate_evals: int

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def integrate(
    g: Graph,
    f: CombatFunction,
    B0: np.ndarray,
    horizon: float,
    dt: float = 0.01,
    sample_every: int = 10,
) -> MeanFieldTrajectory:
    """Integrate the master equation by synchronous forward Euler.

    Raises IntegratorInstabilityError (naming the first offending node and
    the time) if the state leaves [-1e-12, 1+1e-12], which with dt <= 1
    only a rate outside [0, 1] can cause; rounding inside that band is
    clamped.

    The rates theta = f(y), y = (A B) / deg, are evaluated lazily; the
    result is bit for bit that of evaluating them at every step. With u =
    2^-53, D = max|theta - B| at an evaluation step s and 0 < dt <= 1, the
    exact Euler map moves B by at most D * min(k dt, 1) in k steps with theta
    fixed. The float trajectory adds at most 4u per step, and computing y
    from B at most (deg + 2) u, so the computed neighbour means satisfy

        |y_v(s + k) - y_v(s)| <= D * min(k dt, 1) + (4k + 2 d_max + 12) u.

    ``f._flat_margin(y)`` is the distance from y to the nearest point where
    the rate can change (0 for every family but the hard threshold). Less
    the slack (4 steps + 2 d_max + 16) u, it gives m; while m > 0 the next
    floor(m / (dt D)) evaluations are skipped, and all later ones if D < m.
    The trajectory's ``rate_evals`` counts the evaluations made.

    Two engines step the loop and give the same bytes. The compiled Euler
    stepper of ``_kernel.c`` (the library the Markov chain loads, see
    ``markov.engine``) steps it when this process has one, with the numpy
    loop's operations in the numpy loop's order; it computes the hard
    threshold's rates itself (``f.cuts``) and hands every other family's
    neighbour means back to ``f._rates`` and ``f._flat_margin``. The numpy
    loop steps every integration otherwise.
    """
    steps, times, snap_idx = step_grid(horizon, dt, sample_every)
    B = np.asarray(B0, dtype=np.float64).copy()
    if B.shape != (g.n,):
        raise ValueError("B0 must have one entry per node")
    if not np.all((B >= 0) & (B <= 1)):
        raise ValueError("B0 entries must be finite and lie in [0, 1]")
    return _integrate(markov._resolve_kernel(), g, f, B, times, snap_idx, dt)


def _integrate(lib, g, f, B, times, snap_idx, dt) -> MeanFieldTrajectory:
    """`integrate` from a checked float64 state B, stepped in place: on the
    compiled stepper of ``lib``, or on the numpy loop for None."""
    steps = len(times) - 1
    out = (np.empty(steps + 1), np.empty(steps + 1), np.empty(steps + 1),
           np.empty((len(snap_idx), g.n)))  # mean_blue, min_B, max_B, states
    # B stays in [0, 1]: a neighbour sum then rounds to at most deg, and
    # deg * (1/deg) <= 1, so y stays in [0, 1] and the loop may call the
    # trusted rates.
    slack = (4 * steps + 2 * int(g.degrees.max()) + 16) * 2.0**-53
    if lib is None:
        rate_evals = _numpy_steps(g.csr, g.inv_degrees, f, B, times, snap_idx, dt, slack, *out)
    else:
        rate_evals = _kernel_steps(lib, g, f, B, times, snap_idx, dt, slack, *out)
    mean_blue, min_B, max_B, states = out
    return MeanFieldTrajectory(
        times=times,
        mean_blue=mean_blue,
        min_B=min_B,
        max_B=max_B,
        sample_times=times[snap_idx],
        states=states,
        dt=dt,
        rate_evals=rate_evals,
    )


def _escaped(B, v, t) -> IntegratorInstabilityError:
    return IntegratorInstabilityError(
        f"state escaped [0, 1] at node {v}, t={t:.4f} (value {B[v]!r})"
    )


def _numpy_steps(csr, inv_deg, f, B, times, snap_idx, dt, slack,
                 mean_blue, min_B, max_B, states) -> int:
    """Step the Euler loop in numpy, filling the series and the snapshots;
    return the rate evaluations made."""
    steps, n = len(times) - 1, len(B)
    snap_steps = snap_idx.tolist() + [-1]
    next_snap = 0
    delta = np.empty(n)
    rate_evals = 0
    next_eval = 0
    # min(clip(B)) = clip(min(B)): the post-update reductions, clamped,
    # are the next step's extremes.
    lo, hi = B.min(), B.max()
    for step in range(steps + 1):
        mean_blue[step] = np.add.reduce(B) / n  # B.mean(), minus its wrapper
        min_B[step] = lo
        max_B[step] = hi
        if step == snap_steps[next_snap]:
            states[next_snap] = B
            next_snap += 1
        if step == steps:
            break
        evaluate = step == next_eval
        if evaluate:
            y = (csr @ B) * inv_deg
            theta = f._rates(y)
            rate_evals += 1
            next_eval = step + 1
        np.subtract(theta, B, out=delta)
        if evaluate:
            margin = f._flat_margin(y) - slack
            if margin > 0:
                drift = max(delta.max(), -delta.min())
                if drift < margin:
                    next_eval = steps  # theta can no longer change
                else:
                    next_eval = min(steps, step + 1 + int(margin / (dt * drift)))
        delta *= dt
        B += delta
        lo, hi = B.min(), B.max()
        if lo < -_BOX_SLACK or hi > 1.0 + _BOX_SLACK:
            v = int(np.argmin(B) if lo < -_BOX_SLACK else np.argmax(B))
            raise _escaped(B, v, times[step + 1])
        if not (lo >= 0.0 and hi <= 1.0):
            np.clip(B, 0.0, 1.0, out=B)
            lo, hi = min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)
    return rate_evals


def _kernel_steps(lib, g, f, B, times, snap_idx, dt, slack,
                  mean_blue, min_B, max_B, states) -> int:
    """`_numpy_steps` in the compiled Euler stepper."""
    from ._kernel import MF_DONE, MF_ESCAPED, MFRun

    n = g.n
    theta, y = np.empty(n), np.empty(n)
    cut_lo, cut_hi = f.cuts or (0.0, 0.0)
    run = MFRun(
        n=n, steps=len(times) - 1, indptr=g.indptr.ctypes.data, indices=g.indices.ctypes.data,
        inv_deg=g.inv_degrees.ctypes.data, B=B.ctypes.data, theta=theta.ctypes.data,
        y=y.ctypes.data, dt=dt, slack=slack, hard=f.cuts is not None,
        cut_lo=cut_lo, cut_hi=cut_hi,
        mean_blue=mean_blue.ctypes.data, min_B=min_B.ctypes.data, max_B=max_B.ctypes.data,
        snap_idx=snap_idx.ctypes.data, n_snaps=len(snap_idx), states=states.ctypes.data,
        lo=B.min(), hi=B.max(),
    )
    while (code := lib.cyb_mf(run)) != MF_DONE:
        if code == MF_ESCAPED:
            raise _escaped(B, run.node, times[run.step + 1])
        np.copyto(theta, f._rates(y))  # MF_RATES: y holds the neighbour means
        run.margin = f._flat_margin(y) - slack
    return run.rate_evals


# ---------------------------------------------------------------------------
# Equilibria


class EquilibriumKind(Enum):
    STABLE_EXPONENTIAL = "StableExponential"
    UNSTABLE = "Unstable"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class EquilibriumVerdict:
    kind: EquilibriumKind
    rate: Optional[float] = None
    detail: str = ""


def _exponent(f: CombatFunction, z: float) -> Optional[float]:
    """f'(z) - 1, -1 where the rate is locally flat, None where the slope
    diverges."""
    if f._flat_margin(np.array([z])) > 0:
        return -1.0
    slope = f.derivative_rb(z)
    return None if slope is None else slope - 1.0


def predicted_convergence_rate(f: CombatFunction, z: float) -> float:
    """Linearized convergence exponent at the uniform equilibrium z in {0, 1}.

    The exponent is f'(z) - 1 (the row-normalized adjacency has top
    eigenvalue 1), and -1 where the rate is locally flat, as the hard
    threshold is away from its jump.
    """
    if z not in (0.0, 1.0, 0, 1):
        raise ValueError("z must be 0 or 1")
    rate = _exponent(f, float(z))
    if rate is None:
        raise ValueError(f"combat function not differentiable at z={z}")
    return rate


def classify_equilibrium(g: Graph, f: CombatFunction, Bstar: np.ndarray) -> EquilibriumVerdict:
    """Classify an equilibrium's stability from the combat function's bend
    and slopes.

    The input must actually be an equilibrium: f_RB(neighbor mean) must equal
    B* at every node within 1e-9. The rules, in order: a neighbor mean at the
    bend (within ``f.bend_tolerance``; the bend is the repelling fixed point)
    is unstable; neighbor means all on flat stretches of the rate are stable
    with exponent -1; a uniform state z is stable with exponent f'(z) - 1
    when that is negative, and unstable when it is positive or the slope
    diverges; anything else is undetermined.
    """
    B = np.asarray(Bstar, dtype=np.float64)
    if B.shape != (g.n,):
        raise ValueError("Bstar must have one entry per node")
    y = neighbor_fractions(g, B)
    residual = np.abs(np.asarray(f.eval_rb(y)) - B)
    worst = int(np.argmax(residual))
    if residual[worst] > _RESIDUAL_TOL:
        raise ValueError(
            f"not an equilibrium: node {worst} has residual {residual[worst]:.3e}"
        )

    if f.bend is not None:
        tol = f.bend_tolerance
        # the comparisons the hard threshold's rate makes, so "at the bend"
        # is exactly "rate 1/2" there
        at_bend = (y >= f.bend - tol) & (y <= f.bend + tol)
        if at_bend.any():
            return EquilibriumVerdict(
                EquilibriumKind.UNSTABLE,
                detail=f"node {int(np.argmax(at_bend))} has its neighbor mean at the bend",
            )
    if f._flat_margin(y) > 0:
        return EquilibriumVerdict(
            EquilibriumKind.STABLE_EXPONENTIAL,
            rate=-1.0,
            detail="every neighbor mean on a flat stretch of the rate",
        )
    for z in (0.0, 1.0):
        if np.all(np.abs(B - z) <= _RESIDUAL_TOL):
            rate = _exponent(f, z)
            if rate is None or rate > 0:
                return EquilibriumVerdict(EquilibriumKind.UNSTABLE, detail=f"f'({z:g}) > 1")
            if rate < 0:
                return EquilibriumVerdict(EquilibriumKind.STABLE_EXPONENTIAL, rate=rate)
    return EquilibriumVerdict(EquilibriumKind.UNDETERMINED, detail="not classified")


def empirical_convergence_rate(traj: MeanFieldTrajectory, target: float) -> float:
    """Least-squares slope of log ||B(t) - target||_inf over the last 30% of
    the trajectory.

    The trajectory must have converged (final sup-distance below 1e-3).
    Points within 1e-14 of the target are dropped before taking logs.
    """
    if target not in (0.0, 1.0, 0, 1):
        raise ValueError("target must be 0 or 1")
    dist = 1.0 - traj.min_B if target == 1.0 else traj.max_B
    if dist[-1] >= 1e-3:
        raise ValueError(
            f"trajectory did not converge to {target}: final distance {dist[-1]:.3e}"
        )
    start = int(len(dist) * 0.7)
    t = traj.times[start:]
    d = dist[start:]
    keep = d > 1e-14
    if keep.sum() < 2:
        raise ValueError("tail window too short after dropping converged points")
    slope = np.polyfit(t[keep], np.log(d[keep]), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# Monotonicity probe


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    strict: bool
    mode: str
    threshold: float
    first_violation: Optional[tuple[float, float]] = None  # (time, drop)


def monotonicity_probe(
    g: Graph,
    traj: MeanFieldTrajectory,
    threshold: float,
    mode: str,
) -> MonotonicityReport:
    """Check the monotone-envelope property along a trajectory.

    mode "above": requires every node's neighbor mean to start above the
    threshold, then asserts min_v B_v(t) never decreases (up to dt * 1e-6
    Euler tolerance). mode "below" is the mirrored statement for max_v B_v.
    """
    if mode not in ("above", "below"):
        raise ValueError("mode must be 'above' or 'below'")
    y0 = neighbor_fractions(g, traj.states[0])
    tol = traj.dt * 1e-6
    if mode == "above":
        if not np.all(y0 > threshold):
            raise ValueError("hypothesis fails at t=0: some neighbor mean <= threshold")
        series = traj.min_B
        deltas = np.diff(series)
    else:
        if not np.all(y0 < threshold):
            raise ValueError("hypothesis fails at t=0: some neighbor mean >= threshold")
        series = traj.max_B
        deltas = -np.diff(series)

    bad = np.flatnonzero(deltas < -tol)
    if bad.size:
        i = int(bad[0])
        return MonotonicityReport(
            ok=False,
            strict=False,
            mode=mode,
            threshold=threshold,
            first_violation=(float(traj.times[i + 1]), float(deltas[i])),
        )
    strict = bool(np.all(deltas > tol)) if len(deltas) else False
    return MonotonicityReport(ok=True, strict=strict, mode=mode, threshold=threshold)


# ---------------------------------------------------------------------------
# Persistence


def save_trajectory_csv(traj: MeanFieldTrajectory, path) -> None:
    """Write `t, mean_blue, min_B, max_B`."""
    columns = (traj.times.astype(float), traj.mean_blue, traj.min_B, traj.max_B)
    write_csv(path, "t,mean_blue,min_B,max_B", zip(*(c.tolist() for c in columns)))
