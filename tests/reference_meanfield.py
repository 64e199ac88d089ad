"""Slow reference for the mean-field integrator: one full SpMV, one checked
``eval_rb``, the Euler update into a fresh array and five reductions at
every step.

This is the stepping loop `cyberdyn.meanfield.integrate` used before it
evaluated the rates lazily and stepped in place. The two must agree bit for
bit on every output, and raise the same IntegratorInstabilityError.
"""

from types import SimpleNamespace

import numpy as np

from cyberdyn.meanfield import IntegratorInstabilityError, neighbor_fractions

_BOX_SLACK = 1e-12


def neighbor_mean(g, B, v):
    """Mean of B over the neighbors of node v: the per-node reference for
    `cyberdyn.meanfield.neighbor_fractions`."""
    return float(np.asarray(B, dtype=np.float64)[g.neighbors(v)].mean())


def integrate(g, f, B0, horizon, dt=0.01, sample_every=10):
    B = np.asarray(B0, dtype=np.float64).copy()
    steps = int(round(horizon / dt))
    times = np.arange(steps + 1) * dt
    mean_blue = np.empty(steps + 1)
    min_B = np.empty(steps + 1)
    max_B = np.empty(steps + 1)
    snap_idx = sorted(set(range(0, steps + 1, sample_every)) | {steps})
    states = np.empty((len(snap_idx), g.n))
    snap_pos = {s: j for j, s in enumerate(snap_idx)}

    for step in range(steps + 1):
        mean_blue[step] = B.mean()
        min_B[step] = B.min()
        max_B[step] = B.max()
        if step in snap_pos:
            states[snap_pos[step]] = B
        if step == steps:
            break
        theta = np.asarray(f.eval_rb(neighbor_fractions(g, B)))
        B = B + (theta - B) * dt
        lo, hi = B.min(), B.max()
        if lo < -_BOX_SLACK or hi > 1.0 + _BOX_SLACK:
            v = int(np.argmin(B) if lo < -_BOX_SLACK else np.argmax(B))
            raise IntegratorInstabilityError(
                f"state escaped [0, 1] at node {v}, t={times[step + 1]:.4f} "
                f"(value {B[v]!r})"
            )
        np.clip(B, 0.0, 1.0, out=B)

    return SimpleNamespace(
        times=times,
        mean_blue=mean_blue,
        min_B=min_B,
        max_B=max_B,
        sample_times=times[snap_idx],
        states=states,
    )
