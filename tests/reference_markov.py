"""Slow reference for the Markov chain: one full SpMV, one checked
``eval_rb`` and one draw at every step until absorption or the horizon.

This is the stepping loop `cyberdyn.markov.simulate_run` used before it
kept incremental neighbor counts and stopped on frozen states. It draws the
same `random(n)` per step from the same generator, so the two must agree
bit for bit on every output. It counts the flips it draws, so a frozen run,
which the engine stops and this loop steps on, still counts the same flips.
"""

from types import SimpleNamespace

import numpy as np


def simulate_run(g, f, init, horizon, dt=0.01, seed=None, sample_every=10, keep_snapshots=False):
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    xi = np.asarray(init, dtype=bool).copy()
    steps = int(round(horizon / dt))
    times = np.arange(steps + 1) * dt
    mean_xi = np.empty(steps + 1)
    snap_idx = sorted(set(range(0, steps + 1, sample_every)) | {steps})
    snap_pos = {s: j for j, s in enumerate(snap_idx)}
    snaps = np.empty((len(snap_idx), g.n), dtype=bool) if keep_snapshots else None

    absorbed = None
    absorb_time = None
    n_flips = 0
    for step in range(steps + 1):
        frac = xi.mean()
        mean_xi[step] = frac
        if snaps is not None and step in snap_pos:
            snaps[snap_pos[step]] = xi
        if frac == 1.0 or frac == 0.0:
            absorbed = "blue" if frac == 1.0 else "red"
            absorb_time = float(times[step])
            mean_xi[step:] = frac
            if snaps is not None:
                for s, j in snap_pos.items():
                    if s >= step:
                        snaps[j] = xi
            break
        if step == steps:
            break
        y = (g.csr @ xi.astype(np.float64)) * g.inv_degrees
        theta = np.asarray(f.eval_rb(y))
        flip_prob = np.where(xi, 1.0 - theta, theta) * dt
        flips = rng.random(g.n) < flip_prob
        n_flips += int(np.count_nonzero(flips))
        xi = xi ^ flips

    return SimpleNamespace(
        times=times,
        mean_xi=mean_xi,
        absorbed=absorbed,
        absorb_time=absorb_time,
        sample_times=times[snap_idx],
        snapshots=snaps,
        n_flips=n_flips,
    )
