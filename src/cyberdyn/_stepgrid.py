"""The fixed-step time grid shared by the Markov chain and the mean-field
integrator."""

import numpy as np


def step_grid(horizon: float, dt: float, sample_every: int):
    """Validate the grid arguments and return ``(steps, times, snap_idx)``.

    ``steps`` is round(horizon / dt), ``times`` holds k * dt for k = 0..steps,
    and ``snap_idx`` (ascending) holds every ``sample_every``-th step plus
    the last one.
    """
    if not (np.isfinite(horizon) and horizon >= 0):
        raise ValueError(f"horizon must be finite and >= 0, got {horizon!r}")
    # Beyond dt = 1 a Markov flip probability dt * rate, or an Euler move,
    # can overshoot.
    if not (np.isfinite(dt) and 0 < dt <= 1):
        raise ValueError(f"dt must be finite and in (0, 1], got {dt!r}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every!r}")
    steps = int(round(horizon / dt))
    times = np.arange(steps + 1) * dt
    snap_idx = np.arange(0, steps + 1, sample_every)
    if snap_idx[-1] != steps:
        snap_idx = np.append(snap_idx, steps)
    return steps, times, snap_idx
