"""Discrete-time simulation of the native stochastic attack-defense process.

Each step reads one global snapshot of the node states. A red node turns blue
with probability dt * f_RB(realized blue-neighbor fraction); a blue node turns
red with probability dt * f_BR(realized red-neighbor fraction). Because the
two rates are duals, f_BR(1 - y) = 1 - f_RB(y), a single family evaluation per
step drives both transitions. All-blue and all-red are absorbing and trigger
an early exit.

Runs are embarrassingly parallel; each run owns its RNG, seeded by the
documented splitmix64 rule below, so ensembles are bit-reproducible for a
fixed master seed regardless of worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._csv import write_csv
from .combat import CombatFunction
from .graphgen import Graph

__all__ = [
    "split_seed",
    "sample_initial",
    "RunRecord",
    "MarkovEnsemble",
    "simulate_run",
    "simulate_ensemble",
    "save_ensemble_csv",
]

_MASK64 = (1 << 64) - 1


def split_seed(master_seed: int, index: int) -> int:
    """Seed for run ``index``: splitmix64 finalizer applied to
    master_seed + index * 0x9E3779B97F4A7C15 (all arithmetic mod 2^64)."""
    z = (int(master_seed) + index * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_initial(B0: np.ndarray, seed=None) -> np.ndarray:
    """Independent per-node coin flips with probabilities B0 (True = blue)."""
    B0 = np.asarray(B0, dtype=np.float64)
    if B0.min() < 0 or B0.max() > 1:
        raise ValueError("B0 entries must lie in [0, 1]")
    rng = _as_rng(seed)
    return rng.random(B0.shape) < B0


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One stochastic run: blue-fraction series at every step plus the
    absorption outcome ("blue", "red", or None if the horizon was reached)."""

    times: np.ndarray
    mean_xi: np.ndarray
    absorbed: Optional[str]
    absorb_time: Optional[float]
    sample_times: np.ndarray
    snapshots: Optional[np.ndarray]
    seed: Optional[int]


def simulate_run(
    g: Graph,
    f: CombatFunction,
    init: np.ndarray,
    horizon: float,
    dt: float = 0.01,
    seed=None,
    sample_every: int = 10,
    keep_snapshots: bool = False,
) -> RunRecord:
    """Run the chain from a given initial state up to the horizon."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > 1:
        raise ValueError("dt * max-rate must not exceed 1")
    rng = _as_rng(seed)
    xi = np.asarray(init, dtype=bool).copy()
    if xi.shape != (g.n,):
        raise ValueError("init must have one state per node")

    steps = int(round(horizon / dt))
    times = np.arange(steps + 1) * dt
    mean_xi = np.empty(steps + 1)
    snap_idx = sorted(set(range(0, steps + 1, sample_every)) | {steps})
    snap_pos = {s: j for j, s in enumerate(snap_idx)}
    snaps = np.empty((len(snap_idx), g.n), dtype=bool) if keep_snapshots else None

    absorbed = None
    absorb_time = None
    inv_deg = g.inv_degrees
    csr = g.csr
    for step in range(steps + 1):
        frac = xi.mean()
        mean_xi[step] = frac
        if snaps is not None and step in snap_pos:
            snaps[snap_pos[step]] = xi
        if absorbed is None and (frac == 1.0 or frac == 0.0):
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
        y = (csr @ xi.astype(np.float64)) * inv_deg
        theta = np.asarray(f.eval_rb(y))
        flip_prob = np.where(xi, 1.0 - theta, theta) * dt
        xi = xi ^ (rng.random(g.n) < flip_prob)

    return RunRecord(
        times=times,
        mean_xi=mean_xi,
        absorbed=absorbed,
        absorb_time=absorb_time,
        sample_times=times[snap_idx],
        snapshots=snaps,
        seed=seed if isinstance(seed, int) else None,
    )


@dataclass(frozen=True, eq=False)
class MarkovEnsemble:
    """Seeded collection of runs with per-time aggregates.

    ``mean_xi`` averages the blue fraction across runs at every step
    (absorbed runs contribute their absorbing value). ``final_fractions``
    holds each run's blue fraction at the horizon. ``node_freq`` holds the
    per-node across-run blue frequency on the snapshot grid when enabled.
    """

    runs: int
    seeds: list
    times: np.ndarray
    mean_xi: np.ndarray
    stderr: np.ndarray
    absorption: list
    final_fractions: np.ndarray
    sample_times: np.ndarray
    node_freq: Optional[np.ndarray]
    dt: float

    @property
    def n_absorbed_blue(self) -> int:
        return sum(1 for a in self.absorption if a is not None and a[0] == "blue")

    @property
    def n_absorbed_red(self) -> int:
        return sum(1 for a in self.absorption if a is not None and a[0] == "red")

    def absorbed_counts(self, kind: str) -> np.ndarray:
        """Cumulative count of runs absorbed in ``kind`` by each time."""
        out = np.zeros(len(self.times), dtype=np.int64)
        for a in self.absorption:
            if a is not None and a[0] == kind:
                out[self.times >= a[1] - 1e-12] += 1
        return out


# Worker-side context for process pools (populated by the initializer so the
# graph is shipped once per worker, not once per run).
_CTX: dict = {}


def _init_worker(g, f, horizon, dt, sample_every, keep_snapshots, init_sampler):
    _CTX.update(
        g=g,
        f=f,
        horizon=horizon,
        dt=dt,
        sample_every=sample_every,
        keep_snapshots=keep_snapshots,
        init_sampler=init_sampler,
    )


def _run_task(args):
    seed, B0 = args
    return _execute_run(
        _CTX["g"],
        _CTX["f"],
        B0,
        _CTX["horizon"],
        _CTX["dt"],
        seed,
        _CTX["sample_every"],
        _CTX["keep_snapshots"],
        _CTX["init_sampler"],
    )


def _execute_run(g, f, B0, horizon, dt, seed, sample_every, keep_snapshots, init_sampler):
    rng = np.random.default_rng(seed)
    init = init_sampler(rng) if init_sampler is not None else sample_initial(B0, rng)
    rec = simulate_run(
        g,
        f,
        init,
        horizon,
        dt=dt,
        seed=rng,
        sample_every=sample_every,
        keep_snapshots=keep_snapshots,
    )
    return rec.mean_xi, rec.absorbed, rec.absorb_time, rec.snapshots, rec.sample_times


def simulate_ensemble(
    g: Graph,
    f: CombatFunction,
    B0: Optional[np.ndarray],
    horizon: float,
    runs: int = 50,
    dt: float = 0.01,
    master_seed: int = 0,
    sample_every: int = 10,
    node_freq: bool = True,
    workers: int = 1,
    init_sampler: Optional[Callable[[np.random.Generator], np.ndarray]] = None,
    _executor: Optional[ProcessPoolExecutor] = None,
) -> MarkovEnsemble:
    """Run ``runs`` independent chains; run i is seeded split_seed(master, i).

    Each run first draws its initial state (from B0, or from ``init_sampler``
    when given) and then steps the chain with the same RNG stream.
    Aggregation is a deterministic reduction over the run index, so results
    are identical for any worker count.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if B0 is None and init_sampler is None:
        raise ValueError("need B0 or an init_sampler")
    if B0 is not None:
        B0 = np.asarray(B0, dtype=np.float64)
    seeds = [split_seed(master_seed, i) for i in range(runs)]
    tasks = [(s, B0) for s in seeds]

    if workers > 1 or _executor is not None:
        owned = _executor is None
        ex = _executor or ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(g, f, horizon, dt, sample_every, node_freq, init_sampler),
        )
        try:
            results = list(ex.map(_run_task, tasks, chunksize=max(1, runs // (4 * max(workers, 1)))))
        finally:
            if owned:
                ex.shutdown()
    else:
        results = [
            _execute_run(g, f, B0, horizon, dt, s, sample_every, node_freq, init_sampler)
            for s in seeds
        ]

    all_mean = np.stack([r[0] for r in results])
    absorption = [None if r[1] is None else (r[1], r[2]) for r in results]
    sample_times = results[0][4]
    freq = None
    if node_freq:
        freq = np.zeros((len(sample_times), g.n))
        for r in results:
            freq += r[3]
        freq /= runs
    steps = all_mean.shape[1]
    stderr = (
        all_mean.std(axis=0, ddof=1) / np.sqrt(runs) if runs > 1 else np.zeros(steps)
    )
    return MarkovEnsemble(
        runs=runs,
        seeds=seeds,
        times=np.arange(steps) * dt,
        mean_xi=all_mean.mean(axis=0),
        stderr=stderr,
        absorption=absorption,
        final_fractions=all_mean[:, -1].copy(),
        sample_times=sample_times,
        node_freq=freq,
        dt=dt,
    )


def save_ensemble_csv(ens: MarkovEnsemble, path) -> None:
    """Write `t, mean_xi, stderr, n_absorbed_blue, n_absorbed_red`."""
    columns = (ens.times.astype(float), ens.mean_xi, ens.stderr,
               ens.absorbed_counts("blue"), ens.absorbed_counts("red"))
    write_csv(path, "t,mean_xi,stderr,n_absorbed_blue,n_absorbed_red",
              zip(*(c.tolist() for c in columns)))

