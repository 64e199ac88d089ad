"""Discrete-time simulation of the native stochastic attack-defense process.

Each step reads one global snapshot of the node states. A red node turns blue
with probability dt * f_RB(realized blue-neighbor fraction); a blue node turns
red with probability dt * f_BR(realized red-neighbor fraction). Because the
two rates are duals, f_BR(1 - y) = 1 - f_RB(y), a single family evaluation
drives both transitions. All-blue and all-red are absorbing and trigger an
early exit. So does a frozen state, one in which every flip probability is 0:
no later draw can change it, so the rest of the series is filled in and the
run stops (``absorbed`` stays None, as for a run that reaches the horizon).

The blue-neighbor counts are computed once and then updated along the CSR
rows of the nodes each step flips; the flip probabilities are looked up again
only after a step that flipped something. Each run reports telemetry: the
steps it executed, the flips they made and why it stopped.

Two engines step a run and give the same bytes. Both read each node's flip
probability from one table per graph, family and dt, indexed by its
blue-neighbor count (``_rate_tables``); neither calls the family while it
steps. On a PCG64 generator a compiled kernel (``_kernel.c``, built with the
system ``cc`` on the first run of a process) keeps the nodes that can flip in
a bitmap and jumps the generator over the draws of the others. The numpy
loop steps every other run, and every run when the kernel cannot be built,
loaded or trusted.

Runs are embarrassingly parallel; each run owns its RNG, seeded by the
documented splitmix64 rule below, so ensembles are bit-reproducible for a
fixed master seed regardless of worker count. Runs step on threads when the
kernel steps them, since its call releases the GIL, and serially otherwise:
the numpy loop holds it. A run draws one ``random(n)`` per executed step and
stops drawing once it absorbs or freezes.
"""

from __future__ import annotations

from collections import Counter
from concurrent import futures  # its pool module loads on first use
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from ._csv import write_csv
from ._stepgrid import step_grid
from .combat import CombatFunction
from .graphgen import Graph

__all__ = [
    "split_seed",
    "sample_initial",
    "RunRecord",
    "MarkovEnsemble",
    "simulate_run",
    "run_batches",
    "simulate_ensemble",
    "save_ensemble_csv",
    "engine",
]

_MASK64 = (1 << 64) - 1


def split_seed(master_seed: int, index: int) -> int:
    """Seed for run ``index``: splitmix64 finalizer applied to
    master_seed + index * 0x9E3779B97F4A7C15 (all arithmetic mod 2^64)."""
    z = (int(master_seed) + index * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def sample_initial(B0: np.ndarray, seed=None) -> np.ndarray:
    """Independent per-node coin flips with probabilities B0 (True = blue)."""
    B0 = np.asarray(B0, dtype=np.float64)
    if not np.all((B0 >= 0) & (B0 <= 1)):
        raise ValueError("B0 entries must be finite and lie in [0, 1]")
    return np.random.default_rng(seed).random(B0.shape) < B0


@dataclass(frozen=True, eq=False)
class RunRecord:
    """One stochastic run: blue-fraction series at every step plus the
    absorption outcome ("blue", "red", or None if the run did not absorb).

    ``times`` is derived, not stored: k * dt for each entry of ``mean_xi``,
    bit for bit the run's ``step_grid`` times. So are ``absorbed`` and
    ``absorb_time`` (``times[steps_executed]``), from the telemetry below.

    Telemetry: ``steps_executed`` counts the updates drawn, ``n_flips`` the
    node flips they made, and ``exit_reason`` says why stepping stopped:
    "absorbed_blue", "absorbed_red", "frozen" (no flip could happen any more)
    or "horizon".
    """

    mean_xi: np.ndarray
    snapshots: Optional[np.ndarray]
    steps_executed: int
    exit_reason: str
    n_flips: int
    dt: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.mean_xi)) * self.dt

    @property
    def absorbed(self) -> Optional[str]:
        kind, _, colour = self.exit_reason.partition("_")
        return colour if kind == "absorbed" else None

    @property
    def absorb_time(self) -> Optional[float]:
        return self.steps_executed * self.dt if self.absorbed else None


def _fill_tail(mean_xi, snaps, snap_idx, step, xi) -> None:
    """Hold the state at ``step`` to the horizon: the run absorbed or froze."""
    mean_xi[step:] = mean_xi[step]
    if snaps is not None:
        snaps[np.searchsorted(snap_idx, step):] = xi


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
    """Run the chain from a given initial state up to the horizon.

    Each executed step draws one ``random(n)`` from the run's generator. A
    run that absorbs or freezes draws nothing more, so a caller-supplied
    ``Generator`` is left where the run stopped. On a PCG64 generator the
    compiled kernel steps the run when this process has one (see
    ``engine``); both engines give the same bytes.
    """
    steps, _, snap_idx = step_grid(horizon, dt, sample_every)
    rng = np.random.default_rng(seed)
    xi = np.asarray(init, dtype=bool).copy()
    n = g.n
    if xi.shape != (n,):
        raise ValueError("init must have one state per node")

    mean_xi = np.empty(steps + 1)
    snaps = np.empty((len(snap_idx), n), dtype=bool) if keep_snapshots else None
    lib = _kernel_for(rng)
    args = (g.indptr, g.indices, _rate_tables(g, f, dt), rng, xi, steps, mean_xi, snaps, snap_idx)
    step, n_flips, exit_reason = _numpy_steps(*args) if lib is None else _kernel_steps(lib, *args)
    return RunRecord(
        mean_xi=mean_xi,
        snapshots=snaps,
        steps_executed=step,
        exit_reason=exit_reason,
        n_flips=n_flips,
        dt=dt,
    )


def _numpy_steps(indptr, indices, prob, rng, xi, steps, mean_xi, snaps, snap_idx):
    """Step the chain in numpy from the rate tables, filling ``mean_xi`` and
    ``snaps``; return ``(steps executed, flips made, exit reason)``."""
    n = len(xi)
    snap_steps = snap_idx.tolist() + [-1]
    next_snap = 0

    # slot[v] = 2 * (indptr[v] + v + k), k being v's blue-neighbor count:
    # prob[slot[v] + colour] is the entry the kernel reads for v. Each
    # neighbor that turns blue moves it by +2, each that turns red by -2.
    prob = prob.ravel()
    running = np.concatenate(([0], np.cumsum(xi[indices])))
    slot = 2 * (indptr[:-1] + np.arange(n) + running[indptr[1:]] - running[indptr[:-1]])
    blue = int(np.count_nonzero(xi))
    n_flips = 0
    exit_reason = "horizon"
    flip_prob = None
    step = 0
    while True:
        mean_xi[step] = blue / n
        if step == snap_steps[next_snap]:
            if snaps is not None:
                snaps[next_snap] = xi
            next_snap += 1
        if blue == n or blue == 0:
            exit_reason = "absorbed_blue" if blue else "absorbed_red"
            _fill_tail(mean_xi, snaps, snap_idx, step, xi)
            break
        if step == steps:
            break
        if flip_prob is None:
            flip_prob = prob[slot + xi]
            if not flip_prob.any():
                exit_reason = "frozen"
                _fill_tail(mean_xi, snaps, snap_idx, step, xi)
                break
        flipped = (rng.random(n) < flip_prob).nonzero()[0]
        step += 1
        if flipped.size:
            flip_prob = None  # the state changed: look the rates up again
            xi[flipped] ^= True
            # Gather the CSR rows of the flipped nodes in one index build and
            # move each neighbor's slot by +2 (turned blue) or -2 (turned red).
            starts = indptr[flipped]
            lens = indptr[flipped + 1] - starts
            ends = np.cumsum(lens)
            rows = np.arange(ends[-1]) + np.repeat(starts - (ends - lens), lens)
            sign = np.where(xi[flipped], 1, -1)
            np.add.at(slot, indices[rows], np.repeat(2 * sign, lens))
            blue += int(sign.sum())
            n_flips += flipped.size
    return step, n_flips, exit_reason


# The compiled library of this process (ctypes), which holds the Markov
# kernel and the mean-field Euler stepper; None for the numpy loops, or
# _UNRESOLVED before the first run or integration.
_UNRESOLVED = object()
_KERNEL = _UNRESOLVED


def _resolve_kernel():
    """Build, load and self-check the library once per process; None means
    the numpy loops step every Markov run and every mean-field
    integration."""
    global _KERNEL
    if _KERNEL is _UNRESOLVED:
        from . import _kernel

        _KERNEL = _kernel.load()
    return _KERNEL


def _kernel_for(rng):
    """The library when it can draw from ``rng`` (a PCG64 generator), else
    None."""
    return _resolve_kernel() if type(rng.bit_generator) is np.random.PCG64 else None


def engine() -> str:
    """What steps this process's PCG64 runs and its mean-field
    integrations, and draws its PCG64 graph generators' coins: "kernel" (the
    compiled library) or "numpy"."""
    return "numpy" if _resolve_kernel() is None else "kernel"


_EXITS = ("horizon", "absorbed_blue", "absorbed_red", "frozen")
# (g, f, dt, rate tables) of the last run: built once per graph, family and
# dt, and read in place by every pool thread.
_RATE_TABLES: tuple = (None, None, None, None)


def _rate_tables(g, f, dt):
    """`_rate_table` of the last run's graph, family and dt, built again only
    when one of them changes."""
    global _RATE_TABLES
    tg, tf, tdt, prob = _RATE_TABLES
    if tg is not g or tf is not f or tdt != dt:
        prob = _rate_table(g, f, dt)
        _RATE_TABLES = (g, f, dt, prob)
    return prob


def _rate_table(g, f, dt):
    """``prob`` for either engine: ``prob[2 * (indptr[v] + v + k) + colour]``
    is node v's flip probability with k blue neighbours: theta * dt for a
    red node, (1 - theta) * dt for a blue one, theta being
    ``f._rates(k * inv_deg[v])``."""
    rows = g.degrees + 1
    node = np.repeat(np.arange(g.n), rows)
    k = np.arange(len(node)) - np.repeat(g.indptr[:-1] + np.arange(g.n), rows)
    theta = f._rates(k.astype(np.float64) * g.inv_degrees[node])
    prob = np.empty((len(node), 2))
    prob[:, 0] = theta * dt
    prob[:, 1] = (1.0 - theta) * dt
    return prob


def _kernel_steps(lib, indptr, indices, prob, rng, xi, steps, mean_xi, snaps, snap_idx):
    """`_numpy_steps` in the compiled kernel, on the generator's own state."""
    stats = np.zeros(2, dtype=np.int64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        code = lib.cyb_run(
            len(xi), indptr.ctypes.data, indices.ctypes.data, prob.ctypes.data, xi.ctypes.data,
            steps, mean_xi.ctypes.data, snap_idx.ctypes.data, len(snap_idx),
            None if snaps is None else snaps.ctypes.data, bitgen.ctypes.state_address,
            stats.ctypes.data,
        )
    if code < 0:
        raise MemoryError("the Markov kernel could not allocate its work arrays")
    return int(stats[0]), int(stats[1]), _EXITS[code]


@dataclass(frozen=True, eq=False)
class MarkovEnsemble:
    """Seeded collection of runs with per-time aggregates.

    ``mean_xi`` averages the blue fraction across runs at every step
    (absorbed runs contribute their absorbing value). ``final_fractions``
    holds each run's blue fraction at the horizon. ``node_freq`` holds the
    per-node across-run blue frequency on the snapshot grid when enabled.
    ``steps_executed`` and ``n_flips`` sum the runs' telemetry and
    ``exit_reasons`` counts the runs per ``RunRecord.exit_reason``.
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
    steps_executed: int
    n_flips: int
    exit_reasons: Counter

    @property
    def n_absorbed_blue(self) -> int:
        return self.exit_reasons["absorbed_blue"]

    @property
    def n_absorbed_red(self) -> int:
        return self.exit_reasons["absorbed_red"]

    def absorbed_counts(self, kind: str) -> np.ndarray:
        """Cumulative count of runs absorbed in ``kind`` by each time."""
        out = np.zeros(len(self.times), dtype=np.int64)
        for a in self.absorption:
            if a is not None and a[0] == kind:
                out[self.times >= a[1] - 1e-12] += 1
        return out


def _execute_run(g, f, horizon, dt, sample_every, keep_snapshots, init_sampler, seed, B0):
    rng = np.random.default_rng(seed)
    init = init_sampler(rng) if init_sampler is not None else sample_initial(B0, rng)
    return simulate_run(
        g,
        f,
        init,
        horizon,
        dt=dt,
        seed=rng,
        sample_every=sample_every,
        keep_snapshots=keep_snapshots,
    )


def run_batches(
    g: Graph,
    f: CombatFunction,
    batches: Iterable[Sequence[tuple]],
    horizon: float,
    dt: float = 0.01,
    sample_every: int = 10,
    keep_snapshots: bool = False,
    init_sampler: Optional[Callable[[np.random.Generator], np.ndarray]] = None,
    workers: int = 1,
) -> Iterator[list]:
    """Run batches of ``(seed, B0)`` tasks; yield each batch's RunRecords in
    task order.

    Task ``(seed, B0)`` seeds a fresh generator with ``seed``, draws the
    initial state from ``init_sampler`` (or per-node coins with
    probabilities B0) and steps the chain on it. Batches are drawn from
    ``batches`` one at a time, after the previous batch has finished. With
    ``workers > 1`` and the compiled kernel stepping the runs, one thread
    pool serves every batch and is shut down when the generator finishes,
    raises or is closed: the kernel call releases the GIL, and the threads
    share the graph, the rate tables and each B0 in place. Otherwise the
    runs step serially, as the numpy loop holds the GIL. The records do not
    depend on the worker count.
    """
    run = lambda task: _execute_run(g, f, horizon, dt, sample_every, keep_snapshots,
                                    init_sampler, *task)
    if workers <= 1 or _resolve_kernel() is None:
        for batch in batches:
            yield [run(task) for task in batch]
        return
    _rate_tables(g, f, dt)  # built once, before the threads read them
    with futures.ThreadPoolExecutor(max_workers=workers) as ex:
        for batch in batches:
            yield list(ex.map(run, batch))


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
    _, times, snap_idx = step_grid(horizon, dt, sample_every)
    seeds = [split_seed(master_seed, i) for i in range(runs)]
    (records,) = run_batches(
        g, f, [[(s, B0) for s in seeds]], horizon, dt=dt, sample_every=sample_every,
        keep_snapshots=node_freq, init_sampler=init_sampler, workers=workers,
    )

    all_mean = np.stack([r.mean_xi for r in records])
    absorption = [None if r.absorbed is None else (r.absorbed, r.absorb_time) for r in records]
    freq = None
    if node_freq:
        freq = np.zeros((len(snap_idx), g.n))
        for r in records:
            freq += r.snapshots
        freq /= runs
    stderr = (
        all_mean.std(axis=0, ddof=1) / np.sqrt(runs) if runs > 1 else np.zeros(len(times))
    )
    return MarkovEnsemble(
        runs=runs,
        seeds=seeds,
        times=times,
        mean_xi=all_mean.mean(axis=0),
        stderr=stderr,
        absorption=absorption,
        final_fractions=all_mean[:, -1].copy(),
        sample_times=times[snap_idx],
        node_freq=freq,
        steps_executed=sum(r.steps_executed for r in records),
        n_flips=sum(r.n_flips for r in records),
        exit_reasons=Counter(r.exit_reason for r in records),
    )


def save_ensemble_csv(ens: MarkovEnsemble, path) -> None:
    """Write `t, mean_xi, stderr, n_absorbed_blue, n_absorbed_red`."""
    columns = (ens.times.astype(float), ens.mean_xi, ens.stderr,
               ens.absorbed_counts("blue"), ens.absorbed_counts("red"))
    write_csv(path, "t,mean_xi,stderr,n_absorbed_blue,n_absorbed_red",
              zip(*(c.tolist() for c in columns)))

