"""Span tracer installed from outside the package, around calls into the
public functions of its modules.

`install()` replaces each traced function under every name a caller looks
it up by (a module attribute such as `expcli.integrate` or
`markov.simulate_run`, or a combat class's `eval_rb`), and `uninstall()`
puts the originals back. Spans (name, start, end, parent) are kept in
memory and written out by the caller at the end. Functions called once per
step or per scan point are counted and timed but folded into their parent
span instead of being kept as spans of their own, so a traced sigma grid
keeps thousands of spans rather than a million.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import cyberdyn
from cyberdyn import binom_approx, combat, expcli, graphgen, markov, meanfield, metrics, thresholds

MODULES = (graphgen, combat, markov, meanfield, thresholds, binom_approx, metrics, expcli)

SPANS = {
    graphgen: ("gen_er", "gen_chung_lu", "largest_component", "powerlaw_degree_sequence"),
    markov: ("simulate_ensemble", "simulate_run"),
    meanfield: ("integrate", "classify_equilibrium", "empirical_convergence_rate"),
    thresholds: ("estimate_sigma_markov", "strategic_b0", "strategic_init",
                 "strategic_outcome_diagnostics"),
    binom_approx: ("critical_nu",),
    metrics: ("relative_error_report",),
    expcli: ("run_experiment",),
}
LEAVES = {
    binom_approx: ("theta_sigma",),
    meanfield: ("neighbor_fractions",),
}
RATE_CLASSES = (combat.TypeICombat, combat.TypeIICombat, combat.TypeIIICombat,
                combat.TypeIVCombat, combat.TabulatedCombat)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, folded leaf seconds]
        self.stack: list = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counts = defaultdict(int)
        self.run = None  # state of the simulate_run call in progress
        self._saved: list = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0.0]
            self.spans.append(rec)
            self.stack.append(idx)
            state = before(idx) if before is not None else None
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result, state)
            return result

        return traced

    def leaf(self, name, fn, watch_run=False):
        stats = self.leaves[name]

        def traced(*args, **kwargs):
            if watch_run and self.run is not None and self.stack and self.stack[-1] == self.run["span"]:
                self._note_rates_input(args[1])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stats[0] += 1
                stats[1] += dt
                if self.stack:
                    self.spans[self.stack[-1]][4] += dt

        return traced

    # -- Markov bookkeeping ---------------------------------------------------

    def _before_run(self, idx):
        self.run = {"span": idx, "k": 0, "prev": None, "last": -1}
        return self.run

    def _note_rates_input(self, y):
        """Rate call k sees the state after k updates; a change in the
        neighbor fractions it receives means update k-1 changed the state."""
        run = self.run
        if run["prev"] is not None and not np.array_equal(y, run["prev"]):
            run["last"] = run["k"] - 1
        run["prev"] = y
        run["k"] += 1

    def _after_run(self, rec, run):
        self.run = None
        steps = len(rec.mean_xi) - 1
        c = self.counts
        if rec.absorbed is not None:
            c["markov.steps_executed"] += int(np.flatnonzero(rec.times == rec.absorb_time)[0])
            return
        changed = np.flatnonzero(np.diff(rec.mean_xi) != 0)
        last = max(run["last"], int(changed[-1]) if changed.size else -1)
        c["markov.steps_executed"] += steps
        c["markov.runs_to_horizon"] += 1
        c["markov.idle_tail_steps"] += steps - (last + 1)

    def _after_integrate(self, traj, _):
        self.counts["meanfield.steps"] += len(traj.times) - 1

    def _after_strategic_init(self, init, _):
        self.counts["thresholds.strategic_init.samples"] += 1
        self.counts["thresholds.strategic_init.tries"] += init.tries

    # -- install / uninstall --------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        hooks = {
            "simulate_run": (self._before_run, self._after_run),
            "integrate": (None, self._after_integrate),
            "strategic_init": (None, self._after_strategic_init),
        }
        holders = MODULES + (cyberdyn,)
        for table, traced in ((SPANS, True), (LEAVES, False)):
            for module, names in table.items():
                for fname in names:
                    orig = getattr(module, fname)
                    name = f"{_short(module)}.{fname}"
                    if traced:
                        wrapped = self.span(name, orig, *hooks.get(fname, (None, None)))
                    else:
                        wrapped = self.leaf(name, orig)
                    for holder in holders:
                        if getattr(holder, fname, None) is orig:
                            self._replace(holder, fname, wrapped)
        for cls in RATE_CLASSES:
            self._replace(cls, "eval_rb", self.leaf("combat.eval_rb", cls.eval_rb, watch_run=True))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def summary(self):
        """Per name: [calls, inclusive seconds, self seconds], and per module
        the self seconds, i.e. time not covered by child spans or folded
        leaves. Spans the benchmark opens itself count under `bench`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, folded) in enumerate(self.spans):
            rec = names[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - child[i] - folded
        for name, (calls, seconds) in self.leaves.items():
            names[name] = [calls, seconds, seconds]
        modules = defaultdict(float)
        for name, (_, _, own) in names.items():
            modules[name.split(".")[0]] += own
        return names, modules

    def dump(self) -> dict:
        return {
            "spans": [[n, s, e, p] for n, s, e, p, _ in self.spans],
            "folded_leaves": {n: {"calls": c, "s": s} for n, (c, s) in self.leaves.items()},
        }
