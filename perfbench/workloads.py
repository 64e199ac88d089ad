"""The three workloads: their inputs, their fixed list of operations and the
checks made on what the operations return.

A workload is built once per process from the seed; `setup()` does the work
that is not measured (spec parsing, the reference graphs), `ops()` returns
the operations of one round, and `check()` verifies the outputs of the last
round. Program functions are always looked up as module attributes at call
time, so the traced run sees every call the benchmark makes.
"""

from __future__ import annotations

import shutil
import time
from functools import partial
from pathlib import Path

import numpy as np

from cyberdyn import binom_approx, combat, expcli, graphgen, markov, meanfield, thresholds

import checks as C


class Op:
    """One operation of a round. `unit` marks the operations unit_p50_s
    is taken over."""

    def __init__(self, name, fn, unit=False):
        self.name, self.fn, self.unit = name, fn, unit


def reference_graphs():
    """er2000 and pl2000 as the package's tests build them, plus the
    expected-degree sequence pl2000 is drawn from."""
    er = graphgen.gen_er(2000, 0.02, seed=20130805)
    seq = graphgen.powerlaw_degree_sequence(2000, 2.5, 2.0, 120.0)
    pl = graphgen.largest_component(graphgen.gen_chung_lu(seq, seed=20130806))
    return er, pl, seq


# ---------------------------------------------------------------------------
# dynamics: reduced bundled specs through the `cyberdyn run` path


DYNAMICS_SPECS = ("fig4", "fig5b", "fig6_type2")
DYNAMICS_RUNS = 4


class Dynamics:
    name = "dynamics"

    def __init__(self, seed: int, workers: int, out_root: Path):
        self.seed, self.out_root = seed, out_root
        self.manifests: list = []

    def setup(self):
        self.specs = {}
        for name in DYNAMICS_SPECS:
            spec = expcli.parse_spec(expcli.bundled_spec_text(name))
            spec.runs = DYNAMICS_RUNS
            spec.seed = 1000 * self.seed + spec.seed
            expcli.validate_spec(spec)
            self.specs[name] = spec

    def ops(self):
        round_dir = self.last_dir = self.out_root / "round"
        shutil.rmtree(round_dir, ignore_errors=True)
        return [Op(name, partial(self._run, spec, round_dir / name), unit=True)
                for name, spec in self.specs.items()]

    def throughput(self, wall):
        """Markov runs completed per second of a round."""
        return sum(s.runs * len(s.graphs) * len(s.init["levels"]) for s in self.specs.values()) / wall

    def _run(self, spec, out_dir):
        manifest = expcli.run_experiment(spec, out_dir, workers=1)
        self.manifests.append((spec.name, manifest.outputs))
        return manifest

    def check(self):
        first = {}
        for name, outputs in self.manifests:
            first.setdefault(name, outputs)
            C.require(outputs == first[name], f"{name}: outputs differ between rounds")
        for name, spec in self.specs.items():
            out = self.last_dir / name
            manifest = C.check_manifest(out)
            for csv in sorted(out.glob("*_meanfield.csv")):
                C.check_unit_box(C.read_csv(csv), f"{name}/{csv.name}")
            summary = C.read_csv(out / "summary.csv")
            if name == "fig5b":
                C.check_outcome_sides(summary, "powerlaw", spec.combat["sigma"], name)
            else:
                C.check_outcome_sides(summary, "er", spec.combat.get("sigma", spec.combat.get("tau")), name)
            if name == "fig5b":
                self._check_euler(spec, out, manifest)
            if name == "fig4":
                self._check_stepper(spec, out, manifest)

    def _graph(self, spec, gname, manifest):
        """Rebuild graph `gname` of a spec the way the runner does, and
        confirm it is the graph the manifest hashed."""
        gi, params = next((i, p) for i, (n, p) in enumerate(spec.graphs) if n == gname)
        seed = C.splitmix64(spec.seed, 1000 + gi)
        if params["generator"] == "er":
            g = graphgen.gen_er(params["n"], params["p"], seed)
        else:
            seq = graphgen.powerlaw_degree_sequence(params["n"], params["gamma"], params["d_min"], params["d_max"])
            g = graphgen.largest_component(graphgen.gen_chung_lu(seq, seed=seed))
        C.require(C.edge_list_sha256(g.n, g.indptr, g.indices) == manifest["graph_hashes"][gname],
                  f"{spec.name}: rebuilt {gname} graph does not match the manifest hash")
        return g

    def _check_euler(self, spec, out, manifest):
        """The strategic start is not uniform, so this trajectory exercises
        the neighbor averaging as well as the rate and the Euler step."""
        g = self._graph(spec, "powerlaw", manifest)
        level = 0.55
        B0 = C.strategic_probabilities(g.degrees, level)
        ref = C.euler_series(g.indptr, g.indices, C.hard_threshold(spec.combat["sigma"]),
                             B0, spec.horizon, spec.dt)
        C.check_euler(C.read_csv(out / "powerlaw_0p55_meanfield.csv"), ref, f"{spec.name} powerlaw phi {level}")

    def _check_stepper(self, spec, out, manifest):
        g = self._graph(spec, "er", manifest)
        level, sigma = 0.4, spec.combat["sigma"]
        B0 = np.full(g.n, level)
        master = C.splitmix64(spec.seed, 2000)  # graph 0, level 0
        seeds = [C.splitmix64(master, i) for i in range(spec.runs)]
        rate = C.hard_threshold(sigma)
        runs = [C.markov_run(g.indptr, g.indices, rate, B0, spec.horizon, spec.dt, s) for s in seeds]
        C.check_ensemble_bits(C.read_csv(out / "er_0p4_ensemble.csv"), runs, f"{spec.name} er level {level}")
        rng = np.random.default_rng(seeds[0])
        init = rng.random(g.n) < B0
        rec = markov.simulate_run(g, combat.TypeICombat(sigma=sigma), init, spec.horizon,
                                  dt=spec.dt, seed=rng)
        C.check_run_bits(rec.mean_xi, rec.absorbed, runs[0], f"{spec.name} run 0")


# ---------------------------------------------------------------------------
# sigma-grid: empirical threshold level grids


SIGMA_RUNS = 8
SIGMA_HORIZON = 30.0
# (name, graph, sigma, init rule, levels, occupancy_tol). The two inner
# levels sit inside the band where runs split between colours; the outer
# ones lie where 100 runs of 100 went one way, so verdicts stay monotone.
SIGMA_GRIDS = (
    ("er2000-uniform-0.3", "er", 0.3, "uniform", (0.19, 0.23, 0.27, 0.31), 0.0),
    ("er2000-uniform-0.7", "er", 0.7, "uniform", (0.69, 0.73, 0.77, 0.81), 0.0),
    ("pl2000-strategic-0.3", "pl", 0.3, "strategic", (0.01, 0.04, 0.06, 0.12), 0.1),
)


class SigmaGrid:
    name = "sigma-grid"

    def __init__(self, seed: int, workers: int, out_root: Path):
        self.seed, self.workers = seed, workers

    def setup(self):
        er, pl, _ = reference_graphs()
        self.graphs = {"er": er, "pl": pl}

    def ops(self):
        self.results = {}
        return [Op(name, partial(self._grid, k, *grid), unit=True)
                for k, (name, *grid) in enumerate(SIGMA_GRIDS)]

    def throughput(self, wall):
        """Markov runs completed per second of a round."""
        return SIGMA_RUNS * sum(len(grid[4]) for grid in SIGMA_GRIDS) / wall

    def _grid(self, k, graph, sigma, rule, levels, tol):
        est = thresholds.estimate_sigma_markov(
            self.graphs[graph], combat.TypeICombat(sigma=sigma), levels,
            init_rule=rule, runs=SIGMA_RUNS, horizon=SIGMA_HORIZON,
            master_seed=1000 * self.seed + k, workers=self.workers, occupancy_tol=tol,
        )
        self.results[SIGMA_GRIDS[k][0]] = est
        return est

    def check(self):
        d = int(round(float(self.graphs["er"].degrees.mean())))
        for name, graph, sigma, _, levels, _ in SIGMA_GRIDS:
            est = self.results[name]
            C.check_grid([float(x) for x in est.levels], est.verdicts, est.counts, SIGMA_RUNS,
                         est.a1, est.b1, est.sigma_markov, name)
            if graph == "er":
                root = C.drift_root(d, sigma)
                C.check_drift_side(root, sigma, name)
                C.check_near_root(est.sigma_markov, root, 0.05, name)


# ---------------------------------------------------------------------------
# analytics: mean-field, binomial and graph work with no Markov stepping


BOUNDARY_HORIZON = 20.0
BOUNDARY_BRACKET = (0.40, 0.60)
BOUNDARY_STEPS = 8
BOUNDARY_TOL = 0.03
ROOT_DEGREES = (4, 6, 10, 16, 25, 40)
ROOT_SIGMAS = (0.3, 0.5, 0.7)
CONVERGE_HORIZON = 20.0
# family -> (rate function args, start level, target, expected verdict at
# 0 and at 1 as (kind, linearized exponent f'(z) - 1))
CONVERGENCE = {
    "type2": (dict(tau=0.5), 0.7, 1.0, {0.0: ("StableExponential", -1.0), 1.0: ("StableExponential", -1.0)}),
    "type3": (dict(exponent=0.5), 0.3, 1.0, {0.0: ("Unstable", None), 1.0: ("StableExponential", -0.5)}),
    "type4": (dict(exponent=2.0), 0.7, 0.0, {0.0: ("StableExponential", -1.0), 1.0: ("Unstable", None)}),
}


class Analytics:
    name = "analytics"

    def __init__(self, seed: int, workers: int, out_root: Path):
        self.seed = seed
        self.integrate_s = 0.0
        self.integrate_steps = 0

    def setup(self):
        er, pl, seq = reference_graphs()
        self.graphs = {"er2000": er, "pl2000": pl}
        self.seq = seq
        d = seq.d
        self.diag_B0 = np.minimum(1.0, 0.25 * len(d) * d / d.sum())

    def ops(self):
        self.results = {}
        ops = [Op(f"boundary-{g}", partial(self._boundary, g), unit=True) for g in self.graphs]
        ops += [
            Op("critical-nu", self._roots),
            Op("gen-er-10k", self._gen_er),
            Op("gen-chung-lu-10k", self._gen_chung_lu),
            Op("diagnostics-pl2000", self._diagnostics),
        ]
        ops += [Op(f"converge-{fam}", partial(self._converge, fam)) for fam in CONVERGENCE]
        return ops

    def throughput(self, wall):
        """Euler steps per second spent in `integrate`, over all rounds."""
        return self.integrate_steps / self.integrate_s

    def _integrate(self, g, f, B0, horizon):
        t0 = time.perf_counter()
        traj = meanfield.integrate(g, f, B0, horizon, dt=0.01, sample_every=100)
        self.integrate_s += time.perf_counter() - t0
        self.integrate_steps += len(traj.times) - 1
        return traj

    def _boundary(self, name):
        g = self.graphs[name]
        f = combat.TypeICombat(sigma=0.5)

        def side(target):
            B0 = thresholds.strategic_b0(g, target_phi=target).B0
            final = self._integrate(g, f, B0, BOUNDARY_HORIZON).mean_blue[-1]
            return "blue" if final > 0.5 else "red"

        lo, hi = BOUNDARY_BRACKET
        ends = (side(lo), side(hi))
        for _ in range(BOUNDARY_STEPS):
            mid = 0.5 * (lo + hi)
            if side(mid) == "blue":
                hi = mid
            else:
                lo = mid
        self.results[name] = (0.5 * (lo + hi), ends)

    def _roots(self):
        self.results["roots"] = {
            (d, s): binom_approx.critical_nu(binom_approx.ApproxModel(mean_degree=d, sigma=s))
            for d in ROOT_DEGREES for s in ROOT_SIGMAS
        }

    def _gen_er(self):
        self.results["er10k"] = graphgen.gen_er(10_000, 0.002, seed=1000 * self.seed + 1)

    def _gen_chung_lu(self):
        seq = graphgen.powerlaw_degree_sequence(10_000, 2.5, 2.0, 120.0)
        g = graphgen.gen_chung_lu(seq, seed=1000 * self.seed + 2)
        self.results["cl10k"] = graphgen.largest_component(g)

    def _diagnostics(self):
        self.results["diag"] = thresholds.strategic_outcome_diagnostics(self.seq, self.diag_B0)

    def _converge(self, family):
        params, start, target, _ = CONVERGENCE[family]
        f = combat.from_params(family, **params)
        g = self.graphs["er2000"]
        traj = self._integrate(g, f, np.full(g.n, start), CONVERGE_HORIZON)
        rate = meanfield.empirical_convergence_rate(traj, target)
        verdicts = {
            z: meanfield.classify_equilibrium(g, f, np.full(g.n, z)) for z in (0.0, 1.0)
        }
        self.results[family] = (rate, verdicts)

    def check(self):
        r = self.results
        C.check_roots(r["roots"], {key: C.drift_root(*key) for key in r["roots"]})
        for name in ("er10k", "cl10k"):
            g = r[name]
            C.check_simple_graph(g.n, g.indptr, g.indices, name)
        C.check_er_edges(10_000, 0.002, len(r["er10k"].indices) // 2, "er10k")
        for name in self.graphs:
            C.check_boundary(*r[name], 0.5, BOUNDARY_TOL, f"boundary {name}")
        diag = r["diag"]
        rows = (0, len(self.seq.d) // 2, len(self.seq.d) - 1)
        C.check_diagnostic_rows(
            {i: (diag.s2[i], diag.q[i], diag.w2[i], diag.g3[i]) for i in rows},
            {i: C.diagnostic_row(self.seq.d, self.diag_B0, i) for i in rows},
        )
        for family, (_, _, target, expected) in CONVERGENCE.items():
            rate, verdicts = r[family]
            C.check_rate(rate, C.euler_rate(expected[target][1], 0.01), 5e-3, f"{family} convergence")
            for z, (kind, slope) in expected.items():
                v = verdicts[z]
                C.check_verdict(v.kind.value, v.rate, kind, slope, f"{family} at {z}")


WORKLOADS = {cls.name: cls for cls in (Dynamics, SigmaGrid, Analytics)}
