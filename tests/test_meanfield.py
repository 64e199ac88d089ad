import os
import re
import shutil
import subprocess

import numpy as np
import pytest

from cyberdyn._stepgrid import step_grid
from cyberdyn.combat import (
    CombatFunction,
    TabulatedCombat,
    TypeICombat,
    TypeIICombat,
    TypeIIICombat,
    TypeIVCombat,
)
from cyberdyn.graphgen import (
    gen_chung_lu,
    gen_clustered,
    gen_er,
    graph_from_edges,
    largest_component,
    min_node_expansion,
    powerlaw_degree_sequence,
)
from cyberdyn import _kernel, markov
from cyberdyn.markov import simulate_run
from cyberdyn.meanfield import (
    EquilibriumKind,
    IntegratorInstabilityError,
    classify_equilibrium,
    empirical_convergence_rate,
    integrate,
    monotonicity_probe,
    neighbor_fractions,
    predicted_convergence_rate,
    save_trajectory_csv,
)
from cyberdyn.thresholds import strategic_b0
from conftest import each_engine, run_python
from reference_meanfield import integrate as reference_integrate, neighbor_mean


def triangle():
    return graph_from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))


def four_cycle():
    return graph_from_edges(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))


class ConstantRate(CombatFunction):
    """A user-defined rate, here above 1: with dt <= 1 only a rate outside
    [0, 1] can move the Euler state out of the box."""

    def __init__(self, rate):
        self.rate = rate

    def _rates(self, y):
        return np.full_like(y, self.rate)


# ---------------------------------------------------------------------------
# neighbor_mean


def test_neighbor_mean_all_ones():
    g = triangle()
    assert neighbor_mean(g, np.ones(3), 0) == 1.0


def test_neighbor_mean_triangle_red_neighbors():
    g = triangle()
    assert neighbor_mean(g, np.array([1.0, 0.0, 0.0]), 0) == 0.0


def test_neighbor_mean_four_cycle_alternating():
    g = four_cycle()
    assert neighbor_mean(g, np.array([1.0, 0.0, 1.0, 0.0]), 1) == 1.0


def test_neighbor_fractions_matches_scalar():
    g = gen_er(40, 0.2, seed=3)
    B = np.random.default_rng(0).random(40)
    ys = neighbor_fractions(g, B)
    for v in (0, 7, 39):
        assert ys[v] == pytest.approx(neighbor_mean(g, B, v), abs=1e-12)


# ---------------------------------------------------------------------------
# integrate


def test_integrate_supercritical_exponential_approach(er2000):
    # with every neighbor mean above the threshold the recovery rate is
    # identically 1, so B(t) = 1 - 0.6 exp(-t) for every node
    f = TypeICombat(sigma=1 / 3)
    traj = integrate(er2000, f, np.full(2000, 0.4), horizon=5.0)
    expected = 1.0 - 0.6 * np.exp(-5.0)
    assert expected == pytest.approx(0.99596, abs=1e-4)
    assert abs(traj.min_B[-1] - expected) < 0.01
    assert abs(traj.max_B[-1] - expected) < 0.01


def test_integrate_all_ones_fixed_point():
    g = gen_er(60, 0.2, seed=1)
    for f in (TypeICombat(sigma=0.5), TypeIICombat(), TypeIIICombat(), TypeIVCombat()):
        traj = integrate(g, f, np.ones(60), horizon=1.0)
        assert np.all(traj.mean_blue == 1.0)


def test_integrate_type4_collapses(er500):
    traj = integrate(er500, TypeIVCombat(), np.full(500, 0.98), horizon=20.0)
    assert traj.mean_blue[-1] < 0.01


def test_integrate_box_invariance():
    g = gen_er(50, 0.3, seed=9)
    rng = np.random.default_rng(5)
    for f in (TypeICombat(sigma=0.4), TypeIICombat(), TypeIIICombat(), TypeIVCombat()):
        traj = integrate(g, f, rng.random(50), horizon=3.0)
        assert traj.min_B.min() >= 0.0
        assert traj.max_B.max() <= 1.0


def test_integrate_instability_error_names_node_and_time(monkeypatch):
    g = triangle()
    for _ in each_engine(monkeypatch):
        with pytest.raises(IntegratorInstabilityError, match="node"):
            integrate(g, ConstantRate(2.0), np.full(3, 0.9), horizon=3.0, dt=0.5)


def test_integrate_euler_first_order():
    g = gen_er(80, 0.15, seed=2)
    f = TypeIICombat()
    B0 = np.full(80, 0.6)
    vals = {}
    for dt in (0.02, 0.01, 0.005):
        vals[dt] = integrate(g, f, B0, horizon=2.0, dt=dt).mean_blue[-1]
    err1 = abs(vals[0.02] - vals[0.01])
    err2 = abs(vals[0.01] - vals[0.005])
    assert err2 > 0
    assert 1.5 < err1 / err2 < 3.0  # halving dt halves the change


def test_supercritical_exponential_lower_bound():
    # min neighbor mean above the threshold forces the closed-form envelope
    rng = np.random.default_rng(12)
    f = TypeICombat(sigma=1 / 3)
    for seed in range(5):
        g = gen_er(100, 0.2, seed=seed)
        B0 = 0.4 + 0.5 * rng.random(100)
        if neighbor_fractions(g, B0).min() <= 1 / 3:
            continue
        T, dt = 4.0, 0.01
        traj = integrate(g, f, B0, horizon=T, dt=dt)
        bound = 1.0 - np.exp(-T) * (1.0 - B0.min()) - 10 * dt
        assert traj.mean_blue[-1] > bound


def test_two_cluster_split_outcome_type1_and_type2():
    g = gen_clustered([300, 300], 0.08, 0.001, seed=77)
    betas = min_node_expansion(g)
    beta = float(min(betas[1], betas[2]))
    alpha1, alpha2, thr = 0.75, 0.25, 0.5
    # both hypotheses must hold on the realized graph
    assert alpha1 * beta > thr and (1 - alpha2) * beta > 1 - thr
    B0 = np.where(g.cluster_of == 1, alpha1, alpha2)

    # hard threshold: rates saturate at 1/0, so the clusters reach the corners
    traj = integrate(g, TypeICombat(sigma=thr), B0, horizon=15.0)
    final = traj.final_state
    assert final[g.cluster_of == 1].min() > 0.99
    assert final[g.cluster_of == 2].max() < 0.01

    # sigmoid: cross-edges pin boundary nodes at f(internal fraction) < 1,
    # so the clusters segregate without reaching the corners exactly
    traj = integrate(g, TypeIICombat(tau=thr), B0, horizon=15.0)
    final = traj.final_state
    assert final[g.cluster_of == 1].min() > 0.9
    assert final[g.cluster_of == 2].max() < 0.1
    assert final[g.cluster_of == 1].mean() > 0.99
    assert final[g.cluster_of == 2].mean() < 0.01


# ---------------------------------------------------------------------------
# classify_equilibrium


def test_classify_type1_all_ones_stable(er500):
    v = classify_equilibrium(er500, TypeICombat(sigma=1 / 3), np.ones(500))
    assert v.kind is EquilibriumKind.STABLE_EXPONENTIAL
    assert v.rate == -1.0


def test_classify_type1_threshold_entry_unstable():
    g = triangle()
    v = classify_equilibrium(g, TypeICombat(sigma=0.5), np.full(3, 0.5))
    assert v.kind is EquilibriumKind.UNSTABLE


def test_classify_type3_zero_unstable(er500):
    v = classify_equilibrium(er500, TypeIIICombat(), np.zeros(500))
    assert v.kind is EquilibriumKind.UNSTABLE


def test_classify_type3_ones_stable(er500):
    v = classify_equilibrium(er500, TypeIIICombat(), np.ones(500))
    assert v.kind is EquilibriumKind.STABLE_EXPONENTIAL
    assert v.rate == pytest.approx(-0.5)


def test_classify_type4_endpoints(er500):
    assert (
        classify_equilibrium(er500, TypeIVCombat(), np.zeros(500)).kind
        is EquilibriumKind.STABLE_EXPONENTIAL
    )
    assert (
        classify_equilibrium(er500, TypeIVCombat(), np.ones(500)).kind
        is EquilibriumKind.UNSTABLE
    )


def test_classify_type2_endpoints_and_mixed():
    g = gen_clustered([3, 3], 1.0, 0.0, seed=0)  # two disjoint triangles
    f = TypeIICombat()
    assert (
        classify_equilibrium(g, f, np.ones(6)).kind
        is EquilibriumKind.STABLE_EXPONENTIAL
    )
    mixed = np.where(np.arange(6) < 3, 1.0, 0.0)
    assert classify_equilibrium(g, f, mixed).kind is EquilibriumKind.UNDETERMINED
    tau_pinned = np.full(6, 0.5)
    assert classify_equilibrium(g, f, tau_pinned).kind is EquilibriumKind.UNSTABLE


def test_classify_type1_mixed_cluster_equilibrium_stable():
    g = gen_clustered([4, 4], 1.0, 0.0, seed=0)  # two disjoint cliques
    mixed = np.where(np.arange(8) < 4, 1.0, 0.0)
    v = classify_equilibrium(g, TypeICombat(sigma=0.5), mixed)
    assert v.kind is EquilibriumKind.STABLE_EXPONENTIAL


def test_classify_rejects_non_equilibrium(er500):
    with pytest.raises(ValueError, match="residual"):
        classify_equilibrium(er500, TypeICombat(sigma=1 / 3), np.full(500, 0.7))


# ---------------------------------------------------------------------------
# Convergence rates


def test_predicted_rates():
    assert predicted_convergence_rate(TypeIVCombat(), 0.0) == pytest.approx(-1.0)
    assert predicted_convergence_rate(TypeIIICombat(), 1.0) == pytest.approx(-0.5)
    assert predicted_convergence_rate(TypeICombat(sigma=0.3), 0.0) == -1.0
    assert predicted_convergence_rate(TypeICombat(sigma=0.3), 1.0) == -1.0
    with pytest.raises(ValueError):
        predicted_convergence_rate(TypeIIICombat(), 0.0)


def test_empirical_rate_pure_exponential(er500):
    # theta == 1 throughout, so the distance to 1 decays like exp(-t)
    traj = integrate(er500, TypeICombat(sigma=1 / 3), np.full(500, 0.4), horizon=8.0)
    slope = empirical_convergence_rate(traj, 1.0)
    assert slope == pytest.approx(-1.0, rel=0.05)


def test_empirical_rate_type4_matches_prediction(er500):
    traj = integrate(er500, TypeIVCombat(), np.full(500, 0.98), horizon=14.0)
    slope = empirical_convergence_rate(traj, 0.0)
    assert slope == pytest.approx(predicted_convergence_rate(TypeIVCombat(), 0.0), rel=0.15)


def test_empirical_rate_type2_matches_prediction(er500):
    traj = integrate(er500, TypeIICombat(), np.full(500, 0.6), horizon=12.0)
    slope = empirical_convergence_rate(traj, 1.0)
    # f'(1) = 0 so the predicted exponent is -1
    assert slope == pytest.approx(-1.0, rel=0.15)


def test_empirical_rate_requires_convergence(er500):
    traj = integrate(er500, TypeIICombat(), np.full(500, 0.6), horizon=0.5)
    with pytest.raises(ValueError, match="converge"):
        empirical_convergence_rate(traj, 1.0)


# ---------------------------------------------------------------------------
# Monotonicity probe


def test_probe_min_increases_above_threshold(er500):
    f = TypeIICombat(tau=0.5)
    traj = integrate(er500, f, np.full(500, 0.6), horizon=3.0, sample_every=1)
    report = monotonicity_probe(er500, traj, 0.5, "above")
    assert report.ok and report.strict


def test_probe_max_decreases_below_threshold(er500):
    f = TypeIICombat(tau=0.5)
    traj = integrate(er500, f, np.full(500, 0.4), horizon=3.0, sample_every=1)
    report = monotonicity_probe(er500, traj, 0.5, "below")
    assert report.ok and report.strict


def test_probe_all_ones_non_strict(er500):
    traj = integrate(er500, TypeIICombat(), np.ones(500), horizon=1.0, sample_every=1)
    report = monotonicity_probe(er500, traj, 0.5, "above")
    assert report.ok and not report.strict


def test_probe_hypothesis_violation_is_usage_error(er500):
    traj = integrate(er500, TypeIICombat(), np.full(500, 0.4), horizon=1.0)
    with pytest.raises(ValueError, match="hypothesis"):
        monotonicity_probe(er500, traj, 0.5, "above")


def test_probe_random_graphs_under_hypotheses():
    # 20 random graphs, both envelope directions
    f = TypeIICombat(tau=0.5)
    for i in range(20):
        g = gen_er(60, 0.15, seed=400 + i)
        up = integrate(g, f, np.full(60, 0.62), horizon=2.0, sample_every=1)
        down = integrate(g, f, np.full(60, 0.38), horizon=2.0, sample_every=1)
        assert monotonicity_probe(g, up, 0.5, "above").ok
        assert monotonicity_probe(g, down, 0.5, "below").ok


def test_probe_reports_the_first_violation(er500):
    # Type 4 pulls a uniform 0.6 state down (0.6^2 < 0.6) although every
    # neighbour mean starts above the threshold, so min_B drops at step 1.
    traj = integrate(er500, TypeIVCombat(), np.full(500, 0.6), horizon=1.0)
    report = monotonicity_probe(er500, traj, 0.5, "above")
    assert not report.ok and not report.strict
    assert report.first_violation == (traj.times[1], traj.min_B[1] - traj.min_B[0])


# ---------------------------------------------------------------------------
# Persistence


def test_trajectory_csv(tmp_path, er500):
    traj = integrate(er500, TypeIICombat(), np.full(500, 0.6), horizon=1.0)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mean_blue,min_B,max_B"
    assert len(lines) == len(traj.times) + 1


# ---------------------------------------------------------------------------
# Input validation


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_integrate_rejects_non_finite_b0(bad):
    B0 = np.full(3, 0.5)
    B0[1] = bad
    with pytest.raises(ValueError, match="^B0 entries must be finite"):
        integrate(triangle(), TypeIICombat(), B0, horizon=1.0)


@pytest.mark.parametrize(
    "name, horizon, dt",
    [
        ("horizon", -1.0, 0.01),
        ("horizon", np.nan, 0.01),
        ("horizon", np.inf, 0.01),
        ("dt", 1.0, 0.0),
        ("dt", 1.0, np.nan),
        ("dt", 1.0, np.inf),
    ],
)
def test_integrate_rejects_bad_horizon_and_dt(name, horizon, dt):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        integrate(triangle(), TypeIICombat(), np.full(3, 0.5), horizon=horizon, dt=dt)


@pytest.mark.parametrize("engine", ["markov", "meanfield"])
def test_both_engines_reject_dt_above_one(engine):
    g, f = triangle(), TypeIICombat()
    with pytest.raises(ValueError, match=r"^dt must be finite and in \(0, 1\], got 1.2"):
        if engine == "markov":
            simulate_run(g, f, np.ones(3, dtype=bool), horizon=3.0, dt=1.2)
        else:
            integrate(g, f, np.full(3, 0.7), horizon=3.0, dt=1.2)


def test_step_grid_snapshots_every_stride_and_the_last_step():
    for horizon, dt, every in ((1.0, 0.01, 7), (1.0, 0.01, 10), (0.0, 0.01, 3), (0.05, 0.01, 100)):
        steps, times, snap_idx = step_grid(horizon, dt, every)
        assert steps == round(horizon / dt)
        assert times.tobytes() == (np.arange(steps + 1) * dt).tobytes()
        assert snap_idx.tolist() == sorted(set(range(0, steps + 1, every)) | {steps})


# ---------------------------------------------------------------------------
# The lazy-rate integrator against the every-step reference, and telemetry

TABULATED = TabulatedCombat(
    np.array([0.0, 0.2, 0.5, 0.8, 1.0]), np.array([0.0, 0.05, 0.5, 0.95, 1.0])
)
FAMILIES = {
    "type1": TypeICombat(sigma=0.5),
    "type2": TypeIICombat(),
    "type3": TypeIIICombat(),
    "type4": TypeIVCombat(),
    "tabulated": TABULATED,
}
SERIES = ("times", "mean_blue", "min_B", "max_B", "sample_times", "states")


@pytest.fixture(scope="module")
def diff_graphs():
    seq = powerlaw_degree_sequence(300, 2.5, 2.0, 30.0)
    return {
        "er": gen_er(300, 0.03, seed=41),
        "chung_lu": largest_component(gen_chung_lu(seq, seed=42)),
        "clustered": gen_clustered([150, 150], 0.06, 0.005, seed=43),
    }


def assert_same_trajectory(monkeypatch, g, f, B0, horizon, dt=0.01, sample_every=7):
    """Both integrators give equal bytes, or raise the same error, on each
    engine, and the engines make the same rate evaluations."""
    try:
        ref = reference_integrate(g, f, B0, horizon, dt=dt, sample_every=sample_every)
    except IntegratorInstabilityError as exc:
        for _ in each_engine(monkeypatch):
            with pytest.raises(IntegratorInstabilityError, match=f"^{re.escape(str(exc))}$"):
                integrate(g, f, B0, horizon, dt=dt, sample_every=sample_every)
        return None
    evals = set()
    for _ in each_engine(monkeypatch):
        new = integrate(g, f, B0, horizon, dt=dt, sample_every=sample_every)
        for name in SERIES:
            assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name
        assert new.rate_evals <= len(new.times) - 1
        evals.add(new.rate_evals)
    assert len(evals) == 1
    return new


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("graph", ["er", "chung_lu", "clustered"])
def test_integrate_matches_reference(diff_graphs, graph, family, monkeypatch):
    g = diff_graphs[graph]
    for level in (0.3, 0.5, 0.7):
        assert_same_trajectory(monkeypatch, g, FAMILIES[family], np.full(g.n, level), horizon=5.0)


@pytest.mark.parametrize("phi", [0.40, 0.48, 0.50, 0.52, 0.60])
@pytest.mark.parametrize("graph", ["er", "chung_lu", "clustered"])
def test_integrate_matches_reference_from_strategic_starts(diff_graphs, graph, phi, monkeypatch):
    g = diff_graphs[graph]
    B0 = strategic_b0(g, target_phi=phi).B0
    assert_same_trajectory(monkeypatch, g, TypeICombat(sigma=0.5), B0, horizon=10.0)


@pytest.mark.parametrize("phi", [0.45, 0.4875, 0.49, 0.5, 0.55])
def test_integrate_matches_reference_near_the_basin_boundary(pl2000, phi, monkeypatch):
    # Bisection points of the power-law basin boundary: some neighbour
    # means stay next to sigma for the whole run.
    B0 = strategic_b0(pl2000, target_phi=phi).B0
    assert_same_trajectory(monkeypatch, pl2000, TypeICombat(sigma=0.5), B0, horizon=8.0,
                           sample_every=100)


@pytest.mark.parametrize("sample_every", [1, 7, 100])
def test_integrate_matches_reference_for_every_stride(diff_graphs, sample_every, monkeypatch):
    g = diff_graphs["er"]
    for f in (TypeICombat(sigma=0.45), TypeIICombat()):
        assert_same_trajectory(monkeypatch, g, f, np.full(g.n, 0.5), horizon=3.0,
                               sample_every=sample_every)


def test_integrate_matches_reference_at_horizon_zero(diff_graphs, monkeypatch):
    g = diff_graphs["er"]
    for f in FAMILIES.values():
        new = assert_same_trajectory(monkeypatch, g, f, np.full(g.n, 0.4), horizon=0.0)
        assert len(new.times) == 1 and new.states.shape == (1, g.n)
        assert new.rate_evals == 0


def test_integrate_matches_reference_when_a_step_overshoots_one(monkeypatch):
    # A rate 1e-13 above 1 moves 1 - 1e-13 just above 1, inside the
    # instability slack: the state is clamped back into [0, 1].
    g = gen_er(200, 0.05, seed=3)
    B0 = np.full(g.n, 1 - 1e-13)
    assert (B0 + (1 + 1e-13 - B0) > 1.0).all()
    new = assert_same_trajectory(monkeypatch, g, ConstantRate(1 + 1e-13), B0, horizon=4.0, dt=1.0,
                                 sample_every=1)
    assert new.max_B[1:].tolist() == [1.0] * 4


def bridged_blocks(block=10, links=3):
    """Two cliques (0..block-1 and block..2*block-1) and one more node
    linked to ``links`` nodes of each."""
    edges = [(u, v) for lo in (0, block) for u in range(lo, lo + block)
             for v in range(u + 1, lo + block)]
    bridge = 2 * block
    edges += [(bridge, i) for i in range(links)] + [(bridge, block + i) for i in range(links)]
    return graph_from_edges(2 * block + 1, np.array(edges))


@pytest.mark.parametrize("tolerance", [1e-12, 0.0])
def test_integrate_matches_reference_with_a_neighbour_mean_at_sigma(tolerance, monkeypatch):
    # The bridge node sees one all-blue and one all-red block: its
    # neighbour mean is sigma = 1/2 exactly at every step.
    g = bridged_blocks()
    B0 = np.concatenate([np.ones(10), np.zeros(10), [0.2]])
    f = TypeICombat(sigma=0.5, boundary_tolerance=tolerance)
    new = assert_same_trajectory(monkeypatch, g, f, B0, horizon=5.0)
    assert new.final_state[-1] == pytest.approx(0.5, abs=1e-2)


def test_integrate_matches_reference_when_the_rates_change_late(monkeypatch):
    # One block rises to 1 from 0.6 and the other stays at 0, so the bridge
    # node's neighbour mean 0.5 - 0.2 exp(-t) crosses 0.499 near t = 5.3,
    # long after every other rate has settled.
    g = bridged_blocks()
    B0 = np.concatenate([np.full(10, 0.6), np.zeros(10), [0.0]])
    f = TypeICombat(sigma=0.4, boundary_tolerance=0.099)
    new = assert_same_trajectory(monkeypatch, g, f, B0, horizon=10.0, sample_every=1)
    assert 520 < np.flatnonzero(new.states[:, -1] > 0.5)[0] < 540
    assert new.final_state[-1] > 0.99
    assert new.rate_evals < 500


def test_integrate_matches_reference_when_a_settling_state_reaches_a_cut(monkeypatch):
    # Every node starts at 0.7 in the rate-1/2 band [0.55, 0.95] and relaxes
    # towards 1/2, so it crosses the lower cut near t = 1.39. Its drift 0.2
    # is more than its first margin 0.15: no skip may reach past the cut.
    g = four_cycle()
    f = TypeICombat(sigma=0.75, boundary_tolerance=0.2)
    new = assert_same_trajectory(monkeypatch, g, f, np.full(4, 0.7), horizon=3.0, sample_every=1)
    assert new.mean_blue[-1] < 0.2
    assert new.rate_evals < 100


def test_integrate_matches_reference_when_rounding_crosses_a_cut(monkeypatch):
    # Node 1 is in the rate-1/2 band and 75 ulps below 1/2: the exact Euler
    # step moves it 0.75 ulp, the rounded one a full ulp. Node 0 sees only
    # node 1, 15 ulps below the upper cut, so its rate turns to 1 after 16
    # steps, where the exact drift bound alone allows 20 without one.
    ulp = 2.0**-54
    f = TypeICombat(sigma=0.35, boundary_tolerance=0.15 - 60 * ulp)
    cut = f.sigma + f.boundary_tolerance
    g = graph_from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [2, 4]]))
    B0 = np.array([0.5, cut - 15 * ulp, 0.0, 0.0, 0.0])
    new = assert_same_trajectory(monkeypatch, g, f, B0, horizon=1.0, sample_every=1)
    assert new.states[15, 0] == 0.5 and new.states[-1, 0] > 0.5


def test_settled_type1_run_evaluates_rates_rarely(er2000, monkeypatch):
    B0 = strategic_b0(er2000, target_phi=0.6).B0
    for _ in each_engine(monkeypatch):
        traj = integrate(er2000, TypeICombat(sigma=0.5), B0, horizon=20.0)
        assert traj.final_state.min() > 0.99
        assert traj.rate_evals < 0.1 * (len(traj.times) - 1)


def test_type2_run_evaluates_rates_every_step(er2000, monkeypatch):
    for _ in each_engine(monkeypatch):
        traj = integrate(er2000, TypeIICombat(), np.full(2000, 0.6), horizon=5.0)
        assert traj.rate_evals == len(traj.times) - 1


def test_rate_evals_stays_out_of_the_csv(tmp_path, er500):
    traj = integrate(er500, TypeICombat(sigma=0.5), np.full(500, 0.6), horizon=1.0)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    assert "rate" not in path.read_text()


# ---------------------------------------------------------------------------
# The compiled Euler stepper: fallback and self-check

_INTEGRATE = """
import hashlib, json
import numpy as np
from cyberdyn import TypeICombat, TypeIICombat, gen_er, markov, meanfield
g = gen_er(300, 0.03, seed=41)
B0 = np.random.default_rng(3).random(300)
out = []
for f in (TypeICombat(sigma=0.5), TypeIICombat()):
    traj = meanfield.integrate(g, f, B0, 5.0, sample_every=7)
    data = b"".join(getattr(traj, k).tobytes() for k in ("mean_blue", "min_B", "max_B", "states"))
    out.append([traj.rate_evals, hashlib.sha256(data).hexdigest()])
print(json.dumps([markov.engine(), out]))
"""


def test_no_compiler_integrates_on_the_numpy_loop_with_the_kernels_bytes(tmp_path):
    (tmp_path / "bin").mkdir()
    (tmp_path / "cache").mkdir()
    engine, result = run_python(_INTEGRATE, tmp_path / "bin", tmp_path / "cache")
    assert engine == "numpy"
    assert list((tmp_path / "cache").iterdir()) == []
    if markov._resolve_kernel() is None:
        pytest.skip("no compiled kernel here to compare with")
    assert run_python(_INTEGRATE, os.environ["PATH"], tmp_path / "warm") == ["kernel", result]


# (check that must fail, source text, its replacement)
_MUTANTS = {
    "sum": ("_sums_match", "    n2 -= n2 % 8;\n", ""),
    "stepper": ("_euler_matches", "y[v] = s0 * inv_deg[v];", "y[v] = s0 / (double)l0;"),
    "draw bits": ("_chain_matches", "r >> 11", "r >> 12"),
    "draw rotation": ("_chain_matches", "(s >> 122)", "(s >> 121)"),
    "end-of-step skip": ("_chain_matches", "skip(jump, s, n - at)", "skip(jump, s, n - at - 1)"),
    "flipped node's refresh": (
        "_chain_matches",
        "int64_t v = flips[i];\n            refresh(v, indptr, prob, count, xi, active, &n_active);\n",
        "int64_t v = flips[i];\n",
    ),
}


@pytest.mark.parametrize("mutant", list(_MUTANTS))
def test_self_check_rejects_a_library_whose_sum_or_stepper_disagrees(tmp_path, mutant):
    cc = shutil.which(_kernel._COMPILE[0])
    if cc is None:
        pytest.skip("no cc to build a mutant with")
    failing, old, new = _MUTANTS[mutant]
    source = _kernel._SOURCE.read_text()
    assert source.count(old) == 1
    path = tmp_path / "mutant.so"
    subprocess.run([cc, *_kernel._COMPILE[1:], "-o", str(path), "-"],
                   input=source.replace(old, new).encode(), check=True, timeout=300)
    lib = _kernel.open_library(path)
    checks = ("_chain_matches", "_sums_match", "_euler_matches")
    assert {name: getattr(_kernel, name)(lib) for name in checks} == {
        name: name != failing for name in checks}
    assert not _kernel._self_check(lib)
