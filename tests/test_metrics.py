import numpy as np
import pytest

from cyberdyn.combat import TypeICombat, TypeIIICombat, TypeIVCombat
from cyberdyn.markov import simulate_ensemble
from cyberdyn.meanfield import integrate
from cyberdyn.metrics import (
    jensen_gap_probe,
    relative_error,
    relative_error_report,
)
from conftest import WORKERS


# ---------------------------------------------------------------------------
# relative_error


def test_identical_series_zero():
    times = np.linspace(0, 5, 51)
    series = np.outer(1 - np.exp(-times), np.ones(4))
    rep = relative_error(series, series, times)
    assert np.allclose(rep.per_node, 0.0)
    assert rep.mean == 0.0
    assert rep.n_excluded == 0


def test_constant_one_vs_zero_is_unity():
    for T in (1.0, 7.0):
        times = np.linspace(0, T, 101)
        ones = np.ones((101, 3))
        zeros = np.zeros((101, 3))
        rep = relative_error(ones, zeros, times)
        assert np.allclose(rep.per_node, 1.0)


def test_zero_denominator_excluded():
    times = np.linspace(0, 2, 21)
    markov = np.zeros((21, 3))
    markov[:, 0] = 0.5  # only node 0 was ever blue
    meanfield = np.full((21, 3), 0.25)
    rep = relative_error(markov, meanfield, times)
    assert rep.n_excluded == 2
    assert np.isnan(rep.per_node[1]) and np.isnan(rep.per_node[2])
    assert rep.per_node[0] == pytest.approx(0.25)  # (0.5-0.25)^2 / 0.5^2
    assert rep.mean == pytest.approx(0.25)


def test_aggregate_one_dimensional_input():
    times = np.linspace(0, 3, 31)
    a = 1 - np.exp(-times)
    b = 1 - 1.1 * np.exp(-times)
    rep = relative_error(a, b, times)
    assert rep.per_node.shape == (1,)
    assert rep.mean > 0


def test_stride_halving_stability():
    # smooth trajectories: doubling the sampling stride moves RE by < 2%
    times = np.linspace(0, 10, 1001)
    markov = 1 - 0.6 * np.exp(-times)
    meanfield = 1 - 0.55 * np.exp(-times)
    full = relative_error(markov, meanfield, times).mean
    half = relative_error(markov[::2], meanfield[::2], times[::2]).mean
    assert abs(full - half) / full < 0.02


def test_grid_mismatch_rejected(er500):
    f = TypeIVCombat()
    B0 = np.full(500, 0.9)
    ens = simulate_ensemble(er500, f, B0, horizon=2.0, runs=3, master_seed=1)
    traj = integrate(er500, f, B0, horizon=2.0, sample_every=7)
    with pytest.raises(ValueError, match="grids"):
        relative_error_report(ens, traj)


def test_nearby_grids_rejected(er500):
    # 11 snapshots, at most 1e-5 apart: close, but not the grid of one dt.
    f = TypeIVCombat()
    B0 = np.full(500, 0.9)
    ens = simulate_ensemble(er500, f, B0, horizon=1.0, runs=2, dt=0.01, master_seed=1)
    traj = integrate(er500, f, B0, horizon=1.0, dt=0.0100001)
    assert len(ens.sample_times) == len(traj.sample_times) == 11
    with pytest.raises(ValueError, match="grids"):
        relative_error_report(ens, traj)


def test_relative_error_report_end_to_end(er500):
    f = TypeICombat(sigma=1 / 3)
    B0 = np.full(500, 0.5)
    ens = simulate_ensemble(er500, f, B0, horizon=8.0, runs=20, master_seed=5)
    traj = integrate(er500, f, B0, horizon=8.0, sample_every=10)
    rep = relative_error_report(ens, traj)
    assert rep.per_node.shape == (500,)
    assert rep.n_excluded == 0
    assert 0 <= rep.mean < 0.2  # same attractor: small residual error


# ---------------------------------------------------------------------------
# Jensen gap probe


def test_jensen_type4_meanfield_underestimates(er500):
    f = TypeIVCombat()
    B0 = np.full(500, 0.98)
    ens = simulate_ensemble(
        er500, f, B0, horizon=12.0, runs=30, master_seed=7, workers=WORKERS
    )
    traj = integrate(er500, f, B0, horizon=12.0)
    report = jensen_gap_probe(er500, f, B0, ens, traj, [2.0, 4.0, 6.0, 8.0, 10.0])
    assert report.prediction == "meanfield_under"
    assert report.all_consistent


def test_jensen_type3_meanfield_overestimates(er500):
    f = TypeIIICombat()
    B0 = np.full(500, 0.02)
    ens = simulate_ensemble(
        er500, f, B0, horizon=12.0, runs=30, master_seed=8, workers=WORKERS
    )
    traj = integrate(er500, f, B0, horizon=12.0)
    report = jensen_gap_probe(er500, f, B0, ens, traj, [1.0, 2.0, 3.0, 4.0, 6.0])
    assert report.prediction == "meanfield_over"
    assert report.all_consistent


def test_jensen_absorbed_common_fixed_point(er500):
    f = TypeICombat(sigma=1 / 3)
    B0 = np.full(500, 0.9)
    ens = simulate_ensemble(er500, f, B0, horizon=12.0, runs=10, master_seed=9)
    traj = integrate(er500, f, B0, horizon=12.0)
    report = jensen_gap_probe(er500, f, B0, ens, traj, [10.0, 11.0, 12.0])
    for point in report.points:
        # the ensemble sits exactly at 1; the mean-field is 1 - O(exp(-t))
        assert abs(point.gap) <= 3 * point.stderr + 1e-4


def test_jensen_threshold_families_side_dependent(er500):
    f = TypeICombat(sigma=0.5)
    above = jensen_gap_probe(
        er500, f, np.full(500, 0.7),
        simulate_ensemble(er500, f, np.full(500, 0.7), horizon=1.0, runs=2, master_seed=1),
        integrate(er500, f, np.full(500, 0.7), horizon=1.0),
        [0.5],
    )
    assert above.prediction == "meanfield_over"
    below = jensen_gap_probe(
        er500, f, np.full(500, 0.3),
        simulate_ensemble(er500, f, np.full(500, 0.3), horizon=1.0, runs=2, master_seed=1),
        integrate(er500, f, np.full(500, 0.3), horizon=1.0),
        [0.5],
    )
    assert below.prediction == "meanfield_under"
