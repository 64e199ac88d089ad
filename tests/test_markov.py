import numpy as np
import pytest

from cyberdyn.combat import TypeICombat, TypeIICombat, TypeIIICombat, TypeIVCombat
from cyberdyn.graphgen import gen_er
from cyberdyn.markov import (
    sample_initial,
    save_ensemble_csv,
    simulate_ensemble,
    simulate_run,
    split_seed,
)
from cyberdyn.thresholds import StrategicSampler
from conftest import WORKERS


# ---------------------------------------------------------------------------
# Seeds and initial sampling


def test_split_seed_deterministic_and_distinct():
    a = split_seed(1234, 0)
    assert a == split_seed(1234, 0)
    outs = {split_seed(1234, i) for i in range(1000)}
    assert len(outs) == 1000
    assert all(0 <= s < 2**64 for s in outs)


def test_sample_initial_endpoints():
    assert sample_initial(np.ones(50), seed=1).all()
    assert not sample_initial(np.zeros(50), seed=1).any()


def test_sample_initial_binomial_concentration():
    n = 2000
    count = sample_initial(np.full(n, 0.4), seed=7).sum()
    band = 4 * np.sqrt(n * 0.4 * 0.6)
    assert abs(count - 0.4 * n) < band


def test_sample_initial_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        sample_initial(np.array([0.5, 1.2]), seed=0)


# ---------------------------------------------------------------------------
# Single runs


def test_all_blue_is_absorbing_for_every_family():
    g = gen_er(100, 0.1, seed=2)
    for f in (TypeICombat(sigma=0.5), TypeIICombat(), TypeIIICombat(), TypeIVCombat()):
        rec = simulate_run(g, f, np.ones(100, dtype=bool), horizon=2.0, seed=3)
        assert rec.absorbed == "blue"
        assert rec.absorb_time == 0.0
        assert np.all(rec.mean_xi == 1.0)


def test_all_red_is_absorbing():
    g = gen_er(100, 0.1, seed=2)
    rec = simulate_run(g, TypeIIICombat(), np.zeros(100, dtype=bool), horizon=2.0, seed=3)
    assert rec.absorbed == "red"
    assert np.all(rec.mean_xi == 0.0)


def test_type1_supercritical_run_absorbs_blue(er2000):
    f = TypeICombat(sigma=1 / 3)
    init = sample_initial(np.full(2000, 0.4), seed=11)
    rec = simulate_run(er2000, f, init, horizon=20.0, seed=12)
    assert rec.absorbed == "blue"


def test_type1_subcritical_run_absorbs_red(er2000):
    f = TypeICombat(sigma=1 / 3)
    init = sample_initial(np.full(2000, 0.2), seed=13)
    rec = simulate_run(er2000, f, init, horizon=20.0, seed=14)
    assert rec.absorbed == "red"


def test_type3_tiny_seed_spreads(er2000):
    init = sample_initial(np.full(2000, 0.02), seed=21)
    rec = simulate_run(er2000, TypeIIICombat(), init, horizon=20.0, seed=22)
    assert rec.mean_xi[-1] > 0.99


def test_run_state_frozen_after_absorption():
    g = gen_er(60, 0.2, seed=5)
    rec = simulate_run(
        g, TypeICombat(sigma=0.5), sample_initial(np.full(60, 0.9), seed=6),
        horizon=30.0, seed=7,
    )
    assert rec.absorbed == "blue"
    i = int(round(rec.absorb_time / 0.01))
    assert np.all(rec.mean_xi[i:] == rec.mean_xi[-1])


def test_dt_validation():
    g = gen_er(10, 0.5, seed=0)
    with pytest.raises(ValueError):
        simulate_run(g, TypeIICombat(), np.ones(10, dtype=bool), horizon=1.0, dt=1.5)


# ---------------------------------------------------------------------------
# Ensembles


def test_ensemble_single_run_equals_run_series():
    g = gen_er(80, 0.15, seed=8)
    f = TypeIICombat()
    B0 = np.full(80, 0.6)
    ens = simulate_ensemble(g, f, B0, horizon=3.0, runs=1, master_seed=42)
    rng = np.random.default_rng(split_seed(42, 0))
    init = sample_initial(B0, rng)
    rec = simulate_run(g, f, init, horizon=3.0, seed=rng)
    assert np.array_equal(ens.mean_xi, rec.mean_xi)
    assert np.all(ens.stderr == 0.0)


def test_ensemble_bitwise_deterministic():
    g = gen_er(80, 0.15, seed=8)
    B0 = np.full(80, 0.5)
    a = simulate_ensemble(g, TypeIICombat(), B0, horizon=2.0, runs=6, master_seed=9)
    b = simulate_ensemble(g, TypeIICombat(), B0, horizon=2.0, runs=6, master_seed=9)
    assert np.array_equal(a.mean_xi, b.mean_xi)
    assert a.absorption == b.absorption
    assert a.seeds == b.seeds
    c = simulate_ensemble(g, TypeIICombat(), B0, horizon=2.0, runs=6, master_seed=10)
    assert not np.array_equal(a.mean_xi, c.mean_xi)


@pytest.mark.skipif(WORKERS < 2, reason="needs two workers")
def test_ensemble_parallel_matches_serial():
    g = gen_er(120, 0.1, seed=3)
    B0 = np.full(120, 0.55)
    serial = simulate_ensemble(
        g, TypeICombat(sigma=0.5), B0, horizon=3.0, runs=8, master_seed=5, workers=1
    )
    parallel = simulate_ensemble(
        g, TypeICombat(sigma=0.5), B0, horizon=3.0, runs=8, master_seed=5, workers=2
    )
    assert np.array_equal(serial.mean_xi, parallel.mean_xi)
    assert serial.absorption == parallel.absorption
    assert np.array_equal(serial.node_freq, parallel.node_freq)


def test_ensemble_final_fractions_consistent_with_absorption():
    g = gen_er(80, 0.15, seed=8)
    ens = simulate_ensemble(
        g, TypeICombat(sigma=0.5), np.full(80, 0.8), horizon=20.0, runs=8,
        master_seed=3,
    )
    assert ens.final_fractions.shape == (8,)
    for final, absorbed in zip(ens.final_fractions, ens.absorption):
        if absorbed is not None:
            assert final == (1.0 if absorbed[0] == "blue" else 0.0)


def test_ensemble_node_freq_shape_and_range():
    g = gen_er(60, 0.2, seed=4)
    ens = simulate_ensemble(
        g, TypeIICombat(), np.full(60, 0.6), horizon=2.0, runs=5, master_seed=77
    )
    assert ens.node_freq.shape == (len(ens.sample_times), 60)
    assert ens.node_freq.min() >= 0.0 and ens.node_freq.max() <= 1.0


def test_ensemble_strategic_sampler_pins_phi(er500):
    sampler = StrategicSampler(er500, target_phi=0.58, phi_band=0.01)
    ens = simulate_ensemble(
        er500, TypeICombat(sigma=0.5), None, horizon=15.0,
        runs=10, master_seed=31, init_sampler=sampler,
    )
    assert ens.n_absorbed_blue == 10


def test_absorption_frequency_stable_under_dt_halving():
    # first-order discretization: halving dt moves absorption frequencies by
    # no more than the two-sample binomial noise band
    g = gen_er(300, 0.04, seed=17)
    f = TypeICombat(sigma=0.5)
    B0 = np.full(300, 0.56)
    runs = 30
    freqs = []
    for dt in (0.01, 0.005):
        ens = simulate_ensemble(
            g, f, B0, horizon=30.0, runs=runs, dt=dt, master_seed=23,
            node_freq=False, workers=WORKERS,
        )
        freqs.append(ens.n_absorbed_blue / runs)
    pbar = 0.5 * (freqs[0] + freqs[1])
    band = 4 * np.sqrt(max(pbar * (1 - pbar), 1 / runs) * 2 / runs)
    assert abs(freqs[0] - freqs[1]) <= band


# ---------------------------------------------------------------------------
# Persistence


def test_ensemble_csv_and_manifest(tmp_path):
    g = gen_er(50, 0.2, seed=1)
    f = TypeICombat(sigma=0.5)
    ens = simulate_ensemble(g, f, np.full(50, 0.8), horizon=2.0, runs=3, master_seed=2)
    csv_path = tmp_path / "ens.csv"
    save_ensemble_csv(ens, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,mean_xi,stderr,n_absorbed_blue,n_absorbed_red"
    assert len(lines) == len(ens.times) + 1
