import multiprocessing
import os
import shutil
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cyberdyn.combat import (
    TabulatedCombat,
    TypeICombat,
    TypeIICombat,
    TypeIIICombat,
    TypeIVCombat,
)
from cyberdyn.graphgen import (
    Graph,
    gen_chung_lu,
    gen_clustered,
    gen_er,
    largest_component,
    powerlaw_degree_sequence,
)
from cyberdyn import _kernel, markov
from cyberdyn.markov import (
    run_batches,
    sample_initial,
    save_ensemble_csv,
    simulate_ensemble,
    simulate_run,
    split_seed,
)
from cyberdyn.thresholds import StrategicSampler, strategic_b0
from conftest import WORKERS, each_engine, run_python
from reference_markov import simulate_run as reference_run


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_initial_rejects_non_finite(bad):
    B0 = np.full(50, 0.5)
    B0[17] = bad
    with pytest.raises(ValueError, match="finite"):
        sample_initial(B0, seed=0)


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


@pytest.mark.parametrize(
    "name, horizon, dt",
    [
        ("horizon", -1.0, 0.01),
        ("horizon", np.nan, 0.01),
        ("horizon", np.inf, 0.01),
        ("dt", 1.0, -0.01),
        ("dt", 1.0, np.nan),
    ],
)
def test_run_rejects_bad_horizon_and_dt(name, horizon, dt):
    g = gen_er(10, 0.5, seed=0)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        simulate_run(g, TypeIICombat(), np.ones(10, dtype=bool), horizon=horizon, dt=dt)


@pytest.mark.parametrize("sample_every", [0, -5])
def test_run_rejects_bad_sample_every(sample_every):
    g = gen_er(10, 0.5, seed=0)
    with pytest.raises(ValueError, match="^sample_every must be >= 1"):
        simulate_run(g, TypeIICombat(), np.ones(10, dtype=bool), horizon=1.0,
                     sample_every=sample_every)


# ---------------------------------------------------------------------------
# The incremental engine against the SpMV reference, and run telemetry

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


@pytest.fixture(scope="module")
def diff_graphs():
    seq = powerlaw_degree_sequence(300, 2.5, 2.0, 30.0)
    return {
        "er": gen_er(300, 0.03, seed=41),
        "chung_lu": largest_component(gen_chung_lu(seq, seed=42)),
        "clustered": gen_clustered([150, 150], 0.06, 0.005, seed=43),
    }


def _one_run(run, g, f, B0, seed, horizon):
    rng = np.random.default_rng(seed)
    init = sample_initial(B0, rng)
    rec = run(g, f, init, horizon, seed=rng, sample_every=7, keep_snapshots=True)
    return rec, rng.bit_generator.state


def _engine_run(lib, *args):
    """`simulate_run` on the kernel ``lib``, or on the numpy loop for None."""
    saved, markov._KERNEL = markov._KERNEL, lib
    try:
        return _one_run(simulate_run, *args)
    finally:
        markov._KERNEL = saved


ENGINE_FIELDS = ("mean_xi", "snapshots", "absorbed", "absorb_time", "steps_executed",
                 "n_flips", "exit_reason")


def run_both(g, f, B0, seed, horizon):
    """The numpy loop and the reference from the same initial draw and
    stream, after checking that the compiled kernel, when this process has
    one, gives the loop's record field for field and leaves the generator
    where the loop leaves it."""
    new, state = _engine_run(None, g, f, B0, seed, horizon)
    ref, ref_state = _one_run(reference_run, g, f, B0, seed, horizon)
    lib = markov._resolve_kernel()
    if lib is not None:
        fast, fast_state = _engine_run(lib, g, f, B0, seed, horizon)
        for name in ENGINE_FIELDS:
            a, b = getattr(fast, name), getattr(new, name)
            assert (a.tobytes() == b.tobytes()) if isinstance(a, np.ndarray) else a == b, name
        assert fast_state == state
    # Only a frozen run stops before the reference stops drawing.
    assert (state == ref_state) == (new.exit_reason != "frozen")
    return new, ref


def assert_same_run(new, ref):
    assert new.mean_xi.tobytes() == ref.mean_xi.tobytes()
    assert new.absorbed == ref.absorbed
    assert new.absorb_time == ref.absorb_time
    assert new.times.tobytes() == ref.times.tobytes()
    assert new.snapshots.tobytes() == ref.snapshots.tobytes()
    assert new.n_flips == ref.n_flips
    # Telemetry agrees with the series it describes.
    steps = len(new.mean_xi) - 1
    if new.absorbed is not None:
        assert new.exit_reason == "absorbed_" + new.absorbed
        assert new.steps_executed == round(new.absorb_time / 0.01)
    elif new.exit_reason == "horizon":
        assert new.steps_executed == steps
    else:
        assert new.exit_reason == "frozen" and new.steps_executed < steps


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("graph", ["er", "chung_lu", "clustered"])
def test_engine_matches_reference(diff_graphs, graph, family):
    g = diff_graphs[graph]
    for seed, level in ((1, 0.2), (2, 0.5), (3, 0.8)):
        new, ref = run_both(g, FAMILIES[family], np.full(g.n, level), seed, horizon=10.0)
        assert_same_run(new, ref)


def test_engine_matches_reference_on_frozen_runs(pl2000):
    # The pl2000-strategic-0.3 grid point at level 0.04: pockets freeze.
    B0 = strategic_b0(pl2000, target_fraction=0.04).B0
    reasons = []
    for seed in range(4):
        new, ref = run_both(pl2000, TypeICombat(sigma=0.3), B0, seed, horizon=30.0)
        assert_same_run(new, ref)
        reasons.append(new.exit_reason)
    assert "frozen" in reasons


def test_engine_matches_reference_on_absorbing_run(diff_graphs):
    g = diff_graphs["er"]
    new, ref = run_both(g, TypeICombat(sigma=0.5), np.full(g.n, 0.7), 5, horizon=30.0)
    assert new.exit_reason == "absorbed_blue"
    assert_same_run(new, ref)


def test_engine_matches_reference_up_to_a_changing_horizon(diff_graphs):
    g = diff_graphs["er"]
    new, ref = run_both(g, TypeIIICombat(), np.full(g.n, 0.05), 6, horizon=1.0)
    assert new.exit_reason == "horizon"
    assert new.mean_xi[-1] != new.mean_xi[-2]
    assert_same_run(new, ref)


def test_tiny_rates_are_not_a_frozen_state():
    # Two blocks held by opposite colours: only the nodes with a link across
    # have a flip probability, below 1e-3 per step but not 0.
    g = gen_clustered([50, 50], 0.3, 0.005, seed=45)
    new, ref = run_both(g, TypeIICombat(), (g.cluster_of == 1).astype(float), 7, horizon=10.0)
    assert new.exit_reason == "horizon"
    assert_same_run(new, ref)


def test_non_pcg64_generator_falls_back_to_the_numpy_loop(diff_graphs, monkeypatch):
    markov._resolve_kernel()

    def no_kernel(*args):
        raise AssertionError("the kernel stepped a Philox run")

    monkeypatch.setattr(markov, "_kernel_steps", no_kernel)
    g, f, B0 = diff_graphs["er"], TypeIICombat(), np.full(300, 0.4)
    runs = []
    for run in (simulate_run, reference_run):
        rng = np.random.Generator(np.random.Philox(1))
        runs.append((run(g, f, sample_initial(B0, rng), 5.0, seed=rng, sample_every=7,
                         keep_snapshots=True), rng.bit_generator.random_raw(4).tolist()))
    (new, after), (ref, ref_after) = runs
    assert new.exit_reason == "horizon" and after == ref_after
    assert_same_run(new, ref)


def test_failed_self_check_falls_back(diff_graphs, monkeypatch):
    monkeypatch.setattr(_kernel, "_self_check", lambda lib: False)
    monkeypatch.setattr(markov, "_KERNEL", markov._UNRESOLVED)
    assert markov._resolve_kernel() is None and markov.engine() == "numpy"
    g = diff_graphs["chung_lu"]
    new, ref = run_both(g, TypeICombat(sigma=0.5), np.full(g.n, 0.5), 4, horizon=10.0)
    assert_same_run(new, ref)


def test_unwritable_cache_falls_back(tmp_path, monkeypatch):
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    if shutil.which("cc") is None:
        pytest.skip("no cc: the fallback is tested without one")
    assert _kernel.load() is None


@pytest.mark.parametrize("use_kernel", [True, False])
def test_malformed_csr_is_rejected_before_stepping(use_kernel, monkeypatch):
    # The kernel indexes memory with the CSR arrays, so a neighbour id out of
    # range must stop the run in Python; Graph rejects it when it is built,
    # before either engine steps.
    g = gen_er(50, 0.2, seed=1)
    lib = markov._resolve_kernel()
    if use_kernel and lib is None:
        pytest.skip("no compiled kernel in this process")
    monkeypatch.setattr(markov, "_KERNEL", lib if use_kernel else None)
    with pytest.raises(ValueError, match=r"^indices: neighbor ids must lie in \[0, 50\)$"):
        bad = Graph(n=50, indptr=g.indptr, indices=np.where(g.indices == 3, 77, g.indices))
        simulate_run(bad, TypeICombat(sigma=0.5), np.arange(50) < 20, 1.0, seed=1)


_ENGINE_RUN = """
import hashlib, json, sys
import numpy as np
from cyberdyn import TypeICombat, gen_er, markov
g = gen_er(300, 0.03, seed=41)
rng = np.random.default_rng(3)
rec = markov.simulate_run(g, TypeICombat(sigma=0.4), markov.sample_initial(np.full(300, 0.45), rng),
                          10.0, seed=rng, keep_snapshots=True)
print(json.dumps([markov.engine(), rec.exit_reason, rec.n_flips, rng.bit_generator.state,
                  hashlib.sha256(rec.mean_xi.tobytes() + rec.snapshots.tobytes()).hexdigest()]))
"""


def test_no_compiler_runs_the_numpy_loop_with_the_kernels_bytes(tmp_path):
    (tmp_path / "bin").mkdir()
    (tmp_path / "cache").mkdir()
    engine, *result = run_python(_ENGINE_RUN, tmp_path / "bin", tmp_path / "cache")
    assert engine == "numpy"
    assert list((tmp_path / "cache").iterdir()) == []
    if markov._resolve_kernel() is None:
        pytest.skip("no compiled kernel here to compare with")
    kernel = run_python(_ENGINE_RUN, os.environ["PATH"], tmp_path / "warm")
    assert kernel == ["kernel", *result]


_LAZY_RUN = """
import json, sys
import cyberdyn, cyberdyn.expcli
from cyberdyn import gen_er, markov
from cyberdyn.graphgen import graph_from_edges, load_graph, save_graph
save_graph(graph_from_edges(3, [(0, 1), (1, 2)]), {path!r})
load_graph({path!r})
untouched = "cyberdyn._kernel" not in sys.modules and markov._KERNEL is markov._UNRESOLVED
h = gen_er(2000, 0.02, seed=20130805).structural_hash()
print(json.dumps([untouched, h, markov.engine(), markov._RATE_TABLES[0] is None]))
"""


def test_only_generators_load_the_kernel_and_they_build_no_rate_table(tmp_path):
    # Importing the package and building graphs from edges or files leave
    # the kernel unresolved; a generator resolves it to draw its coins, and
    # the loader's self-check leaves no rate table behind. Without cc the
    # generator draws in numpy, with the same bytes, and builds nothing.
    (tmp_path / "bin").mkdir()
    (tmp_path / "cache").mkdir()
    code = _LAZY_RUN.format(path=str(tmp_path / "g.txt"))
    expected = gen_er(2000, 0.02, seed=20130805).structural_hash()
    assert run_python(code, tmp_path / "bin", tmp_path / "cache") == [
        True, expected, "numpy", True]
    assert list((tmp_path / "cache").iterdir()) == []
    lib = markov._resolve_kernel()
    if lib is None:
        pytest.skip("no compiled kernel here to load")
    warm = Path(lib._name).parents[1]  # the cache this process's library was built in
    assert run_python(code, os.environ["PATH"], warm) == [True, expected, "kernel", True]


def test_frozen_run_telemetry(pl2000):
    rng = np.random.default_rng(0)
    init = sample_initial(strategic_b0(pl2000, target_fraction=0.04).B0, rng)
    rec = simulate_run(pl2000, TypeICombat(sigma=0.3), init, horizon=30.0, seed=rng)
    assert rec.exit_reason == "frozen"
    assert rec.absorbed is None and rec.absorb_time is None
    assert 0 < rec.steps_executed < 3000
    assert rec.n_flips > 0
    assert np.all(rec.mean_xi[rec.steps_executed:] == rec.mean_xi[-1])


def test_absorbed_run_telemetry(er2000):
    init = sample_initial(np.full(2000, 0.4), seed=11)
    rec = simulate_run(er2000, TypeICombat(sigma=1 / 3), init, horizon=20.0, seed=12)
    assert rec.exit_reason == "absorbed_blue"
    assert rec.steps_executed == int(np.flatnonzero(rec.times == rec.absorb_time)[0])
    assert rec.n_flips >= round((1.0 - rec.mean_xi[0]) * 2000)


def test_run_leaves_generator_after_its_last_draw():
    g = gen_er(60, 0.2, seed=5)
    rng = np.random.default_rng(8)
    init = sample_initial(np.full(60, 0.9), seed=6)
    rec = simulate_run(g, TypeICombat(sigma=0.5), init, horizon=30.0, seed=rng)
    assert rec.exit_reason == "absorbed_blue"
    twin = np.random.default_rng(8)
    for _ in range(rec.steps_executed):
        twin.random(60)
    assert rng.random() == twin.random()


def test_neighbor_fractions_never_exceed_one():
    # The loop's fractions k * (1/d) stay inside [0, 1] without a clip.
    d = np.arange(1, 200_001, dtype=np.float64)
    assert np.all(d * (1.0 / d) <= 1.0)


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
    assert serial.exit_reasons == parallel.exit_reasons


def test_ensemble_telemetry_sums_its_runs():
    # Of these ten runs some absorb, some freeze and some still flip at the horizon.
    g = largest_component(gen_chung_lu(powerlaw_degree_sequence(150, 2.5, 2.0, 30.0), seed=2))
    f, B0 = TypeICombat(sigma=0.4), np.full(g.n, 0.2)
    ens = simulate_ensemble(g, f, B0, horizon=4.0, runs=10, master_seed=3, node_freq=False)
    recs = []
    for i in range(10):
        rng = np.random.default_rng(split_seed(3, i))
        recs.append(simulate_run(g, f, sample_initial(B0, rng), horizon=4.0, seed=rng))
    assert set(ens.exit_reasons) == {"absorbed_red", "frozen", "horizon"}
    assert ens.exit_reasons == Counter(r.exit_reason for r in recs)
    assert ens.steps_executed == sum(r.steps_executed for r in recs)
    assert ens.n_flips == sum(r.n_flips for r in recs)


def _failing_sampler(rng):
    raise RuntimeError("sampler failed")


def _leaves_no_pool(call):
    """Run ``call`` and check that no pool process or thread outlives it."""
    threads = set(threading.enumerate())
    call()
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == threads


def test_pool_worker_error_reaches_caller_and_leaves_no_process(monkeypatch):
    g = gen_er(40, 0.2, seed=3)
    batches = [[(s, None) for s in range(4)]]

    def fail():
        with pytest.raises(RuntimeError, match="sampler failed"):
            list(run_batches(g, TypeICombat(sigma=0.5), batches, 1.0,
                             init_sampler=_failing_sampler, workers=2))

    for _ in each_engine(monkeypatch):
        _leaves_no_pool(fail)


def test_abandoned_batches_leave_no_process(monkeypatch):
    g = gen_er(40, 0.2, seed=3)

    def abandon():
        batches = ([(s, np.full(40, 0.5)) for s in range(4)] for _ in range(3))
        for records in run_batches(g, TypeICombat(sigma=0.5), batches, 1.0, workers=2):
            break
        assert len(records) == 4

    for _ in each_engine(monkeypatch):
        _leaves_no_pool(abandon)


def test_pooled_runs_share_a_strategic_sampler_bit_for_bit(monkeypatch):
    # Pooled runs share one graph and one sampler (in place on threads), yet
    # match the serial ensemble, and each other, on either engine.
    g = largest_component(gen_chung_lu(powerlaw_degree_sequence(300, 2.5, 2.0, 30.0), seed=42))
    sampler = StrategicSampler(g, target_phi=0.5, phi_band=0.02)
    results = []
    for _ in each_engine(monkeypatch):
        for workers in (1, 2):
            results.append(simulate_ensemble(
                g, TypeICombat(sigma=0.5), None, horizon=5.0, runs=8, master_seed=12,
                node_freq=True, workers=workers, init_sampler=sampler,
            ))
    first = results[0]
    for ens in results[1:]:
        for name in ("mean_xi", "stderr", "node_freq", "final_fractions"):
            assert getattr(ens, name).tobytes() == getattr(first, name).tobytes(), name
        assert ens.absorption == first.absorption
        assert ens.exit_reasons == first.exit_reasons


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
