from concurrent import futures

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberdyn import markov
from cyberdyn.combat import TypeICombat
from cyberdyn.graphgen import ExpectedDegreeSequence, gen_er, graph_from_edges
from cyberdyn.thresholds import (
    alpha_threshold,
    beta_threshold,
    estimate_sigma_markov,
    h,
    phi,
    save_threshold_report_csv,
    strategic_b0,
    strategic_init,
    strategic_thresholds,
    strategic_outcome_diagnostics,
)
from conftest import WORKERS, each_engine


# ---------------------------------------------------------------------------
# alpha / beta


def test_regular_degrees_give_sigma_exactly():
    degrees = np.full(30, 7)
    assert alpha_threshold(degrees, 0.37) == pytest.approx(0.37, abs=1e-15)
    assert beta_threshold(degrees, 0.37) == pytest.approx(0.37, abs=1e-15)


def test_two_degree_hand_arithmetic():
    # degrees (1, 3): (sum d)^2 / (n sum d^2) = 16 / 20 = 0.8
    assert alpha_threshold([1, 3], 0.5) == pytest.approx(0.4)
    assert beta_threshold([1, 3], 0.5) == pytest.approx(0.6)


def test_gap_is_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(100):
        degrees = rng.integers(1, 60, size=rng.integers(2, 40))
        sigma = rng.uniform(0.05, 0.95)
        a = alpha_threshold(degrees, sigma)
        b = beta_threshold(degrees, sigma)
        assert a <= sigma + 1e-12 and b >= sigma - 1e-12
        constant = np.all(degrees == degrees[0])
        if constant:
            assert a == pytest.approx(sigma) and b == pytest.approx(sigma)
        else:
            assert a < sigma and b > sigma


# ---------------------------------------------------------------------------
# h and strategic thresholds


def test_h_gamma2_value():
    assert h(2.0, 2.0) == pytest.approx(0.9609060278364028, abs=1e-12)


def test_h_branch_continuity():
    for k in (1.0, 2.0, 3.0):
        for z in (1.5, 5.0, 20.0):
            assert abs(h(z, k + 1e-6) - h(z, k)) < 1e-4
            assert abs(h(z, k - 1e-6) - h(z, k)) < 1e-4


def test_h_near_degenerate_ratio():
    for gamma in (0.7, 1.0, 2.0, 3.0, 4.5):
        assert abs(h(1.0 + 1e-6, gamma) - 1.0) < 1e-4


def test_h_minimum_at_two():
    grid = np.round(np.arange(1.0, 6.01, 0.2), 10)
    vals = [h(20.0, g) for g in grid]
    assert grid[int(np.argmin(vals))] == 2.0


def test_h_in_unit_interval_and_domain_error():
    for z in (1.2, 3.0, 50.0):
        for gamma in (0.5, 1.0, 2.0, 3.0, 5.5):
            assert 0.0 < h(z, gamma) <= 1.0
    with pytest.raises(ValueError):
        h(0.9, 2.0)


def test_strategic_thresholds_limits_and_values():
    near_one = strategic_thresholds(1.0 + 1e-9, 2.0, 0.5)
    assert near_one.gap == pytest.approx(0.0, abs=1e-6)
    assert near_one.ratio == pytest.approx(1.0, abs=1e-5)

    st20 = strategic_thresholds(2.0, 2.0, 0.5)
    assert st20.gap == pytest.approx(1.0 - 0.9609060278364028, abs=1e-12)

    gaps = {g: strategic_thresholds(20.0, g, 0.5).gap for g in np.arange(1.0, 6.01, 0.5)}
    assert max(gaps, key=gaps.get) == 2.0


# ---------------------------------------------------------------------------
# phi and strategic initialization


def test_phi_full_set_and_regular_half():
    g = gen_er(40, 0.4, seed=2)
    assert phi(g, np.ones(40, dtype=bool)) == 1.0
    ring = graph_from_edges(6, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]))
    assert phi(ring, np.array([True, True, True, False, False, False])) == pytest.approx(0.5)


def test_phi_star_center():
    star = graph_from_edges(5, np.array([[0, 1], [0, 2], [0, 3], [0, 4]]))
    assert phi(star, np.arange(5) == 0) == pytest.approx(0.5)


def test_strategic_b0_regular_graph_uniform():
    ring = graph_from_edges(6, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5]]))
    sb = strategic_b0(ring, target_fraction=0.3)
    assert np.allclose(sb.B0, 0.3, atol=1e-9)
    assert sb.n_capped == 0


def test_strategic_b0_target_one_is_all_ones(er500):
    sb = strategic_b0(er500, target_fraction=1.0)
    assert np.allclose(sb.B0, 1.0)


def test_strategic_b0_phi_mode_expectation(pl2000):
    sb = strategic_b0(pl2000, target_phi=0.45)
    deg = pl2000.degrees.astype(float)
    assert float(deg @ sb.B0 / deg.sum()) == pytest.approx(0.45, abs=1e-9)
    assert sb.n_capped > 0  # heavy-tailed: proportionality saturates at hubs


def test_strategic_init_phi_mean_over_samples(pl2000):
    realized = [
        strategic_init(pl2000, target_phi=0.45, seed=1000 + i).phi for i in range(50)
    ]
    assert abs(np.mean(realized) - 0.45) < 0.01


def test_strategic_init_pinning_band(pl2000):
    init = strategic_init(pl2000, target_phi=0.45, seed=3, phi_band=0.005)
    assert abs(init.phi - 0.45) <= 0.005


def test_strategic_b0_argument_errors(er500):
    with pytest.raises(ValueError):
        strategic_b0(er500, target_fraction=1.1)
    with pytest.raises(ValueError):
        strategic_b0(er500)
    with pytest.raises(ValueError):
        strategic_b0(er500, target_fraction=0.5, target_phi=0.5)


# ---------------------------------------------------------------------------
# Finite-size diagnostics


def test_diagnostics_zero_initial_occupation():
    d = ExpectedDegreeSequence(np.full(40, 6.0))
    diag = strategic_outcome_diagnostics(d, np.zeros(40))
    assert np.all(diag.s2 == 0.0) and np.all(diag.q == 0.0)


def test_diagnostics_constant_p_all_ones():
    n, dv = 50, 5.0
    d = ExpectedDegreeSequence(np.full(n, dv))
    p = dv * dv / (n * dv)
    diag = strategic_outcome_diagnostics(d, np.ones(n))
    assert np.allclose(diag.s2, n * p * (1 - p))
    assert np.allclose(diag.w2, n * p * (1 - p))


def test_diagnostics_inverse_square_degree_sum():
    n = 400
    dv = np.sqrt(n) * np.log(n)
    d = ExpectedDegreeSequence(np.full(n, dv))
    diag = strategic_outcome_diagnostics(d, np.full(n, 0.5))
    assert diag.sum_inv_d2 == pytest.approx(1.0 / np.log(n) ** 2, rel=1e-9)
    assert diag.sqrt_log_n_over_dmin == pytest.approx(np.sqrt(np.log(n)) / dv)


# ---------------------------------------------------------------------------
# sigma_markov estimation


def test_sigma_markov_degenerate_grid_endpoints():
    g = gen_er(60, 0.2, seed=6)
    est = estimate_sigma_markov(
        g, TypeICombat(sigma=0.5), [0.0, 1.0], runs=5, horizon=1.0, master_seed=1
    )
    assert est.a1 == 1.0 and est.b1 == 0.0
    assert est.sigma_markov == 0.5
    assert not est.inconclusive


def test_sigma_markov_inconclusive_carries_table():
    # horizon far too short for absorption: every level is mixed
    g = gen_er(200, 0.1, seed=7)
    est = estimate_sigma_markov(
        g, TypeICombat(sigma=0.5), [0.45, 0.5, 0.55], runs=5, horizon=0.5, master_seed=2
    )
    assert est.inconclusive
    assert est.sigma_markov is None
    assert est.verdicts == ["mixed", "mixed", "mixed"]
    assert all(nb + nr + nm == 5 for nb, nr, nm in est.counts)


def test_sigma_markov_small_er_drifts_down():
    # threshold 0.3 on a mean-degree-40 graph: the empirical critical
    # occupation sits well below 0.3
    g = gen_er(600, 40 / 599, seed=15)
    est = estimate_sigma_markov(
        g,
        TypeICombat(sigma=0.3),
        np.round(np.arange(0.16, 0.3601, 0.02), 10),
        runs=15,
        horizon=25.0,
        master_seed=3,
        workers=WORKERS,
    )
    assert not est.inconclusive
    assert est.b1 <= est.a1
    assert est.sigma_markov < 0.3
    # monotone consistency: nothing above a1 is unanimously red
    above = est.levels >= est.a1
    assert all(v != "all_red" for v, up in zip(est.verdicts, above) if up)


def test_sigma_markov_strategic_rule_runs():
    g = gen_er(300, 0.1, seed=9)
    est = estimate_sigma_markov(
        g, TypeICombat(sigma=0.5), [0.2, 0.5, 0.8], init_rule="strategic",
        runs=5, horizon=20.0, master_seed=4,
    )
    assert est.verdicts[0] in ("all_red", "mixed")
    assert est.verdicts[-1] in ("all_blue", "mixed")


def test_sigma_markov_one_pool_matches_in_process(monkeypatch):
    # One pool per grid, whichever the engine opens: threads for the kernel,
    # processes for the numpy loop.
    opened = []

    def counting(kind, pool):
        class Counting(pool):
            def __init__(self, *args, **kwargs):
                opened.append((kind, kwargs["max_workers"]))
                super().__init__(*args, **kwargs)
        return Counting

    for kind, name in (("kernel", "ThreadPoolExecutor"), ("numpy", "ProcessPoolExecutor")):
        monkeypatch.setattr(futures, name, counting(kind, getattr(futures, name)))
    g = gen_er(200, 0.1, seed=7)
    levels = [0.3, 0.5, 0.7]
    for engine in each_engine(monkeypatch):
        for rule in ("uniform", "strategic"):
            kw = dict(init_rule=rule, runs=6, horizon=20.0, master_seed=5)
            serial = estimate_sigma_markov(g, TypeICombat(sigma=0.5), levels, workers=1, **kw)
            assert opened == []
            pooled = estimate_sigma_markov(g, TypeICombat(sigma=0.5), levels, workers=2, **kw)
            assert opened == [(engine, 2)]
            opened.clear()
            assert np.array_equal(serial.levels, pooled.levels)
            for name in ("verdicts", "counts", "a1", "b1", "sigma_markov", "exit_reasons"):
                assert getattr(serial, name) == getattr(pooled, name), name


def test_sigma_markov_exit_reasons_per_level():
    g = gen_er(200, 0.1, seed=7)
    f = TypeICombat(sigma=0.5)
    est = estimate_sigma_markov(g, f, [0.3, 0.5, 0.7], runs=6, horizon=4.0, master_seed=5)
    for idx, level in enumerate(est.levels):
        ens = markov.simulate_ensemble(g, f, np.full(g.n, level), 4.0, runs=6,
                                       master_seed=markov.split_seed(5, idx), node_freq=False)
        assert est.exit_reasons[idx] == ens.exit_reasons
        assert sum(est.exit_reasons[idx].values()) == 6


def test_sigma_markov_rejects_zero_runs():
    g = gen_er(60, 0.2, seed=6)
    with pytest.raises(ValueError, match="runs"):
        estimate_sigma_markov(g, TypeICombat(sigma=0.5), [0.0, 1.0], runs=0)


def test_sigma_markov_report_csv(tmp_path):
    g = gen_er(60, 0.2, seed=6)
    est = estimate_sigma_markov(
        g, TypeICombat(sigma=0.5), [0.0, 1.0], runs=3, horizon=1.0, master_seed=1
    )
    path = tmp_path / "report.csv"
    save_threshold_report_csv(est, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "level,n_all_blue,n_all_red,n_mixed,verdict"
    assert lines[-1].startswith("summary,a1=")


# ---------------------------------------------------------------------------
# Property tests


@settings(max_examples=40, deadline=None)
@given(
    z=st.floats(min_value=1.0001, max_value=500.0),
    gamma=st.floats(min_value=0.05, max_value=8.0),
)
def test_h_bounded_property(z, gamma):
    val = h(z, gamma)
    assert 0.0 < val <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    degrees=st.lists(st.integers(min_value=1, max_value=200), min_size=2, max_size=50),
    sigma=st.floats(min_value=0.01, max_value=0.99),
)
def test_alpha_beta_sandwich_property(degrees, sigma):
    a = alpha_threshold(degrees, sigma)
    b = beta_threshold(degrees, sigma)
    assert 0.0 <= a <= sigma + 1e-12
    assert sigma - 1e-12 <= b <= 1.0
