import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import cyberdyn
from cyberdyn.binom_approx import (
    ApproxModel,
    critical_nu,
    integrate_nu,
    q_binom,
    theta_sigma,
)
from cyberdyn.graphgen import gen_er


def exact_pmf(d: int, alpha: Fraction, k: int) -> Fraction:
    return math.comb(d, k) * alpha**k * (1 - alpha) ** (d - k)


def exact_theta(nu: Fraction, d: int, sigma: Fraction) -> Fraction:
    sd = sigma * d
    total = Fraction(0)
    boundary = sd if sd.denominator == 1 else None
    lowest = int(sd) + 1
    for k in range(lowest, d + 1):
        total += exact_pmf(d, nu, k)
    if boundary is not None:
        total += Fraction(1, 2) * exact_pmf(d, nu, int(boundary))
    return total


# ---------------------------------------------------------------------------
# q_binom


def test_q_binom_symmetry():
    assert q_binom(2, 0.5, 1) == pytest.approx(0.5, abs=1e-15)


def test_q_binom_normalization():
    total = q_binom(100, 0.37, np.arange(101)).sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_q_binom_exact_rational_oracle():
    expected = float(exact_pmf(40, Fraction(3, 10), 12))
    assert q_binom(40, 0.3, 12) == pytest.approx(expected, abs=1e-12)


def test_q_binom_large_d_stable():
    val = q_binom(10_000, 0.3, 3000)
    ref = stats.binom.pmf(3000, 10_000, 0.3)
    assert val == pytest.approx(ref, rel=1e-9)
    assert np.isfinite(q_binom(10_000, 0.3, np.arange(0, 10_001, 500))).all()


def test_q_binom_domain_errors():
    with pytest.raises(ValueError):
        q_binom(10, 0.5, 11)
    with pytest.raises(ValueError):
        q_binom(10, 0.5, -1)
    with pytest.raises(ValueError):
        q_binom(10, 1.5, 2)


def test_q_binom_degenerate_alpha():
    assert q_binom(10, 0.0, 0) == 1.0
    assert q_binom(10, 0.0, 3) == 0.0
    assert q_binom(10, 1.0, 10) == 1.0


# ---------------------------------------------------------------------------
# theta_sigma


def test_theta_symmetric_half():
    for d in (2, 10, 40):
        assert theta_sigma(0.5, d, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_theta_degenerate_nu():
    assert theta_sigma(0.0, 40, 0.3) == 0.0
    assert theta_sigma(1.0, 40, 0.3) == 1.0


# Includes nu = 0 and 1 and points that are not dyadic.
NU_GRID = [float(Fraction(k, 16)) for k in range(17)] + [1 / 3, 2 / 7, 0.99]


@pytest.mark.parametrize("sigma", ["0.3", "0.31", "0.5", "0.7"])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 10, 40, 120])
def test_theta_exact_rational_oracle(d, sigma):
    if (d, sigma) == (40, "0.3"):
        pinned = float(exact_theta(Fraction(1, 4), 40, Fraction(3, 10)))
        assert pinned == pytest.approx(0.23199492472396357, abs=1e-15)
    expected = np.array(
        [float(exact_theta(Fraction(nu), d, Fraction(sigma))) for nu in NU_GRID]
    )
    got = theta_sigma(np.array(NU_GRID), d, float(sigma))
    assert isinstance(got, np.ndarray) and got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-12
    for nu, want in zip(NU_GRID, expected):
        val = theta_sigma(nu, d, float(sigma))
        assert isinstance(val, float)
        assert abs(val - want) <= 1e-12, (nu, val, want)


def test_theta_nondecreasing_in_nu():
    nus = np.linspace(0.0, 1.0, 401)
    for d, sigma in ((7, 0.3), (40, 0.5), (40, 0.31), (120, 0.7)):
        vals = np.array([theta_sigma(x, d, sigma) for x in nus])
        assert np.all(np.diff(vals) >= -1e-12)


def test_theta_noninteger_threshold_has_no_boundary_term():
    # sigma*d = 12.4: the tail starts at 13 with no half-weight term
    val = theta_sigma(0.25, 40, 0.31)
    expected = float(
        sum(exact_pmf(40, Fraction(1, 4), k) for k in range(13, 41))
    )
    assert val == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# integrate_nu


def test_integrate_trivial_fixed_points():
    model = ApproxModel(mean_degree=40, sigma=0.5)
    assert np.all(integrate_nu(model, 0.0, horizon=2.0).nu == 0.0)
    assert np.all(integrate_nu(model, 1.0, horizon=2.0).nu == 1.0)


def test_integrate_basins_around_symmetric_root():
    model = ApproxModel(mean_degree=40, sigma=0.5)
    up = integrate_nu(model, 0.55, horizon=40.0)
    down = integrate_nu(model, 0.45, horizon=40.0)
    assert up.nu[-1] > 0.999
    assert down.nu[-1] < 0.001


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
    # the grid the Markov chain and the mean-field integrator check and build
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        integrate_nu(ApproxModel(mean_degree=40, sigma=0.5), 0.5, horizon=horizon, dt=dt)


# ---------------------------------------------------------------------------
# critical_nu


def test_critical_symmetric_even_degrees():
    # d = 2 is the flat drift, d = 4 and 40 a bisected root: both plain floats
    for d in (2, 4, 40):
        root = critical_nu(ApproxModel(mean_degree=d, sigma=0.5))
        assert type(root) is float
        assert root == pytest.approx(0.5, abs=1e-9)


def test_critical_drifts_below_small_sigma():
    root = critical_nu(ApproxModel(mean_degree=40, sigma=0.3))
    assert root is not None and root < 0.3


def test_critical_against_dense_scan_oracle():
    model = ApproxModel(mean_degree=40, sigma=0.3)
    root = critical_nu(model)
    # independent dense scan using the library tail function
    nus = np.linspace(0.0, 1.0, 100_001)
    drift = (
        stats.binom.sf(12, 40, nus)
        + 0.5 * stats.binom.pmf(12, 40, nus)
        - nus
    )
    sign = np.sign(drift)
    idx = np.flatnonzero((sign[:-1] < 0) & (sign[1:] > 0))[-1]
    oracle = 0.5 * (nus[idx] + nus[idx + 1])
    assert root == pytest.approx(oracle, abs=1e-5)


@pytest.mark.parametrize("sigma", ["0.3", "0.5", "0.7"])
@pytest.mark.parametrize("d", [4, 6, 10, 16, 25, 40])
def test_critical_root_is_an_exact_sign_change(d, sigma):
    root = critical_nu(ApproxModel(mean_degree=d, sigma=float(sigma)))
    assert root is not None

    def drift(nu):
        return exact_theta(nu, d, Fraction(sigma)) - nu

    step = Fraction(1, 10**9)
    assert drift(Fraction(root) - step) < 0 < drift(Fraction(root) + step)


def test_critical_no_interior_root():
    # drift nu^3 - nu is strictly negative on (0, 1)
    assert critical_nu(ApproxModel(mean_degree=3, sigma=0.9)) is None


def test_critical_converges_to_sigma_with_degree():
    gaps = [
        abs(critical_nu(ApproxModel(mean_degree=d, sigma=0.3)) - 0.3)
        for d in (10, 40, 160)
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_model_from_graph_rounds_mean_degree():
    g = gen_er(100, 0.1, seed=5)
    model = ApproxModel.from_graph(g, 0.4)
    assert model.mean_degree == int(round(g.degrees.mean()))


def test_model_validation():
    with pytest.raises(ValueError):
        ApproxModel(mean_degree=0, sigma=0.5)
    with pytest.raises(ValueError):
        ApproxModel(mean_degree=10, sigma=1.0)


def test_import_loads_neither_scipy_stats_nor_optimize():
    # Either subpackage adds a tenth of a second or more to every process
    # that imports the package.
    src = str(Path(cyberdyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import cyberdyn, sys; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.stdout.strip() == "[]"
