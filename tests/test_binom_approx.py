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
