import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyberdyn.combat import (
    TabulatedCombat,
    TypeICombat,
    TypeIICombat,
    TypeIIICombat,
    TypeIVCombat,
    from_params,
    validate_shape,
)

ALL_BUILTINS = [
    TypeICombat(sigma=1 / 3),
    TypeIICombat(),
    TypeIIICombat(),
    TypeIVCombat(),
]


# ---------------------------------------------------------------------------
# eval_rb


def test_type1_step_values():
    f = TypeICombat(sigma=1 / 3)
    assert f.eval_rb(0.4) == 1.0
    assert f.eval_rb(0.2) == 0.0
    assert f.eval_rb(1 / 3) == 0.5


def test_type2_default_closed_form():
    f = TypeIICombat()
    assert f.eval_rb(0.25) == pytest.approx(0.125, abs=1e-15)
    # -2 x^2 + 4 x - 1 at 0.75
    assert f.eval_rb(0.75) == pytest.approx(0.875, abs=1e-15)


def test_type3_endpoints():
    f = TypeIIICombat()
    assert f.eval_rb(0.0) == 0.0
    assert f.eval_rb(1.0) == 1.0


def test_endpoints_all_families():
    for f in ALL_BUILTINS:
        assert abs(f.eval_rb(0.0)) <= 1e-12
        assert abs(f.eval_rb(1.0) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "f",
    ALL_BUILTINS
    + [TypeICombat(sigma=0.5), TypeIICombat(tau=0.3),
       TabulatedCombat(np.array([0.0, 0.2, 0.5, 0.8, 1.0]), np.array([0.0, 0.05, 0.5, 0.95, 1.0]))],
    ids=lambda f: f.family,
)
def test_rates_kernel_matches_eval_rb_bitwise(f):
    # The grid plus every fraction k * (1/d) the Markov loop can form for d <= 200.
    d = np.arange(1, 201)
    counts = np.concatenate([np.arange(k + 1) * (1.0 / k) for k in d])
    xs = np.concatenate([np.linspace(0.0, 1.0, 10001), counts])
    assert f._rates(xs).tobytes() == np.asarray(f.eval_rb(xs), dtype=np.float64).tobytes()


def test_domain_error():
    for f in ALL_BUILTINS:
        with pytest.raises(ValueError):
            f.eval_rb(1.2)
        with pytest.raises(ValueError):
            f.eval_rb(-0.1)


@pytest.mark.parametrize("f", [TypeICombat(sigma=0.3), TypeIICombat()], ids=lambda f: f.family)
def test_nan_argument_is_outside_the_domain(f):
    with pytest.raises(ValueError, match="outside"):
        f.eval_rb(float("nan"))
    with pytest.raises(ValueError, match="outside"):
        f.eval_rb(np.array([0.2, np.nan]))
    with pytest.raises(ValueError, match="outside"):
        f.eval_br(float("nan"))


def test_flat_margin_is_the_distance_to_the_nearest_cut():
    f = TypeICombat(sigma=0.5, boundary_tolerance=0.1)
    assert f._flat_margin(np.array([0.0, 0.3, 0.95])) == pytest.approx(0.1)
    assert f._flat_margin(np.array([0.55, 0.9])) == pytest.approx(0.05)
    assert f._flat_margin(np.array([0.5 + 0.1])) == 0.0
    for smooth in ALL_BUILTINS:
        if smooth.family != "type1":
            assert smooth._flat_margin(np.array([0.1, 0.9])) == 0.0


# ---------------------------------------------------------------------------
# eval_br and duality


def test_type1_dual_case_structure():
    f = TypeICombat(sigma=1 / 3)
    # red fraction 0.8 exceeds 1 - sigma = 2/3
    assert f.eval_br(0.8) == 1.0
    assert f.eval_br(0.2) == 0.0
    assert f.eval_br(1 - 1 / 3) == 0.5


def test_duality_endpoints():
    for f in ALL_BUILTINS:
        assert f.eval_br(0.0) == pytest.approx(0.0, abs=1e-12)
        assert f.eval_br(1.0) == pytest.approx(1.0, abs=1e-12)


def test_duality_identity_grid():
    xs = np.linspace(0.0, 1.0, 1000)
    for f in ALL_BUILTINS:
        lhs = np.asarray(f.eval_br(xs))
        rhs = 1.0 - np.asarray(f.eval_rb(1.0 - xs))
        assert np.array_equal(lhs, rhs)  # definitionally exact
        total = np.asarray(f.eval_rb(xs)) + np.asarray(f.eval_br(1.0 - xs))
        assert np.allclose(total, 1.0, atol=1e-12)


def test_type1_outputs_only_three_values():
    f = TypeICombat(sigma=0.37)
    ys = np.asarray(f.eval_rb(np.linspace(0, 1, 10001)))
    assert set(np.unique(ys)) <= {0.0, 0.5, 1.0}


def test_type3_above_type4_below_identity():
    xs = np.linspace(0.0, 1.0, 10001)
    assert np.all(np.asarray(TypeIIICombat().eval_rb(xs)) >= xs - 1e-12)
    assert np.all(np.asarray(TypeIVCombat().eval_rb(xs)) <= xs + 1e-12)


# ---------------------------------------------------------------------------
# Derivatives


def test_derivative_values():
    assert TypeIVCombat().derivative_rb(0.0) == 0.0
    assert TypeIIICombat().derivative_rb(1.0) == pytest.approx(0.5)
    assert TypeIICombat().derivative_rb(0.5) == pytest.approx(2.0)
    # piecewise slopes agree from both sides of the threshold
    assert TypeIICombat().derivative_rb(0.5 - 1e-9) == pytest.approx(2.0, abs=1e-8)
    assert TypeIICombat().derivative_rb(0.5 + 1e-9) == pytest.approx(2.0, abs=1e-8)


def test_derivative_undefined_markers():
    assert TypeICombat(sigma=0.4).derivative_rb(0.4) is None
    assert TypeICombat(sigma=0.4).derivative_rb(0.1) is None
    assert TypeIIICombat().derivative_rb(0.0) is None  # infinite slope


# ---------------------------------------------------------------------------
# Shape validation


def test_builtins_pass_validation():
    for f in ALL_BUILTINS:
        report = validate_shape(f)
        assert report.passed, report.violations


def test_bad_endpoint_reported():
    bad = TabulatedCombat(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.4, 0.9]))
    report = validate_shape(bad)
    assert any(v.kind == "endpoint" for v in report.violations)


def test_type2_curvature_finite_difference_oracle():
    f = TypeIICombat()
    xs = np.linspace(0.0, 1.0, 2001)
    ys = np.asarray(f.eval_rb(xs))
    sd = ys[2:] - 2 * ys[1:-1] + ys[:-2]
    mid = xs[1:-1]
    assert np.all(sd[mid < 0.5 - 1e-9] >= -1e-12)  # convex below tau
    assert np.all(sd[mid > 0.5 + 1e-9] <= 1e-12)  # concave above tau
    assert validate_shape(f).passed


def test_nonmonotone_reported():
    bad = TabulatedCombat(
        np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 0.5, 0.3, 1.0])
    )
    report = validate_shape(bad)
    assert any(v.kind == "monotonicity" for v in report.violations)


# ---------------------------------------------------------------------------
# Tabulated functions


def test_tabulated_interpolation_and_classification():
    xs = np.linspace(0.0, 1.0, 101)
    tab = TabulatedCombat(xs, np.sqrt(xs))
    assert tab.eval_rb(0.49) == pytest.approx(np.sqrt(0.49), abs=1e-3)
    report = validate_shape(tab)
    assert report.passed
    assert "type3" in report.matches


def test_tabulated_requires_strictly_increasing():
    with pytest.raises(ValueError):
        TabulatedCombat(np.array([0.0, 0.5, 0.5, 1.0]), np.array([0, 0.2, 0.3, 1.0]))


@pytest.mark.parametrize("ys", [[-0.2, 0.5, 1.0], [0.0, 0.5, 1.2], [0.0, np.nan, 1.0],
                                [0.0, np.inf, 1.0]])
def test_tabulated_samples_must_be_probabilities(ys):
    # A sample outside [0, 1] would hand the dynamics flip probabilities
    # outside dt * [0, 1]: with f_RB(0) = -0.2, f_BR(1) = 1 - f_RB(0) is 1.2.
    with pytest.raises(ValueError, match=r"^f samples must lie in \[0, 1\]$"):
        TabulatedCombat(np.array([0.0, 0.5, 1.0]), np.array(ys))


def test_tabulated_derivative_segments_and_knots():
    tab = TabulatedCombat(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.2, 1.0]))
    assert tab.derivative_rb(0.25) == pytest.approx(0.4)
    assert tab.derivative_rb(0.75) == pytest.approx(1.6)
    assert tab.derivative_rb(0.5) is None


# ---------------------------------------------------------------------------
# Factory and parameter validation


def test_factory():
    assert isinstance(from_params("type1", sigma=0.4), TypeICombat)
    assert isinstance(from_params("type2", tau=0.3), TypeIICombat)
    with pytest.raises(ValueError):
        from_params("type9")


def test_parameter_ranges():
    with pytest.raises(ValueError):
        TypeICombat(sigma=0.0)
    with pytest.raises(ValueError):
        TypeIICombat(tau=1.0)
    with pytest.raises(ValueError):
        TypeIIICombat(exponent=1.5)
    with pytest.raises(ValueError):
        TypeIVCombat(exponent=0.5)


def test_generalized_type2_shape_any_tau():
    for tau in (0.2, 0.5, 0.8):
        f = TypeIICombat(tau=tau)
        assert f.eval_rb(tau) == pytest.approx(tau, abs=1e-12)
        assert validate_shape(f).passed


# ---------------------------------------------------------------------------
# Property tests


@settings(max_examples=60, deadline=None)
@given(
    x1=st.floats(min_value=0.0, max_value=1.0),
    x2=st.floats(min_value=0.0, max_value=1.0),
    which=st.integers(min_value=0, max_value=3),
)
def test_monotone_and_bounded(x1, x2, which):
    f = ALL_BUILTINS[which]
    lo, hi = sorted((x1, x2))
    y_lo, y_hi = f.eval_rb(lo), f.eval_rb(hi)
    assert 0.0 <= y_lo <= 1.0 and 0.0 <= y_hi <= 1.0
    assert y_lo <= y_hi + 1e-12
    assert f.eval_br(x1) == 1.0 - f.eval_rb(1.0 - x1)
