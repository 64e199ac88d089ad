"""Each combat family's analytical facts over non-default parameters: the
equilibrium verdicts at the uniform states, the direction of the mean-field
bias on either side of the family's bend, and the shape check."""

import numpy as np
import pytest

from cyberdyn.combat import (
    TabulatedCombat,
    TypeICombat,
    TypeIICombat,
    TypeIIICombat,
    TypeIVCombat,
    validate_shape,
)
from cyberdyn.graphgen import gen_er
from cyberdyn.meanfield import EquilibriumKind, classify_equilibrium
from cyberdyn.metrics import jensen_gap_probe

STABLE, UNSTABLE = EquilibriumKind.STABLE_EXPONENTIAL, EquilibriumKind.UNSTABLE

# (function, {z: (kind, rate)} at the uniform states, {level: prediction})
FACTS = [
    (TypeICombat(sigma=0.2), {0.0: (STABLE, -1.0), 1.0: (STABLE, -1.0)},
     {0.1: "meanfield_under", 0.3: "meanfield_over"}),
    (TypeICombat(sigma=0.8), {0.0: (STABLE, -1.0), 1.0: (STABLE, -1.0)},
     {0.7: "meanfield_under", 0.9: "meanfield_over"}),
    (TypeIICombat(tau=0.2), {0.0: (STABLE, -1.0), 1.0: (STABLE, -1.0)},
     {0.1: "meanfield_under", 0.3: "meanfield_over"}),
    (TypeIICombat(tau=0.5), {0.0: (STABLE, -1.0), 1.0: (STABLE, -1.0)},
     {0.4: "meanfield_under", 0.6: "meanfield_over"}),
    (TypeIICombat(tau=0.8), {0.0: (STABLE, -1.0), 1.0: (STABLE, -1.0)},
     {0.7: "meanfield_under", 0.9: "meanfield_over"}),
    # concave everywhere: every occupation lies above the bend at 0
    (TypeIIICombat(exponent=0.1), {0.0: (UNSTABLE, None), 1.0: (STABLE, -0.9)},
     {0.02: "meanfield_over", 0.98: "meanfield_over"}),
    (TypeIIICombat(exponent=0.9), {0.0: (UNSTABLE, None), 1.0: (STABLE, -0.1)},
     {0.02: "meanfield_over", 0.98: "meanfield_over"}),
    # convex everywhere: every occupation lies below the bend at 1
    (TypeIVCombat(exponent=1.1), {0.0: (STABLE, -1.0), 1.0: (UNSTABLE, None)},
     {0.02: "meanfield_under", 0.98: "meanfield_under"}),
    (TypeIVCombat(exponent=5.0), {0.0: (STABLE, -1.0), 1.0: (UNSTABLE, None)},
     {0.02: "meanfield_under", 0.98: "meanfield_under"}),
]
IDS = [repr(f) for f, _, _ in FACTS]


@pytest.fixture(scope="module")
def graph():
    return gen_er(40, 0.2, seed=3)


@pytest.mark.parametrize("f, verdicts, _", FACTS, ids=IDS)
def test_uniform_equilibrium_verdicts(graph, f, verdicts, _):
    for z, (kind, rate) in verdicts.items():
        v = classify_equilibrium(graph, f, np.full(graph.n, z))
        assert v.kind is kind, z
        if rate is None:
            assert v.rate is None
        else:
            assert v.rate == pytest.approx(rate, abs=1e-12)


@pytest.mark.parametrize("f, _, predictions", FACTS, ids=IDS)
def test_meanfield_bias_direction_on_each_side_of_the_bend(graph, f, _, predictions):
    for level, prediction in predictions.items():
        # The prediction depends on f and B0 alone; with no checkpoints the
        # probe reads neither the ensemble nor the trajectory.
        report = jensen_gap_probe(graph, f, np.full(graph.n, level), None, None, [])
        assert report.prediction == prediction, level


@pytest.mark.parametrize("f", [f for f, _, _ in FACTS], ids=IDS)
def test_shape_check_passes(f):
    report = validate_shape(f)
    assert report.passed, report.violations


def test_tabulated_samples_match_the_families_they_follow():
    xs = np.linspace(0.0, 1.0, 101)
    cases = {
        "sqrt": (xs, np.sqrt(xs), ["type3"]),
        "square": (xs, xs**2, ["type4"]),
        "sigmoid": (xs, TypeIICombat().eval_rb(xs), ["type2"]),
        # a jump between two checked grid points: values 0 and 1 alone
        "step": ([0.0, 0.3, 0.3 + 1e-7, 1.0], [0.0, 0.0, 1.0, 1.0], ["type1"]),
    }
    for name, (knots, ys, families) in cases.items():
        report = validate_shape(TabulatedCombat(np.array(knots), np.array(ys)))
        assert report.matches == families, name
