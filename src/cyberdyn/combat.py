"""The four combat-power function families and the attacker/defender duality.

A combat function maps the fraction of blue neighbors of a red node to its
recovery rate f_RB(x) in [0, 1]. The dual blue-to-red rate is always derived
as f_BR(x) = 1 - f_RB(1 - x), so every family satisfies the rate-sum identity
f_RB(x) + f_BR(1 - x) = 1 exactly.

Families:
    type1   hard threshold sigma: 0 below, 1 above, 1/2 at the boundary
    type2   sigmoid with threshold tau: x^2/tau below, 1-(1-x)^2/(1-tau) above
    type3   concave superiority curve x^a with a in (0, 1)
    type4   convex inferiority curve x^b with b > 1 (dual to type3)
    tabulated   user samples with linear interpolation

Each family declares its bend: the x where the curve turns from convex to
concave and crosses the diagonal from below (sigma, tau, 0 and 1 in family
order). The analyses read their family facts from it and from the slopes:
the bend is the repelling fixed point, the mean-field bias changes sign
there, and the linearized exponent at a uniform state z is f'(z) - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "CombatFunction",
    "TypeICombat",
    "TypeIICombat",
    "TypeIIICombat",
    "TypeIVCombat",
    "TabulatedCombat",
    "FAMILIES",
    "from_params",
    "validate_shape",
    "ShapeReport",
    "ShapeViolation",
]

_DOMAIN_SLACK = 1e-12


def _check_unit_interval(x):
    arr = np.asarray(x, dtype=np.float64)
    # Written so that NaN, for which every comparison is false, fails too.
    if not np.all((arr >= -_DOMAIN_SLACK) & (arr <= 1.0 + _DOMAIN_SLACK)):
        raise ValueError("combat-function argument outside [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def _like(x, value):
    """Return a scalar when the input was scalar, else the array."""
    return float(value) if np.isscalar(x) or np.ndim(x) == 0 else value


class CombatFunction:
    """Base class; subclasses implement _rates and derivative_rb.

    ``eval_rb`` is the checked public call. ``_rates`` is the trusted array
    kernel behind it: it takes a float64 array already inside [0, 1] and
    skips the domain check, so hot loops whose arguments cannot leave the
    unit interval call it directly.
    """

    family: str = ""
    # How near the bend a neighbor mean counts as at it.
    bend_tolerance: float = 1e-9
    # (lo, hi) for the hard threshold, whose rate is 0 below lo, 1 above hi
    # and 1/2 between; None for every other shape.
    cuts: Optional[tuple] = None

    @property
    def threshold(self) -> Optional[float]:
        return None

    @property
    def bend(self) -> Optional[float]:
        """Where the curve turns from convex to concave, or None for a curve
        with no declared shape. The threshold families bend at their
        threshold."""
        return self.threshold

    def eval_rb(self, x):
        """Red-to-blue rate from the blue-neighbor fraction x in [0, 1]."""
        x = _check_unit_interval(x)
        return _like(x, self._rates(x))

    def _rates(self, y: np.ndarray) -> np.ndarray:
        """f_RB at each entry of a float64 array y already inside [0, 1],
        returned as a new array."""
        raise NotImplementedError

    def _flat_margin(self, y: np.ndarray) -> float:
        """How far every entry of y may move before ``_rates(y)`` can change:
        the smallest distance from an entry to a point where the rate is not
        locally constant. Smooth families return 0.0."""
        return 0.0

    def eval_br(self, x):
        """Blue-to-red rate from the red-neighbor fraction x (the dual)."""
        x = _check_unit_interval(x)
        return _like(x, 1.0 - self.eval_rb(1.0 - x))

    def derivative_rb(self, x) -> Optional[float]:
        """Analytic derivative at a point, or None where it is undefined."""
        raise NotImplementedError


@dataclass(frozen=True)
class TypeICombat(CombatFunction):
    sigma: float
    boundary_tolerance: float = 1e-12
    family = "type1"

    def __post_init__(self):
        if not (0 < self.sigma < 1):
            raise ValueError("sigma must be in (0, 1)")
        if self.boundary_tolerance < 0:
            raise ValueError("boundary tolerance must be nonnegative")

    @property
    def threshold(self) -> float:
        return self.sigma

    @property
    def bend_tolerance(self) -> float:
        return self.boundary_tolerance

    @property
    def cuts(self) -> tuple:
        eps = self.boundary_tolerance
        return self.sigma - eps, self.sigma + eps

    def _rates(self, y):
        lo, hi = self.cuts
        return np.where(y > hi, 1.0, np.where(y < lo, 0.0, 0.5))

    def _flat_margin(self, y):
        # The rate jumps only where y crosses one of the two cut points.
        lo, hi = self.cuts
        return float(min(np.abs(y - lo).min(), np.abs(y - hi).min()))

    def derivative_rb(self, x) -> Optional[float]:
        return None


@dataclass(frozen=True)
class TypeIICombat(CombatFunction):
    """Sigmoid through (tau, tau): convex below the threshold, concave above.

    At tau = 0.5 this is exactly 2x^2 on [0, 1/2] and -2x^2 + 4x - 1 above.
    """

    tau: float = 0.5
    family = "type2"

    def __post_init__(self):
        if not (0 < self.tau < 1):
            raise ValueError("tau must be in (0, 1)")

    @property
    def threshold(self) -> float:
        return self.tau

    def _rates(self, y):
        below = y * y / self.tau
        above = 1.0 - (1.0 - y) ** 2 / (1.0 - self.tau)
        return np.where(y < self.tau, below, above)

    def derivative_rb(self, x) -> Optional[float]:
        x = float(_check_unit_interval(x))
        if x < self.tau:
            return 2.0 * x / self.tau
        # Left and right slopes agree at tau (both equal 2).
        return 2.0 * (1.0 - x) / (1.0 - self.tau)


@dataclass(frozen=True)
class TypeIIICombat(CombatFunction):
    """Concave power curve x^a, a in (0, 1): f(x) > x on (0, 1)."""

    exponent: float = 0.5
    family = "type3"
    bend = 0.0

    def __post_init__(self):
        if not (0 < self.exponent < 1):
            raise ValueError("type3 exponent must be in (0, 1)")

    def _rates(self, y):
        return y**self.exponent

    def derivative_rb(self, x) -> Optional[float]:
        x = float(_check_unit_interval(x))
        if x == 0.0:
            return None  # slope diverges
        return self.exponent * x ** (self.exponent - 1.0)


@dataclass(frozen=True)
class TypeIVCombat(CombatFunction):
    """Convex power curve x^b, b > 1: f(x) < x on (0, 1)."""

    exponent: float = 2.0
    family = "type4"
    bend = 1.0

    def __post_init__(self):
        if self.exponent <= 1:
            raise ValueError("type4 exponent must exceed 1")

    def _rates(self, y):
        return y**self.exponent

    def derivative_rb(self, x) -> Optional[float]:
        x = float(_check_unit_interval(x))
        return self.exponent * x ** (self.exponent - 1.0)


@dataclass(frozen=True)
class TabulatedCombat(CombatFunction):
    """User-supplied samples (x_i, f(x_i)), evaluated by linear interpolation.

    x must increase strictly from 0 to 1, and every f(x_i) must lie in
    [0, 1] so that the interpolated rates are probabilities. The derivative
    is the segment slope inside a segment and at the ends 0 and 1, and
    undefined (None) at the interior knots.
    """

    xs: np.ndarray
    ys: np.ndarray
    family = "tabulated"

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
            raise ValueError("need matching 1-d sample arrays with >= 2 points")
        if xs[0] != 0.0 or xs[-1] != 1.0 or np.any(np.diff(xs) <= 0):
            raise ValueError("x samples must increase strictly from 0 to 1")
        # Written so that NaN, for which every comparison is false, fails too.
        if not np.all((ys >= 0.0) & (ys <= 1.0)):
            raise ValueError("f samples must lie in [0, 1]")

    def _rates(self, y):
        return np.interp(y, self.xs, self.ys)

    def derivative_rb(self, x) -> Optional[float]:
        x = float(_check_unit_interval(x))
        if np.any(np.abs(self.xs[1:-1] - x) < 1e-12):
            return None  # interior knot: one-sided slopes generally disagree
        j = min(int(np.searchsorted(self.xs, x, side="right")), len(self.xs) - 1) - 1
        return float(
            (self.ys[j + 1] - self.ys[j]) / (self.xs[j + 1] - self.xs[j])
        )


# The family names a spec and from_params accept, and nothing else.
FAMILIES = {"type1": TypeICombat, "type2": TypeIICombat, "type3": TypeIIICombat, "type4": TypeIVCombat}


def from_params(family: str, **params) -> CombatFunction:
    """Build a combat function from a family name and keyword parameters."""
    if family not in FAMILIES:
        raise ValueError(f"unknown combat family {family!r}")
    return FAMILIES[family](**params)


# ---------------------------------------------------------------------------
# Shape validation


@dataclass(frozen=True)
class ShapeViolation:
    kind: str
    x: float
    detail: str


@dataclass
class ShapeReport:
    violations: list = field(default_factory=list)
    matches: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


_SHAPE_TOL = 1e-9  # validate_shape: differences within it count as zero


def _second_differences(y: np.ndarray) -> np.ndarray:
    return y[2:] - 2.0 * y[1:-1] + y[:-2]


def _pattern_violations(family: str, xs: np.ndarray, ys: np.ndarray, bend=None) -> list:
    """Violations of one family's pattern on the grid, at ``bend`` or the
    family's default one. The hard threshold takes only the values 0, 1/2
    and 1; every other family is convex and below the diagonal under its
    bend, concave and above it over the bend."""
    tol = _SHAPE_TOL
    if family == "type1":
        checks = (("range", xs, np.abs(2 * ys - np.round(2 * ys)) > tol, "value not in {0, 1/2, 1}"),)
    else:
        if bend is None:
            bend = FAMILIES[family]().bend
        mid, sd = xs[1:-1], _second_differences(ys)
        inside = (xs > tol) & (xs < 1 - tol)
        checks = (
            ("curvature", mid, (mid < bend - tol) & (sd < -tol), f"not convex below {bend:g}"),
            ("curvature", mid, (mid > bend + tol) & (sd > tol), f"not concave above {bend:g}"),
            ("ordering", xs, inside & (xs < bend - tol) & (ys >= xs), f"f >= x below {bend:g}"),
            ("ordering", xs, inside & (xs > bend + tol) & (ys <= xs), f"f <= x above {bend:g}"),
        )
    return [ShapeViolation(kind, float(grid[np.argmax(bad)]), detail)
            for kind, grid, bad, detail in checks if bad.any()]


def validate_shape(f: CombatFunction) -> ShapeReport:
    """Grid-check endpoints, monotonicity, and the family's curvature pattern.

    The grid holds 10001 evenly spaced points of [0, 1], and differences
    within 1e-9 count as zero. Returns a report listing violations; an empty
    list means the function satisfies its family's defining shape on the
    grid. For tabulated functions the report also lists which family
    patterns, at the default parameters, the samples match.
    """
    report = ShapeReport()
    xs = np.linspace(0.0, 1.0, 10001)
    ys = np.asarray(f.eval_rb(xs), dtype=np.float64)

    if abs(ys[0]) > 1e-12:
        report.violations.append(ShapeViolation("endpoint", 0.0, f"f(0) = {ys[0]!r}"))
    if abs(ys[-1] - 1.0) > 1e-12:
        report.violations.append(ShapeViolation("endpoint", 1.0, f"f(1) = {ys[-1]!r}"))

    drops = np.flatnonzero(np.diff(ys) < -_SHAPE_TOL)
    if drops.size:
        i = int(drops[0])
        report.violations.append(
            ShapeViolation("monotonicity", float(xs[i]), f"f decreases past x={xs[i]:.6f}")
        )

    if f.family in FAMILIES:
        report.violations.extend(_pattern_violations(f.family, xs, ys, f.bend))
    else:
        report.matches = [name for name in FAMILIES if not _pattern_violations(name, xs, ys)]
    return report
