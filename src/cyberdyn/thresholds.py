"""Occupation thresholds for strategic and non-strategic players, the
degree-heterogeneity benefit factor h(z, gamma), finite-size diagnostic
ratios for the strategic-outcome argument, and the empirical critical
occupation of the stochastic process (sigma_markov).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._csv import write_csv
from .combat import CombatFunction
from .graphgen import ExpectedDegreeSequence, Graph
from .markov import run_batches, split_seed

__all__ = [
    "alpha_threshold",
    "beta_threshold",
    "h",
    "StrategicThresholds",
    "strategic_thresholds",
    "phi",
    "StrategicB0",
    "strategic_b0",
    "StrategicInit",
    "strategic_init",
    "StrategicSampler",
    "StrategicOutcomeDiagnostics",
    "strategic_outcome_diagnostics",
    "SigmaMarkovEstimate",
    "estimate_sigma_markov",
    "save_threshold_report_csv",
]


def _degree_ratio(degrees: np.ndarray) -> float:
    """(sum d)^2 / (n * sum d^2); equals 1 exactly for regular graphs."""
    d = np.asarray(degrees, dtype=np.float64)
    if d.size == 0 or d.min() < 1:
        raise ValueError("degrees must be a nonempty sequence of values >= 1")
    return float(d.sum() ** 2 / (len(d) * (d * d).sum()))


def alpha_threshold(degrees, sigma: float) -> float:
    """Strategic-defender initial occupation threshold (node fraction).

    The condition that holds whatever the placement, capped or not, is
    phi > sigma on the degree-weighted occupation phi. This node fraction,
    sigma (sum d)^2 / (n sum d^2), is equivalent to it only while no entry
    of ``strategic_b0`` is capped at 1. On heavy-tailed graphs the caps
    bind: on the exponent-2.5 test graph (n = 1992, degrees in [2, 120])
    this node fraction caps 34 entries and realizes phi = 0.389, while
    phi = sigma = 0.5 needs a capped node fraction of 0.252.
    """
    return sigma * _degree_ratio(degrees)


def beta_threshold(degrees, sigma: float) -> float:
    """Strategic-attacker counterpart: the blue fraction the defender needs
    when the attacker holds the large-degree nodes."""
    return 1.0 - (1.0 - sigma) * _degree_ratio(degrees)


def h(z: float, gamma: float) -> float:
    """Degree-heterogeneity factor multiplying the combat threshold in the
    power-law strategic threshold; z is the ratio d_max / d_min.

    Four analytic branches: the generic expression, and its limits at
    gamma = 1, 2, 3 (selected when |gamma - k| < 1e-9). The value is a
    squared-mean-over-mean-square ratio, so it provably lies in (0, 1];
    the generic branch suffers cancellation just outside the singular
    windows and is clamped to that bound.
    """
    if z <= 1:
        raise ValueError("z must exceed 1")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    lz = math.log(z)
    if abs(gamma - 1.0) < 1e-9 or abs(gamma - 3.0) < 1e-9:
        return min(2.0 * (z - 1.0) / (z + 1.0) / lz, 1.0)
    if abs(gamma - 2.0) < 1e-9:
        return min(z * lz * lz / (z - 1.0) ** 2, 1.0)
    a, b, c = 2.0 - gamma, 1.0 - gamma, 3.0 - gamma
    val = (z**a - 1.0) ** 2 / ((z**b - 1.0) * (z**c - 1.0)) * (c * b) / (a * a)
    return min(val, 1.0)


@dataclass(frozen=True)
class StrategicThresholds:
    alpha: float
    beta: float
    gap: float
    ratio: float


def strategic_thresholds(z: float, gamma: float, sigma: float) -> StrategicThresholds:
    """Both strategic thresholds on a power-law family plus the benefit
    measures gap = beta - alpha = 1 - h and ratio = beta / alpha."""
    hv = h(z, gamma)
    return StrategicThresholds(
        alpha=sigma * hv,
        beta=1.0 - (1.0 - sigma) * hv,
        gap=1.0 - hv,
        ratio=1.0 + (1.0 - hv) / (sigma * hv),
    )


def phi(g: Graph, blue: np.ndarray) -> float:
    """Degree-weighted blue fraction of the boolean node mask ``blue``: sum
    of blue degrees over total degree."""
    return float(g.degrees[blue].sum() / g.degrees.sum())


@dataclass(frozen=True)
class StrategicB0:
    B0: np.ndarray
    C: float
    n_capped: int


def strategic_b0(
    g: Graph,
    target_fraction: Optional[float] = None,
    target_phi: Optional[float] = None,
) -> StrategicB0:
    """Degree-proportional initial probabilities B_v = min(1, C deg_v / sum deg).

    C is solved by monotone bisection so that either the expected node
    fraction sum(B)/n or the expected degree-weighted fraction phi matches
    the target. Cap events (entries pinned at 1) are counted in the result.

    The strategic-defender condition phi > sigma holds whatever the
    placement, capped or not, so ``target_phi`` states the threshold
    directly. A ``target_fraction`` of ``alpha_threshold(degrees, sigma)``
    lands on phi = sigma only while ``n_capped`` is 0; each capped entry
    lowers the realized phi below it.
    """
    if (target_fraction is None) == (target_phi is None):
        raise ValueError("give exactly one of target_fraction, target_phi")
    target = target_fraction if target_fraction is not None else target_phi
    if not (0 <= target <= 1):
        raise ValueError("target must lie in [0, 1]")
    deg = g.degrees.astype(np.float64)
    total = deg.sum()
    base = deg / total

    if target_fraction is not None:
        goal = target * g.n
        weights = np.ones(g.n)
    else:
        goal = target
        weights = deg / total

    def realized(C: float) -> float:
        return float(weights @ np.minimum(1.0, C * base))

    lo, hi = 0.0, total / deg.min()  # at hi every entry is capped at 1
    if goal > realized(hi) + 1e-12:
        raise ValueError("target not achievable with capped probabilities")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if realized(mid) < goal:
            lo = mid
        else:
            hi = mid
    C = 0.5 * (lo + hi)
    B0 = np.minimum(1.0, C * base)
    return StrategicB0(B0=B0, C=C, n_capped=int(np.count_nonzero(C * base >= 1.0)))


_MAX_TRIES = 1000  # strategic_init gives up on a phi band after this many draws


@dataclass(frozen=True)
class StrategicInit:
    B0: np.ndarray
    blue_mask: np.ndarray
    phi: float
    n_capped: int
    tries: int


def strategic_init(
    g: Graph, target_phi: float, seed=None, phi_band: Optional[float] = None
) -> StrategicInit:
    """Sample a strategic initial occupation from ``strategic_b0`` at the
    degree-weighted target ``target_phi``.

    With ``phi_band`` set, sampling is repeated until the realized
    degree-weighted fraction lands within the band of the target
    (rejection control for experiments that pin the realized occupation),
    and fails after 1000 tries.
    """
    sb = strategic_b0(g, target_phi=target_phi)
    rng = np.random.default_rng(seed)
    tries = 0
    while True:
        tries += 1
        mask = rng.random(g.n) < sb.B0
        realized = phi(g, mask)
        if phi_band is None or abs(realized - target_phi) <= phi_band:
            return StrategicInit(
                B0=sb.B0, blue_mask=mask, phi=realized, n_capped=sb.n_capped, tries=tries
            )
        if tries >= _MAX_TRIES:
            raise RuntimeError(
                f"could not land phi within {phi_band} of {target_phi} in {_MAX_TRIES} tries"
            )


@dataclass(frozen=True)
class StrategicSampler:
    """Picklable per-run initializer for ensembles with pinned realized phi."""

    g: Graph
    target_phi: float
    phi_band: Optional[float] = None

    def __call__(self, rng: np.random.Generator) -> np.ndarray:
        return strategic_init(self.g, self.target_phi, rng, self.phi_band).blue_mask


# ---------------------------------------------------------------------------
# Finite-size diagnostics for the strategic-outcome argument


@dataclass(frozen=True, eq=False)
class StrategicOutcomeDiagnostics:
    """Per-node moment sums and the six assumption ratios, evaluated at
    finite n for empirical inspection of the asymptotic regime."""

    s2: np.ndarray
    q: np.ndarray
    w2: np.ndarray
    g3: np.ndarray
    sup_q_over_s3: float
    sup_g_over_w3: float
    sqrt_log_n_over_dmin: float
    sum_g_over_sum_w2_32: float
    sum_q_over_sum_s2_32: float
    sum_inv_d2: float


def strategic_outcome_diagnostics(d: ExpectedDegreeSequence, B0: np.ndarray) -> StrategicOutcomeDiagnostics:
    """Compute the per-node variance/third-moment sums of the linking
    indicators (weighted and unweighted by B0) and the six finite-n ratios."""
    if not isinstance(d, ExpectedDegreeSequence):
        d = ExpectedDegreeSequence(np.asarray(d, dtype=np.float64))
    B0 = np.asarray(B0, dtype=np.float64)
    if B0.shape != (d.n,):
        raise ValueError("B0 must match the degree sequence length")
    w = d.d
    p = np.minimum(np.outer(w, w) / d.total, 1.0)
    pq = p * (1.0 - p)
    kurt = (1.0 - p) ** 2 + p * p
    s2 = pq @ (B0**2)
    q = (pq * kurt) @ (B0**3)
    w2 = pq.sum(axis=1)
    g3 = (pq * kurt).sum(axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(s2 > 0, q / np.maximum(s2, 1e-300) ** 1.5, np.nan)
        r2 = np.where(w2 > 0, g3 / np.maximum(w2, 1e-300) ** 1.5, np.nan)
    sup1 = float(np.nanmax(r1)) if np.any(s2 > 0) else float("nan")
    sup2 = float(np.nanmax(r2)) if np.any(w2 > 0) else float("nan")
    s2_sum, w2_sum = float(s2.sum()), float(w2.sum())
    return StrategicOutcomeDiagnostics(
        s2=s2,
        q=q,
        w2=w2,
        g3=g3,
        sup_q_over_s3=sup1,
        sup_g_over_w3=sup2,
        sqrt_log_n_over_dmin=float(np.sqrt(np.log(d.n)) / d.d_min),
        sum_g_over_sum_w2_32=float(g3.sum() / w2_sum**1.5) if w2_sum > 0 else float("nan"),
        sum_q_over_sum_s2_32=float(q.sum() / s2_sum**1.5) if s2_sum > 0 else float("nan"),
        sum_inv_d2=float((1.0 / w**2).sum()),
    )


# ---------------------------------------------------------------------------
# Empirical threshold of the stochastic process


@dataclass(frozen=True, eq=False)
class SigmaMarkovEstimate:
    """Grid of occupation levels with per-level ensemble verdicts.

    a1 is the smallest level from which every level upward is unanimously
    all-blue; b1 the largest level down to which every level is unanimously
    all-red; sigma_markov their midpoint. When either side has no unanimous
    run the estimate is marked inconclusive and carries the verdict table.
    ``exit_reasons`` holds, parallel to ``counts``, a Counter of the runs'
    ``RunRecord.exit_reason`` per level.
    """

    levels: np.ndarray
    verdicts: list
    counts: list  # (n_all_blue, n_all_red, n_mixed) per level
    a1: Optional[float]
    b1: Optional[float]
    sigma_markov: Optional[float]
    inconclusive: bool
    init_rule: str
    exit_reasons: list = field(default_factory=list)


def estimate_sigma_markov(
    g: Graph,
    f: CombatFunction,
    levels: Sequence[float],
    init_rule: str = "uniform",
    runs: int = 50,
    horizon: float = 30.0,
    dt: float = 0.01,
    master_seed: int = 0,
    workers: int = 1,
    occupancy_tol: float = 0.0,
) -> SigmaMarkovEstimate:
    """Estimate the critical initial blue occupation of the stochastic
    process by bracketing unanimous outcomes on a level grid.

    By default a level is unanimous only if all runs absorb before the
    horizon; non-absorbed runs make it mixed rather than being guessed.
    Sparse heavy-tailed graphs carry exactly-frozen mixed configurations
    (small pockets whose members all sit strictly on the zero-rate side of
    the threshold), which block strict absorption in one direction; a
    positive ``occupancy_tol`` counts a run whose final minority mass is at
    most that fraction as converged to the majority color.

    init_rule "uniform" uses identical per-node probabilities; "strategic"
    uses degree-proportional probabilities with the level as the node
    fraction target.
    """
    if not (0.0 <= occupancy_tol < 0.5):
        raise ValueError("occupancy_tol must lie in [0, 0.5)")
    levels = np.asarray(sorted(float(x) for x in levels))
    if len(levels) < 2:
        raise ValueError("need at least two grid levels")
    if init_rule not in ("uniform", "strategic"):
        raise ValueError("init_rule must be 'uniform' or 'strategic'")
    if runs < 1:
        raise ValueError("runs must be >= 1")

    def level_batches():
        for idx, level in enumerate(levels):
            if init_rule == "uniform":
                B0 = np.full(g.n, level)
            else:
                B0 = strategic_b0(g, target_fraction=level).B0
            yield [(split_seed(split_seed(master_seed, idx), i), B0) for i in range(runs)]

    verdicts, counts, exit_reasons = [], [], []
    for records in run_batches(g, f, level_batches(), horizon, dt=dt, workers=workers):
        finals = np.array([r.mean_xi[-1] for r in records])
        nb = int(np.count_nonzero(finals >= 1.0 - occupancy_tol))
        nr = int(np.count_nonzero(finals <= occupancy_tol))
        nm = runs - nb - nr
        counts.append((nb, nr, nm))
        exit_reasons.append(Counter(r.exit_reason for r in records))
        if nb == runs:
            verdicts.append("all_blue")
        elif nr == runs:
            verdicts.append("all_red")
        else:
            verdicts.append("mixed")

    a1 = None
    for i in range(len(levels)):
        if all(v == "all_blue" for v in verdicts[i:]):
            a1 = float(levels[i])
            break
    b1 = None
    for i in range(len(levels) - 1, -1, -1):
        if all(v == "all_red" for v in verdicts[: i + 1]):
            b1 = float(levels[i])
            break
    inconclusive = a1 is None or b1 is None
    return SigmaMarkovEstimate(
        levels=levels,
        verdicts=verdicts,
        counts=counts,
        a1=a1,
        b1=b1,
        sigma_markov=None if inconclusive else 0.5 * (a1 + b1),
        inconclusive=inconclusive,
        init_rule=init_rule,
        exit_reasons=exit_reasons,
    )


def save_threshold_report_csv(est: SigmaMarkovEstimate, path) -> None:
    """Write `level, n_all_blue, n_all_red, n_mixed, verdict` plus the
    summary row `a1, b1, sigma_markov`."""
    a1, b1, sm = (
        "" if x is None else repr(float(x)) for x in (est.a1, est.b1, est.sigma_markov)
    )
    rows = [
        (float(level), *counts, verdict)
        for level, counts, verdict in zip(est.levels, est.counts, est.verdicts)
    ]
    rows.append(
        ("summary", f"a1={a1}", f"b1={b1}", f"sigma_markov={sm}",
         "inconclusive" if est.inconclusive else "ok")
    )
    write_csv(path, "level,n_all_blue,n_all_red,n_mixed,verdict", rows)
