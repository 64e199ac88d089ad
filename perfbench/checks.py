"""Correctness checks and the reference computations they rest on.

Every reference here is written from the documented definitions (README of
the package, module docstrings) with numpy and scipy alone; nothing imports
cyberdyn. Each check takes plain data (arrays, numbers, file paths) and
raises CheckFailure with a message naming what disagreed, so the self-test
can feed it a deliberately wrong output.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.stats import binom

_MASK64 = (1 << 64) - 1


class CheckFailure(AssertionError):
    """A program output disagreed with its reference."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# Reference computations


def splitmix64(master: int, index: int) -> int:
    """Documented per-run seed: the splitmix64 finalizer of
    master + index * 0x9E3779B97F4A7C15, all mod 2^64."""
    z = (int(master) + index * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def edge_list_sha256(n: int, indptr, indices) -> str:
    """sha256 of the documented edge-list text: header `n=<n> k=0`, then one
    `e u v` line per edge with u < v, in CSR order, LF-terminated."""
    lines = [f"n={n} k=0"]
    for u in range(n):
        for v in indices[indptr[u] : indptr[u + 1]]:
            if u < v:
                lines.append(f"e {u} {int(v)}")
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def hard_threshold(sigma: float, eps: float = 1e-12):
    """Type-1 recovery rate: 0 below sigma, 1 above, 1/2 within eps of it."""
    return lambda x: np.where(x > sigma + eps, 1.0, np.where(x < sigma - eps, 0.0, 0.5))


def strategic_probabilities(degrees, target_phi: float) -> np.ndarray:
    """Degree-proportional start B_v = min(1, C d_v / sum d), with C chosen
    so that the expected degree-weighted blue fraction equals target_phi."""
    base = np.asarray(degrees, dtype=np.float64) / float(np.sum(degrees))
    C = brentq(lambda c: float(base @ np.minimum(1.0, c * base)) - target_phi,
               0.0, 1.0 / base.min(), xtol=1e-12, rtol=1e-15)
    return np.minimum(1.0, C * base)


def _neighbor_sum(indptr, indices, values):
    return np.add.reduceat(values[indices], indptr[:-1])


def euler_series(indptr, indices, rate, B0, horizon: float, dt: float):
    """Synchronous forward Euler of dB/dt = rate(neighbor mean of B) - B,
    clamped to [0, 1]; returns (mean, min, max) of B at every step."""
    deg = np.diff(indptr).astype(np.float64)
    B = np.array(B0, dtype=np.float64)
    steps = int(round(horizon / dt))
    out = np.empty((3, steps + 1))
    for k in range(steps + 1):
        out[:, k] = B.mean(), B.min(), B.max()
        if k < steps:
            B = np.clip(B + (rate(_neighbor_sum(indptr, indices, B) / deg) - B) * dt, 0.0, 1.0)
    return out


def markov_run(indptr, indices, rate, B0, horizon: float, dt: float, seed: int):
    """One run of the chain under the documented RNG contract: a
    default_rng(seed) stream draws the initial state (one random(n) against
    B0), then one random(n) per step against dt * rate (blue nodes flip with
    1 - rate of their blue-neighbor fraction, red nodes with rate). Returns
    the blue-fraction series (held at its absorbing value after absorption)
    and the absorbing colour and step, or None."""
    n = len(indptr) - 1
    inv_deg = 1.0 / np.diff(indptr).astype(np.float64)
    rng = np.random.default_rng(seed)
    xi = rng.random(n) < np.asarray(B0, dtype=np.float64)
    steps = int(round(horizon / dt))
    series = np.empty(steps + 1)
    for k in range(steps + 1):
        frac = np.count_nonzero(xi) / n
        series[k] = frac
        if frac in (0.0, 1.0):
            series[k:] = frac
            return series, ("blue" if frac == 1.0 else "red"), k
        if k == steps:
            break
        theta = rate(_neighbor_sum(indptr, indices, xi.astype(np.float64)) * inv_deg)
        xi = xi ^ (rng.random(n) < np.where(xi, 1.0 - theta, theta) * dt)
    return series, None, None


def theta_binomial(nu, d: int, sigma: float):
    """P(Binomial(d, nu) clears sigma*d), half weight on an exact integer hit."""
    sd = sigma * d
    b = round(sd)
    if abs(sd - b) < 1e-9:
        return binom.sf(b, d, nu) + 0.5 * binom.pmf(b, d, nu)
    return binom.sf(math.floor(sd), d, nu)


def drift_root(d: int, sigma: float, points: int = 4001):
    """Largest negative-to-positive crossing of theta_binomial(nu) - nu on
    (0, 1), found by a scan and brentq; None when there is none."""
    grid = np.linspace(0.0, 1.0, points)
    vals = theta_binomial(grid, d, sigma) - grid
    tol = 1e-10
    if np.all(np.abs(vals) < tol):
        return 0.5
    signs = np.where(vals > tol, 1, np.where(vals < -tol, -1, 0))
    nz = np.flatnonzero(signs)
    ups = [i for i, j in zip(nz[:-1], nz[1:]) if signs[i] < 0 < signs[j]]
    if not ups:
        return None
    i = ups[-1]
    j = nz[np.searchsorted(nz, i) + 1]
    return brentq(lambda x: theta_binomial(x, d, sigma) - x, grid[i], grid[j], xtol=1e-15)


# ---------------------------------------------------------------------------
# dynamics


def check_manifest(out_dir: Path) -> dict:
    """Every output file's sha256 matches manifest.json, and the manifest
    lists exactly the files the run left beside it."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    present = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
    require(present == set(manifest["outputs"]),
            f"{out_dir.name}: files {sorted(present)} != manifest {sorted(manifest['outputs'])}")
    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        require(actual == digest, f"{out_dir.name}/{name}: sha256 {actual[:12]} != manifest {digest[:12]}")
    return manifest


def read_csv(path: Path) -> list:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_outcome_sides(summary_rows: list, graph: str, threshold: float, name: str) -> None:
    """On `graph`, both models end on the side of the threshold that the
    initial level starts on."""
    rows = [r for r in summary_rows if r["graph"] == graph]
    require(rows, f"{name}: no summary rows for graph {graph!r}")
    for r in rows:
        above = float(r["level"]) > threshold
        for col in ("final_mean_xi", "final_mean_blue"):
            v = float(r[col])
            require((v > threshold) == above,
                    f"{name} {graph} level {r['level']}: {col}={v} on the wrong side of {threshold}")


def check_unit_box(rows: list, name: str) -> None:
    """Mean-field series: 0 <= min_B <= mean_blue <= max_B <= 1 at every step."""
    a = np.array([[float(r["min_B"]), float(r["mean_blue"]), float(r["max_B"])] for r in rows])
    require(np.all(a[:, 0] >= 0.0) and np.all(a[:, 2] <= 1.0), f"{name}: series leaves [0, 1]")
    require(np.all(np.diff(a, axis=1) >= -1e-15), f"{name}: min <= mean <= max violated")


def check_euler(rows: list, reference: np.ndarray, name: str, tol: float = 1e-9) -> None:
    got = np.array([[float(r[c]) for r in rows] for c in ("mean_blue", "min_B", "max_B")])
    require(got.shape == reference.shape, f"{name}: {got.shape[1]} steps, reference has {reference.shape[1]}")
    err = float(np.max(np.abs(got - reference)))
    require(err <= tol, f"{name}: max deviation from the reference Euler {err:.3e} > {tol}")


def check_ensemble_bits(rows: list, runs: list, name: str) -> None:
    """The ensemble CSV equals, bit for bit, the across-run mean of the
    reference runs, with the same cumulative absorption counts."""
    mean = np.stack([r[0] for r in runs]).mean(axis=0)
    got = np.array([float(r["mean_xi"]) for r in rows])
    require(got.shape == mean.shape, f"{name}: {got.size} rows, reference has {mean.size}")
    bad = np.flatnonzero(got != mean)
    require(bad.size == 0, f"{name}: mean_xi differs from the reference stepper at step {bad[:1].tolist()}")
    for kind in ("blue", "red"):
        col = np.array([int(r[f"n_absorbed_{kind}"]) for r in rows])
        ref = np.zeros(mean.size, dtype=np.int64)
        for _, absorbed, step in runs:
            if absorbed == kind:
                ref[step:] += 1
        require(np.array_equal(col, ref), f"{name}: n_absorbed_{kind} differs from the reference")


def check_run_bits(series, absorbed, reference, name: str) -> None:
    ref_series, ref_absorbed, _ = reference
    require(np.array_equal(np.asarray(series), ref_series) and absorbed == ref_absorbed,
            f"{name}: simulate_run differs from the reference stepper")


# ---------------------------------------------------------------------------
# sigma-grid

_RANK = {"all_red": 0, "mixed": 1, "all_blue": 2}


def check_grid(levels, verdicts, counts, runs: int, a1, b1, sigma_markov, name: str) -> None:
    """Counts sum to runs and imply the verdicts, verdicts are monotone in
    the level, and a1, b1 and sigma_markov follow from the verdicts."""
    require(list(levels) == sorted(levels), f"{name}: levels not ascending")
    for lv, v, c in zip(levels, verdicts, counts):
        require(min(c) >= 0 and sum(c) == runs, f"{name} level {lv}: counts {c} do not sum to {runs}")
        want = "all_blue" if c[0] == runs else "all_red" if c[1] == runs else "mixed"
        require(v == want, f"{name} level {lv}: verdict {v} but counts {c}")
    ranks = [_RANK[v] for v in verdicts]
    require(ranks == sorted(ranks), f"{name}: verdicts not monotone in the level: {verdicts}")
    top = next((lv for lv, v in zip(levels, verdicts) if v == "all_blue"), None)
    bottom = next((lv for lv, v in zip(levels[::-1], verdicts[::-1]) if v == "all_red"), None)
    require(top is not None and bottom is not None, f"{name}: grid does not bracket: {verdicts}")
    require(a1 == top and b1 == bottom and sigma_markov == 0.5 * (top + bottom),
            f"{name}: a1={a1} b1={b1} sigma_markov={sigma_markov}, verdicts give {top}, {bottom}")


def check_near_root(estimate: float, root: float, tol: float, name: str) -> None:
    require(abs(estimate - root) <= tol, f"{name}: {estimate} is {abs(estimate - root):.4f} from the drift root {root:.4f}")


def check_drift_side(root: float, sigma: float, name: str) -> None:
    """The binomial drift root moves away from 1/2: below sigma when
    sigma < 1/2, above it when sigma > 1/2."""
    require((root < sigma) if sigma < 0.5 else (root > sigma),
            f"{name}: drift root {root:.4f} on the wrong side of sigma={sigma}")


# ---------------------------------------------------------------------------
# analytics


def check_roots(program: dict, reference: dict, tol: float = 1e-9) -> None:
    """critical_nu equals the reference root (or both report none), and is
    1/2 at sigma = 1/2 for every degree."""
    for key, ref in reference.items():
        got = program[key]
        if ref is None or got is None:
            require(ref is None and got is None, f"critical_nu{key}: {got} vs reference {ref}")
            continue
        require(abs(got - ref) <= tol, f"critical_nu{key}: {got!r} vs reference {ref!r}")
        if key[1] == 0.5:
            require(abs(got - 0.5) <= tol, f"critical_nu{key}: {got!r} != 0.5")


def check_simple_graph(n: int, indptr, indices, name: str) -> None:
    """Symmetric adjacency, no self-loop, no repeated edge, no isolated node."""
    indptr = np.asarray(indptr)
    indices = np.asarray(indices, dtype=np.int64)
    deg = np.diff(indptr)
    require(deg.size == n and indptr[-1] == indices.size, f"{name}: malformed CSR")
    require(np.all(deg > 0), f"{name}: {int(np.count_nonzero(deg == 0))} isolated nodes")
    u = np.repeat(np.arange(n, dtype=np.int64), deg)
    require(np.all(u != indices), f"{name}: self-loop")
    fwd = np.sort(u * n + indices)
    require(np.all(np.diff(fwd) > 0), f"{name}: repeated edge")
    require(np.array_equal(fwd, np.sort(indices * n + u)), f"{name}: adjacency not symmetric")


def check_er_edges(n: int, p: float, edges: int, name: str) -> None:
    pairs = n * (n - 1) / 2
    mean, sd = pairs * p, math.sqrt(pairs * p * (1 - p))
    require(abs(edges - mean) <= 5 * sd, f"{name}: {edges} edges, expected {mean:.0f} +- 5*{sd:.0f}")


def check_boundary(boundary: float, ends: tuple, sigma: float, tol: float, name: str) -> None:
    """The bisection bracket ends in the red and blue basins, and the
    boundary lies within tol of sigma."""
    require(ends == ("red", "blue"), f"{name}: bracket ends classified {ends}")
    require(abs(boundary - sigma) <= tol, f"{name}: boundary {boundary:.4f} farther than {tol} from {sigma}")


def diagnostic_row(w, B0, i: int) -> tuple:
    """(s2, q, w2, g3) of row i by explicit loops over the linking
    indicators, p_ij = min(w_i w_j / sum w, 1)."""
    total = math.fsum(float(x) for x in w)
    s2 = q = w2 = g3 = 0.0
    for j in range(len(w)):
        p = min(float(w[i]) * float(w[j]) / total, 1.0)
        pq = p * (1.0 - p)
        kurt = (1.0 - p) ** 2 + p * p
        s2 += pq * float(B0[j]) ** 2
        q += pq * kurt * float(B0[j]) ** 3
        w2 += pq
        g3 += pq * kurt
    return s2, q, w2, g3


def check_diagnostic_rows(program_rows: dict, reference_rows: dict, tol: float = 1e-9) -> None:
    for i, ref in reference_rows.items():
        got = program_rows[i]
        for label, a, b in zip(("s2", "q", "w2", "g3"), got, ref):
            require(abs(a - b) <= tol * max(1.0, abs(b)), f"diagnostics row {i} {label}: {a!r} vs loop {b!r}")


def euler_rate(slope: float, dt: float) -> float:
    """Decay exponent forward Euler realizes for a linear rate `slope`."""
    return math.log1p(dt * slope) / dt


def check_rate(measured: float, expected: float, tol: float, name: str) -> None:
    require(abs(measured - expected) <= tol, f"{name}: rate {measured:.5f} vs expected {expected:.5f}")


def check_verdict(kind: str, rate, want_kind: str, want_rate, name: str) -> None:
    ok = kind == want_kind and (
        want_rate is None or (rate is not None and abs(rate - want_rate) <= 1e-12)
    )
    require(ok, f"{name}: verdict {kind} rate {rate}, expected {want_kind} rate {want_rate}")
