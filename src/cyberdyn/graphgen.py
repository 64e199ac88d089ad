"""Network construction, validation, persistence, and structural measurement.

All generators are seeded and bit-reproducible. Graphs are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Graph",
    "ExpectedDegreeSequence",
    "GraphFormatError",
    "GraphGenerationError",
    "gen_er",
    "gen_chung_lu",
    "gen_clustered",
    "powerlaw_degree_sequence",
    "truncated_powerlaw_moments",
    "dmin_for_fixed_variance",
    "min_node_expansion",
    "largest_component",
    "save_graph",
    "load_graph",
]

# Per-node retry budget when a generator produces an isolated node. The
# dynamics divide by deg(v), so isolated nodes are rejected outright.
_ISOLATED_RETRY_LIMIT = 50


class GraphFormatError(ValueError):
    """Raised when an edge-list file cannot be parsed or fails validation."""


class GraphGenerationError(RuntimeError):
    """Raised when a generator cannot produce a valid graph (e.g. a node
    stays isolated after the retry budget)."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph in CSR form.

    ``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbor list of node v.
    ``cluster_of`` holds 1-based cluster ids when the graph is clustered.
    The CSR is checked once, here, and held as read-only int64 copies, so the
    engines index it unchecked; a node's degree is its row's length.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    cluster_of: Optional[np.ndarray] = field(default=None, kw_only=True)

    def __post_init__(self):
        n = self.n
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"n: graph needs at least 2 nodes, got {n!r}")
        indptr, indices = _id_array("indptr", self.indptr), _id_array("indices", self.indices)
        rows = np.diff(indptr)
        if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(indices) or (rows < 0).any():
            raise ValueError(f"indptr: need {n + 1} offsets rising from 0 to len(indices)")
        if (rows == 0).any():  # the dynamics divide by deg(v)
            raise ValueError(f"isolated node(s): {np.flatnonzero(rows == 0)[:10].tolist()}")
        if indices.min() < 0 or indices.max() >= n:
            raise ValueError(f"indices: neighbor ids must lie in [0, {n})")
        cluster_of = None if self.cluster_of is None else _id_array("cluster_of", self.cluster_of)
        if cluster_of is not None and (cluster_of.shape != (n,) or cluster_of.min() < 1):
            raise ValueError("cluster_of must hold one 1-based cluster id per node")
        self.__dict__.update(n=int(n), indptr=indptr, indices=indices, cluster_of=cluster_of)

    @cached_property
    def degrees(self) -> np.ndarray:
        return _read_only(np.diff(self.indptr))

    @cached_property
    def csr(self) -> sp.csr_matrix:
        """Adjacency matrix as a scipy CSR float matrix."""
        data = np.ones(len(self.indices), dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    @cached_property
    def inv_degrees(self) -> np.ndarray:
        return _read_only(1.0 / self.degrees.astype(np.float64))

    @property
    def num_edges(self) -> int:
        return int(len(self.indices)) // 2

    @property
    def num_clusters(self) -> int:
        return 0 if self.cluster_of is None else int(self.cluster_of.max())

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v."""
        u = np.repeat(np.arange(self.n), self.degrees)
        keep = u < self.indices
        return np.stack([u[keep], self.indices[keep]], axis=1)

    def structural_hash(self) -> str:
        """sha256 over the canonical edge-list serialization."""
        return hashlib.sha256(_serialize(self).encode()).hexdigest()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _id_array(name: str, a) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 1 or a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be a 1-D integer array, got {a.dtype} of shape {a.shape}")
    return _read_only(a.astype(np.int64))  # a copy, even of an int64 array


def graph_from_edges(
    n: int,
    edges: np.ndarray,
    cluster_of: Optional[np.ndarray] = None,
) -> Graph:
    """Build a validated Graph from an (m, 2) array of undirected edges.

    Rejects out-of-range ids, duplicate edges, self-loops and isolated nodes.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")
    u, v = edges[:, 0], edges[:, 1]
    if (u == v).any():
        raise ValueError(f"self-loop at node {int(u[u == v][0])}")
    # Each edge once each way, as u * n + v in CSR order: an edge given
    # twice, either way round, leaves two equal neighbors.
    pairs = np.sort(np.concatenate([u * n + v, v * n + u]))
    if (np.diff(pairs) == 0).any():
        raise ValueError("duplicate edge in edge list")
    return Graph(n, np.searchsorted(pairs, np.arange(n + 1) * n), pairs % n, cluster_of=cluster_of)


# ---------------------------------------------------------------------------
# Expected-degree sequences


@dataclass(frozen=True, eq=False)
class ExpectedDegreeSequence:
    """Positive expected degrees d_1..d_n for the generalized random graph."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        object.__setattr__(self, "d", d)
        if d.ndim != 1 or len(d) < 2:
            raise ValueError("need at least 2 expected degrees")
        if not np.all(np.isfinite(d)) or np.any(d <= 0):
            raise ValueError("expected degrees must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.d)

    @property
    def d_min(self) -> float:
        return float(self.d.min())

    @property
    def d_max(self) -> float:
        return float(self.d.max())

    @property
    def total(self) -> float:
        return float(self.d.sum())


def powerlaw_degree_sequence(
    n: int, gamma: float, d_min: float, d_max: float
) -> ExpectedDegreeSequence:
    """Expected degrees from the truncated density ~ k^-gamma on [d_min, d_max].

    Assignment is deterministic: the inverse CDF is evaluated on the midpoint
    quantile grid (i + 1/2)/n, i = 0..n-1, so the sequence is reproducible and
    its moments track the continuous density. Degrees come out ascending.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if d_min <= 0 or d_max < d_min:
        raise ValueError("need 0 < d_min <= d_max")
    if d_max == d_min:
        return ExpectedDegreeSequence(np.full(n, float(d_min)))
    q = (np.arange(n) + 0.5) / n
    if abs(gamma - 1.0) < 1e-12:
        d = d_min * (d_max / d_min) ** q
    else:
        e = 1.0 - gamma
        d = (d_min**e + q * (d_max**e - d_min**e)) ** (1.0 / e)
    return ExpectedDegreeSequence(d)


def truncated_powerlaw_moments(gamma: float, a: float, b: float) -> tuple[float, float]:
    """(mean, variance) of the density ~ k^-gamma on [a, b].

    The moment integrals have logarithmic branches at gamma in {1, 2, 3};
    those are taken analytically rather than by limits of the generic form.
    """
    if a <= 0 or b < a:
        raise ValueError("need 0 < a <= b")
    if b == a:
        return float(a), 0.0

    def power_integral(e: float) -> float:
        # integral of k^e over [a, b]
        if abs(e + 1.0) < 1e-12:
            return float(np.log(b / a))
        return float((b ** (e + 1) - a ** (e + 1)) / (e + 1))

    c = power_integral(-gamma)
    m1 = power_integral(1.0 - gamma) / c
    m2 = power_integral(2.0 - gamma) / c
    return m1, m2 - m1 * m1


def dmin_for_fixed_variance(dvar: float, r: float, gamma: float) -> float:
    """Smallest expected degree d_min such that the truncated power-law
    sequence on [d_min, r*d_min] has variance dvar.

    The variance is inverted numerically (bisection against the moment
    integrals); no closed form is trusted. Raises ValueError when the support
    is too degenerate for a positive-variance solution to be resolvable.
    """
    if dvar <= 0:
        raise ValueError("dvar must be positive")
    if r <= 1:
        raise ValueError("r must exceed 1")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    _, unit_var = truncated_powerlaw_moments(gamma, 1.0, r)
    if not np.isfinite(unit_var) or unit_var <= 1e-18:
        raise ValueError("support ratio r is too close to 1: variance degenerates")

    def variance_at(a: float) -> float:
        return truncated_powerlaw_moments(gamma, a, r * a)[1]

    lo = np.sqrt(dvar / unit_var) / 4.0
    hi = lo * 16.0
    f_lo, f_hi = variance_at(lo) - dvar, variance_at(hi) - dvar
    if f_lo > 0 or f_hi < 0:
        raise ValueError("could not bracket the requested variance")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if variance_at(mid) - dvar <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Generators


def _pair_graph(n, probs, rng, cluster_of=None) -> Graph:
    """Link every unordered pair independently and build the graph.

    ``probs(u, lo)`` gives node u's linking probabilities to the partners
    lo..n-1 (an array, or one scalar for all of them). Node u draws one coin
    per partner above it, in node order. Each node still isolated afterwards
    redraws a full row, in ascending order, until it gains an edge;
    GraphGenerationError is raised when it exhausts the retry budget.
    """
    rows = [np.flatnonzero(rng.random(n - u - 1) < probs(u, u + 1)) + (u + 1) for u in range(n)]
    src = [np.repeat(np.arange(n), [hits.size for hits in rows])]
    dst = rows
    degrees = np.bincount(np.concatenate(src + dst), minlength=n)
    for u in np.flatnonzero(degrees == 0):
        if degrees[u]:
            continue  # linked by an earlier node's redraw
        row = probs(u, 0)
        for _ in range(_ISOLATED_RETRY_LIMIT):
            coins = rng.random(n) < row
            coins[u] = False
            hits = np.flatnonzero(coins)
            if hits.size:
                break
        else:
            raise GraphGenerationError(
                f"node {u} remained isolated after {_ISOLATED_RETRY_LIMIT} retries"
            )
        degrees[u] += hits.size
        degrees[hits] += 1
        src.append(np.full(hits.size, u))
        dst.append(hits)
    edges = np.stack([np.concatenate(src), np.concatenate(dst)], axis=1)
    return graph_from_edges(n, edges, cluster_of)


def gen_er(n: int, p: float, seed=None) -> Graph:
    """Erdos-Renyi G(n, p): every unordered pair linked independently with
    probability p. Deterministic for a fixed seed."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0 < p <= 1):
        raise ValueError("p must be in (0, 1]")
    return _pair_graph(n, lambda u, lo: p, np.random.default_rng(seed))


def gen_chung_lu(d, seed=None) -> Graph:
    """Generalized random graph: pair (u, v) linked with probability
    d_u * d_v / sum(d), independently.

    Self-pairs are skipped. Pair probabilities exceeding 1 are capped at 1.
    """
    if not isinstance(d, ExpectedDegreeSequence):
        d = ExpectedDegreeSequence(np.asarray(d, dtype=np.float64))
    n, w, total = d.n, d.d, d.total
    return _pair_graph(
        n,
        lambda u, lo: np.minimum(w[u] * w[lo:] / total, 1.0),
        np.random.default_rng(seed),
    )


def gen_clustered(
    sizes: Sequence[int], p_in: float, p_out: float = 0.0, seed=None
) -> Graph:
    """Planted-partition graph: intra-cluster pairs linked with p_in,
    inter-cluster pairs with p_out. Populates 1-based cluster labels."""
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes) or not sizes:
        raise ValueError("cluster sizes must be positive")
    if not (0 <= p_out < p_in <= 1):
        raise ValueError("need p_in > p_out >= 0 and p_in <= 1")
    n = sum(sizes)
    if n < 2:
        raise ValueError("graph needs at least 2 nodes")
    c = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return _pair_graph(
        n,
        lambda u, lo: np.where(c[lo:] == c[u], p_in, p_out),
        np.random.default_rng(seed),
        cluster_of=c,
    )


# ---------------------------------------------------------------------------
# Structural measurement


def min_node_expansion(g: Graph) -> dict[int, Fraction]:
    """Minimum node expansion per cluster: beta_k is the worst-case fraction
    of a cluster member's neighbors that lie inside its own cluster.

    Returned values are exact rationals.
    """
    if g.cluster_of is None:
        raise ValueError("graph has no cluster labels")
    betas: dict[int, Fraction] = {}
    for v in range(g.n):
        k = int(g.cluster_of[v])
        nbrs = g.neighbors(v)
        internal = int(np.count_nonzero(g.cluster_of[nbrs] == k))
        frac = Fraction(internal, int(g.degrees[v]))
        if k not in betas or frac < betas[k]:
            betas[k] = frac
    return betas


def largest_component(g: Graph) -> Graph:
    """Restrict the graph to its largest connected component, relabeling
    nodes to 0..m-1 in original-id order.

    Sparse heavy-tailed graphs routinely carry tiny disconnected components;
    a component that starts unanimously in one color can never be flipped by
    the dynamics, so absorption-based experiments run on the giant component.
    """
    n_comp, labels = connected_components(g.csr, directed=False)
    if n_comp == 1:
        return g
    keep = labels == np.bincount(labels).argmax()
    # A component is closed and the relabeling keeps node order, so the kept
    # rows, renumbered, are the component's sorted CSR rows.
    new_id = np.cumsum(keep) - 1
    indices = new_id[g.indices[np.repeat(keep, g.degrees)]]
    indptr = np.concatenate(([0], np.cumsum(g.degrees[keep])))
    cluster_of = g.cluster_of[keep] if g.cluster_of is not None else None
    return Graph(int(keep.sum()), indptr, indices, cluster_of=cluster_of)


# ---------------------------------------------------------------------------
# Persistence

def _serialize(g: Graph) -> str:
    lines = [f"n={g.n} k={g.num_clusters}"]
    if g.cluster_of is not None:
        lines.extend(f"c {v} {c}" for v, c in enumerate(g.cluster_of.tolist()))
    lines.extend(f"e {u} {v}" for u, v in g.edge_array().tolist())
    return "\n".join(lines) + "\n"


def save_graph(g: Graph, path) -> None:
    """Write the graph as LF-terminated edge-list text::

        n=<count> k=<clusters>      header (k=0 when unclustered)
        c <node> <cluster>          one per node when k > 0, clusters 1..k
        e <u> <v>                   one per edge, u < v, 0-based ids

    Each edge is written once; its other direction is implicit.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(_serialize(g))


def load_graph(path) -> Graph:
    """Read a graph in `save_graph`'s format. The header needs n >= 2 and
    k >= 0; self-loops, repeated edges, out-of-range ids and isolated nodes
    are rejected. Errors are `GraphFormatError`s that name the line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GraphFormatError("line 1: empty file")
    header = lines[0].split()
    try:
        if len(header) != 2:
            raise ValueError
        n = int(header[0].removeprefix("n="))
        k = int(header[1].removeprefix("k="))
        if header[0][:2] != "n=" or header[1][:2] != "k=" or n < 2 or k < 0:
            raise ValueError
    except ValueError:
        raise GraphFormatError(f"line 1: malformed header {lines[0]!r}") from None
    cluster_of = np.zeros(n, dtype=np.int64) if k > 0 else None
    edges = []
    seen = set()
    for idx, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "c" and len(parts) == 3:
            try:
                v, c = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {idx}: malformed cluster line") from None
            if cluster_of is None or not (0 <= v < n) or not (1 <= c <= k):
                raise GraphFormatError(f"line {idx}: cluster line out of range")
            cluster_of[v] = c
        elif parts[0] == "e" and len(parts) == 3:
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {idx}: malformed edge line") from None
            if u == v:
                raise GraphFormatError(f"line {idx}: self-loop {u}")
            if not (u < v):
                raise GraphFormatError(f"line {idx}: edge must satisfy u < v")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"line {idx}: edge endpoint out of range")
            if (u, v) in seen:
                raise GraphFormatError(f"line {idx}: duplicate edge {u} {v}")
            seen.add((u, v))
            edges.append((u, v))
        else:
            raise GraphFormatError(f"line {idx}: unrecognized line {line!r}")
    if cluster_of is not None and (cluster_of == 0).any():
        missing = int(np.flatnonzero(cluster_of == 0)[0])
        raise GraphFormatError(f"node {missing} has no cluster line")
    try:
        return graph_from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2), cluster_of)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
