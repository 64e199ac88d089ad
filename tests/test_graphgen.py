import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sp_integrate

from cyberdyn.combat import TypeICombat, TypeIICombat
from cyberdyn.graphgen import (
    ExpectedDegreeSequence,
    Graph,
    GraphFormatError,
    GraphGenerationError,
    dmin_for_fixed_variance,
    gen_chung_lu,
    gen_clustered,
    gen_er,
    graph_from_edges,
    largest_component,
    load_graph,
    min_node_expansion,
    powerlaw_degree_sequence,
    save_graph,
    truncated_powerlaw_moments,
)
from cyberdyn import graphgen, markov
from cyberdyn.markov import simulate_run
from cyberdyn.meanfield import integrate
from conftest import each_engine
from reference_graphgen import pair_probability, structurally_equal


def graph_invariants_ok(g):
    assert np.array_equal(g.degrees, np.diff(g.indptr))
    assert (g.degrees >= 1).all()
    for v in range(g.n):
        nbrs = g.neighbors(v)
        assert (np.diff(nbrs) > 0).all()  # sorted, no duplicates
        assert v not in nbrs
    a = g.csr
    assert (a != a.T).nnz == 0  # symmetry


# ---------------------------------------------------------------------------
# ER


def test_er_paper_scale_mean_degree(er2000):
    # mean degree concentrates near n*p = 40; per-instance std ~ 0.2
    mean_deg = er2000.degrees.mean()
    assert abs(mean_deg - 39.98) < 0.6
    graph_invariants_ok(er2000)


def test_er_complete_triangle():
    g = gen_er(3, 1.0, seed=0)
    assert g.num_edges == 3
    assert (g.degrees == 2).all()


def test_er_mean_degree_monte_carlo_oracle():
    # Monte Carlo oracle over instances: the across-instance average of the
    # mean degree lands within 3 standard errors of n*p.
    n, p, instances = 400, 0.05, 100
    means = [gen_er(n, p, seed=1000 + i).degrees.mean() for i in range(instances)]
    pairs = n * (n - 1) / 2
    per_instance_sd = 2 * np.sqrt(pairs * p * (1 - p)) / n
    se = per_instance_sd / np.sqrt(instances)
    # allow for the (n-1) vs n bias of the oracle center, p per pair
    assert abs(np.mean(means) - n * p) < 3 * se + p


def test_er_parameter_errors():
    with pytest.raises(ValueError):
        gen_er(1, 0.5)
    with pytest.raises(ValueError, match="^n must be an integer >= 2, got 10.0$"):
        gen_er(10.0, 0.5)
    with pytest.raises(ValueError):
        gen_er(10, 0.0)
    with pytest.raises(ValueError):
        gen_er(10, 1.5)


def test_er_seed_reproducible():
    a = gen_er(200, 0.05, seed=7)
    b = gen_er(200, 0.05, seed=7)
    c = gen_er(200, 0.05, seed=8)
    assert structurally_equal(a, b)
    assert a.structural_hash() == b.structural_hash()
    assert a.structural_hash() != c.structural_hash()


# ---------------------------------------------------------------------------
# Chung-Lu


def test_chung_lu_uniform_reduces_to_er_probability():
    n, q = 50, 0.2
    seq = ExpectedDegreeSequence(np.full(n, n * q))
    for u, v in [(0, 1), (3, 40), (10, 49)]:
        assert pair_probability(seq, u, v) == pytest.approx(q, abs=1e-15)


def test_chung_lu_two_node_pair_probability():
    seq = ExpectedDegreeSequence(np.array([1.0, 1.0]))
    assert pair_probability(seq, 0, 1) == pytest.approx(0.5)


def test_chung_lu_per_node_degree_monte_carlo_oracle():
    # E[deg(v)] = sum_u p_vu for simple sampling; the isolated-node retry
    # conditions low-expected-degree nodes on being linked, which biases them
    # upward, so the strict oracle is asserted for d_v >= 4 and a one-sided
    # band is used below that.
    n, instances = 600, 200
    seq = powerlaw_degree_sequence(n, 2.5, 2.0, 40.0)
    total = seq.total
    p = np.minimum(np.outer(seq.d, seq.d) / total, 1.0)
    np.fill_diagonal(p, 0.0)
    expected = p.sum(axis=1)
    var = (p * (1 - p)).sum(axis=1)

    acc = np.zeros(n)
    for i in range(instances):
        acc += gen_chung_lu(seq, seed=3000 + i).degrees
    mc_mean = acc / instances
    band = 4.0 * np.sqrt(var) / np.sqrt(instances)

    solid = seq.d >= 4.0
    assert np.all(np.abs(mc_mean[solid] - expected[solid]) < band[solid])
    # retry bias is nonnegative and bounded for the small-degree nodes
    small = ~solid
    assert np.all(mc_mean[small] > expected[small] - band[small])
    assert np.all(mc_mean[small] < expected[small] + band[small] + 0.5)


def test_chung_lu_paper_family_builds():
    seq = powerlaw_degree_sequence(2000, 2.5, 2.0, 120.0)
    g = gen_chung_lu(seq, seed=5)
    graph_invariants_ok(g)
    assert g.n == 2000


def test_chung_lu_strict_validity_error():
    d = np.array([10.0, 10.0, 1.0, 1.0, 1.0])  # top pair probability > 1
    g = gen_chung_lu(d, seed=0)  # capped
    graph_invariants_ok(g)


# Frozen generator outputs. The coin order (row by row, then the
# isolated-node redraws in node order) decides every seeded graph and so
# every golden run checksum; it must not change.
GOLDEN_GRAPHS = {
    "er30 seed 0": (
        lambda: gen_er(30, 0.02, 0),
        "db25b066e96aabc05c1b732e73e620848d68ba41b63376f9691ca4368251e38d",
    ),
    "er30 seed 1": (
        lambda: gen_er(30, 0.02, 1),
        "2426e6b442a6b9896a13e203fa25181ae06cf66d33a99adf3aedc50c22472a11",
    ),
    "er30 seed 2": (
        lambda: gen_er(30, 0.02, 2),
        "905acca2259731b398f2e5ae5b26d40eb40c1bf5dfa81060cb41bb829e081c71",
    ),
    "er30 seed 3": (
        lambda: gen_er(30, 0.02, 3),
        "2d6bd7c0bfad41e96a0067786937f5aafe4d676e67d37baba6da7d5b0f6e78c1",
    ),
    "er2000": (
        lambda: gen_er(2000, 0.02, seed=20130805),
        "46bfa03185cd3b1e3f828372fe704dabbb222f7abff02a81d17ac4bc3928d1dc",
    ),
    "pl2000 before largest_component": (
        lambda: gen_chung_lu(powerlaw_degree_sequence(2000, 2.5, 2.0, 120.0), seed=20130806),
        "f815f3f5ae586cd4cd799dd7bf297cea7a66cfd168358de8c9dbbe36f119ee03",
    ),
    "clustered with p_out": (
        lambda: gen_clustered([20, 30, 5], 0.2, 0.01, seed=1),
        "e19b285128f770aaa685fd1cc911228d081f6840b538b3b8b17189d200c63851",
    ),
    "clustered without p_out": (
        lambda: gen_clustered([40, 40], 0.05, 0.0, seed=2),
        "04702f44f44660cae7a9fb01a5768d3531cf6ad0da7ba372bea9854d33ee6611",
    ),
    # The analytics benchmark's two 10k-node graphs at seed 1.
    "er10k": (
        lambda: gen_er(10_000, 0.002, seed=1001),
        "946ea7634353ad8bd81f14320679e7677038ee7520520711cc542a08590c4e61",
    ),
    "pl10k after largest_component": (
        lambda: largest_component(
            gen_chung_lu(powerlaw_degree_sequence(10_000, 2.5, 2.0, 120.0), seed=1002)),
        "cb538e38a4b89ecd005ab76d571a3b47f9807437cc033cf9b555e062cfc12e67",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_GRAPHS))
def test_golden_generator_hashes(case, monkeypatch):
    build, expected = GOLDEN_GRAPHS[case]
    for _ in each_engine(monkeypatch):
        assert build().structural_hash() == expected


def _on_each_engine(monkeypatch, build, seed):
    """``build(rng)`` on each engine from a fresh PCG64 generator: the
    graph's CSR and labels, or its error, with the generator's end state."""
    out = []
    for _ in each_engine(monkeypatch):
        rng = np.random.Generator(np.random.PCG64(seed))
        try:
            g = build(rng)
            got = (g.n, g.indptr.tobytes(), g.indices.tobytes(),
                   None if g.cluster_of is None else g.cluster_of.tobytes())
        except GraphGenerationError as exc:
            got = str(exc)
        out.append((got, rng.bit_generator.state))
    return out


def test_golden_isolated_node_retry_failure(monkeypatch):
    runs = _on_each_engine(monkeypatch, lambda rng: gen_er(50, 1e-6, seed=rng), seed=0)
    assert {got for got, _ in runs} == {"node 0 remained isolated after 50 retries"}
    assert runs[0] == runs[-1]  # the same generator end state


def _sizes(n):
    return [s for s in (n // 3, n // 3, n - 2 * (n // 3)) if s]


PAIR_RULES = {
    "er": lambda n, rng: gen_er(n, 0.3, seed=rng),
    "chung-lu": lambda n, rng: gen_chung_lu(
        powerlaw_degree_sequence(n, 2.5, 1.0, max(1.0, n / 3)), seed=rng),
    "clustered without p_out": lambda n, rng: gen_clustered(_sizes(n), 0.4, 0.0, seed=rng),
    "clustered with p_out": lambda n, rng: gen_clustered(_sizes(n), 0.4, 0.05, seed=rng),
}


@pytest.mark.parametrize("rule", sorted(PAIR_RULES))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 30, 257])
def test_compiled_pair_coins_match_the_numpy_loop(monkeypatch, rule, n):
    runs = _on_each_engine(monkeypatch, lambda rng: PAIR_RULES[rule](n, rng), seed=n)
    if markov._resolve_kernel() is None:
        pytest.skip("no compiled kernel here to compare with")
    assert runs[0] == runs[1]


def test_compiled_pair_coins_resume_after_growing_their_buffer(monkeypatch):
    # A buffer sized for no edges holds one row: the kernel stops before
    # every row that might not fit, and resumes from it in a doubled buffer.
    want = _on_each_engine(monkeypatch, lambda rng: gen_er(257, 0.3, seed=rng), seed=1)
    monkeypatch.setattr(graphgen._Coins, "mean_edges", lambda self, n: 0.0)
    got = _on_each_engine(monkeypatch, lambda rng: gen_er(257, 0.3, seed=rng), seed=1)
    assert got == want


def test_sparse_chung_lu_redraws_match_the_numpy_loop(monkeypatch):
    seq = powerlaw_degree_sequence(2000, 2.5, 0.5, 60.0)
    runs = _on_each_engine(monkeypatch, lambda rng: gen_chung_lu(seq, seed=rng), seed=3)
    if markov._resolve_kernel() is None:
        pytest.skip("no compiled kernel here to compare with")
    assert runs[0] == runs[1]
    # The coin pass alone leaves hundreds of nodes to redraw.
    rng, degree = np.random.default_rng(3), np.zeros(2000, dtype=np.int64)
    for u in range(2000):
        p = np.minimum(seq.d[u] * seq.d[u + 1:] / seq.total, 1.0)
        hits = np.flatnonzero(rng.random(1999 - u) < p) + u + 1
        degree[u] += hits.size
        degree[hits] += 1
    assert np.count_nonzero(degree == 0) > 500


# ---------------------------------------------------------------------------
# Power-law degree sequences


def test_powerlaw_sequence_paper_family():
    seq = powerlaw_degree_sequence(2000, 2.5, 2.0, 120.0)
    assert seq.n == 2000
    assert seq.d_min >= 2.0 and seq.d_max <= 120.0
    assert (np.diff(seq.d) >= 0).all()


def test_powerlaw_sequence_degenerate_uniform():
    seq = powerlaw_degree_sequence(10, 3.7, 5.0, 5.0)
    assert np.allclose(seq.d, 5.0)


def test_powerlaw_sequence_mean_matches_quadrature():
    gamma, a, b, n = 2.0, 2.0, 40.0, 2000
    seq = powerlaw_degree_sequence(n, gamma, a, b)
    norm, _ = sp_integrate.quad(lambda k: k**-gamma, a, b)
    mean, _ = sp_integrate.quad(lambda k: k * k**-gamma, a, b)
    analytic = mean / norm
    assert abs(seq.d.mean() - analytic) / analytic < 0.01


def test_powerlaw_sequence_errors():
    with pytest.raises(ValueError):
        powerlaw_degree_sequence(10, 2.5, 5.0, 2.0)  # empty range
    with pytest.raises(ValueError):
        powerlaw_degree_sequence(10, -1.0, 2.0, 4.0)


# ---------------------------------------------------------------------------
# Fixed-variance inversion


@pytest.mark.parametrize("gamma", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0])
def test_dmin_variance_postcondition_quadrature_oracle(gamma):
    r, dvar = 20.0, 400.0
    d_min = dmin_for_fixed_variance(dvar, r, gamma)
    a, b = d_min, r * d_min

    norm, _ = sp_integrate.quad(lambda k: k**-gamma, a, b)
    m1, _ = sp_integrate.quad(lambda k: k * k**-gamma, a, b)
    m2, _ = sp_integrate.quad(lambda k: k * k * k**-gamma, a, b)
    var = m2 / norm - (m1 / norm) ** 2
    assert abs(var - dvar) < 0.1


def test_dmin_sequence_variance_tracks_target():
    # The continuous density hits the target exactly (previous test); the
    # 2000-point stratified sample loses a few percent of tail variance at
    # large gamma, so the sampled-sequence check gets a 5% band.
    for gamma in (1.0, 2.0, 3.5, 6.0):
        d_min = dmin_for_fixed_variance(400.0, 20.0, gamma)
        seq = powerlaw_degree_sequence(2000, gamma, d_min, 20.0 * d_min)
        assert abs(seq.d.var() - 400.0) < 20.0


def test_dmin_degenerate_support():
    with pytest.raises(ValueError):
        dmin_for_fixed_variance(400.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        dmin_for_fixed_variance(400.0, 1.0 + 1e-13, 2.0)


def test_moment_singular_branches_match_quadrature():
    for gamma in (1.0, 2.0, 3.0):
        a, b = 2.0, 30.0
        mean, var = truncated_powerlaw_moments(gamma, a, b)
        norm, _ = sp_integrate.quad(lambda k: k**-gamma, a, b)
        m1, _ = sp_integrate.quad(lambda k: k * k**-gamma, a, b)
        m2, _ = sp_integrate.quad(lambda k: k * k * k**-gamma, a, b)
        assert mean == pytest.approx(m1 / norm, rel=1e-9)
        assert var == pytest.approx(m2 / norm - (m1 / norm) ** 2, rel=1e-9)


# ---------------------------------------------------------------------------
# Clustered graphs


def test_clustered_single_cluster_is_er():
    a = gen_clustered([80], 0.1, 0.0, seed=4)
    b = gen_er(80, 0.1, seed=4)
    assert structurally_equal(a, b) or a.num_edges == b.num_edges
    # identical coin stream: the structures must agree exactly
    assert np.array_equal(a.indices, b.indices)


def test_clustered_two_triangles():
    g = gen_clustered([3, 3], 1.0, 0.0, seed=0)
    betas = min_node_expansion(g)
    assert betas[1] == 1 and betas[2] == 1
    assert g.num_edges == 6


def test_clustered_internal_fraction_expectation():
    sizes, p_in, p_out = [400, 400], 0.1, 0.0025
    g = gen_clustered(sizes, p_in, p_out, seed=11)
    # expected per-node internal fraction from the linking probabilities
    m = sizes[0]
    expected = p_in * (m - 1) / (p_in * (m - 1) + p_out * m)
    internal = np.array(
        [
            np.count_nonzero(g.cluster_of[g.neighbors(v)] == g.cluster_of[v])
            / g.degrees[v]
            for v in range(g.n)
        ]
    )
    assert abs(internal.mean() - expected) < 0.01
    betas = min_node_expansion(g)
    assert all(0 <= b <= 1 for b in betas.values())


def test_clustered_parameter_errors():
    with pytest.raises(ValueError):
        gen_clustered([10, 10], 0.01, 0.02)  # p_out >= p_in
    with pytest.raises(ValueError):
        gen_clustered([0, 5], 0.5, 0.0)
    with pytest.raises(ValueError, match=r"^sizes must be positive integers, got \[3.5, 4\]$"):
        gen_clustered([3.5, 4], 0.5)


# ---------------------------------------------------------------------------
# Minimum node expansion


def test_expansion_four_cycle_half():
    # cycle a-b-c-d with clusters {a,b}, {c,d}: every node has 1 internal
    # neighbor out of 2
    g = graph_from_edges(
        4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]]), cluster_of=np.array([1, 1, 2, 2])
    )
    betas = min_node_expansion(g)
    assert betas[1] == Fraction(1, 2) and betas[2] == Fraction(1, 2)


def test_expansion_star_center_zero():
    edges = np.array([[0, 1], [0, 2], [0, 3], [0, 4]])
    g = graph_from_edges(5, edges, cluster_of=np.array([1, 2, 2, 2, 2]))
    betas = min_node_expansion(g)
    assert betas[1] == 0


def test_expansion_requires_labels():
    g = gen_er(10, 0.5, seed=1)
    with pytest.raises(ValueError):
        min_node_expansion(g)


def test_expansion_is_one_iff_no_outgoing():
    g = gen_clustered([5, 5], 0.9, 0.05, seed=21)
    betas = min_node_expansion(g)
    for k, beta in betas.items():
        members = np.flatnonzero(g.cluster_of == k)
        outgoing = any(
            np.any(g.cluster_of[g.neighbors(v)] != k) for v in members
        )
        assert (beta == 1) == (not outgoing)


# ---------------------------------------------------------------------------
# Largest component


def test_largest_component_extracts_giant():
    # two triangles plus a disjoint pair, built as one clustered graph
    edges = np.array([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [4, 5], [3, 5], [6, 7]])
    g = graph_from_edges(8, edges)
    giant = largest_component(g)
    assert giant.n == 6
    assert giant.num_edges == 7
    graph_invariants_ok(giant)


def test_largest_component_identity_when_connected():
    g = gen_er(50, 0.3, seed=2)
    assert largest_component(g) is g


def test_largest_component_keeps_cluster_labels():
    edges = np.array([[0, 1], [1, 2], [0, 2], [3, 4]])
    g = graph_from_edges(5, edges, cluster_of=np.array([1, 1, 2, 2, 2]))
    giant = largest_component(g)
    assert giant.n == 3
    assert np.array_equal(giant.cluster_of, [1, 1, 2])


# ---------------------------------------------------------------------------
# Persistence


def test_save_load_roundtrip(tmp_path):
    for g in (gen_er(60, 0.1, seed=3), gen_clustered([20, 30], 0.3, 0.02, seed=5)):
        path = tmp_path / "g.edges"
        save_graph(g, path)
        g2 = load_graph(path)
        assert structurally_equal(g, g2)
        assert g.structural_hash() == g2.structural_hash()


def test_load_malformed_line_names_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("n=3 k=0\ne 0 1\nbogus line\ne 1 2\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        load_graph(path)


def test_load_asymmetric_edge_rejected(tmp_path):
    path = tmp_path / "asym.edges"
    path.write_text("n=3 k=0\ne 0 1\ne 1 0\ne 1 2\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        load_graph(path)


def test_load_rejects_self_loop_and_duplicate(tmp_path):
    p1 = tmp_path / "self.edges"
    p1.write_text("n=3 k=0\ne 0 0\ne 1 2\n")
    with pytest.raises(GraphFormatError, match="self-loop"):
        load_graph(p1)
    p2 = tmp_path / "dup.edges"
    p2.write_text("n=3 k=0\ne 0 1\ne 0 1\ne 1 2\n")
    with pytest.raises(GraphFormatError, match="duplicate"):
        load_graph(p2)


def test_load_rejects_isolated_node(tmp_path):
    path = tmp_path / "iso.edges"
    path.write_text("n=3 k=0\ne 0 1\n")
    with pytest.raises(GraphFormatError, match="isolated"):
        load_graph(path)


LOAD_ERRORS = {
    "empty file": ("", "line 1: empty file"),
    "malformed header": ("n=3\ne 0 1\n", "line 1: malformed header 'n=3'"),
    "negative node count": ("n=-3 k=1\n", "line 1: malformed header 'n=-3 k=1'"),
    "negative cluster count": ("n=3 k=-1\ne 0 1\ne 1 2\n", "line 1: malformed header 'n=3 k=-1'"),
    "malformed cluster line": ("n=3 k=1\nc 0 x\n", "line 2: malformed cluster line"),
    "cluster line out of range": ("n=3 k=1\nc 0 2\n", "line 2: cluster line out of range"),
    "malformed edge line": ("n=3 k=0\ne 0 x\n", "line 2: malformed edge line"),
    "edge endpoint out of range": ("n=3 k=0\ne 0 3\n", "line 2: edge endpoint out of range"),
    "node without cluster line": (
        "n=3 k=1\nc 0 1\nc 1 1\ne 0 1\ne 1 2\n",
        "node 2 has no cluster line",
    ),
}


@pytest.mark.parametrize("case", sorted(LOAD_ERRORS))
def test_load_error_messages(tmp_path, case):
    text, message = LOAD_ERRORS[case]
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(GraphFormatError) as info:
        load_graph(path)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# The CSR contract: checked once, when the Graph is built


def _swap(a, i, j):
    a = a.copy()
    a[i], a[j] = a[j], a[i]
    return a


def _isolate_node_0(g):
    ptr = g.indptr.copy()
    ptr[1] = 0
    return ptr


# case: (build from the valid gen_er(50, 0.2, seed=1), error, message)
BAD_CSR = {
    "id_77_out_of_range": (
        lambda g: Graph(50, g.indptr, np.where(g.indices == 3, 77, g.indices)),
        ValueError, r"^indices: neighbor ids must lie in \[0, 50\)$"),
    "negative_id": (lambda g: Graph(50, g.indptr, np.where(g.indices == 3, -1, g.indices)),
                    ValueError, "^indices: "),
    "truncated_indices": (lambda g: Graph(50, g.indptr, g.indices[:-5]), ValueError, "^indptr: "),
    "extra_indices": (lambda g: Graph(50, g.indptr, np.append(g.indices, 1)),
                      ValueError, "^indptr: "),
    "n_below_2": (lambda g: Graph(1, np.array([0, 1]), np.array([0])),
                  ValueError, "^n: graph needs at least 2 nodes, got 1$"),
    "n_not_an_integer": (lambda g: Graph(50.0, g.indptr, g.indices), ValueError, "^n: "),
    "indptr_one_short": (lambda g: Graph(50, g.indptr[:-1], g.indices), ValueError, "^indptr: "),
    "indptr_not_from_0": (lambda g: Graph(50, np.append(1, g.indptr[1:]), g.indices),
                          ValueError, "^indptr: "),
    "indptr_falls": (lambda g: Graph(50, _swap(g.indptr, 10, 11), g.indices),
                     ValueError, "^indptr: "),
    "empty_row": (lambda g: Graph(50, _isolate_node_0(g), g.indices),
                  ValueError, r"^isolated node\(s\): \[0\]$"),
    "float_indptr": (lambda g: Graph(50, g.indptr.astype(float), g.indices),
                     ValueError, "^indptr must be a 1-D integer array"),
    "bool_indices": (lambda g: Graph(50, g.indptr, g.indices > 3),
                     ValueError, "^indices must be a 1-D integer array"),
    "2d_indices": (lambda g: Graph(50, g.indptr, g.indices.reshape(-1, 1)),
                   ValueError, "^indices must be a 1-D integer array"),
    "cluster_of_one_short": (lambda g: Graph(50, g.indptr, g.indices, cluster_of=np.ones(49, int)),
                             ValueError, "^cluster_of must hold one 1-based cluster id per node$"),
    "cluster_id_0": (lambda g: Graph(50, g.indptr, g.indices, cluster_of=np.arange(50)),
                     ValueError, "^cluster_of must hold one 1-based cluster id per node$"),
    "float_cluster_of": (lambda g: Graph(50, g.indptr, g.indices, cluster_of=np.ones(50)),
                         ValueError, "^cluster_of must be a 1-D integer array"),
    # A degrees field that disagrees with the rows would give flip
    # probabilities outside [0, 1] or a wrong neighbor mean; a degree is its
    # row's length, so Graph takes no degrees.
    "mismatched_degrees": (lambda g: Graph(50, g.indptr, g.indices, degrees=np.ones(50)),
                           TypeError, "degrees"),
    "degrees_of_length_1": (lambda g: Graph(50, g.indptr, g.indices, degrees=np.ones(1)),
                            TypeError, "degrees"),
    "positional_degrees": (lambda g: Graph(50, g.indptr, g.indices, np.ones(50, int)),
                           TypeError, "positional"),
}


@pytest.mark.parametrize("case", sorted(BAD_CSR))
def test_malformed_csr_is_rejected_at_construction(case):
    build, error, message = BAD_CSR[case]
    with pytest.raises(error, match=message):
        build(gen_er(50, 0.2, seed=1))


@pytest.mark.parametrize("edges, message", [
    ([[0, 1], [1, 2], [0, 1]], "^duplicate edge"),
    ([[0, 1], [1, 2], [1, 0]], "^duplicate edge"),
    ([[0, 1], [1, 1], [1, 2]], r"^self-loop at node 1$"),
    ([[0, 1], [1, 3]], "^edge endpoint out of range$"),
    ([[0, 1], [-1, 2]], "^edge endpoint out of range$"),
    ([[0, 1]], r"^isolated node\(s\): \[2\]$"),
])
def test_graph_from_edges_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        graph_from_edges(3, np.array(edges))


def test_graph_arrays_are_read_only_copies():
    g = gen_clustered([20, 30], 0.3, 0.02, seed=5)
    for name in ("indptr", "indices", "cluster_of", "degrees", "inv_degrees"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 1
    indptr, indices = g.indptr.copy(), g.indices.copy()
    h = Graph(g.n, indptr, indices)
    indices[0] = 10**6  # the caller's array, not the graph's
    assert h.indices[0] == g.indices[0]
    assert np.array_equal(h.degrees, np.diff(h.indptr))


def test_int32_csr_builds_the_int64_graph(monkeypatch):
    g = gen_er(50, 0.2, seed=1)
    narrow = Graph(np.int32(50), g.indptr.astype(np.int32), g.indices.astype(np.int32))
    assert type(narrow.n) is int and narrow.n == 50
    for name in ("indptr", "indices", "degrees"):
        a, b = getattr(g, name), getattr(narrow, name)
        assert b.dtype == np.int64 and a.tobytes() == b.tobytes()
    assert narrow.structural_hash() == g.structural_hash()
    B0 = np.random.default_rng(2).random(50)
    for _ in each_engine(monkeypatch):
        for f in (TypeICombat(sigma=0.5), TypeIICombat()):
            a, b = (integrate(h, f, B0, horizon=2.0) for h in (g, narrow))
            assert a.states.tobytes() == b.states.tobytes()
            assert a.mean_blue.tobytes() == b.mean_blue.tobytes()
            a, b = (simulate_run(h, f, np.arange(50) < 20, 5.0, seed=1, keep_snapshots=True)
                    for h in (g, narrow))
            assert a.mean_xi.tobytes() == b.mean_xi.tobytes()
            assert a.snapshots.tobytes() == b.snapshots.tobytes()
            assert (a.exit_reason, a.steps_executed) == (b.exit_reason, b.steps_executed)


# ---------------------------------------------------------------------------
# Property tests


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=40),
    p=st.floats(min_value=0.25, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_er_structure_properties(n, p, seed):
    g = gen_er(n, p, seed=seed)
    graph_invariants_ok(g)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_chung_lu_structure_properties(seed):
    seq = powerlaw_degree_sequence(40, 2.0, 3.0, 12.0)
    g = gen_chung_lu(seq, seed=seed)
    graph_invariants_ok(g)
