"""Test-only helpers for graphs: exact structural equality, and the uncapped
Chung-Lu link probability that `cyberdyn.graphgen.gen_chung_lu` caps at 1."""

import numpy as np


def structurally_equal(a, b) -> bool:
    """Same node count, CSR arrays and cluster labels (or neither clustered)."""
    return (
        a.n == b.n
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and (
            (a.cluster_of is None and b.cluster_of is None)
            or (
                a.cluster_of is not None
                and b.cluster_of is not None
                and np.array_equal(a.cluster_of, b.cluster_of)
            )
        )
    )


def pair_probability(seq, u: int, v: int) -> float:
    """Uncapped linking probability d_u * d_v / sum(d) of an ExpectedDegreeSequence."""
    return float(seq.d[u] * seq.d[v] / seq.total)
