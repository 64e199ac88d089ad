import os

import numpy as np
import pytest

from cyberdyn import (
    TypeICombat,
    estimate_sigma_markov,
    gen_chung_lu,
    gen_er,
    largest_component,
    markov,
    powerlaw_degree_sequence,
)

# Worker pool used by the heavy ensemble fixtures and acceptance runs.
WORKERS = min(2, os.cpu_count() or 1)


def each_engine(monkeypatch):
    """Yield "kernel" when this process has the compiled kernel, then
    "numpy"; Markov runs step on the engine named until the next one. Pooled
    runs go to threads on the kernel and step serially on the numpy loop."""
    if markov._resolve_kernel() is not None:
        yield "kernel"
    monkeypatch.setattr(markov, "_KERNEL", None)
    yield "numpy"


@pytest.fixture(scope="session")
def er2000():
    """The dense reference graph: 2000 nodes, link probability 0.02."""
    return gen_er(2000, 0.02, seed=20130805)


@pytest.fixture(scope="session")
def pl2000():
    """The heavy-tailed reference graph: exponent 2.5, degrees in [2, 120].

    Restricted to the giant component: the tiny disconnected components a
    sparse sequence produces would otherwise make unanimous absorption
    impossible.
    """
    seq = powerlaw_degree_sequence(2000, 2.5, 2.0, 120.0)
    return largest_component(gen_chung_lu(seq, seed=20130806))


@pytest.fixture(scope="session")
def er500():
    """Small dense graph for statistical probes."""
    return gen_er(500, 0.05, seed=99)


@pytest.fixture(scope="session")
def er_sigma03_estimate(er2000):
    """Empirical threshold estimate shared by the drift and cross-check
    criteria (threshold 0.3 on the dense reference graph)."""
    levels = np.round(np.arange(0.18, 0.3601, 0.01), 10)
    return estimate_sigma_markov(
        er2000,
        TypeICombat(sigma=0.3),
        levels,
        init_rule="uniform",
        runs=50,
        horizon=30.0,
        master_seed=530,
        workers=WORKERS,
    )
