import json
import os
import subprocess
import sys
from pathlib import Path

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
    "numpy"; Markov runs and mean-field integrations step on the engine
    named until the next one, since one library memo (``markov._KERNEL``)
    serves both. Pooled runs go to threads on the kernel and step serially
    on the numpy loop. A loop run to its end leaves the memo as it found it."""
    lib = markov._resolve_kernel()
    if lib is not None:
        yield "kernel"
    monkeypatch.setattr(markov, "_KERNEL", None)
    yield "numpy"
    monkeypatch.setattr(markov, "_KERNEL", lib)


def run_python(code, path, cache):
    """Run ``code`` in a fresh interpreter with ``PATH`` and
    ``XDG_CACHE_HOME`` set as given; return its last line of output as JSON."""
    src = str(Path(markov.__file__).parents[1])
    env = {**os.environ, "PATH": str(path), "XDG_CACHE_HOME": str(cache),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


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
