"""The benchmark's span tracer (perfbench/spans.py) wraps package functions
by module attribute name and reads RunRecord fields. A rename in the package
would break traced benchmark runs; this runs the tracer over a small
ensemble, a sigma grid and one mean-field run to catch that here."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import cyberdyn
from cyberdyn import TypeICombat, gen_er

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache file in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_wraps_the_package_and_restores_it():
    spans = _load_spans()
    holders = spans.MODULES + (cyberdyn,)
    names = [n for table in (spans.SPANS, spans.LEAVES) for ns in table.values() for n in ns]
    originals = {(h, n): getattr(h, n) for h in holders for n in names if hasattr(h, n)}
    originals.update({(cls, "eval_rb"): cls.eval_rb for cls in spans.RATE_CLASSES})

    g = gen_er(60, 0.2, seed=1)
    f = TypeICombat(sigma=0.5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        ens = spans.markov.simulate_ensemble(g, f, np.full(g.n, 0.9), 10.0, runs=6, master_seed=3)
        ensemble_steps = tracer.counts["markov.steps_executed"]
        spans.thresholds.estimate_sigma_markov(g, f, [0.1, 0.9], runs=3, horizon=10.0)
        spans.meanfield.integrate(g, f, np.full(g.n, 0.6), 1.0)
    finally:
        tracer.uninstall()

    for (holder, name), orig in originals.items():
        assert getattr(holder, name) is orig, f"{holder.__name__}.{name} not restored"

    calls = {name: rec[0] for name, rec in tracer.summary()[0].items()}
    assert calls["markov.simulate_run"] == 12
    assert calls["markov.simulate_ensemble"] == 1
    assert calls["thresholds.estimate_sigma_markov"] == 1
    assert calls["meanfield.integrate"] == 1
    # Every ensemble run absorbs, and the tracer finds each absorption on the
    # record's time grid at the step the engine stopped.
    assert set(ens.exit_reasons) == {"absorbed_blue"}
    assert ensemble_steps == ens.steps_executed
