"""Build, load and check the compiled kernels (``_kernel.c``): the Markov
chain's skip-ahead stepper and the mean-field Euler stepper.

`cyberdyn.markov` imports this module on the first Markov run or mean-field
integration of a process, never at package import, and one loaded library
serves both engines. The shared library is compiled once with the system
``cc`` into ``$XDG_CACHE_HOME/cyberdyn`` (default ``~/.cache/cyberdyn``),
under a name keyed by the sha256 of the source and the compile command, so
a library built from any other source is never picked up. It is written
through a temporary file and ``os.replace``, so concurrent builds cannot
leave a torn file. A loaded library is used only once each stepper has
reproduced its numpy loop byte for byte on small graphs, generator state
included, and its pairwise sum ``np.add.reduce`` on probe lengths.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from pathlib import Path
from typing import Optional

import numpy as np

_SOURCE = Path(__file__).with_name("_kernel.c")
# -ffp-contract=off: no fused multiply-add, so every rounding is numpy's.
_COMPILE = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-x", "c")

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double


class MFRun(ctypes.Structure):
    """``mf_run`` of ``_kernel.c``, field for field: one integration's
    inputs, then its loop state."""

    _fields_ = [
        ("n", _I), ("steps", _I), ("indptr", _P), ("indices", _P), ("inv_deg", _P),
        ("B", _P), ("theta", _P), ("y", _P), ("dt", _D), ("slack", _D),
        ("hard", _I), ("cut_lo", _D), ("cut_hi", _D),
        ("mean_blue", _P), ("min_B", _P), ("max_B", _P),
        ("snap_idx", _P), ("n_snaps", _I), ("states", _P),
        ("step", _I), ("next_eval", _I), ("next_snap", _I), ("rate_evals", _I),
        ("resume", _I), ("margin", _D), ("lo", _D), ("hi", _D), ("node", _I),
    ]


MF_DONE, MF_RATES, MF_ESCAPED = range(3)


def load() -> Optional[ctypes.CDLL]:
    """The checked kernel library, or None when it cannot be built, loaded
    or trusted (no ``cc``, an unwritable cache, a failed self-check)."""
    try:
        lib = open_library(_build())
    except (OSError, subprocess.SubprocessError):
        return None
    return lib if _self_check(lib) else None


def open_library(path) -> ctypes.CDLL:
    """The library at ``path``, with its functions' signatures declared and
    nothing checked."""
    lib = ctypes.CDLL(str(path))
    lib.cyb_run.argtypes = (_I, _P, _P, _P, _P, _I, _P, _P, _I, _P, _P, _P)
    lib.cyb_sum.argtypes = (_P, _I)
    lib.cyb_mf.argtypes = (ctypes.POINTER(MFRun),)
    lib.cyb_run.restype = lib.cyb_mf.restype = ctypes.c_int
    lib.cyb_sum.restype = _D
    return lib


def _build() -> Path:
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(_COMPILE).encode()).hexdigest()[:16]
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    target = Path(cache) / "cyberdyn" / f"kernel-{key}.so"
    if target.is_file():
        return target
    cc = shutil.which(_COMPILE[0])
    if cc is None:
        raise OSError("no C compiler on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        # The compiler reads the hashed bytes themselves from stdin.
        subprocess.run([cc, *_COMPILE[1:], "-o", str(tmp), "-"], input=source,
                       capture_output=True, check=True, timeout=300)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target


def _self_check(lib) -> bool:
    """The library gives numpy's bytes for both engines."""
    return _chain_matches(lib) and _sums_match(lib) and _euler_matches(lib)


def _chain_matches(lib) -> bool:
    """Runs stepped by the kernel and by the numpy loop from the same rate
    tables and seeds give the same telemetry, series, snapshots and end
    state of the generator: on 150 nodes (three bitmap words) with few nodes
    active (type 1) and all active (type 2), and on 13 nodes that flip once
    and freeze."""
    from . import markov
    from ._stepgrid import step_grid
    from .combat import TypeICombat, TypeIICombat
    from .graphgen import graph_from_edges

    v = np.arange(150)
    ring = graph_from_edges(150, [(u, (u + d) % 150) for d in (1, 5, 12) for u in v])
    # Two K6s, 0-5 blue and 6-11 red, joined by 5-6; red node 12 sees only
    # 0, 1 and 2, so it turns blue at once and then no node can flip.
    k6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    freeze = graph_from_edges(13, k6 + [(a + 6, b + 6) for a, b in k6]
                              + [(5, 6), (0, 12), (1, 12), (2, 12)])
    type1 = TypeICombat(sigma=0.5)
    for g, f, dt, xi in ((ring, type1, 0.5, v < 75), (ring, TypeIICombat(), 0.5, v % 2 == 0),
                         (freeze, type1, 1.0, np.arange(13) < 6)):
        steps, _, snap_idx = step_grid(10.0, dt, 3)
        prob = markov._rate_tables(g, f, dt)
        runs = []
        for step in (markov._numpy_steps, lambda *args: markov._kernel_steps(lib, *args)):
            rng = np.random.Generator(np.random.PCG64(20130805))
            mean_xi = np.empty(steps + 1)
            snaps = np.empty((len(snap_idx), g.n), dtype=bool)
            stats = step(g.indptr, g.indices, prob, rng, xi.copy(), steps, mean_xi, snaps,
                         snap_idx)
            runs.append((stats, mean_xi.tobytes(), snaps.tobytes(), rng.bit_generator.state))
        if runs[0] != runs[1]:
            return False
    return True


def _sums_match(lib) -> bool:
    """The stepper's pairwise sum is ``np.add.reduce`` on every length up to
    300 (the short sum, the eight-accumulator block and the first halvings)
    and on lengths around and past 8192."""
    x = np.random.default_rng(0).random(20_000)
    return all(lib.cyb_sum(x.ctypes.data, k) == np.add.reduce(x[:k])
               for k in (*range(301), 8191, 8192, 8193, 20_000))


def _euler_matches(lib) -> bool:
    """A short integration on a small graph gives the numpy loop's bytes,
    with the kernel's own hard-threshold rates and with rates from Python."""
    from . import meanfield
    from ._stepgrid import step_grid
    from .combat import TypeICombat, TypeIICombat
    from .graphgen import gen_er

    g = gen_er(42, 0.15, seed=1)  # 42 rows: ten blocks of four and two more
    B0 = np.random.default_rng(1).random(g.n)
    _, times, snap_idx = step_grid(15.0, 0.5, 7)  # a long step carries every rounding on
    for f in (TypeICombat(sigma=0.5, boundary_tolerance=0.05), TypeIICombat()):
        want, got = (meanfield._integrate(engine, g, f, B0.copy(), times, snap_idx, 0.5)
                     for engine in (None, lib))
        if got.rate_evals != want.rate_evals or any(
                getattr(got, name).tobytes() != getattr(want, name).tobytes()
                for name in ("mean_blue", "min_B", "max_B", "states")):
            return False
    return True
