"""Build, load and check the compiled kernels (``_kernel.c``): the Markov
chain's skip-ahead stepper and the mean-field Euler stepper.

`cyberdyn.markov` imports this module on the first Markov run or mean-field
integration of a process, never at package import, and one loaded library
serves both engines. The shared library is compiled once with the system
``cc`` into ``$XDG_CACHE_HOME/cyberdyn`` (default ``~/.cache/cyberdyn``),
under a name keyed by the sha256 of the source and the compile command, so
a library built from any other source is never picked up. It is written
through a temporary file and ``os.replace``, so concurrent builds cannot
leave a torn file. A loaded library is used only after it reproduces
``rng.random(n)`` on probe generators, ``np.add.reduce`` on probe lengths
and the numpy Euler loop on a small graph.
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
    lib.cyb_probe.argtypes = (_P, _I, _P, _I, _P)
    lib.cyb_run.argtypes = (_I, _P, _P, _P, _P, _I, _P, _P, _I, _P, _P, _P)
    lib.cyb_sum.argtypes = (_P, _I)
    lib.cyb_mf.argtypes = (ctypes.POINTER(MFRun),)
    lib.cyb_probe.restype = lib.cyb_run.restype = lib.cyb_mf.restype = ctypes.c_int
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
    return _draws_match(lib) and _sums_match(lib) and _euler_matches(lib)


def _draws_match(lib) -> bool:
    """Skipped draws equal ``random(n)``'s values at the drawn positions and
    leave the generator where ``random(n)`` leaves it, block after block."""
    n = 1000
    blocks = (np.array([0, 1, 2, 3, 10, 63, 64, 65, 500, 998, 999]),
              np.array([], dtype=np.int64), np.array([7]), np.arange(n))
    for seed in (0, 20130805):
        probe = np.random.Generator(np.random.PCG64(seed))
        twin = np.random.Generator(np.random.PCG64(seed))
        for pos in blocks:
            pos = np.ascontiguousarray(pos, dtype=np.int64)
            out = np.empty(len(pos))
            with probe.bit_generator.lock:
                code = lib.cyb_probe(probe.bit_generator.ctypes.state_address, n,
                                     pos.ctypes.data, len(pos), out.ctypes.data)
            if code != 0 or out.tobytes() != twin.random(n)[pos].tobytes():
                return False
        if probe.bit_generator.state != twin.bit_generator.state:
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
