"""Build, load and check the compiled Markov kernel (``_kernel.c``).

`cyberdyn.markov` imports this module on the first run of a process, never
at package import. The shared library is compiled once with the system
``cc`` into ``$XDG_CACHE_HOME/cyberdyn`` (default ``~/.cache/cyberdyn``),
under a name keyed by the sha256 of the source and the compile command, so
a library built from any other source is never picked up. It is written
through a temporary file and ``os.replace``, so concurrent builds cannot
leave a torn file. A loaded library is used only after it reproduces
``rng.random(n)`` on probe generators.
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
_COMPILE = ("cc", "-O2", "-shared", "-fPIC", "-x", "c")

_P = ctypes.c_void_p
_I = ctypes.c_int64


def load() -> Optional[ctypes.CDLL]:
    """The checked kernel library, or None when it cannot be built, loaded
    or trusted (no ``cc``, an unwritable cache, a failed self-check)."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except (OSError, subprocess.SubprocessError):
        return None
    lib.cyb_probe.argtypes = (_P, _I, _P, _I, _P)
    lib.cyb_run.argtypes = (_I, _P, _P, _P, _P, _I, _P, _P, _I, _P, _P, _P)
    lib.cyb_probe.restype = lib.cyb_run.restype = ctypes.c_int
    return lib if _self_check(lib) else None


def _build() -> Path:
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(_COMPILE).encode()).hexdigest()[:16]
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    target = Path(cache) / "cyberdyn" / f"markov-{key}.so"
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
