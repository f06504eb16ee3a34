"""Build and load the C sweep kernels (cc → shared object → ctypes).

The library is compiled on demand from :mod:`native.c` into a per-user
cache directory keyed by the source hash, so one build serves every
process (the deployment, its entity hosts) and rebuilds happen only
when the source changes.  Everything here is best-effort: any failure
(no compiler, sandboxed tmpdir, load error) returns ``None`` and the
callers fall back to the numpy reference kernels.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).with_name("native.c")

#: Compiler override (tests point this at a nonexistent binary to force
#: the fallback path); unset → first of ``cc``/``gcc``/``clang`` found.
CC_ENV = "REPRO_KERNELS_CC"

_FUNCTIONS = {
    # name -> argtypes (all pointers travel as raw addresses)
    "repro_prg_fill": [ctypes.c_char_p, ctypes.c_uint64, ctypes.c_uint64,
                       ctypes.c_void_p],
    "repro_sum_mod_span": [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                           ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p],
    "repro_psi_span": [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                       ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                       ctypes.c_void_p, ctypes.c_void_p],
    "repro_psi_cells_span": [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                             ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                             ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p],
    "repro_psu_span": [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                       ctypes.c_char_p, ctypes.c_uint64, ctypes.c_int64,
                       ctypes.c_void_p],
    "repro_agg_span": [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                       ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                       ctypes.c_void_p],
}


def _compiler() -> str | None:
    override = os.environ.get(CC_ENV)
    if override:
        return override if shutil.which(override) else None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    uid = os.getuid() if hasattr(os, "getuid") else "all"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def library_path() -> Path:
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    return cache_dir() / f"native-{digest}.so"


def build_library() -> Path | None:
    """Compile ``native.c`` into the cache (idempotent); ``None`` on failure."""
    target = library_path()
    if target.exists():
        return target
    cc = _compiler()
    if cc is None:
        return None
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        scratch = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        subprocess.run(
            [cc, "-O3", "-fPIC", "-shared", "-o", str(scratch), str(_SOURCE)],
            check=True, capture_output=True, timeout=120)
        os.replace(scratch, target)  # atomic vs concurrent builders
    except (OSError, subprocess.SubprocessError):
        return None
    return target


def load() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` when unavailable.

    Gated on little-endian hosts: the C draw extraction and the
    zero-copy int64 wire views both assume LE layout.
    """
    if sys.byteorder != "little":
        return None
    target = build_library()
    if target is None:
        return None
    try:
        lib = ctypes.CDLL(str(target))
        for name, argtypes in _FUNCTIONS.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = None
    except (OSError, AttributeError):
        return None
    return lib
