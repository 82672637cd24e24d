"""Optional native build of the Set_Builder inner loops.

``_stacked.c`` has two entry points.  ``stacked_rounds`` is the stacked
kernel's hot loop: memory-bound element streaming, exactly the shape a C
compiler turns into a single fused pass, where numpy is forced into one
full-array sweep per operator.  ``probe_level`` runs the healthy-root
search's small scalar probes, where the interpreter's per-element overhead
dominates.  When a system C compiler is available,
``_stacked.c`` is built once into a tiny shared library (cached under the
user's cache directory, keyed by source hash) and loaded through the stdlib
``ctypes`` — no third-party dependency, no install step, nothing added to the
environment.  When it is not — or when ``REPRO_NO_NATIVE`` is set — callers
fall back to the pure-numpy round and the scalar probe path in
``set_builder.py``, which the test suites pin bit-identical to the native
passes.

The compile is atomic (build to a temp name, ``os.replace`` into the cache)
so racing processes never load a half-written file, and the build itself
runs under an ``fcntl`` file lock so racing processes — a worker pool
warming up, parallel test runs — settle on *one* compile: the first holder
builds, the rest block on the lock and find the finished library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: fall back to lock-free
    fcntl = None

import numpy as np

__all__ = [
    "address",
    "load_probe_kernel",
    "load_stacked_kernel",
    "native_kernel_active",
]

_SOURCE = Path(__file__).with_name("_stacked.c")
_COMPILERS = ("cc", "gcc", "clang")

#: tri-state memo: "unset" -> not probed yet, None -> unavailable, else the
#: configured library.  ``REPRO_NO_NATIVE`` (any non-empty value)
#: forces the numpy path; tests flip ``_forced_off`` to exercise both.
_kernel: object = "unset"
_forced_off = bool(os.environ.get("REPRO_NO_NATIVE"))


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    directory = base / "repro-native"
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    return directory


def _compile(source: Path, target: Path) -> bool:
    """Build ``source`` into ``target`` with the first working compiler."""
    for compiler in _COMPILERS:
        fd, temp = tempfile.mkstemp(
            dir=str(target.parent), suffix=".so", prefix="build-"
        )
        os.close(fd)
        try:
            result = subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC", "-o", temp, str(source)],
                capture_output=True,
                timeout=120,
            )
            if result.returncode == 0:
                os.replace(temp, target)
                return True
        except (OSError, subprocess.SubprocessError):
            pass
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
    return False


@contextmanager
def _build_lock(target: Path):
    """Serialise first-use compiles of ``target`` across processes.

    Without this, every concurrently-starting process that found the cache
    cold would run its own 100ms+ compiler invocation — correct (the atomic
    replace keeps the file whole) but wasteful, and on slow filesystems a
    herd of builds has been seen timing each other out.  The lock lives next
    to the library; the content-hash key means a stale lock file is inert.
    """
    if fcntl is None:
        yield
        return
    lock_path = target.with_suffix(".lock")
    with open(lock_path, "w") as lock_file:
        fcntl.flock(lock_file, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock_file, fcntl.LOCK_UN)


def _configure(library: ctypes.CDLL) -> ctypes.CDLL:
    """Declare both entry points with raw-pointer array arguments.

    Arrays travel as ``c_void_p`` addresses the callers check once (dtype,
    contiguity, length) before a call: ``ndpointer`` re-validates every
    array on every call, which costs several times a probe's own run time.
    """
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    stacked = library.stacked_rounds
    stacked.restype = i64
    stacked.argtypes = [
        p, p, p,    # indptr, indices, pair_indptr
        p,          # buffers: num_syndromes buffer addresses
        i64, i64,   # n, num_syndromes
        p, i64,     # frontier0, frontier0_len
        p, p,       # member, parent
        p, p,       # lookups, rounds
        p, p,       # contributed, contrib_count
    ]
    probe = library.probe_level
    probe.restype = i64
    probe.argtypes = [
        p, p, p,    # indptr, indices, pair_indptr
        p,          # buf
        i64, i64,   # n, delta
        p, i64,     # starts, num_probes
        p,          # class_of (NULL: unrestricted)
        i64,        # max_nodes (< 0: none)
        p, p, p,    # mark, parent, tree
        p,          # records
    ]
    return library


def _load_library():
    """The configured native library, or ``None``.

    Any failure along the way — no source, no compiler, a build error, a
    load error — degrades silently to ``None``: the numpy and scalar paths
    are always there and always correct, the native passes are only ever a
    speedup.
    """
    global _kernel
    if _forced_off:
        return None
    if _kernel != "unset":
        return _kernel
    _kernel = None
    try:
        source_text = _SOURCE.read_text()
        tag = hashlib.sha256(source_text.encode()).hexdigest()[:16]
        target = _cache_dir() / f"stacked-{tag}.so"
        if not target.exists():
            # Build-or-wait: whoever wins the lock compiles; everyone else
            # blocks, then re-checks and finds the library already there.
            with _build_lock(target):
                if not target.exists() and not _compile(_SOURCE, target):
                    return None
        _kernel = _configure(ctypes.CDLL(str(target)))
    except Exception:
        _kernel = None
    return _kernel


def load_stacked_kernel():
    """The compiled ``stacked_rounds`` entry point, or ``None``."""
    library = _load_library()
    return None if library is None else library.stacked_rounds


def load_probe_kernel():
    """The compiled ``probe_level`` entry point, or ``None``."""
    library = _load_library()
    return None if library is None else library.probe_level


def address(array: np.ndarray, dtype, length: int) -> int:
    """Address of a C-contiguous ``dtype`` array of at least ``length`` items.

    The one check every raw-pointer argument passes before a native call;
    a mismatch is a caller bug, so it raises rather than degrading.
    """
    if array.dtype != dtype or not array.flags.c_contiguous or array.size < length:
        raise ValueError(
            f"native call needs a contiguous {np.dtype(dtype)} array of "
            f">= {length} items, got {array.dtype} x {array.size}"
        )
    return array.ctypes.data


def native_kernel_active() -> bool:
    """Whether stacked batches and root-search probes run natively."""
    return _load_library() is not None
