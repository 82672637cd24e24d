"""Optional native build of the seeded diagnosis stages.

``_stacked.c`` has one entry point per stage, so a batch crosses into C
once per stage.  ``seeded_build`` is the slot pass: from the sorted fault
ids (and, for the ``random`` behaviour, the generator words Python drew) it
writes a seeded syndrome's fault mask, side table and ascending nonzero
offsets and values, walking the faulty testers and their neighbours in
tester order, so nothing is sorted.  ``probe_plan`` runs a diagnoser's
whole healthy-root search (every partition level, then the budgeted and
unbudgeted fallback): small scalar probes, where the interpreter's
per-element overhead dominates.  ``stacked_rounds`` is the final
``Set_Builder`` run of a whole stack, syndrome after syndrome, from each
root's pair scan to the fixpoint, over one node-sized scratch.  Each of
the two allocates its scratch on entry and frees it on return.  Both run
one C transcription of the procedure, which takes the class filter, the
node budget and the certificate stop as arguments.  It sorts nothing: a
round's admissions are committed through an admitted bitset, whose set
bits, walked in order, are already the next frontier.

The last two take each syndrome as a :class:`SyndromeView`, the C
``syndrome_t`` descriptor, in one of two read modes: a flat result buffer
(explicit syndromes, shared-memory views), or a fault mask plus a side
table of the faulty testers' rows (seeded builds, see
:meth:`~repro.backend.array_syndrome.ArraySyndrome.from_faults`).  A
healthy tester's result is then ``mask[v] | mask[w]``, so a seeded
syndrome is diagnosed without its buffer ever being written.  An entry
answers an input it cannot bound with a negative code; :func:`check`
raises the matching error.

The source is C99 + libc plus the ``__builtin_ctzll`` intrinsic, which
every compiler tried here (``cc``, ``gcc``, ``clang``) provides.  When a
system C compiler is available, ``_stacked.c`` is built once into a tiny
shared library (cached under the user's cache directory, keyed by source
hash) and loaded through the stdlib ``ctypes`` — no third-party dependency,
no install step, nothing added to the environment.  When it is not — or
when ``REPRO_NO_NATIVE`` is set — every stage runs its Python reference
instead, which the test suites pin bit-identical to the native pass: the
slot pass transcribed in ``array_syndrome.py``, and the rows oracle in
``set_builder.py`` for the probes and the final run, which reads the
syndrome's buffer (built on first use).

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
    "MISSING_SIDE_ROW",
    "SyndromeView",
    "address",
    "check",
    "load_kernel",
    "native_kernel_active",
    "topology_args",
]

_SOURCE = Path(__file__).with_name("_stacked.c")
#: The entries' negative return codes; ``_stacked.c`` says when each is
#: returned.  MORE_WORDS asks ``seeded_build``'s caller for more coin words.
NO_MEMORY, PARENT_NOT_IN_ROW, BAD_NODE, MISSING_SIDE_ROW = -1, -2, -3, -4
BAD_PLAN, SHORT_BUFFER, BAD_BEHAVIOR, MORE_WORDS = -5, -6, -7, -8
_NAMES = {code: name for name, code in list(globals().items())
          if name.isupper() and isinstance(code, int) and code < 0}
_COMPILERS = ("cc", "gcc", "clang")

#: tri-state memo: "unset" -> not probed yet, None -> unavailable, else the
#: configured library.  ``REPRO_NO_NATIVE`` (any non-empty value)
#: forces the rows oracle; tests flip ``_forced_off`` to exercise both.
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


class SyndromeView(ctypes.Structure):
    """One syndrome as the kernels read it: ``syndrome_t`` in ``_stacked.c``.

    Buffer mode sets ``buf`` to the flat result buffer.  Mask mode leaves
    it NULL and sets ``mask`` (n bytes, nonzero = faulty), the ascending
    ``fault_ids`` whose rows the side table holds, each row's offset in
    ``side_base``, and the ``side_len``-byte table ``side``.
    """

    _fields_ = [
        ("buf", ctypes.c_void_p),
        ("mask", ctypes.c_void_p),
        ("fault_ids", ctypes.c_void_p),
        ("side_base", ctypes.c_void_p),
        ("side", ctypes.c_void_p),
        ("num_faults", ctypes.c_int64),
        ("side_len", ctypes.c_int64),
    ]


def _configure(library: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the three entry points with raw-pointer array arguments.

    Arrays travel as ``c_void_p`` addresses the callers check once (dtype,
    contiguity, length) before a call: ``ndpointer`` re-validates every
    array on every call, which costs several times a probe's own run time.
    """
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    build = library.seeded_build
    build.restype = i64
    build.argtypes = [
        p, p, p,    # indptr, indices, pair_indptr
        i64,        # n
        p, i64,     # fault_ids, num_faults
        i64,        # behavior (index in FaultyTesterBehavior.NAMES)
        p, i64,     # coins (getrandbits words), num_coins
        p, p,       # mask, side_base
        p, i64,     # side, side_len
        p, p, i64,  # offsets, values, capacity
    ]
    stacked = library.stacked_rounds
    stacked.restype = i64
    stacked.argtypes = [
        p, p, p,    # indptr, indices, pair_indptr
        p,          # syndromes: num_syndromes SyndromeViews
        i64, i64,   # n, num_syndromes
        i64,        # delta
        p,          # roots
        p, p,       # member, parent
        p,          # records
    ]
    probe = library.probe_plan
    probe.restype = i64
    probe.argtypes = [
        p, p, p,    # indptr, indices, pair_indptr
        p,          # syndrome: one SyndromeView
        i64, i64,   # n, delta
        p, i64,     # starts, num_probes
        i64,        # first: the probe to resume from
        p, i64,     # levels (end, table, budget), num_levels
        p, i64,     # class_tables, num_tables
        p,          # records
    ]
    return library


def _load_library():
    """The configured native library, or ``None``.

    Any failure along the way — no source, no compiler, a build error, a
    load error — degrades silently to ``None``: the rows oracle is always
    there and always correct, the native passes are only ever a speedup.
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


def load_kernel(name: str):
    """The compiled entry point ``name`` of ``_stacked.c`` (``seeded_build``,
    ``probe_plan`` or ``stacked_rounds``), or ``None``."""
    library = _load_library()
    return None if library is None else getattr(library, name)


def check(code: int, entry: str) -> int:
    """``code`` if a native entry succeeded, else raise its typed error:
    ``ValueError`` for an input the entry refuses (BAD_NODE, BAD_PLAN,
    BAD_BEHAVIOR), ``MemoryError`` for NO_MEMORY, ``RuntimeError`` for an
    inconsistent syndrome, topology or output size."""
    if code >= 0:
        return code
    error = MemoryError if code == NO_MEMORY else (
        ValueError if code in (BAD_NODE, BAD_PLAN, BAD_BEHAVIOR) else RuntimeError)
    raise error(f"native {entry} refused its input: {_NAMES.get(code, code)}")


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


def topology_args(csr) -> tuple[int, int, int]:
    """The checked ``indptr``, ``indices`` and ``pair_indptr`` addresses of
    a compiled topology: the first three arguments of every entry.

    The arrays are fixed for the topology's lifetime, so they are checked
    once, by the first call, and the addresses are kept on ``csr``.
    """
    args = csr.native_args
    if args is None:
        n = csr.num_nodes
        args = csr.native_args = (
            address(csr.indptr, np.int64, n + 1),
            address(csr.indices, np.int32, csr.num_entries),
            address(csr.pair_indptr, np.int64, n + 1),
        )
    return args


def native_kernel_active() -> bool:
    """Whether seeded builds, root searches and final runs run natively."""
    return _load_library() is not None
