"""Native kernel build: cross-process compile lock and cache behaviour,
and the kernel entries' scratch lifetime.

Regression: the first-use compile had no inter-process lock, so several
processes starting on a cold cache (a worker pool warming up, parallel test
runs) each ran their own compiler invocation.  ``_build_lock`` serialises
the build-or-wait section; these tests drive real subprocesses against one
cold cache directory and count actual compiler runs.
"""

from __future__ import annotations

import ctypes
import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.native as native

_HAVE_COMPILER = any(shutil.which(c) for c in native._COMPILERS)

#: Child: count every ``_compile`` call into a shared file (O_APPEND writes
#: of one short line are atomic on POSIX), stretch the build window so
#: concurrent children genuinely overlap, then load the kernel.
_CHILD = """
import os, sys, time
import repro.core.native as native

marker = sys.argv[1]
real_compile = native._compile

def counting_compile(source, target):
    with open(marker, "a") as handle:
        handle.write(f"compile:{os.getpid()}\\n")
    time.sleep(0.3)  # widen the race window the lock must close
    return real_compile(source, target)

native._compile = counting_compile
kernel = native.load_kernel("stacked_rounds")
print("loaded" if kernel is not None else "missing")
"""


def _spawn_children(tmp_path: Path, count: int):
    marker = tmp_path / "compiles.log"
    marker.touch()
    env = dict(os.environ)
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    env.pop("REPRO_NO_NATIVE", None)
    env["PYTHONPATH"] = str(Path(native.__file__).parents[2])
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(marker)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        for _ in range(count)
    ]
    outputs = [child.communicate(timeout=120)[0].strip() for child in children]
    assert all(child.returncode == 0 for child in children)
    return outputs, marker.read_text().splitlines()


@pytest.mark.skipif(not _HAVE_COMPILER, reason="no C compiler available")
@pytest.mark.skipif(native.fcntl is None, reason="no fcntl (non-POSIX)")
def test_concurrent_cold_start_compiles_exactly_once(tmp_path):
    outputs, compiles = _spawn_children(tmp_path, count=4)
    assert outputs == ["loaded"] * 4  # everyone got the kernel
    assert len(compiles) == 1  # one winner built; the rest waited and reused


@pytest.mark.skipif(not _HAVE_COMPILER, reason="no C compiler available")
def test_warm_cache_compiles_zero_times(tmp_path):
    # First process builds; a later process finds the library and never
    # touches the compiler.
    first, compiles_after_first = _spawn_children(tmp_path, count=1)
    assert first == ["loaded"]
    assert len(compiles_after_first) == 1
    second, compiles_after_second = _spawn_children(tmp_path, count=1)
    assert second == ["loaded"]
    assert len(compiles_after_second) == 1  # unchanged: cache hit


@pytest.mark.skipif(native.fcntl is None, reason="no fcntl (non-POSIX)")
def test_build_lock_excludes_a_concurrent_holder(tmp_path):
    import fcntl

    target = tmp_path / "stacked-test.so"
    with native._build_lock(target):
        lock_path = target.with_suffix(".lock")
        assert lock_path.exists()
        with open(lock_path, "w") as probe:
            with pytest.raises(BlockingIOError):
                fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
    # Released on exit: a new holder acquires immediately.
    with open(lock_path, "w") as probe:
        fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
        fcntl.flock(probe, fcntl.LOCK_UN)


def test_build_lock_degrades_without_fcntl(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "fcntl", None)
    target = tmp_path / "stacked-test.so"
    with native._build_lock(target):
        pass  # lock-free fallback: context manager is a no-op
    assert not target.with_suffix(".lock").exists()


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost",
    )]


def _malloc_bytes_in_use():
    """A reader of the C heap's bytes in use, or ``None`` when none sees a
    1 MiB ``malloc``: AddressSanitizer's allocator count when its runtime
    is loaded (it replaces ``malloc`` and answers ``mallinfo`` with zeros),
    else glibc's ``mallinfo2()`` ``uordblks + hblkhd``."""
    libc = ctypes.CDLL(None)
    libc.malloc.restype = ctypes.c_void_p
    libc.free.argtypes = [ctypes.c_void_p]
    in_use = getattr(libc, "__sanitizer_get_current_allocated_bytes", None)
    if in_use is not None:
        in_use.restype = ctypes.c_size_t
    else:
        mallinfo2 = getattr(libc, "mallinfo2", None)
        if mallinfo2 is None:
            return None
        mallinfo2.restype = _Mallinfo2

        def in_use() -> int:
            info = mallinfo2()
            return info.uordblks + info.hblkhd

    before = in_use()
    block = libc.malloc(1 << 20)
    moved = in_use() - before
    libc.free(block)
    return in_use if moved >= 1 << 20 else None


@pytest.mark.skipif(not native.native_kernel_active(), reason="no C compiler available")
def test_allocating_entries_free_their_scratch():
    """``probe_plan`` and ``stacked_rounds`` allocate their scratch per
    call; 300 answered and 300 refused calls of each leave glibc's bytes
    in use where they were.  The refusal is MISSING_SIDE_ROW, returned
    after the allocation: faulty testers 0 and 1 answer all zeros, so a
    run from 0 admits 1 and then reads 1's row, which the side table lost.
    """
    from repro.backend.array_syndrome import ArraySyndrome
    from repro.core.faults import random_faults
    from repro.core.set_builder import ProbePlan, run_probe_plan, set_builder_many
    from repro.networks.hypercube import Hypercube

    in_use = _malloc_bytes_in_use()
    if in_use is None:
        pytest.skip("no reader of this process's malloc bytes in use")
    q10 = Hypercube(10)
    answered = ArraySyndrome.from_faults(q10, random_faults(q10, 10, seed=1), seed=1)
    refused = ArraySyndrome.from_faults(q10, {0, 1}, behavior="all_zero")
    keep = refused.side_ids != 1
    refused.side_ids = refused.side_ids[keep]
    refused.side_base = refused.side_base[keep]
    csr = answered.csr
    plan = ProbePlan(csr.num_nodes, [0, 5, 9], [(3, -1, -1)])

    def calls():
        run_probe_plan(csr, answered, plan, 10)
        set_builder_many(q10, [answered], [0])
        with pytest.raises(RuntimeError, match="MISSING_SIDE_ROW"):
            run_probe_plan(csr, refused, plan, 10)
        with pytest.raises(RuntimeError, match="MISSING_SIDE_ROW"):
            set_builder_many(q10, [refused], [0])

    calls()  # warm every cache the calls fill
    gc.collect()
    before = in_use()
    for _ in range(300):
        calls()
    gc.collect()
    assert in_use() - before <= 64 << 10
