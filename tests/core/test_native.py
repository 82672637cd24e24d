"""Native kernel build: cross-process compile lock and cache behaviour.

Regression: the first-use compile had no inter-process lock, so several
processes starting on a cold cache (a worker pool warming up, parallel test
runs) each ran their own compiler invocation.  ``_build_lock`` serialises
the build-or-wait section; these tests drive real subprocesses against one
cold cache directory and count actual compiler runs.
"""

from __future__ import annotations

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
