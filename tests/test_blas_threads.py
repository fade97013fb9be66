"""ssdkit loads OpenBLAS with one thread when it is the first to load numpy.

OpenBLAS reads its thread count once, when numpy loads it, so each import
check runs in a fresh interpreter.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssdkit

SRC = str(Path(ssdkit.__file__).resolve().parents[1])
TASKS = "/proc/self/task"
PROBE = ("import os; {}; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
         f"len(os.listdir({TASKS!r})) if os.path.isdir({TASKS!r}) else 0)")

needs_proc = pytest.mark.skipif(not os.path.isdir(TASKS), reason=f"no {TASKS}")


def fresh_import(imports, **env):
    """(OPENBLAS_NUM_THREADS, thread count) of a fresh interpreter after
    `imports`, run with `env` and without this process's thread setting."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, child_env.get("PYTHONPATH")]))
    child_env.update(env)
    res = subprocess.run([sys.executable, "-c", PROBE.format(imports)], env=child_env,
                         capture_output=True, text=True, check=True, timeout=60)
    value, tasks = res.stdout.split()
    return (None if value == "None" else value), int(tasks)


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
        lib = ctypes.CDLL(libs[0])
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    except (OSError, IndexError):
        pass
    return None


@needs_proc
def test_cli_import_pins_one_thread():
    assert fresh_import("import ssdkit.cli") == ("1", 1)


@needs_proc
def test_user_setting_is_kept():
    value, tasks = fresh_import("import ssdkit.cli", OPENBLAS_NUM_THREADS="2")
    assert value == "2"
    # OpenBLAS starts no more threads than the cores it may run on
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cores or 1) >= 2:
        assert tasks == 2


def test_numpy_loaded_first_is_left_alone():
    assert fresh_import("import numpy; import ssdkit")[0] is None


def test_tier1_process_runs_one_blas_thread():
    if os.environ.get("OPENBLAS_NUM_THREADS", "1") != "1":
        pytest.skip("OPENBLAS_NUM_THREADS was set before ssdkit loaded numpy")
    threads = blas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS loaded")
    assert threads == 1
