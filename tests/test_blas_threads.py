"""ssdkit's gemm kernels run on one OpenBLAS thread.

`import ssdkit` loads OpenBLAS with one thread when it is the first to load
numpy, and `blas.one_thread` runs the kernels on one thread whoever loaded
numpy first, putting the process's count back on exit.  OpenBLAS reads its
thread count once, when numpy loads it, so each check of either rule runs in
a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssdkit
from ssdkit.blas import openblas

COMPARE = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
SRC = str(Path(ssdkit.__file__).resolve().parents[1])
TASKS = "/proc/self/task"
PROBE = ("import os; {}; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
         f"len(os.listdir({TASKS!r})) if os.path.isdir({TASKS!r}) else 0)")
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

needs_proc = pytest.mark.skipif(not os.path.isdir(TASKS), reason=f"no {TASKS}")
# OpenBLAS starts no more threads than the cores it may run on, so with one
# core the host's count is 1 and a restored count is indistinguishable
needs_two_cores = pytest.mark.skipif((CORES or 1) < 2, reason="fewer than 2 cores")


def child_env(**env):
    """This process's environment without its thread setting, plus `env`."""
    out = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, out.get("PYTHONPATH")]))
    out.update(env)
    return out


def fresh_import(imports, **env):
    """(OPENBLAS_NUM_THREADS, thread count) of a fresh interpreter after
    `imports`, run with `env` and without this process's thread setting."""
    res = subprocess.run([sys.executable, "-c", PROBE.format(imports)], env=child_env(**env),
                         capture_output=True, text=True, check=True, timeout=60)
    value, tasks = res.stdout.split()
    return (None if value == "None" else value), int(tasks)


def blas_threads():
    """OpenBLAS's own thread count, or None without OpenBLAS."""
    api = openblas()
    return None if api is None else api[0]()


@needs_proc
def test_cli_import_pins_one_thread():
    assert fresh_import("import ssdkit.cli") == ("1", 1)


@needs_proc
def test_user_setting_is_kept():
    value, tasks = fresh_import("import ssdkit.cli", OPENBLAS_NUM_THREADS="2")
    assert value == "2"
    if (CORES or 1) >= 2:
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


# -- the kernel scope, in a numpy-first interpreter with two threads ----------

NUMPY_FIRST = """\
import json
import numpy as np
import ssdkit
from ssdkit import blas, gridfn
from ssdkit.spaces import pairwise_sq_dists

api = blas.openblas()
if api is None:
    print("null")
    raise SystemExit
get = api[0]
host = get()
x, y = np.random.default_rng(0).random((2, 40, 2))
out = {"host": host, "inside": []}
"""


def numpy_first(script):
    """The JSON `out` of `script`, run after NUMPY_FIRST in a fresh
    interpreter that loaded numpy with two OpenBLAS threads."""
    code = NUMPY_FIRST + script + "\nprint(json.dumps(out))\n"
    res = subprocess.run([sys.executable, "-c", code], env=child_env(OPENBLAS_NUM_THREADS="2"),
                         capture_output=True, text=True, check=True, timeout=60)
    out = json.loads(res.stdout)
    if out is None:
        pytest.skip("no OpenBLAS loaded")
    return out


def test_nearest_kernel_runs_one_thread():
    out = numpy_first("""
def kernel(c, y):
    out["inside"].append(get())
    return pairwise_sq_dists(c, y)

gridfn.nearest(kernel, x, y)
""")
    assert out["inside"] and set(out["inside"]) == {1}


@needs_two_cores
def test_host_count_is_restored():
    out = numpy_first("""
gridfn.nearest(pairwise_sq_dists, x, y)
out["after_call"] = get()
try:
    gridfn.sup_linear_minus(x, np.full(len(x), np.inf), y)
except ssdkit.Improper:
    out["after_raise"] = get()
out["depth"] = blas._depth
""")
    assert out["host"] == 2
    assert out["after_call"] == out["after_raise"] == 2
    assert out["depth"] == 0


@needs_two_cores
def test_nested_kernel_restores_outer_count():
    out = numpy_first("""
def kernel(c, y):
    gridfn.sup_linear_minus(y, np.zeros(len(y)), c)
    out["inside"].append(get())
    return pairwise_sq_dists(c, y)

gridfn.nearest(kernel, x, y)
out["after"] = get()
""")
    assert out["host"] == out["after"] == 2
    assert out["inside"] and set(out["inside"]) == {1}


@needs_two_cores
def test_concurrent_kernels_share_one_scope():
    """More kernel threads than cores, switching often: every kernel reads one
    thread, and the last to leave puts back the host's count.  Setting the
    count sleeps, so that other threads run while the first one enters."""
    out = numpy_first("""
import sys, threading, time

def slow_set(n):
    api[1](n)
    time.sleep(1e-3)

blas._api = (get, slow_set)

def kernel(c, y):
    out["inside"].append(get())
    return pairwise_sq_dists(c, y)

def work():
    for _ in range(50):
        gridfn.nearest(kernel, x, y)

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    workers = [threading.Thread(target=work) for _ in range(6)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
finally:
    sys.setswitchinterval(interval)
out["alive"] = sum(w.is_alive() for w in workers)
out["after"] = get()
out["depth"] = blas._depth
""")
    assert out["alive"] == 0
    assert len(out["inside"]) == 300 and set(out["inside"]) == {1}
    assert out["host"] == out["after"] == 2
    assert out["depth"] == 0


@needs_two_cores
def test_without_lookup_the_scope_does_nothing():
    out = numpy_first("""
blas._api = None

def kernel(c, y):
    out["inside"].append(get())
    return pairwise_sq_dists(c, y)

gridfn.nearest(kernel, x, y)
out["after"] = get()
""")
    assert out["host"] == out["after"] == 2
    assert out["inside"] and set(out["inside"]) == {2}


# -- end to end: the same reports whoever loaded numpy first -----------------

def test_numpy_first_reports_match_cli(tmp_path):
    """`lemma_2_13`, whose scattered sups stalled most at two threads, gives
    the CLI's reports bitwise when numpy loads first with two threads."""
    verify = ["verify", "--suite", "lemma_2_13", "--out"]
    cli = subprocess.run([sys.executable, "-m", "ssdkit.cli", *verify, str(tmp_path / "cli")],
                         env=child_env(), capture_output=True, timeout=300)
    first = subprocess.run([sys.executable, "-c",
                            "import sys, numpy; from ssdkit.cli import main; "
                            "sys.exit(main(sys.argv[1:]))", *verify, str(tmp_path / "numpy")],
                           env=child_env(), capture_output=True, timeout=300)
    assert first.returncode == cli.returncode
    diff = subprocess.run([sys.executable, str(COMPARE),
                           str(tmp_path / "cli"), str(tmp_path / "numpy")],
                          capture_output=True, text=True, timeout=60)
    assert diff.returncode == 0, diff.stdout
