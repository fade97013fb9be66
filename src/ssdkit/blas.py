"""OpenBLAS runs ssdkit's gemm kernels on one thread.

Every gemm here has K <= 4 columns in 2 MB score blocks, too small to gain
from a second thread.  On a 2-core host a second thread costs more than it
saves: it adds about 60 ms to `import numpy`, and a gemm with a transposed
operand, such as `sup_linear_minus`'s `t @ x.T`, stalls in 4 ms steps:
8-16 ms for products such as (61x3)(3x4913), which take about 0.2 ms on one
thread.  Gemm bits also change with the thread count, so a kernel's reports
would depend on how the process was started.

Two rules, both keeping the user's setting outside ssdkit:

- Importing this module before numpy sets `OPENBLAS_NUM_THREADS=1`, unless
  the environment already has a value, so OpenBLAS starts no second thread.
- `one_thread` scopes a kernel: while it runs, OpenBLAS runs one thread,
  and on exit the count the process had is put back.  This holds whoever
  loaded numpy first and whatever `OPENBLAS_NUM_THREADS` says.  Nested or
  concurrent kernels share one scope: the first to enter sets one thread
  and the last to leave restores the count.  Without OpenBLAS (MKL,
  Accelerate) the scope does nothing.
"""

import ctypes
import functools
import os
import sys
import threading

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy  # noqa: E402  (after the pin: OpenBLAS reads it as numpy loads it)

_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
            "openblas_{}_num_threads")


def openblas():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None.

    dlsym on numpy's own extension module reaches the OpenBLAS it links."""
    try:
        lib = ctypes.CDLL(numpy._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in _SYMBOLS:
        get = getattr(lib, name.format("get"), None)
        put = getattr(lib, name.format("set"), None)
        if get is not None and put is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


# Looked up at import, in about 0.1 ms.  Looked up on the first kernel call
# instead, it raised the benchmark worker's `user_files` peak RSS by about
# 0.9 MB, an allocator-layout effect of allocating in the middle of a pass.
_api = openblas()
_lock = threading.Lock()
_depth = 0     # kernels running
_outer = 1     # the count to put back when the last one leaves


def _enter():
    global _depth, _outer
    with _lock:
        if _depth == 0 and _api is not None:
            _outer = _api[0]()
            if _outer != 1:
                _api[1](1)
        _depth += 1


def _leave():
    global _depth
    with _lock:
        _depth -= 1
        if _depth == 0 and _api is not None and _outer != 1:
            _api[1](_outer)


def one_thread(kernel):
    """Run `kernel` with OpenBLAS on one thread, as the module docstring says."""
    @functools.wraps(kernel)
    def scoped(*args, **kwargs):
        _enter()
        try:
            return kernel(*args, **kwargs)
        finally:
            _leave()
    return scoped
