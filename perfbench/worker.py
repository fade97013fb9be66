"""Child process of the benchmark: runs one workload through
`ssdkit.cli.main(argv)` in-process and writes a result file.

Untraced (`--trace 0`): passes run back to back until the next pass would end
after `--seconds` (at least one pass). Each command's output is checked by
the oracle after it is timed. Reports the median pass time, scaled to the
reference host speed (see hostspeed.py), and this process's peak RSS up to
the end of the first pass.

Traced (`--trace 1`): one untraced pass, then the layer spans are installed
and one traced pass runs. The traced outputs must equal the untraced ones
(report `wall_time` fields aside); a difference counts as a failed command.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import layers
import oracle
import workloads


def import_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    import ssdkit.cli

    where = Path(ssdkit.cli.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"ssdkit imported from {where}, not from {root / 'src'}")
    return ssdkit.cli


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


def output_digest(out: Path) -> str:
    """Hash of a command's output files, with report wall times left out."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.name.encode())
        data = path.read_bytes()
        if path.suffix == ".json":
            data = json.dumps(_strip_wall_time(json.loads(data)), sort_keys=True).encode()
        h.update(data)
    return h.hexdigest()


def run_pass(cli, cmds, inputs, pinned, seed, problems):
    """Run every command once; returns (seconds in main, the same scaled to
    the reference host speed, failed commands, output digests)."""
    elapsed, failed, digests, scaled = 0.0, 0, [], 0.0
    rng = np.random.default_rng([seed, 1])
    loop_after = hostspeed.settled_loop_seconds()
    for cmd in cmds:
        shutil.rmtree(cmd.out, ignore_errors=True)
        sink = io.StringIO()
        loop_before = loop_after
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(cmd.argv)   # looked up per call: may be traced
        except Exception:  # a crash is a failed command, not a failed run
            code = "exception"
            traceback.print_exc()
        dt = time.perf_counter() - t0
        loop_after = hostspeed.settled_loop_seconds()
        elapsed += dt
        scaled += hostspeed.scale(dt, loop_before, loop_after)
        found = oracle.check(cmd, code, inputs, pinned, rng)
        if found:
            failed += 1
            problems.extend(found)
        digests.append(output_digest(cmd.out) if cmd.out.is_dir() else "")
    return elapsed, scaled, failed, digests


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


def stamp(root: Path, seed: int):
    git = None
    if (root / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        git = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "ssdkit").glob("*.py")):
        src.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_hash": git,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ssdkit_budget": os.environ.get("SSDKIT_BUDGET", "default"),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    cli = import_cli(args.root)
    inputs = None
    if args.workload == "user_files":
        inputs = workloads.make_user_inputs(args.seed, args.work)
    cmds = workloads.commands(args.workload, args.work, inputs)
    pinned = oracle.load_pinned()
    problems, attempted, failed = [], 0, 0

    def one_pass():
        nonlocal attempted, failed
        dt, scaled, bad, digests = run_pass(cli, cmds, inputs, pinned, args.seed, problems)
        attempted += len(cmds)
        failed += bad
        return dt, scaled, digests

    if args.trace:
        untraced_s, _, expected = one_pass()
        tracer = layers.Tracer()
        layers.install(tracer)
        traced_s, _, got = one_pass()
        for cmd, a, b in zip(cmds, expected, got):
            if a != b:
                failed += 1
                problems.append(f"{cmd.name}: traced output differs from untraced output")
        metrics = tracer.metrics(traced_s, untraced_s)
        (args.work / "spans.json").write_text(json.dumps(tracer.spans(), indent=1),
                                              encoding="utf-8")
        passes = [untraced_s]
    else:
        passes, scaled, rss_mb = [], [], None
        start = time.perf_counter()
        while True:
            dt, dt_scaled, _ = one_pass()
            passes.append(dt)
            scaled.append(dt_scaled)
            if rss_mb is None:
                # a CLI user runs one pass per process, so later passes,
                # whose count depends on the host's speed, do not count
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - start + statistics.median(passes) > args.seconds:
                break
        metrics = {"pass_s": {"value": statistics.median(scaled), "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}

    result = {"attempted": attempted, "failed": failed, "problems": problems[:20],
              "raw": {"passes_s": passes}, "metrics": metrics,
              "stamp": stamp(args.root, args.seed)}
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
