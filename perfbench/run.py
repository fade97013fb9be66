"""Benchmark of the ssdkit command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of vz_split_norms, representer_suites, space_dual_suites and
user_files (see workloads.py for what each runs and why), or `all` to run
the four in turn and print every metric for each. Each workload runs in one
fresh child process (worker.py) that calls `ssdkit.cli.main(argv)` from this
checkout's `src/`, one workload at a time; no build step is needed.

BENCHMARK.json gates only representer_suites and user_files, which between
them run all nine layer modules. vz_split_norms (one 30-second command) and
space_dual_suites (one 10-second command) fit only one pass per run in the
time the gate allows, and their run-to-run spread on the shared 2-core host
reached 0.22 and 0.27, too close to the 0.25 bound to gate on; run them by
hand, with --trace 1 for the split-norm inf path and the dual-norm scan.

End-to-end metrics (`--trace 0`). Both times are scaled to a reference host
speed measured just before and after each timed interval (hostspeed.py says
why); the raw seconds are printed beside them.
- setup_s: median over SETUP_PROBES fresh interpreters of the time to
  `import ssdkit.cli`. Users pay it on every CLI call.
- pass_s: median wall seconds of one pass of the workload's commands, timed
  around each `main(argv)` call, never read from the reports' wall_time.
- peak_rss_mb: the child's own ru_maxrss at the end of its first pass.
- op_fail_share: commands whose exit code or output the oracle rejected,
  over commands attempted. It is printed and is `failed`/`attempted` in the
  result; it is not a gated metric because it is 0 on a correct program.

Per-layer metrics (`--trace 1`) come from spans installed by layers.py; their
times are raw seconds of one traced pass.

Left out on purpose: the Tier-1 pytest run (130 s, and it shifts whenever the
tests change), and the 3,721-point dedup and the 201^2 conjugate of the
roadmap, which are too long to repeat 22 times; `user_files` runs the same
code at 1,200 rows and 161^2.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9
TIME_LIMIT = 170.0          # seconds for one workload, setup included


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(deadline):
    """Median import time of ssdkit.cli over fresh interpreters, raw and
    scaled to the reference host speed."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, "-c", hostspeed.IMPORT_PROBE],
                             env=child_env(), cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=max(1.0, deadline - time.monotonic()))
        seconds, loop_s, where = res.stdout.split()
        if ROOT / "src" not in Path(where).resolve().parents:
            raise RuntimeError(f"ssdkit.cli imported from {where}, not from this checkout")
        raw.append(float(seconds))
        scaled.append(hostspeed.scale(float(seconds), float(loop_s), float(loop_s)))
    return statistics.median(raw), statistics.median(scaled)


def run_workload(name, seed, seconds, trace):
    """Run one workload in a fresh child; returns the child's result dict."""
    deadline = time.monotonic() + TIME_LIMIT
    work = ROOT / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = None if trace else setup_seconds(deadline)
    result_file = work / "result.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                    "--root", str(ROOT), "--work", str(work), "--result", str(result_file)],
                   env=child_env(), cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    result = json.loads(result_file.read_text(encoding="utf-8"))
    if setup is not None:
        result["raw"]["setup_s"] = setup[0]
        result["metrics"] = {"setup_s": {"value": setup[1], "unit": "s"}, **result["metrics"]}
    return result


def report(name, result):
    print(f"[{name}] stamp {json.dumps(result['stamp'], sort_keys=True)}")
    print(f"[{name}] raw (not scaled to host speed) {json.dumps(result['raw'])}")
    for metric, m in result["metrics"].items():
        print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"[{name}] op_fail_share = {share:.6g} ratio "
          f"({result['failed']} of {result['attempted']} commands)")
    for problem in result["problems"]:
        print(f"[{name}] problem: {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ssdkit" / "cli.py").is_file():
        print(f"error: no ssdkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError, ValueError, RuntimeError) as exc:
            print(f"error: workload {name} did not complete: {exc}", file=sys.stderr)
            return 1
        report(name, result)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
