"""polynet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload synth-coef --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see jobs.py for why each
exists and how its inputs are drawn):

  synth-coef   coefficient-matching synth/compress/verify-exp1,2 jobs via the CLI
  fit-data     data-matching fit-data/verify-exp4 jobs via the CLI
  expand-eval  surrogate fit + expand_network + poly_eval vs forward, no solver

Set-up (interpreter start, `import polynet`, writing the inputs) is timed
five times in separate processes and its median reported; the last of
them goes on to run the jobs.  Every reported time is in seconds at a
fixed speed of the machine, measured alongside (see speed.py); the raw
times are in the "env" and "timing" lines.  The last line of standard
output is one JSON object with keys correct, attempted, failed and
metrics: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer ones.  A line starting with "env " before it records the
environment.  The exit code is 0 when every job's output passed its
check, 1 when one did not or the traced passes disagreed, 2 when the run
could not be made.
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

from metrics import end_to_end, per_layer  # noqa: E402

SETUPS = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _worker(args, workdir: Path, result: Path | None, deadline: float) -> tuple[float, float]:
    """Run a worker to its end and return its raw set-up time and the
    machine's slowness right after it; with result=None it stops after set-up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    cmd += ["--result", str(result)] if result is not None else ["--setup-only"]
    if args.max_jobs is not None:
        cmd += ["--max-jobs", str(args.max_jobs)]
    env = {**os.environ, **PINNED, "PYTHONHASHSEED": "0"}
    try:
        done = subprocess.run(cmd + ["--spawned-at", repr(time.time())], stdout=subprocess.PIPE, text=True,
                              env=env, cwd=str(ROOT), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker exceeded the run's deadline") from None
    ready = done.stdout.split()
    if done.returncode != 0 or len(ready) != 3 or ready[0] != "ready":
        raise RuntimeError(f"worker failed (exit code {done.returncode})")
    return float(ready[1]), float(ready[2])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("synth-coef", "fit-data", "expand-eval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-jobs", type=int, default=None, help="cut round 0 to this many jobs and run it alone")
    args = ap.parse_args()

    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "polynet" / "__init__.py").is_file():
        print(f"error: no polynet sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".perfbench"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    result_path = workdir / "result.json"
    try:
        setups = [_worker(args, workdir / f"setup{i}", None, deadline) for i in range(SETUPS - 1)]
        setups.append(_worker(args, workdir / "run", result_path, deadline))
        result = json.loads(result_path.read_text())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if base.is_dir() and not any(base.iterdir()):
            base.rmdir()

    env = {**result["env"], "commit": _commit(), "workload": args.workload, "seconds": args.seconds,
           "rounds": result["untraced"]["rounds"], "setup_s_raw": [s for s, _ in setups],
           "setup_slowness": [k for _, k in setups], "probes": result["untraced"]["probes"]}
    print("env " + json.dumps(env, sort_keys=True))
    for f in result["failures"]:
        print(f"FAILED {f['label']} (round {f['round']}): {f['failure']}", file=sys.stderr)

    untraced = result["untraced"]
    timing = {"untraced_job_s": untraced["job_time_s"], "raw_job_s": untraced["raw_job_time_s"],
              "jobs": untraced["jobs"], "samples": untraced["samples"], "raw_samples": untraced["raw_samples"]}
    if args.trace:
        timing["traced_job_s"] = [p["job_time_s"] for p in result["traced"]]
    print("timing " + json.dumps(timing))
    print(f"checked {untraced['jobs']} job runs: {untraced['ok']} passed, {untraced['jobs'] - untraced['ok']} failed")
    correct = untraced["ok"] == untraced["jobs"]
    if args.trace:
        metrics, mismatches = per_layer(untraced, result["traced"])
        for m in mismatches:
            print(f"DETERMINISM {m}", file=sys.stderr)
        correct = correct and not mismatches and all(p["ok"] == p["jobs"] for p in result["traced"])
    else:
        metrics = end_to_end(untraced, statistics.median(s / k for s, k in setups), result["peak_rss_mb"])
    runs = f"{len(untraced['samples'])} jobs, {untraced['jobs']} runs"
    samples = runs if not args.trace else f"{untraced['jobs']} jobs per traced pass"
    for name, m in metrics.items():
        n = f"{SETUPS} set-ups" if name == "setup_s" else samples
        print(f"{name} = {m['value']:.6g} {m['unit']} (n={n})")
    print(json.dumps({"correct": correct, "attempted": untraced["jobs"],
                      "failed": untraced["jobs"] - untraced["ok"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
