"""The measured process: one closed-loop client running one workload.

Started by run.py with BLAS and OpenMP pinned to one thread.  It imports
polynet from the checkout's src/, writes the workload's inputs, prints
"ready <set-up seconds since --spawned-at> <slowness after set-up>",
runs the jobs and writes its results as JSON to --result.

Timing: only a job's run() is timed; checks run after it, untimed.  Each
job time is divided by the machine's slowness around it, measured while
the jobs run (speed.py).  Round 0 runs every job once.  Jobs that took
at most REPEAT_BELOW_S there are re-run in further rounds (see run_pass),
at least MIN_REPEATS times, and a job's time is the median of its runs
(metrics.job_times).  So the cheap jobs that set job_s.p50 are never one
sample, while the multi-second stalled solves still fit into one run
once each.

With --trace 1 only round 0 is run, once untraced and then twice with
the tracer installed; the first traced pass gives the per-layer numbers
and the overhead against the untraced pass, and the two traced passes
must give identical counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import polynet  # noqa: E402
from jobs import Workload  # noqa: E402
from speed import SETUP_PROBES, PROBE_S, Speedometer, probe  # noqa: E402
from tracer import Tracer  # noqa: E402


REPEAT_BELOW_S = 0.75  # round-0 time up to which a job is re-run
MIN_REPEATS = 4


def run_round(jobs, r: int, tracer: Tracer | None = None) -> list[dict]:
    """Run jobs in order and return one record per job."""
    records = []
    for job in jobs:
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter()
        output = job.run()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end()
        reason = job.check(output)
        records.append({"round": r, "kind": job.kind, "label": job.label, "t0": t0, "t1": t1, "failure": reason})
    return records


def run_pass(workload: Workload, seconds: float, repeat: bool) -> list[dict]:
    """Round 0, and with `repeat` the rounds that re-run its quick jobs.

    The machine's speed wanders over seconds, so the re-runs are spread
    over the run as the slow jobs are: after each slow job of round 0 comes
    a round of the quick jobs found so far.  Rounds of every quick job
    follow round 0 while the run would end closer to `seconds` than it is
    now, and rounds of those still short of MIN_REPEATS re-runs after that."""
    started = time.perf_counter()
    records: list[dict] = []
    quick: dict[str, float] = {}  # label -> round-0 time
    runs: dict[str, int] = {}

    def rerun(labels) -> None:
        r = 1 + max(rec["round"] for rec in records)
        records.extend(run_round([j for j in workload.round(r) if j.label in labels], r))
        for label in labels:
            runs[label] += 1

    for job in workload.round(0):
        (rec,) = run_round([job], 0)
        records.append(rec)
        if not repeat:
            continue
        if rec["t1"] - rec["t0"] <= REPEAT_BELOW_S:
            quick[rec["label"]], runs[rec["label"]] = rec["t1"] - rec["t0"], 1
        elif quick:
            rerun(set(quick))
    while quick:
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * sum(quick.values()) < seconds:
            rerun(set(quick))
        elif short := {label for label, n in runs.items() if n <= MIN_REPEATS}:
            rerun(short)
        else:
            break
    return records


def summarize(records, meter: Speedometer) -> dict:
    """Per-label job times, raw and divided by the machine's slowness around each run."""
    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for rec in records:
        dt = rec["t1"] - rec["t0"]
        raw.setdefault(rec["label"], []).append(dt)
        samples.setdefault(rec["label"], []).append(dt / meter.slowness(rec["t0"], rec["t1"]))
    return {
        "jobs": len(records),
        "ok": sum(rec["failure"] is None for rec in records),
        "rounds": 1 + max(rec["round"] for rec in records),
        "job_time_s": float(sum(sum(ts) for ts in samples.values())),
        "raw_job_time_s": float(sum(sum(ts) for ts in raw.values())),
        "samples": samples,
        "raw_samples": raw,
        "probes": len(meter.samples),
    }


def environment(args) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "polynet": polynet.__version__,
        "seed": args.seed,
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_lines,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--max-jobs", type=int, default=None)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.time() just before this process started")
    args = ap.parse_args()

    workload = Workload(args.workload, args.seed, Path(args.workdir))
    workload.round(0)
    if args.max_jobs is not None:
        del workload.round(0)[args.max_jobs:]
    setup_s = time.time() - args.spawned_at
    slowness = statistics.fmean(probe() for _ in range(SETUP_PROBES)) / PROBE_S
    print(f"ready {setup_s!r} {slowness!r}", flush=True)
    if args.setup_only:
        return 0

    with Speedometer() as meter:
        records = run_pass(workload, args.seconds, not args.trace and args.max_jobs is None)
    untraced = summarize(records, meter)
    result = {
        "env": environment(args),
        "untraced": untraced,
        "failures": [rec for rec in records if rec["failure"] is not None],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        passes = []
        for _ in range(2):
            tracer.reset()
            with Speedometer() as meter:
                traced = run_round(workload.round(0), 0, tracer)
            passes.append({**summarize(traced, meter), "layers": tracer.snapshot()})
        tracer.uninstall()
        result["traced"] = passes
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
