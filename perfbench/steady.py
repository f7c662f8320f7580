"""Run the benchmark over several seeds and report each metric's quartile spread.

    python3 perfbench/steady.py --workload synth-coef --seeds 1-10 [--trace 1] [--out runs.json]

Each run is `run.py` in its own process, one after another.  Untraced,
it prints a table with each metric's median, quartiles, quartile distance
over the median (the steadiness figure checked against the metric's bound
in BENCHMARK.json) and bound.  Traced, it prints each per-layer metric's
median and, for times, its share of the traced job time; a seed given
twice must repeat every counter.  Exits 1 when a run fails, its outputs
were wrong or counters did not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import spread  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, required=True, help="'1-10' or '3,7,11'")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append the runs to this JSON file")
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs, ok = [], True
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=str(HERE.parent), timeout=300)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit code {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            if not lines:
                continue
        result = json.loads(lines[-1])
        env = json.loads(next(l[4:] for l in lines if l.startswith("env ")))
        timing = json.loads(next(l[7:] for l in lines if l.startswith("timing ")))
        ok = ok and result["correct"]
        runs.append({"workload": args.workload, "seed": seed, "trace": args.trace, "env": env, "timing": timing,
                     **result})
        if args.trace == 0:
            print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    if len(runs) >= 2 and args.trace == 0:
        print("| metric | unit | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|---|")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"| {name} | {m['unit']} | {statistics.median(values):.5g} | {q1:.5g} | {q3:.5g} "
                  f"| {spread(values):.4f} | {bounds[name]} |")
    if args.trace == 1 and runs:
        # self time as a share of the traced pass's job time
        job_s = statistics.median(r["timing"]["traced_job_s"][0] for r in runs)
        print(f"traced job time {job_s:.4g} s over {runs[0]['attempted']} jobs\n"
              "| metric | unit | median | share of job time |\n|---|---|---|---|")
        for name, m in runs[0]["metrics"].items():
            med = statistics.median(r["metrics"][name]["value"] for r in runs)
            share = f"{med / job_s:.1%}" if m["unit"] == "s" else ""
            print(f"| {name} | {m['unit']} | {med:.6g} | {share} |")
        for seed in {r["seed"] for r in runs}:
            same = [r for r in runs if r["seed"] == seed]
            for r in same[1:]:
                diff = [k for k, m in r["metrics"].items() if m["unit"] == "count"
                        and m["value"] != same[0]["metrics"][k]["value"]]
                if diff and r["env"]["rounds"] == same[0]["env"]["rounds"]:
                    print(f"seed {seed}: counters differ between runs: {', '.join(diff)}", file=sys.stderr)
                    ok = False
    if args.out:
        path = Path(args.out)
        previous = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(previous + runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
