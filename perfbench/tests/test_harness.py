"""Smoke test of the benchmark harness on a tiny job list.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import polynet.network as nw  # noqa: E402
import worker  # noqa: E402
from jobs import Job, Workload  # noqa: E402
from metrics import end_to_end  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], capture_output=True, text=True,
                          cwd=str(ROOT), timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    lines, result = run_bench("--workload", "expand-eval", "--seed", "3", "--seconds", "1",
                              "--trace", str(trace), "--max-jobs", "4")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (4, 0)
    assert "checked 4 job runs: 4 passed, 0 failed" in lines
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(l.startswith(f"{name} = ") and f" {unit} (n=" in l for l in lines), name
    if trace:
        assert result["metrics"]["network.expand.calls"]["value"] == 4
        assert result["metrics"]["multipoly.eval.calls"]["value"] == 4 * 200


def test_expand_check_rejects_a_wrong_value(tmp_path):
    job = Workload("expand-eval", 5, tmp_path).round(0)[0]
    values, reference = job.run()
    assert job.check((values, reference)) is None
    values = values.copy()
    values[7] += 1e-6 * max(1.0, float(np.max(np.abs(reference))))
    assert "relative error" in job.check((values, reference))


def test_solver_check_reads_the_written_network(tmp_path):
    workload = Workload("synth-coef", 5, tmp_path)
    job = next(j for j in workload.round(0) if j.kind == "synth")
    teacher = next(p["teacher"] for p in workload._pool if p["label"] == job.label)
    out = tmp_path / f"{job.label}.r0.out.json"
    nw.save_network(teacher, out)
    assert job.check((0, "", "")) is None
    assert "exit code 1" in job.check((1, "", "did not converge"))
    wrong = nw.NetworkSpec(2, tuple(nw.LayerSpec(l.weights * 1.01, l.activation) for l in teacher.layers))
    nw.save_network(wrong, out)
    assert "held-out relative error" in job.check((0, "", ""))


def test_verify_check_needs_pass_line(tmp_path):
    job = next(j for j in Workload("synth-coef", 5, tmp_path).round(0) if j.kind == "verify-exp2")
    assert job.check((0, "exp2.converged=1\nresult=PASS\n", "")) is None
    assert job.check((0, "result=FAIL\n", "")) == "no result=PASS line"


def test_job_times_are_medians_of_repeats():
    # a quick job run five times, one noisy run among them, and a stall run once
    untraced = {"jobs": 6, "ok": 6, "samples": {"quick": [0.2, 0.21, 0.9, 0.19, 0.2], "stall": [20.0]}}
    m = end_to_end(untraced, 0.8, 80.0)
    assert m["job_s.p50"]["value"] == 0.2
    assert m["job_s.p90"]["value"] == 20.0
    assert m["jobs_per_s"]["value"] == 2 / 20.2


def test_quick_jobs_are_rerun_between_and_after_slow_ones(monkeypatch):
    monkeypatch.setattr(worker, "REPEAT_BELOW_S", 0.01)

    class Fake:
        def round(self, r):
            return [Job("k", label, lambda d=delay: time.sleep(d), lambda _: None)
                    for label, delay in (("a", 0.0), ("slow", 0.03), ("b", 0.0))]

    with worker.Speedometer() as meter:
        records = worker.run_pass(Fake(), 0.0, repeat=True)
    order = [(rec["round"], rec["label"]) for rec in records]
    assert order[:4] == [(0, "a"), (0, "slow"), (1, "a"), (0, "b")]
    runs = worker.summarize(records, meter)["samples"]
    assert {k: len(v) for k, v in runs.items()} == {"a": 1 + worker.MIN_REPEATS, "slow": 1, "b": 1 + worker.MIN_REPEATS}
