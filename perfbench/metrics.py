"""Turn a worker's results into the named metrics of BENCHMARK.json."""

from __future__ import annotations

import math
import statistics

# Counters that, with every '*.calls' and ok_frac, must repeat exactly between
# two traced passes over the same jobs.
DETERMINISTIC = ("synthesis.attempts", "synthesis.attempts.failed", "network.expand.terms")

# (metric, unit, source): source is a '<layer>.calls' / '<layer>.self_s' key of the
# tracer's snapshot or a counter.
LAYER_METRICS = (
    ("cli.calls", "count", "cli.calls"),
    ("cli.self_s", "s", "cli.self_s"),
    ("synthesis.build.s", "s", "synthesis.build.self_s"),
    ("synthesis.solve.calls", "count", "synthesis.solve.calls"),
    ("synthesis.solve.s", "s", "synthesis.solve.self_s"),
    ("synthesis.residual.calls", "count", "synthesis.residual.calls"),
    ("synthesis.residual.s", "s", "synthesis.residual.self_s"),
    ("synthesis.jacobian.calls", "count", "synthesis.jacobian.calls"),
    ("synthesis.jacobian.s", "s", "synthesis.jacobian.self_s"),
    ("synthesis.linsolve.calls", "count", "synthesis.linsolve.calls"),
    ("synthesis.linsolve.s", "s", "synthesis.linsolve.self_s"),
    ("synthesis.attempts", "count", "synthesis.attempts"),
    ("synthesis.attempts.failed", "count", "synthesis.attempts.failed"),
    ("network.expand.calls", "count", "network.expand.calls"),
    ("network.expand.s", "s", "network.expand.self_s"),
    ("network.expand.terms", "count", "network.expand.terms"),
    ("network.forward.calls", "count", "network.forward.calls"),
    ("network.forward.s", "s", "network.forward.self_s"),
    ("multipoly.mul.calls", "count", "multipoly.mul.calls"),
    ("multipoly.mul.s", "s", "multipoly.mul.self_s"),
    ("multipoly.add.calls", "count", "multipoly.add.calls"),
    ("multipoly.add.s", "s", "multipoly.add.self_s"),
    ("multipoly.pow.s", "s", "multipoly.pow.self_s"),
    ("multipoly.apply_univariate.s", "s", "multipoly.apply_univariate.self_s"),
    ("multipoly.eval.calls", "count", "multipoly.eval.calls"),
    ("multipoly.eval.s", "s", "multipoly.eval.self_s"),
    ("funcapprox.fit.calls", "count", "funcapprox.fit.calls"),
    ("funcapprox.fit.s", "s", "funcapprox.fit.self_s"),
    ("funcapprox.error.s", "s", "funcapprox.error.self_s"),
)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile, q in (0, 1]: always one job's time.

    The solver workloads have about ten jobs whose times jump tenfold
    between neighbours; interpolating across such a gap would turn timing
    noise on two jobs into a large swing of the percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def job_times(samples: dict) -> list[float]:
    """Each job's time: the median of its runs."""
    return [statistics.median(ts) for ts in samples.values()]


def end_to_end(untraced: dict, setup_s: float, peak_rss_mb: float) -> dict:
    times = job_times(untraced["samples"])
    values = (
        ("jobs_per_s", "1/s", len(times) / sum(times)),
        ("job_s.p50", "s", quantile(times, 0.5)),
        ("job_s.p90", "s", quantile(times, 0.9)),
        ("ok_frac", "ratio", untraced["ok"] / untraced["jobs"]),
        ("setup_s", "s", setup_s),
        ("peak_rss_mb", "MB", peak_rss_mb),
    )
    return {name: {"value": value, "unit": unit} for name, unit, value in values}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the first traced pass, and the counters on which
    the two traced passes disagree."""
    counts = []
    for p in traced:
        layers = p["layers"]
        c = {k: v for k, v in layers.items() if k.endswith(".calls") or k in DETERMINISTIC}
        c["ok_frac"] = p["ok"] / p["jobs"]
        counts.append(c)
    mismatches = [f"{k}: {counts[0].get(k)} vs {counts[1].get(k)}"
                  for k in sorted(set(counts[0]) | set(counts[1])) if counts[0].get(k) != counts[1].get(k)]

    first = traced[0]["layers"]
    k = traced[0]["job_time_s"] / traced[0]["raw_job_time_s"]  # the pass's raw seconds to scaled ones
    out = {name: {"value": float(first.get(src, 0.0)) * (k if unit == "s" else 1.0), "unit": unit}
           for name, unit, src in LAYER_METRICS}
    jac = first.get("synthesis.jacobian.calls", 0)
    out["synthesis.iters.useful_frac"] = {"value": _ratio(first.get("synthesis.iters.winning", 0), jac), "unit": "ratio"}
    out["synthesis.step.accept_frac"] = {"value": _ratio(jac, first.get("synthesis.linsolve.calls", 0)), "unit": "ratio"}
    out["trace.overhead_frac"] = {"value": traced[0]["job_time_s"] / untraced["job_time_s"] - 1.0, "unit": "ratio"}
    return out, mismatches


def spread(values) -> float:
    """Quartile distance over the median, as the steadiness check computes it."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)
