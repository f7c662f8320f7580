"""The three workloads: seeded job lists, how a job runs, and how its output is checked.

Every job is a closed-loop call into polynet: the next job starts when the
previous one has returned.  A job's timed part is `run()`; its output is
checked afterwards by `check()`, outside the timed region and outside any
trace span, against references computed here and not taken from the
solver's own report.

Why the solver workloads solve a fixed pool of problems
-------------------------------------------------------
Whether an LM attempt sticks at a saddle for its full 500 iterations is
chaotic in the inputs: a 1e-9 relative change of one target coefficient
flips the outcome of the all-ones start, and the restart seed decides
the same for the attempts after it.  A stuck attempt costs 20 to 80
times a normal job, and 15 to 30% of random problems hit one, so a seeded
draw of the ten or so problems a run has time for makes jobs_per_s a
lottery over the stall count (a Monte Carlo over measured job costs gives
quartile spreads of 0.3 to 0.8; one run with a seeded restart seed took
twice as long as the others).  The solver workloads therefore solve the
same problems in every run: a pool drawn once from POOL_SEED, with the
stall share it happens to have, run with the CLI's default `--seed`.
The run's seed draws the held-out check points and the job order.
`expand-eval` has no solver and takes everything but its size grid from
the run's seed.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import polynet.cli
import polynet.funcapprox as fa
import polynet.multipoly as mp
import polynet.network as nw

WORKLOADS = ("synth-coef", "fit-data", "expand-eval")

POOL_SEED = 2305_00663
HELD_OUT_POINTS = 20
SOLVER_RTOL = 1e-6   # solved nets reproduce exact targets; coefficient residuals are <= 1e-10
EXPAND_RTOL = 1e-9   # measured worst case on the size grid is ~1e-14
EVAL_POINTS = 200


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct, else the reason


# -- solver jobs through the CLI ---------------------------------------------


def _cli(argv: list[str]):
    """One in-process CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = polynet.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _square_net(rng, d: int, hidden: int, outputs: int, k: int = 2) -> nw.NetworkSpec:
    return nw.NetworkSpec(
        d,
        (
            nw.LayerSpec(rng.uniform(-1.0, 1.0, (hidden, d + 1)), nw.MonomialPower(k)),
            nw.LayerSpec(rng.uniform(-1.0, 1.0, (outputs, hidden + 1)), nw.Identity()),
        ),
    )


def _placeholder(net: nw.NetworkSpec) -> nw.NetworkSpec:
    return nw.NetworkSpec(
        net.input_dim, tuple(nw.LayerSpec(np.zeros_like(l.weights), l.activation) for l in net.layers)
    )


def _verify_job(exp_id: int) -> Job:
    argv = [f"verify-exp{exp_id}", "--machine"]

    def check(output) -> str | None:
        rc, out, err = output
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        if "result=PASS" not in out.splitlines():
            return "no result=PASS line"
        return None

    return Job(f"verify-exp{exp_id}", f"verify-exp{exp_id}", lambda: _cli(argv), check)


def _solved_net_check(out_path: Path, reference: Callable[[np.ndarray], np.ndarray], points: np.ndarray):
    """Check that the CLI exited 0 and the written net matches `reference` at held-out points."""

    def check(output) -> str | None:
        rc, _, err = output
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        try:
            net = nw.load_network(out_path)
        except (OSError, ValueError) as exc:
            return f"unreadable --out network: {exc}"
        got = np.array([nw.forward(net, x) for x in points])
        want = np.array([reference(x) for x in points])
        scale = max(1.0, float(np.max(np.abs(want))))
        worst = float(np.max(np.abs(got - want))) / scale
        if not worst <= SOLVER_RTOL:
            return f"held-out relative error {worst:.3e} > {SOLVER_RTOL:g}"
        return None

    return check


def _synth_coef_pool(workdir: Path) -> list[dict]:
    """Problems of the paper's family: 2 inputs, 4 squared hidden units, 1 or 2 outputs."""
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for i, outputs in enumerate((1, 1, 1, 2, 2, 2)):
        teacher = _square_net(rng, 2, 4, outputs)
        arch = workdir / f"synth{i}.arch.json"
        nw.save_network(_placeholder(teacher), arch)
        targets = []
        for k, poly in enumerate(nw.expand_network(teacher)):
            path = workdir / f"synth{i}.target{k}.poly"
            path.write_text(mp.poly_to_text(poly))
            targets.append(str(path))
        pool.append({"kind": "synth", "label": f"synth{i}", "teacher": teacher,
                     "argv": ["synth", "--arch", str(arch), "--targets", *targets]})
    for i, outputs in enumerate((1, 2)):
        teacher = _square_net(rng, 2, 8, outputs, k=4)
        student = _square_net(rng, 2, 4, outputs)
        tpath, spath = workdir / f"compress{i}.teacher.json", workdir / f"compress{i}.student.json"
        nw.save_network(teacher, tpath)
        nw.save_network(_placeholder(student), spath)
        truncated = [mp.truncate_degree(p, 2) for p in nw.expand_network(teacher)]
        pool.append({"kind": "compress", "label": f"compress{i}", "truncated": truncated,
                     "argv": ["compress", "--teacher", str(tpath), "--student-arch", str(spath), "--degree", "2"]})
    pool.append({"kind": "verify", "exp_id": 1})
    pool.append({"kind": "verify", "exp_id": 2})
    return pool


def _fit_data_pool(workdir: Path) -> list[dict]:
    """Datasets of 50-200 rows from random 2- or 3-input, 4-hidden squared teachers."""
    rng = np.random.default_rng(POOL_SEED + 1)
    pool = []
    for i, d in enumerate((2, 3, 2, 3, 2, 3, 2, 3)):
        teacher = _square_net(rng, d, 4, 1)
        rows = int(rng.integers(50, 201))
        X = rng.uniform(-1.0, 1.0, (rows, d))
        y = np.array([nw.forward(teacher, x)[0] for x in X])
        data, arch = workdir / f"fit{i}.csv", workdir / f"fit{i}.arch.json"
        nw.save_dataset(nw.Dataset(X, y), data)
        nw.save_network(_placeholder(teacher), arch)
        pool.append({"kind": "fit-data", "label": f"fit{i}.d{d}.n{rows}", "teacher": teacher,
                     "argv": ["fit-data", "--arch", str(arch), "--data", str(data)]})
    pool.append({"kind": "verify", "exp_id": 4})
    return pool


def _solver_round(pool: list[dict], rng, workdir: Path, tag: str) -> list[Job]:
    jobs = []
    for item in pool:
        if item["kind"] == "verify":
            jobs.append(_verify_job(item["exp_id"]))
            continue
        out = workdir / f"{item['label']}.{tag}.out.json"
        argv = item["argv"] + ["--out", str(out)]
        if item["kind"] == "compress":
            truncated = item["truncated"]
            reference = lambda x, ps=truncated: np.array([mp.poly_eval(p, x) for p in ps])
            d = truncated[0].nvars
        else:
            teacher = item["teacher"]
            reference = lambda x, t=teacher: nw.forward(t, x)
            d = teacher.input_dim
        points = rng.uniform(-1.0, 1.0, (HELD_OUT_POINTS, d))
        jobs.append(Job(item["kind"], item["label"], lambda a=argv: _cli(a),
                        _solved_net_check(out, reference, points)))
    rng.shuffle(jobs)
    return jobs


# -- expand-eval: symbolic jobs through the library API -----------------------

# (inputs, hidden activation degrees): term counts C(d + D, d) run from 10 to
# 3003 with most jobs small, as in use; the grid is the same in every round so
# that the p90 is not a draw over sizes.
EXPAND_GRID = (
    (2, (3,)), (2, (4,)), (2, (5,)), (2, (6,)), (2, (8,)), (2, (2, 2)), (2, (2, 4)),
    (3, (2,)), (3, (3,)), (3, (4,)), (3, (6,)), (3, (8,)), (3, (2, 2)), (3, (3, 2)), (3, (4, 2)),
    (4, (2,)), (4, (3,)), (4, (4,)), (4, (5,)), (4, (6,)), (4, (8,)), (4, (2, 2)), (4, (2, 3)), (4, (2, 4)),
    (5, (2,)), (5, (3,)), (5, (4,)), (5, (6,)), (5, (8,)), (5, (2, 2)), (5, (3, 2)),
    (6, (2,)), (6, (3,)), (6, (4,)), (6, (5,)), (6, (6,)), (6, (8,)), (6, (2, 2)),
)


def _surrogate(rng, degree: int, use_fourier: bool) -> fa.UniPoly:
    """Fit a sigmoid or tanh surrogate of exactly `degree` and measure its error."""
    fn = "sigmoid" if rng.random() < 0.5 else "tanh"
    if use_fourier:
        # sine series of `terms` Maclaurin terms have degree 2*terms - 1
        half = float(rng.uniform(2.0, 6.0))
        f = fa.builtin(fn, -half, half)
        series = fa.fourier_fit(f, half, int(rng.integers(2, 4)))
        poly = fa.fourier_to_poly(series, (degree + 1) // 2)
        interval = (-half, half)
    else:
        # an asymmetric interval keeps every coefficient of the fit nonzero
        interval = (float(rng.uniform(-6.0, -2.0)), float(rng.uniform(2.0, 6.0)))
        f = fa.builtin(fn, *interval)
        poly = fa.lsq_poly_fit(f, interval, degree)
    fa.approx_error(f, poly, interval)
    return poly


def _expand_job(rng, index: int, d: int, degrees: tuple[int, ...]) -> Job:
    width = 4 + index % 5
    job_seed = int(rng.integers(0, 2**31))
    points = rng.uniform(-1.0, 1.0, (EVAL_POINTS, d))

    def run():
        job_rng = np.random.default_rng(job_seed)
        layers, fan_in = [], d
        for li, deg in enumerate(degrees):
            surrogate = _surrogate(job_rng, deg, use_fourier=deg % 2 == 1 and (index // 2) % 2 == 0)
            act = nw.PolyActivation(surrogate) if (index + li) % 2 == 0 else nw.MonomialPower(deg)
            layers.append(nw.LayerSpec(job_rng.uniform(-1.0, 1.0, (width, fan_in + 1)), act))
            fan_in = width
        layers.append(nw.LayerSpec(job_rng.uniform(-1.0, 1.0, (1, fan_in + 1)), nw.Identity()))
        net = nw.NetworkSpec(d, tuple(layers))
        (poly,) = nw.expand_network(net)
        values = np.array([mp.poly_eval(poly, x) for x in points])
        reference = np.array([nw.forward(net, x)[0] for x in points])
        return values, reference

    def check(output) -> str | None:
        values, reference = output
        scale = max(1.0, float(np.max(np.abs(reference))))
        worst = float(np.max(np.abs(values - reference))) / scale
        if not worst <= EXPAND_RTOL:
            return f"poly_eval vs forward relative error {worst:.3e} > {EXPAND_RTOL:g}"
        return None

    shape = "x".join(map(str, degrees))
    return Job("expand", f"expand.d{d}.deg{shape}.w{width}", run, check)


# -- job lists -----------------------------------------------------------------


class Workload:
    """Inputs are written in the constructor (set-up); round(r) returns round r's jobs."""

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
        self.seed, self.workdir = seed, workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._pool = {"synth-coef": _synth_coef_pool, "fit-data": _fit_data_pool}.get(name, lambda _: None)(workdir)
        self._rounds: dict[int, list[Job]] = {}

    def round(self, r: int) -> list[Job]:
        """Jobs of round r, in run order; the same (seed, r) gives the same jobs."""
        if r not in self._rounds:
            rng = np.random.default_rng([self.seed, r])
            if self._pool is not None:
                jobs = _solver_round(self._pool, rng, self.workdir, f"r{r}")
            else:
                jobs = [_expand_job(rng, i, d, degs) for i, (d, degs) in enumerate(EXPAND_GRID)]
                rng.shuffle(jobs)
            self._rounds[r] = jobs
        return self._rounds[r]
