"""The four reference experiments behind the verify-exp CLI commands.

  1. two-class synthesis: match two class score polynomials with a
     4-node squared-activation network, 12 equations in 22 unknowns;
  2. regression synthesis: match 2*x1 + 2*x1*x2 + x2^2 with a 4-node
     squared-activation network, 6 equations in 17 unknowns;
  3. class polynomials from a 4-example dataset, checked against frozen
     coefficient tables and reference weights for an 8-node quartic
     network;
  4. the experiment-2 target fitted from sampled data instead of
     coefficients.

refdata/ holds frozen known-good weights and the experiment-3 dataset;
the coefficient and output tables here are the expected values the verify
commands check against.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .errors import UsageError
from .multipoly import MultiPoly, grlex_monomials, poly_eval
from .network import (
    Dataset,
    Identity,
    LayerSpec,
    MonomialPower,
    NetworkSpec,
    classify,
    dataset_from_csv,
    forward,
    network_from_json,
)
from .report import ReportDocument
from .synthesis import (
    build_coefficient_system,
    build_data_system,
    class_target_poly,
    network_weights,
    solve_system,
    with_weights,
)


def _refdata(name: str) -> str:
    return (resources.files("polynet") / "refdata" / name).read_text()


def load_reference_network(exp_id: int) -> NetworkSpec:
    """Frozen known-good weights for experiment 1, 2 or 3."""
    if exp_id not in (1, 2, 3):
        raise UsageError(f"no reference network for experiment {exp_id}")
    return network_from_json(_refdata(f"exp{exp_id}_network.json"))


def load_table1() -> Dataset:
    """The 4-example, 2-feature, 2-class dataset of experiment 3."""
    return dataset_from_csv(_refdata("table1.csv"))


def two_class_targets() -> tuple[MultiPoly, MultiPoly]:
    """Experiment 1 class scores: -(x1 - x2)^2 and -((x1 + x2) - 1)^2."""
    c0 = -MultiPoly(2, {(1, 0): 1.0, (0, 1): -1.0}) ** 2
    c1 = -MultiPoly(2, {(0, 0): -1.0, (1, 0): 1.0, (0, 1): 1.0}) ** 2
    return c0, c1


def regression_target() -> MultiPoly:
    """Experiment 2/4 generator: 2*x1 + 2*x1*x2 + x2^2."""
    return MultiPoly(2, {(1, 0): 2.0, (1, 1): 2.0, (0, 2): 1.0})


def _square_arch(hidden: int, outputs: int) -> NetworkSpec:
    return NetworkSpec(
        2,
        (
            LayerSpec(np.zeros((hidden, 3)), MonomialPower(2)),
            LayerSpec(np.zeros((outputs, hidden + 1)), Identity()),
        ),
    )


def two_class_points() -> tuple[np.ndarray, np.ndarray]:
    """40 labeled points, 20 per class generator, x1 in [0, 1]."""
    t = np.linspace(0.0, 1.0, 20)
    pts = np.concatenate([np.column_stack([t, t]), np.column_stack([t, 1.0 - t])])
    labels = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    return pts, labels


def _match_coefficients(
    doc: ReportDocument, exp_id: int, arch: NetworkSpec, targets, residuals: int, unknowns: int
) -> NetworkSpec:
    """Shared body of experiments 1 and 2: size the coefficient system, check
    the frozen reference weights against it, solve, and return the solved net."""
    key = f"exp{exp_id}"
    system = build_coefficient_system(arch, targets)
    doc.check(f"{key}.residuals", "residual count", system.arity, residuals, 0)
    doc.check(f"{key}.unknowns", "unknown count", system.unknowns, unknowns, 0)
    ref = load_reference_network(exp_id)
    ref_norm = float(np.max(np.abs(system.residuals(network_weights(ref)))))
    doc.check(f"{key}.reference_residual", "residual norm at reference weights", ref_norm, 0.0, 5e-3)
    w, rep = solve_system(system)
    doc.check(f"{key}.converged", "solver converged", float(rep.converged), 1.0, 0.0)
    doc.check(f"{key}.solved_residual", "residual norm at solved weights", rep.final_residual_norm, 0.0, 1e-8)
    doc.info(f"{key}.iterations", "iterations", rep.iterations)
    doc.info(f"{key}.restarts", "restarts used", rep.restarts_used)
    return with_weights(arch, w)


def _run_exp1(doc: ReportDocument) -> None:
    doc.note("classes generated from the lines x1 - x2 = 0 and x1 + x2 = 1")
    net = _match_coefficients(doc, 1, _square_arch(4, 2), two_class_targets(), 12, 22)
    pts, labels = two_class_points()
    hits = np.count_nonzero(classify(net, pts) == labels)
    doc.check("exp1.accuracy", "classification accuracy on 40 points", hits / len(labels), 1.0, 0.0)


def _run_exp2(doc: ReportDocument) -> None:
    doc.note("target r = 2*x1 + 2*x1*x2 + x2^2")
    net = _match_coefficients(doc, 2, _square_arch(4, 1), [regression_target()], 6, 17)
    doc.check("exp2.forward.1_1", "forward(1,1)", forward(net, (1.0, 1.0))[0], 5.0, 1e-6)
    doc.check("exp2.forward.2_1", "forward(2,1)", forward(net, (2.0, 1.0))[0], 9.0, 1e-6)


# Expanded class polynomials of experiment 3 (exponents (e1, e2) -> coefficient);
# the two degree-4 cross monomials (3,1) and (1,3) are structurally absent.
SP0_COEFFS: dict[tuple[int, int], float] = {
    (4, 0): -1.0,
    (3, 0): 0.6,
    (2, 2): -2.0,
    (2, 1): 2.6,
    (2, 0): -0.98,
    (1, 2): 0.6,
    (1, 1): -0.76,
    (1, 0): 0.254,
    (0, 4): -1.0,
    (0, 3): 2.6,
    (0, 2): -2.58,
    (0, 1): 1.154,
    (0, 0): -0.1961,
}
SP1_COEFFS: dict[tuple[int, int], float] = {
    (4, 0): -1.0,
    (3, 0): 1.4,
    (2, 2): -2.0,
    (2, 1): 3.4,
    (2, 0): -2.18,
    (1, 2): 1.4,
    (1, 1): -2.36,
    (1, 0): 1.166,
    (0, 4): -1.0,
    (0, 3): 3.4,
    (0, 2): -4.58,
    (0, 1): 2.866,
    (0, 0): -0.7081,
}

# Reference forward outputs at the four dataset rows.
EXP3_OUTPUTS = (
    (-0.0000000032924, -0.0143999650938),
    (0.000000012959, -0.001599893885),
    (-0.00159995996, 0.00000018751),
    (-0.01439992034, 0.00000028523),
)


def _run_exp3(doc: ReportDocument) -> None:
    doc.note("4-example dataset, labels 3 and 8, quartic 8-node reference network")
    ds = load_table1()
    labels = sorted(set(ds.y))
    polys = [class_target_poly(ds, lab) for lab in labels]
    for name, poly, table in (("sp0", polys[0], SP0_COEFFS), ("sp1", polys[1], SP1_COEFFS)):
        worst = max(abs(poly.terms.get(e, 0.0) - table.get(e, 0.0)) for e in grlex_monomials(2, 4))
        doc.check(f"exp3.{name}.coeff_error", f"{name} worst coefficient error", worst, 0.0, 1e-12)
    doc.check(
        "exp3.sp1.value_at_row1",
        "sp1(0.1, 0.6)",
        poly_eval(polys[1], (0.1, 0.6)),
        -0.0144,
        1e-12,
    )
    net = load_reference_network(3)
    for i, (x, expected_row) in enumerate(zip(ds.X, EXP3_OUTPUTS), start=1):
        outs = forward(net, x)
        for k, expected in enumerate(expected_row):
            doc.check(
                f"exp3.forward.row{i}.out{k}",
                f"forward(row {i}) output {k}",
                outs[k],
                expected,
                1e-5,
            )
        predicted = labels[classify(net, x)]
        doc.check(f"exp3.classify.row{i}", f"classify(row {i})", predicted, ds.y[i - 1], 0.0)


def _run_exp4(doc: ReportDocument) -> None:
    doc.note("dataset: 3x3 grid over [0,1]^2 (x in {0, 0.5, 1}), targets from r = 2*x1 + 2*x1*x2 + x2^2")
    target = regression_target()
    axis = (0.0, 0.5, 1.0)
    X = np.array([(u, v) for u in axis for v in axis])
    y = poly_eval(target, X)
    ds = Dataset(X, y)
    arch = _square_arch(4, 1)
    system = build_data_system(arch, ds)
    doc.check("exp4.residuals", "residual count", system.arity, 9, 0)
    w, rep = solve_system(system)
    doc.check("exp4.converged", "solver converged", float(rep.converged), 1.0, 0.0)
    doc.info("exp4.iterations", "iterations", rep.iterations)
    doc.info("exp4.restarts", "restarts used", rep.restarts_used)
    net = with_weights(arch, w)
    worst = np.max(np.abs(forward(net, ds.X)[:, 0] - ds.y))
    doc.check("exp4.max_prediction_error", "max prediction error on the grid", worst, 0.0, 1e-4)


_EXPERIMENTS = {
    1: ("experiment 1: two-class synthesis by coefficient matching", _run_exp1),
    2: ("experiment 2: regression synthesis by coefficient matching", _run_exp2),
    3: ("experiment 3: class polynomials and reference weights", _run_exp3),
    4: ("experiment 4: regression synthesis by data matching", _run_exp4),
}


def run_experiment(exp_id: int) -> ReportDocument:
    """Run one reference experiment, at the solver's default seed, and return its report."""
    if exp_id not in _EXPERIMENTS:
        raise UsageError(f"unknown experiment {exp_id}; choose 1, 2, 3 or 4")
    title, runner = _EXPERIMENTS[exp_id]
    doc = ReportDocument(title)
    runner(doc)
    return doc
