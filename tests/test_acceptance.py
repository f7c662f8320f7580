"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line on success; pytest -v adds the
usual per-test verdicts. Frozen numeric thresholds were measured once
with the independent oracles kept alongside the development notes.
"""

import math
import time

import numpy as np
import pytest

from polynet import (
    Dataset,
    Identity,
    LayerSpec,
    MonomialPower,
    MultiPoly,
    NetworkSpec,
    PolyActivation,
    UniPoly,
    approx_error,
    build_coefficient_system,
    build_data_system,
    builtin,
    class_target_poly,
    classify,
    compress_network,
    expand_network,
    forward,
    fourier_fit,
    lsq_poly_fit,
    network_weights,
    poly_eval,
    residual_jacobian,
    solve_system,
    with_weights,
)
from polynet.experiments import (
    load_reference_network,
    load_table1,
    regression_target,
    two_class_points,
    two_class_targets,
)
from polynet.multipoly import poly_pow

# Expected outputs of the bundled quartic classifier at the four table rows,
# transcribed from the original interpreter session that produced its weights.
QUARTIC_REFERENCE_OUTPUTS = (
    (-0.0000000032924, -0.0143999650938),
    (0.000000012959, -0.001599893885),
    (-0.00159995996, 0.00000018751),
    (-0.01439992034, 0.00000028523),
)

CLASS3_TARGET = {
    (4, 0): -1.0, (3, 0): 0.6, (2, 2): -2.0, (2, 1): 2.6, (2, 0): -0.98,
    (1, 2): 0.6, (1, 1): -0.76, (1, 0): 0.254, (0, 4): -1.0, (0, 3): 2.6,
    (0, 2): -2.58, (0, 1): 1.154, (0, 0): -0.1961,
}
CLASS8_TARGET = {
    (4, 0): -1.0, (3, 0): 1.4, (2, 2): -2.0, (2, 1): 3.4, (2, 0): -2.18,
    (1, 2): 1.4, (1, 1): -2.36, (1, 0): 1.166, (0, 4): -1.0, (0, 3): 3.4,
    (0, 2): -4.58, (0, 1): 2.866, (0, 0): -0.7081,
}


def square_arch(hidden, outputs):
    first = LayerSpec(np.zeros((hidden, 3)), MonomialPower(2))
    second = LayerSpec(np.zeros((outputs, hidden + 1)))
    return NetworkSpec(2, (first, second))


def reference_vector(exp_id):
    return network_weights(load_reference_network(exp_id))


def verdict(label):
    print(f"{label}: PASS")


def test_acceptance_two_class_target_expansions():
    """Negated squared affine forms expand to the expected coefficients."""
    c0 = -1.0 * poly_pow(MultiPoly(2, {(1, 0): 1.0, (0, 1): -1.0}), 2)
    want0 = {(2, 0): -1.0, (0, 2): -1.0, (1, 1): 2.0}
    c1 = -1.0 * poly_pow(MultiPoly(2, {(0, 0): -1.0, (1, 0): 1.0, (0, 1): 1.0}), 2)
    want1 = {(2, 0): -1.0, (0, 2): -1.0, (0, 0): -1.0,
             (1, 1): -2.0, (1, 0): 2.0, (0, 1): 2.0}
    for poly, want in ((c0, want0), (c1, want1)):
        keys = set(poly.terms) | set(want)
        for e in keys:
            assert abs(poly.terms.get(e, 0.0) - want.get(e, 0.0)) <= 1e-12
    t0, t1 = two_class_targets()
    assert dict(t0.terms) == pytest.approx(want0, abs=1e-12)
    assert dict(t1.terms) == pytest.approx(want1, abs=1e-12)
    verdict("two-class target expansions")


def test_acceptance_two_class_synthesis():
    """12-residual 22-unknown system solves and classifies 40 points."""
    started = time.monotonic()
    system = build_coefficient_system(square_arch(4, 2), list(two_class_targets()))
    assert system.arity == 12
    assert system.unknowns == 22
    assert np.max(np.abs(system.residuals(reference_vector(1)))) <= 5e-3

    w, report = solve_system(system)
    assert report.converged
    assert report.iterations <= 500
    assert np.max(np.abs(system.residuals(w))) <= 1e-8

    net = with_weights(square_arch(4, 2), w)
    points, labels = two_class_points()
    hits = sum(classify(net, x) == lab for x, lab in zip(points, labels))
    assert hits == 40
    assert time.monotonic() - started < 10.0
    verdict("two-class synthesis")


def test_acceptance_regression_synthesis():
    """6-residual system solves from the all-ones start; outputs 5 and 9."""
    started = time.monotonic()
    system = build_coefficient_system(square_arch(4, 1), [regression_target()])
    assert system.arity == 6
    assert np.max(np.abs(system.residuals(reference_vector(2)))) <= 5e-3

    w, report = solve_system(system)
    assert report.converged
    assert report.restarts_used == 0

    net = with_weights(square_arch(4, 1), w)
    assert forward(net, [1.0, 1.0])[0] == pytest.approx(5.0, abs=1e-6)
    assert forward(net, [2.0, 1.0])[0] == pytest.approx(9.0, abs=1e-6)
    assert time.monotonic() - started < 5.0
    verdict("regression synthesis")


def test_acceptance_table_classification():
    """Class polynomials, bundled quartic network, and labels line up."""
    table = load_table1()
    class3 = class_target_poly(table, 3.0)
    class8 = class_target_poly(table, 8.0)
    monomials = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
    assert len(monomials) == 15
    for e in monomials:
        assert abs(class3.terms.get(e, 0.0) - CLASS3_TARGET.get(e, 0.0)) <= 1e-12
        assert abs(class8.terms.get(e, 0.0) - CLASS8_TARGET.get(e, 0.0)) <= 1e-12

    # the value at the first row is a plain product of squared distances
    assert poly_eval(class8, (0.1, 0.6)) == pytest.approx(-0.08 * 0.18, abs=1e-12)
    assert poly_eval(class8, (0.1, 0.6)) == pytest.approx(-0.0144, abs=1e-12)

    net = load_reference_network(3)
    for row, expected in zip(table.X, QUARTIC_REFERENCE_OUTPUTS):
        got = forward(net, row)
        assert got[0] == pytest.approx(expected[0], abs=1e-5)
        assert got[1] == pytest.approx(expected[1], abs=1e-5)

    labels = [3.0 if classify(net, row) == 0 else 8.0 for row in table.X]
    assert labels == [3.0, 3.0, 8.0, 8.0]
    verdict("table classification")


def test_acceptance_grid_regression():
    """Data-matching over a 9-point grid recovers the generating surface."""
    started = time.monotonic()
    target = regression_target()
    axis = (0.0, 0.5, 1.0)
    points = np.array([(x1, x2) for x1 in axis for x2 in axis])
    values = np.array([poly_eval(target, p) for p in points])
    system = build_data_system(square_arch(4, 1), Dataset(points, values))
    assert system.arity == 9

    w, report = solve_system(system)
    assert report.converged

    net = with_weights(square_arch(4, 1), w)
    worst = max(abs(forward(net, p)[0] - v) for p, v in zip(points, values))
    assert worst <= 1e-4
    assert time.monotonic() - started < 10.0
    verdict("grid regression")


def test_acceptance_expansion_matches_forward():
    """100 random networks x 20 points: expansion equals the forward pass."""
    rng = np.random.default_rng(90210)
    for _ in range(100):
        while True:
            input_dim = int(rng.integers(1, 4))
            n_layers = int(rng.integers(1, 4))
            layers = []
            dim = input_dim
            degree = 1
            for _ in range(n_layers):
                out = int(rng.integers(1, 4))
                weights = rng.uniform(-1.0, 1.0, (out, dim + 1))
                pick = int(rng.integers(0, 3))
                if pick == 0:
                    act = Identity()
                elif pick == 1:
                    k = int(rng.integers(2, 4))
                    act = MonomialPower(k)
                    degree *= k
                else:
                    act = PolyActivation(UniPoly(tuple(rng.uniform(-1.0, 1.0, 3))))
                    degree *= 2
                layers.append(LayerSpec(weights, act))
                dim = out
            if degree <= 24:
                break
        net = NetworkSpec(input_dim, tuple(layers))
        polys = expand_network(net)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, input_dim)
            out = forward(net, x)
            for k, p in enumerate(polys):
                assert abs(poly_eval(p, x) - out[k]) <= 1e-8 * (1.0 + abs(out[k]))
    verdict("expansion matches forward")


def test_acceptance_fourier_sigmoid():
    """Odd symmetry kills the cosine side; more harmonics help at x=1."""
    f = builtin("sigmoid", -8.0, 8.0)
    fs = fourier_fit(f, 8.0, 8)
    assert abs(0.5 * fs.a0 - 0.5) <= 1e-8
    assert max(abs(v) for v in fs.a) <= 1e-8

    def at_1(fs):  # the series at x = 1, summed harmonic by harmonic
        theta = math.pi / fs.half_period
        return 0.5 * fs.a0 + sum(a * math.cos(n * theta) + b * math.sin(n * theta)
                                 for n, (a, b) in enumerate(zip(fs.a, fs.b), start=1))

    truth = 1.0 / (1.0 + math.exp(-1.0))
    errs = [abs(at_1(fourier_fit(f, 8.0, n)) - truth) for n in (2, 8, 32)]
    assert errs[0] > errs[1] > errs[2]
    verdict("trigonometric sigmoid fit")


def test_acceptance_lsq_sigmoid():
    """Degree-9 grid error matches the frozen oracle; error is monotone."""
    f = builtin("sigmoid", -8.0, 8.0)
    p9 = lsq_poly_fit(f, (-8.0, 8.0), 9)
    err = approx_error(f, p9, (-8.0, 8.0))
    assert err.max_abs == pytest.approx(0.015650146292355727, rel=1e-9)

    errs = [approx_error(f, lsq_poly_fit(f, (-8.0, 8.0), d), (-8.0, 8.0)).max_abs
            for d in (3, 5, 7, 9)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    verdict("least-squares sigmoid fit")


def test_acceptance_jacobian_consistency():
    """Forward differences agree with central differences entrywise."""
    system = build_coefficient_system(square_arch(4, 1), [regression_target()])
    w = np.ones(17)
    fwd = residual_jacobian(system, w, system.residuals(w))
    central = np.zeros_like(fwd)
    for j in range(w.size):
        step = 1e-7 * (1.0 + abs(w[j]))
        wp, wm = w.copy(), w.copy()
        wp[j] += step
        wm[j] -= step
        central[:, j] = (system.residuals(wp) - system.residuals(wm)) / (2.0 * step)
    assert np.max(np.abs(fwd - central)) <= 1e-4
    verdict("jacobian consistency")


def test_acceptance_compression():
    """A duplicated 8-node teacher compresses back to 4 nodes."""
    base = load_reference_network(2)
    a, b = base.layers[0].weights, base.layers[1].weights
    a8 = np.vstack([a, a])
    b8 = np.concatenate([[b[0, 0]], 0.5 * b[0, 1:], 0.5 * b[0, 1:]])[None, :]
    teacher = NetworkSpec(2, (LayerSpec(a8, MonomialPower(2)), LayerSpec(b8)))

    student, report = compress_network(teacher, square_arch(4, 1), 2)
    assert report.converged
    assert report.final_residual_norm <= 1e-6

    axis = np.linspace(-1.0, 1.0, 21)
    gap = max(abs(forward(student, (x1, x2))[0] - forward(teacher, (x1, x2))[0])
              for x1 in axis for x2 in axis)
    assert gap <= 1e-4
    verdict("compression")
