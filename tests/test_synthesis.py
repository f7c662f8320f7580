"""Weight synthesis: target construction, residual systems, the damped solver."""

import io
import re

import numpy as np
import pytest

from polynet import synthesis
from polynet import (
    Dataset,
    DimensionError,
    Identity,
    LayerSpec,
    MonomialPower,
    MultiPoly,
    NetworkSpec,
    PolyActivation,
    SolveReport,
    SolverConfig,
    StructuralError,
    UniPoly,
    UsageError,
    build_coefficient_system,
    build_data_system,
    class_target_poly,
    coefficient,
    compress_network,
    expand_network,
    expansion_degree,
    forward,
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
from polynet.multipoly import grlex_monomials

# Class polynomials for the 4-example table, derived independently with pencil
# and paper from the product-of-negated-squared-distances construction.
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

TRACE_LINE = re.compile(
    r"^\d+, \d\.\d{9}e[+-]\d{2,3}, \d\.\d{3}e[+-]\d{2,3}, \d\.\d{9}e[+-]\d{2,3}$"
)


def square_arch(hidden, outputs):
    first = LayerSpec(np.zeros((hidden, 3)), MonomialPower(2))
    second = LayerSpec(np.zeros((outputs, hidden + 1)))
    return NetworkSpec(2, (first, second))


def degree4_monomials():
    return [(i, j) for i in range(5) for j in range(5) if i + j <= 4]


def reference_vector(exp_id):
    return network_weights(load_reference_network(exp_id))


def test_class_target_polys_match_hand_derivation():
    table = load_table1()
    class3 = class_target_poly(table, 3.0)
    class8 = class_target_poly(table, 8.0)
    for e in degree4_monomials():
        assert coefficient(class3, e) == pytest.approx(CLASS3_TARGET.get(e, 0.0), abs=1e-12)
        assert coefficient(class8, e) == pytest.approx(CLASS8_TARGET.get(e, 0.0), abs=1e-12)
    # cross terms x1^3 x2 and x1 x2^3 cancel structurally
    assert coefficient(class3, (3, 1)) == 0.0
    assert coefficient(class3, (1, 3)) == 0.0


def test_class_target_value_is_a_product_of_negated_squares():
    table = load_table1()
    class8 = class_target_poly(table, 8.0)
    # squared distances from (0.1, 0.6) to the two label-8 rows
    d1 = 0.2 ** 2 + 0.2 ** 2
    d2 = 0.3 ** 2 + 0.3 ** 2
    assert poly_eval(class8, (0.1, 0.6)) == pytest.approx(-d1 * d2, abs=1e-12)
    assert poly_eval(class8, (0.1, 0.6)) == pytest.approx(-0.0144, abs=1e-12)


def test_class_target_trivial_cases():
    ds = Dataset(np.array([[0.0]]), np.array([5.0]))
    p = class_target_poly(ds, 5.0)
    assert dict(p.terms) == {(2,): -1.0}
    with pytest.raises(UsageError, match="no examples with label"):
        class_target_poly(ds, 7.0)


def test_unknown_layout_round_trip():
    rng = np.random.default_rng(31)
    for hidden, outputs, expected in ((4, 2, 22), (4, 1, 17)):
        arch = square_arch(hidden, outputs)
        assert network_weights(arch).size == expected
        w = rng.uniform(-1.0, 1.0, expected)
        net = with_weights(arch, w)
        assert np.array_equal(network_weights(net), w)
        for a, b in zip(net.layers, arch.layers):
            assert type(a.activation) is type(b.activation)
        with pytest.raises(DimensionError, match=f"expected \\({expected},\\)"):
            with_weights(arch, w[:-1])


def test_coefficient_system_shapes_and_order():
    two_out = build_coefficient_system(square_arch(4, 2), list(two_class_targets()))
    assert two_out.arity == 12
    assert two_out.unknowns == 22

    one_out = build_coefficient_system(square_arch(4, 1), [regression_target()])
    assert one_out.arity == 6
    # the square net expands to 0 at zero weights, so the residuals are minus
    # the target coefficients in the order 1, x2, x1, x2^2, x1*x2, x1^2
    assert np.array_equal(one_out.residuals(np.zeros(17)), [0, 0, -2, -1, -2, 0])
    # output-major: the class-0 block, then the class-1 block
    assert np.array_equal(
        two_out.residuals(np.zeros(22)), [0, 0, 0, 1, -2, 1] + [1, -2, -2, 1, 2, 1]
    )


def test_coefficient_system_validation():
    arch = square_arch(4, 1)
    with pytest.raises(UsageError, match="degree 4.*degree 2"):
        build_coefficient_system(arch, [MultiPoly(2, {(4, 0): 1.0})])
    with pytest.raises(UsageError, match="2 targets for 1 outputs"):
        build_coefficient_system(arch, list(two_class_targets()))


def test_published_weights_nearly_solve_the_coefficient_systems():
    two_out = build_coefficient_system(square_arch(4, 2), list(two_class_targets()))
    assert np.max(np.abs(two_out.residuals(reference_vector(1)))) <= 5e-3

    one_out = build_coefficient_system(square_arch(4, 1), [regression_target()])
    assert np.max(np.abs(one_out.residuals(reference_vector(2)))) <= 5e-3


def test_data_system_shapes_and_reference_fit():
    target = regression_target()
    pts = np.array([[0, 0], [0.5, 0], [1, 0], [0, 1], [0.5, 0.5], [1, 1]], dtype=float)
    ys = np.array([poly_eval(target, p) for p in pts])
    system = build_data_system(square_arch(4, 1), Dataset(pts, ys))
    assert system.arity == 6
    assert np.max(np.abs(system.residuals(reference_vector(2)))) <= 5e-3


def test_data_system_residuals_are_per_row_forward_bit_for_bit():
    rng = np.random.default_rng(5)
    first = LayerSpec(np.zeros((3, 3)), PolyActivation(UniPoly((0.1, -0.4, 0.7))))
    arch = NetworkSpec(2, (first, LayerSpec(np.zeros((1, 4)), MonomialPower(2))))
    ds = Dataset(rng.uniform(-1.0, 1.0, (25, 2)), rng.uniform(-1.0, 1.0, 25))
    system = build_data_system(arch, ds)
    for _ in range(5):
        w = rng.uniform(-1.0, 1.0, system.unknowns)
        net = with_weights(arch, w)
        want = np.array([forward(net, x)[0] for x in ds.X]) - ds.y
        assert np.array_equal(system.residuals(w).view(np.int64), want.view(np.int64))


def test_data_system_requires_single_output():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.0, 5.0]))
    with pytest.raises(UsageError, match="single-output"):
        build_data_system(square_arch(4, 2), ds)


def test_data_system_bias_only_fit():
    arch = NetworkSpec(1, (LayerSpec(np.zeros((1, 2))),))
    system = build_data_system(arch, Dataset(np.array([[0.0]]), np.array([3.0])))
    w, report = solve_system(system, SolverConfig(start=(0.0, 0.0)))
    assert report.converged
    net = with_weights(arch, w)
    assert forward(net, [0.0])[0] == pytest.approx(3.0, abs=1e-8)


def test_forward_difference_jacobian_matches_central():
    system = build_coefficient_system(square_arch(4, 1), [regression_target()])
    w = np.ones(17)
    fwd = residual_jacobian(system, w, system.residuals(w))
    assert fwd.shape == (6, 17)
    h = 1e-7
    central = np.zeros_like(fwd)
    for j in range(17):
        step = h * (1.0 + abs(w[j]))
        wp, wm = w.copy(), w.copy()
        wp[j] += step
        wm[j] -= step
        central[:, j] = (system.residuals(wp) - system.residuals(wm)) / (2.0 * step)
    assert np.max(np.abs(fwd - central)) <= 1e-4


def test_solver_stops_immediately_at_a_root():
    arch = square_arch(4, 1)
    w_star = np.arange(1, 18, dtype=float) / 10.0
    target = expand_network(with_weights(arch, w_star))[0]
    system = build_coefficient_system(arch, [target])
    w, report = solve_system(system, SolverConfig(start=tuple(w_star)))
    assert report.converged
    assert report.iterations == 0
    assert report.restarts_used == 0
    assert np.array_equal(w, w_star)


def test_zero_last_layer_gives_one_equation_per_output():
    first = LayerSpec(np.zeros((2, 3)), MonomialPower(2))
    last = LayerSpec(np.zeros((1, 3)), PolyActivation(UniPoly((0.0,))))
    system = build_coefficient_system(NetworkSpec(2, (first, last)), [MultiPoly.zero(2)])
    assert system.arity == 1
    _, report = solve_system(system)
    assert report.converged
    assert report.final_residual_norm == 0.0


def test_solver_converges_on_the_regression_system():
    system = build_coefficient_system(square_arch(4, 1), [regression_target()])
    w, report = solve_system(system)
    assert report.converged
    assert report.restarts_used == 0
    assert report.iterations <= 500
    assert report.final_residual_norm <= 1e-10
    # certificate: the returned vector really satisfies the system
    assert np.max(np.abs(system.residuals(w))) <= 1e-9
    # and the synthesized network reproduces the target function
    arch = square_arch(4, 1)
    net = with_weights(arch, w)
    target = regression_target()
    for x in np.array([[1, 1], [2, 1], [-0.5, 0.7], [0, 0]], dtype=float):
        want = poly_eval(target, x)
        assert forward(net, x)[0] == pytest.approx(want, abs=1e-6 * (1 + abs(want)))


def test_solver_converges_on_the_two_class_system():
    system = build_coefficient_system(square_arch(4, 2), list(two_class_targets()))
    w, report = solve_system(system)
    assert report.converged
    assert report.iterations <= 500
    assert report.restarts_used <= 16
    assert report.final_residual_norm <= 1e-10
    assert np.max(np.abs(system.residuals(w))) <= 1e-9


def test_solver_is_deterministic():
    system = build_coefficient_system(square_arch(4, 2), list(two_class_targets()))
    w1, r1 = solve_system(system)
    w2, r2 = solve_system(system)
    assert w1.tobytes() == w2.tobytes()
    assert r1 == r2


def test_data_solve_golden_bits():
    # recorded before the Jacobian was batched over weight vectors, when it
    # called system.residuals once per column; the first three starts stall
    rng = np.random.default_rng(2024)
    X = rng.uniform(-1.0, 1.0, (12, 2))
    y = (X[:, 0] - 0.5 * X[:, 1]) ** 2 - 2.0 * (0.5 + X[:, 1]) ** 2 + 0.75
    arch = NetworkSpec(2, (LayerSpec(np.zeros((2, 3)), MonomialPower(2)), LayerSpec(np.zeros((1, 3)))))
    w, report = solve_system(build_data_system(arch, Dataset(X, y)))
    assert [c.hex() for c in w] == [
        "-0x1.5ae99cba741b1p-1", "-0x1.62b9a2f6b4fa4p-4", "-0x1.4fd3cfa2be32dp+0",
        "-0x1.0cce68e163491p-4", "-0x1.06e2d0f15f86bp+0", "0x1.875e6d720db99p-2",
        "0x1.8000000000838p-1", "-0x1.191b6ee402702p+0", "0x1.e98703c80439bp-1",
    ]
    assert report == SolveReport(True, 10, 2.9454216843305403e-13, 3)


def test_coefficient_solve_golden_bits():
    # experiment 2 from all ones, recorded when every residual expanded a
    # rebuilt network one weight vector at a time
    w, report = solve_system(build_coefficient_system(square_arch(4, 1), [regression_target()]))
    assert [c.hex() for c in w] == [
        "-0x1.224e134c06b62p-2", "0x1.bfb5b2a0aa069p-1", "0x1.0f5f501cf5f64p+0", "0x1.163aee4bebf07p+1",
        "0x1.2268d6d24381ep-1", "0x1.2a43515114710p-5", "0x1.80affbfeaef11p-4", "0x1.c680d3f261c6ap-1",
        "0x1.a9af886b70d8dp-1", "0x1.4bba856f0f581p-1", "0x1.5e9e04984da58p+0", "-0x1.173d0342560e5p-4",
        "-0x1.952135f5ff097p+2", "0x1.2f5fe2f2d1766p-1", "0x1.63b77d8c35e54p+0", "0x1.f1035d18cb853p-2",
        "-0x1.5e14a19977583p-1",
    ]
    assert report == SolveReport(True, 45, 6.972200594645983e-14, 0)


def random_arch(rng, d, depth, outputs, max_degree):
    layers, fan_in = [], d
    for i in range(depth):
        width = outputs if i == depth - 1 else int(rng.integers(1, 4))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            act = Identity()
        elif kind == 1:
            act = MonomialPower(int(rng.integers(1, max_degree + 1)))
        else:
            act = PolyActivation(UniPoly(tuple(rng.uniform(-1.0, 1.0, int(rng.integers(1, max_degree + 2))))))
        layers.append(LayerSpec(np.zeros((width, fan_in + 1)), act))
        fan_in = width
    return NetworkSpec(d, tuple(layers))


def per_column_jacobian(residual, w, r0):
    """The forward-difference scheme one column at a time."""
    J = np.empty((r0.size, w.size))
    for j in range(w.size):
        wj = w.copy()
        h = synthesis.FD_STEP * (1.0 + abs(w[j]))
        wj[j] = w[j] + h
        J[:, j] = (residual(wj) - r0) / h
    return J


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_batched_jacobian_matches_per_column_data_residuals():
    rng = np.random.default_rng(8)
    for _ in range(200):
        # a single row is where a column-major [1, x] would round differently
        d, rows = int(rng.integers(1, 4)), 1 if rng.random() < 0.3 else int(rng.integers(2, 40))
        arch = random_arch(rng, d, int(rng.integers(1, 4)), 1, 3)
        ds = Dataset(rng.uniform(-1.0, 1.0, (rows, d)), rng.uniform(-1.0, 1.0, rows))
        system = build_data_system(arch, ds)
        w = rng.uniform(-1.0, 1.0, system.unknowns)
        r0 = system.residuals(w)
        J = residual_jacobian(system, w, r0)
        assert J.flags.c_contiguous
        assert_same_bits(J, per_column_jacobian(system.residuals, w, r0))
        # and the residual as forward computes it on a rebuilt network
        assert_same_bits(J, per_column_jacobian(lambda v: forward(with_weights(arch, v), ds.X)[:, 0] - ds.y, w, r0))


def coefficient_residuals(arch, targets, w):
    """The coefficient residual read off a full expansion of the rebuilt network."""
    monomials = grlex_monomials(arch.input_dim, expansion_degree(arch))
    polys = expand_network(with_weights(arch, w))
    return np.array([p.terms.get(e, 0.0) - t.terms.get(e, 0.0) for p, t in zip(polys, targets) for e in monomials])


def test_batched_jacobian_matches_per_column_coefficient_residuals():
    rng = np.random.default_rng(9)
    for _ in range(12):
        d = int(rng.integers(1, 3))
        arch = random_arch(rng, d, int(rng.integers(1, 4)), int(rng.integers(1, 3)), 2)
        teacher = with_weights(arch, rng.uniform(-1.0, 1.0, network_weights(arch).size))
        targets = expand_network(teacher)
        system = build_coefficient_system(arch, targets)
        w = rng.uniform(-1.0, 1.0, system.unknowns)
        r0 = system.residuals(w)
        assert_same_bits(r0, coefficient_residuals(arch, targets, w))
        J = residual_jacobian(system, w, r0)
        assert J.flags.c_contiguous
        assert_same_bits(J, per_column_jacobian(system.residuals, w, r0))
        # and the residual as expand_network computes it on a rebuilt network
        assert_same_bits(J, per_column_jacobian(lambda v: coefficient_residuals(arch, targets, v), w, r0))


def chunk_test_system(kind):
    """(builder, weights) of a system whose weight sets cost 28 (data) or
    120 (coefficient) elements of CHUNK_ELEMENTS each."""
    if kind == "data":
        rng = np.random.default_rng(10)
        arch = random_arch(rng, 2, 3, 1, 3)  # 15 unknowns, widest layer input 4
        ds = Dataset(rng.uniform(-1.0, 1.0, (7, 2)), rng.uniform(-1.0, 1.0, 7))
        return lambda: build_data_system(arch, ds), rng.uniform(-1.0, 1.0, network_weights(arch).size)
    rng = np.random.default_rng(11)
    first = LayerSpec(np.zeros((3, 3)), PolyActivation(UniPoly((0.5, -1.0, 0.25))))
    arch = NetworkSpec(2, (first, LayerSpec(np.zeros((2, 4)), MonomialPower(2))))  # 2 x 15 residuals, 17 unknowns
    targets = expand_network(with_weights(arch, rng.uniform(-1.0, 1.0, 17)))
    return lambda: build_coefficient_system(arch, targets), rng.uniform(-1.0, 1.0, 17)


# budgets that give chunks of 1, 2 and 5 weight sets
@pytest.mark.parametrize(
    "kind, budget, sets",
    [pytest.param("data", b, n, id=str(b)) for b, n in ((1, 1), (60, 2), (150, 5))]
    + [pytest.param("coefficient", b, n, id=f"coefficient-{b}") for b, n in ((1, 1), (240, 2), (600, 5))],
)
def test_data_jacobian_is_the_same_in_chunks(monkeypatch, kind, budget, sets):
    build, w = chunk_test_system(kind)
    whole = build()
    J = residual_jacobian(whole, w, whole.residuals(w))
    monkeypatch.setattr(synthesis, "CHUNK_ELEMENTS", budget)
    chunked = build()
    stacked = []
    run_layers = synthesis._run_layers
    monkeypatch.setattr(synthesis, "_run_layers", lambda layers, h: stacked.append(len(h)) or run_layers(layers, h))
    assert_same_bits(residual_jacobian(chunked, w, chunked.residuals(w)), J)
    assert max(stacked) == sets


def test_non_finite_weights_raise_in_both_system_kinds():
    arch = square_arch(4, 1)
    ds = Dataset(np.array([[0.0, 1.0], [1.0, 0.5]]), np.array([1.0, 2.0]))
    w = np.ones(17)
    w[5] = np.nan
    for system in (build_data_system(arch, ds), build_coefficient_system(arch, [regression_target()])):
        with pytest.raises(StructuralError, match="weights must be finite"):
            system.residuals(w)


def test_solver_reports_failure_honestly():
    system = build_coefficient_system(square_arch(4, 1), [regression_target()])
    w, report = solve_system(system, SolverConfig(max_iters=1))
    assert not report.converged
    assert report.restarts_used == 16
    assert w.shape == (17,)
    assert np.isfinite(report.final_residual_norm)


def test_initial_vector_length_is_checked():
    system = build_coefficient_system(square_arch(4, 1), [regression_target()])
    with pytest.raises(DimensionError, match="expected"):
        solve_system(system, SolverConfig(start=(1.0, 2.0)))


def test_trace_stream_format():
    system = build_coefficient_system(square_arch(4, 1), [regression_target()])
    buf = io.StringIO()
    w, report = solve_system(system, trace=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == report.iterations
    for line in lines:
        assert TRACE_LINE.match(line), line
    assert lines[0].startswith("1, ")


def duplicated_teacher():
    """8-node network built by duplicating the 4-node regression solution."""
    base = load_reference_network(2)
    a, b = base.layers[0].weights, base.layers[1].weights
    a8 = np.vstack([a, a])
    b8 = np.concatenate([[b[0, 0]], 0.5 * b[0, 1:], 0.5 * b[0, 1:]])[None, :]
    return NetworkSpec(2, (LayerSpec(a8, MonomialPower(2)), LayerSpec(b8)))


def test_duplicated_teacher_matches_its_base():
    teacher = duplicated_teacher()
    base = load_reference_network(2)
    for x in np.array([[0.3, -0.7], [1, 1], [-1, 0.5]]):
        assert forward(teacher, x)[0] == pytest.approx(forward(base, x)[0], abs=1e-12)


def test_compress_identity_is_a_fixed_point():
    teacher = load_reference_network(2)
    w = network_weights(teacher)
    student, report = compress_network(teacher, teacher, 2, SolverConfig(start=tuple(w)))
    assert report.converged
    assert report.iterations == 0
    assert np.array_equal(network_weights(student), w)


def test_compress_eight_nodes_to_four():
    teacher = duplicated_teacher()
    student, report = compress_network(teacher, square_arch(4, 1), 2)
    assert report.converged
    assert report.final_residual_norm <= 1e-6
    axis = np.linspace(-1.0, 1.0, 21)
    gap = max(
        abs(forward(student, (x1, x2))[0] - forward(teacher, (x1, x2))[0])
        for x1 in axis for x2 in axis
    )
    assert gap <= 1e-4


def test_compress_rejects_too_shallow_students():
    teacher = load_reference_network(2)
    student = NetworkSpec(2, (LayerSpec(np.zeros((1, 3))),))
    with pytest.raises(UsageError, match="degree 1, below the requested 2"):
        compress_network(teacher, student, 2)
    # and students that do not fit the teacher, or a negative degree
    wrong_inputs = NetworkSpec(3, (LayerSpec(np.zeros((2, 4)), MonomialPower(2)), LayerSpec(np.zeros((1, 3)))))
    with pytest.raises(DimensionError, match="target 0 has 2 variables, architecture has 3"):
        compress_network(teacher, wrong_inputs, 2)
    with pytest.raises(UsageError, match="1 targets for 2 outputs"):
        compress_network(teacher, square_arch(4, 2), 2)
    with pytest.raises(UsageError, match="non-negative"):
        compress_network(teacher, square_arch(4, 1), -1)


def test_two_class_points_layout():
    points, labels = two_class_points()
    assert points.shape == (40, 2)
    assert labels.shape == (40,)
    assert set(labels.tolist()) == {0, 1}
    # generator 1 lies on x2 = x1, generator 2 on x2 = 1 - x1
    for (x1, x2), lab in zip(points, labels):
        assert x2 == pytest.approx(x1 if lab == 0 else 1.0 - x1)
