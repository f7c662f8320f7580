"""Weight synthesis: target construction, residual systems, the damped solver."""

import io
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from polynet import multipoly, network, synthesis
from polynet import (
    ConfigurationError,
    Dataset,
    DimensionError,
    Identity,
    LayerSpec,
    MonomialPower,
    MultiPoly,
    NetworkSpec,
    PolyActivation,
    ResidualSystem,
    SolveReport,
    StructuralError,
    UniPoly,
    UsageError,
    build_coefficient_system,
    build_data_system,
    class_target_poly,
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
    r"^\d+, \d+, \d\.\d{9}e[+-]\d{2,3}, \d\.\d{3}e[+-]\d{2,3}, \d\.\d{9}e[+-]\d{2,3}$"
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
        assert class3.terms.get(e, 0.0) == pytest.approx(CLASS3_TARGET.get(e, 0.0), abs=1e-12)
        assert class8.terms.get(e, 0.0) == pytest.approx(CLASS8_TARGET.get(e, 0.0), abs=1e-12)
    # cross terms x1^3 x2 and x1 x2^3 cancel structurally
    assert class3.terms.get((3, 1), 0.0) == 0.0
    assert class3.terms.get((1, 3), 0.0) == 0.0


# [(exponents, coefficient.hex())] of the table-1 class polynomials, in dict order
CLASS3_TERM_BITS = [
    ((0, 0), "-0x1.919ce075f6fd1p-3"), ((1, 0), "0x1.04189374bc6a8p-2"), ((2, 0), "-0x1.f5c28f5c28f5cp-1"),
    ((0, 1), "0x1.276c8b4395810p+0"), ((0, 2), "-0x1.4a3d70a3d70a3p+1"), ((3, 0), "0x1.3333333333334p-1"),
    ((1, 1), "-0x1.851eb851eb852p-1"), ((1, 2), "0x1.3333333333334p-1"), ((4, 0), "-0x1.0000000000000p+0"),
    ((2, 1), "0x1.4ccccccccccccp+1"), ((2, 2), "-0x1.0000000000000p+1"), ((0, 3), "0x1.4ccccccccccccp+1"),
    ((0, 4), "-0x1.0000000000000p+0"),
]
CLASS8_TERM_BITS = [
    ((0, 0), "-0x1.6a8c154c985f2p-1"), ((1, 0), "0x1.2a7ef9db22d0fp+0"), ((2, 0), "-0x1.170a3d70a3d71p+1"),
    ((0, 1), "0x1.6ed916872b022p+1"), ((0, 2), "-0x1.251eb851eb852p+2"), ((3, 0), "0x1.6666666666666p+0"),
    ((1, 1), "-0x1.2e147ae147ae2p+1"), ((1, 2), "0x1.6666666666666p+0"), ((4, 0), "-0x1.0000000000000p+0"),
    ((2, 1), "0x1.b333333333334p+1"), ((2, 2), "-0x1.0000000000000p+1"), ((0, 3), "0x1.b333333333334p+1"),
    ((0, 4), "-0x1.0000000000000p+0"),
]


def test_class_target_poly_golden_bits():
    table = load_table1()
    for label, expected in ((3.0, CLASS3_TERM_BITS), (8.0, CLASS8_TERM_BITS)):
        p = class_target_poly(table, label)
        assert [(e, c.hex()) for e, c in p.terms.items()] == expected


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


class ProductTaken(Exception):
    pass


def test_class_target_poly_refuses_oversized_products_up_front(monkeypatch):
    # n examples of a class in d inputs multiply out to up to C(d + 2n, d) terms;
    # the count is checked before the first polynomial product
    def no_products(p, q):
        raise ProductTaken

    monkeypatch.setattr(multipoly, "poly_mul", no_products)
    rng = np.random.default_rng(14)
    for n, error in ((99, ProductTaken), (100, ConfigurationError)):  # C(200, 2) = 19900, C(202, 2) = 20301
        with pytest.raises(error):
            class_target_poly(Dataset(rng.uniform(-1.0, 1.0, (n, 2)), np.zeros(n)), 0.0)
    with pytest.raises(ConfigurationError, match=r"C\(83, 3\) = 91881 terms"):  # 40 examples in 3 inputs
        class_target_poly(Dataset(rng.uniform(-1.0, 1.0, (40, 3)), np.zeros(40)), 0.0)


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
    w, report = solve_system(system)
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


def test_coefficient_jacobian_rank_is_the_neurovariety_dimension():
    # d = 2, 4 power-4 hidden units, 2 outputs: 22 weights, 30 coefficients.  Scaling a
    # hidden unit's weights by t and its output weights by t^-4 leaves the expansion
    # alone, so the rank is 22 - 4 (Kileel, Trager and Bruna, arXiv:1905.12207).
    # Forward differences leave the null directions near 1e-8 of the largest
    # singular value, and the smallest kept one is above 1e-3 of it.
    arch = NetworkSpec(2, (LayerSpec(np.zeros((4, 3)), MonomialPower(4)), LayerSpec(np.zeros((2, 5)))))
    system = build_coefficient_system(arch, [MultiPoly(2), MultiPoly(2)])
    assert (system.unknowns, system.arity) == (22, 30)
    for seed in range(3):
        w = np.random.default_rng(seed).uniform(-1.0, 1.0, 22)
        sv = np.linalg.svd(residual_jacobian(system, w, system.residuals(w)), compute_uv=False)
        assert np.count_nonzero(sv > 1e-6 * sv[0]) == 18


def test_solver_stops_immediately_at_a_root():
    arch = square_arch(4, 1)
    w_star = np.ones(17)  # the first start
    target = expand_network(with_weights(arch, w_star))[0]
    system = build_coefficient_system(arch, [target])
    w, report = solve_system(system)
    assert report.converged
    assert report.iterations == 0
    assert report.restarts_used == 0
    assert np.array_equal(w, w_star)


def test_zero_last_layer_gives_one_equation_per_output():
    first = LayerSpec(np.zeros((2, 3)), MonomialPower(2))
    last = LayerSpec(np.zeros((1, 3)), PolyActivation(UniPoly((0.0,))))
    system = build_coefficient_system(NetworkSpec(2, (first, last)), [MultiPoly(2)])
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


def test_converged_data_fit_expands_to_the_least_squares_polynomial():
    # With n rows whose Vandermonde matrix over the C(d + 2, d) monomials of degree
    # <= 2 has full column rank, a square net that fits the rows exactly expands to
    # the one polynomial of degree <= 2 through them, the least-squares solution.
    # Experiment 4's grid comes first, then seeded square teachers in 2 and 3 inputs.
    axis = (0.0, 0.5, 1.0)
    grid = np.array([(u, v) for u in axis for v in axis])
    cases = [(square_arch(4, 1), grid, poly_eval(regression_target(), grid))]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        d = 2 + seed % 2
        arch = NetworkSpec(d, (LayerSpec(np.zeros((d + 2, d + 1)), MonomialPower(2)), LayerSpec(np.zeros((1, d + 3)))))
        teacher = with_weights(arch, rng.uniform(-1.0, 1.0, network_weights(arch).size))
        X = rng.uniform(-1.0, 1.0, (math.comb(d + 2, d) + 4, d))
        cases.append((arch, X, forward(teacher, X)[:, 0]))
    for arch, X, y in cases:
        monomials = grlex_monomials(arch.input_dim, 2)
        V = np.array([[math.prod(x**k for x, k in zip(row, e)) for e in monomials] for row in X])
        assert np.linalg.matrix_rank(V) == len(monomials)
        w, report = solve_system(build_data_system(arch, Dataset(X, y)))
        assert report.converged
        (poly,) = expand_network(with_weights(arch, w))
        got = np.array([poly.terms.get(e, 0.0) for e in monomials])
        assert np.max(np.abs(got - np.linalg.lstsq(V, y, rcond=None)[0])) <= 1e-9  # measured 2.8e-11


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


def random_arch(rng, d, depth, outputs, max_degree, max_width=3):
    layers, fan_in = [], d
    for i in range(depth):
        width = outputs if i == depth - 1 else int(rng.integers(1, max_width + 1))
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


def stacked_only(system):
    """The system without its perturbed_fn, so that residual_jacobian runs the
    perturbed sets as one stack through batch_fn."""
    return ResidualSystem(system.unknowns, system.arity, system.batch_fn)


def test_cone_jacobian_is_the_stacked_pass_bit_for_bit():
    # The data system's Jacobian runs each weight's cone: the stepped rows of
    # its layer at their own places, then the later layers.  Layers up to
    # (12, 13), one-row datasets, exact-zero weights, and 1e100 weights whose
    # powers overflow to inf and whose sums of opposite infs give nan.
    rng = np.random.default_rng(33)
    widths, overflowed = set(), []
    for _ in range(150):
        d, rows = int(rng.integers(1, 12)), 1 if rng.random() < 0.2 else int(rng.integers(2, 40))
        arch = random_arch(rng, d, int(rng.integers(1, 5)), 1, 3, max_width=12)
        widths.update(layer.out_nodes for layer in arch.layers)
        ds = Dataset(rng.uniform(-1.0, 1.0, (rows, d)), rng.uniform(-1.0, 1.0, rows))
        system = build_data_system(arch, ds)
        assert system.perturbed_fn is not None
        w = rng.uniform(-1.0, 1.0, system.unknowns)
        w[rng.random(w.size) < 0.2] = 0.0
        if rng.random() < 0.25:
            w *= 1e100
        with np.errstate(over="ignore", invalid="ignore"):
            r0 = system.residuals(w)
            J = residual_jacobian(system, w, r0)
            assert J.flags.c_contiguous
            assert_same_bits(J, residual_jacobian(stacked_only(system), w, r0))
            assert_same_bits(J, per_column_jacobian(system.residuals, w, r0))
        overflowed.append((np.isinf(J).any(), np.isnan(J).any()))
    assert widths == set(range(1, 13))
    assert np.all(np.any(overflowed, axis=0))


def test_cone_jacobian_refuses_non_finite_weights():
    arch = square_arch(4, 1)
    system = build_data_system(arch, Dataset(np.array([[0.0, 1.0], [1.0, 0.5]]), np.array([1.0, 2.0])))
    coefficient = build_coefficient_system(arch, [regression_target()])
    # the largest float steps past it to inf, and -inf + its inf step is nan
    for bad in (np.nan, np.inf, -np.inf, np.finfo(float).max):
        w = np.ones(17)
        w[5] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StructuralError, match="weights must be finite"):
                residual_jacobian(system, w, np.zeros(system.arity))
        # and under numpy's default error handling, with its warnings raised as errors:
        # forming the stepped weights warns of nothing, and the system refuses them
        for refusing in (system, coefficient):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(StructuralError, match="weights must be finite"):
                    residual_jacobian(refusing, w, np.zeros(refusing.arity))


def test_data_system_overflows_silently_for_direct_callers():
    # residuals, batch_fn on a stack and residual_jacobian each hold their own
    # np.errstate, and perturbed_fn runs in residual_jacobian's, so a caller
    # outside the solver sees inf and nan but no warning.  At 1e100 weights the
    # fourth powers overflow to inf, and the rows where both hidden units overflow
    # sum opposite infs to nan.
    arch = NetworkSpec(2, (LayerSpec(np.zeros((2, 3)), MonomialPower(4)), LayerSpec(np.zeros((1, 3)))))
    system = build_data_system(arch, Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]]), np.ones(4)))
    w = 1e100 * np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, -1.0])  # h = 1e100 x, out = h1^4 - h2^4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r0 = system.residuals(w)
        R = system.batch_fn(np.stack((w, 0.5 * w, -w)))
        J = residual_jacobian(system, w, r0)
    assert r0[[0, 1, 3]].tolist() == [np.inf, -np.inf, -1.0] and np.isnan(r0[2])
    assert np.isinf(R).any() and np.isnan(R).any()
    assert np.isnan(J).any() and np.isfinite(J[3]).all()


def test_jacobian_checks_the_residual_vector():
    # r0 is read as a float vector of one entry per residual; one entry would
    # broadcast to every row, and a list has no [:, None]
    rng = np.random.default_rng(34)
    arch = square_arch(4, 1)
    ds = Dataset(rng.uniform(-1.0, 1.0, (6, 2)), rng.uniform(-1.0, 1.0, 6))
    for system in (build_data_system(arch, ds), build_coefficient_system(arch, [regression_target()])):
        w = rng.uniform(-1.0, 1.0, system.unknowns)
        r0 = system.residuals(w)
        assert_same_bits(residual_jacobian(system, w, r0.tolist()), residual_jacobian(system, w, r0))
        for bad in (r0[:1], r0[:-1], np.append(r0, 0.0), r0[:, None], r0[:-1].tolist()):
            with pytest.raises(DimensionError, match="residual vector has shape"):
                residual_jacobian(system, w, bad)


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


def spy_on_the_tape(monkeypatch):
    """Lists that fill with the weight sets of each tape replay, one (k, unknowns)
    stack per call of any route (a stack, a Jacobian's sets filled in place,
    one set), and of each set run alone on the dict ring instead."""
    replays, fallbacks = [], []
    tape_class = synthesis._CoefficientTape
    call, perturbed, one_set, ring = tape_class.__call__, tape_class.perturbed, tape_class.one_set, tape_class.ring

    def spy_call(tape, Ws):
        replays.append(Ws.copy())
        return call(tape, Ws)

    def spy_perturbed(tape, w, stepped, lo, hi):
        # sets lo..hi-1: w with one weight stepped each
        sets = np.tile(w, (hi - lo, 1))
        sets[np.arange(hi - lo), np.arange(lo, hi)] = stepped[lo:hi]
        replays.append(sets)
        return perturbed(tape, w, stepped, lo, hi)

    def spy_one_set(tape, w):
        replays.append(w[None].copy())
        return one_set(tape, w)

    def spy_ring(tape, w):
        fallbacks.append(w.copy())
        return ring(tape, w)

    monkeypatch.setattr(tape_class, "__call__", spy_call)
    monkeypatch.setattr(tape_class, "perturbed", spy_perturbed)
    monkeypatch.setattr(tape_class, "one_set", spy_one_set)
    monkeypatch.setattr(tape_class, "ring", spy_ring)
    return replays, fallbacks


def test_coefficient_jacobian_keeps_its_bits_at_exact_zero_weights(monkeypatch):
    # A coefficient that is exactly 0 drops its term from that weight set's own
    # expansion, which changes the order of its later sums; the tape was recorded
    # at nonzero weights, so every set holding a zero weight must run on the dict
    # ring alone, and keep the bits of its own evaluation.
    rng = np.random.default_rng(12)
    replays, fallbacks = spy_on_the_tape(monkeypatch)
    for _ in range(150):
        d = int(rng.integers(1, 3))
        arch = random_arch(rng, d, int(rng.integers(1, 4)), int(rng.integers(1, 3)), 2)
        targets = expand_network(with_weights(arch, rng.uniform(-1.0, 1.0, network_weights(arch).size)))
        system = build_coefficient_system(arch, targets)
        w = rng.uniform(-1.0, 1.0, system.unknowns)
        w[rng.random(w.size) < 0.2] = 0.0
        replays.clear()
        fallbacks.clear()
        r0 = system.residuals(w)
        assert_same_bits(r0, coefficient_residuals(arch, targets, w))
        J = residual_jacobian(system, w, r0)
        assert_same_bits(J, per_column_jacobian(system.residuals, w, r0))
        assert_same_bits(J, per_column_jacobian(lambda v: coefficient_residuals(arch, targets, v), w, r0))
        # the sets that fell back are the replayed sets that hold a zero, in order
        replayed = np.concatenate(replays)
        assert_same_bits(np.array(fallbacks).reshape(-1, w.size), replayed[(replayed == 0.0).any(axis=1)])


def dict_ring_residuals(arch, targets, w):
    """coefficient_residuals without expand_network's finiteness check, so that
    inf and nan coefficients come through as the dict ring computes them."""
    net = with_weights(arch, w)
    with np.errstate(over="ignore", invalid="ignore"):
        polys = network._run_layers(net._pairs, network._variables(arch.input_dim))
    monomials = grlex_monomials(arch.input_dim, expansion_degree(arch))
    return np.array([p.terms.get(e, 0.0) - t.terms.get(e, 0.0) for p, t in zip(polys, targets) for e in monomials])


def constant_output_archs():
    """Architectures with a degree-0 poly activation: its output coefficient
    holds no weight, and every weight before it is multiplied by 0.0."""
    constant = PolyActivation(UniPoly((0.625,)))
    return [
        NetworkSpec(2, (LayerSpec(np.zeros((3, 3)), MonomialPower(2)), LayerSpec(np.zeros((2, 4)), constant))),
        NetworkSpec(1, (LayerSpec(np.zeros((2, 2)), constant), LayerSpec(np.zeros((1, 3))))),
        NetworkSpec(2, (LayerSpec(np.zeros((2, 3)), constant), LayerSpec(np.zeros((1, 3)), MonomialPower(3)))),
    ]


def test_tape_replay_is_the_dict_ring_bit_for_bit():
    # batch_fn replays the recorded tape on stacks of weight sets; each set's
    # residuals must have the bits of an expansion of the rebuilt network
    rng = np.random.default_rng(14)
    archs = [random_arch(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 3)), 2)
             for _ in range(40)]
    overflowed = []
    for arch in archs + constant_output_archs():
        p = network_weights(arch).size
        targets = expand_network(with_weights(arch, rng.uniform(-1.0, 1.0, p)))
        system = build_coefficient_system(arch, targets)
        Ws = rng.uniform(-1.0, 1.0, (6, p))
        Ws[3:][rng.random((3, p)) < 0.3] = 0.0  # three sets with exact-zero weights
        R = system.batch_fn(Ws)
        assert_same_bits(R, np.array([coefficient_residuals(arch, targets, w) for w in Ws]))
        assert_same_bits(R[0], system.residuals(Ws[0]))
        # at 1e120 squares overflow to inf and sums of opposite infs give nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R = system.batch_fn(1e120 * Ws)
        assert_same_bits(R, np.array([dict_ring_residuals(arch, targets, w) for w in 1e120 * Ws]))
        overflowed.append((np.isinf(R).any(), np.isnan(R).any()))
    assert np.all(np.any(overflowed, axis=0))


def test_stacked_coefficients_overflow_as_floats_do():
    # Squares of 1e120 weights overflow to inf, and sums of opposite infs give nan,
    # in one stacked tape replay and in replays of one set each.  Both stay
    # silent (the solver's finiteness checks report them), and the values agree
    # bit for bit.
    system = build_coefficient_system(square_arch(4, 1), [regression_target()])
    Ws = 1e120 * np.random.default_rng(13).uniform(-1.0, 1.0, (5, system.unknowns))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R = system.batch_fn(Ws)
        single = np.array([system.residuals(w) for w in Ws])
    assert np.isinf(R).any() and np.isnan(R).any()
    assert_same_bits(R, single)


def one_set_archs():
    """Power nets whose tapes hold 108, 240, 490 and 1015 slots, and the
    constant-output architectures, whose recordings hold 0.0 slots."""
    nets = [NetworkSpec(d, (LayerSpec(np.zeros((4, d + 1)), MonomialPower(k)), LayerSpec(np.zeros((1, 5)))))
            for d, k in ((2, 2), (2, 3), (3, 3), (3, 4))]
    return nets + constant_output_archs()


def one_set_cases(rng, arch):
    """(system, tape, weight sets): six random sets, three of them holding exact
    0.0 or -0.0 weights."""
    p = network_weights(arch).size
    system = build_coefficient_system(arch, expand_network(with_weights(arch, rng.uniform(-1.0, 1.0, p))))
    tape = synthesis._CoefficientTape(arch, grlex_monomials(arch.input_dim, expansion_degree(arch)))
    Ws = rng.uniform(-1.0, 1.0, (6, p))
    Ws[2][rng.random(p) < 0.3] = 0.0
    Ws[3][rng.random(p) < 0.3] = -0.0
    Ws[4, 0] = -0.0
    return system, tape, Ws


def test_one_set_replay_is_the_stacked_replay_bit_for_bit(monkeypatch):
    # One weight set replays the tape on a (slots,) buffer; it must give the
    # bytes of the stacked replay, run the sets holding an exact zero on the dict
    # ring as the stacked replay does, and overflow to inf and nan as silently:
    # at 1e120 squares overflow
    fallbacks, ring = [], synthesis._CoefficientTape.ring
    monkeypatch.setattr(synthesis._CoefficientTape, "ring", lambda tape, w: fallbacks.append(w.copy()) or ring(tape, w))
    rng = np.random.default_rng(15)
    slots, overflowed = [], []
    for arch in one_set_archs():
        system, tape, Ws = one_set_cases(rng, arch)
        Ws = np.concatenate((Ws, 1e120 * Ws))
        slots.append(tape.slots)
        with np.errstate(over="ignore", invalid="ignore"):
            fallbacks.clear()
            C = tape(Ws)
            stacked_fallbacks = list(fallbacks)
        R = system.batch_fn(Ws)
        fallbacks.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w, c, r in zip(Ws, C, R):
                with np.errstate(over="ignore", invalid="ignore"):
                    assert_same_bits(tape.one_set(w), c)
                assert_same_bits(system.residuals(w), r)
        # both one-set calls of a set that strays run it on the dict ring, as the stack did
        assert [f.tobytes() for f in fallbacks] == [f.tobytes() for f in stacked_fallbacks for _ in range(2)]
        assert any((w == 0.0).any() for w in stacked_fallbacks)
        overflowed.append((np.isinf(R).any(), np.isnan(R).any()))
        for bad in (np.nan, np.inf, -np.inf):
            w = Ws[0].copy()
            w[-1] = bad
            with pytest.raises(StructuralError, match="weights must be finite"):
                system.residuals(w)
    assert np.all(np.any(overflowed, axis=0))
    assert slots[:4] == [108, 240, 490, 1015]


def test_one_set_takes_the_one_set_route_at_every_size(monkeypatch):
    # one set replays on its (slots,) buffer at every tape size, and a stack on
    # the stacked buffer; either route runs a set holding an exact zero weight
    # on the dict ring
    routes, fallbacks = [], []
    tape_class = synthesis._CoefficientTape
    replay, one_set, ring = tape_class.replay, tape_class.one_set, tape_class.ring
    monkeypatch.setattr(tape_class, "replay",
                        lambda tape, buf: routes.append(("stacked", buf.shape[1])) or replay(tape, buf))
    monkeypatch.setattr(tape_class, "one_set", lambda tape, w: routes.append(("one set", 1)) or one_set(tape, w))
    monkeypatch.setattr(tape_class, "ring", lambda tape, w: fallbacks.append(w.copy()) or ring(tape, w))
    rng = np.random.default_rng(16)
    for arch in one_set_archs():
        system, tape, Ws = one_set_cases(rng, arch)
        for w in Ws:
            routes.clear()
            fallbacks.clear()
            system.residuals(w)
            assert routes == [("one set", 1)]
            assert len(fallbacks) == (w == 0.0).any()
            assert all(f.tobytes() == w.tobytes() for f in fallbacks)
        routes.clear()
        system.batch_fn(Ws)
        assert routes == [("stacked", len(Ws))]


def chunk_test_system(kind):
    """(builder, weights, elements one weight set takes of CHUNK_ELEMENTS) of a
    data system (28 elements a set) or a coefficient system (its tape's slots)."""
    if kind == "data":
        rng = np.random.default_rng(10)
        arch = random_arch(rng, 2, 3, 1, 3)  # 15 unknowns, widest layer input 4
        ds = Dataset(rng.uniform(-1.0, 1.0, (7, 2)), rng.uniform(-1.0, 1.0, 7))
        return lambda: build_data_system(arch, ds), rng.uniform(-1.0, 1.0, network_weights(arch).size), 28
    rng = np.random.default_rng(11)
    first = LayerSpec(np.zeros((3, 3)), PolyActivation(UniPoly((0.5, -1.0, 0.25))))
    arch = NetworkSpec(2, (first, LayerSpec(np.zeros((2, 4)), MonomialPower(2))))  # 2 x 15 residuals, 17 unknowns
    targets = expand_network(with_weights(arch, rng.uniform(-1.0, 1.0, 17)))
    slots = synthesis._CoefficientTape(arch, grlex_monomials(2, 4)).slots
    return lambda: build_coefficient_system(arch, targets), rng.uniform(-1.0, 1.0, 17), slots


def step_lands_on_zero():
    """A weight w whose forward-difference step leads exactly to 0:
    w + FD_STEP * (1 + |w|) == 0."""
    w = 0.0
    while w + synthesis.FD_STEP * (1.0 + abs(w)) != 0.0:
        w = -synthesis.FD_STEP * (1.0 + abs(w))
    return w


# budgets that give chunks of 1, 2 and 5 weight sets, for a data set of 28
# elements and, scaled by slots / 120, for a coefficient set of the tape's
# slots; "zero" puts weight 5 where its Jacobian step lands exactly on 0, so
# that set 5 alone holds a zero, and only the chunk holding it runs one set
# on the dict ring while every chunk replays the tape stacked
@pytest.mark.parametrize(
    "kind, budget, sets, zero",
    [pytest.param("data", b, n, False, id=str(b)) for b, n in ((1, 1), (60, 2), (150, 5))]
    + [pytest.param("coefficient", b, n, False, id=f"coefficient-{b}") for b, n in ((1, 1), (240, 2), (600, 5))]
    + [pytest.param("coefficient", b, n, True, id=f"coefficient-zero-{b}") for b, n in ((1, 1), (240, 2), (600, 5))],
)
def test_data_jacobian_is_the_same_in_chunks(monkeypatch, kind, budget, sets, zero):
    build, w, per_set = chunk_test_system(kind)
    if zero:
        w[5] = step_lands_on_zero()
    whole = build()
    J = residual_jacobian(whole, w, whole.residuals(w))
    monkeypatch.setattr(synthesis, "CHUNK_ELEMENTS", budget if kind == "data" else budget * per_set // 120)
    chunked = build()
    r0 = chunked.residuals(w)
    if kind == "data":
        stacks, fallbacks, depths = [], [], []
        run_layers = synthesis._run_layers

        def spy(layers, h):
            # the cone's stacks: one (n, r) block of a layer's outputs per weight set,
            # run through the layers after that layer
            stacks.append(h)
            depths.append(len(layers))
            return run_layers(layers, h)

        monkeypatch.setattr(synthesis, "_run_layers", spy)
    else:
        stacks, fallbacks = spy_on_the_tape(monkeypatch)
    assert_same_bits(residual_jacobian(chunked, w, r0), J)
    assert max(len(s) for s in stacks) == sets
    if kind == "data":
        # the net's layers are (a, 3), (b, a + 1), (1, b + 1): each hidden layer's sets
        # run once, through the layers after it alone (2 after the first, 1 after the
        # second), and the output layer's sets run no later layer
        assert set(depths) == {2, 1}
        a, b = (stacks[depths.index(later)].shape[-1] for later in (2, 1))
        runs = [sum(len(s) for s, later in zip(stacks, depths) if later == n) for n in (2, 1)]
        assert runs == [3 * a, b * (a + 1)]
        assert 3 * a + b * (a + 1) + b + 1 == whole.unknowns
    # the set holding the zero, in one chunk, is the only one run on the dict ring
    holding = [v for s in stacks if kind == "coefficient" for v in s if (v == 0.0).any()]
    assert len(fallbacks) == len(holding) == zero
    assert all(np.array_equal(a, b) for a, b in zip(fallbacks, holding))


def tape_jacobian_archs(rng):
    """Power nets (d inputs, 4 hidden MonomialPower(k) units, one output) whose
    tapes hold 108, 490, 1015 and 42,371 slots; random nets of up to three
    layers and two outputs; and the constant-output architectures, whose
    recordings hold 0.0 slots."""
    nets = [NetworkSpec(d, (LayerSpec(np.zeros((4, d + 1)), MonomialPower(k)), LayerSpec(np.zeros((1, 5)))))
            for d, k in ((2, 2), (3, 3), (3, 4), (4, 8))]
    nets += [random_arch(rng, 2, 3, 2, 2) for _ in range(6)]
    return nets + constant_output_archs()


def test_tape_jacobian_is_the_stacked_replay_bit_for_bit(monkeypatch):
    # A coefficient Jacobian fills its perturbed sets in place on the tape's
    # buffer, in chunks of 1, 2 and 5 sets; it must give the bytes of one
    # stacked batch_fn call, of per-column residual calls and, on tapes of at
    # most 1015 slots, of per-column dict ring expansions.  The cases: random
    # weights; exact 0.0 and -0.0 weights, so that the base set and so every set
    # strays (on tapes of at most 1015 slots, where the dict ring is cheap); a
    # weight whose step lands on 0, so that its set alone strays; and 1e120
    # weights, whose coefficients overflow to inf, and whose differences of
    # infs give nan, with no warning.
    rng = np.random.default_rng(35)
    fallbacks, overflowed = [], []
    ring = synthesis._CoefficientTape.ring
    monkeypatch.setattr(synthesis._CoefficientTape, "ring", lambda tape, w: fallbacks.append(w.copy()) or ring(tape, w))
    for arch in tape_jacobian_archs(rng):
        p = network_weights(arch).size
        monomials = grlex_monomials(arch.input_dim, expansion_degree(arch))
        slots = synthesis._CoefficientTape(arch, monomials).slots
        base = rng.uniform(-1.0, 1.0, p)
        zeros = base.copy()
        zeros[rng.random(p) < 0.3] = 0.0
        zeros[rng.random(p) < 0.3] = -0.0
        zeros[0] = -0.0
        # a teacher with the same zero weights: the coefficients they remove are
        # exactly 0 in the targets too, so that a -0.0 the replay gives for a set
        # that strays, where the dict ring gives 0.0, reaches the Jacobian
        targets = expand_network(with_weights(arch, rng.uniform(0.5, 2.0, p) * zeros))
        alone = base.copy()
        alone[5] = step_lands_on_zero()
        huge = 1e120 * base
        cases = [base, alone, huge] + ([zeros] if slots <= 1015 else [])
        by_ring = {}  # case index: the per-column dict ring Jacobian
        for sets in (1, 2, 5):
            monkeypatch.setattr(synthesis, "CHUNK_ELEMENTS", sets * slots)
            assert synthesis._chunk(arch, slots) == sets
            system = build_coefficient_system(arch, targets)
            for i, w in enumerate(cases):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    r0 = system.residuals(w)
                    fallbacks.clear()
                    J = residual_jacobian(system, w, r0)
                    jacobian_fallbacks = list(fallbacks)
                    assert J.flags.c_contiguous
                    assert_same_bits(J, residual_jacobian(stacked_only(system), w, r0))
                with np.errstate(over="ignore", invalid="ignore"):
                    assert_same_bits(J, per_column_jacobian(system.residuals, w, r0))
                    if slots <= 1015 and i not in by_ring:
                        by_ring[i] = per_column_jacobian(lambda v: dict_ring_residuals(arch, targets, v), w, r0)
                if i in by_ring:
                    assert_same_bits(J, by_ring[i])
                if w is alone:
                    stepped = w.copy()
                    stepped[5] = 0.0
                    assert len(jacobian_fallbacks) == 1
                    assert_same_bits(jacobian_fallbacks[0], stepped)
                if w is zeros:
                    assert len(jacobian_fallbacks) == p
                if w is huge:
                    overflowed.append((np.isinf(r0).any(), np.isnan(J).any()))
    assert np.all(np.any(overflowed, axis=0))


def test_one_set_residuals_are_the_dict_ring_bit_for_bit(monkeypatch):
    # One weight set replays on its (slots,) buffer at every tape size; its
    # residuals must have the bytes of a dict ring expansion of the rebuilt
    # network, on tapes of 108 to 42,371 slots.  The sets: random weights;
    # exact 0.0 and -0.0 weights; a weight whose forward-difference step lands
    # on 0, and the set of that step; and 1e120 weights, whose coefficients
    # overflow to inf and nan with no warning.  A set at moderate weights
    # strays, and runs on the dict ring, exactly when it holds a zero weight.
    fallbacks, ring = [], synthesis._CoefficientTape.ring
    monkeypatch.setattr(synthesis._CoefficientTape, "ring", lambda tape, w: fallbacks.append(w.copy()) or ring(tape, w))
    rng = np.random.default_rng(36)
    overflowed = []
    for arch in tape_jacobian_archs(rng):
        p = network_weights(arch).size
        targets = expand_network(with_weights(arch, rng.uniform(-1.0, 1.0, p)))
        system = build_coefficient_system(arch, targets)
        base = rng.uniform(-1.0, 1.0, p)
        zeros = base.copy()
        zeros[rng.random(p) < 0.3] = 0.0
        zeros[rng.random(p) < 0.3] = -0.0
        alone = base.copy()
        alone[5] = step_lands_on_zero()
        stepped = alone.copy()
        stepped[5] += synthesis.FD_STEP * (1.0 + abs(alone[5]))
        assert stepped[5] == 0.0
        huge = 1e120 * base
        for w in (base, zeros, alone, stepped, huge):
            fallbacks.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                r = system.residuals(w)
            with np.errstate(over="ignore", invalid="ignore"):
                assert_same_bits(r, dict_ring_residuals(arch, targets, w))
            if w is not huge:
                assert len(fallbacks) == (w == 0.0).any()
        overflowed.append((np.isinf(r).any(), np.isnan(r).any()))
    assert np.all(np.any(overflowed, axis=0))
    # A set with as many exact zeros as the recording, but not all in its zero
    # slots: node 0's bias 1e160 makes its square's constant inf, so that the
    # 0.0 times each output's constant is nan in two recorded zero slots, and
    # the two output biases are two new zeros.
    arch = constant_output_archs()[0]
    w = np.full(17, 0.5)
    w[[0, 9, 13]] = 1e160, 0.0, 0.0
    targets = expand_network(with_weights(arch, rng.uniform(-1.0, 1.0, 17)))
    tape = synthesis._CoefficientTape(arch, grlex_monomials(2, 2))
    buf = np.empty((tape.slots, 1))
    buf[:17, 0] = w
    with np.errstate(over="ignore", invalid="ignore"):
        zero = tape.replay(buf)[:, 0] == 0.0
    assert zero.sum() == tape.zero.sum() and (zero != tape.zero).any()
    system = build_coefficient_system(arch, targets)
    fallbacks.clear()
    r = system.residuals(w)
    assert len(fallbacks) == 1
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_bits(r, dict_ring_residuals(arch, targets, w))


def test_non_finite_weights_raise_in_both_system_kinds():
    arch = square_arch(4, 1)
    ds = Dataset(np.array([[0.0, 1.0], [1.0, 0.5]]), np.array([1.0, 2.0]))
    w = np.ones(17)
    w[5] = np.nan
    for system in (build_data_system(arch, ds), build_coefficient_system(arch, [regression_target()])):
        with pytest.raises(StructuralError, match="weights must be finite"):
            system.residuals(w)


def bias_only_system(rows):
    """Data system of y = w0 + w1 * x on (x, y) rows."""
    X, y = np.array(rows).T
    return build_data_system(NetworkSpec(1, (LayerSpec(np.zeros((1, 2))),)), Dataset(X[:, None], y))


def test_linear_solve_has_the_bits_of_scipys_cholesky():
    # the LM step's damped systems: J'J + lam I, J tall or wide
    rng = np.random.default_rng(22)
    for _ in range(300):
        n = int(rng.integers(5, 61))
        J = rng.standard_normal((int(rng.integers(1, 2 * n)), n)) * 10.0 ** rng.uniform(-3, 3)
        A = J.T @ J + 10.0 ** rng.uniform(-12, 3) * np.eye(n)
        b = rng.standard_normal(n)
        try:
            want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), b)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                synthesis.cho_factor(A)
            continue
        got = synthesis.cho_solve(synthesis.cho_factor(A), b)
        assert got.tobytes() == want.tobytes()
    for not_pd in ([[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]], [[-1.0]]):
        with pytest.raises(np.linalg.LinAlgError):
            synthesis.cho_factor(np.array(not_pd))


def test_solver_reports_failure_honestly():
    # one point with two labels: no attempt can fit both
    w, report = solve_system(bias_only_system([(0.0, 0.0), (0.0, 1.0)]))
    assert not report.converged
    assert report.restarts_used == 16
    assert w.shape == (2,)
    assert np.isfinite(report.final_residual_norm)


def test_negative_seed_is_refused():
    with pytest.raises(ConfigurationError, match="seed must be non-negative"):
        solve_system(bias_only_system([(0.0, 0.0), (0.0, 1.0)]), seed=-1)


def test_non_integer_seed_is_refused():
    # numpy's own TypeError would escape `except polynet.Error`
    with pytest.raises(ConfigurationError, match="seed must be an integer, got 1.5"):
        solve_system(bias_only_system([(0.0, 0.0), (0.0, 1.0)]), seed=1.5)


def lm_from_ones(system):
    """One solver attempt from all ones: (converged, iterations, Jacobians
    evaluated, step norm of each iteration)."""
    jacobians = []

    def batch_fn(Ws):
        jacobians.append(len(Ws) > 1)  # a Jacobian stacks one set per unknown
        return system.batch_fn(Ws)

    trace = io.StringIO()
    counted = ResidualSystem(system.unknowns, system.arity, batch_fn)
    _, converged, iterations, _ = synthesis._lm(counted, np.ones(system.unknowns), 0, trace)
    lines = [line.split(", ") for line in trace.getvalue().splitlines()]
    assert all(line[0] == "0" for line in lines)  # the attempt index
    steps = [float(line[4]) for line in lines]
    return converged, iterations, sum(jacobians), steps


def test_attempt_stops_when_no_damping_goes_downhill():
    # one point with two labels: the fit stalls at w0 = 0.5, norm 0.5
    converged, iterations, jacobians, steps = lm_from_ones(bias_only_system([(0.0, 0.0), (0.0, 1.0)]))
    assert not converged
    assert iterations < synthesis.MAX_ITERS
    assert jacobians == iterations + 1  # the last Jacobian gave no step
    assert min(steps) >= synthesis.STEP_EPS


def test_attempt_stops_on_a_step_below_step_eps():
    # as above at x = 1e11, where the third accepted step is 2.7e-16 long
    converged, iterations, jacobians, steps = lm_from_ones(bias_only_system([(1e11, 0.0), (1e11, 1.0)]))
    assert not converged
    assert iterations < synthesis.MAX_ITERS
    assert jacobians == iterations
    assert steps[-1] < synthesis.STEP_EPS <= min(steps[:-1])


def test_attempt_stops_when_its_cost_stalls():
    # experiment 1 from all ones sits at a saddle: the cost keeps falling by
    # less than STALL_DROP per STALL_WINDOW steps, and every step is long
    system = build_coefficient_system(square_arch(4, 2), list(two_class_targets()))
    converged, iterations, jacobians, steps = lm_from_ones(system)
    assert not converged
    assert iterations < synthesis.MAX_ITERS
    assert min(steps) >= synthesis.STEP_EPS  # not stopped by the step-norm rule
    assert jacobians == iterations


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trials_with_non_finite_residuals_are_rejected(bad):
    # tanh(3 w) has its root at 0 and gives bad residuals outside the ball |w| <= 1.5.
    # From all ones the lightly damped steps land outside it: their cost is nan or
    # inf, which cost_try < cost rejects, so lambda rises until a step stays inside.
    trials = []

    def batch_fn(Ws):
        R = np.tanh(3.0 * Ws)
        R[np.linalg.norm(Ws, axis=1) > 1.5] = bad
        if len(Ws) == 1:
            trials.append(R[0])
        return R

    trace = io.StringIO()
    w, converged, iterations, _ = synthesis._lm(ResidualSystem(2, 2, batch_fn), np.ones(2), 0, trace)
    lines = [line.split(", ") for line in trace.getvalue().splitlines()]
    assert converged and iterations == 7 and np.linalg.norm(w) <= 1.5
    assert sum(not np.isfinite(r).all() for r in trials) == 4
    # every accepted step has the norm of a finite trial, and lambda rose past the bad ones
    finite_norms = {f"{np.abs(r).max():.9e}" for r in trials if np.isfinite(r).all()}
    assert all(line[2] in finite_norms for line in lines)
    assert [line[3] for line in lines] == ["1.000e-02", "1.000e-02", "1.000e-01", "1.000e-02", "1.000e-03",
                                          "1.000e-04", "1.000e-05"]


def test_lambda_rises_until_the_damped_matrix_factors(monkeypatch):
    # r = 1e10 (w0 + w1 - 3): J'J is a rank-one matrix of about 1e20, and with
    # lambda below the spacing of floats there (16384) the damped matrix rounds
    # to one that is not positive definite.  Each failed factorization multiplies
    # lambda by 10, and the damped matrix must be written again with it.
    failures, factor = [], synthesis.cho_factor

    def cho_factor(M):
        try:
            return factor(M)
        except np.linalg.LinAlgError:
            failures.append(M[1, 1])
            raise

    monkeypatch.setattr(synthesis, "cho_factor", cho_factor)
    system = ResidualSystem(2, 1, lambda Ws: 1e10 * (Ws.sum(axis=1, keepdims=True) - 3.0))
    trace = io.StringIO()
    _, converged, iterations, norm = synthesis._lm(system, np.ones(2), 0, trace)
    assert (converged, iterations, norm) == (True, 2, 0.0)
    assert len(failures) == 8  # at lambda 1e-3 to 1e3 for the first step, 1e3 for the second
    assert [line.split(", ")[3] for line in trace.getvalue().splitlines()] == ["1.000e+03", "1.000e+03"]


def synth3_system():
    """Problem synth3 of the synth-coef benchmark pool: the coefficients of
    the fourth of six seeded 2-input, 4-hidden squared teachers (two outputs)."""
    rng = np.random.default_rng(2305_00663)
    for outputs in (1, 1, 1, 2):
        teacher = NetworkSpec(2, (LayerSpec(rng.uniform(-1.0, 1.0, (4, 3)), MonomialPower(2)),
                                  LayerSpec(rng.uniform(-1.0, 1.0, (outputs, 5)))))
    return build_coefficient_system(square_arch(4, 2), expand_network(teacher))


def test_slow_converger_keeps_its_bits():
    # the cost plateaus from about step 150 to 250, falling by only 5.3% over
    # its flattest STALL_WINDOW steps, then the attempt escapes and converges;
    # recorded before the stall rule existed
    system = synth3_system()
    costs = []

    def batch_fn(Ws):
        R = system.batch_fn(Ws)
        if len(Ws) == 1:  # the start or an LM trial, accepted when its cost is lower
            cost = 0.5 * float(R[0] @ R[0])
            if not costs or cost < costs[-1]:
                costs.append(cost)
        return R

    w, report = solve_system(ResidualSystem(system.unknowns, system.arity, batch_fn))
    assert report == SolveReport(True, 296, 2.4121815656030776e-12, 0)
    assert len(costs) == 297
    k = synthesis.STALL_WINDOW
    assert max(costs[i] / costs[i - k] for i in range(k, len(costs))) >= 0.9
    assert [c.hex() for c in w] == [
        "0x1.9a49251a7d7dbp-2", "0x1.acf1b090a865bp-1", "0x1.4f18097fc3690p+0", "0x1.09b75776ff878p-2",
        "0x1.db1826c66a4aap-1", "0x1.e75ca174a8547p-1", "-0x1.e41f467dd6863p+0", "0x1.d0ad6434ceb8fp-3",
        "0x1.821a5979aacd1p-3", "-0x1.e7a2846990e62p-1", "-0x1.03782705282d0p+0", "-0x1.65a025bf66f79p+0",
        "0x1.cedd77d3b5700p+2", "0x1.fdc9d156f67adp+0", "-0x1.e1a5b4a7f1eb6p-4", "-0x1.bbb7e2e24f508p+0",
        "-0x1.b73632678bd74p+0", "-0x1.798183f1b2c4ep-2", "-0x1.c7aca1a9b554bp-1", "0x1.61f98cc194c0bp+0",
        "-0x1.a1c08ae81ce61p-2", "-0x1.a462d82bbcec4p-5",
    ]


def test_trace_stream_format():
    system = build_coefficient_system(square_arch(4, 1), [regression_target()])
    buf = io.StringIO()
    w, report = solve_system(system, trace=buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == report.iterations
    for line in lines:
        assert TRACE_LINE.match(line), line
    assert lines[0].startswith("0, 1, ")


def test_trace_lines_carry_the_attempt_index():
    # experiment 1 stalls from all ones and converges from a later start
    system = build_coefficient_system(square_arch(4, 2), list(two_class_targets()))
    buf = io.StringIO()
    _, report = solve_system(system, trace=buf)
    fields = [tuple(map(int, line.split(", ")[:2])) for line in buf.getvalue().splitlines()]
    assert report.converged and report.restarts_used >= 1
    # attempt by attempt from the all-ones start to the winner, whose lines count its steps from 1
    assert fields == sorted(fields)
    assert fields[0] == (0, 1)
    assert [i for a, i in fields if a == report.restarts_used] == list(range(1, report.iterations + 1))


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
    teacher = with_weights(square_arch(4, 1), np.ones(17))  # weights at the first start
    student, report = compress_network(teacher, teacher, 2)
    assert report.converged
    assert report.iterations == 0
    assert np.array_equal(network_weights(student), np.ones(17))


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


def test_compress_refuses_a_non_integer_degree_before_expanding(monkeypatch):
    # 1.5 once truncated the teacher at degree 1 and reported a converged solve,
    # and "2" raised a bare TypeError, which escaped `except polynet.Error`
    teacher = with_weights(square_arch(4, 1), np.ones(17))
    assert compress_network(teacher, teacher, 2.0)[1] == compress_network(teacher, teacher, 2)[1]
    monkeypatch.setattr(synthesis, "expand_network", lambda net: pytest.fail("the teacher was expanded"))
    for bad in (1.5, "2"):
        with pytest.raises(UsageError, match=re.escape(f"degree {bad!r} is not an integer")):
            compress_network(teacher, square_arch(4, 1), bad)


def test_two_class_points_layout():
    points, labels = two_class_points()
    assert points.shape == (40, 2)
    assert labels.shape == (40,)
    assert set(labels.tolist()) == {0, 1}
    # generator 1 lies on x2 = x1, generator 2 on x2 = 1 - x1
    for (x1, x2), lab in zip(points, labels):
        assert x2 == pytest.approx(x1 if lab == 0 else 1.0 - x1)
