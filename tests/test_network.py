"""Network model: validation, forward pass, symbolic expansion, serialization."""

import hashlib
import math
import re
import time

import numpy as np
import pytest

from polynet import (
    ConfigurationError,
    Dataset,
    DimensionError,
    Identity,
    LayerSpec,
    MonomialPower,
    MultiPoly,
    NetworkSpec,
    NumericError,
    ParseError,
    PolyActivation,
    StructuralError,
    UniPoly,
    UsageError,
    build_coefficient_system,
    classify,
    dataset_from_csv,
    dataset_to_csv,
    expand_network,
    expansion_degree,
    forward,
    network_from_json,
    network_to_json,
    poly_eval,
)
from polynet import multipoly, network
from polynet.experiments import load_reference_network, load_table1
from polynet.network import check_expansion_size


def single_square_net():
    # y = (x1 + x2)^2
    return NetworkSpec(2, (LayerSpec(np.array([[0.0, 1.0, 1.0]]), MonomialPower(2)),))


def random_network(rng, max_degree_budget=24):
    """Random architecture whose expansion degree stays tractable."""
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
        if degree <= max_degree_budget:
            return NetworkSpec(input_dim, tuple(layers))


def test_monomial_power_validation():
    assert MonomialPower(2).k == 2
    for bad in (0, -2, 1.5, True):
        with pytest.raises(StructuralError, match="positive integer"):
            MonomialPower(bad)


def test_layer_validation():
    with pytest.raises(StructuralError, match="2-D"):
        LayerSpec(np.array([1.0, 2.0]))
    with pytest.raises(StructuralError, match="bias column"):
        LayerSpec(np.zeros((2, 0)))
    with pytest.raises(StructuralError, match="finite"):
        LayerSpec(np.array([[np.nan, 1.0]]))


def test_layer_rejects_non_activation():
    for bad in ("relu", None, UniPoly((0.0, 1.0))):
        with pytest.raises(StructuralError, match=re.escape(f"not an activation: {bad!r}")):
            LayerSpec(np.array([[0.0, 1.0]]), bad)


def test_poly_activation_rejects_non_unipoly():
    for bad in ((0.5, 1.0), [0.5, 1.0], None):
        with pytest.raises(StructuralError, match=re.escape(f"needs a UniPoly, got {bad!r}")):
            PolyActivation(bad)


def test_poly_activation_rejects_non_finite_coefficients():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(StructuralError, match="coefficients must be finite"):
            PolyActivation(UniPoly((bad, 1.0)))
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(StructuralError, match="coefficients must be finite"):
            network_from_json(
                '{"input_dim": 1, "layers": [{"weights": [[0, 1]], '
                f'"activation": {{"kind": "poly", "coeffs": [1, {token}]}}}}]}}'
            )


def test_layer_weights_are_read_only():
    layer = LayerSpec(np.array([[0.0, 1.0, 1.0]]))
    with pytest.raises(ValueError):
        layer.weights[0, 0] = 5.0


def test_specs_compare_and_hash_by_identity():
    layer = LayerSpec(np.ones((2, 3)))
    assert layer == layer
    assert layer != LayerSpec(np.ones((2, 3)))  # no elementwise array comparison
    assert hash(layer) == hash(layer)
    net = single_square_net()
    assert net != single_square_net()
    names = {net: "square"}
    assert names[net] == "square"
    assert net._pairs is net._pairs  # still cached on the frozen instance


def test_network_needs_inputs_and_layers():
    with pytest.raises(StructuralError, match="input_dim must be at least 1"):
        NetworkSpec(0, (LayerSpec(np.zeros((1, 2))),))
    with pytest.raises(StructuralError, match="at least one layer"):
        NetworkSpec(2, ())


def test_input_dim_must_be_an_integer():
    # True and 2.0 used to pass: network_to_json then wrote "input_dim": True,
    # which is not JSON, or 2.0, which network_from_json refuses
    layer = LayerSpec(np.ones((1, 3)))
    for bad in (True, False, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(StructuralError, match=re.escape(f"input_dim must be an integer, got {bad!r}")):
            NetworkSpec(bad, (layer,))
    with pytest.raises(StructuralError, match="input_dim must be at least 1"):
        NetworkSpec(np.int64(0), (layer,))
    for dim in (np.int64(2), np.int32(2)):
        net = NetworkSpec(dim, (layer,))
        assert type(net.input_dim) is int and net.input_dim == 2
        assert network_from_json(network_to_json(net)).input_dim == 2
        assert len(expand_network(net)) == 1


def test_network_chaining_mismatch_names_the_layer():
    layers = (
        LayerSpec(np.zeros((2, 3))),
        LayerSpec(np.zeros((1, 2))),  # expects 1 input, receives 2
    )
    with pytest.raises(StructuralError, match="layer 1"):
        NetworkSpec(2, layers)


def test_forward_hand_check():
    net = single_square_net()
    assert forward(net, [1.0, 2.0])[0] == pytest.approx(9.0)
    assert forward(net, [0.5, -0.5])[0] == pytest.approx(0.0)
    for bad in ([1.0], 1.0, np.zeros((2, 1, 2)), np.zeros(3), np.zeros((4, 3))):
        with pytest.raises(DimensionError, match="expected"):
            forward(net, bad)


def test_forward_and_poly_eval_refuse_points_that_are_not_real_numbers():
    net = single_square_net()
    (poly,) = expand_network(net)
    # None used to give nan, strings were parsed and a complex point lost its imaginary part
    for bad in ([None, 1.0], ["1", "2"], np.array([1.0 + 2.0j, 3.0]), [[1.0, 2.0], [None, 0.0]], [1.0, "x"]):
        for evaluate in (lambda x: forward(net, x), lambda x: poly_eval(poly, x)):
            with pytest.raises(UsageError, match="points must hold real numbers"):
                evaluate(bad)
    # bool, int and float entries pass as the floats they equal
    for good in ([True, False], [2, -1], np.array([3, 1], dtype=np.uint8), np.array([0.5, 2.0], dtype=np.float32)):
        x = np.asarray(good, dtype=float)
        assert forward(net, good).tobytes() == forward(net, x).tobytes()
        assert poly_eval(poly, good).hex() == poly_eval(poly, x).hex()
        assert forward(net, [good, good]).tobytes() == forward(net, [x, x]).tobytes()


def test_batched_forward_matches_single_rows_bit_for_bit():
    rng = np.random.default_rng(11)
    kinds = set()
    for _ in range(60):
        net = random_network(rng)
        kinds.update(type(layer.activation) for layer in net.layers)
        for n in (1, 2, 17):
            X = rng.uniform(-2.0, 2.0, (n, net.input_dim))
            batch = forward(net, X)
            rows = np.array([forward(net, x) for x in X])
            assert batch.shape == (n, net.output_dim)
            assert np.array_equal(batch.view(np.int64), rows.view(np.int64))
            # one row at a time, as a dense matrix-vector product on [1, h]
            for x, row in zip(X, rows):
                h = x
                for layer in net.layers:
                    h = layer.activation(layer.weights @ np.concatenate(([1.0], h)))
                assert np.array_equal(h.view(np.int64), row.view(np.int64))
    assert kinds == {Identity, MonomialPower, PolyActivation}


def test_one_point_forward_is_its_row_of_a_batch():
    # the row runs phi's Horner with numpy, the point per value in Python floats
    rng = np.random.default_rng(30)
    poly_layers = 0
    for _ in range(80):
        d = int(rng.integers(1, 4))
        layers, fan_in = [], d
        for _ in range(int(rng.integers(1, 4))):
            width = int(rng.choice([1, 3, 8, 24]))
            pick = int(rng.integers(0, 4))
            if pick == 0:
                act = Identity()
            elif pick == 1:
                act = MonomialPower(int(rng.integers(2, 4)))
            else:
                act = PolyActivation(UniPoly(tuple(rng.uniform(-2.0, 2.0, int(rng.integers(1, 10))))))
                poly_layers += 1
            layers.append(LayerSpec(rng.uniform(-1.0, 1.0, (width, fan_in + 1)), act))
            fan_in = width
        net = NetworkSpec(d, tuple(layers))
        points = [rng.uniform(-2.0, 2.0, d), np.full(d, math.inf), np.full(d, -math.inf)]
        points += [np.where(rng.random(d) < 0.5, v, rng.uniform(-2.0, 2.0, d))
                   for v in (-0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324)]
        for x in points:
            with np.errstate(all="ignore"):
                assert forward(net, x).tobytes() == forward(net, x[None])[0].tobytes()
    assert poly_layers >= 40


def test_forward_bundled_regression_network():
    net = load_reference_network(2)
    assert net.input_dim == 2 and net.output_dim == 1
    assert forward(net, [1.0, 1.0])[0] == pytest.approx(5.0, abs=1e-4)
    assert forward(net, [2.0, 1.0])[0] == pytest.approx(9.0, abs=1e-4)


def test_forward_bundled_classification_network():
    net = load_reference_network(3)
    table = load_table1()
    out = forward(net, table.X[0])
    assert out[1] == pytest.approx(-0.0144, abs=1e-5)
    assert abs(out[0]) <= 1e-5


def test_expansion_hand_check():
    polys = expand_network(single_square_net())
    assert len(polys) == 1
    assert dict(polys[0].terms) == pytest.approx({(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})


def test_expansion_degree_law():
    rng = np.random.default_rng(7)
    for _ in range(30):
        net = random_network(rng)
        d = expansion_degree(net)
        prod = 1
        for layer in net.layers:
            act = layer.activation
            if isinstance(act, MonomialPower):
                prod *= act.k
            elif isinstance(act, PolyActivation):
                prod *= act.poly.degree
        assert d == prod
        assert all(p.degree() <= d for p in expand_network(net))


def test_expansion_matches_forward_on_random_networks():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        net = random_network(rng)
        polys = expand_network(net)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, net.input_dim)
            out = forward(net, x)
            for k, p in enumerate(polys):
                assert abs(poly_eval(p, x) - out[k]) <= 1e-8 * (1.0 + abs(out[k]))


def test_expansion_keeps_tiny_terms():
    # (1e-8 * (1 + x1 + x2))^2: every coefficient is about 1e-16
    net = NetworkSpec(2, (LayerSpec(np.full((1, 3), 1e-8), MonomialPower(2)),))
    (poly,) = expand_network(net)
    want = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 2.0, (0, 2): 1.0, (1, 1): 2.0, (2, 0): 1.0}
    assert dict(poly.terms) == pytest.approx({e: 1e-16 * c for e, c in want.items()}, rel=1e-12)
    out = forward(net, [1.0, 1.0])[0]
    assert poly_eval(poly, [1.0, 1.0]) == pytest.approx(out, rel=1e-12)


# Exact bits and dict order of one expansion: poly_eval sums terms in dict
# order, so both decide its result.
GOLDEN_TERMS = [
    ((0, 0), '0x1.37e23a934ea1fp-1'),
    ((1, 0), '-0x1.503f1669f82b9p-7'),
    ((2, 0), '-0x1.20ec16b8ededep-8'),
    ((3, 0), '0x1.e503b7e886d6cp-5'),
    ((4, 0), '-0x1.296025909671ep-3'),
    ((5, 0), '0x1.c1c14201ef0b5p-3'),
    ((6, 0), '-0x1.c2be43c615721p-3'),
    ((7, 0), '0x1.1435ae99a2f0fp-3'),
    ((8, 0), '-0x1.423d0020e3153p-5'),
    ((1, 1), '-0x1.5685d1ced3494p-4'),
    ((0, 2), '-0x1.a2a38ea774042p-4'),
    ((2, 1), '0x1.8ddb0b4d0ff07p-3'),
    ((1, 2), '0x1.e6449c08da97bp-3'),
    ((3, 1), '-0x1.16fd7021657dep-3'),
    ((2, 2), '0x1.b0611390fb130p-2'),
    ((1, 3), '0x1.706c253d90b86p+0'),
    ((0, 4), '0x1.c24b49f5e9c4ep-1'),
    ((4, 1), '0x1.13b49e485c58ap-6'),
    ((3, 2), '-0x1.c84ffec561d1ap-1'),
    ((2, 3), '-0x1.1d4afa7319fbcp+1'),
    ((1, 4), '-0x1.5cb0f93758a57p+0'),
    ((5, 1), '0x1.f98fec3b9e884p-8'),
    ((4, 2), '0x1.2ee1951edd68cp-2'),
    ((3, 3), '-0x1.2469a8573a5b4p+0'),
    ((2, 4), '-0x1.94ede0c97bb8fp+2'),
    ((1, 5), '-0x1.082fe1640e440p+3'),
    ((0, 6), '-0x1.ae86ea90173f6p+1'),
    ((6, 1), '0x1.469db2b6fff12p-11'),
    ((5, 2), '0x1.ad3963c21f878p-5'),
    ((4, 3), '0x1.8d81a46e7a496p+0'),
    ((3, 4), '0x1.53b2d0a025390p+2'),
    ((2, 5), '0x1.992750ee91b5ep+2'),
    ((1, 6), '0x1.4d6267ded58acp+1'),
    ((7, 1), '0x1.fd8cf3fb3f331p-17'),
    ((6, 2), '0x1.f3c9eab28d66ap-10'),
    ((5, 3), '0x1.be34cb6d49907p-4'),
    ((4, 4), '0x1.46038b9efacdap+1'),
    ((3, 5), '0x1.612375170d004p+3'),
    ((2, 6), '0x1.390b424b863a6p+4'),
    ((1, 7), '0x1.f92dee6007802p+3'),
    ((0, 8), '0x1.34b8837392ce6p+2'),
]


def test_expansion_golden_bits_and_order():
    # identity, power 1 and power 4, a poly activation with a zero
    # coefficient, and exact-zero weights in every layer
    net = NetworkSpec(2, (
        LayerSpec(np.array([[0.3, -0.7, 0.0], [0.0, 0.45, 1.1]]), PolyActivation(UniPoly((0.25, 0.0, -1.5)))),
        LayerSpec(np.array([[-0.2, 0.6, 0.0], [0.1, -0.35, 0.9]]), MonomialPower(4)),
        LayerSpec(np.array([[0.0, 1.3, -0.4], [0.7, 0.0, 0.55]]), Identity()),
        LayerSpec(np.array([[0.15, -0.8, 0.65]]), MonomialPower(1)),
    ))
    (poly,) = expand_network(net)
    assert [(e, c.hex()) for e, c in poly.terms.items()] == GOLDEN_TERMS


def test_expansion_through_large_poly_activations_keeps_its_pinned_bits():
    # The golden net above composes its poly activation with 4-pair products
    # only.  Here the degree-8 layer's largest Horner product is C(4 + 7, 4) * 5
    # = 1650 pairs and the output layer's 495 * 495 spans several product
    # blocks; the digest of the (exponents, hex) list was frozen from the
    # expansion before either composition ran on arrays.
    rng = np.random.default_rng(24)
    surrogate = UniPoly((0.5, 0.25, 0.0, -0.0208, -0.0, 0.0021, 0.0, -0.00022, 1.5e-5))
    net = NetworkSpec(4, (
        LayerSpec(rng.uniform(-1.0, 1.0, (4, 5)), PolyActivation(surrogate)),
        LayerSpec(rng.uniform(-1.0, 1.0, (1, 5)), PolyActivation(UniPoly((0.1, -0.5, 0.25)))),
    ))
    (poly,) = expand_network(net)
    assert len(poly.terms) == 4845
    digest = hashlib.sha256(repr([(e, c.hex()) for e, c in poly.terms.items()]).encode()).hexdigest()
    assert digest == "c6d3986cb4eadf52686015b06cd0e6d8622ddc27722b6c961248dea4260e4ab2"


def test_wide_linear_expansion_is_fast_and_exact():
    # d + 1 terms, but each ring sum used to rehash every d-long key: 2000
    # inputs took 23 s, and take about 0.5 s on a shared 2-vCPU machine
    d = 2000
    w = np.random.default_rng(3).uniform(-1.0, 1.0, (1, d + 1))
    net = NetworkSpec(d, (LayerSpec(w),))
    start = time.perf_counter()
    (poly,) = expand_network(net)
    elapsed = time.perf_counter() - start
    want = {(0,) * d: w[0, 0]}
    for j in range(d):
        want[tuple(int(k == j) for k in range(d))] = w[0, j + 1]
    assert list(poly.terms.items()) == list(want.items())
    assert elapsed < 8.0


def test_expansion_budget_refuses_at_once():
    # C(10 + 16, 10) = 5,311,735 terms per output
    net = NetworkSpec(10, (
        LayerSpec(np.ones((4, 11)), MonomialPower(16)),
        LayerSpec(np.ones((1, 5)), Identity()),
    ))
    with pytest.raises(ConfigurationError, match=r"C\(26, 10\) = 5311735 terms"):
        expand_network(net)
    with pytest.raises(ConfigurationError, match="5311735"):
        build_coefficient_system(net, [MultiPoly.constant(10, 1.0)])
    # C(6 + 12, 6) = 18,564 is allowed, C(8 + 9, 8) = 24,310 is not
    check_expansion_size(NetworkSpec(6, (LayerSpec(np.ones((1, 7)), MonomialPower(12)),)))
    with pytest.raises(ConfigurationError, match="24310"):
        check_expansion_size(NetworkSpec(8, (LayerSpec(np.ones((1, 9)), MonomialPower(9)),)))
    # a linear net in d inputs stores (d + 1) * d exponents: 4,997,460 at d = 2235 is
    # allowed, 5,001,932 at d = 2236 is not, and d = 6000 is refused before any product
    check_expansion_size(NetworkSpec(2235, (LayerSpec(np.ones((1, 2236))),)))
    with pytest.raises(ConfigurationError, match="5001932 exponents"):
        check_expansion_size(NetworkSpec(2236, (LayerSpec(np.ones((1, 2237))),)))
    wide = NetworkSpec(6000, (LayerSpec(np.ones((1, 6001))),))
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match=r"C\(6001, 6000\) \* 6000 = 36006000 exponents"):
        expand_network(wide)
    assert time.perf_counter() - start < 0.1
    # d 8, 4 hidden, power 8 is inside the term limits (12,870 terms) but its
    # coefficient tape would hold 2,013,540 slots (8.3 s, 151 MB to record);
    # recording stops at MAX_TAPE_SLOTS, after 0.9-1.1 s on a shared 2-vCPU machine
    deep = NetworkSpec(8, (LayerSpec(np.ones((4, 9)), MonomialPower(8)), LayerSpec(np.ones((1, 5)), Identity())))
    start = time.perf_counter()
    with pytest.raises(ConfigurationError, match="250001 tape slots, above the limit of 250000"):
        build_coefficient_system(deep, [MultiPoly.constant(8, 1.0)])
    assert time.perf_counter() - start < 4.0


@pytest.fixture
def ring_passes(monkeypatch):
    """The calls expand_network makes to the ring's pass (none where it runs
    on keys), and that pass itself."""
    calls = []
    run = network._run_layers
    monkeypatch.setattr(network, "_run_layers", lambda *args: calls.append(1) or run(*args))
    return calls, run


def hex_terms(polys):
    return [[(e, c.hex()) for e, c in p.terms.items()] for p in polys]


def expanded(net, ring_passes):
    """expand_network(net) and the ring's pass on the input variables, each as
    its outputs' terms in dict order with coefficients in float hex, and
    whether the expansion ran on keys."""
    calls, run = ring_passes
    calls.clear()
    got = expand_network(net)
    keyed = not calls
    return hex_terms(got), hex_terms(run(net._pairs, network._variables(net.input_dim))), keyed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("form_block, mul_block", [(None, None), (1, None), (1, 7)])
def test_keyed_expansion_is_the_rings_pass(monkeypatch, ring_passes, form_block, mul_block):
    if form_block is not None:  # a linear form's outputs one row at a time
        monkeypatch.setattr(network, "MUL_BLOCK_PAIRS", form_block)
    if mul_block is not None:  # products in blocks of 7 pairs, which split rows
        monkeypatch.setattr(multipoly, "MUL_BLOCK_PAIRS", mul_block)
    calls, run = ring_passes
    mul_keys = []  # the keyed products that the reference pass makes: none, as it is the dict ring alone
    kernel = multipoly._mul_keys

    def reference(*args):
        monkeypatch.setattr(multipoly, "_mul_keys", lambda *a: mul_keys.append(1) or kernel(*a))
        try:
            return run(*args)
        finally:
            monkeypatch.setattr(multipoly, "_mul_keys", kernel)

    rng = np.random.default_rng(27)
    sides = {True: 0, False: 0}
    for _ in range(150):
        net = random_network(rng)
        layers, paired = [], False
        for layer in net.layers:
            w = layer.weights.copy()
            pick = rng.random(w.shape)
            w[pick < 0.15] = 0.0
            w[pick > 0.9] = -0.0
            if paired:  # nodes 0 and 1 are equal: weighted w and -w, their terms cancel mid-sum
                w[:, 2] = -w[:, 1]
            paired = len(w) > 1
            if paired:
                w[1] = w[0]
            layers.append(LayerSpec(w, layer.activation))
        got, want, keyed = expanded(NetworkSpec(net.input_dim, tuple(layers)), (calls, reference))
        assert got == want
        sides[keyed] += 1
    assert sides == {True: 150, False: 0}  # every net is finite and its keys fit int64
    assert not mul_keys


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_keyed_sum_moves_a_key_that_cancels_early_last(ring_passes):
    # 0.5 + (x1 + x2) - x1 + x1: x1's sum is 0.0 after its second addend, so
    # the ring deletes it and the third inserts it again, after x2
    hidden = LayerSpec(np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
    out = np.array([[0.5, 1.0, -1.0, 1.0]])
    got, want, keyed = expanded(NetworkSpec(2, (hidden, LayerSpec(out))), ring_passes)
    assert keyed and got == want
    assert [e for e, _ in got[0]] == [(0, 0), (0, 1), (1, 0)]
    # under a ninth power (55 terms), the power's order follows its base's
    got, want, keyed = expanded(NetworkSpec(2, (hidden, LayerSpec(out, MonomialPower(9)))), ring_passes)
    assert keyed and got == want and len(got[0]) == 55


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_expansion_falls_back_to_the_ring(ring_passes):
    calls, run = ring_passes
    rng = np.random.default_rng(28)
    # 70 inputs of degree 1: a radix of 2 per variable gives keys up to 2^70
    net = NetworkSpec(70, (LayerSpec(rng.uniform(-1.0, 1.0, (2, 71))),))
    got, want, keyed = expanded(net, ring_passes)
    assert got == want and not keyed and len(got[0]) == 71
    # 62 inputs and 2 outputs fit: the node digit's radix is the widest layer's, 2, not the 62 inputs'
    net = NetworkSpec(62, (LayerSpec(rng.uniform(-1.0, 1.0, (2, 63))),))
    got, want, keyed = expanded(net, ring_passes)
    assert got == want and keyed and len(got[0]) == 63
    # 1e200 weights under a fourth power overflow on keys, and expand_network
    # names the output that the ring's pass names without running it
    w = rng.uniform(-1.0, 1.0, (2, 5))
    w[1] *= 1e200
    net = NetworkSpec(4, (LayerSpec(w, MonomialPower(4)),))
    with np.errstate(over="ignore", invalid="ignore"):
        assert [finite(p) for p in run(net._pairs, network._variables(4))] == [True, False]
    calls.clear()
    with pytest.raises(NumericError, match=r"^output 1 of the expansion has a non-finite coefficient$"):
        expand_network(net)
    assert not calls
    # an all-zero weight row is the zero polynomial, squared on keys
    w[1] /= 1e200
    w[0] = 0.0
    got, want, keyed = expanded(NetworkSpec(4, (LayerSpec(w, MonomialPower(4)),)), ring_passes)
    assert keyed and got == want and got[0] == [] and len(got[1]) == 70


def finite(p):
    return all(map(math.isfinite, p.terms.values()))


def overflowing_nets(rng, scale, activation):
    """Nets whose expansion overflows at weights of the given scale: ten
    random ones, where scale-sized weights times scale-sized coefficients
    leave inf pre-activations in the middle layer, then four built by hand."""
    for _ in range(10):
        hidden = LayerSpec(scale * rng.uniform(-1.0, 1.0, (3, 3)))
        yield NetworkSpec(2, (hidden, LayerSpec(scale * rng.uniform(-1.0, 1.0, (3, 4)), activation),
                              LayerSpec(rng.uniform(-1.0, 1.0, (2, 4)))))
    big = LayerSpec(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, scale]]))  # x1 and scale * x2
    # a hidden layer whose pre-activations are finite and whose activation overflows
    yield NetworkSpec(2, (LayerSpec(np.array([[0.5, scale, 1.0], [0.0, 1.0, -1.0]]), activation),
                          LayerSpec(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.5]]))))
    # last layer: node 0 stays finite, node 1 overflows only in its activation,
    # and node 2's pre-activation 1 + x1 + scale^2 * x2 is inf
    last = np.array([[0.5, 1.0, 0.0], [0.0, scale, 0.0], [1.0, 1.0, scale]])
    yield NetworkSpec(2, (big, LayerSpec(last, activation)))
    # a degree-0 PolyActivation on an inf pre-activation: 0.0 * p leaves its nan terms
    constant = PolyActivation(UniPoly((2.0,)))
    yield NetworkSpec(2, (big, LayerSpec(np.array([[1.0, 1.0, scale], [0.5, 1.0, 1.0]]), constant)))
    # the last node of the net's highest-degree layer has an inf pre-activation:
    # under phi, the nan terms of its 0.0 * p start would carry past the node digit
    top = np.array([[0.5, 1.0, 1.0 / scale], [0.0, 1.0, 0.0], [1.0, 2.0, scale]])
    yield NetworkSpec(2, (big, LayerSpec(top, activation), LayerSpec(np.array([[0.0, 1.0, 1.0, 1.0]]))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e160, 1e300])
@pytest.mark.parametrize("activation", [PolyActivation(UniPoly((0.5, -1.0, 0.25, 2.0))), MonomialPower(3)],
                         ids=["poly", "power"])
def test_an_overflow_names_the_rings_output_on_keys(ring_passes, scale, activation):
    # the keyed pass carries a node whose pre-activation is not finite as one
    # nan constant, and expand_network names the first non-finite output, as
    # the ring's pass would, without running the ring
    calls, run = ring_passes
    x, lone_nan = network._variables(2), {(0, 0): "nan"}
    named = []
    for net in overflowing_nets(np.random.default_rng(31), scale, activation):
        last = net._pairs[-1][0], Identity()
        with np.errstate(over="ignore", invalid="ignore"):  # as expand_network runs the pass
            ring, pre = run(net._pairs, x), run((*net._pairs[:-1], last), x)
            keyed = network._expand_on_keys(net)
        k = next(k for k, p in enumerate(ring) if not finite(p))
        assert next(k for k, p in enumerate(keyed) if not finite(p)) == k
        for p, q in zip(keyed, pre):  # a non-finite pre-activation ends as one nan constant
            assert finite(q) or {e: c.hex() for e, c in p.terms.items()} == lone_nan
        calls.clear()
        with pytest.raises(NumericError, match=rf"^output {k} of the expansion has a non-finite coefficient$"):
            expand_network(net)
        assert not calls
        named.append(k)
    assert named[10:] == [0, 1, 0, 0]


def test_classify_rules():
    net = NetworkSpec(1, (LayerSpec(np.array([[0.0, 1.0], [1.0, -1.0]])),))
    assert classify(net, [3.0]) == 0   # outputs (3, -2)
    assert classify(net, [0.0]) == 1   # outputs (0, 1)
    tie = NetworkSpec(1, (LayerSpec(np.array([[0.0, 1.0], [0.0, 1.0]])),))
    assert classify(tie, [2.0]) == 0   # first maximum wins
    with pytest.raises(UsageError, match="at least 2 outputs"):
        classify(single_square_net(), [1.0, 1.0])


def test_classify_rows_match_single_rows():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 20:
        net = random_network(rng)
        if net.output_dim < 2:
            continue
        X = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 12)), net.input_dim))
        classes = classify(net, X)
        assert classes.shape == (len(X),)
        assert classes.tolist() == [classify(net, x) for x in X]
        assert all(type(classify(net, x)) is int for x in X)
        checked += 1


def test_network_json_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(10):
        net = random_network(rng)
        back = network_from_json(network_to_json(net))
        assert back.input_dim == net.input_dim
        assert len(back.layers) == len(net.layers)
        for a, b in zip(net.layers, back.layers):
            assert np.array_equal(a.weights, b.weights)
            assert type(a.activation) is type(b.activation)
            if isinstance(a.activation, MonomialPower):
                assert a.activation.k == b.activation.k
            if isinstance(a.activation, PolyActivation):
                assert a.activation.poly.coeffs == b.activation.poly.coeffs


GOLDEN_NETWORK_JSON = """\
{
  "input_dim": 2,
  "layers": [
    {"weights": [[0, 1, -1], [0.5, 2, 0.25]], "activation": {"kind": "power", "k": 2}},
    {"weights": [[1, 0.10000000000000001, -3]], "activation": {"kind": "poly", "coeffs": [0.5, 0, -0.125]}},
    {"weights": [[0, 1]], "activation": {"kind": "identity"}}
  ]
}
"""


def test_network_json_golden_text():
    net = NetworkSpec(2, (
        LayerSpec(np.array([[0.0, 1.0, -1.0], [0.5, 2.0, 0.25]]), MonomialPower(2)),
        LayerSpec(np.array([[1.0, 0.1, -3.0]]), PolyActivation(UniPoly((0.5, 0.0, -0.125)))),
        LayerSpec(np.array([[0.0, 1.0]]), Identity()),
    ))
    assert network_to_json(net) == GOLDEN_NETWORK_JSON
    back = network_from_json(GOLDEN_NETWORK_JSON)
    assert back.input_dim == 2
    assert [layer.activation for layer in back.layers] == [layer.activation for layer in net.layers]
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.weights, b.weights)


def test_network_json_parse_errors():
    with pytest.raises(ParseError, match="invalid JSON"):
        network_from_json("{")
    with pytest.raises(ParseError, match="non-empty"):
        network_from_json('{"input_dim": 2, "layers": []}')
    with pytest.raises(ParseError, match="layer 0"):
        network_from_json(
            '{"input_dim": 2, "layers": [{"weights": [[0,1,1]], "activation": {"kind": "wat"}}]}'
        )
    with pytest.raises(StructuralError, match="layer 0"):
        network_from_json(
            '{"input_dim": 2, "layers": [{"weights": [[0,1]], "activation": {"kind": "identity"}}]}'
        )


def test_dataset_validation():
    with pytest.raises(DimensionError, match="2-D"):
        Dataset(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(DimensionError, match="expected"):
        Dataset(np.array([[1.0], [2.0]]), np.array([1.0]))
    with pytest.raises(DimensionError, match="non-empty"):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(UsageError, match="finite"):
        Dataset(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))
    with pytest.raises(UsageError, match="finite"):
        Dataset(np.array([[1.0], [2.0]]), np.array([1.0, -np.inf]))


def test_dataset_csv_round_trip():
    ds = Dataset(np.array([[0.1, 0.6], [0.5, 0.9], [1.0 / 3.0, 2.0 / 7.0]]),
                 np.array([3.0, 8.0, -0.25]))
    back = dataset_from_csv(dataset_to_csv(ds))
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)


def test_dataset_csv_parse_errors():
    with pytest.raises(ParseError, match="header"):
        dataset_from_csv("f1,f2\n1,2\n")
    with pytest.raises(ParseError, match="line 2: expected 2 fields"):
        dataset_from_csv("f1,y\n1\n")
    with pytest.raises(ParseError, match="line 2: non-numeric"):
        dataset_from_csv("f1,y\n1,x\n")
    with pytest.raises(ParseError, match="no example rows"):
        dataset_from_csv("f1,y\n")
    for bad in ("nan,1", "1,inf", "-inf,1"):
        with pytest.raises(ParseError, match="line 3: non-finite"):
            dataset_from_csv(f"f1,y\n0,1\n{bad}\n")
    # blank lines still count: errors name the physical line
    with pytest.raises(ParseError, match="line 4: non-finite"):
        dataset_from_csv("f1,y\n0,1\n\n1,nan\n")
    # the first non-finite row is named: the inf row, or the nan row once that one is finite
    text = "f1,f2,y\n0,1,2\n\n0.5,inf,1\nnan,2,3\n"
    for bad, line in ((text, 4), (text.replace("inf", "1e308"), 5), ("f1,y\n1e999,0\n", 2)):
        with pytest.raises(ParseError, match=rf"^line {line}: non-finite field$"):
            dataset_from_csv(bad)
    with pytest.raises(ParseError, match="line 3: non-numeric"):
        dataset_from_csv("\nf1,y\n1,x\n")


def test_bundled_table():
    table = load_table1()
    assert table.X.shape == (4, 2)
    assert sorted(set(table.y.tolist())) == [3.0, 8.0]
