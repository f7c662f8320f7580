"""Property tests: ring laws of MultiPoly and expansion against forward.

Ring laws use small integer coefficients, so every intermediate
coefficient is an integer far below 2**53 and float arithmetic is exact:
the laws must hold with exact equality.

The expansion is compared with forward at random points, with weights
scaled by 10**k for k in -8..2.  Rounding in either path is bounded by the
standard forward-error argument: a small multiple of the unit roundoff eps
times S, the expansion of the same network with every weight and
activation coefficient replaced by its absolute value, evaluated at |x|.
The multiple is C_BOUND = 256 (the nets here are at most 3 layers deep
and of degree at most 9); a dropped or mis-scaled term breaks the bound.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polynet import (  # noqa: E402
    Identity,
    LayerSpec,
    MonomialPower,
    MultiPoly,
    NetworkSpec,
    PolyActivation,
    UniPoly,
    expand_network,
    expansion_degree,
    forward,
    poly_eval,
)
from polynet.multipoly import poly_add, poly_mul, poly_pow  # noqa: E402

EPS = np.finfo(float).eps
C_BOUND = 256
SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def int_polys(draw, nvars, count):
    """`count` polynomials in `nvars` variables: up to 4 terms of degree <= 2,
    integer coefficients in [-3, 3]."""
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeffs = st.integers(-3, 3).map(float)
    return [MultiPoly(nvars, draw(st.dictionaries(exps, coeffs, max_size=4))) for _ in range(count)]


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda d: int_polys(d, 3)))
def test_ring_laws_hold_exactly(polys):
    p, q, r = polys
    assert poly_add(p, q) == poly_add(q, p)
    assert poly_mul(p, q) == poly_mul(q, p)
    assert poly_add(poly_add(p, q), r) == poly_add(p, poly_add(q, r))
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
    assert poly_mul(p, poly_add(q, r)) == poly_add(poly_mul(p, q), poly_mul(p, r))


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda d: int_polys(d, 1)), st.integers(0, 3), st.integers(0, 3))
def test_power_adds_exponents(polys, a, b):
    (p,) = polys
    assert poly_pow(p, a + b) == poly_mul(poly_pow(p, a), poly_pow(p, b))


# 0 or a magnitude in [1e-3, 1]: nothing then underflows into subnormal
# numbers, where rounding errors stop being relative.
unit = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@st.composite
def networks(draw):
    """1-3 inputs, 1-2 hidden layers of width 1-3, a linear output layer of
    1-2 nodes; weights scaled by 10**k, k in -8..2."""
    scale = 10.0 ** draw(st.integers(-8, 2))
    d = draw(st.integers(1, 3))
    layers, fan_in = [], d
    for _ in range(draw(st.integers(1, 2))):
        width = draw(st.integers(1, 3))
        act = draw(st.sampled_from(["identity", "power", "poly"]))
        if act == "identity":
            act = Identity()
        elif act == "power":
            act = MonomialPower(draw(st.integers(2, 3)))
        else:
            act = PolyActivation(UniPoly(tuple(draw(st.lists(unit, min_size=2, max_size=4)))))
        weights = np.array(draw(st.lists(st.lists(unit, min_size=fan_in + 1, max_size=fan_in + 1),
                                         min_size=width, max_size=width)))
        layers.append(LayerSpec(scale * weights, act))
        fan_in = width
    outputs = draw(st.integers(1, 2))
    weights = np.array(draw(st.lists(st.lists(unit, min_size=fan_in + 1, max_size=fan_in + 1),
                                     min_size=outputs, max_size=outputs)))
    layers.append(LayerSpec(scale * weights, Identity()))
    return NetworkSpec(d, tuple(layers))


def absolute(net):
    """The same network with every weight and activation coefficient made non-negative."""
    layers = []
    for layer in net.layers:
        act = layer.activation
        if isinstance(act, PolyActivation):
            act = PolyActivation(UniPoly(tuple(abs(c) for c in act.poly.coeffs)))
        layers.append(LayerSpec(np.abs(layer.weights), act))
    return NetworkSpec(net.input_dim, tuple(layers))


@SETTINGS
@given(networks(), st.lists(unit, min_size=3, max_size=3))
def test_expansion_matches_forward_relative_to_absolute_expansion(net, point):
    assert expansion_degree(net) <= 9
    x = np.array(point[: net.input_dim])
    outs = forward(net, x)
    bounds = expand_network(absolute(net))
    for poly, out, bound in zip(expand_network(net), outs, bounds):
        S = poly_eval(bound, np.abs(x))
        assert abs(poly_eval(poly, x) - out) <= C_BOUND * EPS * S
