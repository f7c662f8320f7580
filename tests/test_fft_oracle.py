"""Independent oracle: expansion coefficients by interpolation at roots of unity.

Every exponent of a polynomial of total degree D lies in 0..D, so its values
at the (D+1)^d grid points (w^k1, ..., w^kd), w = exp(2 pi i / (D+1)), fix
every coefficient: they are fftn(values) / (D+1)^d.  The values come from the
network's layers evaluated here in complex arithmetic, so no polynomial ring
operation enters, and grids reach expansion sizes the sympy oracle cannot.

Interpolation rounds differently from the ring, so the two agree up to a
small multiple of the unit roundoff times the scale of the values: the
network with every weight and activation coefficient replaced by its
absolute value, evaluated at all ones, bounds every |value| on the grid
and every coefficient.  This is a test oracle only; its different bits
would change what the solver converges to.
"""

import numpy as np
import pytest

from polynet import (
    Identity,
    LayerSpec,
    MonomialPower,
    NetworkSpec,
    PolyActivation,
    UniPoly,
    expand_network,
    expansion_degree,
    forward,
)

RTOL = 256 * np.finfo(float).eps


def complex_forward(net, Z):
    h = Z
    for layer in net.layers:
        h = layer.activation(np.concatenate((np.ones((len(h), 1)), h), axis=1) @ layer.weights.T)
    return h


def interpolated_coefficients(net):
    """Array (D+1, ..., D+1, outputs) whose entry [e] is the coefficient of x^e."""
    d, D = net.input_dim, expansion_degree(net)
    roots = np.exp(2j * np.pi * np.arange(D + 1) / (D + 1))
    Z = np.stack(np.meshgrid(*[roots] * d, indexing="ij"), axis=-1).reshape(-1, d)
    values = complex_forward(net, Z).reshape((D + 1,) * d + (net.output_dim,))
    return np.fft.fftn(values, axes=tuple(range(d))) / (D + 1) ** d


def absolute_network(net):
    def absolute(act):
        if isinstance(act, PolyActivation):
            return PolyActivation(UniPoly(tuple(abs(c) for c in act.poly.coeffs)))
        return act

    return NetworkSpec(net.input_dim, tuple(LayerSpec(np.abs(l.weights), absolute(l.activation)) for l in net.layers))


def random_network(rng, scale, d, degrees):
    """Width-3 hidden layers of the given activation degrees, power or poly, then 1-2 identity outputs."""
    layers, fan_in = [], d
    for k in degrees:
        act = MonomialPower(k) if rng.random() < 0.5 else PolyActivation(UniPoly(tuple(rng.uniform(-1.0, 1.0, k + 1))))
        layers.append(LayerSpec(scale * rng.uniform(-1.0, 1.0, (3, fan_in + 1)), act))
        fan_in = 3
    layers.append(LayerSpec(scale * rng.uniform(-1.0, 1.0, (int(rng.integers(1, 3)), fan_in + 1)), Identity()))
    return NetworkSpec(d, tuple(layers))


# (inputs, hidden activation degrees): 13 to 969 terms; the last three are beyond the sympy oracle
SHAPES = [(1, (3, 4)), (2, (2, 3)), (3, (2, 2)), (2, (3, 3, 2)), (4, (8,)), (3, (4, 4)), (6, (2, 3))]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e2])
def test_expansion_matches_interpolation_at_roots_of_unity(scale):
    rng = np.random.default_rng(777)
    for d, degrees in SHAPES:
        net = random_network(rng, scale, d, degrees)
        want = interpolated_coefficients(net)
        bound = forward(absolute_network(net), np.ones(d))
        for k, p in enumerate(expand_network(net)):
            got = np.zeros(want.shape[:-1])
            for e, c in p.terms.items():
                got[e] = c
            # every grid exponent is compared: a missing or spurious term shows
            assert np.max(np.abs(want[..., k] - got)) <= RTOL * bound[k], (d, degrees, k)
