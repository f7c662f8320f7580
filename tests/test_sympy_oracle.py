"""Independent oracle: expansions against exact rational arithmetic in sympy.

Every float weight, activation coefficient and data value is converted to
a sympy Rational without rounding, so the oracle's polynomials are exact.
polynet's coefficients may differ from them by rounding only.  The
standard forward-error bound limits that difference by a small multiple of
the unit roundoff times the same coefficient of the expansion with every
weight and coefficient replaced by its absolute value.  The bound holds at
every weight scale, and a dropped term breaks it.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from polynet import (  # noqa: E402
    Identity,
    LayerSpec,
    MonomialPower,
    NetworkSpec,
    PolyActivation,
    UniPoly,
    class_target_poly,
    expand_network,
)
from polynet.experiments import load_table1  # noqa: E402

RTOL = sympy.Rational(1, 10**12)


def rational(value, absolute):
    q = sympy.Rational(float(value))
    return abs(q) if absolute else q


def constant(xs, q):
    return sympy.Poly(q, *xs, domain="QQ")


def exact_activation(act, pre, xs, absolute):
    if isinstance(act, Identity):
        return pre
    if isinstance(act, MonomialPower):
        return pre**act.k
    acc = constant(xs, 0)
    for i, c in enumerate(act.poly.coeffs):
        acc += (pre**i).mul_ground(rational(c, absolute))
    return acc


def exact_expansion(net, absolute=False):
    """Coefficient maps of every output, in exact rational arithmetic."""
    xs = sympy.symbols(f"x1:{net.input_dim + 1}")
    polys = [sympy.Poly(x, *xs, domain="QQ") for x in xs]
    for layer in net.layers:
        nxt = []
        for row in layer.weights:
            pre = constant(xs, rational(row[0], absolute))
            for w, p in zip(row[1:], polys):
                pre += p.mul_ground(rational(w, absolute))
            nxt.append(exact_activation(layer.activation, pre, xs, absolute))
        polys = nxt
    return [terms(p) for p in polys]


def terms(p):
    return {e: c for e, c in p.terms() if c != 0}


def assert_within_rounding(got, exact, bound):
    for e in set(got.terms) | set(exact):
        err = abs(sympy.Rational(got.terms.get(e, 0.0)) - exact.get(e, 0))
        assert err <= RTOL * bound.get(e, 0), (e, got.terms.get(e), float(exact.get(e, 0)))


def random_network(rng, scale):
    """1-3 inputs, 1-2 hidden layers of activation degree <= 3, 1-2 outputs."""
    d = int(rng.integers(1, 4))
    layers, fan_in = [], d
    for _ in range(int(rng.integers(1, 3))):
        width = int(rng.integers(1, 4))
        pick = int(rng.integers(0, 3))
        if pick == 0:
            act = Identity()
        elif pick == 1:
            act = MonomialPower(int(rng.integers(2, 4)))
        else:
            coeffs = rng.uniform(-1.0, 1.0, int(rng.integers(2, 5)))
            coeffs[rng.random(coeffs.size) < 0.3] = 0.0
            coeffs[-1] = 1.0
            act = PolyActivation(UniPoly(tuple(coeffs)))
        layers.append(LayerSpec(scale * rng.uniform(-1.0, 1.0, (width, fan_in + 1)), act))
        fan_in = width
    outputs = int(rng.integers(1, 3))
    layers.append(LayerSpec(scale * rng.uniform(-1.0, 1.0, (outputs, fan_in + 1)), Identity()))
    return NetworkSpec(d, tuple(layers))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e2])
def test_expansion_matches_exact_rational_expansion(scale):
    rng = np.random.default_rng(4242)
    for _ in range(6):
        net = random_network(rng, scale)
        exact, bound = exact_expansion(net), exact_expansion(net, absolute=True)
        for got, want, limit in zip(expand_network(net), exact, bound):
            assert_within_rounding(got, want, limit)


def test_class_target_polys_match_exact_products():
    ds = load_table1()
    xs = sympy.symbols(f"x1:{ds.X.shape[1] + 1}")
    for label in sorted(set(ds.y)):
        exact, bound = constant(xs, -1), constant(xs, 1)
        for row, y in zip(ds.X, ds.y):
            if y != label:
                continue
            exact *= sum((sympy.Poly(x - rational(c, False), *xs, domain="QQ") ** 2 for x, c in zip(xs, row)),
                         constant(xs, 0))
            bound *= sum((sympy.Poly(x + rational(c, True), *xs, domain="QQ") ** 2 for x, c in zip(xs, row)),
                         constant(xs, 0))
        assert_within_rounding(class_target_poly(ds, label), terms(exact), terms(bound))
