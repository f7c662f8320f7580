"""The benchmark tracer counts ring calls by wrapping poly_mul, poly_add,
poly_pow and apply_univariate; the operators and activations must still
reach those names, or a fold of a function into its caller would leave its
layer reading 0 calls.  The ring's pass that the coefficient tape records
(_run_layers on the input variables) reaches them; expand_network's pass
on int64 keys calls none of them, by design, and shows as network.expand
alone."""

import sys
from pathlib import Path

import numpy as np

import polynet
import polynet.cli  # noqa: F401  (the tracer wraps polynet.cli.main)
from polynet import network
from polynet import LayerSpec, MonomialPower, MultiPoly, NetworkSpec, PolyActivation, UniPoly

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402


def test_ring_operators_reach_the_traced_layers():
    p = MultiPoly(2, {(1, 0): 1.0, (0, 1): -2.0})
    q = MultiPoly(2, {(0, 0): 0.5, (1, 1): 3.0})
    net = NetworkSpec(2, (LayerSpec(np.ones((2, 3)), MonomialPower(2)), LayerSpec(np.ones((1, 3)))))
    tracer = Tracer()
    tracer.install()
    try:

        def layers(run):
            tracer.reset()
            tracer.begin()
            run()
            tracer.end()
            return tracer.snapshot()

        assert layers(lambda: p * q)["multipoly.mul.calls"] == 1
        assert layers(lambda: p + 1.0)["multipoly.add.calls"] == 1
        assert layers(lambda: p**3)["multipoly.pow.calls"] == 1
        ring = layers(lambda: network._run_layers(net._pairs, network._variables(2)))
        # looked up on the module, where the tracer put its wrapper
        expanded = layers(lambda: polynet.expand_network(net))
    finally:
        tracer.uninstall()
    for layer in ("multipoly.mul", "multipoly.add", "multipoly.pow"):
        assert ring.get(f"{layer}.calls", 0) > 0, layer
    assert expanded["network.expand.calls"] == 1
    assert not any(name.startswith("multipoly.") for name in expanded)


def test_poly_activations_reach_the_composition_layer():
    surrogate = PolyActivation(UniPoly((0.5, 0.25, 0.0, -0.02, 0.0, 2e-3, 0.0, -2e-4, 1e-5)))
    # 4 inputs at degree 8: the ring's Horner takes products up to C(4 + 7, 4) * 5 = 1650 pairs
    large = NetworkSpec(4, (LayerSpec(np.full((4, 5), 0.5), surrogate), LayerSpec(np.ones((1, 5)))))
    # 2 inputs at degree 2: the ring's products of at most 3 pairs keep the dict loop
    small = NetworkSpec(2, (LayerSpec(np.ones((2, 3)), PolyActivation(UniPoly((0.25, 0.0, -1.5)))),
                            LayerSpec(np.ones((1, 3)))))
    tracer = Tracer()
    tracer.install()
    try:

        def layers(run):
            tracer.reset()
            tracer.begin()
            run()
            tracer.end()
            return tracer.snapshot()

        # the ring's pass, which expand_network falls back to and the coefficient tape records
        large_counts = layers(lambda: network._run_layers(large._pairs, network._variables(4)))
        small_counts = layers(lambda: network._run_layers(small._pairs, network._variables(2)))
        keyed_counts = [layers(lambda: polynet.expand_network(net)) for net in (large, small)]
    finally:
        tracer.uninstall()
    assert large_counts["multipoly.apply_univariate.calls"] == 4
    assert large_counts.get("multipoly.mul.calls", 0) > 0  # phi(p) multiplies in the ring
    assert small_counts["multipoly.apply_univariate.calls"] == 2
    for layer in ("multipoly.mul", "multipoly.add"):
        assert small_counts.get(f"{layer}.calls", 0) > 0, layer
    # the keyed expansion calls no ring function: its work shows under network.expand
    for counts in keyed_counts:
        assert counts["network.expand.calls"] == 1
        assert not any(name.startswith("multipoly.") for name in counts)
