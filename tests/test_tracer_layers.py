"""The benchmark tracer counts ring calls by wrapping poly_mul, poly_add and
poly_pow; the operators must still reach those names, or a fold of a
function into its operator would leave its layer reading 0 calls."""

import sys
from pathlib import Path

import numpy as np

import polynet
import polynet.cli  # noqa: F401  (the tracer wraps polynet.cli.main)
from polynet import LayerSpec, MonomialPower, MultiPoly, NetworkSpec

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
        # looked up on the module, where the tracer put its wrapper
        expanded = layers(lambda: polynet.expand_network(net))
    finally:
        tracer.uninstall()
    assert expanded["network.expand.calls"] == 1
    for layer in ("multipoly.mul", "multipoly.add", "multipoly.pow"):
        assert expanded.get(f"{layer}.calls", 0) > 0, layer
