"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of polynet's modules with wrappers,
in every polynet module namespace that holds a reference to them, which
is where callers look them up (``from .network import expand_network``
binds the name in the importing module).  Nothing under ``src/`` is
edited.  A wrapper records a span only while a job is open, so the
benchmark's own output checks run untraced.

A layer's self time is its span's duration minus the time covered by the
spans of wrapped calls made inside it.  Spans are summed in memory per
layer as they close: the hot layers (``poly_mul``) run hundreds of
thousands of times per run, too many to keep one record each.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer name, counts a call)
FUNCTIONS = (
    ("polynet.cli", "main", "cli", True),
    ("polynet.synthesis", "build_coefficient_system", "synthesis.build", True),
    ("polynet.synthesis", "build_data_system", "synthesis.build", True),
    ("polynet.synthesis", "solve_system", "synthesis.solve", True),
    ("polynet.synthesis", "residual_jacobian", "synthesis.jacobian", True),
    ("polynet.synthesis", "cho_factor", "synthesis.linsolve", True),
    ("polynet.synthesis", "cho_solve", "synthesis.linsolve", False),
    ("polynet.network", "expand_network", "network.expand", True),
    ("polynet.network", "forward", "network.forward", True),
    ("polynet.multipoly", "poly_mul", "multipoly.mul", True),
    ("polynet.multipoly", "poly_add", "multipoly.add", True),
    ("polynet.multipoly", "poly_pow", "multipoly.pow", True),
    ("polynet.multipoly", "apply_univariate", "multipoly.apply_univariate", True),
    ("polynet.multipoly", "poly_eval", "multipoly.eval", True),
    ("polynet.funcapprox", "lsq_poly_fit", "funcapprox.fit", True),
    ("polynet.funcapprox", "fourier_fit", "funcapprox.fit", True),
    ("polynet.funcapprox", "fourier_to_poly", "funcapprox.fit", False),
    ("polynet.funcapprox", "approx_error", "funcapprox.error", True),
)
# (module, class, method, layer name): methods are looked up on the class.
METHODS = (("polynet.synthesis", "ResidualSystem", "residuals", "synthesis.residual"),)


class Tracer:
    """Install with install(), open a job with begin()/end()."""

    def __init__(self):
        self._stack: list[float] | None = None  # child time per open span; None outside jobs
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- jobs -------------------------------------------------------------

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def begin(self) -> None:
        self._stack = [0.0]

    def end(self) -> None:
        self._stack = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, counted: bool, after=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack is None:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                tracer.self_s[layer] += dt - child
                if counted:
                    tracer.calls[layer] += 1
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def _after_expand(self, polys) -> None:
        self.counters["network.expand.terms"] += sum(len(p.terms) for p in polys)

    def _after_solve(self, result) -> None:
        _, report = result
        self.counters["synthesis.attempts"] += report.restarts_used + 1
        self.counters["synthesis.attempts.failed"] += report.restarts_used + (0 if report.converged else 1)
        self.counters["synthesis.iters.winning"] += report.iterations

    def install(self) -> None:
        """Replace every reference held by a polynet module with a wrapper."""
        after = {"network.expand": self._after_expand, "synthesis.solve": self._after_solve}
        modules = [m for name, m in sys.modules.items() if name == "polynet" or name.startswith("polynet.")]
        for mod_name, attr, layer, counted in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, layer, counted, after.get(layer))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
        for mod_name, cls_name, attr, layer in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, layer, True))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Totals since the last reset: '<layer>.calls', '<layer>.self_s', counters."""
        out: dict[str, float] = {}
        for layer, n in self.calls.items():
            out[f"{layer}.calls"] = n
        for layer, s in self.self_s.items():
            out[f"{layer}.self_s"] = s
        out.update(self.counters)
        return out
