"""Weight synthesis by equation solving.

Instead of gradient training, pick an architecture, write down what its
expanded output polynomials must equal, and solve the resulting nonlinear
system for the weights:

  * coefficient matching: one residual per output monomial, expanded
    coefficient minus target coefficient;
  * data matching: one residual per example, forward output minus target.

Systems are solved by a damped Gauss-Newton (Levenberg-Marquardt)
iteration with forward-difference Jacobians.  Underdetermined systems are
fine; the damped normal matrix stays positive definite.  The first solve
in a process imports LAPACK from scipy.linalg; importing this module does not.

Both builders set the system's perturbed_fn, which residual_jacobian calls
on the p sets that each step one weight, under its np.errstate; batch_fn
holds its own, so overflow is silent.  The systems and residual_jacobian
refuse non-finite weights (StructuralError); _lm checks the start, J'J and
J'r (NumericError), and accepts a trial on cost_try < cost alone.

Data residuals run the forward pass (_run_layers) on stacks of weight
sets.  A data Jacobian runs each weight's cone alone, everything that
weight can change: its stepped row in its own layer, then the layers after
it, from the base pass's layer inputs (see _cone_outputs), each on
_run_layers too, so every entry keeps the bits of the stacked pass.

Coefficient residuals replay a tape: build_coefficient_system runs
expand_network's ring pass once, at fixed weights that enter it as constant
polynomials, each holding one _Recorded float, and each * and + the ring
performs on those floats writes one float operation onto the tape
(_CoefficientTape.record).  A residual call replays those operations with
numpy, in groups: a stack of weight sets on a (slots, k) buffer, set j in
column j, and one set, at every tape size, on a (slots,) buffer.  A
coefficient Jacobian fills its p sets in place on the stacked buffer and
replays the same groups over it.  A set whose exact zeros differ from the
recording's runs the dict ring alone, so every residual has the bits of its
own expansion.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError, StructuralError, UsageError
from .multipoly import MultiPoly, _integer, grlex_monomials, truncate_degree
from .network import (Activation, Dataset, LayerSpec, NetworkSpec, _run_layers, _variables, check_expansion_size,
                      check_term_count, expand_network, expansion_degree)

LAMBDA_MIN = 1e-12  # keep the damped normal matrix numerically PD
LAMBDA_MAX = 1e12   # past this the step is effectively zero; give up
STEP_EPS = 1e-14    # step-norm termination
DAMPING = 1e-3      # initial Levenberg-Marquardt lambda
FD_STEP = 1e-7      # relative forward-difference step
RESTARTS = 16       # seeded uniform(-1, 1) starts tried after the first one
MAX_ITERS = 500     # accepted steps per attempt
STALL_WINDOW = 50   # an attempt whose cost fell by less than STALL_DROP
STALL_DROP = 0.02   # over the last STALL_WINDOW accepted steps has stalled
TOL_RESIDUAL = 1e-10  # on the residual infinity norm: an attempt at or below it has converged
# Largest buffer of one batched residual call, in float64 elements (1 MiB):
# m weight sets times, for the data system, the stacked layer intermediate
# of one set (example rows x widest layer input), or, for the coefficient
# system, the slots of its tape.
CHUNK_ELEMENTS = 1 << 17
# Most slots a coefficient system's tape may record.  Recording takes about
# 4 us and 90 bytes a slot.  Nets of d inputs, h hidden MonomialPower(k)
# units and one output, in separate processes on a shared 2-vCPU machine
# (d, h, k: slots, seconds, peak RSS above the interpreter's 56 MB):
# 6, 8, 4: 14,640, 0.07 s, 3 MB; 4, 4, 8: 42,371, 0.17 s, 5 MB; 5, 4, 8:
# 134,127, 0.52 s, 12 MB; 8, 4, 6: 201,939, 0.87 s, 20 MB; 6, 4, 8: 367,555,
# 1.5 s, 31 MB; 8, 4, 8: 2,013,540, 8.3 s, 151 MB.  The limit keeps the
# first four and refuses the last two after 0.9-1.1 s.
MAX_TAPE_SLOTS = 250_000


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    iterations: int
    final_residual_norm: float
    restarts_used: int


def network_weights(net: NetworkSpec) -> np.ndarray:
    """Flat weight vector: layer-major, then row-major, then column."""
    return np.concatenate([layer.weights.ravel() for layer in net.layers])


def _check_weights(w: np.ndarray, unknowns: int) -> None:
    if w.shape != (unknowns,):
        raise DimensionError(f"weight vector has shape {w.shape}, expected ({unknowns},)")


def _layer_weights(arch: NetworkSpec, w: np.ndarray) -> Iterator[tuple[np.ndarray, Activation]]:
    """(weights, activation) per layer, the weights (..., r, c) viewed in flat vectors w (..., p)."""
    offset = 0
    for layer in arch.layers:
        r, c = layer.weights.shape
        yield w[..., offset : offset + r * c].reshape(w.shape[:-1] + (r, c)), layer.activation
        offset += r * c


def with_weights(arch: NetworkSpec, w) -> NetworkSpec:
    """Rebuild the architecture with weights taken from the flat vector."""
    w = np.asarray(w, dtype=float)
    _check_weights(w, sum(layer.weights.size for layer in arch.layers))
    return NetworkSpec(arch.input_dim, tuple(LayerSpec(*pair) for pair in _layer_weights(arch, w)))


@dataclass(frozen=True)
class ResidualSystem:
    """Vector residual function of the flat weight vector, evaluated on
    stacks of weight vectors: batch_fn maps (m, unknowns) to (m, arity).

    perturbed_fn, when set, maps (w, w + steps) to the residuals (arity,
    unknowns) of the sets that each step one weight, column j at w with w_j
    replaced by w_j + steps_j, with the bits batch_fn gives those sets.
    Both builders set it: the data system runs each weight's cone, and the
    coefficient system fills the sets in place on its tape's buffer.  It
    runs under residual_jacobian's np.errstate, after its finiteness check
    of the stepped weights; when it is None, the sets go through batch_fn."""

    unknowns: int
    arity: int  # residual count
    batch_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    perturbed_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(default=None, repr=False)

    def residuals(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        _check_weights(w, self.unknowns)
        return self.batch_fn(w[None])[0]


def class_target_poly(ds: Dataset, label: float) -> MultiPoly:
    """Score polynomial of one class: minus the product, over the class's
    examples, of the squared distance to that example.

    It is 0 exactly at the class's own points and negative elsewhere, so
    the class whose polynomial is largest wins.  The constant input
    feature contributes (1 - 1)^2 = 0 to every distance and is omitted.
    A product of n quadratics in d variables may hold C(d + 2n, d) terms,
    and check_term_count refuses it before any product is taken.
    """
    d = ds.X.shape[1]
    matched = [i for i in range(len(ds)) if ds.y[i] == label]
    if not matched:
        raise UsageError(f"no examples with label {label!r}")
    check_term_count(d, 2 * len(matched))
    prod = MultiPoly.constant(d, 1.0)
    for i in matched:
        dist = MultiPoly.constant(d, float(np.dot(ds.X[i], ds.X[i])))
        for j, c in enumerate(ds.X[i]):
            v = MultiPoly.variable(d, j)
            dist = dist + v * (-2.0 * float(c)) + v * v
        prod = prod * dist
    return -prod


def build_coefficient_system(arch: NetworkSpec, targets: Sequence[MultiPoly]) -> ResidualSystem:
    """One residual per monomial of total degree <= expansion_degree(arch),
    output-major, then graded-lex: expanded coefficient minus target
    coefficient.

    Its perturbed_fn fills the stepped sets in place on the tape's buffer
    (_CoefficientTape.perturbed), at most CHUNK_ELEMENTS floats at a time."""
    check_expansion_size(arch)
    targets = list(targets)
    if len(targets) != arch.output_dim:
        raise UsageError(f"{len(targets)} targets for {arch.output_dim} outputs")
    for k, t in enumerate(targets):
        if t.nvars != arch.input_dim:
            raise DimensionError(f"target {k} has {t.nvars} variables, architecture has {arch.input_dim}")
    attainable = expansion_degree(arch)
    for k, t in enumerate(targets):
        if t.degree() > attainable:
            raise UsageError(
                f"target {k} has degree {t.degree()} but the architecture expands to degree {attainable}"
            )
    monomials = grlex_monomials(arch.input_dim, attainable)
    wanted = np.array([t.terms.get(e, 0.0) for t in targets for e in monomials])
    tape = _CoefficientTape(arch, monomials)
    chunk = _chunk(arch, tape.slots)

    @np.errstate(over="ignore", invalid="ignore")  # overflow is silent: the solver's checks report it
    def batch_fn(Ws: np.ndarray) -> np.ndarray:
        if len(Ws) != 1:
            return _stacked(tape, Ws, wanted, chunk)
        if not all(map(math.isfinite, Ws[0].tolist())):  # on one set, cheaper than np.isfinite's reduction
            raise StructuralError("weights must be finite")
        return (tape.one_set(Ws[0]) - wanted)[None]

    def perturbed_fn(w: np.ndarray, stepped: np.ndarray) -> np.ndarray:
        R = np.empty((wanted.size, w.size))
        for lo in range(0, w.size, chunk):
            np.subtract(tape.perturbed(w, stepped, lo, min(lo + chunk, w.size)), wanted[:, None],
                        out=R[:, lo : lo + chunk])
        return R

    return ResidualSystem(tape.unknowns, wanted.size, batch_fn, perturbed_fn)


class _Recorded(float):
    """A coefficient of the recording ring pass, which only multiplies and
    adds: a float holding its value at the record point, whose every * and +
    goes to its tape's record, which appends one entry and returns it as a
    _Recorded float.  It meets floats alone: a weight enters the ring as a
    constant polynomial, so poly_mul and poly_add do all of its arithmetic.
    0 + c and 1 * c give c itself: they have c's bits but for 0.0 + -0.0,
    and a zero's sign reaches no term the ring keeps."""

    __slots__ = ("tape", "index")

    def __add__(self, other):
        return self.tape.record(1, self, other)

    def __radd__(self, other):
        return self.tape.record(1, other, self)

    def __mul__(self, other):
        return self.tape.record(2, self, other)

    def __rmul__(self, other):
        return self.tape.record(2, other, self)


class _CoefficientTape:
    """The float operations of one ring pass (_run_layers on the input
    variables), recorded once on constant polynomials of _Recorded weights,
    whose * and + call record, and replayed on stacks of weight sets.

    While recording, entry i applies OPS[op[i]] to entries a[i] and b[i],
    has value[i] at the record point, and lies depth[i] ops above the
    leaves: the weights, then each constant the pass meets, once per bit
    pattern.  The entries are laid out as slots by (depth, op): the
    weights, the constants (consts), then one block per group (ufunc, lo,
    hi, operands) that writes slots lo..hi-1 from slots of lower depth.
    replay runs the groups over a (slots, k) buffer whose weight rows hold k
    sets, set j in column j.  Two methods fill those rows: __call__ from a
    stack of sets, and perturbed, for a Jacobian, from w and its stepped
    weights, in place.  one_set runs the same groups over a (slots,) buffer
    of one set, at every tape size.  The ring drops the terms whose
    coefficient is exactly 0, which changes its later dict order and sums;
    so a weight set whose zero pattern over the slots is not the
    recording's (zero) runs the float dict ring instead (ring), and every
    set keeps the bits of its own expansion."""

    OPS = (None, np.add, np.multiply)

    def __init__(self, arch: NetworkSpec, monomials: list):
        self.arch, self.monomials = arch, monomials
        self.op, self.a, self.b, self.depth, self.value = (array(t) for t in "bqqqd")
        self._consts: dict[str, int] = {}  # by bits, so that 0.0 and -0.0 differ
        # the record point has a generator of its own, so the solver's draws do not move
        point = np.random.default_rng(0).uniform(-1.0, 1.0, network_weights(arch).size).tolist()
        d = arch.input_dim
        weights = [MultiPoly._trusted(d, {(0,) * d: self.append(0, 0, 0, v)}) for v in point]
        outputs = [self.entry(c) for c in self.ring(np.array(weights, dtype=object))]
        op, a, b, depth = (np.frombuffer(col, dtype=col.typecode) for col in (self.op, self.a, self.b, self.depth))
        # slots by (depth, op), ties in tape order: the weights, the constants, then one block per group
        order = np.lexsort((op, depth))
        slot = np.argsort(order)  # of each tape entry
        # group bounds, the first of them after the leaves (depth 0, op 0)
        bounds = [*(np.flatnonzero(np.diff(depth[order] * len(self.OPS) + op[order])) + 1), order.size]
        self.groups = [(self.OPS[op[order[lo]]], lo, hi, [slot[x[order[lo:hi]]] for x in (a, b)])
                       for lo, hi in zip(bounds, bounds[1:])]
        values = np.frombuffer(self.value)[order]
        self.slots, self.unknowns = order.size, len(weights)
        self.consts = values[len(weights) : bounds[0]]
        self.zero = values == 0.0  # (slots,) bool: the slot was 0.0 at the record point
        self.outputs = slot[outputs]  # (arity,) slot of each residual's coefficient
        del self.op, self.a, self.b, self.depth, self.value, self._consts  # the replay needs none of them
        self._zeros, self._zero_slots = int(self.zero.sum()), np.flatnonzero(self.zero)  # for the stray checks

    def append(self, op: int, a: int, b: int, value: float) -> _Recorded:
        index = len(self.op)
        if index == MAX_TAPE_SLOTS:
            raise ConfigurationError(
                f"recording the coefficient system reached {index + 1} tape slots, above the limit of {MAX_TAPE_SLOTS}"
            )
        c = float.__new__(_Recorded, value)
        c.tape, c.index = self, index
        self.op.append(op)
        self.a.append(a)
        self.b.append(b)
        self.depth.append(1 + max(self.depth[a], self.depth[b]) if op else 0)
        self.value.append(value)
        return c

    def record(self, op: int, a, b) -> _Recorded:
        """a + b (op 1) or a * b (op 2) of two coefficients, one of them recorded on this tape."""
        unit = 0.0 if op == 1 else 1.0
        if type(a) is not _Recorded and a == unit:
            return b
        if type(b) is not _Recorded and b == unit:
            return a
        value = float(a) + float(b) if op == 1 else float(a) * float(b)
        return self.append(op, self.entry(a), self.entry(b), value)

    def entry(self, c) -> int:
        """The entry of a recorded coefficient, or the leaf of a constant."""
        if type(c) is _Recorded:
            return c.index
        key = float(c).hex()
        if key not in self._consts:
            self._consts[key] = self.append(0, 0, 0, float(c)).index
        return self._consts[key]

    def replay(self, buf: np.ndarray) -> np.ndarray:
        """Every slot of buf (slots, k), k weight sets whose weights fill its
        first unknowns rows, set j in column j: the constants, then the groups."""
        p = self.unknowns
        buf[p : p + len(self.consts)] = self.consts[:, None]
        for ufunc, lo, hi, (a, b) in self.groups:
            ufunc(buf.take(a, 0), buf.take(b, 0), out=buf[lo:hi])
        return buf

    def _coefficients(self, buf: np.ndarray) -> np.ndarray:
        """Coefficients (arity, k) of the replayed buf (slots, k); a set whose
        zeros stray from the recording's runs the dict ring instead."""
        C = buf.take(self.outputs, 0)
        # as in one_set: none strays when the recording's zero slots hold every zero
        if np.count_nonzero(buf == 0.0) != self._zeros * buf.shape[1] or buf.take(self._zero_slots, 0).any():
            for j in ((buf == 0.0) != self.zero[:, None]).any(axis=0).nonzero()[0]:
                C[:, j] = self.ring(buf[: self.unknowns, j].copy())
        return C

    def ring(self, w: np.ndarray) -> list:
        """Coefficients (arity,) at one weight set w (unknowns,) by the dict ring:
        floats, or _Recorded floats when w holds the recording's constant
        polynomials.  Overflow is silent: numpy's object matvec would warn of it."""
        with np.errstate(over="ignore", invalid="ignore"):
            polys = _run_layers(_layer_weights(self.arch, w), _variables(self.arch.input_dim))
        return [p.terms.get(e, 0.0) for p in polys for e in self.monomials]

    def one_set(self, w: np.ndarray) -> np.ndarray:
        """Coefficients (arity,) at one weight set w (unknowns,), replayed on a
        (slots,) buffer, whose indexed gathers cost less than take on a
        (slots, 1) one; or by the dict ring when its zeros stray."""
        p = self.unknowns
        buf = np.empty(self.slots)
        buf[:p] = w
        buf[p : p + len(self.consts)] = self.consts
        for ufunc, lo, hi, (a, b) in self.groups:
            ufunc(buf[a], buf[b], out=buf[lo:hi])
        # none strays when its zeros are as many as the recording's, and the recorded zero slots hold them
        if np.count_nonzero(buf) != self.slots - self._zeros or self._zeros and buf[self._zero_slots].any():
            return np.array(self.ring(w))
        return buf[self.outputs]

    def __call__(self, Ws: np.ndarray) -> np.ndarray:
        """Coefficients (k, arity) at weight sets Ws (k, unknowns)."""
        buf = np.empty((self.slots, len(Ws)))
        buf[: self.unknowns] = Ws.T
        return self._coefficients(self.replay(buf)).T

    def perturbed(self, w: np.ndarray, stepped: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Coefficients (arity, hi - lo) of the weight sets lo..hi-1 that step
        one weight each, set j at w with w_j replaced by stepped_j, in column
        j - lo: filled in place, with no stack of sets."""
        buf = np.empty((self.slots, hi - lo))
        buf[: self.unknowns] = w[:, None]
        buf[lo:hi].reshape(-1)[:: hi - lo + 1] = stepped[lo:hi]  # the block's diagonal
        return self._coefficients(self.replay(buf))


def build_data_system(arch: NetworkSpec, ds: Dataset) -> ResidualSystem:
    """One residual per example row: network output minus observed value.

    Its perturbed_fn runs each weight's cone (_cone_outputs): the base pass
    once, then per layer only the stepped rows and the layers after them."""
    if arch.output_dim != 1:
        raise UsageError(f"data matching needs a single-output architecture, got {arch.output_dim} outputs")
    if ds.X.shape[1] != arch.input_dim:
        raise DimensionError(f"dataset has {ds.X.shape[1]} features, architecture expects {arch.input_dim}")
    # Rows are copied per set: a broadcast view makes concatenate lay [1, x]
    # out column-major, and a strided dot rounds differently.
    widest = max(layer.weights.shape[1] for layer in arch.layers)
    chunk = _chunk(arch, len(ds) * widest)
    X = np.broadcast_to(ds.X, (chunk,) + ds.X.shape).copy()

    def run(Ws: np.ndarray) -> np.ndarray:
        return _run_layers(_layer_weights(arch, Ws[:, None]), X[: len(Ws)])[..., 0]

    # per layer: the mask that builds its matrices M, and each stack of its sets
    plans = [_cone_plan(*layer.weights.shape, chunk) for layer in arch.layers]

    @np.errstate(over="ignore", invalid="ignore")  # overflow is silent: the solver's checks report it
    def batch_fn(Ws: np.ndarray) -> np.ndarray:
        return _stacked(run, Ws, ds.y, chunk)

    def perturbed_fn(w: np.ndarray, stepped: np.ndarray) -> np.ndarray:
        return (np.concatenate(list(_cone_outputs(arch, plans, X[0], w, stepped))) - ds.y).T

    return ResidualSystem(network_weights(arch).size, len(ds.y), batch_fn, perturbed_fn)


def _cone_plan(r: int, c: int, chunk: int) -> tuple[np.ndarray, list]:
    """Of a layer W (r, c): the mask (c + 1, 1, c) that builds M (see
    _cone_outputs) from the stepped and the base weights, and (stack row, i, t)
    of its sets (i, t), set i * c + t in weight order, in stacks of at most
    chunk sets."""
    stacks = [np.divmod(np.arange(lo, min(lo + chunk, r * c)), c) for lo in range(0, r * c, chunk)]
    return np.eye(c + 1, c, dtype=bool)[:, None], [(np.arange(len(i)), i, t) for i, t in stacks]


def _cone_outputs(arch: NetworkSpec, plans: list, X: np.ndarray, w: np.ndarray,
                  stepped: np.ndarray) -> Iterator[np.ndarray]:
    """Outputs (k, n) at rows X (n, d) of the weight sets that step one
    weight each, set j at w with w_j replaced by stepped_j, in weight order
    and in the stacks of plans (_cone_plan's, per layer).

    An output of np.matvec has the bits of W @ x, which depend on the row's
    own values and on its place among W's rows.  So for a layer W (r, c),
    M[t] is W with every row's entry t stepped: its row i is set (i, t)'s row,
    at its own place, and one depth-1 _run_layers call of the M[t], and of W
    last for the base pass, on the layer's base input h gives all r * c
    stepped activations, with the stacked pass's bits.  Set (i, t) takes the
    base activations with node i replaced, and runs the later layers on the
    base weights; the layers before its own are never run again."""
    pairs, stepped_pairs = list(_layer_weights(arch, w)), _layer_weights(arch, stepped)
    h = X
    for layer, ((W, activation), (V, _), (mask, stacks)) in enumerate(zip(pairs, stepped_pairs, plans)):
        # (c + 1, n, r): set (i, t)'s node i at [t, :, i], the base pass at [-1]
        A = _run_layers([(np.where(mask, V, W)[:, None], activation)], h)
        if layer == len(pairs) - 1:  # the output node: set (0, t) is A[t]
            yield A[:-1, :, 0]
            break
        h = A[-1]
        for k, i, t in stacks:
            stack = np.empty((len(k),) + h.shape)
            stack[:] = h
            stack[k, :, i] = A[t, :, i]
            yield _run_layers(pairs[layer + 1 :], stack)[..., 0]


def _chunk(arch: NetworkSpec, per_set: int) -> int:
    """Weight sets per stacked call: CHUNK_ELEMENTS over the elements one set takes."""
    return max(1, min(network_weights(arch).size, CHUNK_ELEMENTS // per_set))


def _stacked(run, Ws: np.ndarray, targets: np.ndarray, chunk: int) -> np.ndarray:
    """Residuals run(Ws) - targets of sets Ws (m, unknowns), where run maps up
    to chunk sets (k, unknowns) to outputs (k, arity): each builder's stacked route."""
    _check_finite(Ws)
    if len(Ws) <= chunk:
        return run(Ws) - targets
    return np.concatenate([run(Ws[lo : lo + chunk]) for lo in range(0, len(Ws), chunk)]) - targets


def _check_finite(W: np.ndarray) -> None:
    if not np.isfinite(W).all():
        raise StructuralError("weights must be finite")


@np.errstate(over="ignore", invalid="ignore")  # as batch_fn's; perturbed_fn runs in it
def residual_jacobian(system: ResidualSystem, w, r0) -> np.ndarray:
    """Forward-difference Jacobian at w, where r0 = system.residuals(w); the
    same scheme solve_system iterates with.

    Column j uses step FD_STEP * (1 + |w_j|).  The p perturbed vectors go
    through one system.perturbed_fn call, or, without one, one batch_fn
    call on their stack; every entry has the bits of a per-column
    system.residuals evaluation.  A weight that is not finite, or whose
    step is not, raises StructuralError here, for every system.  Overflow
    to inf or nan is silent, in perturbed_fn too: it runs in this np.errstate."""
    w = np.asarray(w, dtype=float)
    _check_weights(w, system.unknowns)
    r0 = np.asarray(r0, dtype=float)
    if r0.shape != (system.arity,):
        raise DimensionError(f"residual vector has shape {r0.shape}, expected ({system.arity},)")
    steps = FD_STEP * (1.0 + np.abs(w))
    stepped = w + steps
    _check_finite(stepped)  # w is finite where w + steps is
    if system.perturbed_fn is not None:
        R = system.perturbed_fn(w, stepped)
    else:
        Ws = np.broadcast_to(w, (w.size, w.size)).copy()
        np.fill_diagonal(Ws, stepped)
        R = system.batch_fn(Ws).T
    J = np.subtract(R, r0[:, None], order="C")  # J.T @ J rounds differently in F order
    J /= steps
    return J


def _finite(value, name: str):
    """value, or NumericError naming it when any entry overflowed."""
    if not np.isfinite(value).all():
        raise NumericError(f"{name} is not finite")
    return value


@cache
def _lapack():
    """scipy.linalg.lapack, imported once, by the first solve: it is most of
    what `import polynet` would load, and expanding never factors a matrix."""
    from scipy.linalg import lapack
    return lapack


def cho_factor(M: np.ndarray) -> np.ndarray:
    """The upper Cholesky factor of a symmetric matrix, from LAPACK's dpotrf
    as scipy.linalg.cho_factor calls it, without scipy's checks: LinAlgError
    when M is not positive definite.  The first solve imports scipy.linalg."""
    c, info = _lapack().dpotrf(M, lower=0, clean=0)
    if info:
        raise np.linalg.LinAlgError(f"dpotrf failed with info {info}")
    return c


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with M x = b, where c = cho_factor(M), from LAPACK's dpotrs as
    scipy.linalg.cho_solve calls it."""
    x, info = _lapack().dpotrs(c, b, lower=0)
    if info:
        raise np.linalg.LinAlgError(f"dpotrs failed with info {info}")
    return x


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, or rejects a trial step
def _lm(system: ResidualSystem, w: np.ndarray, attempt: int, trace) -> tuple[np.ndarray, bool, int, float]:
    """One attempt from w: (weights, converged, iterations, residual infinity
    norm).  cost is finite, and a trial is accepted on cost_try < cost alone:
    residuals that are not finite give a nan or inf cost_try, and lambda rises."""
    r = system.residuals(w)
    if not np.isfinite(r).all():
        raise NumericError("residuals are not finite at the initial point")
    lam = DAMPING
    norm = float(np.abs(r).max())
    cost = 0.5 * float(_finite(r @ r, "residual sum of squares r'r"))
    costs = [np.inf] * STALL_WINDOW + [cost]  # per accepted step; no stall before STALL_WINDOW steps
    eye = np.eye(w.size)
    damped = np.empty_like(eye)
    iterations = 0
    while iterations < MAX_ITERS and norm > TOL_RESIDUAL:
        J = residual_jacobian(system, w, r)
        A = _finite(J.T @ J, "normal matrix J'J")
        minus_g = -_finite(J.T @ r, "gradient J'r")
        while lam <= LAMBDA_MAX:
            np.add(A, np.multiply(eye, lam, out=damped), out=damped)  # A + lam * eye, operand for operand
            try:
                # Cholesky: the damped normal matrix is SPD for lam > 0.
                delta = cho_solve(cho_factor(damped), minus_g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            w_try = w + delta
            r_try = system.residuals(w_try)
            cost_try = 0.5 * float(r_try @ r_try)
            if cost_try < cost:
                w, r, cost = w_try, r_try, cost_try
                lam = max(lam / 10.0, LAMBDA_MIN)
                break
            lam *= 10.0
        else:
            break  # no damping gives a downhill step
        iterations += 1
        costs.append(cost)
        norm = float(np.abs(r).max())
        step_norm = math.sqrt(delta @ delta)  # np.linalg.norm's formula for a real vector
        if trace is not None:
            print(f"{attempt}, {iterations}, {norm:.9e}, {lam:.3e}, {step_norm:.9e}", file=trace)
        if step_norm < STEP_EPS or cost > (1.0 - STALL_DROP) * costs[-STALL_WINDOW - 1]:
            break
    return w, norm <= TOL_RESIDUAL, iterations, norm


def solve_system(system: ResidualSystem, seed: int = 0, trace=None) -> tuple[np.ndarray, SolveReport]:
    """Levenberg-Marquardt on half the squared residual norm.

    Each outer iteration builds a forward-difference Jacobian and solves
    the damped normal equations (J'J + lambda I) delta = -J'r; lambda is
    multiplied by 10 whenever a step is rejected and divided by 10 when
    one is accepted.  Iteration stops on residual infinity-norm at or
    below TOL_RESIDUAL, a step shorter than STEP_EPS, MAX_ITERS accepted
    steps, or a stall: a cost (half the squared residual norm) above
    (1 - STALL_DROP) times the cost STALL_WINDOW accepted steps earlier.
    The first attempt starts from all ones; the next RESTARTS start
    from uniform(-1, 1) draws seeded by seed.  The first converged attempt
    wins, deterministically for a fixed seed.  When no attempt converges the
    best attempt (lowest residual norm) is returned with converged=False.
    With a trace stream, each accepted step prints one line to it:
    attempt, iteration, residual infinity norm, damping, step norm.

    Returns (weights, SolveReport).
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigurationError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, int, float] | None = None
    for attempt in range(RESTARTS + 1):
        w0 = np.ones(system.unknowns) if attempt == 0 else rng.uniform(-1.0, 1.0, system.unknowns)
        w, converged, iters, norm = _lm(system, w0, attempt, trace)
        if converged:
            return w, SolveReport(True, iters, norm, attempt)
        if best is None or norm < best[2]:
            best = (w, iters, norm)
    w, iters, norm = best
    return w, SolveReport(False, iters, norm, RESTARTS)


def compress_network(
    teacher: NetworkSpec, student_arch: NetworkSpec, degree: int, seed: int = 0, trace=None
) -> tuple[NetworkSpec, SolveReport]:
    """Fit a smaller architecture to the degree-truncated expansion of a
    trained network, by coefficient matching.  A degree that is not an
    integer (2.0 passes) or is negative is refused before the teacher is
    expanded; mismatched inputs or outputs are refused by
    build_coefficient_system."""
    degree = _integer(degree, "degree")
    if degree < 0:
        raise UsageError(f"degree must be non-negative, got {degree}")
    if expansion_degree(student_arch) < degree:
        raise UsageError(
            f"student expands to degree {expansion_degree(student_arch)}, below the requested {degree}"
        )
    targets = [truncate_degree(p, degree) for p in expand_network(teacher)]
    system = build_coefficient_system(student_arch, targets)
    w, report = solve_system(system, seed, trace)
    return with_weights(student_arch, w), report
