"""Weight synthesis by equation solving.

Instead of gradient training, pick an architecture, write down what its
expanded output polynomials must equal, and solve the resulting nonlinear
system for the weights:

  * coefficient matching: one residual per output monomial, expanded
    coefficient minus target coefficient;
  * data matching: one residual per example, forward output minus target.

Systems are solved by a damped Gauss-Newton (Levenberg-Marquardt)
iteration with forward-difference Jacobians.  Underdetermined systems are
fine; the damped normal matrix stays positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConfigurationError, DimensionError, NumericError, StructuralError, UsageError
from .multipoly import Exponents, MultiPoly, grlex_monomials, poly_mul, truncate_degree
from .network import (Activation, Dataset, LayerSpec, NetworkSpec, _run_layers, _variables, check_expansion_size,
                      expand_network, expansion_degree)

LAMBDA_MIN = 1e-12  # keep the damped normal matrix numerically PD
LAMBDA_MAX = 1e12   # past this the step is effectively zero; give up
STEP_EPS = 1e-14    # step-norm termination
DAMPING = 1e-3      # initial Levenberg-Marquardt lambda
FD_STEP = 1e-7      # relative forward-difference step
RESTARTS = 16       # seeded uniform(-1, 1) starts tried after the first one
# Largest stacked layer intermediate (m weight sets x residuals x widest
# layer input) of one batched residual call, in float64 elements (1 MiB);
# for polynomial inputs, a term counts as one element.
CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    tol_residual: float = 1e-10  # on the residual infinity norm
    seed: int = 0                # of the restart draws
    start: tuple[float, ...] | None = None  # first start; None is all ones

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        if not 0 < self.tol_residual < math.inf:
            raise ConfigurationError("tol_residual must be positive and finite")


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
    stacks of weight vectors: batch_fn maps (m, unknowns) to (m, arity)."""

    unknowns: int
    arity: int  # residual count
    batch_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

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
    """
    d = ds.X.shape[1]
    matched = [i for i in range(len(ds)) if ds.y[i] == label]
    if not matched:
        raise UsageError(f"no examples with label {label!r}")
    prod = MultiPoly.constant(d, 1.0)
    for i in matched:
        terms: dict[Exponents, float] = {(0,) * d: float(np.dot(ds.X[i], ds.X[i]))}
        for j, c in enumerate(ds.X[i]):
            e1 = tuple(1 if t == j else 0 for t in range(d))
            e2 = tuple(2 if t == j else 0 for t in range(d))
            terms[e1] = -2.0 * float(c)
            terms[e2] = 1.0
        prod = poly_mul(prod, MultiPoly(d, terms))
    return -prod


def build_coefficient_system(arch: NetworkSpec, targets: Sequence[MultiPoly]) -> ResidualSystem:
    """One residual per monomial of total degree <= expansion_degree(arch),
    output-major, then graded-lex: expanded coefficient minus target
    coefficient."""
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

    def readout(outputs: np.ndarray) -> np.ndarray:
        return np.array([[p.terms.get(e, 0.0) for p in polys for e in monomials] for polys in outputs[:, 0]])

    return _stacked_system(arch, _variables(arch.input_dim)[None], readout, wanted)


def build_data_system(arch: NetworkSpec, ds: Dataset) -> ResidualSystem:
    """One residual per example row: network output minus observed value."""
    if arch.output_dim != 1:
        raise UsageError(f"data matching needs a single-output architecture, got {arch.output_dim} outputs")
    if ds.X.shape[1] != arch.input_dim:
        raise DimensionError(f"dataset has {ds.X.shape[1]} features, architecture expects {arch.input_dim}")
    return _stacked_system(arch, ds.X, lambda outputs: outputs[..., 0], ds.y)


def _stacked_system(arch: NetworkSpec, X: np.ndarray, readout, targets: np.ndarray) -> ResidualSystem:
    """Residuals readout(outputs) - targets, where outputs (m, n, out) are
    forward's layer loop on input rows X (n, d), numbers or MultiPolys,
    for up to `chunk` weight sets at once.  Rows are copied per set: a
    broadcast view makes concatenate lay [1, x] out column-major, and a
    strided dot rounds differently."""
    unknowns = network_weights(arch).size
    widest = max(layer.weights.shape[1] for layer in arch.layers)
    chunk = max(1, min(unknowns, CHUNK_ELEMENTS // (targets.size * widest)))
    X = np.broadcast_to(X, (chunk,) + X.shape).copy()

    def batch_fn(Ws: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(Ws)):
            raise StructuralError("weights must be finite")
        stacks = (Ws[lo : lo + chunk, None, :] for lo in range(0, len(Ws), chunk))
        return np.concatenate([readout(_run_layers(_layer_weights(arch, s), X[: len(s)])) for s in stacks]) - targets

    return ResidualSystem(unknowns, targets.size, batch_fn)


def residual_jacobian(system: ResidualSystem, w, r0: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian at w, where r0 = system.residuals(w); the
    same scheme solve_system iterates with.

    Column j uses step FD_STEP * (1 + |w_j|).  The p perturbed vectors go
    through one batch_fn call; every entry has the bits of a per-column
    system.residuals evaluation.
    """
    w = np.asarray(w, dtype=float)
    _check_weights(w, system.unknowns)
    steps = FD_STEP * (1.0 + np.abs(w))
    Ws = np.tile(w, (w.size, 1))
    np.fill_diagonal(Ws, w + steps)
    J = np.subtract(system.batch_fn(Ws).T, r0[:, None], order="C")  # J.T @ J rounds differently in F order
    J /= steps
    return J


def _starts(cfg: SolverConfig, p: int) -> Iterator[np.ndarray]:
    first = np.ones(p) if cfg.start is None else np.asarray(cfg.start, dtype=float)
    if first.shape != (p,):
        raise DimensionError(f"start vector has shape {first.shape}, expected ({p},)")
    yield first
    rng = np.random.default_rng(cfg.seed)
    for _ in range(RESTARTS):
        yield rng.uniform(-1.0, 1.0, p)


def _lm(system: ResidualSystem, w0: np.ndarray, cfg: SolverConfig, trace) -> tuple[np.ndarray, bool, int, float]:
    w = np.asarray(w0, dtype=float).copy()
    r = system.residuals(w)
    if not np.all(np.isfinite(r)):
        raise NumericError("residuals are not finite at the initial point")
    lam = DAMPING
    norm = float(np.max(np.abs(r)))
    cost = 0.5 * float(r @ r)
    eye = np.eye(w.size)
    iterations = 0
    while iterations < cfg.max_iters and norm > cfg.tol_residual:
        J = residual_jacobian(system, w, r)
        A = J.T @ J
        g = J.T @ r
        step = None
        while lam <= LAMBDA_MAX:
            try:
                # Cholesky: the damped normal matrix is SPD for lam > 0.
                delta = cho_solve(cho_factor(A + lam * eye), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_try = system.residuals(w + delta)
            cost_try = 0.5 * float(r_try @ r_try)
            if np.all(np.isfinite(r_try)) and cost_try < cost:
                step = delta
                w = w + delta
                r = r_try
                cost = cost_try
                lam = max(lam / 10.0, LAMBDA_MIN)
                break
            lam *= 10.0
        if step is None:
            break  # no damping gives a downhill step
        iterations += 1
        norm = float(np.max(np.abs(r)))
        step_norm = float(np.linalg.norm(step))
        if trace is not None:
            print(f"{iterations}, {norm:.9e}, {lam:.3e}, {step_norm:.9e}", file=trace)
        if step_norm < STEP_EPS:
            break
    return w, norm <= cfg.tol_residual, iterations, norm


def solve_system(
    system: ResidualSystem,
    config: SolverConfig | None = None,
    trace=None,
) -> tuple[np.ndarray, SolveReport]:
    """Levenberg-Marquardt on half the squared residual norm.

    Each outer iteration builds a forward-difference Jacobian and solves
    the damped normal equations (J'J + lambda I) delta = -J'r; lambda is
    multiplied by 10 whenever a step is rejected and divided by 10 when
    one is accepted.  Iteration stops on residual infinity-norm at or
    below tol_residual, a step shorter than 1e-14, or max_iters.  The first
    attempt starts from config.start (all ones when None); the next 16
    start from uniform(-1, 1) draws seeded by config.seed.  The first
    converged attempt wins, deterministically for a fixed seed.  When no
    attempt converges the best attempt (lowest residual norm) is returned
    with converged=False.

    Returns (weights, SolveReport).
    """
    cfg = config if config is not None else SolverConfig()
    best: tuple[np.ndarray, int, float] | None = None
    for attempt, w0 in enumerate(_starts(cfg, system.unknowns)):
        w, converged, iters, norm = _lm(system, w0, cfg, trace)
        if converged:
            return w, SolveReport(True, iters, norm, attempt)
        if best is None or norm < best[2]:
            best = (w, iters, norm)
    w, iters, norm = best
    return w, SolveReport(False, iters, norm, RESTARTS)


def compress_network(
    teacher: NetworkSpec,
    student_arch: NetworkSpec,
    degree: int,
    config: SolverConfig | None = None,
    trace=None,
) -> tuple[NetworkSpec, SolveReport]:
    """Fit a smaller architecture to the degree-truncated expansion of a
    trained network, by coefficient matching.  Mismatched inputs or outputs
    and a negative degree are refused by truncate_degree and
    build_coefficient_system."""
    if expansion_degree(student_arch) < degree:
        raise UsageError(
            f"student expands to degree {expansion_degree(student_arch)}, below the requested {degree}"
        )
    targets = [truncate_degree(p, degree) for p in expand_network(teacher)]
    system = build_coefficient_system(student_arch, targets)
    w, report = solve_system(system, config, trace)
    return with_weights(student_arch, w), report
