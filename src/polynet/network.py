"""Feedforward networks whose activations are polynomials.

A layer stores its bias as the first weight column, mapping h to
act(W @ [1, h]).  Because every activation is a polynomial, the whole
network is one: expand_network runs the forward pass on polynomial inputs
and returns an explicit polynomial per output node, which agrees with
forward evaluation up to rounding.

From KEYED_EXPANSION_TERMS terms per output on, that pass keeps every node's
polynomial as int64 monomial keys and float64 coefficients from the inputs
to the outputs, and decodes each output once.  Smaller nets, keys past int64
and any non-finite coefficient take the ring's pass (_run_layers on
MultiPolys).  Both give the ring's terms, term order and bits.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError, ParseError, StructuralError, UsageError
from .funcapprox import UniPoly
from .multipoly import (MUL_BLOCK_PAIRS, MultiPoly, _decode, _horner_keys, _mul_keys, _places, _power, _real_points,
                        _sum_keys, apply_univariate)

# Largest C(d + D, d), the monomial count of a degree-D expansion in d
# inputs.  Width-4 power nets on a shared 2-vCPU machine took 2-3 s at
# 12,870 terms (d=8, D=8), 4-6 s at 18,564 (d=6, D=12) and 72-81 s at
# 74,613 (d=6, D=16); the limit keeps the first two and refuses the third.
MAX_EXPANSION_TERMS = 20_000
# Largest C(d + D, d) * d, the exponents those terms store per output.  A
# one-layer linear net in d inputs stores (d + 1) * d: on a shared 2-vCPU machine
# d = 2000 (4.0M) took 0.5-0.6 s and 88 MB, d = 3000 (9.0M) 1.3-1.4 s and 127 MB,
# and d = 6000 (36M) 5.1-5.4 s and 334 MB; the limit (d = 2235: 0.6-0.7 s and
# 95 MB) keeps the first and refuses the others.
MAX_EXPANSION_EXPONENTS = 5_000_000
# expand_network runs on int64 keys from this many terms C(d + D, d) on.
# Nets of perfbench's expand-eval grid (1-2 hidden layers of 4-8 units, then
# a linear output), min of 30 calls (5 from 924 terms) in one process on a
# shared 2-vCPU machine, ring / keys, by terms: 10 0.17-0.30 / 0.36-0.64 ms,
# 21 0.56-0.73 / 0.76-1.9 ms, 28 0.34-1.0 / 0.34-0.77 ms, 35 0.56-0.89 /
# 0.65-1.6 ms, 45 0.81-1.9 / 0.99-2.2 ms, 56 0.58-0.63 / 0.43-0.48 ms, 84
# 1.1-2.1 / 0.88-1.6 ms, 210 2.2-3.2 / 0.97-1.8 ms, 924 5.8-6.4 / 2.2-2.4 ms,
# 3003 22-25 / 11-12 ms.  The paths cross between 45 and 56 terms.
KEYED_EXPANSION_TERMS = 50


def _f17(x: float) -> str:
    return format(float(x), ".17g")


# Each activation maps a layer's pre-activations to its outputs (__call__), on
# arrays of numbers and of MultiPolys alike, and writes itself as JSON (to_json).


@dataclass(frozen=True)
class Identity:
    degree = 1

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return values

    def to_json(self) -> str:
        return '{"kind": "identity"}'


@dataclass(frozen=True)
class MonomialPower:
    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise StructuralError(f"power activation needs a positive integer exponent, got {self.k!r}")

    @property
    def degree(self) -> int:
        return self.k

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return values**self.k

    def to_json(self) -> str:
        return f'{{"kind": "power", "k": {self.k}}}'


@dataclass(frozen=True)
class PolyActivation:
    poly: UniPoly

    def __post_init__(self):
        if not isinstance(self.poly, UniPoly):
            raise StructuralError(f"poly activation needs a UniPoly, got {self.poly!r}")
        if not np.all(np.isfinite(self.poly.coeffs)):
            raise StructuralError("poly activation coefficients must be finite")

    @property
    def degree(self) -> int:
        return self.poly.degree

    def __call__(self, values: np.ndarray) -> np.ndarray:
        if values.dtype != object:
            return self.poly(values)
        # the name is looked up per call, so that a wrapper set on this module is used
        return np.frompyfunc(lambda p: apply_univariate(self.poly, p), 1, 1)(values)

    def to_json(self) -> str:
        coeffs = ", ".join(_f17(c) for c in self.poly.coeffs)
        return f'{{"kind": "poly", "coeffs": [{coeffs}]}}'


Activation = Identity | MonomialPower | PolyActivation


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """Weights of shape (out_nodes, 1 + in_nodes); column 0 is the bias."""

    weights: np.ndarray
    activation: Activation = Identity()

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 2:
            raise StructuralError(f"weights must be 2-D with a bias column, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise StructuralError("weights must be finite")
        if not isinstance(self.activation, Activation):
            raise StructuralError(f"not an activation: {self.activation!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def out_nodes(self) -> int:
        return self.weights.shape[0]

    @property
    def in_nodes(self) -> int:
        return self.weights.shape[1] - 1


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    input_dim: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if self.input_dim < 1:
            raise StructuralError("input_dim must be at least 1")
        layers = tuple(self.layers)
        if not layers:
            raise StructuralError("a network needs at least one layer")
        width = self.input_dim
        for i, layer in enumerate(layers):
            if layer.in_nodes != width:
                raise StructuralError(f"layer {i} expects {layer.in_nodes} inputs but receives {width}")
            width = layer.out_nodes
        object.__setattr__(self, "layers", layers)

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_nodes

    @cached_property
    def _pairs(self) -> tuple[tuple[np.ndarray, Activation], ...]:
        """(weights, activation) per layer, as _run_layers takes them."""
        return tuple((layer.weights, layer.activation) for layer in self.layers)


def _run_layers(layers, h: np.ndarray) -> np.ndarray:
    """The forward pass over (weights, activation) pairs.  Weights are (r, c),
    or stacked (m, 1, r, c) to run m weight sets on inputs (m, n, d) at once;
    on MultiPoly inputs, (r, c) objects holding recorded coefficients write
    the pass onto a tape (see synthesis._Recorded).  On MultiPoly inputs and
    float weights this is the ring's pass: expand_network runs it below
    KEYED_EXPANSION_TERMS and where its pass on keys declines, and its
    terms, order and bits are what that pass on keys reproduces."""
    ones = np.empty(h.shape[:-1] + (1,))  # the bias input; cheaper than np.ones on one row
    ones.fill(1.0)
    for weights, activation in layers:
        h = activation(np.matvec(weights, np.concatenate((ones, h), axis=-1)))
    return h


def forward(net: NetworkSpec, x) -> np.ndarray:
    """Outputs (out,) of one input (d,), or (n, out) of rows (n, d); no row's bits depend on the batch."""
    h = _real_points(x)
    if h.ndim not in (1, 2) or h.shape[-1] != net.input_dim:
        raise DimensionError(f"input has shape {h.shape}, expected ({net.input_dim},) or (n, {net.input_dim})")
    return _run_layers(net._pairs, h)


def _variables(d: int) -> np.ndarray:
    """The inputs x1..xd as an object array (d,) of MultiPolys, for _run_layers."""
    return np.fromiter((MultiPoly.variable(d, j) for j in range(d)), dtype=object, count=d)


def expand_network(net: NetworkSpec) -> list[MultiPoly]:
    """Symbolic evaluation: the forward pass on the input variables, one polynomial per output node.

    From KEYED_EXPANSION_TERMS terms on, the pass runs on int64 keys
    (_expand_on_keys); below that, and where that path declines, it is the
    ring's _run_layers.  Either way the polynomials have the ring's terms,
    term order and bits.  Raises NumericError when a coefficient overflows to
    inf or nan."""
    check_expansion_size(net)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        polys = None
        if math.comb(net.input_dim + expansion_degree(net), net.input_dim) >= KEYED_EXPANSION_TERMS:
            polys = _expand_on_keys(net)
        if polys is None:
            polys = list(_run_layers(net._pairs, _variables(net.input_dim)))
    for k, p in enumerate(polys):
        if not all(map(math.isfinite, p.terms.values())):
            raise NumericError(f"output {k} of the expansion has a non-finite coefficient")
    return polys


def _expand_on_keys(net: NetworkSpec) -> list[MultiPoly] | None:
    """_run_layers on the input variables, with every node's polynomial kept
    as int64 keys and float64 coefficients in the ring's term order, decoded
    to exponent tuples once per output.  Each variable takes one digit of
    radix t + 1 for t the highest degree a node reaches, so no product
    carries, and a linear form puts the node index in a digit above them.
    None, before any work, when a key would not fit int64, and after a layer
    that leaves a non-finite coefficient, where the ring's own pass decides
    the result."""
    d = net.input_dim
    top = max(accumulate((1, *(layer.activation.degree for layer in net.layers)), mul))
    radix = [max(layer.out_nodes for layer in net.layers)] + [top + 1] * d
    stride = _places(radix)
    if stride is None:
        return None
    polys = [(stride[j + 1 : j + 2], np.ones(1)) for j in range(d)]
    for weights, activation in net._pairs:
        polys = _linear_keys(weights, polys, int(stride[0]))
        if isinstance(activation, MonomialPower):
            polys = [_power(p, activation.k, lambda a, b: _mul_keys(*a, *b)) for p in polys]
        elif isinstance(activation, PolyActivation):
            polys = [_horner_keys(activation.poly.coeffs, *p) for p in polys]
        if not all(np.isfinite(c).all() for _, c in polys):
            return None
    return [_decode(k, c, radix[1:], stride[1:]) for k, c in polys]


def _linear_keys(weights: np.ndarray, polys: list, place: int) -> list:
    """The pre-activations W @ [1, h] of keyed polynomials h, as the ring's
    object matvec makes them: per output node i, b_i * 1.0 first, then
    + w_ij * p_j for j ascending, where a product of exactly 0.0 is dropped
    before it is added.  The outputs of up to MUL_BLOCK_PAIRS addends run at
    once, told apart by the node index times place in their keys."""
    keys = np.concatenate([np.zeros(1, dtype=np.int64), *(k for k, _ in polys)])
    coeffs = np.concatenate([np.ones(1), *(c for _, c in polys)])
    column = np.repeat(np.arange(len(polys) + 1), [1, *(len(c) for _, c in polys)])  # of each term in [1, h]
    rows = max(1, MUL_BLOCK_PAIRS // len(keys))
    out = []
    for lo in range(0, len(weights), rows):
        block = weights[lo : lo + rows]
        addends = (block[:, column] * coeffs).ravel()
        nonzero = addends != 0.0
        k, c = _sum_keys((np.arange(len(block))[:, None] * place + keys).ravel()[nonzero], addends[nonzero])
        node = k // place
        at = np.searchsorted(node, np.arange(1, len(block)))
        out += zip(np.split(k - node * place, at), np.split(c, at))
    return out


def expansion_degree(net: NetworkSpec) -> int:
    """Total degree the expansion attains: product of activation degrees."""
    deg = 1
    for layer in net.layers:
        deg *= layer.activation.degree
    return deg


def check_expansion_size(net: NetworkSpec) -> None:
    """Raise ConfigurationError when a full expansion would allow more than
    MAX_EXPANSION_TERMS monomials or MAX_EXPANSION_EXPONENTS exponents per output."""
    check_term_count(net.input_dim, expansion_degree(net))


def check_term_count(d: int, D: int) -> None:
    """Raise ConfigurationError when a degree-D polynomial in d variables
    may hold more than MAX_EXPANSION_TERMS monomials, or more than
    MAX_EXPANSION_EXPONENTS exponents in their d-long exponent tuples."""
    terms = math.comb(d + D, d)
    if terms > MAX_EXPANSION_TERMS:
        raise ConfigurationError(
            f"expanding to degree {D} in {d} inputs allows C({d + D}, {d}) = {terms} terms per output, "
            f"above the limit of {MAX_EXPANSION_TERMS}"
        )
    if terms * d > MAX_EXPANSION_EXPONENTS:
        raise ConfigurationError(
            f"expanding to degree {D} in {d} inputs stores C({d + D}, {d}) * {d} = {terms * d} exponents "
            f"per output, above the limit of {MAX_EXPANSION_EXPONENTS}"
        )


def classify(net: NetworkSpec, x) -> int | np.ndarray:
    """Index of the largest output, an int for one input (d,) and an int array
    for rows (n, d); ties go to the lowest index."""
    if net.output_dim < 2:
        raise UsageError("classification needs at least 2 outputs")
    classes = np.argmax(forward(net, x), axis=-1)
    return int(classes) if classes.ndim == 0 else classes


def network_to_json(net: NetworkSpec) -> str:
    """JSON text with reals at 17 significant digits."""
    lines = ["{", f'  "input_dim": {net.input_dim},', '  "layers": [']
    for i, layer in enumerate(net.layers):
        rows = ", ".join("[" + ", ".join(_f17(v) for v in row) + "]" for row in layer.weights)
        sep = "," if i + 1 < len(net.layers) else ""
        lines.append(
            '    {"weights": [' + rows + '], "activation": ' + layer.activation.to_json() + "}" + sep
        )
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _check_doubles(values, name: str, layer_index: int) -> None:
    """Refuse JSON integers past the float range; LayerSpec and PolyActivation refuse inf and nan."""
    for v in values:
        try:
            float(v)
        except OverflowError:
            raise ParseError(f"layer {layer_index}: '{name}' holds an integer too large for a double") from None


def _activation_from_json(doc, layer_index: int) -> Activation:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError(f"layer {layer_index}: activation must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "identity":
        return Identity()
    if kind == "power":
        k = doc.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ParseError(f"layer {layer_index}: power activation needs a positive integer 'k'")
        _check_doubles((k,), "k", layer_index)
        return MonomialPower(k)
    if kind == "poly":
        coeffs = doc.get("coeffs")
        if not isinstance(coeffs, list) or not coeffs or not all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs
        ):
            raise ParseError(f"layer {layer_index}: poly activation needs a non-empty numeric 'coeffs' list")
        _check_doubles(coeffs, "coeffs", layer_index)
        return PolyActivation(UniPoly(tuple(float(c) for c in coeffs)))
    raise ParseError(f"layer {layer_index}: unknown activation kind {kind!r}")


def network_from_json(text: str) -> NetworkSpec:
    """Inverse of network_to_json, with validation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    input_dim = doc.get("input_dim")
    if not isinstance(input_dim, int) or isinstance(input_dim, bool) or input_dim < 1:
        raise ParseError("'input_dim' must be a positive integer")
    layer_docs = doc.get("layers")
    if not isinstance(layer_docs, list) or not layer_docs:
        raise ParseError("'layers' must be a non-empty list")
    layers = []
    for i, item in enumerate(layer_docs):
        if not isinstance(item, dict):
            raise ParseError(f"layer {i}: must be an object")
        rows = item.get("weights")
        if (
            not isinstance(rows, list)
            or not rows
            or not all(isinstance(r, list) and r for r in rows)
            or len({len(r) for r in rows}) != 1
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for r in rows for v in r)
        ):
            raise ParseError(f"layer {i}: 'weights' must be a rectangular numeric matrix")
        _check_doubles((v for r in rows for v in r), "weights", i)
        try:  # LayerSpec and PolyActivation refuse non-finite values
            layers.append(LayerSpec(np.array(rows, dtype=float), _activation_from_json(item.get("activation"), i)))
        except StructuralError as exc:
            raise StructuralError(f"layer {i}: {exc}") from None
    return NetworkSpec(input_dim, tuple(layers))


def save_network(net: NetworkSpec, path) -> None:
    with open(path, "w") as fh:
        fh.write(network_to_json(net))


def load_network(path) -> NetworkSpec:
    with open(path) as fh:
        return network_from_json(fh.read())


@dataclass(frozen=True)
class Dataset:
    """Feature matrix X of shape (n, d) and per-row targets y of shape (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        y = np.array(self.y, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DimensionError(f"X must be a non-empty 2-D array, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DimensionError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise UsageError("X and y must be finite")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.X.shape[0]


def dataset_to_csv(ds: Dataset) -> str:
    d = ds.X.shape[1]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([f"f{j + 1}" for j in range(d)] + ["y"])
    for row, target in zip(ds.X, ds.y):
        writer.writerow([_f17(v) for v in row] + [_f17(target)])
    return out.getvalue()


def dataset_from_csv(text: str) -> Dataset:
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, r) for r in reader if r]  # physical line numbers, blank lines included
    if not rows:
        raise ParseError("empty CSV")
    _, header = rows[0]
    d = len(header) - 1
    if d < 1 or header != [f"f{j + 1}" for j in range(d)] + ["y"]:
        raise ParseError(f"expected header f1,...,fd,y, got {','.join(header)!r}")
    X, y = [], []
    for ln_no, row in rows[1:]:
        if len(row) != d + 1:
            raise ParseError(f"line {ln_no}: expected {d + 1} fields, got {len(row)}")
        try:
            vals = [float(v) for v in row]
        except ValueError:
            raise ParseError(f"line {ln_no}: non-numeric field") from None
        if not np.all(np.isfinite(vals)):
            raise ParseError(f"line {ln_no}: non-finite field")
        X.append(vals[:-1])
        y.append(vals[-1])
    if not X:
        raise ParseError("dataset has no example rows")
    return Dataset(np.array(X), np.array(y))


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w") as fh:
        fh.write(dataset_to_csv(ds))


def load_dataset(path) -> Dataset:
    with open(path) as fh:
        return dataset_from_csv(fh.read())
