"""Feedforward networks whose activations are polynomials.

A layer stores its bias as the first weight column, mapping h to
act(W @ [1, h]).  Because every activation is a polynomial, the whole
network is one: expand_network runs the forward pass on polynomial inputs
and returns an explicit polynomial per output node, which agrees with
forward evaluation up to rounding.

That pass keeps each layer's polynomials as one array of int64 monomial
keys, the node index in their top digit, and one of float64 coefficients,
from the inputs to the outputs, and decodes each output once.  Keys past
int64 and any non-finite coefficient take the ring's pass (_run_layers on
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
        if values.ndim == 1 and values.dtype == float:
            # one point's layer: UniPoly's Horner per Python float, the same IEEE * and +
            # without numpy's cost per call
            return np.array(list(map(self.poly, values.tolist())))
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
        if isinstance(self.input_dim, bool) or not isinstance(self.input_dim, (int, np.integer)):
            raise StructuralError(f"input_dim must be an integer, got {self.input_dim!r}")
        if self.input_dim < 1:
            raise StructuralError("input_dim must be at least 1")
        object.__setattr__(self, "input_dim", int(self.input_dim))
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
    float weights this is the ring's pass, whose terms, order and bits
    expand_network's pass on keys reproduces, and which it falls back to."""
    ones = np.empty(h.shape[:-1] + (1,))  # the bias input; cheaper than np.ones on one row
    ones.fill(1.0)
    for weights, activation in layers:
        h = activation(np.matvec(weights, np.concatenate((ones, h), axis=-1)))
    return h


def forward(net: NetworkSpec, x) -> np.ndarray:
    """Outputs (out,) of one input (d,), or (n, out) of rows (n, d).

    No row's bits depend on the batch, and a point's outputs have the bits of
    its row in a batch.  A PolyActivation layer of one point runs phi's Horner
    in Python floats, which overflow to inf without the RuntimeWarning numpy
    gives a batch."""
    h = _real_points(x)
    if h.ndim not in (1, 2) or h.shape[-1] != net.input_dim:
        raise DimensionError(f"input has shape {h.shape}, expected ({net.input_dim},) or (n, {net.input_dim})")
    return _run_layers(net._pairs, h)


def _variables(d: int) -> np.ndarray:
    """The inputs x1..xd as an object array (d,) of MultiPolys, for _run_layers."""
    return np.fromiter((MultiPoly.variable(d, j) for j in range(d)), dtype=object, count=d)


def expand_network(net: NetworkSpec) -> list[MultiPoly]:
    """Symbolic evaluation: the forward pass on the input variables, one polynomial per output node.

    The pass runs on int64 keys (_expand_on_keys), or where they decline on
    the ring's _run_layers, with the same terms, term order and bits.  Raises
    NumericError when a coefficient overflows to inf or nan."""
    check_expansion_size(net)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        polys = _expand_on_keys(net)
        if polys is None:
            polys = list(_run_layers(net._pairs, _variables(net.input_dim)))
    for k, p in enumerate(polys):
        if not all(map(math.isfinite, p.terms.values())):
            raise NumericError(f"output {k} of the expansion has a non-finite coefficient")
    return polys


def _expand_on_keys(net: NetworkSpec) -> list[MultiPoly] | None:
    """_run_layers on the input variables, each layer's polynomials kept as
    one pair of int64 keys and float64 coefficients, node-major in the ring's
    term order, decoded once per output.  A variable's digit has radix t + 1
    for t the highest degree a node reaches, so no product carries; the node
    index's digit above them has the widest layer's radix.  None, before any
    work, where a key would not fit int64, and after a step that leaves an
    inf or nan: the ring's pass decides."""
    d = net.input_dim
    top = max(accumulate((1, *(layer.activation.degree for layer in net.layers)), mul))
    radix = [max(layer.out_nodes for layer in net.layers)] + [top + 1] * d
    stride = _places(radix)
    if stride is None:
        return None
    place, keys, coeffs, column = int(stride[0]), stride[1:], np.ones(d), np.arange(d)  # x1..xd, each its own column
    for weights, activation in net._pairs:
        keys, coeffs = _linear_keys(weights, keys, coeffs, column, place)
        if not np.isfinite(coeffs).all():
            return None
        base = np.arange(len(weights)) * place  # each node's constant term's key
        if isinstance(activation, MonomialPower):
            keys, coeffs = _power((keys, coeffs), activation.k, lambda a, b: _mul_keys(*a, *b, base))
        elif isinstance(activation, PolyActivation):
            keys, coeffs = _horner_keys(activation.poly.coeffs, keys, coeffs, base)
        if not np.isfinite(coeffs).all():
            return None
        column, keys = np.divmod(keys, place)
    at = column.searchsorted(np.arange(1, net.output_dim))
    return [_decode(k, c, radix[1:], stride[1:]) for k, c in zip(np.split(keys, at), np.split(coeffs, at))]


def _linear_keys(weights: np.ndarray, keys: np.ndarray, coeffs: np.ndarray, column: np.ndarray, place: int):
    """The pre-activations W @ [1, h], as the ring's object matvec makes them,
    of a layer h given as int64 keys within their node, float64 coefficients
    and each term's node j, whose weight is in column j + 1 of W: per output
    node i, b_i * 1.0 first, then + w_ij * p_j for j ascending, where a
    product of exactly 0.0 is dropped before it is added.  One node-major
    pair, node i keyed from i * place; up to MUL_BLOCK_PAIRS addends at once."""
    keys, coeffs, column = (np.concatenate(([v], a)) for v, a in ((0, keys), (1.0, coeffs), (0, column + 1)))
    rows = max(1, MUL_BLOCK_PAIRS // len(keys))
    out = []
    for lo in range(0, len(weights), rows):
        block = weights[lo : lo + rows]
        addends = (block[:, column] * coeffs).ravel()
        nonzero = addends != 0.0
        nodes = np.arange(lo, lo + len(block))[:, None]
        out.append(_sum_keys((nodes * place + keys).ravel()[nonzero], addends[nonzero]))
    return np.concatenate([k for k, _ in out]), np.concatenate([c for _, c in out])


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
        if not all(map(math.isfinite, vals)):
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
