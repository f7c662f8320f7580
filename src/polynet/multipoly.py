"""Sparse multivariate polynomial arithmetic.

A polynomial in d variables maps exponent vectors (length-d tuples of
non-negative ints) to float coefficients.  The constructor drops exact
zeros and nothing else, so every nonzero term an operation produces is
kept, however small.  Term order everywhere is graded lexicographic
(total degree ascending, then tuple order on the exponents), which pins
down serialization and the ordering of downstream equation systems.

A product adds c1 * c2 into out[e1 + e2] over the pairs of terms in dict
order, which fixes both its coefficients' bits and its own dict order.  This
ring is the reference: network.expand_network's pass on keys reproduces it,
a whole layer per kernel call, on int64 mixed-radix keys whose place values
(_places) and decoding (_decode) are defined here alone.  The kernels on keys
(_mul_keys, _sum_keys, _power, _horner_keys) serve that pass only, the one
place where a univariate polynomial composes on keys; apply_univariate is
phi(p).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from operator import add
from typing import Iterator, Mapping

import numpy as np

from .errors import ConfigurationError, DimensionError, ParseError, UsageError

Exponents = tuple[int, ...]

# Pairs per block of a keyed product (_mul_keys): 512 KiB per int64 or
# float64 array.  A one-unit MonomialPower(120) net on 2 inputs (7381 terms)
# expanded by the dict loop alone in 6.4-7.0 s at 58.6 MB peak RSS; with
# keyed products in blocks of 2^16 pairs in 0.33-0.39 s at 62.0-62.4 MB, of
# 2^17 in 0.40 s at 65-67 MB, and in one block in 0.70 s at 173 MB.
MUL_BLOCK_PAIRS = 1 << 16
# Most factors, D * (T + 1) for T terms of total degree D, that poly_eval's
# compiled form may hold: its gather takes 8 * (D + 1) * (T + 1) bytes, and a
# one-point call gathers as many bytes of floats.  In separate processes on a
# shared 2-vCPU machine (factors: compile and first point, one point, 200
# points in one batch, peak RSS above the interpreter's with p built): dense
# univariate degree 1000: 1.0M, 0.03 s, 2.8 ms, 0.35 s, 20 MB; dense
# univariate 1998: 4.0M, 0.10 s, 15 ms, 2.3 s, 77 MB; dense d 2, D 198:
# 3.9M, 0.13 s, 12-14 ms, 2.2 s, 91 MB (121 MB after the batch); x^(10^6) + 1:
# 3.0M, 0.16 s, 63 ms, 5.5 s, 54 MB; past the limit, dense univariate 3000:
# 9.0M, 0.21 s, 47 ms, 8.6 s, 173 MB.  One gathered multiply per factor row
# took 4.9, 15, 9-10 ms, 1.7 s and 35 ms per point at 20, 77, 91, 47 and
# 172 MB.  The limit keeps every polynomial in two or more variables that
# network.MAX_EXPANSION_TERMS allows (d 2, D 198: 3,940,398).
MAX_PLAN_FACTORS = 4_000_000


def grlex_key(e: Exponents) -> tuple[int, Exponents]:
    return (sum(e), e)


def grlex_monomials(nvars: int, degree: int) -> list[Exponents]:
    """Every exponent vector of total degree <= degree, in graded-lex order."""
    out = []
    for t in range(degree + 1):
        # index multisets come in lex order, which is descending tuple order
        for idx in reversed(list(combinations_with_replacement(range(nvars), t))):
            out.append(tuple(idx.count(j) for j in range(nvars)))
    return out


def monomial_label(e: Exponents) -> str:
    """Human-readable monomial, '1' for the constant."""
    parts = []
    for j, k in enumerate(e):
        if k == 1:
            parts.append(f"x{j + 1}")
        elif k > 1:
            parts.append(f"x{j + 1}^{k}")
    return "*".join(parts) if parts else "1"


def _integer(v, what: str = "exponent") -> int:
    """An exponent or index as an int; integral floats such as 2.0 pass, anything else is refused."""
    if isinstance(v, (int, np.integer)) or (isinstance(v, (float, np.floating)) and float(v).is_integer()):
        return int(v)
    raise UsageError(f"{what} {v!r} is not an integer")


def _nvars(n) -> int:
    """A variable count as an int of at least 1; a bool or a float is refused."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DimensionError(f"nvars must be an integer, got {n!r}")
    if n < 1:
        raise DimensionError("nvars must be at least 1")
    return int(n)


def _as_coefficient(c):
    """A number as a float; a float subclass other than numpy's as it is, so
    that its own operators apply."""
    return c if isinstance(c, float) and not isinstance(c, np.floating) else float(c)


class MultiPoly:
    """Sparse polynomial over a fixed number of variables.

    Instances are treated as immutable; operations return new objects.
    """

    __slots__ = ("nvars", "terms", "_compiled")
    __array_ufunc__ = None  # ndarray * MultiPoly and ndarray + MultiPoly defer to MultiPoly

    def __init__(self, nvars: int, terms: Mapping[Exponents, float] | None = None):
        nvars = _nvars(nvars)
        clean: dict[Exponents, float] = {}
        for exps, coeff in (terms or {}).items():
            if not isinstance(exps, tuple):
                raise DimensionError(f"exponent vector {exps!r} is not a tuple")
            key = tuple(map(_integer, exps))
            if len(key) != nvars:
                raise DimensionError(f"exponent vector {key} has length {len(key)}, expected {nvars}")
            if any(e < 0 for e in key):
                raise UsageError(f"negative exponent in {key}")
            try:
                c = float(coeff)
            except (TypeError, ValueError):
                raise UsageError(f"coefficient {coeff!r} of {key} is not a number") from None
            if c != 0.0:
                clean[key] = c
        self.nvars = nvars
        self.terms = clean
        self._compiled = None

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "MultiPoly":
        """A polynomial that takes over a fresh dict whose keys are already
        valid.  Only exact zeros go, deleted in place: rebuilding the dict
        would hash every d-long key again.
        """
        p = object.__new__(cls)
        p.nvars = nvars
        p._compiled = None
        for e in [e for e, c in terms.items() if c == 0.0]:
            del terms[e]
        p.terms = terms
        return p

    @classmethod
    def constant(cls, nvars: int, value: float) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        nvars, index = _nvars(nvars), _integer(index, "variable index")
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for {nvars} variables")
        return cls._trusted(nvars, {tuple(1 if j == index else 0 for j in range(nvars)): 1.0})

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((sum(e) for e in self.terms), default=0)

    def items_grlex(self) -> Iterator[tuple[Exponents, float]]:
        for e in sorted(self.terms, key=grlex_key):
            yield e, self.terms[e]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.nvars, {e: -c for e, c in self.terms.items()})

    def _number(self, c) -> "MultiPoly":
        return MultiPoly._trusted(self.nvars, {(0,) * self.nvars: _as_coefficient(c)})

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = self._number(other)
        return poly_add(self, other)

    def __radd__(self, other) -> "MultiPoly":
        # the number's constant term comes first, as in a layer's bias
        return poly_add(self._number(other), self)

    def __sub__(self, other) -> "MultiPoly":
        return self + -other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return poly_mul(self, other)
        s = _as_coefficient(other)
        return MultiPoly._trusted(self.nvars, {e: c * s for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        return poly_pow(self, k)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {dict(self.items_grlex())})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.items_grlex():
            mono = monomial_label(e)
            bits.append(f"{c:g}" if mono == "1" else f"{c:g}*{mono}")
        return " + ".join(bits)


def _check_same_vars(p: MultiPoly, q: MultiPoly) -> None:
    if p.nvars != q.nvars:
        raise DimensionError(f"variable counts differ: {p.nvars} vs {q.nvars}")


def poly_add(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Coefficient-wise sum."""
    _check_same_vars(p, q)
    out = dict(p.terms)
    for e, c in q.terms.items():
        out[e] = out.get(e, 0.0) + c
    return MultiPoly._trusted(p.nvars, out)


def poly_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Distributive product: out[e1 + e2] += c1 * c2 over the pairs of terms
    in (i, j) dict order, starting from 0.0, which also fixes the result's
    term order (first appearance)."""
    _check_same_vars(p, q)
    out: dict[Exponents, float] = {}
    get = out.get
    pairs = list(q.terms.items())
    for e1, c1 in p.terms.items():
        for e2, c2 in pairs:
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0.0) + c1 * c2
    return MultiPoly._trusted(p.nvars, out)


def _places(radix: list[int]) -> np.ndarray | None:
    """The place value of each digit of mixed radices, the first digit on top,
    or None when a key or a place value would not fit int64."""
    if math.prod(radix) > 1 << 63 or math.prod(radix[1:]) == 1 << 63:
        return None
    return np.cumprod([1, *reversed(radix[1:])], dtype=np.int64)[::-1]


def _decode(keys: np.ndarray, coeffs: np.ndarray, radix: list[int], stride: np.ndarray) -> MultiPoly:
    """The MultiPoly of keys (below the radices' product) and coefficients, in their order."""
    exps = keys[:, None] // stride
    # the first place needs no remainder: every key is below the radices' product
    exps[:, 1:] %= np.array(radix[1:], dtype=np.int64)
    return MultiPoly._trusted(len(radix), dict(zip(zip(*exps.T.tolist()), coeffs.tolist())))


def _runs(keys: np.ndarray, kind: str | None = "stable") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, run, head) for non-empty keys: the argsort of the given kind,
    where a stable one keeps equal keys in their order, the sorted keys, and
    a bool mask of each run's first sorted key."""
    order = keys.argsort(kind=kind)
    run = keys[order]
    head = np.empty(keys.size, dtype=bool)
    head[0] = True
    np.not_equal(run[1:], run[:-1], out=head[1:])
    return order, run, head


def _mul_keys(k1: np.ndarray, c1: np.ndarray, k2: np.ndarray, c2: np.ndarray,
              base=(0,)) -> tuple[np.ndarray, np.ndarray]:
    """Node by node, the products of two layers of polynomials given as int64
    keys and float64 coefficients, node-major: node n's terms in term order,
    keyed from base[n], its constant term's key, below base[n + 1]; the
    default base holds one node.  The products come node-major, each in the
    dict loop's term order with its bits, exact zeros dropped.  Keys must add
    without carry: the radix of each variable exceeds the largest exponent sum.

    Terms pair only within a node, node by node in (i, j) order, in blocks of
    at most MUL_BLOCK_PAIRS pairs; a block's new keys take the next slots in
    first-appearance order, and np.add.at adds its products one at a time in
    index order, so each slot sums them in (i, j) order from 0.0, as the dict
    loop does."""
    node1, node2 = np.searchsorted(base, k1, "right") - 1, np.searchsorted(base, k2, "right") - 1
    k2 = k2 - np.take(base, node2)  # the second factor's keys within their node
    n2 = np.bincount(node2, minlength=len(base))
    # row i, the first factor's term i, holds pairs starts[i] to ends[i] - 1 of all pairs
    ends = n2[node1].cumsum()
    starts = ends - n2[node1]
    shift = (n2.cumsum() - n2)[node1] - starts  # pair p of row i pairs term i with term p + shift[i]
    pairs = int(ends[-1]) if ends.size else 0
    met = np.empty(0, dtype=np.int64)  # the keys of the slots so far, in slot order
    sums = np.zeros(0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan arise silently, as in float arithmetic
        for lo in range(0, pairs, MUL_BLOCK_PAIRS):
            hi = min(lo + MUL_BLOCK_PAIRS, pairs)
            first, last = ends.searchsorted(lo, "right"), ends.searchsorted(hi) + 1  # the rows of pairs lo to hi - 1
            i = np.repeat(np.arange(first, last), np.minimum(ends[first:last], hi) - np.maximum(starts[first:last], lo))
            j = np.arange(lo, hi) + shift[i]
            # the keys met before lead, so each keeps its slot and the block's new keys follow
            old = met.size
            keys = np.concatenate((met, k1[i] + k2[j]))
            order, run, head = _runs(keys, None)  # numpy's default sort: equal keys in any order
            at = np.minimum.reduceat(order, np.flatnonzero(head))  # each run's first appearance
            by_at = at.argsort()
            slot = np.empty_like(at)  # per run, in first-appearance order
            slot[by_at] = np.arange(at.size)
            met = keys[at[by_at]]
            sums = np.concatenate((sums, np.zeros(at.size - old)))
            np.cumsum(head, out=run)  # run's buffer, reused: 1 + the run of each sorted key
            run -= 1
            keys[order] = slot[run]  # keys' buffer, reused: the slot of each key
            np.add.at(sums, keys[old:], c1[i] * c2[j])
    kept = sums != 0.0
    return met[kept], sums[kept]


def _sum_keys(keys: np.ndarray, addends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A chain of poly_add calls, each adding at most one addend per key, as
    int64 keys and float64 nonzero addends in the chain's order: each key's
    addends summed left to right, the keys in the order of their first
    addend, and a key summing to exactly 0.0 dropped.  A key whose partial
    sum is 0.0 before its last addend leaves the dict there and its next
    addend inserts it again, last, as poly_add's dict does."""
    if not keys.size:
        return keys, addends
    order, run, head = _runs(keys)  # each key's run in chain order
    starts = np.flatnonzero(head)
    counts = np.append(starts[1:], keys.size) - starts
    vals = addends[order]
    sums = vals[starts]
    stamp = order[starts]  # each key's place: the chain position of the addend that last inserted it
    live = np.flatnonzero(counts > 1)
    r = 1
    while live.size:  # the r-th addend of every key that has one, in a single step
        at = starts[live] + r
        again = sums[live] == 0.0
        if again.any():
            stamp[live[again]] = order[at[again]]
        sums[live] += vals[at]
        r += 1
        live = live[counts[live] > r]
    kept = np.flatnonzero(sums != 0.0)
    kept = kept[stamp[kept].argsort()]
    return run[starts[kept]], sums[kept]


def poly_pow(p: MultiPoly, k: int) -> MultiPoly:
    """p**k for integer k >= 0, by square and multiply."""
    k = _integer(k, "power")
    if k < 0:
        raise UsageError("exponent must be non-negative")
    return _power(p, k, poly_mul) if k else MultiPoly.constant(p.nvars, 1.0)


def _power(base, k: int, mul):
    """base**k for k >= 1 by square and multiply, with mul(a, b) the product;
    the constant 1 is never multiplied out, since 1.0 * c is c."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def apply_univariate(phi, p: MultiPoly) -> MultiPoly:
    """phi(p) for a UniPoly phi: phi's Horner in the ring, from acc = 0.0,
    acc = acc * p + c for each coefficient c from the top."""
    return phi(p)


def _horner_keys(coeffs, k: np.ndarray, c: np.ndarray, base=(0,)) -> tuple[np.ndarray, np.ndarray]:
    """phi(p) of each node's p for phi's coefficients (constant first) and a
    layer keyed as _mul_keys takes it: the ring's Horner per node, node-major,
    each in its term order with its bits.  Keys must add without carry up to
    D times p's largest exponent of each variable, for D phi's degree, or
    (D + 1) times it when p has an inf or nan coefficient: the nan terms of
    the 0.0 * p start are multiplied by p D more times."""
    base = np.asarray(base)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan arise silently, as in float arithmetic
        acc = c * 0.0  # 0.0 * p keeps only the nan terms of inf and nan coefficients
        kept = acc != 0.0
        keys, acc = k[kept], acc[kept]
        for i, a in enumerate(reversed(coeffs)):
            if i:
                keys, acc = _mul_keys(keys, acc, k, c, base)
            if a == 0.0:
                continue  # the ring's constant 0.0 or -0.0 has no terms
            node = base.searchsorted(keys, "right") - 1
            const = keys == base[node]
            acc[const] += a
            new = np.bincount(node[const], minlength=base.size) == 0
            if new.any():  # a node without a constant term gets one, last in the node
                order = np.concatenate((node, np.flatnonzero(new))).argsort(kind="stable")
                keys = np.concatenate((keys, base[new]))[order]
                acc = np.concatenate((acc, np.full(order.size - acc.size, a)))[order]
            keys, acc = keys[acc != 0.0], acc[acc != 0.0]  # a constant term that cancels is dropped
    return keys, acc


def _compile(p: MultiPoly) -> tuple[np.ndarray, np.ndarray]:
    """p's compiled form, built once and read-only: a template table
    [x_1..x_d, 1.0, 0.0, c_1..c_T] of the coefficients in dict order behind
    slots for a point, and an intp gather of shape (D + 1, T + 1) for D, p's
    total degree.  Column 0 is a leading 0.0 term, column t is term t.  Row 0
    names each column's coefficient slot; row k >= 1 names the variable of
    each term's k-th factor, x_j repeated e_j times with j ascending, and d,
    the 1.0, past the term's degree.  The gather takes 8 * (D + 1) * (T + 1)
    bytes, and a one-point call gathers as many bytes of floats: below the
    d * D * T of one bool mask per power of each x_j once d > 8, and 8x them
    at d = 1; past MAX_PLAN_FACTORS factors, D * (T + 1), p is refused."""
    # Dense random polynomials, bool masks against the factor rows applied as
    # one gathered multiply per row, the path (n, d) calls take and single
    # points took before the one-point gather: medians over 5 alternated pairs
    # of processes of the min of 7 passes, per single point of 200 / per
    # (200, d) batch, on a shared 2-vCPU machine.  (d, D) = (1, 40):
    # 0.083 -> 0.089 / 1.04 -> 0.34 ms; (1, 400): 1.19 -> 1.01 / 42.8 -> 26.0 ms;
    # (2, 60): 0.59 -> 0.31 / 56.9 -> 38.7 ms; (6, 8): 0.32 -> 0.085 / 42.9 -> 14.3 ms.
    if p._compiled is None:
        d, T, degree = p.nvars, len(p.terms), p.degree()
        factors = degree * (T + 1)
        if factors > MAX_PLAN_FACTORS:
            raise ConfigurationError(
                f"evaluating a polynomial of degree {degree} with {T} terms takes a plan of "
                f"{factors} factors, above the limit of {MAX_PLAN_FACTORS}"
            )
        template = np.array([*(0.0,) * d, 1.0, 0.0, *p.terms.values()])
        exps = np.array([(0,) * d, *p.terms], dtype=np.intp)
        degrees = exps.sum(axis=1)
        gather = np.full((degree + 1, T + 1), d, dtype=np.intp)
        gather[0] = np.arange(d + 1, d + T + 2)
        # every factor of every term, term by term, x_j repeated e_j times within one
        term = np.repeat(np.arange(T + 1), degrees)
        k = np.arange(1, term.size + 1) - np.repeat(degrees.cumsum() - degrees, degrees)
        gather[k, term] = np.repeat(np.tile(np.arange(d), T + 1), exps.ravel())
        template.setflags(write=False)
        gather.setflags(write=False)
        p._compiled = (template, gather)
    return p._compiled


def _real_points(x) -> np.ndarray:
    """x as a float64 array; bool, int and float entries pass, and anything
    else (None, strings, complex numbers) is refused rather than cast."""
    a = np.asarray(x)
    if a.dtype.kind not in "biuf":
        raise UsageError(f"points must hold real numbers, got {a.dtype} entries")
    return a.astype(float, copy=False)


def poly_eval(p: MultiPoly, x) -> float | np.ndarray:
    """Evaluate at one point, shape (d,), giving a float, or at n points, shape
    (n, d), giving an (n,) array.

    Each term is its coefficient times x_j once per unit of e_j, j ascending,
    and the terms are summed left to right in dict order from 0.0, so every
    value has the bits of that plain per-term loop: the padding multiplies by
    1.0, which keeps every float as it is.  One point fills a copy of the
    compiled template, gathers it whole and multiplies each column top to
    bottom in one reduce; n points multiply in one gathered row of the
    factors at a time over every term at every point.
    """
    x = _real_points(x)
    if x.ndim not in (1, 2):
        raise DimensionError(f"points have shape {x.shape}, expected ({p.nvars},) or (n, {p.nvars})")
    if x.shape[-1] != p.nvars:
        raise DimensionError(f"point has length {x.shape[-1]}, expected {p.nvars}")
    template, gather = _compile(p)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan arise silently, as in float arithmetic
        if x.ndim == 1:
            table = template.copy()
            table[: p.nvars] = x
            # multiply.reduce runs down each column in row order; accumulate adds
            # strictly left to right, where np.sum would add pairwise
            return float(np.add.accumulate(np.multiply.reduce(table[gather], axis=0))[-1])
        xe = np.ones((p.nvars + 1, len(x)))  # (d + 1, n): x_j per row, then 1.0
        xe[:-1] = x.T
        terms = np.repeat(template.take(gather[0])[:, None], len(x), axis=1)  # (T + 1, n)
        for row in gather[1:]:
            terms *= xe.take(row, axis=0)
        np.add.accumulate(terms, axis=0, out=terms)
    return terms[-1].copy()


def truncate_degree(p: MultiPoly, max_degree: int) -> MultiPoly:
    """Drop every monomial of total degree above max_degree, an integer (2.0 passes)."""
    max_degree = _integer(max_degree, "max_degree")
    if max_degree < 0:
        raise UsageError("max_degree must be non-negative")
    return MultiPoly(p.nvars, {e: c for e, c in p.terms.items() if sum(e) <= max_degree})


def poly_to_text(p: MultiPoly) -> str:
    """Text form: header 'poly nvars=<d>', then one '<coeff> <e1> ... <ed>'
    line per term in graded-lex order, coefficients at 17 significant digits."""
    lines = [f"poly nvars={p.nvars}"]
    for e, c in p.items_grlex():
        lines.append(" ".join([format(c, ".17g")] + [str(k) for k in e]))
    return "\n".join(lines) + "\n"


def poly_from_text(text: str) -> MultiPoly:
    """Inverse of poly_to_text."""
    # physical line numbers, blank lines included
    lines = [(n, ln) for n, ln in enumerate((raw.strip() for raw in text.splitlines()), start=1) if ln]
    if not lines:
        raise ParseError("empty polynomial text")
    head_no, head_line = lines[0]
    head = head_line.split()
    if len(head) != 2 or head[0] != "poly" or not head[1].startswith("nvars="):
        raise ParseError(f"line {head_no}: expected 'poly nvars=<d>', got {head_line!r}")
    try:
        nvars = int(head[1][len("nvars="):])
    except ValueError:
        raise ParseError(f"line {head_no}: bad variable count in {head_line!r}") from None
    terms: dict[Exponents, float] = {}
    for ln_no, line in lines[1:]:
        fields = line.split()
        if len(fields) != nvars + 1:
            raise ParseError(f"line {ln_no}: expected {nvars + 1} fields, got {len(fields)}")
        try:
            c = float(fields[0])
            e = tuple(int(v) for v in fields[1:])
        except ValueError:
            raise ParseError(f"line {ln_no}: non-numeric field") from None
        if not math.isfinite(c):
            raise ParseError(f"line {ln_no}: non-finite coefficient")
        if any(k < 0 for k in e):
            raise ParseError(f"line {ln_no}: negative exponent")
        if e in terms:
            raise ParseError(f"line {ln_no}: duplicate monomial {e}")
        terms[e] = c
    return MultiPoly(nvars, terms)
