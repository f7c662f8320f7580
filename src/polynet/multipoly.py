"""Sparse multivariate polynomial arithmetic.

A polynomial in d variables maps exponent vectors (length-d tuples of
non-negative ints) to float coefficients.  The constructor drops exact
zeros and nothing else, so every nonzero term an operation produces is
kept, however small.  Term order everywhere is graded lexicographic
(total degree ascending, then tuple order on the exponents), which pins
down serialization and the ordering of downstream equation systems.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Iterator, Mapping

import numpy as np

from .errors import DimensionError, ParseError, UsageError

Exponents = tuple[int, ...]


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


def _exponent(e) -> int:
    """An exponent as an int; integral floats such as 2.0 pass, anything else is refused."""
    if isinstance(e, (int, np.integer)) or (isinstance(e, (float, np.floating)) and float(e).is_integer()):
        return int(e)
    raise UsageError(f"exponent {e!r} is not an integer")


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
        if not isinstance(nvars, (int, np.integer)):
            raise DimensionError(f"nvars must be an integer, got {nvars!r}")
        if nvars < 1:
            raise DimensionError("nvars must be at least 1")
        clean: dict[Exponents, float] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(_exponent(e) for e in exps)
            if len(key) != nvars:
                raise DimensionError(f"exponent vector {key} has length {len(key)}, expected {nvars}")
            if any(e < 0 for e in key):
                raise UsageError(f"negative exponent in {key}")
            c = float(coeff)
            if c != 0.0:
                clean[key] = c
        self.nvars = int(nvars)
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
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for {nvars} variables")
        return cls._trusted(int(nvars), {tuple(1 if j == index else 0 for j in range(nvars)): 1.0})

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
    """Distributive product."""
    _check_same_vars(p, q)
    out: dict[Exponents, float] = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return MultiPoly._trusted(p.nvars, out)


def poly_pow(p: MultiPoly, k: int) -> MultiPoly:
    """p**k for integer k >= 0, by square and multiply."""
    if k < 0:
        raise UsageError("exponent must be non-negative")
    result = None  # the constant 1, never multiplied out: 1.0 * c is c
    base = p
    while k:
        if k & 1:
            result = base if result is None else poly_mul(result, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    return MultiPoly.constant(p.nvars, 1.0) if result is None else result


def apply_univariate(phi, p: MultiPoly) -> MultiPoly:
    """A UniPoly phi composed with an arbitrary polynomial argument (phi's own Horner)."""
    return phi(p)


def _compile(p: MultiPoly) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """p's evaluation plan, built once: the coefficients in dict order behind a
    leading 0.0, and one (j, mask of terms with e_j >= s) step per power s of x_j."""
    if p._compiled is None:
        exps = np.array([(0,) * p.nvars, *p.terms], dtype=np.int64)
        coeffs = np.array([0.0, *p.terms.values()])
        steps = [(j, exps[:, j] >= s) for j in range(p.nvars) for s in range(1, exps[:, j].max() + 1)]
        p._compiled = (coeffs, steps)
    return p._compiled


def poly_eval(p: MultiPoly, x) -> float | np.ndarray:
    """Evaluate at one point, shape (d,), giving a float, or at n points, shape
    (n, d), giving an (n,) array.

    Each term is its coefficient times x_j once per unit of e_j, j ascending,
    and the terms are summed left to right in dict order from 0.0, so every
    value has the bits of that plain per-term loop.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise DimensionError(f"points have shape {x.shape}, expected ({p.nvars},) or (n, {p.nvars})")
    if x.shape[-1] != p.nvars:
        raise DimensionError(f"point has length {x.shape[-1]}, expected {p.nvars}")
    coeffs, steps = _compile(p)
    terms = np.tile(coeffs, x.shape[:-1] + (1,))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan arise silently, as in float arithmetic
        for j, mask in steps:
            np.multiply(terms, x[..., j, None], out=terms, where=mask)
        # accumulate adds strictly left to right; np.sum would add pairwise
        np.add.accumulate(terms, axis=-1, out=terms)
    return float(terms[-1]) if x.ndim == 1 else terms[:, -1].copy()


def truncate_degree(p: MultiPoly, max_degree: int) -> MultiPoly:
    """Drop every monomial of total degree above max_degree."""
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
