"""Polynomial surrogates for activation functions on an interval.

Two routes produce a univariate polynomial standing in for an activation:

  1. trigonometric route: fit a finite sine/cosine series on [-l, l] by
     quadrature, then substitute truncated Maclaurin series for sin and
     cos, leaving an ordinary polynomial;
  2. least-squares route: fit one polynomial of fixed degree on a uniform
     grid, solved through a Legendre basis for conditioning.

The trigonometric route dies of cancellation once the series arguments get
large (the sin/cos power series pass through huge intermediate terms), so
check_trig_substitution refuses term budgets whose intermediates exceed
1e15; use lsq_poly_fit on wide intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import simpson

from .errors import ConfigurationError, NumericError, ParseError, UsageError

# fourier_to_poly refuses substitutions whose intermediate series terms
# exceed this; beyond it double precision has no correct digits left.
COEFF_MAGNITUDE_LIMIT = 1e15

SIMPSON_PANELS = 2048  # composite-Simpson panels of the Fourier quadrature
GRID_POINTS = 1001     # uniform grid of the least-squares fit and of approx_error
TERM_TOL = 1e-9        # Maclaurin remainder bound that trig_term_budget meets


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial; coeffs[i] multiplies x**i.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial is stored as (0.0,).
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        cs = [float(c) for c in self.coeffs]
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        if not cs:
            cs = [0.0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        # Horner; x may be a scalar, an ndarray, a MultiPoly or an array of them
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scaled_argument(self, s: float) -> "UniPoly":
        """p(s*x) as a polynomial in x."""
        return UniPoly(tuple(c * s**k for k, c in enumerate(self.coeffs)))


@dataclass(frozen=True)
class FourierSeries:
    """Finite series a0/2 + sum_n a_n cos(n pi x/l) + b_n sin(n pi x/l) on [-l, l]."""

    half_period: float
    a0: float
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        if not self.half_period > 0:
            raise ConfigurationError("half_period must be positive")
        if len(self.a) != len(self.b):
            raise ConfigurationError("cosine and sine coefficient tuples must have equal length")
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))

    @property
    def n_terms(self) -> int:
        return len(self.a)

    @property
    def constant_term(self) -> float:
        return 0.5 * self.a0


@dataclass(frozen=True)
class SampledFunction:
    """A real scalar function together with the closed interval it lives on."""

    evaluator: Callable[[float], float]
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigurationError("domain must satisfy lo < hi")


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


BUILTIN_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sigmoid": _sigmoid,
    "tanh": math.tanh,
    "relu": lambda x: x if x > 0 else 0.0,
    "square": lambda x: x * x,
}


def builtin(name: str, lo: float, hi: float) -> SampledFunction:
    """One of the built-in activations restricted to [lo, hi]."""
    try:
        fn = BUILTIN_FUNCTIONS[name]
    except KeyError:
        raise UsageError(
            f"unknown function {name!r}; choices: {', '.join(sorted(BUILTIN_FUNCTIONS))}"
        ) from None
    return SampledFunction(fn, lo, hi)


def _samples(f: SampledFunction, xs: np.ndarray) -> np.ndarray:
    ys = np.array([f.evaluator(float(x)) for x in xs], dtype=float)
    bad = np.flatnonzero(~np.isfinite(ys))
    if bad.size:
        raise NumericError(f"function value at x={xs[bad[0]]} is not finite")
    return ys


def fourier_fit(f: SampledFunction, l: float, n_terms: int) -> FourierSeries:
    """Fit a trigonometric series to f on [-l, l] by composite-Simpson quadrature.

    a_n = (1/l) integral_{-l}^{l} f(x) cos(n pi x/l) dx,  n = 0..n_terms
    b_n = (1/l) integral_{-l}^{l} f(x) sin(n pi x/l) dx,  n = 1..n_terms
    """
    if l <= 0:
        raise ConfigurationError("half-period l must be positive")
    if n_terms < 1:
        raise ConfigurationError("n_terms must be at least 1")
    if f.lo > -l or f.hi < l:
        raise ConfigurationError(f"domain [{f.lo}, {f.hi}] does not contain [-{l}, {l}]")
    xs = np.linspace(-l, l, SIMPSON_PANELS + 1)
    ys = _samples(f, xs)
    a0 = float(simpson(ys, x=xs)) / l
    a, b = [], []
    for n in range(1, n_terms + 1):
        theta = n * np.pi * xs / l
        a.append(float(simpson(ys * np.cos(theta), x=xs)) / l)
        b.append(float(simpson(ys * np.sin(theta), x=xs)) / l)
    return FourierSeries(l, a0, tuple(a), tuple(b))


def fourier_eval(fs: FourierSeries, x: float) -> float:
    """Evaluate the series at one point."""
    theta = math.pi * x / fs.half_period
    total = 0.5 * fs.a0
    for n in range(1, fs.n_terms + 1):
        total += fs.a[n - 1] * math.cos(n * theta) + fs.b[n - 1] * math.sin(n * theta)
    return total


def maclaurin_trig(kind: str, terms: int) -> UniPoly:
    """First `terms` nonzero Maclaurin terms of sin or cos.

    sin: sum_m (-1)^m x^(2m+1)/(2m+1)!, degree 2*terms - 1
    cos: sum_m (-1)^m x^(2m)/(2m)!,     degree 2*terms - 2
    """
    if terms < 1:
        raise ConfigurationError("terms must be at least 1")
    if kind == "sin":
        coeffs = [0.0] * (2 * terms)
        for m in range(terms):
            coeffs[2 * m + 1] = (-1.0) ** m / math.factorial(2 * m + 1)
    elif kind == "cos":
        coeffs = [0.0] * (2 * terms - 1)
        for m in range(terms):
            coeffs[2 * m] = (-1.0) ** m / math.factorial(2 * m)
    else:
        raise UsageError(f"kind must be 'sin' or 'cos', got {kind!r}")
    return UniPoly(tuple(coeffs))


def trig_term_budget(n_harmonics: int) -> int:
    """Smallest term count whose Maclaurin remainder bound beats TERM_TOL.

    The substituted series see arguments up to u = n_harmonics * pi, and
    with K terms the first omitted term is bounded by u^(2K+1)/(2K+1)!.
    """
    if n_harmonics < 1:
        raise ConfigurationError("n_harmonics must be at least 1")
    u = math.pi * n_harmonics
    log_tol = math.log(TERM_TOL)
    k = 1
    while True:
        m = 2 * k + 1
        if m * math.log(u) - math.lgamma(m + 1) < log_tol:
            return k
        k += 1


def check_trig_substitution(n_harmonics: int, terms: int) -> None:
    """Raise ConfigurationError unless terms >= 1 and substituting `terms`
    Maclaurin terms at up to n_harmonics harmonics stays below intermediate
    terms of COEFF_MAGNITUDE_LIMIT (beyond it all significance cancels away).
    """
    if terms < 1:
        raise ConfigurationError("terms must be at least 1")
    u = math.pi * n_harmonics
    if u <= 0:
        return
    # log of the largest series term u^k/k! up to degree 2*terms - 1; it sits near k = u
    log_u = math.log(u)
    if max(k * log_u - math.lgamma(k + 1) for k in range(2 * terms)) > math.log(COEFF_MAGNITUDE_LIMIT):
        raise ConfigurationError(
            f"substituting {terms} series terms at {n_harmonics} harmonics needs intermediate "
            f"terms above {COEFF_MAGNITUDE_LIMIT:g}; use the least-squares fit for wide intervals"
        )


def fourier_to_poly(fs: FourierSeries, terms: int) -> UniPoly:
    """Substitute Maclaurin series for every sin/cos term of the series.

    Each harmonic n becomes a polynomial in x through u = (n pi / l) x.
    Raises ConfigurationError when check_trig_substitution refuses the
    term count; fit with lsq_poly_fit instead in that regime.
    """
    check_trig_substitution(fs.n_terms, terms)
    sin_p = maclaurin_trig("sin", terms)
    cos_p = maclaurin_trig("cos", terms)
    acc = np.zeros(2 * terms, dtype=float)
    acc[0] = 0.5 * fs.a0
    for n in range(1, fs.n_terms + 1):
        s = n * math.pi / fs.half_period
        ca, cb = fs.a[n - 1], fs.b[n - 1]
        if ca:
            cs = cos_p.scaled_argument(s).coeffs
            acc[: len(cs)] += ca * np.array(cs)
        if cb:
            cs = sin_p.scaled_argument(s).coeffs
            acc[: len(cs)] += cb * np.array(cs)
    return UniPoly(tuple(acc))


def lsq_poly_fit(f: SampledFunction, interval: tuple[float, float], degree: int) -> UniPoly:
    """Least-squares polynomial fit to f on GRID_POINTS uniform points over `interval`.

    Normal equations are formed in a Legendre basis on the grid mapped to
    [-1, 1], then the solution is expanded back to monomial coefficients
    in the original variable.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ConfigurationError("interval must satisfy lo < hi")
    if degree < 0:
        raise ConfigurationError("degree must be non-negative")
    if GRID_POINTS <= degree:
        raise ConfigurationError(f"need more than {degree} gridpoints for a degree-{degree} fit")
    xs = np.linspace(lo, hi, GRID_POINTS)
    ys = _samples(f, xs)
    ts = (2.0 * xs - (lo + hi)) / (hi - lo)
    V = np.polynomial.legendre.legvander(ts, degree)
    try:
        leg_coeffs = np.linalg.solve(V.T @ V, V.T @ ys)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"normal equations are singular: {exc}") from None
    # compose with t = alpha*x + beta to get coefficients in x; an overflow
    # here is reported by the finiteness check below
    alpha = 2.0 / (hi - lo)
    beta = -(lo + hi) / (hi - lo)
    with np.errstate(over="ignore", invalid="ignore"):
        t_coeffs = np.polynomial.legendre.leg2poly(leg_coeffs)
        comp = np.array([t_coeffs[-1]])
        for c in t_coeffs[-2::-1]:
            comp = np.polynomial.polynomial.polymul(comp, np.array([beta, alpha]))
            comp[0] += c
    if not np.all(np.isfinite(comp)):
        raise NumericError(f"the degree-{degree} fit has non-finite monomial coefficients; lower the degree")
    # Refuse a monomial form that strays from the Legendre fit by more than
    # the fit's own error; 256 ulps of max|y| leave room for exact fits.
    p = UniPoly(tuple(comp))
    fitted = V @ leg_coeffs
    drift = float(np.max(np.abs(p(xs) - fitted)))
    if drift > max(float(np.max(np.abs(fitted - ys))), 256 * float(np.spacing(np.max(np.abs(ys))))):
        raise NumericError(
            f"the degree-{degree} fit loses {drift:.3g} in monomial form, more than its own error; lower the degree"
        )
    return p


@dataclass(frozen=True)
class ApproxError:
    max_abs: float
    rmse: float


def approx_error(f: SampledFunction, p: UniPoly, interval: tuple[float, float]) -> ApproxError:
    """Max-absolute and root-mean-square deviation of p from f on GRID_POINTS uniform points."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ConfigurationError("interval must satisfy lo < hi")
    xs = np.linspace(lo, hi, GRID_POINTS)
    d = p(xs) - _samples(f, xs)
    return ApproxError(float(np.max(np.abs(d))), float(math.sqrt(np.mean(d * d))))


def unipoly_to_text(p: UniPoly) -> str:
    """Serialize as a single 'unipoly: c0 c1 ... cN' line."""
    return "unipoly: " + " ".join(format(c, ".17g") for c in p.coeffs) + "\n"


def unipoly_from_text(text: str) -> UniPoly:
    """Inverse of unipoly_to_text."""
    head, sep, rest = text.strip().partition(":")
    if head.strip() != "unipoly" or not sep:
        raise ParseError("expected a line starting with 'unipoly:'")
    toks = rest.split()
    if not toks:
        raise ParseError("unipoly line carries no coefficients")
    try:
        coeffs = tuple(float(t) for t in toks)
    except ValueError as exc:
        raise ParseError(f"bad coefficient in unipoly line: {exc}") from None
    return UniPoly(coeffs)
