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


@dataclass(frozen=True)
class SampledFunction:
    """A real scalar function together with the closed interval it lives on."""

    evaluator: Callable[[float], float]
    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ConfigurationError("domain must be finite and satisfy lo < hi")


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


def _check_interval(f: SampledFunction, interval) -> tuple[float, float]:
    """The interval as floats (lo, hi); refuse anything but a finite, ordered pair within f's domain."""
    try:
        lo, hi = map(float, interval)
    except (TypeError, ValueError):
        raise ConfigurationError(f"interval must be a pair of numbers (lo, hi), got {interval!r}") from None
    if not -math.inf < lo < hi < math.inf:
        raise ConfigurationError("interval must be finite and satisfy lo < hi")
    if f.lo > lo or f.hi < hi:
        raise ConfigurationError(f"domain [{f.lo}, {f.hi}] does not contain [{lo}, {hi}]")
    return lo, hi


def _samples(f: SampledFunction, xs: np.ndarray) -> np.ndarray:
    ys = np.array(list(map(f.evaluator, xs.tolist())), dtype=float)
    bad = np.flatnonzero(~np.isfinite(ys))
    if bad.size:
        raise NumericError(f"function value at x={xs[bad[0]]} is not finite")
    return ys


def _count(n, name: str) -> int:
    """An integer parameter as an int; a bool, a float or any other type is refused."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {n!r}")
    return int(n)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson over an odd number of samples, with the arithmetic of
    scipy.integrate.simpson(y, x=x) (its variable-spacing form), bit for bit."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod = h0 + h1, h0 * h1
    r = np.divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    inv_r = np.divide(1.0, r, out=np.zeros_like(r), where=r != 0)
    h_ratio = np.divide(hsum, hprod, out=np.zeros_like(hsum), where=hprod != 0)
    parts = hsum / 6.0 * (y[:-2:2] * (2.0 - inv_r) + y[1::2] * (hsum * h_ratio) + y[2::2] * (2.0 - r))
    return float(np.sum(parts))


def fourier_fit(f: SampledFunction, l: float, n_terms: int) -> FourierSeries:
    """Fit a trigonometric series to f on [-l, l] by composite-Simpson quadrature.

    a_n = (1/l) integral_{-l}^{l} f(x) cos(n pi x/l) dx,  n = 0..n_terms
    b_n = (1/l) integral_{-l}^{l} f(x) sin(n pi x/l) dx,  n = 1..n_terms
    """
    n_terms = _count(n_terms, "n_terms")
    if l <= 0:
        raise ConfigurationError("half-period l must be positive")
    if n_terms < 1:
        raise ConfigurationError("n_terms must be at least 1")
    _check_interval(f, (-l, l))
    xs = np.linspace(-l, l, SIMPSON_PANELS + 1)
    ys = _samples(f, xs)
    a0 = _simpson(ys, xs) / l
    a, b = [], []
    for n in range(1, n_terms + 1):
        theta = n * np.pi * xs / l
        a.append(_simpson(ys * np.cos(theta), xs) / l)
        b.append(_simpson(ys * np.sin(theta), xs) / l)
    return FourierSeries(l, a0, tuple(a), tuple(b))


def trig_term_budget(n_harmonics: int) -> int:
    """Smallest term count whose Maclaurin remainder bound beats TERM_TOL.

    The substituted series see arguments up to u = n_harmonics * pi, and
    with K terms the first omitted term is bounded by u^(2K+1)/(2K+1)!.
    """
    n_harmonics = _count(n_harmonics, "n_harmonics")
    if n_harmonics < 1:
        raise ConfigurationError("n_harmonics must be at least 1")
    u = _series_argument(n_harmonics)
    # u^m/m! >= 1/(e sqrt(m)), far above TERM_TOL, while m <= e*u, so no K with 2K + 1 <= e*u qualifies
    k = max(1, int((math.e * u - 1) / 2))
    while (2 * k + 1) * math.log(u) - math.lgamma(2 * k + 2) >= math.log(TERM_TOL):
        k += 1
    return k


def _series_argument(n_harmonics: int) -> float:
    """u = pi * n_harmonics, the largest argument the substituted series see.

    Above COEFF_MAGNITUDE_LIMIT even the term u^1 is too large, so those
    counts are refused here, before a huge int fails to convert to float.
    """
    if n_harmonics > COEFF_MAGNITUDE_LIMIT / math.pi:
        raise ConfigurationError(
            f"the harmonic count is above {COEFF_MAGNITUDE_LIMIT / math.pi:.3g}, where no series "
            f"substitution stays below {COEFF_MAGNITUDE_LIMIT:g}; use the least-squares fit"
        )
    return math.pi * n_harmonics


def check_trig_substitution(n_harmonics: int, terms: int, half_period: float) -> None:
    """Raise ConfigurationError unless terms is in 1..85 and substituting
    `terms` Maclaurin terms at n_harmonics harmonics on [-half_period,
    half_period] keeps intermediate terms below COEFF_MAGNITUDE_LIMIT
    (beyond it all significance cancels away) and the powers of the scaled
    argument in the double range."""
    n_harmonics, terms = _count(n_harmonics, "n_harmonics"), _count(terms, "terms")
    if not half_period > 0:
        raise ConfigurationError("half_period must be positive")
    u = _series_argument(n_harmonics)
    # u^k/k! grows while k < u and shrinks after, so this k has the largest term up to degree
    # 2*terms - 1; k <= 0 (u < 1 or terms < 1) leaves only the term 1
    k = min(math.floor(u), 2 * terms - 1)
    if k > 0 and k * math.log(u) - math.lgamma(k + 1) > math.log(COEFF_MAGNITUDE_LIMIT):
        raise ConfigurationError(
            f"substituting {terms} series terms at {n_harmonics} harmonics needs intermediate "
            f"terms above {COEFF_MAGNITUDE_LIMIT:g}; use the least-squares fit for wide intervals"
        )
    if terms < 1:
        raise ConfigurationError("terms must be at least 1")
    if terms > 85:  # from 86 terms on, (2*terms - 1)! does not fit in a double
        raise ConfigurationError(f"{terms} series terms need factorials beyond the double range; use at most 85")
    s = u / half_period  # fourier_to_poly raises s to powers up to 2*terms - 1
    try:
        fits = math.isfinite(s ** (2 * terms - 1))
    except OverflowError:
        fits = False
    if not fits:
        raise ConfigurationError(
            f"substituting {terms} series terms at {n_harmonics} harmonics on [-{half_period:g}, {half_period:g}] "
            f"raises {s:.3g} to powers beyond the double range; use fewer terms or the least-squares fit"
        )


def fourier_to_poly(fs: FourierSeries, terms: int) -> UniPoly:
    """Substitute Maclaurin series for every sin/cos term of the series.

    Each harmonic n becomes a polynomial in x through u = (n pi / l) x.
    Raises ConfigurationError when check_trig_substitution refuses the
    term count; fit with lsq_poly_fit instead in that regime.
    """
    check_trig_substitution(fs.n_terms, terms, fs.half_period)
    # Maclaurin coefficient of x^k: cos takes the even k, sin the odd k
    maclaurin = [(-1.0) ** (k // 2) / math.factorial(k) for k in range(2 * terms)]
    acc = np.zeros(2 * terms, dtype=float)
    acc[0] = 0.5 * fs.a0
    for n, (ca, cb) in enumerate(zip(fs.a, fs.b), start=1):
        s = n * math.pi / fs.half_period
        scaled = np.array([c * s**k for k, c in enumerate(maclaurin)])
        if ca:
            acc[0::2] += ca * scaled[0::2]
        if cb:
            acc[1::2] += cb * scaled[1::2]
    return UniPoly(tuple(acc))


def lsq_poly_fit(f: SampledFunction, interval: tuple[float, float], degree: int) -> UniPoly:
    """Least-squares polynomial fit to f on GRID_POINTS uniform points over `interval`.

    Normal equations are formed in a Legendre basis on the grid mapped to
    [-1, 1], then the solution is expanded back to monomial coefficients
    in the original variable.  That expansion loses digits at high degree:
    a monomial form that strays from the Legendre fit by more than the
    fit's own error is refused when a lower degree's monomial form
    approximates f better on the grid.
    """
    lo, hi = _check_interval(f, interval)
    degree = _count(degree, "degree")
    if degree < 0:
        raise ConfigurationError("degree must be non-negative")
    if GRID_POINTS <= degree:
        raise ConfigurationError(f"need more than {degree} gridpoints for a degree-{degree} fit")
    xs = np.linspace(lo, hi, GRID_POINTS)
    ys = _samples(f, xs)
    p, fitted = _lsq_monomial_fit(xs, ys, degree)
    if not np.all(np.isfinite(p.coeffs)):
        raise NumericError(f"the degree-{degree} fit has non-finite monomial coefficients; lower the degree")
    values = p(xs)
    drift = float(np.max(np.abs(values - fitted)))
    # 256 ulps of max|y| leave room for exact fits
    if drift > max(float(np.max(np.abs(fitted - ys))), 256 * float(np.spacing(np.max(np.abs(ys))))):
        error = float(np.max(np.abs(values - ys)))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite lower fit compares False
            lower = (np.max(np.abs(_lsq_monomial_fit(xs, ys, d)[0](xs) - ys)) for d in range(degree))
            better = next((d for d, e in enumerate(lower) if e < error), None)
        if better is not None:
            raise NumericError(
                f"the degree-{degree} fit loses {drift:.3g} in monomial form, more than its own error, "
                f"and degree {better} approximates better; lower the degree"
            )
    return p


def _lsq_monomial_fit(xs: np.ndarray, ys: np.ndarray, degree: int) -> tuple[UniPoly, np.ndarray]:
    """The degree-`degree` least-squares fit on the grid xs in monomial form,
    and the Legendre fit's values on the grid."""
    lo, hi = xs[0], xs[-1]
    ts = (2.0 * xs - (lo + hi)) / (hi - lo)
    V = np.polynomial.legendre.legvander(ts, degree)
    try:
        leg_coeffs = np.linalg.solve(V.T @ V, V.T @ ys)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"normal equations are singular: {exc}") from None
    # compose with t = alpha*x + beta to get coefficients in x; an overflow
    # here is reported by the caller's finiteness check
    alpha = 2.0 / (hi - lo)
    beta = -(lo + hi) / (hi - lo)
    with np.errstate(over="ignore", invalid="ignore"):
        t_coeffs = np.polynomial.legendre.leg2poly(leg_coeffs)
        comp = np.array([t_coeffs[-1]])
        for c in t_coeffs[-2::-1]:
            comp = np.polynomial.polynomial.polymul(comp, np.array([beta, alpha]))
            comp[0] += c
    return UniPoly(tuple(comp)), V @ leg_coeffs


@dataclass(frozen=True)
class ApproxError:
    max_abs: float
    rmse: float


def approx_error(f: SampledFunction, p: UniPoly, interval: tuple[float, float]) -> ApproxError:
    """Max-absolute and root-mean-square deviation of p from f on GRID_POINTS uniform points."""
    lo, hi = _check_interval(f, interval)
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
    if not all(map(math.isfinite, coeffs)):
        raise ParseError("non-finite coefficient in unipoly line")
    return UniPoly(coeffs)
