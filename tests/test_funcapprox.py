"""Activation surrogates: trigonometric series route and least-squares route."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

from polynet import (
    ConfigurationError,
    FourierSeries,
    NumericError,
    ParseError,
    SampledFunction,
    UniPoly,
    UsageError,
    approx_error,
    builtin,
    fourier_fit,
    fourier_to_poly,
    lsq_poly_fit,
    trig_term_budget,
    unipoly_from_text,
    unipoly_to_text,
)
from polynet.funcapprox import (
    BUILTIN_FUNCTIONS,
    COEFF_MAGNITUDE_LIMIT,
    SIMPSON_PANELS,
    TERM_TOL,
    _samples,
    _simpson,
    check_trig_substitution,
)

SIGMOID_AT_1 = 1.0 / (1.0 + math.exp(-1.0))


def sigmoid8():
    return builtin("sigmoid", -8.0, 8.0)


def fourier_eval(fs, x):
    """Reference: the series at one point, summed harmonic by harmonic."""
    theta = math.pi * x / fs.half_period
    total = 0.5 * fs.a0
    for n in range(1, fs.n_terms + 1):
        total += fs.a[n - 1] * math.cos(n * theta) + fs.b[n - 1] * math.sin(n * theta)
    return total


def test_unipoly_normalization():
    assert UniPoly((1.0, 2.0, 0.0, 0.0)).coeffs == (1.0, 2.0)
    assert UniPoly(()).coeffs == (0.0,)
    assert UniPoly((0.0,)).degree == 0
    assert UniPoly((1.0, 2.0, 0.0, 3.0)).degree == 3


def test_unipoly_evaluation():
    p = UniPoly((1.0, -2.0, 3.0))
    assert p(0.0) == 1.0
    assert p(2.0) == 1.0 - 4.0 + 12.0
    got = p(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(got, [1.0, 2.0, 9.0])


def test_unipoly_text_round_trip():
    p = UniPoly((0.5, 0.0, -1.0 / 3.0, 1e-200))
    assert unipoly_from_text(unipoly_to_text(p)).coeffs == p.coeffs
    with pytest.raises(ParseError, match="unipoly:"):
        unipoly_from_text("unipoly 0.5\n")
    with pytest.raises(ParseError, match="bad coefficient"):
        unipoly_from_text("unipoly: x\n")
    with pytest.raises(ParseError, match="no coefficients"):
        unipoly_from_text("unipoly:\n")
    with pytest.raises(ParseError, match="non-finite coefficient"):
        unipoly_from_text("unipoly: nan inf 1\n")


def test_builtin_functions():
    assert builtin("sigmoid", -1, 1).evaluator(0.0) == 0.5
    assert builtin("tanh", -1, 1).evaluator(0.0) == 0.0
    relu = builtin("relu", -1, 1).evaluator
    assert relu(-3.0) == 0.0 and relu(2.0) == 2.0
    assert builtin("square", -1, 1).evaluator(3.0) == 9.0
    f = builtin("sigmoid", -4.0, 4.0)
    assert (f.lo, f.hi) == (-4.0, 4.0)
    with pytest.raises(UsageError, match="unknown function"):
        builtin("gelu", -1, 1)
    with pytest.raises(ConfigurationError, match="lo < hi"):
        builtin("sigmoid", 1.0, 1.0)


def test_sigmoid_is_stable_at_extremes():
    f = builtin("sigmoid", -800.0, 800.0).evaluator
    assert f(-750.0) == 0.0
    assert f(750.0) == 1.0
    assert abs(f(0.0) - 0.5) == 0.0


def test_fourier_fit_recovers_a_pure_sine():
    f = SampledFunction(lambda x: math.sin(math.pi * x), -1.0, 1.0)
    fs = fourier_fit(f, 1.0, 3)
    assert abs(fs.b[0] - 1.0) <= 1e-10
    assert abs(0.5 * fs.a0) <= 1e-10
    assert max(abs(v) for v in fs.a) <= 1e-10
    assert max(abs(v) for v in fs.b[1:]) <= 1e-10


def test_fourier_fit_recovers_a_constant():
    f = SampledFunction(lambda x: 0.7, -2.0, 2.0)
    fs = fourier_fit(f, 2.0, 4)
    assert abs(0.5 * fs.a0 - 0.7) <= 1e-12
    assert max(abs(v) for v in fs.a + fs.b) <= 1e-12


def test_fourier_sigmoid_cosine_terms_vanish():
    # sigmoid(x) - 1/2 is odd, so the cosine side carries nothing
    fs = fourier_fit(sigmoid8(), 8.0, 8)
    assert abs(0.5 * fs.a0 - 0.5) <= 1e-8
    assert max(abs(v) for v in fs.a) <= 1e-8
    assert fs.n_terms == 8


def test_fourier_truncation_error_decreases_with_harmonics():
    f = sigmoid8()
    errs = []
    for n in (2, 8, 32):
        fs = fourier_fit(f, 8.0, n)
        errs.append(abs(fourier_eval(fs, 1.0) - SIGMOID_AT_1))
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] == pytest.approx(7.869268781e-02, rel=1e-6)
    assert errs[1] == pytest.approx(3.931974205e-03, rel=1e-6)
    assert errs[2] == pytest.approx(9.881492892e-04, rel=1e-6)


def test_fourier_quadrature_converged_at_default_panels():
    fs = fourier_fit(sigmoid8(), 8.0, 8)
    xs = np.linspace(-8.0, 8.0, 4097)
    ys = _samples(sigmoid8(), xs)
    b1 = simpson(ys * np.sin(np.pi * xs / 8.0), x=xs) / 8.0
    a0 = simpson(ys, x=xs) / 8.0
    assert abs(fs.b[0] - b1) <= 1e-6
    assert abs(fs.a0 - a0) <= 1e-6


@pytest.mark.parametrize("half_period", (1e-3, 0.5, 2.0, 8.0, 37.5, 1e6))
def test_simpson_has_the_bits_of_scipy(half_period):
    xs = np.linspace(-half_period, half_period, SIMPSON_PANELS + 1)
    ys = _samples(builtin("tanh", -half_period, half_period), xs)
    rng = np.random.default_rng(5)
    for y in (ys, ys * np.sin(3 * np.pi * xs / half_period), rng.normal(size=xs.size) * 1e8):
        assert _simpson(y, xs).hex() == float(simpson(y, x=xs)).hex()
    # the series coefficients are the scipy quadrature's, divided by l
    fs = fourier_fit(builtin("tanh", -half_period, half_period), half_period, 3)
    assert fs.a0.hex() == (float(simpson(ys, x=xs)) / half_period).hex()
    b3 = float(simpson(ys * np.sin(3 * np.pi * xs / half_period), x=xs)) / half_period
    assert fs.b[2].hex() == b3.hex()


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.linalg"])
def test_importing_polynet_leaves_out(module):
    # each adds over 20 MB of RSS to every process; scipy.linalg waits for the first solve
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = f"import sys, polynet, polynet.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_fourier_energy_bound():
    # the truncated series never carries more energy than the function
    f = sigmoid8()
    fs = fourier_fit(f, 8.0, 8)
    grid = np.linspace(-8.0, 8.0, 4097)
    vals = np.array(_samples(f, grid)) - 0.5 * fs.a0
    fn_energy = np.trapezoid(vals * vals, grid) / 8.0
    series_energy = sum(a * a + b * b for a, b in zip(fs.a, fs.b))
    assert series_energy <= fn_energy + 1e-9


def test_fourier_fit_validation():
    f = sigmoid8()
    with pytest.raises(ConfigurationError, match="half-period"):
        fourier_fit(f, 0.0, 8)
    with pytest.raises(ConfigurationError, match="half-period"):
        fourier_fit(f, -1.0, 8)
    with pytest.raises(ConfigurationError, match="n_terms"):
        fourier_fit(f, 8.0, 0)
    with pytest.raises(ConfigurationError, match="does not contain"):
        fourier_fit(f, 10.0, 8)


def test_sampling_outside_the_domain_is_refused():
    f = SampledFunction(math.sqrt, 0.0, 1.0)  # sqrt(-1) would raise a math domain error
    for sample in (lambda: fourier_fit(f, 1.0, 2), lambda: lsq_poly_fit(f, (-1.0, 1.0), 3),
                   lambda: approx_error(f, UniPoly((0.5,)), (-1.0, 1.0))):
        with pytest.raises(ConfigurationError, match=r"domain \[0.0, 1.0\] does not contain \[-1.0, 1.0\]"):
            sample()


def test_non_finite_samples_are_reported():
    bad = SampledFunction(lambda x: float("nan"), -1.0, 1.0)
    with pytest.raises(NumericError, match="not finite"):
        fourier_fit(bad, 1.0, 2)
    with pytest.raises(NumericError, match="not finite"):
        lsq_poly_fit(bad, (-1.0, 1.0), 3)
    for value in (math.inf, None):  # None converts to nan
        f = SampledFunction(lambda x: value if x == 0.25 else x, 0.0, 1.0)
        with pytest.raises(NumericError, match=r"^function value at x=0\.25 is not finite$"):
            _samples(f, np.linspace(0.0, 1.0, 5))


def test_samples_have_the_bits_of_a_per_element_loop():
    xs = np.concatenate((np.linspace(-8.0, 8.0, 1001), [-0.0, 0.0, 5e-324, -5e-324, 1e-300, -745.5, 710.0]))
    for name in BUILTIN_FUNCTIONS:
        f = builtin(name, -1000.0, 1000.0)
        want = np.array([f.evaluator(float(x)) for x in xs], dtype=float)
        assert _samples(f, xs).tobytes() == want.tobytes(), name


SIN3 = (0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0)
COS3 = (1.0, 0.0, -0.5, 0.0, 1.0 / 24.0)


def test_fourier_to_poly_of_one_harmonic_is_the_maclaurin_series():
    # on [-pi, pi] the first harmonic is cos(x) or sin(x) itself
    assert fourier_to_poly(FourierSeries(math.pi, 0.0, (1.0,), (0.0,)), 3).coeffs == COS3
    assert fourier_to_poly(FourierSeries(math.pi, 0.0, (0.0,), (1.0,)), 3).coeffs == SIN3


def test_fourier_to_poly_scales_the_argument():
    # on [-pi/2, pi/2] the first harmonic is cos(2x) or sin(2x): coefficient k gains 2^k
    for a, b, series in (((1.0,), (0.0,), COS3), ((0.0,), (1.0,), SIN3)):
        got = fourier_to_poly(FourierSeries(math.pi / 2, 0.0, a, b), 3).coeffs
        assert got == tuple(c * 2.0**k for k, c in enumerate(series))


def test_trig_term_budget():
    assert trig_term_budget(4) == 25
    assert trig_term_budget(1) <= trig_term_budget(8)
    with pytest.raises(ConfigurationError, match="at least 1"):
        trig_term_budget(0)


def test_integer_parameters_refuse_other_types():
    # trig_term_budget(2.5) once returned 18, and the others raised bare TypeErrors;
    # a numpy integer passes as an int
    f = sigmoid8()
    fs = fourier_fit(f, 8.0, 4)
    calls = [
        ("n_terms", lambda n: fourier_fit(f, 8.0, n)),
        ("n_harmonics", trig_term_budget),
        ("terms", lambda n: fourier_to_poly(fs, n)),
        ("n_harmonics", lambda n: check_trig_substitution(n, 3, 8.0)),
        ("degree", lambda n: lsq_poly_fit(f, (-8.0, 8.0), n)),
    ]
    for name, call in calls:
        for bad in (2.5, 2.0, "2", True, None):
            with pytest.raises(ConfigurationError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
                call(bad)
        assert call(np.int64(3)) == call(3)


def scanned_term_budget(n_harmonics):
    """Reference: count up from one term until u^(2K+1)/(2K+1)! < TERM_TOL."""
    u = math.pi * n_harmonics
    k = 1
    while (2 * k + 1) * math.log(u) - math.lgamma(2 * k + 2) >= math.log(TERM_TOL):
        k += 1
    return k


def scan_refuses(n_harmonics, terms):
    """Reference: the largest of all 2*terms series terms u^k/k! exceeds the limit."""
    u = math.pi * n_harmonics
    peak = max(k * math.log(u) - math.lgamma(k + 1) for k in range(2 * terms))
    return peak > math.log(COEFF_MAGNITUDE_LIMIT)


def test_trig_term_budget_matches_a_scan():
    assert [trig_term_budget(n) for n in range(1, 301)] == [scanned_term_budget(n) for n in range(1, 301)]


def test_trig_substitution_refusal_matches_a_scan():
    for n in range(1, 86):
        for terms in range(1, 86):
            try:
                check_trig_substitution(n, terms, 1.0)  # on [-1, 1] the scaled argument is u itself
                refused = False
            except ConfigurationError:
                refused = True
            assert refused == scan_refuses(n, terms), (n, terms)


def test_factorials_beyond_the_double_range_are_refused():
    one_harmonic = FourierSeries(1.0, 0.0, (1.0,), (1.0,))
    check_trig_substitution(1, 85, 1.0)
    assert fourier_to_poly(one_harmonic, 85).degree == 169
    for call in (lambda: fourier_to_poly(one_harmonic, 86), lambda: check_trig_substitution(1, 86, 1.0),
                 lambda: check_trig_substitution(1, 10**9, 1.0)):
        with pytest.raises(ConfigurationError, match="beyond the double range; use at most 85"):
            call()


def test_harmonic_counts_no_substitution_can_take_are_refused_up_front():
    # pi * n above COEFF_MAGNITUDE_LIMIT: the term u^1 alone is too large; the sizing loop
    # used to lose itself in float rounding there, and an int past the double range
    # failed to convert
    for n in (10**15, 10**400):
        for call in (lambda: trig_term_budget(n), lambda: check_trig_substitution(n, 5, 8.0)):
            with pytest.raises(ConfigurationError, match="harmonic count is above"):
                call()


def test_scaled_argument_powers_beyond_the_double_range_are_refused():
    # on [-0.04, 0.04] one harmonic scales x by s = 78.5, and s**(2*terms - 1) fits up to 81 terms
    check_trig_substitution(1, 81, 0.04)
    assert fourier_to_poly(fourier_fit(builtin("tanh", -0.04, 0.04), 0.04, 1), 81).degree == 161
    with pytest.raises(ConfigurationError, match="to powers beyond the double range"):
        check_trig_substitution(1, 82, 0.04)


def test_fourier_to_poly_tracks_the_series():
    fs = fourier_fit(sigmoid8(), 8.0, 4)
    budget = trig_term_budget(4)
    poly = fourier_to_poly(fs, budget)
    assert poly.degree == 2 * budget - 1
    xs = np.linspace(-4.0, 4.0, 101)
    gap = max(abs(poly(float(x)) - fourier_eval(fs, float(x))) for x in xs)
    assert gap <= 1e-12


def test_fourier_surrogate_accuracy_on_the_core_interval():
    f = sigmoid8()
    fs = fourier_fit(f, 8.0, 4)
    poly = fourier_to_poly(fs, trig_term_budget(4))
    err = approx_error(f, poly, (-4.0, 4.0))
    assert err.max_abs == pytest.approx(0.04136311253414182, rel=1e-9)


def test_fourier_to_poly_overflow_guard():
    fs = fourier_fit(sigmoid8(), 8.0, 32)
    with pytest.raises(ConfigurationError, match="least-squares"):
        fourier_to_poly(fs, trig_term_budget(32))


def test_lsq_fit_is_exact_on_a_polynomial():
    f = builtin("square", -1.0, 1.0)
    p = lsq_poly_fit(f, (-1.0, 1.0), 2)
    assert abs(p.coeffs[0]) <= 1e-12
    assert abs(p.coeffs[1]) <= 1e-12
    assert abs(p.coeffs[2] - 1.0) <= 1e-12
    assert approx_error(f, p, (-1.0, 1.0)).max_abs <= 1e-12
    # the interval is a pair: a triple is refused, not fitted on its first two values
    for bad in ((-1.0, 0.0, 1.0), (-1.0,), 1.0, (None, 1.0)):
        with pytest.raises(ConfigurationError, match="interval must be a pair"):
            lsq_poly_fit(f, bad, 2)


def test_lsq_sigmoid_degree9_frozen_error():
    f = sigmoid8()
    p = lsq_poly_fit(f, (-8.0, 8.0), 9)
    err = approx_error(f, p, (-8.0, 8.0))
    assert err.max_abs == pytest.approx(0.015650146292355727, rel=1e-9)


def test_lsq_fit_rejects_non_finite_coefficients():
    # the Legendre-to-monomial conversion overflows at this degree
    with pytest.raises(NumericError, match="degree-1000 fit has non-finite"):
        lsq_poly_fit(sigmoid8(), (-8.0, 8.0), 1000)


def test_lsq_fit_refuses_a_monomial_form_that_drifts_past_the_fit_error():
    # degree 40: the conversion drifts 3.3e-9 against a fit error of 1.4e-7;
    # degree 50: 3.6e-7 against 3.5e-9, and degree 40 approximates better
    f = sigmoid8()
    assert approx_error(f, lsq_poly_fit(f, (-8.0, 8.0), 40), (-8.0, 8.0)).max_abs < 2e-7
    with pytest.raises(NumericError, match="degree-50 fit loses"):
        lsq_poly_fit(f, (-8.0, 8.0), 50)


def test_lsq_fit_keeps_a_drifting_monomial_form_that_beats_every_lower_degree():
    # these monomial forms stray from their Legendre fits by more than the fits' own
    # error, yet approximate better than any lower degree does
    for f, interval, kept, refused in ((sigmoid8(), (-8.0, 8.0), (44, 46), (45, 47)),
                                       (builtin("tanh", -3.0, 3.0), (-3.0, 3.0), (43, 45, 46), (44, 47))):
        errs = {}
        for d in range(max(kept) + 1):
            try:
                errs[d] = approx_error(f, lsq_poly_fit(f, interval, d), interval).max_abs
            except NumericError:
                assert d in refused
        for d in kept:
            assert errs[d] < min(e for k, e in errs.items() if k < d)
        for d in refused:
            with pytest.raises(NumericError, match=f"degree-{d} fit loses .* and degree [0-9]+ approximates better"):
                lsq_poly_fit(f, interval, d)


def test_lsq_error_non_increasing_in_degree():
    f = sigmoid8()
    errs = [approx_error(f, lsq_poly_fit(f, (-8.0, 8.0), d), (-8.0, 8.0)).max_abs
            for d in (3, 5, 7, 9)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_approx_error_known_values():
    err = approx_error(sigmoid8(), UniPoly((0.5,)), (-8.0, 8.0))
    assert err.max_abs == pytest.approx(0.49966464986953363, rel=1e-12)
    assert err.rmse == pytest.approx(0.43313275152262465, rel=1e-12)
    assert err.rmse <= err.max_abs
    perfect = approx_error(builtin("square", -2, 2), UniPoly((0.0, 0.0, 1.0)), (-2.0, 2.0))
    assert perfect.max_abs <= 1e-15 and perfect.rmse <= 1e-15


def test_approx_error_validation():
    f = sigmoid8()
    with pytest.raises(ConfigurationError, match="lo < hi"):
        approx_error(f, UniPoly((0.5,)), (2.0, -2.0))
    for bad in ((-2.0, 0.0, 2.0), (-2.0,), 2.0, (-2.0, None)):
        with pytest.raises(ConfigurationError, match="interval must be a pair"):
            approx_error(f, UniPoly((0.5,)), bad)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (math.nan, 1.0)])
def test_infinite_intervals_are_refused(lo, hi):
    with pytest.raises(ConfigurationError, match="finite and satisfy lo < hi"):
        SampledFunction(math.tanh, lo, hi)
    with pytest.raises(ConfigurationError, match="finite and satisfy lo < hi"):
        lsq_poly_fit(sigmoid8(), (lo, hi), 3)
    with pytest.raises(ConfigurationError, match="finite and satisfy lo < hi"):
        approx_error(sigmoid8(), UniPoly((0.5,)), (lo, hi))
