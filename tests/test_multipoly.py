"""Sparse multivariate polynomial ring: construction, arithmetic, text format."""

import itertools
import math
import re
import struct
import time
import warnings

import numpy as np
import pytest

from polynet import (
    ConfigurationError,
    DimensionError,
    Identity,
    LayerSpec,
    MonomialPower,
    MultiPoly,
    NetworkSpec,
    ParseError,
    PolyActivation,
    UniPoly,
    UsageError,
    expand_network,
    poly_eval,
    poly_from_text,
    poly_to_text,
    truncate_degree,
)
from polynet import multipoly
from polynet.multipoly import apply_univariate, grlex_monomials, monomial_label, poly_add, poly_mul, poly_pow


def random_poly(rng, nvars, max_degree=3, max_terms=6):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        e = tuple(int(v) for v in rng.integers(0, max_degree + 1, nvars))
        terms[e] = float(rng.uniform(-2.0, 2.0))
    return MultiPoly(nvars, terms)


def coeff_gap(p, q):
    keys = set(p.terms) | set(q.terms)
    return max((abs(p.terms.get(e, 0.0) - q.terms.get(e, 0.0)) for e in keys), default=0.0)


def test_constructors():
    z = MultiPoly(3)
    assert z.nvars == 3 and dict(z.terms) == {}

    c = MultiPoly.constant(2, 4.5)
    assert dict(c.terms) == {(0, 0): 4.5}
    assert not MultiPoly.constant(2, 0.0).terms

    x2 = MultiPoly.variable(3, 1)
    assert dict(x2.terms) == {(0, 1, 0): 1.0}
    assert x2.degree() == 1
    x2 = MultiPoly.variable(np.int64(3), 1)
    assert x2 == MultiPoly(3, {(0, 1, 0): 1.0}) and type(x2.nvars) is int


def test_constructor_validation():
    with pytest.raises(DimensionError, match="at least 1"):
        MultiPoly(0)
    with pytest.raises(DimensionError, match="length 1, expected 2"):
        MultiPoly(2, {(1,): 1.0})
    with pytest.raises(DimensionError, match="out of range"):
        MultiPoly.variable(2, 5)
    with pytest.raises(DimensionError, match="out of range"):
        MultiPoly.variable(2, -1)
    with pytest.raises(DimensionError, match="nvars must be an integer, got 2.5"):
        MultiPoly(2.5)
    # a bool is not a variable count, though bool is an int subclass
    for bad in (True, False, np.bool_(True)):
        with pytest.raises(DimensionError, match=f"nvars must be an integer, got {re.escape(repr(bad))}"):
            MultiPoly(bad)
    # an exponent vector must be a tuple; a bare int key used to raise TypeError
    for bad in (1, "10", 1.0):
        with pytest.raises(DimensionError, match=f"exponent vector {re.escape(repr(bad))} is not a tuple"):
            MultiPoly(1, {bad: 2.0})
    # a coefficient float() refuses used to raise ValueError or TypeError
    for bad in ("x", None, 1j, [1.0]):
        with pytest.raises(UsageError, match=re.escape(f"coefficient {bad!r} of (1, 0) is not a number")):
            MultiPoly(2, {(1, 0): bad})
    assert MultiPoly(2, {(1, 0): "1.5", (0, 1): np.float32(0.5)}).terms == {(1, 0): 1.5, (0, 1): 0.5}
    # int() would truncate 1.5 to 1, so 2*x1^1.5 would read as 2*x1 and then lose to 3*x1;
    # a bool is not an exponent, though bool is an int subclass
    for bad in (1.5, float("nan"), float("inf"), "2", None, True):
        with pytest.raises(UsageError, match=f"exponent {re.escape(repr(bad))} is not an integer"):
            MultiPoly(1, {(bad,): 2.0, (1,): 3.0})
    assert MultiPoly(2, {(2.0, np.int64(1)): 1.0}) == MultiPoly(2, {(2, 1): 1.0})
    # an index of 1.5 used to give the constant polynomial 1, and True x2
    for bad in (1.5, float("nan"), float("inf"), "1", None, True):
        with pytest.raises(UsageError, match=f"variable index {re.escape(repr(bad))} is not an integer"):
            MultiPoly.variable(3, bad)
    for index in (1, np.int64(1), np.int32(1), 1.0):
        assert MultiPoly.variable(3, index) == MultiPoly(3, {(0, 1, 0): 1.0})
    # variable refuses the sizes that the constructor refuses: True used to give
    # a polynomial in 1 variable, and 2.0 a bare TypeError
    for bad in (True, False, np.bool_(True), 2.0, 2.5, "2", None):
        with pytest.raises(DimensionError, match=f"nvars must be an integer, got {re.escape(repr(bad))}"):
            MultiPoly.variable(bad, 0)
    with pytest.raises(DimensionError, match="at least 1"):
        MultiPoly.variable(0, 0)
    # a power is an exponent too: an integral float passes, any other number is refused
    p = MultiPoly(2, {(1, 0): 1.0, (0, 1): -2.0, (0, 0): 0.5})
    assert list((p**2.0).terms.items()) == list((p**2).terms.items())
    for bad in (2.5, True):
        with pytest.raises(UsageError, match=f"power {bad!r} is not an integer"):
            p**bad


def test_graded_lex_iteration_order():
    p = MultiPoly(2, {(2, 0): 1.0, (0, 0): 1.0, (1, 1): 1.0, (0, 2): 1.0, (1, 0): 1.0, (0, 1): 1.0})
    exps = [e for e, _ in p.items_grlex()]
    assert exps == sorted(exps, key=lambda e: (sum(e), e))
    assert exps[0] == (0, 0) and exps[-1] == (2, 0)


def test_text_form():
    assert str(MultiPoly(2)) == "0"
    assert repr(MultiPoly(2)) == "MultiPoly(2, {})"
    assert str(MultiPoly.constant(2, -1.5)) == "-1.5"
    p = MultiPoly(2, {(2, 1): 3.0, (0, 0): 0.5, (1, 0): -2.0})
    assert str(p) == "0.5 + -2*x1 + 3*x1^2*x2"
    assert repr(p) == "MultiPoly(2, {(0, 0): 0.5, (1, 0): -2.0, (2, 1): 3.0})"
    assert [monomial_label(e) for e in ((0, 0), (0, 1), (2, 1))] == ["1", "x2", "x1^2*x2"]


def test_grlex_monomials_enumerates_the_full_basis():
    for nvars in range(1, 5):
        for degree in range(6):
            got = grlex_monomials(nvars, degree)
            box = itertools.product(range(degree + 1), repeat=nvars)
            assert got == sorted((e for e in box if sum(e) <= degree), key=lambda e: (sum(e), e))
            assert len(got) == math.comb(nvars + degree, nvars)


def test_ring_identities_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        nvars = int(rng.integers(1, 4))
        a = random_poly(rng, nvars)
        b = random_poly(rng, nvars)
        c = random_poly(rng, nvars)
        assert coeff_gap((a + b) + c, a + (b + c)) <= 1e-12
        assert coeff_gap(a * b, b * a) <= 1e-12
        assert coeff_gap(a * (b + c), a * b + a * c) <= 1e-12
        assert coeff_gap(a + (-a), MultiPoly(nvars)) == 0.0
        assert coeff_gap(MultiPoly.constant(nvars, 1.0) * a, a) == 0.0
        assert coeff_gap(2.0 * a, a + a) <= 1e-12


def test_function_aliases_match_operators():
    rng = np.random.default_rng(3)
    a = random_poly(rng, 2)
    b = random_poly(rng, 2)
    assert coeff_gap(poly_add(a, b), a + b) == 0.0
    assert coeff_gap(poly_mul(a, b), a * b) == 0.0
    # a number is a constant polynomial; on the left its term comes first
    two = MultiPoly.constant(2, 2.0)
    assert list((a + 2.0).terms.items()) == list(poly_add(a, two).terms.items())
    assert list((2.0 + a).terms.items()) == list(poly_add(two, a).terms.items())
    assert list((a - 2.0).terms.items()) == list(poly_add(a, -two).terms.items())
    for k in range(5):
        assert list((a**k).terms.items()) == list(poly_pow(a, k).terms.items())


def dict_loop_terms(p, q):
    """The product's terms as the plain dict loop forms them, in dict order,
    each coefficient as its 8 bytes (so that a nan's sign counts too)."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return [(e, struct.pack("<d", c)) for e, c in out.items() if c != 0.0]


def product_terms(p, q):
    """poly_mul's terms in dict order, with no RuntimeWarning allowed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = poly_mul(p, q)
    assert all(type(c) is float for c in r.terms.values())
    return [(e, struct.pack("<d", c)) for e, c in r.terms.items()]


def keyed_terms(p, q):
    """The product as a one-node _mul_keys forms it, as product_terms gives
    poly_mul's.  Each variable's radix is its largest exponent in p plus its
    largest in q plus 1, so the key of a product of terms is the sum of theirs."""
    exps = [np.array([*r.terms], dtype=np.int64).reshape(-1, r.nvars) for r in (p, q)]
    radix = [a + b + 1 for a, b in zip(*(e.max(axis=0, initial=0).tolist() for e in exps))]
    stride = multipoly._places(radix)
    assert stride is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keys, coeffs = multipoly._mul_keys(exps[0] @ stride, np.array([*p.terms.values()], dtype=float),
                                           exps[1] @ stride, np.array([*q.terms.values()], dtype=float))
    r = multipoly._decode(keys, coeffs, radix, stride)
    return [(e, struct.pack("<d", c)) for e, c in r.terms.items()]


def special_poly(rng, nvars, terms, values):
    """Random exponents up to 3 with coefficients drawn from values."""
    out = {}
    while len(out) < terms:
        out[tuple(int(v) for v in rng.integers(0, 4, nvars))] = float(rng.choice(values))
    return MultiPoly(nvars, out)


def test_keyed_products_are_the_dict_loop():
    rng = np.random.default_rng(22)
    for _ in range(60):
        nvars = int(rng.integers(1, 5))
        p = random_poly(rng, nvars, max_degree=int(rng.integers(1, 6)), max_terms=40)
        q = random_poly(rng, nvars, max_degree=int(rng.integers(1, 6)), max_terms=40)
        assert product_terms(p, q) == dict_loop_terms(p, q) == keyed_terms(p, q)


@pytest.mark.parametrize("block", [1, 7, 150, 1 << 16])
def test_keyed_products_keep_the_dict_loops_bits_at_special_values(monkeypatch, block):
    # a one-node keyed product, in blocks of `block` pairs
    monkeypatch.setattr(multipoly, "MUL_BLOCK_PAIRS", block)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    # exact cancellation: the x*y terms sum to 0.0 and are dropped
    assert keyed_terms(x + y, x - y) == dict_loop_terms(x + y, x - y)
    assert [e for e, _ in keyed_terms(x + y, x - y)] == [(2, 0), (0, 2)]
    # products that underflow to -0.0 (0.0 + -0.0 is 0.0), overflow to inf,
    # and inf - inf = nan, all silent
    tiny, huge = 1e-200, 1e200
    values = [1.0, -1.0, 0.5, 3.0, tiny, -tiny, huge, -huge]
    rng = np.random.default_rng(block)
    for _ in range(40):
        nvars = int(rng.integers(1, 4))
        p = special_poly(rng, nvars, int(rng.integers(1, 4**nvars // 2 + 2)), values)
        q = special_poly(rng, nvars, int(rng.integers(1, 4**nvars // 2 + 2)), values)
        assert keyed_terms(p, q) == dict_loop_terms(p, q)
    under = MultiPoly(1, {(0,): tiny, (1,): 1.0}), MultiPoly(1, {(0,): -tiny, (1,): 2.0})
    assert keyed_terms(*under) == [((1,), struct.pack("<d", tiny)), ((2,), struct.pack("<d", 2.0))]  # no -0.0 constant
    over = dict(keyed_terms(MultiPoly(1, {(0,): huge, (1,): huge}), MultiPoly(1, {(0,): huge, (1,): -huge})))
    assert [struct.unpack("<d", over[(k,)])[0] for k in (0, 2)] == [math.inf, -math.inf]
    assert math.isnan(struct.unpack("<d", over[(1,)])[0])


def test_keys_that_would_not_fit_int64_are_refused():
    # as in a power-2 layer on 64 inputs: radix 3 per variable, 3^64 > 2^63 keys
    rng = np.random.default_rng(5)
    nvars = 64
    p = MultiPoly(nvars, {tuple(int(v) for v in rng.integers(0, 2, nvars)): float(rng.uniform(-1, 1)) for _ in range(20)})
    assert multipoly._places([3] * nvars) is None and multipoly._places([3] * 39) is not None
    assert product_terms(p, p) == dict_loop_terms(p, p)
    # exponents past int64 themselves
    big = MultiPoly(1, {(2**70 + k,): float(k + 1) for k in range(20)})
    assert multipoly._places([2 * (2**70 + 19) + 1]) is None
    assert product_terms(big, big) == dict_loop_terms(big, big)
    # a radix of 2^63 still fits, one more does not
    p = MultiPoly(1, {(2**62 - k,): float(k + 1) for k in range(15)})
    for top, fits in ((2**62 - 1, True), (2**62, False)):
        q = MultiPoly(1, {(top - k,): 0.5 - k for k in range(15)})
        assert (multipoly._places([2**62 + top + 1]) is not None) is fits
        assert product_terms(p, q) == dict_loop_terms(p, q)
        if fits:
            assert keyed_terms(p, q) == dict_loop_terms(p, q)
    # nor does a place value of 2^63, though every key below the radices' product would
    assert multipoly._places([1, 2**63]) is None and multipoly._places([1, 2**62]) is not None


def test_a_product_over_several_blocks_is_the_dict_loop():
    # 455 x 455 dense terms: four blocks of the default size
    rng = np.random.default_rng(8)
    p, q = (MultiPoly(3, {e: float(rng.uniform(-1, 1)) for e in grlex_monomials(3, 12)}) for _ in range(2))
    assert len(p.terms) * len(q.terms) > 3 * multipoly.MUL_BLOCK_PAIRS
    assert keyed_terms(p, q) == dict_loop_terms(p, q)


def test_a_keyed_product_with_the_zero_polynomial_is_empty():
    # an all-zero weight row under MonomialPower squares an empty polynomial on keys
    keys, coeffs = np.array([0, 1, 4], dtype=np.int64), np.array([0.5, -1.0, 2.0])
    empty_keys, empty_coeffs = keys[:0], coeffs[:0]
    for factors in ((keys, coeffs, empty_keys, empty_coeffs), (empty_keys, empty_coeffs, keys, coeffs),
                    (empty_keys, empty_coeffs, empty_keys, empty_coeffs)):
        k, c = multipoly._mul_keys(*factors)
        assert (k.dtype, c.dtype, k.size, c.size) == (np.int64, np.float64, 0, 0)
    assert multipoly._power((empty_keys, empty_coeffs), 5, lambda a, b: multipoly._mul_keys(*a, *b))[1].size == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_layer_wide_kernels_are_the_per_node_chains(monkeypatch, block):
    # a layer of 5 nodes in 2 variables, node n keyed from n * place: the
    # products, powers and compositions of the whole layer in one call each
    # equal the one-node calls chained node by node, in keys, order and hex
    monkeypatch.setattr(multipoly, "MUL_BLOCK_PAIRS", block)
    radix = [5, 16, 16]  # exponents of at most 2 per node and variable, times at most 7
    stride = multipoly._places(radix)
    place, base = int(stride[0]), np.arange(5) * int(stride[0])

    def split(polys):
        return [(np.array([*p.terms], dtype=np.int64).reshape(-1, 2) @ stride[1:], np.array([*p.terms.values()]))
                for p in polys]

    def layer(parts):
        return (np.concatenate([k + n * place for n, (k, _) in enumerate(parts)]),
                np.concatenate([c for _, c in parts]))

    def hexed(keys, coeffs):
        return list(zip(keys.tolist(), (c.hex() for c in coeffs.tolist())))

    def product(a, b):
        return multipoly._mul_keys(*a, *b)

    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    rng = np.random.default_rng(block)
    for _ in range(12):
        p0 = random_poly(rng, 2, max_degree=2, max_terms=6)
        # node 1 repeats node 0's keys, node 2 is empty; node 3's constant cancels
        # under phi (2.0 * 1.0 - 2.0 in the second step) and node 4's does not
        ps = [p0, p0 * 0.5, MultiPoly(2), 1.0 + x + y, 0.5 + x]
        qs = [random_poly(rng, 2, max_degree=2, max_terms=6), p0, MultiPoly(2), MultiPoly(2),
              random_poly(rng, 2, max_degree=2, max_terms=6)]  # node 3 missing from one factor only
        if rng.random() < 0.5:
            ps[4] = ps[4] + MultiPoly(2, {(1, 1): float(rng.choice([math.inf, -math.inf, math.nan]))})
        P, Q = split(ps), split(qs)
        # a product
        got = multipoly._mul_keys(*layer(P), *layer(Q), base)
        want = layer([multipoly._mul_keys(*P[n], *Q[n]) for n in range(5)])
        assert hexed(*got) == hexed(*want)
        # a power
        k = int(rng.integers(1, 5))
        got = multipoly._power(layer(P), k, lambda a, b: multipoly._mul_keys(*a, *b, base))
        want = layer([multipoly._power(P[n], k, product) for n in range(5)])
        assert hexed(*got) == hexed(*want)
        # a composition
        for phi in ((-2.0, 2.0), (0.25, 3.0, -0.75, 0.5, 1.5, -2.0, 2.0), tuple(rng.uniform(-2.0, 2.0, 5)),
                    (0.0, -0.0, 1.5, 0.0, -0.5)):
            got = multipoly._horner_keys(phi, *layer(P), base)
            want = layer([multipoly._horner_keys(phi, *P[n]) for n in range(5)])
            assert hexed(*got) == hexed(*want)
        got = multipoly._horner_keys((-2.0, 2.0), *layer(P), base)[0]
        assert 3 * place not in got.tolist() and 4 * place in got.tolist()


def test_float_subclass_scalars_enter_as_plain_floats():
    # a scalar added to or multiplied with a polynomial enters the ring as
    # float(c): a float subclass's operators never meet a coefficient, and every
    # coefficient comes out a plain float, as for numpy's floats, ints and bools
    calls = []

    class Logged(float):
        def _apply(self, name, other, op):
            if not isinstance(other, float):
                return NotImplemented  # a polynomial: its own operator applies
            calls.append(name)
            return Logged(op(float(self), float(other)))

        def __add__(self, other):
            return self._apply("add", other, float.__add__)

        def __radd__(self, other):
            return self._apply("radd", other, float.__radd__)

        def __mul__(self, other):
            return self._apply("mul", other, float.__mul__)

        def __rmul__(self, other):
            return self._apply("rmul", other, float.__rmul__)

    p = MultiPoly(2, {(0, 0): 1.5, (1, 0): -2.0})
    s = Logged(3.0)
    assert (p * s).terms == (s * p).terms == {(0, 0): 4.5, (1, 0): -6.0}
    assert (p + s).terms == (s + p).terms == {(0, 0): 4.5, (1, 0): -2.0}
    for number in (s, np.float64(3.0), 3, True):
        for result, want in ((p * number, p * float(number)), (number * p, p * float(number)),
                             (p + number, p + float(number)), (number + p, float(number) + p)):
            assert result.terms == want.terms
            assert all(type(c) is float for c in result.terms.values())
    # nor does a product of many pairs run them
    big = MultiPoly(2, {e: float(k + 1) for k, e in enumerate(grlex_monomials(2, 5))})
    result = big * s * big
    assert result.terms == (big * 3.0 * big).terms
    assert all(type(c) is float for c in result.terms.values())
    assert calls == []


def test_eval_is_a_ring_homomorphism():
    rng = np.random.default_rng(17)
    for _ in range(100):
        nvars = int(rng.integers(1, 4))
        a = random_poly(rng, nvars)
        b = random_poly(rng, nvars)
        x = rng.uniform(-1.5, 1.5, nvars)
        va, vb = poly_eval(a, x), poly_eval(b, x)
        assert abs(poly_eval(a + b, x) - (va + vb)) <= 1e-10 * (1.0 + abs(va + vb))
        assert abs(poly_eval(a * b, x) - va * vb) <= 1e-10 * (1.0 + abs(va * vb))


def test_eval_plain_monomials():
    p = MultiPoly(2, {(2, 1): 3.0, (0, 0): -1.0})
    assert poly_eval(p, (2.0, 5.0)) == 3.0 * 4.0 * 5.0 - 1.0
    with pytest.raises(DimensionError, match="length 1, expected 2"):
        poly_eval(p, [1.0])


def loop_eval(p, x):
    """The per-term loop poly_eval compiles, kept as the reference for its bits:
    x_j multiplied in once per unit of e_j, terms summed in dict order from 0.0."""
    xs = [float(v) for v in x]
    total = 0.0
    for e, c in p.terms.items():
        term = c
        for v, k in zip(xs, e):
            for _ in range(k):
                term *= v
        total += term
    return total


def assert_loop_bits(p, X):
    """poly_eval at each row and on all rows at once has the loop's bits."""
    want = [loop_eval(p, x).hex() for x in X]
    assert [poly_eval(p, x).hex() for x in X] == want
    assert [v.hex() for v in poly_eval(p, np.asarray(X, dtype=float)).tolist()] == want


# (inputs, hidden degree): a biased power expands to all C(d + D, d) monomials, 10 to 3003
ORACLE_SHAPES = ((2, 3), (3, 4), (4, 5), (2, 8), (5, 6), (6, 8))


@pytest.mark.parametrize("scale", (1e-3, 1.0, 1e2))
def test_eval_has_the_bits_of_the_per_term_loop(scale):
    rng = np.random.default_rng(int(round(math.log10(scale))) + 40)
    for d, degree in ORACLE_SHAPES:
        hidden = LayerSpec(rng.uniform(-scale, scale, (3, d + 1)), MonomialPower(degree))
        net = NetworkSpec(d, (hidden, LayerSpec(rng.uniform(-scale, scale, (1, 4)), Identity())))
        (p,) = expand_network(net)
        assert len(p.terms) == math.comb(d + degree, d)
        assert_loop_bits(p, rng.uniform(-1.0, 1.0, (6, d)))
        # the ring's _trusted results, a truncation and a text round trip
        assert_loop_bits(p * p if len(p.terms) < 100 else -p, rng.uniform(-1.0, 1.0, (3, d)))
        assert_loop_bits(truncate_degree(p, degree - 1), rng.uniform(-1.0, 1.0, (3, d)))
        assert_loop_bits(poly_from_text(poly_to_text(p)), rng.uniform(-1.0, 1.0, (3, d)))


# (inputs, hidden degrees): two PolyActivation layers, 45 to 462 terms
POLY_ORACLE_SHAPES = ((2, (2, 4)), (3, (4, 2)), (5, (3, 2)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_one_point_eval_has_the_loop_bits_on_two_poly_activation_layers():
    rng = np.random.default_rng(47)
    for d, degrees in POLY_ORACLE_SHAPES:
        layers, fan_in = [], d
        for degree in degrees:
            act = PolyActivation(UniPoly(tuple(rng.uniform(-1.0, 1.0, degree + 1))))
            layers.append(LayerSpec(rng.uniform(-1.0, 1.0, (3, fan_in + 1)), act))
            fan_in = 3
        net = NetworkSpec(d, (*layers, LayerSpec(rng.uniform(-1.0, 1.0, (1, fan_in + 1)), Identity())))
        (p,) = expand_network(net)
        assert len(p.terms) == math.comb(d + degrees[0] * degrees[1], d)
        X = rng.uniform(-1.0, 1.0, (16, d))
        X[1], X[2], X[3], X[4] = -0.0, np.inf, np.nan, 1e300
        X[5, 0], X[6, -1], X[7, 0], X[8, -1], X[9, 0] = -0.0, np.inf, np.nan, 1e300, -np.inf
        for x in X:
            assert poly_eval(p, x).hex() == loop_eval(p, x).hex()


def test_eval_keeps_one_read_only_compiled_form():
    rng = np.random.default_rng(53)
    p = MultiPoly(3, {e: float(rng.uniform(-1.0, 1.0)) for e in grlex_monomials(3, 5)})
    X = rng.uniform(-1.5, 1.5, (8, 3))
    want = [loop_eval(p, x).hex() for x in X]
    assert poly_eval(p, X[0]).hex() == want[0]
    compiled = p._compiled
    template, gather = compiled
    saved = template.tobytes(), gather.tobytes()
    for a in compiled:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7
    # one-point and (n, d) calls interleaved: the loop's bits, one compiled form, never written
    for i, x in enumerate(X):
        assert poly_eval(p, x).hex() == want[i]
        assert [v.hex() for v in poly_eval(p, X[: i + 1]).tolist()] == want[: i + 1]
        assert p._compiled is compiled
    assert (template.tobytes(), gather.tobytes()) == saved


def test_eval_edge_cases_have_the_loop_bits():
    zeros = [(0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0)]
    assert_loop_bits(MultiPoly(2), zeros + [(1.5, -2.0)])
    assert poly_eval(MultiPoly(2), (1.0, 2.0)).hex() == (0.0).hex()
    assert_loop_bits(MultiPoly.constant(2, -2.5), zeros + [(1.5, -2.0)])
    # every term is -0.0 here: only a sum started from 0.0 comes out +0.0
    minus_zero = MultiPoly(2, {(1, 0): -1.0, (0, 1): -2.0, (1, 1): -3.0, (2, 0): -0.5})
    assert poly_eval(minus_zero, (0.0, 0.0)).hex() == (0.0).hex()
    # overflow to inf and inf - inf = nan pass silently, as in the loop
    assert_loop_bits(minus_zero, zeros + [(1e-200, -1e-200), (1e200, 1e200), (1e200, -1e200)])
    trusted = MultiPoly._trusted(2, {(1, 1): 0.5, (0, 0): 0.0, (2, 0): -1.0, (0, 3): 1e-300})
    assert_loop_bits(trusted, zeros + [(3.0, -1e-100), (-2.0, 7.0)])
    # the compiled form is built on first use and reused
    plan = trusted._compiled
    assert plan is not None
    assert_loop_bits(trusted, [(0.25, 0.5)])
    assert trusted._compiled is plan


def test_eval_has_the_loop_bits_at_high_degree_and_sparse_powers():
    rng = np.random.default_rng(41)
    # dense in one variable: the plan pads the low-degree terms with 1.0 factors
    for degree in (40, 400):
        p = MultiPoly(1, {e: float(rng.uniform(-1.0, 1.0)) for e in grlex_monomials(1, degree)})
        assert_loop_bits(p, [(0.3,), (-0.97,), (1.01,), (-1.5,), (0.0,), (-0.0,)])
        assert_loop_bits(p, rng.uniform(-1.2, 1.2, (5, 1)))
    # one term of degree 300 among two of degree 5 and 0
    sparse = poly_from_text("poly nvars=2\n1 300 0\n1 0 5\n-1 0 0\n")
    assert_loop_bits(sparse, [(1.0, 1.0), (0.999, -1.2), (-1.001, 2.0), (1.5, 0.5), (-0.0, 0.0), (1e-3, 0.0)])
    # the gather is a row of T + 1 intp coefficient slots, then one of factor indices per factor position
    template, gather = multipoly._compile(sparse)
    assert template.shape == (7,) and gather.shape == (301, 4) and gather.dtype == np.intp
    assert template[gather[0]].tolist() == [0.0, *sparse.terms.values()]


def test_eval_batches_of_no_rows_one_row_and_special_rows():
    rng = np.random.default_rng(43)
    for d, degree in ((1, 6), (3, 4)):
        p = MultiPoly(d, {e: float(rng.uniform(-2.0, 2.0)) for e in grlex_monomials(d, degree)})
        assert_loop_bits(p, np.empty((0, d)))
        assert poly_eval(p, np.empty((0, d))).shape == (0,)
        assert_loop_bits(p, rng.uniform(-1.0, 1.0, (1, d)))
        assert poly_eval(p, np.ones((1, d))).shape == (1,)
        # inf, nan and -0.0 rows, and rows holding one of them, among ordinary rows
        X = rng.uniform(-1.0, 1.0, (10, d))
        X[1], X[3], X[4], X[8] = np.inf, np.nan, -0.0, -np.inf
        X[6, 0], X[7, -1], X[9, 0] = np.nan, -0.0, 1e300
        assert_loop_bits(p, X)


def test_eval_refuses_wrong_shapes():
    p = MultiPoly(2, {(2, 1): 3.0, (0, 0): -1.0})
    with pytest.raises(DimensionError, match="length 3, expected 2"):
        poly_eval(p, np.ones((4, 3)))
    with pytest.raises(DimensionError, match=r"shape \(2, 2, 2\)"):
        poly_eval(p, np.ones((2, 2, 2)))
    with pytest.raises(DimensionError):
        poly_eval(p, 1.0)


def test_eval_refuses_a_plan_past_the_limit_at_once(monkeypatch):
    # an exponent past int64, and a sparse x1^(10^8) + 1 whose plan would take 2.4 GB
    cases = (
        (MultiPoly(1, {(2**70,): 1.0}), rf"degree {2**70} with 1 terms takes a plan of {2**71} factors"),
        (MultiPoly(1, {(10**8,): 1.0, (0,): 1.0}), "degree 100000000 with 2 terms takes a plan of 300000000 factors"),
    )
    for p, match in cases:
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match=match + ", above the limit of 4000000"):
            poly_eval(p, [0.5])
        assert time.perf_counter() - start < 0.1
    # D * (T + 1) at the limit is kept, one term more is refused
    monkeypatch.setattr(multipoly, "MAX_PLAN_FACTORS", 12)
    p = MultiPoly(2, {(2, 2): 1.0, (1, 0): 2.0})
    assert poly_eval(p, [1.5, 2.0]) == 12.0
    with pytest.raises(ConfigurationError, match="degree 4 with 3 terms takes a plan of 16 factors"):
        poly_eval(p + 1.0, [1.5, 2.0])


def test_pow_matches_repeated_multiplication():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = random_poly(rng, 2, max_degree=2, max_terms=4)
        acc = MultiPoly.constant(2, 1.0)
        for k in range(5):
            assert coeff_gap(poly_pow(p, k), acc) <= 1e-10
            acc = acc * p
    with pytest.raises(UsageError, match="non-negative"):
        poly_pow(p, -1)


def test_hand_expansions():
    one = MultiPoly.constant(2, 1.0)
    x1 = MultiPoly.variable(2, 0)
    x2 = MultiPoly.variable(2, 1)

    # (1 + x1)(1 - x1) = 1 - x1^2
    assert dict(((one + x1) * (one - x1)).terms) == {(0, 0): 1.0, (2, 0): -1.0}

    # (x1 - x2)^2 = x1^2 - 2 x1 x2 + x2^2
    sq = poly_pow(MultiPoly(2, {(1, 0): 1.0, (0, 1): -1.0}), 2)
    assert dict(sq.terms) == {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0}

    # (x1 + x2 - 1)^2 expanded
    sq2 = poly_pow(MultiPoly(2, {(0, 0): -1.0, (1, 0): 1.0, (0, 1): 1.0}), 2)
    assert dict(sq2.terms) == {
        (2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0,
        (1, 0): -2.0, (0, 1): -2.0, (0, 0): 1.0,
    }
    assert coeff_gap(sq2, (x1 + x2 - one) * (x1 + x2 - one)) <= 1e-12


def test_apply_univariate_matches_horner_by_hand():
    rng = np.random.default_rng(29)
    for _ in range(20):
        phi = UniPoly(tuple(rng.uniform(-1, 1, int(rng.integers(1, 5)))))
        p = random_poly(rng, 2, max_degree=2, max_terms=3)
        direct = MultiPoly(2)
        for j, cj in enumerate(phi.coeffs):
            direct = direct + cj * poly_pow(p, j)
        assert coeff_gap(apply_univariate(phi, p), direct) <= 1e-10


def composed(phi, p):
    """phi(p) by the keyed Horner (_horner_keys) and by the ring, each as its
    terms in dict order with each coefficient in float hex.  p is encoded
    with radix (D + 1) * max_j + 1 per variable for phi of degree D: D
    products by p follow the nan terms of 0.0 * p.  Hex leaves out a nan's
    sign, which neither numpy nor CPython pins where two nans are added."""
    D = len(phi.coeffs) - 1
    exps = np.array([*p.terms], dtype=np.int64).reshape(-1, p.nvars)
    radix = [(D + 1) * m + 1 for m in exps.max(axis=0, initial=0).tolist()]
    stride = multipoly._places(radix)
    keys, coeffs = multipoly._horner_keys(phi.coeffs, exps @ stride, np.array([*p.terms.values()], dtype=float))
    got = multipoly._decode(keys, coeffs, radix, stride)
    want = phi(p)
    return [(e, c.hex()) for e, c in got.terms.items()], [(e, c.hex()) for e, c in want.terms.items()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_composition_is_the_rings_horner_on_both_sides_of_the_crossover():
    rng = np.random.default_rng(24)
    for _ in range(80):
        nvars = int(rng.integers(1, 5))
        p = random_poly(rng, nvars, max_degree=int(rng.integers(1, 4)), max_terms=int(rng.integers(1, 12)))
        phi = UniPoly(tuple(rng.uniform(-2.0, 2.0, int(rng.integers(1, 9)))))
        got, want = composed(phi, p)
        assert got == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_composition_keeps_the_rings_bits_at_special_values(monkeypatch, block):
    monkeypatch.setattr(multipoly, "MUL_BLOCK_PAIRS", block)
    x = [MultiPoly.variable(3, j) for j in range(3)]
    linear = 1.0 + x[0] + x[1] + x[2]
    # the first step is 0.0 * p, which keeps only the nan terms of inf and nan coefficients
    for bad in (math.inf, -math.inf, math.nan):
        p = linear + MultiPoly(3, {(1, 1, 0): bad, (0, 0, 2): 0.5})
        phi = UniPoly((0.5, -1.0, 0.25, 2.0, -0.125, 1e-3, 0.75))
        got, want = composed(phi, p)
        assert got == want
    # a 0.0 or -0.0 coefficient adds nothing: the ring's constant drops it,
    # so no 0.0 * inf = nan term follows from it
    phi = UniPoly((0.0, -0.0, 1.5, 0.0, -0.0, -0.5, 2.0))
    for p in (x[0] + x[1] + x[2] + x[0] * x[2], x[0] + x[1] + x[2] + math.inf * x[0] * x[2]):
        got, want = composed(phi, p)
        assert got == want and (0, 0, 0) not in dict(got)
    # adding a coefficient to the constant term overflows silently
    got, want = composed(UniPoly((1.5e308,) * 7), linear)
    assert got == want and dict(got)[(0, 0, 0)] == "inf"
    # nan coefficients of phi
    phi = UniPoly((math.nan, 1.0, 0.5, -1.0, 2.0, 0.25, math.nan))
    got, want = composed(phi, linear)
    assert got == want
    # the constant term cancels to exactly 0.0 in the second step (2.0 * 1.0
    # - 2.0) and is deleted; the third step appends a new one last
    phi = UniPoly((0.25, 3.0, -0.75, 0.5, 1.5, -2.0, 2.0))
    got, want = composed(phi, linear)
    assert got == want
    assert (0, 0, 0) not in UniPoly((-2.0, 2.0))(linear).terms
    assert list(UniPoly((1.5, -2.0, 2.0))(linear).terms)[-1] == (0, 0, 0)
    # products that underflow, overflow to inf and cancel to nan, all silent
    tiny, huge = 1e-200, 1e200
    values = [1.0, -1.0, 0.5, 3.0, tiny, -tiny, huge, -huge]
    rng = np.random.default_rng(block)
    for _ in range(20):
        p = special_poly(rng, 2, int(rng.integers(8, 14)), values)
        phi = UniPoly(tuple(float(v) for v in rng.choice(values, int(rng.integers(3, 7)))))
        got, want = composed(phi, p)
        assert got == want


def test_composition_degrees_zero_and_one_and_the_zero_polynomial():
    rng = np.random.default_rng(25)
    p120, p165 = (MultiPoly(3, {e: float(rng.uniform(-1.0, 1.0)) for e in grlex_monomials(3, D)}) for D in (7, 8))
    for p in (p120, p165, random_poly(rng, 3), MultiPoly(3), p165 * math.inf):
        for coeffs in ((0.0,), (-0.0,), (2.5,), (0.5, -1.0), (0.0, 1.0), (-3.0, 0.0, 0.0), (1.0, 2.0, 3.0)):
            got, want = composed(UniPoly(coeffs), p)
            assert got == want


def test_composition_falls_back_where_products_keep_the_dict_loop():
    # a float subclass keeps its own operators through apply_univariate, as
    # through phi(p): poly_mul keeps the dict loop for it
    phi = UniPoly((0.5, -1.0, 0.25, 2.0))

    class Tagged(float):
        def __mul__(self, other):
            return Tagged(float(self) * other) if isinstance(other, float) else NotImplemented

        __rmul__ = __mul__

        def __add__(self, other):
            return Tagged(float(self) + other) if isinstance(other, float) else NotImplemented

        __radd__ = __add__

    p = MultiPoly._trusted(3, {e: Tagged(1.0 + k / 8) for k, e in enumerate(grlex_monomials(3, 3))})
    got = apply_univariate(phi, p)
    assert all(type(c) is Tagged for c in got.terms.values())
    assert [(e, c.hex()) for e, c in got.terms.items()] == [(e, c.hex()) for e, c in phi(p).terms.items()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_composition_over_several_blocks_is_the_rings_horner():
    # 35 dense terms under a degree-9 phi: the last product is 6545 x 35 pairs
    rng = np.random.default_rng(27)
    p = MultiPoly(3, {e: float(rng.uniform(-1.0, 1.0)) for e in grlex_monomials(3, 4)})
    phi = UniPoly(tuple(rng.uniform(-1.0, 1.0, 10)))
    assert math.comb(3 + 8 * 4, 3) * len(p.terms) > 3 * multipoly.MUL_BLOCK_PAIRS
    got, want = composed(phi, p)
    assert got == want and len(got) == math.comb(3 + 36, 3)


def test_truncate_degree():
    p = MultiPoly(2, {(0, 0): 1.0, (1, 0): 2.0, (2, 1): 3.0, (0, 4): 4.0})
    t = truncate_degree(p, 2)
    assert dict(t.terms) == {(0, 0): 1.0, (1, 0): 2.0}
    assert coeff_gap(truncate_degree(p, 10), p) == 0.0
    assert truncate_degree(p, 0).degree() == 0
    assert dict(truncate_degree(p, 2.0).terms) == dict(t.terms)
    with pytest.raises(UsageError, match="non-negative"):
        truncate_degree(p, -1)
    # 1.5 once kept degree 1, "2" raised a bare TypeError, and False kept degree 0
    for bad in (1.5, "2", True, False):
        with pytest.raises(UsageError, match=re.escape(f"max_degree {bad!r} is not an integer")):
            truncate_degree(p, bad)


def test_coefficient_lookup():
    p = MultiPoly(2, {(1, 1): 2.5})
    assert p.terms.get((1, 1), 0.0) == 2.5
    assert p.terms.get((3, 0), 0.0) == 0.0


def test_mixed_variable_counts_rejected():
    a = MultiPoly(2, {(1, 0): 1.0})
    b = MultiPoly(3, {(1, 0, 0): 1.0})
    with pytest.raises(DimensionError, match="variable counts differ"):
        a + b
    with pytest.raises(DimensionError, match="variable counts differ"):
        a * b


def test_exact_zero_terms_are_dropped():
    a = MultiPoly(2, {(1, 0): 1.0, (0, 1): -0.5})
    diff = a - a
    assert dict(diff.terms) == {}
    assert not diff.terms
    # explicit zero coefficients never enter the term map
    assert dict(MultiPoly(2, {(1, 0): 0.0}).terms) == {}


def test_text_round_trip_is_bit_identical():
    rng = np.random.default_rng(41)
    for _ in range(50):
        nvars = int(rng.integers(1, 5))
        p = random_poly(rng, nvars)
        q = poly_from_text(poly_to_text(p))
        assert q.nvars == p.nvars
        assert dict(q.terms) == dict(p.terms)
    # awkward magnitudes survive the round trip exactly
    p = MultiPoly(1, {(0,): 0.1, (3,): -1.0 / 3.0, (7,): 1e-300, (2,): math.pi})
    assert dict(poly_from_text(poly_to_text(p)).terms) == dict(p.terms)


def test_text_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        poly_from_text("nope nvars=2\n1 0 0\n")
    with pytest.raises(ParseError, match="line 2: expected 3 fields, got 2"):
        poly_from_text("poly nvars=2\n1 0\n")
    with pytest.raises(ParseError, match="line 3: duplicate monomial"):
        poly_from_text("poly nvars=2\n1 0 0\n2 0 0\n")
    with pytest.raises(ParseError, match="line 2: non-numeric"):
        poly_from_text("poly nvars=2\nx 0 0\n")
    with pytest.raises(ParseError, match="line 2: negative exponent"):
        poly_from_text("poly nvars=2\n1 0 -1\n")
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ParseError, match="line 3: non-finite coefficient"):
            poly_from_text(f"poly nvars=2\n1 0 0\n{bad} 1 0\n")
    # blank lines still count: errors name the physical line
    with pytest.raises(ParseError, match="line 4: non-finite coefficient"):
        poly_from_text("poly nvars=2\n1 0 0\n\nnan 1 0\n")
    with pytest.raises(ParseError, match="line 2: expected 'poly nvars=<d>'"):
        poly_from_text("\nnope nvars=2\n1 0 0\n")
    # a variable count below 1 is refused at the header, before any term
    with pytest.raises(ParseError, match="^line 1: nvars must be at least 1, got 0$"):
        poly_from_text("poly nvars=0\n")
    with pytest.raises(ParseError, match="^line 1: nvars must be at least 1, got -2$"):
        poly_from_text("poly nvars=-2\n1 0\n")
