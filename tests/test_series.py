"""Unit tests for the truncated-series ring."""

import copy
import math
import pickle
import random
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okakit.division import split_variable
from okakit.errors import IncompatibleOperands, RequiresExactPolynomial
from okakit.scalars import EXACT, QQi, floating
from okakit.series import (
    MAX_DIM,
    TruncatedSeries,
    add,
    complex_evaluator,
    constant,
    evaluate,
    from_json,
    make_series,
    monomial,
    mul,
    negligible,
    recenter,
    scale,
    times_variable,
    to_floating,
    to_json,
    variable,
    zero,
)


def random_polynomial(rng, dim, max_degree, n_terms=6, backend=EXACT, center=None):
    terms = {}
    for _ in range(n_terms):
        exp = [0] * dim
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exp[rng.randrange(dim)] += 1
        c = QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        terms[tuple(exp)] = c
    return make_series(dim, terms, backend=backend, center=center)


def polynomials(dim, backend, max_terms=4, max_degree=3):
    """Hypothesis strategy: origin-centred polynomials on ``backend`` with
    small Gaussian-rational coefficients."""
    ratio = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, max_degree)] * dim)
    terms = st.dictionaries(exps, st.builds(QQi, ratio, ratio), max_size=max_terms)
    return terms.map(lambda t: make_series(dim, t, backend=backend))


class TestConstruction:
    def test_canonical_drops_zeros(self):
        f = make_series(2, {(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in f.coeffs
        assert f.coefficient((1, 0)) == QQi(Fraction(1), Fraction(0))

    def test_duplicate_indices_accumulate(self):
        f = make_series(1, {(2,): 1})
        g = make_series(1, {(2,): 1, (0,): 3})
        assert (f + g).coefficient((2,)) == QQi(Fraction(2), Fraction(0))

    def test_order_filters_high_terms(self):
        f = make_series(1, {(5,): 1, (1,): 2}, order=3)
        assert (5,) not in f.coeffs
        assert (1,) in f.coeffs

    def test_wrong_index_length_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, (QQi.of(0), QQi.of(0)), {(1,): QQi.of(1)}, None, EXACT)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            make_series(1, {(-1,): 1})

    def test_variable_with_center_restores_value(self):
        # z_0 expanded at 2 is (z_0 - 2) + 2
        z = variable(1, 0, center=(2,))
        assert evaluate(z, (5,)) == QQi.of(5)

    def test_canonical_form_idempotent(self):
        rng = random.Random(11)
        for _ in range(20):
            f = random_polynomial(rng, 3, 6)
            again = make_series(f.dim, f.coeffs, order=f.order, backend=f.backend, center=f.center)
            assert again == f


class TestRingLaws:
    """Randomized checks of the commutative-ring identities."""

    def test_ring_identities(self):
        rng = random.Random(7)
        for _ in range(40):
            dim = rng.randint(1, 4)
            a = random_polynomial(rng, dim, 8)
            b = random_polynomial(rng, dim, 8)
            c = random_polynomial(rng, dim, 8)
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert add(a, zero(dim)) == a
            assert mul(a, constant(dim, 1)) == a
            assert add(a, scale(a, -1)).is_zero()

    def test_operator_sugar(self):
        z1 = variable(2, 0)
        z2 = variable(2, 1)
        f = (1 - z1) * (1 + z1) + z2
        assert f == make_series(2, {(0, 0): 1, (2, 0): -1, (0, 1): 1})
        assert (-f) + f == zero(2)
        assert 2 * z1 == z1 + z1
        assert (z1 + z2) ** 2 == (z1 + z2) * (z1 + z2) and z1 ** 0 == constant(2, 1)
        with pytest.raises(ValueError):
            z1 ** -1

    def test_truncation_order_propagates(self):
        a = make_series(1, {(1,): 1}, order=4)
        b = make_series(1, {(1,): 1}, order=2)
        assert mul(a, b).order == 2
        assert add(a, b).order == 2

    def test_mul_respects_truncation(self):
        a = make_series(1, {(2,): 1}, order=3)
        prod = mul(a, a)
        assert prod.is_zero()  # degree 4 falls above order 3


class TestEvaluation:
    def test_cube_oracle(self):
        # (1 + z)^3 at z = 0.5 is 3.375
        one_plus = constant(1, 1) + variable(1, 0)
        f = mul(mul(one_plus, one_plus), one_plus)
        assert complex(evaluate(f, (0.5,))) == pytest.approx(3.375)

    def test_evaluation_is_ring_homomorphism(self):
        rng = random.Random(3)
        for _ in range(25):
            dim = rng.randint(1, 3)
            a = random_polynomial(rng, dim, 5)
            b = random_polynomial(rng, dim, 5)
            # each float point read exactly as a Gaussian rational
            z = tuple(QQi.of(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(dim))
            assert evaluate(mul(a, b), z) == evaluate(a, z) * evaluate(b, z)
            assert evaluate(add(a, b), z) == evaluate(a, z) + evaluate(b, z)

    def test_exact_evaluation_at_rational_point(self):
        f = make_series(1, {(2,): 1, (0,): -1})
        v = evaluate(f, (Fraction(1, 2),))
        assert v == QQi(Fraction(-3, 4), Fraction(0))


class TestRecenter:
    def test_binomial_oracle(self):
        # z^2 recentered at 1 is (w+1)^2 = w^2 + 2w + 1, w = z - 1
        f = monomial(1, (2,))
        g = recenter(f, (1,))
        assert g.coefficient((0,)) == QQi.of(1)
        assert g.coefficient((1,)) == QQi.of(2)
        assert g.coefficient((2,)) == QQi.of(1)

    def test_evaluation_invariance(self):
        rng = random.Random(19)
        for _ in range(20):
            dim = rng.randint(1, 3)
            f = random_polynomial(rng, dim, 6)
            center = tuple(rng.randint(-2, 2) for _ in range(dim))
            g = recenter(f, center)
            z = tuple(QQi.of(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(dim))
            assert evaluate(f, z) == evaluate(g, z)

    def test_round_trip_is_identity(self):
        rng = random.Random(23)
        f = random_polynomial(rng, 2, 7)
        assert recenter(recenter(f, (1, -2)), (0, 0)) == f

    def test_truncated_input_rejected(self):
        f = make_series(1, {(1,): 1}, order=3)
        with pytest.raises(RequiresExactPolynomial):
            recenter(f, (1,))

    def test_wrong_length_center_rejected(self):
        for dim, center in ((0, (1,)), (2, (1,)), (1, (0, 0))):
            with pytest.raises(ValueError):
                recenter(make_series(dim, {(0,) * dim: 1}), center)

    @staticmethod
    def gaussian_rational(rng):
        return QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

    def test_exact_evaluation_invariance(self):
        # Gaussian-rational old and new centres and points: equality, not a float tolerance
        rng = random.Random(1301)
        for _ in range(60):
            dim = rng.randint(0, 3)
            old, new, z = ([self.gaussian_rational(rng) for _ in range(dim)] for _ in range(3))
            f = random_polynomial(rng, dim, 5 if dim else 0, n_terms=rng.randint(0, 8), center=old)
            g = recenter(f, new)
            assert g.center == tuple(new) and g.order is None
            assert evaluate(g, z) == evaluate(f, z)

    def test_own_center_and_dim_0_are_identity(self):
        rng = random.Random(1303)
        for dim in range(4):
            f = random_polynomial(rng, dim, 5 if dim else 0, center=[self.gaussian_rational(rng) for _ in range(dim)])
            assert recenter(f, f.center) == f
        f = constant(0, QQi(Fraction(2, 3), Fraction(-1, 5)))
        assert recenter(f, ()) == f


class TestCompatibility:
    def test_dimension_mismatch(self):
        with pytest.raises(IncompatibleOperands):
            add(variable(1, 0), variable(2, 0))

    def test_backend_mismatch(self):
        with pytest.raises(IncompatibleOperands):
            add(variable(1, 0), variable(1, 0, backend=floating()))

    def test_center_mismatch(self):
        with pytest.raises(IncompatibleOperands):
            add(variable(1, 0), variable(1, 0, center=(1,)))


class TestBackends:
    def test_to_floating_preserves_values(self):
        rng = random.Random(5)
        f = random_polynomial(rng, 2, 5, center=(Fraction(1, 3), QQi(Fraction(-2, 7), Fraction(1, 10))))
        g = to_floating(f)
        # both round each coefficient and center coordinate once, then run the same float operations
        P = np.array([[0.3 + 0.1j, -0.2j], [1.7 - 0.4j, 0.9 + 2.5j]])
        assert complex_evaluator(g)(P).tolist() == complex_evaluator(f)(P).tolist()

    def test_close_to_floating(self):
        be = floating(1e-9)
        a = make_series(1, {(1,): 1.0 + 0j}, backend=be)
        b = make_series(1, {(1,): 1.0 + 1e-12j}, backend=be)
        c = make_series(1, {(1,): 1.0 + 1e-3j}, backend=be)
        assert negligible(a - b, a, b)
        assert not negligible(a - c, a, c)


class TestJson:
    def test_round_trip_exact(self):
        rng = random.Random(41)
        for _ in range(10):
            f = random_polynomial(rng, 3, 6, center=(1, 0, -2))
            assert from_json(to_json(f)) == f

    def test_round_trip_floating(self):
        be = floating()
        f = make_series(2, {(1, 0): 0.5 + 0.25j, (0, 2): -3.0 + 0j}, order=4, backend=be)
        g = from_json(to_json(f))
        assert g.order == 4
        assert negligible(f - g, f, g)

    @pytest.mark.parametrize("unset", ["missing", "zero"])
    def test_exponent_limit_without_a_printing_limit(self, monkeypatch, unset):
        # Python 3.10 has no printing limit and 3.11+ may set it to 0: huge exponents are still refused
        if unset == "missing":
            monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        else:
            monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        for part in ("1e4302", "-1e-20000000"):
            with pytest.raises(ValueError):
                from_json({"dim": 1, "terms": [{"exp": [0], "coeff": [part, "0"]}]})
        f = from_json({"dim": 1, "terms": [{"exp": [0], "coeff": ["0.05e4301", "0"]}]})
        assert f.coeffs[(0,)].re == 5 * 10**4299

    def test_dimension_bounded_before_the_centre_is_read(self):
        f = from_json({"dim": MAX_DIM, "terms": [{"exp": [0] * (MAX_DIM - 1) + [2], "coeff": ["1", "0"]}]})
        assert f.dim == MAX_DIM and f == make_series(MAX_DIM, {(0,) * (MAX_DIM - 1) + (2,): 1})
        assert from_json(to_json(f)) == f
        for dim in (MAX_DIM + 1, 10 ** 9, -1):
            # a centre that cannot be read: the dimension is refused first
            with pytest.raises(ValueError, match="MAX_DIM"):
                from_json({"dim": dim, "center": 5, "terms": []})

    def test_exact_coefficients_serialized_as_fractions(self):
        f = make_series(1, {(1,): QQi(Fraction(1, 3), Fraction(0))})
        blob = to_json(f)
        assert blob["terms"][0]["coeff"][0] == "1/3"


# -- QQi against a Fraction-pair reference ----------------------------------

# small parts make equal values common; large ones reach float rounding
ratios = st.one_of(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
                   st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**25)))
pairs = st.tuples(ratios, ratios)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def assert_canonical(q):
    a, b, d = q.triple
    assert d > 0 and math.gcd(a, b, d) == 1


class TestQQi:
    @settings(max_examples=300, deadline=None)
    @given(pairs, pairs)
    def test_arithmetic_matches_fraction_pairs(self, x, y):
        p, q = QQi(*x), QQi(*y)
        results = [(p + q, (x[0] + y[0], x[1] + y[1])), (p - q, (x[0] - y[0], x[1] - y[1])),
                   (-p, (-x[0], -x[1])), (p * q, ref_mul(x, y))]
        if y != (0, 0):
            results.append((p / q, ref_div(x, y)))
        else:
            with pytest.raises(ZeroDivisionError):
                p / q
        for got, want in results:
            assert (got.re, got.im) == want
            assert got == QQi(*want)
            assert_canonical(got)

    @settings(max_examples=300, deadline=None)
    @given(pairs, pairs)
    def test_equality_and_hash_follow_the_value(self, x, y):
        p, q = QQi(*x), QQi(*y)
        assert_canonical(p)
        assert (p == q) is (x == y)
        if x == y:
            assert hash(p) == hash(q) and p.triple == q.triple
        assert p.is_zero() is (x == (0, 0))

    def test_int_and_float_parts(self):
        assert QQi(3, 0) == QQi(Fraction(3), Fraction(0)) == QQi.of(3)
        assert QQi(0.5, -2) == QQi(Fraction(1, 2), Fraction(-2))
        assert QQi.of(0.25 - 1j) == QQi(Fraction(1, 4), Fraction(-1))

    @settings(max_examples=300, deadline=None)
    @given(pairs)
    def test_complex_is_bit_equal_to_float_of_the_parts(self, x):
        q = QQi(*x)
        bits = struct.pack("dd", complex(q).real, complex(q).imag)
        assert bits == struct.pack("dd", float(q.re), float(q.im))

    @pytest.mark.parametrize("name", ["triple", "re", "im", "other"])
    def test_fields_cannot_be_assigned(self, name):
        q = QQi(Fraction(1, 2), Fraction(3))
        with pytest.raises(AttributeError):
            setattr(q, name, 5)
        with pytest.raises(AttributeError):
            delattr(q, name)
        assert q == QQi(Fraction(1, 2), Fraction(3))

    def test_copy_and_pickle_keep_the_value(self):
        q = QQi(Fraction(-7, 6), Fraction(5, 4))
        for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert twin == q and twin.triple == (-14, 15, 12)


# -- ring results -----------------------------------------------------------


@st.composite
def truncated_pairs(draw, backend):
    """Two dim-2 polynomials on ``backend``, truncated at independent orders
    (None for none), often sharing terms so that sums cancel."""
    a = draw(polynomials(2, backend, max_terms=5))
    b = draw(polynomials(2, backend, max_terms=5))
    if draw(st.booleans()):
        b = add(b, scale(a, draw(st.sampled_from([-1, 1, Fraction(-1, 2)]))))
    orders = draw(st.tuples(*[st.one_of(st.none(), st.integers(0, 5))] * 2))
    return tuple(f if k is None else make_series(2, f.coeffs, order=k, backend=backend) for f, k in zip((a, b), orders))


def assert_canonical_series(f):
    assert all(not f.backend.is_zero(v) for v in f.coeffs.values())
    if f.order is not None:
        assert all(sum(e) <= f.order for e in f.coeffs)
    assert f == make_series(f.dim, f.coeffs, order=f.order, backend=f.backend, center=f.center)


@pytest.mark.parametrize("backend", [EXACT, floating()], ids=["exact", "floating"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ring_results_are_canonical(backend, data):
    a, b = data.draw(truncated_pairs(backend))
    s = data.draw(st.sampled_from([0, 1, -1, Fraction(2, 3)]))
    for f in (add(a, b), mul(a, b), scale(a, s), -a, a - b, 1 - a, a + 1):
        assert_canonical_series(f)


@pytest.mark.parametrize("backend", [EXACT, floating()], ids=["exact", "floating"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_subtraction_adds_the_negative(backend, data):
    a, b = data.draw(truncated_pairs(backend))
    assert a - b == a + (-1) * b == add(a, scale(b, -1))
    assert -a == scale(a, -1) and 2 - a == add(constant(2, 2, backend=backend), scale(a, -1))


# -- multiplying by a coordinate -------------------------------------------


def random_series(rng, dim, backend, center=None, order=None, n_terms=5, max_degree=4):
    """A random series: Gaussian-rational coefficients on the exact backend,
    random float parts on the floating one."""
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        exp = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(dim)] += 1
        terms[tuple(exp)] = (QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(rng.randint(-9, 9), 3))
                             if backend.exact else complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
    return make_series(dim, terms, order=order, backend=backend, center=center)


def random_order(rng):
    return rng.choice([None, None, 0, 1, 2, 3, 4, 5])


def bits(f):
    """``f``'s terms in stored order, each coefficient as its exact bit pattern, and its order."""
    def pattern(v):
        return v.triple if isinstance(v, QQi) else struct.pack("<dd", v.real, v.imag)

    return [(e, pattern(v)) for e, v in f.coeffs.items()], f.order


def coordinate(dim, axis, backend, center):
    """z_axis expanded at ``center``, (z_axis - b_axis) + b_axis, built term by term."""
    unit = tuple(int(k == axis) for k in range(dim))
    return make_series(dim, {unit: 1, (0,) * dim: center[axis]}, backend=backend, center=center)


@pytest.mark.parametrize("backend", [EXACT, floating()], ids=["exact", "floating"])
def test_times_variable_is_the_product_with_the_coordinate(backend):
    rng = random.Random(1601)
    for k in range(150):
        dim = rng.randint(1, 4)
        center = None if k % 3 == 0 else [complex(rng.randint(-3, 3), rng.randint(-2, 2)) / rng.randint(1, 3)
                                          for _ in range(dim)]
        f = random_series(rng, dim, backend, center=center, order=random_order(rng))
        for axis in range(dim):
            z = coordinate(dim, axis, backend, f.center)
            assert bits(times_variable(f, axis)) == bits(mul(f, z))
            assert variable(dim, axis, backend=backend, center=f.center) == z
    with pytest.raises(ValueError):
        times_variable(zero(2), 2)


def test_times_variable_is_undone_by_split_variable():
    rng = random.Random(1602)
    for _ in range(50):
        dim = rng.randint(1, 3)
        f = random_series(rng, dim, EXACT, center=[0] + [rng.randint(-2, 2) for _ in range(dim - 1)])
        assert split_variable(times_variable(f, 0), 0) == (f, zero(dim, center=f.center))
