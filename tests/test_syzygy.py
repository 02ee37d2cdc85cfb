"""Unit tests for relation generation and decomposition."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okakit.errors import InvalidArity, NotARelation
from okakit.scalars import EXACT, floating
from okakit.series import add, constant, monomial, mul, negligible, variable, zero
from okakit.syzygy import (
    GeneralDecomposition,
    GeneratorPresentation,
    SyzygyVector,
    decompose_general_relation,
    decompose_relation,
    general_syzygy_generators,
    recombine,
    relation_residual,
    trivial_solution,
    trivial_solutions,
    verify_relation,
)

from test_series import bits, polynomials, random_order, random_polynomial, random_series


def applied(v: SyzygyVector, pres: GeneratorPresentation):
    """sum_i v_i sigma_i, from the generators themselves; zero iff v
    annihilates the generator tuple."""
    return sum(c * pres.generator(i) for i, c in enumerate(v.components))


def vectors_equal(a: SyzygyVector, b: SyzygyVector) -> bool:
    return a.arity == b.arity and all((x - y).is_zero() for x, y in zip(a.components, b.components))


class TestTrivialSolutions:
    def test_count_and_order(self):
        sols = trivial_solutions(3)
        assert [(t.i, t.j) for t in sols] == [(0, 1), (0, 2), (1, 2)]
        assert trivial_solutions(1) == []
        assert len(trivial_solutions(4)) == 6

    def test_entries(self):
        t = trivial_solution(0, 1, 2)
        assert t.vector.components[0] == -variable(2, 1)
        assert t.vector.components[1] == variable(2, 0)

    def test_all_are_relations(self):
        for p in (2, 3, 4):
            for t in trivial_solutions(p):
                ok, residual = verify_relation(t.vector)
                assert ok, f"T_{t.i}{t.j} residual {residual}"

    def test_ambient_dimension_padding(self):
        t = trivial_solution(0, 1, 2, dim=4)
        assert t.vector.dim == 4
        ok, _ = verify_relation(t.vector)
        assert ok

    def test_invalid_parameters(self):
        with pytest.raises(InvalidArity):
            trivial_solutions(0)
        with pytest.raises(InvalidArity):
            trivial_solution(1, 1, 3)
        with pytest.raises(InvalidArity):
            trivial_solution(0, 1, 2, dim=1)


class TestVerifyRelation:
    def test_non_relation_has_residual(self):
        v = SyzygyVector((constant(2, 1), zero(2)))
        ok, residual = verify_relation(v)
        assert not ok
        assert residual == variable(2, 0)

    def test_scaled_relations_stay_relations(self):
        rng = random.Random(17)
        for _ in range(10):
            t = trivial_solution(0, 2, 3)
            f = random_polynomial(rng, 3, 5)
            ok, _ = verify_relation(t.vector.scaled(f))
            assert ok

    def test_sum_of_relations(self):
        a = trivial_solution(0, 1, 3).vector
        b = trivial_solution(1, 2, 3).vector
        ok, _ = verify_relation(a + b)
        assert ok


class TestDecompose:
    def test_minimal_example(self):
        # (-z2, z1) is exactly T_12
        v = SyzygyVector((-variable(2, 1), variable(2, 0)))
        coeffs = decompose_relation(v)
        assert set(coeffs) == {(0, 1)}
        assert coeffs[(0, 1)] == constant(2, 1)

    def test_three_term_example(self):
        # (z2 z3, -z1 z3, 0) = z3 * T_12
        v = SyzygyVector((
            monomial(3, (0, 1, 1)),
            -monomial(3, (1, 0, 1)),
            zero(3),
        ))
        coeffs = decompose_relation(v)
        back = recombine(coeffs, 3)
        assert vectors_equal(back, v)

    def test_round_trip_random(self):
        rng = random.Random(59)
        for _ in range(30):
            p = rng.randint(2, 4)
            dim = rng.randint(p, 4)
            coeffs = {}
            for t in trivial_solutions(p, dim=dim):
                if rng.random() < 0.7:
                    coeffs[(t.i, t.j)] = random_polynomial(rng, dim, 5, n_terms=3)
            v = recombine(coeffs, p, dim=dim)
            got = decompose_relation(v)
            assert vectors_equal(recombine(got, p, dim=dim), v)

    def test_degree_does_not_grow(self):
        rng = random.Random(61)
        for _ in range(10):
            coeffs = {(0, 1): random_polynomial(rng, 3, 4, n_terms=3),
                      (1, 2): random_polynomial(rng, 3, 4, n_terms=3)}
            v = recombine(coeffs, 3)
            d = max(c.degree() for c in v.components)
            got = decompose_relation(v)
            assert all(b.degree() <= d for b in got.values())

    def test_non_relation_rejected(self):
        v = SyzygyVector((constant(2, 1), zero(2)))
        with pytest.raises(NotARelation) as err:
            decompose_relation(v)
        assert err.value.residual is not None

    def test_center_must_lie_on_subspace(self):
        z2 = variable(2, 1, center=(1, 0))
        z1 = variable(2, 0, center=(1, 0))
        with pytest.raises(NotARelation):
            decompose_relation(SyzygyVector((-z2, z1)))


class TestGeneralPresentation:
    def make_presentation(self):
        # sigma_1 = z1, sigma_2 = z2, sigma_3 = z1 + z2 in C^2
        one = constant(2, 1)
        return GeneratorPresentation(2, 2, 3, {(2, 0): one, (2, 1): one})

    def test_generator_values(self):
        pres = self.make_presentation()
        assert pres.generator(0) == variable(2, 0)
        assert pres.generator(2) == variable(2, 0) + variable(2, 1)

    def test_basis_shapes(self):
        pres = self.make_presentation()
        basis = general_syzygy_generators(pres)
        assert len(basis.tau) == 1 and len(basis.phi) == 1
        phi = basis.phi[0]
        # phi_3 = (-1, -1, 1)
        assert phi.vector.components[0] == constant(2, -1)
        assert phi.vector.components[1] == constant(2, -1)
        assert phi.vector.components[2] == constant(2, 1)

    def test_basis_annihilates_generators(self):
        pres = self.make_presentation()
        basis = general_syzygy_generators(pres)
        for t in basis.tau:
            assert applied(t.vector, pres).is_zero()
        for ph in basis.phi:
            assert applied(ph.vector, pres).is_zero()

    def test_decompose_round_trip(self):
        rng = random.Random(71)
        pres = self.make_presentation()
        basis = general_syzygy_generators(pres)
        for _ in range(20):
            v = None
            for gen in list(basis.tau) + list(basis.phi):
                piece = gen.vector.scaled(random_polynomial(rng, 2, 4, n_terms=3))
                v = piece if v is None else v + piece
            dec = decompose_general_relation(v, pres)
            assert vectors_equal(dec.recombined(pres), v)

    def test_non_relation_rejected(self):
        pres = self.make_presentation()
        v = SyzygyVector((constant(2, 1), zero(2), zero(2)))
        with pytest.raises(NotARelation):
            decompose_general_relation(v, pres)

    def test_random_presentations(self):
        rng = random.Random(73)
        for _ in range(10):
            n = rng.randint(2, 3)
            q = rng.randint(1, n)
            N = q + rng.randint(1, 2)
            coeffs = {(i, j): random_polynomial(rng, n, 3, n_terms=2)
                      for i in range(q, N) for j in range(q)}
            pres = GeneratorPresentation(n, q, N, coeffs)
            basis = general_syzygy_generators(pres)
            v = None
            for gen in list(basis.tau) + list(basis.phi):
                piece = gen.vector.scaled(random_polynomial(rng, n, 3, n_terms=2))
                v = piece if v is None else v + piece
            assert applied(v, pres).is_zero()
            dec = decompose_general_relation(v, pres)
            assert vectors_equal(dec.recombined(pres), v)

    @pytest.mark.parametrize("backend", [EXACT, floating()], ids=["exact", "floating"])
    def test_single_variable_folded_component_must_vanish(self, backend):
        # sigma_2 = 2 z1 with order-2 truncation: (z1^2, 0) annihilates the
        # generators only because z1^3 is truncated away
        pres = GeneratorPresentation(1, 1, 2, {(1, 0): constant(1, 2, backend=backend)}, backend=backend)
        v = SyzygyVector((monomial(1, (2,), order=2, backend=backend), zero(1, backend=backend, order=2)))
        with pytest.raises(NotARelation):
            decompose_general_relation(v, pres)

    def test_arity_checks(self):
        pres = self.make_presentation()
        with pytest.raises(InvalidArity):
            decompose_general_relation(SyzygyVector((zero(2), zero(2))), pres)
        with pytest.raises(InvalidArity):
            GeneratorPresentation(2, 3, 4, {})


def test_skipped_zero_slots_still_truncate():
    # a zero known only below degree 2 bounds the order of every sum it enters
    v = SyzygyVector((zero(2, order=1), monomial(2, (2, 0))))
    assert relation_residual(v) == zero(2, order=1)
    assert recombine({(0, 1): constant(3, 1, order=1)}, 3).components[2] == zero(3, order=1)


BACKENDS = pytest.mark.parametrize("backend", [EXACT, floating(1e-9)], ids=["exact", "floating"])


def subsets(keys, values):
    """Hypothesis strategy: dicts from some of ``keys`` to ``values``."""
    return st.dictionaries(st.sampled_from(keys), values) if keys else st.just({})


def round_trips(back: SyzygyVector, v: SyzygyVector) -> bool:
    return back.arity == v.arity and all(negligible(a - b, *v.components)
                                         for a, b in zip(back.components, v.components))


@BACKENDS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decompose_relation_round_trip(backend, data):
    p = data.draw(st.integers(2, 4))
    dim = data.draw(st.integers(p, p + 1))
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    coeffs = data.draw(subsets(pairs, polynomials(dim, backend)))
    v = recombine(coeffs, p, dim=dim, backend=backend)
    assert round_trips(recombine(decompose_relation(v), p, dim=dim, backend=backend), v)


@BACKENDS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decompose_general_relation_round_trip(backend, data):
    q = data.draw(st.integers(1, 3))
    total = data.draw(st.integers(q, q + 2))
    dim = data.draw(st.integers(q, q + 1))
    poly = polynomials(dim, backend, max_terms=3, max_degree=2)
    extra = [(i, j) for i in range(q, total) for j in range(q)]
    pres = GeneratorPresentation(dim, q, total, data.draw(subsets(extra, poly)), backend=backend)
    tau = data.draw(subsets([(j, k) for j in range(q) for k in range(j + 1, q)], poly))
    phi = data.draw(subsets(list(range(q, total)), poly))
    v = GeneralDecomposition(tau, phi).recombined(pres)
    assert round_trips(decompose_general_relation(v, pres).recombined(pres), v)


def reference_combination(pairs, arity: int, dim: int, backend) -> list:
    """sum b * g over the pairs (series b, SyzygyVector g) with ``mul`` and ``add``, slot by
    slot, each slot truncated at the lowest order among the factors of its products."""
    slots = []
    for s in range(arity):
        orders = [x.order for b, g in pairs for x in (b, g.components[s]) if x.order is not None]
        acc = zero(dim, backend=backend, order=min(orders, default=None))
        for b, g in pairs:
            acc = add(acc, mul(b, g.components[s]))
        slots.append(acc)
    return slots


@BACKENDS
def test_recombine_equals_the_sum_over_the_trivial_solutions(backend):
    rng = random.Random(1603)
    for _ in range(100):
        p = rng.randint(1, 4)
        dim = rng.randint(p, p + 1)
        coeffs = {(t.i, t.j): random_series(rng, dim, backend, order=random_order(rng), n_terms=3)
                  for t in trivial_solutions(p, dim=dim) if rng.random() < 0.7}
        basis = {(t.i, t.j): t.vector for t in trivial_solutions(p, dim=dim, backend=backend)}
        want = reference_combination([(b, basis[key]) for key, b in coeffs.items()], p, dim, backend)
        assert [bits(c) for c in recombine(coeffs, p, dim=dim, backend=backend).components] == [bits(c) for c in want]


@BACKENDS
def test_general_recombined_equals_the_sum_over_the_basis(backend):
    rng = random.Random(1604)
    for _ in range(100):
        q = rng.randint(1, 3)
        total = q + rng.randint(0, 2)
        dim = rng.randint(q, q + 1)
        pres = GeneratorPresentation(dim, q, total, {
            (i, j): random_series(rng, dim, backend, order=random_order(rng), n_terms=2, max_degree=2)
            for i in range(q, total) for j in range(q) if rng.random() < 0.7}, backend=backend)
        basis = general_syzygy_generators(pres)
        tau = {(t.j, t.k): random_series(rng, dim, backend, order=random_order(rng), n_terms=3)
               for t in basis.tau if rng.random() < 0.7}
        phi = {g.i: random_series(rng, dim, backend, order=random_order(rng), n_terms=3)
               for g in basis.phi if rng.random() < 0.7}
        pairs = [(tau[t.j, t.k], t.vector) for t in basis.tau if (t.j, t.k) in tau]
        pairs += [(phi[g.i], g.vector) for g in basis.phi if g.i in phi]
        want = reference_combination(pairs, total, dim, backend)
        got = GeneralDecomposition(tau, phi).recombined(pres)
        assert [bits(c) for c in got.components] == [bits(c) for c in want]


def test_presentation_coefficients_live_at_the_origin():
    # recombined built the basis vectors, which refused such a coefficient; the check is now up front
    with pytest.raises(InvalidArity):
        GeneratorPresentation(2, 1, 2, {(1, 0): constant(2, 1, center=(0, 1))})
    with pytest.raises(InvalidArity):
        GeneratorPresentation(2, 1, 2, {(1, 0): constant(2, 1, backend=floating())})
