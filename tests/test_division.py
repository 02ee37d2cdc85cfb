"""Unit tests for coordinate-ideal division with explicit cofactors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okakit.division import CofactorVector, CoordinateSubspace, ideal_cofactors, is_member, split_variable
from okakit.errors import CenterNotOnAxis
from okakit.scalars import EXACT, QQi, floating
from okakit.series import evaluate, make_series, monomial, mul, negligible, to_floating, variable

from test_series import polynomials, random_polynomial


class TestSplitVariable:
    def test_worked_example(self):
        # f = z1^2 z2 + 3 z1 + z2 z3 splits along z1 into h = z1 z2 + 3, g = z2 z3
        f = make_series(3, {(2, 1, 0): 1, (1, 0, 0): 3, (0, 1, 1): 1})
        h, g = split_variable(f, 0)
        assert h == make_series(3, {(1, 1, 0): 1, (0, 0, 0): 3})
        assert g == make_series(3, {(0, 1, 1): 1})

    def test_remainder_free_of_axis(self):
        rng = random.Random(13)
        for _ in range(30):
            dim = rng.randint(1, 4)
            axis = rng.randrange(dim)
            f = random_polynomial(rng, dim, 9)
            h, g = split_variable(f, axis)
            assert not g.depends_on(axis)
            z = variable(dim, axis)
            assert mul(h, z) + g == f

    def test_center_off_axis_rejected(self):
        f = make_series(2, {(1, 0): 1}, center=(1, 0))
        with pytest.raises(CenterNotOnAxis):
            split_variable(f, 0)
        # splitting along the on-axis coordinate is still fine
        split_variable(f, 1)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            split_variable(monomial(2, (1, 0)), 2)


class TestIdealCofactors:
    def test_worked_example_q2(self):
        # f = z1 z3 + z2^2 in the ideal (z1, z2): h1 = z3, h2 = z2, g = 0
        f = make_series(3, {(1, 0, 1): 1, (0, 2, 0): 1})
        cof = ideal_cofactors(f, CoordinateSubspace(3, 2))
        assert cof.cofactors[0] == monomial(3, (0, 0, 1))
        assert cof.cofactors[1] == monomial(3, (0, 1, 0))
        assert cof.remainder.is_zero()
        assert cof.recombined() == f

    def test_recombination_random(self):
        rng = random.Random(29)
        for _ in range(50):
            dim = rng.randint(1, 4)
            q = rng.randint(1, dim)
            f = random_polynomial(rng, dim, 10)
            cof = ideal_cofactors(f, CoordinateSubspace(dim, q))
            assert cof.recombined() == f
            for axis in range(q):
                assert not cof.remainder.depends_on(axis)

    def test_degree_bound(self):
        rng = random.Random(37)
        for _ in range(20):
            f = random_polynomial(rng, 3, 8)
            cof = ideal_cofactors(f, CoordinateSubspace(3, 2))
            d = f.degree()
            for h in cof.cofactors:
                assert h.degree() <= max(d - 1, -1)
            assert cof.remainder.degree() <= d

    def test_codim_validation(self):
        with pytest.raises(ValueError):
            CoordinateSubspace(2, 0)
        with pytest.raises(ValueError):
            CoordinateSubspace(2, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ideal_cofactors(monomial(2, (1, 0)), CoordinateSubspace(3, 1))


class TestMembership:
    def test_member_iff_vanishes_on_subspace(self):
        """Members vanish exactly at random points of the subspace."""
        rng = random.Random(43)
        for _ in range(40):
            dim = rng.randint(2, 4)
            q = rng.randint(1, dim - 1)
            sub = CoordinateSubspace(dim, q)
            f = random_polynomial(rng, dim, 6)
            member = is_member(f, sub)
            # sample the subspace: first q coordinates zero
            vanishes = True
            for _ in range(8):
                # float points read exactly as Gaussian rationals
                z = tuple(0j for _ in range(q)) + tuple(
                    QQi.of(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(dim - q)
                )
                if not evaluate(f, z).is_zero():
                    vanishes = False
                    break
            if member:
                assert vanishes
            # forcing membership by multiplying with z1 always succeeds
            assert is_member(mul(f, variable(dim, 0)), sub)

    def test_simple_cases(self):
        sub = CoordinateSubspace(2, 1)
        assert is_member(monomial(2, (1, 1)), sub)
        assert not is_member(monomial(2, (0, 2)), sub)

    def test_floating_membership_tolerates_noise(self):
        f = make_series(2, {(1, 0): 1.0 + 0j, (0, 1): 1e-15 + 0j}, backend=to_floating(monomial(2, (0, 0))).backend)
        assert is_member(f, CoordinateSubspace(2, 1))


class TestCofactorVector:
    def test_recombined_matches_formula(self):
        h1 = monomial(2, (0, 1))
        g = monomial(2, (0, 2))
        cof = CofactorVector((h1,), g)
        assert cof.recombined() == make_series(2, {(1, 1): 1, (0, 2): 1})


@pytest.mark.parametrize("backend", [EXACT, floating(1e-9)], ids=["exact", "floating"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_division_round_trip(backend, data):
    dim = data.draw(st.integers(1, 3))
    q = data.draw(st.integers(1, dim))
    f = data.draw(polynomials(dim, backend, max_terms=6))
    cof = ideal_cofactors(f, CoordinateSubspace(dim, q))
    assert negligible(cof.recombined() - f, f)
    assert not any(cof.remainder.depends_on(axis) for axis in range(q))
