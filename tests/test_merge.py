"""Unit tests for the slab-merge engine on both problem kinds."""

import math
import random
import struct
from dataclasses import replace

import numpy as np
import pytest

from okakit.cousin import QuadratureSpec, SplitGeometry, cousin_split
from okakit.cuboids import Cuboid
from okakit.division import CoordinateSubspace
from okakit.errors import NotHolomorphicDifference, NotInIdeal, PoleTooCloseToSeam
from okakit.evaluable import Evaluable
from okakit.merge import (
    ChiProblem,
    ChiSolution,
    PoleTerm,
    PrincipalPartData,
    extract_principal_coefficient,
    ideal_witness,
    local_solution,
    seam_difference,
    solve_chain,
    verify_solution,
)
from okakit import evaluable, merge
from okakit.scalars import floating
from okakit.series import (complex_evaluator, constant, make_series, monomial, scale, times_variable,
                            to_floating, variable)
from test_batched import extension_problem as perturbed_extension_problem
from test_batched import cuboid_sample, n2_cousin1_problem, one_seam_extension, series_evaluable


def pp(*poles):
    """Principal-part datum from (position, residue) pairs, n = 1."""
    return PrincipalPartData(
        tuple(PoleTerm(1, constant(0, c), constant(0, p)) for p, c in poles)
    )


def three_slab_problem(**kw):
    params = dict(
        kind="cousin1",
        cuboid=Cuboid(((-3.0, 3.0),), ((-0.6, 0.6),)),
        breakpoints=(-1.0, 1.0),
        data=(
            pp((-2.0 + 0.1j, 1.5 - 0.5j)),
            pp((0.2 + 0j, 0.7 + 0.2j), (-0.4 - 0.2j, -1.1 + 0.3j)),
            pp((2.1 - 0.3j, 0.9 + 0j)),
        ),
        delta=0.3,
        tol=1e-8,
    )
    params.update(kw)
    return ChiProblem(**params)


def n2_chain_problem(slabs):
    """n = 2 cousin1 chain on Re z2 in [-2, 2] whose loci and coefficients
    depend on z1, over a base cuboid whose midpoint is off 0."""
    width = 4.0 / slabs
    data = []
    for a in range(slabs):
        mid = -2.0 + width * (a + 0.5)
        terms = [PoleTerm(1, make_series(1, {(0,): 1 + 0.5j * a, (1,): 0.3}),
                          make_series(1, {(0,): mid - 0.1, (1,): 0.1j}))]
        if a % 2:
            terms.append(PoleTerm(2, make_series(1, {(0,): -0.4, (2,): 0.2j}),
                                  make_series(1, {(0,): mid + 0.15 + 0.1j, (1,): -0.05})))
        data.append(PrincipalPartData(tuple(terms)))
    return ChiProblem(
        kind="cousin1",
        cuboid=Cuboid(((0.1, 0.7), (-2.0, 2.0)), ((-0.2, 0.4), (-0.5, 0.5))),
        breakpoints=tuple(-2.0 + width * k for k in range(1, slabs)),
        data=tuple(data),
        delta=0.2,
    )


def extension_problem(**kw):
    # n = 2, S = {z1 = 0}, target g(z2) = z2^2 - 1, two slabs
    params = dict(
        kind="extension",
        cuboid=Cuboid(((-0.5, 0.5), (-2.0, 2.0)), ((-0.5, 0.5), (-0.5, 0.5))),
        breakpoints=(0.0,),
        codim=1,
        target=make_series(2, {(0, 2): 1, (0, 0): -1}),
        delta=0.2,
        tol=1e-8,
    )
    params.update(kw)
    return ChiProblem(**params)


class TestProblemValidation:
    def test_slab_count_mismatch(self):
        with pytest.raises(ValueError):
            three_slab_problem(data=(pp(), pp()))

    def test_asymmetric_im_rejected(self):
        with pytest.raises(ValueError):
            three_slab_problem(cuboid=Cuboid(((-3.0, 3.0),), ((-0.2, 0.6),)))

    def test_extension_target_must_avoid_constrained_axes(self):
        with pytest.raises(ValueError):
            extension_problem(target=monomial(2, (1, 0)))

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_nonpositive_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            three_slab_problem(tol=tol)

    def test_default_seam_margin(self):
        prob = three_slab_problem(delta=None)
        assert prob.seam_margin() == pytest.approx(0.05 * 2.0)


class TestLocalSolution:
    def test_cousin1_local_matches_principal_part(self):
        prob = three_slab_problem()
        loc = local_solution(prob, 1)
        z = (0.5 + 0.1j,)
        want = (0.7 + 0.2j) / (z[0] - 0.2) + (-1.1 + 0.3j) / (z[0] - (-0.4 - 0.2j))
        assert abs(loc(z) - want) < 1e-12

    def test_pole_outside_slab_rejected(self):
        prob = three_slab_problem(data=(pp((0.5, 1.0)), pp(), pp()))
        with pytest.raises(PoleTooCloseToSeam):
            local_solution(prob, 0)

    def test_pole_within_margin_rejected(self):
        prob = three_slab_problem(data=(pp((-1.1, 1.0)), pp(), pp()))
        with pytest.raises(PoleTooCloseToSeam):
            local_solution(prob, 0)

    def test_extension_local_is_cylinder_extension(self):
        prob = extension_problem()
        loc = local_solution(prob, 0)
        z = (0.2 + 0.1j, -1.0 + 0.2j)
        assert abs(loc(z) - (z[1] ** 2 - 1)) < 1e-12


class TestSeamDifference:
    def test_holomorphic_difference_accepted(self):
        overlap = Cuboid(((-0.2, 0.2),), ((-0.5, 0.5),))
        a = Evaluable(lambda z: z[0] ** 2)
        b = Evaluable(lambda z: z[0] - 1)
        diff = seam_difference(a, b, overlap)
        assert abs(diff((0.1,)) - (0.01 - 0.1 + 1)) < 1e-12

    def test_antiholomorphic_difference_rejected(self):
        overlap = Cuboid(((-0.2, 0.2),), ((-0.5, 0.5),))
        a = Evaluable(lambda z: z[0].conjugate())
        b = Evaluable(lambda z: 0j)
        with pytest.raises(NotHolomorphicDifference) as err:
            seam_difference(a, b, overlap)
        assert err.value.residual > 1e-3


class TestIdealWitness:
    def test_witnesses_recombine(self):
        sub = CoordinateSubspace(2, 1)
        h = make_series(2, {(1, 0): 1, (1, 2): -3})
        ws = ideal_witness(h, sub)
        assert len(ws) == 1
        assert (ws[0] * variable(2, 0)) == h

    def test_non_member_rejected(self):
        sub = CoordinateSubspace(2, 1)
        with pytest.raises(NotInIdeal):
            ideal_witness(monomial(2, (0, 1)), sub)


class TestCousin1EndToEnd:
    def test_three_slab_solution_verifies(self):
        prob = three_slab_problem()
        sols = solve_chain(prob)
        assert len(sols) == 1
        report = sols[0].report
        assert report["pass"]
        assert len(report["seam_jumps"]) == 2 and max(report["seam_jumps"]) <= 1e-8
        assert [r["s"] for r in report["seam_rounding"]] == [-1.0, 1.0]
        assert all(r["bound"] <= prob.tol / 10 for r in report["seam_rounding"])
        assert max(e["error"] for e in report["principal_part_errors"]) <= 1e-6

    def test_solution_equals_local_plus_correction(self):
        prob = three_slab_problem()
        sol = solve_chain(prob, verify=False)[0]
        z = (0.5 + 0.1j,)
        local = local_solution(prob, 1)
        corr = sol.corrections[1]
        assert abs(sol.solution(z) - local(z) - corr(z)) < 1e-12

    def test_residue_rings_in_one_call(self):
        """Every pole's 64-point ring goes to the solution in the one call
        that also takes the seam rows, after them; each ring's rows get the
        values fn gives them one by one, and the errors are those of
        extract_principal_coefficient."""
        prob = three_slab_problem()
        sol = solve_chain(prob, verify=False)[0]
        calls = []

        def recorded(P):
            calls.append(P)
            return sol.solution.values(P)

        report = verify_solution(replace(sol, solution=Evaluable.batched(recorded)), prob)
        (P,) = calls
        terms = [term for datum in prob.data for term in datum.terms]
        errors = report["principal_part_errors"]
        seam_rows, rings = P[:2 * 2 * 61], P[2 * 2 * 61:]
        assert len(errors) == len(terms) == 4 and rings.shape == (64 * 4, 1)
        sides = [np.nextafter(s, side) for s in (-1.0, 1.0) for side in (-np.inf, np.inf)]
        assert np.isin(seam_rows[:, -1].real, sides).all()
        batched = sol.solution.values(P)[len(seam_rows):]
        assert batched.tobytes() == np.array([sol.solution.fn(tuple(z)) for z in rings.tolist()]).tobytes()
        for i, (term, e) in enumerate(zip(terms, errors)):
            ring = rings[64 * i:64 * (i + 1)]
            assert batched[64 * i:64 * (i + 1)].tobytes() == sol.solution.values(ring).tobytes()
            pole = complex(*e["pole"])
            got = extract_principal_coefficient(sol.solution, pole, term.order, abs(ring[0, 0] - pole))
            assert e["error"] == pytest.approx(abs(got - complex(term.coeff.coefficient(()))), abs=1e-13)

    def test_residue_extraction_oracle(self):
        f = Evaluable(lambda z: (1.5 - 0.5j) / (z[0] - 0.3) + z[0] ** 2)
        got = extract_principal_coefficient(f, 0.3, 1, radius=0.2)
        assert abs(got - (1.5 - 0.5j)) < 1e-12

    def test_verification_detects_residue_change(self):
        """Altering a prescribed residue by 10% shows up in the report."""
        prob = three_slab_problem()
        sol = solve_chain(prob, verify=False)[0]
        wrong = three_slab_problem(data=(
            pp((-2.0 + 0.1j, 1.1 * (1.5 - 0.5j))),
            prob.data[1],
            prob.data[2],
        ))
        report = verify_solution(sol, wrong)
        assert not report["pass"]
        bad = max(e["error"] for e in report["principal_part_errors"])
        assert bad == pytest.approx(0.1 * abs(1.5 - 0.5j), rel=1e-4)

    def test_residue_error_above_tol_fails(self):
        """A residue off by 1e-7 fails at tol 1e-8, as every other check's
        figure above tol does."""
        prob = three_slab_problem(tol=1e-8)
        sol = solve_chain(prob, verify=False)[0]
        assert verify_solution(sol, prob)["pass"]
        sol.solution = sol.solution + Evaluable.batched(lambda P: 1e-7 / (P[:, -1] - 0.2))
        report = verify_solution(sol, prob)
        assert not report["pass"]
        worst = max(report["principal_part_errors"], key=lambda e: e["error"])
        assert worst["pole"] == [0.2, 0.0] and worst["error"] == pytest.approx(1e-7, rel=1e-6)

    def test_coincident_poles_verify(self):
        """c1/(z-p) + c2/(z-p)^2 given as two terms at one point is one
        principal part: both coefficients are re-extracted on one circle."""
        p, c1, c2 = 0.2 + 0.1j, 0.7 + 0.2j, -0.4 + 1.1j
        datum = PrincipalPartData((PoleTerm(1, constant(0, c1), constant(0, p)),
                                   PoleTerm(2, constant(0, c2), constant(0, p))))
        base = three_slab_problem()
        prob = three_slab_problem(data=(base.data[0], datum, base.data[2]))
        report = solve_chain(prob)[0].report
        errors = report["principal_part_errors"]
        assert [e["order"] for e in errors] == [1, 1, 2, 1]
        assert all(e["error"] <= 1e-6 for e in errors)  # NaN when the circle radius is 0
        assert report["pass"] and report["skipped_checks"] == []

    @pytest.mark.parametrize("order", ["ltr", "rtl"])
    @pytest.mark.parametrize("problem", [n2_cousin1_problem(), n2_chain_problem(3), n2_chain_problem(4)],
                             ids=["n2-two-slabs", "n2-three-slabs", "n2-four-slabs"])
    def test_every_n2_pole_checked(self, problem, order):
        """Poles whose locus depends on z' are re-extracted at the base
        midpoint z' and at the four corners of the seam rows, one entry per
        term and z', the midpoint's first."""
        report = solve_chain(problem, order=order)[0].report
        errors = report["principal_part_errors"]
        by_zp = {}
        for e in errors:
            by_zp.setdefault(tuple(map(tuple, e["zp"])), []).append((e["slab"], e["order"]))
        assert list(by_zp)[0] == tuple((z.real, z.imag) for z in problem.cuboid.midpoint()[:-1])
        assert len(by_zp) == 5 and all(group == [(alpha, term.order) for alpha, datum in enumerate(problem.data)
                                                 for term in datum.terms] for group in by_zp.values())
        assert all(e["error"] <= problem.tol for e in errors)
        assert report["pass"] and report["skipped_checks"] == []

    def test_n2_verification_detects_residue_change(self):
        prob = n2_cousin1_problem()
        sol = solve_chain(prob, verify=False)[0]
        assert verify_solution(sol, prob)["pass"]
        (term,) = prob.data[0].terms
        wrong = replace(prob, data=(PrincipalPartData((replace(term, coeff=scale(term.coeff, 1.1)),)),
                                    prob.data[1]))
        report = verify_solution(sol, wrong)
        assert not report["pass"]
        # the coefficient 1 + 0.5j z1 is 1 at the midpoint z1 = 0
        assert report["principal_part_errors"][0]["error"] == pytest.approx(0.1, rel=1e-4)

    def test_terms_at_one_pole_checked_by_their_sum(self):
        """Two order-1 terms at -2 are one principal part of residue 1.5:
        each entry compares the ring with the sum, so the solution passes and
        a solution missing either term fails."""
        prob = three_slab_problem(data=(pp((-2.0, 1.0), (-2.0, 0.5)),) + three_slab_problem().data[1:])
        report = solve_chain(prob)[0].report
        assert report["pass"] and len(report["principal_part_errors"]) == 5
        first, second = prob.data[0].terms
        for kept, dropped in ((second, 1.0), (first, 0.5)):
            missing = replace(prob, data=(PrincipalPartData((kept,)),) + prob.data[1:])
            report = verify_solution(solve_chain(missing, verify=False)[0], prob)
            assert not report["pass"]
            assert [e["error"] for e in report["principal_part_errors"][:2]] == pytest.approx([dropped] * 2)

    def test_unknown_order_rejected_before_solving(self, monkeypatch):
        def no_chain_solved(*args):
            raise AssertionError("a chain was solved")

        monkeypatch.setattr(merge, "_solve_one_chain", no_chain_solved)
        with pytest.raises(ValueError, match="unknown merge order"):
            solve_chain(three_slab_problem(), order="up")

    def test_verification_detects_antiholomorphic_noise(self):
        """Noise 1e-3 conj(z) on the middle branch (Re z in [-1, 1]) breaks
        the solution at both of its seams."""
        prob = three_slab_problem()
        sol = solve_chain(prob, verify=False)[0]
        clean = sol.solution.values
        middle = lambda P: (-1 <= P[:, -1].real) & (P[:, -1].real < 1)
        sol.solution = Evaluable.batched(lambda P: clean(P) + np.where(middle(P), 1e-3 * P[:, -1].conj(), 0))
        report = verify_solution(sol, prob)
        assert not report["pass"]
        assert min(report["seam_jumps"]) > 1e-3

    @pytest.mark.parametrize("problem", [lambda: three_slab_problem(), lambda: ab_bench_n2_cousin1_problem()],
                             ids=["n1", "n2"])
    def test_merge_order_changes_no_bit(self, problem):
        """Every seam splits its own datum, so there is no merge order: ltr
        and rtl give the same values, corrections and report, bit for bit."""
        prob = problem()
        rng = np.random.default_rng(27)
        P = np.stack([rng.uniform(*re, 200) + 1j * rng.uniform(*im, 200)
                      for re, im in zip(prob.cuboid.re, prob.cuboid.im)], axis=1)

        def bits(order):
            (sol,) = solve_chain(prob, order=order)
            assert sol.report["pass"]
            return ([sol.solution.values(P).tobytes(), [sol.solution.fn(tuple(z)) for z in P[:20].tolist()]]
                    + [c.values(P).tobytes() for c in sol.corrections] + [repr(sol.report)])

        assert bits("ltr") == bits("rtl")

    def test_two_slab_minimal(self):
        prob = ChiProblem(
            kind="cousin1",
            cuboid=Cuboid(((-2.0, 2.0),), ((-0.5, 0.5),)),
            breakpoints=(0.0,),
            data=(pp((-1.0, 1.0)), pp((0.9 + 0.1j, 2.0 - 1.0j))),
            delta=0.3,
        )
        report = solve_chain(prob)[0].report
        assert report["pass"]


class TestExtensionEndToEnd:
    def test_unperturbed_extension(self):
        prob = extension_problem()
        sols = solve_chain(prob)
        assert len(sols) == 1
        report = sols[0].report
        assert report["pass"]
        assert report["subspace_sup_error"] <= 1e-8

    def test_perturbed_locals_still_match_on_subspace(self):
        # perturb each slab's extension inside the ideal (z1)
        prob = extension_problem()
        g = prob.target
        bump0 = make_series(2, {(1, 0): 1, (1, 1): -2})
        bump1 = make_series(2, {(2, 0): 1, (1, 2): 1})
        prob2 = extension_problem(local_overrides=(g + bump0, g + bump1))
        sols = solve_chain(prob2)
        report = sols[0].report
        assert report["pass"], report
        assert report["subspace_sup_error"] <= 1e-8
        # the merged solution really differs from the plain extension off S
        sol = sols[0].solution
        z = (0.3 + 0.2j, 1.5 + 0.1j)
        assert abs(sol(z) - series_evaluable(g)(z)) > 1e-4

    def test_disconnected_chains_solved_separately(self):
        # shift the z1 box away from 0: no face meets S, three singleton chains
        prob = extension_problem(
            cuboid=Cuboid(((0.3, 0.8), (-2.0, 2.0)), ((-0.2, 0.2), (-0.5, 0.5))),
            breakpoints=(-0.5, 0.5),
            local_overrides=None,
        )
        sols = solve_chain(prob, verify=False)
        assert len(sols) == 3
        for sol in sols:
            assert sol.chain.start == sol.chain.stop

    def test_chain_region_missing_s_skips_subspace_check(self):
        """z1 in [0.3, 0.8]: no chain meets S, so the subspace check does not
        run and is listed as skipped; pass covers the seam checks that ran."""
        prob = extension_problem(
            cuboid=Cuboid(((0.3, 0.8), (-2.0, 2.0)), ((-0.2, 0.2), (-0.5, 0.5))),
            breakpoints=(-0.5, 0.5),
            local_overrides=None,
        )
        for sol in solve_chain(prob):
            report = sol.report
            assert report["skipped_checks"] == [{"check": "subspace", "reason": "chain region does not meet S"}]
            assert "subspace_sup_error" not in report and "subspace_slices" not in report
            assert report["seam_jumps"] == [] and report["pass"], report

    def test_codim_equal_to_dimension_skips_chains_off_the_origin(self):
        """For q = n only the chain whose Re z_n range holds 0 meets S."""
        z = variable(1, 0)
        prob = ChiProblem(kind="extension", cuboid=Cuboid(((-2.0, 2.0),), ((-0.5, 0.5),)),
                          breakpoints=(-1.0, 1.0), codim=1, target=constant(1, 2), delta=0.2,
                          local_overrides=(2 + z, 2 - 3 * z, 2 + z * z))
        reports = [sol.report for sol in solve_chain(prob)]
        assert [r["chain"] for r in reports] == [[0, 0], [1, 1], [2, 2]]
        skipped = [{"check": "subspace", "reason": "chain region does not meet S"}]
        assert [r["skipped_checks"] for r in reports] == [skipped, [], skipped]
        assert reports[1]["subspace_sup_error"] == 0.0
        assert all(r["pass"] for r in reports)

    def test_subspace_check_covers_im_slices(self):
        """A solution off the target on S only where Im z_n != 0 fails."""
        prob = extension_problem()
        sol = solve_chain(prob, verify=False)[0]
        g = series_evaluable(prob.target)
        off = ChiSolution(
            chain=sol.chain,
            solution=Evaluable(lambda z: g(z) + 1e-3 * (z[-1].conjugate() - z[-1])),
            corrections=[Evaluable.batched(lambda P: np.full(len(P), 0j)) for _ in sol.corrections],
            region=sol.region,
        )
        report = verify_solution(off, prob)
        assert not report["pass"]
        assert report["subspace_slices"] == [-0.45, 0.0, 0.45]
        assert report["subspace_sup_error"] == pytest.approx(2e-3 * 0.45)
        assert verify_solution(sol, prob)["pass"]


    @pytest.mark.parametrize("n", [1, 2])
    def test_codim_equal_to_dimension_checked_at_the_origin(self, n):
        """For q = n, S is the origin: the subspace check evaluates the
        origin alone, (0j, ..., 0j) bit for bit, last in the one call; every
        other row lies on the seam."""
        z = [variable(n, k) for k in range(n)]
        prob = ChiProblem(kind="extension",
                          cuboid=Cuboid(((-0.5, 0.5),) * (n - 1) + ((-2.0, 2.0),), ((-0.5, 0.5),) * n),
                          breakpoints=(0.0,), codim=n, target=constant(n, 2), delta=0.2,
                          local_overrides=(2 + z[0] * z[-1], 2 + z[-1] * z[-1] - 3 * z[0]))
        sol = solve_chain(prob, verify=False)[0]
        rows = []

        def recorded(P):
            rows.append(P)
            return sol.solution.values(P)

        report = verify_solution(replace(sol, solution=Evaluable.batched(recorded)), prob)
        (P,) = rows
        seam_rows, origin = P[:-1], P[-1:]
        assert origin.tobytes() == np.zeros((1, n), dtype=complex).tobytes()
        sides = (np.nextafter(0.0, -np.inf), np.nextafter(0.0, np.inf))
        assert len(seam_rows) and np.isin(seam_rows[:, -1].real, sides).all()
        assert len(report["seam_jumps"]) == 1 and report["seam_jumps"][0] <= prob.tol
        assert report["subspace_slices"] == [0.0] and report["pass"], report

    @pytest.mark.parametrize("nan_where", [lambda re: re > 0.5, lambda re: re < -0.5], ids=["right", "left"])
    def test_subspace_check_fails_on_nan(self, nan_where):
        prob = extension_problem()
        sol = solve_chain(prob, verify=False)[0]
        values = sol.solution.values
        nan_part = ChiSolution(
            chain=sol.chain,
            solution=Evaluable.batched(lambda P: np.where(nan_where(P[:, -1].real), np.nan, values(P))),
            corrections=sol.corrections,
            region=sol.region,
        )
        report = verify_solution(nan_part, prob)
        assert math.isnan(report["subspace_sup_error"])
        assert not report["pass"]


def moments_mutant(monkeypatch, change):
    """Every pole term's segment integrals I_1..I_m replaced by
    change(I, a), a the lower ends of the terms' segments."""
    moments = merge._moments
    monkeypatch.setattr(merge, "_moments", lambda p, a, b, m: change(moments(p, a, b, m), a))


def i1_on_the_wrong_branch(monkeypatch, prob, s=0.0):
    """The terms of seam s take I_1 + 2 pi i, the log of their pole on the
    other sheet: every branch gains -h_s, which glues but moves the poles."""
    moments_mutant(monkeypatch, lambda I, a: [I[0] + evaluable.TWO_PI_I * (a.real == s)] + I[1:])
    return prob


def q_dropped(monkeypatch, prob):
    """Every half is h ell / 2 pi i, without Q: the halves still differ by
    h, but a branch keeps h ell's poles of the slabs beside it."""
    moments_mutant(monkeypatch, lambda I, a: [0 * x for x in I])
    return prob


def term_credited_to_the_neighbouring_slab(monkeypatch, prob):
    """The chain's ``PoleSeams`` puts slab 1's first term at slab 2's
    position, while P_1 and P_2 stay as given: the seams at -1, 0 and 1
    split the wrong data."""
    moved, seams = prob.data[1].terms[0], merge.PoleSeams
    monkeypatch.setattr(merge, "PoleSeams", lambda s, height, entries, *rest: seams(
        s, height, tuple((2 if t is moved else a, t) for a, t in entries), *rest))
    return prob


def log_cut_below_theta(monkeypatch, prob):
    """Every log difference is taken with the cut height 0.45 theta instead
    of theta + delta: the cuts run right from s_k +/- 0.45 i theta through
    the cuboid, and beyond them a seam's left half is off by its datum, so
    the poles there take the wrong residues."""
    logs = merge._side_logs
    monkeypatch.setattr(merge, "_side_logs", lambda zn, seams, ih: logs(zn, seams, 0.45j * prob.theta))
    return prob


def term_without_its_z_factor(monkeypatch, prob):
    """G gains the term w L_2 / 2 pi i of seam 1's first cofactor w without
    its factor z_1: the solution still glues, but is off the target on S."""
    build = merge.closed_form_series

    def mutant(seams, witnesses, height):
        g, w = build(seams, witnesses, height), witnesses[1][0]
        tail, terms = tuple(int(k == 1) for k in range(len(seams))), dict(g.coeffs)
        for e, v in w.coeffs.items():
            terms[e + tail] = terms.get(e + tail, 0) + v / evaluable.TWO_PI_I
        return make_series(g.dim, terms, backend=g.backend, center=g.center)

    monkeypatch.setattr(merge, "closed_form_series", mutant)
    return prob


def log_cut_on_the_seam(monkeypatch, prob):
    """Each log difference is taken as one Log((d + ih) / (d - ih)), d = s_k
    - z_n, whose principal cut runs along d = 0: right of seam k every ell_k
    is 2 pi i low, so the solution is local_0 plus the seams' Cauchy
    integrals, which match the target on S but jump by each datum off it."""
    monkeypatch.setattr(merge, "_side_logs", lambda zn, seams, ih: np.log((seams - zn + ih) / (seams - zn - ih)))
    return prob


class TestExtensionMutants:
    """A broken closed form on the perturbed 4-slab problem (seams at -1, 0,
    1) whose output is off the target on S must fail the report: the
    subspace check sees it.  One whose output jumps across a seam must fail
    it too: the seam check alone sees that.  Dropping a seam's left half,
    or Q everywhere, is no mutant: the result still glues and vanishes on
    S, another gauge (``test_closed_form_halves_equal_cousin_split`` pins
    the left half and Q)."""

    def test_unmutated_solution_passes(self):
        report = solve_chain(perturbed_extension_problem(slabs=4))[0].report
        assert report["pass"] and len(report["seam_jumps"]) == 3
        assert max(report["seam_jumps"]) <= 1e-10

    @pytest.mark.parametrize("mutant", [term_without_its_z_factor])
    def test_mutant_fails(self, monkeypatch, mutant):
        prob = mutant(monkeypatch, perturbed_extension_problem(slabs=4))
        report = solve_chain(prob)[0].report
        assert not report["pass"] and max(report["seam_jumps"]) <= prob.tol
        assert report["subspace_sup_error"] > 1e-3, report

    def test_log_cut_on_the_seam_fails_the_seam_check_alone(self, monkeypatch):
        """Sampled at s^- and s itself the mutant passed (jumps 7.2e-16): at
        Re z_n = s its logs take the values of the left side."""
        prob = log_cut_on_the_seam(monkeypatch, perturbed_extension_problem(slabs=4))
        report = solve_chain(prob)[0].report
        assert not report["pass"] and report["subspace_sup_error"] <= prob.tol
        assert max(report["seam_jumps"]) > prob.tol, report


def test_closed_form_series_is_its_term_by_term_sum():
    """Bit for bit, in stored order: the terms of z_j w_{k,j} L_k and z_j Q_{k,j},
    each shifted at its factor's order, summed into one untruncated dict in turn,
    then times 1 / 2 pi i; on witnesses of unequal orders, off a zero center."""

    def reference(seams, witnesses, height):
        K, w0, terms = len(seams), witnesses[0][0], {}
        for k, (s, ws) in enumerate(zip(seams, witnesses)):
            tail = tuple(int(i == k) for i in range(K))
            for j, w in enumerate(ws):
                for f, t in ((times_variable(w, j), tail), (times_variable(merge.segment_quotient(w, s, height), j),
                                                            (0,) * K)):
                    for e, v in f.coeffs.items():
                        terms[e + t] = terms[e + t] + v if e + t in terms else v
                        if terms[e + t] == 0:
                            del terms[e + t]
        return make_series(w0.dim + K, {e: v * (1 / evaluable.TWO_PI_I) for e, v in terms.items()}, backend=w0.backend,
                           center=w0.center + (0,) * K)

    def bits(g):
        return [(e, struct.pack("<dd", v.real, v.imag)) for e, v in g.coeffs.items()], g.order, g.dim

    rng = random.Random(3505)
    for _ in range(100):
        n, K = rng.randint(1, 3), rng.randint(1, 3)
        center = tuple(rng.choice([0, 0.5, complex(-1, 0.25)]) for _ in range(n))
        witnesses = [[make_series(n, {tuple(rng.randint(0, 2) for _ in range(n)): complex(rng.choice([1, -1, 0.5]),
                                                                                          rng.choice([0.0, -0.0, 1]))
                                      for _ in range(rng.randint(0, 5))},
                                  order=rng.choice([None, 1, 2, 3]), backend=floating(), center=center)
                      for _ in range(rng.randint(1, n))] for _ in range(K)]
        seams, height = sorted(rng.uniform(-2, 2) for _ in range(K)), rng.uniform(0.3, 1.0)
        assert bits(merge.closed_form_series(seams, witnesses, height)) == bits(reference(seams, witnesses, height))


def test_extension_closed_form_is_built_in_floating_point(monkeypatch):
    """The G that ``_extension_halves`` compiles is a floating series with
    the terms of ``closed_form_series`` on the exact witnesses, in their
    order, each coefficient within 1e-15 of the exact one relative to the
    largest; every term keeps a factor z_j of a constrained axis."""
    prob, compiled = perturbed_extension_problem(slabs=4), []
    compile_ = merge.complex_evaluator

    def recorded(f):
        compiled.append(f)
        return compile_(f)

    monkeypatch.setattr(merge, "complex_evaluator", recorded)
    assert solve_chain(prob)[0].report["pass"]
    seams = list(prob.breakpoints)
    (g,) = [f for f in compiled if f.dim == prob.ndim + len(seams)]
    assert not g.backend.exact
    polys = prob.local_overrides
    witnesses = [ideal_witness(right - left, prob.subspace) for left, right in zip(polys, polys[1:])]
    exact = merge.closed_form_series(seams, witnesses, prob.theta + prob.seam_margin())
    assert exact.backend.exact and list(g.coeffs) == list(exact.coeffs)
    largest = max(abs(complex(v)) for v in exact.coeffs.values())
    assert all(abs(g.coeffs[e] - complex(v)) <= 1e-15 * largest for e, v in exact.coeffs.items())
    assert all(any(e[:prob.codim]) for e in g.coeffs)


def four_slab_cousin1_problem(**kw):
    """n = 1 cousin1 chain on Re z in [-2, 2] with seams at -1, 0 and 1."""
    params = dict(
        kind="cousin1",
        cuboid=Cuboid(((-2.0, 2.0),), ((-0.5, 0.5),)),
        breakpoints=(-1.0, 0.0, 1.0),
        data=(pp((-1.5 + 0.1j, 1.2 - 0.4j)),
              PrincipalPartData((PoleTerm(2, constant(0, 0.8), constant(0, -0.55 - 0.2j)),)),
              pp((0.45 + 0.25j, -0.6 + 0.9j), (0.6 - 0.2j, 0.3)),
              pp((1.6 - 0.1j, 1.0))),
        delta=0.2,
    )
    params.update(kw)
    return ChiProblem(**params)


def near_pole_problem(gap):
    """Two slabs, Re z in [-1, 3], seam s = 1, delta 0.25, theta 0.5: a pole
    at Re = s - delta - gap, ``gap`` from the right branch's pushed contour."""
    return ChiProblem(kind="cousin1", cuboid=Cuboid(((-1.0, 3.0),), ((-0.5, 0.5),)), breakpoints=(1.0,),
                      data=(pp((0.75 - gap + 0.3j, 1.0)), pp((2.0 - 0.2j, 0.5))), delta=0.25)


def wide_neighbour_problem():
    """A slab of width 2 between slabs of width 40, with coefficients 10^4
    next to the outer seams at +/-41, whose halves every branch takes."""
    return ChiProblem(kind="cousin1", cuboid=Cuboid(((-45.0, 45.0),), ((-0.6, 0.6),)),
                      breakpoints=(-41.0, -1.0, 1.0, 41.0),
                      data=(pp((-42 + 0.1j, 1e4)), pp((-20.0, 1.0)), pp((0.2, 1 - 1j)), pp((20 + 0.2j, 1.0)),
                            pp((42 - 0.2j, 1e4))),
                      delta=0.3)


def evaluators_scaled(monkeypatch, prob):
    """Every compiled ``complex_evaluator`` output is scaled by 1 + 1e-6: the
    locals and the seams' c and p alike, so the solution still glues, but
    each residue is off by about 1e-6 |c|."""
    compile_ = merge.complex_evaluator
    monkeypatch.setattr(merge, "complex_evaluator", lambda f: (lambda P, g=compile_(f): g(P) * (1 + 1e-6)))
    return prob


def seam_terms_frozen_at_the_midpoint(monkeypatch, prob):
    """Every seam half takes c(z') and p(z') at the base midpoint, whatever
    the row's z' (its logs depend on z_n alone): the chain still glues, but
    off the midpoint the poles the halves carry into slabs 1, 2, ... sit at
    p(midpoint) with coefficients c(midpoint), not where the data put them."""
    half, mid = merge.PoleSeams.half, prob.cuboid.midpoint()[:-1]

    def frozen(self):
        values = half(self).values

        def many(P):
            P = P.copy()
            P[:, :-1] = mid
            return values(P)

        return Evaluable.batched(many)

    monkeypatch.setattr(merge.PoleSeams, "half", frozen)
    return prob


class TestCousin1Mutants:
    """Broken closed forms must fail the cousin1 report: a mutant whose
    output is not a solution shows as a residue error.  A chain is one
    function, so no mutant here makes a seam jump."""

    @pytest.mark.parametrize("problem", [four_slab_cousin1_problem(), wide_neighbour_problem()],
                             ids=["four-slabs", "wide-neighbours"])
    def test_unmutated_solution_passes(self, problem):
        report = solve_chain(problem)[0].report
        assert report["pass"] and len(report["seam_jumps"]) == len(problem.breakpoints)
        assert max(report["seam_jumps"]) <= problem.tol

    @pytest.mark.parametrize("mutant", [i1_on_the_wrong_branch, q_dropped, term_credited_to_the_neighbouring_slab,
                                        log_cut_below_theta])
    def test_residue_mutant_fails(self, monkeypatch, mutant):
        """These mutants glue: only the residue check can see them."""
        prob = mutant(monkeypatch, four_slab_cousin1_problem())
        report = solve_chain(prob)[0].report
        assert not report["pass"] and max(report["seam_jumps"]) <= prob.tol
        assert max(e["error"] for e in report["principal_part_errors"]) > 1e-3, report

    def test_scaled_evaluators_fail_on_residues(self, monkeypatch):
        """The residue targets come from the exact ``series.evaluate``, not
        from the compiled evaluators the solution is built with: targets
        compiled there too would scale with the solution, and the report
        would pass with a worst residue error of 2.4e-16."""
        prob = evaluators_scaled(monkeypatch, four_slab_cousin1_problem())
        report = solve_chain(prob)[0].report
        assert not report["pass"] and max(report["seam_jumps"]) <= prob.tol
        assert all(r["bound"] <= prob.tol for r in report["seam_rounding"])
        assert max(e["error"] for e in report["principal_part_errors"]) > 1e-6, report

    def test_frozen_zp_fails_off_the_midpoint(self, monkeypatch):
        """With rings at the base midpoint alone the frozen mutant passed
        (worst residue error 4.6e-16): the residues at the corners of the
        seam rows see it."""
        prob = seam_terms_frozen_at_the_midpoint(monkeypatch, ab_bench_n2_cousin1_problem())
        report = solve_chain(prob)[0].report
        errors = report["principal_part_errors"]
        assert not report["pass"] and max(report["seam_jumps"]) <= prob.tol
        assert max(e["error"] for e in errors if e["zp"] == [[0.0, 0.0]]) <= prob.tol
        assert max(e["error"] for e in errors if e["zp"] != [[0.0, 0.0]]) > 1e-3, report


def test_one_verified_solve_compiles_each_series_once(monkeypatch):
    """A verified cousin1 solve compiles each term's coefficient and locus
    once, for the slab sums and the seam halves alike (the seams used to
    compile theirs again per entry, and every term sits in two seams: 26
    here); verification compiles none."""
    prob, compiled = four_slab_cousin1_problem(), []
    compile_ = merge.complex_evaluator

    def recorded(f):
        compiled.append(f)
        return compile_(f)

    monkeypatch.setattr(merge, "complex_evaluator", recorded)
    assert solve_chain(prob)[0].report["pass"]
    terms = [term for datum in prob.data for term in datum.terms]
    assert len(compiled) == 2 * len(terms) == 10
    assert sorted(map(id, compiled)) == sorted(id(f) for term in terms for f in (term.coeff, term.locus))


@pytest.mark.parametrize("problem", [lambda: four_slab_cousin1_problem(), lambda: ab_bench_n2_cousin1_problem()],
                         ids=["four-slabs", "n2"])
def test_seam_rounding_is_the_bound_over_both_slabs_discs(problem):
    """Per seam k, in seam order, ``seam_rounding`` holds s_k and the
    ``_rounding_bound`` over the ``_pole_discs`` of slabs k and k + 1."""
    prob = problem()
    discs = [merge._pole_discs(prob, alpha) for alpha in range(len(prob.data))]
    assert solve_chain(prob)[0].report["seam_rounding"] == [
        {"s": s, "bound": merge._rounding_bound(discs[k] + discs[k + 1], s)} for k, s in enumerate(prob.breakpoints)]


@pytest.mark.parametrize("problem, keys", [
    (lambda: three_slab_problem(), {"seam_rounding", "principal_part_errors"}),
    (lambda: perturbed_extension_problem(slabs=4), {"subspace_sup_error", "subspace_slices"}),
], ids=["cousin1", "extension"])
def test_report_keys(problem, keys):
    """``verify_solution`` builds every report figure: a cousin1 report
    carries the seams' rounding bounds, an extension report none, as the
    closed form's rounding is not bounded there."""
    report = solve_chain(problem())[0].report
    assert set(report) == {"kind", "chain", "skipped_checks", "patch_morera", "seam_jumps", "pass"} | keys


@pytest.mark.parametrize("gap", [1e-6, 1e-3, 0.03, 0.1, 0.2])
def test_near_pole_table(gap):
    """A pole ``gap`` from where the right half's pushed contour lay, as
    near to the seam as admission allows (delta + gap): solved for every
    gap, with a rounding bound and a seam jump within tol."""
    prob = near_pole_problem(gap)
    report = solve_chain(prob)[0].report
    (entry,) = report["seam_rounding"]
    assert entry["s"] == 1.0 and entry["bound"] <= prob.tol
    assert report["pass"] and len(report["seam_jumps"]) == 1 and report["seam_jumps"][0] <= prob.tol


def test_rounding_bound_above_tol_fails():
    """delta = 1e-3 admits an order-3 pole 2e-3 from the seam, where f ell and
    Q, each about 1 / g^3 = 1.25e8, cancel: the seam's a priori rounding
    bound, eps / g^3 = 2.8e-8, is above tol, and the report fails on it."""
    prob = ChiProblem(kind="cousin1", cuboid=Cuboid(((-1.0, 1.0),), ((-0.5, 0.5),)), breakpoints=(0.0,), delta=1e-3,
                      data=(PrincipalPartData((PoleTerm(3, constant(0, 1.0), constant(0, -2e-3)),)), pp((0.5, 1.0))))
    report = solve_chain(prob)[0].report
    (entry,) = report["seam_rounding"]
    assert entry["bound"] == pytest.approx(2.0 ** -52 / 2e-3 ** 3 + 2.0 ** -52 / 0.5)
    assert entry["bound"] > prob.tol and not report["pass"]
    assert solve_chain(replace(prob, tol=1e-6))[0].report["pass"]


def narrow_middle_problem(width, delta, rng):
    """Three slabs on Re z in [-2, 2], the middle one empty and ``width``
    wide, one random pole of order 1 or 2 in each outer slab."""
    def datum(lo, hi):
        order, coeff = rng.choice([1, 2]), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        pole = complex(rng.uniform(lo + delta, hi - delta), rng.uniform(-0.45, 0.45))
        return PrincipalPartData((PoleTerm(order, constant(0, coeff), constant(0, pole)),))

    return ChiProblem(kind="cousin1", cuboid=Cuboid(((-2.0, 2.0),), ((-0.5, 0.5),)),
                      breakpoints=(-width / 2, width / 2),
                      data=(datum(-2.0, -width / 2), PrincipalPartData(()), datum(width / 2, 2.0)), delta=delta)


def assert_narrow_middle_family_passes(factor, count, orders=("ltr", "rtl")):
    """``count`` instances of middle slabs ``factor`` delta wide, delta
    0.1, 0.2, 0.3 in turn, pass in each of ``orders`` with every jump
    within tol."""
    rng = random.Random(7)
    for i in range(count):
        delta = (0.1, 0.2, 0.3)[i % 3]
        prob = narrow_middle_problem(factor * delta, delta, rng)
        for order in orders:
            report = solve_chain(prob, order=order)[0].report
            assert report["pass"] and max(report["seam_jumps"]) <= prob.tol, (i, order, report)


def test_neighbouring_half_sets_the_panels():
    """Middle slabs 1.25 delta wide: 5 of these 24 solves failed, with jumps
    up to 1.7e4 times the Gauss error bound, while each seam density held
    the half of the seam merged before it, a Cauchy sum on a contour
    w - delta from the seam's own, and the panels had to count it.  Each
    seam now splits its own datum in closed form, so no neighbouring half
    and no panel enters."""
    assert_narrow_middle_family_passes(1.25, 12)


@pytest.mark.parametrize("order", ["ltr", "rtl"])
def test_middle_slab_delta_wide_passes(order):
    """A middle slab delta wide put the contour of the half one seam took
    from its neighbour on one of its own contours, and every one of these
    solves was refused.  Each seam's datum is now the principal parts of
    its two slabs alone, so all pass with every jump within tol."""
    prob = narrow_middle_problem(0.3, 0.3, random.Random(1))
    report = solve_chain(prob, order=order)[0].report
    assert report["pass"] and max(report["seam_jumps"]) <= prob.tol, report
    assert_narrow_middle_family_passes(1.0, 26, orders=(order,))


@pytest.mark.parametrize("problem", [lambda: three_slab_problem(), lambda: ab_bench_n2_cousin1_problem()],
                         ids=["n1", "n2"])
def test_each_seam_splits_its_own_datum(monkeypatch, problem):
    """The chain's one ``PoleSeams`` holds each term once, at its slab's
    position, and each seam s_k the principal parts of its two slabs alone:
    ``merge_pair(P_k, P_{k+1})`` puts P_k's terms at position 0 and
    P_{k+1}'s at 1, and on the strip its left half, and its left half less
    P_{k+1} - P_k, equal the left and right branches of ``cousin_split`` of
    that datum on a fine rule."""
    prob, half, built = problem(), merge.PoleSeams.half, []

    def recorded(self):
        built.append(self)
        return half(self)

    monkeypatch.setattr(merge.PoleSeams, "half", recorded)
    for order in ("ltr", "rtl"):
        built.clear()
        solve_chain(prob, order=order, verify=False)
        (chained,) = built
        assert chained.seams == prob.breakpoints
        assert chained.entries == tuple((a, t) for a, datum in enumerate(prob.data) for t in datum.terms)
    rng, spec = np.random.default_rng(27), QuadratureSpec(panels=40, nodes=20)
    base = Cuboid(prob.cuboid.re[:-1], prob.cuboid.im[:-1]) if prob.ndim > 1 else None
    for k, s in enumerate(prob.breakpoints):
        left, right = prob.data[k], prob.data[k + 1]
        split = merge.merge_pair(left, right, s, chained.height)
        assert split.seams == (s,)
        assert split.entries == tuple((0, t) for t in left.terms) + tuple((1, t) for t in right.terms)
        P = np.empty((50, prob.ndim), dtype=complex)
        P[:, :-1], P[:, -1] = 0.2 - 0.1j, s + rng.uniform(-0.9, 0.9, 50) * prob.delta + 1j * rng.uniform(-0.5, 0.5, 50)
        datum = right.evaluable() - left.evaluable()
        geom = SplitGeometry(s=s, delta=prob.delta, theta=prob.theta, re_lo=prob.cuboid.re[-1][0],
                             re_hi=prob.cuboid.re[-1][1], base=base)
        left_half = split.half().values(P)
        for got, branch in zip((left_half, left_half - datum.values(P)), cousin_split(datum, geom, spec)):
            want = branch.values(P)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def seam_by_seam(problem):
    """Per seam k of a one-chain problem, its own left half L_k and datum
    h_k, each split alone: by ``merge_pair`` for cousin1, by a one-seam
    ``closed_form_series`` of the floating cofactors for extension."""
    height, out = problem.theta + problem.seam_margin(), []
    for k, s in enumerate(problem.breakpoints):
        if problem.kind == "cousin1":
            left, right = problem.data[k], problem.data[k + 1]
            out.append((merge.merge_pair(left, right, s, height).half(), right.evaluable() - left.evaluable()))
            continue
        h = problem.slab_poly(k + 1) - problem.slab_poly(k)
        g = merge.closed_form_series([s], [[to_floating(w) for w in ideal_witness(h, problem.subspace)]], height)
        out.append((merge._closed_form_correction(complex_evaluator(g), np.array([s]), height), series_evaluable(h)))
    return out


@pytest.mark.parametrize("problem", [four_slab_cousin1_problem, lambda: n2_chain_problem(4),
                                     lambda: perturbed_extension_problem(slabs=4)], ids=["n1", "n2", "extension"])
def test_one_formula_is_the_seam_by_seam_gluing(problem):
    """On each slab alpha, ``corrections[alpha]`` = solution - local_alpha is
    what the seam-by-seam rule glues: the left halves L_k of the seams k >=
    alpha and the right halves L_k - h_k of the seams k < alpha, each seam
    split alone, within 1e-13 relative to |local_alpha| + sum |L_k| + |h_k|
    at every row."""
    prob = problem()
    sol, halves = solve_chain(prob, verify=False)[0], seam_by_seam(prob)
    P = cuboid_sample(prob, m=3000, seed=30)
    slab = np.searchsorted(prob.breakpoints, P[:, -1].real)
    for alpha in range(len(prob.breakpoints) + 1):
        rows = P[slab == alpha]
        parts = [(half.values(rows), datum.values(rows)) for half, datum in halves]
        want = sum(left - (k < alpha) * datum for k, (left, datum) in enumerate(parts))
        scale = np.abs(local_solution(prob, alpha).values(rows)) + sum(abs(a) + abs(b) for a, b in parts)
        assert np.all(np.abs(sol.corrections[alpha].values(rows) - want) <= 1e-13 * scale)


@pytest.mark.parametrize("slope", [1.0, 1.5])
def test_n2_loci_widened_over_the_base(slope):
    """The locus -1 + slope z1 sits at -1 at z1 = 0, 0.8 from the margin at
    -0.2, but sweeps a disc of radius slope |z1| <= 0.71 slope over the base:
    slope 1 keeps it inside the margin and passes, slope 1.5 crosses it."""
    def datum(locus):
        return PrincipalPartData((PoleTerm(1, make_series(1, {(0,): 1}), make_series(1, locus)),))

    prob = ChiProblem(kind="cousin1", cuboid=Cuboid(((-0.5, 0.5), (-2.0, 2.0)), ((-0.5, 0.5), (-0.5, 0.5))),
                      breakpoints=(0.0,), data=(datum({(0,): -1.0, (1,): slope}), datum({(0,): 1.0})), delta=0.2)
    if slope > 1:
        with pytest.raises(PoleTooCloseToSeam, match="stays within 1.06 of it, lies outside slab 0 or within margin 0.2"):
            solve_chain(prob)
        return
    report = solve_chain(prob)[0].report
    (entry,) = report["seam_rounding"]
    assert entry["s"] == 0.0 and entry["bound"] <= prob.tol
    assert report["pass"] and report["seam_jumps"][0] <= prob.tol


def ab_bench_n2_cousin1_problem():
    """The fixed n = 2 cousin1 problem of the ``n2_cousin1`` bits group of
    ``tools/ab_bench.py``: four slabs, loci and coefficients in z1."""
    def slab(*terms):
        return PrincipalPartData(tuple(PoleTerm(k, make_series(1, c), make_series(1, p)) for k, c, p in terms))

    return ChiProblem(
        kind="cousin1", cuboid=Cuboid(((-0.5, 0.5), (-2.0, 2.0)), ((-0.5, 0.5), (-0.5, 0.5))),
        breakpoints=(-1.0, 0.0, 1.0), delta=0.2,
        data=(slab((1, {(0,): 1, (1,): 0.5j}, {(0,): -1.5 + 0.1j, (1,): 0.1})),
              slab((2, {(0,): 0.5 - 0.2j}, {(0,): -0.5 - 0.2j, (1,): -0.05j})),
              slab((1, {(0,): -1j, (1,): 0.3}, {(0,): 0.45, (1,): 0.08}), (1, {(0,): 0.2}, {(0,): 0.6 + 0.25j})),
              slab((1, {(0,): 2 - 1j}, {(0,): 1.5 - 0.1j, (1,): -0.1 + 0.05j}))))


def verification_rows(sol, prob):
    """The rows ``verify_solution`` evaluates ``sol`` at, from its one call,
    split into the seam rows and the rest (rings or subspace rows), and the
    report."""
    calls = []

    def recorded(P):
        calls.append(P)
        return sol.solution.values(P)

    report = verify_solution(replace(sol, solution=Evaluable.batched(recorded)), prob)
    assert len(calls) == 1
    P = calls[0]
    seam_count = len(report["seam_jumps"]) * 2 * 61 * (4 if prob.ndim > 1 else 1)
    return P[:seam_count], P[seam_count:], report


ONE_PASS_PROBLEMS = [three_slab_problem, ab_bench_n2_cousin1_problem, lambda: perturbed_extension_problem(slabs=4)]


class TestOneEvaluationPass:
    """``verify_solution`` evaluates every check's rows of a chain in one
    call and reads each check from its own slice."""

    @pytest.mark.parametrize("make", ONE_PASS_PROBLEMS, ids=["n1-cousin1", "n2-cousin1", "extension-4-slabs"])
    def test_concatenated_rows_equal_separate_calls(self, make):
        """On a fresh solve, points, seam rows and check rows in one call
        have the bits of three calls on another fresh solve."""
        prob = make()
        seam_rows, check_rows, _ = verification_rows(solve_chain(prob, verify=False)[0], prob)
        assert len(seam_rows) and len(check_rows)
        rng = np.random.default_rng(26)
        points = np.column_stack([rng.uniform(lo, hi, 40) + 1j * rng.uniform(a, b, 40)
                                  for (lo, hi), (a, b) in zip(prob.cuboid.re, prob.cuboid.im)])
        together = solve_chain(prob, verify=False)[0].solution.values(np.concatenate([points, seam_rows, check_rows]))
        apart = solve_chain(prob, verify=False)[0].solution
        assert together.tobytes() == np.concatenate([apart.values(R) for R in (points, seam_rows, check_rows)]).tobytes()

    @pytest.mark.parametrize("prob", [three_slab_problem(), ab_bench_n2_cousin1_problem(),
                                      perturbed_extension_problem(slabs=4), extension_problem(
                                          cuboid=Cuboid(((0.3, 0.8), (-2.0, 2.0)), ((-0.2, 0.2), (-0.5, 0.5))),
                                          breakpoints=(-0.5, 0.5))],
                             ids=["n1-cousin1", "n2-cousin1", "extension", "extension-off-S"])
    def test_one_values_call_per_chain(self, prob):
        """One call per chain, three chains off S included, with the report
        of an unrecorded solution."""
        for sol in solve_chain(prob, verify=False):
            assert verification_rows(sol, prob)[2] == verify_solution(sol, prob)

    def test_ring_rule_matches_the_per_ring_loop(self):
        """The broadcast rings and the per-order sums have the bits of one
        ring built and summed at a time."""
        rng = np.random.default_rng(5)
        poles = (rng.normal(size=9) + 1j * rng.normal(size=9)).tolist()
        radii, orders = rng.uniform(0.01, 0.5, 9).tolist(), [1, 3, 2, 1, 1, 2, 3, 1, 2]
        zps = [(complex(*rng.normal(size=2)),) for _ in poles]
        P, d = merge._rings(poles, radii, zps, 2)
        vals = rng.normal(size=len(P)) + 1j * rng.normal(size=len(P))
        got = merge._ring_coefficients(vals, d, orders)
        for i, (pole, radius, zp, order) in enumerate(zip(poles, radii, zps, orders)):
            di = radius * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
            ring = np.array([zp + (zn,) for zn in (pole + di).tolist()])
            assert P[64 * i:64 * (i + 1)].tobytes() == ring.tobytes() and d[i].tobytes() == di.tobytes()
            assert got[i] == complex(np.sum(vals[64 * i:64 * (i + 1)] * di ** (order - 1) * di) / 64)

    @staticmethod
    def wrong_at(sol, row):
        """sol, plus 1 at the one row equal to ``row``."""
        values = sol.solution.values
        return replace(sol, solution=Evaluable.batched(lambda P: values(P) + (P == row).all(axis=1)))

    def test_one_wrong_ring_row_fails_its_residue(self):
        prob = three_slab_problem()
        sol = solve_chain(prob, verify=False)[0]
        _, rings, _ = verification_rows(sol, prob)
        report = verify_solution(self.wrong_at(sol, rings[64 * 2 + 5]), prob)
        assert not report["pass"] and max(report["seam_jumps"]) <= prob.tol
        assert [e["error"] > prob.tol for e in report["principal_part_errors"]] == [False, False, True, False]

    @pytest.mark.parametrize("prob", [three_slab_problem(), perturbed_extension_problem(slabs=4)],
                             ids=["cousin1", "extension"])
    def test_one_wrong_seam_row_fails_its_jump(self, prob):
        sol = solve_chain(prob, verify=False)[0]
        seam_rows, _, _ = verification_rows(sol, prob)
        report = verify_solution(self.wrong_at(sol, seam_rows[len(seam_rows) // 2 + 7]), prob)
        jumps = report["seam_jumps"]
        assert not report["pass"] and [j > prob.tol for j in jumps] == [k == len(jumps) // 2 for k in range(len(jumps))]
        assert max(e["error"] for e in report.get("principal_part_errors", [{"error": 0.0}])) <= prob.tol
        assert report.get("subspace_sup_error", 0.0) <= prob.tol

    def test_nan_on_one_seams_rows_fails_its_jump(self):
        """A solution that is NaN on both sides of the middle seam's rows
        has a NaN jump there, and the report fails: NaN <= tol is false."""
        prob = four_slab_cousin1_problem()
        sol = solve_chain(prob, verify=False)[0]
        values, s = sol.solution.values, prob.breakpoints[1]
        on_seam = lambda P: np.isin(P[:, -1].real, [np.nextafter(s, -np.inf), np.nextafter(s, np.inf)])
        nan = replace(sol, solution=Evaluable.batched(lambda P: np.where(on_seam(P), np.nan, values(P))))
        report = verify_solution(nan, prob)
        jumps = report["seam_jumps"]
        assert math.isnan(jumps[1]) and jumps[0] <= prob.tol and jumps[2] <= prob.tol
        assert max(e["error"] for e in report["principal_part_errors"]) <= prob.tol and not report["pass"]

    def test_one_wrong_subspace_row_fails_the_subspace_check(self):
        prob = perturbed_extension_problem(slabs=4)
        sol = solve_chain(prob, verify=False)[0]
        _, subspace_rows, _ = verification_rows(sol, prob)
        report = verify_solution(self.wrong_at(sol, subspace_rows[150]), prob)
        assert not report["pass"] and max(report["seam_jumps"]) <= prob.tol
        assert report["subspace_sup_error"] == pytest.approx(1.0, abs=1e-8)


def off_centre_extension(q):
    """``one_seam_extension(3, q)`` on a cuboid whose free base axes have
    their midpoint off 0."""
    prob = one_seam_extension(3, q)
    re, im = list(prob.cuboid.re), list(prob.cuboid.im)
    re[q:2], im[q:2] = [(-0.2, 0.6)] * (2 - q), [(-0.1, 0.5)] * (2 - q)
    return replace(prob, cuboid=Cuboid(tuple(re), tuple(im)))


@pytest.mark.parametrize("make", [lambda: perturbed_extension_problem(slabs=4), lambda: off_centre_extension(1),
                                  lambda: off_centre_extension(2)], ids=["n2-q1", "n3-q1", "n3-q2"])
def test_subspace_rows_keep_their_values_and_order(make):
    """For q < n the rows ``verify_solution`` evaluates after the seam rows
    are, bit for bit, (0, ..., 0, z', t + iy) for 101 t across the chain's
    Re z_n range on each slice y in turn, with z' on the free base axes
    q..n-2 at their midpoint and then at each diagonal corner (one z' where
    there is no free axis; q = n:
    ``test_codim_equal_to_dimension_checked_at_the_origin``)."""
    prob = make()
    sol = solve_chain(prob, verify=False)[0]
    _, rows, report = verification_rows(sol, prob)
    q, n, mids, (re, im) = prob.codim, prob.ndim, prob.cuboid.midpoint(), (prob.cuboid.re, prob.cuboid.im)
    free = [mids[q:n - 1]] + [tuple(complex(re[i][a], im[i][b]) for i in range(q, n - 1))
                              for a, b in ((0, 0), (1, 1), (0, 1), (1, 0)) if q < n - 1]
    slices = sorted({0.0, -0.9 * prob.theta, 0.9 * prob.theta})
    want = np.array([(0j,) * q + zp + (complex(t, y),)
                     for zp in free for y in slices for t in np.linspace(*sol.region.re[-1], 101)])
    assert len(want) == 303 * (5 if q < n - 1 else 1) and (q == n - 1 or want[:, q:-1].any())
    assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
    assert report["pass"], report


def test_locals_off_the_target_fail_off_the_base_midpoint():
    """n = 3, q = 1: both locals are the target plus (z_2 - 1/2) z_3, off
    it on S everywhere but at z_2 = 1/2, the base midpoint.  With subspace
    rows at that midpoint alone the report passed with error 0, though the
    error at z = (0, 0.9 + 0.3i, 0.5 + 0.1i) is 0.255; the rows at the
    corners of the free axis z_2 see it."""
    target = make_series(3, {(0, 1, 0): 1, (0, 0, 1): 1})
    local = target + make_series(3, {(0, 1, 1): 1, (0, 0, 1): -0.5})
    prob = ChiProblem(kind="extension", cuboid=Cuboid(((-0.5, 0.5), (0.0, 1.0), (-2.0, 2.0)), ((-0.5, 0.5),) * 3),
                      breakpoints=(0.0,), codim=1, target=target, local_overrides=(local, local), delta=0.2)
    sol = solve_chain(prob)[0]
    z = (0j, 0.9 + 0.3j, 0.5 + 0.1j)
    assert abs(sol.solution(z) - complex_evaluator(target)(np.array([z]))[0]) == pytest.approx(0.255, abs=1e-3)
    report = sol.report
    assert not report["pass"] and max(report["seam_jumps"]) <= prob.tol
    assert report["subspace_sup_error"] > 0.255, report


class TestDeterminism:
    def test_repeat_solve_identical(self):
        prob = three_slab_problem()
        a = solve_chain(prob, verify=False)[0]
        b = solve_chain(prob, verify=False)[0]
        rng = random.Random(0)
        for _ in range(10):
            z = (complex(rng.uniform(-2.9, 2.9), rng.uniform(-0.5, 0.5)),)
            assert a.solution(z) == b.solution(z)
