"""Acceptance suite: seven numbered criteria, one pass/fail line each.

Criteria 5 and 7 share the same instance battery, cached at module level:
criterion 7 checks the seams of the instances criterion 5 solves.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from okakit.cousin import (Evaluable, QuadratureSpec, SplitGeometry, cauchy_segment_integral, cousin_split,
                           morera_residual, overlap_grid)
from okakit.cuboids import Cuboid
from okakit.division import CoordinateSubspace, ideal_cofactors
from okakit.merge import ChiProblem, PoleTerm, PrincipalPartData, ideal_witness, merge_pair, solve_chain
from okakit.scalars import QQi
from okakit.series import constant, make_series, variable
from okakit.syzygy import (
    GeneratorPresentation,
    decompose_relation,
    general_syzygy_generators,
    recombine,
    trivial_solutions,
    verify_relation,
)

from test_series import random_polynomial
from test_syzygy import applied


def report(number, ok, detail):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


# -- criterion 1: division recombination ---------------------------------


def test_criterion_1_division_recombination():
    rng = random.Random(101)
    started = time.time()
    for trial in range(500):
        dim = rng.randint(1, 4)
        q = rng.randint(1, dim)
        f = random_polynomial(rng, dim, 12, n_terms=rng.randint(1, 10))
        cof = ideal_cofactors(f, CoordinateSubspace(dim, q))
        assert cof.recombined() == f, f"trial {trial}: recombination failed"
        for axis in range(q):
            assert not cof.remainder.depends_on(axis), f"trial {trial}: remainder not free of axis {axis}"
    elapsed = time.time() - started
    report(1, elapsed < 10.0,
           f"500 random polynomials recombined exactly, remainders variable-free ({elapsed:.2f}s)")


# -- criterion 2: syzygy soundness and round trip ------------------------


def test_criterion_2_syzygy_soundness_and_round_trip():
    rng = random.Random(202)
    started = time.time()
    # soundness of every generated basis vector
    for p in (2, 3, 4):
        for t in trivial_solutions(p):
            ok, _ = verify_relation(t.vector)
            assert ok, f"T_{t.i}{t.j} (p={p}) is not a relation"
    for _ in range(10):
        n = rng.randint(2, 3)
        q = rng.randint(1, n)
        N = q + rng.randint(1, 2)
        coeffs = {(i, j): random_polynomial(rng, n, 3, n_terms=2)
                  for i in range(q, N) for j in range(q)}
        pres = GeneratorPresentation(n, q, N, coeffs)
        basis = general_syzygy_generators(pres)
        for gen in list(basis.tau) + list(basis.phi):
            assert applied(gen.vector, pres).is_zero(), "basis vector fails to annihilate"
    # 200 random round trips over the trivial solutions
    for trial in range(200):
        p = rng.randint(2, 4)
        dim = rng.randint(p, 4)
        coeffs = {}
        for t in trivial_solutions(p, dim=dim):
            if rng.random() < 0.7:
                coeffs[(t.i, t.j)] = random_polynomial(rng, dim, 5, n_terms=3)
        v = recombine(coeffs, p, dim=dim)
        back = recombine(decompose_relation(v), p, dim=dim)
        assert all((a - b).is_zero() for a, b in zip(back.components, v.components)), \
            f"trial {trial}: round trip lost information"
    elapsed = time.time() - started
    report(2, elapsed < 30.0,
           f"all bases annihilate their generators; 200 round trips exact ({elapsed:.2f}s)")


# -- criterion 3: cousin split jump identity ------------------------------


def random_poly_density(rng, degree=5):
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree + 1)]

    def fn(z):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z[-1] + c
        return acc

    return Evaluable(fn)


def test_criterion_3_jump_identity():
    import cmath

    rng = random.Random(303)
    geometries = [
        SplitGeometry(
            s=rng.uniform(-0.3, 0.3),
            delta=rng.uniform(0.25, 0.32),
            theta=rng.uniform(0.4, 0.6),
            re_lo=-1.5,
            re_hi=1.5,
        )
        for _ in range(10)
    ]
    spec = QuadratureSpec()
    fine_spec = QuadratureSpec(panels=4 * spec.panels, nodes=spec.nodes)
    worst_default = 0.0
    worst_refined = 0.0
    for k in range(50):
        geom = geometries[k % 10]
        phi = random_poly_density(rng, degree=rng.randint(0, 5))
        pts = overlap_grid(geom)
        p1, p2 = cousin_split(phi, geom, spec)
        res = max(abs(p1(z) - p2(z) - phi(z)) for z in pts)
        worst_default = max(worst_default, res)
        q1, q2 = cousin_split(phi, geom, fine_spec)
        worst_refined = max(worst_refined, max(abs(q1(z) - q2(z) - phi(z)) for z in pts))
    # calibration: constant density against the closed-form segment logarithm
    calib_err = 0.0
    one = Evaluable(lambda z: 1 + 0j)
    for geom in geometries:
        a, b = geom.segment
        for z in [(geom.s + 0.6 + 0.2j,), (geom.s - 0.7 - 0.1j,)]:
            got = cauchy_segment_integral(one, geom, z, fine_spec)
            want = cmath.log((b - z[0]) / (a - z[0])) / (2j * cmath.pi)
            calib_err = max(calib_err, abs(got - want))
    ok = worst_default <= 1e-8 and worst_refined <= worst_default / 10 and calib_err <= 1e-10
    report(3, ok,
           f"max jump residual {worst_default:.2e} (default), {worst_refined:.2e} (4x panels), "
           f"calibration error {calib_err:.2e}")


# -- criterion 4: holomorphy detection ------------------------------------


def test_criterion_4_holomorphy_detection():
    import cmath

    region = Cuboid(((-1.0, 1.0),), ((-1.0, 1.0),))
    entire = [
        Evaluable(lambda z: z[0] ** 4 - 2j * z[0]),
        Evaluable(lambda z: cmath.exp(z[0])),
        Evaluable(lambda z: cmath.sin(z[0]) * z[0]),
    ]
    controls = [
        Evaluable(lambda z: z[0].conjugate()),
        Evaluable(lambda z: z[0] ** 2 + 0.01 * z[0].conjugate() ** 2),
        Evaluable(lambda z: abs(z[0]) ** 2),
    ]
    worst_entire = max(morera_residual(f, region) for f in entire)
    best_control = min(morera_residual(f, region) for f in controls)
    ok = worst_entire <= 1e-10 and best_control >= 1e-3
    report(4, ok,
           f"entire residuals <= {worst_entire:.2e}, anti-holomorphic controls >= {best_control:.2e}")


# -- criteria 5 and 7: Mittag-Leffler battery ------------------------------


def pp(*poles):
    return PrincipalPartData(
        tuple(PoleTerm(1, constant(0, c), constant(0, p)) for p, c in poles)
    )


def random_ml_instance(rng):
    """3-slab principal-part problem with 1-3 simple poles per slab."""
    theta = 0.6
    delta = 0.3
    edges = [-3.0, -1.0, 1.0, 3.0]
    data = []
    placed = []
    for alpha in range(3):
        lo, hi = edges[alpha], edges[alpha + 1]
        n_poles = rng.randint(1, 3)
        poles = []
        for _ in range(n_poles):
            for _ in range(200):
                p = complex(rng.uniform(lo + delta + 0.15, hi - delta - 0.15),
                            rng.uniform(-(theta - 0.15), theta - 0.15))
                if all(abs(p - q) >= 0.25 for q in placed):
                    break
            else:
                continue
            placed.append(p)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            poles.append((p, c))
        data.append(pp(*poles))
    return ChiProblem(
        kind="cousin1",
        cuboid=Cuboid(((-3.0, 3.0),), ((-theta, theta),)),
        breakpoints=(-1.0, 1.0),
        data=tuple(data),
        delta=delta,
        tol=1e-8,
    )


_ML_BATTERY: list[tuple[ChiProblem, object]] = []


def ml_battery():
    if not _ML_BATTERY:
        rng = random.Random(505)
        for _ in range(20):
            prob = random_ml_instance(rng)
            sol = solve_chain(prob)[0]
            _ML_BATTERY.append((prob, sol))
    return _ML_BATTERY


def test_criterion_5_mittag_leffler_end_to_end():
    started = time.time()
    worst_residue = 0.0
    worst_jump = 0.0
    for idx, (prob, sol) in enumerate(ml_battery()):
        rep = sol.report
        assert rep["pass"], f"instance {idx} failed verification: {rep}"
        assert len(rep["seam_jumps"]) == 2, f"instance {idx}: not every seam checked"
        worst_residue = max(worst_residue, max(e["error"] for e in rep["principal_part_errors"]))
        worst_jump = max(worst_jump, *rep["seam_jumps"])
    elapsed = time.time() - started
    ok = worst_residue <= 1e-6 and worst_jump <= 1e-8 and elapsed < 60.0
    report(5, ok,
           f"20 instances: residue error <= {worst_residue:.2e}, seam jump <= {worst_jump:.2e} "
           f"({elapsed:.2f}s)")


# The Gauss error of a panel of length l whose integrand is of size about M
# off a singularity d from the panel: with a = 2d/l the singularity lies
# outside the Bernstein ellipse rho = a + sqrt(a^2 + 1), whose half minor axis
# is a, and the error is about M rho^(-2 nodes) (Trefethen, *Approximation
# Theory and Approximation Practice*, SIAM 2013, Thm 19.3).

def gauss_error(length: float, d: float, bound: float, nodes: int) -> float:
    """The estimate M rho^(-2 nodes) for a panel of ``length``, M = ``bound``."""
    a = 2 * d / length
    return bound * (a + math.sqrt(a * a + 1)) ** (-2 * nodes)


def test_criterion_7_merge_order_robustness():
    """Every seam splits its own datum, so ltr and rtl are one function; the
    criterion checks the closed-form seam halves the solves glue with (the
    left half, and the left half less the datum, the right one) against an
    independent quadrature: ``cousin_split`` of the same datum
    P_{k+1} - P_k on a rule whose a priori Gauss error is below 1e-10, at
    points of the chain at least delta / 2 off the seam's contours and off
    the poles."""
    spec = QuadratureSpec(panels=24, nodes=20)
    rng = np.random.default_rng(707)
    worst = 0.0
    for idx, (prob, _) in enumerate(ml_battery()):
        delta, (lo, hi) = prob.seam_margin(), prob.cuboid.re[0]
        poles = np.array([complex(t.locus.coefficient(())) for datum in prob.data for t in datum.terms])
        z = rng.uniform(lo, hi, 4000) + 1j * rng.uniform(-prob.theta, prob.theta, 4000)
        z = z[np.abs(z[:, None] - poles).min(axis=1) >= delta / 2]
        for k, s in enumerate(prob.breakpoints):
            left, right = prob.data[k], prob.data[k + 1]
            geom = SplitGeometry(s=s, delta=delta, theta=prob.theta, re_lo=lo, re_hi=hi)
            # the seam-long panels set the error: poles and points lie delta / 2 or more off every contour
            bound = max(1.0, sum(abs(complex(t.coeff.coefficient(()))) for d in (left, right) for t in d.terms) / (delta / 2))
            assert gauss_error(2 * geom.height / spec.panels, delta / 2, bound, spec.nodes) < 1e-10
            P = z[np.abs(z.real - s) >= 1.5 * delta][:, None]
            datum = right.evaluable() - left.evaluable()
            half = merge_pair(left, right, s, geom.height).half().values(P)
            # the left half, and the left half less the datum, the right one
            for got, branch in zip((half, half - datum.values(P)), cousin_split(datum, geom, spec)):
                worst = max(worst, float(np.max(np.abs(got - branch.values(P)))))
    report(7, worst <= 2e-8,
           f"closed-form seam halves vs cousin_split on a 1e-10 rule: difference <= {worst:.2e} over 20 instances")


# -- criterion 6: extension merge ------------------------------------------


def random_target(rng):
    """Polynomial in z2 only, degree <= 4, exact rational coefficients."""
    terms = {}
    for k in range(rng.randint(1, 5)):
        terms[(0, k)] = QQi(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                            Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if not terms:
        terms[(0, 0)] = QQi(Fraction(1), Fraction(0))
    return make_series(2, terms)


def random_ideal_perturbation(rng):
    """z1 times a random polynomial: vanishes on S = {z1 = 0}."""
    bump = random_polynomial(rng, 2, 3, n_terms=3)
    return bump * variable(2, 0)


def test_criterion_6_extension_merge():
    rng = random.Random(606)
    sub = CoordinateSubspace(2, 1)
    worst_sup = worst_jump = 0.0
    for idx in range(10):
        g = random_target(rng)
        locals_ = (g + random_ideal_perturbation(rng), g + random_ideal_perturbation(rng))
        # every seam difference admits exact witnesses by construction
        h = locals_[1] - locals_[0]
        ws = ideal_witness(h, sub)
        recomb = ws[0] * variable(2, 0)
        assert recomb == h, f"instance {idx}: witness recombination not exact"
        prob = ChiProblem(
            kind="extension",
            cuboid=Cuboid(((-0.5, 0.5), (-2.0, 2.0)), ((-0.5, 0.5), (-0.5, 0.5))),
            breakpoints=(0.0,),
            codim=1,
            target=g,
            local_overrides=locals_,
            delta=0.2,
            tol=1e-8,
        )
        sols = solve_chain(prob)
        assert len(sols) == 1
        rep = sols[0].report
        assert rep["pass"], f"instance {idx} failed verification: {rep}"
        worst_sup = max(worst_sup, rep["subspace_sup_error"])
        worst_jump = max(worst_jump, *rep["seam_jumps"])
    report(6, worst_sup <= 1e-8 and worst_jump <= 1e-8,
           f"10 instances: subspace sup error <= {worst_sup:.2e}, seam jump <= {worst_jump:.2e}, witnesses exact")
