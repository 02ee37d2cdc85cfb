"""Tests for the batched evaluation core: the compiled series evaluator, the
``values`` contract of every library-built evaluable, the scalar fallback
for user callables, the row split and density fills of ``cousin_split``,
and the closed-form seam splits of both problem kinds, which no solve
replaces by quadrature."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okakit import cousin, merge
from okakit.cousin import Evaluable, SplitGeometry, cousin_split, morera_residual
from okakit.cuboids import Cuboid
from okakit.merge import (
    ChiProblem,
    PoleTerm,
    PrincipalPartData,
    ideal_witness,
    local_solution,
    solve_chain,
)
from okakit.scalars import EXACT, QQi, floating
from okakit.series import complex_evaluator, evaluate, make_series

# -- compiled series evaluator against exact arithmetic ----------------------

small = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
ratio = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))

UNIT = Fraction(1, 2 ** 53)  # unit roundoff u of a double
# 4 x half the least subnormal >= 2 sqrt(2) (1 + u) x half of it: what underflow
# in the four real products of one complex product can add to it
UNDERFLOW = Fraction(1, 2 ** 1073)


def gamma(n: int) -> Fraction:
    return n * UNIT / (1 - n * UNIT)


def modulus_above(z) -> Fraction:
    """A rational bound r >= |z|, within a few ulp of it, for a QQi or complex z."""
    z = QQi.of(z)
    square = z.re ** 2 + z.im ** 2
    r = Fraction(abs(complex(z)))
    while r * r < square:
        r = Fraction(math.nextafter(float(r), math.inf))
    return r


def evaluation_error_bound(f, z) -> Fraction:
    """A priori bound on |complex_evaluator(f) at the float point z - f(z)|,
    in the model fl(x op y) = (x op y)(1 + delta), |delta| <= u, of IEEE
    doubles without overflow (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, sections 2.2, 3.1, 3.6 and 5.1).

    With the rounded centre b_k and w_k = fl(z_k - b_k), the exact z_k minus
    the exact centre is within eta_k = u(|b_k| + |w_k|) of w_k.  A complex
    product rounds within sqrt(2) gamma_2 <= gamma_3 of the exact one.  A
    computed power w**e holds e - 1 of them, since each squaring doubles the
    relative error already there, and term nu holds |nu| in all, counting
    the products by its coefficient.  Each coefficient is rounded once and
    each term meets at most T - 1 rounded additions.  So term nu is c_nu prod_k w_k^nu_k (1 + theta)
    with |theta| <= gamma_N, N = 3 d + T for the largest total degree d,
    whence |error| <= sum |c| (prod (|w| + eta)^nu - (1 - gamma_N) prod |w|^nu).
    Gradual underflow adds at most UNDERFLOW to each complex product, carried
    by the factors after it: at most 2 UNDERFLOW |nu| (1 + gamma_N)
    max(1, (1 + u)|c|) prod max(1, |w|)^nu per term."""
    T = len(f.coeffs)
    N = 3 * max((sum(exp) for exp in f.coeffs), default=0) + T
    b = [complex(c) for c in f.center]
    w = [modulus_above(complex(zk.real - bk.real, zk.imag - bk.imag)) for zk, bk in zip(z, b)]
    eta = [UNIT * (modulus_above(bk) + wk) for bk, wk in zip(b, w)]
    bound = Fraction(0)
    for exp, c in f.coeffs.items():
        c = modulus_above(c)
        near = far = big = Fraction(1)
        for wk, ek, e in zip(w, eta, exp):
            near, far, big = near * wk ** e, far * (wk + ek) ** e, big * max(1, wk) ** e
        bound += c * (far - (1 - gamma(N)) * near)
        bound += 2 * UNDERFLOW * sum(exp) * (1 + gamma(N)) * max(1, (1 + UNIT) * c) * big
    return bound


@st.composite
def series_and_points(draw):
    dim = draw(st.integers(0, 3))
    exact = draw(st.booleans())
    # a term with a power above 100, where CPython's own complex power leaves
    # square-and-multiply; there floats are single-precision values, as the
    # exact 150th power of a double with 1,000-bit denominator takes seconds.
    # |w| < 61 and total degrees up to 164 keep every value below 1e296.
    high = dim > 0 and draw(st.booleans())
    real = st.floats(min_value=-3.0, max_value=3.0, width=32) if high else small
    scalar = (st.builds(QQi, ratio, ratio) if exact
              else st.builds(complex, real, real))
    exps = st.tuples(*[st.integers(0, 7)] * dim)
    coeffs = draw(st.dictionaries(exps, scalar, max_size=8))
    if high:
        exp = list(draw(exps))
        exp[draw(st.integers(0, dim - 1))] = draw(st.integers(100, 150))
        coeffs[tuple(exp)] = draw(scalar)
    center = [draw(scalar) for _ in range(dim)]
    f = make_series(dim, coeffs, backend=EXACT if exact else floating(), center=center)
    m = draw(st.integers(1, 6))
    pts = [[complex(draw(real), draw(real)) for _ in range(dim)] for _ in range(m)]
    return f, np.array(pts, dtype=complex).reshape(m, dim)


def assert_within_bound_of_exact_values(f, P):
    """Every value within ``evaluation_error_bound`` of the exact value, the
    error measured exactly; one-row calls equal the rows of the batch."""
    got = complex_evaluator(f)(P)
    exact = make_series(f.dim, f.coeffs, backend=EXACT, center=f.center)
    for value, z in zip(got.tolist(), P.tolist()):
        error = QQi.of(value) - evaluate(exact, [QQi.of(zk) for zk in z])
        assert error.re ** 2 + error.im ** 2 <= evaluation_error_bound(f, z) ** 2, (value, z)
    assert [complex_evaluator(f)(P[i:i + 1])[0] for i in range(len(P))] == got.tolist()


@settings(max_examples=300, deadline=None)
@given(series_and_points())
def test_compiled_series_within_bound_of_exact_values(case):
    assert_within_bound_of_exact_values(*case)


def test_compiled_series_high_powers_within_bound_of_exact_values():
    # CPython's own complex power uses square-and-multiply up to e = 100 only
    f = make_series(1, {(3,): 1, (100,): QQi(Fraction(1, 3), Fraction(0)), (101,): 1j, (150,): 2},
                    center=[0.25])
    P = np.array([[0.9 + 0.3j], [-1.01 + 0.05j], [0.4 - 0.9j]])
    assert_within_bound_of_exact_values(f, P)


@pytest.mark.parametrize("dim, shape", [(2, (3, 3)), (2, (3, 1)), (2, (4,)), (0, (1, 1)), (1, (2, 1, 1))],
                         ids=["wider", "narrower", "flat", "dim-0-wider", "three-axes"])
def test_compiled_series_refuses_points_of_another_width(dim, shape):
    # numpy broadcasting would read the first dim columns of a wider array
    f = make_series(dim, {(0,) * dim: 1, (1,) * dim: 2})
    with pytest.raises(ValueError, match="dimension"):
        complex_evaluator(f)(np.zeros(shape, dtype=complex))


# -- values(P) == [fn(z) for z in P] -----------------------------------------


def series_evaluable(f) -> Evaluable:
    return Evaluable.batched(complex_evaluator(f))


def constant(value: complex) -> Evaluable:
    return Evaluable.batched(lambda P: np.full(len(P), complex(value)))


def assert_values_match_fn(e: Evaluable, P):
    P = np.asarray(P, dtype=complex)
    assert e.many is not None
    assert e.values(P).tolist() == [e.fn(tuple(z)) for z in P.tolist()]


def grid_points(re_lo, re_hi, im_lo, im_hi, zp=(), n=7):
    return [zp + (complex(r, i),)
            for r in np.linspace(re_lo, re_hi, n) for i in np.linspace(im_lo, im_hi, 3)]


def ml_problem():
    def pp(*poles):
        return PrincipalPartData(tuple(PoleTerm(order, make_series(0, {(): c}), make_series(0, {(): p}))
                                       for p, c, order in poles))

    return ChiProblem(
        kind="cousin1",
        cuboid=Cuboid(((-3.0, 3.0),), ((-0.6, 0.6),)),
        breakpoints=(-1.0, 1.0),
        data=(pp((-2.0 + 0.1j, 1.5 - 0.5j, 1)), pp((0.2, 0.7 + 0.2j, 2)), pp((2.1 - 0.3j, 0.9, 1))),
        delta=0.3,
    )


def ml_chain_problem(slabs=12):
    """n = 1 chain of width-2 slabs with 1-3 poles each, of orders 1 and 2:
    every branch takes a half of each of its many seams."""
    data = []
    for alpha in range(slabs):
        lo = -slabs + 2.0 * alpha
        data.append(PrincipalPartData(tuple(
            PoleTerm(1 + (alpha + k) % 2, make_series(0, {(): complex(1 + 0.1 * alpha, 0.5 - 0.4 * k)}),
                     make_series(0, {(): complex(lo + 0.5 + 0.5 * k, 0.3 * (-1) ** (alpha + k))}))
            for k in range(1 + alpha % 3))))
    return ChiProblem(
        kind="cousin1",
        cuboid=Cuboid(((-float(slabs), float(slabs)),), ((-0.6, 0.6),)),
        breakpoints=tuple(-slabs + 2.0 * k for k in range(1, slabs)),
        data=tuple(data),
        delta=0.3,
    )


def extension_problem(slabs=3):
    target = make_series(2, {(0, 0): Fraction(-1), (0, 2): QQi(Fraction(1, 3), Fraction(2, 5))})
    locals_ = tuple(target + make_series(2, {(1, 0): k + 1, (1, 1): Fraction(1, k + 2)}) for k in range(slabs))
    breakpoints = tuple(-2.0 + 4.0 * k / slabs for k in range(1, slabs))
    return ChiProblem(
        kind="extension",
        cuboid=Cuboid(((-0.5, 0.5), (-2.0, 2.0)), ((-0.5, 0.5), (-0.5, 0.5))),
        breakpoints=breakpoints,
        codim=1,
        target=target,
        local_overrides=locals_,
        delta=0.2,
    )


def n2_cousin1_problem():
    def pp(locus, coeff):
        return PrincipalPartData((PoleTerm(1, make_series(1, coeff), make_series(1, locus)),))

    return ChiProblem(
        kind="cousin1",
        cuboid=Cuboid(((-0.5, 0.5), (-2.0, 2.0)), ((-0.5, 0.5), (-0.5, 0.5))),
        breakpoints=(0.0,),
        data=(pp({(0,): -1.0, (1,): 0.1}, {(0,): 1, (1,): 0.5j}),
              pp({(0,): 1.0 - 0.2j, (1,): -0.1}, {(0,): 2 - 1j})),
        delta=0.2,
    )


def test_series_and_principal_part_values():
    f = make_series(2, {(0, 0): 1, (1, 2): QQi(Fraction(1, 3), Fraction(-2, 7)), (3, 1): 2j}, center=[0.5j, -1])
    pts = grid_points(-1.0, 1.0, -0.5, 0.5, zp=(0.3 - 0.2j,)) + grid_points(-1.0, 1.0, -0.5, 0.5, zp=(-0.1j,))
    assert_values_match_fn(series_evaluable(f), pts)
    locus = make_series(1, {(0,): 0.1, (1,): 0.5})
    coeff = make_series(1, {(0,): 1 - 1j, (2,): 3})
    data = PrincipalPartData((PoleTerm(1, coeff, locus), PoleTerm(3, coeff, locus)))
    assert_values_match_fn(data.evaluable(), pts)
    assert_values_match_fn(constant(2 - 1j), pts)


@pytest.mark.parametrize("base", [None, Cuboid(((-0.5, 0.5),), ((-0.2, 0.2),))])
def test_split_branches_values_on_both_sides_of_switch(base):
    geom = SplitGeometry(s=0.0, delta=0.25, theta=0.5, re_lo=-1.5, re_hi=1.5, base=base)
    n = geom.ndim
    density = series_evaluable(make_series(n, {(0,) * n: 1j, (0,) * (n - 1) + (3,): 0.5, (1,) * n: -2}))
    left, right = cousin_split(density, geom)
    zp = () if base is None else (0.1 + 0.05j,)
    # Re z_n runs across s - delta/2 and s + delta/2, where the branches switch contours
    pts = grid_points(-1.2, 1.2, -0.4, 0.4, zp=zp, n=13)
    assert {z[-1].real >= 0.125 for z in pts} == {True, False}
    assert_values_match_fn(left, pts)
    assert_values_match_fn(right, pts)
    assert_values_match_fn(left + right, pts)
    assert_values_match_fn(left - right, pts)


def one_row_points(problem) -> list:
    """Points for a one-row call: on each seam, a margin to either side of
    it, beyond both ends of the chain, and at Re z_n = +/-1e200, whose
    squares overflow."""
    zp = () if problem.ndim == 1 else (0.2 - 0.1j,)
    (lo, hi), = problem.cuboid.re[-1:]
    band = 0.75 * problem.seam_margin()
    res = [lo - 0.5, hi + 0.5, 1e200, -1e200] + [s + t for s in problem.breakpoints for t in (0.0, -band, band)]
    return [zp + (complex(r, y),) for r in res for y in (0.0, 0.3)]


@pytest.mark.parametrize("problem", [ml_problem(), extension_problem(), ml_chain_problem(), n2_cousin1_problem()],
                         ids=["cousin1", "extension", "cousin1-12-slabs", "cousin1-n2"])
def test_chain_state_and_corrections_values(problem):
    sol = solve_chain(problem, verify=False)[0]
    zp = () if problem.ndim == 1 else (0.2 - 0.1j,)
    (lo, hi), = problem.cuboid.re[-1:]
    pts = grid_points(lo + 0.05, hi - 0.05, -0.45, 0.45, zp=zp, n=17)
    assert_values_match_fn(sol.solution, pts)
    for corr in sol.corrections:
        assert_values_match_fn(corr, pts)
    # a one-row call has the bits of its row in a batch at every point, the
    # overflowing ones included (a float ** would raise there)
    P = np.array(one_row_points(problem))
    with np.errstate(all="ignore"):
        for e in [sol.solution, *sol.corrections]:
            assert np.array([e.fn(tuple(z)) for z in P.tolist()]).tobytes() == e.values(P).tobytes()


def test_rows_on_s_take_no_extension_correction():
    """Every term of an extension correction keeps its z_j factor, so rows on
    S = {z_1 = ... = z_q = 0} equal local_0 bit for bit on every slab,
    batched and one row at a time, also where the series centres lie off
    0 on the other axes."""
    for problem in (extension_problem(slabs=3), one_seam_extension(3, 1)):
        sol = solve_chain(problem, verify=False)[0]
        q, n = problem.codim, problem.ndim
        on_s = np.array(grid_points(-1.9, 1.9, -0.45, 0.45, zp=(0j,) * q + (0.2 - 0.1j,) * (n - 1 - q)))
        assert len(set(np.searchsorted(problem.breakpoints, on_s[:, -1].real))) == len(problem.breakpoints) + 1
        local = np.array([local_solution(problem, 0).fn(tuple(z)) for z in on_s.tolist()])
        assert sol.solution.values(on_s).tobytes() == local.tobytes()
        assert np.array([sol.solution.fn(tuple(z)) for z in on_s.tolist()]).tobytes() == local.tobytes()


def cuboid_sample(problem, m=4000, seed=3):
    rng = np.random.default_rng(seed)
    P = np.empty((m, problem.ndim), dtype=complex)
    for k in range(problem.ndim):
        P[:, k] = rng.uniform(*problem.cuboid.re[k], m) + 1j * rng.uniform(*problem.cuboid.im[k], m)
    return P


def test_pole_seams_evaluate_rows_in_blocks(monkeypatch):
    """A chain's closed-form cousin1 seams take at most BLOCK_ENTRIES //
    (number of terms) rows per block, so a call's temporaries stay bounded
    however many rows it has; a call spanning several blocks has, row by
    row, the bits ``fn`` gives each row alone."""
    logs, blocks = merge._side_logs, []
    monkeypatch.setattr(merge, "_side_logs", lambda zn, seams, ih: blocks.append(len(zn)) or logs(zn, seams, ih))
    problem = ml_chain_problem()
    sol = solve_chain(problem, verify=False)[0]
    step = cousin.BLOCK_ENTRIES // sum(len(datum.terms) for datum in problem.data)
    P = cuboid_sample(problem, m=3 * step + 7)
    got = sol.solution.values(P)
    assert blocks == [step, step, step, 7]
    assert got.tobytes() == np.array([sol.solution.fn(tuple(z)) for z in P.tolist()]).tobytes()


def test_twelve_slab_chain_holds_each_term_once(monkeypatch):
    """The 12-slab chain's 24 terms each enter two seams but one Horner sum:
    its one ``PoleSeams`` has 24 entries, one per term at its slab's
    position (one per term and seam, 44, before the two halves folded)."""
    built, half = [], merge.PoleSeams.half

    def recorded(self):
        built.append(self)
        return half(self)

    monkeypatch.setattr(merge.PoleSeams, "half", recorded)
    problem = ml_chain_problem()
    assert solve_chain(problem)[0].report["pass"]
    (chained,) = built
    assert len(chained.entries) == 24 and len(chained.seams) == 11
    assert chained.entries == tuple((a, t) for a, datum in enumerate(problem.data) for t in datum.terms)


def test_n2_cousin1_corrections_are_not_folded():
    """For n = 2 the coefficients and loci depend on z', so no set of
    constants represents them: every row evaluates its own c(z') and p(z'),
    and rows that differ in z' alone take different corrections, each with
    the bits it has alone."""
    sol = solve_chain(n2_cousin1_problem(), verify=False)[0]
    P = np.array([(0.3 - 0.2j, -1.5 + 0.1j), (-0.4 + 0.1j, -1.5 + 0.1j), (0.3 - 0.2j, 1.5 - 0.3j),
                  (-0.4 + 0.1j, 1.5 - 0.3j)])
    for corr in sol.corrections:
        got = corr.values(P)
        assert got[0] != got[1] and got[2] != got[3]
        assert got.tolist() == [corr.fn(tuple(z)) for z in P.tolist()]


# -- dataclasses.replace(e, fn=...), as a tracer wrapping fn does ------------


def test_replacing_fn_leaves_values_unchanged():
    problem = ml_problem()
    sol = solve_chain(problem, verify=False)[0]
    geom = SplitGeometry(s=0.0, delta=0.25, theta=0.5, re_lo=-1.5, re_hi=1.5)
    left, right = cousin_split(constant(1.0), geom)
    P = np.array(grid_points(-1.2, 1.2, -0.4, 0.4, n=9))
    for e in (local_solution(problem, 1), left, right, sol.solution, sol.corrections[1]):
        traced = replace(e, fn=lambda z: 0j)
        assert type(traced) is type(e)
        assert traced.values(P).tolist() == e.values(P).tolist()


# -- scalar-only user callables -----------------------------------------------


def test_scalar_only_evaluable_goes_through_split_and_morera():
    calls = []

    def fn(z):
        calls.append(z)
        assert isinstance(z, tuple) and all(type(v) is complex for v in z)
        return z[-1] ** 2 + 0.3

    scalar = Evaluable(fn)
    batched = Evaluable.batched(lambda P: P[:, -1] ** 2 + 0.3)
    geom = SplitGeometry(s=0.0, delta=0.25, theta=0.5, re_lo=-1.5, re_hi=1.5)
    s1, s2 = cousin_split(scalar, geom)
    b1, b2 = cousin_split(batched, geom)
    pts = np.array(cousin.overlap_grid(geom))
    assert max(abs(s1.values(pts) - s2.values(pts) - scalar.values(pts))) < 1e-8
    assert max(abs(s1.values(pts) - b1.values(pts))) < 1e-12
    assert max(abs(s2.values(pts) - b2.values(pts))) < 1e-12
    assert calls
    calls.clear()
    region = Cuboid(((-1.0, 1.0),), ((-1.0, 1.0),))
    assert morera_residual(scalar, region) < 1e-10
    assert len(calls) == 2 * 4 * 5 * 12  # 2 g(g+1) shared edges for grid g = 4, 12 nodes each


# -- the rows and density fills of cousin_split --------------------------------


def record_paths(monkeypatch) -> list:
    """Every ``_PathQuad`` built from here on, in build order, each keeping
    the arrays its ``cauchy`` gets in ``calls``."""
    paths = []

    class Recorded(cousin._PathQuad):
        def __init__(self, *args):
            super().__init__(*args)
            self.calls = []
            paths.append(self)

        def cauchy(self, P):
            self.calls.append(P)
            return super().cauchy(P)

    monkeypatch.setattr(cousin, "_PathQuad", Recorded)
    return paths


def distinct_zp_points(m=5000):
    rng = np.random.default_rng(5)
    P = np.empty((m, 2), dtype=complex)
    P[:, 0] = rng.uniform(-0.5, 0.5, m) + 1j * rng.uniform(-0.5, 0.5, m)
    P[:, 1] = rng.uniform(-2.0, 2.0, m) + 1j * rng.uniform(-0.5, 0.5, m)
    assert len(np.unique(P[:, 0])) == m
    return P


def n2_seam_halves():
    """The ``cousin_split`` halves of the seam datum P_1 - P_0 of
    ``n2_cousin1_problem``, a density that depends on z'."""
    problem = n2_cousin1_problem()
    geom = SplitGeometry(s=0.0, delta=0.2, theta=0.5, re_lo=-2.0, re_hi=2.0,
                         base=Cuboid(problem.cuboid.re[:-1], problem.cuboid.im[:-1]))
    return cousin_split(problem.data[1].evaluable() - problem.data[0].evaluable(), geom)


def n1_seam_halves():
    """The ``cousin_split`` halves of a cubic density across Re z = 0."""
    geom = SplitGeometry(s=0.0, delta=0.25, theta=0.5, re_lo=-1.5, re_hi=1.5)
    return cousin_split(series_evaluable(make_series(1, {(0,): 1j, (1,): -2, (3,): 0.5})), geom)


@pytest.mark.parametrize("halves", [n1_seam_halves, n2_seam_halves], ids=["n1", "n2"])
def test_split_rows_equal_their_rows_alone(monkeypatch, halves):
    """Each ``cousin_split`` branch takes the rows near its pushed contour to
    the seam segment: a call mixing those with far rows gives each row the
    bits it has alone, and a call whose rows are all far hands its array to
    the pushed contour uncopied."""
    paths = record_paths(monkeypatch)
    left, right = halves()
    _, *pushed = paths
    P = distinct_zp_points(m=200)[:, 1 if halves is n1_seam_halves else 0:]
    far = (P[:, -1].real < -0.5, P[:, -1].real > 0.5)  # 2 delta or more from s: far for the left (right) branch
    for branch, quad, rows in zip((left, right), pushed, far):
        assert 0 < rows.sum() < len(P) and len(quad.calls) == 0
        alone = np.concatenate([branch.values(P[i:i + 1]) for i in range(len(P))])
        assert branch.values(P).tobytes() == alone.tobytes()
        F = P[rows]
        quad.calls.clear()
        branch.values(F)
        assert len(quad.calls) == 1 and quad.calls[0] is F


def test_split_values_do_not_depend_on_the_rows_beside_them():
    # an n-dimensional density is filled per z' in every call: blocked and reversed calls give the same bits
    P = distinct_zp_points()
    got = [np.concatenate([half.values(P[k:k + 500]) for k in range(0, len(P), 500)]) for half in n2_seam_halves()]
    fresh = [half.values(P[::-1])[::-1] for half in n2_seam_halves()]
    assert [g.tolist() for g in got] == [f.tolist() for f in fresh]


def test_density_fills_stay_within_one_block(monkeypatch):
    # weighted() is called for one kernel block's rows, so one values call fills them all
    fills = []

    class Recorded(cousin._PathQuad):
        def __init__(self, *args):
            super().__init__(*args)
            phi, nodes = self.phi, len(self.zs)

            def many(P):
                fills.append((len(P), nodes))
                return phi.values(P)

            self.phi = Evaluable.batched(many)

    monkeypatch.setattr(cousin, "_PathQuad", Recorded)
    P = distinct_zp_points()
    for half in n2_seam_halves():
        half.values(P)
    assert fills and all(points <= max(cousin.BLOCK_ENTRIES, nodes) for points, nodes in fills)


# -- separated extension merge --------------------------------------------------


def one_seam_extension(n, q):
    """Two slabs; the witnesses have a nonzero center and several
    z'-monomials per constrained axis."""
    center = [0] * q + [QQi(Fraction(-1, 4), Fraction(1, 3))] * (n - 1 - q) + [QQi(Fraction(1, 5), Fraction(-1, 7))]
    zn = (0,) * (n - 1)
    target = make_series(n, {zn + (0,): 2, zn + (1,): -1j, zn + (3,): Fraction(1, 3)}, center=center)
    if n - 1 > q:
        target = target + make_series(n, {(0,) * q + (1,) * (n - 1 - q) + (2,): 0.5}, center=center)
    bump = {}
    for axis in range(q):
        for k, extra in enumerate([None, axis, n - 2]):
            e = [0] * n
            e[axis] += 1
            if extra is not None:
                e[extra] += 1
            e[-1] = k
            bump[tuple(e)] = QQi(Fraction(k + 1, axis + 2), Fraction(axis - k, 3))
    left = target
    right = target + make_series(n, bump, center=center)
    cuboid = Cuboid(((-0.5, 0.5),) * (n - 1) + ((-2.0, 2.0),), ((-0.4, 0.4),) * (n - 1) + ((-0.5, 0.5),))
    return ChiProblem(kind="extension", cuboid=cuboid, breakpoints=(0.0,), codim=q,
                      target=target, local_overrides=(left, right), delta=0.3)


@pytest.mark.parametrize("n, q", [(2, 1), (3, 2), (3, 1)])
def test_separated_merge_equals_n_dimensional_split(n, q):
    problem = one_seam_extension(n, q)
    left, right = problem.local_overrides
    witnesses = ideal_witness(right - left, problem.subspace)
    assert all(len({e[:-1] for e in w.coeffs}) >= 2 for w in witnesses)
    sol = solve_chain(problem)[0]
    assert sol.report["pass"], sol.report
    geom = SplitGeometry(s=0.0, delta=0.3, theta=0.5, re_lo=-2.0, re_hi=2.0,
                         base=Cuboid(problem.cuboid.re[:-1], problem.cuboid.im[:-1]))
    splits = [cousin_split(series_evaluable(w), geom) for w in witnesses]
    rng = np.random.default_rng(n + q)
    m = 400
    P = np.empty((m, n), dtype=complex)
    P[:, :-1] = rng.uniform(-0.5, 0.5, (m, n - 1)) + 1j * rng.uniform(-0.4, 0.4, (m, n - 1))
    P[:, -1] = rng.uniform(-1.9, 1.9, m) + 1j * rng.uniform(-0.5, 0.5, m)
    on_left = P[:, -1].real < 0.0
    want = np.where(on_left, series_evaluable(left).values(P), series_evaluable(right).values(P))
    for axis, (b_left, b_right) in enumerate(splits):
        want = want + np.where(on_left, b_left.values(P), b_right.values(P)) * P[:, axis]
    got = sol.solution.values(P)
    assert np.max(np.abs(got - want)) <= 1e-12
    # on S = {z_1 = ... = z_q = 0} every correction vanishes exactly
    P[:, :q] = 0
    assert sol.solution.values(P).tolist() == complex_evaluator(problem.target)(P).tolist()


def come_and_go_problem():
    """Seam 1 has the z'-monomial z1 only, seam 2 the constant only, so the
    second seam's densities also carry a coefficient its witness lacks."""
    g = make_series(2, {(0, 0): 1, (0, 2): -0.5j})
    bump = [make_series(2, terms) for terms in ({}, {(2, 0): 1}, {(2, 0): 1, (1, 0): 2 - 1j})]
    return ChiProblem(
        kind="extension",
        cuboid=Cuboid(((-0.5, 0.5), (-2.0, 2.0)), ((-0.5, 0.5), (-0.5, 0.5))),
        breakpoints=(-0.6, 0.6),
        codim=1,
        target=g,
        local_overrides=tuple(g + b for b in bump),
        delta=0.2,
    )


def test_separated_merge_glues_when_coefficients_come_and_go():
    problem = come_and_go_problem()
    for order in ("ltr", "rtl"):
        sol = solve_chain(problem, order=order)[0]
        assert sol.report["pass"], sol.report
        # the branches agree across both seams: the solution is holomorphic
        # on the chain, off S (morera_residual freezes z1 at the midpoint)
        off_s = Cuboid(((0.2, 0.4), (-2.0, 2.0)), ((0.1, 0.3), (-0.5, 0.5)))
        assert morera_residual(sol.solution, off_s, grid=8, nodes=20) < 1e-9


# -- closed-form extension halves ------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_halves_equal_cousin_split(n):
    """The left half z_1 (w ell + Q) / 2 pi i of one w, of degree 8 in z_n,
    and the left half less z_1 w equal z_1 times the left and right
    branches of ``cousin_split`` on a fine rule within 1e-12 relative, from
    the seam out to the far ends of a chain on Re z_n in [-4, 4]."""
    rng = np.random.default_rng(8 + n)

    def coeff():
        return QQi(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                   Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))))

    exps = [(0,) * (n - 1) + (m,) for m in range(9)] + [(1,) * (n - 1) + (m,) for m in range(0, 9, 3)] * (n > 1)
    w = make_series(n, {e: coeff() for e in exps}, center=[QQi(Fraction(1, 3), Fraction(-1, 5))] * (n - 1)
                    + [QQi(Fraction(-1, 4), Fraction(1, 7))])
    assert w.degree() >= 8
    s, height = 0.3, 0.7
    base = Cuboid(((-0.5, 0.5),) * (n - 1), ((-0.4, 0.4),) * (n - 1)) if n > 1 else None
    geom = SplitGeometry(s=s, delta=0.2, theta=0.5, re_lo=-4.0, re_hi=4.0, base=base)
    assert geom.height == height
    fine = cousin_split(series_evaluable(w), geom, cousin.QuadratureSpec(panels=40, nodes=20))
    # the left half of z_1 w: Weak Coherence keeps the factor z_1 explicit
    g = complex_evaluator(merge.closed_form_series([s], [[w]], height))
    half = merge._closed_form_correction(g, np.array([s]), height)
    m = 400
    P = np.empty((m, n), dtype=complex)
    P[:, :-1] = rng.uniform(-0.5, 0.5, (m, n - 1)) + 1j * rng.uniform(-0.4, 0.4, (m, n - 1))
    P[:, -1] = rng.uniform(-4.0, 4.0, m) + 1j * rng.uniform(-0.5, 0.5, m)
    P[:2, -1] = [-4.0 + 0.5j, 4.0 - 0.5j]  # the far ends, |z_n - s| up to 4.33
    z1, wz = P[:, 0], complex_evaluator(w)(P)
    scale = np.abs(z1) * (np.abs(wz) + 1)
    assert_values_match_fn(half, P[:40])
    left = half.values(P)
    for got, branch in zip((left, left - z1 * wz), fine):
        assert np.max(np.abs(got - z1 * branch.values(P)) / scale) <= 1e-12


def refuse_quadrature(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("quadrature on a merge path")

    for name in ("cousin_split", "_PathQuad"):
        monkeypatch.setattr(cousin, name, refused)


def test_extension_solve_runs_no_quadrature(monkeypatch):
    """An extension chain is built in closed form: no ``cousin_split``,
    contour or Cauchy kernel; its report has no ``seam_rounding``, and the
    merge order changes no bit of it."""
    refuse_quadrature(monkeypatch)
    for problem in (extension_problem(slabs=4), come_and_go_problem(), one_seam_extension(3, 2)):
        P = cuboid_sample(problem, m=300)
        got = []
        for order in ("ltr", "rtl"):
            sol = solve_chain(problem, order=order)[0]
            report = sol.report
            assert report["pass"], report
            assert "seam_rounding" not in report
            got.append(b"".join(e.values(P).tobytes() for e in [sol.solution, *sol.corrections]))
        assert got[0] == got[1]


def test_cousin1_solve_runs_no_quadrature(monkeypatch):
    """A cousin1 chain is built in closed form too, for n = 1 and n = 2:
    no ``cousin_split``, contour or Cauchy kernel; its report has one
    ``seam_rounding`` entry {s, bound} per seam."""
    refuse_quadrature(monkeypatch)
    for problem in (ml_problem(), ml_chain_problem(), n2_cousin1_problem()):
        sol = solve_chain(problem)[0]
        assert sol.report["pass"], sol.report
        assert [(set(r), r["s"]) for r in sol.report["seam_rounding"]] == [
            ({"s", "bound"}, s) for s in problem.breakpoints]
        sol.solution.values(cuboid_sample(problem, m=300))


@pytest.mark.parametrize("n", [1, 2])
def test_pole_halves_equal_cousin_split(n):
    """The left half of a cousin1 seam in closed form, and the left half
    less the seam's datum, equal the left and right branches of
    ``cousin_split`` of the datum on a fine rule, within 1e-11 relative, at
    points of the chain at least delta / 2 off its contours; for n = 2,
    c(z') and p(z') vary with every row."""
    problem = ml_problem() if n == 1 else n2_cousin1_problem()
    base = Cuboid(problem.cuboid.re[:-1], problem.cuboid.im[:-1]) if n > 1 else None
    (lo, hi), rng = problem.cuboid.re[-1], np.random.default_rng(11)
    for k, s in enumerate(problem.breakpoints):
        left, right = problem.data[k], problem.data[k + 1]
        geom = SplitGeometry(s=s, delta=problem.delta, theta=problem.theta, re_lo=lo, re_hi=hi, base=base)
        datum = right.evaluable() - left.evaluable()
        fine = cousin_split(datum, geom, cousin.QuadratureSpec(panels=40, nodes=20))
        P = cuboid_sample(problem, m=600, seed=k)
        P = P[np.abs(np.abs(P[:, -1].real - s) - problem.delta) >= problem.delta / 2]
        half = merge.merge_pair(left, right, s, geom.height).half().values(P)
        for got, branch in zip((half, half - datum.values(P)), fine):
            want = branch.values(P)
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
        assert len(set(P[:, 0].tolist())) == len(P) or n == 1
