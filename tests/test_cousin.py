"""Unit tests for seam quadrature, the additive split, and the holomorphy
residual."""

import cmath
import math
import random

import numpy as np
import pytest

from okakit.cousin import (
    Evaluable,
    QuadratureSpec,
    SplitGeometry,
    _path_nodes,
    cauchy_segment_integral,
    cousin_split,
    morera_residual,
    overlap_grid,
    split_contours,
)
from okakit.cuboids import Cuboid
from okakit.errors import OnContour


ONE = Evaluable.batched(lambda P: np.full(len(P), 1 + 0j))


def default_geom(**kw):
    params = dict(s=0.0, delta=0.25, theta=0.5, re_lo=-1.5, re_hi=1.5)
    params.update(kw)
    return SplitGeometry(**params)


# (geometry, panels, panels per leg): a leg of length delta gets
# ceil(panels * delta / 2h) panels, and at most ceil(panels / 2)
PANEL_CASES = [
    pytest.param({}, 6, 1, id="whole"),  # 6 * 0.25 / 1.5 = 1
    pytest.param({}, 24, 4, id="whole-24"),
    pytest.param(dict(s=0.1, delta=0.2, theta=0.7), 24, 3, id="fraction"),  # 2.67
    pytest.param(dict(delta=0.3, theta=0.0), 7, 4, id="bound"),  # 3.5 -> ceil(7 / 2)
    # whole in exact arithmetic, one ulp above it in floats
    pytest.param(dict(delta=0.1, theta=0.0), 6, 3, id="whole-float-3"),  # 3.0000000000000004
    pytest.param(dict(delta=0.14, theta=0.21), 5, 1, id="whole-float-1"),  # 1.0000000000000002
    pytest.param(dict(delta=0.14, theta=0.21), 20, 4, id="whole-float-4"),  # 4.000000000000001
]


def near_leg_poles(g):
    """Simple and double poles as close to the pushed contours' legs as the
    solvers admit: Im p = +-theta, |Re p - s| = 2 delta."""
    poles = [complex(g.s + side * 2 * g.delta, im) for side in (1, -1) for im in (g.theta, -g.theta)]
    terms = [(1.0, 1), (0.5 - 1j, 2), (-2j, 1), (0.7 + 0.3j, 2)]
    return Evaluable.batched(lambda P: sum(c / (P[:, -1] - p) ** k for (c, k), p in zip(terms, poles)))


def slab_points(slab, nx=17, ny=7):
    (rlo, rhi), (ilo, ihi) = slab.re[-1], slab.im[-1]
    return np.array([[complex(r, i)] for r in np.linspace(rlo, rhi, nx) for i in np.linspace(ilo, ihi, ny)])


def segment_log(a, b, z):
    """Closed form of the Cauchy integral of the constant density 1."""
    # single log of the ratio: branch-safe for a straight segment
    return cmath.log((b - z) / (a - z)) / (2j * cmath.pi)


class TestGeometry:
    def test_segment_and_slabs(self):
        g = default_geom()
        a, b = g.segment
        assert a == -0.75j and b == 0.75j

    def test_seam_must_sit_inside_extents(self):
        with pytest.raises(ValueError):
            default_geom(s=1.4)
        with pytest.raises(ValueError):
            default_geom(delta=-0.1)

    def test_base_extends_dimension(self):
        base = Cuboid(((-1.0, 1.0),), ((-1.0, 1.0),))
        g = default_geom(base=base)
        assert g.ndim == 2


class TestSegmentIntegral:
    def test_constant_density_oracle(self):
        g = default_geom()
        a, b = g.segment
        one = ONE
        for z in (0.5 + 0.1j, -0.4 - 0.3j, 1.0j * 0.9 + 0.3):
            got = cauchy_segment_integral(one, g, (z,))
            assert abs(got - segment_log(a, b, z)) < 1e-12

    def test_linear_density_oracle(self):
        # integral of zeta/(zeta - z) = (b - a)/(2 pi i) + z * log-term
        g = default_geom()
        a, b = g.segment
        ident = Evaluable(lambda z: z[-1])
        for z in (0.6 - 0.2j, -0.5 + 0.4j):
            want = (b - a) / (2j * cmath.pi) + z * segment_log(a, b, z)
            got = cauchy_segment_integral(ident, g, (z,))
            assert abs(got - want) < 1e-12

    def test_linearity(self):
        g = default_geom()
        rng = random.Random(2)
        f = Evaluable(lambda z: z[-1] ** 2 - 1)
        h = Evaluable(lambda z: 3 * z[-1] + 0.5j)
        for _ in range(5):
            z = (complex(rng.uniform(0.3, 1.0), rng.uniform(-0.4, 0.4)),)
            lhs = cauchy_segment_integral(f + h, g, z)
            rhs = cauchy_segment_integral(f, g, z) + cauchy_segment_integral(h, g, z)
            assert abs(lhs - rhs) < 1e-12

    def test_on_contour_rejected(self):
        g = default_geom()
        with pytest.raises(OnContour):
            cauchy_segment_integral(ONE, g, (0.0j,))

    def test_adaptive_matches_fixed(self):
        g = default_geom()
        f = Evaluable(lambda z: cmath.exp(z[-1]))
        z = (0.7 + 0.2j,)
        spec = QuadratureSpec(panels=24)
        fixed = cauchy_segment_integral(f, g, z, spec)
        refined = cauchy_segment_integral(f, g, z, QuadratureSpec(panels=4 * spec.panels, nodes=spec.nodes))
        assert abs(fixed - refined) < 1e-10


class TestCousinSplit:
    def test_jump_identity_polynomial(self):
        g = default_geom()
        phi = Evaluable(lambda z: z[-1] ** 3 - 2 * z[-1] + 1j)
        p1, p2 = cousin_split(phi, g)
        worst = max(abs(p1(z) - p2(z) - phi(z)) for z in overlap_grid(g))
        assert worst < 1e-8

    def test_jump_identity_constant(self):
        g = default_geom()
        p1, p2 = cousin_split(ONE, g)
        worst = max(abs(p1(z) - p2(z) - 1) for z in overlap_grid(g))
        assert worst < 1e-8

    def test_refinement_shrinks_residual(self):
        g = default_geom()
        phi = Evaluable(lambda z: (z[-1] - 0.2j) ** 4)
        spec = QuadratureSpec()
        p1, p2 = cousin_split(phi, g, spec)
        coarse = max(abs(p1(z) - p2(z) - phi(z)) for z in overlap_grid(g))
        q1, q2 = cousin_split(phi, g, QuadratureSpec(panels=4 * spec.panels, nodes=spec.nodes))
        fine = max(abs(q1(z) - q2(z) - phi(z)) for z in overlap_grid(g))
        assert fine < coarse / 10

    def test_branches_holomorphic_on_their_slabs(self):
        g = default_geom()
        phi = Evaluable(lambda z: z[-1] ** 2 + 0.3)
        p1, p2 = cousin_split(phi, g)
        # shrink slightly so test rectangles stay off the contours
        left = Cuboid(((-1.4, 0.1),), ((-0.4, 0.4),))
        right = Cuboid(((-0.1, 1.4),), ((-0.4, 0.4),))
        assert morera_residual(p1, left, grid=3) < 1e-8
        assert morera_residual(p2, right, grid=3) < 1e-8

    def test_linearity_of_split(self):
        g = default_geom()
        f = Evaluable(lambda z: z[-1] ** 2)
        h = Evaluable(lambda z: 1j * z[-1])
        f1, f2 = cousin_split(f, g)
        h1, h2 = cousin_split(h, g)
        s1, s2 = cousin_split(f + h, g)
        for z in overlap_grid(g, nx=3, ny=3):
            assert abs(s1(z) - f1(z) - h1(z)) < 1e-10
            assert abs(s2(z) - f2(z) - h2(z)) < 1e-10

    @pytest.mark.parametrize("density", ["polynomial", "near-leg-poles"])
    @pytest.mark.parametrize("geom_kw, panels, leg", [
        case for case in PANEL_CASES if case.id in ("whole-24", "fraction", "whole-float-3", "whole-float-4")])
    def test_adaptive_split_agrees(self, geom_kw, panels, leg, density):
        # legs get panels in proportion to their length, vertical pieces all
        # of them: every slab point agrees with a split on four times as many
        g = default_geom(**geom_kw)
        phi = Evaluable(lambda z: z[-1] ** 2 - 0.5) if density == "polynomial" else near_leg_poles(g)
        spec = QuadratureSpec(panels=panels)
        slabs = (Cuboid(((g.re_lo, g.s + g.delta),), ((-g.theta, g.theta),)),
                 Cuboid(((g.s - g.delta, g.re_hi),), ((-g.theta, g.theta),)))
        fine_spec = QuadratureSpec(panels=4 * spec.panels, nodes=spec.nodes)
        for branch, fine, slab in zip(cousin_split(phi, g, spec), cousin_split(phi, g, fine_spec), slabs):
            P = slab_points(slab)
            got, want = branch.values(P), fine.values(P)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("geom_kw, panels, leg", PANEL_CASES)
    def test_panels_per_piece(self, geom_kw, panels, leg):
        g = default_geom(**geom_kw)
        spec = QuadratureSpec(panels=panels)
        h = g.height
        _, *pushed = split_contours(g, spec)  # the contours of cousin_split's branches
        for pieces, x in zip(pushed, (g.s + g.delta, g.s - g.delta)):
            zs, _ = _path_nodes(pieces, spec.nodes)
            # bottom leg, vertical piece at Re = x, top leg
            pieces = [np.sum(zs.imag == -h), np.sum(zs.real == x), np.sum(zs.imag == h)]
            assert pieces == [leg * spec.nodes, panels * spec.nodes, leg * spec.nodes]
            assert len(zs) == sum(pieces)
        assert leg <= -(-panels // 2)
        assert g.delta / leg <= (2 * h / panels) * (1 + 1e-9)  # no leg panel longer than a seam panel

    def test_evaluations_stay_off_contours(self):
        """Points near the seam are fine: the branch uses the pushed contour."""
        g = default_geom()
        phi = Evaluable(lambda z: z[-1])
        p1, p2 = cousin_split(phi, g)
        # on-seam evaluation must not raise
        z = (0.0 + 0.1j,)
        assert abs(p1(z) - p2(z) - phi(z)) < 1e-8

    def test_two_dimensional_density(self):
        base = Cuboid(((-1.0, 1.0),), ((-0.2, 0.2),))
        g = default_geom(base=base)
        phi = Evaluable(lambda z: z[0] * z[1] + z[0] ** 2)
        p1, p2 = cousin_split(phi, g)
        worst = max(abs(p1(z) - p2(z) - phi(z)) for z in overlap_grid(g))
        assert worst < 1e-8


def per_rectangle_residual(f, region, grid=4, nodes=12):
    """Reference Morera residual: every rectangle integrates its own four
    sides, so interior edges are integrated twice.  Returns the residual
    and the largest |f| at the nodes."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = (x + 1.0) / 2.0, w / 2.0
    mid = region.midpoint()
    worst = scale = 0.0
    for k in range(region.ndim):
        (rlo, rhi), (ilo, ihi) = region.re[k], region.im[k]
        res, ims = np.linspace(rlo, rhi, grid + 1), np.linspace(ilo, ihi, grid + 1)
        for a in range(grid):
            for b in range(grid):
                c = [complex(res[a + da], ims[b + db]) for da, db in ((0, 0), (1, 0), (1, 1), (0, 1))]
                total = 0j
                for z0, z1 in zip(c, c[1:] + c[:1]):
                    P = np.array([mid] * nodes)
                    P[:, k] = z0 + (z1 - z0) * x
                    vals = f.values(P)
                    scale = max(scale, float(np.abs(vals).max()))
                    total += complex(np.sum(w * vals)) * (z1 - z0)
                worst = max(worst, abs(total))
    return worst, scale


def random_polynomial(rng, ndim, degree=6, terms=8):
    exps = [tuple(int(e) for e in rng.integers(0, degree + 1, ndim)) for _ in range(terms)]
    coeffs = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    center = rng.normal(size=ndim) + 1j * rng.normal(size=ndim)

    def many(P):
        return sum(c * np.prod((P - center) ** np.array(e), axis=1) for c, e in zip(coeffs, exps))

    return Evaluable.batched(many)


class TestMorera:
    @pytest.mark.parametrize("grid, nodes", [(1, 12), (3, 12), (4, 12), (3, 24), (8, 40)])
    def test_shared_edges_match_per_rectangle_reference(self, grid, nodes):
        rng = np.random.default_rng(grid * 100 + nodes)
        region = Cuboid(((-0.7, 0.9), (0.1, 1.3)), ((-0.4, 0.8), (-1.0, 0.2)))
        # a pole 0.05 to the right of the region on axis 1
        near_pole = Evaluable.batched(lambda P: (2 - 1j) / (P[:, 1] - (1.35 + 0.3j)) + P[:, 0] ** 2)
        for f in [random_polynomial(rng, 2) for _ in range(4)] + [near_pole]:
            want, scale = per_rectangle_residual(f, region, grid, nodes)
            assert abs(morera_residual(f, region, grid=grid, nodes=nodes) - want) <= 1e-14 * scale

    @pytest.mark.parametrize("grid", [1, 2, 3, 5])
    def test_conjugate_gives_twice_each_rectangle_area(self, grid):
        # closed integral of conj(z) dz is 2i * area for every rectangle;
        # that of conj(z)^2 dz is 4i * area * conj(center), largest at a corner rectangle
        region = Cuboid(((-0.3, 1.7),), ((0.2, 1.2),))
        area = (2.0 / grid) * (1.0 / grid)
        got = morera_residual(Evaluable.batched(lambda P: P[:, 0].conj()), region, grid=grid)
        assert got == pytest.approx(2 * area, rel=1e-12)
        far = complex(1.7 - 1.0 / grid, 1.2 - 0.5 / grid)
        got = morera_residual(Evaluable.batched(lambda P: P[:, 0].conj() ** 2), region, grid=grid)
        assert got == pytest.approx(4 * area * abs(far), rel=1e-12)

    def test_entire_functions_pass(self):
        region = Cuboid(((-1.0, 1.0),), ((-1.0, 1.0),))
        for fn in (lambda z: z[0] ** 5, lambda z: cmath.exp(z[0]), lambda z: 1.0 + 0j):
            assert morera_residual(Evaluable(fn), region) < 1e-10

    def test_conjugate_detected_with_stokes_area(self):
        # closed integral of conj(z) dz equals 2i * enclosed area
        region = Cuboid(((-1.0, 1.0),), ((-1.0, 1.0),))
        grid = 4
        got = morera_residual(Evaluable(lambda z: z[0].conjugate()), region, grid=grid)
        tile_area = (2.0 / grid) * (2.0 / grid)
        assert got == pytest.approx(2 * tile_area, rel=1e-9)

    def test_small_perturbation_scales(self):
        region = Cuboid(((-1.0, 1.0),), ((-1.0, 1.0),))
        eps = 1e-3
        f = Evaluable(lambda z: z[0] ** 2 + eps * z[0].conjugate())
        base = morera_residual(Evaluable(lambda z: z[0].conjugate()), region)
        assert morera_residual(f, region) == pytest.approx(eps * base, rel=1e-6)

    def test_degenerate_axes_skipped(self):
        region = Cuboid(((0.0, 0.0), (-1.0, 1.0)), ((0.0, 0.0), (-1.0, 1.0)))
        f = Evaluable(lambda z: z[0].conjugate() + z[1] ** 2)
        assert morera_residual(f, region) < 1e-10

    @pytest.mark.parametrize("ndim", [1, 2])
    @pytest.mark.parametrize("nan_where", [lambda re: re > 0.5, lambda re: re < -0.5], ids=["right", "left"])
    def test_nan_values_make_the_residual_nan(self, nan_where, ndim):
        # max() over the rectangles used to drop a NaN unless it came first
        region = Cuboid(((-1.0, 1.0),) * ndim, ((-1.0, 1.0),) * ndim)
        f = Evaluable.batched(lambda P: np.where(nan_where(P[:, 0].real), np.nan, P[:, -1] ** 2))
        assert math.isnan(morera_residual(f, region))
