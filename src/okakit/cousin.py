"""Cauchy-kernel integrals over vertical segments and the additive seam
splitting they produce.

Given a density holomorphic on a margin strip around the seam Re z_n = s,
the segment integral defines one function holomorphic off the segment; the
two slab-wise branches are realized here by deformed three-sided contours
pushed to Re = s +/- delta.  By the residue theorem the pushed-contour
integral coincides with the Cauchy integral on the natural side and with
its jump-corrected continuation on the other, so every evaluation stays at
distance >= delta/2 from the contour actually used.  The difference of the
two branches equals the density on the overlap strip.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .cuboids import Cuboid
from .errors import OnContour

TWO_PI_I = 2j * cmath.pi


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre controls.

    ``panels`` equal panels of ``nodes`` points per straight contour piece.
    The node sets are deterministic, so the seam-split caches can reuse
    them; evaluations stay at least delta/2 from the contour, where the
    fixed rule converges geometrically.
    """

    panels: int = 6
    nodes: int = 10

    def __post_init__(self):
        if self.panels < 1 or self.nodes < 2:
            raise ValueError("need at least one panel and two nodes")

    def refined(self, factor: int = 4) -> "QuadratureSpec":
        return replace(self, panels=self.panels * factor)


@dataclass(frozen=True)
class Evaluable:
    """Immutable black box: point of C^n -> complex, with a validity region."""

    fn: Callable
    domain: Cuboid | None = None

    def __call__(self, z: Sequence) -> complex:
        return self.fn(tuple(complex(v) for v in z))

    def __add__(self, other: "Evaluable") -> "Evaluable":
        dom = self.domain
        if dom is not None and other.domain is not None:
            dom = dom.intersect(other.domain)
        return Evaluable(lambda z: self.fn(z) + other.fn(z), dom)

    def __sub__(self, other: "Evaluable") -> "Evaluable":
        dom = self.domain
        if dom is not None and other.domain is not None:
            dom = dom.intersect(other.domain)
        return Evaluable(lambda z: self.fn(z) - other.fn(z), dom)


def constant_evaluable(value: complex, domain: Cuboid | None = None) -> Evaluable:
    value = complex(value)
    return Evaluable(lambda z: value, domain)


@dataclass(frozen=True)
class SplitGeometry:
    """Seam at Re z_n = s with margin delta, slab height theta, slab extents
    [re_lo, re_hi] on the Re z_n axis, and base cuboid for the parameters.

    The integration segment runs upward from s - i(theta+delta) to
    s + i(theta+delta).
    """

    s: float
    delta: float
    theta: float
    re_lo: float
    re_hi: float
    base: Cuboid | None = None  # n-1 leading axes; None for n = 1

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("margin delta must be positive")
        if self.theta < 0:
            raise ValueError("height bound theta must be non-negative")
        if not (self.re_lo + self.delta <= self.s <= self.re_hi - self.delta):
            raise ValueError("seam must sit at least delta inside the slab extents")

    @property
    def height(self) -> float:
        return self.theta + self.delta

    @property
    def segment(self) -> tuple[complex, complex]:
        return (complex(self.s, -self.height), complex(self.s, self.height))

    @property
    def ndim(self) -> int:
        return 1 if self.base is None else self.base.ndim + 1

    def _slab(self, lo: float, hi: float) -> Cuboid:
        re = ((lo, hi),)
        im = ((-self.theta, self.theta),)
        if self.base is not None:
            re = self.base.re + re
            im = self.base.im + im
        return Cuboid(re, im)

    @property
    def left_slab(self) -> Cuboid:
        return self._slab(self.re_lo, self.s + self.delta)

    @property
    def right_slab(self) -> Cuboid:
        return self._slab(self.s - self.delta, self.re_hi)

    @property
    def overlap(self) -> Cuboid:
        return self._slab(self.s - self.delta, self.s + self.delta)


# -- node sets -----------------------------------------------------------


def _piece_nodes(a: complex, b: complex, spec: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Composite GL nodes and dz-weights for the straight piece a -> b."""
    x, w = np.polynomial.legendre.leggauss(spec.nodes)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    edges = np.linspace(0.0, 1.0, spec.panels + 1)
    ts = np.concatenate([edges[k] + (edges[k + 1] - edges[k]) * x for k in range(spec.panels)])
    ws = np.concatenate([(edges[k + 1] - edges[k]) * w for k in range(spec.panels)])
    zs = a + (b - a) * ts
    return zs, ws * (b - a)


class _PathQuad:
    """Fixed node set along a polyline, with a per-parameter density cache."""

    def __init__(self, pieces: Sequence[tuple[complex, complex]], spec: QuadratureSpec):
        zs, ws = [], []
        for a, b in pieces:
            z, w = _piece_nodes(a, b, spec)
            zs.append(z)
            ws.append(w)
        self.zs = np.concatenate(zs)
        self.ws = np.concatenate(ws)
        self._cache: dict = {}

    def density_values(self, phi: Callable, zp: tuple) -> np.ndarray:
        got = self._cache.get(zp)
        if got is None:
            got = np.array([phi(zp + (zeta,)) for zeta in self.zs], dtype=complex)
            self._cache[zp] = got
        return got

    def cauchy(self, values: np.ndarray, zn: complex) -> complex:
        return complex(np.sum(self.ws * values / (self.zs - zn)) / TWO_PI_I)


def _distance_to_segment(zn: complex, a: complex, b: complex) -> float:
    seg = b - a
    t = ((zn - a) / seg).real
    t = min(1.0, max(0.0, t))
    return abs(zn - (a + t * seg))


def cauchy_segment_integral(
    phi: Evaluable, geom: SplitGeometry, z: Sequence, spec: QuadratureSpec | None = None
) -> complex:
    """(1/2 pi i) * integral over the seam segment of phi(z', zeta)/(zeta - z_n)."""
    spec = spec or QuadratureSpec()
    z = tuple(complex(v) for v in z)
    zp, zn = z[:-1], z[-1]
    a, b = geom.segment
    if _distance_to_segment(zn, a, b) < 1e-13:
        raise OnContour(f"evaluation point {zn} lies on the integration segment")
    quad = _PathQuad([(a, b)], spec)
    values = quad.density_values(phi.fn, zp)
    return quad.cauchy(values, zn)


def cousin_split(phi: Evaluable, geom: SplitGeometry, spec: QuadratureSpec | None = None) -> tuple[Evaluable, Evaluable]:
    """Split phi across the seam: left and right branch functions whose
    difference equals phi on the overlap strip.

    The left branch integrates over the contour pushed right of the seam
    (valid for Re z_n < s + delta); near that contour it switches to the
    segment integral plus the jump term phi.  Mirrored for the right branch.
    """
    spec = spec or QuadratureSpec()
    s, d, h = geom.s, geom.delta, geom.height
    a, b = geom.segment
    right_path = [
        (complex(s, -h), complex(s + d, -h)),
        (complex(s + d, -h), complex(s + d, h)),
        (complex(s + d, h), complex(s, h)),
    ]
    left_path = [
        (complex(s, -h), complex(s - d, -h)),
        (complex(s - d, -h), complex(s - d, h)),
        (complex(s - d, h), complex(s, h)),
    ]
    pushed_right = _PathQuad(right_path, spec)
    pushed_left = _PathQuad(left_path, spec)
    seam_quad = _PathQuad([(a, b)], spec)

    def fn1(z):
        zp, zn = z[:-1], z[-1]
        if zn.real < s + d / 2:
            vals = pushed_right.density_values(phi.fn, zp)
            return pushed_right.cauchy(vals, zn)
        vals = seam_quad.density_values(phi.fn, zp)
        return seam_quad.cauchy(vals, zn) + phi.fn(z)

    def fn2(z):
        zp, zn = z[:-1], z[-1]
        if zn.real > s - d / 2:
            vals = pushed_left.density_values(phi.fn, zp)
            return pushed_left.cauchy(vals, zn)
        vals = seam_quad.density_values(phi.fn, zp)
        return seam_quad.cauchy(vals, zn) - phi.fn(z)

    return Evaluable(fn1, geom.left_slab), Evaluable(fn2, geom.right_slab)


def overlap_grid(geom: SplitGeometry, nx: int = 5, ny: int = 5, shrink: float = 0.9) -> list[tuple]:
    """Sample points of the overlap strip (base axes frozen at midpoints)."""
    zp = () if geom.base is None else geom.base.midpoint()
    res = np.linspace(geom.s - geom.delta * shrink, geom.s + geom.delta * shrink, nx)
    ims = np.linspace(-geom.theta * shrink, geom.theta * shrink, ny) if geom.theta > 0 else np.array([0.0])
    return [zp + (complex(r, i),) for r in res for i in ims]


# -- holomorphy residual -------------------------------------------------


def morera_residual(
    f: Evaluable,
    region: Cuboid,
    grid: int = 4,
    nodes: int = 12,
    axes: Sequence[int] | None = None,
) -> float:
    """Largest |closed rectangle integral of f dz_k| over a grid of small
    axis-parallel test rectangles, per complex axis with the other
    coordinates frozen at the region midpoint.

    Zero (up to quadrature noise) for holomorphic f; proportional to the
    test-rectangle area for anti-holomorphic contamination.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    mid = region.midpoint()
    worst = 0.0
    axes_iter = range(region.ndim) if axes is None else axes
    for k in axes_iter:
        rlo, rhi = region.re[k]
        ilo, ihi = region.im[k]
        if rhi <= rlo or ihi <= ilo:
            continue
        res = np.linspace(rlo, rhi, grid + 1)
        ims = np.linspace(ilo, ihi, grid + 1)
        for a in range(grid):
            for bdx in range(grid):
                corners = [
                    complex(res[a], ims[bdx]),
                    complex(res[a + 1], ims[bdx]),
                    complex(res[a + 1], ims[bdx + 1]),
                    complex(res[a], ims[bdx + 1]),
                ]
                total = 0j
                for c0, c1 in zip(corners, corners[1:] + corners[:1]):
                    zs = c0 + (c1 - c0) * x
                    vals = np.array(
                        [f.fn(mid[:k] + (zk,) + mid[k + 1:]) for zk in zs], dtype=complex
                    )
                    total += complex(np.sum(w * vals) * (c1 - c0))
                worst = max(worst, abs(total))
    return worst
