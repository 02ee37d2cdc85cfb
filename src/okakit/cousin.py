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

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .cuboids import Cuboid
from .errors import OnContour
from .evaluable import TWO_PI_I, Evaluable, row_blocks, sup_abs

# Limits on a QuadratureSpec: leggauss builds a nodes x nodes matrix, and a
# path fills one density value per contour node for each z' of a kernel block.
MAX_NODES = 100
MAX_PIECE_NODES = 1 << 12
# Limit on an overlap_grid, which builds its nx * ny points as one list.
MAX_GRID_POINTS = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre controls.

    ``panels`` equal panels of ``nodes`` points on every seam-long piece:
    the seam segment and the vertical piece of a pushed contour, both of
    length 2h = 2(theta + delta).  A shorter piece of length L gets
    max(1, ceil(panels * L / 2h)) panels, so no panel is longer than a
    seam panel; a pushed contour's two legs (L = delta <= h) get at most
    ceil(panels / 2) each.  A leg lies at least delta from every point and
    pole the solvers admit, twice the delta/2 between the vertical piece and
    the points it serves, so its Gauss error is at most the vertical piece's.
    A ``cousin-split`` request may set both; the solvers' seams split in
    closed form and use none.  ``nodes`` is at most MAX_NODES, and a
    seam-long piece has at most MAX_PIECE_NODES nodes (``panels * nodes``);
    the legs together get at most panels + 1 panels, so a pushed contour
    has at most about twice that.
    """

    panels: int = 6
    nodes: int = 10

    def __post_init__(self):
        if self.panels < 1 or self.nodes < 2:
            raise ValueError("need at least one panel and two nodes")
        if self.nodes > MAX_NODES:
            raise ValueError(f"at most {MAX_NODES} nodes per panel, got {self.nodes}")
        if self.panels * self.nodes > MAX_PIECE_NODES:
            raise ValueError(f"{self.panels} panels of {self.nodes} nodes put {self.panels * self.nodes} nodes "
                             f"on a seam-long contour piece; at most {MAX_PIECE_NODES} are allowed")


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
        if not math.isfinite(2 * self.height):  # the length of every seam-long contour piece
            raise ValueError(f"seam length 2 (theta + delta) is not finite: theta {self.theta}, delta {self.delta}")

    @property
    def height(self) -> float:
        return self.theta + self.delta

    @property
    def segment(self) -> tuple[complex, complex]:
        return (complex(self.s, -self.height), complex(self.s, self.height))

    @property
    def ndim(self) -> int:
        return 1 if self.base is None else self.base.ndim + 1


# -- node sets -----------------------------------------------------------


@lru_cache(maxsize=32)
def _unit_rule(panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite GL nodes and weights on [0, 1]: ``panels`` equal panels of
    ``nodes`` points, computed once per pair and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = (x + 1.0) / 2.0, w / 2.0
    edges = np.linspace(0.0, 1.0, panels + 1)
    ts = np.concatenate([edges[k] + (edges[k + 1] - edges[k]) * x for k in range(panels)])
    ws = np.concatenate([(edges[k + 1] - edges[k]) * w for k in range(panels)])
    ts.flags.writeable = ws.flags.writeable = False
    return ts, ws


def _path_nodes(pieces: Sequence[tuple[complex, complex, int]], nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite GL nodes and dz-weights along the straight pieces (a, b,
    panels)."""
    zs, ws = [], []
    for a, b, panels in pieces:
        t, w = _unit_rule(panels, nodes)
        zs.append(a + (b - a) * t)
        ws.append(w * (b - a))
    return np.concatenate(zs), np.concatenate(ws)


class _PathQuad:
    """The node set along a polyline of straight pieces (a, b, panels) for
    one density ``phi``."""

    def __init__(self, pieces: Sequence[tuple[complex, complex, int]], spec: QuadratureSpec, phi: Evaluable):
        self.zs, self.ws = _path_nodes(pieces, spec.nodes)
        self.phi = phi

    def weighted(self, zps: np.ndarray) -> np.ndarray:
        """w_j * phi(z', zeta_j) at every node zeta_j, one row per z' in ``zps``,
        from one ``values`` call: callers pass at most one kernel block's rows,
        so at most max(BLOCK_ENTRIES, nodes) points."""
        nodes = len(self.zs)
        pts = np.empty((len(zps), nodes, zps.shape[1] + 1), dtype=complex)
        pts[:, :, :-1] = zps[:, None, :]
        pts[:, :, -1] = self.zs
        return self.ws * self.phi.values(pts.reshape(len(zps) * nodes, -1)).reshape(len(zps), nodes)

    def cauchy(self, P: np.ndarray) -> np.ndarray:
        """(1/2 pi i) * sum_j w_j phi(z', zeta_j) / (zeta_j - z_n) per row z
        of P, in row blocks of at most BLOCK_ENTRIES kernel entries."""
        def block(rows):
            zp = P[rows, :-1]
            # a run of equal z' shares one row of weighted densities
            new = np.ones(len(zp), dtype=bool)
            new[1:] = (zp[1:] != zp[:-1]).any(axis=1)
            wd = self.weighted(zp[new])
            wd = wd if len(wd) == 1 else wd[np.cumsum(new) - 1]
            return (wd / (self.zs - P[rows, -1, None])).sum(axis=-1)
        return row_blocks(len(P), len(self.zs), block) / TWO_PI_I


def distance_to_segment(zn: complex, a: complex, b: complex) -> float:
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
    zn = z[-1]
    a, b = geom.segment
    if distance_to_segment(zn, a, b) < 1e-13:
        raise OnContour(f"evaluation point {zn} lies on the integration segment")
    quad = _PathQuad([(a, b, spec.panels)], spec, phi)
    return complex(quad.cauchy(np.array([z]))[0])


def split_contours(geom: SplitGeometry, spec: QuadratureSpec) -> tuple[list, list, list]:
    """The straight pieces (a, b, panels) of the seam segment and of the
    contours pushed to Re = s + delta (the left branch's) and s - delta (the
    right branch's), with the panel counts ``spec`` gives them."""
    s, d, h = geom.s, geom.delta, geom.height
    # Each leg (length delta <= h) gets panels in proportion to its length;
    # a ratio within 1e-9 of a whole number counts as that number, so float
    # rounding never adds a panel.
    leg = max(1, math.ceil(round(spec.panels * (d / (2 * h)), 9)))  # d / 2h <= 1/2: no overflow

    def pushed_to(x: float) -> list:
        """The segment's endpoints joined through Re = x: a leg of length
        delta, the vertical piece of length 2h, and a leg back."""
        corners = [complex(s, -h), complex(x, -h), complex(x, h), complex(s, h)]
        return list(zip(corners, corners[1:], (leg, spec.panels, leg)))

    return [(*geom.segment, spec.panels)], pushed_to(s + d), pushed_to(s - d)


def cousin_split(phi: Evaluable, geom: SplitGeometry,
                 spec: QuadratureSpec | None = None) -> tuple[Evaluable, Evaluable]:
    """Split phi across the seam: left and right branch functions whose
    difference equals phi on the overlap strip.

    The left branch integrates over the contour pushed right of the seam
    (valid for Re z_n < s + delta); near that contour it switches to the
    segment integral plus the jump term phi.  Mirrored for the right branch.
    The contours are ``split_contours(geom, spec)``.
    """
    spec = spec or QuadratureSpec()
    s, d = geom.s, geom.delta
    seam, left, right = split_contours(geom, spec)
    seam_quad = _PathQuad(seam, spec, phi)

    def branch(pushed: _PathQuad, lo: float, hi: float, jump: Callable) -> Evaluable:
        def many(P):
            near = (P[:, -1].real <= lo) | (P[:, -1].real >= hi)
            if not near.any():  # every row away from the pushed contour: P itself, uncopied
                return pushed.cauchy(P)
            out = np.empty(len(P), dtype=complex)
            if not near.all():
                out[~near] = pushed.cauchy(P[~near])
            Q = P[near]
            out[near] = jump(seam_quad.cauchy(Q), phi.values(Q))
            return out

        return Evaluable.batched(many)

    return (branch(_PathQuad(left, spec, phi), -math.inf, s + d / 2, np.add),
            branch(_PathQuad(right, spec, phi), s - d / 2, math.inf, np.subtract))


def overlap_grid(geom: SplitGeometry, nx: int = 5, ny: int = 5) -> list[tuple]:
    """Sample points of the overlap strip shrunk by 0.9 about the seam (base
    axes frozen at midpoints)."""
    if min(nx, ny) < 1:
        raise ValueError("an overlap grid needs at least one point along each axis")
    if nx * ny > MAX_GRID_POINTS:
        raise ValueError(f"an overlap grid of {nx} x {ny} points is larger than {MAX_GRID_POINTS}")
    zp = () if geom.base is None else geom.base.midpoint()
    res = np.linspace(geom.s - geom.delta * 0.9, geom.s + geom.delta * 0.9, nx)
    ims = np.linspace(-geom.theta * 0.9, geom.theta * 0.9, ny) if geom.theta > 0 else np.array([0.0])
    return [zp + (complex(r, i),) for r in res for i in ims]


# -- holomorphy residual -------------------------------------------------


def morera_residual(
    f: Evaluable,
    region: Cuboid,
    grid: int = 4,
    nodes: int = 12,
) -> float:
    """Largest |closed rectangle integral of f dz_k| over a grid of small
    axis-parallel test rectangles, per complex axis with the other
    coordinates frozen at the region midpoint.

    Zero (up to quadrature noise) for holomorphic f; proportional to the
    test-rectangle area for anti-holomorphic contamination.  Each edge of
    the grid is integrated once and shared by the rectangles on either
    side; all edge nodes of one axis go to f in one ``values`` call.
    """
    x, w = _unit_rule(1, nodes)
    mid = region.midpoint()
    worst = []
    for k in range(region.ndim):
        rlo, rhi = region.re[k]
        ilo, ihi = region.im[k]
        if rhi <= rlo or ihi <= ilo:
            continue
        # corners[a, b] = res[a] + i ims[b]; g(g+1) horizontal edges, then g(g+1) vertical ones
        corners = np.add.outer(np.linspace(rlo, rhi, grid + 1), 1j * np.linspace(ilo, ihi, grid + 1))
        starts = np.concatenate([corners[:-1].ravel(), corners[:, :-1].ravel()])
        sides = np.concatenate([np.diff(corners, axis=0).ravel(), np.diff(corners, axis=1).ravel()])
        zs = starts[:, None] + sides[:, None] * x
        P = np.empty((zs.size, region.ndim), dtype=complex)
        P[:] = mid
        P[:, k] = zs.reshape(-1)
        vals = f.values(P).reshape(zs.shape)
        edges = np.sum(w * vals, axis=-1) * sides
        h = edges[:grid * (grid + 1)].reshape(grid, grid + 1)
        v = edges[grid * (grid + 1):].reshape(grid + 1, grid)
        # rectangle (a, b): bottom + right - top - left
        total = h[:, :-1] + v[1:] - h[:, 1:] - v[:-1]
        worst.append(sup_abs(total))
    return sup_abs(worst)
