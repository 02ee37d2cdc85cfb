"""Axis-parallel cuboids in C^n, slab partitions along the last complex
axis, and maximal chains of slabs pairwise connected on a coordinate
subspace.

All geometry here is exact interval arithmetic on closed (possibly
degenerate) intervals; connectivity tests never sample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .division import CoordinateSubspace
from .errors import InvalidPartition
from .scalars import _number


@dataclass(frozen=True)
class Cuboid:
    """Per-complex-axis closed real intervals for Re and Im."""

    re: tuple[tuple[float, float], ...]
    im: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.re) != len(self.im):
            raise ValueError("re/im interval lists must have equal length")
        for lo, hi in list(self.re) + list(self.im):
            if hi < lo:
                raise ValueError(f"empty interval [{lo}, {hi}]")

    @property
    def ndim(self) -> int:
        """Number of complex axes."""
        return len(self.re)

    def slice_last(self, t: float) -> "Cuboid":
        """Slice {Re z_n = t}; drops the cuboid dimension by one at interior t."""
        lo, hi = self.re[-1]
        if not lo <= t <= hi:
            raise ValueError(f"slice position {t} outside [{lo}, {hi}]")
        return Cuboid(self.re[:-1] + ((t, t),), self.im)

    def with_last_re(self, lo: float, hi: float) -> "Cuboid":
        return Cuboid(self.re[:-1] + ((lo, hi),), self.im)

    def midpoint(self) -> tuple[complex, ...]:
        return tuple(
            complex((rlo + rhi) / 2, (ilo + ihi) / 2)
            for (rlo, rhi), (ilo, ihi) in zip(self.re, self.im)
        )

    def meets_subspace(self, s: CoordinateSubspace) -> bool:
        """Exact test for intersection with {z_1 = ... = z_q = 0}."""
        if s.dim != self.ndim:
            raise ValueError("subspace ambient dimension mismatch")
        for k in range(s.codim):
            if not (self.re[k][0] <= 0.0 <= self.re[k][1]):
                return False
            if not (self.im[k][0] <= 0.0 <= self.im[k][1]):
                return False
        return True

    def to_json(self) -> dict:
        return {"re": [list(p) for p in self.re], "im": [list(p) for p in self.im]}

    @staticmethod
    def from_json(data: dict) -> "Cuboid":
        """The cuboid of finite JSON numbers ``{"re": [[lo, hi], ...], "im": [...]}``."""
        return Cuboid(*(tuple((float(_number(lo)), float(_number(hi))) for lo, hi in data[key])
                        for key in ("re", "im")))


@dataclass(frozen=True)
class SlabPartition:
    """Partition of a cuboid into slabs by breakpoints on the last Re axis."""

    base: Cuboid
    breakpoints: tuple[float, ...]
    slabs: tuple[Cuboid, ...]

    @property
    def count(self) -> int:
        return len(self.slabs)

    def seam(self, alpha: int) -> float:
        """Re-position of the face shared by slabs alpha and alpha+1."""
        if not 0 <= alpha < self.count - 1:
            raise IndexError(f"no seam after slab {alpha}")
        return self.breakpoints[alpha]

    def face(self, alpha: int) -> Cuboid:
        """The overlap cuboid of slabs alpha and alpha+1 (a degenerate slab)."""
        t = self.seam(alpha)
        return self.base.slice_last(t)


@dataclass(frozen=True)
class ConnectivityChain:
    """Inclusive slab index range [start, stop] pairwise connected on S."""

    start: int
    stop: int

    @property
    def indices(self) -> range:
        return range(self.start, self.stop + 1)


def make_partition(base: Cuboid, breakpoints) -> SlabPartition:
    lo, hi = base.re[-1]
    pts = [float(t) for t in breakpoints]
    for a, b in zip(pts, pts[1:]):
        if not a < b:
            raise InvalidPartition("breakpoints must be strictly increasing")
    for t in pts:
        if not lo < t < hi:
            raise InvalidPartition(f"breakpoint {t} not interior to ({lo}, {hi})")
    edges = [lo] + pts + [hi]
    slabs = tuple(base.with_last_re(a, b) for a, b in zip(edges, edges[1:]))
    return SlabPartition(base, tuple(pts), slabs)


def connected_chains(partition: SlabPartition, subspace: CoordinateSubspace) -> list[ConnectivityChain]:
    """Maximal runs of consecutive slabs whose shared faces meet S."""
    chains = []
    start = 0
    for alpha in range(partition.count - 1):
        if not partition.face(alpha).meets_subspace(subspace):
            chains.append(ConnectivityChain(start, alpha))
            start = alpha + 1
    chains.append(ConnectivityChain(start, partition.count - 1))
    return chains
