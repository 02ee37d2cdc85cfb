"""Unit tests for cuboid geometry, slab partitions, and connectivity chains."""

import pytest

from okakit.cuboids import ConnectivityChain, Cuboid, connected_chains, make_partition
from okakit.division import CoordinateSubspace
from okakit.errors import InvalidPartition


def box(*pairs):
    """Cuboid from alternating (re_lo, re_hi), (im_lo, im_hi) pairs per axis."""
    re = tuple(pairs[::2])
    im = tuple(pairs[1::2])
    return Cuboid(re, im)


class TestCuboid:
    def test_dims(self):
        c = box((-1, 1), (-1, 1), (0, 0), (-2, 2))
        assert c.ndim == 2

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            box((1, -1), (0, 0))

    def test_slice_last_drops_dimension(self):
        c = box((-1, 1), (-1, 1), (-2, 2), (-1, 1))
        face = c.slice_last(0.5)
        assert face.re[-1] == (0.5, 0.5)
        with pytest.raises(ValueError):
            c.slice_last(5.0)

    def test_midpoint(self):
        c = box((0, 2), (-1, 1), (-4, 0), (1, 3))
        assert c.midpoint() == (1 + 0j, -2 + 2j)

    def test_meets_subspace(self):
        sub = CoordinateSubspace(2, 1)
        assert box((-1, 1), (-1, 1), (0, 3), (0, 0)).meets_subspace(sub)
        assert not box((0.5, 1), (-1, 1), (0, 3), (0, 0)).meets_subspace(sub)
        assert not box((-1, 1), (0.1, 1), (0, 3), (0, 0)).meets_subspace(sub)

    def test_json_round_trip(self):
        c = box((-1.5, 2.25), (-0.5, 0.5))
        assert Cuboid.from_json(c.to_json()) == c


class TestPartition:
    def test_widths_oracle(self):
        base = box((-1, 1), (-1, 1))
        part = make_partition(base, (-0.5, 0.25))
        widths = [hi - lo for (lo, hi) in (s.re[-1] for s in part.slabs)]
        assert widths == pytest.approx([0.5, 0.75, 0.75])
        assert part.count == 3
        assert part.seam(0) == -0.5
        assert part.seam(1) == 0.25

    def test_faces_are_degenerate(self):
        part = make_partition(box((-1, 1), (-1, 1)), (0.0,))
        face = part.face(0)
        assert face.re[-1] == (0.0, 0.0)

    def test_empty_breakpoints(self):
        part = make_partition(box((-1, 1), (-1, 1)), ())
        assert part.count == 1
        with pytest.raises(IndexError):
            part.seam(0)

    def test_invalid_breakpoints(self):
        base = box((-1, 1), (-1, 1))
        with pytest.raises(InvalidPartition):
            make_partition(base, (0.5, 0.25))
        with pytest.raises(InvalidPartition):
            make_partition(base, (1.5,))
        with pytest.raises(InvalidPartition):
            make_partition(base, (-1.0,))


class TestChains:
    def test_single_chain_when_all_faces_meet(self):
        base = box((-1, 1), (-1, 1), (-3, 3), (-1, 1))
        part = make_partition(base, (-1.0, 1.0))
        chains = connected_chains(part, CoordinateSubspace(2, 1))
        assert chains == [ConnectivityChain(0, 2)]
        assert list(chains[0].indices) == [0, 1, 2]

    def test_disjoint_subspace_gives_singletons(self):
        # first axis misses 0, so no face meets S and every slab is its own chain
        base = box((0.5, 1), (-1, 1), (-3, 3), (-1, 1))
        part = make_partition(base, (-1.0, 1.0))
        chains = connected_chains(part, CoordinateSubspace(2, 1))
        assert chains == [
            ConnectivityChain(0, 0),
            ConnectivityChain(1, 1),
            ConnectivityChain(2, 2),
        ]

    def test_chain_boundaries_follow_faces(self):
        # z1 interval straddles 0 only in re; im must also straddle 0
        base = box((-1, 1), (0.2, 1), (-3, 3), (-1, 1))
        part = make_partition(base, (0.0,))
        chains = connected_chains(part, CoordinateSubspace(2, 1))
        assert len(chains) == 2
