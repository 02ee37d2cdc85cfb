"""okakit: constructive coordinate-ideal division, explicit syzygies,
seam splitting of holomorphic data, and slab-merge solvers for finite
principal-part and extension problems on cuboids."""

__version__ = "0.1.0"

from .cousin import Evaluable, QuadratureSpec, SplitGeometry, cauchy_segment_integral, cousin_split, morera_residual
from .cuboids import ConnectivityChain, Cuboid, SlabPartition, connected_chains, make_partition
from .division import CofactorVector, CoordinateSubspace, ideal_cofactors, is_member, split_variable
from .merge import (
    ChiProblem,
    ChiSolution,
    PoleTerm,
    PrincipalPartData,
    local_solution,
    ideal_witness,
    solve_chain,
    verify_solution,
)
from .scalars import EXACT, Backend, QQi, floating
from .series import TruncatedSeries, add, constant, evaluate, make_series, monomial, mul, recenter, scale, variable
from .syzygy import (
    GeneralSyzygyBasis,
    GeneratorPresentation,
    SyzygyVector,
    TrivialSolution,
    decompose_general_relation,
    decompose_relation,
    general_syzygy_generators,
    trivial_solutions,
    verify_relation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
