"""Division along coordinate axes: explicit cofactors for the ideal of
{z_1 = ... = z_q = 0}.

Splitting a series along one variable writes f = h*z_k + g with g free of
z_k; iterating over z_1,...,z_q yields f = sum h_j z_j + g_q, and f
vanishes on the subspace exactly when the remainder g_q is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CenterNotOnAxis
from .series import TruncatedSeries, _series, combine, negligible


@dataclass(frozen=True)
class CoordinateSubspace:
    """{z_1 = ... = z_q = 0} inside C^n (axes 0..q-1 constrained)."""

    dim: int
    codim: int

    def __post_init__(self):
        if not 1 <= self.codim <= self.dim:
            raise ValueError(f"codimension must satisfy 1 <= q <= n, got q={self.codim}, n={self.dim}")


@dataclass(frozen=True)
class CofactorVector:
    cofactors: tuple[TruncatedSeries, ...]
    remainder: TruncatedSeries

    def recombined(self) -> TruncatedSeries:
        """sum_j h_j * z_j + g_q, for checking against the original series."""
        g = self.remainder
        return combine(g, [(1, None, g), *((1, j, h) for j, h in enumerate(self.cofactors))])


def split_variable(f: TruncatedSeries, axis: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Write f = h*z_axis + g with g free of z_axis.

    Requires the center coordinate along ``axis`` to be zero, so that
    z_axis - b_axis = z_axis and the split is pure term surgery;
    ``series.times_variable`` puts h * z_axis back.
    """
    if not 0 <= axis < f.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.dim}")
    if not f.backend.is_zero(f.center[axis]):
        raise CenterNotOnAxis(f"center coordinate {axis} is nonzero")
    h_terms: dict = {}
    g_terms: dict = {}
    for exp, v in f.coeffs.items():
        if exp[axis] > 0:
            h_terms[exp[:axis] + (exp[axis] - 1,) + exp[axis + 1:]] = v
        else:
            g_terms[exp] = v
    # f's nonzero terms, exponents lowered but never below 0: canonical as they stand
    return _series(f, h_terms, f.order), _series(f, g_terms, f.order)


def ideal_cofactors(f: TruncatedSeries, subspace: CoordinateSubspace) -> CofactorVector:
    """Iterated split over z_1,...,z_q: f = sum h_j z_j + g_q."""
    if subspace.dim != f.dim:
        raise ValueError("subspace ambient dimension mismatch")
    cofactors = []
    g = f
    for axis in range(subspace.codim):
        h, g = split_variable(g, axis)
        cofactors.append(h)
    return CofactorVector(tuple(cofactors), g)


def is_member(f: TruncatedSeries, subspace: CoordinateSubspace) -> bool:
    """True iff f lies in the ideal (z_1,...,z_q), i.e. the remainder vanishes.

    On the floating backend the remainder coefficients are compared against
    the backend tolerance, relative to the largest coefficient of f.
    """
    return negligible(ideal_cofactors(f, subspace).remainder, f)
