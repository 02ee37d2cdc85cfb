"""Merging local solutions across a slab partition.

Two problem kinds share one engine.  For principal-part (Cousin-I) data the
local solution on a slab is the finite sum of its pole terms; for
holomorphic extension from a coordinate subspace it is the cylinder
extension of the target (possibly perturbed within the ideal).  At every
seam the difference of the two sides is holomorphic on the margin strip
(for extension: a polynomial multiple of the subspace generators, with
explicit cofactors), gets split by the seam contour integrals, and the two
halves are absorbed into the respective sides.  Chains of slabs pairwise
connected on the subspace are solved independently, left to right by
default.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .cousin import (
    MAX_PIECE_NODES,
    Evaluable,
    QuadratureSpec,
    SplitGeometry,
    constant_evaluable,
    cousin_split,
    distance_to_segment,
    fused_sums,
    gauss_error,
    longest_panel,
    morera_residual,
    split_contours,
    sup_abs,
)
from .cuboids import ConnectivityChain, Cuboid, SlabPartition, connected_chains, make_partition
from .division import CoordinateSubspace, ideal_cofactors
from .errors import (
    NotHolomorphicDifference,
    NotInIdeal,
    PoleTooCloseToSeam,
)
from .series import TruncatedSeries, complex_evaluator, make_series, negligible


def series_evaluable(f: TruncatedSeries) -> Evaluable:
    return Evaluable.batched(complex_evaluator(f))


# -- problem data --------------------------------------------------------


@dataclass(frozen=True)
class PoleTerm:
    """c(z') * (z_n - p(z'))^(-k) with polynomial coefficient and locus."""

    order: int
    coeff: TruncatedSeries  # dim n-1
    locus: TruncatedSeries  # dim n-1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("pole order must be >= 1")


@dataclass(frozen=True)
class PrincipalPartData:
    terms: tuple[PoleTerm, ...]

    def evaluable(self) -> Evaluable:
        terms = [(t.order, complex_evaluator(t.coeff), complex_evaluator(t.locus)) for t in self.terms]

        def values(zp):
            return [(order, coeff(zp), locus(zp)) for order, coeff, locus in terms]

        # dim-0 coefficients and loci are constants: one call's values serve every call
        folded = values(np.empty((1, 0))) if all(t.coeff.dim == t.locus.dim == 0 for t in self.terms) else None

        def many(P):
            zp, zn = P[:, :-1], P[:, -1]
            acc = np.zeros(len(P), dtype=complex)
            for order, coeff, locus in folded or values(zp):
                acc = acc + coeff / (zn - locus) ** order
            return acc

        return Evaluable.batched(many)


@dataclass(frozen=True)
class ChiProblem:
    kind: str  # "cousin1" | "extension"
    cuboid: Cuboid
    breakpoints: tuple[float, ...] = ()
    data: tuple[PrincipalPartData, ...] | None = None
    codim: int | None = None
    target: TruncatedSeries | None = None
    local_overrides: tuple[TruncatedSeries, ...] | None = None
    delta: float | None = None
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    tol: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("cousin1", "extension"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        ilo, ihi = self.cuboid.im[-1]
        if abs(ilo + ihi) > 1e-12:
            raise ValueError("last-axis Im interval must be symmetric about 0")
        if self.kind == "cousin1":
            if self.data is None or len(self.data) != len(self.breakpoints) + 1:
                raise ValueError("cousin1 needs one principal-part datum per slab")
        else:
            if self.codim is None or self.target is None:
                raise ValueError("extension needs a codimension and a target")
            CoordinateSubspace(self.ndim, self.codim)  # 1 <= codim <= n, or a ValueError
            for axis in range(self.codim):
                if self.target.depends_on(axis):
                    raise ValueError("target must not depend on the constrained variables")
            if self.local_overrides is not None and len(self.local_overrides) != len(self.breakpoints) + 1:
                raise ValueError("need one local override per slab")
        # every seam then sits at least delta inside its chain, as SplitGeometry requires
        if self.delta is not None and not 0 < self.delta <= min(self._slab_widths()):
            raise ValueError("seam margin delta must be positive and at most the narrowest slab width")
        if not self.tol > 0:  # the panel rule aims at tol / 10
            raise ValueError(f"tolerance must be positive, got {self.tol}")

    @property
    def ndim(self) -> int:
        return self.cuboid.ndim

    @cached_property
    def partition(self) -> SlabPartition:
        return make_partition(self.cuboid, self.breakpoints)

    @property
    def subspace(self) -> CoordinateSubspace | None:
        if self.kind == "extension":
            return CoordinateSubspace(self.ndim, self.codim)
        return None

    @property
    def theta(self) -> float:
        return self.cuboid.im[-1][1]

    def _slab_widths(self) -> list[float]:
        return [hi - lo for lo, hi in (slab.re[-1] for slab in self.partition.slabs)]

    def seam_margin(self) -> float:
        if self.delta is not None:
            return self.delta
        return 0.05 * min(self._slab_widths())

    def slab_poly(self, alpha: int) -> TruncatedSeries | None:
        if self.kind != "extension":
            return None
        if self.local_overrides is not None:
            return self.local_overrides[alpha]
        return self.target


# -- local solutions -----------------------------------------------------


def _at(f: TruncatedSeries, zp: tuple) -> complex:
    return complex(complex_evaluator(f)(np.array([zp], dtype=complex))[0])


def _poles(problem: ChiProblem, alpha: int) -> list[tuple[PoleTerm, tuple, complex]]:
    """(term, z', p) for every term of slab alpha's principal part: p is the
    term's locus at the slab's midpoint z'."""
    zp = problem.partition.slabs[alpha].midpoint()[:-1]
    return [(term, zp, _at(term.locus, zp)) for term in problem.data[alpha].terms]


def _majorant(f: TruncatedSeries, radii: tuple, constant: bool = True) -> float:
    """sum |a_e| prod r_i^e_i over the terms of f (without the constant term
    unless ``constant``): a bound on |f(z') - f(c)|, or on |f(z')| with the
    constant, for |z'_i - c_i| <= r_i."""
    return sum(abs(v) * math.prod(r ** k for r, k in zip(radii, e))
               for e, v in f.coeffs.items() if constant or any(e))


def _pole_discs(problem: ChiProblem, alpha: int) -> list[tuple[int, float, complex, float]]:
    """(order, coefficient bound, centre, radius) for every term of slab
    alpha's principal part: over the base cuboid the term's locus stays in
    the disc and its coefficient's modulus under the bound (majorants about
    each series' centre; for n = 1 the locus is a point)."""
    cub = problem.cuboid

    def reach(f: TruncatedSeries) -> tuple:  # per base axis, the farthest corner of its rectangle from f's centre
        return tuple(max(abs(complex(re, im) - complex(c)) for re in cub.re[i] for im in cub.im[i])
                     for i, c in enumerate(f.center))

    return [(t.order, _majorant(t.coeff, reach(t.coeff)),
             complex(t.locus.coefficient((0,) * t.locus.dim)), _majorant(t.locus, reach(t.locus), False))
            for t in problem.data[alpha].terms]


def local_solution(problem: ChiProblem, alpha: int) -> Evaluable:
    """The slab's own solution: its principal-part sum, or the cylinder
    extension of the target (or the supplied override)."""
    if problem.kind == "cousin1":
        delta = problem.seam_margin()
        rlo, rhi = problem.partition.slabs[alpha].re[-1]
        for _, _, p in _poles(problem, alpha):
            if not (rlo - 1e-12 <= p.real <= rhi + 1e-12) or abs(p.imag) > problem.theta:
                raise PoleTooCloseToSeam(
                    f"pole at {p} lies outside slab {alpha}"
                )
            for edge in (rlo, rhi):
                if abs(p.real - edge) < delta:
                    raise PoleTooCloseToSeam(
                        f"pole at {p} within margin {delta} of a slab edge"
                    )
        return problem.data[alpha].evaluable()
    return series_evaluable(problem.slab_poly(alpha))


def seam_difference(a: Evaluable, b: Evaluable, overlap: Cuboid, tol: float = 1e-8) -> Evaluable:
    """a - b, asserted holomorphic on the overlap via the Morera residual.

    The dense default rule keeps the quadrature noise of nearby poles (data
    may sit just outside the seam strip) well below the tolerance.
    """
    diff = a - b
    residual = morera_residual(diff, overlap, grid=3, nodes=24)
    if residual > tol:
        raise NotHolomorphicDifference(
            f"seam difference residual {residual:.3e} exceeds {tol:.3e}", residual=residual
        )
    return diff


def ideal_witness(h: TruncatedSeries, subspace: CoordinateSubspace) -> list[TruncatedSeries]:
    """Cofactors a_j with h = sum a_j z_j, exact on the polynomial form."""
    cof = ideal_cofactors(h, subspace)
    if not negligible(cof.remainder, h):
        raise NotInIdeal("difference does not vanish on the subspace")
    return list(cof.cofactors)


# -- chain states --------------------------------------------------------


@dataclass(frozen=True)
class _Branch:
    """A slab's local solution plus its corrections (``cousin_split``
    branches).  A cousin1 correction has key None and is a function on C^n;
    an extension correction has key (axis, c', m) and is a function b(z_n)
    of the last coordinate alone, standing for (z' - c')^m * b(z_n) * z_axis.

    ``disc`` = (c, R) is the slab's far-field disc: c is the centre of its
    z_n rectangle and R the half-diagonal of that rectangle grown by delta
    on Re, so the seam overlaps lie inside.  It is None when the seams split
    with a base (n >= 2 cousin1), whose corrections depend on z'.  Otherwise
    the corrections compile, on the first evaluation, into ``fused_sums``,
    one linear map over the keys, which the rows in the disc and outside
    every seam band sum; all other rows sum each correction directly.
    """

    local: Evaluable
    local_poly: TruncatedSeries | None
    disc: tuple[complex, float] | None
    corrections: tuple[tuple[tuple | None, Evaluable], ...] = ()

    @cached_property
    def _direct(self) -> tuple[list, Callable]:
        """(keys, columns) summing every correction on its own."""
        cs = self.corrections  # not self: a reference cycle would outlive the last use of the branch
        return [key for key, _ in cs], lambda Q: (e.values(Q) for _, e in cs)

    @cached_property
    def _compiled(self) -> tuple | None:
        """((lo, hi), keys, columns) for the disc rows with lo < Re z_n < hi
        (a far correction's band misses the disc), or None if none fuse."""
        cs = self.corrections
        if self.disc is None or not cs:
            return None
        keys: dict = {}
        for key, e in cs:
            keys.setdefault(key, []).append(e)
        band = (max(e.valid_re[0] for _, e in cs), min(e.valid_re[1] for _, e in cs))
        return band, list(keys), fused_sums(list(keys.values()), *self.disc)

    def correction_values(self, P: np.ndarray) -> np.ndarray:
        compiled = self._compiled
        if compiled is None:
            return _sum_corrections(P, *self._direct)
        (lo, hi), *fused = compiled
        center, radius = self.disc
        if len(P) == 1:  # the same test on Python floats; x * x gives inf where x ** 2 raises
            z = complex(P[0, -1])
            d = z - center
            inside = d.real * d.real + d.imag * d.imag < radius ** 2 and lo < z.real < hi
            return _sum_corrections(P, *(fused if inside else self._direct))
        d = P[:, -1] - center
        rows = (d.real ** 2 + d.imag ** 2 < radius ** 2) & (lo < P[:, -1].real) & (P[:, -1].real < hi)
        if rows.all():  # every row a merged solution routes here
            return _sum_corrections(P, *fused)
        out = np.empty(len(P), dtype=complex)
        for sel, terms in ((~rows, self._direct), (rows, fused)):
            if sel.any():
                out[sel] = _sum_corrections(P[sel], *terms)
        return out

    def values(self, P: np.ndarray) -> np.ndarray:
        return self.local.values(P) + self.correction_values(P)


def _sum_corrections(P: np.ndarray, keys: list, columns: Callable) -> np.ndarray:
    """The sum of the columns of ``columns``, one per key in ``keys``.  With
    key None a column is a function on C^n, taken at the rows of P; with key
    (axis, c', m) it is a function b(z_n), taken once per distinct z_n of P
    and added as (z' - c')^m * b(z_n) * z_axis; in a batch, rows where every
    key's z_axis is 0 get 0 and take no part."""
    acc = np.zeros(len(P), dtype=complex)
    if not keys or keys[0] is None:  # cousin1: every key is None
        for col in columns(P):
            acc = acc + col
        return acc
    zn, inv, monomials = P[:, -1], slice(None), {}
    if len(P) > 1:
        # rows with z_axis = 0 for every key (on S) add finite * 0: they take no correction
        live = P[:, sorted({axis for axis, _, _ in keys})].any(axis=1)
        if not live.all():
            if live.any():
                acc[live] = _sum_corrections(P[live], keys, columns)
            return acc
        # each b(z_n) is summed once per distinct z_n, then scattered back to the rows
        zn, inv = np.unique(zn, return_inverse=True)
    for key, col in zip(keys, columns(zn[:, None])):
        axis, center, m = key
        if key not in monomials:
            monomials[key] = ((P[:, :-1] - center) ** m).prod(axis=1)
        acc = acc + monomials[key] * col[inv] * P[:, axis]
    return acc


@dataclass
class ChainState:
    """Piecewise representation of a (partially) merged solution."""

    branches: list[_Branch]
    seams: list[float]  # Re positions separating consecutive branches

    def values(self, P: np.ndarray) -> np.ndarray:
        """Each row of P evaluated on the branch its Re z_n falls in.  One
        row takes a short path: ``bisect`` on the Python float picks the
        branch ``searchsorted`` would, NaN included, with the same bits."""
        if len(P) == 1:
            return self.branches[bisect.bisect_right(self.seams, P[0, -1].real)].values(P)
        idx = np.searchsorted(self.seams, P[:, -1].real, side="right")
        ks = np.flatnonzero(np.bincount(idx))
        if len(ks) == 1:
            return self.branches[ks[0]].values(P)
        out = np.empty(len(P), dtype=complex)
        for k in ks:
            rows = idx == k
            out[rows] = self.branches[k].values(P[rows])
        return out

    def evaluable(self) -> Evaluable:
        return Evaluable.batched(self.values)

    def branch_correction(self, idx: int) -> Evaluable:
        return Evaluable.batched(self.branches[idx].correction_values)


def _singleton_state(problem: ChiProblem, alpha: int) -> ChainState:
    slab = problem.partition.slabs[alpha]
    (rlo, rhi), (ilo, ihi) = slab.re[-1], slab.im[-1]
    disc = None  # merge_pair splits n >= 2 cousin1 seams with a base
    if problem.kind == "extension" or problem.ndim == 1:
        disc = (complex((rlo + rhi) / 2, (ilo + ihi) / 2),
                math.hypot((rhi - rlo) / 2 + problem.seam_margin(), (ihi - ilo) / 2))
    return ChainState([_Branch(local_solution(problem, alpha), problem.slab_poly(alpha), disc)], [])


def _zn_coefficients(axis: int, w: TruncatedSeries) -> dict:
    """w = sum_m (z' - c')^m * w_m(z_n) as {(axis, c', m): w_m}, each w_m
    an exact polynomial in z_n centered at c_n."""
    groups: dict = {}
    for exp, v in w.coeffs.items():
        groups.setdefault(exp[:-1], {})[exp[-1:]] = v
    center = tuple(complex(c) for c in w.center[:-1])
    return {(axis, center, m): make_series(1, terms, backend=w.backend, center=w.center[-1:])
            for m, terms in groups.items()}


def merge_pair(left: ChainState, right: ChainState, geom: SplitGeometry,
               problem: ChiProblem, spec: QuadratureSpec | None = None) -> ChainState:
    """Merge two adjacent partial solutions across the seam of ``geom``.

    The seam densities are split with the Cousin contours, on ``spec``'s
    panels (``problem.quad`` by default); the left halves are added to every
    left branch and the right halves to every right branch, so the two sides
    agree on the seam strip.  A cousin1 density rb - lb is a finite sum of
    principal parts and Cauchy sums, holomorphic on the seam strip by
    construction.  An extension seam density sum_j z_j * w_j is polynomial
    in z', so it is split one z'-coefficient at a time, as a function of z_n
    alone (n = 1 splits); the next seam's density for a coefficient adds the
    earlier corrections of that coefficient.
    """
    spec = spec or problem.quad
    lb = left.branches[-1]
    rb = right.branches[0]
    if problem.kind == "extension":
        geom = replace(geom, base=None)
        densities: dict = {}
        for axis, w in enumerate(ideal_witness(rb.local_poly - lb.local_poly, problem.subspace)):
            for key, wm in _zn_coefficients(axis, w).items():
                densities[key] = series_evaluable(wm)
        zero = constant_evaluable(0)
        for key, e in rb.corrections:
            densities[key] = densities.get(key, zero) + e
        for key, e in lb.corrections:
            densities[key] = densities.get(key, zero) - e
    else:
        densities = {None: Evaluable.batched(rb.values) - Evaluable.batched(lb.values)}
    halves = [(key, cousin_split(density, geom, spec)) for key, density in densities.items()]
    new_left = tuple((key, h[0]) for key, h in halves)
    new_right = tuple((key, h[1]) for key, h in halves)
    return ChainState([replace(b, corrections=b.corrections + new_left) for b in left.branches]
                      + [replace(b, corrections=b.corrections + new_right) for b in right.branches],
                      left.seams + [geom.s] + right.seams)


def seam_quadrature(problem: ChiProblem, geom: SplitGeometry, discs: list) -> tuple[QuadratureSpec, dict]:
    """The seam's quadrature, with panels from the pole table, and its report
    entry {s, panels, nodes, bound}.

    For every straight piece of the seam's contours (``split_contours``: the
    segment, the two pushed contours and their legs), d is the least
    distance from a locus disc of ``discs`` (``_pole_discs`` of the two slabs
    at the seam) to the piece, and M = max(1, sum_t C_t / d_t^k_t) over the
    terms t bounds the density there.  The seam gets the fewest panels, at
    least ``problem.quad.panels``, that keep every panel of every piece
    within its ``longest_panel`` for a Gauss error of tol / 10: a leg's
    panels are never longer than the seam-long pieces'.  More than
    MAX_PIECE_NODES nodes on a seam-long piece raise ``PoleTooCloseToSeam``.
    ``panels`` is the seam-long pieces' count, ``nodes`` the Gauss nodes of
    the three contours and ``bound`` the largest ``gauss_error`` of a piece.
    Extension densities have no poles: their seams keep ``problem.quad``,
    with bound 0.
    """
    quad, h = problem.quad, geom.height
    pieces = []
    for a, b, _ in (piece for contour in split_contours(geom, quad) for piece in contour):
        dists = [distance_to_segment(c, a, b) - r for _, _, c, r in discs]
        d = min(dists, default=math.inf)
        M = max(1.0, sum(C / dt ** k for (k, C, _, _), dt in zip(discs, dists))) if d > 0 else math.inf
        pieces.append((d, M))
    ell = min(longest_panel(d, M, quad.nodes, problem.tol / 10) if d > 0 else 0.0 for d, M in pieces)
    panels = max(quad.panels, math.ceil(min(2 * h / ell if ell > 0 else math.inf, MAX_PIECE_NODES)))
    if panels * quad.nodes > MAX_PIECE_NODES:
        raise PoleTooCloseToSeam(f"a pole comes within {max(0.0, min(d for d, _ in pieces)):.3g} of a contour of "
                                 f"the seam at {geom.s}: more than {MAX_PIECE_NODES} Gauss nodes on a seam-long "
                                 f"piece would be needed")
    spec = replace(quad, panels=panels)
    contours = [piece for contour in split_contours(geom, spec) for piece in contour]
    bound = max((gauss_error(abs(b - a) / k, d, M, quad.nodes) for (a, b, k), (d, M) in zip(contours, pieces)
                 if d < math.inf), default=0.0)
    return spec, {"s": geom.s, "panels": panels, "nodes": quad.nodes * sum(k for *_, k in contours), "bound": bound}


# -- solving and verification -------------------------------------------


@dataclass
class ChiSolution:
    chain: ConnectivityChain
    solution: Evaluable
    corrections: list[Evaluable]
    region: Cuboid
    report: dict | None = None
    seam_quadrature: list[dict] = field(default_factory=list)  # ``seam_quadrature`` entries, in seam order


def _solve_one_chain(problem: ChiProblem, chain: ConnectivityChain, order: str) -> ChiSolution:
    if order not in ("ltr", "rtl"):
        raise ValueError(f"unknown merge order {order!r}")
    slabs = problem.partition.slabs
    region = problem.cuboid.with_last_re(slabs[chain.start].re[-1][0], slabs[chain.stop].re[-1][1])
    lo, hi = region.re[-1]
    base = None
    if problem.ndim > 1:
        base = Cuboid(region.re[:-1], region.im[:-1])
    states = [_singleton_state(problem, alpha) for alpha in chain.indices]
    discs = [_pole_discs(problem, alpha) if problem.kind == "cousin1" else [] for alpha in chain.indices]
    acc = states[0]
    # seam chain.start + k joins states k and k + 1; the merge replaces both
    seams = range(len(states) - 1)
    quadrature = [None] * len(seams)
    for k in seams if order == "ltr" else reversed(seams):
        geom = SplitGeometry(s=problem.partition.seam(chain.start + k), delta=problem.seam_margin(),
                             theta=problem.theta, re_lo=lo, re_hi=hi, base=base)
        spec, quadrature[k] = seam_quadrature(problem, geom, discs[k] + discs[k + 1])
        acc = states[k] = states[k + 1] = merge_pair(states[k], states[k + 1], geom, problem, spec)
    return ChiSolution(
        chain=chain,
        solution=acc.evaluable(),
        corrections=[acc.branch_correction(k) for k in range(len(chain.indices))],
        region=region,
        seam_quadrature=quadrature,
    )


def chain_decomposition(problem: ChiProblem) -> list[ConnectivityChain]:
    partition = problem.partition
    if problem.kind == "extension":
        return connected_chains(partition, problem.subspace)
    return [ConnectivityChain(0, partition.count - 1)]


def solve_chain(problem: ChiProblem, order: str = "ltr", verify: bool = True) -> list[ChiSolution]:
    """Solve every maximal connected chain of the partition; one solution each."""
    sols = [_solve_one_chain(problem, c, order) for c in chain_decomposition(problem)]
    if verify:
        for sol in sols:
            sol.report = verify_solution(sol, problem)
    return sols


def _ring(pole: complex, radius: float, zp: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The 64 points (z', pole + radius e^(i t)) of a residue circle, and
    their offsets from the pole."""
    d = radius * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    return np.array([zp + (zn,) for zn in (pole + d).tolist()]), d


def _ring_coefficient(vals: np.ndarray, d: np.ndarray, order: int) -> complex:
    """The trapezoidal (1/2 pi i) circle integral of f (z_n - pole)^(order-1) dz_n
    from f's values on ``_ring``'s points."""
    return complex(np.sum(vals * d ** (order - 1) * d) / 64)


def extract_principal_coefficient(f: Evaluable, pole: complex, order: int,
                                  radius: float, zp: tuple = ()) -> complex:
    """(1/2 pi i) * circle integral of f(z)*(z_n - pole)^(order-1) dz_n,
    by the trapezoidal rule on 64 points."""
    P, d = _ring(pole, radius, zp)
    return _ring_coefficient(f.values(P), d, order)


def verify_solution(sol: ChiSolution, problem: ChiProblem) -> dict:
    """Checkable form of the solution property.

    Both kinds: every branch is holomorphic on its routed region by
    construction: a cousin1 branch is its slab's principal part plus Cauchy
    sums whose nodes all lie at least delta outside that region (and
    far-field Taylor polynomials), so it is meromorphic there with the
    data's poles alone; an extension branch is a polynomial plus such sums.
    A solution continuous across every seam is then holomorphic (for
    cousin1: off the poles) on the chain (Morera).  ``seam_jumps`` gives,
    per seam s, the sup of |sol(z', s^- + iy) - sol(z', s + iy)| over 61 y
    in [-theta, theta] and the diagonal corners z' of the base cuboid
    (every axis at lo + i lo, hi + i hi, lo + i hi or hi + i lo: off S for
    extension), and every jump must be at most tol.  ``seam_quadrature``
    holds each seam's panels and Gauss error estimate, as the solve chose
    them (``seam_quadrature``).  ``patch_morera`` stays an empty list.

    cousin1: principal coefficients re-extracted by contour integrals around
    each pole must match the prescribed ones; for n >= 2 both the pole and
    its coefficient are taken at the slab's midpoint z', where the contour is
    drawn.  extension: the solution restricted to the subspace must match
    the target on a sample grid of Re z_n on each slice Im z_n in
    ``subspace_slices`` (0 and +/- 0.9 theta; for q = n at the origin
    alone); a chain region that misses S lists that check in
    ``skipped_checks``.
    """
    tol, n, region = problem.tol, problem.ndim, sol.region
    report: dict = {"kind": problem.kind, "chain": [sol.chain.start, sol.chain.stop], "skipped_checks": [],
                    "patch_morera": [], "seam_quadrature": sol.seam_quadrature}
    # Re z_n = s^-, the float below s, routes to the left branch and s to the right one
    seams = np.array([(np.nextafter(s, -np.inf), s) for s in map(problem.partition.seam, sol.chain.indices[:-1])])
    corners = list(dict.fromkeys(tuple(complex(re[a], im[b]) for re, im in zip(region.re[:-1], region.im[:-1]))
                                 for a, b in ((0, 0), (1, 1), (0, 1), (1, 0))))
    P = np.empty((len(seams), 2, len(corners), 61, n), dtype=complex)
    P[..., :-1] = np.reshape(corners, (len(corners), 1, n - 1))
    P[..., -1] = seams.reshape(-1, 2, 1, 1) + 1j * np.linspace(-problem.theta, problem.theta, 61)
    sides = sol.solution.values(P.reshape(-1, n)).reshape(len(seams), 2, len(corners) * 61)
    report["seam_jumps"] = [sup_abs(left - right) for left, right in sides]
    ok = all(v <= tol for v in report["seam_jumps"])
    if problem.kind == "cousin1":
        delta = problem.seam_margin()
        poles = [(alpha, *pole) for alpha in sol.chain.indices for pole in _poles(problem, alpha)]
        rings = []
        for alpha, term, zp, p in poles:
            # terms at one position are one principal part: only other positions bound the circle
            sep = min((abs(p - q) for *_, q in poles if q != p), default=np.inf)
            radius = min(delta / 2, 0.45 * sep)
            if problem.theta > 0:
                radius = min(radius, max(problem.theta - abs(p.imag), delta / 4))
            rings.append(_ring(p, radius, zp))
        # every ring in one call: the rows are those each ring would pass on its own
        vals = sol.solution.values(np.concatenate([R for R, _ in rings])) if rings else None
        errors = []
        for i, ((alpha, term, zp, p), (_, d)) in enumerate(zip(poles, rings)):
            got = _ring_coefficient(vals[64 * i:64 * (i + 1)], d, term.order)
            errors.append({"slab": alpha, "order": term.order,
                           "pole": [p.real, p.imag], "error": abs(got - _at(term.coeff, zp))})
        report["principal_part_errors"] = errors
        ok = ok and all(e["error"] <= tol for e in errors)
    else:
        q = problem.codim
        if any(not lo <= 0 <= hi for k in range(q) for lo, hi in (region.re[k], region.im[k])):
            report["skipped_checks"].append({"check": "subspace", "reason": "chain region does not meet S"})
        else:
            if q < n:
                lo, hi = region.re[-1]
                mids = problem.cuboid.midpoint()
                slices = sorted({0.0, -0.9 * problem.theta, 0.9 * problem.theta})
                P = np.array([(0j,) * q + mids[q:n - 1] + (complex(t, y),)
                              for y in slices for t in np.linspace(lo, hi, 101)])
            else:  # S is the origin
                slices, P = [0.0], np.zeros((1, n), dtype=complex)
            diff = sol.solution.values(P) - complex_evaluator(problem.target)(P)
            sup = sup_abs(diff)
            report["subspace_sup_error"] = sup
            report["subspace_slices"] = slices
            ok = ok and sup <= tol
    report["pass"] = bool(ok)
    return report
