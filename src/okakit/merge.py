"""Merging local solutions across a slab partition.

For principal-part (Cousin-I) data the local solution on a slab is the
finite sum of its pole terms; for holomorphic extension from a coordinate
subspace it is the cylinder extension of the target (possibly perturbed
within the ideal).  Both kinds glue by one rule, in no order: seam k
splits only its own datum h_k = local_{k+1} - local_k, with the seam
contour integrals for principal parts and in closed form for extension (a
polynomial multiple of the subspace generators with explicit cofactors),
and branch alpha is local_alpha plus the left half of every seam k >= alpha
and the right half of every seam k < alpha.  Chains of slabs pairwise
connected on the subspace are solved independently.
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
    TWO_PI_I,
    Evaluable,
    QuadratureSpec,
    SplitGeometry,
    cousin_split,
    distance_to_segment,
    fused_sums,
    gauss_error,
    longest_panel,
    morera_residual,
    routed,
    split_contours,
    summed,
    sup_abs,
)
from .cuboids import ConnectivityChain, Cuboid, SlabPartition, connected_chains, make_partition
from .division import CoordinateSubspace, ideal_cofactors
from .errors import (
    NotHolomorphicDifference,
    NotInIdeal,
    PoleTooCloseToSeam,
)
from .series import TruncatedSeries, complex_evaluator, make_series, negligible, times_variable


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

    def slab_poly(self, alpha: int) -> TruncatedSeries:
        """An extension slab's local polynomial: its override, or the target."""
        return self.target if self.local_overrides is None else self.local_overrides[alpha]


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
                raise PoleTooCloseToSeam(f"pole at {p} lies outside slab {alpha}")
            for edge in (rlo, rhi):
                if abs(p.real - edge) < delta:
                    raise PoleTooCloseToSeam(f"pole at {p} within margin {delta} of a slab edge")
        return problem.data[alpha].evaluable()
    return series_evaluable(problem.slab_poly(alpha))


def seam_difference(a: Evaluable, b: Evaluable, overlap: Cuboid, tol: float = 1e-8) -> Evaluable:
    """a - b, asserted holomorphic on the overlap via the Morera residual.

    The dense default rule keeps the quadrature noise of nearby poles (data
    may sit just outside the seam strip) well below the tolerance.  Nothing
    in okakit calls it; ``perfbench/bench_trace.py`` ``install`` looks it up
    with ``getattr``, so ``--trace 1`` fails without it.
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
    """A slab's local solution plus its corrections, functions on C^n: for
    cousin1 one ``cousin_split`` half per seam of the chain, in seam order,
    for extension one closed-form correction or none.

    ``disc`` = (c, R) is the far-field disc of an n = 1 cousin1 slab
    (``_far_field_disc``).  The corrections are summed by one map,
    ``correction_values``, built on the first evaluation: ``fused_sums``
    about the disc, or ``summed`` for a branch without a disc or corrections.
    """

    local: Evaluable
    disc: tuple[complex, float] | None
    corrections: tuple[Evaluable, ...] = ()

    @cached_property
    def correction_values(self) -> Callable:
        cs = self.corrections
        return fused_sums(cs, *self.disc) if self.disc is not None and cs else summed(cs)

    def values(self, P: np.ndarray) -> np.ndarray:
        return self.local.values(P) + self.correction_values(P)


@dataclass
class ChainState:
    """The merged solution of a chain: one branch per slab, routed by Re z_n."""

    branches: list[_Branch]
    seams: list[float]  # Re positions separating consecutive branches

    def values(self, P: np.ndarray) -> np.ndarray:
        """Each row of P evaluated on the branch its Re z_n falls in.  One
        row takes a short path: ``bisect`` on the Python float picks the
        branch ``searchsorted`` would, NaN included, with the same bits."""
        if len(P) == 1:
            return self.branches[bisect.bisect_right(self.seams, P[0, -1].real)].values(P)
        return routed(P, np.searchsorted(self.seams, P[:, -1].real, side="right"), [b.values for b in self.branches])


def _far_field_disc(problem: ChiProblem, alpha: int) -> tuple[complex, float] | None:
    """(c, R) for an n = 1 cousin1 slab: c is the centre of its z_n
    rectangle and R the half-diagonal of that rectangle grown by delta on
    Re, so the seam overlaps lie inside.  None for extension, whose
    corrections are no ``cousin_split`` halves, and for n >= 2, whose
    corrections depend on z'."""
    if problem.kind == "extension" or problem.ndim > 1:
        return None
    slab = problem.partition.slabs[alpha]
    (rlo, rhi), (ilo, ihi) = slab.re[-1], slab.im[-1]
    return (complex((rlo + rhi) / 2, (ilo + ihi) / 2),
            math.hypot((rhi - rlo) / 2 + problem.seam_margin(), (ihi - ilo) / 2))


def merge_pair(left: Evaluable, right: Evaluable, geom: SplitGeometry,
               spec: QuadratureSpec) -> tuple[Evaluable, Evaluable]:
    """The halves of one cousin1 seam, whose left half less its right half
    is the seam's datum ``right - left`` on the strip: the principal parts of
    the two slabs at the seam of ``geom``, split on ``spec``'s panels."""
    return cousin_split(right - left, geom, spec)


# -- extension seams in closed form ------------------------------------------


def segment_quotient(w: TruncatedSeries, s: float, height: float) -> TruncatedSeries:
    """Q(z) = the integral of (w(z', zeta) - w(z)) / (zeta - z_n) d zeta along
    the seam segment from s - i height to s + i height, an exact polynomial
    in w's backend.  With u = z_n - c and v = zeta - c about w's centre c
    on the last axis, (v^m - u^m) / (v - u) = sum_{i<m} v^i u^(m-1-i), and
    v^i integrates to (b^(i+1) - a^(i+1)) / (i + 1) between the endpoints
    a, b, floats and so exact in either backend."""
    coerce = w.backend.coerce
    a, b = (coerce(complex(s, y)) - w.center[-1] for y in (-height, height))
    moments, pa, pb = [], coerce(1), coerce(1)
    for i in range(max((e[-1] for e in w.coeffs), default=0)):
        pa, pb = pa * a, pb * b
        moments.append((pb - pa) / coerce(i + 1))
    terms: dict = {}
    for exp, v in w.coeffs.items():
        for i in range(exp[-1]):
            e = exp[:-1] + (exp[-1] - 1 - i,)
            terms[e] = terms[e] + v * moments[i] if e in terms else v * moments[i]
    return make_series(w.dim, terms, order=w.order, backend=w.backend, center=w.center)


def closed_form_series(seams: list[float], witnesses: list[list[TruncatedSeries]], height: float) -> TruncatedSeries:
    """G = (Q + sum_k L_k h_k) / 2 pi i, one exact series in the n + K
    variables (z, L_1, ..., L_K) for the K seams s_k with cofactors
    ``witnesses[k]`` (Weak Coherence): h_k = sum_j z_j w_{k,j} and
    Q = sum_k sum_j z_j Q_{k,j}, Q_{k,j} = ``segment_quotient(w_{k,j}, s_k,
    height)``.  At L_k = ell_k, the log difference of one side of seam k,
    the terms of seam k are z_j times the Cauchy integral (w ell_k + Q) / 2 pi i
    of w_{k,j} along the segment s_k -/+ i height.  Every term keeps its
    factor z_j, so G is 0 on S."""
    K, g = len(seams), 0  # + starts from 0, which a series adds as its zero

    def lifted(f: TruncatedSeries, tail: tuple) -> TruncatedSeries:
        return make_series(f.dim + K, {e + tail: v for e, v in f.coeffs.items()}, backend=f.backend,
                           center=f.center + (0,) * K)

    for k, (s, ws) in enumerate(zip(seams, witnesses)):
        for j, w in enumerate(ws):
            g = (g + lifted(times_variable(w, j), tuple(int(i == k) for i in range(K)))
                 + lifted(times_variable(segment_quotient(w, s, height), j), (0,) * K))
    return g * (1 / TWO_PI_I)


def _closed_form_correction(g: Callable, seams: np.ndarray, height: float, sides: np.ndarray) -> Evaluable:
    """g, a compiled ``closed_form_series``, at (z, ell_1(z), ..., ell_K(z)):
    ell_k = Log(sides_k (w + ih)) - Log(sides_k (w - ih)) with w = s_k - z_n
    and h = ``height``.  With t = z_n - s_k that is Log(ih - t) - Log(-ih - t)
    on side +1, the seams right of the branch, whose left halves it takes,
    and Log(t - ih) - Log(t + ih) on side -1.  Each log's cuts are the
    horizontal rays from s_k +/- ih leading away from its side, so both are
    holomorphic on the strip |Im z_n| < h, where they differ by 2 pi i.
    Every row count takes the same numpy operations, so one row has the
    bits of its row in a batch."""
    ih = 1j * height * sides

    def many(P: np.ndarray) -> np.ndarray:
        d = sides * (seams - P[:, -1:])
        return g(np.concatenate((P, np.log(d + ih) - np.log(d - ih)), axis=1))

    return Evaluable.batched(many)


def _extension_halves(problem: ChiProblem, chain: ConnectivityChain, seams: list[float]) -> Callable:
    """The map from a branch's sides (``left[k]``: the branch takes seam k's
    left half) to its corrections, each seam split in closed form from its
    own datum h_k = local_{k+1} - local_k, with no quadrature: one
    correction, the chain's one ``closed_form_series`` at the logs of those
    sides, or none where every datum is 0 (one slab, or equal locals)."""
    height = problem.theta + problem.seam_margin()
    polys = [problem.slab_poly(alpha) for alpha in chain.indices]
    witnesses = [ideal_witness(right - left, problem.subspace) for left, right in zip(polys, polys[1:])]
    if all(w.is_zero() for ws in witnesses for w in ws):
        return lambda left: ()
    g, at = complex_evaluator(closed_form_series(seams, witnesses, height)), np.array(seams)
    return lambda left: (_closed_form_correction(g, at, height, np.where(left, 1.0, -1.0)),)


def seam_quadrature(problem: ChiProblem, geom: SplitGeometry, discs: list) -> tuple[QuadratureSpec, dict]:
    """The cousin1 seam's quadrature, with panels from the pole table, and
    its report entry {s, panels, nodes, bound}.

    The seam's density is its own datum, the principal parts of the two
    slabs at the seam, so their poles and the rows are all it has to keep
    away from.  For every straight piece of the seam's contours
    (``split_contours``: the segment, the two pushed contours and their
    legs), d is the least distance to the piece from a locus disc of
    ``discs`` (``_pole_discs`` of the two slabs), or delta: the rows at the
    seam lie delta from the pushed contours, and the kernel 1 / (zeta - z_n)
    is singular there.  M = max(1, sum_t C_t / d_t^k_t) over the terms t
    bounds the density on the piece.  The seam gets the fewest panels, at
    least ``QuadratureSpec()``'s, that keep every panel of every piece
    within its ``longest_panel`` for a Gauss error of tol / 10: a leg's
    panels are never longer than the seam-long pieces'.  More than
    MAX_PIECE_NODES nodes on a seam-long piece raise ``PoleTooCloseToSeam``,
    naming the d and M of the piece that needs the most and the tolerance.
    ``panels`` is the seam-long pieces' count, ``nodes`` the Gauss nodes of
    the three contours and ``bound`` the largest ``gauss_error`` of a piece.
    """
    quad, h, tol = QuadratureSpec(), geom.height, problem.tol
    pieces = []
    for a, b, _ in (piece for contour in split_contours(geom, quad) for piece in contour):
        dists = [distance_to_segment(c, a, b) - r for _, _, c, r in discs]
        d = min(dists + [geom.delta])
        M = max(1.0, sum(C / dt ** k for (k, C, _, _), dt in zip(discs, dists))) if d > 0 else math.inf
        pieces.append((longest_panel(d, M, quad.nodes, tol / 10) if d > 0 else 0.0, d, M))
    ell, d, M = min(pieces)
    panels = max(quad.panels, math.ceil(min(2 * h / ell if ell > 0 else math.inf, MAX_PIECE_NODES)))
    if panels * quad.nodes > MAX_PIECE_NODES:
        raise PoleTooCloseToSeam(f"a pole or an evaluated row comes within {max(0.0, d):.3g} of a contour of the "
                                 f"seam at {geom.s}, with density bound M = {M:.3g} and tolerance {tol:.3g}: more "
                                 f"than {MAX_PIECE_NODES} Gauss nodes on a seam-long piece would be needed")
    spec = replace(quad, panels=panels)
    contours = [piece for contour in split_contours(geom, spec) for piece in contour]
    bound = max(gauss_error(abs(b - a) / k, d, M, quad.nodes) for (a, b, k), (_, d, M) in zip(contours, pieces))
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


def _solve_one_chain(problem: ChiProblem, chain: ConnectivityChain) -> ChiSolution:
    slabs = problem.partition.slabs
    region = problem.cuboid.with_last_re(slabs[chain.start].re[-1][0], slabs[chain.stop].re[-1][1])
    seams = [problem.partition.seam(k) for k in chain.indices[:-1]]
    locals_ = [local_solution(problem, alpha) for alpha in chain.indices]
    if problem.kind == "extension":  # closed form: no quadrature
        halves = _extension_halves(problem, chain, seams)
        quadrature = [{"s": s, "panels": 0, "nodes": 0, "bound": 0.0} for s in seams]
    else:
        lo, hi = region.re[-1]
        base = Cuboid(region.re[:-1], region.im[:-1]) if problem.ndim > 1 else None
        poles = [_pole_discs(problem, alpha) for alpha in chain.indices]
        splits, quadrature = [], []
        for k, s in enumerate(seams):  # seam k splits its own datum local_{k+1} - local_k
            geom = SplitGeometry(s=s, delta=problem.seam_margin(), theta=problem.theta, re_lo=lo, re_hi=hi, base=base)
            spec, entry = seam_quadrature(problem, geom, poles[k] + poles[k + 1])
            splits.append(merge_pair(locals_[k], locals_[k + 1], geom, spec))
            quadrature.append(entry)
        halves = lambda left: tuple(pair[0 if on_left else 1] for pair, on_left in zip(splits, left))
    # one gluing rule: the chain's branch i takes the left half of every seam k >= i and the right half of the others
    at = np.arange(len(seams))
    state = ChainState([_Branch(local, _far_field_disc(problem, alpha), halves(at >= i))
                        for i, (alpha, local) in enumerate(zip(chain.indices, locals_))], seams)
    return ChiSolution(
        chain=chain,
        solution=Evaluable.batched(state.values),
        corrections=[Evaluable.batched(b.correction_values) for b in state.branches],
        region=region,
        seam_quadrature=quadrature,
    )


def chain_decomposition(problem: ChiProblem) -> list[ConnectivityChain]:
    partition = problem.partition
    if problem.kind == "extension":
        return connected_chains(partition, problem.subspace)
    return [ConnectivityChain(0, partition.count - 1)]


def solve_chain(problem: ChiProblem, order: str = "ltr", verify: bool = True) -> list[ChiSolution]:
    """Solve every maximal connected chain of the partition; one solution each.

    Every seam splits its own datum, so a chain has no merge order: ``order``
    is still checked, and anything but "ltr" or "rtl" raises ``ValueError``,
    but both give the same bits.  It stays while ``perfbench/bench_workloads.py``
    passes ``order="rtl"``.
    """
    if order not in ("ltr", "rtl"):
        raise ValueError(f"unknown merge order {order!r}")
    sols = [_solve_one_chain(problem, c) for c in chain_decomposition(problem)]
    if verify:
        for sol in sols:
            sol.report = verify_solution(sol, problem)
    return sols


def _rings(poles: list, radii: list, zps: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 64 points (z', pole + radius e^(i t)) of each residue circle, ring
    after ring, and per ring the offsets from its pole: one unit circle, broadcast."""
    d = np.reshape(radii, (-1, 1)) * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    P = np.empty((len(poles), 64, n), dtype=complex)
    P[..., :-1], P[..., -1] = np.reshape(zps, (len(zps), 1, n - 1)), np.reshape(poles, (-1, 1)) + d
    return P.reshape(-1, n), d


def _ring_coefficients(vals: np.ndarray, d: np.ndarray, orders: list[int]) -> list[complex]:
    """Per ring of ``_rings``, the trapezoidal (1/2 pi i) circle integral of
    f (z_n - pole)^(order-1) dz_n from f's values on its points.  The rings
    of one order share numpy calls, whose power keeps a Python-int exponent."""
    vals, out = vals.reshape(d.shape), np.empty(len(d), dtype=complex)
    for order in set(orders):
        rows = [i for i, k in enumerate(orders) if k == order]
        out[rows] = np.sum(vals[rows] * d[rows] ** (order - 1) * d[rows], axis=1) / 64
    return out.tolist()


def extract_principal_coefficient(f: Evaluable, pole: complex, order: int,
                                  radius: float, zp: tuple = ()) -> complex:
    """(1/2 pi i) * circle integral of f(z)*(z_n - pole)^(order-1) dz_n,
    by the trapezoidal rule on 64 points: the ring rule of
    ``verify_solution``'s residue check, for one ring.  Nothing in okakit
    calls it; ``perfbench/bench_trace.py`` ``install`` looks it up with
    ``getattr``, so ``--trace 1`` fails without it."""
    P, d = _rings([pole], [radius], [zp], len(zp) + 1)
    return _ring_coefficients(f.values(P), d, [order])[0]


def verify_solution(sol: ChiSolution, problem: ChiProblem) -> dict:
    """Checkable form of the solution property.

    Both kinds: every branch is holomorphic on its routed region by
    construction: a cousin1 branch is its slab's principal part plus Cauchy
    sums whose nodes all lie at least delta outside that region (and
    far-field Taylor polynomials), so it is meromorphic there with the
    data's poles alone; an extension branch is a polynomial plus
    polynomials times log differences holomorphic on the strip |Im z_n| <
    theta + delta (``closed_form_series``).  A solution continuous across every seam is then holomorphic (for
    cousin1: off the poles) on the chain (Morera).  ``seam_jumps`` gives,
    per seam s, the sup of |sol(z', s^- + iy) - sol(z', s + iy)| over 61 y
    in [-theta, theta] and the diagonal corners z' of the base cuboid
    (every axis at lo + i lo, hi + i hi, lo + i hi or hi + i lo: off S for
    extension), and every jump must be at most tol.  ``seam_quadrature``
    holds each seam's panels and Gauss error estimate, as the solve chose
    them (``seam_quadrature``).  ``patch_morera`` stays an empty list.

    cousin1: principal coefficients re-extracted by contour integrals around
    each pole must match the prescribed ones, summed over the slab's terms
    of one order at one position (one contour sees them all; each term keeps
    its entry); for n >= 2 the poles and coefficients are taken at the
    slab's midpoint z', where the contour is drawn.  extension: the solution
    restricted to the subspace must match the target on a sample grid of
    Re z_n on each slice Im z_n in ``subspace_slices`` (0 and +/- 0.9 theta;
    for q = n at the origin alone); a chain region that misses S lists that
    check in ``skipped_checks``.

    The seam rows and the residue rings (cousin1) or the subspace rows
    (extension) go to the solution in one call, each check's rows in their
    own order; a row's value does not depend on the rows beside it.
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
    rows = [P.reshape(-1, n)]
    if problem.kind == "cousin1":
        delta = problem.seam_margin()
        poles = [(alpha, *pole) for alpha in sol.chain.indices for pole in _poles(problem, alpha)]
        # one pass over the terms: the prescribed sum per slab, order and position, in term order
        want: dict = {}
        for alpha, term, zp, p in poles:
            want[alpha, term.order, p] = want.get((alpha, term.order, p), 0) + _at(term.coeff, zp)
        positions, radii = list(dict.fromkeys(p for *_, p in poles)), []
        for *_, p in poles:
            # terms at one position are one principal part: only other positions bound the circle
            radius = min(delta / 2, 0.45 * min((abs(p - q) for q in positions if q != p), default=np.inf))
            radii.append(min(radius, max(problem.theta - abs(p.imag), delta / 4)) if problem.theta > 0 else radius)
        ring_rows, d = _rings([p for *_, p in poles], radii, [zp for *_, zp, _ in poles], n)
        rows.append(ring_rows)
    else:
        q = problem.codim
        if any(not lo <= 0 <= hi for k in range(q) for lo, hi in (region.re[k], region.im[k])):
            report["skipped_checks"].append({"check": "subspace", "reason": "chain region does not meet S"})
        elif q < n:
            lo, hi = region.re[-1]
            mids = problem.cuboid.midpoint()
            slices = sorted({0.0, -0.9 * problem.theta, 0.9 * problem.theta})
            rows.append(np.array([(0j,) * q + mids[q:n - 1] + (complex(t, y),)
                                  for y in slices for t in np.linspace(lo, hi, 101)]))
        else:  # S is the origin
            slices = [0.0]
            rows.append(np.zeros((1, n), dtype=complex))
    vals = sol.solution.values(np.concatenate(rows))
    sides = vals[:len(rows[0])].reshape(len(seams), 2, len(corners) * 61)
    report["seam_jumps"] = [sup_abs(left - right) for left, right in sides]
    ok = all(v <= tol for v in report["seam_jumps"])
    if problem.kind == "cousin1":
        got = _ring_coefficients(vals[len(rows[0]):], d, [term.order for _, term, _, _ in poles])
        errors = [{"slab": alpha, "order": term.order, "pole": [p.real, p.imag],
                   "error": abs(g - want[alpha, term.order, p])} for (alpha, term, _, p), g in zip(poles, got)]
        report["principal_part_errors"] = errors
        ok = ok and all(e["error"] <= tol for e in errors)
    elif len(rows) > 1:
        sup = sup_abs(vals[len(rows[0]):] - complex_evaluator(problem.target)(rows[1]))
        report["subspace_sup_error"] = sup
        report["subspace_slices"] = slices
        ok = ok and sup <= tol
    report["pass"] = bool(ok)
    return report
