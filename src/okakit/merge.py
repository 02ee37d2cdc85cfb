"""Merging local solutions across a slab partition.

For principal-part (Cousin-I) data the local solution on a slab is the
finite sum of its pole terms; for holomorphic extension from a coordinate
subspace it is the cylinder extension of the target (possibly perturbed
within the ideal).  Both kinds glue by one rule, in no order: seam k
splits only its own datum h_k = local_{k+1} - local_k by its Cauchy
integral along the seam segment, in closed form and with no quadrature,
(h_k ell + Q) / 2 pi i with ell a log difference: Q sums the pole terms'
segment integrals by partial fractions (a term of slab a enters seams a -
1 and a, and its two left halves fold into one sum), or is a polynomial
built in floating point from the exact cofactors of each extension datum
in the subspace ideal.  Slab alpha's branch is local_alpha plus the left
half L_k of every seam k >= alpha and the right half R_k = L_k - h_k of
every other (on |Im z_n| < theta + delta the sides' logs differ by 2 pi
i), so it telescopes to local_0 + sum_k L_k: one formula per chain, with
no routing by Re z_n.  Chains of slabs connected on the subspace are
solved independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .cousin import morera_residual
from .cuboids import ConnectivityChain, Cuboid, SlabPartition, connected_chains, make_partition
from .division import CoordinateSubspace, ideal_cofactors
from .errors import (
    NotHolomorphicDifference,
    NotInIdeal,
    PoleTooCloseToSeam,
)
from .evaluable import TWO_PI_I, Evaluable, row_blocks, sup_abs
from .series import (TruncatedSeries, combine, complex_evaluator, evaluate, make_series, negligible, scale,
                     times_variable, to_floating, zero)


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
        return PoleSeams((), 0.0, tuple((0, t) for t in self.terms)).local(0)


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
        # every seam then sits at least delta inside its chain
        if self.delta is not None and not 0 < self.delta <= min(self._slab_widths()):
            raise ValueError("seam margin delta must be positive and at most the narrowest slab width")
        if not self.tol > 0:
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


def _majorant(f: TruncatedSeries, radii: tuple, constant: bool = True) -> float:
    """sum |a_e| prod r_i^e_i over the terms of f (without the constant term
    unless ``constant``): a bound on |f(z') - f(c)|, or on |f(z')| with the
    constant, for |z'_i - c_i| <= r_i."""
    return sum(abs(v) * math.prod(r ** k for r, k in zip(radii, e))
               for e, v in f.coeffs.items() if constant or any(e))


def _pole_discs(problem: ChiProblem, alpha: int) -> list[tuple[int, float, complex, float]]:
    """(order, coefficient bound, centre, radius) for every term of slab
    alpha's principal part, each admitted: over the base cuboid the term's
    locus stays in the disc and its coefficient's modulus under the bound
    (majorants about each series' centre; for n = 1 the locus is a point).
    A disc that comes within delta of an edge of its slab, or lies wholly
    above or below it, raises ``PoleTooCloseToSeam``: a locus crossing a
    seam segment would make the seam's closed form jump by 2 pi i h in z'."""
    cub, delta, (rlo, rhi) = problem.cuboid, problem.seam_margin(), problem.partition.slabs[alpha].re[-1]

    def reach(f: TruncatedSeries) -> tuple:  # per base axis, the farthest corner of its rectangle from f's centre
        return tuple(max(abs(complex(re, im) - complex(c)) for re in cub.re[i] for im in cub.im[i])
                     for i, c in enumerate(f.center))

    discs = [(t.order, _majorant(t.coeff, reach(t.coeff)),
              complex(t.locus.coefficient((0,) * t.locus.dim)), _majorant(t.locus, reach(t.locus), False))
             for t in problem.data[alpha].terms]
    for _, _, c, r in discs:
        if not rlo + delta <= c.real - r <= c.real + r <= rhi - delta or abs(c.imag) - r > problem.theta:
            raise PoleTooCloseToSeam(f"pole at {c}, whose locus over the base stays within {r:.3g} of it, "
                                     f"lies outside slab {alpha} or within margin {delta} of its edges")
    return discs


def local_solution(problem: ChiProblem, alpha: int) -> Evaluable:
    """The slab's own solution: its principal-part sum, or the cylinder
    extension of the target (or the supplied override).  A cousin1 slab's
    poles must pass admission (``_pole_discs``)."""
    if problem.kind == "cousin1":
        _pole_discs(problem, alpha)
        return problem.data[alpha].evaluable()
    return Evaluable.batched(complex_evaluator(problem.slab_poly(alpha)))


def seam_difference(a: Evaluable, b: Evaluable, overlap: Cuboid, tol: float = 1e-8) -> Evaluable:
    """a - b, asserted holomorphic on the overlap by a dense Morera residual.
    Nothing in okakit calls it; ``perfbench/bench_trace.py`` looks it up."""
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


# -- closed-form seams -----------------------------------------------------


def _side_logs(zn: np.ndarray, seams: np.ndarray, ih: complex) -> np.ndarray:
    """ell_k(z) = Log(w + ih) - Log(w - ih) with w = s_k - z_n, per row of the
    (m, 1) column ``zn`` and seam s_k, with ih = i h: the log difference of
    the seams' left halves.  Each log's cut is the horizontal ray running
    right from s_k +/- ih, so ell_k is holomorphic on the strip |Im z_n| < h,
    on either side of the seam; the right halves' log difference,
    Log(t - ih) - Log(t + ih) with t = z_n - s_k, is ell_k - 2 pi i there."""
    d = seams - zn
    return np.log(d + ih) - np.log(d - ih)


def _moments(p: np.ndarray, a: np.ndarray, b: np.ndarray, m: int) -> list[np.ndarray]:
    """I_j, the integrals of (zeta - p)^(-j) d zeta along the segments from a
    to b, for j = 1..m: I_1 = Log((b - p) / (a - p)), exact wherever p is off
    the segment, and I_j = ((b - p)^(1-j) - (a - p)^(1-j)) / (1 - j)."""
    ia, ib = 1 / (a - p), 1 / (b - p)
    out, pa, pb = [np.log((b - p) / (a - p))], ia, ib
    for j in range(2, m + 1):
        out.append((pb - pa) / (1 - j))
        pa, pb = pa * ia, pb * ib
    return out


def _fixed(at: Callable, terms: tuple[PoleTerm, ...]) -> Callable:
    """``at``, a map from rows z' to the c, p and moments of ``terms``: or
    where every c and p is a constant (n = 1), its value on one row, built
    once and returned for every call."""
    if any(t.coeff.dim or t.locus.dim for t in terms):
        return at
    return partial(lambda fixed, zp: fixed, at(np.empty((1, 0), dtype=complex)))


@dataclass(frozen=True)
class PoleSeams:
    """cousin1 seam data split in closed form.  Entry (a, term) puts f = c(z')
    (zeta - p(z'))^(-m) at slab position a of a chain with seams s_k =
    ``seams[k]``: into the datum of seam a - 1 with sign + and of seam a
    with sign -, where they exist.  Its Cauchy integral along seam k's
    segment, s_k -/+ ih with h = ``height``, is (f ell_k + Q) / 2 pi i, ell_k
    from ``_side_logs`` and Q(z) = -c sum_{j=1..m} (z_n - p)^(-(m-j+1)) I_j
    (``_moments``).  In u = 1 / (z_n - p) both seams fold into one Horner
    sum, c u (... ((W_a - J_1) u - J_2) u ... - J_m), W_a = ell_{a-1} - ell_a
    and J_j = I_j^{a-1} - I_j^a, a missing seam giving 0.  ``local(a)`` is
    the principal-part sum at position a; it and ``half`` share the terms'
    compiled c and p (``_columns``)."""

    seams: tuple[float, ...]
    height: float
    entries: tuple[tuple[int, PoleTerm], ...]

    @cached_property
    def _columns(self) -> list[Callable]:
        """Per entry, the map from rows z' to its c(z') and p(z'), each term's
        coefficient and locus compiled once by ``complex_evaluator``."""
        compiled = [(t, complex_evaluator(t.coeff), complex_evaluator(t.locus)) for _, t in self.entries]
        return [_fixed(lambda zp, c=c, p=p: (c(zp), p(zp)), (t,)) for t, c, p in compiled]

    @cached_property
    def _groups(self) -> list[tuple[np.ndarray, Callable]]:
        """Per order m: the position of each entry of that order, and the map
        from rows z' to the entries' c, p and J_1..J_m, one column per entry."""
        groups, seams, last, ih = [], np.array(self.seams), len(self.seams) - 1, 1j * self.height
        for m in sorted({t.order for _, t in self.entries}):
            pos, terms, columns = zip(*((a, t, f) for (a, t), f in zip(self.entries, self._columns) if t.order == m))
            pos = np.array(pos)
            # per entry, the seams left and right of its position; an end's missing one has weight 0
            sides = [(pos > 0, seams[np.maximum(pos - 1, 0)]), (pos <= last, seams[np.minimum(pos, last)])]

            def at(zp, m=m, sides=sides, columns=columns):
                c, p = (np.stack(v, axis=-1) for v in zip(*(f(zp) for f in columns)))
                (wl, I), (wr, K) = ((w, _moments(p, s - ih, s + ih, m)) for w, s in sides)
                return c, p, [wl * i - wr * k for i, k in zip(I, K)]

            groups.append((pos, _fixed(at, terms)))
        return groups

    def local(self, a: int) -> Evaluable:
        """The sum of c(z') / (z_n - p(z'))^m over the entries at position a,
        in their stored order."""
        terms = [(t.order, f) for (b, t), f in zip(self.entries, self._columns) if b == a]

        def many(P):
            zp, zn, acc = P[:, :-1], P[:, -1], np.zeros(len(P), dtype=complex)
            for order, at in terms:
                coeff, locus = at(zp)
                acc = acc + coeff / (zn - locus) ** order
            return acc

        return Evaluable.batched(many)

    def half(self) -> Evaluable:
        """The sum over the seams of their left halves.  The rows go in blocks
        of at most BLOCK_ENTRIES // len(entries) (``row_blocks``), and every
        block takes the same numpy operations, with no array exponent and no
        matrix product, so one row has the bits of its row in a batch."""
        seams, ih = np.array(self.seams), 1j * self.height

        def block(P: np.ndarray) -> np.ndarray:
            zn, W = P[:, -1:], np.zeros((len(P), len(seams) + 1), dtype=complex)
            ell, out = _side_logs(zn, seams, ih), np.zeros(len(P), dtype=complex)
            W[:, 1:] = ell  # then W_a = ell_{a-1} - ell_a, with 0 for a missing seam
            W[:, :-1] -= ell
            for pos, at in self._groups:
                c, p, moments = at(P[:, :-1])
                u = 1 / (zn - p)
                acc = W[:, pos] - moments[0]
                for moment in moments[1:]:
                    acc = acc * u - moment
                out = out + (acc * u * c).sum(axis=1)
            return out / TWO_PI_I

        return Evaluable.batched(lambda P: row_blocks(len(P), max(1, len(self.entries)), lambda rows: block(P[rows])))


def merge_pair(left: PrincipalPartData, right: PrincipalPartData, s: float, height: float) -> PoleSeams:
    """One cousin1 seam at Re z_n = s as the two-slab ``PoleSeams``, ``left`` at 0 and ``right`` at 1:
    ``half()`` is the seam's left half, and less its datum ``right - left``, its right half."""
    return PoleSeams((s,), height, tuple((0, t) for t in left.terms) + tuple((1, t) for t in right.terms))


def _rounding_bound(discs: list, s: float) -> float:
    """About eps sum_t C_t / g_t^m_t over the locus discs (order m, bound C,
    centre, radius) of ``_pole_discs``, g_t the gap from t's disc to Re z_n
    = s: the rounding left where f ell and Q, each about C / g^m near a pole,
    cancel in a seam's halves at its rows."""
    return 2.0 ** -52 * sum(C / (abs(c.real - s) - r) ** m for m, C, c, r in discs)


# -- extension seams in closed form ------------------------------------------


def segment_quotient(w: TruncatedSeries, s: float, height: float) -> TruncatedSeries:
    """Q(z) = the integral of (w(z', zeta) - w(z)) / (zeta - z_n) d zeta along
    the seam segment from s - i height to s + i height, a polynomial in w's
    backend.  With u = z_n - c and v = zeta - c about w's centre c
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
    """G = (Q + sum_k L_k h_k) / 2 pi i, one series in the witnesses' backend
    in the n + K variables (z, L_1, ..., L_K) for the K seams s_k with
    cofactors ``witnesses[k]`` (Weak Coherence): h_k = sum_j z_j w_{k,j} and
    Q = sum_k sum_j z_j Q_{k,j}, Q_{k,j} = ``segment_quotient(w_{k,j}, s_k,
    height)``.  At L_k = ell_k, the log difference of one side of seam k,
    the terms of seam k are z_j times the Cauchy integral (w ell_k + Q) / 2 pi i
    of w_{k,j} along the segment s_k -/+ i height.  Every term keeps its
    factor z_j, so G is 0 on S.  One ``combine`` sums the terms of z_j w_{k,j} L_k
    and z_j Q_{k,j} for each k and j in turn, each shift at its factor's order
    and the sum untruncated."""
    K, w0 = len(seams), witnesses[0][0]

    def lifted(f: TruncatedSeries, k: int | None) -> TruncatedSeries:  # f in (z, L), times L_k unless k is None
        tail = tuple(int(i == k) for i in range(K))
        return make_series(f.dim + K, {e + tail: v for e, v in f.coeffs.items()}, backend=f.backend,
                           center=f.center + (0,) * K)

    parts = [(1, None, lifted(times_variable(f, j), t)) for k, (s, ws) in enumerate(zip(seams, witnesses))
             for j, w in enumerate(ws) for f, t in ((w, k), (segment_quotient(w, s, height), None))]
    return scale(combine(lifted(zero(w0.dim, backend=w0.backend, center=w0.center), None), parts), 1 / TWO_PI_I)


def _closed_form_correction(g: Callable, seams: np.ndarray, height: float) -> Evaluable:
    """g, a compiled ``closed_form_series``, at (z, ell_1(z), ..., ell_K(z)),
    the ``_side_logs`` of the seams' left halves.  Every row count takes the
    same numpy operations, so one row has the bits of its row in a batch."""
    return Evaluable.batched(lambda P: g(np.concatenate((P, _side_logs(P[:, -1:], seams, 1j * height)), axis=1)))


def _extension_halves(problem: ChiProblem, chain: ConnectivityChain, seams: list[float]) -> Evaluable | None:
    """The sum of every seam's left half, each seam split in closed form from
    its own datum h_k = local_{k+1} - local_k: the chain's one
    ``closed_form_series`` at the left logs, built from floating copies of
    the exact cofactors of ``ideal_witness``, or None where every datum is 0
    (one slab, or equal locals)."""
    height = problem.theta + problem.seam_margin()
    polys = [problem.slab_poly(alpha) for alpha in chain.indices]
    witnesses = [ideal_witness(right - left, problem.subspace) for left, right in zip(polys, polys[1:])]
    if all(w.is_zero() for ws in witnesses for w in ws):
        return None
    g = complex_evaluator(closed_form_series(seams, [[to_floating(w) for w in ws] for ws in witnesses], height))
    return _closed_form_correction(g, np.array(seams), height)


# -- solving and verification -------------------------------------------


@dataclass
class ChiSolution:
    chain: ConnectivityChain
    solution: Evaluable
    corrections: list[Evaluable]
    region: Cuboid
    report: dict | None = None
    poles: dict[int, list] | None = None  # cousin1: per slab, the admitted ``_pole_discs`` that verification bounds by


def _solve_one_chain(problem: ChiProblem, chain: ConnectivityChain) -> ChiSolution:
    slabs = problem.partition.slabs
    region = problem.cuboid.with_last_re(slabs[chain.start].re[-1][0], slabs[chain.stop].re[-1][1])
    seams = [problem.partition.seam(k) for k in chain.indices[:-1]]
    if problem.kind == "cousin1":
        poles = {alpha: _pole_discs(problem, alpha) for alpha in chain.indices}
        entries = tuple((a, t) for a, alpha in enumerate(chain.indices) for t in problem.data[alpha].terms)
        chained = PoleSeams(tuple(seams), problem.theta + problem.seam_margin(), entries)
        locals_ = [chained.local(a) for a in range(len(chain.indices))]
        correction = chained.half() if seams and entries else None
    else:
        poles, locals_ = None, [local_solution(problem, alpha) for alpha in chain.indices]
        correction = _extension_halves(problem, chain, seams)
    # branch alpha, local_alpha plus the left halves of the seams k >= alpha and
    # the right halves of the others, is local_0 plus every seam's left half
    solution = locals_[0] if correction is None else locals_[0] + correction
    return ChiSolution(chain=chain, solution=solution, corrections=[solution - local for local in locals_],
                       region=region, poles=poles)


def solve_chain(problem: ChiProblem, order: str = "ltr", verify: bool = True) -> list[ChiSolution]:
    """Solve every maximal connected chain of the partition; one solution
    each.  A chain has no merge order: ``order`` must be "ltr" or "rtl", and
    both give the same bits; it stays while ``perfbench`` passes "rtl"."""
    if order not in ("ltr", "rtl"):
        raise ValueError(f"unknown merge order {order!r}")
    partition = problem.partition
    chains = (connected_chains(partition, problem.subspace) if problem.kind == "extension"
              else [ConnectivityChain(0, partition.count - 1)])
    sols = [_solve_one_chain(problem, c) for c in chains]
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


def _ring_radii(p: np.ndarray, group: np.ndarray, delta: float, theta: float) -> np.ndarray:
    """Per pole p, its circle's radius: the least of delta / 2, 0.45 times
    the gap to the nearest other position at its z' (``group``; terms at one
    position are one principal part) and, for theta > 0, max(theta - |Im p|,
    delta / 4).  Gaps by ``np.hypot``, with the bits of ``abs``, in row blocks."""
    def nearest(rows):
        d = np.where(group[rows, None] == group, p[rows, None] - p, 0)
        return np.where(d == 0, np.inf, np.hypot(d.real, d.imag)).min(axis=1, initial=np.inf)

    radii = np.minimum(delta / 2, 0.45 * row_blocks(len(p), max(1, len(p)), nearest).real)
    return np.minimum(radii, np.maximum(theta - np.abs(p.imag), delta / 4)) if theta > 0 else radii


def extract_principal_coefficient(f: Evaluable, pole: complex, order: int, radius: float, zp: tuple = ()) -> complex:
    """The residue check's ring rule for one ring.  Nothing in okakit calls
    it; ``perfbench/bench_trace.py`` looks it up."""
    P, d = _rings([pole], [radius], [zp], len(zp) + 1)
    return _ring_coefficients(f.values(P), d, [order])[0]


def verify_solution(sol: ChiSolution, problem: ChiProblem) -> dict:
    """Checkable form of the solution property.

    The solution is local_0 plus every seam's left half.  It is holomorphic
    on the chain (cousin1: off the data's poles) by construction, and no
    check here verifies that: the log cuts run right from s_k +/- i (theta
    + delta), outside the cuboid, and Q is a polynomial (extension) or has
    poles where h ell's cancel (cousin1, whose loci admission keeps off the
    seam segments).  ``seam_jumps``, per seam s, is the sup of |sol(z', s^-
    + iy) - sol(z', s^+ + iy)|, s^- and s^+ the floats below and above s,
    over 61 y in [-theta, theta] and the diagonal corners z' of the base
    (every axis at lo + i lo, hi + i hi, lo + i hi or hi + i lo: off S for
    extension); every jump must be at most tol.  It sees a cut along the
    seam itself, as one Log of the quotient in ``_side_logs`` would put
    there.  ``patch_morera`` stays an empty list.
    Every check's rows go to the solution in one call, each in its own
    order; a row's value does not depend on the rows beside it.

    cousin1: ``seam_rounding`` holds {s, bound} per seam, the a priori
    ``_rounding_bound`` over the locus discs of its two slabs that the solve
    admitted (``sol.poles``), and every bound must be at most tol.  Each
    term's coefficient, re-extracted on a circle around its pole, must match
    the sum prescribed for its slab, order and position (one circle sees
    them all), at the base midpoint z' and, for n >= 2, at every corner z',
    entries z' by z' (each naming its ``zp``), each z' with its own poles,
    coefficients and radii (``_ring_radii``).  The prescribed c(z')
    and p(z') come from the exact ``series.evaluate``, not from the compiled
    evaluators the solution is built with, so a fault in those shows.
    extension: on S the solution must match the target on a grid of Re z_n
    on each slice Im z_n in ``subspace_slices`` (0 and +/- 0.9 theta; for q =
    n the origin alone), at the midpoint and then each diagonal corner of
    the free base axes q..n-2; a chain region that misses S skips that check."""
    tol, n, region = problem.tol, problem.ndim, sol.region
    report: dict = {"kind": problem.kind, "chain": [sol.chain.start, sol.chain.stop], "skipped_checks": [],
                    "patch_morera": []}
    seam_re = [problem.partition.seam(k) for k in sol.chain.indices[:-1]]
    # Re z_n = s^- and s^+, the floats below and above s: the seam's two sides
    seams = np.array([(np.nextafter(s, -np.inf), np.nextafter(s, np.inf)) for s in seam_re])
    corners = list(dict.fromkeys(tuple(complex(re[a], im[b]) for re, im in zip(region.re[:-1], region.im[:-1]))
                                 for a, b in ((0, 0), (1, 1), (0, 1), (1, 0))))
    P = np.empty((len(seams), 2, len(corners), 61, n), dtype=complex)
    P[..., :-1] = np.reshape(corners, (len(corners), 1, n - 1))
    P[..., -1] = seams.reshape(-1, 2, 1, 1) + 1j * np.linspace(-problem.theta, problem.theta, 61)
    rows = [P.reshape(-1, n)]
    if problem.kind == "cousin1":
        report["seam_rounding"] = [{"s": s, "bound": _rounding_bound(sol.poles[a] + sol.poles[a + 1], s)}
                                   for a, s in zip(sol.chain.indices, seam_re)]
        # per z' and pole term, (z', slab, order, p(z')), and the prescribed sum per slab, order and position
        poles, want, zps = [], {}, list(dict.fromkeys([region.midpoint()[:-1]] + corners))  # n = 1: one empty z'
        for zp in zps:
            for alpha in sol.chain.indices:
                for term in problem.data[alpha].terms:
                    poles.append(key := (zp, alpha, term.order, complex(evaluate(term.locus, zp))))
                    want[key] = want.get(key, 0) + complex(evaluate(term.coeff, zp))
        p = np.array([key[-1] for key in poles], dtype=complex)
        radii = _ring_radii(p, np.repeat(np.arange(len(zps)), len(p) // len(zps)), problem.seam_margin(), problem.theta)
        ring_rows, d = _rings(p, radii, [key[0] for key in poles], n)
        rows.append(ring_rows)
    else:
        q = problem.codim
        if not region.meets_subspace(problem.subspace):
            report["skipped_checks"].append({"check": "subspace", "reason": "chain region does not meet S"})
        elif q < n:
            slices = sorted({0.0, -0.9 * problem.theta, 0.9 * problem.theta})
            free = list(dict.fromkeys([region.midpoint()[q:-1]] + [zp[q:] for zp in corners]))  # z' on free axes
            S = np.zeros((len(free), len(slices), 101, n), dtype=complex)
            S[..., q:-1] = np.reshape(free, (len(free), 1, 1, n - 1 - q))
            S[..., -1].real, S[..., -1].imag = np.linspace(*region.re[-1], 101), np.reshape(slices, (-1, 1))
            rows.append(S.reshape(-1, n))
        else:  # S is the origin
            slices = [0.0]
            rows.append(np.zeros((1, n), dtype=complex))
    vals = sol.solution.values(np.concatenate(rows))
    pairs = vals[:len(rows[0])].reshape(len(seams), 2, len(corners) * 61)
    # per seam, the largest |left - right|, and NaN when any is NaN (as ``sup_abs``)
    report["seam_jumps"] = np.max(np.abs(pairs[:, 0] - pairs[:, 1]), axis=1, initial=0.0).tolist()
    ok = all(v <= tol for v in report["seam_jumps"])
    if problem.kind == "cousin1":
        got = _ring_coefficients(vals[len(rows[0]):], d, [order for _, _, order, _ in poles])
        errors = [{"slab": alpha, "order": order, **({"zp": [[z.real, z.imag] for z in zp]} if n > 1 else {}),
                   "pole": [p.real, p.imag], "error": abs(g - want[zp, alpha, order, p])}
                  for (zp, alpha, order, p), g in zip(poles, got)]
        report["principal_part_errors"] = errors
        ok = ok and all(r["bound"] <= tol for r in report["seam_rounding"]) and all(e["error"] <= tol for e in errors)
    elif len(rows) > 1:
        sup = sup_abs(vals[len(rows[0]):] - complex_evaluator(problem.target)(rows[1]))
        report["subspace_sup_error"] = sup
        report["subspace_slices"] = slices
        ok = ok and sup <= tol
    report["pass"] = bool(ok)
    return report
