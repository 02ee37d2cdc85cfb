"""Relations among coordinate functions and among general generators of the
ideal of a coordinate subspace.

A relation is a tuple (f_1,...,f_p) with sum f_j z_j = 0.  The module of
relations is generated by the Koszul-type vectors T_ij (with -z_j in slot i
and z_i in slot j), and every relation decomposes over them by repeatedly
splitting its components along the leading variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .division import split_variable
from .errors import InvalidArity, NotARelation
from .scalars import EXACT, Backend
from .series import (
    TruncatedSeries,
    combine,
    constant,
    mul,
    negligible,
    variable,
    zero,
)


@dataclass(frozen=True)
class SyzygyVector:
    components: tuple[TruncatedSeries, ...]

    def __post_init__(self):
        if not self.components:
            raise InvalidArity("empty syzygy vector")
        ref = self.components[0]
        for c in self.components[1:]:
            if c.dim != ref.dim or c.center != ref.center or c.backend != ref.backend:
                raise InvalidArity("components must share dimension, center, and backend")

    @property
    def arity(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def __add__(self, other: "SyzygyVector") -> "SyzygyVector":
        return SyzygyVector(tuple(a + b for a, b in zip(self.components, other.components)))

    def scaled(self, f: TruncatedSeries) -> "SyzygyVector":
        return SyzygyVector(tuple(mul(f, c) for c in self.components))


@dataclass(frozen=True)
class TrivialSolution:
    """T_ij: -z_j in slot i, z_i in slot j (0-based indices, i < j)."""

    i: int
    j: int
    vector: SyzygyVector


def _check_pair(i: int, j: int, p: int, n: int):
    if not 0 <= i < j < p:
        raise InvalidArity(f"T_{{{i + 1},{j + 1}}} needs 1 <= i < j <= p = {p}")
    if n < p:
        raise InvalidArity("ambient dimension must be at least the arity")


def trivial_solution(i: int, j: int, p: int, dim: int | None = None, backend: Backend = EXACT) -> TrivialSolution:
    n = dim if dim is not None else p
    _check_pair(i, j, p, n)
    comps = [zero(n, backend=backend)] * p
    comps[i], comps[j] = -variable(n, j, backend=backend), variable(n, i, backend=backend)
    return TrivialSolution(i, j, SyzygyVector(tuple(comps)))


def trivial_solutions(p: int, dim: int | None = None, backend: Backend = EXACT) -> list[TrivialSolution]:
    """All p(p-1)/2 trivial solutions in lexicographic (i, j) order.

    For p = 1 the trivial solution is 0 by convention, so the list is empty.
    """
    if p < 1:
        raise InvalidArity(f"arity must be positive, got {p}")
    return [trivial_solution(i, j, p, dim=dim, backend=backend) for i in range(p) for j in range(i + 1, p)]


def _lowest_order(factors) -> int | None:
    """The order of a sum of products of ``factors``, zero factors included: the lowest among them."""
    return min((s.order for s in factors if s.order is not None), default=None)


def relation_residual(v: SyzygyVector) -> TruncatedSeries:
    """sum_j v_j * z_j; zero iff v is a relation."""
    return combine(v.components[0], [(1, j, c) for j, c in enumerate(v.components)])


def verify_relation(v: SyzygyVector) -> tuple[bool, TruncatedSeries]:
    residual = relation_residual(v)
    return negligible(residual, *v.components), residual


def decompose_relation(v: SyzygyVector) -> dict[tuple[int, int], TruncatedSeries]:
    """Write a relation among z_1..z_p as sum b_ij T_ij.

    Recursion of the two-step proof: split each component along the leading
    active variable, subtract the matching multiples of T_1j, check that the
    forced first slot vanishes, and recurse on the shorter relation.  Exactly
    p-1 split rounds; coefficient degrees never exceed the input degree.
    """
    p = v.arity
    ref = v.components[0]
    for axis in range(min(p, ref.dim)):
        if not ref.backend.is_zero(ref.center[axis]):
            raise NotARelation("decomposition requires the center to lie on {z_1=...=z_p=0}")
    ok, residual = verify_relation(v)
    if not ok:
        raise NotARelation("input vector is not a relation", residual=residual)
    out: dict[tuple[int, int], TruncatedSeries] = {}
    comps = list(v.components)
    for m in range(p - 1):
        # slot m after subtracting sum_{j>m} h_j T_mj must vanish identically
        parts = [(1, None, comps[m])]
        for j in range(m + 1, p):
            h, comps[j] = split_variable(comps[j], m)
            parts.append((1, j, h))
            if not h.is_zero():
                out[(m, j)] = h
        forced = combine(ref, parts)
        if not negligible(forced, *v.components):
            raise NotARelation("forced slot did not vanish; inconsistent relation", residual=forced)
    # the surviving last component must vanish: its relation is g * z_p = 0
    last = comps[p - 1]
    if not negligible(last, *v.components):
        raise NotARelation("terminal component did not vanish", residual=last)
    return out


def recombine(coeffs: Mapping[tuple[int, int], TruncatedSeries], p: int, dim: int | None = None,
              backend: Backend = EXACT) -> SyzygyVector:
    """sum b_ij T_ij as a SyzygyVector of arity p, at the origin: b_ij T_ij puts
    -b_ij z_j into slot i and b_ij z_i into slot j."""
    first = next(iter(coeffs.values()), None)
    n, backend = (p if dim is None else dim, backend) if first is None else (first.dim, first.backend)
    for i, j in coeffs:
        _check_pair(i, j, p, n)
    like, order = zero(n, backend=backend), _lowest_order(coeffs.values())
    return SyzygyVector(tuple(combine(like, parts, order) for parts in _trivial_parts(coeffs.items(), p)))


def _trivial_parts(pairs, count: int) -> list[list]:
    """The ``combine`` parts of sum b_ij T_ij over the ((i, j), b_ij) in ``pairs``, one
    list per slot of ``count``: -b_ij z_j into slot i, b_ij z_i into slot j."""
    slots: list[list] = [[] for _ in range(count)]
    for (i, j), b in pairs:
        if not b.is_zero():
            slots[i].append((-1, j, b))
            slots[j].append((1, i, b))
    return slots


# -- general generator systems ------------------------------------------


@dataclass(frozen=True)
class GeneratorPresentation:
    """Generators sigma_1..sigma_N of the ideal (z_1,...,z_q), normalized so
    sigma_j = z_j for j <= q and sigma_i = sum_j a_ij z_j for i > q.

    ``coeffs`` maps (i, j) with q <= i < N, 0 <= j < q to the series a_ij at 0.
    """

    dim: int
    codim: int
    total: int
    coeffs: Mapping[tuple[int, int], TruncatedSeries]
    backend: Backend = EXACT

    def __post_init__(self):
        if not 1 <= self.codim <= self.total:
            raise InvalidArity("need q <= N")
        if self.codim > self.dim:
            raise InvalidArity("need q <= n")
        for (i, j), a in self.coeffs.items():
            name = f"a_{{{i + 1},{j + 1}}}"  # the paper's 1-based indices
            if not (self.codim <= i < self.total and 0 <= j < self.codim):
                raise InvalidArity(f"coefficient {name} out of range: need q < i <= N and 1 <= j <= q")
            if (a.dim, a.center, a.backend) != (self.dim, (self.backend.zero(),) * self.dim, self.backend):
                raise InvalidArity(f"coefficient {name} must be a dim-{self.dim} {self.backend.tag} series at 0")

    def coefficient(self, i: int, j: int) -> TruncatedSeries:
        got = self.coeffs.get((i, j))
        return got if got is not None else zero(self.dim, backend=self.backend)

    def generator(self, i: int) -> TruncatedSeries:
        if i < self.codim:
            return variable(self.dim, i, backend=self.backend)
        row = [self.coefficient(i, j) for j in range(self.codim)]
        return combine(row[0], [(1, j, a) for j, a in enumerate(row)])


@dataclass(frozen=True)
class TauGenerator:
    j: int
    k: int
    vector: SyzygyVector


@dataclass(frozen=True)
class PhiGenerator:
    i: int
    vector: SyzygyVector


@dataclass(frozen=True)
class GeneralSyzygyBasis:
    tau: tuple[TauGenerator, ...]
    phi: tuple[PhiGenerator, ...]


def _fold(v: SyzygyVector, pres: GeneratorPresentation) -> tuple[list, TruncatedSeries]:
    """The fold f'_j = f_j + sum_{i>=q} f_i a_ij (j < q) of v, and sum_i f_i sigma_i
    as sum_j f'_j z_j, at the lowest order among the f_i and the a_ij of their sigma_i."""
    parts = [[(1, None, f)] for f in v.components[:pres.codim]]
    for i in range(pres.codim, v.arity):
        for j in range(pres.codim):
            a = pres.coeffs.get((i, j))
            if a is not None:
                parts[j].append((1, None, mul(v.components[i], a)))
    folded = [combine(f, ps) for f, ps in zip(v.components, parts)]
    used = [a for (i, _j), a in pres.coeffs.items() if i < v.arity]
    return folded, combine(folded[0], [(1, j, f) for j, f in enumerate(folded)], _lowest_order([*v.components, *used]))


def general_syzygy_generators(pres: GeneratorPresentation) -> GeneralSyzygyBasis:
    """Explicit generators of the relations among sigma_1..sigma_N: the
    trivial solutions in the first q slots padded with zeros, plus one
    vector phi_i per extra generator with -a_ij in slot j and 1 in slot i.
    """
    n, q, N, be = pres.dim, pres.codim, pres.total, pres.backend
    pad = (zero(n, backend=be),) * (N - q)
    taus = [TauGenerator(t.i, t.j, SyzygyVector(t.vector.components + pad))
            for t in trivial_solutions(q, dim=n, backend=be)]
    phis = []
    for i in range(q, N):
        comps = [-pres.coefficient(i, j) for j in range(q)] + list(pad)
        comps[i] = constant(n, 1, backend=be)
        phis.append(PhiGenerator(i, SyzygyVector(tuple(comps))))
    return GeneralSyzygyBasis(tuple(taus), tuple(phis))


@dataclass(frozen=True)
class GeneralDecomposition:
    tau_coeffs: Mapping[tuple[int, int], TruncatedSeries]
    phi_coeffs: Mapping[int, TruncatedSeries]

    def recombined(self, pres: GeneratorPresentation) -> SyzygyVector:
        """sum b_jk tau_jk + sum c_i phi_i at the origin: b_jk tau_jk puts -b_jk z_k
        into slot j and b_jk z_j into slot k; c_i phi_i puts c_i into slot i and
        -c_i a_ij into slot j < q.  Each slot is truncated at the lowest order
        among the b_jk, the c_i and the a_ij that its sum multiplies."""
        q = pres.codim
        taus = [((j, k), self.tau_coeffs[j, k]) for j in range(q) for k in range(j + 1, q) if (j, k) in self.tau_coeffs]
        phis = [(i, self.phi_coeffs[i]) for i in range(q, pres.total) if i in self.phi_coeffs]
        a_of = [[pres.coefficient(i, j) for j in range(q)] for i, _ in phis]
        slots = _trivial_parts(taus, pres.total)
        for (i, c), row in zip(phis, a_of):
            if not c.is_zero():
                slots[i].append((1, None, c))
                for j, a in enumerate(row):
                    if not a.is_zero():
                        slots[j].append((1, None, mul(c, -a)))
        like, factors = zero(pres.dim, backend=pres.backend), [b for _, b in taus + phis]
        return SyzygyVector(tuple(combine(like, parts, _lowest_order(factors + [row[s] for row in a_of if s < q]))
                                  for s, parts in enumerate(slots)))


def decompose_general_relation(v: SyzygyVector, pres: GeneratorPresentation) -> GeneralDecomposition:
    """Decompose a relation among sigma_1..sigma_N over the explicit basis.

    Folding the extra components into the first q slots via f'_j = f_j +
    sum_{i>q} f_i a_ij leaves a relation among z_1..z_q, which decomposes
    over the trivial solutions; the extra components ride on the phi_i.
    """
    q, N = pres.codim, pres.total
    if v.arity != N:
        raise InvalidArity(f"expected a vector of length {N}")
    folded, residual = _fold(v, pres)
    if not negligible(residual, *v.components):
        raise NotARelation("vector does not annihilate the generators", residual=residual)
    tau_coeffs = decompose_relation(SyzygyVector(tuple(folded))) if q >= 2 else {}
    # a single-variable relation forces the folded component to vanish
    if q == 1 and not negligible(folded[0], *v.components):
        raise NotARelation("folded component did not vanish", residual=folded[0])
    phi_coeffs = {i: v.components[i] for i in range(q, N) if not v.components[i].is_zero()}
    return GeneralDecomposition(tau_coeffs, phi_coeffs)
