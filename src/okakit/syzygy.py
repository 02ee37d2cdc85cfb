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


def trivial_solution(i: int, j: int, p: int, dim: int | None = None, backend: Backend = EXACT) -> TrivialSolution:
    if not 0 <= i < j < p:
        raise InvalidArity(f"need 0 <= i < j < p, got i={i}, j={j}, p={p}")
    n = dim if dim is not None else p
    if n < p:
        raise InvalidArity("ambient dimension must be at least the arity")
    comps = []
    for slot in range(p):
        if slot == i:
            comps.append(-variable(n, j, backend=backend))
        elif slot == j:
            comps.append(variable(n, i, backend=backend))
        else:
            comps.append(zero(n, backend=backend))
    return TrivialSolution(i, j, SyzygyVector(tuple(comps)))


def trivial_solutions(p: int, dim: int | None = None, backend: Backend = EXACT) -> list[TrivialSolution]:
    """All p(p-1)/2 trivial solutions in lexicographic (i, j) order.

    For p = 1 the trivial solution is 0 by convention, so the list is empty.
    """
    if p < 1:
        raise InvalidArity(f"arity must be positive, got {p}")
    out = []
    for i in range(p):
        for j in range(i + 1, p):
            out.append(trivial_solution(i, j, p, dim=dim, backend=backend))
    return out


def _sum_of_products(pairs, dim: int, backend: Backend, center=None) -> TruncatedSeries:
    """sum a * b over the series pairs (a, b), skipping every product with a
    zero factor.  The sum is truncated at the lowest order among all the
    factors, skipped ones included, as the full sum would be."""
    order = min((s.order for pair in pairs for s in pair if s.order is not None), default=None)
    acc = zero(dim, backend=backend, center=center, order=order)
    for a, b in pairs:
        if not (a.is_zero() or b.is_zero()):
            acc = acc + mul(a, b)
    return acc


def _combination(pairs, arity: int, dim: int, backend: Backend) -> SyzygyVector:
    """sum b * g over the pairs (b, g) of a series and a SyzygyVector, slot by slot."""
    return SyzygyVector(tuple(_sum_of_products([(b, g.components[slot]) for b, g in pairs], dim, backend)
                              for slot in range(arity)))


def relation_residual(v: SyzygyVector) -> TruncatedSeries:
    """sum_j v_j * z_j; zero iff v is a relation."""
    ref = v.components[0]
    return _sum_of_products([(c, variable(c.dim, j, backend=c.backend, center=c.center))
                             for j, c in enumerate(v.components)], ref.dim, ref.backend, ref.center)


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
    be = ref.backend
    for m in range(p - 1):
        splits = [split_variable(c, m) for c in comps[m:]]
        # slot m after subtracting sum_{j>m} h_j T_mj must vanish identically
        forced = comps[m]
        for offset, (h, _g) in enumerate(splits[1:], start=1):
            j = m + offset
            zj = variable(ref.dim, j, backend=be, center=ref.center)
            forced = forced + mul(h, zj)
            if not h.is_zero():
                out[(m, j)] = h
        if not negligible(forced, *v.components):
            raise NotARelation("forced slot did not vanish; inconsistent relation", residual=forced)
        comps[m] = zero(ref.dim, backend=be, center=ref.center, order=ref.order)
        for offset, (_h, g) in enumerate(splits[1:], start=1):
            comps[m + offset] = g
    # the surviving last component must vanish: its relation is g * z_p = 0
    last = comps[p - 1]
    if not negligible(last, *v.components):
        raise NotARelation("terminal component did not vanish", residual=last)
    return out


def recombine(coeffs: Mapping[tuple[int, int], TruncatedSeries], p: int, dim: int | None = None,
              backend: Backend = EXACT) -> SyzygyVector:
    """sum b_ij T_ij as a SyzygyVector of arity p."""
    n = dim
    for b in coeffs.values():
        n = b.dim
        backend = b.backend
        break
    if n is None:
        n = p
    pairs = [(b, trivial_solution(i, j, p, dim=n, backend=backend).vector) for (i, j), b in coeffs.items()]
    return _combination(pairs, p, n, backend)


# -- general generator systems ------------------------------------------


@dataclass(frozen=True)
class GeneratorPresentation:
    """Generators sigma_1..sigma_N of the ideal (z_1,...,z_q), normalized so
    sigma_j = z_j for j <= q and sigma_i = sum_j a_ij z_j for i > q.

    ``coeffs`` maps (i, j) with q <= i < N, 0 <= j < q to the series a_ij.
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
        for (i, j) in self.coeffs:
            if not (self.codim <= i < self.total and 0 <= j < self.codim):
                raise InvalidArity(f"coefficient index ({i},{j}) out of range")

    def coefficient(self, i: int, j: int) -> TruncatedSeries:
        got = self.coeffs.get((i, j))
        return got if got is not None else zero(self.dim, backend=self.backend)

    def generator(self, i: int) -> TruncatedSeries:
        if i < self.codim:
            return variable(self.dim, i, backend=self.backend)
        acc = zero(self.dim, backend=self.backend)
        for j in range(self.codim):
            a = self.coeffs.get((i, j))
            if a is not None:
                acc = acc + mul(a, variable(self.dim, j, backend=a.backend, center=a.center))
        return acc


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


def apply_generators(v: SyzygyVector, pres: GeneratorPresentation) -> TruncatedSeries:
    """sum v_i sigma_i; zero iff v annihilates the generator tuple."""
    ref = v.components[0]
    return _sum_of_products([(c, pres.generator(i)) for i, c in enumerate(v.components)],
                            ref.dim, ref.backend, ref.center)


def general_syzygy_generators(pres: GeneratorPresentation) -> GeneralSyzygyBasis:
    """Explicit generators of the relations among sigma_1..sigma_N: the
    trivial solutions in the first q slots padded with zeros, plus one
    vector phi_i per extra generator with -a_ij in slot j and 1 in slot i.
    """
    n, q, N = pres.dim, pres.codim, pres.total
    be = pres.backend
    taus = []
    for t in trivial_solutions(q, dim=n, backend=be):
        padded = tuple(t.vector.components) + tuple(zero(n, backend=be) for _ in range(N - q))
        taus.append(TauGenerator(t.i, t.j, SyzygyVector(padded)))
    phis = []
    for i in range(q, N):
        comps = []
        for j in range(q):
            comps.append(-pres.coefficient(i, j))
        for slot in range(q, N):
            if slot == i:
                comps.append(constant(n, 1, backend=be))
            else:
                comps.append(zero(n, backend=be))
        phis.append(PhiGenerator(i, SyzygyVector(tuple(comps))))
    return GeneralSyzygyBasis(tuple(taus), tuple(phis))


@dataclass(frozen=True)
class GeneralDecomposition:
    tau_coeffs: Mapping[tuple[int, int], TruncatedSeries]
    phi_coeffs: Mapping[int, TruncatedSeries]

    def recombined(self, pres: GeneratorPresentation) -> SyzygyVector:
        basis = general_syzygy_generators(pres)
        pairs = [(self.tau_coeffs[t.j, t.k], t.vector) for t in basis.tau if (t.j, t.k) in self.tau_coeffs]
        pairs += [(self.phi_coeffs[ph.i], ph.vector) for ph in basis.phi if ph.i in self.phi_coeffs]
        return _combination(pairs, pres.total, pres.dim, pres.backend)


def decompose_general_relation(v: SyzygyVector, pres: GeneratorPresentation) -> GeneralDecomposition:
    """Decompose a relation among sigma_1..sigma_N over the explicit basis.

    Folding the extra components into the first q slots via f'_j = f_j +
    sum_{i>q} f_i a_ij leaves a relation among z_1..z_q, which decomposes
    over the trivial solutions; the extra components ride on the phi_i.
    """
    q, N = pres.codim, pres.total
    if v.arity != N:
        raise InvalidArity(f"expected a vector of length {N}")
    residual = apply_generators(v, pres)
    if not negligible(residual, *v.components):
        raise NotARelation("vector does not annihilate the generators", residual=residual)
    folded = []
    for j in range(q):
        fj = v.components[j]
        for i in range(q, N):
            a = pres.coeffs.get((i, j))
            if a is not None:
                fj = fj + mul(v.components[i], a)
        folded.append(fj)
    tau_coeffs = decompose_relation(SyzygyVector(tuple(folded))) if q >= 2 else {}
    # a single-variable relation forces the folded component to vanish
    if q == 1 and not negligible(folded[0], *v.components):
        raise NotARelation("folded component did not vanish", residual=folded[0])
    phi_coeffs = {i: v.components[i] for i in range(q, N) if not v.components[i].is_zero()}
    return GeneralDecomposition(tau_coeffs, phi_coeffs)
