"""The four benchmark workloads: seeded inputs, timed tasks, output checks.

Every workload is a closed loop with one client: it runs one *cycle* at a
time and starts the next only when the previous one has finished.  A cycle
is a fixed bundle of work, so whole cycles always have the same mix:

- ``ml_chain``: one n=1 Mittag-Leffler chain of 12 slabs.  Task: verified
  left-to-right solve.  Follow-ups: right-to-left cross-check and point
  evaluation of a fresh solution object.
- ``ext_merge``: one n=2 extension problem from S={z1=0} on 4 slabs.  Task:
  verified solve.  Follow-ups: evaluation at points with distinct z', and an
  agreement check with the target on S off the library's checked slice.
- ``exact_algebra``: one exact ``ideal_cofactors`` round trip, one
  ``decompose_relation`` round trip and one ``decompose_general_relation``
  round trip.  Each round trip is a task.
- ``cli_mix``: one request of every kind through ``okakit.cli.main``
  (valid, computation error, malformed), each a task.

okakit is reached through module attributes at call time (``merge.solve_chain``
rather than a name bound at import), so that the traced run sees every call
after it wraps those attributes.

The output checks are module-level functions of the inputs and outputs, so
the self-test can hand them deliberately wrong outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
from fractions import Fraction

import okakit
import okakit.cli
from okakit import cousin, cuboids, division, merge, scalars, series, syzygy


DIGITS_CAP = 16.0
# criterion 7's tolerance on the ltr-rtl difference; see ml_crosscheck_residual
CROSSCHECK_TOL = 2e-8
CROSSCHECK_GRID = 8
CROSSCHECK_NODES = 40


def digits(tol: float, residual: float) -> float:
    """log10(tol / residual), capped; higher means more margin to tol."""
    if residual <= 0.0 or not math.isfinite(residual):
        return DIGITS_CAP if residual == 0.0 else -DIGITS_CAP
    return min(DIGITS_CAP, math.log10(tol / residual))


class Record:
    """Samples, check outcomes and accuracy margins gathered by one run.

    ``clock`` is the clock every timing reads and ``mark`` counts the speed
    probes taken so far (see run.py); a sample keeps the probe counts at its
    start and end, so it can be scaled by the probes taken around it.
    """

    def __init__(self, clock, mark):
        self.clock, self.mark = clock, mark
        self.samples: dict[str, list[tuple[float, int, int]]] = {}
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.margins: dict[str, list[float]] = {}
        self.messages: list[str] = []

    def start(self) -> tuple[float, int]:
        return self.clock(), self.mark()

    def lap(self, since) -> float:
        return self.clock() - since[0]

    def add(self, name: str, value: float, since):
        """A sample taken between the ``since`` token and now."""
        self.samples.setdefault(name, []).append((value, since[1], self.mark()))

    def add_margins(self, margins):
        """(check kind, log10(tol / residual)) pairs."""
        for kind, value in margins:
            self.margins.setdefault(kind, []).append(value)

    def residual_digits(self) -> float:
        """The smallest, over the kinds of accuracy check, of the median
        margin of that kind.  A median per kind does not fall merely because
        a faster program ran more cycles, as a minimum over all checks would."""
        return min(statistics.median(v) for v in self.margins.values())

    def outcome(self, ok: bool, what: str, known_defect: bool = False):
        self.attempted += 1
        if ok:
            return
        if known_defect:
            self.known_defects += 1
        else:
            self.failed += 1
        if len(self.messages) < 20 and what not in self.messages:
            self.messages.append(what)


# -- exact polynomial arithmetic of the benchmark's own -------------------
#
# Polynomials are dicts exponent-tuple -> (re, im) with Fraction parts, all
# centred at 0.  The checks recombine okakit's outputs with this arithmetic,
# so they do not lean on the series ring they are checking.


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def p_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        c = (sign * c[0], sign * c[1])
        out[e] = _cadd(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c != (0, 0)}


def p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = _cmul(ca, cb)
            out[e] = _cadd(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c != (0, 0)}


def p_shift(a: dict, axis: int, sign: int = 1) -> dict:
    """sign * z_axis * a."""
    out = {}
    for e, c in a.items():
        e = list(e)
        e[axis] += 1
        out[tuple(e)] = (sign * c[0], sign * c[1])
    return out


def p_of(s) -> dict:
    """Coefficient dict of an exact okakit series centred at 0."""
    if any(not c.is_zero() for c in s.center):
        raise ValueError("benchmark checks expect series centred at 0")
    return {e: (c.re, c.im) for e, c in s.coeffs.items() if not c.is_zero()}


def p_complex(a: dict, z) -> complex:
    acc = 0j
    for e, c in a.items():
        term = complex(float(c[0]), float(c[1]))
        for zk, k in zip(z, e):
            if k:
                term *= zk ** k
        acc += term
    return acc


def to_series(dim: int, a: dict):
    return series.make_series(dim, {e: scalars.QQi(c[0], c[1]) for e, c in a.items()})


def rand_rational(rng, num=9, den=5) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_coeff(rng, nonzero=False):
    while True:
        c = (rand_rational(rng), rand_rational(rng))
        if not nonzero or c != (0, 0):
            return c


def rand_poly(rng, dim: int, max_degree: int, n_terms: int) -> dict:
    """Random exact polynomial: ``n_terms`` draws of a monomial of random
    total degree <= max_degree (repeats merge, so it may have fewer terms)."""
    terms: dict = {}
    for _ in range(n_terms):
        exp = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(dim)] += 1
        c = rand_coeff(rng)
        e = tuple(exp)
        terms[e] = _cadd(terms[e], c) if e in terms else c
    return {e: c for e, c in terms.items() if c != (0, 0)}


def poly_json(dim: int, a: dict) -> dict:
    return {
        "dim": dim,
        "terms": [{"exp": list(e), "coeff": [str(c[0]), str(c[1])]} for e, c in sorted(a.items())],
    }


# -- ml_chain ---------------------------------------------------------------

ML_THETA = 0.6
ML_DELTA = 0.3
ML_TOL = 1e-8


def make_ml_problem(rng, slabs: int = 12):
    """n=1 principal-part chain: ``slabs`` slabs of width 2, 1-3 poles per
    slab of order 1-2.

    The per-slab pole counts repeat 1, 2, 3 along the chain and half the
    poles, drawn at random, have order 2, so every instance has the same
    amount of work; where the poles sit and their coefficients come from the
    seed.
    """
    counts = ([1, 2, 3] * (slabs // 3 + 1))[:slabs]
    total = sum(counts)
    orders = [1] * (total - total // 2) + [2] * (total // 2)
    rng.shuffle(orders)
    lo_edge = -float(slabs)
    edges = [lo_edge + 2.0 * k for k in range(slabs + 1)]
    data, poles = [], []
    for alpha, count in enumerate(counts):
        lo, hi = edges[alpha], edges[alpha + 1]
        placed: list[complex] = []
        terms = []
        for _ in range(count):
            for _ in range(1000):
                p = complex(rng.uniform(lo + ML_DELTA + 0.15, hi - ML_DELTA - 0.15),
                            rng.uniform(-(ML_THETA - 0.15), ML_THETA - 0.15))
                if all(abs(p - q) >= 0.25 for q in placed):
                    break
            else:
                raise RuntimeError("could not place a pole")
            placed.append(p)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            terms.append(merge.PoleTerm(orders.pop(), series.constant(0, c), series.constant(0, p)))
        poles.extend(placed)
        data.append(merge.PrincipalPartData(tuple(terms)))
    problem = merge.ChiProblem(
        kind="cousin1",
        cuboid=cuboids.Cuboid(((edges[0], edges[-1]),), ((-ML_THETA, ML_THETA),)),
        breakpoints=tuple(edges[1:-1]),
        data=tuple(data),
        delta=ML_DELTA,
        tol=ML_TOL,
    )
    return problem, poles


def ml_points(rng, problem, poles, count: int) -> list[tuple]:
    (lo, hi), = problem.cuboid.re
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(lo, hi), rng.uniform(-ML_THETA, ML_THETA))
        if all(abs(z - p) > 0.05 for p in poles):
            pts.append((z,))
    return pts


def check_ml_report(report: dict, n_poles: int) -> tuple[bool, list]:
    """The library's verdict, plus a check that it covered every pole."""
    errs = report.get("principal_part_errors", [])
    ok = bool(report.get("pass")) and len(errs) == n_poles
    margins = [("ml.residue", digits(max(ML_TOL, 1e-6), e["error"])) for e in errs]
    margins += [("ml.patch_morera", digits(ML_TOL, m)) for m in report.get("patch_morera", [])]
    return ok, margins


def ml_crosscheck_residual(ltr, rtl) -> float:
    """Morera residual of the ltr - rtl difference over the whole chain.

    Criterion 7 uses 20 nodes per side on a 3-slab chain; the chain here is
    four times as wide, so each test rectangle is four times as long and 20
    nodes leave the check's own quadrature error (~5e-6) above the
    tolerance.  40 nodes bring it to ~1e-9 on a holomorphic difference.
    """
    diff = ltr.solution - rtl.solution
    return cousin.morera_residual(diff, ltr.region, grid=CROSSCHECK_GRID, nodes=CROSSCHECK_NODES)


def check_ml_crosscheck(residual: float) -> tuple[bool, list]:
    return residual <= CROSSCHECK_TOL, [("ml.crosscheck", digits(CROSSCHECK_TOL, residual))]


class MlChain:
    name = "ml_chain"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.pool = []
        for _ in range(2 if tiny else 16):
            problem, poles = make_ml_problem(rng, 3 if tiny else 12)
            self.pool.append((problem, poles, ml_points(rng, problem, poles, 20 if tiny else 200)))

    def cycle(self, k: int) -> list:
        return [self.pool[k % len(self.pool)]]

    def trace_set(self) -> list:
        return [self.pool[0]]

    @staticmethod
    def warm_up():
        rng = random.Random(0)
        problem, poles = make_ml_problem(rng, 3)
        ltr = merge.solve_chain(problem)[0]
        rtl = merge.solve_chain(problem, order="rtl", verify=False)[0]
        for z in ml_points(rng, problem, poles, 5):
            rtl.solution.fn(z)
        cousin.morera_residual(ltr.solution - rtl.solution, ltr.region, grid=1, nodes=4)

    def run(self, item, rec: Record):
        problem, poles, pts = item
        t = rec.start()
        ltr = merge.solve_chain(problem)[0]
        elapsed = rec.lap(t)
        rec.add("solve_s", elapsed, t)
        rec.add("task_s", elapsed, t)
        t = rec.start()
        rtl = merge.solve_chain(problem, order="rtl", verify=False)[0]
        t_rtl = rec.lap(t)
        # per-point evaluation of a solution object nothing has evaluated yet
        fn = rtl.solution.fn
        for z in pts:
            p = rec.start()
            fn(z)
            rec.add("eval_us", rec.lap(p) * 1e6, p)
        m = rec.start()
        residual = ml_crosscheck_residual(ltr, rtl)
        rec.add("crosscheck_s", t_rtl + rec.lap(m), t)
        ok, margins = check_ml_report(ltr.report, len(poles))
        rec.outcome(ok, f"ml_chain: report failed or incomplete: pass={ltr.report.get('pass')}")
        rec.add_margins(margins)
        ok, margins = check_ml_crosscheck(residual)
        rec.outcome(ok, f"ml_chain: ltr-rtl difference residual {residual:.3e}")
        rec.add_margins(margins)


# -- ext_merge --------------------------------------------------------------

EXT_CUBOID = (((-0.5, 0.5), (-2.0, 2.0)), ((-0.5, 0.5), (-0.5, 0.5)))  # (re, im) per axis
EXT_TOL = 1e-8
# per-slab perturbation support: z1 * (a + b z1 + c z2 + d z2^2)
EXT_BUMP_SUPPORT = ((0, 0), (1, 0), (0, 1), (0, 2))


def make_ext_problem(rng, slabs: int = 4, degree: int = 4):
    """n=2 extension from S={z1=0}: an exact rational target in z2 of degree
    ``degree``, and per-slab locals target + z1*(random polynomial).

    Every monomial of the target up to ``degree`` and of the perturbation
    support gets a nonzero coefficient, and neighbouring slabs never share a
    perturbation coefficient, so every instance has the same number of terms
    in every seam difference; the coefficients come from the seed.
    """
    target = {(0, k): rand_coeff(rng, nonzero=True) for k in range(degree + 1)}
    locals_, prev = [], None
    for _ in range(slabs):
        while True:
            bump = {e: rand_coeff(rng, nonzero=True) for e in EXT_BUMP_SUPPORT}
            if prev is None or all(bump[e] != prev[e] for e in bump):
                break
        prev = bump
        locals_.append(p_add(target, p_shift(bump, 0)))
    (re, im) = EXT_CUBOID
    lo, hi = re[1]
    width = (hi - lo) / slabs
    problem = merge.ChiProblem(
        kind="extension",
        cuboid=cuboids.Cuboid(re, im),
        breakpoints=tuple(lo + width * k for k in range(1, slabs)),
        codim=1,
        target=to_series(2, target),
        local_overrides=tuple(to_series(2, loc) for loc in locals_),
        delta=0.2,
        tol=EXT_TOL,
    )
    return problem, target


def ext_points(rng, count: int) -> list[tuple]:
    """Points of the cuboid with pairwise distinct z'."""
    (re, im) = EXT_CUBOID
    return [
        tuple(complex(rng.uniform(*re[k]), rng.uniform(*im[k])) for k in range(2))
        for _ in range(count)
    ]


def ext_subspace_points(rng, count: int) -> list[tuple]:
    """Points of S = {z1 = 0} with Im z2 != 0, off the slice the library checks."""
    (re, im) = EXT_CUBOID
    pts = []
    while len(pts) < count:
        y = rng.uniform(*im[1])
        if abs(y) > 0.05:
            pts.append((0j, complex(rng.uniform(*re[1]), y)))
    return pts


def ext_subspace_residual(solution_fn, target: dict, pts) -> float:
    return max(abs(solution_fn(z) - p_complex(target, z)) for z in pts)


def check_ext(report: dict, residual: float) -> tuple[bool, list]:
    ok = bool(report.get("pass")) and "subspace_sup_error" in report and residual <= EXT_TOL
    margins = [("ext.sup_error", digits(EXT_TOL, report.get("subspace_sup_error", math.inf))),
               ("ext.off_slice", digits(EXT_TOL, residual))]
    margins += [("ext.patch_morera", digits(EXT_TOL, m)) for m in report.get("patch_morera", [])]
    return ok, margins


class ExtMerge:
    name = "ext_merge"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.pool = []
        for _ in range(1 if tiny else 6):
            problem, target = (make_ext_problem(rng, slabs=2, degree=1) if tiny
                               else make_ext_problem(rng))
            self.pool.append((problem, target, ext_points(rng, 10 if tiny else 60),
                              ext_subspace_points(rng, 10 if tiny else 40)))

    def cycle(self, k: int) -> list:
        return [self.pool[k % len(self.pool)]]

    def trace_set(self) -> list:
        return [self.pool[0]]

    @staticmethod
    def warm_up():
        # a split, its density fill and Cauchy sums, and one Morera call;
        # a full verified solve would cost several seconds per set-up
        rng = random.Random(0)
        problem, target = make_ext_problem(rng, slabs=2, degree=1)
        sol = merge.solve_chain(problem, verify=False)[0]
        for z in ext_points(rng, 3) + ext_subspace_points(rng, 3):
            sol.solution.fn(z)
        cousin.morera_residual(sol.corrections[0], sol.region, grid=1, nodes=2)

    def run(self, item, rec: Record):
        problem, target, pts, s_pts = item
        t = rec.start()
        sols = merge.solve_chain(problem)
        elapsed = rec.lap(t)
        rec.add("solve_s", elapsed, t)
        rec.add("task_s", elapsed, t)
        if len(sols) != 1:
            rec.outcome(False, f"ext_merge: expected one chain, got {len(sols)}")
            return
        sol = sols[0]
        fn = sol.solution.fn
        for z in pts:
            p = rec.start()
            fn(z)
            rec.add("eval_us", rec.lap(p) * 1e6, p)
        residual = ext_subspace_residual(fn, target, s_pts)
        ok, margins = check_ext(sol.report, residual)
        rec.outcome(ok, f"ext_merge: pass={sol.report.get('pass')}, residual on S {residual:.3e}")
        rec.add_margins(margins)


# -- exact_algebra ----------------------------------------------------------


# The algebra cases take their shape (dimension, arity, number of terms)
# from a schedule over the case index k and their content from the seed, so
# every seed draws the same mix of sizes.


def make_cofactor_case(rng, k: int):
    """f of dim 1-4 with 1-10 random terms of degree <= 12, q in 1..dim."""
    dim = 1 + k % 4
    q = 1 + k // 4 % dim
    f = rand_poly(rng, dim, 12, 1 + 7 * k % 10)
    return ("cofactors", dim, q, f)


def trivial_recombine(coeffs: dict, p: int, dim: int) -> list[dict]:
    """sum b_ij T_ij with T_ij = -z_j in slot i, z_i in slot j."""
    comps: list[dict] = [{} for _ in range(p)]
    for (i, j), b in coeffs.items():
        comps[i] = p_add(comps[i], p_shift(b, j, -1))
        comps[j] = p_add(comps[j], p_shift(b, i))
    return comps


def make_trivial_case(rng, k: int):
    """A relation among z_1..z_p, p in 2..4, built on about 70 % of the T_ij."""
    p = 2 + k % 3
    dim = p + k // 3 % (5 - p)
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    chosen = rng.sample(pairs, max(1, round(0.7 * len(pairs))))
    coeffs = {pair: rand_poly(rng, dim, 5, 3) for pair in sorted(chosen)}
    return ("trivial", dim, p, trivial_recombine(coeffs, p, dim))


def general_recombine(tau: dict, phi: dict, pres: dict, dim: int, q: int, total: int) -> list[dict]:
    """sum b_jk tau_jk + sum c_i phi_i, with phi_i = (-a_i1..-a_iq, e_i)."""
    comps = trivial_recombine(tau, q, dim) + [{} for _ in range(total - q)]
    for i, c in phi.items():
        comps[i] = p_add(comps[i], c)
        for j in range(q):
            a = pres.get((i, j))
            if a:
                comps[j] = p_add(comps[j], p_mul(c, a), -1)
    return comps


def make_general_case(rng, k: int):
    """A relation among sigma_1..sigma_N for a random presentation."""
    dim = 2 + k % 2
    q = 1 + k // 2 % dim
    total = q + 1 + k // 6 % 2
    pres = {(i, j): rand_poly(rng, dim, 3, 2) for i in range(q, total) for j in range(q)}
    tau = {(j, k): rand_poly(rng, dim, 3, 2) for j in range(q) for k in range(j + 1, q)}
    phi = {i: rand_poly(rng, dim, 3, 2) for i in range(q, total)}
    comps = general_recombine(tau, phi, pres, dim, q, total)
    return ("general", dim, q, total, pres, comps)


def algebra_inputs(case):
    """okakit objects for a case; built in set-up, not in the timed task."""
    kind, dim = case[0], case[1]
    if kind == "cofactors":
        return to_series(dim, case[3]), division.CoordinateSubspace(dim, case[2])
    if kind == "trivial":
        return syzygy.SyzygyVector(tuple(to_series(dim, c) for c in case[3]))
    _, dim, q, total, pres, comps = case
    presentation = syzygy.GeneratorPresentation(
        dim, q, total, {key: to_series(dim, a) for key, a in pres.items()})
    return syzygy.SyzygyVector(tuple(to_series(dim, c) for c in comps)), presentation


def algebra_task(case, inputs):
    """One round trip with the library's own exact verification."""
    kind = case[0]
    if kind == "cofactors":
        f, sub = inputs
        cof = division.ideal_cofactors(f, sub)
        return cof, cof.recombined() == f
    if kind == "trivial":
        v = inputs
        coeffs = syzygy.decompose_relation(v)
        back = syzygy.recombine(coeffs, v.arity, dim=v.dim)
        return coeffs, all((a - b).is_zero() for a, b in zip(back.components, v.components))
    v, presentation = inputs
    dec = syzygy.decompose_general_relation(v, presentation)
    back = dec.recombined(presentation)
    return dec, all((a - b).is_zero() for a, b in zip(back.components, v.components))


def check_algebra(case, out) -> bool:
    """Exact recombination of okakit's output with the benchmark's arithmetic."""
    kind, dim = case[0], case[1]
    if kind == "cofactors":
        q, f = case[2], case[3]
        if len(out.cofactors) != q:
            return False
        g = p_of(out.remainder)
        if any(e[axis] for e in g for axis in range(q)):
            return False
        acc = g
        for j, h in enumerate(out.cofactors):
            acc = p_add(acc, p_shift(p_of(h), j))
        return acc == f
    if kind == "trivial":
        p, comps = case[2], case[3]
        if any(not 0 <= i < j < p for i, j in out):
            return False
        back = trivial_recombine({key: p_of(b) for key, b in out.items()}, p, dim)
        return back == comps
    _, dim, q, total, pres, comps = case
    back = general_recombine({key: p_of(b) for key, b in out.tau_coeffs.items()},
                             {i: p_of(b) for i, b in out.phi_coeffs.items()}, pres, dim, q, total)
    return back == comps


class ExactAlgebra:
    name = "exact_algebra"
    makers = (make_cofactor_case, make_trivial_case, make_general_case)

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.pool = []
        for k in range(2 if tiny else 400):
            group = []
            for make in self.makers:
                case = make(rng, k)
                group.append((case, algebra_inputs(case)))
            self.pool.append(group)

    def cycle(self, k: int) -> list:
        return self.pool[k % len(self.pool)]

    def trace_set(self) -> list:
        return [item for group in self.pool[:20] for item in group]

    @staticmethod
    def warm_up():
        rng = random.Random(0)
        for make in ExactAlgebra.makers:
            case = make(rng, 0)
            out, _ = algebra_task(case, algebra_inputs(case))
            check_algebra(case, out)

    def run(self, item, rec: Record):
        case, inputs = item
        t = rec.start()
        try:
            out, verified = algebra_task(case, inputs)
        except okakit.errors.OkakitError as exc:
            rec.outcome(False, f"exact_algebra: {case[0]} raised {exc!r}")
            return
        elapsed = rec.lap(t)
        rec.add("algebra_op_s", elapsed, t)
        rec.add("task_s", elapsed, t)
        ok = verified and check_algebra(case, out)
        rec.outcome(ok, f"exact_algebra: {case[0]} round trip not exact")
        rec.add_margins([("algebra.exact", DIGITS_CAP if ok else -DIGITS_CAP)])


# -- cli_mix ----------------------------------------------------------------

CLI_TOL = 1e-8
OK, ERROR, MALFORMED = 0, 1, 2


def rand_tree(rng, index: int, degree: int) -> dict:
    """Expression tree of a random polynomial in z_index (1-based)."""
    args = []
    for k in range(degree + 1):
        c = {"op": "const", "re": round(rng.uniform(-2, 2), 3), "im": round(rng.uniform(-2, 2), 3)}
        if k == 0:
            args.append(c)
        else:
            power = {"op": "pow", "base": {"op": "var", "index": index}, "exp": k}
            args.append({"op": "mul", "args": [c, power]})
    return {"op": "add", "args": args}


def cli_cousin1_payload(rng) -> dict:
    slabs = []
    for lo in (-3.0, -1.0, 1.0):
        slabs.append({"poles": [{"re": round(rng.uniform(lo + 0.5, lo + 1.5), 3),
                                 "im": round(rng.uniform(-0.4, 0.4), 3),
                                 "coeff_re": round(rng.uniform(-2, 2), 3),
                                 "coeff_im": round(rng.uniform(-2, 2), 3)}]})
    return {"cuboid": {"re": [[-3, 3]], "im": [[-0.6, 0.6]]}, "breakpoints": [-1.0, 1.0],
            "delta": 0.3, "slabs": slabs}


def cli_jokuiko_payload(rng) -> dict:
    return {"cuboid": {"re": [[-0.5, 0.5], [-2, 2]], "im": [[-0.5, 0.5], [-0.5, 0.5]]},
            "breakpoints": [0.0], "q": 1, "delta": 0.2, "target": rand_tree(rng, 2, 2)}


def cli_split_payload(rng) -> dict:
    # fixed geometry and degree: the overlap residual, which residual_digits
    # reads, then moves with the program rather than with the draw
    return {"function": rand_tree(rng, 1, 3),
            "geometry": {"s": 0.0, "delta": 0.3, "theta": 0.5, "re_lo": -1.5, "re_hi": 1.5}}


def make_cli_cycle(rng) -> list[tuple]:
    """One request of each kind: (label, subcommand, stdin text, expected
    exit code, known defect, payload).  Known defects are inputs the CLI
    contract says must exit 2 but that end in a traceback in okakit 0.1.0.
    Request shapes are fixed and their content comes from the seed, so the
    cost of each kind of request does not depend on the seed."""
    dim, q, p = 3, 2, 3
    f = rand_poly(rng, dim, 6, 6)
    relation = make_trivial_case(rng, 1)
    general = make_general_case(rng, 5)
    _, gdim, gq, gtotal, gpres, gcomps = general
    cousin1 = cli_cousin1_payload(rng)
    jokuiko = cli_jokuiko_payload(rng)
    splits = [cli_split_payload(rng) for _ in range(2)]
    near_seam = cli_cousin1_payload(rng)
    near_seam["slabs"][1]["poles"][0]["re"] = -0.95
    no_im = cli_cousin1_payload(rng)
    del no_im["cuboid"]["im"]
    asymmetric = cli_jokuiko_payload(rng)
    asymmetric["cuboid"]["im"][1] = [-0.3, 0.5]
    bad_geometry = cli_split_payload(rng)
    bad_geometry["geometry"]["s"] = 1.45
    inv_target = cli_jokuiko_payload(rng)
    inv_target["target"] = {"op": "inv", "arg": inv_target["target"]}
    requests = [
        ("divide", "divide", {"series": poly_json(dim, f), "q": q}, OK, False),
        ("syzygy-trivial", "syzygy", {"mode": "trivial", "p": p}, OK, False),
        ("syzygy-decompose", "syzygy",
         {"mode": "decompose", "components": [poly_json(relation[1], c) for c in relation[3]]}, OK, False),
        ("syzygy-general", "syzygy",
         {"mode": "general", "dim": gdim, "q": gq, "N": gtotal,
          "coefficients": [{"i": i + 1, "j": j + 1, "series": poly_json(gdim, a)}
                           for (i, j), a in sorted(gpres.items())],
          "vector": [poly_json(gdim, c) for c in gcomps]}, OK, False),
        ("cousin-split", "cousin-split", splits[0], OK, False),
        ("cousin-split", "cousin-split", splits[1], OK, False),
        ("cousin1", "cousin1", cousin1, OK, False),
        ("jokuiko", "jokuiko", jokuiko, OK, False),
        ("selftest", "selftest", None, OK, False),
        ("non-relation", "syzygy",
         {"mode": "decompose", "components": [poly_json(2, {(0, 0): (Fraction(1), Fraction(0))}),
                                              poly_json(2, {})]}, ERROR, False),
        ("pole-near-seam", "cousin1", near_seam, ERROR, False),
        ("bad-json", "divide", '{"series": ', MALFORMED, False),
        ("missing-q", "divide", {"series": poly_json(dim, f)}, MALFORMED, False),
        ("unknown-mode", "syzygy", {"mode": "koszul", "p": p}, MALFORMED, False),
        ("slab-count", "cousin1", dict(cousin1, breakpoints=[0.0]), MALFORMED, False),
        ("inv-target", "jokuiko", inv_target, MALFORMED, False),
        ("bad-geometry", "cousin-split", bad_geometry, MALFORMED, False),
        ("cuboid-without-im", "cousin1", no_im, MALFORMED, True),
        ("asymmetric-im", "jokuiko", asymmetric, MALFORMED, True),
    ]
    out = []
    for label, command, payload, expect, known in requests:
        text = payload if isinstance(payload, str) or payload is None else json.dumps(payload)
        out.append((label, command, text, expect, known, payload))
    return out


def run_cli(command: str, text: str | None) -> tuple[int | None, str, str | None]:
    """okakit.cli.main in-process, stdin and stdout redirected.  Returns
    (exit code, stdout, repr of the exception if main raised)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        saved = okakit.cli.sys.stdin
        okakit.cli.sys.stdin = io.StringIO(text or "")
        try:
            code = okakit.cli.main([command, "--tol", str(CLI_TOL)])
            raised = None
        except Exception as exc:  # a traceback is an outcome the benchmark records
            code, raised = None, repr(exc)
        finally:
            okakit.cli.sys.stdin = saved
    return code, stdout.getvalue(), raised


def _member(f: dict, q: int) -> bool:
    return all(any(e[axis] for axis in range(q)) for e in f)


def check_cli(request, code, stdout: str, raised) -> tuple[bool, list]:
    """Exit code per the CLI contract, and for exit 0 a sound report."""
    label, command, _, expect, _, payload = request
    if raised is not None or code != expect:
        return False, []
    if expect != OK:
        return True, []
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return False, []
    if report.get("pass") is not True or report.get("command") != command:
        return False, []
    body = report["result"]
    margins = []
    if label == "divide":
        f = {tuple(t["exp"]): (Fraction(t["coeff"][0]), Fraction(t["coeff"][1]))
             for t in payload["series"]["terms"]}
        if body["member"] != _member(f, payload["q"]) or body["recombination_exact"] is not True:
            return False, []
        margins.append(("cli.divide", DIGITS_CAP))
    elif label.startswith("syzygy-") and label != "syzygy-trivial":
        if body["verification"]["recombined_equals_input"] is not True:
            return False, []
        margins.append(("cli.syzygy", digits(CLI_TOL, body["verification"]["residual_norm"])))
    elif label == "cousin-split":
        margins.append(("cli.cousin_split", digits(CLI_TOL, body["max_overlap_residual"])))
    elif label in ("cousin1", "jokuiko"):
        for chain in body["chains"]:
            margins += [(f"cli.{label}.patch_morera", digits(CLI_TOL, m)) for m in chain["patch_morera"]]
            margins += [("cli.cousin1.residue", digits(max(CLI_TOL, 1e-6), e["error"]))
                        for e in chain.get("principal_part_errors", [])]
            if "subspace_sup_error" in chain:
                margins.append(("cli.jokuiko.sup_error", digits(CLI_TOL, chain["subspace_sup_error"])))
    return True, margins


class CliMix:
    name = "cli_mix"

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.pool = [make_cli_cycle(rng) for _ in range(1 if tiny else 8)]

    def cycle(self, k: int) -> list:
        return self.pool[k % len(self.pool)]

    def trace_set(self) -> list:
        return self.pool[0]

    @staticmethod
    def warm_up():
        for request in make_cli_cycle(random.Random(0)):
            if request[0] in ("divide", "syzygy-decompose", "cousin-split", "bad-json"):
                run_cli(request[1], request[2])

    def run(self, request, rec: Record):
        t = rec.start()
        code, stdout, raised = run_cli(request[1], request[2])
        elapsed = rec.lap(t)
        rec.add("cli_ms", elapsed * 1e3, t)
        rec.add("task_s", elapsed, t)
        ok, margins = check_cli(request, code, stdout, raised)
        rec.outcome(ok, f"cli_mix: {request[0]} exit {code} (want {request[3]}), raised {raised}",
                    known_defect=request[4])
        rec.add_margins(margins)


WORKLOADS = {cls.name: cls for cls in (MlChain, ExtMerge, ExactAlgebra, CliMix)}
