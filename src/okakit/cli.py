"""Command-line front end: JSON problem instances in, verification reports out.

Exit status: 0 when every verification block passes, 1 on a computation
error, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import random
import sys
import time

import numpy as np

from . import __version__
from . import exprtree
from .cousin import Evaluable, QuadratureSpec, SplitGeometry, cousin_split, morera_residual, overlap_grid
from .cuboids import Cuboid
from .division import CoordinateSubspace, ideal_cofactors, is_member
from .errors import OkakitError, SchemaError
from .merge import ChiProblem, PoleTerm, PrincipalPartData, solve_chain
from .scalars import EXACT
from .series import TruncatedSeries, constant, from_json, to_json
from .syzygy import (
    GeneratorPresentation,
    SyzygyVector,
    decompose_general_relation,
    decompose_relation,
    general_syzygy_generators,
    recombine,
    trivial_solutions,
)


def _load_input(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc


def _require(data: dict, key: str, kinds, what: str):
    if key not in data:
        raise SchemaError(f"missing field {key!r} in {what}")
    if kinds is not None and not isinstance(data[key], kinds):
        raise SchemaError(f"field {key!r} in {what} has the wrong type")
    return data[key]


def _series_from(data, what: str, eps: float) -> TruncatedSeries:
    if not isinstance(data, dict):
        raise SchemaError(f"{what} must be a series object")
    try:
        return from_json(data, eps=eps)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"bad series in {what}: {exc}") from exc


def _quad_from(data, args) -> QuadratureSpec:
    data = data or {}
    if not isinstance(data, dict):
        raise SchemaError("quadrature must be an object")
    unknown = sorted(set(data) - {"panels", "nodes"})
    if unknown:
        raise SchemaError(f"unknown quadrature keys {unknown}; expected 'panels' and 'nodes'")
    kwargs = {}
    if args.panels is not None:
        kwargs["panels"] = args.panels
    kwargs.update(data)
    try:
        return QuadratureSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad quadrature spec: {exc}") from exc


# -- subcommands ---------------------------------------------------------


def cmd_divide(data: dict, args) -> tuple[dict, bool]:
    f = _series_from(_require(data, "series", dict, "divide input"), "series", args.tol)
    q = _require(data, "q", int, "divide input")
    sub = CoordinateSubspace(f.dim, q)
    cof = ideal_cofactors(f, sub)
    member = is_member(f, sub)
    recombined = cof.recombined()
    exact = recombined == f if f.backend.exact else None
    return {
        "cofactors": [to_json(h) for h in cof.cofactors],
        "remainder": to_json(cof.remainder),
        "member": member,
        "recombination_exact": exact,
    }, (exact is not False)


def cmd_syzygy(data: dict, args) -> tuple[dict, bool]:
    mode = _require(data, "mode", str, "syzygy input")
    eps = args.tol
    if mode == "trivial":
        p = _require(data, "p", int, "syzygy input")
        dim = data.get("dim")
        sols = trivial_solutions(p, dim=dim)
        return {
            "generators": [
                {"i": t.i + 1, "j": t.j + 1,
                 "components": [to_json(c) for c in t.vector.components]}
                for t in sols
            ]
        }, True
    if mode == "decompose":
        comps = _require(data, "components", list, "syzygy input")
        v = SyzygyVector(tuple(_series_from(c, "component", eps) for c in comps))
        coeffs = decompose_relation(v)
        back = recombine(coeffs, v.arity, dim=v.dim, backend=v.components[0].backend)
        residual = 0.0
        equal = all((a - b).is_zero() for a, b in zip(back.components, v.components)) \
            if v.components[0].backend.exact else None
        if equal is None:
            residual = max(
                (max((abs(c) for c in (a - b).coeffs.values()), default=0.0)
                 for a, b in zip(back.components, v.components)),
                default=0.0,
            )
            equal = residual <= eps
        return {
            "coefficients": [
                {"i": i + 1, "j": j + 1, "series": to_json(b)} for (i, j), b in sorted(coeffs.items())
            ],
            "verification": {"recombined_equals_input": bool(equal), "residual_norm": residual},
        }, bool(equal)
    if mode == "general":
        dim = _require(data, "dim", int, "syzygy input")
        q = _require(data, "q", int, "syzygy input")
        total = _require(data, "N", int, "syzygy input")
        coeffs = {}
        for entry in data.get("coefficients", []):
            i = _require(entry, "i", int, "generator coefficient") - 1
            j = _require(entry, "j", int, "generator coefficient") - 1
            coeffs[(i, j)] = _series_from(_require(entry, "series", dict, "generator coefficient"),
                                          "generator coefficient", eps)
        pres = GeneratorPresentation(dim, q, total, coeffs)
        if "vector" in data:
            v = SyzygyVector(tuple(_series_from(c, "vector component", eps) for c in data["vector"]))
            dec = decompose_general_relation(v, pres)
            back = dec.recombined(pres)
            equal = all((a - b).is_zero() for a, b in zip(back.components, v.components))
            return {
                "tau_coefficients": [
                    {"j": j + 1, "k": k + 1, "series": to_json(b)}
                    for (j, k), b in sorted(dec.tau_coeffs.items())
                ],
                "phi_coefficients": [
                    {"i": i + 1, "series": to_json(b)} for i, b in sorted(dec.phi_coeffs.items())
                ],
                "verification": {"recombined_equals_input": bool(equal), "residual_norm": 0.0},
            }, bool(equal)
        basis = general_syzygy_generators(pres)
        return {
            "tau": [
                {"j": t.j + 1, "k": t.k + 1, "components": [to_json(c) for c in t.vector.components]}
                for t in basis.tau
            ],
            "phi": [
                {"i": p.i + 1, "components": [to_json(c) for c in p.vector.components]}
                for p in basis.phi
            ],
        }, True
    raise SchemaError(f"unknown syzygy mode {mode!r}")


def cmd_cousin_split(data: dict, args) -> tuple[dict, bool]:
    dim = data.get("dim", 1)
    tree = _require(data, "function", dict, "cousin-split input")
    phi = exprtree.to_evaluable(tree, dim)
    g = _require(data, "geometry", dict, "cousin-split input")
    base = Cuboid.from_json(g["base"]) if "base" in g else None
    try:
        geom = SplitGeometry(
            s=float(_require(g, "s", (int, float), "geometry")),
            delta=float(_require(g, "delta", (int, float), "geometry")),
            theta=float(_require(g, "theta", (int, float), "geometry")),
            re_lo=float(_require(g, "re_lo", (int, float), "geometry")),
            re_hi=float(_require(g, "re_hi", (int, float), "geometry")),
            base=base,
        )
    except ValueError as exc:
        raise SchemaError(f"bad geometry: {exc}") from exc
    spec = _quad_from(data.get("quadrature"), args)
    phi1, phi2 = cousin_split(phi, geom, spec)
    grid_cfg = data.get("grid", {})
    pts = np.array(overlap_grid(geom, nx=grid_cfg.get("nx", 7), ny=grid_cfg.get("ny", 7)))
    v1, v2 = phi1.values(pts), phi2.values(pts)
    res = np.abs(v1 - v2 - phi.values(pts))
    worst = float(res.max())
    rows = [[zn.real, zn.imag, a.real, a.imag, b.real, b.imag, r]
            for zn, a, b, r in zip(pts[:, -1].tolist(), v1.tolist(), v2.tolist(), res.tolist())]
    if data.get("csv"):
        with open(data["csv"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "phi1_re", "phi1_im", "phi2_re", "phi2_im", "residual"])
            writer.writerows(rows)
    ok = worst <= args.tol
    return {"max_overlap_residual": worst, "tolerance": args.tol, "samples": len(pts)}, ok


def _solve(request: dict, **fields) -> tuple[dict, bool]:
    """Solve and verify a ChiProblem; its validation errors are input errors."""
    try:
        problem = ChiProblem(**fields)
    except ValueError as exc:
        raise SchemaError(f"bad problem: {exc}") from exc
    sols = solve_chain(problem)
    if request.get("csv"):
        _dump_solution_csv(request["csv"], sols)
    reports = [s.report for s in sols]
    return {"chains": reports}, all(r["pass"] for r in reports)


def _chi_common(data: dict, args):
    cuboid = Cuboid.from_json(_require(data, "cuboid", dict, "problem input"))
    breakpoints = tuple(float(t) for t in data.get("breakpoints", []))
    spec = _quad_from(data.get("quadrature"), args)
    delta = data.get("delta")
    tol = data.get("tolerance", args.tol)
    return cuboid, breakpoints, spec, delta, tol


def cmd_cousin1(data: dict, args) -> tuple[dict, bool]:
    cuboid, breakpoints, spec, delta, tol = _chi_common(data, args)
    slabs = _require(data, "slabs", list, "cousin1 input")
    if len(slabs) != len(breakpoints) + 1:
        raise SchemaError("need exactly one slab datum per slab")
    ndim = cuboid.ndim
    payload = []
    for entry in slabs:
        terms = []
        for pole in _require(entry, "poles", list, "slab datum"):
            order = pole.get("order", 1)
            if not isinstance(order, int) or order < 1:
                raise SchemaError("pole order must be a positive integer")
            locus = constant(ndim - 1, complex(pole.get("re", 0.0), pole.get("im", 0.0)), backend=EXACT)
            coeff = constant(ndim - 1, complex(pole.get("coeff_re", 1.0), pole.get("coeff_im", 0.0)),
                             backend=EXACT)
            terms.append(PoleTerm(order, coeff, locus))
        payload.append(PrincipalPartData(tuple(terms)))
    return _solve(data, kind="cousin1", cuboid=cuboid, breakpoints=breakpoints, data=tuple(payload),
                  delta=delta, quad=spec, tol=tol)


def cmd_jokuiko(data: dict, args) -> tuple[dict, bool]:
    cuboid, breakpoints, spec, delta, tol = _chi_common(data, args)
    q = _require(data, "q", int, "jokuiko input")
    ndim = cuboid.ndim
    target = exprtree.to_series(_require(data, "target", dict, "jokuiko input"), ndim)
    overrides = None
    if "locals" in data:
        locs = _require(data, "locals", list, "jokuiko input")
        if len(locs) != len(breakpoints) + 1:
            raise SchemaError("need exactly one local extension per slab")
        overrides = tuple(exprtree.to_series(t, ndim) for t in locs)
    return _solve(data, kind="extension", cuboid=cuboid, breakpoints=breakpoints, codim=q,
                  target=target, local_overrides=overrides, delta=delta, quad=spec, tol=tol)


def _dump_solution_csv(path: str, sols, nx: int = 21, ny: int = 5):
    """Solution values on an nx x ny grid of the last axis; points where the
    value is not finite (a pole) are left out."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "re", "im", "f_re", "f_im"])
        for idx, sol in enumerate(sols):
            (rlo, rhi) = sol.region.re[-1]
            (ilo, ihi) = sol.region.im[-1]
            mids = sol.region.midpoint()
            pts = [mids[:-1] + (complex(r, i),) for r in np.linspace(rlo, rhi, nx) for i in np.linspace(ilo, ihi, ny)]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                vals = sol.solution.values(pts).tolist()
            writer.writerows([idx, z[-1].real, z[-1].imag, v.real, v.imag]
                             for z, v in zip(pts, vals) if cmath.isfinite(v))


def cmd_selftest(data: dict, args) -> tuple[dict, bool]:
    checks = {}
    # division recombination on a fixed polynomial
    from .series import monomial
    f = monomial(3, (1, 0, 1)) + monomial(3, (0, 2, 0))
    cof = ideal_cofactors(f, CoordinateSubspace(3, 2))
    checks["division_recombines"] = cof.recombined() == f and cof.remainder.is_zero()
    # syzygy decomposition round trip
    rng = random.Random(args.seed)
    t = trivial_solutions(3)
    coeffs = {(t1.i, t1.j): constant(3, rng.randint(-3, 3)) for t1 in t}
    v = recombine(coeffs, 3)
    back = recombine(decompose_relation(v), 3)
    checks["syzygy_round_trip"] = all(
        (a - b).is_zero() for a, b in zip(back.components, v.components)
    )
    # cousin split jump for a constant density
    geom = SplitGeometry(s=0.0, delta=0.2, theta=0.5, re_lo=-1.0, re_hi=1.0)
    one = Evaluable(lambda z: 1 + 0j)
    p1, p2 = cousin_split(one, geom)
    z = (0.05 + 0.1j,)
    checks["cousin_jump_constant"] = abs(p1(z) - p2(z) - 1) < 1e-8
    # morera detects conj
    region = Cuboid(((-1.0, 1.0),), ((-1.0, 1.0),))
    checks["morera_entire"] = morera_residual(Evaluable(lambda z: z[0] ** 2), region) < 1e-10
    checks["morera_conj"] = morera_residual(Evaluable(lambda z: z[0].conjugate()), region) > 1e-3
    return {"checks": checks}, all(checks.values())


COMMANDS = {
    "divide": cmd_divide,
    "syzygy": cmd_syzygy,
    "cousin-split": cmd_cousin_split,
    "cousin1": cmd_cousin1,
    "jokuiko": cmd_jokuiko,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okakit",
        description="Coordinate-ideal division, explicit syzygies, seam splitting, "
                    "and slab-merge solvers, with machine-readable verification reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", default="-", help="input JSON file ('-' for stdin)")
        p.add_argument("--output", default="-", help="report JSON file ('-' for stdout)")
        p.add_argument("--tol", type=float, default=1e-8, help="verification tolerance")
        p.add_argument("--panels", type=int, default=None, help="quadrature panel override")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "selftest" and args.input == "-":
            data = {}
        else:
            data = _load_input(args.input)
        body, ok = COMMANDS[args.command](data, args)
    except SchemaError as exc:
        print(f"okakit: input error: {exc}", file=sys.stderr)
        return 2
    except OkakitError as exc:
        print(f"okakit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "tolerance": args.tol,
        "elapsed_s": round(time.perf_counter() - started, 6),
        "input": data,
        "pass": bool(ok),
        "result": body,
    }
    text = json.dumps(report, indent=2, default=str)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
