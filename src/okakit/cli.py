"""Command-line front end: JSON problem instances in, verification reports out.

Exit status: 0 when every verification block passes; 1 when one fails or
the computation raises an okakit or arithmetic error; 2 on malformed input.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import os
import random
import sys
import time
from functools import cache, partial

import numpy as np

from . import __version__
from . import exprtree
from .cousin import Evaluable, QuadratureSpec, SplitGeometry, cousin_split, morera_residual, overlap_grid
from .cuboids import Cuboid
from .division import CoordinateSubspace, ideal_cofactors
from .errors import InvalidArity, OkakitError, SchemaError
from .merge import ChiProblem, PoleTerm, PrincipalPartData, solve_chain
from .scalars import EXACT, _number
from .series import MAX_DIM, TruncatedSeries, constant, from_json, negligible, to_json
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


def _output_path(path) -> str:
    """``path`` ("" for none), checked as writable without creating or truncating a file."""
    path = os.fspath(path or "")
    parent = os.path.dirname(os.path.abspath(path))
    new_file_ok = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if path and (os.path.isdir(path) or not (os.access(path, os.W_OK) if os.path.exists(path) else new_file_ok)):
        raise SchemaError(f"cannot write output: {path!r} is not a writable file path")
    return path


def _open_output(path: str):
    """``path`` opened for writing text; a path that cannot be written is malformed input."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise SchemaError(f"cannot write output: {exc}") from exc


def _size(value) -> int:
    """A dimension, arity or generator count: a JSON integer of at most MAX_DIM."""
    if _number(value, int) > MAX_DIM:
        raise ValueError(f"a dimension, arity or generator count is at most {MAX_DIM} (series.MAX_DIM), got {value}")
    return value


def _quadrature(data: dict) -> QuadratureSpec:
    return QuadratureSpec(**{key: _number(value, int) for key, value in data.get("quadrature", {}).items()})


def _round_trip(back, given) -> dict:
    """Verification block of a recombination: ``back`` against the input
    series ``given``, slot by slot.  ``recombined_equals_input`` is
    ``series.negligible`` on each difference; ``residual_norm`` is the
    largest |coefficient| among the differences."""
    diffs = [a - b for a, b in zip(back, given)]
    return {"recombined_equals_input": all(negligible(d, *given) for d in diffs),
            "residual_norm": max((d.max_abs_coeff() for d in diffs), default=0.0)}


# -- subcommands ---------------------------------------------------------
#
# Each cmd_* reads its request into okakit objects and returns the
# computation on them, a call with no arguments that returns the report
# body and the pass flag.  Reading raises on malformed input (see main);
# the computation raises only okakit and arithmetic errors.


def cmd_divide(data: dict, args):
    f = from_json(data["series"], eps=args.tol)
    return partial(_divide, f, CoordinateSubspace(f.dim, _number(data["q"], int)))


def _divide(f, sub) -> tuple[dict, bool]:
    cof = ideal_cofactors(f, sub)
    check = _round_trip([cof.recombined()], [f])
    return {
        "cofactors": [to_json(h) for h in cof.cofactors],
        "remainder": to_json(cof.remainder),
        "member": negligible(cof.remainder, f),  # is_member's test, on the division already made
        "recombination_exact": check["recombined_equals_input"] if f.backend.exact else None,
        "verification": check,
    }, check["recombined_equals_input"]


def cmd_syzygy(data: dict, args):
    mode = data["mode"]
    if mode == "trivial":
        dim = data.get("dim")
        return partial(_trivial, trivial_solutions(_size(data["p"]), dim=None if dim is None else _size(dim)))
    if mode == "decompose":
        return partial(_decompose, SyzygyVector(tuple(from_json(c, eps=args.tol) for c in data["components"])))
    if mode == "general":
        coeffs = {(_number(e["i"], int) - 1, _number(e["j"], int) - 1): from_json(e["series"], eps=args.tol)
                  for e in data.get("coefficients", [])}
        vector = [from_json(c, eps=args.tol) for c in data.get("vector", [])]
        given = [*coeffs.values(), *vector]
        pres = GeneratorPresentation(_size(data["dim"]), _number(data["q"], int), _size(data["N"]),
                                     coeffs, backend=given[0].backend if given else EXACT)
        if "vector" in data:
            return partial(_general_decomposition, SyzygyVector(tuple(vector)), pres)
        return partial(_general_basis, pres)
    raise SchemaError(f"unknown syzygy mode {mode!r}")


def _trivial(sols) -> tuple[dict, bool]:
    return {
        "generators": [
            {"i": t.i + 1, "j": t.j + 1, "components": [to_json(c) for c in t.vector.components]}
            for t in sols
        ]
    }, True


def _decompose(v: SyzygyVector) -> tuple[dict, bool]:
    coeffs = decompose_relation(v)
    check = _round_trip(recombine(coeffs, v.arity, dim=v.dim, backend=v.components[0].backend).components,
                        v.components)
    return {
        "coefficients": [
            {"i": i + 1, "j": j + 1, "series": to_json(b)} for (i, j), b in sorted(coeffs.items())
        ],
        "verification": check,
    }, check["recombined_equals_input"]


def _general_decomposition(v: SyzygyVector, pres: GeneratorPresentation) -> tuple[dict, bool]:
    dec = decompose_general_relation(v, pres)
    check = _round_trip(dec.recombined(pres).components, v.components)
    return {
        "tau_coefficients": [
            {"j": j + 1, "k": k + 1, "series": to_json(b)} for (j, k), b in sorted(dec.tau_coeffs.items())
        ],
        "phi_coefficients": [
            {"i": i + 1, "series": to_json(b)} for i, b in sorted(dec.phi_coeffs.items())
        ],
        "verification": check,
    }, check["recombined_equals_input"]


def _general_basis(pres: GeneratorPresentation) -> tuple[dict, bool]:
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


def cmd_cousin_split(data: dict, args):
    g = data["geometry"]
    geom = SplitGeometry(*(float(_number(g[key])) for key in ("s", "delta", "theta", "re_lo", "re_hi")),
                         base=Cuboid.from_json(g["base"]) if "base" in g else None)
    if _number(data.get("dim", geom.ndim), int) != geom.ndim:
        raise SchemaError(f"'dim' must be {geom.ndim}, the dimension of the geometry")
    grid = data.get("grid", {})
    pts = np.array(overlap_grid(geom, nx=_number(grid.get("nx", 7), int), ny=_number(grid.get("ny", 7), int)))
    return partial(_split, exprtree.to_evaluable(data["function"], geom.ndim), geom, _quadrature(data), pts,
                   _output_path(data.get("csv")), args.tol)


def _split(phi, geom, spec, pts, csv_path, tol) -> tuple[dict, bool]:
    phi1, phi2 = cousin_split(phi, geom, spec)
    v1, v2 = phi1.values(pts), phi2.values(pts)
    res = np.abs(v1 - v2 - phi.values(pts))
    worst = float(res.max())
    if csv_path:
        with _open_output(csv_path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "phi1_re", "phi1_im", "phi2_re", "phi2_im", "residual"])
            writer.writerows([zn.real, zn.imag, a.real, a.imag, b.real, b.imag, r] for zn, a, b, r
                             in zip(pts[:, -1].tolist(), v1.tolist(), v2.tolist(), res.tolist()))
    return {"max_overlap_residual": worst, "tolerance": tol, "samples": len(pts)}, worst <= tol


def _solver(request: dict, args, cuboid: Cuboid, **fields):
    """The solve of the ChiProblem with ``fields`` and the request's common fields."""
    delta = request.get("delta")
    problem = ChiProblem(cuboid=cuboid, breakpoints=tuple(float(_number(t)) for t in request.get("breakpoints", [])),
                         delta=None if delta is None else _number(delta), tol=args.tol, **fields)
    return partial(_solve, problem, _output_path(request.get("csv")))


def _solve(problem: ChiProblem, csv_path: str) -> tuple[dict, bool]:
    sols = solve_chain(problem)
    if csv_path:
        _dump_solution_csv(csv_path, sols)
    reports = [s.report for s in sols]
    return {"chains": reports}, all(r["pass"] for r in reports)


def _pole_term(pole: dict, ndim: int) -> PoleTerm:
    def at(value) -> TruncatedSeries:
        return constant(ndim - 1, value, backend=EXACT)

    return PoleTerm(_number(pole.get("order", 1), int),
                    at(complex(_number(pole.get("coeff_re", 1.0)), _number(pole.get("coeff_im", 0.0)))),
                    at(complex(_number(pole.get("re", 0.0)), _number(pole.get("im", 0.0)))))


def cmd_cousin1(data: dict, args):
    cuboid = Cuboid.from_json(data["cuboid"])
    payload = tuple(PrincipalPartData(tuple(_pole_term(pole, cuboid.ndim) for pole in slab["poles"]))
                    for slab in data["slabs"])
    return _solver(data, args, cuboid, kind="cousin1", data=payload)


def cmd_jokuiko(data: dict, args):
    cuboid = Cuboid.from_json(data["cuboid"])
    locs = data.get("locals")
    return _solver(data, args, cuboid, kind="extension", codim=_number(data["q"], int),
                   target=exprtree.to_series(data["target"], cuboid.ndim),
                   local_overrides=None if locs is None else tuple(exprtree.to_series(t, cuboid.ndim) for t in locs))


def _dump_solution_csv(path: str, sols):
    """Solution values on a 21 x 5 grid of the last axis; points where the
    value is not finite (a pole) are left out."""
    with _open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "re", "im", "f_re", "f_im"])
        for idx, sol in enumerate(sols):
            (rlo, rhi) = sol.region.re[-1]
            (ilo, ihi) = sol.region.im[-1]
            mids = sol.region.midpoint()
            pts = [mids[:-1] + (complex(r, i),) for r in np.linspace(rlo, rhi, 21) for i in np.linspace(ilo, ihi, 5)]
            vals = sol.solution.values(pts).tolist()
            writer.writerows([idx, z[-1].real, z[-1].imag, v.real, v.imag]
                             for z, v in zip(pts, vals) if cmath.isfinite(v))


def cmd_selftest(data: dict, args):
    return partial(_selftest, args.seed)


def _selftest(seed: int) -> tuple[dict, bool]:
    checks = {}
    # division recombination on a fixed polynomial
    from .series import monomial
    f = monomial(3, (1, 0, 1)) + monomial(3, (0, 2, 0))
    cof = ideal_cofactors(f, CoordinateSubspace(3, 2))
    checks["division_recombines"] = cof.recombined() == f and cof.remainder.is_zero()
    # syzygy decomposition round trip
    rng = random.Random(seed)
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
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    return parser


# main's parser, built on its first call and reused: each parse_args fills a new namespace
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "selftest" and args.input == "-":
            data = {}
        else:
            data = _load_input(args.input)
        # the input boundary: reading a request into okakit objects
        try:
            # a request's "tolerance" replaces --tol for every check and in the report
            args.tol = _number(data.get("tolerance", args.tol))
            if not args.tol > 0:
                raise ValueError(f"tolerance must be positive, got {args.tol}")
            compute = COMMANDS[args.command](data, args)
            _output_path("" if args.output == "-" else args.output)
        # what reading raises on malformed input: a missing key, a value of the
        # wrong type or out of range, or an okakit constructor's InvalidArity
        except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError, InvalidArity) as exc:
            what = f"missing field {exc}" if isinstance(exc, KeyError) else f"{type(exc).__name__}: {exc}"
            raise SchemaError(f"bad {args.command} request: {what}") from exc
        # no numpy warning on stderr: an exit 1 prints its one line alone, and csv grids may meet poles
        with np.errstate(all="ignore"):
            body, ok = compute()
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
            with _open_output(args.output) as fh:
                fh.write(text + "\n")
    except SchemaError as exc:
        print(f"okakit: input error: {exc}", file=sys.stderr)
        return 2
    except (OkakitError, ArithmeticError) as exc:  # an overflow, say, in a computation on finite input
        print(f"okakit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
