#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny sizes:

    python3 perfbench/selftest.py

1. Every workload runs one tiny cycle untraced and one traced repetition,
   with no failed check, and emits every metric BENCHMARK.json names, with
   its unit.
2. ``run.py`` prints the result object as its last line, and exits non-zero
   without printing one when the checkout holds no okakit sources.
3. Every output check trips on a deliberately wrong output, so none of them
   passes vacuously.

Exits 0 when all of it holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

SEED = 3
FAILURES: list[str] = []


def expect(cond: bool, what: str):
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_emitted(metrics: dict, names: dict, what: str):
    missing = [n for n in names if n not in metrics]
    wrong = [n for n in names if n in metrics and metrics[n][1] != names[n]]
    extra = [n for n in metrics if n not in names]
    expect(not missing and not wrong and not extra,
           f"{what}: every named metric with its unit (missing {missing}, wrong unit {wrong}, extra {extra})")


def tiny_runs(bw):
    e2e, per_layer = declared()
    for name, cls in bw.WORKLOADS.items():
        print(f"{name} (tiny)")
        workload = cls(SEED, tiny=True)
        workload.warm_up()
        probe = run.SpeedProbe()
        probe.start()
        try:
            rec = bw.Record(probe.clock, probe.mark)
            rec.add("setup_s", 0.1, rec.start())
            run.run_cycles(workload, rec, 0.0)
            metrics = run.end_to_end(workload, rec, probe)
            expect(rec.failed == 0 and rec.attempted > 0, f"{name}: {rec.attempted} checks, {rec.failed} failed")
            check_emitted(metrics, e2e, f"{name} untraced")
            rec = bw.Record(probe.clock, probe.mark)
            metrics = run.traced(bw, workload, rec, 0.0, SEED, probe)
        finally:
            probe.stop()
        expect(rec.failed == 0, f"{name} traced: {rec.failed} checks failed")
        check_emitted(metrics, per_layer, f"{name} traced")
        if name == "exact_algebra":
            expect(metrics["series.evaluate_complex.calls"][0] == 0, "exact_algebra: no floating evaluation")


def command_line():
    print("run.py")
    e2e, per_layer = declared()
    for trace, names in (("0", e2e), ("1", per_layer)):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "exact_algebra",
                              "--seed", str(SEED), "--seconds", "0.2", "--trace", trace],
                             capture_output=True, text=True, cwd=ROOT, timeout=180)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        expect(out.returncode == 0 and sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"--trace {trace}: exit 0 and the result object as last line")
        expect(sorted(result["metrics"]) == sorted(names)
               and all(result["metrics"][n]["unit"] == u for n, u in names.items()),
               f"--trace {trace}: metric names and units as declared")
    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"), "--workload", "ml_chain",
                              "--seed", "1", "--seconds", "1"], capture_output=True, text=True, cwd=bare,
                             timeout=180)
        expect(out.returncode != 0 and "correct" not in out.stdout,
               "without okakit sources: non-zero exit, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def mutations(bw):
    """Each output check must reject a deliberately wrong output."""
    from okakit import cousin, merge, series

    print("output checks trip on wrong outputs")
    # ml_chain
    rng = bw.random.Random(SEED)
    problem, poles = bw.make_ml_problem(rng, 3)
    ltr = merge.solve_chain(problem)[0]
    rtl = merge.solve_chain(problem, order="rtl", verify=False)[0]
    report = ltr.report
    expect(bw.check_ml_report(report, len(poles))[0], "ml_chain: report check passes")
    expect(not bw.check_ml_report(dict(report, **{"pass": False}), len(poles))[0],
           "ml_chain: report with pass=false rejected")
    fewer = dict(report, principal_part_errors=report["principal_part_errors"][1:])
    expect(not bw.check_ml_report(fewer, len(poles))[0], "ml_chain: report skipping a pole rejected")
    expect(bw.check_ml_crosscheck(bw.ml_crosscheck_residual(ltr, rtl))[0], "ml_chain: ltr and rtl agree")
    smeared = cousin.Evaluable(lambda z: rtl.solution.fn(z) + 1e-3 * z[-1].conjugate())
    residual = bw.ml_crosscheck_residual(ltr, SimpleNamespace(solution=smeared, region=rtl.region))
    expect(not bw.check_ml_crosscheck(residual)[0], "ml_chain: non-holomorphic rtl difference rejected")

    # ext_merge
    problem, target = bw.make_ext_problem(rng, slabs=2, degree=1)
    sol = merge.solve_chain(problem)[0]
    pts = bw.ext_subspace_points(rng, 10)
    residual = bw.ext_subspace_residual(sol.solution.fn, target, pts)
    expect(bw.check_ext(sol.report, residual)[0], "ext_merge: check passes")
    shifted = bw.ext_subspace_residual(lambda z: sol.solution.fn(z) + 1e-6 * z[1], target, pts)
    expect(not bw.check_ext(sol.report, shifted)[0], "ext_merge: solution off the target on S rejected")
    expect(not bw.check_ext(dict(sol.report, **{"pass": False}), residual)[0],
           "ext_merge: report with pass=false rejected")

    # exact_algebra
    bump = series.monomial
    for k, make in enumerate(bw.ExactAlgebra.makers):
        case = make(rng, k)
        out, verified = bw.algebra_task(case, bw.algebra_inputs(case))
        kind = case[0]
        expect(verified and bw.check_algebra(case, out), f"exact_algebra: {kind} round trip checks")
        dim = case[1]
        if kind == "cofactors":
            h0 = out.cofactors[0]
            wrong = replace(out, cofactors=(h0 + bump(dim, (0,) * dim, Fraction(1, 3)),) + out.cofactors[1:])
        elif kind == "trivial":
            wrong = dict(out)
            key = next(iter(wrong)) if wrong else (0, 1)
            wrong[key] = wrong.get(key, series.zero(dim)) + bump(dim, (0,) * dim, 2)
        else:
            phi = dict(out.phi_coeffs)
            key = case[2]
            phi[key] = phi.get(key, series.zero(dim)) + bump(dim, (0,) * dim, 2)
            wrong = replace(out, phi_coeffs=phi)
        expect(not bw.check_algebra(case, wrong), f"exact_algebra: corrupted {kind} output rejected")

    # cli_mix
    cycle = {req[0]: req for req in bw.make_cli_cycle(rng)}
    divide = cycle["divide"]
    code, stdout, raised = bw.run_cli(divide[1], divide[2])
    expect(bw.check_cli(divide, code, stdout, raised)[0], "cli_mix: divide request checks")
    report = json.loads(stdout)
    flipped = dict(report, result=dict(report["result"], member=not report["result"]["member"]))
    expect(not bw.check_cli(divide, code, json.dumps(flipped), raised)[0], "cli_mix: wrong membership rejected")
    expect(not bw.check_cli(divide, code, json.dumps(dict(report, **{"pass": False})), raised)[0],
           "cli_mix: report with pass=false rejected")
    expect(not bw.check_cli(divide, 1, stdout, raised)[0], "cli_mix: exit 1 on a valid request rejected")
    missing_q = cycle["missing-q"]
    expect(bw.check_cli(missing_q, *bw.run_cli(missing_q[1], missing_q[2]))[0], "cli_mix: malformed request exits 2")
    expect(not bw.check_cli(missing_q, 1, "", None)[0], "cli_mix: malformed request exiting 1 rejected")
    expect(not bw.check_cli(missing_q, None, "", "KeyError('q')")[0], "cli_mix: traceback rejected")


def main() -> int:
    bw = run.fresh_import()
    tiny_runs(bw)
    mutations(bw)
    command_line()
    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
