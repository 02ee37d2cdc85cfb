"""A/B comparison of two okakit trees on the perfbench workloads.

    python3 tools/ab_bench.py --base HEAD~1 --pairs 10 --seeds 921 --output BENCH_8.json
    python3 tools/ab_bench.py --pairs 1 --seconds 2       # same-tree smoke run

The *change* side is the working tree this script sits in.  The *base*
side is ``--base REV``, exported with ``git archive``; without it both sides
run the working tree, which checks the script and shows the spread a null
comparison gives.

For every workload of ``BENCHMARK.json``, pair k runs ``perfbench/run.py`` once per side on seed
``seeds + k``, base first in even pairs and change first in odd ones, one
process at a time, for ``--seconds`` (by default the benchmark's own
``run_seconds``: ``peak_rss_mb`` grows with the cycles a run completes, so
shorter runs hide what the benchmark sees).  The output gives, per workload
and end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the change's median against the base's, and in how many pairs
the change was better; the same for the one-point evaluation times
``eval_us.p50`` and ``eval_us.p90`` that ``run.py`` prints on detail lines
for ``ml_chain`` and ``ext_merge`` (their samples include the cold first
call on each new solution, which for ``ml_chain`` builds the chain's
closed-form term arrays).  Under
``cycles`` it lists each side's cycle count per pair, from ``run.py``'s
``<workload>: N cycles`` line.  Under ``bits`` it gives, per group
(``ml_chain``, ``ext_merge``, ``n2_cousin1``, ``exact_algebra``, ``cli_mix``), the sha256 of
fixed outputs on each side and whether they are equal; see ``BITS`` for what
each group hashes.  Unequal bits are information, not a failure.  The script
exits 1 if a run fails or reports a failed output check.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EVAL_US = [{"name": f"eval_us.{q}", "unit": "us", "better": "lower"} for q in ("p50", "p90")]
EVAL_US_LINE = re.compile(r"^\s*(eval_us\.p[59]0) = (\S+) us", re.M)
CYCLES_LINE = re.compile(r"^(\S+): (\d+) cycles", re.M)

# Run in a tree's own interpreter process: the sha256 of each group's outputs.
# ml_chain, ext_merge: the first 3 instances of seeds 5 and 11, both merge
# orders: merged values at the instance's points, 20 one-point calls, every
# correction's values and the report's repr.  n2_cousin1, which no workload
# covers: the same for a fixed 4-slab n = 2 cousin1 problem with z'-dependent
# loci, at 60 points of distinct z'.  exact_algebra: the outputs of the first
# 20 case groups of seed 5.  cli_mix: exit code, stdout without
# elapsed_s, and any exception of every request of seeds 1-3.
BITS = """
import dataclasses, hashlib, json, re, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import numpy as np
import bench_workloads as bw
from okakit import merge, series
from okakit.cuboids import Cuboid
def canon(x):
    if isinstance(x, series.TruncatedSeries):
        return series.to_json(x)
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [canon(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return [[canon(k), canon(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return repr(x)
def solved(h, problem, pts):
    P = np.array(pts, dtype=complex)
    for order in ("ltr", "rtl"):
        for sol in merge.solve_chain(problem, order=order):
            h.update(sol.solution.values(P).tobytes())
            h.update(np.array([sol.solution.fn(z) for z in pts[:20]]).tobytes())
            for correction in sol.corrections:
                h.update(correction.values(P).tobytes())
            h.update(repr(sol.report).encode())
out = {}
for name, workload in (("ml_chain", bw.MlChain), ("ext_merge", bw.ExtMerge)):
    h = hashlib.sha256()
    for seed in (5, 11):
        for item in workload(seed).pool[:3]:
            solved(h, item[0], item[2])
    out[name] = h.hexdigest()
def slab(*terms):  # (order, coefficient, locus) with series in z_1
    return merge.PrincipalPartData(tuple(merge.PoleTerm(k, series.make_series(1, c), series.make_series(1, p))
                                         for k, c, p in terms))
problem = merge.ChiProblem(
    kind="cousin1", cuboid=Cuboid(((-0.5, 0.5), (-2.0, 2.0)), ((-0.5, 0.5), (-0.5, 0.5))),
    breakpoints=(-1.0, 0.0, 1.0), delta=0.2,
    data=(slab((1, {(0,): 1, (1,): 0.5j}, {(0,): -1.5 + 0.1j, (1,): 0.1})),
          slab((2, {(0,): 0.5 - 0.2j}, {(0,): -0.5 - 0.2j, (1,): -0.05j})),
          slab((1, {(0,): -1j, (1,): 0.3}, {(0,): 0.45, (1,): 0.08}), (1, {(0,): 0.2}, {(0,): 0.6 + 0.25j})),
          slab((1, {(0,): 2 - 1j}, {(0,): 1.5 - 0.1j, (1,): -0.1 + 0.05j}))))
rng = np.random.default_rng(24)
z1 = rng.uniform(-0.5, 0.5, 60) + 1j * rng.uniform(-0.5, 0.5, 60)
z2 = rng.uniform(-1.95, 1.95, 60) + 1j * rng.uniform(-0.45, 0.45, 60)
h = hashlib.sha256()
solved(h, problem, list(zip(z1.tolist(), z2.tolist())))
out["n2_cousin1"] = h.hexdigest()
h = hashlib.sha256()
for group in bw.ExactAlgebra(5).pool[:20]:
    for case, inputs in group:
        h.update(json.dumps(canon(bw.algebra_task(case, inputs))).encode())
out["exact_algebra"] = h.hexdigest()
h = hashlib.sha256()
for seed in (1, 2, 3):
    for cycle in bw.CliMix(seed).pool:
        for request in cycle:
            code, stdout, raised = bw.run_cli(request[1], request[2])
            h.update(repr((code, re.sub(r'"elapsed_s": [^,}]*', "", stdout), raised)).encode())
out["cli_mix"] = h.hexdigest()
print(json.dumps(out))
"""


def export(rev: str, into: Path) -> Path:
    """The committed files of ``rev`` under ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def commit(rev: str) -> str:
    """The short hash ``rev`` names now, so the report still says which tree ran."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_bench: {workload} seed {seed} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"]:
        raise SystemExit(f"ab_bench: {workload} seed {seed} in {tree} failed its checks:\n{proc.stderr}")
    cycles = dict(CYCLES_LINE.findall(proc.stdout))
    if workload not in cycles:
        raise SystemExit(f"ab_bench: {workload} seed {seed} in {tree} printed no '{workload}: N cycles' line")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update((name, float(value)) for name, value in EVAL_US_LINE.findall(proc.stdout))
    values["cycles"] = int(cycles[workload])
    return values


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the relative change of
    the median, and the pairs in which the change was better."""
    out = {}
    for m in metrics:
        base = [r[m["name"]] for r in runs["base"]]
        change = [r[m["name"]] for r in runs["change"]]
        sign = 1 if m["better"] == "lower" else -1
        b, c = quartiles(base), quartiles(change)
        out[m["name"]] = {
            "unit": m["unit"], "better": m["better"], "base": b, "change": c,
            "change_vs_base": (c["median"] - b["median"]) / b["median"] if b["median"] else None,
            "change_better_pairs": sum(sign * (y - x) < 0 for x, y in zip(base, change)),
            "pairs": len(base),
        }
    return out


def output_bits(tree: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", BITS, str(tree)], check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision of the base side (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seeds", type=int, default=911, help="seed of the first pair; pair k runs seeds + k")
    parser.add_argument("--output", help="write the JSON summary here (default: stdout)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        base = export(args.base, Path(tmp) / "base") if args.base else ROOT
        sides = {"base": base, "change": ROOT}
        report = {"base": commit(args.base) if args.base else "same tree", "change": "working tree",
                  "pairs": args.pairs, "seconds": args.seconds,
                  "seeds": [args.seeds + k for k in range(args.pairs)], "workloads": {}}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "change": []}
            for k in range(args.pairs):
                for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                    runs[side].append(run_once(sides[side], workload, args.seeds + k, args.seconds))
            details = [m for m in EVAL_US if all(m["name"] in r for r in runs["base"] + runs["change"])]
            report["workloads"][workload] = summarize(runs, spec["end_to_end"] + details)
            report["workloads"][workload]["cycles"] = {side: [r["cycles"] for r in rs] for side, rs in runs.items()}
            print(f"ab_bench: {workload} done", file=sys.stderr)
        bits = {side: output_bits(tree) for side, tree in sides.items()}
        report["bits"] = {group: {"base": bits["base"][group], "change": bits["change"][group],
                                  "equal": bits["base"][group] == bits["change"][group]}
                          for group in bits["change"]}
    text = json.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
