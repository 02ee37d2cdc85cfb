#!/usr/bin/env python3
"""okakit benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload ml_chain --seed 1 --seconds 25 --trace 0

Imports okakit from ``src/`` of the checkout this file sits in, sets up
``SETUP_ROUNDS`` times (fresh import of okakit, inputs generated from the
seed, a throw-away warm-up task), then runs the workload's cycles in a
closed loop until ``--seconds`` have passed, finishing the cycle under way.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
workload's trace set untraced for a quarter of ``--seconds``, then traced
until ``--seconds`` have passed (whole repetitions, at least one each), and
prints the per-layer metrics per repetition.  Detail lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ROUNDS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("ml_chain", "ext_merge", "exact_algebra", "cli_mix")
PROBE_EVERY_S = 0.1
PROBE_NEIGHBOURS = 2  # probes on either side of a sample that also scale it
# the probe's mean time on the 2-core machine the baseline was taken on
PROBE_REF_S = 1.0e-3

perf_counter = time.perf_counter


def median(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10)[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cap_threads():
    """Cap BLAS/OpenMP pools at the cores this process may use; okakit's own
    thread pool stays at its default of one thread."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))
    os.environ.pop("OKAKIT_THREADS", None)


# -- machine speed -------------------------------------------------------------


_NODES = np.linspace(-1.0, 1.0, 60) * 1j + 0.3
_WEIGHTS = np.full(60, 1.0 / 60)


def _probe_work():
    """A fixed slice of work of the kinds okakit does: rational, complex and
    Fraction-to-float arithmetic, dict updates keyed by tuples, and small
    numpy reductions like one Cauchy sum."""
    acc, z, d = Fraction(0), 0j, {}
    for i in range(1, 150):
        f = Fraction(i % 7 - 3, i % 5 + 1)
        acc += f
        z = z * (0.5 + 0.1j) + complex(float(f), -i)
        key = (i % 13, i % 3)
        d[key] = d.get(key, 0) + i
    for k in range(25):
        z += complex(np.sum(_WEIGHTS * _NODES / (_NODES - (0.1 + 0.01j * k))))
    return acc, z, len(d)


class SpeedProbe:
    """Times a fixed piece of reference work every PROBE_EVERY_S seconds, from
    a timer signal, so in the middle of okakit calls too.

    One core of a shared machine alternates between a fast and a slow speed
    (a 1 ms slice of work takes either ~0.8 or ~1.4 ms), and the share of
    slow time drifts over seconds.  The mean time of the probes taken during
    a sample, and of PROBE_NEIGHBOURS on either side, measures that share;
    ``factor`` turns the sample into a time at the reference speed.
    ``clock`` leaves out the time spent in the probe itself, and ``mark``
    counts the probes taken so far.
    """

    def __init__(self):
        self.values: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the probe must not pay for collecting the program's heap
        t0 = perf_counter()
        _probe_work()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.values.append(t1 - t0)
        self.spent += perf_counter() - t0
        self._busy = False

    def start(self):
        self._on_alarm(None, None)  # so that no sample goes without a probe
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.values)

    def factor(self, first: int, last: int) -> float:
        """Reference probe time over the mean of the probes taken between
        marks ``first`` and ``last``, with their neighbours."""
        window = self.values[max(0, first - PROBE_NEIGHBOURS):last + PROBE_NEIGHBOURS] or self.values
        return PROBE_REF_S / statistics.fmean(window)

    def scaled(self, samples) -> list[float]:
        """(value, first mark, last mark) samples at the reference speed."""
        return [v * self.factor(i, j) for v, i, j in samples]


# -- running ------------------------------------------------------------------


def fresh_import():
    """Import okakit and the workloads module as if for the first time."""
    for name in list(sys.modules):
        if name == "okakit" or name.startswith("okakit.") or name == "bench_workloads":
            del sys.modules[name]
    bw = importlib.import_module("bench_workloads")
    where = Path(bw.okakit.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"perfbench: okakit was imported from {where}, not from this checkout")
    return bw


def set_up(name: str, seed: int, probe):
    """SETUP_ROUNDS of import + input generation + warm-up; the last round's
    modules and inputs are the ones measured.  Returns them with a record
    that holds the set-up times."""
    times = []
    for _ in range(SETUP_ROUNDS):
        t0, first = probe.clock(), probe.mark()
        bw = fresh_import()
        workload = bw.WORKLOADS[name](seed)
        workload.warm_up()
        times.append((probe.clock() - t0, first, probe.mark()))
    rec = bw.Record(probe.clock, probe.mark)
    rec.samples["setup_s"] = times
    return bw, workload, rec


def run_cycles(workload, rec, seconds: float):
    """Closed loop over the workload's cycles."""
    k = 0
    start = rec.clock()
    while True:
        t = rec.start()
        for item in workload.cycle(k):
            workload.run(item, rec)
        rec.add("cycle_s", rec.lap(t), t)
        k += 1
        if rec.clock() - start >= seconds:
            return


def end_to_end(workload, rec, probe) -> dict:
    s = {name: probe.scaled(samples) for name, samples in rec.samples.items()}
    print(f"{workload.name}: {len(s['cycle_s'])} cycles, {rec.attempted} checked operations; times at the "
          f"reference speed (mean probe {statistics.fmean(probe.values) * 1e3:.4g} ms, reference "
          f"{PROBE_REF_S * 1e3:.4g} ms)")
    for key, unit in (("setup_s", "s"), ("task_s", "s"), ("cycle_s", "s"), ("solve_s", "s"),
                      ("crosscheck_s", "s"), ("eval_us", "us"), ("cli_ms", "ms")):
        if key in s:
            raw = median(v for v, _, _ in rec.samples[key])
            print(f"  {key}.p50 = {median(s[key]):.6g} {unit}  (raw {raw:.6g} {unit}, n={len(s[key])})")
            if len(s[key]) >= 100:
                print(f"  {key}.p90 = {p90(s[key]):.6g} {unit}  (n={len(s[key])})")
    if "algebra_op_s" in s:
        ops = s["algebra_op_s"]
        print(f"  algebra_ops_per_s = {len(ops) / sum(ops):.6g} 1/s  (n={len(ops)})")
    print(f"  peak_rss_mb = {peak_rss_mb():.6g} MB")
    for kind, values in sorted(rec.margins.items()):
        print(f"  margin_digits[{kind}].p50 = {median(values):.6g} digits  (n={len(values)})")
    print(f"  residual_digits = {rec.residual_digits():.6g} digits")
    print(f"  failed_share = {(rec.failed + rec.known_defects) / rec.attempted:.6g} ratio  (n={rec.attempted})")
    if rec.known_defects:
        print(f"  of which known defects (tracebacks where the CLI contract says exit 2): {rec.known_defects}")
    return {
        "setup_s": (median(s["setup_s"]), "s"),
        "task_s.p50": (median(s["task_s"]), "s"),
        "cycle_s.p50": (median(s["cycle_s"]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "residual_digits": (rec.residual_digits(), "digits"),
    }


# -- traced run -----------------------------------------------------------------


def _calls(span):
    return lambda t, r: t.calls.get(span, 0) / r


def _self(span):
    return lambda t, r: t.self_s.get(span, 0.0) / r


def _incl(span):
    return lambda t, r: t.incl_s.get(span, 0.0) / r


def _count(name):
    return lambda t, r: t.counts.get(name, 0) / r


# name, unit, value per repetition from (tracer, repetitions)
PER_LAYER = (
    ("series.evaluate_complex.calls", "count", _calls("series.evaluate_complex")),
    ("series.evaluate_complex.self_s", "s", _self("series.evaluate_complex")),
    ("scalars.qqi_to_complex.calls", "count", _count("scalars.qqi_to_complex")),
    ("series.ring.calls", "count", _calls("series.ring")),
    ("series.ring.self_s", "s", _self("series.ring")),
    ("series.json.self_s", "s", _self("series.json")),
    ("division.ideal_cofactors.calls", "count", _calls("division.ideal_cofactors")),
    ("division.ideal_cofactors.self_s", "s", _self("division.ideal_cofactors")),
    ("syzygy.decompose.calls", "count", _calls("syzygy.decompose")),
    ("syzygy.decompose.self_s", "s", _self("syzygy.decompose")),
    ("syzygy.recombine.self_s", "s", _self("syzygy.recombine")),
    ("cousin.split.calls", "count", _calls("cousin.split")),
    ("cousin.branch_eval.calls", "count", _calls("cousin.branch_eval")),
    ("cousin.branch_eval.self_s", "s", _self("cousin.branch_eval")),
    ("cousin.density_eval.calls", "count", _calls("cousin.density_eval")),
    ("cousin.density_evals_per_branch_eval", "ratio",
     lambda t, r: t.calls.get("cousin.density_eval", 0) / max(1, t.calls.get("cousin.branch_eval", 0))),
    ("cousin.morera.calls", "count", _calls("cousin.morera")),
    ("cousin.morera.fn_evals", "count", _count("cousin.morera.fn_evals")),
    ("cousin.morera.self_s", "s", _self("cousin.morera")),
    ("merge.local_eval.calls", "count", _calls("merge.local_eval")),
    ("merge.local_eval.self_s", "s", _self("merge.local_eval")),
    ("merge.seam_difference.s", "s", _incl("merge.seam_difference")),
    ("merge.merge_pair.s", "s", _incl("merge.merge_pair")),
    ("merge.verify.s", "s", _incl("merge.verify")),
    ("merge.residue_extract.calls", "count", _calls("merge.residue_extract")),
    ("exprtree.evaluate.calls", "count", _calls("exprtree.evaluate")),
    ("exprtree.evaluate.self_s", "s", _self("exprtree.evaluate")),
    ("exprtree.to_series.s", "s", _incl("exprtree.to_series")),
    ("cli.main.self_s", "s", _self("cli.main")),
) + tuple(
    (f"{layer}.errors", "count", lambda t, r, layer=layer: t.errors.get(layer, 0) / r)
    for layer in ("series", "division", "syzygy", "cousin", "merge", "exprtree", "cli")
)


def traced(bw, workload, rec, seconds: float, seed: int, probe) -> dict:
    import bench_trace

    items = workload.trace_set()

    def repeat(until_s: float, tracer=None) -> list[float]:
        """Whole repetitions of the trace set, at least one, at the reference speed."""
        times = []
        while not times or rec.clock() - start < until_s:
            t = rec.start()
            for item in items:
                if tracer is not None:
                    tracer.task += 1
                workload.run(item, rec)
            times.append(rec.lap(t) * probe.factor(t[1], rec.mark()))
        return times

    start = rec.clock()
    untraced_s = repeat(seconds / 4)
    tracer = bench_trace.Tracer(rec.clock)
    tracer.install(bw.okakit)
    defects_before = rec.known_defects
    traced_start = rec.clock()
    try:
        traced_s = repeat(seconds, tracer)
    finally:
        tracer.uninstall()
    traced_wall = rec.clock() - traced_start
    reps = len(traced_s)
    metrics = {name: (fn(tracer, reps), unit) for name, unit, fn in PER_LAYER}
    metrics["cli.known_defects"] = ((rec.known_defects - defects_before) / reps, "count")
    metrics["trace.overhead"] = (median(traced_s) / median(untraced_s) - 1.0, "ratio")
    metrics["trace.unattributed_s"] = ((traced_wall - tracer.top_s) / reps, "s")
    path = ROOT / ".bench_trace" / f"{workload.name}-seed{seed}.json"
    tracer.write_spans(path, {"workload": workload.name, "seed": seed, "reps": reps})
    print(f"{workload.name} traced: {len(items)} tasks x {reps} repetitions; spans in {path.relative_to(ROOT)}")
    shares = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:6]
    print("  largest self-time shares: " + ", ".join(f"{k} {v / traced_wall:.1%}" for k, v in shares))
    return metrics


# -- entry point ----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    if not (ROOT / "src" / "okakit" / "__init__.py").is_file():
        print(f"perfbench: no okakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    probe = SpeedProbe()
    probe.start()
    try:
        bw, workload, rec = set_up(args.workload, args.seed, probe)
        if args.trace:
            metrics = traced(bw, workload, rec, args.seconds, args.seed, probe)
        else:
            run_cycles(workload, rec, args.seconds)
            metrics = end_to_end(workload, rec, probe)
    finally:
        probe.stop()
    for message in rec.messages:
        print(f"  check failed: {message}", file=sys.stderr)
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
