"""Per-layer tracing from outside the program.

The tracer replaces okakit functions at the module attribute where their
callers look them up (``okakit.merge.evaluate_complex``,
``okakit.merge.cousin_split``, ``QQi.__complex__`` and so on) with wrappers
that record a span per call: name, start, end, and the enclosing span.  The
seam-split branches are evaluated lazily, inside the closures that
``cousin_split`` returns, so the tracer also wraps the densities passed into
it and the branch ``Evaluable`` objects it returns.

Self time of a span is its duration minus the durations of the spans it
directly encloses.  Calls, self time, inclusive time (outermost call of a
name only, so recursion is not counted twice) and errors are aggregated as
the spans close.  Every span gets an id; parent 0 marks a span with no
enclosing span.  Spans of the coarse boundaries are also kept in memory,
up to ``SPAN_LOG_LIMIT``, and written out once the run ends; per-point
spans (series evaluation, branch and density evaluation, expression
evaluation, ring operations) are aggregated only, since a run makes
millions of them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import replace

SPAN_LOG_LIMIT = 100_000

RING_OPS = ("add", "mul", "scale", "make_series", "recenter", "invert_unit")
JSON_OPS = ("to_json", "from_json", "dumps")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_s = 0.0  # summed duration of spans with no enclosing span
        self.spans: list[tuple] = []
        self.dropped = 0
        self.task = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._depth: dict[str, int] = defaultdict(int)
        self._last_error = None
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, keep: bool = False):
        """``fn`` wrapped so that every call records a span called ``name``."""
        layer = name.split(".", 1)[0]
        stack, depth = self._stack, self._depth
        calls, self_s, incl_s, clock = self.calls, self.self_s, self.incl_s, self.clock

        def traced(*args, **kwargs):
            self._next_id += 1
            # [time covered by directly enclosed spans, span id]
            frame = [0.0, self._next_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if self._last_error != (layer, id(exc)):
                    self._last_error = (layer, id(exc))
                    self.errors[layer] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                calls[name] += 1
                self_s[name] += d - frame[0]
                depth[name] -= 1
                if not depth[name]:
                    incl_s[name] += d
                if stack:
                    stack[-1][0] += d
                else:
                    self.top_s += d
                if keep:
                    if len(self.spans) < SPAN_LOG_LIMIT:
                        self.spans.append((frame[1], parent, name, self.task, t0, t1))
                    else:
                        self.dropped += 1

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self, ok):
        """Wrap the boundaries of every okakit layer.  ``ok`` is the package."""
        cli, cousin, division, exprtree = ok.cli, ok.cousin, ok.division, ok.exprtree
        merge, scalars, series, syzygy = ok.merge, ok.scalars, ok.series, ok.syzygy

        def spanned(name, keep=False):
            return lambda fn: self.span(name, fn, keep)

        def sites(modules, names):
            return [(m, n) for m in modules for n in names if n in vars(m)]

        for owner, attr in sites((series, merge), ("evaluate_complex",)):
            self._patch(owner, attr, spanned("series.evaluate_complex"))
        self._patch(scalars.QQi, "__complex__", lambda fn: self.counter("scalars.qqi_to_complex", fn))
        for owner, attr in sites((series, division, syzygy, exprtree, cli), RING_OPS):
            self._patch(owner, attr, spanned("series.ring"))
        for owner, attr in sites((series, cli), JSON_OPS):
            self._patch(owner, attr, spanned("series.json"))
        for owner, attr in sites((division, merge, cli), ("ideal_cofactors",)):
            self._patch(owner, attr, spanned("division.ideal_cofactors", keep=True))
        for owner, attr in sites((syzygy, cli), ("decompose_relation", "decompose_general_relation")):
            self._patch(owner, attr, spanned("syzygy.decompose", keep=True))
        for owner, attr in sites((syzygy, cli), ("recombine",)):
            self._patch(owner, attr, spanned("syzygy.recombine", keep=True))
        self._patch(syzygy.GeneralDecomposition, "recombined", spanned("syzygy.recombine", keep=True))
        for owner, attr in sites((cousin, merge, cli), ("cousin_split",)):
            self._patch(owner, attr, self._wrap_split)
        for owner, attr in sites((cousin, merge, cli), ("morera_residual",)):
            self._patch(owner, attr, self._wrap_morera)
        self._patch(merge, "local_solution", self._wrap_local_solution)
        self._patch(merge, "seam_difference", spanned("merge.seam_difference", keep=True))
        self._patch(merge, "merge_pair", spanned("merge.merge_pair", keep=True))
        self._patch(merge, "verify_solution", spanned("merge.verify", keep=True))
        self._patch(merge, "extract_principal_coefficient", spanned("merge.residue_extract", keep=True))
        self._patch(exprtree, "evaluate", spanned("exprtree.evaluate"))
        self._patch(exprtree, "to_series", spanned("exprtree.to_series", keep=True))
        self._patch(cli, "main", spanned("cli.main", keep=True))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap_split(self, split):
        def traced_split(phi, geom, spec=None):
            density = replace(phi, fn=self.span("cousin.density_eval", phi.fn))
            left, right = split(density, geom, spec)
            return (replace(left, fn=self.span("cousin.branch_eval", left.fn)),
                    replace(right, fn=self.span("cousin.branch_eval", right.fn)))

        return self.span("cousin.split", traced_split, keep=True)

    def _wrap_morera(self, morera):
        def traced_morera(f, *args, **kwargs):
            return morera(replace(f, fn=self.counter("cousin.morera.fn_evals", f.fn)), *args, **kwargs)

        return self.span("cousin.morera", traced_morera, keep=True)

    def _wrap_local_solution(self, local_solution):
        def traced_local_solution(*args, **kwargs):
            local = local_solution(*args, **kwargs)
            return replace(local, fn=self.span("merge.local_eval", local.fn))

        return self.span("merge.local_solution", traced_local_solution)

    # -- reporting ----------------------------------------------------------

    def write_spans(self, path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "task", "start_s", "end_s"],
                       "dropped": self.dropped, "spans": self.spans}, fh)
