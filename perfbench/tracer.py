"""Span tracing around the public entry points of each ssnewton layer.

The library has no tracing of its own, so spans are recorded from outside:
``Tracer.solve`` wraps ``ssnewton.solve``, the five problem callbacks, the
approximation step (passed through ``solve``'s ``approximation=`` argument,
because it is bound there as a default), and the functions ``ssnewton.newton``
looks up as module globals (``solve_qp``, ``newton_workspace``,
``nullspace_basis``, ``newton_step``).  The globals are patched only for the
duration of one traced solve, so untraced solves run the original code.

A span is ``[name, start_ns, end_ns, parent, solve_id]``; ``parent`` is the
index of the enclosing span or -1.  Spans stay in memory until the run ends.
"""

import dataclasses
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import ssnewton
from ssnewton import Activity, newton

CALLBACKS = ("f", "jf", "g", "jg", "hg")
PATCHED = ("solve_qp", "newton_workspace", "nullspace_basis", "newton_step")

# span name -> per-layer self-time metric
LAYER_OF = {
    "solve": "newton.driver_self_ms",
    "approximation_step": "newton.approx_self_ms",
    "solve_qp": "qp.self_ms",
    "newton_workspace": "newton.workspace_self_ms",
    "newton_step": "newton.step_ms",
    "nullspace_basis": "linalg.nullspace_ms",
    **{name: "problems.callback_ms" for name in CALLBACKS},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.qp_calls = []  # (solve_id, active-set steps, active rows) per solve_qp
        self.qp_raised = []  # solve_id of each solve_qp call that raised
        self._stack = []
        self._solve_id = -1

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self._solve_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self._stack.pop()

        return traced

    def _count_qp(self, solve_qp):
        def counted(instance):
            try:
                sol = solve_qp(instance)
            except Exception:
                self.qp_raised.append(self._solve_id)
                raise
            active = sum(a is not Activity.INTERIOR for a in sol.active)
            self.qp_calls.append((self._solve_id, sol.iterations, active))
            return sol

        return counted

    @contextmanager
    def _patched(self):
        saved = {name: getattr(newton, name) for name in PATCHED}
        for name, fn in saved.items():
            if name == "solve_qp":
                fn = self._count_qp(fn)
            setattr(newton, name, self._wrap(name, fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(newton, name, fn)

    def solve(self, problem, x0, solve_id, **options):
        """``ssnewton.solve(problem, x0, **options)`` with every layer boundary traced."""
        self._solve_id = solve_id
        wrapped = dataclasses.replace(
            problem, **{name: self._wrap(name, getattr(problem, name)) for name in CALLBACKS}
        )
        with self._patched():
            return self._wrap("solve", ssnewton.solve)(
                wrapped,
                x0,
                approximation=self._wrap("approximation_step", newton.approximation_step),
                **options,
            )

    def layer_metrics(self, counted_solves):
        """Per-layer metrics per traced solve.

        Times average over every traced solve; counts are taken over the
        solves with id < ``counted_solves`` (one pass over the instance list),
        so they repeat exactly from run to run.  Also returns whether, for
        every solve, the self times of its spans add up to its ``solve`` span.
        """
        spans = self.spans
        total = [end - start for _, start, end, _, _ in spans]
        self_ns = list(total)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self_ns[span[3]] -= total[i]
        solve_ns, self_sum = {}, Counter()
        layer_ns = dict.fromkeys(LAYER_OF.values(), 0)
        for i, (name, _, _, _, sid) in enumerate(spans):
            layer_ns[LAYER_OF[name]] += self_ns[i]
            self_sum[sid] += self_ns[i]
            if name == "solve":
                solve_ns[sid] = total[i]
        consistent = self_sum == Counter(solve_ns)
        calls = Counter(name for name, _, _, _, sid in spans if sid < counted_solves)
        qp = [(steps, active) for sid, steps, active in self.qp_calls if sid < counted_solves]

        metrics = {key: (ns / 1e6 / len(solve_ns), "ms") for key, ns in layer_ns.items()}
        metrics["qp.share"] = (layer_ns["qp.self_ms"] / sum(solve_ns.values()), "fraction")
        metrics["qp.calls"] = (calls["solve_qp"] / counted_solves, "count")
        metrics["qp.steps_per_call"] = (sum(s for s, _ in qp) / len(qp), "count")
        metrics["qp.active_per_call"] = (sum(a for _, a in qp) / len(qp), "count")
        metrics["qp.raised"] = (sum(sid < counted_solves for sid in self.qp_raised), "count")
        metrics["linalg.nullspace_calls"] = (calls["nullspace_basis"] / counted_solves, "count")
        for name in CALLBACKS:
            metrics[f"problems.{name}_calls"] = (calls[name] / counted_solves, "count")
        return metrics, consistent
