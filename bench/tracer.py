"""In-memory tracing of marketopt's layers from outside the program.

The tracer replaces a function on the module attribute where its caller
looks it up (``marketopt.solver.rk4_forward``, not
``marketopt.integrator.rk4_forward``), so it sees exactly the calls the
workload makes along that path.  There are three kinds of wrapper:

* span: a coarse call (a CLI command, a solve, an RK4 pass).  Each call is
  kept in memory as (name, id, parent id, start, end, self time).
* leaf: a per-node call (the control law, the switching functions).  Count
  and time are summed without storing a span, and the time is charged to
  the open span as child time.
* count: a call too cheap to time (RHS kernels, rate samples).

A span's self time is its duration minus the time of the traced calls made
inside it.  A target the program no longer has is skipped and listed in
``missing``; its metrics then read zero.
"""

from __future__ import annotations

import itertools
import time

# (module, attribute, layer name)
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "solve", "solver.solve"),
    ("experiments", "solve", "solver.solve"),
    ("cli", "run_sweep", "experiments.run_sweep"),
    ("experiments", "compare_strategies", "experiments.compare_strategies"),
    ("experiments", "strategy_controls", "experiments.strategy_controls"),
    ("solver", "rk4_forward", "integrator.rk4_forward"),
    ("experiments", "rk4_forward", "integrator.rk4_forward"),
    ("solver", "rk4_backward", "integrator.rk4_backward"),
    ("solver", "convergence_test", "solver.convergence_test"),
    ("solver", "evaluate_cost", "objectives.evaluate_cost"),
    ("experiments", "evaluate_cost", "objectives.evaluate_cost"),
    ("cli", "dump_config", "config.dump_config"),
    ("cli", "load_config", "config.load_config"),
)
LEAVES = (
    ("solver", "control_law_l2", "pmp.control_law"),
    ("solver", "control_law_l1", "pmp.control_law"),
    ("solver", "switching_functions", "pmp.switching_functions.solver"),
    ("cli", "switching_functions", "pmp.switching_functions.cli"),
)
COUNTS = (
    ("integrator", "rhs_terms", "model.rhs_terms"),
    ("integrator", "costate_terms", "pmp.costate_terms"),
)
RATE_LAYER = "scenarios.rate"


class Tracer:
    """Installs the wrappers on marketopt's modules and collects what they see."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.spans: list[tuple] = []
        self.leaves: dict[str, list] = {}
        self.counts: dict[str, list] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.missing = []
        for kinds, wrap in ((SPANS, self._span), (LEAVES, self._leaf), (COUNTS, self._count)):
            for module, attr, name in kinds:
                owner = self.modules[module]
                if hasattr(owner, attr):
                    self._patch(owner, attr, wrap(name, getattr(owner, attr)))
                else:
                    self.missing.append(f"{module}.{attr}")
        scenarios = self.modules["scenarios"]
        for cls in vars(scenarios).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, scenarios.RateFunction)
                and cls is not scenarios.RateFunction
                and "__call__" in vars(cls)
            ):
                self._patch(cls, "__call__", self._count(RATE_LAYER, cls.__call__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> dict:
        """Everything recorded since the last take, then start afresh."""
        taken = {
            "spans": self.spans[:],
            "leaves": {k: tuple(v) for k, v in self.leaves.items()},
            "counts": {k: v[0] for k, v in self.counts.items()},
        }
        self.spans.clear()
        for cell in self.leaves.values():
            cell[0], cell[1] = 0, 0.0
        for cell in self.counts.values():
            cell[0] = 0
        return taken

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((name, frame[0], parent, start, end, end - start - frame[1]))

        return wrapper

    def _leaf(self, name: str, fn):
        cell = self.leaves.setdefault(name, [0, 0.0])
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                cell[0] += 1
                cell[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _count(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper


def layer_totals(taken: dict) -> dict[str, dict]:
    """Per layer name: calls, total seconds and self seconds of one take."""
    totals: dict[str, dict] = {}
    for name, _, _, start, end, self_s in taken["spans"]:
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
    for name, (calls, seconds) in taken["leaves"].items():
        totals[name] = {"calls": calls, "s": seconds, "self_s": seconds}
    for name, calls in taken["counts"].items():
        totals[name] = {"calls": calls, "s": 0.0, "self_s": 0.0}
    return totals
