"""Span recorder for the traced run, installed from outside the program.

`install` replaces each traced public function with a recording wrapper in
every ``tminimax.*`` module namespace that binds it (module attributes and
module-level dicts such as ``simulate._MODELS``).  Calls made from ``cli``
and calls made inside a module (``integer_solve`` -> ``relaxed_recycling``,
``loss`` -> ``estimands``) therefore both land on the wrapper.  Nothing in
``src/`` is edited; `uninstall` puts the original functions back.

A span is (name, start, end, parent, op).  Spans live in memory and are
reduced to per-op layer metrics when the run ends.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# Span name -> (module that defines the function, function name).
TRACED = {
    "cli.main": ("tminimax.cli", "main"),
    "allocation.integer_solve": ("tminimax.allocation", "integer_solve"),
    "allocation.relaxed_basic": ("tminimax.allocation", "relaxed_basic"),
    "allocation.relaxed_augmented": ("tminimax.allocation", "relaxed_augmented"),
    "allocation.relaxed_weighted": ("tminimax.allocation", "relaxed_weighted"),
    "allocation.relaxed_recycling": ("tminimax.allocation", "relaxed_recycling"),
    "allocation.objective": ("tminimax.allocation", "objective"),
    "allocation.balanced": ("tminimax.allocation", "balanced"),
    "core.draw_assignment": ("tminimax.core", "draw_assignment"),
    "core.observe": ("tminimax.core", "observe"),
    "estimators.estimands": ("tminimax.estimators", "estimands"),
    "estimators.habituation_estimate": ("tminimax.estimators", "habituation_estimate"),
    "estimators.instantaneous_estimate": ("tminimax.estimators", "instantaneous_estimate"),
    "estimators.augmented_instantaneous_estimate":
        ("tminimax.estimators", "augmented_instantaneous_estimate"),
    "estimators.recycling_instantaneous_estimate":
        ("tminimax.estimators", "recycling_instantaneous_estimate"),
    "risk.mc_risk": ("tminimax.risk", "mc_risk"),
    "risk.loss": ("tminimax.risk", "loss"),
    "risk.max_risk": ("tminimax.risk", "max_risk"),
    "risk.box_max_variance": ("tminimax.risk", "box_max_variance"),
    "risk.worst_case_schedule": ("tminimax.risk", "worst_case_schedule"),
    "serialize.read_assignment_csv": ("tminimax.serialize", "read_assignment_csv"),
    "serialize.read_matrix_csv": ("tminimax.serialize", "read_matrix_csv"),
    "serialize.write_assignment_csv": ("tminimax.serialize", "write_assignment_csv"),
    "serialize.write_matrix_csv": ("tminimax.serialize", "write_matrix_csv"),
    "serialize.rows_to_csv": ("tminimax.serialize", "rows_to_csv"),
    "serialize.rows_to_json": ("tminimax.serialize", "rows_to_json"),
    "serialize.atomic_write_text": ("tminimax.serialize", "atomic_write_text"),
    "simulate.standard_model": ("tminimax.simulate", "standard_model"),
    "simulate.habituation_model": ("tminimax.simulate", "habituation_model"),
    "simulate.expected_risk_comparison": ("tminimax.simulate", "expected_risk_comparison"),
}

# Called ~10^5 times per op: counted, not timed, so the wrapper stays cheap.
COUNTED = {
    "core.make_arm_vector": ("tminimax.core", "make_arm_vector"),
}

# Spans whose first argument is a file path; its size is added to the
# counter "<span>.bytes" after the call returns.
_FILE_ARG = {
    "serialize.read_assignment_csv", "serialize.read_matrix_csv",
    "serialize.write_assignment_csv", "serialize.write_matrix_csv",
}


class SpanRecorder:
    """Collects spans and counters for the op that is currently open.

    Outside an open op (set-up, checks, untraced ops) the wrappers call
    straight through and record nothing.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack.clear()

    def end_op(self) -> None:
        self._op = None

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, op))  # reserve the slot
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, op)
                self.counters[(op, name + ".calls")] += 1
                if name == "risk.mc_risk":
                    self.counters[(op, "risk.mc_risk.draws")] += (
                        args[3] if len(args) > 3 else kwargs["draws"])
                elif name in _FILE_ARG:
                    path = args[0] if args else kwargs["path"]
                    if os.path.exists(path):
                        self.counters[(op, name + ".bytes")] += os.path.getsize(path)

        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self.counters[(self._op, name + ".calls")] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(recorder: SpanRecorder):
    """Wrap every traced function wherever a loaded ``tminimax`` module
    binds it.  Returns a callable that restores the originals."""
    replacements = {}
    for table, make in ((TRACED, recorder.timed), (COUNTED, recorder.counted)):
        for name, (module, attr) in table.items():
            original = getattr(sys.modules[module], attr)
            replacements[id(original)] = (original, make(name, original))
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "tminimax" or modname.startswith("tminimax.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and replacements[id(value)][0] is value:
                setattr(module, attr, replacements[id(value)][1])
                undo.append((vars(module), attr, value))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replacements and replacements[id(item)][0] is item:
                        value[key] = replacements[id(item)][1]
                        undo.append((value, key, item))

    def uninstall() -> None:
        for namespace, key, original in undo:
            namespace[key] = original

    return uninstall


# ---------------------------------------------------------------------------
# Reduction to per-op metrics.
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


_RELAXED = ("allocation.relaxed_basic", "allocation.relaxed_augmented",
            "allocation.relaxed_weighted", "allocation.relaxed_recycling")
_ESTIMATES = ("estimators.habituation_estimate", "estimators.instantaneous_estimate",
              "estimators.augmented_instantaneous_estimate",
              "estimators.recycling_instantaneous_estimate")
_MODELS = ("simulate.standard_model", "simulate.habituation_model")
# Builders of a potential-outcome schedule, the base of estimands' waste ratio.
_SCHEDULE_BUILDERS = _MODELS + ("risk.worst_case_schedule",)
_CSV_WRITERS = ("serialize.write_assignment_csv", "serialize.write_matrix_csv")
_CSV_READERS = ("serialize.read_assignment_csv", "serialize.read_matrix_csv")

# Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "allocation.integer_solve.self_ms": "ms",
    "allocation.integer_solve.calls": "count",
    "allocation.relaxed.ms": "ms",
    "allocation.objective.ms": "ms",
    "allocation.balanced.ms": "ms",
    "risk.mc_risk.ms": "ms",
    "risk.mc_risk.us_per_draw": "us",
    "risk.loss.ms": "ms",
    "risk.loss.calls": "count",
    "risk.max_risk.ms": "ms",
    "risk.box_max_variance.ms": "ms",
    "risk.worst_case_schedule.ms": "ms",
    "core.draw_assignment.ms": "ms",
    "core.observe.ms": "ms",
    "core.make_arm_vector.calls": "count",
    "estimators.estimands.ms": "ms",
    "estimators.estimands.calls_per_schedule": "ratio",
    "estimators.estimate.ms": "ms",
    "estimators.estimate.calls": "count",
    "serialize.read_assignment_csv.ms": "ms",
    "serialize.read_matrix_csv.ms": "ms",
    "serialize.write_assignment_csv.ms": "ms",
    "serialize.write_matrix_csv.ms": "ms",
    "serialize.table_write.ms": "ms",
    "serialize.read_mb_s": "MB/s",
    "serialize.write_mb_s": "MB/s",
    "simulate.model.ms": "ms",
    "simulate.expected_risk_comparison.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.op_ms": "ms",
    "trace.attributed_pct": "%",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters, op_seconds: dict[int, float],
                  overhead_pct: float) -> dict[str, float]:
    """Per-op layer metrics over the traced ops in ``op_seconds`` (op id ->
    wall seconds of that op).

    ``ms`` metrics are inclusive span time unless named ``self_ms``.  A
    group whose members can nest (``relaxed_recycling`` starts from
    ``relaxed_augmented``) counts only its outermost spans.
    """
    n_ops = len(op_seconds)
    selfs = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    table_write = 0.0
    top_level = 0.0
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op not in op_seconds:
            continue
        duration = end - start
        own[name] += selfs[index]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name in _RELAXED and parent_name in _RELAXED:
            continue  # already inside an outer relaxed span
        incl[name] += duration
        if name in ("serialize.rows_to_csv", "serialize.rows_to_json") or (
                name == "serialize.atomic_write_text" and parent_name not in _CSV_WRITERS):
            table_write += duration
        if parent < 0:
            top_level += duration

    count: dict[str, float] = defaultdict(float)
    for (op, key), value in counters.items():
        if op in op_seconds:
            count[key] += value

    def ms(total_s: float) -> float:
        return 1e3 * total_s / n_ops

    def per_op(total: float) -> float:
        return total / n_ops

    read_s = sum(incl[n] for n in _CSV_READERS)
    write_s = sum(incl[n] for n in _CSV_WRITERS)
    op_total = sum(op_seconds.values())
    out = {
        "allocation.integer_solve.self_ms": ms(own["allocation.integer_solve"]),
        "allocation.integer_solve.calls": per_op(count["allocation.integer_solve.calls"]),
        "allocation.relaxed.ms": ms(sum(incl[n] for n in _RELAXED)),
        "allocation.objective.ms": ms(incl["allocation.objective"]),
        "allocation.balanced.ms": ms(incl["allocation.balanced"]),
        "risk.mc_risk.ms": ms(incl["risk.mc_risk"]),
        "risk.mc_risk.us_per_draw": 1e6 * _ratio(incl["risk.mc_risk"],
                                                 count["risk.mc_risk.draws"]),
        "risk.loss.ms": ms(incl["risk.loss"]),
        "risk.loss.calls": per_op(count["risk.loss.calls"]),
        "risk.max_risk.ms": ms(incl["risk.max_risk"]),
        "risk.box_max_variance.ms": ms(incl["risk.box_max_variance"]),
        "risk.worst_case_schedule.ms": ms(incl["risk.worst_case_schedule"]),
        "core.draw_assignment.ms": ms(incl["core.draw_assignment"]),
        "core.observe.ms": ms(incl["core.observe"]),
        "core.make_arm_vector.calls": per_op(count["core.make_arm_vector.calls"]),
        "estimators.estimands.ms": ms(incl["estimators.estimands"]),
        "estimators.estimands.calls_per_schedule": _ratio(
            count["estimators.estimands.calls"],
            sum(count[n + ".calls"] for n in _SCHEDULE_BUILDERS)),
        "estimators.estimate.ms": ms(sum(incl[n] for n in _ESTIMATES)),
        "estimators.estimate.calls": per_op(sum(count[n + ".calls"] for n in _ESTIMATES)),
        "serialize.read_assignment_csv.ms": ms(incl["serialize.read_assignment_csv"]),
        "serialize.read_matrix_csv.ms": ms(incl["serialize.read_matrix_csv"]),
        "serialize.write_assignment_csv.ms": ms(incl["serialize.write_assignment_csv"]),
        "serialize.write_matrix_csv.ms": ms(incl["serialize.write_matrix_csv"]),
        "serialize.table_write.ms": ms(table_write),
        "serialize.read_mb_s": 1e-6 * _ratio(
            sum(count[n + ".bytes"] for n in _CSV_READERS), read_s),
        "serialize.write_mb_s": 1e-6 * _ratio(
            sum(count[n + ".bytes"] for n in _CSV_WRITERS), write_s),
        "simulate.model.ms": ms(sum(incl[n] for n in _MODELS)),
        "simulate.expected_risk_comparison.self_ms": ms(own["simulate.expected_risk_comparison"]),
        "cli.self_ms": ms(own["cli.main"]),
        "trace.op_ms": ms(op_total),
        # Self times of all spans sum to the top-level spans' time; the rest
        # of an op is benchmark glue between the traced calls.
        "trace.attributed_pct": 100.0 * _ratio(top_level, op_total),
        "trace.overhead_pct": overhead_pct,
    }
    assert list(out) == list(LAYER_UNITS)
    return out
