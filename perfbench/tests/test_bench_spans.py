import pytest

import spans
import tminimax
from tminimax import allocation, cli, simulate


def span(name, start, end, parent=-1, op=0):
    return (name, start, end, parent, op)


def test_self_time_of_nested_spans():
    # a [0, 10] > b [1, 6] > c [2, 3]
    got = spans.self_times([span("a", 0.0, 10.0), span("b", 1.0, 6.0, 0),
                            span("c", 2.0, 3.0, 1)])
    assert got == pytest.approx([5.0, 4.0, 1.0])
    assert sum(got) == pytest.approx(10.0)


def test_self_time_of_siblings():
    # a [0, 10] with children b [1, 3] and c [4, 8]
    got = spans.self_times([span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0),
                            span("c", 4.0, 8.0, 0)])
    assert got == pytest.approx([4.0, 2.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    got = spans.self_times([span("a", 0.0, 10.0), span("b", 1.0, 5.0, 0),
                            span("c", 3.0, 7.0, 0)])
    assert got[0] == pytest.approx(4.0)


def test_layer_metrics_nesting_rules():
    recorded = [
        span("cli.main", 0.0, 10.0),                                 # 0
        span("allocation.integer_solve", 1.0, 9.0, 0),               # 1
        span("allocation.relaxed_recycling", 1.0, 4.0, 1),           # 2
        span("allocation.relaxed_augmented", 1.5, 2.0, 2),           # 3: nested relaxed
        span("serialize.write_assignment_csv", 9.0, 9.5, 0),         # 4
        span("serialize.atomic_write_text", 9.1, 9.4, 4),            # 5: not a table write
        span("serialize.rows_to_json", 9.5, 9.6, 0),                 # 6
        span("serialize.atomic_write_text", 9.6, 9.9, 0),            # 7: table write
    ]
    counters = {(0, "allocation.integer_solve.calls"): 1,
                (0, "serialize.write_assignment_csv.bytes"): 1e6}
    m = spans.layer_metrics(recorded, counters, {0: 12.0}, 1.5)
    assert list(m) == list(spans.LAYER_UNITS)
    assert m["allocation.relaxed.ms"] == pytest.approx(3000.0)  # outer span only
    assert m["allocation.integer_solve.self_ms"] == pytest.approx(5000.0)
    assert m["allocation.integer_solve.calls"] == 1
    assert m["serialize.table_write.ms"] == pytest.approx(400.0)
    assert m["serialize.write_mb_s"] == pytest.approx(2.0)
    assert m["cli.self_ms"] == pytest.approx(10000.0 - 8000.0 - 500.0 - 100.0 - 300.0)
    assert m["trace.op_ms"] == pytest.approx(12000.0)
    assert m["trace.attributed_pct"] == pytest.approx(100.0 * 10.0 / 12.0)
    assert m["trace.overhead_pct"] == 1.5


def test_layer_metrics_ignore_ops_outside_the_set():
    recorded = [span("risk.loss", 0.0, 1.0, op=0), span("risk.loss", 2.0, 5.0, op=1)]
    m = spans.layer_metrics(recorded, {}, {1: 3.0}, 0.0)
    assert m["risk.loss.ms"] == pytest.approx(3000.0)


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path):
    originals = (cli.integer_solve, allocation.integer_solve, tminimax.integer_solve,
                 simulate._MODELS["habituation"], cli.main)
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        assert cli.integer_solve is not originals[0]
        assert allocation.integer_solve is cli.integer_solve
        assert tminimax.integer_solve is cli.integer_solve
        assert simulate._MODELS["habituation"] is simulate.habituation_model
        cli.main(["design", "--n", "60", "--t", "4", "--out", str(tmp_path / "a.json")])
        assert recorder.spans == []  # no op open: nothing recorded
        recorder.begin_op(7)
        assert cli.main(["design", "--n", "60", "--t", "4", "--mode", "recycling",
                         "--k", "1", "--out", str(tmp_path / "b.json")]) == 0
        recorder.end_op()
    finally:
        uninstall()
    assert (cli.integer_solve, allocation.integer_solve, tminimax.integer_solve,
            simulate._MODELS["habituation"], cli.main) == originals

    names = [s[0] for s in recorder.spans]
    parent = {s[0]: (recorder.spans[s[3]][0] if s[3] >= 0 else None)
              for s in recorder.spans}
    assert names[0] == "cli.main" and parent["cli.main"] is None
    assert parent["allocation.integer_solve"] == "cli.main"
    assert parent["allocation.relaxed_recycling"] == "allocation.integer_solve"
    assert parent["allocation.relaxed_augmented"] == "allocation.relaxed_recycling"
    assert parent["serialize.atomic_write_text"] == "cli.main"
    assert all(s[4] == 7 and s[1] <= s[2] for s in recorder.spans)
    assert recorder.counters[(7, "allocation.integer_solve.calls")] == 1


def test_model_calls_through_module_dicts_are_traced():
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        recorder.begin_op(0)
        simulate.expected_risk_comparison([40], [3], model="habituation", reps=2)
        recorder.end_op()
    finally:
        uninstall()
    m = spans.layer_metrics(recorder.spans, recorder.counters, {0: 1.0}, 0.0)
    assert recorder.counters[(0, "simulate.habituation_model.calls")] == 2
    assert m["risk.loss.calls"] == 4
    assert m["estimators.estimands.calls_per_schedule"] == 2.0
    assert m["core.make_arm_vector.calls"] > 0
