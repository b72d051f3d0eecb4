import run
import spans


class Fake:
    """A workload whose op 0 output changes after ``drift_after`` calls."""

    def __init__(self, drift_after=None, fail_ops=(), pass_len=2):
        self.pass_len = pass_len
        self.calls = 0
        self.drift_after = drift_after
        self.fail_ops = fail_ops
        self.checked = []

    def op(self, i):
        self.calls += 1
        self.last = i
        return 1 if i in self.fail_ops else 0

    def output(self, i):
        drifted = self.drift_after is not None and self.calls > self.drift_after
        return b"op %d%s" % (i, b" drifted" if drifted and i == 0 else b"")

    def check(self, i, data):
        self.checked.append(i)

    def finish(self):
        pass


def test_measure_completes_whole_passes_and_checks_each_op_once():
    w = Fake()
    m = run.measure(w, 0.0, None)
    assert len(m["latencies"]) == 2  # one whole pass, even with no time asked
    assert w.checked == [0, 1]
    assert m["errors"] == [] and m["failed"] == 0


def test_measure_reports_op_0_that_does_not_reproduce():
    m = run.measure(Fake(drift_after=2), 0.0, None)
    assert m["errors"] == ["op 0 re-run did not reproduce its output byte for byte"]


def test_failed_op_is_an_error_and_is_not_checked():
    w = Fake(fail_ops=(1,))
    m = run.measure(w, 0.0, None)
    assert m["failed"] == 1 and w.checked == [0]
    assert m["errors"] == ["op 1 failed: exit code 1"]


def test_raising_op_is_an_error():
    class Raises(Fake):
        def op(self, i):
            if i == 1:
                raise ValueError("bad input")
            return super().op(i)

    m = run.measure(Raises(), 0.0, None)
    assert m["failed"] == 1
    assert m["errors"] == ["op 1 failed: ValueError: bad input"]


def test_between_runs_before_each_op_with_the_time_measured_so_far():
    seen = []
    m = run.measure(Fake(), 0.0, None, seen.append)
    assert len(seen) == 2 and seen[0] == 0.0 and seen[1] == m["latencies"][0]


def test_traced_measure_runs_each_op_traced_and_untraced():
    w = Fake()
    m = run.measure(w, 0.0, spans.SpanRecorder())
    assert sorted(m["traced"]) == sorted(m["untraced"]) == [0, 1]
    assert len(m["latencies"]) == 4
    assert w.checked == [0, 1]


def test_traced_measure_balances_the_two_orders():
    # a pass of three ops is rounded up to six, so traced-first and
    # untraced-first each occur three times
    m = run.measure(Fake(pass_len=3), 0.0, spans.SpanRecorder())
    assert sorted(m["traced"]) == list(range(6))
    assert len(run.measure(Fake(pass_len=3), 0.0, None)["latencies"]) == 3
