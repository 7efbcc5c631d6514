"""Offline passes: the checks hold on the program's output and fail
when one record is removed or changed."""

from repro.analysis.trace import Trace

from perfbench import offline
from perfbench.layers import Fold
from perfbench.tracer import Tracer


def run_pass(make_ops, inputs):
    state, ops = make_ops(inputs)
    for op in ops:
        op.run(offline.Clock())
    return state


def test_select_check_catches_a_removed_or_changed_record(tmp_path):
    inputs = offline.SelectInputs(str(tmp_path / "select"), 1, events=6000)
    expected = offline.SelectExpected(inputs)
    state = run_pass(offline.select_ops, inputs)
    assert offline.check_select(expected, state) == []
    assert expected.frames_corrupt > 0

    from repro.tracestore import StoreReader, scan_fast

    records = list(scan_fast(StoreReader.from_files(inputs.plain)))
    removed = dict(state["outputs"], scan=Fold().add_all(
        records[:10] + records[11:]))
    assert offline.check_select(expected, dict(state, outputs=removed))
    changed_records = [dict(record) for record in records]
    changed_records[10]["cpuTime"] += 1
    changed = dict(state["outputs"],
                   scan=Fold().add_all(changed_records))
    assert offline.check_select(expected, dict(state, outputs=changed))


def test_analysis_check_catches_a_removed_or_changed_record(tmp_path):
    inputs = offline.AnalysisInputs(str(tmp_path / "analysis"), 1,
                                    events=3000)
    expected = offline.AnalysisExpected(inputs)
    state = run_pass(offline.analysis_ops, inputs)
    assert offline.check_analysis(expected, state) == []

    records = [event.record for event in state["trace"]]
    removed = dict(state, trace=Trace(records[:5] + records[6:]))
    assert offline.check_analysis(expected, removed)
    changed_records = [dict(record) for record in records]
    changed_records[5]["pid"] += 1
    changed = dict(state, trace=Trace(changed_records))
    assert offline.check_analysis(expected, changed)


def test_clock_drain_fingerprints_every_record_across_pulls():
    records = [{"cpuTime": i, "machine": i % 3}
               for i in range(2 * offline.CHUNK + 5)]
    tracer = Tracer()
    clock = offline.Clock(tracer, "tracestore.scan")
    assert clock.drain(iter, records) == Fold().add_all(records)
    assert clock.elapsed > 0
    # one span for creating the scan, then three full or partial pulls
    # and the empty one that ends it
    assert tracer.summary()["tracestore.scan"]["count"] == 5
