"""Live sessions: tracing leaves the simulation alone, and the output
checks catch a lost or altered committed record."""

import pytest

from perfbench import harness, layers, live

SMALL = {
    "live_fanout": lambda: live.live_fanout(messages=40),
    "live_immediate": lambda: live.live_immediate(items=40),
}


def session(name, traced):
    workload = SMALL[name]()
    probes = layers.Probes().install()
    try:
        if traced:
            result, tracer, counts = harness.traced_call(
                live.run_session, workload, 17, probes)
        else:
            result = live.run_session(workload, 17, probes)
    finally:
        probes.restore()
    return workload, result


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_does_not_perturb_simulated_metrics(name):
    __, plain = session(name, traced=False)
    __, traced = session(name, traced=True)
    assert plain.sim_fingerprint() == traced.sim_fingerprint()
    assert plain.commit_latency_ms and plain.done_sim_ms
    assert plain.job_sim_ms == traced.job_sim_ms


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_catches_a_removed_or_changed_record(name):
    workload, result = session(name, traced=False)
    records = live.committed_records(result.session)
    digest = live.live_digest(result.session)
    counts = live.session_counts(result)
    assert live.check_live(workload, records, digest, counts) == []

    removed = records[:3] + records[4:]
    assert live.check_live(workload, removed, digest, counts)

    changed = [dict(record) for record in records]
    changed[3]["msgLength"] = changed[3].get("msgLength", 0) + 1
    assert live.check_live(workload, changed, digest, counts)


def test_selective_check_rejects_a_record_the_templates_drop():
    workload, result = session("live_immediate", traced=False)
    records = live.committed_records(result.session)
    wrong = [dict(record) for record in records]
    wrong[0]["machine"] = 2  # not red: the templates never commit it
    rules = live.selection_rules(workload.templates)
    assert rules.apply_interpreted(records[0]) is not None
    assert rules.apply_interpreted(wrong[0]) is None
