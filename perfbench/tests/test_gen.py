"""The seeded generators: a seed names its input, byte for byte."""

from perfbench import gen, harness, offline


def test_bursty_wire_is_a_function_of_the_seed():
    assert gen.bursty_wire(3, 2000) == gen.bursty_wire(3, 2000)
    assert gen.bursty_wire(3, 2000) != gen.bursty_wire(4, 2000)
    assert len(gen.bursty_wire(3, 2001)) == 2001


def test_bursty_wire_covers_all_ten_formats():
    from repro.metering.messages import MessageCodec

    codec = MessageCodec(gen.SELECT_HOSTS)
    events = {codec.decode(raw)["event"] for raw in gen.bursty_wire(5, 5000)}
    assert events == set(gen.EVENTS)


def test_analysis_trace_is_a_function_of_the_seed():
    one, two = gen.analysis_trace(7, 3000), gen.analysis_trace(7, 3000)
    assert one.wire == two.wire
    assert one.unmatched_sends == two.unmatched_sends > 0
    assert gen.analysis_trace(8, 3000).wire != one.wire


def test_inputs_are_byte_identical_on_disk(tmp_path):
    for make in (offline.SelectInputs, offline.AnalysisInputs):
        first = make(str(tmp_path / (make.__name__ + "a")), 2, events=3000)
        second = make(str(tmp_path / (make.__name__ + "b")), 2, events=3000)
        for base_a, base_b in zip(first.paths(), second.paths()):
            assert offline.store_files(base_a)
            assert offline.same_bytes(base_a, base_b)


def test_cluster_seed_is_a_function_of_the_seed():
    assert harness.derive_seed("live_fanout", 1) == harness.derive_seed(
        "live_fanout", 1)
    assert harness.derive_seed("live_fanout", 1) != harness.derive_seed(
        "live_fanout", 2)
