"""Differential property: the online matcher's length-indexed retry of
pending datagram sends pairs exactly as the original full rotation did
(every receive retrying every pending send in arrival order), kept in
``tests/streaming/reference.py`` as the oracle.

The streams plant what makes the retry rule matter: sends that are
never received, receives committed before their sends, sources the
matcher cannot place, and hosts learned late, from connect/accept
records that arrive after the first datagrams."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.engine import StreamEvent
from repro.streaming.matching import OnlineMatcher

from tests.streaming.reference import FullRotationMatcher, walked_state_size

MACHINES = (1, 2, 3)
LENGTHS = (16, 32)


def _name(machine, port):
    return "inet:h{0}:{1}".format(machine, port)


_machine = st.sampled_from(MACHINES)

_send = st.tuples(st.just("send"), _machine, _machine,
                  st.sampled_from(LENGTHS))
# A receive's source: a machine, an unknown host, or no name at all.
_recv = st.tuples(st.just("receive"), _machine,
                  st.one_of(_machine, st.just("h9"), st.none()),
                  st.sampled_from(LENGTHS))
_host = st.tuples(st.sampled_from(("connect", "accept")), _machine,
                  _machine, st.just(0))
# Bursts of sends before bursts of receives leave several sends of one
# length pending at once, so which of them a receive pairs with -- the
# retry order -- is put to the test.
_dgram_ops = st.lists(
    st.one_of(
        st.lists(st.one_of(_send, _recv), max_size=6),
        st.tuples(st.lists(_send, max_size=6), st.lists(_recv, max_size=6))
        .map(lambda burst: burst[0] + burst[1]),
    ),
    max_size=5,
).map(lambda chunks: [op for chunk in chunks for op in chunk])


@st.composite
def _streams(draw):
    """Datagram traffic, then hosts learned, then more traffic, with a
    few connect/accept records mixed in anywhere."""
    ops = draw(_dgram_ops) + draw(st.lists(_host, max_size=4))
    ops += draw(_dgram_ops)
    for op in draw(st.lists(_host, max_size=3)):
        ops.insert(draw(st.integers(0, len(ops))), op)
    return ops


def _records(ops):
    records = []
    for n, (kind, machine, other, length) in enumerate(ops):
        record = {"event": kind, "machine": machine, "pid": 100 + machine,
                  "cpuTime": n}
        if kind == "send":
            record.update(sock=1, msgLength=length,
                          destName=_name(other, 6000))
        elif kind == "receive":
            if other == "h9":
                source = "inet:h9:6000"
            elif other is None:
                source = None
            else:
                source = _name(other, 6000)
            record.update(sock=1, msgLength=length, sourceName=source)
        else:
            # Endpoints on their own sockets, so the datagram socket
            # stays outside stream matching.
            record.update(sock=100 + n, newSock=200 + n,
                          sockName=_name(machine, 7000 + n),
                          peerName=_name(other, 7000 + n))
        records.append(record)
    return records


def _run(matcher_cls, records, check_state=False):
    log = []
    matcher = matcher_cls(
        on_pair=lambda send, recv, nbytes: log.append(
            ("pair", send.index, recv.index, nbytes)),
        on_recv_done=lambda recv: log.append(("done", recv.index)),
    )
    seqs = {}
    for index, record in enumerate(records):
        process = (record["machine"], record["pid"])
        seqs[process] = seqs.get(process, -1) + 1
        matcher.update(StreamEvent(record, index, seqs[process]))
        if check_state:
            assert matcher.state_size() == walked_state_size(matcher)
    matcher.finalize()
    if check_state:
        assert matcher.state_size() == walked_state_size(matcher)
    return log, matcher


@given(_streams())
@settings(max_examples=300, deadline=None)
def test_length_indexed_retry_pairs_like_full_rotation(ops):
    records = _records(ops)
    got, matcher = _run(OnlineMatcher, records, check_state=True)
    want, reference = _run(FullRotationMatcher, records)
    # The same pairs and the same on_recv_done order, interleaved as
    # the callbacks fired.
    assert got == want
    assert matcher.host_ids == reference.host_ids
    assert [e.index for e in matcher.pending_send_events()] == [
        cell[0].index for cell in reference._pending_sends]
