"""The live workloads: a monitored job on a simulated cluster.

One *session* builds a cluster and a measurement session, creates the
filter and the job (set-up), then starts the job and runs the
simulation until it settles (the measured run).  The cluster seed is
the only input that changes with the benchmark's seed: it moves the
network's per-packet jitter, so simulated times differ slightly from
seed to seed while the work stays the same.
"""

import hashlib
import json
import time

from repro.core.cluster import Cluster
from repro.core.session import MeasurementSession
from repro.filtering.rules import Rule, RuleSet, parse_rules
from repro.programs import install_all
from repro.streaming.twins import canonical, replay_engine
from repro.tracestore.writer import segment_path

from perfbench.layers import Fold

METER_FLAGS = "send receive receivecall socket destsocket termproc"
DIGEST_KEYS = ("records", "clock_digest", "pairs_digest", "totals",
               "per_process")


class LiveWorkload:
    """What one live workload runs: its log format, templates, and the
    controller commands that create the filter and the job."""

    def __init__(self, name, log_format, commands, processes,
                 templates=None):
        self.name = name
        self.log_format = log_format
        self.commands = commands
        self.processes = processes
        #: None: the default ``machine=*`` templates file
        self.templates = templates


def live_fanout(messages=400):
    """Four datagram producer->consumer pairs across red, green and
    blue; every metered event is committed to a store-mode filter."""
    commands = ["filter f1 blue", "newjob j"]
    for port, host in ((6001, "red"), (6002, "red"), (6003, "green"),
                       (6004, "green")):
        commands.append("addprocess j {0} dgramconsumer {1} {2} 9000".format(
            host, port, messages))
    for src, dst, port, size in (("green", "red", 6001, 64),
                                 ("blue", "red", 6002, 96),
                                 ("red", "green", 6003, 128),
                                 ("blue", "green", 6004, 160)):
        commands.append(
            "addprocess j {0} dgramproducer {1} {2} {3} {4} 1".format(
                src, dst, port, messages, size))
    commands.append("setflags j " + METER_FLAGS)
    return LiveWorkload("live_fanout", "store", commands, processes=8)


#: live_immediate's selective templates: only red's sends, program
#: counter discarded.  red is host id 1 in the default cluster.
IMMEDIATE_TEMPLATES = "type=send, machine=1, pc=#*\n"


def live_immediate(items=400):
    """A three-stage stream pipeline (green source -> red middle ->
    blue sink) metered with immediate delivery into a text-mode filter
    whose templates commit only red's sends."""
    commands = [
        "filter f1 blue filter descriptions bench_templates",
        "newjob j",
        "addprocess j blue pipelinestage 7003 none 0 sink {0} 0.5".format(items),
        "addprocess j red pipelinestage 7002 blue 7003 middle {0} 0.5".format(
            items),
        "addprocess j green pipelinestage 7001 red 7002 source {0} 0.5".format(
            items),
        "setflags j " + METER_FLAGS + " immediate",
    ]
    return LiveWorkload("live_immediate", "text", commands, processes=3,
                        templates=IMMEDIATE_TEMPLATES)


WORKLOADS = {"live_fanout": live_fanout, "live_immediate": live_immediate}


class SessionResult:
    """What one session measured, and what its checks read."""

    def __init__(self):
        self.setup_s = 0.0
        self.run_s = 0.0
        self.sim_events = 0
        self.metered = 0
        self.dropped = 0
        self.wire_sends = 0
        self.packets = 0
        self.bytes = 0
        self.commit_latency_ms = []
        self.commit_fold = Fold()
        self.done_sim_ms = []
        self.start_sim_ms = 0.0
        self.inbox = None
        self.session = None

    @property
    def job_sim_ms(self):
        """Simulated ms from ``startjob`` to the last DONE report (0 when
        none arrived; the checks report that)."""
        if not self.done_sim_ms:
            return 0.0
        return max(self.done_sim_ms) - self.start_sim_ms

    def sim_fingerprint(self):
        """Everything a session measures in simulated time or counts;
        equal across repeated and traced runs of one seed."""
        return (self.sim_events, self.metered, self.dropped, self.wire_sends,
                self.packets, self.bytes, tuple(self.commit_latency_ms),
                self.commit_fold.value, self.commit_fold.count,
                tuple(self.done_sim_ms), self.start_sim_ms)


def run_session(workload, cluster_seed, probes):
    """Set up and run one monitored session.  ``probes`` must already be
    installed; the caller restores them."""
    result = SessionResult()
    start = time.perf_counter()
    cluster = Cluster(seed=cluster_seed)
    probes.reset(cluster.sim)
    session = MeasurementSession(
        cluster, control_machine="yellow", log_format=workload.log_format
    )
    install_all(session)
    if workload.templates is not None:
        cluster.machine("blue").fs.install(
            "bench_templates", data=workload.templates, mode=0o644
        )
    for line in workload.commands:
        session.command(line)
    done = result.done_sim_ms
    on_output = session.tty.on_output

    def watch_done(data):
        on_output(data)
        for __ in range(data.count(b"DONE:")):
            done.append(cluster.sim.now)

    session.tty.on_output = watch_done
    setup_end = time.perf_counter()
    result.start_sim_ms = cluster.sim.now
    session.command("startjob j")
    session.settle()
    end = time.perf_counter()
    session.tty.on_output = on_output

    result.setup_s = setup_end - start
    result.run_s = end - setup_end
    meters = [machine.meter for machine in cluster.machines.values()]
    result.metered = sum(meter.events_recorded for meter in meters)
    result.dropped = sum(meter.events_dropped for meter in meters)
    result.wire_sends = sum(meter.wire_sends for meter in meters)
    network = cluster.network
    result.packets = network.datagrams_sent + network.reliable_packets_sent
    result.bytes = network.bytes_sent
    result.sim_events = cluster.sim.events_run
    result.commit_latency_ms = list(probes.commit_latency_ms)
    result.commit_fold = Fold().add_all(probes.committed)
    result.inbox = probes.inboxes[-1] if probes.inboxes else None
    result.session = session
    return result


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def live_digest(session):
    """The filter's own streaming digest (``stats f1 digest``)."""
    out = session.command("stats f1 digest")
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None


def committed_records(session):
    return list(session.read_trace("f1"))


def records_sha256(records):
    """sha256 of a committed record stream, one canonical JSON line per
    record: equal hashes mean byte-identical streams."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def selection_rules(templates):
    """The templates with their discard-only wildcard conditions removed:
    what a committed (already reduced) record must still match."""
    rules = []
    for rule in parse_rules(templates, compiled=False).rules:
        kept = [c for c in rule.conditions if not (c.discard and c.is_wildcard)]
        rules.append(Rule(kept))
    return RuleSet(rules, compiled=False)


def discarded_fields(templates):
    return {
        c.field
        for rule in parse_rules(templates, compiled=False).rules
        for c in rule.conditions
        if c.discard
    }


def check_live(workload, records, digest, counts):
    """Problems with one session's output; empty when it is correct.

    ``counts`` holds the meter and inbox counters: ``metered``,
    ``dropped``, ``received`` (record messages the filter framed),
    ``deduplicated`` (batches it rejected as retransmissions),
    ``commit_fold`` (the fingerprint and count of the records its
    engine folded at commit) and ``done`` (DONE reports)."""
    problems = []
    committed = len(records)
    if counts["dropped"]:
        problems.append("meters dropped %d events" % counts["dropped"])
    if counts["deduplicated"]:
        problems.append("%d duplicate batches" % counts["deduplicated"])
    # Every metered event reached the filter or was counted as dropped;
    # what reached it was committed or rejected by the templates.
    if counts["metered"] != counts["received"] + counts["dropped"]:
        problems.append("metered %d != received %d + dropped %d" % (
            counts["metered"], counts["received"], counts["dropped"]))
    if workload.templates is None and committed != counts["received"]:
        problems.append("accept-all filter committed %d of %d received" % (
            committed, counts["received"]))
    folded = counts["commit_fold"]
    if Fold().add_all(records) != folded:
        problems.append("the log's %d records differ from the %d the "
                        "filter committed" % (committed, folded.count))
    if counts["done"] != workload.processes:
        problems.append("%d DONE reports for %d processes" % (
            counts["done"], workload.processes))
    if digest is None:
        problems.append("no live digest")
    else:
        replay = canonical(replay_engine(records).digest())
        live = canonical(digest)
        for key in DIGEST_KEYS:
            if live.get(key) != replay.get(key):
                problems.append("live digest %s differs from replay" % key)
    if workload.templates is not None:
        rules = selection_rules(workload.templates)
        dropped_fields = discarded_fields(workload.templates)
        for record in records:
            if rules.apply_interpreted(record) is None:
                problems.append("committed record fails templates: %r" % (
                    record,))
                break
            if dropped_fields & set(record):
                problems.append("committed record kept a discarded field")
                break
        if not records:
            problems.append("selective filter committed nothing")
    return problems


def session_counts(result):
    """The counters :func:`check_live` compares."""
    inbox = result.inbox
    markers = inbox.batches_accepted + inbox.batches_deduped
    return {
        "metered": result.metered,
        "dropped": result.dropped,
        "received": inbox.messages_received - markers,
        "deduplicated": inbox.batches_deduped,
        "commit_fold": result.commit_fold,
        "done": len(result.done_sim_ms),
    }


def layer_extra(workload, result, session, counts, counts_in, digest):
    """Per-layer counters a traced session reads from the program and
    from the tracer's outcome ``counts``."""
    store = workload.log_format == "store"
    return {
        "sim.events": result.sim_events,
        "sim.events_per_input_event": result.sim_events / result.metered,
        "net.packets": result.packets,
        "net.bytes": result.bytes,
        "metering.events": result.metered,
        "metering.wire_sends": result.wire_sends,
        "metering.events_per_send": result.metered / result.wire_sends,
        "metering.dropped": result.dropped,
        "filtering.messages_in": result.inbox.messages_received,
        "filtering.screened_out": counts.screened_out,
        "filtering.accept_ratio":
            counts.rules_accepted / counts_in["received"],
        "filtering.duplicates": counts.duplicates,
        "tracestore.bytes_written": store_bytes(session) if store else 0,
        "tracestore.seals": sum(
            1 for segment in session.store_reader("f1").segments
            if segment.sealed
        ) if store else 0,
        "streaming.peak_state": digest["peak_state"] if digest else 0,
    }


def store_bytes(session):
    """Bytes of the filter's store segments on the filter's machine."""
    base = session.filter_log_path("f1")
    total = 0
    for machine in session.cluster.machines.values():
        index = 0
        while machine.fs.exists(segment_path(base, index)):
            total += len(machine.fs.node(segment_path(base, index)).data)
            index += 1
    return total
