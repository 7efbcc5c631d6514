"""Where each layer of the monitor is timed, and the probes every run
carries.

``LAYER_SPANS`` lists the program's functions and methods the traced run
wraps, each with the span name it records.  A span name's first part is
the layer (one per package under ``src/repro``).  Targets are looked up
by import path when the tracer is installed, so nothing under ``src/``
knows it is being measured.

A few entries are private methods, because the work they do has no
public entry point: the guest step (``Machine._resume_guest``), the
scheduler callbacks the simulator runs (``_dispatch_event``,
``_finish_trap``, ``_finish_slice``), and the inbox framing
(``MeterInbox._feed``).  Without the kernel ones their time would be
charged to the simulator loop.
"""

import importlib

from perfbench.tracer import Tracer

#: (module, class or None, attribute, span name).  A class entry of
#: None patches the module attribute that call sites look up.
LAYER_SPANS = [
    ("repro.sim.simulator", "Simulator", "run", "sim.run"),
    ("repro.sim.simulator", "Simulator", "run_until", "sim.run"),
    ("repro.kernel.machine", "Machine", "_resume_guest", "kernel.guest"),
    ("repro.kernel.machine", "Machine", "_dispatch_event", "kernel.dispatch"),
    ("repro.kernel.machine", "Machine", "_finish_trap", "kernel.dispatch"),
    ("repro.kernel.machine", "Machine", "_finish_slice", "kernel.dispatch"),
    ("repro.kernel.machine", "Machine", "deliver_packet", "kernel.dispatch"),
    ("repro.kernel.machine", "Machine", "block", "kernel.block"),
    ("repro.kernel.machine", "Machine", "kernel_stream_send",
     "kernel.stream_send"),
    # every Machine.sys_* handler is added by _syscall_spans()
    ("repro.net.network", "Network", "send_datagram", "net.send"),
    ("repro.net.network", "Network", "send_reliable", "net.send"),
    ("repro.metering.messages", "MessageCodec", "encode", "metering.encode"),
    ("repro.metering.messages", "MessageCodec", "decode", "metering.decode"),
    ("repro.metering.subsystem", "MeterSubsystem", "flush", "metering.flush"),
    # every MeterSubsystem.on_* hook is added by _hook_spans()
    ("repro.filtering.filterlib", "MeterInbox", "_feed", "filtering.framing"),
    ("repro.filtering.descriptions", "DescriptionSet", "decode_message",
     "filtering.decode"),
    ("repro.filtering.rules", "RuleSet", "apply", "filtering.rules"),
    ("repro.filtering.standard", None, "format_record", "filtering.format"),
    ("repro.filtering.filterlib", "MeterInbox", "accept_batch",
     "filtering.dedup"),
    ("repro.tracestore.writer", "StoreWriter", "append", "tracestore.append"),
    ("repro.tracestore.writer", "StoreWriter", "append_marker",
     "tracestore.append"),
    ("repro.tracestore.writer", "StoreWriter", "sync", "tracestore.sync"),
    ("repro.tracestore.reader", "StoreReader", "from_files", "tracestore.open"),
    ("repro.tracestore.reader", "StoreReader", "from_fs", "tracestore.open"),
    ("repro.streaming.engine", "StreamEngine", "update", "streaming.update"),
    ("repro.streaming.engine", "StreamEngine", "finalize",
     "streaming.finalize"),
    ("repro.streaming.engine", "StreamEngine", "digest", "streaming.digest"),
    ("repro.streaming.twins", None, "replay_engine", "streaming.replay"),
    ("repro.streaming.twins", None, "batch_digest", "analysis.digest"),
    ("repro.analysis.trace", "Trace", "from_store", "analysis.trace_build"),
    ("repro.analysis.trace", "Trace", "matcher", "analysis.matcher"),
    ("repro.analysis.ordering", "HappensBefore", "__init__", "analysis.order"),
    ("repro.analysis.ordering", "HappensBefore", "ordered_fraction",
     "analysis.order"),
    ("repro.analysis.stats", "CommunicationStatistics", "__init__",
     "analysis.stats"),
    ("repro.analysis.parallelism", "ParallelismProfile", "__init__",
     "analysis.stats"),
    ("repro.analysis.parallelism", "ParallelismProfile", "report",
     "analysis.stats"),
    ("repro.core.session", "MeasurementSession", "command",
     "controller.command"),
]

#: The filter's column screen is a closure built per filter launch; the
#: tracer wraps the factory where the standard filter calls it and
#: times every screen it returns.
SCREEN_FACTORY = ("repro.filtering.standard", "build_record_screen",
                  "filtering.screen_build", "filtering.screen")

LAYERS = ("sim", "kernel", "net", "metering", "filtering", "tracestore",
          "streaming", "analysis", "controller")


def _owner(module_name, class_name):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


def _syscall_spans():
    machine = _owner("repro.kernel.machine", "Machine")
    return [
        ("repro.kernel.machine", "Machine", name, "kernel.syscall")
        for name in sorted(dir(machine))
        if name.startswith("sys_")
    ]


def _hook_spans():
    meter = _owner("repro.metering.subsystem", "MeterSubsystem")
    return [
        ("repro.metering.subsystem", "MeterSubsystem", name, "metering.hook")
        for name in sorted(vars(meter))
        if name.startswith("on_")
    ]


class Counts:
    """Outcome counts taken at the span boundaries."""

    def __init__(self):
        self.screened_out = 0
        self.rules_accepted = 0
        self.duplicates = 0

    def on_screen(self, passed, raw):
        if not passed:
            self.screened_out += 1

    def on_rules(self, saved, ruleset, record):
        if saved is not None:
            self.rules_accepted += 1

    def on_accept_batch(self, fresh, inbox, machine, pid, seq):
        if not fresh:
            self.duplicates += 1


def install_tracer():
    """Wrap every layer entry point; returns (tracer, counts).  Install
    before the cluster is built (machines bind their syscall handlers
    at construction) and call ``tracer.restore()`` afterwards."""
    tracer = Tracer()
    counts = Counts()
    observers = {
        "apply": counts.on_rules,
        "accept_batch": counts.on_accept_batch,
    }
    for module_name, class_name, attr, span in (
        LAYER_SPANS + _syscall_spans() + _hook_spans()
    ):
        tracer.patch(
            _owner(module_name, class_name), attr, span,
            on_return=observers.get(attr),
        )
    module_name, attr, span, product = SCREEN_FACTORY
    tracer.patch(
        _owner(module_name, None), attr, span,
        product=(product, counts.on_screen),
    )
    return tracer, counts


class Fold:
    """A running, order-sensitive fingerprint and count of a record
    stream; a record's own field order does not matter.  Fingerprints
    compare within one process only (they use Python's salted string
    hash)."""

    __slots__ = ("value", "count")

    def __init__(self):
        self.value = 0
        self.count = 0

    def add_all(self, records):
        value, count = self.value, self.count
        for record in records:
            value = hash((value, tuple(sorted(record.items()))))
            count += 1
        self.value, self.count = value, count
        return self

    def __eq__(self, other):
        return (self.value, self.count) == (other.value, other.count)


class Probes:
    """The measurements every run makes, traced or not: the simulated
    commit time of each record the live filter folds into its streaming
    engine and the record itself (fingerprinted once the session is
    over), and the live filter's inbox (for its message counters).
    They record simulated time and references only, so they cannot
    change what the simulation does."""

    def __init__(self):
        self.sim = None
        self.commit_latency_ms = []
        self.committed = []
        self.inboxes = []
        self._patches = []

    def install(self):
        engine_cls = _owner("repro.streaming.engine", "StreamEngine")
        inbox_cls = _owner("repro.filtering.filterlib", "MeterInbox")
        update = engine_cls.update
        inbox_init = inbox_cls.__init__
        latencies = self.commit_latency_ms
        committed = self.committed
        inboxes = self.inboxes

        def probed_update(engine, record):
            latencies.append(self.sim.now - record.get("cpuTime", 0))
            committed.append(record)
            return update(engine, record)

        def probed_init(inbox, *args, **kwargs):
            inbox_init(inbox, *args, **kwargs)
            inboxes.append(inbox)

        self._patches = [
            (engine_cls, "update", update),
            (inbox_cls, "__init__", inbox_init),
        ]
        engine_cls.update = probed_update
        inbox_cls.__init__ = probed_init
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self, sim):
        self.sim = sim
        del self.commit_latency_ms[:]
        del self.committed[:]
        del self.inboxes[:]
