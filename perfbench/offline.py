"""The offline workloads: reads and analyses of finished stores.

Set-up writes the seeded inputs to disk and computes the expected
answers once with the interpreted reference lanes (``StoreReader.scan``,
``RuleSet.apply_interpreted``).  A *pass* opens the readers and runs
every operation, and each operation's output is then checked against
those expected answers.  Only the calls into the program are timed
(see :class:`Clock`): a scan is fingerprinted for its check off the
clock.
"""

import os
import shutil
import time
from itertools import islice

from repro.analysis.ordering import HappensBefore
from repro.analysis.parallelism import ParallelismProfile
from repro.analysis.stats import CommunicationStatistics
from repro.analysis.trace import Trace
from repro.filtering.rules import parse_rules
from repro.streaming import twins
from repro.streaming.twins import canonical, diff_digests
from repro.tracestore import StoreReader, merge_scan_fast, scan_fast, select

from perfbench import gen
from perfbench.layers import Fold

#: Dense, type-pinned selections with reductions and cross-field
#: comparisons (the Figure 3.4 shapes); about 30% of the bursty store
#: is accepted, so a select pays both screen and materialize cost.
DENSE_RULES = """
type=send, msgLength>512, pc=#*
type=receive, msgLength<128
type=accept, sockName=peerName
type=connect, peerName=inet:green:7777
type=socket, domain=2
type=dup, newSock>48
type=fork, newPid>0, pc=#*
type=termproc, status>0
type=receivecall, sock>96
machine=9
cpuTime>999999999
"""

#: Input sizes: large enough that a pass is dominated by per-record
#: work, small enough that a run makes several passes.
SELECT_EVENTS = 100_000
ANALYSIS_EVENTS = 30_000


def pushdown(events):
    """The pushdown select's predicates: two of the four machines and
    the middle fifth of the store's time range (cpuTime counts
    events)."""
    return {"machines": (1, 2), "t_min": 2 * events // 5,
            "t_max": 3 * events // 5}
#: Byte offset of the damage inside a damaged segment's first frame
#: payload, and how many segments are damaged.
DAMAGE_OFFSET = 100
DAMAGED_SEGMENTS = 4


def store_files(base):
    directory, prefix = os.path.split(base)
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith(prefix + ".seg")
    )


def same_bytes(base_a, base_b):
    """True when two stores hold byte-identical segment files."""
    files_a, files_b = store_files(base_a), store_files(base_b)
    if len(files_a) != len(files_b):
        return False
    for path_a, path_b in zip(files_a, files_b):
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


#: Records a scan yields per timed pull.
CHUNK = 4096


class Clock:
    """Times one operation's calls into the program and nothing else.

    ``call`` runs one call on the clock.  ``drain`` consumes a scan in
    pulls of CHUNK records: each pull runs on the clock (inside a span
    ``span`` when a tracer is given) and its records are fingerprinted
    off the clock, so the check's hashing is never timed and no scan is
    held whole in memory."""

    def __init__(self, tracer=None, span=None):
        self.elapsed = 0.0
        self.tracer = tracer if span is not None else None
        self.span = span

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.span(self.span, lambda: fn(*args, **kwargs))
        finally:
            self.elapsed += time.perf_counter() - start

    def drain(self, scan, *args, **kwargs):
        """A :class:`Fold` of every record ``scan(*args, **kwargs)``
        yields."""
        fold = Fold()
        records = iter(self.call(scan, *args, **kwargs))
        while True:
            chunk = self.call(list, islice(records, CHUNK))
            if not chunk:
                return fold
            fold.add_all(chunk)


class Op:
    """One operation of a pass: ``run(clock)`` does it, timing its
    calls into the program on ``clock``.  ``span`` names the span a
    traced pass puts those calls in (None: the program's own spans
    cover them)."""

    def __init__(self, name, span, events, run):
        self.name = name
        self.span = span
        self.events = events
        self.run = run


def timed(body):
    """An operation whose whole body is calls into the program."""
    return lambda clock: clock.call(body)


# ----------------------------------------------------------------------
# offline_select
# ----------------------------------------------------------------------


class SelectInputs:
    """The stores offline_select reads: plain, zlib and damaged copies
    of one seeded bursty wire."""

    def __init__(self, directory, seed, events=SELECT_EVENTS):
        os.makedirs(directory)
        self.directory = directory
        wire = gen.bursty_wire(seed, events)
        hosts = gen.SELECT_HOSTS
        self.events = events
        self.plain = gen.write_store(wire, os.path.join(directory, "plain"),
                                     hosts)
        self.zlib = gen.write_store(wire, os.path.join(directory, "zlib"),
                                    hosts, compress=True)
        self.damaged = os.path.join(directory, "damaged")
        segments = store_files(self.plain)
        victims = {
            len(segments) * (k + 1) // (DAMAGED_SEGMENTS + 1)
            for k in range(DAMAGED_SEGMENTS)
        }
        for index, path in enumerate(segments):
            with open(path, "rb") as handle:
                blob = bytearray(handle.read())
            if index in victims:
                # Flip payload bytes of an early frame: the frame CRC
                # catches it, and a salvage scan loses that frame only.
                for offset in range(DAMAGE_OFFSET, DAMAGE_OFFSET + 4):
                    blob[offset] ^= 0xFF
            name = os.path.basename(path).replace("plain", "damaged", 1)
            with open(os.path.join(directory, name), "wb") as handle:
                handle.write(bytes(blob))

    def paths(self):
        return (self.plain, self.zlib, self.damaged)


class SelectExpected:
    """Expected outputs, from the interpreted lane, computed once."""

    def __init__(self, inputs):
        rules = parse_rules(DENSE_RULES, compiled=False)
        window = pushdown(inputs.events)
        machines = set(window["machines"])
        t_min, t_max = window["t_min"], window["t_max"]
        records = list(StoreReader.from_files(inputs.plain).scan())
        selected = map(rules.apply_interpreted, records)
        folds = {
            "scan": Fold().add_all(records),
            "select_dense": Fold().add_all(
                record for record in selected if record is not None),
            "select_pushdown": Fold().add_all(
                record for record in records
                if record["machine"] in machines
                and t_min <= record["cpuTime"] <= t_max),
            # Both merged stores hold every record; the merge keeps the
            # first store's copy first.
            "merge": Fold().add_all(
                copy for record in records for copy in (record, record)),
        }
        damaged = StoreReader.from_files(inputs.damaged)
        folds["salvage"] = Fold().add_all(damaged.scan(salvage=True))
        self.frames_corrupt = damaged.last_stats.frames_corrupt
        self.folds = folds


def select_ops(inputs):
    """The pass, as four operations of comparable size: open the three
    stores and scan the plain one; the dense and the pushdown select;
    the two-store merge; the salvage scan.  ``state`` collects each
    fast-lane scan's ScanStats and the salvage scan's."""
    rules = parse_rules(DENSE_RULES)
    readers = {}
    state = {"scan_stats": [], "salvage_stats": None}
    outputs = {}

    def stats(*scanned):
        state["scan_stats"].extend(readers[key].last_stats for key in scanned)

    def scan(clock):
        for key, base in zip(("plain", "zlib", "damaged"), inputs.paths()):
            readers[key] = clock.call(StoreReader.from_files, base)
        outputs["scan"] = clock.drain(scan_fast, readers["plain"])
        stats("plain")

    def selects(clock):
        outputs["select_dense"] = clock.drain(select, readers["plain"], rules)
        stats("plain")
        outputs["select_pushdown"] = clock.drain(
            select, readers["zlib"], None, **pushdown(inputs.events))
        stats("zlib")

    def merge(clock):
        outputs["merge"] = clock.drain(
            merge_scan_fast, [readers["plain"], readers["zlib"]])
        stats("plain", "zlib")

    def salvage(clock):
        outputs["salvage"] = clock.drain(
            scan_fast, readers["damaged"], salvage=True)
        state["salvage_stats"] = readers["damaged"].last_stats

    state["outputs"] = outputs
    n = inputs.events
    return state, [
        Op("scan", "tracestore.scan", n, scan),
        Op("select", "tracestore.scan", 2 * n, selects),
        Op("merge", "tracestore.scan", 2 * n, merge),
        Op("salvage", "tracestore.salvage", n, salvage),
    ]


def check_select(expected, state):
    """Problems with one pass's outputs; empty when they are correct."""
    outputs, salvage_stats = state["outputs"], state["salvage_stats"]
    problems = []
    for name, want in expected.folds.items():
        got = outputs.get(name)
        if got is None:
            problems.append("%s: no output" % name)
        elif got.count != want.count:
            problems.append("%s: %d records, expected %d" % (
                name, got.count, want.count))
        elif got != want:
            problems.append("%s: records differ from the interpreted lane"
                            % name)
    if salvage_stats is None or (
        salvage_stats.frames_corrupt != expected.frames_corrupt
        or expected.frames_corrupt == 0
    ):
        problems.append("salvage counted %s corrupt frames, expected %d" % (
            salvage_stats and salvage_stats.frames_corrupt,
            expected.frames_corrupt))
    return problems


def select_layer_extra(state, tracer):
    """Per-layer counters of a traced select pass, from its ScanStats."""
    fast = state["scan_stats"]
    yielded = sum(stats.records_yielded for stats in fast)
    return {
        "tracestore.prescreened_ratio":
            sum(stats.records_prescreened for stats in fast) / yielded,
        "tracestore.segments_skipped":
            sum(stats.segments_skipped for stats in fast),
        "tracestore.fallback_frames":
            tracer.child_count("tracestore.scan", "metering.decode"),
    }


# ----------------------------------------------------------------------
# offline_analysis
# ----------------------------------------------------------------------


class AnalysisInputs:
    def __init__(self, directory, seed, events=ANALYSIS_EVENTS):
        os.makedirs(directory)
        self.directory = directory
        trace = gen.analysis_trace(seed, events)
        self.events = len(trace.wire)
        self.unmatched_sends = trace.unmatched_sends
        self.base = gen.write_store(
            trace.wire, os.path.join(directory, "trace"), gen.ANALYSIS_HOSTS
        )

    def paths(self):
        return (self.base,)


class AnalysisExpected:
    def __init__(self, inputs):
        records = list(StoreReader.from_files(inputs.base).scan())
        trace = Trace(records)
        self.fold = Fold().add_all(records)
        self.digest = canonical(twins.batch_digest(trace))
        self.ordered_fraction = HappensBefore(trace).ordered_fraction()
        self.unmatched_sends = inputs.unmatched_sends


def analysis_ops(inputs):
    """The pass, as four operations of comparable size: load (open,
    build the trace, match messages), order (happens-before and the
    statistics), the online replay, and the batch digest compared with
    it.  Events are counted once, by the load."""
    state = {}

    def load():
        reader = StoreReader.from_files(inputs.base)
        state["trace"] = trace = Trace.from_store(reader)
        state["matcher"] = trace.matcher()

    def order():
        trace = state["trace"]
        state["ordered_fraction"] = HappensBefore(trace).ordered_fraction()
        state["totals"] = CommunicationStatistics(trace).totals()
        state["profile"] = ParallelismProfile(trace).report()

    def replay():
        engine = twins.replay_engine(
            event.record for event in state["trace"])
        state["online"] = engine.finalize().digest()
        state["peak_state"] = engine.peak_state

    def batch():
        state["batch"] = twins.batch_digest(state["trace"])
        state["problems"] = diff_digests(state["online"], state["batch"])

    return state, [
        Op("load", None, inputs.events, timed(load)),
        Op("order", None, 0, timed(order)),
        Op("replay", None, 0, timed(replay)),
        Op("batch", None, 0, timed(batch)),
    ]


def check_analysis(expected, state):
    """Problems with one pass's results; empty when they are correct."""
    problems = list(state.get("problems", ["no replay/batch comparison"]))
    trace = state["trace"]
    if Fold().add_all(event.record for event in trace) != expected.fold:
        problems.append("fast-lane trace differs from the interpreted lane")
    if canonical(state["batch"]) != expected.digest:
        problems.append("batch digest differs from the expected digest")
    if state["ordered_fraction"] != expected.ordered_fraction:
        problems.append("ordered_fraction %r, expected %r" % (
            state["ordered_fraction"], expected.ordered_fraction))
    unmatched = len(state["matcher"].unmatched_sends)
    if unmatched != expected.unmatched_sends:
        problems.append("%d unmatched sends, %d planted" % (
            unmatched, expected.unmatched_sends))
    return problems


def analysis_layer_extra(state, tracer):
    return {
        "analysis.matched_fraction": state["matcher"].matched_fraction(),
        "streaming.peak_state": state["peak_state"],
    }


class OfflineWorkload:
    """How one offline workload makes its inputs and expected answers,
    runs a pass, checks it and reads its per-layer counters."""

    def __init__(self, inputs, expected, ops, check, layer_extra):
        self.inputs = inputs
        self.expected = expected
        self.ops = ops
        self.check = check
        self.layer_extra = layer_extra


WORKLOADS = {
    "offline_select": OfflineWorkload(
        SelectInputs, SelectExpected, select_ops, check_select,
        select_layer_extra),
    "offline_analysis": OfflineWorkload(
        AnalysisInputs, AnalysisExpected, analysis_ops, check_analysis,
        analysis_layer_extra),
}


def remove(directory):
    shutil.rmtree(directory, ignore_errors=True)
