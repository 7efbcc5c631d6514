"""Runs one workload, checks its outputs and reports its metrics.

A run repeats its unit of work -- a monitored session for the live
workloads, a pass of reads or analyses for the offline ones -- until
``seconds`` have passed.  Wall-clock metrics are trimmed means over the
run's units (see :func:`typical`), simulated ones are exact.  With
``trace`` off every unit is untraced and the end-to-end metrics are
reported.  With it on, untraced and traced units alternate: the traced
ones give the per-layer metrics, and the pairs give the tracing overhead
and show that tracing leaves the simulated results unchanged.
"""

import gc
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

from perfbench import layers, live, offline
from perfbench.tracer import layer_of

#: (name, unit) of every end-to-end metric, reported with trace off.
END_TO_END = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("makespan_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit) of every per-layer metric, reported with trace on.
PER_LAYER = [
    ("sim.events", "count"),
    ("sim.events_per_input_event", "ratio"),
    ("sim.loop_self_s", "s"),
    ("kernel.syscalls", "count"),
    ("kernel.syscall_self_s", "s"),
    ("kernel.guest_self_s", "s"),
    ("kernel.dispatch_self_s", "s"),
    ("kernel.syscall_retry_ratio", "ratio"),
    ("kernel.self_s", "s"),
    ("net.packets", "count"),
    ("net.bytes", "bytes"),
    ("net.self_s", "s"),
    ("metering.events", "count"),
    ("metering.wire_sends", "count"),
    ("metering.events_per_send", "ratio"),
    ("metering.encode_s", "s"),
    ("metering.flush_s", "s"),
    ("metering.dropped", "count"),
    ("metering.self_s", "s"),
    ("filtering.messages_in", "count"),
    ("filtering.screened_out", "count"),
    ("filtering.accept_ratio", "ratio"),
    ("filtering.framing_s", "s"),
    ("filtering.screen_s", "s"),
    ("filtering.decode_s", "s"),
    ("filtering.rules_s", "s"),
    ("filtering.format_s", "s"),
    ("filtering.duplicates", "count"),
    ("filtering.self_s", "s"),
    ("tracestore.appends", "count"),
    ("tracestore.append_s", "s"),
    ("tracestore.sync_s", "s"),
    ("tracestore.bytes_written", "bytes"),
    ("tracestore.seals", "count"),
    ("tracestore.open_s", "s"),
    ("tracestore.scan_s", "s"),
    ("tracestore.salvage_s", "s"),
    ("tracestore.prescreened_ratio", "ratio"),
    ("tracestore.fallback_frames", "count"),
    ("tracestore.segments_skipped", "count"),
    ("tracestore.self_s", "s"),
    ("streaming.updates", "count"),
    ("streaming.update_s", "s"),
    ("streaming.peak_state", "count"),
    ("streaming.finalize_s", "s"),
    ("streaming.digest_s", "s"),
    ("streaming.self_s", "s"),
    ("analysis.trace_build_s", "s"),
    ("analysis.matcher_s", "s"),
    ("analysis.order_s", "s"),
    ("analysis.stats_s", "s"),
    ("analysis.matched_fraction", "ratio"),
    ("analysis.self_s", "s"),
    ("controller.commands", "count"),
    ("controller.command_s", "s"),
    ("controller.self_s", "s"),
    ("trace.residue_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

#: Span self times reported under a per-layer metric name.
SELF_TIMES = {
    "sim.loop_self_s": "sim.run",
    "kernel.syscall_self_s": "kernel.syscall",
    "kernel.guest_self_s": "kernel.guest",
    "kernel.dispatch_self_s": "kernel.dispatch",
    "metering.encode_s": "metering.encode",
    "metering.flush_s": "metering.flush",
    "filtering.framing_s": "filtering.framing",
    "filtering.screen_s": "filtering.screen",
    "filtering.decode_s": "filtering.decode",
    "filtering.rules_s": "filtering.rules",
    "filtering.format_s": "filtering.format",
    "tracestore.append_s": "tracestore.append",
    "tracestore.sync_s": "tracestore.sync",
    "tracestore.open_s": "tracestore.open",
    "tracestore.scan_s": "tracestore.scan",
    "tracestore.salvage_s": "tracestore.salvage",
    "streaming.update_s": "streaming.update",
    "streaming.finalize_s": "streaming.finalize",
    "streaming.digest_s": "streaming.digest",
    "analysis.trace_build_s": "analysis.trace_build",
    "analysis.matcher_s": "analysis.matcher",
    "analysis.order_s": "analysis.order",
    "analysis.stats_s": "analysis.stats",
}

#: Span counts reported under a per-layer metric name.
SPAN_COUNTS = {
    "kernel.syscalls": "kernel.syscall",
    "tracestore.appends": "tracestore.append",
    "streaming.updates": "streaming.update",
    "controller.commands": "controller.command",
}

#: Spans the benchmark itself opens; their self time is the residue.
ROOT_LAYER = "bench"

#: Units of work a run makes at least, however short ``seconds`` is
#: (traced runs make this many of each kind).
MIN_UNITS = 3
OFFLINE_SETUPS = 9
#: Share of a run's wall-clock samples dropped at each end before they
#: are averaged.
TRIM = 0.1


def derive_seed(workload, seed):
    """The cluster seed a live workload runs under."""
    return random.Random("%s:%d" % (workload, seed)).randrange(1, 2 ** 31)


def median(values):
    return statistics.median(values) if values else 0.0


def typical(values):
    """The typical wall-clock time of a run's samples: their mean after
    dropping the fastest and the slowest TRIM of them (rounded to the
    nearest sample, so one of each from five to fourteen).  The machine's
    speed drifts within a run; a mean moves in proportion to the share
    of the run spent at each speed, where a median jumps from one speed
    to the other, and the trim drops lone stalls."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM + 0.5)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept) if kept else 0.0


def percentile(values, pct):
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Per-layer metrics from one traced unit
# ----------------------------------------------------------------------


def layer_metrics(summary, extra):
    """Per-layer metrics from a tracer summary plus the counters the
    workload read from the program (``extra``: metric name -> value)."""

    def self_s(span):
        return summary.get(span, {}).get("self_s", 0.0)

    def count(span):
        return summary.get(span, {}).get("count", 0)

    metrics = {name: 0 for name, __ in PER_LAYER}
    for name, span in SELF_TIMES.items():
        metrics[name] = self_s(span)
    for name, span in SPAN_COUNTS.items():
        metrics[name] = count(span)
    for layer in layers.LAYERS:
        if layer != "sim":
            metrics[layer + ".self_s"] = sum(
                row["self_s"] for span, row in summary.items()
                if layer_of(span) == layer
            )
    syscalls = count("kernel.syscall")
    metrics["kernel.syscall_retry_ratio"] = (
        count("kernel.block") / syscalls if syscalls else 0.0
    )
    metrics["controller.command_s"] = summary.get(
        "controller.command", {}).get("total_s", 0.0)
    metrics["trace.residue_s"] = sum(
        row["self_s"] for span, row in summary.items()
        if layer_of(span) == ROOT_LAYER
    )
    metrics["trace.wall_s"] = summary.get(
        ROOT_LAYER + ".unit", {}).get("total_s", 0.0)
    metrics.update(extra)
    return metrics


def traced_call(fn, *args):
    """Run ``fn(*args)`` with every layer traced, inside one root span;
    returns (result, tracer, outcome counts)."""
    tracer, counts = layers.install_tracer()
    try:
        result = tracer.span(ROOT_LAYER + ".unit", fn, *args)
    finally:
        tracer.restore()
    return result, tracer, counts


# ----------------------------------------------------------------------
# Live workloads
# ----------------------------------------------------------------------


class Unit:
    """One checked unit of work: a live session or an offline pass.  An
    unmeasured unit (a warm-up session, the offline set-up) is checked
    but not measured."""

    def __init__(self, traced, wall_s, problems, result=None, measured=True):
        self.traced = traced
        self.wall_s = wall_s
        self.problems = problems
        self.result = result
        self.measured = measured
        self.layer = None


def repeat(one, seconds, trace):
    """Call ``one(traced)`` until ``seconds`` have passed and at least
    MIN_UNITS units of each kind have run; with ``trace`` on, untraced
    and traced units alternate."""
    units = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(units) % 2 == 1
        units.append(one(traced))
        untraced = sum(1 for unit in units if not unit.traced)
        if (untraced >= MIN_UNITS
                and (not trace or len(units) - untraced >= MIN_UNITS)
                and time.perf_counter() >= deadline):
            return units


def run_live(name, seed, seconds, trace, kept):
    workload = live.WORKLOADS[name]()
    cluster_seed = derive_seed(name, seed)
    probes = layers.Probes().install()
    reference = {}
    try:

        def one(traced):
            gc.collect()
            if traced:
                result, tracer, counts = traced_call(
                    live.run_session, workload, cluster_seed, probes)
            else:
                result = live.run_session(workload, cluster_seed, probes)
            session = result.session
            records = live.committed_records(session)
            digest = live.live_digest(session)
            counts_in = live.session_counts(result)
            problems = live.check_live(workload, records, digest, counts_in)
            if not reference:
                reference.update(
                    fingerprint=result.sim_fingerprint(),
                    sha256=live.records_sha256(records),
                    committed=len(records),
                )
            elif result.sim_fingerprint() != reference["fingerprint"]:
                problems.append("simulated results differ from the first "
                                "session of this seed")
            unit = Unit(traced, result.setup_s + result.run_s, problems,
                        result)
            if traced:
                unit.layer = layer_metrics(
                    tracer.summary(),
                    live.layer_extra(workload, result, session, counts,
                                     counts_in, digest),
                )
                kept[:] = [tracer]
            result.session = None
            return unit

        warm_up = one(False)
        warm_up.measured = False
        units = repeat(one, seconds, trace)
    finally:
        probes.restore()
    plain = [unit.result for unit in units if not unit.traced]
    first = plain[0]
    latencies = first.commit_latency_ms
    metrics = {
        "events_per_s": first.metered / typical([r.run_s for r in plain]),
        "setup_s": typical([r.setup_s for r in plain]),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "makespan_ms": first.job_sim_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        "cluster seed {0}; {1} sessions after one warm-up".format(
            cluster_seed, len(units)),
        "metered events per session: {0}".format(first.metered),
        "committed records: {0}, sha256 {1}".format(
            reference["committed"], reference["sha256"]),
        "commit_latency_p50_ms = latency_p50_ms, commit_latency_p99_ms = "
        "latency_p99_ms (simulated ms from cpuTime to the filter's "
        "StreamEngine.update, {0} samples)".format(len(latencies)),
        "job_sim_ms = makespan_ms (simulated ms from startjob to the last "
        "DONE)",
    ]
    return finish([warm_up] + units, metrics, notes, trace)


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------


def offline_setup(workload, seed, workdir):
    """Write OFFLINE_SETUPS copies of a workload's inputs, check they
    are byte-identical and keep the first; returns (set-up times,
    problems, inputs, expected answers).  Runs in a child process, so
    generation and the expected-answer lanes stay out of the run's
    peak_rss_mb."""
    setup_times, copies, problems = [], [], []
    for index in range(OFFLINE_SETUPS):
        directory = os.path.join(workdir, "inputs%d" % index)
        start = time.perf_counter()
        copies.append(workload.inputs(directory, seed))
        setup_times.append(time.perf_counter() - start)
    first = copies[0]
    for other in copies[1:]:
        if not all(offline.same_bytes(a, b)
                   for a, b in zip(first.paths(), other.paths())):
            problems.append("the same seed wrote different inputs")
        offline.remove(other.directory)
    return setup_times, problems, first, workload.expected(first)


def run_offline(name, seed, seconds, trace, workdir, kept):
    workload = offline.WORKLOADS[name]
    # The child is forked, so it shares this process's string-hash
    # salt and its fingerprints compare with the passes' own.
    with ProcessPoolExecutor(
        1, mp_context=multiprocessing.get_context("fork")
    ) as child:
        setup_times, problems, inputs, expected = child.submit(
            offline_setup, workload, seed, workdir).result()
    setup = Unit(False, 0.0, problems, measured=False)
    ops = workload.ops(inputs)[1]
    events_per_pass = sum(op.events for op in ops)
    op_names = [op.name for op in ops]

    def one(traced):
        gc.collect()
        state, ops = workload.ops(inputs)
        op_times = []
        tracer = counts = None
        if traced:
            tracer, counts = layers.install_tracer()
        try:
            for op in ops:
                clock = offline.Clock(tracer, op.span)
                if tracer is None:
                    op.run(clock)
                else:
                    tracer.span(ROOT_LAYER + ".unit", op.run, clock)
                op_times.append(clock.elapsed)
        finally:
            if tracer is not None:
                tracer.restore()
        unit = Unit(traced, sum(op_times),
                    workload.check(expected, state),
                    [1000.0 * t for t in op_times])
        if traced:
            unit.layer = layer_metrics(
                tracer.summary(), workload.layer_extra(state, tracer))
            kept[:] = [tracer]
        return unit

    units = repeat(one, seconds, trace)
    plain = [unit for unit in units if not unit.traced]
    metrics = {
        "events_per_s": events_per_pass / typical([u.wall_s for u in plain]),
        "setup_s": typical(setup_times),
        "latency_p50_ms": typical([median(u.result) for u in plain]),
        "latency_p99_ms": typical([percentile(u.result, 99) for u in plain]),
        "makespan_ms": 1000.0 * typical([u.wall_s for u in plain]),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        "{0} set-ups (input generation) and {1} passes".format(
            OFFLINE_SETUPS, len(units)),
        "input events per pass: {0}".format(events_per_pass),
        "latency_p50_ms / latency_p99_ms: the median and the slowest of "
        "one pass's {0} operation times (wall ms of their calls into the "
        "program), trimmed mean over passes; makespan_ms: the same for a "
        "whole pass".format(len(op_names)),
        "peak_rss_mb covers the passes only: set-up ran in a child "
        "process",
        "trimmed mean ms per operation: " + ", ".join(
            "{0} {1:.1f}".format(op, typical([u.result[i] for u in plain]))
            for i, op in enumerate(op_names)),
    ]
    return finish([setup] + units, metrics, notes, trace)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


class Report:
    """What one run prints: its verdict, metrics, notes and problems."""

    def __init__(self, correct, attempted, failed, metrics, notes,
                 problems):
        self.correct = correct
        self.attempted = attempted
        self.failed = failed
        self.metrics = metrics
        self.notes = notes
        self.problems = problems


def finish(units, metrics, notes, trace):
    """The run's report: end-to-end ``metrics`` untraced, or per-layer
    metrics (medians over the traced units) when ``trace`` is on."""
    attempted = len(units)
    failed = sum(1 for u in units if u.problems)
    problems = [p for u in units for p in u.problems]
    notes = list(notes) + ["failed_ratio {0} ({1} of {2} checked units "
                           "failed)".format(failed / attempted, failed,
                                            attempted)]
    if trace:
        traced = [u for u in units if u.traced]
        plain = [u.wall_s for u in units if u.measured and not u.traced]
        layer = {
            name: median([u.layer[name] for u in traced])
            for name, __ in PER_LAYER
        }
        layer["trace.overhead_ratio"] = (
            median([u.wall_s for u in traced]) / median(plain)
        )
        metrics = layer
        units_of = dict(PER_LAYER)
    else:
        units_of = dict(END_TO_END)
    return Report(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={
            name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items()
        },
        notes=notes,
        problems=problems,
    )


def run(name, seed, seconds, trace, root):
    """Run workload ``name`` from the checkout at ``root``; returns a
    :class:`Report`.  Scratch files live under ``root/.perfbench``: the
    offline inputs while the run lasts, and the spans of the last
    traced unit, written once the run is over."""
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    kept = []  # the last traced unit's tracer
    if name in live.WORKLOADS:
        report = run_live(name, seed, seconds, trace, kept)
    else:
        workdir = os.path.join(scratch, "%s-%d-%d" % (name, seed,
                                                       os.getpid()))
        try:
            report = run_offline(name, seed, seconds, trace, workdir, kept)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if kept:
        kept[0].write(os.path.join(scratch, "spans-%s.tsv" % name))
    return report
