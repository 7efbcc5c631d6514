"""Event ordering and clock-skew estimation (Section 4.1).

"The separate machines' times ... only roughly correspond to a global
time.  Statements regarding the global ordering of events can only be
made on the basis of evidence within the trace.  For example, since a
message must be sent before it may be received, the times of sending
and receiving a message can always be ordered relative to one another.
Given these constraints, much of the global ordering can be deduced."

:class:`HappensBefore` deduces the Lamport partial order (program
order per process plus matched send->receive edges) with per-process
**vector clocks**, computed in one linear pass over the trace.  A
clock comparison answers ordering queries in O(1) and the whole
ordered-fraction study in O(events x processes) -- no transitive
closure is ever materialized, so memory stays linear in the trace.
The happens-before DAG itself is still available (built lazily) for
:meth:`HappensBefore.consistent_global_order`'s topological sort and
for callers that want graph algorithms.

:func:`estimate_clock_skews` recovers approximate relative clock
offsets from the send/receive pairs, in the spirit of TEMPO (Gusella
& Zatti 83).
"""

from collections import deque
from operator import itemgetter

import networkx as nx


class HappensBefore:
    """The happens-before partial order over a trace."""

    def __init__(self, trace, matcher=None):
        self.trace = trace
        self.matcher = matcher or trace.matcher()
        self._graph = None
        self._clock_state = None

    # -- the vector-clock engine ---------------------------------------

    def _predecessors(self):
        """Immediate-predecessor lists by event index: the previous
        event of the same process plus any matched sends.  O(N + E)."""
        preds = [[] for __ in self.trace.events]
        for process in self.trace.processes():
            events = self.trace.events_for(process)
            for earlier, later in zip(events, events[1:]):
                preds[later.index].append(earlier.index)
        for pair in self.matcher.pairs:
            if pair.send.index != pair.recv.index:
                preds[pair.recv.index].append(pair.send.index)
        return preds

    @staticmethod
    def _merged_clock(preds, clocks, nproc):
        """A fresh list: the componentwise max of the resolved
        predecessors' clocks (all zeros when there are none).  The
        first one is copied; only a receive's send clocks are merged
        component by component."""
        clock = None
        for earlier in preds:
            other = clocks[earlier]
            if other is None:
                continue
            if clock is None:
                clock = list(other)
                continue
            for component, value in enumerate(other):
                if value > clock[component]:
                    clock[component] = value
        return [0] * nproc if clock is None else clock

    def _clocks(self):
        """(clock tuples by event index, process -> clock component
        index).

        An event's clock component for process p counts the events of
        p that happen before it (or at it, for its own process), so
        ``a -> b`` iff b's component for a's process has reached a's
        own value.  Computed with one Kahn pass over the edges.
        """
        if self._clock_state is None:
            events = self.trace.events
            processes = self.trace.processes()
            proc_index = {p: i for i, p in enumerate(processes)}
            nproc = len(processes)
            preds = self._predecessors()
            succs = [[] for __ in events]
            indegree = [0] * len(events)
            for later, earlier_list in enumerate(preds):
                indegree[later] = len(earlier_list)
                for earlier in earlier_list:
                    succs[earlier].append(later)
            clocks = [None] * len(events)
            ready = deque(i for i, d in enumerate(indegree) if d == 0)
            done = 0
            while ready:
                index = ready.popleft()
                clock = self._merged_clock(preds[index], clocks, nproc)
                event = events[index]
                clock[proc_index[event.process]] = event.proc_seq + 1
                clocks[index] = tuple(clock)
                done += 1
                for later in succs[index]:
                    indegree[later] -= 1
                    if indegree[later] == 0:
                        ready.append(later)
            if done < len(events):
                # Cyclic "evidence" (a garbage or corrupted trace):
                # finish best-effort in file order so queries stay
                # answerable instead of crashing.
                for index, clock in enumerate(clocks):
                    if clock is not None:
                        continue
                    clock = self._merged_clock(preds[index], clocks, nproc)
                    event = events[index]
                    clock[proc_index[event.process]] = event.proc_seq + 1
                    clocks[index] = tuple(clock)
            self._clock_state = (clocks, proc_index)
        return self._clock_state

    def vector_clock(self, event):
        """The event's vector clock as a tuple: component i counts the
        events of the i-th process (in ``trace.processes()`` order)
        that happen before (or at) this event."""
        clocks, __ = self._clocks()
        return clocks[event.index]

    @property
    def graph(self):
        """The happens-before DAG (program order + message edges),
        built on first use; ordering queries never need it."""
        if self._graph is None:
            graph = nx.DiGraph()
            for event in self.trace:
                graph.add_node(event.index)
            for later, earlier_list in enumerate(self._predecessors()):
                for earlier in earlier_list:
                    graph.add_edge(earlier, later)
            self._graph = graph
        return self._graph

    # -- queries -------------------------------------------------------

    def happens_before(self, event_a, event_b):
        """Whether ``event_a`` -> ``event_b`` is deducible.  O(1): one
        clock-component comparison."""
        if event_a.index == event_b.index:
            return False
        clocks, proc_index = self._clocks()
        component = proc_index[event_a.process]
        return (
            clocks[event_b.index][component]
            >= clocks[event_a.index][component]
        )

    def concurrent(self, event_a, event_b):
        """Neither ordered before the other: truly concurrent (or the
        trace lacks the evidence)."""
        return (
            event_a.index != event_b.index
            and not self.happens_before(event_a, event_b)
            and not self.happens_before(event_b, event_a)
        )

    def ordered_fraction(self):
        """Fraction of cross-machine event pairs the trace can order.

        This is the paper's "much of the global ordering can be
        deduced" made quantitative (bench P5).  O(N x P): summing an
        event's clock components over other-machine processes counts
        every ordered cross-machine pair exactly once, at its later
        event.  That sum is taken as the whole clock's sum minus the
        components of the event's own machine, per machine in bulk.
        """
        clocks, __ = self._clocks()
        rows = {}  # machine -> the clocks of its events
        for event in self.trace.events:
            rows.setdefault(event.machine, []).append(clocks[event.index])
        n = len(clocks)
        total = n * (n - 1) // 2 - sum(
            len(machine_rows) * (len(machine_rows) - 1) // 2
            for machine_rows in rows.values()
        )
        if total == 0:
            return 1.0
        own = {}  # machine -> its processes' clock components
        for component, (machine, __pid) in enumerate(self.trace.processes()):
            own.setdefault(machine, []).append(component)
        ordered = 0
        for machine, machine_rows in rows.items():
            ordered += sum(map(sum, machine_rows))
            for component in own[machine]:
                ordered -= sum(map(itemgetter(component), machine_rows))
        return ordered / total

    def consistent_global_order(self):
        """One total order consistent with happens-before, breaking
        ties by (skew-corrected) local timestamps."""
        skews = estimate_clock_skews(self.trace, self.matcher)

        def key(index):
            event = self.trace.events[index]
            return (event.local_time - skews.get(event.machine, 0.0), index)

        return [
            self.trace.events[index]
            for index in nx.lexicographical_topological_sort(self.graph, key=key)
        ]

    def violates_causality(self):
        """Send/receive pairs whose raw local timestamps run backwards:
        direct evidence of clock skew (receive stamped before send)."""
        return [
            pair
            for pair in self.matcher.pairs
            if pair.recv.local_time < pair.send.local_time
        ]


def estimate_clock_models(trace, matcher=None, reference=None):
    """Full linear clock models per machine: local ~ offset + rate * ref.

    Where :func:`estimate_clock_skews` recovers constant offsets, this
    also recovers *drift*: for each machine B with two-way traffic to
    the reference A, matched pairs constrain B's clock from both sides
    (a message's receive stamp is at least its send stamp plus zero
    delay, in both directions).  Fitting a line through the forward
    pairs and another through the reverse pairs and averaging them
    splits the (assumed symmetric) network delay out -- the TEMPO idea
    extended to rates.

    Returns {machine id: (offset_ms, rate)} with the reference machine
    mapped to (0.0, 1.0).  Machines without two-way traffic to the
    reference fall back to offset-only estimates.
    """
    import numpy as np

    matcher = matcher or trace.matcher()
    machines = trace.machines()
    if not machines:
        return {}
    if reference is None:
        reference = machines[0]
    models = {reference: (0.0, 1.0)}

    by_pair = {}
    for pair in matcher.pairs:
        key = (pair.send.machine, pair.recv.machine)
        by_pair.setdefault(key, []).append(
            (pair.send.local_time, pair.recv.local_time)
        )

    fallback = estimate_clock_skews(trace, matcher, reference=reference)
    for machine in machines:
        if machine == reference:
            continue
        forward = by_pair.get((reference, machine), [])  # (ref t, b t)
        reverse = [
            (a, b) for b, a in by_pair.get((machine, reference), [])
        ]  # -> (ref t, b t)
        if len(forward) >= 2 and len(reverse) >= 2:
            m1, c1 = np.polyfit(*zip(*forward), 1)
            m2, c2 = np.polyfit(*zip(*reverse), 1)
            rate = (m1 + m2) / 2.0
            offset = (c1 + c2) / 2.0
            models[machine] = (float(offset), float(rate))
        else:
            models[machine] = (fallback.get(machine, 0.0), 1.0)
    return models


def estimate_clock_skews(trace, matcher=None, reference=None):
    """Relative clock offsets per machine, from message pairs.

    For machines A, B with matched messages in both directions, the
    minimum observed (recv_local - send_local) in each direction bounds
    the offset: offset ~ (min_fwd - min_rev) / 2, assuming roughly
    symmetric network delay (the TEMPO assumption).  Offsets are
    reported relative to ``reference`` (default: lowest machine id);
    machines connected only indirectly are resolved transitively.

    Returns {machine id: offset_ms}; subtract the offset from a
    machine's local timestamps to align them.
    """
    matcher = matcher or trace.matcher()
    deltas = {}
    for pair in matcher.pairs:
        key = (pair.send.machine, pair.recv.machine)
        if key[0] == key[1]:
            continue
        delta = pair.recv.local_time - pair.send.local_time
        if key not in deltas or delta < deltas[key]:
            deltas[key] = delta

    graph = nx.Graph()
    for (a, b), fwd in deltas.items():
        rev = deltas.get((b, a))
        if rev is None:
            continue
        # local_B - local_A ~ (fwd - rev) / 2
        offset = (fwd - rev) / 2.0
        graph.add_edge(a, b, offset_ab=offset, a=a)

    machines = trace.machines()
    if reference is None:
        reference = machines[0] if machines else None
    skews = {machine: 0.0 for machine in machines}
    if reference is None or reference not in graph:
        return skews
    seen = {reference}
    frontier = [reference]
    while frontier:
        current = frontier.pop()
        for neighbor in graph.neighbors(current):
            if neighbor in seen:
                continue
            data = graph.edges[current, neighbor]
            offset = data["offset_ab"]
            if data["a"] != current:
                offset = -offset
            skews[neighbor] = skews[current] + offset
            seen.add(neighbor)
            frontier.append(neighbor)
    return skews
