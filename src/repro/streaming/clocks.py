"""Online vector clocks: the :class:`~repro.analysis.ordering.
HappensBefore` computation as a fold.

The batch engine runs one Kahn pass over the finished trace; here the
same clocks are produced as records arrive.  An event's clock cannot
be emitted until every predecessor's clock is known: the previous
event of its process, plus -- for a receive -- every matched send.
Sends are paired with receives by the online matcher, possibly *after*
the receive arrived, so receive nodes are added "open" and stay
unresolved until the matcher declares their send dependencies complete
(stream bytes fully covered, datagram claimed, or session finalized).
Everything else resolves as soon as its program-order predecessor has.

Equivalence with the batch pass: component ``i`` of a clock counts the
events of the ``i``-th process (first-appearance order, identical to
``Trace.processes()``) that happen before or at the event, and the
event's own component is forced to ``proc_seq + 1`` after the merge --
exactly ``HappensBefore._clocks``.  Clocks are lists that end at
their last nonzero component (a resolved clock ends at its own
component or at a longer predecessor's last one), so they are also
independent of how many processes eventually appear.
"""

from collections import OrderedDict, deque


def merge_clock(acc, other):
    """Componentwise max of ``other`` into ``acc`` (lists; a missing
    component is zero, and ``acc`` grows to ``other``'s length)."""
    known = len(acc)
    for component, value in zip(range(known), other):
        if value > acc[component]:
            acc[component] = value
    if known < len(other):
        acc.extend(other[known:])


class _Node:
    """One event awaiting (or holding) its clock."""

    __slots__ = ("event", "acc", "wait", "open", "succ", "clock")

    def __init__(self, event):
        self.event = event
        self.acc = []  # merged clocks of already-resolved predecessors
        self.wait = 0  # unresolved predecessors
        self.open = False  # matcher may still add send dependencies
        self.succ = None  # nodes waiting on this clock (lazy list)
        self.clock = None


class OnlineVectorClocks:
    """Incremental vector clocks with O(1) happens-before queries.

    ``on_resolve(event, clock)`` fires once per event, in dependency
    order (not arrival order -- a digest over resolutions must be
    order-independent).  The last ``history`` resolved clocks are kept
    for :meth:`happens_before`; everything older is evicted, so memory
    is bounded by the in-flight frontier plus that window.
    """

    def __init__(self, on_resolve=None, history=4096):
        self.on_resolve = on_resolve
        #: process -> clock component index, first-appearance order
        #: (matches ``Trace.processes()``).
        self.proc_index = {}
        self._last = {}  # process -> most recent node (program order)
        self._ready = deque()
        self._unresolved = {}  # id(node) -> node, for finalize sweeps
        self.pending = 0
        self.resolved = 0
        self._history_len = int(history)
        self._history = OrderedDict()  # (machine, pid, proc_seq) -> clock

    def component(self, process):
        index = self.proc_index.get(process)
        if index is None:
            index = self.proc_index[process] = len(self.proc_index)
        return index

    # -- building the order --------------------------------------------

    def add(self, event, defer=False):
        """Admit ``event`` (a StreamEvent); returns its node, also
        stored on ``event.node``.  With ``defer`` the node waits for
        :meth:`close` before it may resolve."""
        self.component(event.process)
        node = _Node(event)
        node.open = bool(defer)
        prev = self._last.get(event.process)
        if prev is not None:
            if prev.clock is not None:
                node.acc = list(prev.clock)
            else:
                node.wait += 1
                if prev.succ is None:
                    prev.succ = []
                prev.succ.append(node)
        self._last[event.process] = node
        self._unresolved[id(node)] = node
        self.pending += 1
        event.node = node
        if not node.open and node.wait == 0:
            self._ready.append(node)
        return node

    def add_dep(self, node, send_node):
        """A matched send happens before ``node`` (a receive)."""
        if send_node is node or node.clock is not None:
            return
        if send_node.clock is not None:
            self._absorb(node, send_node.clock)
        else:
            node.wait += 1
            if send_node.succ is None:
                send_node.succ = []
            send_node.succ.append(node)

    @staticmethod
    def _absorb(node, clock):
        """Merge a resolved predecessor's clock into ``node``'s."""
        if node.acc:
            merge_clock(node.acc, clock)
        else:
            node.acc = list(clock)

    def close(self, node):
        """The matcher declares all of ``node``'s send deps added."""
        if not node.open:
            return
        node.open = False
        if node.wait == 0 and node.clock is None:
            self._ready.append(node)

    def drain(self):
        """Resolve every node whose predecessors are all resolved."""
        ready = self._ready
        while ready:
            node = ready.popleft()
            if node.clock is not None:
                continue
            self._resolve(node)

    def _resolve(self, node):
        event = node.event
        clock = node.acc
        own = self.proc_index[event.process]
        if own >= len(clock):
            clock.extend([0] * (own + 1 - len(clock)))
        clock[own] = event.proc_seq + 1
        node.clock = clock
        node.acc = None
        del self._unresolved[id(node)]
        self.pending -= 1
        self.resolved += 1
        history = self._history
        history[(event.machine, event.pid, event.proc_seq)] = clock
        if len(history) > self._history_len:
            history.popitem(last=False)
        if self.on_resolve is not None:
            self.on_resolve(event, clock)
        succ = node.succ
        if succ:
            node.succ = None
            for later in succ:
                if later.clock is not None:
                    continue
                self._absorb(later, clock)
                later.wait -= 1
                if later.wait == 0 and not later.open:
                    self._ready.append(later)

    def finalize(self):
        """Resolve any leftovers best-effort, in arrival order -- the
        same escape hatch the batch engine uses for cyclic or truncated
        evidence.  A correctly closed stream leaves nothing here."""
        self.drain()
        while self._unresolved:
            stuck = min(
                self._unresolved.values(), key=lambda node: node.event.index
            )
            stuck.open = False
            self._resolve(stuck)
            self.drain()

    # -- queries -------------------------------------------------------

    def clock_of(self, machine, pid, proc_seq):
        """The clock (a list) of one event, or None if it has not yet
        resolved or has left the history window."""
        return self._history.get((machine, pid, proc_seq))

    def happens_before(self, a, b):
        """Whether a -> b is deducible; a and b are (machine, pid,
        proc_seq) triples.  O(1): one clock-component lookup.  Returns
        None when b's clock is unavailable (unresolved or evicted)."""
        a = tuple(a)
        b = tuple(b)
        if a == b:
            return False
        clock_b = self._history.get(b)
        if clock_b is None:
            return None
        component = self.proc_index.get((a[0], a[1]))
        if component is None or component >= len(clock_b):
            return False
        return clock_b[component] >= a[2] + 1

    def state_size(self):
        """In-flight state only: the bounded history is excluded so
        growth here means the frontier itself is growing."""
        return self.pending
