"""Reference versions of the online matcher's bookkeeping, kept as test
oracles for the faster code in :mod:`repro.streaming.matching`.

- :class:`FullRotationMatcher` retries datagram sends the original way:
  every datagram receive retries every pending send, of every length,
  in send-arrival order, parsing host names afresh on each attempt.
- :func:`walked_state_size` counts the matcher's in-flight state by
  walking every endpoint, connection and datagram queue.
"""

from collections import deque

from repro.streaming.matching import OnlineMatcher


def _host_of(display_name):
    if display_name and display_name.startswith("inet:"):
        return display_name.split(":")[1]
    return None


class FullRotationMatcher(OnlineMatcher):
    """:class:`OnlineMatcher` with one arrival-order queue of pending
    datagram sends that every datagram receive drains in full."""

    def __init__(self, on_pair, on_recv_done):
        super().__init__(on_pair, on_recv_done)
        self._pending_sends = deque()  # cells [send event, matched]

    def update(self, event):
        if event.event == "send" and event.dest:
            event.in_matching = True
            cell = [event, False]
            if not self._try_claim(cell):
                self._pending_sends.append(cell)
            return
        super().update(event)

    def _dgram_recv(self, event):
        cell = [event, False]
        self._by_mlen[(event.machine, event.length)].append(cell)
        self._by_len[event.length].append(cell)
        if self._pending_sends:
            self._drain_pending()

    def _try_claim(self, cell):
        send = cell[0]
        dest_id = self.host_ids.get(_host_of(send.dest))
        if dest_id is not None:
            queue = self._by_mlen.get((dest_id, send.length))
        else:
            queue = self._by_len.get(send.length)
        found = None
        if queue is not None:
            for candidate in queue.items[queue.head:]:
                if candidate[1]:
                    continue
                src_host = _host_of(candidate[0].source)
                src_id = self.host_ids.get(src_host) if src_host else None
                if src_id is None or src_id == send.machine:
                    found = candidate
                    break
        if found is None:
            return False
        found[1] = True
        cell[1] = True
        recv = found[0]
        src_host = _host_of(recv.source)
        if src_host is not None:
            self.host_ids.setdefault(src_host, send.machine)
        self.on_pair(send, recv, min(send.length, recv.length))
        self.on_recv_done(recv)
        return True

    def _drain_pending(self):
        """Retry pending sends in arrival order (a stable rotation)."""
        pending = self._pending_sends
        for __ in range(len(pending)):
            cell = pending.popleft()
            if cell[1]:
                continue
            if not self._try_claim(cell):
                pending.append(cell)


def walked_state_size(matcher):
    """The in-flight state of ``matcher``, counted by walking it."""
    size = sum(
        1
        for queue in matcher._pending.values()
        for cell in queue
        if not cell[1]
    )
    for state in matcher._endpoints.values():
        size += len(state.pre)
    for directions in matcher._connections:
        for direction in directions:
            size += len(direction.spans) + len(direction.waiting)
    for queue in matcher._by_mlen.values():
        size += sum(1 for cell in queue.items[queue.head:] if not cell[1])
    return size
