"""Seeded input generators for the offline workloads.

Every generator draws from one ``random.Random`` seeded by its
arguments, so a seed names its input: the same seed gives the same
messages, and writing them gives byte-identical stores.
"""

import random

from repro.metering.messages import MessageCodec
from repro.net.addresses import InternetName
from repro.tracestore import StoreWriter
from repro.tracestore.writer import flush_to_files

SELECT_HOSTS = {1: "red", 2: "green", 3: "blue", 4: "yellow"}
ANALYSIS_HOSTS = {i: "node%d" % i for i in range(1, 7)}

#: The ten Appendix-A formats, in the order the bursty generator picks
#: them.
EVENTS = ("send", "receive", "receivecall", "socket", "dup", "destsocket",
          "fork", "accept", "connect", "termproc")


def _inet(hosts, host_id, port):
    return InternetName(hosts[host_id], port, host_id)


def bursty_wire(seed, n):
    """``n`` meter messages in bursty per-process runs of 8-32 events.

    A run keeps one (machine, pid, event type), the locality a metered
    loop produces; runs are drawn at random, so every segment still
    mixes all ten formats."""
    rng = random.Random("offline_select:%d" % seed)
    codec = MessageCodec(SELECT_HOSTS)
    names = [_inet(SELECT_HOSTS, i % 4 + 1, 5000 + i) for i in range(8)]
    wire = []
    i = 0
    while len(wire) < n:
        machine = rng.randrange(1, 5)
        pid = 2000 + rng.randrange(16)
        event = EVENTS[rng.randrange(len(EVENTS))]
        for __ in range(min(rng.randrange(8, 33), n - len(wire))):
            name, peer = names[i % 8], names[(i + 3) % 8]
            body = {"pid": pid, "pc": i}
            if event in ("send", "receive"):
                field = "destName" if event == "send" else "sourceName"
                body.update(sock=3, msgLength=16 * (1 + i % 64))
                body[field] = name
                body.update(codec.name_lengths(**{field: name}))
            elif event == "receivecall":
                body["sock"] = i % 128
            elif event == "socket":
                body.update(sock=3, domain=2 - i % 2, type=1, protocol=0)
            elif event == "dup":
                body.update(sock=3, newSock=16 + i % 48)
            elif event == "destsocket":
                body["sock"] = 3
            elif event == "fork":
                body["newPid"] = pid + 1 + i % 3
            elif event in ("accept", "connect"):
                body.update(sock=3, sockName=name)
                body["peerName"] = (
                    name if event == "accept" and i % 5 == 0 else peer
                )
                if event == "accept":
                    body["newSock"] = 4
                body.update(codec.name_lengths(sockName=name, peerName=peer))
            else:
                body["status"] = i % 7 - 3
            wire.append(
                codec.encode(
                    event, machine=machine, cpu_time=i,
                    proc_time=(i // 50) * 10, **body
                )
            )
            i += 1
    return wire


#: Every LOST_EVERY-th datagram send of the analysis trace is lost.  A
#: lost send has a length no receive ever has, so it can never match.
LOST_EVERY = 100
LOST_LENGTH = 2040


class AnalysisTrace:
    """A seeded multi-machine computation as meter messages in commit
    order, plus the ground truth the analyses must recover."""

    def __init__(self, wire, unmatched_sends):
        self.wire = wire
        self.unmatched_sends = unmatched_sends


#: Processes per machine of the analysis trace.
PROCS_PER_MACHINE = 3


def analysis_trace(seed, n):
    """About ``n`` records of stream and datagram traffic among the
    processes of the ``ANALYSIS_HOSTS`` machines.

    There are two connections per process, each set up (socket,
    connect, accept) before any data moves.  Every receive follows its
    send by 1-3 ms and takes exactly the bytes of one send, so the
    matchers' answer is known: the planted lost datagrams are the only
    unmatched sends."""
    rng = random.Random("offline_analysis:%d" % seed)
    hosts = ANALYSIS_HOSTS
    codec = MessageCodec(hosts)
    procs = [
        (m, 3000 + 10 * m + k)
        for m in hosts
        for k in range(PROCS_PER_MACHINE)
    ]
    next_sock = {m: 0x1000 for m in hosts}
    next_port = {m: 6000 for m in hosts}
    proc_time = {proc: 0 for proc in procs}
    events = []  # (time, order, machine, event, body)

    def sock_for(machine):
        next_sock[machine] += 16
        return next_sock[machine]

    def port_for(machine):
        next_port[machine] += 1
        return next_port[machine]

    def emit(time, proc, event, **body):
        machine, pid = proc
        proc_time[proc] += 1
        events.append(
            (time, len(events), machine, event,
             dict(body, pid=pid, pc=len(events)), proc_time[proc])
        )

    # Connection phase: stream connections between processes on
    # different machines, each with its own listening port.
    links = []
    clock = 1
    while len(links) < 2 * len(procs):
        client, server = rng.sample(procs, 2)
        if client[0] == server[0]:
            continue
        c_sock, l_sock, n_sock = (
            sock_for(client[0]), sock_for(server[0]), sock_for(server[0])
        )
        c_name = _inet(hosts, client[0], port_for(client[0]))
        s_name = _inet(hosts, server[0], port_for(server[0]))
        emit(clock, server, "socket", sock=l_sock, domain=2, type=1,
             protocol=0)
        emit(clock, client, "socket", sock=c_sock, domain=2, type=1,
             protocol=0)
        emit(clock + 1, client, "connect", sock=c_sock, sockName=c_name,
             peerName=s_name,
             **codec.name_lengths(sockName=c_name, peerName=s_name))
        emit(clock + 2, server, "accept", sock=l_sock, newSock=n_sock,
             sockName=s_name, peerName=c_name,
             **codec.name_lengths(sockName=s_name, peerName=c_name))
        links.append(((client, c_sock, c_name), (server, n_sock, s_name)))
        clock += 3
    # Datagram sockets, one per process.
    dgram = {}
    for proc in procs:
        name = _inet(hosts, proc[0], port_for(proc[0]))
        dgram[proc] = (sock_for(proc[0]), name)
        emit(clock, proc, "socket", sock=dgram[proc][0], domain=2, type=2,
             protocol=0)
    clock += 1

    unmatched = datagrams = 0
    while len(events) < n:
        clock += rng.randrange(1, 4)
        kind = rng.random()
        length = 16 * rng.randrange(1, 64)
        latency = rng.randrange(1, 4)
        if kind < 0.55:
            a, b = links[rng.randrange(len(links))]
            src, dst = (a, b) if rng.random() < 0.6 else (b, a)
            emit(clock, src[0], "send", sock=src[1], msgLength=length,
                 destName=None, destNameLen=0)
            emit(clock + latency, dst[0], "receive", sock=dst[1],
                 msgLength=length, sourceName=src[2],
                 **codec.name_lengths(sourceName=src[2]))
        else:
            src, dst = rng.sample(procs, 2)
            lost = (datagrams + unmatched) % LOST_EVERY == LOST_EVERY - 1
            dest_name = dgram[dst][1]
            emit(clock, src, "send", sock=dgram[src][0],
                 msgLength=LOST_LENGTH if lost else length,
                 destName=dest_name,
                 **codec.name_lengths(destName=dest_name))
            if lost:
                unmatched += 1
                continue
            datagrams += 1
            emit(clock + latency, dst, "receivecall", sock=dgram[dst][0])
            emit(clock + latency, dst, "receive", sock=dgram[dst][0],
                 msgLength=length, sourceName=dgram[src][1],
                 **codec.name_lengths(sourceName=dgram[src][1]))
    clock += 4
    for proc in procs:
        emit(clock, proc, "termproc", status=0)
    events.sort(key=lambda item: (item[0], item[1]))
    wire = [
        codec.encode(event, machine=machine, cpu_time=time,
                     proc_time=ptime, **body)
        for time, __, machine, event, body, ptime in events
    ]
    return AnalysisTrace(wire, unmatched)


def write_store(wire, base, host_names, **writer_kwargs):
    """Write ``wire`` as a sealed store at ``base`` on the real
    filesystem; returns ``base``."""
    writer = StoreWriter(base, host_names=host_names, **writer_kwargs)
    for payload in wire:
        writer.append(payload)
    writer.close()
    flush_to_files(writer)
    return base
