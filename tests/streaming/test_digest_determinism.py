"""The streaming digests hash tuples of ints, so they must not depend on
the interpreter's string-hash salt or on object addresses: two
processes with different ``PYTHONHASHSEED`` values must print the same
digest for the same trace, including for records that lack a machine
or a pid."""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Prints the replay digest of one fixed trace: datagrams and a stream
#: connection between two machines, a lost send, a receive committed
#: before its send, and records without a machine or a pid.
SCRIPT = r"""
import json
from repro.streaming.twins import replay_engine

def rec(event, machine, pid, t, **body):
    body.update(event=event, cpuTime=t, procTime=t)
    if machine is not None:
        body["machine"] = machine
    if pid is not None:
        body["pid"] = pid
    return body

records = [
    rec("socket", 1, 10, 1, sock=3),
    rec("socket", 2, 20, 1, sock=4),
    rec("connect", 1, 10, 2, sock=5, sockName="inet:red:7001",
        peerName="inet:green:7002"),
    rec("accept", 2, 20, 3, sock=6, newSock=7, sockName="inet:green:7002",
        peerName="inet:red:7001"),
    rec("send", 1, 10, 4, sock=5, msgLength=40),
    rec("receive", 2, 20, 5, sock=7, msgLength=24),
    rec("receive", 2, 20, 6, sock=7, msgLength=16),
    rec("receive", 2, 20, 7, sock=4, msgLength=64,
        sourceName="inet:red:6001"),
    rec("send", 1, 10, 8, sock=3, msgLength=64, destName="inet:green:6002"),
    rec("send", 1, 10, 9, sock=3, msgLength=96, destName="inet:green:6002"),
    rec("send", 2, 20, 10, sock=4, msgLength=32, destName="inet:red:6001"),
    rec("receive", 1, 10, 11, sock=3, msgLength=32,
        sourceName="inet:green:6002"),
    rec("socket", None, None, 12, sock=8),
    rec("send", None, 30, 13, sock=8, msgLength=8,
        destName="inet:red:6001"),
    rec("receive", 1, None, 14, sock=9, msgLength=8,
        sourceName="inet:blue:6003"),
    rec("termproc", 1, 10, 15, status=0),
]
print(json.dumps(replay_engine(records).finalize().digest(), sort_keys=True))
"""


def _digest_under(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return out.strip().splitlines()[-1]


def test_digest_is_the_same_under_any_hash_seed():
    first = _digest_under(0)
    second = _digest_under(12345)
    assert first == second
    digest = json.loads(first)
    assert digest["records"] == 16
    assert digest["totals"]["matched_pairs"] == 5
    assert digest["clock_digest"] != 0 and digest["pairs_digest"] != 0
