"""The monitor's benchmark: one workload, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload live_fanout --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and every metric.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: The workloads BENCHMARK.json lists.
WORKLOADS = ("live_fanout", "offline_analysis")
#: Workloads that run only by hand: too few runs of each fit in the time
#: a full check of the benchmark may take (see perfbench/README.md).
BY_HAND = ("live_immediate", "offline_select")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + BY_HAND)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import the
    program from there, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: no program source at %s; run the benchmark from the "
            "root of a checkout of the repository" % SRC
        )
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported repro from %s, not %s" % (
            repro.__file__, SRC))


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from perfbench import harness

    report = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), ROOT)
    mode = "traced" if args.trace else "untraced"
    print("{0} seed={1} ({2})".format(args.workload, args.seed, mode))
    for note in report.notes:
        print("  " + note)
    for problem in report.problems:
        print("  CHECK FAILED: " + problem)
    for name, metric in report.metrics.items():
        print("  {0:<32} {1:>16.6g} {2}".format(
            name, metric["value"], metric["unit"]))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
