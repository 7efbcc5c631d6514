"""BENCHMARK.json names what the harness reports, and the benchmark
refuses to run without the program's source."""

import json
import os
import shutil
import subprocess

from perfbench import harness, run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_and_units_match_the_harness():
    spec = load()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        harness.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(bare))
    shutil.copytree(os.path.join(ROOT, "perfbench"), str(bare / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = load()
    proc = subprocess.run(
        spec["command"] + ["--workload", "live_fanout", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=str(bare), capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
