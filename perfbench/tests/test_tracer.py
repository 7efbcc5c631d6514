"""The tracer's span arithmetic and patching, on toy code with a fake
clock so every duration is exact."""

import pytest

from perfbench.tracer import Tracer, layer_of


class FakeClock:
    """Advances only when the toy code says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


class Toy:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.work(1.0)
        self.middle()
        self.clock.work(2.0)
        self.leaf()
        return "done"

    def middle(self):
        self.clock.work(0.5)
        self.leaf()
        self.leaf()

    def leaf(self):
        self.clock.work(0.25)

    @classmethod
    def build(cls, clock):
        clock.work(0.125)
        return cls(clock)


def traced_toy():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.patch(Toy, "outer", "a.outer")
    tracer.patch(Toy, "middle", "b.middle")
    tracer.patch(Toy, "leaf", "c.leaf")
    return clock, tracer


def test_self_time_subtracts_direct_children():
    clock, tracer = traced_toy()
    try:
        result = tracer.span("bench.unit", Toy(clock).outer)
        clock.work(4.0)  # outside every span
    finally:
        tracer.restore()
    assert result == "done"
    summary = tracer.summary()
    # outer: 1 + middle(0.5 + 2 leaves) + 2 + leaf = 4.25 total
    assert summary["a.outer"] == {"count": 1, "total_s": 4.25,
                                  "self_s": 3.0}
    assert summary["b.middle"] == {"count": 1, "total_s": 1.0,
                                   "self_s": 0.5}
    assert summary["c.leaf"] == {"count": 3, "total_s": 0.75,
                                 "self_s": 0.75}
    # The root covers exactly its children: no residue.
    assert summary["bench.unit"]["self_s"] == 0.0
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == summary["bench.unit"]["total_s"] == 4.25


def test_residue_is_root_time_no_layer_covers():
    clock, tracer = traced_toy()
    toy = Toy(clock)

    def glue():
        clock.work(0.75)  # the benchmark's own glue
        toy.leaf()

    try:
        tracer.span("bench.unit", glue)
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert summary["bench.unit"]["self_s"] == 0.75
    assert summary["c.leaf"]["self_s"] == 0.25


def test_spans_are_written_out(tmp_path):
    clock, tracer = traced_toy()
    try:
        tracer.span("bench.unit", Toy(clock).middle)
    finally:
        tracer.restore()
    path = tmp_path / "spans.tsv"
    tracer.write(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "name\tstart_s\tend_s\tparent"
    rows = [line.split("\t") for line in lines[1:]]
    assert [row[0] for row in rows] == ["bench.unit", "b.middle",
                                        "c.leaf", "c.leaf"]
    assert [row[3] for row in rows] == ["-1", "0", "1", "1"]


def test_restore_puts_originals_back():
    originals = {name: vars(Toy)[name] for name in ("outer", "leaf",
                                                      "build")}
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.patch(Toy, "outer", "a.outer")
    tracer.patch(Toy, "leaf", "c.leaf")
    tracer.patch(Toy, "build", "a.build")
    toy = Toy.build(clock)  # a classmethod keeps working while patched
    assert isinstance(toy, Toy)
    tracer.restore()
    for name, original in originals.items():
        assert vars(Toy)[name] is original
    assert tracer.summary()["a.build"]["total_s"] == 0.125


def test_inherited_method_patch_is_removed_on_restore():
    class Child(Toy):
        pass

    tracer = Tracer(clock=FakeClock())
    tracer.patch(Child, "leaf", "c.leaf")
    assert "leaf" in vars(Child)
    tracer.restore()
    assert "leaf" not in vars(Child)


def test_exceptions_close_their_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fails():
        clock.work(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("a.fails", fails)
    tracer.span("a.after", clock.work, 2.0)
    summary = tracer.summary()
    assert summary["a.fails"]["total_s"] == 1.0
    # The failed span is closed, so the next one is a root, not a child.
    assert tracer.span_parent == [-1, -1]
    assert summary["a.after"]["self_s"] == 2.0


def test_generators_are_never_wrapped():
    def gen():
        yield 1

    with pytest.raises(ValueError):
        Tracer().wrap("a.gen", gen)


def test_factory_products_are_traced_with_their_outcomes():
    seen = []

    class Module:
        @staticmethod
        def build(limit):
            return lambda value: value < limit

    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.patch(Module, "build", "a.build",
                 product=("a.check", lambda ok, value: seen.append(ok)))
    check = Module.build(3)
    assert [check(1), check(5)] == [True, False]
    tracer.restore()
    assert seen == [True, False]
    assert tracer.summary()["a.check"]["count"] == 2


def test_layer_of():
    assert layer_of("kernel.syscall") == "kernel"
    assert layer_of("bench") == "bench"
