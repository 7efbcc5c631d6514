"""An outside-in span recorder.

The tracer times calls into the program's layers without changing the
program: it replaces functions and methods on their classes (or on the
module that calls them) with wrappers that record one span per call,
and puts the originals back afterwards.  Spans stay in memory as four
parallel lists -- name, start, end, parent -- and are summarised (or
written out) once the measured work is over.

A layer's *self* time is the time its spans cover minus the time their
child spans cover, so a kernel syscall that calls into the network is
charged only for its own work.  Whatever a root span covers that no
layer span does is the *residue*: time the trace cannot attribute.
"""

import functools
import inspect
import time


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: span-name table; spans refer to names by index
        self.names = []
        self._name_ids = {}
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self._stack = [-1]
        #: (owner, attribute, original, owned) for every patch made
        self._patches = []

    # -- recording -----------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, on_return=None):
        """A wrapper recording a span ``name`` around every call of
        ``fn``.  ``on_return(result, *args, **kwargs)``, if given, sees
        each result (how counts are taken at the same boundary)."""
        if inspect.isgeneratorfunction(fn):
            # A generator's body runs between yields, outside the call;
            # a span around the call would time only its creation.
            raise ValueError("cannot trace generator function %r" % (fn,))
        nid = self.name_id(name)
        clock = self.clock
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            starts[index] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result, *args, **kwargs)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span ``name`` (for work
        the benchmark itself drives, such as consuming a generator)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr, name, on_return=None, product=None):
        """Replace ``owner.attr`` (a class or module attribute) with a
        traced wrapper until :meth:`restore`.

        ``product`` is a ``(span name, on_return)`` pair for a factory
        such as a screen factory: every callable ``attr`` returns is
        wrapped too, when it is not None."""
        owned = attr in vars(owner)
        raw = vars(owner)[attr] if owned else getattr(owner, attr)
        kind = None
        fn = raw
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
            fn = raw.__func__
        if product is not None:
            fn = self._factory(fn, *product)
        wrapped = self.wrap(name, fn, on_return=on_return)
        if kind is not None:
            wrapped = kind(wrapped)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw, owned))

    def _factory(self, build, product_name, product_on_return):
        @functools.wraps(build)
        def factory(*args, **kwargs):
            made = build(*args, **kwargs)
            if made is None:
                return None
            return self.wrap(product_name, made, on_return=product_on_return)

        return factory

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- summarising -------------------------------------------------------

    def summary(self):
        """name -> {"count", "total_s", "self_s"} over recorded spans.

        ``total_s`` is the time the spans cover; ``self_s`` subtracts
        the time covered by each span's direct children, so summing
        ``self_s`` over every name gives the roots' total exactly."""
        ends, starts, parents = self.span_end, self.span_start, self.span_parent
        count = len(ends)
        child_time = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child_time[parent] += ends[index] - starts[index]
        out = {}
        names = self.names
        for index, nid in enumerate(self.span_name):
            duration = ends[index] - starts[index]
            row = out.get(nid)
            if row is None:
                row = out[nid] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_time[index]
        return {
            names[nid]: {"count": row[0], "total_s": row[1], "self_s": row[2]}
            for nid, row in out.items()
        }

    def child_count(self, parent_name, child_name):
        """How many ``child_name`` spans sit directly under a
        ``parent_name`` span."""
        parent_id = self._name_ids.get(parent_name)
        child_id = self._name_ids.get(child_name)
        names, parents = self.span_name, self.span_parent
        return sum(
            1 for index, nid in enumerate(names)
            if nid == child_id and parents[index] >= 0
            and names[parents[index]] == parent_id
        )

    def write(self, path):
        """Write every span as one tab-separated line: name, start,
        end, parent index (-1 for a root)."""
        names = self.names
        with open(path, "w") as handle:
            handle.write("name\tstart_s\tend_s\tparent\n")
            for index, nid in enumerate(self.span_name):
                handle.write(
                    "{0}\t{1!r}\t{2!r}\t{3}\n".format(
                        names[nid],
                        self.span_start[index],
                        self.span_end[index],
                        self.span_parent[index],
                    )
                )


def layer_of(span_name):
    """The layer a span belongs to: the part of its name before the
    first dot ("kernel.syscall" -> "kernel")."""
    return span_name.partition(".")[0]
