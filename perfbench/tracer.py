"""Per-layer tracing of lefweave from outside the package.

A Tracer replaces every public function, and the public methods plus
``__init__``/``__hash__``/``__eq__`` of every public class, in the nine
lefweave modules with a timing wrapper.  A function is rebound in every
module namespace that holds it (``from .lattice import pairing`` copies
the binding into ``presentation``, ``certify`` and ``invariants``), and
methods are rebound on their class.  ``uninstall`` puts the originals
back, so untraced code never runs through a wrapper.

Each wrapped name keeps [calls, failed, self seconds, total seconds].
Self time is the call's wall time minus the wall time of the wrapped
calls it made.  Spans (id, parent, name, start, end) are kept for op
calls and for calls that enter one module from another; hot leaf calls
(class methods and the twist/pairing kernels) keep only the counters,
and spans beyond ``span_cap`` are counted as dropped, so memory stays
bounded.  The code is single-threaded, so nothing waits and no wait
times exist.
"""

import functools
import importlib
import time
import types

MODULES = ("lattice", "arcs", "fibers", "presentation", "invariants",
           "certify", "presets", "dsl", "cli")

# Leaf kernels called many thousand times per op: counters only.
HOT_FUNCTIONS = frozenset((
    "lattice.pairing", "lattice.twist_power", "lattice.dehn_twist",
    "lattice.evaluate_word",
))

_METHODS = ("__init__", "__hash__", "__eq__")


def load_modules():
    return {name: importlib.import_module("lefweave." + name)
            for name in MODULES}


class Tracer:
    def __init__(self, span_cap=20000):
        self.stats = {}
        # frame: [child seconds, enclosing span id, module]
        self.stack = [[0.0, None, "bench"]]
        self.spans = []
        self.span_cap = span_cap
        self.dropped = 0
        self._patches = []

    # --- wrappers ------------------------------------------------------

    def _open_span(self, name, parent, start, force=False):
        if not force and len(self.spans) >= self.span_cap:
            self.dropped += 1
            return None
        self.spans.append([len(self.spans), parent, name, start, None])
        return len(self.spans) - 1

    def _wrap(self, name, module, fn, hot):
        stat = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        if hot:
            def wrapper(*args, **kwargs):
                frame = [0.0, None, module]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat[1] += 1
                    raise
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat[0] += 1
                    stat[2] += elapsed - frame[0]
                    stat[3] += elapsed
                    stack[-1][0] += elapsed
        else:
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                start = clock()
                span = None
                if parent[2] != module:
                    span = self._open_span(name, parent[1], start)
                frame = [0.0, parent[1] if span is None else span, module]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat[1] += 1
                    raise
                finally:
                    end = clock()
                    elapsed = end - start
                    stack.pop()
                    stat[0] += 1
                    stat[2] += elapsed - frame[0]
                    stat[3] += elapsed
                    parent[0] += elapsed
                    if span is not None:
                        self.spans[span][4] = end

        return functools.update_wrapper(wrapper, fn)

    def op(self, name, fn, *args):
        """Run one benchmark op as a root span; its self time is the
        benchmark's own share of the op."""
        stat = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        start = time.perf_counter()
        span = self._open_span(name, None, start, force=True)
        frame = [0.0, span, "bench"]
        self.stack.append(frame)
        try:
            return fn(*args)
        except BaseException:
            stat[1] += 1
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            stat[0] += 1
            stat[2] += end - start - frame[0]
            stat[3] += end - start
            self.spans[span][4] = end

    def adopt(self, spans, parent):
        """Append a traced child process's spans under span ``parent``.

        Span times come from time.perf_counter, which on Linux is the
        system-wide monotonic clock, so they line up across processes.
        """
        if len(self.spans) + len(spans) > self.span_cap:
            self.dropped += len(spans)
            return
        offset = len(self.spans)
        for span_id, up, name, start, end in spans:
            self.spans.append([offset + span_id,
                               parent if up is None else offset + up,
                               name, start, end])

    # --- install / uninstall -------------------------------------------

    def install(self, modules):
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = "%s.%s" % (short, attr)
                    wrapped = self._wrap(name, short, obj,
                                         name in HOT_FUNCTIONS)
                    for other in modules.values():
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, key, wrapped)
                elif isinstance(obj, type) and not issubclass(
                        obj, (BaseException, tuple)):
                    self._install_class(short, obj)

    def _install_class(self, short, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _METHODS:
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if isinstance(value, types.FunctionType):
                new = self._wrap(name, short, value, True)
            elif isinstance(value, property) and value.fget is not None:
                new = property(self._wrap(name, short, value.fget, True),
                               value.fset, value.fdel, value.__doc__)
            elif isinstance(value, classmethod):
                new = classmethod(
                    self._wrap(name, short, value.__func__, False))
            else:
                continue
            self._patch(cls, attr, new)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- results -------------------------------------------------------

    def take_stats(self):
        """Return the counters so far and zero them in place."""
        snapshot = {name: list(stat) for name, stat in self.stats.items()}
        for stat in self.stats.values():
            stat[:] = [0, 0, 0.0, 0.0]
        return snapshot


def merge_stats(into, other):
    for name, stat in other.items():
        mine = into.setdefault(name, [0, 0, 0.0, 0.0])
        for i, value in enumerate(stat):
            mine[i] += value
    return into
