"""In-memory span tracer that wraps library functions from the outside.

Nothing inside ``src/`` is instrumented: the tracer swaps module attributes and
class attributes for timing wrappers. A function imported by name into other
library modules (``from .data import sample_triplets``) is replaced in every
``adaptreg`` module that binds it, so calls through any of those names are
recorded. Counters are computed from the wrapped calls' arguments and results
after the span has closed, and their cost is taken out of every span's clock.
"""

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.absent = []         # names that could not be wrapped
        self._stack = []
        self._excluded = 0.0     # seconds spent in counter hooks

    def clock(self):
        return time.perf_counter() - self._excluded

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def _wrapper(self, func, name, hook, record_span):
        sig = inspect.signature(func) if hook else None

        def traced(*args, **kwargs):
            if record_span:
                with self.span(name):
                    result = func(*args, **kwargs)
            else:
                self.counts[name + ".calls"] += 1
                result = func(*args, **kwargs)
            if hook:
                t0 = time.perf_counter()
                hook(sig.bind(*args, **kwargs).arguments, result)
                self._excluded += time.perf_counter() - t0
            return result

        traced.__wrapped__ = func
        return traced

    def wrap(self, owner, attr, name, hook=None, record_span=True):
        """Replace ``owner.attr`` (a module function, method or classmethod).

        ``hook(arguments, result)`` runs after each call, off the span
        clock; ``arguments`` maps parameter names to the call's values.
        A missing attribute is recorded in ``absent``.
        """
        try:
            orig = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.absent.append(name)
            return
        if isinstance(owner, type):
            if isinstance(orig, classmethod):
                setattr(owner, attr, classmethod(
                    self._wrapper(orig.__func__, name, hook, record_span)))
            else:
                setattr(owner, attr, self._wrapper(orig, name, hook, record_span))
            return
        wrapped = self._wrapper(orig, name, hook, record_span)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "adaptreg":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    # -- aggregation -------------------------------------------------------

    def totals(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is the span's duration minus its direct children's.
        ``mf.bpr_gradient`` is split by parent into ``.lambda`` (called from
        ``adaptive.hypergradient``) and ``.step`` (everything else).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for n, (name, start, end, parent) in enumerate(self.spans):
            if name == "mf.bpr_gradient":
                under = parent >= 0 and self.spans[parent][0] == "adaptive.hypergradient"
                name += ".lambda" if under else ".step"
            rec = out[name]
            rec["calls"] += 1
            rec["total"] += end - start
            rec["self"] += end - start - child[n]
        return out

    def write(self, path, origin):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round((start - origin) * 1e3, 4),
                                     round((end - origin) * 1e3, 4), parent]) + "\n")
