"""Wrap-at-call-site span tracer for the gstdesign benchmark.

The tracer times calls into the package from the outside: it replaces a
function with a timing wrapper in every ``gstdesign`` module that holds a
reference to it (``fisher`` binds ``probability_jacobian`` at import, so
patching only ``gstdesign.model`` would miss those calls), and it times
``numpy.linalg`` calls, charging each to the innermost open span.

Spans are aggregated in memory by name: call count, total (inclusive) time
and self time, where self time is a span's duration minus the durations of
its direct child spans.  A ``numpy.linalg`` call is a child span named
``<parent>/linalg.<fn>``, so it is excluded from its parent's self time and
reported on its own.  The tracer assumes one thread of execution (the
benchmark pins ``GSTDESIGN_THREADS=1``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# every numpy.linalg function the package calls
LINALG_FUNCTIONS = ("cond", "eig", "eigh", "eigvalsh", "inv", "matrix_power", "qr", "svd")


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Aggregating span recorder with call-site patching.

    ``clock`` is injectable so the self-time arithmetic can be tested with a
    synthetic clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child_time]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        st = self.stats[name]
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def current(self) -> str:
        return self._stack[-1][0] if self._stack else "<top>"

    def wrap(self, fn, name: str, on_return=None):
        """Timing wrapper for ``fn``; ``on_return(tracer, args, kwargs,
        result)`` runs after the span closes, to record counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def wrap_linalg(self, fn, fn_name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(f"{self.current()}/linalg.{fn_name}")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module_name: str, attr: str, name: str, on_return=None) -> int:
        """Replace ``module.attr`` everywhere it is bound in a ``gstdesign``
        module.  Returns the number of call sites patched."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self.wrap(original, name, on_return)
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gstdesign" or mod_name.startswith("gstdesign.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                    sites += 1
        return sites

    def patch_method(self, module_name: str, qualname: str, name: str, on_return=None) -> None:
        """Replace a method (plain or static) on a class of ``module_name``."""
        cls_name, attr = qualname.split(".")
        cls = getattr(sys.modules[module_name], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self.wrap(raw.__func__, name, on_return)))
        else:
            self._set(cls, attr, self.wrap(raw, name, on_return))

    def patch_linalg(self) -> None:
        import numpy.linalg as la

        for fn_name in LINALG_FUNCTIONS:
            self._set(la, fn_name, self.wrap_linalg(getattr(la, fn_name), fn_name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def linalg(self, prefix: str, fns) -> SpanStats:
        """Sum of ``linalg.<fn>`` spans, ``fn`` in ``fns``, whose parent span
        name starts with ``prefix``."""
        out = SpanStats()
        for key, st in self.stats.items():
            parent, _, leaf = key.rpartition("/linalg.")
            if parent and parent.startswith(prefix) and leaf in fns:
                out.calls += st.calls
                out.total_s += st.total_s
                out.self_s += st.self_s
        return out
