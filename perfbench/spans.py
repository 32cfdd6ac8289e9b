"""Span tracer for one benchmark op, installed from outside the package.

Every public function of every catlab module, every public method of the
classes those modules define, and every oracle family is replaced, in every
catlab namespace that holds it, by a wrapper that records one span per call:
name, parent span, start and end, self time (the span minus its child
spans), the n and d = 2**n of the call when an argument carries them, and
the process's peak-RSS high-water mark after the call (see peak_rss_kb).
Properties are not wrapped. Spans stay in memory until the op ends.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

MODULES = ("spincore", "thermal", "measure", "indices", "analysis",
           "records", "config", "cli", "oracle")

# calls whose distinct argument tuples are kept: pauli_site's lru_cache
# holds one dense 2**n x 2**n complex matrix per distinct call
KEYED = {"spincore.pauli_site"}


def peak_rss_kb(status_fd: int) -> int:
    """VmHWM, the peak resident set of this process since its exec, in kB,
    read from an open /proc/self/status. Unlike ru_maxrss, it leaves out the
    image of the parent that the process was forked from. One pread costs a
    few microseconds."""
    status = os.pread(status_fd, 4096, 0)
    start = status.index(b"VmHWM:") + len(b"VmHWM:")
    return int(status[start:status.index(b"kB", start)])


class Tracer:
    def __init__(self, status_fd: int):
        self.status_fd = status_fd  # /proc/self/status, for peak_rss_kb
        self.spans = []      # [id, parent, name, n, t0_ns, t1_ns, self_ns, rss_kb, ok]
        self.keys = {name: set() for name in KEYED}
        self._stack = []     # [span id, child ns]
        self.originals = {}  # span name -> unwrapped callable

    @contextlib.contextmanager
    def span(self, name, n=None):
        """A span around a block, for the op itself."""
        span_id, parent = self._open()
        t0 = time.perf_counter_ns()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(span_id, parent, name, n, t0, ok)

    def _open(self):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        self._stack.append([span_id, 0])
        return span_id, parent

    def _close(self, span_id, parent, name, n, t0, ok):
        t1 = time.perf_counter_ns()
        _, child_ns = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self.spans[span_id] = [span_id, parent, name, n, t0, t1,
                               dur - child_ns, peak_rss_kb(self.status_fd), ok]

    def wrap(self, name, fn):
        n_index = _n_param_index(fn)
        keyed = self.keys.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = _n_of(args, kwargs, n_index)
            span_id, parent = self._open()
            t0 = time.perf_counter_ns()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                if keyed is not None:
                    keyed.add((args, tuple(sorted(kwargs.items()))))
                return out
            finally:
                self._close(span_id, parent, name, n, t0, ok)

        self.originals[name] = fn
        return traced

    def install(self):
        """Wrap the package in place; call once, before the op runs."""
        import catlab
        import catlab.cli  # noqa: F401 - cli is not imported by catlab itself

        mods = {short: sys.modules[f"catlab.{short}"] for short in MODULES}
        replaced = {}
        for short, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_methods(f"{short}.{attr}", value)
                elif callable(value) and getattr(value, "__module__", None) == mod.__name__:
                    replaced[id(value)] = self.wrap(f"{short}.{attr}", value)
        for mod in (catlab, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
                elif isinstance(value, dict):  # dispatch tables such as cli._HANDLERS
                    for key, entry in list(value.items()):
                        if id(entry) in replaced:
                            value[key] = replaced[id(entry)]
        families = mods["oracle"].FAMILIES
        for family, fn in list(families.items()):
            families[family] = self.wrap(f"oracle.{family}", fn)

    def _wrap_methods(self, prefix, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{prefix}.{attr}",
                                                         value.__func__)))
            elif isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(f"{prefix}.{attr}",
                                                          value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", value))


def _n_param_index(fn):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("n") if "n" in params else None


def _n_of(args, kwargs, n_index):
    """Spin count of a call: an `n` argument, else the first argument with one."""
    n = kwargs.get("n")
    if n is None and n_index is not None and n_index < len(args):
        n = args[n_index]
    if n is None:
        for arg in args:
            n = getattr(arg, "n", None)
            if n is not None:
                break
    return n if isinstance(n, int) and not isinstance(n, bool) else None
