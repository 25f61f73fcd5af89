"""Span recording for the traced benchmark run.

``Tracer.install`` wraps every public function of the tblim layers and puts
the wrapper in place of the original in every tblim module namespace that
holds it, so calls through ``from .x import f`` bindings, intra-module calls
and the package re-exports are all recorded.  Each call becomes one span
(id, parent, name, start, end, op); spans stay in memory until ``write``.
A layer's self time is its span's duration minus the part of that interval
its child spans cover.

Scalar kernels that run once per matrix entry are not wrapped: a span per
entry would cost more than the work it measures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("core_model", "operators", "spectral", "polymap", "bethe",
          "recon", "verify", "serialize", "cli")

KERNELS = {
    "core_model": {"trig_s", "trig_c", "rho", "position_kind", "momentum_kind"},
    "bethe": {"delta_fn", "f_fn", "g_fn"},
    "serialize": {"format_float"},
}


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, start, end, op)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._op = None
        self._patched = []       # (module, attribute, original)

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _parent(self, stack):
        # A worker thread of a pool started inside a span hangs its spans
        # under whatever the starting thread is running.
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, self._op))
        return traced

    def install(self):
        """Wrap the public functions of every layer module."""
        self._main_stack = self._stack()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"tblim.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in KERNELS.get(layer, ())):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tblim" and not mod_name.startswith("tblim."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @contextlib.contextmanager
    def op(self, index, kind):
        """One benchmark operation: a root span named ``op.<kind>`` whose
        index is shared, as ``op``, by every span recorded inside it."""
        stack = self._stack()
        sid = next(self._ids)
        self._op = index
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, None, f"op.{kind}", t0, t1, index))
            self._op = None

    def self_times(self):
        """{span name: (total self seconds, calls)} over all spans."""
        children = defaultdict(list)
        for sid, parent, _name, t0, t1, _op in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        totals = defaultdict(lambda: [0.0, 0])
        for sid, _parent, name, t0, t1, _op in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, t0), min(hi, t1)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            entry = totals[name]
            entry[0] += (t1 - t0) - covered
            entry[1] += 1
        return {name: (s, c) for name, (s, c) in totals.items()}

    def write(self, path):
        """Spans as JSON lines, times in seconds from the first span."""
        base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "op": op,
                                     "start": t0 - base, "end": t1 - base}) + "\n")
