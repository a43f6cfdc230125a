"""Spans around calls into slope_lab's public functions, recorded from outside.

A traced round replaces chosen functions of the package with wrappers that
record one span per call: name, start, end and the span that was open when
the call began on the same thread.  Spans stay in memory until the round
writes them out.  Nothing inside the package changes; an untraced round
installs no wrapper at all.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, thread)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name, on_result=None):
        """Return a wrapper of ``fn`` that records a span named ``name``."""

        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, parent, name, start, end, threading.get_ident()))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def instrument(self, fn, name, on_result=None):
        """Trace every call to ``fn`` made through any slope_lab module.

        The package imports names across its modules (``cli`` holds its own
        reference to ``mc.run_coverage``), so each module namespace that
        refers to ``fn`` gets the wrapper.
        """
        traced = self.wrap(fn, name, on_result)
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "slope_lab" or mod_name.startswith("slope_lab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
                    found = True
        if not found:
            raise LookupError(f"{name}: no slope_lab module refers to {fn!r}")
        return traced

    def instrument_method(self, cls, attr, name):
        setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    def write(self, path, round_index):
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, name, start, end, thread in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "round": round_index,
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def self_times(spans, root=None):
    """Seconds per span name: each span's duration minus its children's.

    With ``root`` (a span id), only that span and its descendants count.
    """
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        by_id[s[0]] = s
        children[s[1]].append(s)
    keep = set(by_id)
    if root is not None:
        keep, todo = set(), [root]
        while todo:
            sid = todo.pop()
            keep.add(sid)
            todo.extend(c[0] for c in children[sid])
    out = defaultdict(float)
    for sid in keep:
        _, _, name, start, end, _ = by_id[sid]
        covered = sum(c[4] - c[3] for c in children[sid])
        out[name] += (end - start) - covered
    return dict(out)


def total_times(spans):
    """Seconds per span name, counting each span's whole duration."""
    out = defaultdict(float)
    for _, _, name, start, end, _ in spans:
        out[name] += end - start
    return dict(out)


def root_id(spans, name):
    for s in spans:
        if s[2] == name and s[1] is None:
            return s[0]
    raise LookupError(f"no root span named {name!r}")
