"""In-memory span recorder for the traced benchmark run.

``install`` replaces each target function with a timing wrapper, both where
it is defined and in every listed module that imported it by name, and
``uninstall`` puts the originals back.  A span is (name, start, end, parent,
root); spans of one op share the root op span.  Self time is computed online:
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array


class Recorder:
    """Spans and per-name totals (calls, inclusive ns, self ns)."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = []
        self.totals: dict[str, list[int]] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_root = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.dropped = 0
        # One frame per open span: [child ns, span index or -1 when dropped].
        self.stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.totals:
            self.totals[name] = [0, 0, 0]
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> list[int]:
        index = len(self.span_name)
        if index >= self.max_spans:
            self.dropped += 1
            index = -1
        else:
            parent = self.stack[-1][1] if self.stack else -1
            root = self.span_root[self.stack[0][1]] if self.stack and self.stack[0][1] >= 0 else index
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_root.append(root)
            self.span_start.append(0)
            self.span_end.append(0)
        frame = [0, index]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list[int], totals: list[int], start: int, end: int) -> None:
        self.stack.pop()
        duration = end - start
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - frame[0]
        if self.stack:
            self.stack[-1][0] += duration
        if frame[1] >= 0:
            self.span_start[frame[1]] = start
            self.span_end[frame[1]] = end

    def wrap(self, name: str, fn, observe=None):
        """A wrapper that records one span per call; ``observe(args, result, ns)``
        sees each call that returns."""
        name_id = self._name_id(name)
        totals = self.totals[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(frame, totals, start, end)
            if observe is not None:
                observe(args, result, end - start)
            return result

        return traced

    def root(self, name: str, fn):
        """Run ``fn`` as a root span (one benchmark op)."""
        return self.wrap(name, fn)()

    def install(self, targets, observers, module_prefixes) -> None:
        """Patch each ``(span name, module, attribute path)`` target.

        A dotted path patches a class attribute, which every caller reaches
        through the class; a plain name is also patched in every loaded module
        under ``module_prefixes`` that bound the same function object.
        """
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith(module_prefixes)
        ]
        for span_name, module_name, path in targets:
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(span_name, original, observers.get(span_name))
            self._patch(owner, attr, original, wrapper)
            if owner_path:
                continue
            for mod in modules:
                if mod is not owner and vars(mod).get(attr) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON header line, then one [name, start ns, end ns, parent, root]
        line per recorded span."""
        with open(path, "w") as out:
            out.write(json.dumps({"names": self.names, "dropped": self.dropped}) + "\n")
            for k in range(len(self.span_name)):
                out.write(
                    f"[{self.span_name[k]},{self.span_start[k]},{self.span_end[k]},"
                    f"{self.span_parent[k]},{self.span_root[k]}]\n"
                )
