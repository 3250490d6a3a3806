"""Outside-in tracing: spans around calls into the hfroots layers.

`Tracer.install()` replaces public functions at their call-site module
attributes (in `hfroots.hfcore`, `hfroots.cli` and `hfroots.plumbing`) with
wrappers.  Each wrapper pushes a frame on one span stack, so a span's self
time is its duration minus the time of the spans nested inside it.  A span
records its document, its id, its parent's id (0 at the top), its name,
start and duration.  Spans stay in memory until `dump()`.  Nothing in the
package is edited; calls a module makes to its own private helpers are not
seen.

Span names are `<layer>.<function>`, the layer being the module that defines
the function, so `hfcore.root_from_tau` is traced as `root.root_from_tau`.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from collections import defaultdict
from math import prod

import hfroots.cli
import hfroots.hfcore
import hfroots.plumbing


class Tracer:
    def __init__(self):
        self.doc = -1
        self._stack: list[list[int]] = []  # per open span: [child_ns, id]
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []  # (doc, id, parent, name, start_ns, dur_ns, self_ns)
        self.sizes: dict[str, list] = defaultdict(list)  # name -> [doc, x, dur_ns]
        self.counts: dict[str, int] = defaultdict(int)
        self._tau_len: dict[int, int] = {}  # id(root) -> len(tau), per document
        self._resolution = hfroots.plumbing.embedded_resolution

    # -- wrappers -------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            frame = [0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                spans.append((self.doc, frame[1], parent, name, start, dur, dur - frame[0]))
            if observe is not None:
                observe(args, return_value, dur)
                if stack:  # keep the counting out of the caller's self time
                    stack[-1][0] += clock() - end
            return return_value

        return traced

    def install(self):
        """Wrap the call sites; return the traced `cli.main`."""
        observers = {
            ("hfcore", "root_from_tau"): self._on_root,
            ("hfcore", "module_from_root"): self._on_module,
            ("hfcore", "grading_shift"): self._on_shift,
            ("plumbing", "laufer_sequence"): self._on_laufer,
            ("plumbing", "sublevel_root"): self._on_sublevel,
        }
        sites = (
            (hfroots.hfcore, True),
            (hfroots.cli, False),  # cli's own functions belong to cli.main
            (hfroots.plumbing, True),
        )
        for module, own in sites:
            site = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                origin = getattr(obj, "__module__", None) or ""
                if not origin.startswith("hfroots.") or (origin == module.__name__ and not own):
                    continue
                name = f"{origin.rsplit('.', 1)[-1]}.{attr}"
                setattr(module, attr, self.wrap(name, obj, observers.get((site, attr))))
        return self.wrap("cli.main", hfroots.cli.main)

    # -- size counters, taken from arguments and return values ----------

    def _record(self, name, x, dur):
        self.sizes[name].append([self.doc, x, dur])

    def _on_root(self, args, root, dur):
        n = len(args[0])
        self._tau_len[id(root)] = n
        self.counts["hfcore.tau_len"] += n
        self.counts["root.leaves"] += len(root.leaves)
        self.counts["root.vertices"] += len(root)
        self._record("root.root_from_tau", n, dur)

    def _on_module(self, args, module, dur):
        n = self._tau_len.get(id(args[0]))
        if n is not None:
            self._record("root.module_from_root", n, dur)

    def _on_shift(self, args, shift, dur):
        self._record("hfcore.grading_shift", args[0].p, dur)

    def _on_laufer(self, args, result, dur):
        steps = sum(result[1][-1])
        self.counts["plumbing.laufer_steps"] += steps
        self._record("plumbing.laufer_sequence", steps, dur)

    def _on_sublevel(self, args, result, dur):
        self.counts["plumbing.box_volume"] += prod(max(hi - lo + 1, 0) for lo, hi in args[3])

    # -- results --------------------------------------------------------

    def start_doc(self, index: int):
        self.doc = index
        self._tau_len.clear()

    def summary(self) -> dict:
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        for _, _, _, name, _, _, own in self.spans:
            self_ns[name] += own
            calls[name] += 1
        info = self._resolution.cache_info()
        lookups = info.hits + info.misses
        return {
            "self_ns": dict(self_ns),
            "calls": dict(calls),
            "sizes": dict(self.sizes),
            "counts": dict(self.counts),
            "embedded_resolution_hit_ratio": info.hits / lookups if lookups else 0.0,
        }

    def dump(self, path: str):
        fields = ("doc", "id", "parent", "name", "start_ns", "dur_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)
