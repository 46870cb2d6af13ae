"""Spans around solvsplit's public functions, installed for the traced run only.

Each wrapped function is replaced by a wrapper in its defining module and in
every solvsplit module that bound it with `from .x import name`, so calls
between layers are seen as well as calls from the benchmark.  A span is
(name, start, end, parent span, operation id); spans stay in memory until
the benchmark writes them out.  Self time is a span's duration minus the
durations of its direct children, which never overlap in one thread.
"""

from __future__ import annotations

import json
import sys
import time

WRAPPED = {
    "cli": ("run",),
    "core_algebra": ("parse_matrix", "format_matrix"),
    "conjugacy": ("cyclic_word", "are_conjugate", "represent_unit", "classes_of_trace"),
    "classification": ("classify", "standard_form", "splitting_descriptors"),
    "centralizer": ("is_reversible", "centralizer_description"),
    "commensurability": ("virtually_conjugate", "intertwiner"),
    "modular_geometry": ("axis", "hits_order2_cone", "render_figure"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []  # [span id, child time] of open spans
        self._depth = {}
        self._patches = []
        self.reset()

    def reset(self):
        """Start a new window of per-function totals and output counters."""
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.busy = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = {
            "word_letters": 0,
            "word_blocks": 0,
            "nested_word_calls": 0,
            "classes_returned": 0,
            "genus2": 0,
            "index_sum": 0,
            "index_one": 0,
            "svg_bytes": 0,
        }

    def install(self):
        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "solvsplit"]
        for mod, fns in WRAPPED.items():
            home = sys.modules[f"solvsplit.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def _wrap(self, name, original):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            frame = [sid, 0.0]
            self._stack.append(frame)
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._depth[name] = depth
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans[sid] = (name, start, end, parent, self.op_id)
                self.calls[name] += 1
                self.self_time[name] += dur - frame[1]
                if depth == 0:
                    self.busy[name] += dur
            self._observe(name, result, depth)
            return result

        return wrapper

    def _observe(self, name, result, depth):
        c = self.counts
        if name == "conjugacy.cyclic_word":
            c["word_letters"] += sum(result[1].exponents)
            c["word_blocks"] += len(result[1].exponents)
            if self._depth.get("conjugacy.classes_of_trace"):
                c["nested_word_calls"] += 1
        elif name == "conjugacy.classes_of_trace" and depth == 0:
            c["classes_returned"] += len(result)
        elif name == "classification.classify":
            c["genus2"] += result.genus == 2
        elif name == "commensurability.intertwiner" and result is not None:
            c["index_sum"] += result.index
            c["index_one"] += result.index == 1
        elif name == "modular_geometry.render_figure":
            c["svg_bytes"] += len(result.encode())

    def layer_metrics(self):
        """Per-function totals of the current window, by metric name."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.busy_s"] = self.busy[name]
            out[f"{name}.self_s"] = self.self_time[name]
        return out

    def counter_metrics(self):
        c = self.counts
        calls = self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "conjugacy.word_letters": c["word_letters"],
            "conjugacy.word_blocks": c["word_blocks"],
            "conjugacy.classes_per_word_call": ratio(c["classes_returned"], c["nested_word_calls"]),
            "classification.genus2_share": ratio(c["genus2"], calls["classification.classify"]),
            # indices of non-conjugate pairs run past 2**64; a float keeps the
            # result line readable by any JSON parser
            "commensurability.index_sum": float(c["index_sum"]),
            "commensurability.shortcut_ratio": ratio(
                c["index_one"], calls["commensurability.intertwiner"]
            ),
            "modular_geometry.svg_bytes": c["svg_bytes"],
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                span = {"id": sid, "name": name, "start": start, "end": end,
                        "parent": parent, "op": op}
                fh.write(json.dumps(span) + "\n")
