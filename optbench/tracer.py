"""Span tracing installed from outside the optimizer.

`Tracer.install()` replaces the public module-level functions of each traced
layer with wrappers, both on the defining module and on every other layer
module that imported the function by name (for example `sprinkle.op_plan`
is `costplan.op_plan`), so calls between modules are caught.  Nothing under
`src/` is edited; `uninstall()` puts the originals back.

Two kinds of wrapper:

* timed: records a span (name, start, end, parent) and accumulates self
  time, which is the span's duration minus the time its child spans cover;
* counted: only counts calls.  Used for the small functions called millions
  of times per pass (`op_plan`, `plan_bases`, signature helpers); their time
  stays in the caller's self time.

Spans are kept in memory, up to SPAN_CAP of them, and written out by
`write_spans` when the run ends.  Aggregates keep counting past the cap.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

# The layers the traced run measures.  `analytics` runs on no timed path
# (only the CLI `bench` subcommand uses it) and `cli` is measured end to end
# as subprocesses, so neither is wrapped.
LAYERS = ("catalog", "sqlfront", "memo", "costplan", "forest", "naive",
          "joindag", "sprinkle")
SPAN_CAP = 1_000_000

# Functions that get spans; every other public function is counted only.
TIMED = {
    "catalog": ("load_catalog_file", "load_catalog"),
    "sqlfront": ("parse_query",),
    "memo": ("attach_op", "count_nodes", "dag_to_doc", "dag_from_doc"),
    "costplan": ("enumerate_plans", "intern_plan", "best_plan"),
    "forest": ("expand_forest",),
    "naive": ("build_naive_dag",),
    "joindag": ("build_incremental", "build_complete_history", "query_join_root",
                "save_history", "load_history"),
    "sprinkle": ("optimize_single", "extract_query_joindag", "sprinkle_selects",
                 "place_selects_on_plan", "sprinkle_groupby", "place_groupby_on_plan",
                 "sprinkle_orderby", "place_orderby_on_plan", "sprinkle_projects"),
}


@dataclass(frozen=True)
class Hook:
    """Extra counters around one wrapped function.

    `before(args)` runs ahead of the call and returns a state value;
    `after(counts, parent_span_name, args, result, state)` runs after it.
    """

    after: Callable
    before: Callable | None = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child seconds, span index]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def parent_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self._stack[-1][0] if self._stack else None

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`; returns fn's result."""
        stack = self._stack
        parent = stack[-1] if stack else None
        index = len(self.span_name)
        if index < SPAN_CAP:
            self.span_name.append(self._name_id(name))
            self.span_parent.append(parent[3] if parent else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            index = -1
            self.dropped += 1
        frame = [name, time.perf_counter(), 0.0, index]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[1]
            self.self_s[name] += duration - frame[2]
            self.calls[name] += 1
            if parent is not None:
                parent[2] += duration
            if index >= 0:
                self.span_start[index] = frame[1]
                self.span_end[index] = end

    # -- installation -----------------------------------------------------------

    def _timed_wrapper(self, name: str, fn, hook):
        span = self.span
        if hook is None:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                parent = self.parent_name()
                state = hook.before(args) if hook.before else None
                result = span(name, fn, *args, **kwargs)
                hook.after(self.counts, parent, args, result, state)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_wrapper(self, name: str, fn, hook):
        calls = self.calls
        if hook is None:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                parent = self.parent_name()
                state = hook.before(args) if hook.before else None
                result = fn(*args, **kwargs)
                hook.after(self.counts, parent, args, result, state)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, hooks: dict[str, Hook]) -> None:
        """Wrap every public function of every layer; `hooks` add counters."""
        modules = [importlib.import_module(f"sprinkleqo.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                make = (self._timed_wrapper if attr in TIMED.get(layer, ())
                        else self._counted_wrapper)
                wrappers[id(fn)] = make(name, fn, hooks.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- output -------------------------------------------------------------------

    def self_ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1000.0

    def write_spans(self, path: str, origin: float) -> None:
        """Tab-separated spans: index, name, start/end in µs from origin, parent."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_us\tend_us\tparent\n")
            for i in range(len(self.span_name)):
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                          f"{(self.span_start[i] - origin) * 1e6:.1f}\t"
                          f"{(self.span_end[i] - origin) * 1e6:.1f}\t"
                          f"{self.span_parent[i]}\n")
