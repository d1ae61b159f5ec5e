"""Span recorder for the traced run.

The tracer wraps module attributes from outside the package: each wrapped
function is replaced, under the name its callers look up, by a wrapper that
records a span (name, start, end, parent span) in memory. Hot leaves (the
scalar draws of ``randkit``, called once per observation or per stick) are
not recorded one span per call; they are aggregated per parent span as a
call count, total time and a work count.

A span's self time is its duration minus the durations of its child spans
and of the leaf calls aggregated under it. Self times telescope: summed over
every span and leaf they equal the total duration of the root spans.
"""
from __future__ import annotations

import itertools
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT = 0


class Tracer:
    """In-memory span and leaf-aggregate recorder.

    ``clock`` returns integer nanoseconds; tests pass a fake clock.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        # (span id, parent id, name, start ns, end ns, work count)
        self.spans: list[tuple] = []
        # leaf name -> parent id -> [calls, total ns, work count]
        self.leaves: dict[str, dict[int, list]] = {}
        self._stack = [ROOT]
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def wrap_span(self, name: str, fn, work=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``work(args, kwargs, result)`` gives the span's work count.
        """
        clock, stack, spans, ids = self.clock, self._stack, self.spans, self._ids

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, 0))
                raise
            end = clock()
            stack.pop()
            count = work(args, kwargs, result) if work is not None else 0
            spans.append((sid, parent, name, start, end, count))
            return result

        return wrapper

    def wrap_leaf(self, name: str, fn, work=None):
        """Return ``fn`` wrapped so that its calls are aggregated per parent
        span. A leaf must not call other wrapped functions."""
        clock, stack = self.clock, self._stack
        table = self.leaves.setdefault(name, {})

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            entry = table.get(stack[-1])
            if entry is None:
                entry = table[stack[-1]] = [0, 0, 0]
            entry[0] += 1
            entry[1] += elapsed
            if work is not None:
                entry[2] += work(args, kwargs, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, leaf: bool = False,
              work=None) -> None:
        """Replace ``module.attr`` by its traced wrapper until :meth:`unpatch`."""
        original = getattr(module, attr)
        wrap = self.wrap_leaf if leaf else self.wrap_span
        setattr(module, attr, wrap(name, original, work))
        self._patches.append((module, attr, original))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write_csv(self, path) -> None:
        """Write spans, then leaf aggregates, as one CSV."""
        with open(path, "w") as fh:
            fh.write("kind,id,parent,name,start_ns,end_ns,calls,ns,work\n")
            for sid, parent, name, start, end, work in self.spans:
                fh.write(f"span,{sid},{parent},{name},{start},{end},1,"
                         f"{end - start},{work}\n")
            for name, table in self.leaves.items():
                for parent, (calls, ns, work) in table.items():
                    fh.write(f"leaf,,{parent},{name},,,{calls},{ns},{work}\n")


@dataclass
class NameStats:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    work: int = 0


class Profile:
    """Self times and counts derived from one tracer's records."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        child_ns: dict[int, int] = defaultdict(int)
        self.parent_of: dict[int, int] = {}
        self.name_of: dict[int, str] = {}
        for sid, parent, name, start, end, _ in tracer.spans:
            child_ns[parent] += end - start
            self.parent_of[sid] = parent
            self.name_of[sid] = name
        for table in tracer.leaves.values():
            for parent, (_, ns, _) in table.items():
                child_ns[parent] += ns
        self.stats: dict[str, NameStats] = defaultdict(NameStats)
        self.root_ns = 0
        for sid, parent, name, start, end, work in tracer.spans:
            s = self.stats[name]
            s.calls += 1
            s.total_ns += end - start
            s.self_ns += end - start - child_ns[sid]
            s.work += work
            if parent == ROOT:
                self.root_ns += end - start
        for name, table in tracer.leaves.items():
            for parent, (calls, ns, work) in table.items():
                s = self.stats[name]
                s.calls += calls
                s.total_ns += ns
                s.self_ns += ns
                s.work += work
                if parent == ROOT:
                    self.root_ns += ns
        self._sampler_memo: dict[int, str | None] = {ROOT: None}

    def module_self_ns(self) -> dict[str, int]:
        """Self time summed per module, the part of a name before the first dot."""
        out: dict[str, int] = defaultdict(int)
        for name, s in self.stats.items():
            out[name.split(".", 1)[0]] += s.self_ns
        return dict(out)

    def sampler_of(self, sid: int) -> str | None:
        """Sampler of the nearest enclosing ``samplers.<kind>.sweep`` span."""
        path = []
        while sid not in self._sampler_memo:
            name = self.name_of[sid]
            if name.startswith("samplers.") and name.endswith(".sweep"):
                self._sampler_memo[sid] = name[len("samplers."):-len(".sweep")]
                break
            path.append(sid)
            sid = self.parent_of[sid]
        found = self._sampler_memo[sid]
        for p in path:
            self._sampler_memo[p] = found
        return found

    def leaf_by_sampler(self, leaf: str) -> dict[str | None, list]:
        """Leaf aggregates ([calls, ns, work]) summed per enclosing sampler."""
        out: dict[str | None, list] = defaultdict(lambda: [0, 0, 0])
        for parent, (calls, ns, work) in self.tracer.leaves.get(leaf, {}).items():
            entry = out[self.sampler_of(parent)]
            entry[0] += calls
            entry[1] += ns
            entry[2] += work
        return dict(out)
