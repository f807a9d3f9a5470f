"""Outside-in tracing of psys: wrappers installed from the benchmark's side.

No psys source file is touched. `Tracer.install` replaces, on the modules
already imported, the names the CLI and the register-machine audit call
through, and the Engine, Multiset and Configuration methods that every
layer uses. Spans (name, start, end, parent) stay in memory; `pass_metrics`
turns the spans of one pass into per-layer figures and `write` dumps them.

Times are reported as shares of the traced pass, so a layer a workload
never enters reads 0 on it and `trace.pass_s` converts shares to seconds.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, over budget]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_objects = None  # budget of the explore call in progress

    def reset(self) -> None:
        self.spans, self.stack = [], []
        self.counts.clear()  # the wrappers hold this very Counter

    def _open(self, name: str, over: bool = False) -> list:
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, over]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def install(self) -> None:
        """Wrap the psys modules currently imported."""
        from psys import cli, dsl, engine, multiset, rm

        Engine, Configuration = engine.Engine, engine.Configuration
        tracer, counts = self, self.counts

        dsl.parse_system = self.span("dsl.parse", dsl.parse_system)
        dsl.parse_machine = self.span("dsl.parse", dsl.parse_machine)
        cli.validate = self.span("model.validate", cli.validate)
        rm.compile_machine = self.span("rm.compile", rm.compile_machine)
        rm.verify_compilation = self.span("rm.verify", rm.verify_compilation)

        explore = cli.explore

        def traced_explore(sys_, budget=None, *args, **kwargs):
            outer, tracer.max_objects = tracer.max_objects, budget.max_total_objects
            record = tracer._open("explore")
            try:
                outcome = explore(sys_, budget, *args, **kwargs)
            finally:
                tracer._close(record)
                tracer.max_objects = outer
            counts["explore.visited"] += outcome.visited_configs
            return outcome

        cli.explore = rm.explore = traced_explore

        lines = cli.trace_to_lines

        def traced_lines(engine_, trace):
            # A generator: the span covers consuming it, not creating it.
            record = tracer._open("cli.trace")
            try:
                yield from lines(engine_, trace)
            finally:
                tracer._close(record)

        cli.trace_to_lines = traced_lines

        maximal_steps = Engine.maximal_steps

        def traced_maximal_steps(engine_, c, cap=10_000):
            over = tracer.max_objects is not None and c.total_tracked > tracer.max_objects
            record = tracer._open("engine.maximal_steps", over)
            try:
                choices, complete = maximal_steps(engine_, c, cap)
            finally:
                tracer._close(record)
            counts["engine.maximal_steps.choices"] += len(choices)
            counts["engine.maximal_steps.incomplete"] += not complete
            return choices, complete

        Engine.maximal_steps = traced_maximal_steps
        Engine.apply = self.span("engine.apply", Engine.apply)
        Engine.enabled = self.span("engine.enabled", Engine.enabled)
        Engine.run = self.span("engine.run", Engine.run)
        Engine.__init__ = self.span("engine.init", Engine.__init__)
        Configuration.__hash__ = self.span("configuration.hash", Configuration.__hash__)

        equal = Configuration.__eq__

        def counted_eq(a, b):
            counts["configuration.eq.calls"] += 1
            return equal(a, b)

        Configuration.__eq__ = counted_eq

        # Counted, not timed: it fires millions of times per pass.
        init = multiset.Multiset.__init__

        def counted_init(ms, counts_=()):
            counts["multiset.constructions"] += 1
            init(ms, counts_)

        multiset.Multiset.__init__ = counted_init

    def pass_metrics(self, wall: float, stdout_bytes: int) -> dict[str, float]:
        """Per-layer figures of one traced pass lasting `wall` seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        over_calls, over_time, successors = 0, 0.0, 0
        for i, (name, start, end, parent, over) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
            if over:
                over_calls += 1
                over_time += end - start
            if name == "engine.apply" and parent >= 0 and spans[parent][0] == "explore":
                successors += 1
        c = self.counts
        visited = c["explore.visited"]
        return {
            "engine.maximal_steps.calls": calls["engine.maximal_steps"],
            "engine.maximal_steps.self_share": own["engine.maximal_steps"] / wall,
            "engine.maximal_steps.choices": c["engine.maximal_steps.choices"],
            "engine.maximal_steps.incomplete": c["engine.maximal_steps.incomplete"],
            "engine.maximal_steps.over_budget_calls": over_calls,
            "engine.maximal_steps.over_budget_share": over_time / wall,
            "engine.apply.calls": calls["engine.apply"],
            "engine.apply.share": total["engine.apply"] / wall,
            "engine.enabled.calls": calls["engine.enabled"],
            "engine.enabled.share": total["engine.enabled"] / wall,
            "engine.run.self_share": own["engine.run"] / wall,
            "engine.init.calls": calls["engine.init"],
            "engine.init.share": total["engine.init"] / wall,
            "multiset.constructions": c["multiset.constructions"],
            "configuration.hash.calls": calls["configuration.hash"],
            "configuration.hash.share": total["configuration.hash"] / wall,
            "configuration.eq.calls": c["configuration.eq.calls"],
            "explore.calls": calls["explore"],
            "explore.self_share": own["explore"] / wall,
            "explore.visited": visited,
            "explore.successors": successors,
            # New configurations (all visited but each start) per successor generated.
            "explore.new_ratio": (visited - calls["explore"]) / successors if successors else 0.0,
            "rm.compile.share": total["rm.compile"] / wall,
            "rm.verify.self_share": own["rm.verify"] / wall,
            "dsl.parse.calls": calls["dsl.parse"],
            "dsl.parse.share": total["dsl.parse"] / wall,
            "model.validate.calls": calls["model.validate"],
            "model.validate.share": total["model.validate"] / wall,
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_share": own["cli.main"] / wall,
            "cli.stdout_bytes": stdout_bytes,
            "cli.trace.share": total["cli.trace"] / wall,
        }

    def write(self, path: Path) -> None:
        """Dump the spans held in memory, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, over in self.spans:
                record = {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
                if over:
                    record["over_budget"] = True
                out.write(json.dumps(record) + "\n")
