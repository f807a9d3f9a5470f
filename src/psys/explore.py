"""Bounded exhaustive exploration of the computation tree.

Walks every maximal step from the initial configuration breadth-first,
memoizing visited configurations. A configuration seen again, whether
on the same path (a cycle) or another one, is not re-expanded: its
halting descendants were or will be collected from the first visit.

When no budget is hit the computation tree has been enumerated in full
and the collected results are exactly the system's generated number
set. Any budget hit is reported, never silently absorbed.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ._record import Record, set_field
from .engine import Configuration, Engine, StepChoice
from .multiset import Multiset

DEFAULT_MAX_DEPTH = 64
DEFAULT_MAX_TOTAL_OBJECTS = 64
DEFAULT_MAX_BRANCHES = 10_000
DEFAULT_MAX_CONFIGS = 1_000_000
# A walk whose memo reaches this many configurations scans the rest of its
# configurations with a generated enabledness scan (`Engine._generated_scan`).
# Generating costs about 40 µs a rule and saves about 0.03 µs a rule per
# configuration scanned, so the scan pays for itself about a thousand
# configurations later. Most walks are far shorter and never generate it.
COMPILE_AFTER = 1_000


class ExploreBudget(Record):
    max_depth: int
    max_total_objects: int
    max_branches: int
    max_configs: int

    def __init__(
        self,
        max_depth: int = DEFAULT_MAX_DEPTH,
        max_total_objects: int = DEFAULT_MAX_TOTAL_OBJECTS,
        max_branches: int = DEFAULT_MAX_BRANCHES,
        max_configs: int = DEFAULT_MAX_CONFIGS,
    ):
        budgets = (max_depth, max_total_objects, max_branches, max_configs)
        for name, budget in zip(self._fields, budgets):
            if budget < 1:
                raise ValueError(f"{name} must be positive")
            set_field(self, name, budget)


class ExploreOutcome(Record):
    results: frozenset[int]
    exhausted: bool
    halting_leaves: int
    cut_branches: int
    visited_configs: int

    def __init__(self, results, exhausted, halting_leaves, cut_branches, visited_configs):
        set_field(self, "results", results)
        set_field(self, "exhausted", exhausted)
        set_field(self, "halting_leaves", halting_leaves)
        set_field(self, "cut_branches", cut_branches)
        set_field(self, "visited_configs", visited_configs)

    def as_dict(self) -> dict:
        return {
            "results": sorted(self.results),
            "exhausted": self.exhausted,
            "halting_leaves": self.halting_leaves,
            "cut_branches": self.cut_branches,
            "visited": self.visited_configs,
        }


EdgeHook = Callable[[Configuration, StepChoice, Configuration], None]


def _engine(sys) -> Engine:
    """The engine of a system; an Engine passes through as it is."""
    return sys if isinstance(sys, Engine) else Engine(sys)


def explore(
    sys,
    budget: ExploreBudget = ExploreBudget(),
    *,
    start: Optional[Configuration] = None,
    on_edge: Optional[EdgeHook] = None,
) -> ExploreOutcome:
    """Collect the results of all halting computations within budgets.

    `on_edge`, if given, sees every generated (configuration, step,
    successor) edge once, edges into visited successors included.
    """
    engine = _engine(sys)
    return _walk(engine, engine.initial() if start is None else start, budget, on_edge)[0]


def _walk(
    engine: Engine,
    start: Configuration,
    budget: ExploreBudget,
    on_edge: Optional[EdgeHook] = None,
    stop_at_branching: bool = False,
) -> tuple[ExploreOutcome, Optional[Configuration]]:
    """Breadth-first walk from `start`, listing, applying and memoizing count vectors.

    `start` is lowered once onto the engine's layout, and every successor
    keeps that one layout, so the memo set and the queue hold bare count
    tuples: equal tuples are equal contents. The walk scans each
    configuration once with `Engine._enabled`, which decides halting, and
    hands the enabled rules to `Engine._listing`. It adds the engine's net
    tables, made at its first expansion, to build each successor. Once the
    memo holds `COMPILE_AFTER` configurations the walk scans with
    `Engine._generated_scan()` instead; the engine itself never changes.
    It makes a `Configuration` only for the witness, for each halting
    leaf's result and, with `on_edge`, for each expanded configuration and
    successor, and a `StepChoice` only for `on_edge`.

    With `stop_at_branching` the walk ends at the first configuration
    admitting more than one maximal step and returns it as the witness,
    the second element; otherwise the witness is None.
    """
    results: set[int] = set()
    halting_leaves = 0
    cut_branches = 0
    witness = None
    layout, counts = engine._counts(start)
    listing, enabled, nets = engine._listing, engine._enabled, None
    of = Configuration._of
    output = engine.output
    max_depth, max_total = budget.max_depth, budget.max_total_objects
    max_branches, max_configs = budget.max_branches, budget.max_configs
    visited = {counts}
    queue: deque[tuple[tuple[int, ...], int]] = deque([(counts, 0)])
    while queue:
        counts, depth = queue.popleft()
        fits = enabled(counts)
        if not fits:
            halting_leaves += 1
            results.add(of(layout, counts).region_size(output))
            continue
        over = sum(counts) > max_total
        # Past the object budget only halting counts, so the listing is
        # skipped, unless several steps there would make it the witness.
        if stop_at_branching or not over:
            steps, complete = listing(counts, fits, max_branches)
            if stop_at_branching and len(steps) > 1:
                witness = of(layout, counts)
                break
        if over:
            cut_branches += 1
            continue
        if not complete:
            cut_branches += 1
        if depth >= max_depth:
            cut_branches += 1
            continue
        if nets is None:
            nets = engine._net_tables()
        config = None if on_edge is None else of(layout, counts)
        for applications in steps:
            pools = list(counts)
            for index, m in applications:
                for slot, delta in nets[index]:
                    pools[slot] += m * delta
            successor = tuple(pools)
            if config is not None:
                on_edge(config, StepChoice(applications), of(layout, successor))
            if successor in visited:
                continue
            if len(visited) >= max_configs:
                cut_branches += 1
                continue
            visited.add(successor)
            queue.append((successor, depth + 1))
            if len(visited) == COMPILE_AFTER:
                enabled = engine._generated_scan()
    outcome = ExploreOutcome(
        results=frozenset(results),
        exhausted=cut_branches == 0,
        halting_leaves=halting_leaves,
        cut_branches=cut_branches,
        visited_configs=len(visited),
    )
    return outcome, witness


def decide_accept(
    sys, input_objects: Multiset, input_region: int, budget: ExploreBudget = ExploreBudget()
) -> str:
    """Exhaustive acceptance: does any computation on this input halt?

    "rejected_exhaustive" is only returned when the whole (finite,
    cycle-closed) computation graph was enumerated without finding a
    halting configuration, which proves every computation is infinite.
    Raises ValueError for an input region the system does not have.
    """
    engine = _engine(sys)
    outcome = explore(engine, budget, start=engine.initial(input_objects, input_region))
    if outcome.halting_leaves > 0:
        return "accepted"
    if outcome.exhausted:
        return "rejected_exhaustive"
    return "unknown"


class DeterminismVerdict(Record):
    status: str  # "deterministic_up_to_budget" | "nondeterministic" | "unknown"
    witness: Optional[Configuration] = None


def check_deterministic(
    sys, budget: ExploreBudget = ExploreBudget()
) -> DeterminismVerdict:
    """Search reachable configurations for one admitting several maximal steps.

    The walk stops before it could follow more than one step anywhere, so
    it visits exactly the configurations of the single computation.
    """
    engine = _engine(sys)
    outcome, witness = _walk(engine, engine.initial(), budget, stop_at_branching=True)
    if witness is not None:
        return DeterminismVerdict("nondeterministic", witness)
    if outcome.exhausted:
        return DeterminismVerdict("deterministic_up_to_budget")
    return DeterminismVerdict("unknown")
