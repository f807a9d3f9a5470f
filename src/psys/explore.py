"""Bounded exhaustive exploration of the computation tree.

Walks every maximal step from the initial configuration breadth-first,
memoizing visited configurations. A configuration seen again, whether
on the same path (a cycle) or another one, is not re-expanded: its
halting descendants were or will be collected from the first visit.

When no budget is hit the computation tree has been enumerated in full
and the collected results are exactly the system's generated number
set. Any budget hit is reported, never silently absorbed.

`psys/__init__.py` binds the function `explore` over this module's name,
so `m.COMPILE_AFTER = 2` after `import psys.explore as m` changes no walk;
set it on `importlib.import_module("psys.explore")`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ._record import Record, set_field
from .engine import Configuration, Engine, StepChoice
from .multiset import Multiset

DEFAULT_MAX_DEPTH = 64
DEFAULT_MAX_TOTAL_OBJECTS = 64
DEFAULT_MAX_BRANCHES = 10_000
DEFAULT_MAX_CONFIGS = 1_000_000
# A walk expands with `Engine._expand` until a level leaves this many
# configurations in its memo, then with a generated step
# (`Engine._generated_step`): the break-even, where generating costs what the
# interpreted expansion has lost so far. Generating costs about 30 µs a rule
# (0.3-0.4 ms for `transfer`'s 9 rules, 2.4-2.8 ms for the ring's 88); the
# generated step saves 0.7-0.8 µs a configuration on `transfer`, 2.1-2.8 µs
# on the ring and 0.4-0.6 µs on the compiled machine population: break-evens
# of about 450-570, 850-1,300 and 800-1,050 configurations (CPython 3.11,
# 2-core VM). At 500 none of them pays more than about 1.7 times the better
# of generating at once and never generating.
COMPILE_AFTER = 500


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
    """Breadth-first walk from `start`, expanding and memoizing count vectors.

    `start` is lowered once onto the engine's layout, which every successor
    keeps, so the memo set and the per-depth lists hold bare count tuples:
    equal tuples are equal contents. Each level is expanded, in order, into
    one list of successors; one loop then memoizes that list into the next
    level, hashing each successor once. `Engine._expand` expands a vector:
    it returns the one successor of a vector whose enabled rules contend
    for no slot, or the enabled rules of any other, which decides halting;
    `Engine._listing` lists the contended vector's steps and the net tables
    build their successors. A vector over the object budget is only tested
    for halting, unless the walk seeks a witness. Once a level leaves
    `COMPILE_AFTER` configurations in the memo, `Engine._generated_step`,
    the same contract unrolled, expands instead. The engine never changes.
    A `Configuration` is made only for the witness, for each halting leaf's
    result and, with `on_edge`, for each edge's ends; a `StepChoice` only
    for `on_edge`.

    With `stop_at_branching` the walk ends at the first configuration
    admitting more than one maximal step and returns it as the witness,
    the second element; otherwise the witness is None.
    """
    results: set[int] = set()
    halting_leaves = cut_branches = 0
    witness = None
    layout, counts = engine._counts(start)
    listing, enabled, nets = engine._listing, engine._enabled, engine._nets
    step = expand = engine._expand
    of, output = Configuration._of, engine.output
    max_depth, max_total = budget.max_depth, budget.max_total_objects
    max_branches, max_configs = budget.max_branches, budget.max_configs
    visited, size, level, depth, limit = {counts}, 1, [counts], 0, max_total
    while level and witness is None:
        successors = []
        append = successors.append
        for counts in level:
            total = sum(counts)
            if total <= limit:
                successor, fits = step(counts)
                if successor is not None:
                    append(successor)
                    if on_edge is not None:
                        choice = StepChoice(tuple(enabled(counts)))
                        on_edge(of(layout, counts), choice, of(layout, successor))
                    continue
            elif stop_at_branching or total <= max_total:
                # At the depth budget, or over the object budget in a search
                # for a witness: a vector with one step is cut, the others listed.
                successor, fits = step(counts)
                if successor is not None:
                    cut_branches += 1
                    continue
            else:
                # Over the object budget a vector is only tested for halting.
                fits = enabled(counts)
                if fits:
                    cut_branches += 1
                    continue
            if not fits:
                halting_leaves += 1
                results.add(of(layout, counts).region_size(output))
                continue
            steps, complete = listing(counts, fits, max_branches)
            if stop_at_branching and len(steps) > 1:
                witness = of(layout, counts)
                break
            if total > limit:
                # Not expanded: one cut, and one more for a listing the branch
                # budget cut short within the object budget.
                cut_branches += 1 + (not complete and total <= max_total)
                continue
            cut_branches += not complete
            made = []
            for applications in steps:
                pools = list(counts)
                for index, m in applications:
                    for slot, delta in nets[index]:
                        pools[slot] += m * delta
                made.append(tuple(pools))
            successors += made
            if on_edge is not None:
                config = of(layout, counts)
                for applications, successor in zip(steps, made):
                    on_edge(config, StepChoice(applications), of(layout, successor))
        # The memo takes the level's successors in the order they were made,
        # so the `max_configs` cut falls where a configuration-by-configuration
        # walk would put it.
        level = []
        for successor in successors:
            visited.add(successor)
            if len(visited) == size:
                continue
            if size >= max_configs:
                visited.discard(successor)
                cut_branches += 1
                continue
            size += 1
            level.append(successor)
        if size >= COMPILE_AFTER and step is expand:
            step = engine._generated_step(len(counts))
        depth += 1
        # At the depth budget every vector is over `limit`, so none is
        # expanded and the walk ends with that level.
        if depth == max_depth:
            limit = -1
    outcome = ExploreOutcome(
        results=frozenset(results),
        exhausted=cut_branches == 0,
        halting_leaves=halting_leaves,
        cut_branches=cut_branches,
        visited_configs=size,
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
