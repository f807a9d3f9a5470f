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

import random
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

from .engine import Configuration, Engine, StepChoice
from .model import (
    CellAntiport,
    CellPSystem,
    CellRule,
    MembraneStructure,
    SymportIn,
    SymportOut,
    validate_cell,
)
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


@dataclass(frozen=True)
class ExploreBudget:
    max_depth: int = DEFAULT_MAX_DEPTH
    max_total_objects: int = DEFAULT_MAX_TOTAL_OBJECTS
    max_branches: int = DEFAULT_MAX_BRANCHES
    max_configs: int = DEFAULT_MAX_CONFIGS

    def __post_init__(self):
        for budget in fields(self):
            if getattr(self, budget.name) < 1:
                raise ValueError(f"{budget.name} must be positive")


@dataclass(frozen=True)
class ExploreOutcome:
    results: frozenset[int]
    exhausted: bool
    halting_leaves: int
    cut_branches: int
    visited_configs: int

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

    `on_edge` is an instrumentation hook for property harnesses; it sees
    every generated (configuration, step, successor) edge once.
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


@dataclass(frozen=True)
class DeterminismVerdict:
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
    return _verdict(*_walk(engine, engine.initial(), budget, stop_at_branching=True))


def _verdict(outcome: ExploreOutcome, witness: Optional[Configuration]) -> DeterminismVerdict:
    if witness is not None:
        return DeterminismVerdict("nondeterministic", witness)
    if outcome.exhausted:
        return DeterminismVerdict("deterministic_up_to_budget")
    return DeterminismVerdict("unknown")


@dataclass(frozen=True)
class HarnessReport:
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_shrinking_minimal_system(rng: random.Random) -> CellPSystem:
    """One-membrane system whose rules provably cannot grow the inside count.

    Rule forms: symport-out of one or two objects, and one-for-one
    antiport. An antiport (a, out; b, in) is only emitted when a is in
    the unlimited supply or b is not: otherwise each firing adds a to
    the tracked environment remainder while drawing b from the unlimited
    pool, growing the tracked total without bound.

    Symport-in is deliberately absent: a rule (x, in) at the skin can
    re-import objects previously sent out, raising the inside count
    mid-run even in systems the validator accepts.
    """
    alphabet = [f"o{i}" for i in range(rng.randint(1, 4))]
    env = frozenset(name for name in alphabet if rng.random() < 0.4)
    rules = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.5:
            objects = Multiset(rng.choices(alphabet, k=rng.randint(1, 2)))
            rules.append(CellRule(1, SymportOut(objects)))
        else:
            # Never empty: an `a` in env pairs with every `b`; with none, no `b` is in env.
            candidates = [(a, b) for a in alphabet for b in alphabet if a in env or b not in env]
            a, b = rng.choice(candidates)
            rules.append(CellRule(1, CellAntiport(Multiset([a]), Multiset([b]))))
    init = Multiset(rng.choices(alphabet, k=rng.randint(0, 4)))
    return CellPSystem(
        alphabet=alphabet,
        structure=MembraneStructure(1),
        init={1: init},
        env_support=env,
        rules=rules,
        output=1,
    )


def harness_monotone_minimal(sample_count: int, seed: int) -> HarnessReport:
    """Random one-membrane minimal systems: the inside count never grows.

    For each sample, checks three things: the inside count is
    non-increasing across every explored edge, exploration bounded by
    the initial inside count exhausts the whole tree, and every halting
    result is at most the initial inside count.
    """
    rng = random.Random(seed)
    violations: list[str] = []
    for k in range(sample_count):
        sys = _random_shrinking_minimal_system(rng)
        report = validate_cell(sys)
        if not report.ok:
            violations.append(f"sample {k}: generator produced an invalid system: {report}")
            continue
        initial_inside = sys.initial_contents(1).size

        def watch_edge(config, choice, successor, _k=k):
            if successor.total_inside > config.total_inside:
                violations.append(
                    f"sample {_k}: inside count grew {config.total_inside} -> "
                    f"{successor.total_inside} on {choice}"
                )

        budget = ExploreBudget(max_depth=4096, max_total_objects=max(initial_inside, 1))
        outcome = explore(sys, budget, on_edge=watch_edge)
        if not outcome.exhausted:
            violations.append(
                f"sample {k}: exploration bounded by the initial size did not exhaust"
            )
        for value in outcome.results:
            if value > initial_inside:
                violations.append(
                    f"sample {k}: result {value} exceeds initial inside count "
                    f"{initial_inside}"
                )
    return HarnessReport(checked=sample_count, violations=tuple(violations))


def _is_minimal_cell_rule(rule: CellRule) -> bool:
    form = rule.form
    if isinstance(form, (SymportIn, SymportOut)):
        return form.objects.size <= 2
    return form.outbound.size == 1 and form.inbound.size == 1


def harness_deterministic_minimal(
    corpus: Sequence[CellPSystem], budget: ExploreBudget = ExploreBudget()
) -> HarnessReport:
    """Deterministic minimal systems: halting runs never exceed the initial total.

    Each corpus entry must use only minimal rules (symport of at most
    two objects, one-for-one antiport), be deterministic within the
    budget, and halt; the harness checks the inside total against the
    initial total on every step of its single computation.
    """
    violations: list[str] = []
    for k, sys in enumerate(corpus):
        if not all(_is_minimal_cell_rule(rule) for rule in sys.rules):
            violations.append(f"system {k}: has non-minimal rules")
            continue
        report = validate_cell(sys)
        if not report.ok:
            violations.append(f"system {k}: invalid: {report}")
            continue
        engine = Engine(sys)
        start = engine.initial()
        exceeds: list[str] = []

        def watch_edge(config, choice, successor, _k=k, _total=start.total_inside):
            if successor.total_inside > _total:
                exceeds.append(
                    f"system {_k}: inside total {successor.total_inside} exceeds initial {_total}"
                )

        # Stopping at the first branching, the walk sees each edge of the single computation once.
        outcome, witness = _walk(engine, start, budget, watch_edge, stop_at_branching=True)
        verdict = _verdict(outcome, witness)
        if verdict.status != "deterministic_up_to_budget":
            violations.append(
                f"system {k}: not certified deterministic ({verdict.status})"
            )
            continue
        violations += exceeds
        if not outcome.halting_leaves:
            violations.append(
                f"system {k}: no halting computation within {budget.max_depth} steps; "
                "corpus entries must halt"
            )
    return HarnessReport(checked=len(corpus), violations=tuple(violations))
