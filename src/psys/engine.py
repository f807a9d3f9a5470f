"""Exact maximally-parallel operational semantics.

Every rule form reduces to the same shape: consume some multisets at
some nodes, then produce some multisets at some nodes. The engine
normalizes a system once, then enumerates maximal steps, applies them
in two phases (all consumption from the old configuration, then all
production), detects halting and extracts results.

Node 0 is the environment. Objects in the system's unlimited supply are
never tracked there; everything else accumulates in a finite remainder.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from .model import (
    CellPSystem,
    PSystem,
    SymportIn,
    SymportOut,
    TissuePSystem,
    TissueSymport,
    UniportRule,
    cell_rule_text,
    interaction_rule_text,
    tissue_rule_text,
)
from .multiset import EMPTY, EnvContent, Multiset, MultisetUnderflow


class UnboundedStepError(Exception):
    """A rule can apply any number of times at once.

    Only happens on systems that skip validation: every check rejects
    rules drawing solely on the unlimited environment supply.
    """


class Configuration:
    """Immutable snapshot: one multiset per region plus the environment."""

    __slots__ = ("regions", "env", "_hash")

    def __init__(self, regions: Mapping[int, Multiset], env: EnvContent):
        object.__setattr__(self, "regions", dict(regions))
        object.__setattr__(self, "env", env)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def region(self, label: int) -> Multiset:
        return self.regions[label]

    @property
    def total_inside(self) -> int:
        return sum(ms.size for ms in self.regions.values())

    @property
    def total_tracked(self) -> int:
        """All finitely-tracked objects: every region plus the env remainder."""
        return self.total_inside + self.env.finite.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.regions == other.regions and self.env == other.env

    def __hash__(self) -> int:
        if self._hash is None:
            key = (tuple(sorted(self.regions.items())), self.env)
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def __repr__(self) -> str:
        inside = ", ".join(f"{label}: {ms}" for label, ms in sorted(self.regions.items()))
        return f"<Configuration {{{inside}}} env {self.env.finite}>"


@dataclass(frozen=True)
class TransferRule:
    """Normalized rule: per-node consumption and production."""

    index: int
    rid: str
    text: str
    consume: tuple[tuple[int, Multiset], ...]
    produce: tuple[tuple[int, Multiset], ...]


@dataclass(frozen=True)
class StepChoice:
    """One maximally parallel step: rule index -> positive multiplicity."""

    applications: tuple[tuple[int, int], ...]

    def multiplicity(self, rule_index: int) -> int:
        for index, count in self.applications:
            if index == rule_index:
                return count
        return 0

    @property
    def total_applications(self) -> int:
        return sum(count for _, count in self.applications)


@dataclass
class TraceStep:
    choice: StepChoice
    after: Configuration
    note: Optional[str] = None


@dataclass
class Trace:
    initial: Configuration
    steps: list[TraceStep] = field(default_factory=list)
    halted: bool = False

    @property
    def steps_taken(self) -> int:
        return len(self.steps)

    @property
    def final(self) -> Configuration:
        return self.steps[-1].after if self.steps else self.initial

    def configurations(self) -> Iterator[Configuration]:
        yield self.initial
        for step in self.steps:
            yield step.after


def _merge(parts: list[tuple[int, Multiset]]) -> tuple[tuple[int, Multiset], ...]:
    # Multisets are immutable, so a node's only part is kept as it is.
    by_node: dict[int, Multiset] = {}
    for node, ms in parts:
        by_node[node] = by_node[node] + ms if node in by_node else ms
    return tuple(sorted(by_node.items()))


def _moves(sys: PSystem, rule) -> tuple[str, list[tuple[int, Multiset, int]]]:
    """Display text of one rule and the (src, objects, dst) moves it makes."""
    if isinstance(sys, CellPSystem):
        inner, outer, form = rule.region, sys.structure.outer(rule.region), rule.form
        text = f"{cell_rule_text(rule)} @ {inner}"
        if isinstance(form, SymportIn):
            return text, [(outer, form.objects, inner)]
        if isinstance(form, SymportOut):
            return text, [(inner, form.objects, outer)]
        return text, [(inner, form.outbound, outer), (outer, form.inbound, inner)]
    if isinstance(sys, TissuePSystem):
        text = tissue_rule_text(rule)
        if isinstance(rule, TissueSymport):
            return text, [(rule.src, rule.objects, rule.dst)]
        return text, [(rule.src, rule.outbound, rule.dst), (rule.dst, rule.inbound, rule.src)]
    text = interaction_rule_text(rule)
    if isinstance(rule, UniportRule):
        return text, [(rule.src, Multiset([rule.obj]), rule.dst)]
    return text, [
        (rule.src_a, Multiset([rule.obj_a]), rule.dst_a),
        (rule.src_b, Multiset([rule.obj_b]), rule.dst_b),
    ]


def normalize_rules(sys: PSystem) -> tuple[TransferRule, ...]:
    """Express every rule of the system as node-indexed transfers.

    A rule consumes the merge of its moves' sources and produces the
    merge of their destinations. Rule order is preserved and identifiers
    are positional (r1, r2, ...), so systems derived from each other
    rule-for-rule keep aligned ids.
    """
    out = []
    for pos, rule in enumerate(sys.rules):
        text, moves = _moves(sys, rule)
        consume = _merge([(src, objects) for src, objects, _ in moves])
        produce = _merge([(dst, objects) for _, objects, dst in moves])
        out.append(TransferRule(pos, f"r{pos + 1}", text, consume, produce))
    return tuple(out)


# Resource accounting works on residual pools: one name -> count dict per
# node, node 0 holding the finite environment remainder. A rule's need
# lists (node, name, count) for every finitely-tracked object it consumes,
# and its gives the same for what it produces.
_Pools = dict[int, dict[str, int]]
_Need = tuple[tuple[int, str, int], ...]


def _tracked(parts: tuple[tuple[int, Multiset], ...], unlimited: frozenset[str]) -> _Need:
    """(node, name, count) for every object of `parts` outside the unlimited supply."""
    return tuple([
        (node, name, count)
        for node, ms in parts
        for name, count in ms.items()
        if node or name not in unlimited
    ])


def _pools(c: Configuration) -> _Pools:
    pools = {node: dict(ms.items()) for node, ms in c.regions.items()}
    pools[0] = dict(c.env.finite.items())
    return pools


def _bound(need: _Need, pools: _Pools) -> Optional[int]:
    """How many more applications fit into the pools; None if unbounded."""
    bound = None
    for node, name, count in need:
        fits = pools[node].get(name, 0) // count
        if bound is None or fits < bound:
            bound = fits
    return bound


def _take(need: _Need, pools: _Pools, m: int) -> None:
    """Remove `m` applications' worth of `need` in place; negative `m` gives back."""
    for node, name, count in need:
        pool = pools[node]
        pool[name] = pool.get(name, 0) - m * count


def _unbounded(rule: TransferRule) -> UnboundedStepError:
    return UnboundedStepError(f"rule {rule.rid} {rule.text} consumes only unlimited objects")


class Engine:
    """Transition function of one system.

    Instances are cheap and stateless beyond the normalized rules and
    their needs; all methods are pure functions of the configuration they
    receive, which draws on the system's unlimited supply.
    """

    def __init__(self, sys: PSystem):
        self.system = sys
        cell = isinstance(sys, CellPSystem)
        self.labels = sys.structure.labels if cell else range(1, sys.n_cells + 1)
        self.rules = normalize_rules(sys)
        self.output = sys.output
        unlimited = sys.env_support
        self._needs = [_tracked(rule.consume, unlimited) for rule in self.rules]
        self._gives = [_tracked(rule.produce, unlimited) for rule in self.rules]

    def initial(
        self, input_objects: Multiset = EMPTY, input_region: Optional[int] = None
    ) -> Configuration:
        """The declared start configuration, plus `input_objects` in `input_region`.

        Raises ValueError for an input region the system does not have.
        """
        regions = {label: self.system.initial_contents(label) for label in self.labels}
        if input_objects or input_region is not None:
            if input_region not in regions:
                raise ValueError(f"no region labeled {input_region}")
            regions[input_region] = regions[input_region] + input_objects
        return Configuration(regions, EnvContent(self.system.env_support))

    def enabled(self, c: Configuration) -> list[tuple[TransferRule, int]]:
        """Rules applicable at least once, with the largest standalone multiplicity."""
        pools = _pools(c)
        out = []
        for rule, need in zip(self.rules, self._needs):
            bound = _bound(need, pools)
            if bound is None:
                raise _unbounded(rule)
            if bound > 0:
                out.append((rule, bound))
        return out

    def is_halted(self, c: Configuration) -> bool:
        return not self.enabled(c)

    def result(self, c: Configuration) -> int:
        if not self.is_halted(c):
            raise ValueError("result is only defined for halted configurations")
        return c.regions[self.output].size

    def maximal_steps(
        self, c: Configuration, cap: int = 10_000
    ) -> tuple[tuple[StepChoice, ...], bool]:
        """All maximal steps from `c`, in a fixed canonical order.

        Returns (choices, complete). complete is False when `cap` many
        choices were found and more may exist, or when the enumeration
        work limit was hit on a pathologically wide configuration.
        """
        enabled = self.enabled(c)
        if not enabled:
            return (), True
        in_play = [(rule.index, self._needs[rule.index]) for rule, _ in enabled]
        pools = _pools(c)
        counts = [0] * len(in_play)
        choices: list[StepChoice] = []
        aborted = False
        # Every jointly applicable multiplicity vector, highest counts
        # first, keeping the ones no single extra application extends.
        # Each level takes its rule's resources out of the residual pools
        # and gives them back one application at a time. Abort only once
        # we are sure to overflow, so hitting cap exactly still reports a
        # complete enumeration.
        work_limit = max(cap * 64, 65_536)
        leaves = 0

        def dfs(pos: int):
            nonlocal aborted, leaves
            if len(choices) > cap or leaves >= work_limit:
                aborted = True
                return
            if pos == len(in_play):
                leaves += 1
                if not any(_bound(need, pools) for _, need in in_play):
                    apps = tuple((index, m) for (index, _), m in zip(in_play, counts) if m)
                    choices.append(StepChoice(apps))
                return
            need = in_play[pos][1]
            m = _bound(need, pools)
            _take(need, pools, m)
            while True:
                counts[pos] = m
                dfs(pos + 1)
                if aborted or m == 0:
                    break
                _take(need, pools, -1)
                m -= 1
            _take(need, pools, -m)

        dfs(0)
        if len(choices) > cap:
            return tuple(choices[:cap]), False
        return tuple(choices), not aborted

    def apply(self, c: Configuration, choice: StepChoice) -> Configuration:
        """Apply one step: consume everything first, then add all products.

        Objects produced by the step are therefore never consumed by it.
        An inapplicable choice surfaces as a multiset underflow, which
        indicates a defect in the caller, not bad user input.
        """
        pools = _pools(c)
        touched = set()
        for index, m in choice.applications:
            need = self._needs[index]
            _take(need, pools, m)
            for node, name, _ in need:
                if pools[node][name] < 0:
                    raise MultisetUnderflow(
                        f"step {choice.applications} takes more {name} than node {node} holds"
                    )
                touched.add(node)
        for index, m in choice.applications:
            _take(self._gives[index], pools, -m)
            touched.update(node for node, _, _ in self._gives[index])
        regions = dict(c.regions)
        env = c.env
        for node in touched:
            if node:
                regions[node] = Multiset(pools[node])
            else:
                env = EnvContent(env.infinite, Multiset(pools[0]))
        return Configuration(regions, env)

    def run(
        self,
        seed: int = 0,
        max_steps: int = 10_000,
        policy: str = "enumerate-uniform",
        cap: int = 10_000,
    ) -> Trace:
        """Run one computation, choosing among maximal steps with `seed`.

        policy "enumerate-uniform" lists all maximal steps and picks one
        uniformly; if the listing overflows `cap` the step falls back to
        "greedy-random" and the trace step carries a note saying so.
        policy "greedy-random" saturates rules in a shuffled order; it
        is cheap but weights step choices unevenly.
        """
        return self._run_from(self.initial(), seed, max_steps, policy, cap)

    def _run_from(
        self, start: Configuration, seed: int, max_steps: int, policy: str, cap: int
    ) -> Trace:
        if policy not in ("enumerate-uniform", "greedy-random"):
            raise ValueError(f"unknown policy {policy!r}")
        rng = random.Random(seed)
        c = start
        trace = Trace(c)
        for _ in range(max_steps):
            note = None
            if policy == "enumerate-uniform":
                steps, complete = self.maximal_steps(c, cap)
                if not steps:
                    choice = StepChoice(())
                elif complete:
                    choice = steps[rng.randrange(len(steps))]
                else:
                    choice = self._greedy_step(c, rng)
                    note = "greedy-random fallback: maximal-step listing overflowed"
            else:
                choice = self._greedy_step(c, rng)
            if not choice.applications:
                trace.halted = True
                return trace
            c = self.apply(c, choice)
            trace.steps.append(TraceStep(choice, c, note))
        trace.halted = self.is_halted(c)
        return trace

    def _greedy_step(self, c: Configuration, rng: random.Random) -> StepChoice:
        """Build one maximal step by saturating rules in shuffled order.

        Availability only shrinks as rules are granted, so one pass
        leaves nothing extendable.
        """
        order = list(self.rules)
        rng.shuffle(order)
        pools = _pools(c)
        granted: dict[int, int] = {}
        for rule in order:
            need = self._needs[rule.index]
            bound = _bound(need, pools)
            if bound is None:
                raise _unbounded(rule)
            if bound:
                granted[rule.index] = bound
                _take(need, pools, bound)
        return StepChoice(tuple(sorted(granted.items())))

    def run_accepting(
        self,
        input_objects: Multiset,
        input_region: int,
        seed: int = 0,
        max_steps: int = 10_000,
        policy: str = "enumerate-uniform",
    ) -> tuple[str, Trace]:
        """Accepting mode: seed a region with the input, accept iff halting.

        Returns ("accepted", trace) or ("budget_exhausted", trace); a
        non-halting system cannot be distinguished from a slow one here.
        Raises ValueError for an input region the system does not have.
        """
        start = self.initial(input_objects, input_region)
        trace = self._run_from(start, seed, max_steps, policy, cap=10_000)
        return ("accepted" if trace.halted else "budget_exhausted"), trace

    def trace_records(self, trace: Trace) -> Iterator[dict]:
        """Line-oriented trace serialization, one JSON-ready dict per record."""

        def snapshot(c: Configuration) -> dict:
            return {
                "regions": {
                    str(label): dict(c.regions[label].items()) for label in self.labels
                },
                "env": dict(c.env.finite.items()),
            }

        yield {"step": 0, **snapshot(trace.initial)}
        for t, step in enumerate(trace.steps, start=1):
            record = {
                "step": t,
                "choice": [
                    {"rule": self.rules[index].rid, "n": m}
                    for index, m in step.choice.applications
                ],
                **snapshot(step.after),
            }
            if step.note:
                record["note"] = step.note
            yield record
        summary = {"halted": trace.halted, "steps": trace.steps_taken}
        if trace.halted:
            summary["result"] = trace.final.regions[self.output].size
        yield summary


def trace_to_lines(engine: Engine, trace: Trace) -> Iterator[str]:
    for record in engine.trace_records(trace):
        yield json.dumps(record, separators=(", ", ": "))
