"""Exact maximally-parallel operational semantics.

Every rule form reduces to the same shape: take some objects at some
nodes, then give them at other nodes. The engine lowers each rule once,
to take and give tables over integer slots, then enumerates maximal
steps, applies them in two phases (all taking from the old
configuration, then all giving), detects halting and extracts results.

Node 0 is the environment. Objects in the system's unlimited supply are
never tracked there; everything else accumulates in a finite remainder.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Iterator, Mapping, Optional

from .model import (
    CellAntiport,
    CellPSystem,
    PSystem,
    TissueAntiport,
    TissuePSystem,
    UniportRule,
    cell_channel,
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


class _Layout:
    """Integer slots for the tracked objects of one set of configurations.

    A slot is a (node, name) pair, node 0 being the environment's finite
    remainder. An engine lays out every pair its initial contents and its
    rules name, in (node, name) order. Input objects outside that layout get
    slots appended to a copy of it, whose `base` is the engine's layout,
    so every slot index of the engine's rules stays valid.
    """

    __slots__ = ("slots", "index", "labels", "infinite", "nodes", "base")

    def __init__(
        self,
        slots: tuple[tuple[int, str], ...],
        labels: tuple[int, ...],
        infinite: frozenset[str],
        base: Optional["_Layout"] = None,
    ):
        self.slots = slots
        self.index = {pair: i for i, pair in enumerate(slots)}
        self.labels = labels
        self.infinite = infinite
        self.base = base or self
        # node -> [(slot, name), ...] in name order, appended slots included.
        self.nodes: dict[int, list[tuple[int, str]]] = {node: [] for node in (*labels, 0)}
        for i, (node, name) in enumerate(slots):
            self.nodes[node].append((i, name))
        if base is not None:
            for entries in self.nodes.values():
                entries.sort(key=itemgetter(1))

    def contents(self, counts: tuple[int, ...], node: int) -> dict[str, int]:
        """Name -> count of the objects at `node`, in name order."""
        return {name: counts[i] for i, name in self.nodes[node] if counts[i]}


class Configuration:
    """Immutable snapshot: one multiset per region plus the environment.

    Held as a count per slot of a layout; `regions` and `env` build their
    multisets on each access. Equality and hashing go by value, so an
    engine's configuration and `Configuration(regions, env)` of the same
    contents are equal, hash alike and dedupe in a set.
    """

    __slots__ = ("_layout", "_counts", "_hash")

    def __init__(self, regions: Mapping[int, Multiset], env: EnvContent):
        entries = {(label, name): k for label, ms in regions.items() for name, k in ms.items()}
        entries.update(((0, name), k) for name, k in env.finite.items())
        slots = tuple(sorted(entries))
        layout = _Layout(slots, tuple(regions), env.infinite)
        self._set(layout, tuple([entries[pair] for pair in slots]))

    @classmethod
    def _of(cls, layout: _Layout, counts: tuple[int, ...]) -> "Configuration":
        c = object.__new__(cls)
        c._set(layout, counts)
        return c

    def _set(self, layout: _Layout, counts: tuple[int, ...]) -> None:
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_counts", counts)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    @property
    def regions(self) -> dict[int, Multiset]:
        layout, counts = self._layout, self._counts
        return {label: Multiset(layout.contents(counts, label)) for label in layout.labels}

    @property
    def env(self) -> EnvContent:
        layout = self._layout
        return EnvContent(layout.infinite, Multiset(layout.contents(self._counts, 0)))

    def region_size(self, label: int) -> int:
        """Number of objects in region `label`, without building its multiset."""
        if label not in self._layout.labels:
            raise KeyError(label)
        counts = self._counts
        return sum([counts[i] for i, _ in self._layout.nodes[label]])

    @property
    def total_inside(self) -> int:
        return sum(self.region_size(label) for label in self._layout.labels)

    @property
    def total_tracked(self) -> int:
        """All finitely-tracked objects: every region plus the env remainder."""
        return sum(self._counts)

    def _held(self) -> Iterator[tuple[tuple[int, str], int]]:
        """((node, name), count) for every object held, whatever the layout."""
        counts = self._counts
        return compress(zip(self._layout.slots, counts), counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        mine, theirs = self._layout, other._layout
        if mine is theirs:
            return self._counts == other._counts
        return (
            set(mine.labels) == set(theirs.labels)
            and mine.infinite == theirs.infinite
            and dict(self._held()) == dict(other._held())
        )

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._held())))
        return self._hash

    def __repr__(self) -> str:
        inside = ", ".join(f"{label}: {ms}" for label, ms in sorted(self.regions.items()))
        return f"<Configuration {{{inside}}} env {self.env.finite}>"


@dataclass(frozen=True)
class TransferRule:
    """One rule of a system: its position, positional id (r1, r2, ...) and text."""

    index: int
    rid: str
    text: str


@dataclass(frozen=True)
class StepChoice:
    """One maximally parallel step: rule index -> positive multiplicity."""

    applications: tuple[tuple[int, int], ...]


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


def _moves(sys: PSystem, rule) -> tuple[str, list[tuple[int, Multiset, int]]]:
    """Display text of one rule and the (src, objects, dst) moves it makes."""
    if isinstance(sys, CellPSystem):
        src, dst = cell_channel(sys.structure, rule)
        text, form = f"{cell_rule_text(rule)} @ {rule.region}", rule.form
    elif isinstance(sys, TissuePSystem):
        src, dst, text, form = rule.src, rule.dst, tissue_rule_text(rule), rule
    else:
        text = interaction_rule_text(rule)
        if isinstance(rule, UniportRule):
            return text, [(rule.src, Multiset([rule.obj]), rule.dst)]
        return text, [
            (rule.src_a, Multiset([rule.obj_a]), rule.dst_a),
            (rule.src_b, Multiset([rule.obj_b]), rule.dst_b),
        ]
    # A symport or antiport, cell form or tissue rule, across src -> dst.
    if isinstance(form, (CellAntiport, TissueAntiport)):
        return text, [(src, form.outbound, dst), (dst, form.inbound, src)]
    return text, [(src, form.objects, dst)]


# Resource accounting works on residual pools: a list of counts, one per
# slot of the configuration's layout. A rule's take table lists (slot,
# count) for every finitely-tracked object it takes, in (node, name) order,
# and its give table the same for what it gives.
_Table = tuple[tuple[int, int], ...]


def _bound(need: _Table, pools) -> Optional[int]:
    """How many more applications fit into the pools; None if unbounded."""
    bound = None
    for slot, count in need:
        fits = pools[slot] // count
        if bound is None or fits < bound:
            bound = fits
    return bound


def _take(need: _Table, pools: list[int], m: int) -> None:
    """Remove `m` applications' worth of `need` in place; negative `m` gives back."""
    for slot, count in need:
        pools[slot] -= m * count


def _unbounded(rule: TransferRule) -> UnboundedStepError:
    return UnboundedStepError(f"rule {rule.rid} {rule.text} consumes only unlimited objects")


class Engine:
    """Transition function of one system.

    Instances are cheap and stateless beyond the rules, the slot layout
    and the rules' take and give tables over it; all methods are pure
    functions of the configuration they receive, which draws on the
    system's unlimited supply.
    """

    def __init__(self, sys: PSystem):
        cell = isinstance(sys, CellPSystem)
        self.labels = sys.structure.labels if cell else range(1, sys.n_cells + 1)
        self.output = sys.output
        unlimited = frozenset(sys.env_support)
        start = {
            (label, name): count
            for label in self.labels
            for name, count in sys.initial_contents(label).items()
        }
        # A rule takes its moves' objects at their sources and gives them
        # at their destinations: (node, name) -> count. The unlimited
        # supply at node 0 is neither tracked nor consumed. Ids are
        # positional, so systems derived rule-for-rule keep aligned ids.
        rules, takes, gives = [], [], []
        for pos, rule in enumerate(sys.rules):
            text, moves = _moves(sys, rule)
            take, give = Counter(), Counter()
            for src, objects, dst in moves:
                for name, count in objects.items():
                    if src or name not in unlimited:
                        take[src, name] += count
                    if dst or name not in unlimited:
                        give[dst, name] += count
            rules.append(TransferRule(pos, f"r{pos + 1}", text))
            takes.append(take)
            gives.append(give)
        self.rules = tuple(rules)
        slots = tuple(sorted(start.keys() | {pair for table in takes + gives for pair in table}))
        self._layout = layout = _Layout(slots, tuple(self.labels), unlimited)
        index = layout.index
        self._takes, self._gives = (
            [tuple([(index[pair], table[pair]) for pair in sorted(table)]) for table in tables]
            for tables in (takes, gives)
        )
        self._start = tuple([start.get(pair, 0) for pair in slots])

    def initial(
        self, input_objects: Multiset = EMPTY, input_region: Optional[int] = None
    ) -> Configuration:
        """The declared start configuration, plus `input_objects` in `input_region`.

        Raises ValueError for an input region the system does not have.
        """
        if input_objects or input_region is not None:
            if input_region not in self.labels:
                raise ValueError(f"no region labeled {input_region}")
            added = {(input_region, name): k for name, k in input_objects.items()}
            return Configuration._of(*self._lowered(added, self._start))
        return Configuration._of(self._layout, self._start)

    def _lowered(
        self, added: dict[tuple[int, str], int], counts: tuple[int, ...]
    ) -> tuple[_Layout, tuple[int, ...]]:
        """`counts` over this engine's layout plus `added`.

        Pairs the layout lacks get slots appended to a copy of it.
        """
        layout = self._layout
        outside = sorted(pair for pair in added if pair not in layout.index)
        if outside:
            layout = _Layout(layout.slots + tuple(outside), layout.labels, layout.infinite, layout)
        pools = list(counts) + [0] * len(outside)
        for pair, k in added.items():
            pools[layout.index[pair]] += k
        return layout, tuple(pools)

    def _counts(self, c: Configuration) -> tuple[_Layout, tuple[int, ...]]:
        """The layout and counts of `c`, lowered onto this engine's layout if need be.

        Raises ValueError for a configuration with regions or an unlimited
        supply the system does not have.
        """
        layout = c._layout
        if layout.base is self._layout:
            return layout, c._counts
        unknown = set(layout.labels).difference(self.labels)
        if unknown:
            raise ValueError(f"no region labeled {min(unknown)}")
        if layout.infinite != self._layout.infinite:
            raise ValueError("the configuration's unlimited supply is not the system's")
        return self._lowered(dict(c._held()), (0,) * len(self._start))

    def _enabled(self, pools) -> list[tuple[int, int]]:
        """(rule index, largest standalone multiplicity) of every applicable rule."""
        out = []
        for index, need in enumerate(self._takes):
            # Most rules fail on their first object; only an empty take
            # table (an unbounded rule) must reach _bound to be reported.
            if need and pools[need[0][0]] < need[0][1]:
                continue
            bound = _bound(need, pools)
            if bound is None:
                raise _unbounded(self.rules[index])
            if bound:
                out.append((index, bound))
        return out

    def enabled(self, c: Configuration) -> list[tuple[TransferRule, int]]:
        """Rules applicable at least once, with the largest standalone multiplicity."""
        return [(self.rules[index], bound) for index, bound in self._enabled(self._counts(c)[1])]

    def is_halted(self, c: Configuration) -> bool:
        return not self.enabled(c)

    def result(self, c: Configuration) -> int:
        if not self.is_halted(c):
            raise ValueError("result is only defined for halted configurations")
        return c.region_size(self.output)

    def maximal_steps(
        self, c: Configuration, cap: int = 10_000
    ) -> tuple[tuple[StepChoice, ...], bool]:
        """All maximal steps from `c`, in a fixed canonical order.

        Returns (choices, complete). complete is False when `cap` many
        choices were found and more may exist, or when the enumeration
        work limit was hit on a pathologically wide configuration.
        """
        held = self._counts(c)[1]
        enabled = self._enabled(held)
        if not enabled:
            return (), True
        if len(enabled) == 1:
            # One rule in play: its top multiplicity is the only maximal step.
            return ((StepChoice(tuple(enabled)),), True) if cap >= 1 else ((), False)
        in_play = [(index, self._takes[index]) for index, _ in enabled]
        pools = list(held)
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
            # Below its top multiplicity the last rule in play could fire
            # once more, so no smaller count of it is maximal.
            low = m if pos == len(in_play) - 1 else 0
            _take(need, pools, m)
            while True:
                counts[pos] = m
                dfs(pos + 1)
                if aborted or m == low:
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
        layout, counts = self._counts(c)
        pools = list(counts)
        for index, m in choice.applications:
            for slot, count in self._takes[index]:
                left = pools[slot] - m * count
                if left < 0:
                    node, name = layout.slots[slot]
                    raise MultisetUnderflow(
                        f"step {choice.applications} takes more {name} than node {node} holds"
                    )
                pools[slot] = left
        for index, m in choice.applications:
            for slot, count in self._gives[index]:
                pools[slot] += m * count
        return Configuration._of(layout, tuple(pools))

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
        pools = list(self._counts(c)[1])
        granted: dict[int, int] = {}
        for rule in order:
            need = self._takes[rule.index]
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
            layout, counts = self._counts(c)
            return {
                "regions": {
                    str(label): layout.contents(counts, label) for label in self.labels
                },
                "env": layout.contents(counts, 0),
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
            summary["result"] = trace.final.region_size(self.output)
        yield summary


def trace_to_lines(engine: Engine, trace: Trace) -> Iterator[str]:
    for record in engine.trace_records(trace):
        yield json.dumps(record, separators=(", ", ": "))
