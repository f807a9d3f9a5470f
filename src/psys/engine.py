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
from itertools import compress
from operator import add, itemgetter
from typing import Iterator, Mapping, Optional, Sequence

from ._record import Record, set_field
from .model import CellPSystem, PSystem, Rule, rule_location, rule_moves, rule_text
from .multiset import EMPTY, EnvContent, Multiset, MultisetUnderflow


class UnboundedStepError(Exception):
    """A rule can apply any number of times at once.

    `Engine()` raises it for a system that skipped validation, naming the
    first such rule: every check rejects rules drawing solely on the
    unlimited environment supply.
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
        labels: Sequence[int],
        infinite: frozenset[str],
        base: Optional["_Layout"] = None,
    ):
        self.slots = slots
        self.index = {pair: i for i, pair in enumerate(slots)}
        self.labels = labels
        self.infinite = infinite
        self.base = base or self
        # node -> [(slot, name), ...] in name order, appended slots included,
        # for the nodes that hold slots only: a system may have 10^6 cells.
        self.nodes: dict[int, list[tuple[int, str]]] = {}
        for i, (node, name) in enumerate(slots):
            self.nodes.setdefault(node, []).append((i, name))
        if base is not None:
            for entries in self.nodes.values():
                entries.sort(key=itemgetter(1))

    def contents(self, counts: tuple[int, ...], node: int) -> dict[str, int]:
        """Name -> count of the objects at `node`, in name order."""
        return {name: counts[i] for i, name in self.nodes.get(node, ()) if counts[i]}


class Configuration:
    """Immutable snapshot: one multiset per region plus the environment.

    Held as a count per slot of a layout; `regions` and `env` build their
    multisets on each access. Equality and hashing go by value, so an
    engine's configuration and `Configuration(regions, env)` of the same
    contents are equal, hash alike and dedupe in a set. Label 0 is the
    environment's node, so no region may carry it.
    """

    __slots__ = ("_layout", "_counts")

    def __init__(self, regions: Mapping[int, Multiset], env: EnvContent):
        if 0 in regions:
            raise ValueError("region label 0 is the environment's node")
        entries = {(label, name): k for label, ms in regions.items() for name, k in ms.items()}
        entries.update(((0, name), k) for name, k in env.finite.items())
        slots = tuple(sorted(entries))
        _set_layout(self, _Layout(slots, tuple(regions), env.infinite))
        _set_counts(self, tuple([entries[pair] for pair in slots]))

    @classmethod
    def _of(cls, layout: _Layout, counts: tuple[int, ...]) -> "Configuration":
        c = object.__new__(cls)
        _set_layout(c, layout)
        _set_counts(c, counts)
        return c

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
        return sum([counts[i] for i, _ in self._layout.nodes.get(label, ())])

    @property
    def total_inside(self) -> int:
        # Over the nodes that hold slots: a system may have 10^6 cells.
        layout, counts = self._layout, self._counts
        inside = [entries for node, entries in layout.nodes.items() if node in layout.labels]
        return sum([counts[i] for entries in inside for i, _ in entries])

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
        # Labels are distinct, so unequal lengths settle it without a set, and
        # equal sequences (one engine's range, say) settle it at once.
        labels = mine.labels
        return (
            len(labels) == len(theirs.labels)
            and (labels == theirs.labels or set(labels) == set(theirs.labels))
            and mine.infinite == theirs.infinite
            and dict(self._held()) == dict(other._held())
        )

    def __hash__(self) -> int:
        # Equal contents hash alike on any layout.
        return hash(frozenset(self._held()))

    def __repr__(self) -> str:
        inside = ", ".join(f"{label}: {ms}" for label, ms in sorted(self.regions.items()))
        return f"<Configuration {{{inside}}} env {self.env.finite}>"


# Set a Configuration's slots past its __setattr__, which refuses every write.
_set_layout, _set_counts = (
    Configuration.__dict__[name].__set__ for name in Configuration.__slots__
)


class TransferRule(Record):
    """One rule of a system: its position, positional id (r1, r2, ...) and source.

    `text` is `model.rule_text` of the source, made when read, never up
    front: a valid rule may hold a count with more digits than Python
    converts to text.
    """

    index: int
    rid: str
    source: Rule

    def __init__(self, index: int, rid: str, source: Rule):
        set_field(self, "index", index)
        set_field(self, "rid", rid)
        set_field(self, "source", source)

    @property
    def text(self) -> str:
        return rule_text(self.source)


class StepChoice(Record):
    """One maximally parallel step: rule index -> positive multiplicity."""

    applications: tuple[tuple[int, int], ...]

    def __init__(self, applications: tuple[tuple[int, int], ...]):
        set_field(self, "applications", applications)


class TraceStep(Record, frozen=False):
    choice: StepChoice
    after: Configuration
    note: Optional[str]

    def __init__(self, choice: StepChoice, after: Configuration, note: Optional[str] = None):
        self.choice, self.after, self.note = choice, after, note


class Trace(Record, frozen=False):
    """One computation from `initial`; `halted` means no rule can apply at `final`.

    `steps` is a list when `Engine.run` or `run_accepting` returns the
    trace. The trace `Engine._running` returns yields its steps once, as
    they are taken, and `halted` is settled when they run out.
    """

    initial: Configuration
    steps: list[TraceStep]
    halted: bool

    def __init__(
        self, initial: Configuration, steps: Optional[list] = None, halted: bool = False
    ):
        self.initial = initial
        self.steps = [] if steps is None else steps
        self.halted = halted

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


# Resource accounting works on residual pools: a list of counts, one per
# slot of the configuration's layout. A rule's take table lists (slot,
# count) for every finitely-tracked object it takes, in (node, name) order,
# and its give table the same for what it gives.


def _draws(n: int) -> list[tuple[int, int]]:
    """(i, bits) for i from n - 1 down to 1: the draws of shuffling n items."""
    return [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]


def _shuffle(items: list, draws: list[tuple[int, int]], rng: random.Random) -> None:
    """`rng.shuffle(items)`, given `_draws(len(items))`.

    CPython's `Random.shuffle` swaps items[i] with items[_randbelow(i + 1)],
    and `_randbelow` redraws `getrandbits(bits)` until the value is at most
    i. This is the same loop without a call per draw, so the permutation
    and the generator's state afterwards are the same.
    """
    getrandbits = rng.getrandbits
    for i, bits in draws:
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


POLICIES = ("enumerate-uniform", "greedy-random")


class Engine:
    """Transition function of one system.

    Instances are cheap and stateless beyond the rules, the slot layout,
    the rules' take, give and net tables over it and the lookups derived
    from the take tables once (the scan table and each rule's take slots).
    Nothing is assigned after `__init__`: all methods are pure functions
    of the configuration they receive, which draws on the system's
    unlimited supply. A walk expands with `_expand` until its memo holds
    `explore.COMPILE_AFTER` configurations, then with a generated step,
    `_expand` unrolled, that it makes and keeps to itself.

    Each rule lowers from its `model.rule_moves`, so the engine reads no
    rule form itself. Raises UnboundedStepError, as the rule is lowered,
    for the first rule in index order that takes no tracked object: no
    configuration bounds how often it applies. The message names it by id
    alone when its text holds a count that `str()` will not write. Raises
    ValueError for an output label that names no region.
    """

    def __init__(self, sys: PSystem):
        cell = isinstance(sys, CellPSystem)
        self.labels = labels = sys.structure.labels if cell else range(1, sys.n_cells + 1)
        self.output = sys.output
        unlimited = frozenset(sys.env_support)
        start = {
            (label, name): count
            for label, contents in sys.init.items()
            if label in labels
            for name, count in contents.items()
        }
        # A rule takes its moves' objects at their sources and gives them
        # at their destinations: (node, name) -> count. The unlimited
        # supply at node 0 is neither tracked nor consumed. Ids are
        # positional, so systems derived rule-for-rule keep aligned ids.
        rules, takes, gives = [], [], []
        pairs = set(start)
        for pos, rule in enumerate(sys.rules):
            take, give = {}, {}
            for src, objects, dst in rule_moves(sys, rule):
                for name, count in objects.items():
                    if src or name not in unlimited:
                        take[src, name] = take.get((src, name), 0) + count
                    if dst or name not in unlimited:
                        give[dst, name] = give.get((dst, name), 0) + count
            rules.append(TransferRule(pos, f"r{pos + 1}", rule))
            if not take:
                where = rule_location(f"rule {rules[-1].rid}", rule_text, rule)
                raise UnboundedStepError(f"{where} consumes only unlimited objects")
            takes.append(take)
            gives.append(give)
            pairs.update(take, give)
        if self.output not in labels:
            raise ValueError(f"no region labeled {self.output}")
        self.rules = tuple(rules)
        slots = tuple(sorted(pairs))
        self._layout = layout = _Layout(slots, labels, unlimited)
        index = layout.index
        # Slots follow (node, name) order, so sorting by slot sorts by pair.
        self._takes, self._gives = (
            [tuple(sorted([(index[pair], k) for pair, k in table.items()])) for table in tables]
            for tables in (takes, gives)
        )
        # A net table, gives less takes, leaves out each slot a rule gives as
        # much as it takes. Adding a step's net tables to the counts builds
        # its successor, without testing its takes.
        self._nets = nets = []
        for take, give in zip(self._takes, self._gives):
            net = dict(give)
            for slot, count in take:
                net[slot] = net.get(slot, 0) - count
            nets.append(tuple([(slot, delta) for slot, delta in net.items() if delta]))
        self._start = tuple([start.get(pair, 0) for pair in slots])
        # `_enabled`, the generated step, the greedy pass and the listing read
        # (index, first slot, first count, other takes), one entry per rule.
        self._scan = [(i, *need[0], need[1:]) for i, need in enumerate(self._takes)]
        # Each rule's take slots, for the contention tests.
        self._take_slots = [tuple([slot for slot, _ in need]) for need in self._takes]
        # The greedy pass shuffles the scan table; seeded traces pin its draws.
        self._draws = _draws(len(self._scan))

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
        # Test the configuration's own labels: the engine's may be 10^6 cells.
        unknown = [label for label in layout.labels if label not in self.labels]
        if unknown:
            raise ValueError(f"no region labeled {min(unknown)}")
        if layout.infinite != self._layout.infinite:
            raise ValueError("the configuration's unlimited supply is not the system's")
        return self._lowered(dict(c._held()), (0,) * len(self._start))

    def _enabled(self, pools) -> list[tuple[int, int]]:
        """(rule index, largest standalone multiplicity) of every applicable rule.

        The generated step returns the same list for a vector it does not expand.
        """
        out = []
        for index, slot, count, rest in self._scan:
            # Most rules fail on their first object.
            held = pools[slot]
            if held < count:
                continue
            bound = held // count
            for slot, count in rest:
                fits = pools[slot] // count
                if fits < bound:
                    bound = fits
                    if not fits:
                        break
            if bound:
                out.append((index, bound))
        return out

    def _contended(self, enabled: list[tuple[int, int]]) -> bool:
        """Whether two of the `enabled` rules take from one slot.

        Without such a pair a rule below its top multiplicity could always
        fire once more, so every rule at its top is the only maximal step.
        The rules' take slots are added to one set until a rule meets a
        slot already taken.
        """
        take_slots, taken = self._take_slots, set()
        for index, _ in enabled:
            slots = take_slots[index]
            if not taken.isdisjoint(slots):
                return True
            taken.update(slots)
        return False

    def _expand(
        self, pools
    ) -> tuple[Optional[tuple[int, ...]], Optional[list[tuple[int, int]]]]:
        """`_generated_step`'s contract, interpreted, for a count vector.

        Returns `(successor, None)` when the enabled rules take from no
        common slot, the successor adding each rule's top multiplicity
        times its net table, and `(None, _enabled(pools))` otherwise.
        """
        enabled = self._enabled(pools)
        # One rule in play is the cheapest uncontended case.
        if enabled and (len(enabled) == 1 or not self._contended(enabled)):
            successor, nets = list(pools), self._nets
            for index, m in enabled:
                for slot, delta in nets[index]:
                    successor[slot] += m * delta
            return tuple(successor), None
        return None, enabled

    def _generated_step(self, width: int):
        """A straight-line function of a count vector of `width` slots, made afresh.

        It returns `(successor, None)` when the enabled rules take from no
        common slot, so each fires at its top multiplicity in the one maximal
        step, and `(None, _enabled(p))` otherwise: `_expand`, unrolled. An
        enabled rule sets its `b<index>` to that multiplicity, `e`, a flag on
        each slot a later rule takes from, and `c` on meeting an earlier
        rule's flag: the contention test grows with the take tables. Only
        slot and rule indices reach the text; take counts and net deltas sit
        in a constants tuple, unwritten.
        """
        constants: dict[int, int] = {}
        takers: dict[int, list[int]] = {}  # slot -> the rules taking from it
        for index, slots in enumerate(self._take_slots):
            for slot in slots:
                takers.setdefault(slot, []).append(index)
        bounds = [f"b{index}" for index in range(len(self._scan))]
        flags = [f"u{slot}" for slot, rules in sorted(takers.items()) if len(rules) > 1]
        lines = ["def _step(p, k=k):", f" {' = '.join([*bounds, *flags, 'c', 'e', '0'])}"]
        for index, *first, rest in self._scan:
            tests, steps, marks = [], [], [f"b{index}", "e"]
            for j, (slot, count) in enumerate([first, *rest]):
                if count == 1:
                    tests.append(f"(t{j} := p[{slot}])")
                else:
                    at = constants.setdefault(count, len(constants))
                    tests.append(f"(t{j} := p[{slot}]) >= k[{at}]")
                    steps.append(f"  t{j} //= k[{at}]")
                if j:
                    steps.append(f"  if t{j} < t0: t0 = t{j}")
                rules = takers[slot]
                if rules[0] != index:
                    steps.append(f"  if u{slot}: c = 1")
                if rules[-1] != index:
                    marks.append(f"u{slot}")
            lines += [f" if {' and '.join(tests)}:", *steps, f"  {' = '.join(marks)} = t0"]
        terms: list[list[str]] = [[] for _ in range(width)]
        for index, net in enumerate(self._nets):
            for slot, delta in net:
                term = f"b{index}"
                if abs(delta) != 1:
                    term += f" * k[{constants.setdefault(abs(delta), len(constants))}]"
                terms[slot].append(("+ " if delta > 0 else "- ") + term)
        # A long sum goes through sum(): a chain of `+` nests in the compiler.
        entries = [
            f"p[{slot}]{''.join(f' {term}' for term in added)}" if len(added) <= 64
            else f"sum([{', '.join(added)}], p[{slot}])"
            for slot, added in enumerate(terms)
        ]
        lines += [
            " if c or not e:",
            f"  return None, [(i, b) for i, b in enumerate([{', '.join(bounds)}]) if b]",
            f" return ({''.join([f'{entry}, ' for entry in entries])}), None",
        ]
        namespace = {"k": tuple(constants)}
        exec("\n".join(lines), namespace)
        return namespace["_step"]

    def enabled(self, c: Configuration) -> list[tuple[TransferRule, int]]:
        """Rules applicable at least once, with the largest standalone multiplicity."""
        return [(self.rules[index], bound) for index, bound in self._enabled(self._counts(c)[1])]

    def is_halted(self, c: Configuration) -> bool:
        return not self.enabled(c)

    def result(self, c: Configuration) -> int:
        """Objects in the output region of halted `c`, read on this engine's layout.

        So a configuration that leaves out an empty output region reads 0.
        """
        layout, counts = self._counts(c)
        if self._enabled(counts):
            raise ValueError("result is only defined for halted configurations")
        return Configuration._of(layout, counts).region_size(self.output)

    def maximal_steps(
        self, c: Configuration, cap: int = 10_000
    ) -> tuple[tuple[StepChoice, ...], bool]:
        """All maximal steps from `c`, in a fixed canonical order.

        Returns (choices, complete). complete is False when `cap` many
        choices were found and more may exist, or when the enumeration
        work limit was hit on a pathologically wide configuration. The
        work limit can only cut a listing in which enabled rules compete
        for an object: without such a pair the one step is found directly.
        """
        held = self._counts(c)[1]
        enabled = self._enabled(held)
        if not enabled:
            return (), True
        if not self._contended(enabled):
            return ((StepChoice(tuple(enabled)),), True) if cap >= 1 else ((), False)
        steps, complete = self._listing(held, enabled, cap)
        return tuple(map(StepChoice, steps)), complete

    def _listing(
        self, held: tuple[int, ...], enabled: list[tuple[int, int]], cap: int
    ) -> tuple[tuple[tuple[tuple[int, int], ...], ...], bool]:
        """`maximal_steps` on a count vector: each step's (rule index, m) pairs.

        `enabled` is `_enabled(held)`, holding two rules that take from one
        slot, as `_expand` or the generated step returned it: the caller has
        tested that already.
        """
        indices = list(map(itemgetter(0), enabled))
        needs = list(map(self._takes.__getitem__, indices))
        # Each rule's (first slot, first count, other takes).
        rows = [self._scan[index][1:] for index in indices]
        last = len(needs) - 1
        pools = list(held)
        counts = [0] * len(needs)
        choices: list[tuple[tuple[int, int], ...]] = []
        # Every jointly applicable multiplicity vector, highest counts
        # first, keeping the ones no single extra application extends.
        # A descent gives each rule from `start` on its top count; the
        # backtrack gives the last rule all of its count back (below its
        # top it could fire once more, so no smaller count of it is
        # maximal) and one application back from the latest rule still
        # holding any, then descends from the rule after it. Stop only once
        # we are sure to overflow, so hitting cap exactly still reports a
        # complete enumeration.
        work_limit = max(cap * 64, 65_536)
        leaves = start = 0
        while True:
            for pos in range(start, last + 1):
                slot, count, rest = rows[pos]
                m = pools[slot] // count
                if m:
                    for other, k in rest:
                        fits = pools[other] // k
                        if fits < m:
                            m = fits
                            if not fits:
                                break
                    if m:
                        pools[slot] -= m * count
                        for other, k in rest:
                            pools[other] -= m * k
                counts[pos] = m
            leaves += 1
            # The rules from `start` on took their top count and the pools
            # have only shrunk since, so none of them fits once more. The
            # leaf is maximal unless a rule before `start` fits; the one
            # that just gave an application back is the likeliest, so the
            # test runs from it down.
            for i in range(start - 1, -1, -1):
                for slot, count in needs[i]:
                    if pools[slot] < count:
                        break
                else:
                    break
            else:
                choices.append(tuple(compress(zip(indices, counts), counts)))
            m = counts[last]
            for slot, count in needs[last]:
                pools[slot] += m * count
            pos = last - 1
            while pos >= 0 and not counts[pos]:
                pos -= 1
            if pos < 0:
                return tuple(choices[:cap]), len(choices) <= cap
            if len(choices) > cap or leaves >= work_limit:
                return tuple(choices[:cap]), False
            for slot, count in needs[pos]:
                pools[slot] += count
            counts[pos] -= 1
            start = pos + 1

    def apply(self, c: Configuration, choice: StepChoice) -> Configuration:
        """Apply one step: consume everything first, then add all products.

        Objects produced by the step are therefore never consumed by it.
        An inapplicable choice surfaces as a multiset underflow, which
        indicates a defect in the caller, not bad user input.
        """
        layout, counts = self._counts(c)
        applications = choice.applications
        # All takes come from a copy of the old counts, then all gives.
        pools = list(counts)
        takes = self._takes
        for index, m in applications:
            for slot, count in takes[index]:
                pools[slot] -= m * count
                if pools[slot] < 0:
                    node, name = layout.slots[slot]
                    raise MultisetUnderflow(
                        f"step {applications} takes more {name} than node {node} holds"
                    )
        self._give(pools, applications)
        return Configuration._of(layout, tuple(pools))

    def _give(self, pools: list[int], applications) -> None:
        """Add the products of `applications` to the pools in place: a step's second phase."""
        gives = self._gives
        for index, m in applications:
            for slot, count in gives[index]:
                pools[slot] += m * count

    def run(
        self,
        seed: int = 0,
        max_steps: int = 10_000,
        policy: str = "enumerate-uniform",
        cap: int = 10_000,
    ) -> Trace:
        """Run one computation, choosing among maximal steps with `seed`.

        policy "enumerate-uniform" lists all maximal steps and picks one
        uniformly; if the listing is incomplete, past `cap` or its work
        limit, the step falls back to "greedy-random" with a note saying so.
        policy "greedy-random" saturates rules in a shuffled order; it
        is cheap but weights step choices unevenly.
        """
        trace = self._running(self.initial(), seed, max_steps, policy, cap)
        trace.steps = list(trace.steps)
        return trace

    def _running(
        self, start: Configuration, seed: int, max_steps: int, policy: str, cap: int = 10_000
    ) -> Trace:
        """A computation from `start` whose steps are taken as `steps` is iterated.

        The policy is checked here, before any step.
        """
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        trace = Trace(start)
        trace.steps = self._steps(trace, random.Random(seed), max_steps, policy, cap)
        return trace

    def _steps(
        self, trace: Trace, rng: random.Random, max_steps: int, policy: str, cap: int
    ) -> Iterator[TraceStep]:
        c = trace.initial
        layout, counts = self._counts(c)
        for _ in range(max_steps):
            note = None
            if policy == "enumerate-uniform":
                steps, complete = self.maximal_steps(c, cap)
                if steps and complete:
                    choice = steps[rng.randrange(len(steps))]
                    c = self.apply(c, choice)
                    layout, counts = c._layout, c._counts
                    yield TraceStep(choice, c)
                    continue
                if not complete:
                    note = "greedy-random fallback: maximal-step listing overflowed"
            # Only this pass decides halting: it grants nothing when no rule
            # can apply. All takes come from the old counts, then all gives.
            granted, pools = self._greedy_pass(counts, rng)
            if not granted:
                trace.halted = True
                return
            self._give(pools, granted)
            counts = tuple(pools)
            c = Configuration._of(layout, counts)
            yield TraceStep(StepChoice(tuple(granted)), c, note)
        trace.halted = self.is_halted(c)

    def _greedy_pass(
        self, counts: tuple[int, ...], rng: random.Random
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """Saturate rules in shuffled order, taking from a copy of `counts`.

        Shuffles a copy of the scan table, one entry per rule, so the draws
        are those of `rng.shuffle` on the rule indices. Returns the granted
        (index, m) pairs in index order and the residual pools: each grant
        lands in a per-rule slot, read back in index order without a sort.
        Availability only shrinks as rules are granted, so one pass leaves
        nothing extendable.
        """
        order = self._scan[:]
        _shuffle(order, self._draws, rng)
        pools = list(counts)
        bounds = [0] * len(self.rules)
        # The takes are inlined: this runs for every rule of every step.
        for index, slot, count, rest in order:
            bound = pools[slot] // count
            if not bound:
                continue
            if rest:
                for other, k in rest:
                    fits = pools[other] // k
                    if fits < bound:
                        bound = fits
                        if not fits:
                            break
                if not bound:
                    continue
                for other, k in rest:
                    pools[other] -= bound * k
            pools[slot] -= bound * count
            bounds[index] = bound
        return list(compress(enumerate(bounds), bounds)), pools

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
        trace = self._running(start, seed, max_steps, policy)
        trace.steps = list(trace.steps)
        return ("accepted" if trace.halted else "budget_exhausted"), trace


class _Texts(dict):
    """n -> `head` + str(n) + `tail`, made when first met.

    Keeps at most 32 entries, so its memory does not grow with the length of
    the run; an n met once it is full is written afresh each time.
    """

    __slots__ = ("head", "tail")

    def __init__(self, head: str, tail: str = ""):
        super().__init__()
        self.head, self.tail = head, tail

    def __missing__(self, n: int) -> str:
        text = f"{self.head}{n}{self.tail}"
        if len(self) < 32:
            self[n] = text
        return text


def trace_to_lines(engine: Engine, trace: Trace) -> Iterator[str]:
    """The trace as JSON lines: the start, each step, then a summary.

    Each line is what `json.dumps(record, separators=(", ", ": "))` gives,
    written from the count vectors. Each rule's `{"rule": id, "n": N}` text
    and each slot's `"name": N` text come from a table per rule and per slot
    of a layout, made once per call and holding up to 32 values of N each.
    `trace.steps` is read once, in order, so a computation still running
    streams its lines as its steps are taken; `halted` is read after them.
    """
    choices = [_Texts(f'{{"rule": {json.dumps(rule.rid)}, "n": ', "}") for rule in engine.rules]
    keys: dict[_Layout, tuple[list[str], list[list[tuple[int, _Texts]]]]] = {}

    def snapshot(c: Configuration) -> str:
        layout, counts = engine._counts(c)
        if layout not in keys:
            # '"label": ' for each region, and [(slot, its texts), ...] for
            # each region, then for the environment.
            keys[layout] = (
                [f'"{label}": ' for label in layout.labels],
                [
                    [
                        (i, _Texts(f"{json.dumps(name)}: "))
                        for i, name in layout.nodes.get(node, ())
                    ]
                    for node in (*layout.labels, 0)
                ],
            )
        prefixes, nodes = keys[layout]
        *regions, env = [
            "{" + ", ".join([texts[n] for i, texts in entries if (n := counts[i])]) + "}"
            for entries in nodes
        ]
        return f'"regions": {{{", ".join(map(add, prefixes, regions))}}}, "env": {env}'

    c, t = trace.initial, 0
    yield f'{{"step": 0, {snapshot(c)}}}'
    for t, step in enumerate(trace.steps, start=1):
        c = step.after
        choice = ", ".join([choices[i][n] for i, n in step.choice.applications])
        note = f', "note": {json.dumps(step.note)}' if step.note else ""
        yield f'{{"step": {t}, "choice": [{choice}], {snapshot(c)}{note}}}'
    result = f', "result": {engine.result(c)}' if trace.halted else ""
    yield f'{{"halted": {json.dumps(trace.halted)}, "steps": {t}{result}}}'
