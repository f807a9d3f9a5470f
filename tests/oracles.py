"""Independent reference implementations used to cross-check the engine.

Everything here is written from the rule definitions directly, on plain
Counters, sharing no code with the package internals: maximal steps are
found by enumerating every application-count vector up to the obvious
per-rule bounds and keeping the non-extendable applicable ones, and the
generated number set is computed by plain recursion over the tree with
only on-path cycle detection, no memoization.

`memo_walk` is the exception: a reference for the walk's memo rather
than for the semantics, it steps through the engine's public methods.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import product

from psys.model import (
    CellAntiport,
    CellPSystem,
    InteractionSystem,
    SymportIn,
    SymportOut,
    TissuePSystem,
    TissueSymport,
    UniportRule,
)


def norm_rules(sys):
    """(consume, produce) pairs of {node: Counter} for every rule, in order."""
    rules = []
    if isinstance(sys, CellPSystem):
        for rule in sys.rules:
            outer = sys.structure.outer(rule.region)
            form = rule.form
            consume: Counter = Counter()
            if isinstance(form, SymportIn):
                con = {outer: Counter(dict(form.objects.items()))}
                pro = {rule.region: Counter(dict(form.objects.items()))}
            elif isinstance(form, SymportOut):
                con = {rule.region: Counter(dict(form.objects.items()))}
                pro = {outer: Counter(dict(form.objects.items()))}
            else:
                con = {rule.region: Counter(dict(form.outbound.items()))}
                con.setdefault(outer, Counter()).update(dict(form.inbound.items()))
                pro = {outer: Counter(dict(form.outbound.items()))}
                pro.setdefault(rule.region, Counter()).update(dict(form.inbound.items()))
            rules.append((con, pro))
    elif isinstance(sys, TissuePSystem):
        for rule in sys.rules:
            if isinstance(rule, TissueSymport):
                con = {rule.src: Counter(dict(rule.objects.items()))}
                pro = {rule.dst: Counter(dict(rule.objects.items()))}
            else:
                con = {rule.src: Counter(dict(rule.outbound.items()))}
                con.setdefault(rule.dst, Counter()).update(dict(rule.inbound.items()))
                pro = {rule.dst: Counter(dict(rule.outbound.items()))}
                pro.setdefault(rule.src, Counter()).update(dict(rule.inbound.items()))
            rules.append((con, pro))
    else:
        assert isinstance(sys, InteractionSystem)
        for rule in sys.rules:
            con: dict = {}
            pro: dict = {}
            if isinstance(rule, UniportRule):
                moves = [(rule.obj, rule.src, rule.dst)]
            else:
                moves = [
                    (rule.obj_a, rule.src_a, rule.dst_a),
                    (rule.obj_b, rule.src_b, rule.dst_b),
                ]
            for obj, src, dst in moves:
                con.setdefault(src, Counter())[obj] += 1
                pro.setdefault(dst, Counter())[obj] += 1
            rules.append((con, pro))
    return rules


def state_of(sys, configuration):
    """Convert an engine Configuration into the oracle's plain-dict state."""
    regions = {
        label: Counter(dict(ms.items())) for label, ms in configuration.regions.items()
    }
    env_finite = Counter(dict(configuration.env.finite.items()))
    return regions, env_finite


def initial_state(sys):
    if isinstance(sys, CellPSystem):
        labels = range(1, sys.structure.n + 1)
    else:
        labels = range(1, sys.n_cells + 1)
    regions = {
        label: Counter(dict(sys.initial_contents(label).items())) for label in labels
    }
    return regions, Counter()


def vector_applicable(rules, vector, regions, env_finite, env_inf) -> bool:
    demand: dict[int, Counter] = {}
    for (con, _pro), count in zip(rules, vector):
        if count == 0:
            continue
        for node, needs in con.items():
            bucket = demand.setdefault(node, Counter())
            for name, per in needs.items():
                bucket[name] += per * count
    for node, needs in demand.items():
        if node == 0:
            for name, total in needs.items():
                if name in env_inf:
                    continue
                if env_finite[name] < total:
                    return False
        else:
            have = regions[node]
            for name, total in needs.items():
                if have[name] < total:
                    return False
    return True


def standalone_bound(rule, regions, env_finite, env_inf) -> int:
    con, _pro = rule
    bound = None
    for node, needs in con.items():
        pool = env_finite if node == 0 else regions[node]
        for name, per in needs.items():
            if node == 0 and name in env_inf:
                continue
            b = pool[name] // per
            bound = b if bound is None else min(bound, b)
    assert bound is not None, "oracle given a rule with unbounded applicability"
    return bound


def enabled_takes(sys, regions, env_finite) -> list[set[tuple[int, str]]]:
    """The (node, name) pairs taken by each rule applicable at least once.

    Objects in the unlimited supply are left out: no rule uses them up.
    """
    env_inf = set(sys.env_support)
    return [
        {
            (node, name)
            for node, needs in con.items()
            for name in needs
            if node or name not in env_inf
        }
        for con, pro in norm_rules(sys)
        if standalone_bound((con, pro), regions, env_finite, env_inf)
    ]


def maximal_steps_oracle(sys, regions, env_finite) -> set[frozenset[tuple[int, int]]]:
    """Every maximal step as a frozenset of (rule position, multiplicity)."""
    env_inf = set(sys.env_support)
    rules = norm_rules(sys)
    bounds = [standalone_bound(rule, regions, env_finite, env_inf) for rule in rules]
    steps = set()
    for vector in product(*(range(b + 1) for b in bounds)):
        if not vector_applicable(rules, vector, regions, env_finite, env_inf):
            continue
        extendable = False
        for i in range(len(rules)):
            bumped = vector[:i] + (vector[i] + 1,) + vector[i + 1 :]
            if vector_applicable(rules, bumped, regions, env_finite, env_inf):
                extendable = True
                break
        if not extendable and any(vector):
            steps.add(frozenset((i, m) for i, m in enumerate(vector) if m))
    return steps


def _take_oracle(rules, regions, env_finite, env_inf, step) -> None:
    """Remove what `step` consumes from the pools in place."""
    for index, count in step:
        con, _pro = rules[index]
        for node, needs in con.items():
            for name, per in needs.items():
                if node == 0:
                    if name not in env_inf:
                        env_finite[name] -= per * count
                        assert env_finite[name] >= 0
                else:
                    regions[node][name] -= per * count
                    assert regions[node][name] >= 0


def _drop_zeros(regions, env_finite) -> None:
    for pool in (*regions.values(), env_finite):
        for name in [n for n, c in pool.items() if c == 0]:
            del pool[name]


def greedy_pass_oracle(sys, regions, env_finite, rng):
    """One greedy step: `rng.shuffle` the rule positions, then grant each
    rule in that order its standalone bound on what the earlier ones left.

    Returns the granted (rule position, multiplicity) pairs in position
    order and the residual (regions, env_finite) after taking, before
    anything is given.
    """
    env_inf = set(sys.env_support)
    rules = norm_rules(sys)
    regions = {node: Counter(pool) for node, pool in regions.items()}
    env_finite = Counter(env_finite)
    order = list(range(len(rules)))
    rng.shuffle(order)
    granted = []
    for index in order:
        m = standalone_bound(rules[index], regions, env_finite, env_inf)
        if m:
            granted.append((index, m))
            _take_oracle(rules, regions, env_finite, env_inf, [(index, m)])
    _drop_zeros(regions, env_finite)
    return sorted(granted), (regions, env_finite)


def apply_oracle(sys, regions, env_finite, step):
    env_inf = set(sys.env_support)
    rules = norm_rules(sys)
    regions = {node: Counter(pool) for node, pool in regions.items()}
    env_finite = Counter(env_finite)
    _take_oracle(rules, regions, env_finite, env_inf, step)
    for index, count in step:
        con, pro = rules[index]
        for node, gives in pro.items():
            for name, per in gives.items():
                if node == 0:
                    if name not in env_inf:
                        env_finite[name] += per * count
                else:
                    regions[node][name] += per * count
    _drop_zeros(regions, env_finite)
    return regions, env_finite


def _freeze(regions, env_finite):
    return (
        tuple(sorted((node, tuple(sorted(pool.items()))) for node, pool in regions.items())),
        tuple(sorted(env_finite.items())),
    )


def naive_results(sys, max_depth=40, max_total=60):
    """Generated number set by plain tree recursion, no memoization.

    Returns (results, complete). complete is False if some branch was cut
    by depth or size instead of ending or closing a cycle.
    """
    output = sys.output

    def total(regions, env_finite):
        return sum(sum(pool.values()) for pool in regions.values()) + sum(
            env_finite.values()
        )

    results: set[int] = set()
    complete = True

    def walk(regions, env_finite, depth, path):
        nonlocal complete
        steps = maximal_steps_oracle(sys, regions, env_finite)
        if not steps:
            results.add(sum(regions[output].values()))
            return
        if depth >= max_depth or total(regions, env_finite) > max_total:
            complete = False
            return
        key = _freeze(regions, env_finite)
        if key in path:
            return  # the branch loops forever; it can produce nothing
        path = path | {key}
        for step in steps:
            next_regions, next_env = apply_oracle(sys, regions, env_finite, step)
            walk(next_regions, next_env, depth + 1, path)

    regions, env_finite = initial_state(sys)
    walk(regions, env_finite, 0, frozenset())
    return results, complete


def memo_walk(engine, start, budget, stop_at_branching=False, edges=None):
    """The breadth-first walk of `psys.explore`, memoizing configurations by value.

    Visited configurations are `Configuration` objects in a set, so the
    memo rests on their `__eq__` and `__hash__`; successors come from
    `engine.apply`. Returns ((results, exhausted, halting_leaves,
    cut_branches, visited_configs), witness), the witness being the
    first configuration with several maximal steps under
    `stop_at_branching` and None otherwise. A list given as `edges` gets
    every generated (configuration, choice, successor) edge, in order,
    visited successors included: what `explore`'s `on_edge` must see.
    """
    results = set()
    halting_leaves = cut_branches = 0
    witness = None
    visited = {start}
    queue = deque([(start, 0)])
    while queue:
        config, depth = queue.popleft()
        over = config.total_tracked > budget.max_total_objects
        if over and not stop_at_branching:
            halted = engine.is_halted(config)
        else:
            steps, complete = engine.maximal_steps(config, cap=budget.max_branches)
            if stop_at_branching and len(steps) > 1:
                witness = config
                break
            halted = not steps
        if halted:
            halting_leaves += 1
            results.add(config.region_size(engine.output))
            continue
        if over:
            cut_branches += 1
            continue
        if not complete:
            cut_branches += 1
        if depth >= budget.max_depth:
            cut_branches += 1
            continue
        for choice in steps:
            successor = engine.apply(config, choice)
            if edges is not None:
                edges.append((config, choice, successor))
            if successor in visited:
                continue
            if len(visited) >= budget.max_configs:
                cut_branches += 1
                continue
            visited.add(successor)
            queue.append((successor, depth + 1))
    outcome = (frozenset(results), cut_branches == 0, halting_leaves, cut_branches, len(visited))
    return outcome, witness
