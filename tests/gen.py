"""Seeded random system generators for the test suite.

All generators take a random.Random and return systems that pass
validation, so the engine never refuses them. Shapes stay small on
purpose: the brute-force oracle enumerates full application-count
vectors and anything larger would make it the bottleneck. `junk_text`
is the exception: it makes arbitrary text for the parsers, and
`random_machine` makes register machines for the compiler.
`random_shrinking_minimal_system` makes the one-membrane minimal-rule
systems of acceptance criterion 3, whose inside count can never grow.
`altered` copies a system with some fields changed.
"""

from __future__ import annotations

import random

from psys.model import (
    CellAntiport,
    CellPSystem,
    CellRule,
    InteractionRule,
    InteractionSystem,
    MembraneStructure,
    SymportIn,
    SymportOut,
    TissueAntiport,
    TissuePSystem,
    TissueSymport,
    UniportRule,
)
from psys.multiset import Multiset
from psys.rm import Add, Halt, RegisterMachine, Sub


def altered(value, **changes):
    """`value` with `changes` to some of its fields, built through its class, so
    that the class normalizes the new fields as it does any others."""
    fields = {name: getattr(value, name) for name in type(value)._fields}
    return type(value)(**{**fields, **changes})


def random_multiset(rng: random.Random, names, low=1, high=2, max_count=3) -> Multiset:
    size = rng.randint(low, high)
    counts: dict[str, int] = {}
    for _ in range(size):
        name = rng.choice(names)
        if counts.get(name, 0) < max_count:
            counts[name] = counts.get(name, 0) + 1
    return Multiset(counts)


def random_structure(rng: random.Random, max_regions=3) -> MembraneStructure:
    n = rng.randint(1, max_regions)
    parent = {i: rng.randint(1, i - 1) for i in range(2, n + 1)}
    return MembraneStructure(n, parent)


def random_cell_system(
    rng: random.Random,
    max_regions=3,
    max_rules=5,
    max_objects=6,
    max_count=3,
) -> CellPSystem:
    structure = random_structure(rng, max_regions)
    k = rng.randint(1, max_objects)
    names = [f"o{i}" for i in range(1, k + 1)]
    env = {name for name in names if rng.random() < 0.4}
    non_env = [name for name in names if name not in env]

    rules = []
    for _ in range(rng.randint(0, max_rules)):
        region = rng.randint(1, structure.n)
        pick = rng.random()
        if pick < 0.35:
            objects = random_multiset(rng, names, max_count=max_count)
            if region == structure.skin and set(objects.support()) <= env:
                if not non_env:
                    continue  # no legal way to pull from outside the skin
                objects = objects + Multiset({rng.choice(non_env): 1})
            rules.append(CellRule(region, SymportIn(objects)))
        elif pick < 0.7:
            rules.append(
                CellRule(region, SymportOut(random_multiset(rng, names, max_count=max_count)))
            )
        else:
            out = random_multiset(rng, names, max_count=max_count)
            inn = random_multiset(rng, names, max_count=max_count)
            rules.append(CellRule(region, CellAntiport(out, inn)))

    init = {
        label: random_multiset(rng, names, low=0, high=3, max_count=max_count)
        for label in range(1, structure.n + 1)
    }
    output = rng.choice(structure.leaves())
    return CellPSystem(
        alphabet=names,
        structure=structure,
        init=init,
        env_support=env,
        rules=rules,
        output=output,
    )


def random_tissue_system(
    rng: random.Random,
    max_cells=3,
    max_rules=5,
    max_objects=6,
    max_count=3,
) -> TissuePSystem:
    n = rng.randint(1, max_cells)
    k = rng.randint(1, max_objects)
    names = [f"o{i}" for i in range(1, k + 1)]
    env = {name for name in names if rng.random() < 0.4}
    non_env = [name for name in names if name not in env]

    rules = []
    for _ in range(rng.randint(0, max_rules)):
        src, dst = rng.sample(range(0, n + 1), 2)
        if rng.random() < 0.5:
            objects = random_multiset(rng, names, max_count=max_count)
            if src == 0 and set(objects.support()) <= env:
                if not non_env:
                    continue
                objects = objects + Multiset({rng.choice(non_env): 1})
            rules.append(TissueSymport(src, objects, dst))
        else:
            out = random_multiset(rng, names, max_count=max_count)
            inn = random_multiset(rng, names, max_count=max_count)
            rules.append(TissueAntiport(src, out, inn, dst))

    init = {
        label: random_multiset(rng, names, low=0, high=3, max_count=max_count)
        for label in range(1, n + 1)
    }
    return TissuePSystem(
        alphabet=names,
        n_cells=n,
        init=init,
        env_support=env,
        rules=rules,
        output=rng.randint(1, n),
    )


def random_interaction_system(
    rng: random.Random,
    max_cells=3,
    max_rules=5,
    max_objects=6,
    max_count=3,
) -> InteractionSystem:
    n = rng.randint(1, max_cells)
    k = rng.randint(1, max_objects)
    names = [f"o{i}" for i in range(1, k + 1)]
    env = {name for name in names if rng.random() < 0.4}
    non_env = [name for name in names if name not in env]
    nodes = list(range(0, n + 1))

    rules = []
    for _ in range(rng.randint(0, max_rules)):
        if rng.random() < 0.3:
            obj = rng.choice(names)
            src, dst = rng.sample(nodes, 2)
            if src == 0 and obj in env:
                if not non_env:
                    continue
                obj = rng.choice(non_env)
            rules.append(UniportRule(obj, src, dst))
        else:
            obj_a, obj_b = rng.choice(names), rng.choice(names)
            src_a, src_b = rng.choice(nodes), rng.choice(nodes)
            dst_a, dst_b = rng.choice(nodes), rng.choice(nodes)
            if src_a == 0 and src_b == 0 and obj_a in env and obj_b in env:
                if not non_env:
                    continue
                obj_a = rng.choice(non_env)
            if (src_a, src_b) == (dst_a, dst_b):
                dst_a = rng.choice([node for node in nodes if node != src_a] or [src_a])
                if (src_a, src_b) == (dst_a, dst_b):
                    continue
            rules.append(InteractionRule(obj_a, src_a, obj_b, src_b, dst_a, dst_b))

    init = {
        label: random_multiset(rng, names, low=0, high=3, max_count=max_count)
        for label in range(1, n + 1)
    }
    return InteractionSystem(
        alphabet=names,
        n_cells=n,
        init=init,
        env_support=env,
        rules=rules,
        output=rng.randint(1, n),
    )


def random_system(rng: random.Random, **kw):
    pick = rng.random()
    if pick < 0.45:
        return random_cell_system(rng, **kw)
    if pick < 0.9:
        return random_tissue_system(rng, **kw)
    return random_interaction_system(rng, **kw)


def random_shared_system(rng: random.Random, max_rules=4):
    """Cell or tissue system whose rules compete for the same one or two objects.

    Every rule needs at least one object two or three times over, and the
    regions start with up to eight copies of each, so several rules draw
    on one pool at multiplicities above 1: the case where an enumerator
    that takes and gives back resources in place can miscount.
    """
    names = ["o1", "o2"]
    env = {"o2"} if rng.random() < 0.5 else set()

    def need() -> Multiset:
        counts = {rng.choice(names): rng.randint(2, 3)}
        if rng.random() < 0.4:
            other = rng.choice(names)
            counts[other] = counts.get(other, 0) + 1
        return Multiset(counts)

    def bounded(objects: Multiset) -> Multiset:
        # A draw from outside that names only unlimited objects is invalid.
        return objects if set(objects.support()) - env else objects + Multiset({"o1": 1})

    n = rng.randint(1, 2)
    init = {
        label: Multiset({"o1": rng.randint(0, 8), "o2": rng.randint(0, 8)})
        for label in range(1, n + 1)
    }
    rules = []
    if rng.random() < 0.5:
        structure = MembraneStructure(n, {2: 1} if n == 2 else {})
        for _ in range(rng.randint(2, max_rules)):
            region = rng.randint(1, n)
            pick = rng.random()
            if pick < 0.3:
                objects = need()
                if region == structure.skin:
                    objects = bounded(objects)
                rules.append(CellRule(region, SymportIn(objects)))
            elif pick < 0.6:
                rules.append(CellRule(region, SymportOut(need())))
            else:
                rules.append(CellRule(region, CellAntiport(need(), need())))
        return CellPSystem(names, structure, init, env, rules, rng.choice(structure.leaves()))
    for _ in range(rng.randint(2, max_rules)):
        src, dst = rng.sample(range(0, n + 1), 2)
        if rng.random() < 0.5:
            objects = need()
            rules.append(TissueSymport(src, bounded(objects) if src == 0 else objects, dst))
        else:
            rules.append(TissueAntiport(src, need(), need(), dst))
    return TissuePSystem(names, n, init, env, rules, rng.randint(1, n))


def random_shrinking_minimal_system(rng: random.Random) -> CellPSystem:
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


def random_machine(rng: random.Random) -> RegisterMachine:
    """A machine of 1-2 registers and 2-6 instructions, output r1, start p0.

    The last label halts; every other one adds or subtracts on a random
    register and jumps to random labels. Nothing forces compiler normal
    form, so some machines halt with r2 non-zero.
    """
    registers = rng.randint(1, 2)
    labels = [f"p{i}" for i in range(rng.randint(2, 6))]
    instructions = {labels[-1]: Halt()}
    for label in labels[:-1]:
        kind = Add if rng.random() < 0.5 else Sub
        register = rng.randint(1, registers)
        instructions[label] = kind(register, rng.choice(labels), rng.choice(labels))
    return RegisterMachine(registers, 1, labels[0], instructions)


def junk_text(rng) -> str:
    """Random bytes decoded leniently, or a soup of format keywords and punctuation."""
    if rng.random() < 0.5:
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        return raw.decode("utf-8", errors="replace")
    seeds = [
        "@model", "cell", "tissue", "@rules", "1:", "(a, out)", "(0, x / y, 1)",
        "@init", "@objects", "registers", "->", "|", "(", ")", "^", "#", "\n",
        "@membranes", "1(2", "a^0", "@output", "HALT", "p0:",
    ]
    return " ".join(rng.choice(seeds) for _ in range(rng.randrange(0, 25)))
