import copy
import importlib
import json
import random
import re
import sys
import time
import tracemalloc
import types
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from psys.engine import (
    Configuration,
    Engine,
    StepChoice,
    Trace,
    UnboundedStepError,
    _draws,
    _shuffle,
    trace_to_lines,
)
from psys.dsl import parse_system
from psys.explore import (
    ExploreBudget,
    ExploreOutcome,
    check_deterministic,
    decide_accept,
    explore,
)
from psys.model import (
    CellAntiport,
    CellPSystem,
    CellRule,
    InteractionSystem,
    MembraneStructure,
    SymportIn,
    SymportOut,
    TissueAntiport,
    TissueSymport,
    TissuePSystem,
    UniportRule,
    encode_cell_as_tissue,
    validate,
)
from psys.multiset import EnvContent, Multiset, MultisetUnderflow, parse_multiset
from psys.rm import compile_machine

from gen import random_cell_system, random_shared_system, random_system
from machines import transfer, verification_suite
from oracles import (
    apply_oracle,
    enabled_takes,
    greedy_pass_oracle,
    maximal_steps_oracle,
    norm_rules,
    standalone_bound,
    state_of,
)

# The modules, not the `psys.explore` function that shadows its module's name.
engine_module = importlib.import_module("psys.engine")
explore_module = importlib.import_module("psys.explore")


def ms(text):
    return parse_multiset(text)


def cell(rules, init="a", alphabet=("a", "b", "c"), env=(), output=1, n=1, parent=()):
    return CellPSystem(
        alphabet=alphabet,
        structure=MembraneStructure(n, dict(parent)),
        init={1: ms(init)} if isinstance(init, str) else {k: ms(v) for k, v in init.items()},
        env_support=env,
        rules=rules,
        output=output,
    )


def choice_set(choices):
    return {frozenset(choice.applications) for choice in choices}


# ---------------------------------------------------------------- enabled


def test_enabled_needs_every_object():
    eng = Engine(cell([CellRule(1, SymportOut(ms("a b")))], init="a b"))
    [(rule, bound)] = eng.enabled(eng.initial())
    assert bound == 1


def test_enabled_counts_disjoint_applications():
    eng = Engine(cell([CellRule(1, SymportOut(ms("a")))], init="a^3"))
    [(rule, bound)] = eng.enabled(eng.initial())
    assert bound == 3


def test_enabled_empty_region():
    eng = Engine(cell([CellRule(1, SymportOut(ms("a")))], init="empty"))
    assert eng.enabled(eng.initial()) == []


def test_enabled_rejects_rules_with_no_finite_bound():
    # Hand-built invalid systems with a rule that draws only on the unlimited
    # supply: symport-in at the skin over E, alone and behind a bounded rule
    # ahead of a second such rule; a tissue symport out of node 0; a uniport
    # out of node 0. No scan is reached: `Engine()` names the first such rule
    # in index order, and so does every walk that builds its engine.
    unbounded = [CellRule(1, SymportIn(ms("a"))), CellRule(1, SymportIn(ms("c")))]
    bounded = CellRule(1, SymportOut(ms("b")))
    cases = [
        (cell(unbounded[:1], init="b", env=("a", "c")), "r1 (a, in) @ 1"),
        (cell([bounded, *unbounded], init="b", env=("a", "c")), "r2 (a, in) @ 1"),
        (
            TissuePSystem("ab", 1, {1: ms("b")}, "a", [TissueSymport(0, ms("a"), 1)], 1),
            "r1 (0, a, 1)",
        ),
        (
            InteractionSystem("ab", 1, {1: ms("b")}, "a", [UniportRule("a", 0, 1)], 1),
            "r1 (a,0) -> (a,1)",
        ),
    ]
    # A count one digit longer than `str()` writes: the rule is named by id.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        huge = Multiset({"a": 10**limit})
        cases += [
            (cell([CellRule(1, SymportIn(huge))], init="b", env=("a",)), "r1"),
            (TissuePSystem("ab", 1, {1: ms("b")}, "a", [TissueSymport(0, huge, 1)], 1), "r1"),
        ]
    walks = (explore, check_deterministic, lambda sys: decide_accept(sys, ms("b"), 1))
    for system, rule in cases:
        for call in (Engine, *walks):
            with pytest.raises(UnboundedStepError) as raised:
                call(system)
            assert str(raised.value) == f"rule {rule} consumes only unlimited objects"


def test_greedy_step_rejects_rules_with_no_finite_bound():
    # No greedy pass is reached either, so no shuffle decides which rule is
    # reported: whatever order the rules are listed in, `Engine()` names the
    # first unbounded one by index.
    rules = [
        CellRule(1, SymportOut(ms("b"))),
        CellRule(1, SymportIn(ms("a"))),
        CellRule(1, SymportIn(ms("c"))),
        CellRule(1, SymportOut(ms("b^2"))),
    ]
    for seed in range(20):
        order = rules[:]
        random.Random(seed).shuffle(order)
        first = next(i for i, r in enumerate(order, 1) if isinstance(r.form, SymportIn))
        with pytest.raises(UnboundedStepError, match=f"^rule r{first} "):
            Engine(cell(order, init="b", env=("a", "c")))


def test_configuration_refuses_a_region_labelled_0():
    # Node 0 is the environment's: its remainder would overwrite the region.
    with pytest.raises(ValueError, match="region label 0 "):
        Configuration({0: ms("a^2"), 1: ms("b")}, EnvContent((), ms("a^5")))


# ---------------------------------------------------------------- maximal steps


# Each system reaches one branch of `Engine._enabled`'s scan or of
# `_listing`'s contention test from the contents given with it.
SCAN_BRANCHES = [
    # a first take of 2 whose slot holds 1
    (["a^2"], "a"),
    # the first slot held but a later take short
    (["a b"], "a"),
    # two rules that contend only through their second take
    (["a c", "b c"], "a b c"),
    # three pairwise-disjoint enabled rules
    (["a", "b", "c d"], "a b c d"),
]


def test_enabled_and_steps_agree_with_the_oracle_on_each_scan_branch():
    rng = random.Random(41)
    names = ["a", "b", "c", "d", "zz"]
    appended = 0
    for (outs, contents), compiled in product(SCAN_BRANCHES, (False, True)):
        sys = cell([CellRule(1, SymportOut(ms(out))) for out in outs], init="empty")
        eng = Engine(sys)
        generated = eng._generated_scan()
        # zz is outside the alphabet: the input gets a slot appended to the layout.
        inputs = [ms(contents), ms(contents + " zz")]
        inputs += [Multiset(rng.choices(names, k=rng.randint(0, 7))) for _ in range(30)]
        for objects in inputs:
            c = eng.initial(objects, 1)
            appended += c._layout is not eng._layout
            regions, env_finite = state_of(sys, c)
            bounds = [standalone_bound(rule, regions, env_finite, ()) for rule in norm_rules(sys)]
            if compiled:
                # The generated scan's output, handed to the listing as a walk does.
                got = generated(c._counts)
                listed, complete = eng._listing(c._counts, got, 10_000)
                steps = tuple(map(StepChoice, listed))
            else:
                got = [(rule.index, m) for rule, m in eng.enabled(c)]
                steps, complete = eng.maximal_steps(c)
            assert got == [(i, bound) for i, bound in enumerate(bounds) if bound], (outs, objects)
            expected = maximal_steps_oracle(sys, regions, env_finite)
            assert complete and choice_set(steps) == expected, (outs, objects)
    assert appended >= 2 * len(SCAN_BRANCHES)


def test_maximal_steps_two_competing_rules():
    sys = cell(
        [CellRule(1, SymportOut(ms("a b"))), CellRule(1, SymportOut(ms("a")))],
        init="a b",
    )
    eng = Engine(sys)
    choices, complete = eng.maximal_steps(eng.initial())
    assert complete
    assert choice_set(choices) == {frozenset({(0, 1)}), frozenset({(1, 1)})}


def test_maximal_steps_forced_multiplicity():
    eng = Engine(cell([CellRule(1, SymportOut(ms("a")))], init="a^2"))
    choices, complete = eng.maximal_steps(eng.initial())
    assert complete
    assert choice_set(choices) == {frozenset({(0, 2)})}


def test_maximal_steps_halting_configuration():
    eng = Engine(cell([CellRule(1, SymportOut(ms("a")))], init="empty"))
    assert eng.maximal_steps(eng.initial()) == ((), True)


def test_maximal_steps_cap_and_truncation():
    sys = cell(
        [
            CellRule(1, SymportOut(ms("a b"))),
            CellRule(1, SymportOut(ms("a"))),
            CellRule(1, SymportOut(ms("b"))),
        ],
        init="a^5 b^5",
    )
    eng = Engine(sys)
    choices, complete = eng.maximal_steps(eng.initial())
    assert complete and len(choices) == 6  # 0..5 pairings of the two-object rule
    exact, complete = eng.maximal_steps(eng.initial(), cap=6)
    assert complete and len(exact) == 6
    cut, complete = eng.maximal_steps(eng.initial(), cap=5)
    assert not complete and len(cut) == 5


def test_last_rule_in_play_tries_only_its_top_multiplicity():
    # One enabled rule of bound b is one maximal step. Walking the b
    # smaller counts as well would hit the work limit (65,536 leaves at
    # cap 1) and report the one-step listing as incomplete.
    eng = Engine(cell([CellRule(1, SymportOut(ms("a")))], init="a^70000"))
    assert eng.maximal_steps(eng.initial(), cap=1) == ((StepChoice(((0, 70000),)),), True)
    assert eng.maximal_steps(eng.initial(), cap=0) == ((), False)


@pytest.mark.parametrize("k, cap", [(18, 1), (21, 10_000)])
def test_rules_taking_disjoint_objects_form_one_step_without_search(k, cap):
    # The k rules (o_i, out) take nothing in common, so all of them at
    # their tops is the only maximal step. Searching the lower counts too
    # would visit 2^(k-1) leaves, past the work limit (65,536 at cap 1,
    # 640,000 at cap 10,000), and report the listing as incomplete.
    names = [f"o{i}" for i in range(k)]
    eng = Engine(
        cell(
            [CellRule(1, SymportOut(ms(name))) for name in names],
            init=" ".join(names),
            alphabet=tuple(names),
        )
    )
    start = time.perf_counter()
    got = eng.maximal_steps(eng.initial(), cap=cap)
    assert time.perf_counter() - start < 1.0
    assert got == ((StepChoice(tuple((i, 1) for i in range(k))),), True)
    assert eng.maximal_steps(eng.initial(), cap=0) == ((), False)


def test_listing_holds_more_rules_in_play_than_the_recursion_limit():
    # n rules (a, out; b_i, in) compete for one a. The search keeps its
    # place in two lists, not on the call stack, so a listing may hold
    # more rules in play than Python's recursion limit allows frames.
    n = sys.getrecursionlimit() + 100
    names = [f"b{i}" for i in range(1, n + 1)]
    system = cell(
        [CellRule(1, CellAntiport(ms("a"), ms(name))) for name in names],
        alphabet=("a", *names),
        env=names,
    )
    eng = Engine(system)
    choices, complete = eng.maximal_steps(eng.initial(), cap=3)
    assert [choice.applications for choice in choices] == [((0, 1),), ((1, 1),), ((2, 1),)]
    assert not complete
    outcome = explore(system)
    assert outcome.results == {1} and outcome.exhausted and outcome.halting_leaves == n


def test_work_limit_cuts_a_listing_at_a_fixed_leaf():
    # r1 (z, out; w, in) comes first, then a pair (o_i, out; x_i | y_i, in)
    # for each of ten o_i. The search tree has 2 * 3^9 * 2 = 78,732 leaves,
    # half under each count of r1. The 2^10 maximal steps all fire r1, so
    # they lie in the first half (39,366 leaves), and every leaf of the
    # second half leaves z behind. The work limit is max(cap * 64, 65,536)
    # leaves: at cap 1,100 it is 70,400, which cuts the second half; at cap
    # 2,000 it is 128,000, past the whole tree.
    pairs = [(f"o{i}", f"x{i}", f"y{i}") for i in range(10)]
    rules = [CellRule(1, CellAntiport(ms("z"), ms("w")))]
    for o, x, y in pairs:
        rules += [CellRule(1, CellAntiport(ms(o), ms(x))), CellRule(1, CellAntiport(ms(o), ms(y)))]
    unlimited = ["w", *(name for _, x, y in pairs for name in (x, y))]
    held = ["z", *(o for o, _, _ in pairs)]
    system = cell(rules, init=" ".join(held), alphabet=(*held, *unlimited), env=unlimited)
    eng = Engine(system)
    start = eng.initial()
    cut, complete = eng.maximal_steps(start, cap=1_100)
    assert len(cut) == 1_024 and not complete
    whole, complete = eng.maximal_steps(start, cap=2_000)
    assert whole == cut and complete
    # r1 once and one rule of each pair: r1 is rule 0, o_i's pair rules 2i+1 and 2i+2.
    # (maximal_steps_oracle agrees, but walks all 2^21 count vectors in about two minutes.)
    expected = {
        frozenset({(0, 1), *((2 * i + 1 + side, 1) for i, side in enumerate(sides))})
        for sides in product((0, 1), repeat=10)
    }
    assert choice_set(whole) == expected


RING = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "ring.psys"


def test_work_limit_cuts_the_ring_listing_at_its_first_step():
    # At the 8-cell ring's start 80 of its 88 rules can fire, many of them
    # contending for one object, so the listing is wide. At cap 1 the work
    # limit is 65,536 leaves: the first maximal step is found, then the
    # limit cuts the listing before a second one or the end of the tree.
    eng = Engine(parse_system(RING.read_text(encoding="utf-8"))[0])
    (first,), complete = eng.maximal_steps(eng.initial(), cap=1)
    assert not complete
    assert first.applications == (
        (8, 11), (10, 3), (11, 5), (13, 8), (14, 11), (15, 14), (16, 5), (17, 8),
        (18, 5), (19, 9), (21, 8), (23, 6), (24, 14), (25, 5), (26, 8), (27, 11),
        (28, 5), (30, 3), (31, 5), (32, 6), (33, 6), (34, 5), (35, 8), (36, 11),
        (37, 14), (38, 8), (40, 3), (41, 8), (42, 6), (44, 8), (45, 11), (46, 14),
        (47, 5), (48, 11), (50, 3), (51, 5), (54, 11), (55, 14), (56, 5), (57, 8),
        (58, 5), (59, 9), (61, 8), (63, 6), (64, 14), (65, 5), (66, 8), (67, 11),
        (68, 5), (70, 3), (71, 5), (72, 6), (73, 6), (74, 5), (75, 8), (76, 11),
        (77, 14), (78, 8), (80, 3), (82, 14), (84, 8), (85, 11), (86, 14), (87, 5),
    )


def test_step_choices_are_canonically_ordered():
    sys = cell(
        [CellRule(1, SymportOut(ms("b"))), CellRule(1, SymportOut(ms("a")))],
        init="a b",
    )
    eng = Engine(sys)
    (only,), _ = eng.maximal_steps(eng.initial())
    assert only.applications == ((0, 1), (1, 1))  # sorted by rule index


# ---------------------------------------------------------------- apply


def exchange_system(env):
    return cell([CellRule(1, CellAntiport(ms("a"), ms("b")))], init="a", env=env)


def test_apply_exchange_tracks_expelled_objects():
    # a is not in E, so pushing it out must land in the finite remainder.
    eng = Engine(exchange_system(env=("b",)))
    (choice,), _ = eng.maximal_steps(eng.initial())
    after = eng.apply(eng.initial(), choice)
    assert after.regions[1] == ms("b")
    assert after.env.finite == ms("a")


def test_apply_exchange_unlimited_objects_vanish():
    # With a in E the expelled copy joins the infinite pool instead.
    eng = Engine(exchange_system(env=("a", "b")))
    (choice,), _ = eng.maximal_steps(eng.initial())
    after = eng.apply(eng.initial(), choice)
    assert after.regions[1] == ms("b")
    assert after.env.finite == Multiset()


def test_apply_symport_out_accumulates_in_finite_part():
    eng = Engine(cell([CellRule(1, SymportOut(ms("a")))], init="a"))
    (choice,), _ = eng.maximal_steps(eng.initial())
    after = eng.apply(eng.initial(), choice)
    assert after.regions[1] == Multiset()
    assert after.env.finite == ms("a")


def test_apply_empty_choice_is_identity_on_halted():
    eng = Engine(cell([], init="a^2"))
    c = eng.initial()
    assert eng.apply(c, StepChoice(())) == c


def test_apply_of_a_choice_that_does_not_fit_underflows():
    eng = Engine(cell([CellRule(1, SymportOut(ms("a"))), CellRule(1, SymportIn(ms("a")))]))
    c = eng.initial()
    with pytest.raises(MultisetUnderflow):
        eng.apply(c, StepChoice(((0, 2),)))
    # The a sent out this step cannot pay for the a taken in: products come
    # after every consumption, so the empty environment remainder underflows.
    with pytest.raises(MultisetUnderflow):
        eng.apply(c, StepChoice(((0, 1), (1, 1))))


def test_apply_of_a_net_zero_rule_still_takes_first():
    # (1, a / a, 0) with a tracked on both sides changes no count, so its
    # net table is empty; a multiplicity above cell 1's a must still fail.
    sys = TissuePSystem(["a"], 1, {1: ms("a^2")}, (), [TissueAntiport(1, ms("a"), ms("a"), 0)], 1)
    eng = Engine(sys)
    c = Configuration({1: ms("a^2")}, EnvContent(frozenset(), ms("a^5")))
    assert eng.apply(c, StepChoice(((0, 2),))) == c
    with pytest.raises(MultisetUnderflow) as raised:
        eng.apply(c, StepChoice(((0, 3),)))
    assert str(raised.value) == "step ((0, 3),) takes more a than node 1 holds"


def test_apply_names_the_slot_where_two_rules_takes_add_past_its_count():
    # (a, out) and (a, out; b, in) each fit the one a alone, not together.
    rules = [CellRule(1, SymportOut(ms("a"))), CellRule(1, CellAntiport(ms("a"), ms("b")))]
    eng = Engine(cell(rules, init="a", env=("b",)))
    assert eng.enabled(eng.initial()) == [(eng.rules[0], 1), (eng.rules[1], 1)]
    with pytest.raises(MultisetUnderflow) as raised:
        eng.apply(eng.initial(), StepChoice(((0, 1), (1, 1))))
    assert str(raised.value) == "step ((0, 1), (1, 1)) takes more a than node 1 holds"


def test_apply_is_deterministic():
    rng = random.Random(23)
    for _ in range(40):
        sys = random_system(rng)
        eng = Engine(sys)
        c = eng.initial()
        choices, _ = eng.maximal_steps(c, cap=50)
        for choice in choices[:3]:
            assert eng.apply(c, choice) == eng.apply(c, choice)


def test_two_phase_apply_objects_made_this_step_are_not_consumed():
    # Region 2 pulls b from region 1 while pushing a up into region 1.
    sys = CellPSystem(
        alphabet=["a", "b"],
        structure=MembraneStructure(2, {2: 1}),
        init={1: ms("b"), 2: ms("a")},
        env_support=[],
        rules=[
            CellRule(2, SymportIn(ms("b"))),
            CellRule(2, SymportOut(ms("a"))),
        ],
        output=2,
    )
    eng = Engine(sys)
    (choice,), _ = eng.maximal_steps(eng.initial())
    after = eng.apply(eng.initial(), choice)
    # a moved 2 -> 1 and b moved 1 -> 2 simultaneously.
    assert after.regions[1] == ms("a")
    assert after.regions[2] == ms("b")
    # The a that arrived in region 1 was not re-importable this step.
    steps, _ = eng.maximal_steps(after)
    assert choice_set(steps) == {frozenset({(0, 1)})} or steps == ()


# ---------------------------------------------------------------- halting and result


def test_halted_no_rules():
    eng = Engine(cell([], init="a"))
    assert eng.is_halted(eng.initial())


def test_perpetual_rule_never_halts():
    eng = Engine(cell([CellRule(1, CellAntiport(ms("a"), ms("a")))], init="a", env=("a",)))
    assert not eng.is_halted(eng.initial())


def test_halted_when_rules_touch_absent_objects():
    eng = Engine(cell([CellRule(1, SymportOut(ms("a")))], init="b"))
    assert eng.is_halted(eng.initial())


def test_result_counts_output_region():
    eng = Engine(cell([], init="a^2 b"))
    assert eng.result(eng.initial()) == 3
    empty = Engine(cell([], init="empty"))
    assert empty.result(empty.initial()) == 0


def test_result_reads_an_output_region_the_configuration_leaves_out():
    # `Configuration(regions, env)` need not list an empty region; the engine
    # reads the output from the counts lowered onto its own layout, as the
    # walk does.
    sys = cell(
        [CellRule(1, SymportOut(ms("a")))],
        init="b", alphabet=("a", "b"), env=("b",), n=2, parent={2: 1}, output=2,
    )
    eng = Engine(sys)
    c = Configuration({1: ms("b")}, EnvContent({"b"}, ms("a")))
    assert eng.result(c) == 0
    assert explore(eng, start=c).results == frozenset({0})
    lines = list(trace_to_lines(eng, Trace(c, halted=True)))
    assert lines[-1] == '{"halted": true, "steps": 0, "result": 0}'


def test_result_requires_halting():
    eng = Engine(cell([CellRule(1, SymportOut(ms("a")))], init="a"))
    with pytest.raises(ValueError):
        eng.result(eng.initial())


def test_no_rule_system_halts_immediately_with_result():
    eng = Engine(cell([], init="a"))
    trace = eng.run(seed=1)
    assert trace.halted and trace.steps_taken == 0
    assert eng.result(trace.final) == 1


# ---------------------------------------------------------------- run


def test_run_two_step_drain():
    sys = cell(
        [CellRule(1, SymportOut(ms("a b"))), CellRule(1, SymportIn(ms("a")))],
        init="a b",
    )
    eng = Engine(sys)
    trace = eng.run(seed=0)
    assert trace.halted
    assert trace.steps_taken == 2
    sizes = [c.regions[1].size for c in trace.configurations()]
    assert sizes == [2, 0, 1]
    assert eng.result(trace.final) == 1


def test_run_budget_exhaustion_is_not_an_error():
    eng = Engine(cell([CellRule(1, CellAntiport(ms("a"), ms("a")))], init="a", env=("a",)))
    trace = eng.run(seed=0, max_steps=100)
    assert not trace.halted
    assert trace.steps_taken == 100


def test_run_is_reproducible_for_a_seed():
    sys = cell(
        [
            CellRule(1, SymportOut(ms("a b"))),
            CellRule(1, SymportOut(ms("a"))),
            CellRule(1, SymportOut(ms("b"))),
        ],
        init="a^4 b^4",
    )
    for seed in range(5):
        t1 = Engine(sys).run(seed=seed)
        t2 = Engine(sys).run(seed=seed)
        assert [s.choice for s in t1.steps] == [s.choice for s in t2.steps]


def test_run_greedy_policy_halts_and_takes_maximal_steps():
    sys = cell(
        [
            CellRule(1, SymportOut(ms("a b"))),
            CellRule(1, SymportOut(ms("a"))),
            CellRule(1, SymportOut(ms("b"))),
        ],
        init="a^3 b^3",
    )
    eng = Engine(sys)
    trace = eng.run(seed=9, policy="greedy-random")
    assert trace.halted
    c = eng.initial()
    for step in trace.steps:
        legal, complete = eng.maximal_steps(c)
        assert complete
        assert frozenset(step.choice.applications) in choice_set(legal)
        c = eng.apply(c, step.choice)
    assert c == trace.final


def test_run_cap_overflow_falls_back_to_greedy_with_note():
    sys = cell(
        [
            CellRule(1, SymportOut(ms("a b"))),
            CellRule(1, SymportOut(ms("a"))),
            CellRule(1, SymportOut(ms("b"))),
        ],
        init="a^5 b^5",
    )
    eng = Engine(sys)
    trace = eng.run(seed=3, cap=2)
    assert trace.halted
    assert any(step.note for step in trace.steps)
    assert eng.result(trace.final) == 0


def test_inline_shuffle_draws_like_random_shuffle():
    # Later enumerate-uniform draws depend on the generator's state, so it
    # must match too, not only the permutation.
    for n in range(131):
        draws = _draws(n)
        for seed in range(20):
            expected, got = list(range(n)), list(range(n))
            reference, rng = random.Random(seed), random.Random(seed)
            reference.shuffle(expected)
            _shuffle(got, draws, rng)
            assert got == expected
            assert rng.getstate() == reference.getstate()


def test_greedy_pass_agrees_with_the_oracle():
    # Granted pairs, residual pools and the generator's state after each
    # pass, a few steps deep, on both generators' systems; every fourth
    # run starts with an input outside the alphabet, on a widened layout.
    rng = random.Random(2121)
    passes = widened = short_rest = 0
    for k in range(400):
        sys = random_shared_system(rng) if k % 2 else random_system(rng)
        eng = Engine(sys)
        c = eng.initial()
        if k % 4 == 3:
            c = eng.initial(Multiset({"zz": 2}), rng.choice(list(eng.labels)))
            widened += 1
        for _ in range(5):
            layout, counts = eng._counts(c)
            seed = rng.randrange(1_000)
            mine, reference = random.Random(seed), random.Random(seed)
            granted, pools = eng._greedy_pass(counts, mine)
            expected, residual = greedy_pass_oracle(sys, *state_of(sys, c), reference)
            assert granted == expected
            assert state_of(sys, Configuration._of(layout, tuple(pools))) == residual
            assert mine.getstate() == reference.getstate()
            passes += 1
            # A granted rule whose first take alone would allow more.
            short_rest += any(
                counts[eng._takes[index][0][0]] // eng._takes[index][0][1] > m
                for index, m in granted
            )
            if not granted:
                break
            eng._give(pools, granted)
            c = Configuration._of(layout, tuple(pools))
    assert passes >= 750 and widened == 100 and short_rest >= 40, (passes, widened, short_rest)


def chosen_then_applied(eng, start, rng, max_steps, policy, cap):
    """(choice, after, note) of every step, choosing as `Engine.run` does and
    applying with `Engine.apply`, then whether the run halted."""
    c, out = start, []
    for _ in range(max_steps):
        note = None
        if policy == "enumerate-uniform":
            steps, complete = eng.maximal_steps(c, cap)
            if steps and complete:
                choice = steps[rng.randrange(len(steps))]
            else:
                choice = StepChoice(tuple(eng._greedy_pass(eng._counts(c)[1], rng)[0]))
                note = "greedy-random fallback: maximal-step listing overflowed"
        else:
            choice = StepChoice(tuple(eng._greedy_pass(eng._counts(c)[1], rng)[0]))
        if not choice.applications:
            return out, True
        c = eng.apply(c, choice)
        out.append((choice, c, note))
    return out, eng.is_halted(c)


# Cap 1 makes most enumerate-uniform steps fall back to greedy, with a note;
# cap 0 makes every step fall back.
POLICIES = (
    ("greedy-random", 10_000),
    ("enumerate-uniform", 0),
    ("enumerate-uniform", 1),
    ("enumerate-uniform", 10_000),
)


def test_fused_steps_equal_choose_then_apply():
    rng = random.Random(1313)
    notes = 0
    for k in range(300):
        sys = random_shared_system(rng) if k % 2 else random_system(rng)
        eng = Engine(sys)
        seed, max_steps = rng.randrange(1_000), rng.randint(1, 10)
        # An input object outside the alphabet gives the run a widened layout.
        outside = eng.initial(Multiset({"zz": 2}), rng.choice(list(eng.labels)))
        for start in (eng.initial(), outside):
            for policy, cap in POLICIES:
                trace = eng._running(start, seed, max_steps, policy, cap)
                fused = [(step.choice, step.after, step.note) for step in trace.steps]
                expected, halted = chosen_then_applied(
                    eng, start, random.Random(seed), max_steps, policy, cap
                )
                assert fused == expected
                assert [after._counts for _, after, _ in fused] == [
                    after._counts for _, after, _ in expected
                ]
                assert trace.halted == halted
                notes += any(note for _, _, note in fused)
    assert notes >= 50


def test_run_rejects_unknown_policy(monkeypatch):
    eng = Engine(cell([CellRule(1, SymportOut(ms("a")))], init="a"))

    def no_step(*_):
        raise AssertionError("a step was taken under an unknown policy")

    for method in ("maximal_steps", "_greedy_pass", "apply", "is_halted"):
        monkeypatch.setattr(eng, method, no_step)
    with pytest.raises(ValueError, match="unknown policy 'nope'"):
        eng.run(seed=0, policy="nope")
    with pytest.raises(ValueError, match="unknown policy 'nope'"):
        eng.run_accepting(ms("a"), 1, seed=0, policy="nope")
    # The streaming form raises at the call, not at the first step read.
    with pytest.raises(ValueError, match="unknown policy 'nope'"):
        eng._running(eng.initial(), 0, 10, "nope")


# ---------------------------------------------------------------- accepting runs


def perpetual():
    return cell(
        [CellRule(1, CellAntiport(ms("a"), ms("a")))],
        init="empty",
        alphabet=("a", "b"),
        env=("a",),
    )


def test_accepting_halts_when_input_is_inert():
    status, trace = Engine(perpetual()).run_accepting(ms("b^2"), 1, seed=0, max_steps=50)
    assert status == "accepted"
    assert trace.halted and trace.steps_taken == 0


def test_accepting_budget_exhausted_on_perpetual_input():
    status, trace = Engine(perpetual()).run_accepting(ms("a"), 1, seed=0, max_steps=50)
    assert status == "budget_exhausted"
    assert not trace.halted and trace.steps_taken == 50


def test_accepting_empty_input_no_rules():
    status, trace = Engine(cell([], init="empty")).run_accepting(
        Multiset(), 1, seed=0, max_steps=50
    )
    assert status == "accepted"
    assert trace.steps_taken == 0


def test_accepting_leaves_declared_init_in_place():
    sys = cell([], init="a")
    status, trace = Engine(sys).run_accepting(ms("b"), 1, seed=0, max_steps=10)
    assert status == "accepted"
    assert trace.final.regions[1] == ms("a b")


def test_accepting_rejects_an_unknown_input_region():
    eng = Engine(perpetual())
    with pytest.raises(ValueError, match="no region labeled 7"):
        eng.run_accepting(ms("a"), 7, seed=0, max_steps=10)
    with pytest.raises(ValueError, match="no region labeled None"):
        eng.initial(ms("a"))


def test_initial_adds_input_to_the_declared_contents():
    eng = Engine(cell([], init={1: "a", 2: "empty"}, n=2, parent={2: 1}, output=2))
    assert eng.initial() == eng.initial(Multiset(), 2)
    seeded = eng.initial(ms("a b"), 1)
    assert seeded.regions == {1: ms("a^2 b"), 2: Multiset()}
    assert seeded.env == eng.initial().env


# ---------------------------------------------------------------- properties


def walk(eng, rng, max_steps=8):
    """Random trajectory yielding (config, choice, successor) triples."""
    c = eng.initial()
    for _ in range(max_steps):
        choices, _ = eng.maximal_steps(c, cap=200)
        if not choices:
            return
        choice = rng.choice(choices)
        after = eng.apply(c, choice)
        yield c, choice, after
        c = after
        if c.total_tracked > 80:
            return


def test_conservation_of_bounded_objects():
    rng = random.Random(31)
    steps = 0
    while steps < 2_000:
        sys = random_system(rng)
        eng = Engine(sys)
        tracked = [name for name in sys.alphabet if name not in sys.env_support]
        for before, _choice, after in walk(eng, rng):
            for name in tracked:
                total_before = before.env.finite.count(name) + sum(
                    w.count(name) for w in before.regions.values()
                )
                total_after = after.env.finite.count(name) + sum(
                    w.count(name) for w in after.regions.values()
                )
                assert total_before == total_after, (sys, name)
            steps += 1


def test_maximal_steps_agree_with_brute_force_oracle():
    rng = random.Random(32)

    def cases():
        for _ in range(150):
            yield random_system(rng), 3
        # The compiled machines' Sub gadget fires two rules in its middle
        # step that take nothing in common.
        for machine in verification_suite():
            yield compile_machine(machine).system, 12

    # Configurations with two or more enabled rules, by whether some pair
    # of them takes from one pool: the engine lists the disjoint kind
    # without search and searches the shared kind.
    kinds = Counter()
    for sys, depth in cases():
        eng = Engine(sys)
        c = eng.initial()
        for _depth in range(depth):
            regions, env_finite = state_of(sys, c)
            takes = enabled_takes(sys, regions, env_finite)
            if len(takes) >= 2:
                slots = [slot for take in takes for slot in take]
                kinds["disjoint" if len(set(slots)) == len(slots) else "shared"] += 1
            expected = maximal_steps_oracle(sys, regions, env_finite)
            got, complete = eng.maximal_steps(c, cap=5_000)
            assert complete
            assert choice_set(got) == expected, sys
            for step in got:
                after = apply_oracle(sys, regions, env_finite, step.applications)
                assert state_of(sys, eng.apply(c, step)) == after, (sys, step)
            if not got:
                break
            c = eng.apply(c, rng.choice(got))
            if c.total_tracked > 40:
                break
    assert kinds["disjoint"] >= 10 and kinds["shared"] >= 20, kinds


def test_cell_and_tissue_encodings_step_identically():
    rng = random.Random(33)
    for _ in range(60):
        sys = random_cell_system(rng)
        twin = encode_cell_as_tissue(sys)
        eng_a, eng_b = Engine(sys), Engine(twin)
        assert eng_a.initial() == eng_b.initial()
        seen = set()
        frontier = [eng_a.initial()]
        while frontier:
            c = frontier.pop()
            if c in seen or len(seen) > 40 or c.total_tracked > 40:
                continue
            seen.add(c)
            steps_a, complete_a = eng_a.maximal_steps(c, cap=300)
            steps_b, complete_b = eng_b.maximal_steps(c, cap=300)
            if not (complete_a and complete_b):
                continue
            assert choice_set(steps_a) == choice_set(steps_b), sys
            for choice in steps_a:
                assert eng_a.apply(c, choice) == eng_b.apply(c, choice)
                frontier.append(eng_a.apply(c, choice))


# ---------------------------------------------------------------- traces


GOLDEN_TRACE = [
    '{"step": 0, "regions": {"1": {"a": 1, "b": 1}}, "env": {}}',
    '{"step": 1, "choice": [{"rule": "r1", "n": 1}], "regions": {"1": {}}, "env": {"a": 1, "b": 1}}',
    '{"step": 2, "choice": [{"rule": "r2", "n": 1}], "regions": {"1": {"a": 1}}, "env": {"b": 1}}',
    '{"halted": true, "steps": 2, "result": 1}',
]


def test_trace_serialization_golden():
    sys = cell(
        [CellRule(1, SymportOut(ms("a b"))), CellRule(1, SymportIn(ms("a")))],
        init="a b",
    )
    eng = Engine(sys)
    trace = eng.run(seed=0)
    assert list(trace_to_lines(eng, trace)) == GOLDEN_TRACE
    for line in trace_to_lines(eng, trace):
        json.loads(line)


def test_trace_final_record_omits_result_when_not_halted():
    eng = Engine(perpetual())
    _status, trace = eng.run_accepting(ms("a"), 1, seed=0, max_steps=3)
    last = json.loads(list(trace_to_lines(eng, trace))[-1])
    assert last["halted"] is False
    assert "result" not in last


def test_rule_tables_match_the_oracle_rules():
    # Each rule's take and give tables, read back as (node, name) -> count,
    # are the oracle's consume and produce without the unlimited env supply,
    # listed in (node, name) order; ids run r1..rn in rule order.
    rng = random.Random(11)
    kinds = set()
    for n in range(150):
        sys = random_shared_system(rng) if n % 3 == 2 else random_system(rng)
        kinds.add(type(sys).__name__)
        eng = Engine(sys)
        assert [(r.index, r.rid) for r in eng.rules] == [
            (i, f"r{i + 1}") for i in range(len(sys.rules))
        ]
        slots = eng._layout.slots
        reference = norm_rules(sys)
        assert len(reference) == len(eng._takes) == len(eng._gives)
        for (consume, produce), take, give in zip(reference, eng._takes, eng._gives):
            for table, parts in ((take, consume), (give, produce)):
                expected = {
                    (node, name): k
                    for node, counts in parts.items()
                    for name, k in counts.items()
                    if node or name not in sys.env_support
                }
                assert [(slots[slot], k) for slot, k in table] == sorted(expected.items())
    assert kinds == {"CellPSystem", "TissuePSystem", "InteractionSystem"}


def test_configuration_equality_and_hash():
    a = Configuration({1: ms("a")}, EnvContent({"e"}, ms("b")))
    b = Configuration({1: ms("a")}, EnvContent({"e"}, ms("b")))
    assert a == b and hash(a) == hash(b)
    assert a.total_inside == 1 and a.total_tracked == 2
    with pytest.raises(KeyError):
        a.region_size(2)


def test_configuration_contract_holds_across_construction_routes():
    sys = cell(
        [
            CellRule(1, SymportOut(ms("a"))),
            CellRule(1, SymportIn(ms("a"))),
            CellRule(2, SymportIn(ms("a"))),
            CellRule(2, SymportOut(ms("a"))),
            CellRule(1, CellAntiport(ms("c"), ms("b"))),
            CellRule(1, SymportOut(ms("b"))),
        ],
        init={1: "a^2 c", 2: "empty"},
        env=("b",),
        output=2,
        n=2,
        parent={2: 1},
    )
    eng = Engine(sys)
    walk = list(eng.run(seed=3, max_steps=12).configurations())
    walk.append(eng.initial(ms("zzz c"), 2))
    # zzz in region 1 gets a slot after region 2's: hashing must permute.
    _, trace = eng.run_accepting(ms("zzz"), 1, seed=3, max_steps=12)
    walk += trace.configurations()
    assert any(list(c._layout.slots) != sorted(c._layout.slots) and c.regions[2] for c in walk)
    for c in walk:
        rebuilt = Configuration(c.regions, c.env)
        assert c == rebuilt and rebuilt == c and hash(c) == hash(rebuilt)
        assert len({c, rebuilt}) == 1
        assert (c.total_inside, c.total_tracked) == (rebuilt.total_inside, rebuilt.total_tracked)
    distinct = set(walk) | {Configuration(c.regions, c.env) for c in walk}
    assert len(distinct) == len({repr(c) for c in walk})
    for c in walk:
        for other in walk:
            assert (c == other) == (repr(c) == repr(other))
    start = eng.initial()
    user_built = Configuration(start.regions, start.env)
    assert explore(eng, start=user_built) == explore(eng)


def test_engine_lowers_user_built_configurations_onto_its_layout():
    eng = Engine(cell([CellRule(1, SymportOut(ms("a")))], init="a^2"))
    start = Configuration({1: ms("a zzz")}, EnvContent((), ms("b")))
    [choice] = eng.maximal_steps(start)[0]
    after = eng.apply(start, choice)
    assert after == Configuration({1: ms("zzz")}, EnvContent((), ms("a b")))
    assert explore(eng, start=start).results == frozenset({1})
    with pytest.raises(ValueError, match="no region labeled 5"):
        eng.maximal_steps(Configuration({1: ms("a"), 5: ms("a")}, EnvContent()))
    with pytest.raises(ValueError, match="unlimited supply"):
        eng.apply(Configuration({1: ms("a")}, EnvContent({"a"})), choice)


MILLION_CELLS = (
    "@model tissue\n@objects a b\n@env b\n"
    "@cells 1000000\n@init 1: a\n@rules: (1, a / b, 0)\n@output 1\n"
)


def test_engine_memory_does_not_grow_with_the_cell_count():
    # The engine keeps the system's range of labels, and its layout lists
    # only the nodes that hold slots: here cell 1 and the environment.
    sys, _ = parse_system(MILLION_CELLS)
    tracemalloc.start()
    try:
        eng = Engine(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    start = eng.initial()
    assert start.region_size(1) == 1 and start.region_size(1_000_000) == 0
    assert explore(eng) == ExploreOutcome(frozenset({1}), True, 1, 0, 2)


class Unlisted:
    """Labels that answer `in` and `len` but refuse to be listed."""

    def __init__(self, labels):
        self.labels = labels

    def __contains__(self, label):
        return label in self.labels

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        raise AssertionError("listed every label of the engine")


def test_lowering_a_configuration_tests_its_own_labels_only():
    # On 10^6 cells, listing the engine's labels per call costs tens of ms.
    eng = Engine(parse_system(MILLION_CELLS)[0])
    eng.labels = Unlisted(eng.labels)
    start = Configuration({1: ms("a")}, EnvContent({"b"}))
    assert eng.maximal_steps(start) == ((StepChoice(((0, 1),)),), True)
    wrong = Configuration({3_000_000: ms("a"), 1_000_001: ms("b")}, EnvContent({"b"}))
    with pytest.raises(ValueError, match="no region labeled 1000001"):
        eng.maximal_steps(wrong)


def test_configurations_with_unequal_region_counts_differ_without_listing_labels():
    eng = Engine(parse_system(MILLION_CELLS)[0])
    eng._layout.labels = Unlisted(eng._layout.labels)
    start, user_built = eng.initial(), Configuration({1: ms("a")}, EnvContent({"b"}))
    assert start != user_built and user_built != start
    two = Configuration({1: ms("a"), 2: ms("empty")}, EnvContent({"b"}))
    assert two == Configuration({2: ms("empty"), 1: ms("a")}, EnvContent({"b"}))
    assert two != Configuration({1: ms("a"), 3: ms("empty")}, EnvContent({"b"}))


def test_cross_layout_equality_and_inside_total_skip_the_engines_labels():
    # An input outside the alphabet gives the start a layout with an appended
    # slot and the engine's labels; neither `==` nor `total_inside` lists them.
    eng = Engine(parse_system(MILLION_CELLS)[0])
    eng._layout.labels = Unlisted(eng._layout.labels)
    start, extended = eng.initial(), eng.initial(Multiset(["zz"]), 2)
    assert extended._layout is not eng._layout
    assert start != extended and extended != start
    assert start.total_inside == 1 and extended.total_inside == 2


def test_inside_total_sums_the_regions():
    rng = random.Random(43)
    configurations = []
    for n in range(60):
        sys = random_shared_system(rng) if n % 3 == 2 else random_system(rng)
        eng = Engine(sys)
        for c, _, after in walk(eng, rng, max_steps=4):
            configurations += [c, after, Configuration(after.regions, after.env)]
        configurations.append(eng.initial(ms("zz a"), 1))
    # A hand-built invalid system whose rule gives to cell 5 of 2.
    stray = Engine(
        TissuePSystem(
            alphabet=frozenset("a"),
            n_cells=2,
            init={1: ms("a^2")},
            env_support=frozenset(),
            rules=(TissueSymport(1, ms("a"), 5),),
            output=1,
        )
    )
    trace = stray.run(max_steps=1)
    assert (trace.final.total_inside, trace.final.total_tracked) == (0, 2)
    configurations += trace.configurations()
    for c in configurations:
        assert c.total_inside == sum(c.region_size(label) for label in c._layout.labels)
        assert c.total_inside == sum(region.size for region in c.regions.values())


# ---------------------------------------------------------------- generated scan


def _scans(eng):
    """The loop's `_enabled` and the generated scan, a plain function."""
    generated = eng._generated_scan()
    assert isinstance(generated, types.FunctionType)
    return eng._enabled, generated


def test_generated_scan_equals_the_loop_on_random_systems():
    rng = random.Random(73)
    compared = several = 0
    for seed in range(400):
        sys = random_system(random.Random(seed))
        eng = Engine(sys)
        loop, generated = _scans(eng)
        trace = eng.run(seed, max_steps=4, policy="greedy-random")
        names = sorted(sys.alphabet)
        region = rng.choice(list(eng.labels))
        extra = eng.initial(Multiset(rng.choices(names, k=rng.randint(1, 6))), region)
        for c in (*trace.configurations(), extra):
            counts = eng._counts(c)[1]
            assert generated(counts) == loop(counts), (seed, c)
            compared += 1
            several += len(loop(counts)) > 1
    assert compared >= 900 and several >= 80, (compared, several)


def test_generated_scan_equals_the_loop_on_ring_configurations():
    eng = Engine(parse_system(RING.read_text(encoding="utf-8"))[0])
    loop, generated = _scans(eng)
    trace = eng.run(7, max_steps=1_999, policy="greedy-random")
    configurations = list(trace.configurations())
    assert len(configurations) == 2_000
    for c in configurations:
        assert generated(c._counts) == loop(c._counts)


def test_generated_scan_reads_counts_past_the_digit_limit():
    # A take count of 4,301 digits goes through no str(): it sits in the
    # constants tuple the generated code reads.
    huge = 10 ** (sys.get_int_max_str_digits() + 1) - 1
    rules = [CellRule(1, SymportOut(Multiset({"a": huge}))), CellRule(1, SymportOut(ms("b^3")))]
    init = {1: Multiset({"a": huge - 1})}
    eng = Engine(CellPSystem(["a", "b"], MembraneStructure(1), init, (), rules, 1))
    loop, generated = _scans(eng)
    assert generated(eng.initial()._counts) == []
    for a, b in product((0, 1, huge, 2 * huge + 1), (0, 2, 7)):
        counts = eng.initial(Multiset({"a": a, "b": b}), 1)._counts
        assert generated(counts) == loop(counts)
    assert generated(eng.initial(Multiset({"a": huge + 2, "b": 7}), 1)._counts) == [(0, 2), (1, 2)]


def test_generated_scan_source_holds_no_object_name_or_label(monkeypatch):
    sources = []

    def spy(text, namespace):
        sources.append(text)
        exec(text, namespace)

    monkeypatch.setattr(engine_module, "exec", spy, raising=False)
    names = ["Apple", "Berry", "Cider"]
    rules = [
        TissueAntiport(70, Multiset({"Apple": 2, "Berry": 1}), ms("Cider"), 0),
        TissueSymport(90, Multiset({"Cider": 5}), 70),
        TissueSymport(0, ms("Berry"), 90),
    ]
    init = {70: ms("Apple^4 Berry"), 90: ms("Cider^5")}
    eng = Engine(TissuePSystem(names, 90, init, (), rules, 70))
    loop, generated = _scans(eng)
    (source,) = sources
    words = set(re.findall(r"[A-Za-z_]\w*", source))
    keywords = {"def", "_enabled", "p", "k", "out", "append", "if", "and", "return"}
    assert words <= keywords | {"t0", "t1", "t2"}, words
    # Every literal is a slot or rule index, so neither label 70 nor 90
    # appears; the take counts other than 1 sit in the constants tuple.
    assert max(map(int, re.findall(r"\b\d+\b", source))) < len(eng._layout.slots) < 70
    assert generated.__defaults__ == ((2, 5),)
    assert generated(eng.initial()._counts) == loop(eng.initial()._counts)


def test_walks_give_equal_outcomes_with_the_scan_generated_or_not(monkeypatch):
    budget = ExploreBudget(max_depth=10_000, max_total_objects=32 * 2 + 2)
    calls = []
    generate = Engine._generated_scan

    def spy(eng):
        calls.append(eng)
        return generate(eng)

    monkeypatch.setattr(Engine, "_generated_scan", spy)
    default_after = explore_module.COMPILE_AFTER
    for machine in verification_suite():
        system = compile_machine(machine).system
        monkeypatch.setattr(explore_module, "COMPILE_AFTER", 10**9)
        loop_outcome = explore(system, budget)
        assert calls == []
        # Forced: the walk generates the scan at its second configuration.
        monkeypatch.setattr(explore_module, "COMPILE_AFTER", 2)
        assert explore(system, budget) == loop_outcome, machine
        assert len(calls) == (loop_outcome.visited_configs >= 2)
        calls.clear()
        # Left to itself a walk generates the scan once, when its memo is large.
        monkeypatch.setattr(explore_module, "COMPILE_AFTER", default_after)
        assert explore(system, budget) == loop_outcome
        assert len(calls) == (loop_outcome.visited_configs >= default_after)
        calls.clear()
    assert loop_outcome.visited_configs >= default_after  # transfer


def test_no_call_changes_the_engine():
    # A walk keeps its net tables and generated scan to itself, so what a
    # call computes never depends on what ran on the engine before.
    eng = Engine(compile_machine(transfer()).system)
    built = dict(vars(eng))
    contents = {
        name: copy.deepcopy(value)
        for name, value in built.items()
        if isinstance(value, (list, dict))
    }
    budget = ExploreBudget(max_depth=10_000, max_total_objects=32 * 2 + 2)
    start = eng.initial()
    (step, *_), _ = eng.maximal_steps(start)
    calls = {
        "enabled": lambda: eng.enabled(start),
        "maximal_steps": lambda: eng.maximal_steps(start),
        "apply": lambda: eng.apply(start, step),
        "run enumerate-uniform": lambda: eng.run(3, max_steps=50),
        "run greedy-random": lambda: eng.run(3, max_steps=50, policy="greedy-random"),
        "explore": lambda: explore(eng, budget),
        "decide_accept": lambda: decide_accept(eng, ms("a1^2"), 1, budget),
        "check_deterministic": lambda: check_deterministic(eng, budget),
    }
    for name, call in calls.items():
        result = call()
        if name == "explore":
            assert result.visited_configs >= explore_module.COMPILE_AFTER
        assert vars(eng).keys() == built.keys(), name
        for attribute, value in vars(eng).items():
            assert value is built[attribute], (name, attribute)
            if attribute in contents:
                assert value == contents[attribute], (name, attribute)
