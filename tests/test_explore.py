import importlib
import random
from collections import Counter

import pytest

from psys.engine import Configuration, Engine
from psys.explore import (
    DeterminismVerdict,
    ExploreBudget,
    ExploreOutcome,
    _walk,
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
    TissuePSystem,
    TissueSymport,
    UniportRule,
)
from psys.multiset import EnvContent, Multiset, parse_multiset

from corpus import deterministic_minimal_corpus
from gen import random_multiset, random_shared_system, random_system
from oracles import apply_oracle, memo_walk, naive_results, state_of


def ms(text):
    return parse_multiset(text)


def flat(rules, init, alphabet=("a", "b"), env=(), output=1):
    return CellPSystem(
        alphabet=alphabet,
        structure=MembraneStructure(1, {}),
        init={1: ms(init)},
        env_support=env,
        rules=[CellRule(1, form) for form in rules],
        output=output,
    )


def growing_system():
    """Each step swaps one a for one a and one b: the inside count climbs forever."""
    return flat(
        [CellAntiport(ms("a"), ms("a b"))],
        "a",
        alphabet=("a", "b"),
        env=("a", "b"),
    )


# ---------------------------------------------------------------- explore


def test_explore_no_rule_system():
    outcome = explore(flat([], "a"))
    assert outcome.results == frozenset({1})
    assert outcome.exhausted
    assert outcome.halting_leaves == 1
    assert outcome.cut_branches == 0


def test_explore_two_branch_tree():
    sys = flat([SymportOut(ms("a b")), SymportOut(ms("a"))], "a b")
    outcome = explore(sys)
    assert outcome.results == frozenset({0, 1})
    assert outcome.exhausted
    assert outcome.halting_leaves == 2


def test_explore_single_path():
    sys = flat([SymportOut(ms("a b")), SymportIn(ms("a"))], "a b")
    outcome = explore(sys)
    assert outcome.results == frozenset({1})
    assert outcome.exhausted


def test_explore_budget_cut_is_reported():
    outcome = explore(growing_system(), ExploreBudget(max_total_objects=5))
    assert not outcome.exhausted
    assert outcome.results == frozenset()
    assert outcome.cut_branches > 0


def test_explore_halted_configurations_ignore_the_size_budget():
    outcome = explore(flat([], "a^10"), ExploreBudget(max_total_objects=1))
    assert outcome.exhausted
    assert outcome.results == frozenset({10})


def test_explore_outcome_as_dict():
    d = explore(flat([], "a")).as_dict()
    assert d == {
        "results": [1],
        "exhausted": True,
        "halting_leaves": 1,
        "cut_branches": 0,
        "visited": 1,
    }


def test_explore_cycle_contributes_nothing():
    sys = flat([CellAntiport(ms("a"), ms("a"))], "a", env=("a",))
    outcome = explore(sys)
    assert outcome.exhausted
    assert outcome.results == frozenset()
    assert outcome.halting_leaves == 0


def test_budget_fields_must_be_positive():
    with pytest.raises(ValueError):
        ExploreBudget(max_depth=0)
    with pytest.raises(ValueError):
        ExploreBudget(max_total_objects=-3)


# ---------------------------------------------------------------- acceptance decisions


def test_accept_no_rule_system():
    assert decide_accept(flat([], "empty"), ms("a^3"), 1) == "accepted"


def test_reject_one_node_cycle():
    sys = flat([CellAntiport(ms("a"), ms("a"))], "empty", env=("a",))
    assert decide_accept(sys, ms("a"), 1) == "rejected_exhaustive"


def test_accept_unknown_when_budget_cuts():
    assert (
        decide_accept(growing_system(), ms("a"), 1, ExploreBudget(max_total_objects=4))
        == "unknown"
    )


def test_accept_sees_declared_init_too():
    # The declared contents alone already halt; adding input keeps it so.
    sys = flat([SymportOut(ms("a b"))], "a", alphabet=("a", "b", "c"))
    assert decide_accept(sys, ms("c"), 1) == "accepted"


def test_accept_takes_an_engine_like_explore_does():
    sys = flat([SymportOut(ms("a"))], "empty")
    assert decide_accept(Engine(sys), ms("a"), 1) == decide_accept(sys, ms("a"), 1) == "accepted"


def test_accept_rejects_an_unknown_input_region():
    sys = flat([], "empty")
    with pytest.raises(ValueError, match="no region labeled 7"):
        decide_accept(sys, ms("a"), 7)
    with pytest.raises(ValueError, match="no region labeled 0"):
        decide_accept(sys, Multiset(), 0)



def test_input_objects_outside_the_alphabet_stay_inert_and_counted():
    # No rule and no alphabet entry names zzz: it sits in region 1 and is counted.
    e = Engine(flat([SymportOut(ms("a"))], "a^2", alphabet=("a",)))
    assert decide_accept(e, parse_multiset("zzz^2"), 1) == "accepted"
    outcome = explore(e, start=e.initial(ms("zzz^2"), 1))
    assert outcome.results == frozenset({2}) and outcome.exhausted
    status, trace = e.run_accepting(ms("zzz^2"), 1)
    assert status == "accepted"
    assert trace.final.regions == {1: ms("zzz^2")}

# ---------------------------------------------------------------- determinism


def test_deterministic_single_rule():
    verdict = check_deterministic(flat([SymportOut(ms("a"))], "a^2"))
    assert verdict == DeterminismVerdict("deterministic_up_to_budget")


def test_nondeterministic_with_witness():
    sys = flat([SymportOut(ms("a b")), SymportOut(ms("a"))], "a b")
    verdict = check_deterministic(sys)
    assert verdict.status == "nondeterministic"
    assert verdict.witness is not None
    assert verdict.witness.regions[1] == ms("a b")


def test_over_budget_start_with_two_steps():
    # The start holds 2 objects against a budget of 1 and has two maximal
    # steps: the determinism check still names it as its witness, while
    # explore cuts it once without listing its steps.
    sys = flat([SymportOut(ms("a b")), SymportOut(ms("a"))], "a b")
    budget = ExploreBudget(max_total_objects=1)
    verdict = check_deterministic(sys, budget)
    assert verdict.status == "nondeterministic"
    assert verdict.witness == Engine(sys).initial()
    outcome = explore(sys, budget)
    assert outcome.cut_branches == 1 and outcome.halting_leaves == 0
    assert outcome.results == frozenset() and not outcome.exhausted


def test_determinism_unknown_under_tiny_budget():
    verdict = check_deterministic(growing_system(), ExploreBudget(max_configs=1))
    assert verdict.status == "unknown"


def test_perpetual_deterministic_loop_is_certified():
    sys = flat([CellAntiport(ms("a"), ms("a"))], "a", env=("a",))
    assert check_deterministic(sys).status == "deterministic_up_to_budget"


# ---------------------------------------------------------------- properties


def generous():
    return ExploreBudget(max_depth=40, max_total_objects=60, max_branches=5_000)


def test_explore_matches_naive_recursion():
    rng = random.Random(41)
    compared = 0
    for _ in range(120):
        sys = random_system(rng, max_rules=4)
        outcome = explore(sys, generous())
        if not outcome.exhausted:
            continue
        expected, complete = naive_results(sys, max_depth=45, max_total=70)
        if not complete:
            continue
        assert outcome.results == frozenset(expected), sys
        compared += 1
    assert compared >= 40  # most small systems settle within the budget


def test_walk_successors_equal_apply_and_the_oracle():
    # The walk builds successors on the count vector, not through apply;
    # every edge it reports must still be apply's, and the oracle's.
    rng = random.Random(47)
    budget = ExploreBudget(max_depth=12, max_total_objects=30, max_configs=400)
    edges = outside = 0
    for k in range(300):
        sys = random_shared_system(rng) if k % 3 == 0 else random_system(rng, max_rules=4)
        eng = Engine(sys)
        starts = [eng.initial(), eng.initial(ms("zz^2 o1"), rng.choice(list(eng.labels)))]
        for start in starts:

            def check(config, choice, successor):
                nonlocal edges, outside
                assert successor == eng.apply(config, choice), (sys, config, choice)
                regions, env_finite = state_of(sys, config)
                after = apply_oracle(sys, regions, env_finite, choice.applications)
                assert state_of(sys, successor) == after, (sys, config, choice)
                edges += 1
                outside += successor._layout is not eng._layout

            explore(eng, budget, start=start, on_edge=check)
    assert edges >= 1_400 and outside >= 800, (edges, outside)


def test_walk_matches_a_walk_memoizing_configurations():
    # The walk memoizes count tuples over one layout. A walk memoizing
    # Configuration objects by value must reach the same outcome, verdict
    # and witness from the engine's start, from a start with input objects
    # outside the alphabet (aa sorts before every base slot of its node, zz
    # after), and from a start built as Configuration(regions, env). An
    # on_edge hook must see that walk's edges in order, edges into visited
    # successors and from configurations with several steps included. Under
    # a cap of three configurations, a walk that meets more must refuse
    # each further successor once, as one cut.
    rng = random.Random(59)
    budgets = [
        ExploreBudget(max_depth=12, max_total_objects=30, max_configs=400),
        ExploreBudget(max_depth=5, max_total_objects=8, max_branches=3, max_configs=40),
    ]
    capped = ExploreBudget(max_depth=12, max_total_objects=30, max_configs=3)
    extra = ms("aa^2 o1 zz")
    cut = witnesses = revisits = branching = capped_cuts = 0
    for k in range(300):
        sys = random_shared_system(rng) if k % 3 == 0 else random_system(rng, max_rules=4)
        eng = Engine(sys)
        budget = budgets[k % 2]
        label = rng.choice(list(eng.labels))
        names = sorted(sys.alphabet)
        finite = [name for name in names if name not in sys.env_support]
        regions = {node: random_multiset(rng, names, low=0, high=3) for node in eng.labels}
        held = random_multiset(rng, finite, low=0, high=2) if finite else Multiset()
        built = Configuration(regions, EnvContent(sys.env_support, held))
        for start in (eng.initial(), eng.initial(extra, label), built):
            edges, seen = [], []
            expected, _ = memo_walk(eng, start, budget, edges=edges)
            assert explore(eng, budget, start=start) == ExploreOutcome(*expected), (sys, start)
            hooked = explore(eng, budget, start=start, on_edge=lambda *edge: seen.append(edge))
            assert hooked == ExploreOutcome(*expected) and seen == edges, (sys, start)
            expected, witness = memo_walk(eng, start, budget, stop_at_branching=True)
            outcome, got = _walk(eng, start, budget, stop_at_branching=True)
            assert outcome == ExploreOutcome(*expected) and got == witness, (sys, start)
            revisits += len(edges) - len({successor for _, _, successor in edges})
            branching += len({config for config, _, _ in edges}) < len(edges)
            cut += not outcome.exhausted
            witnesses += witness is not None
            edges = []
            expected, _ = memo_walk(eng, start, capped, edges=edges)
            assert explore(eng, capped, start=start) == ExploreOutcome(*expected), (sys, start)
            met = {start} | {successor for _, _, successor in edges}
            capped_cuts += len(met) > capped.max_configs

        (_, exhausted, halting, _, _), _ = memo_walk(eng, eng.initial(extra, label), budget)
        verdict = "accepted" if halting else "rejected_exhaustive" if exhausted else "unknown"
        assert decide_accept(eng, extra, label, budget) == verdict, sys
        start = eng.initial()
        (_, exhausted, _, _, _), witness = memo_walk(eng, start, budget, stop_at_branching=True)
        status = "nondeterministic" if witness else "unknown"
        if witness is None and exhausted:
            status = "deterministic_up_to_budget"
        assert check_deterministic(eng, budget) == DeterminismVerdict(status, witness), sys
    assert cut >= 60 and witnesses >= 60, (cut, witnesses)
    assert revisits >= 400 and branching >= 60, (revisits, branching)
    assert capped_cuts >= 80, capped_cuts


def test_walk_matches_a_walk_memoizing_configurations_with_the_generated_step(monkeypatch):
    # The same walks, each following `Engine._generated_step` from its second
    # configuration on: one-step configurations skip the listing, and their
    # edges must still carry every enabled rule at its top multiplicity.
    # Starts with input objects outside the alphabet get a wider step.
    widths = Counter()
    generate = Engine._generated_step

    def spy(eng, width):
        widths[width > len(eng._start)] += 1
        return generate(eng, width)

    monkeypatch.setattr(Engine, "_generated_step", spy)
    monkeypatch.setattr(importlib.import_module("psys.explore"), "COMPILE_AFTER", 2)
    test_walk_matches_a_walk_memoizing_configurations()
    assert widths[False] >= 500 and widths[True] >= 500, widths


def test_the_depth_budget_also_counts_a_listing_the_branch_budget_cut():
    # At depth 1 the membrane holds a^2 b^2 c^2 and the environment s: seven
    # tracked objects and three maximal steps. The depth budget cuts the
    # vector once, and a branch budget of 1 cuts its listing once more,
    # unless the vector is over the object budget, which leaves it unlisted.
    system = flat(
        [CellAntiport(ms("s"), ms("a^2 b^2 c^2")), SymportOut(ms("a b")), SymportOut(ms("a c"))],
        "s",
        alphabet=("a", "b", "c", "s"),
        env=("a", "b", "c"),
    )
    eng = Engine(system)
    for max_total, max_branches, cuts in ((7, 1, 2), (8, 1, 2), (7, 3, 1), (6, 1, 1)):
        budget = ExploreBudget(max_depth=1, max_total_objects=max_total, max_branches=max_branches)
        outcome = explore(eng, budget)
        assert (outcome.visited_configs, outcome.cut_branches) == (2, cuts), budget
        expected, _ = memo_walk(eng, eng.initial(), budget)
        assert outcome == ExploreOutcome(*expected), budget


def test_a_walk_generates_its_step_after_the_level_that_fills_the_memo(monkeypatch):
    # growing_system's walk meets one new configuration a level, so after
    # level d the memo holds d + 2: with the threshold at k, the walk
    # expands max(k - 1, 1) vectors itself, then generates its step once.
    explore_module = importlib.import_module("psys.explore")
    calls = []
    expand, generate = Engine._expand, Engine._generated_step
    monkeypatch.setattr(Engine, "_expand", lambda *args: calls.append("expand") or expand(*args))
    monkeypatch.setattr(
        Engine, "_generated_step", lambda *args: calls.append("generate") or generate(*args)
    )
    for after in (1, 2, 3, 7):
        calls.clear()
        monkeypatch.setattr(explore_module, "COMPILE_AFTER", after)
        outcome = explore(growing_system(), ExploreBudget(max_total_objects=12))
        assert outcome.visited_configs == 13 and outcome.cut_branches == 1
        assert calls == ["expand"] * max(after - 1, 1) + ["generate"], after


def test_walk_without_a_hook_makes_no_public_engine_call(monkeypatch):
    # The walk lists, applies and decides halting on count vectors; only a
    # witness or an on_edge hook needs Configuration or StepChoice objects.
    calls = Counter()
    for name in ("maximal_steps", "is_halted", "enabled", "apply"):

        def counted(*args, _name=name, _method=getattr(Engine, name), **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(Engine, name, counted)
    over = explore(growing_system(), ExploreBudget(max_total_objects=5))
    assert over.cut_branches > 0 and over.halting_leaves == 0
    branching = flat([SymportOut(ms("a b")), SymportOut(ms("a"))], "a b")
    assert explore(branching).results == frozenset({0, 1})
    assert decide_accept(branching, ms("a"), 1) == "accepted"
    assert check_deterministic(branching).status == "nondeterministic"
    assert calls == Counter()


def test_an_output_label_without_a_region_is_refused_by_the_engine():
    # Unvalidated systems may name an output region they lack. `Engine()`
    # refuses them, so no walk starts, whether or not a computation halts.
    cases = [
        flat([SymportOut(ms("a"))], "a", output=2),
        flat([CellAntiport(ms("a"), ms("a"))], "a", env=("a",), output=2),
        TissuePSystem("a", 1, {1: ms("a")}, (), [TissueSymport(1, ms("a"), 0)], 7),
        InteractionSystem("a", 1, {1: ms("a")}, (), [UniportRule("a", 1, 0)], 7),
    ]
    walks = (explore, check_deterministic, lambda sys: decide_accept(sys, ms("a"), 1))
    for system in cases:
        for call in (Engine, *walks):
            with pytest.raises(ValueError, match=f"^no region labeled {system.output}$"):
                call(system)


def test_results_grow_with_budget():
    rng = random.Random(42)
    for _ in range(80):
        sys = random_system(rng, max_rules=4)
        small = explore(sys, ExploreBudget(max_depth=3, max_total_objects=12))
        large = explore(sys, ExploreBudget(max_depth=24, max_total_objects=48))
        assert small.results <= large.results, sys


def test_memoized_results_match_naive_on_cyclic_systems():
    # The cycle system revisits its only configuration; memoization must
    # agree with the path-only recursion that results stay empty.
    sys = flat([CellAntiport(ms("a"), ms("a"))], "a", env=("a",))
    expected, complete = naive_results(sys)
    assert complete and expected == set()
    assert explore(sys).results == frozenset()


# ---------------------------------------------------------------- corpus


def test_corpus_entries_really_are_deterministic_and_minimal():
    for sys in deterministic_minimal_corpus():
        verdict = check_deterministic(sys)
        assert verdict.status == "deterministic_up_to_budget", sys
