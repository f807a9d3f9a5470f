"""Acceptance suite: ten falsifiable criteria, one verdict line each.

Each test prints "[PASS] criterion N: ..." (or [FAIL]) and the same
lines are replayed in a terminal section after the run; see conftest.py.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import partial
from itertools import product

import pytest

from psys.engine import Engine
from psys.explore import ExploreBudget, check_deterministic, explore
from psys.dsl import parse_system, print_system
from psys.measures import (
    cell_rule_size,
    classify,
    profile,
    tissue_rule_size,
)
from psys.model import (
    CellAntiport,
    CellPSystem,
    CellRule,
    MembraneStructure,
    SymportIn,
    SymportOut,
    TissueAntiport,
    TissueSymport,
    encode_cell_as_tissue,
    validate_cell,
)
from psys.multiset import parse_multiset
from psys.rm import compile_machine, verify_compilation

from _acceptance_log import record
from corpus import deterministic_minimal_corpus
from gen import (
    random_cell_system,
    random_shrinking_minimal_system,
    random_system,
    random_tissue_system,
)
from machines import verification_suite
from oracles import maximal_steps_oracle, state_of
from test_measures import EXPECTED_TABLE, _partition_key, rule_for


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        record(number, False, description)
        raise
    record(number, True, description)


def ms(text):
    return parse_multiset(text)


def choice_set(choices):
    return {frozenset(choice.applications) for choice in choices}


def test_criterion_01_oracle_equivalence():
    with criterion(1, "maximal steps equal the brute-force oracle on 1000 random systems"):
        rng = random.Random(101)
        started = time.monotonic()
        compared = 0
        for _ in range(1_000):
            sys = random_system(rng)
            eng = Engine(sys)
            c = eng.initial()
            for _depth in range(3):
                regions, env_finite = state_of(sys, c)
                expected = maximal_steps_oracle(sys, regions, env_finite)
                got, complete = eng.maximal_steps(c, cap=5_000)
                assert complete
                assert choice_set(got) == expected, sys
                compared += 1
                if not got:
                    break
                c = eng.apply(c, rng.choice(got))
                if c.total_tracked > 40:
                    break
        assert compared >= 1_000
        assert time.monotonic() - started < 300


def test_criterion_02_conservation():
    with criterion(2, "bounded-object totals survive 10000 random steps unchanged"):
        rng = random.Random(102)
        steps = 0
        while steps < 10_000:
            sys = random_system(rng)
            eng = Engine(sys)
            tracked = [n for n in sys.alphabet if n not in sys.env_support]
            c = eng.initial()
            for _ in range(8):
                choices, _ = eng.maximal_steps(c, cap=200)
                if not choices:
                    break
                after = eng.apply(c, rng.choice(choices))
                for name in tracked:
                    before_total = c.env.finite.count(name) + sum(
                        w.count(name) for w in c.regions.values()
                    )
                    after_total = after.env.finite.count(name) + sum(
                        w.count(name) for w in after.regions.values()
                    )
                    assert before_total == after_total, (sys, name)
                steps += 1
                c = after
                if c.total_tracked > 80:
                    break


def is_minimal(sys):
    """Symport of at most two objects, one-for-one antiport (exact on a valid cell system)."""
    measured = profile(sys)
    return measured.max_symport_size <= 2 and measured.max_antiport_size <= 1


def check_never_grows(sys):
    """Criterion 3 on one system: no edge grows the inside count, and the walk
    bounded by the initial inside count exhausts with no larger result."""
    assert validate_cell(sys).ok and is_minimal(sys), sys
    initial = sys.initial_contents(1).size

    def watch(config, choice, successor):
        grew = successor.total_inside > config.total_inside
        assert not grew, f"inside count grew on {choice}: {sys}"

    budget = ExploreBudget(max_depth=4096, max_total_objects=max(initial, 1))
    outcome = explore(sys, budget, on_edge=watch)
    assert outcome.exhausted, f"walk bounded by the initial size did not exhaust: {sys}"
    assert max(outcome.results, default=0) <= initial, sys


def check_stays_within_start(sys, budget=ExploreBudget()):
    """Criterion 4 on one system: a deterministic, halting minimal-rule system
    whose inside total never exceeds the initial one on any edge."""
    assert validate_cell(sys).ok, sys
    assert is_minimal(sys), f"non-minimal rules: {sys}"
    engine = Engine(sys)
    status = check_deterministic(engine, budget).status
    assert status == "deterministic_up_to_budget", f"not certified deterministic ({status}): {sys}"
    initial = engine.initial().total_inside

    def watch(config, choice, successor):
        assert successor.total_inside <= initial, f"inside total exceeds {initial}: {sys}"

    # A deterministic system's walk is its single computation.
    outcome = explore(engine, budget, on_edge=watch)
    assert outcome.halting_leaves, f"no halting computation within {budget.max_depth} steps: {sys}"


def test_criterion_03_monotone_harness():
    with criterion(3, "one-membrane minimal systems never grow (500 samples)"):
        rng = random.Random(103)
        for _ in range(500):
            check_never_grows(random_shrinking_minimal_system(rng))


def test_criterion_04_deterministic_corpus():
    with criterion(4, "deterministic minimal corpus stays within its initial size"):
        corpus = deterministic_minimal_corpus()
        assert len(corpus) >= 10
        for sys in corpus:
            check_stays_within_start(sys)


def one_membrane(rules, init, env=()):
    rules = [CellRule(1, form) for form in rules]
    return CellPSystem(("a", "b"), MembraneStructure(1), {1: ms(init)}, env, rules, 1)


@pytest.mark.parametrize(
    "check, system, message",
    [
        # Sent out, a is pulled back in from the finite environment.
        (check_never_grows, one_membrane([SymportOut(ms("a")), SymportIn(ms("a"))], "a"), "grew"),
        (
            check_stays_within_start,
            one_membrane([SymportOut(ms("a b^2"))], "a b^2"),
            "non-minimal",
        ),
        (
            partial(check_stays_within_start, budget=ExploreBudget(max_depth=50)),
            one_membrane([CellAntiport(ms("a"), ms("a"))], "a", env=("a",)),
            "no halting",
        ),
        (
            check_stays_within_start,
            one_membrane([SymportOut(ms("a b")), SymportOut(ms("a"))], "a b"),
            "not certified deterministic",
        ),
    ],
    ids=["growing", "fat", "loop", "branching"],
)
def test_criteria_03_04_fail_their_counterexamples(check, system, message):
    with pytest.raises(AssertionError, match=message):
        check(system)


def test_criterion_05_compiler_verification():
    with criterion(5, "five register machines verify at value bound 8, antiport <= 3"):
        started = time.monotonic()
        suite = verification_suite()
        assert len(suite) >= 5
        for machine in suite:
            audit = verify_compilation(machine, value_bound=8)
            assert audit.ok, (machine, audit.messages)
            measured = profile(compile_machine(machine).system)
            assert measured.max_antiport_size <= 3
        assert time.monotonic() - started < 600


def test_criterion_06_classifier_table():
    with criterion(6, "classifier matches the 15-partition table and is swap-invariant"):
        seen = set()
        for quad in product(range(1, 5), repeat=4):
            rule = rule_for(quad)
            key = _partition_key(quad)
            seen.add(key)
            assert classify(rule) is EXPECTED_TABLE[key], quad
            assert classify(rule.swapped()) is classify(rule), quad
        assert seen == set(EXPECTED_TABLE)
        assert len(EXPECTED_TABLE) == 15
        # anchor patterns: conditional uniport out, symport-2, antiport-1, no-op
        assert classify(rule_for((1, 1, 1, 2))) is EXPECTED_TABLE[_partition_key((1, 1, 1, 2))]
        assert classify(rule_for((1, 1, 2, 2))).value == "Symport2"
        assert classify(rule_for((1, 2, 2, 1))).value == "Antiport1"
        assert classify(rule_for((1, 2, 1, 2))).value == "NoOp"


def test_criterion_07_size_anchors():
    with criterion(7, "rule sizes: symport 2, cell antiport 2, tissue antiport 3"):
        assert cell_rule_size(CellRule(1, SymportIn(ms("a b")))) == 2
        assert cell_rule_size(CellRule(1, CellAntiport(ms("a b"), ms("c")))) == 2
        assert tissue_rule_size(TissueAntiport(1, ms("a b"), ms("c"), 2)) == 3


def test_criterion_08_cross_model_agreement():
    with criterion(8, "tissue encodings agree with their cell systems on 200 explorations"):
        rng = random.Random(108)
        budget = ExploreBudget(
            max_depth=10, max_total_objects=24, max_branches=1_500, max_configs=30_000
        )
        for _ in range(200):
            sys = random_cell_system(rng)
            twin = encode_cell_as_tissue(sys)
            eng_a, eng_b = Engine(sys), Engine(twin)
            c = eng_a.initial()
            assert c == eng_b.initial()
            steps_a, complete_a = eng_a.maximal_steps(c, cap=1_000)
            steps_b, complete_b = eng_b.maximal_steps(c, cap=1_000)
            assert complete_a and complete_b
            assert choice_set(steps_a) == choice_set(steps_b), sys
            ours = explore(sys, budget)
            theirs = explore(twin, budget)
            assert ours.results == theirs.results, sys
            assert ours.exhausted == theirs.exhausted, sys


def test_criterion_09_round_trip_and_fuzz():
    with criterion(9, "parse/print round-trips 1000 systems; parser survives 10000 junk inputs"):
        rng = random.Random(109)
        for _ in range(500):
            sys = random_cell_system(rng)
            back, diags = parse_system(print_system(sys))
            assert diags == [] and back == sys
            tsys = random_tissue_system(rng)
            back, diags = parse_system(print_system(tsys))
            assert diags == [] and back == tsys
        for _ in range(10_000):
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
            parsed, diags = parse_system(raw.decode("utf-8", errors="replace"))
            if parsed is None:
                assert diags


def test_criterion_10_reproducible_runs(tmp_path):
    with criterion(10, "seeded runs are byte-identical across invocations"):
        path = tmp_path / "branching.psys"
        path.write_text(
            "@model cell\n@objects a b\n@env b\n@membranes 1\n@init 1: a^4\n"
            "@rules 1: (a, out)\n@rules 1: (a, out; b, in)\n@output 1\n",
            encoding="utf-8",
        )
        argv = [
            sys.executable, "-m", "psys",
            "run", str(path), "--seed", "5", "--max-steps", "60",
        ]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
        assert first.stdout.startswith(b'{"step": 0')
