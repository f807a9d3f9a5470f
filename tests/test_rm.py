import importlib
import random
import timeit

import pytest

from psys.engine import Engine
from psys.explore import ExploreBudget, check_deterministic, explore
from psys.measures import profile
from psys.model import CellAntiport, CellRule, SymportOut, cell_rule_text, validate
from psys.multiset import Multiset
from psys.rm import (
    Add,
    CompileError,
    CompiledSystem,
    Halt,
    RegisterMachine,
    Sub,
    compile_machine,
    machine_problems,
    register_object,
    rm_results,
    verify_compilation,
)

from gen import random_machine
from machines import (
    add_loop,
    even_numbers,
    halt_only,
    sub_drain,
    transfer,
    verification_suite,
)


# ---------------------------------------------------------------- machine oracle


def test_rm_results_halt_only():
    results, exhausted = rm_results(halt_only(), value_bound=8)
    assert results == frozenset({0})
    assert exhausted


def test_rm_results_add_loop_saturates_the_bound():
    results, exhausted = rm_results(add_loop(), value_bound=8)
    assert results == frozenset(range(1, 9))
    assert not exhausted  # the loop runs past any bound


def test_rm_results_sub_zero_branch():
    m = RegisterMachine(
        num_registers=1,
        output_register=1,
        start="p0",
        instructions={"p0": Sub(1, "px", "ph"), "px": Halt(), "ph": Halt()},
    )
    results, exhausted = rm_results(m, value_bound=8)
    assert results == frozenset({0})
    assert exhausted  # from zeros the non-zero branch is unreachable


def test_rm_results_even_numbers():
    results, _ = rm_results(even_numbers(), value_bound=8)
    assert results == frozenset({2, 4, 6, 8})


def test_rm_results_transfer():
    results, _ = rm_results(transfer(), value_bound=6)
    assert results == frozenset(range(1, 7))


def test_rm_results_rejects_broken_machines():
    broken = RegisterMachine(1, 1, "p0", {"p0": Add(1, "nowhere", "p0")})
    with pytest.raises(ValueError):
        rm_results(broken, value_bound=4)


def test_machine_problems_catalogue():
    assert machine_problems(halt_only()) == []
    missing_target = RegisterMachine(1, 1, "p0", {"p0": Add(1, "gone", "p0")})
    assert any("gone" in p for p in machine_problems(missing_target))
    bad_register = RegisterMachine(1, 1, "p0", {"p0": Sub(9, "p0", "p0")})
    assert any("r9" in p for p in machine_problems(bad_register))
    bad_output = RegisterMachine(2, 5, "p0", {"p0": Halt()})
    assert any("output" in p for p in machine_problems(bad_output))
    bad_start = RegisterMachine(1, 1, "boot", {"p0": Halt()})
    assert any("boot" in p for p in machine_problems(bad_start))
    # `empty` would compile to an object that prints as the empty multiset.
    reserved = RegisterMachine(1, 1, "empty", {"empty": Add(1, "empty", "h"), "h": Halt()})
    assert machine_problems(reserved) == ["label 'empty' is not a valid object name"]
    assert machine_problems(RegisterMachine(1, 1, "p0", {})) == [
        "no instructions",
        "start label 'p0' is not defined",
    ]


def test_a_machine_walk_cut_by_the_state_bound_is_inconclusive(monkeypatch):
    # sub_drain's one run visits six states, the halt last.
    rm = importlib.import_module("psys.rm")
    monkeypatch.setattr(rm, "STATE_BOUND", 6)
    assert rm_results(sub_drain(), value_bound=8) == (frozenset({0}), True)
    monkeypatch.setattr(rm, "STATE_BOUND", 5)
    assert rm_results(sub_drain(), value_bound=8) == (frozenset(), False)
    report = verify_compilation(sub_drain(), value_bound=8)
    assert (report.ok, report.inconclusive) == (False, True)
    assert (report.machine_exhausted, report.system_exhausted) == (False, True)
    assert report.messages == (
        "no mismatch proven: values produced by the compiled system only: [0], "
        "but the machine's walk was cut by a budget",
    )


# ---------------------------------------------------------------- compiler


def test_compile_halt_only_golden():
    compiled = compile_machine(halt_only())
    sys = compiled.system
    assert sys.structure.n == 1
    assert sys.output == 1
    assert sys.rules == (CellRule(1, SymportOut(Multiset(["p0"]))),)
    assert sys.init == {1: Multiset(["p0"])}
    assert sys.env_support == sys.alphabet == frozenset({"a1", "p0"})
    assert compiled.symbol_map["r1"] == "a1"
    assert compiled.certificate == 0  # no antiport rules at all
    assert validate(sys).ok


def test_register_object_naming():
    assert register_object(1) == "a1"
    assert register_object(12) == "a12"


def test_compile_add_with_equal_targets_emits_one_rule():
    m = RegisterMachine(1, 1, "p0", {"p0": Add(1, "ph", "ph"), "ph": Halt()})
    compiled = compile_machine(m)
    texts = sorted(cell_rule_text(r) for r in compiled.system.rules)
    assert texts == ["(p0, out; a1 ph, in)", "(ph, out)"]
    assert compiled.certificate == 2


def test_compile_sub_gadget_shape():
    m = RegisterMachine(
        1, 1, "p0", {"p0": Sub(1, "pnz", "pz"), "pnz": Halt(), "pz": Halt()}
    )
    compiled = compile_machine(m)
    texts = {cell_rule_text(r) for r in compiled.system.rules}
    assert texts == {
        "(p0, out; p0_1 p0_c, in)",
        "(a1 p0_c, out; p0_cb, in)",
        "(p0_1, out; p0_2, in)",
        "(p0_2 p0_cb, out; pnz, in)",
        "(p0_2 p0_c, out; pz, in)",
        "(pnz, out)",
        "(pz, out)",
    }
    assert compiled.certificate == 2
    assert validate(compiled.system).ok


def test_compile_is_reproducible():
    a = compile_machine(sub_drain())
    b = compile_machine(sub_drain())
    assert a.system == b.system
    assert a.symbol_map == b.symbol_map


def test_compile_rejects_broken_machines():
    with pytest.raises(CompileError):
        compile_machine(RegisterMachine(1, 1, "p0", {"p0": Add(1, "gone", "p0")}))


def test_compile_rejects_label_colliding_with_register_object():
    m = RegisterMachine(1, 1, "a1", {"a1": Halt()})
    with pytest.raises(CompileError):
        compile_machine(m)


def test_compile_names_every_colliding_object_once():
    # Sub at p needs p_1 and p_c, which two more labels and register 1 also claim.
    m = RegisterMachine(
        1, 1, "p", {"p": Sub(1, "p_1", "p_c"), "p_1": Halt(), "p_c": Halt(), "a1": Halt()}
    )
    with pytest.raises(CompileError) as err:
        compile_machine(m)
    assert str(err.value) == (
        "object name collisions: ['a1', 'p_1', 'p_c']; rename the machine labels"
    )


def _alternating(n):
    """A machine of `n` ADD and SUB instructions in turn, then HALT."""
    labels = [f"L{i}" for i in range(n)] + ["H"]
    instructions = {"H": Halt()}
    for i, label in enumerate(labels[:-1]):
        after = labels[i + 1]
        instructions[label] = Sub(1, after, after) if i % 2 else Add(1, after, after)
    return RegisterMachine(1, 1, "L0", instructions)


def test_compile_is_linear_in_the_instruction_count():
    # At 32 times the instructions a linear compiler takes about 32 times
    # as long; one that scans the names per name took over 500 times.
    def best(n):
        machine = _alternating(n)
        return min(timeit.repeat(lambda: compile_machine(machine), number=1, repeat=3))

    assert best(8_000) < 128 * best(250)


def test_compiled_profiles_stay_within_the_certificate():
    for machine in verification_suite():
        compiled = compile_machine(machine)
        prof = profile(compiled.system)
        assert prof.max_antiport_size == compiled.certificate
        assert prof.max_antiport_size <= 2
        assert prof.max_symport_size <= 1
        assert prof.degree == 1


# ---------------------------------------------------------------- gadget dynamics


def test_sub_zero_path_takes_three_gadget_steps():
    m = RegisterMachine(
        1, 1, "p0", {"p0": Sub(1, "pnz", "pz"), "pnz": Halt(), "pz": Halt()}
    )
    eng = Engine(compile_machine(m).system)
    trace = eng.run(seed=0)
    assert trace.halted
    # Three gadget steps plus the halt cleanup.
    assert trace.steps_taken == 4
    assert eng.result(trace.final) == 0


def test_sub_branches_are_selected_by_register_content():
    m = RegisterMachine(
        1,
        1,
        "p0",
        {
            "p0": Add(1, "p1", "p1"),
            "p1": Sub(1, "pnz", "pz"),
            "pnz": Halt(),
            "pz": Halt(),
        },
    )
    compiled = compile_machine(m)
    eng = Engine(compiled.system)
    trace = eng.run(seed=0)
    assert trace.halted
    fired = {
        rule.text
        for step in trace.steps
        for index, _count in step.choice.applications
        for rule in [eng.rules[index]]
    }
    assert any(t.startswith("(p1_2 p1_cb, out; pnz, in)") for t in fired)  # non-zero branch
    assert not any(t.startswith("(p1_2 p1_c, out; pz, in)") for t in fired)


def phase_objects(machine):
    names = set(machine.instructions)
    for label, ins in machine.instructions.items():
        if isinstance(ins, Sub):
            names.update({f"{label}_1", f"{label}_2"})
    return names


def test_exactly_one_program_object_until_halt():
    machine = sub_drain()
    compiled = compile_machine(machine)
    eng = Engine(compiled.system)
    phases = phase_objects(machine)
    seen = set()
    frontier = [eng.initial()]
    while frontier:
        config = frontier.pop()
        if config in seen:
            continue
        seen.add(config)
        inside = config.regions[1]
        phase_count = sum(inside.count(name) for name in phases)
        steps, complete = eng.maximal_steps(config)
        assert complete
        if steps:
            assert phase_count == 1, config
            frontier.extend(eng.apply(config, choice) for choice in steps)
        else:
            assert phase_count == 0, config
    assert len(seen) > 5


def machine_run(machine):
    """Deterministic machine states as (label, registers) pairs."""
    label, regs = machine.start, [0] * machine.num_registers
    yield label, tuple(regs)
    while True:
        ins = machine.instructions[label]
        if isinstance(ins, Halt):
            return
        if isinstance(ins, Add):
            assert ins.goto_a == ins.goto_b, "machine must be deterministic"
            regs[ins.register - 1] += 1
            label = ins.goto_a
        else:
            if regs[ins.register - 1] > 0:
                regs[ins.register - 1] -= 1
                label = ins.goto_nonzero
            else:
                label = ins.goto_zero
        yield label, tuple(regs)


def test_register_counts_track_machine_state_at_phase_boundaries():
    machine = sub_drain()
    eng = Engine(compile_machine(machine).system)
    trace = eng.run(seed=0)
    assert trace.halted
    labels = set(machine.instructions)
    observed = []
    for config in trace.configurations():
        inside = config.regions[1]
        present = [name for name in labels if inside.count(name)]
        if present:
            regs = tuple(
                inside.count(register_object(r))
                for r in range(1, machine.num_registers + 1)
            )
            observed.append((present[0], regs))
    assert observed == list(machine_run(machine))


# ---------------------------------------------------------------- verification


def test_verify_halt_only():
    report = verify_compilation(halt_only(), value_bound=8)
    assert report.ok
    assert report.machine_results == report.system_results == frozenset({0})
    assert report.normal_form_ok


def test_verify_add_loop_at_bound_eight():
    report = verify_compilation(add_loop(), value_bound=8)
    assert report.ok
    assert report.machine_results == frozenset(range(1, 9))


def test_verify_whole_suite():
    for machine in verification_suite():
        report = verify_compilation(machine, value_bound=6)
        assert report.ok, (machine, report.messages)


def test_verify_reports_mutated_gadget():
    machine = sub_drain()
    compiled = compile_machine(machine)
    swapped = []
    for rule in compiled.system.rules:
        # Corrupt the zero test: both branch rules now jump to the loop
        # head, so the compiled system can never reach the halt object.
        if cell_rule_text(rule) == "(q0_2 q0_c, out; ph, in)":
            swapped.append(CellRule(1, CellAntiport(rule.form.outbound, Multiset(["q0"]))))
        else:
            swapped.append(rule)
    corrupted = CompiledSystem(
        system=CellPSystem_like(compiled.system, swapped),
        symbol_map=compiled.symbol_map,
        certificate=compiled.certificate,
    )
    report = verify_compilation(machine, value_bound=4, compiled=corrupted)
    assert not report.ok
    assert any("machine only" in msg for msg in report.messages)


def CellPSystem_like(sys, rules):
    from psys.model import CellPSystem

    return CellPSystem(
        alphabet=sorted(sys.alphabet),
        structure=sys.structure,
        init=sys.init,
        env_support=sys.env_support,
        rules=rules,
        output=sys.output,
    )


# Written out in ROADMAP item V: it reaches r1 = n only through r1 = n + 1.
SEED77 = RegisterMachine(
    2,
    1,
    "p0",
    {"p0": Add(1, "p0", "p2"), "p1": Add(1, "p1", "p0"), "p2": Sub(1, "p3", "p1"), "p3": Halt()},
)


def test_verify_a_value_past_the_machine_cut_is_inconclusive():
    # The machine side prunes r1 = 9, the only way to 8; the compiled
    # system's object budget leaves room for it. No mismatch is proven.
    report = verify_compilation(SEED77, value_bound=8)
    assert not report.ok and report.inconclusive and report.normal_form_ok
    assert not report.machine_exhausted
    assert report.system_results - report.machine_results == {8}
    assert report.messages == (
        "no mismatch proven: values produced by the compiled system only: [8], "
        "but the machine's walk was cut by a budget",
    )


def swapped_sub_drain() -> CompiledSystem:
    """sub_drain's compiled system with the Sub's two exits swapped."""
    machine = sub_drain()
    ins = machine.instructions["q0"]
    machine.instructions["q0"] = Sub(ins.register, ins.goto_zero, ins.goto_nonzero)
    return compile_machine(machine)


def test_verify_a_wrong_compilation_of_finished_walks_is_a_mismatch():
    report = verify_compilation(sub_drain(), value_bound=4, compiled=swapped_sub_drain())
    assert report.machine_exhausted and report.system_exhausted
    assert not report.ok and not report.inconclusive
    assert report.messages == (
        "values produced by the machine only: [0]",
        "values produced by the compiled system only: [1]",
    )


def _halts(m, bound):
    """Reachable halting register vectors with every register at most `bound`."""
    seen, todo, halts = set(), [(m.start, (0,) * m.num_registers)], set()
    while todo:
        label, regs = state = todo.pop()
        if state in seen:
            continue
        seen.add(state)
        ins = m.instructions[label]
        i = getattr(ins, "register", 1) - 1
        if isinstance(ins, Halt):
            halts.add(regs)
        elif isinstance(ins, Add) and regs[i] < bound:
            bumped = regs[:i] + (regs[i] + 1,) + regs[i + 1 :]
            todo += [(ins.goto_a, bumped), (ins.goto_b, bumped)]
        elif isinstance(ins, Sub):
            dropped = regs[:i] + (regs[i] - 1,) + regs[i + 1 :]
            todo.append((ins.goto_nonzero, dropped) if regs[i] else (ins.goto_zero, regs))
    return halts


def test_verify_generated_machines(monkeypatch):
    # Walks keep the loop unless forced, so the loop and the generated step
    # are both compared.
    explore_module = importlib.import_module("psys.explore")
    seen = {"ok": 0, "inconclusive": 0, "outside normal form": 0}
    budget = ExploreBudget(max_depth=10_000, max_total_objects=2 * 4 + 2)
    for seed in range(300):
        monkeypatch.setattr(explore_module, "COMPILE_AFTER", 10**9)
        m = random_machine(random.Random(seed))
        report = verify_compilation(m, value_bound=4)
        normal = all(not any(regs[1:]) for regs in _halts(m, 4))
        assert report.normal_form_ok == normal, seed
        if not normal:
            assert not report.ok and not report.inconclusive
            seen["outside normal form"] += 1
        else:
            # Never a proven mismatch: the compiler is right on normal-form machines.
            assert report.ok or report.inconclusive, (seed, report.messages)
            seen["ok" if report.ok else "inconclusive"] += 1
        system = compile_machine(m).system
        loop = explore(system, budget)
        monkeypatch.setattr(explore_module, "COMPILE_AFTER", 2)
        assert explore(system, budget) == loop, seed
    assert seen["ok"] >= 250 and min(seen.values()) >= 2, seen


def test_verify_flags_normal_form_breach():
    m = RegisterMachine(2, 1, "p0", {"p0": Add(2, "ph", "ph"), "ph": Halt()})
    report = verify_compilation(m, value_bound=4)
    assert not report.normal_form_ok
    assert not report.ok
    assert any("normal form" in msg for msg in report.messages)


def test_verify_report_as_dict():
    d = verify_compilation(halt_only(), value_bound=4).as_dict()
    assert d["ok"] is True
    assert d["bound"] == 4
    assert d["machine_results"] == [0]
    assert d["system_results"] == [0]


def test_compiled_add_loop_results_via_explore_directly():
    compiled = compile_machine(add_loop())
    budget = ExploreBudget(max_depth=200, max_total_objects=10, max_branches=1_000)
    outcome = explore(compiled.system, budget)
    assert frozenset(range(1, 9)) <= outcome.results
    assert not outcome.exhausted  # the add loop grows without bound


def test_compiled_sub_drain_is_deterministic():
    compiled = compile_machine(sub_drain())
    verdict = check_deterministic(
        compiled.system, ExploreBudget(max_depth=100, max_total_objects=32)
    )
    assert verdict.status == "deterministic_up_to_budget"
