"""Register machines and their compilation to one-membrane antiport systems.

A machine is a labeled program over counters: Add increments a register
and jumps nondeterministically to one of two labels, Sub decrements and
branches on zero, Halt stops. The machine's number set is the multiset
of output-register values over halting runs.

The compiler renders each instruction as a handful of antiport rules of
size at most 2 inside a single membrane. Register r is represented by
the count of the object `a<r>` inside; the current label by a single
program object. Maximal parallelism makes the decrement attempt fire
exactly when the register is non-empty, which is the whole trick behind
the zero test.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Union

from ._record import Record, set_field
from .explore import ExploreBudget, explore
from .measures import cell_rule_size
from .model import (
    CellAntiport,
    CellPSystem,
    CellRule,
    MembraneStructure,
    SymportOut,
    rule_sides,
)
from .multiset import Multiset, is_valid_name

# The most machine states one bounded reachability walk may visit.
STATE_BOUND = 1_000_000


class Add(Record):
    """Increment `register`, then jump to `goto_a` or `goto_b` (free choice)."""

    register: int
    goto_a: str
    goto_b: str

    def __init__(self, register: int, goto_a: str, goto_b: str):
        set_field(self, "register", register)
        set_field(self, "goto_a", goto_a)
        set_field(self, "goto_b", goto_b)


class Sub(Record):
    """If `register` > 0, decrement and jump to `goto_nonzero`;
    otherwise leave it and jump to `goto_zero`."""

    register: int
    goto_nonzero: str
    goto_zero: str

    def __init__(self, register: int, goto_nonzero: str, goto_zero: str):
        set_field(self, "register", register)
        set_field(self, "goto_nonzero", goto_nonzero)
        set_field(self, "goto_zero", goto_zero)


class Halt(Record):
    def __init__(self):
        pass


Instruction = Union[Add, Sub, Halt]


class RegisterMachine(Record, frozen=False):
    num_registers: int
    output_register: int
    start: str
    instructions: dict[str, Instruction]

    def __init__(self, num_registers, output_register, start, instructions):
        self.num_registers, self.output_register = num_registers, output_register
        self.start, self.instructions = start, instructions


class CompileError(ValueError):
    """The machine cannot be compiled; `problems` lists every reason, one text each."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = problems


def machine_problems(m: RegisterMachine) -> list[str]:
    """Everything preventing the machine from being run or compiled."""
    out = []
    if m.num_registers < 1:
        out.append(f"need at least one register, got {m.num_registers}")
    if not 1 <= m.output_register <= max(m.num_registers, 1):
        out.append(f"output register r{m.output_register} out of range")
    if not m.instructions:
        out.append("no instructions")
    for label in m.instructions:
        if not is_valid_name(label):
            out.append(f"label {label!r} is not a valid object name")
    if m.start not in m.instructions:
        out.append(f"start label {m.start!r} is not defined")
    for label, ins in sorted(m.instructions.items()):
        if isinstance(ins, Halt):
            continue
        if not 1 <= ins.register <= m.num_registers:
            out.append(f"{label}: register r{ins.register} out of range")
        targets = (
            (ins.goto_a, ins.goto_b)
            if isinstance(ins, Add)
            else (ins.goto_nonzero, ins.goto_zero)
        )
        for target in targets:
            if target not in m.instructions:
                out.append(f"{label}: jump target {target!r} is not defined")
    return out


def _machine_reach(
    m: RegisterMachine, value_bound: int
) -> tuple[list[tuple[str, tuple[int, ...]]], bool]:
    """The reachable halting (label, registers) states with every register ≤ value_bound."""
    start = (m.start, (0,) * m.num_registers)
    seen = {start}
    frontier = [start]
    halts = []
    exhausted = True
    while frontier:
        label, regs = frontier.pop()
        ins = m.instructions[label]
        if isinstance(ins, Halt):
            halts.append((label, regs))
            continue
        successors = []
        if isinstance(ins, Add):
            value = regs[ins.register - 1] + 1
            if value > value_bound:
                exhausted = False
            else:
                bumped = regs[: ins.register - 1] + (value,) + regs[ins.register :]
                successors = [(ins.goto_a, bumped), (ins.goto_b, bumped)]
        else:
            value = regs[ins.register - 1]
            if value > 0:
                dropped = regs[: ins.register - 1] + (value - 1,) + regs[ins.register :]
                successors = [(ins.goto_nonzero, dropped)]
            else:
                successors = [(ins.goto_zero, regs)]
        for state in successors:
            if state in seen:
                continue
            if len(seen) >= STATE_BOUND:
                exhausted = False
                continue
            seen.add(state)
            frontier.append(state)
    return halts, exhausted


def rm_results(m: RegisterMachine, value_bound: int) -> tuple[frozenset[int], bool]:
    """Output values over halting runs, registers pruned above value_bound.

    exhausted=False means some run was cut off by a bound, so values
    beyond the explored region may be missing.
    """
    problems = machine_problems(m)
    if problems:
        raise ValueError("; ".join(problems))
    halts, exhausted = _machine_reach(m, value_bound)
    return frozenset(regs[m.output_register - 1] for _, regs in halts), exhausted


def register_object(r: int) -> str:
    return f"a{r}"


class CompiledSystem(Record, frozen=False):
    system: CellPSystem
    symbol_map: dict[str, str]
    certificate: int  # largest antiport size among emitted rules

    def __init__(self, system: CellPSystem, symbol_map: dict[str, str], certificate: int):
        self.system, self.symbol_map, self.certificate = system, symbol_map, certificate


def compile_machine(m: RegisterMachine) -> CompiledSystem:
    """One-membrane antiport system generating the machine's number set.

    Layout: the membrane holds exactly one program object at all times
    until the halt object exits; register r is the count of a<r> inside.
    Every working object sits in the environment in unlimited supply, so
    rule applicability is always bounded by the membrane contents.

    Per instruction at label p:
      Add r -> q | s:   (p, out; q a<r>, in)  and  (p, out; s a<r>, in)
      Sub r -> q | s:   (p, out; p_1 p_c, in)
                        (p_c a<r>, out; p_cb, in)
                        (p_1, out; p_2, in)
                        (p_2 p_cb, out; q, in)
                        (p_2 p_c, out; s, in)
      Halt:             (p, out)

    The Sub gadget takes three steps. The marker p_c meets the register
    object exactly when the register is non-empty (maximal parallelism
    forces the exchange), so step three sees p_cb on the non-zero path
    and the untouched p_c on the zero path.
    """
    problems = machine_problems(m)
    if problems:
        raise CompileError(*problems)
    names: list[str] = [register_object(r) for r in range(1, m.num_registers + 1)]
    symbol_map = {f"r{r}": name for r, name in enumerate(names, start=1)}

    def one(name: str) -> Multiset:
        return Multiset([name])

    def pair(x: str, y: str) -> Multiset:
        return Multiset([x, y])

    rules: list[CellRule] = []
    for label in sorted(m.instructions):
        ins = m.instructions[label]
        names.append(label)
        symbol_map[label] = label
        if isinstance(ins, Add):
            reg = register_object(ins.register)
            rules.append(CellRule(1, CellAntiport(one(label), pair(ins.goto_a, reg))))
            if ins.goto_b != ins.goto_a:
                rules.append(
                    CellRule(1, CellAntiport(one(label), pair(ins.goto_b, reg)))
                )
        elif isinstance(ins, Sub):
            reg = register_object(ins.register)
            p1, p2 = f"{label}_1", f"{label}_2"
            c, cb = f"{label}_c", f"{label}_cb"
            names.extend((p1, p2, c, cb))
            rules.append(CellRule(1, CellAntiport(one(label), pair(p1, c))))
            rules.append(CellRule(1, CellAntiport(pair(c, reg), one(cb))))
            rules.append(CellRule(1, CellAntiport(one(p1), one(p2))))
            rules.append(CellRule(1, CellAntiport(pair(p2, cb), one(ins.goto_nonzero))))
            rules.append(CellRule(1, CellAntiport(pair(p2, c), one(ins.goto_zero))))
        else:
            rules.append(CellRule(1, SymportOut(one(label))))
    duplicates = sorted(name for name, k in Counter(names).items() if k > 1)
    if duplicates:
        raise CompileError(f"object name collisions: {duplicates}; rename the machine labels")
    alphabet = frozenset(names)
    system = CellPSystem(
        alphabet=alphabet,
        structure=MembraneStructure(1),
        init={1: one(m.start)},
        env_support=alphabet,
        rules=rules,
        output=1,
    )
    certificate = max(
        (cell_rule_size(rule) for rule in rules if len(rule_sides(rule.form)) == 2),
        default=0,
    )
    return CompiledSystem(system=system, symbol_map=symbol_map, certificate=certificate)


class VerificationReport(Record, frozen=False):
    """The audit's verdict.

    `ok` means the result sets are equal and the machine is in normal form.
    `inconclusive` means the sets differ only by values that the other
    side's walk, cut by a budget, may have missed: `ok` is then False, but
    no mismatch is proven, and `psys rm-verify` exits 3 rather than 4.
    """

    ok: bool
    bound: int
    machine_results: frozenset[int]
    system_results: frozenset[int]
    machine_exhausted: bool
    system_exhausted: bool
    normal_form_ok: bool
    messages: tuple[str, ...]
    inconclusive: bool

    def __init__(
        self, ok, bound, machine_results, system_results, machine_exhausted,
        system_exhausted, normal_form_ok, messages=(), inconclusive=False,
    ):
        self.ok, self.bound = ok, bound
        self.machine_results, self.system_results = machine_results, system_results
        self.machine_exhausted, self.system_exhausted = machine_exhausted, system_exhausted
        self.normal_form_ok, self.messages = normal_form_ok, messages
        self.inconclusive = inconclusive

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "bound": self.bound,
            "machine_results": sorted(self.machine_results),
            "system_results": sorted(self.system_results),
            "machine_exhausted": self.machine_exhausted,
            "system_exhausted": self.system_exhausted,
            "normal_form_ok": self.normal_form_ok,
            "messages": list(self.messages),
        }


def verify_compilation(
    m: RegisterMachine,
    value_bound: int = 8,
    compiled: Optional[CompiledSystem] = None,
) -> VerificationReport:
    """Bounded equivalence audit of the compiler on one machine.

    Compares the machine's result set with the compiled system's, both
    truncated to [0..value_bound]. The machine side prunes any register
    above the bound; the system side explores every configuration whose
    tracked total fits num_registers * bound + 2 (one program object
    plus one marker above the register content). The two cuts differ: a
    machine that must push a register beyond the bound to produce a
    small value has that value only on the system side. So a value one
    side alone produced proves a mismatch only when the other side's
    walk was exhausted; otherwise the report is `inconclusive`, with one
    message naming the side that was cut. This is a desk-scale audit,
    not a proof.

    Also checks the compiler's normal-form requirement: every reachable
    halt state must have all registers except the output clear, since
    the compiled system reports the whole membrane content.
    """
    messages: list[str] = []
    compiled = compiled if compiled is not None else compile_machine(m)
    halts, machine_exhausted = _machine_reach(m, value_bound)
    machine_results = frozenset(regs[m.output_register - 1] for _, regs in halts)
    normal_form_ok = True
    for label, regs in sorted(halts):
        leftovers = {
            f"r{i + 1}": value
            for i, value in enumerate(regs)
            if value and i + 1 != m.output_register
        }
        if leftovers:
            normal_form_ok = False
            messages.append(
                f"halt at {label} leaves non-output registers {leftovers}; "
                "the machine is not in compiler normal form"
            )
            break
    budget = ExploreBudget(
        max_depth=10_000, max_total_objects=m.num_registers * value_bound + 2
    )
    outcome = explore(compiled.system, budget)
    # The machine side never exceeds the bound; only the system's results need the cut.
    system_results = frozenset(value for value in outcome.results if value <= value_bound)
    ok = machine_results == system_results and normal_form_ok
    only_machine = sorted(machine_results - system_results)
    only_system = sorted(system_results - machine_results)
    proven = (only_machine and outcome.exhausted) or (only_system and machine_exhausted)
    inconclusive = bool(normal_form_ok and (only_machine or only_system) and not proven)
    found = [
        f"values produced by the {side} only: {values}"
        for side, values in (("machine", only_machine), ("compiled system", only_system))
        if values
    ]
    if inconclusive:
        cut = [
            f"the {side}'s walk was cut by a budget"
            for side, missed in (("compiled system", only_machine), ("machine", only_system))
            if missed
        ]
        messages.append(f"no mismatch proven: {'; '.join(found)}, but {' and '.join(cut)}")
    else:
        messages += found
    return VerificationReport(
        ok=ok,
        bound=value_bound,
        machine_results=machine_results,
        system_results=system_results,
        machine_exhausted=machine_exhausted,
        system_exhausted=outcome.exhausted,
        normal_form_ok=normal_form_ok,
        messages=tuple(messages),
        inconclusive=inconclusive,
    )
