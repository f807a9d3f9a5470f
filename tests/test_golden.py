"""Pinned behaviour: byte-exact CLI output, ordered step listings, oracle checks.

The set-based oracle comparisons elsewhere do not notice a change in the
order of maximal steps, in which steps a truncated listing keeps, or in
the choices of the greedy policy. Seeded runs depend on all three, so
these tests pin them exactly.
"""

import ast
import hashlib
import json
import random
import sys
from pathlib import Path

import psys
from psys import cli
from psys.dsl import (
    parse_interactions,
    parse_machine,
    parse_system,
    print_interactions,
    print_machine,
    print_system,
)
from psys.engine import Engine, StepChoice
from psys.model import (
    CellAntiport,
    CellRule,
    InteractionRule,
    MembraneStructure,
    SymportIn,
    SymportOut,
    TissueAntiport,
    TissueSymport,
    UniportRule,
    validate,
)
from psys.explore import ExploreBudget, check_deterministic, decide_accept, explore
from psys.multiset import Multiset, format_multiset

from gen import (
    altered,
    junk_text,
    random_cell_system,
    random_interaction_system,
    random_shared_system,
    random_system,
    random_tissue_system,
)
from machines import verification_suite
from oracles import apply_oracle, maximal_steps_oracle, state_of

README = Path(__file__).resolve().parent.parent / "README.md"

EXCHANGE = """\
@model cell
@objects a b
@env b
@membranes 1
@init 1: a^4
@rules 1: (a, out)
@rules 1: (a, out; b, in)
@output 1
"""

README_RUN = (
    '{"step": 0, "regions": {"1": {"a": 4}}, "env": {}}\n'
    '{"step": 1, "choice": [{"rule": "r2", "n": 4}], "regions": {"1": {"b": 4}}, "env": {"a": 4}}\n'
    '{"halted": true, "steps": 1, "result": 4}\n'
)

README_EXPLORE = (
    '{"results": [0, 1, 2, 3, 4], "exhausted": true, "halting_leaves": 5, '
    '"cut_branches": 0, "visited": 6}\n'
)


def test_readme_example_output_is_byte_identical(tmp_path, capsys):
    readme = README.read_text(encoding="utf-8")
    assert EXCHANGE in readme
    path = tmp_path / "exchange.psys"
    path.write_text(EXCHANGE, encoding="utf-8")

    assert cli.main(["run", str(path), "--seed", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == README_RUN and captured.err == ""
    assert cli.main(["explore", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == README_EXPLORE and captured.err == ""
    for line in (README_RUN + README_EXPLORE).splitlines():
        assert line in readme


def _population(rng, systems, depth):
    """(engine, configuration) pairs along seeded random walks."""
    for k in range(systems):
        sys = random_shared_system(rng) if k % 2 else random_system(rng)
        eng = Engine(sys)
        c = eng.initial()
        for _ in range(depth):
            yield eng, c
            steps, _ = eng.maximal_steps(c, cap=10_000)
            if not steps or c.total_tracked > 40:
                break
            c = eng.apply(c, rng.choice(steps))


# sha256 of every ordered listing below over the seeded population. Any
# change to it changes the order of steps, what a truncated listing keeps
# or which step the greedy policy builds, and with them seeded runs.
ORDERED_DIGEST = "fffd1d785914d39fb4341cc7ff7e2c92e9cc52d6bf4fb4df9ff4bf3c5c81dabe"


def test_ordered_choices_and_greedy_steps_are_pinned():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    states = truncated = 0
    for eng, c in _population(rng, systems=1200, depth=5):
        states += 1
        record = [[(rule.index, bound) for rule, bound in eng.enabled(c)]]
        for cap in (10_000, 50, 3, 1):
            steps, complete = eng.maximal_steps(c, cap)
            truncated += not complete
            record.append(([step.applications for step in steps], complete))
        for seed in range(3):
            granted, _ = eng._greedy_pass(eng._counts(c)[1], random.Random(seed))
            record.append(tuple(granted))
        digest.update(repr(record).encode())
    assert states >= 2_000 and truncated >= 200
    assert digest.hexdigest() == ORDERED_DIGEST


# Budgets from tight to loose: the tight ones put start configurations
# over the object budget and cut walks by depth, truncated listings and
# the configuration limit.
WALK_BUDGETS = (
    ExploreBudget(max_depth=2, max_total_objects=3, max_branches=1, max_configs=4),
    ExploreBudget(max_depth=4, max_total_objects=6, max_branches=2, max_configs=20),
    ExploreBudget(max_depth=12, max_total_objects=12, max_branches=50, max_configs=300),
)

# sha256 of every walk's outcome below over the seeded population. A
# change to it changes a result set, a cut count, a visited count, a
# determinism verdict or its witness, or an acceptance answer.
WALK_DIGEST = "32bde3929d09883695fdf391c467c2e6ae048d4de3e7984550a6d0519e2923b9"


def _counts(c):
    """A configuration as text that does not depend on its slot layout."""
    regions = sorted((label, format_multiset(ms)) for label, ms in c.regions.items())
    return repr((regions, format_multiset(c.env.finite)))


def test_walk_outcomes_are_pinned():
    rng = random.Random(909)
    digest = hashlib.sha256()
    seen = {"start_over_budget": 0, "cut": 0, "nondeterministic": 0, "unknown": 0}
    for k in range(400):
        sys = random_shared_system(rng) if k % 2 else random_system(rng)
        eng = Engine(sys)
        region = rng.choice(list(eng.labels))
        names = sorted(sys.alphabet)
        given = Multiset({rng.choice(names): rng.randint(1, 4)}) if names else Multiset()
        for budget in WALK_BUDGETS:
            outcome = explore(eng, budget)
            verdict = check_deterministic(eng, budget)
            witness = None if verdict.witness is None else _counts(verdict.witness)
            accept = decide_accept(eng, given, region, budget)
            record = (outcome.as_dict(), verdict.status, witness, accept)
            digest.update(repr(record).encode())
            seen["start_over_budget"] += eng.initial().total_tracked > budget.max_total_objects
            seen["cut"] += outcome.cut_branches > 0
            seen["nondeterministic"] += verdict.status == "nondeterministic"
            seen["unknown"] += verdict.status == "unknown" or accept == "unknown"
    assert min(seen.values()) >= 50, seen
    assert digest.hexdigest() == WALK_DIGEST


def choice_set(choices):
    return {frozenset(choice.applications) for choice in choices}


def test_shared_object_systems_match_the_oracle():
    rng = random.Random(77)
    compared = multi = 0
    for _ in range(300):
        sys = random_shared_system(rng)
        eng = Engine(sys)
        c = eng.initial()
        for _depth in range(3):
            regions, env_finite = state_of(sys, c)
            expected = maximal_steps_oracle(sys, regions, env_finite)
            got, complete = eng.maximal_steps(c, cap=5_000)
            assert complete
            assert choice_set(got) == expected, sys
            assert len(set(got)) == len(got)
            for step in got:
                after = apply_oracle(sys, regions, env_finite, step.applications)
                assert state_of(sys, eng.apply(c, step)) == after, (sys, step)
            compared += 1
            multi += any(m > 1 for step in got for _, m in step.applications)
            if not got:
                break
            c = eng.apply(c, rng.choice(got))
            if c.total_tracked > 24:
                break
    assert compared >= 500 and multi >= 100


# sha256 of every trace line below over the seeded population. A change to
# it changes a byte of `psys run` output: a record's keys, their order, the
# escaping of a name, a note, a summary, or a seeded run's choices.
TRACE_DIGEST = "3e42ce85cd30514458e603cba44172cbeffe11bacfa60ca0a72c3d792fb0e5b0"

# Input names outside every generated alphabet, two of them needing escapes.
OUTSIDE = Multiset({"zz": 2, 'q"\\': 1, "é": 1})


def test_trace_lines_are_pinned():
    rng = random.Random(1011)
    digest = hashlib.sha256()
    seen = {"greedy": 0, "fallback": 0, "result": 0, "outside": 0}
    for k in range(600):
        sys = random_shared_system(rng) if k % 2 else random_system(rng)
        eng = Engine(sys)
        seed, steps = rng.randrange(1_000), rng.randint(1, 12)
        given = OUTSIDE + Multiset({rng.choice(sorted(sys.alphabet)): rng.randint(1, 3)})
        traces = [
            eng.run(seed, steps, "greedy-random"),
            eng.run(seed, steps, "enumerate-uniform", cap=1),
            eng.run_accepting(given, rng.choice(list(eng.labels)), seed, steps)[1],
        ]
        for trace in traces:
            for line in psys.trace_to_lines(eng, trace):
                assert json.dumps(json.loads(line), separators=(", ", ": ")) == line
                digest.update(line.encode() + b"\n")
        seen["greedy"] += traces[0].steps_taken > 0
        seen["fallback"] += any(step.note for step in traces[1].steps)
        seen["result"] += sum(trace.halted for trace in traces)
        seen["outside"] += traces[2].steps_taken > 0
    assert min(seen.values()) >= 50, seen
    assert digest.hexdigest() == TRACE_DIGEST


def test_greedy_steps_are_maximal_on_shared_object_systems():
    rng = random.Random(78)
    for _ in range(300):
        sys = random_shared_system(rng)
        eng = Engine(sys)
        c = eng.initial()
        steps, complete = eng.maximal_steps(c, cap=10_000)
        assert complete
        for seed in range(4):
            granted, _ = eng._greedy_pass(eng._counts(c)[1], random.Random(seed))
            assert StepChoice(tuple(granted)) in steps if steps else granted == []


def _parser_corpus(rng):
    """Seeded texts for the parsers: junk, printed systems, machines and
    interaction rules, each followed by character-level mutations of it."""
    bases = [junk_text(rng) for _ in range(600)]
    for _ in range(100):
        bases.append(print_system(random_cell_system(rng)))
        bases.append(print_system(random_tissue_system(rng)))
        bases.append(print_interactions(random_interaction_system(rng).rules))
    bases += [print_machine(machine) for machine in verification_suite()] * 4
    alphabet = "@:;,()/^|#->\n \t01239abrxpHALTSUBDempty"
    for text in bases:
        yield text
        for _ in range(12):
            chars = list(text)
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(chars) + 1)
                edit = rng.randrange(3)
                if edit == 0 and at < len(chars):
                    del chars[at]
                elif edit == 1 and at < len(chars):
                    chars[at] = rng.choice(alphabet)
                else:
                    chars.insert(at, rng.choice(alphabet))
            yield "".join(chars)


def _canonical(value) -> str:
    """A parse result as text that does not depend on set iteration order."""
    if isinstance(value, (psys.CellPSystem, psys.TissuePSystem)):
        shape = getattr(value, "structure", None)
        shape = (shape.n, sorted(shape.parent.items())) if shape else value.n_cells
        return repr((
            type(value).__name__,
            sorted(value.alphabet),
            sorted(value.env_support),
            shape,
            sorted((label, format_multiset(ms)) for label, ms in value.init.items()),
            [repr(rule) for rule in value.rules],
            value.output,
        ))
    if isinstance(value, psys.RegisterMachine):
        return repr((
            value.num_registers,
            value.output_register,
            value.start,
            sorted(value.instructions.items()),
        ))
    return repr(value)


# sha256 of every parser's value and diagnostics over the seeded corpus
# below. A change to it changes what some text parses to, or a
# diagnostic's line, column, code or message.
PARSER_DIGEST = "580c403dbba86ff5b01dd949cd492b285f63736047f779bd6c90b65157cb831e"


def test_parser_outputs_are_pinned():
    digest = hashlib.sha256()
    texts = 0
    for text in _parser_corpus(random.Random(8)):
        texts += 1
        for parse in (parse_system, parse_interactions, parse_machine):
            value, diags = parse(text)
            digest.update(_canonical(value).encode())
            digest.update("\n".join(map(str, diags)).encode() + b"\0")
    assert texts >= 11_000
    assert digest.hexdigest() == PARSER_DIGEST


# The public names at the time the compatibility surface was pinned; a
# change that drops or adds one has to change this list on purpose.
PUBLIC_NAMES = [
    "Add", "CellAntiport", "CellPSystem", "CellRule", "CompileError",
    "CompiledSystem", "ComplexityProfile", "Configuration",
    "DeterminismVerdict", "EMPTY", "Engine", "EnvContent", "ExploreBudget",
    "ExploreOutcome", "Halt", "InteractionRule",
    "InteractionSystem", "MembraneStructure", "Multiset",
    "MultisetSyntaxError", "MultisetUnderflow", "RegisterMachine",
    "RuleClass", "SourceDiagnostic", "StepChoice", "Sub", "SymportIn",
    "SymportOut", "TissueAntiport", "TissuePSystem", "TissueSymport", "Trace",
    "UniportRule", "ValidationReport", "VerificationReport", "Violation",
    "cell_rule_size", "check_deterministic", "classify", "compile_machine",
    "decide_accept", "derive_graph", "encode_cell_as_tissue", "explore",
    "format_multiset", "machine_problems", "parse_interactions",
    "parse_machine", "parse_multiset", "parse_structure", "parse_system",
    "print_interactions", "print_machine", "print_system", "profile",
    "rm_results", "tissue_rule_size", "trace_to_lines", "validate",
    "validate_cell", "validate_interaction", "validate_tissue",
    "verify_compilation",
]


def test_public_surface_is_pinned():
    assert sorted(psys.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(psys, name) is not None, name


def test_package_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"__future__", "psys"}
    for path in sorted(Path(psys.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, (path.name, name)


def test_no_function_calls_itself():
    """No function in the package calls itself, so no input's size meets the recursion limit.

    A call counts when it names the function it is in, or when a method
    calls `self.<its own name>`. Indirect recursion, through a chain of two
    or more functions, is not caught. Deep trees keep an explicit stack,
    as `dsl.format_structure` does.
    """
    for path in sorted(Path(psys.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                callee = getattr(call, "func", None)
                named = isinstance(callee, ast.Name) and callee.id == fn.name
                through_self = (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == fn.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                )
                assert not (named or through_self), f"{path.name}:{call.lineno}: {fn.name}"


def _defect(rng, sys):
    """A copy of `sys` with one structured defect its kind can have."""
    cell = isinstance(sys, psys.CellPSystem)
    tissue = isinstance(sys, psys.TissuePSystem)
    n = sys.structure.n if cell else sys.n_cells
    far = max(n, 1) + rng.randint(1, 5)
    name = rng.choice(sorted(sys.alphabet - {"", "9x", "a b"}) or ["o1"])
    one = Multiset({name: 1})
    unlimited = altered(sys, env_support=sys.env_support | {name}) if name in sys.alphabet else sys
    label = rng.randint(1, max(n, 1))

    def adding(rule, base=sys):
        rules = list(base.rules)
        rules.insert(rng.randint(0, len(rules)), rule)
        return altered(base, rules=rules)

    defects = [
        lambda: altered(sys, init={**sys.init, far: one}),
        lambda: altered(sys, init={**sys.init, label: Multiset({"zz": 2})}),
        lambda: altered(sys, alphabet=sys.alphabet | {rng.choice(["", "9x", "a b"])}),
        lambda: altered(sys, env_support=sys.env_support | {"stray"}),
        lambda: altered(sys, output=rng.choice([far, 0, -1])),
    ]
    if cell:
        skin = sys.structure.skin if not sys.structure.problems() else 1
        defects += [
            lambda: altered(sys, structure=MembraneStructure(3, {2: 3, 3: 2})),
            lambda: altered(sys, structure=MembraneStructure(4, {2: 1, 3: 4, 4: 3})),
            lambda: altered(sys, structure=MembraneStructure(2)),
            lambda: altered(sys, structure=MembraneStructure(2, {2: 9})),
            lambda: altered(sys, structure=MembraneStructure(1, {5: 1})),
            lambda: altered(sys, structure=MembraneStructure(rng.choice([0, -2]))),
            lambda: altered(sys, structure=MembraneStructure(2, {2: 1}), output=1),
            lambda: adding(CellRule(rng.choice([far, 0]), SymportOut(one))),
            lambda: adding(CellRule(label, SymportOut(Multiset()))),
            lambda: adding(CellRule(label, CellAntiport(Multiset(), Multiset({"zz": 1})))),
            lambda: adding(CellRule(label, SymportIn(Multiset({"zz": 1, name: 1})))),
            lambda: adding(CellRule(skin, SymportIn(one)), unlimited),
        ]
    elif tissue:
        defects += [
            lambda: altered(sys, n_cells=rng.choice([0, -1])),
            lambda: adding(TissueSymport(far, one, rng.randint(0, label))),
            lambda: adding(TissueSymport(label, one, label)),
            lambda: adding(TissueAntiport(0, Multiset(), one, label)),
            lambda: adding(TissueSymport(label, Multiset({"zz": 1}), 0)),
            lambda: adding(TissueSymport(0, one, label), unlimited),
        ]
    else:
        defects += [
            lambda: altered(sys, n_cells=rng.choice([0, -1])),
            lambda: adding(UniportRule(name, far, label)),
            lambda: adding(InteractionRule(name, label, name, 0, -1, far)),
            lambda: adding(UniportRule("zz", label, 0)),
            lambda: adding(InteractionRule(name, 0, "zz", 1, 1, 0)),
            lambda: adding(UniportRule(name, 0, label), unlimited),
            lambda: adding(InteractionRule(name, 0, name, 0, label, label), unlimited),
            lambda: adding(UniportRule(name, label, label)),
            lambda: adding(InteractionRule(name, label, name, 0, label, 0)),
        ]
    return rng.choice(defects)()


# sha256 of every validation report below over seeded systems, clean and
# with one to three structured defects. A change to it changes a code, a
# location, a message, a severity or the order of the violations.
VALIDATION_DIGEST = "0e385246013a610f801087e42fc09c806e1544ecac9c017a9ae9ac428db29f34"


def test_validation_reports_are_pinned():
    rng = random.Random(10)
    digest = hashlib.sha256()
    codes = set()
    makers = (random_cell_system, random_tissue_system, random_interaction_system)
    for k in range(1_500):
        sys = makers[k % 3](rng)
        for _ in range(rng.randint(0, 3) if k % 5 else 0):
            sys = _defect(rng, sys)
        report = validate(sys)
        codes.update(v.code for v in report.violations)
        digest.update(str(report).encode() + b"\0")
    assert codes == {f"V{i:03}" for i in range(1, 14)} | {"W001"}
    assert digest.hexdigest() == VALIDATION_DIGEST
