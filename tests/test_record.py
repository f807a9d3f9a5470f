"""psys's value classes behave as records: the same construction, equality,
hashing, freezing and repr for every class, field for field.

`SAMPLES` lists each value class with its fields in order and a value for
each field, already in the form the class normalizes it to.
"""

import os
import subprocess
import sys

import pytest

import psys
from psys import (
    Add,
    CellAntiport,
    CellPSystem,
    CellRule,
    CompiledSystem,
    ComplexityProfile,
    Configuration,
    DeterminismVerdict,
    EnvContent,
    ExploreBudget,
    ExploreOutcome,
    Halt,
    InteractionRule,
    InteractionSystem,
    MembraneStructure,
    Multiset,
    RegisterMachine,
    SourceDiagnostic,
    StepChoice,
    Sub,
    SymportIn,
    SymportOut,
    TissueAntiport,
    TissuePSystem,
    TissueSymport,
    Trace,
    UniportRule,
    ValidationReport,
    VerificationReport,
    Violation,
)
from psys.engine import TraceStep, TransferRule

A = Multiset({"a": 1})
B = Multiset({"b": 2})
START = Configuration({1: A}, EnvContent(frozenset({"b"})))
RULE = CellRule(1, CellAntiport(A, B))
CELL = {
    "alphabet": frozenset({"a", "b"}),
    "structure": MembraneStructure(1, {}),
    "init": {1: A},
    "env_support": frozenset({"b"}),
    "rules": (RULE,),
    "output": 1,
}


def cells(*rules):
    return {
        "alphabet": frozenset({"a"}),
        "n_cells": 2,
        "init": {1: A},
        "env_support": frozenset(),
        "rules": rules,
        "output": 2,
    }


TISSUE = cells(TissueSymport(1, A, 2))
INTERACTION = cells(UniportRule("a", 1, 2))
SYSTEM = CellPSystem(**CELL)

SAMPLES = [
    (Add, {"register": 1, "goto_a": "p", "goto_b": "q"}),
    (CellAntiport, {"outbound": A, "inbound": B}),
    (CellPSystem, CELL),
    (CellRule, {"region": 1, "form": SymportIn(A)}),
    (CompiledSystem, {"system": SYSTEM, "symbol_map": {"l0": "p"}, "certificate": 2}),
    (ComplexityProfile, {
        "kind": "cell", "degree": 1, "max_symport_size": 0, "max_antiport_size": 2,
        "num_objects": 2, "num_rules": 1, "antiport_measure": "max",
    }),
    (DeterminismVerdict, {"status": "nondeterministic", "witness": START}),
    (EnvContent, {"infinite": frozenset({"b"}), "finite": A}),
    (ExploreBudget, {"max_depth": 3, "max_total_objects": 4, "max_branches": 5, "max_configs": 6}),
    (ExploreOutcome, {
        "results": frozenset({0, 2}), "exhausted": True, "halting_leaves": 2,
        "cut_branches": 0, "visited_configs": 7,
    }),
    (Halt, {}),
    (InteractionRule, {"obj_a": "a", "src_a": 1, "obj_b": "b", "src_b": 0, "dst_a": 2, "dst_b": 1}),
    (InteractionSystem, INTERACTION),
    (MembraneStructure, {"n": 2, "parent": {2: 1}}),
    (RegisterMachine, {
        "num_registers": 1, "output_register": 1, "start": "p", "instructions": {"p": Halt()},
    }),
    (SourceDiagnostic, {"line": 3, "column": 5, "code": "D001", "message": "unknown"}),
    (StepChoice, {"applications": ((0, 2), (3, 1))}),
    (Sub, {"register": 2, "goto_nonzero": "p", "goto_zero": "q"}),
    (SymportIn, {"objects": A}),
    (SymportOut, {"objects": B}),
    (TissueAntiport, {"src": 0, "outbound": A, "inbound": B, "dst": 1}),
    (TissuePSystem, TISSUE),
    (TissueSymport, {"src": 1, "objects": A, "dst": 2}),
    (Trace, {"initial": START, "steps": [], "halted": True}),
    (TraceStep, {"choice": StepChoice(((0, 1),)), "after": START, "note": "fallback"}),
    (TransferRule, {"index": 0, "rid": "r1", "source": RULE}),
    (UniportRule, {"obj": "a", "src": 1, "dst": 2}),
    (ValidationReport, {"violations": (Violation("V001", "rule 1", "bad"),)}),
    (VerificationReport, {
        "ok": True, "bound": 8, "machine_results": frozenset({1}),
        "system_results": frozenset({1}), "machine_exhausted": True,
        "system_exhausted": True, "normal_form_ok": True, "messages": ("fine",),
        "inconclusive": False,
    }),
    (Violation, {"code": "W001", "location": "rule 2", "message": "inert", "severity": "warning"}),
]
MUTABLE = {
    CellPSystem, TissuePSystem, InteractionSystem, Trace, TraceStep,
    RegisterMachine, CompiledSystem, VerificationReport,
}
# Fields a call may leave out, with the value they then take.
DEFAULTS = {
    DeterminismVerdict: {"witness": None},
    EnvContent: {"infinite": frozenset(), "finite": Multiset()},
    ExploreBudget: {
        "max_depth": 64, "max_total_objects": 64, "max_branches": 10_000,
        "max_configs": 1_000_000,
    },
    MembraneStructure: {"parent": {}},
    Trace: {"steps": [], "halted": False},
    TraceStep: {"note": None},
    ValidationReport: {"violations": ()},
    VerificationReport: {"messages": (), "inconclusive": False},
    Violation: {"severity": "error"},
}


def cases(keep=lambda cls: True):
    """Parametrize a test over the samples whose class `keep` accepts."""
    chosen = [(cls, fields) for cls, fields in SAMPLES if keep(cls)]
    return pytest.mark.parametrize("cls, fields", chosen, ids=[cls.__name__ for cls, _ in chosen])


def test_samples_cover_every_value_class_of_the_package():
    value_classes = {
        cls for name in psys.__all__
        if isinstance(cls := getattr(psys, name), type)
        and not issubclass(cls, Exception)
        and cls.__name__ not in {"Configuration", "Engine", "Multiset", "RuleClass"}
    }
    assert value_classes <= {cls for cls, _ in SAMPLES}
    assert {TransferRule, TraceStep, Trace} <= {cls for cls, _ in SAMPLES}


@cases()
def test_positional_and_keyword_construction_agree(cls, fields):
    by_position, by_name = cls(*fields.values()), cls(**fields)
    for value in (by_position, by_name):
        assert [getattr(value, name) for name in fields] == list(fields.values())
    assert by_position == by_name


@cases()
def test_bad_field_lists_raise_type_error(cls, fields):
    values, names = list(fields.values()), list(fields)
    required = [name for name in names if name not in DEFAULTS.get(cls, {})]
    for name in required:
        with pytest.raises(TypeError):
            cls(**{key: value for key, value in fields.items() if key != name})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, None)
    if names:
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})


@cases()
def test_left_out_fields_take_their_defaults(cls, fields):
    defaults = DEFAULTS.get(cls, {})
    given = {name: value for name, value in fields.items() if name not in defaults}
    value = cls(**given)
    for name, default in defaults.items():
        assert getattr(value, name) == default, name


def test_every_trace_gets_its_own_step_list():
    first, second = Trace(START), Trace(START)
    assert first.steps == [] and first.steps is not second.steps
    first.steps.append(TraceStep(StepChoice(()), START))
    assert second.steps == []


@cases(lambda cls: cls not in MUTABLE)
def test_frozen_values_refuse_assignment_and_hash_by_value(cls, fields):
    value = cls(*fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert hash(value) == hash(cls(**fields))


@cases(lambda cls: cls in MUTABLE)
def test_mutable_values_have_no_hash(cls, fields):
    value = cls(*fields.values())
    with pytest.raises(TypeError):
        hash(value)
    name = next(iter(fields))
    setattr(value, name, getattr(value, name))


def test_values_of_different_classes_never_compare_equal():
    assert SymportIn(A) != SymportOut(A)
    assert SymportIn(A) == SymportIn(A)
    assert TissuePSystem(**cells()) != InteractionSystem(**cells())
    values = [cls(*fields.values()) for cls, fields in SAMPLES]
    for i, first in enumerate(values):
        for second in values[i + 1:]:
            assert first != second and second != first
    for value, (_, fields) in zip(values, SAMPLES):
        assert value != tuple(fields.values())


@cases(lambda cls: cls is not EnvContent)  # it prints its own, shorter repr
def test_repr_names_every_field(cls, fields):
    inside = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(*fields.values())) == f"{cls.__qualname__}({inside})"


def test_complexity_profile_as_dict_keeps_its_keys_in_order():
    fields = dict(SAMPLES)[ComplexityProfile]
    assert list(ComplexityProfile(**fields).as_dict().items()) == list(fields.items())


# Interpreter arguments that print which of `dataclasses` and the modules
# behind it a fresh `import psys.cli` loads; together they cost more start-up
# time than psys itself. `-S` skips the site hooks, which on some installs
# import `inspect` before psys does.
IMPORT_PROBE = [
    "-S", "-c",
    "import sys, psys.cli; "
    "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))",
]


def test_importing_the_cli_leaves_out_the_code_generating_modules():
    done = subprocess.run(
        [sys.executable, *IMPORT_PROBE], env=os.environ, capture_output=True, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"[]\n", b"")
