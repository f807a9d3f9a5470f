"""Symport/antiport P systems: simulation, exploration, analysis, compilation.

The package is organized bottom-up:

- multiset: exact multisets and environment content
- model: system descriptions and structural validation
- measures: rule sizes, complexity profiles, interaction-rule classes
- engine: exact maximally-parallel semantics
- explore: bounded exhaustive search of the computation tree
- rm: register machines and their compilation to antiport systems
- dsl: text formats with located diagnostics
- cli: the `psys` command
"""

from .engine import Configuration, Engine, StepChoice, Trace, trace_to_lines
from .explore import (
    DeterminismVerdict,
    ExploreBudget,
    ExploreOutcome,
    check_deterministic,
    decide_accept,
    explore,
)
from .dsl import (
    SourceDiagnostic,
    parse_interactions,
    parse_machine,
    parse_structure,
    parse_system,
    print_interactions,
    print_machine,
    print_system,
)
from .measures import (
    ComplexityProfile,
    RuleClass,
    cell_rule_size,
    classify,
    profile,
    tissue_rule_size,
)
from .model import (
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
    ValidationReport,
    Violation,
    derive_graph,
    encode_cell_as_tissue,
    validate,
    validate_cell,
    validate_interaction,
    validate_tissue,
)
from .multiset import (
    EMPTY,
    EnvContent,
    Multiset,
    MultisetSyntaxError,
    MultisetUnderflow,
    format_multiset,
    parse_multiset,
)
from .rm import (
    Add,
    CompiledSystem,
    CompileError,
    Halt,
    RegisterMachine,
    Sub,
    VerificationReport,
    compile_machine,
    machine_problems,
    rm_results,
    verify_compilation,
)

__version__ = "0.1.0"

__all__ = [
    "Add",
    "CellAntiport",
    "CellPSystem",
    "CellRule",
    "CompileError",
    "CompiledSystem",
    "ComplexityProfile",
    "Configuration",
    "DeterminismVerdict",
    "EMPTY",
    "Engine",
    "EnvContent",
    "ExploreBudget",
    "ExploreOutcome",
    "Halt",
    "InteractionRule",
    "InteractionSystem",
    "MembraneStructure",
    "Multiset",
    "MultisetSyntaxError",
    "MultisetUnderflow",
    "RegisterMachine",
    "RuleClass",
    "SourceDiagnostic",
    "StepChoice",
    "Sub",
    "SymportIn",
    "SymportOut",
    "TissueAntiport",
    "TissuePSystem",
    "TissueSymport",
    "Trace",
    "UniportRule",
    "ValidationReport",
    "VerificationReport",
    "Violation",
    "cell_rule_size",
    "check_deterministic",
    "classify",
    "compile_machine",
    "decide_accept",
    "derive_graph",
    "encode_cell_as_tissue",
    "explore",
    "format_multiset",
    "machine_problems",
    "parse_interactions",
    "parse_machine",
    "parse_multiset",
    "parse_structure",
    "parse_system",
    "print_interactions",
    "print_machine",
    "print_system",
    "profile",
    "rm_results",
    "tissue_rule_size",
    "trace_to_lines",
    "validate",
    "validate_cell",
    "validate_interaction",
    "validate_tissue",
    "verify_compilation",
]
