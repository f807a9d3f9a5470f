import random

from psys.dsl import (
    BAD_INTERACTION,
    BAD_MACHINE_LINE,
    BAD_MULTISET,
    BAD_NUMBER,
    BAD_PAYLOAD,
    BAD_RULE,
    BAD_STRUCTURE_TEXT,
    DUPLICATE_DIRECTIVE,
    MISSING_DIRECTIVE,
    STRAY_LINE,
    UNKNOWN_DIRECTIVE,
    format_structure,
    parse_interactions,
    parse_machine,
    parse_system,
    print_interactions,
    print_machine,
    print_system,
)
from psys.measures import RuleClass, classify
from psys.model import (
    SKIN_PULLS_UNLIMITED,
    CellPSystem,
    InteractionRule,
    MembraneStructure,
    TissueAntiport,
    TissuePSystem,
    UniportRule,
    validate,
)
from psys.multiset import Multiset, parse_multiset

from corpus import deterministic_minimal_corpus
from gen import junk_text, random_cell_system, random_tissue_system
from machines import verification_suite


EXAMPLE = """\
@model cell
@objects a
@env a
@membranes 1
@init 1: empty
@rules 1: (a, out; a, in)
@output 1
"""


def ms(text):
    return parse_multiset(text)


def parsed_ok(text):
    sys, diags = parse_system(text)
    assert sys is not None, diags
    assert diags == []
    return sys


# ---------------------------------------------------------------- systems


def test_parse_example_document():
    sys = parsed_ok(EXAMPLE)
    assert isinstance(sys, CellPSystem)
    assert sys.alphabet == frozenset({"a"})
    assert sys.env_support == frozenset({"a"})
    assert sys.structure == MembraneStructure(1, {})
    assert sys.init == {}
    assert len(sys.rules) == 1
    assert sys.output == 1
    assert validate(sys).ok


def test_parse_accepts_what_validation_rejects():
    text = EXAMPLE.replace("(a, out; a, in)", "(a, in)")
    sys, diags = parse_system(text)
    assert sys is not None and diags == []
    report = validate(sys)
    assert not report.ok
    assert report.violations[0].code == SKIN_PULLS_UNLIMITED


def test_zero_multiplicity_literal_is_a_parse_error():
    text = EXAMPLE.replace("@init 1: empty", "@init 1: a^0")
    sys, diags = parse_system(text)
    assert sys is None
    assert any(d.code == BAD_MULTISET and d.line == 5 for d in diags)


def test_round_trip_example():
    sys = parsed_ok(EXAMPLE)
    assert parsed_ok(print_system(sys)) == sys


def test_print_is_canonical_and_stable():
    sys = parsed_ok(EXAMPLE)
    assert print_system(sys) == print_system(sys)
    reordered = CellPSystem(
        alphabet=["a"],
        structure=sys.structure,
        init={},
        env_support=["a"],
        rules=list(reversed(sys.rules)),
        output=1,
    )
    assert print_system(reordered) == print_system(sys)


def test_print_cell_golden():
    sys = CellPSystem(
        alphabet=["b", "a"],
        structure=MembraneStructure(3, {2: 1, 3: 1}),
        init={2: ms("a^2")},
        env_support=["b"],
        rules=[],
        output=2,
    )
    assert print_system(sys) == (
        "@model cell\n"
        "@objects a b\n"
        "@env b\n"
        "@membranes 1(2 3)\n"
        "@init 2: a^2\n"
        "@output 2\n"
    )


def test_print_tissue_golden_and_round_trip():
    sys = TissuePSystem(
        alphabet=["a", "b"],
        n_cells=1,
        init={1: ms("a")},
        env_support=["b"],
        rules=[TissueAntiport(1, ms("a"), ms("b"), 0)],
        output=1,
    )
    text = print_system(sys)
    assert text == (
        "@model tissue\n"
        "@objects a b\n"
        "@env b\n"
        "@cells 1\n"
        "@init 1: a\n"
        "@rules: (1, a / b, 0)\n"
        "@output 1\n"
    )
    assert parsed_ok(text) == sys


def test_structure_literal_nesting():
    text = (
        "@model cell\n@objects a\n@env\n@membranes 1(2 3(4))\n"
        "@init 4: a\n@output 4\n"
    )
    sys = parsed_ok(text)
    assert sys.structure == MembraneStructure(4, {2: 1, 3: 1, 4: 3})
    assert format_structure(sys.structure) == "1(2 3(4))"


def test_forest_prints_every_root_and_round_trips():
    # Parsing accepts a forest; validation is what rejects it.
    text = EXAMPLE.replace("@membranes 1", "@membranes 1(3) 2")
    sys = parsed_ok(text)
    assert sys.structure == MembraneStructure(3, {3: 1})
    assert "@membranes 1(3) 2\n" in print_system(sys)
    assert parsed_ok(print_system(sys)) == sys


def test_a_deep_tree_prints_and_round_trips():
    depth = 3_000
    nested = "(".join(str(label) for label in range(1, depth + 1)) + ")" * (depth - 1)
    text = EXAMPLE.replace("@membranes 1", f"@membranes {nested}").replace(
        "@output 1", f"@output {depth}"
    )
    sys = parsed_ok(text)
    assert validate(sys).ok
    assert f"@membranes {nested}\n" in print_system(sys)
    assert parsed_ok(print_system(sys)) == sys


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# a system\n\n@model cell  # the variant\n@objects a\n@env\n"
        "@membranes 1\n@init 1: a  # one copy\n@output 1\n"
    )
    sys = parsed_ok(text)
    assert sys.initial_contents(1) == ms("a")


def test_diagnostic_codes_for_malformed_documents():
    cases = [
        ("@nonsense x\n" + EXAMPLE, UNKNOWN_DIRECTIVE),
        (EXAMPLE + "@model tissue\n", DUPLICATE_DIRECTIVE),
        ("@model cell\n@objects a\n@membranes 1\n@init 1: a\n", MISSING_DIRECTIVE),
        (EXAMPLE.replace("@model cell", "@model vesicle"), BAD_PAYLOAD),
        (EXAMPLE.replace("@membranes 1", "@membranes 1(2"), BAD_STRUCTURE_TEXT),
        (EXAMPLE.replace("@rules 1: (a, out; a, in)", "@rules 1: a out"), BAD_RULE),
        ("just some words\n" + EXAMPLE, STRAY_LINE),
        (EXAMPLE.replace("@objects a", "@objects 9lives"), BAD_PAYLOAD),
        (EXAMPLE + "@cells 3\n", BAD_PAYLOAD),
    ]
    for text, code in cases:
        sys, diags = parse_system(text)
        assert sys is None, text
        assert any(d.code == code for d in diags), (text, code, diags)


def test_tissue_documents_reject_cell_only_directives():
    text = (
        "@model tissue\n@objects a\n@env\n@cells 2\n@membranes 1\n"
        "@init 1: a\n@output 1\n"
    )
    sys, diags = parse_system(text)
    assert sys is None
    assert any(d.code == BAD_PAYLOAD for d in diags)


def test_tissue_bad_cell_count():
    text = "@model tissue\n@objects a\n@env\n@cells zero\n@output 1\n"
    sys, diags = parse_system(text)
    assert sys is None
    assert any(d.code == BAD_NUMBER for d in diags)


def test_antiport_direction_order_is_fixed():
    text = EXAMPLE.replace("(a, out; a, in)", "(a, in; a, out)")
    sys, diags = parse_system(text)
    assert sys is None
    assert any(d.code == BAD_RULE for d in diags)


def test_init_lines_accumulate():
    text = EXAMPLE.replace("@init 1: empty", "@init 1: a\n@init 1: a^2")
    sys = parsed_ok(text)
    assert sys.initial_contents(1) == ms("a^3")


def test_diagnostics_are_positioned_and_printable():
    sys, diags = parse_system("@model cell\n@objects a\n@membranes 1(\n@output 1\n")
    assert sys is None
    d = next(d for d in diags if d.code == BAD_STRUCTURE_TEXT)
    assert d.line == 3
    assert d.column == 11
    assert str(d).startswith(f"{d.line}:{d.column}: {d.code}:")


def test_round_trip_generated_systems():
    rng = random.Random(51)
    for _ in range(100):
        sys = random_cell_system(rng)
        assert parsed_ok(print_system(sys)) == sys
        tsys = random_tissue_system(rng)
        assert parsed_ok(print_system(tsys)) == tsys


def test_round_trip_corpus():
    for sys in deterministic_minimal_corpus():
        assert parsed_ok(print_system(sys)) == sys


# ---------------------------------------------------------------- interaction rules


def test_parse_interaction_rule():
    rules, diags = parse_interactions("(a,1)(b,1) -> (a,1)(b,2)\n")
    assert diags == []
    assert rules == [InteractionRule("a", 1, "b", 1, 1, 2)]
    assert classify(rules[0]) is RuleClass.CONDITIONAL_UNIPORT_OUT


def test_parse_uniport_rule():
    rules, diags = parse_interactions("(a,1) -> (a,2)\n")
    assert diags == []
    assert rules == [UniportRule("a", 1, 2)]


def test_interaction_arity_mismatch():
    rules, diags = parse_interactions("(a,1)(b,2) -> (a,1)\n")
    assert rules == []
    assert any(d.code == BAD_INTERACTION for d in diags)


def test_interaction_names_must_match_positionally():
    rules, diags = parse_interactions("(a,1)(b,2) -> (b,1)(a,2)\n")
    assert rules == []
    assert any(d.code == BAD_INTERACTION for d in diags)
    rules, diags = parse_interactions("(a,1) -> (b,2)\n")
    assert rules == []
    assert any(d.code == BAD_INTERACTION for d in diags)


def test_interactions_round_trip():
    rules = [
        InteractionRule("a", 1, "b", 2, 3, 0),
        UniportRule("x", 0, 2),
        InteractionRule("m", 2, "m", 2, 0, 1),
    ]
    text = print_interactions(rules)
    back, diags = parse_interactions(text)
    assert diags == []
    assert back == rules


def test_interactions_multi_line_with_comments():
    text = "# set\n(a,1)(b,1) -> (a,2)(b,2)\n\n(a,3) -> (a,0)  # drain\n"
    rules, diags = parse_interactions(text)
    assert diags == []
    assert len(rules) == 2


# ---------------------------------------------------------------- machines


MACHINE_TEXT = """\
# doubles forever, may stop
registers 1
output r1
start p0
p0: ADD r1 -> p0 | ph
ph: HALT
"""


def test_parse_machine():
    m, diags = parse_machine(MACHINE_TEXT)
    assert diags == []
    assert m is not None
    assert m.num_registers == 1
    assert m.output_register == 1
    assert m.start == "p0"
    assert set(m.instructions) == {"p0", "ph"}


def test_machine_round_trip():
    for machine in verification_suite():
        text = print_machine(machine)
        back, diags = parse_machine(text)
        assert diags == []
        assert back == machine
        assert print_machine(back) == text


def test_machine_is_case_insensitive_on_opcodes():
    text = MACHINE_TEXT.replace("ADD", "add").replace("HALT", "halt")
    m, diags = parse_machine(text)
    assert diags == [] and m is not None


def test_machine_diagnostics():
    m, diags = parse_machine("registers 1\nregisters 2\noutput r1\nstart p0\np0: HALT\n")
    assert m is None
    assert any(d.code == DUPLICATE_DIRECTIVE for d in diags)
    m, diags = parse_machine("registers 1\noutput r1\np0: HALT\n")
    assert m is None
    assert any(d.code == MISSING_DIRECTIVE for d in diags)
    m, diags = parse_machine(MACHINE_TEXT + "px: JMP r1\n")
    assert m is None
    assert any(d.code == BAD_MACHINE_LINE for d in diags)
    m, diags = parse_machine(MACHINE_TEXT + "p0: HALT\n")
    assert m is None
    assert any(d.code == BAD_MACHINE_LINE and "p0" in d.message for d in diags)


# ---------------------------------------------------------------- numbers

# Every place the three formats read a number, as a template for it.
NUMBER_PLACES = [
    (parse_system, EXAMPLE.replace("@membranes 1", "@membranes {}")),
    (parse_system, EXAMPLE.replace("@init 1:", "@init {}:")),
    (parse_system, EXAMPLE.replace("@init 1: empty", "@init 1: a^{}")),
    (parse_system, EXAMPLE.replace("@rules 1:", "@rules {}:")),
    (parse_system, EXAMPLE.replace("@output 1", "@output {}")),
    (parse_system, "@model tissue\n@objects a\n@cells {}\n@output 1\n"),
    (parse_system, "@model tissue\n@objects a\n@cells 1\n@rules: ({}, a, 0)\n@output 1\n"),
    (parse_interactions, "(a,{}) -> (a,1)\n"),
    (parse_machine, MACHINE_TEXT.replace("registers 1", "registers {}")),
    (parse_machine, MACHINE_TEXT.replace("output r1", "output r{}")),
    (parse_machine, MACHINE_TEXT.replace("ADD r1", "ADD r{}")),
]


def test_numbers_int_refuses_get_the_malformed_number_diagnostic():
    # More digits than int()'s 4,300-digit limit, and a digit int() does
    # not read, each get the located diagnostic a malformed number gets,
    # which quotes at most the first 40 characters of the token.
    for number in ("9" * 5_000, "\u00b2"):
        for parse, template in NUMBER_PLACES:
            _, diags = parse(template.format(number))
            _, malformed = parse(template.format("x"))
            assert malformed, template
            located = [(d.line, d.column, d.code) for d in diags]
            assert located == [(d.line, d.column, d.code) for d in malformed], template
            assert all(len(str(d)) < 200 for d in diags), template


# ---------------------------------------------------------------- totality


def test_parsers_are_total_on_junk():
    rng = random.Random(53)
    for _ in range(2_000):
        text = junk_text(rng)
        sys, diags = parse_system(text)
        if sys is None:
            assert diags
        rules, _ = parse_interactions(text)
        machine, mdiags = parse_machine(text)
        if machine is None:
            assert mdiags
