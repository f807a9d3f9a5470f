import random
import sys
import tracemalloc
from dataclasses import replace

import pytest

from psys.dsl import parse_system
from psys.model import (
    BAD_OBJECT_NAME,
    BAD_STRUCTURE,
    EMPTY_RULE_SIDE,
    ENV_NOT_IN_ALPHABET,
    ENV_SYMPORT_UNLIMITED,
    EQUAL_ENDPOINTS,
    NODE_OUT_OF_RANGE,
    OBJECT_NOT_DECLARED,
    OUTPUT_NOT_ELEMENTARY,
    OUTPUT_OUT_OF_RANGE,
    SKIN_PULLS_UNLIMITED,
    UNBOUNDED_RULE,
    UNKNOWN_INIT_REGION,
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
    cell_rule_text,
    derive_graph,
    encode_cell_as_tissue,
    interaction_rule_text,
    tissue_rule_text,
    validate,
    validate_cell,
    validate_tissue,
)
from psys.multiset import Multiset, parse_multiset

from gen import random_cell_system, random_interaction_system, random_tissue_system


def ms(text):
    return parse_multiset(text)


def codes(report):
    return [v.code for v in report.violations]


def one_membrane(rules, init="a", alphabet=("a", "b", "e"), env=("e",), output=1):
    return CellPSystem(
        alphabet=alphabet,
        structure=MembraneStructure(1, {}),
        init={1: ms(init)},
        env_support=env,
        rules=rules,
        output=output,
    )


# ---------------------------------------------------------------- structure


def test_structure_tree_queries():
    s = MembraneStructure(4, {2: 1, 3: 1, 4: 3})
    assert s.problems() == []
    assert s.skin == 1
    assert s.outer(1) == 0
    assert s.outer(4) == 3
    assert s.leaves() == (2, 4)


def test_structure_problems():
    assert MembraneStructure(0, {}).problems()
    assert MembraneStructure(2, {}).problems()  # 2 is disconnected
    assert MembraneStructure(2, {2: 2}).problems()  # self-parent
    assert MembraneStructure(3, {2: 3, 3: 2}).problems()  # cycle
    assert MembraneStructure(2, {2: 5}).problems()  # parent out of range
    assert MembraneStructure(1, {1: 1}).problems()  # skin may not have a parent


def test_structure_equality():
    assert MembraneStructure(2, {2: 1}) == MembraneStructure(2, {2: 1})
    assert MembraneStructure(2, {2: 1}) != MembraneStructure(1, {})
    one, other = MembraneStructure(3, {2: 1, 3: 1}), MembraneStructure(3, {3: 1, 2: 1})
    assert one == other and hash(one) == hash(other)
    for field in ("n", "parent"):
        with pytest.raises(AttributeError):
            setattr(one, field, 1)


# ---------------------------------------------------------------- cell validation


def test_skin_symport_in_over_unlimited_objects_is_flagged():
    sys = one_membrane([CellRule(1, SymportIn(ms("e")))])
    assert codes(validate_cell(sys)) == [SKIN_PULLS_UNLIMITED]


def test_same_rule_at_inner_membrane_is_fine():
    sys = CellPSystem(
        alphabet=["a", "e"],
        structure=MembraneStructure(2, {2: 1}),
        init={1: ms("a")},
        env_support=["e"],
        rules=[CellRule(2, SymportIn(ms("e")))],
        output=2,
    )
    assert validate_cell(sys).ok


def test_skin_symport_in_with_a_bounded_object_is_fine():
    sys = one_membrane([CellRule(1, SymportIn(ms("e b")))])
    assert validate_cell(sys).ok


def test_output_must_be_elementary():
    sys = CellPSystem(
        alphabet=["a"],
        structure=MembraneStructure(2, {2: 1}),
        init={},
        env_support=[],
        rules=[],
        output=1,
    )
    assert OUTPUT_NOT_ELEMENTARY in codes(validate_cell(sys))
    sys2 = CellPSystem(
        alphabet=["a"],
        structure=MembraneStructure(2, {2: 1}),
        init={},
        env_support=[],
        rules=[],
        output=2,
    )
    assert validate_cell(sys2).ok


def test_cell_violation_catalogue():
    bad = CellPSystem(
        alphabet=["a", "3x"],
        structure=MembraneStructure(1, {}),
        init={7: ms("a"), 1: ms("zz")},
        env_support=["q"],
        rules=[
            CellRule(1, SymportOut(ms("c"))),
            CellRule(9, SymportOut(ms("a"))),
            CellRule(1, CellAntiport(Multiset(), ms("a"))),
        ],
        output=5,
    )
    report = validate_cell(bad)
    got = set(codes(report))
    assert BAD_OBJECT_NAME in got
    assert UNKNOWN_INIT_REGION in got
    assert OBJECT_NOT_DECLARED in got  # init zz, rule c
    assert ENV_NOT_IN_ALPHABET in got
    assert NODE_OUT_OF_RANGE in got
    assert EMPTY_RULE_SIDE in got
    assert OUTPUT_OUT_OF_RANGE in got
    assert not report.ok
    assert report.errors() == report.violations


def test_broken_structure_short_circuits_region_checks():
    bad = CellPSystem(
        alphabet=["a"],
        structure=MembraneStructure(2, {2: 2}),
        init={},
        env_support=[],
        rules=[CellRule(9, SymportOut(ms("a")))],
        output=5,
    )
    got = codes(validate_cell(bad))
    assert BAD_STRUCTURE in got
    # With no tree there is no meaningful region numbering to check against.
    assert NODE_OUT_OF_RANGE not in got
    assert OUTPUT_OUT_OF_RANGE not in got


def test_malformed_tree_still_checks_init_labels():
    # `@membranes 1 2` parses to this forest: regions 1 and 2 exist, 3 does not.
    forest = CellPSystem(
        alphabet=["a"],
        structure=MembraneStructure(2, {}),
        init={1: ms("a"), 3: ms("a")},
        env_support=[],
        rules=[],
        output=2,
    )
    report = validate_cell(forest)
    unknown = [v.location for v in report.violations if v.code == UNKNOWN_INIT_REGION]
    assert BAD_STRUCTURE in codes(report)
    assert unknown == ["init 3"]


def test_report_str_mentions_code_and_location():
    sys = one_membrane([CellRule(1, SymportIn(ms("e")))])
    text = str(validate_cell(sys))
    assert SKIN_PULLS_UNLIMITED in text
    assert "rule 1" in text


# ---------------------------------------------------------------- tissue validation


def tissue(rules, n=1, env=("e",), alphabet=("a", "e", "f"), init=None):
    return TissuePSystem(
        alphabet=alphabet,
        n_cells=n,
        init=init or {1: ms("a")},
        env_support=env,
        rules=rules,
        output=1,
    )


def test_tissue_symport_from_env_over_unlimited_objects_is_flagged():
    report = validate_tissue(tissue([TissueSymport(0, ms("e"), 1)]))
    assert codes(report) == [ENV_SYMPORT_UNLIMITED]


def test_tissue_symport_from_env_with_bounded_companion_is_fine():
    report = validate_tissue(tissue([TissueSymport(0, ms("e f"), 1)]))
    assert report.ok


def test_tissue_equal_endpoints_flagged():
    report = validate_tissue(tissue([TissueSymport(1, ms("a"), 1)]))
    assert EQUAL_ENDPOINTS in codes(report)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="needs Python's limit on integer string conversion",
)
def test_a_rule_too_long_to_write_is_located_by_its_number():
    # Two counts that each print, and their sum that does not.
    nines = "9" * sys.get_int_max_str_digits()
    rules = [TissueSymport(1, ms("a"), 1), TissueSymport(1, ms(f"a^{nines} a^{nines}"), 1)]
    report = validate_tissue(tissue(rules))
    assert [(v.code, v.location) for v in report.violations] == [
        (EQUAL_ENDPOINTS, "rule 1 (1, a, 1)"),
        (EQUAL_ENDPOINTS, "rule 2"),
    ]


def test_tissue_node_range_and_empty_sides():
    report = validate_tissue(
        tissue(
            [
                TissueSymport(3, ms("a"), 1),
                TissueAntiport(1, Multiset(), ms("a"), 0),
            ]
        )
    )
    got = codes(report)
    assert NODE_OUT_OF_RANGE in got
    assert EMPTY_RULE_SIDE in got


def test_validation_memory_does_not_grow_with_the_cell_count():
    cells = 1_000_000
    tissue_sys, _ = parse_system(
        "@model tissue\n@objects a b\n@env b\n"
        f"@cells {cells}\n@init 1: a\n@rules: (1, a / b, 0)\n@output 1\n"
    )
    interaction_sys = InteractionSystem(
        {"a", "b"}, cells, {1: ms("a")}, {"b"}, [InteractionRule("a", 1, "b", 0, 0, 1)], 1
    )
    for sys in (tissue_sys, interaction_sys):
        tracemalloc.start()
        try:
            report = validate(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok, report
        assert peak < 2**20, peak


def test_tissue_antiport_touching_env_is_unrestricted():
    report = validate_tissue(tissue([TissueAntiport(1, ms("a"), ms("e"), 0)]))
    assert report.ok


# ---------------------------------------------------------------- interaction validation


def test_interaction_unbounded_rule_flagged():
    sys = InteractionSystem(
        alphabet=["a", "b"],
        n_cells=1,
        init={},
        env_support=["a", "b"],
        rules=[InteractionRule("a", 0, "b", 0, 1, 1)],
        output=1,
    )
    assert UNBOUNDED_RULE in codes(validate(sys))


def test_interaction_inert_rule_is_only_a_warning():
    sys = InteractionSystem(
        alphabet=["a", "b"],
        n_cells=1,
        init={1: ms("a b")},
        env_support=[],
        rules=[InteractionRule("a", 1, "b", 1, 1, 1)],
        output=1,
    )
    report = validate(sys)
    assert report.ok
    assert [w.code for w in report.warnings()] == ["W001"]


def test_uniport_from_env_of_unlimited_object_flagged():
    sys = InteractionSystem(
        alphabet=["a"],
        n_cells=1,
        init={},
        env_support=["a"],
        rules=[UniportRule("a", 0, 1)],
        output=1,
    )
    assert UNBOUNDED_RULE in codes(validate(sys))


# ---------------------------------------------------------------- graphs


def test_derive_graph_symport_one_edge():
    sys = tissue([TissueSymport(1, ms("a"), 2)], n=2)
    assert derive_graph(sys) == frozenset({(1, 2)})


def test_derive_graph_antiport_both_edges():
    sys = tissue([TissueAntiport(1, ms("a"), ms("e"), 0)])
    assert derive_graph(sys) == frozenset({(1, 0), (0, 1)})


def test_derive_graph_empty():
    assert derive_graph(tissue([])) == frozenset()


def test_derive_graph_touches_env_for_every_env_rule():
    rng = random.Random(5)
    for _ in range(50):
        sys = random_tissue_system(rng)
        graph = derive_graph(sys)
        for rule in sys.rules:
            if isinstance(rule, TissueSymport):
                assert (rule.src, rule.dst) in graph
            else:
                assert (rule.src, rule.dst) in graph and (rule.dst, rule.src) in graph


# ---------------------------------------------------------------- encoding


def test_encode_single_membrane_symport_out():
    sys = one_membrane([CellRule(1, SymportOut(ms("a")))])
    enc = encode_cell_as_tissue(sys)
    assert enc.n_cells == 1
    assert enc.rules == (TissueSymport(1, ms("a"), 0),)
    assert enc.output == sys.output
    assert enc.init == sys.init
    assert enc.env_support == sys.env_support


def test_encode_nested_symport_in():
    sys = CellPSystem(
        alphabet=["a", "b"],
        structure=MembraneStructure(2, {2: 1}),
        init={1: ms("b")},
        env_support=[],
        rules=[CellRule(2, SymportIn(ms("b")))],
        output=2,
    )
    enc = encode_cell_as_tissue(sys)
    assert enc.rules == (TissueSymport(1, ms("b"), 2),)


def test_encode_antiport_and_empty_rule_set():
    sys = one_membrane([CellRule(1, CellAntiport(ms("a"), ms("e")))])
    enc = encode_cell_as_tissue(sys)
    assert enc.rules == (TissueAntiport(1, ms("a"), ms("e"), 0),)
    assert encode_cell_as_tissue(one_membrane([])).rules == ()


def test_encode_rejects_invalid_input():
    with pytest.raises(ValueError):
        encode_cell_as_tissue(one_membrane([CellRule(1, SymportIn(ms("e")))]))


def test_encoded_random_systems_validate():
    rng = random.Random(6)
    for _ in range(50):
        sys = random_cell_system(rng)
        assert validate(sys).ok
        assert validate(encode_cell_as_tissue(sys)).ok


# ---------------------------------------------------------------- misc


def test_validators_are_pure():
    sys = one_membrane([CellRule(1, SymportIn(ms("e")))])
    first = validate(sys)
    second = validate(sys)
    assert codes(first) == codes(second)
    assert [v.message for v in first.violations] == [v.message for v in second.violations]


def test_generated_systems_are_valid():
    rng = random.Random(7)
    for _ in range(100):
        assert validate(random_cell_system(rng)).ok
        assert validate(random_tissue_system(rng)).ok
        assert validate(random_interaction_system(rng)).ok


def test_rule_text_forms():
    assert cell_rule_text(CellRule(1, SymportIn(ms("a^2 b")))) == "(a^2 b, in)"
    assert cell_rule_text(CellRule(1, SymportOut(ms("a")))) == "(a, out)"
    assert cell_rule_text(CellRule(1, CellAntiport(ms("a"), ms("b")))) == "(a, out; b, in)"
    assert tissue_rule_text(TissueSymport(1, ms("a"), 0)) == "(1, a, 0)"
    assert tissue_rule_text(TissueAntiport(1, ms("a"), ms("b"), 2)) == "(1, a / b, 2)"
    assert interaction_rule_text(InteractionRule("a", 1, "b", 2, 3, 0)) == "(a,1)(b,2) -> (a,3)(b,0)"
    assert interaction_rule_text(UniportRule("a", 1, 2)) == "(a,1) -> (a,2)"


def test_system_equality_ignores_rule_order():
    r1 = CellRule(1, SymportOut(ms("a")))
    r2 = CellRule(1, SymportOut(ms("b")))
    assert one_membrane([r1, r2]) == one_membrane([r2, r1])
    assert one_membrane([r1]) != one_membrane([r2])
    t1 = TissueSymport(1, ms("a"), 0)
    t2 = TissueAntiport(1, ms("a"), ms("e"), 0)
    assert tissue([t1, t2]) == tissue([t2, t1])
    # Structure and cell count take part, and kinds never compare equal.
    nested = CellPSystem(
        alphabet=("a", "b", "e"),
        structure=MembraneStructure(2, {2: 1}),
        init={1: ms("a")},
        env_support=("e",),
        rules=[r1],
        output=1,
    )
    assert nested != one_membrane([r1])
    assert tissue([t1], n=2) != tissue([t1])
    assert one_membrane([r1]) != encode_cell_as_tissue(one_membrane([r1]))
    # Interaction systems compare the same way: order is free, multiplicity
    # is not, and a tissue system with the same fields is another kind.
    i1, i2 = UniportRule("a", 1, 0), InteractionRule("a", 1, "e", 0, 0, 1)

    def interaction(rules, kind=InteractionSystem):
        return kind(("a", "e"), 1, {1: ms("a")}, ("e",), rules, 1)

    assert interaction([i1, i2]) == interaction([i2, i1])
    assert interaction([i1, i1, i2]) != interaction([i1, i2, i2])
    assert interaction([i1, i2]) != interaction([i1, i2], TissuePSystem)
    assert interaction([i1, i2], TissuePSystem) != interaction([i1, i2])


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="needs Python's limit on integer string conversion",
)
def test_system_equality_holds_for_rules_too_long_to_write():
    # Two counts that each print, and their sum that does not: equality
    # compares the rules as values and writes none of them.
    nines = "9" * sys.get_int_max_str_digits()
    text = (
        "@model cell\n@objects a b\n@env\n@membranes 1\n@init 1: a\n"
        f"@rules 1: (a^{nines} a^{nines}, out; b, in)\n@rules 1: (a, out)\n@output 1\n"
    )
    (first, diagnostics), (second, _) = parse_system(text), parse_system(text)
    assert diagnostics == []
    assert first == second
    assert first != replace(second, rules=second.rules[:1] * 2)


def test_init_drops_empty_entries():
    sys = one_membrane([], init="empty")
    assert sys.init == {}
    assert sys.initial_contents(1) == Multiset()
