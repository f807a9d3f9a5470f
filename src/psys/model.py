"""System descriptions for membrane (cell) and tissue P systems.

A cell system places multisets in a tree of nested membranes and moves
objects across membranes with symport and antiport rules. A tissue
system replaces the tree with numbered cells 1..n plus node 0, the
environment, and attaches each rule to a pair of nodes. Minimal
interaction systems move at most two named objects per rule between
arbitrary nodes.

Validators report violations as data with stable codes; they never
raise on bad systems.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Mapping, Optional, Union

from ._record import Record, set_field
from .multiset import EMPTY, Multiset, format_multiset, is_valid_name

# Violation codes are stable identifiers; tests and scripts match on them.
SKIN_PULLS_UNLIMITED = "V001"  # symport-in at the skin over unlimited objects only
OUTPUT_NOT_ELEMENTARY = "V002"
OBJECT_NOT_DECLARED = "V003"
EMPTY_RULE_SIDE = "V004"
ENV_SYMPORT_UNLIMITED = "V005"  # tissue symport out of node 0 over unlimited objects only
EQUAL_ENDPOINTS = "V006"
NODE_OUT_OF_RANGE = "V007"
BAD_STRUCTURE = "V008"
UNKNOWN_INIT_REGION = "V009"
OUTPUT_OUT_OF_RANGE = "V010"
ENV_NOT_IN_ALPHABET = "V011"
BAD_OBJECT_NAME = "V012"
UNBOUNDED_RULE = "V013"  # rule consumes unlimited objects only; applicability has no bound
INERT_RULE = "W001"  # interaction rule that moves nothing


class Violation(Record):
    code: str
    location: str
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.code} [{self.severity}] {self.location}: {self.message}"


class ValidationReport(Record):
    violations: tuple[Violation, ...]

    def __init__(self, violations: tuple[Violation, ...] = ()):
        set_field(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.errors()

    def errors(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "error")

    def warnings(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.severity == "warning")

    def __str__(self) -> str:
        if not self.violations:
            return "valid"
        return "\n".join(map(str, self.violations))


class MembraneStructure(Record):
    """Rooted tree of membranes labeled 1..n, given by a parent map.

    The skin is the single label without a parent. `outer` maps the skin
    to 0, the environment, mirroring node numbering in tissue systems.
    """

    n: int
    parent: dict[int, int]

    def __init__(self, n: int, parent: Mapping[int, int] = ()):
        set_field(self, "n", n)
        set_field(self, "parent", dict(parent))

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)

    def problems(self) -> list[str]:
        """Everything preventing this from being a rooted tree on 1..n."""
        out = []
        if self.n < 1:
            out.append(f"membrane count must be positive, got {self.n}")
            return out
        labels = set(self.labels)
        bad_keys = set(self.parent) - labels
        if bad_keys:
            out.append(f"parent entries for unknown labels {sorted(bad_keys)}")
        bad_values = set(self.parent.values()) - labels
        if bad_values:
            out.append(f"parents point at unknown labels {sorted(bad_values)}")
        roots = labels - set(self.parent)
        if len(roots) != 1:
            out.append(f"expected exactly one skin membrane, found {sorted(roots)}")
        if out:
            return out
        # Walk up from every label until a label already judged, so each
        # label is walked once.
        reaches = dict.fromkeys(roots, True)
        for label in self.labels:
            chain = []
            node = label
            while node not in reaches:
                reaches[node] = False  # met again on this chain: a loop
                chain.append(node)
                node = self.parent[node]
            if reaches[node]:
                reaches.update(dict.fromkeys(chain, True))
            else:
                out.append(f"parent chain from membrane {label} loops")
        return out

    @property
    def skin(self) -> int:
        roots = [label for label in self.labels if label not in self.parent]
        if len(roots) != 1:
            raise ValueError("structure has no unique skin membrane")
        return roots[0]

    def outer(self, label: int) -> int:
        """Enclosing region; 0 is the environment outside the skin."""
        return self.parent.get(label, 0)

    def leaves(self) -> tuple[int, ...]:
        inner = set(self.parent.values())
        return tuple(label for label in self.labels if label not in inner)

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.parent.items()))))


class SymportIn(Record):
    """Pull `objects` into the owning region from its outer region."""

    objects: Multiset

    def __init__(self, objects: Multiset):
        set_field(self, "objects", objects)


class SymportOut(Record):
    """Push `objects` from the owning region to its outer region."""

    objects: Multiset

    def __init__(self, objects: Multiset):
        set_field(self, "objects", objects)


class CellAntiport(Record):
    """Swap `outbound` (inside the region) for `inbound` (in the outer region)."""

    outbound: Multiset
    inbound: Multiset

    def __init__(self, outbound: Multiset, inbound: Multiset):
        set_field(self, "outbound", outbound)
        set_field(self, "inbound", inbound)


CellRuleForm = Union[SymportIn, SymportOut, CellAntiport]


class CellRule(Record):
    region: int
    form: CellRuleForm

    def __init__(self, region: int, form: CellRuleForm):
        set_field(self, "region", region)
        set_field(self, "form", form)


class TissueSymport(Record):
    """Move `objects` from node `src` to node `dst`."""

    src: int
    objects: Multiset
    dst: int

    def __init__(self, src: int, objects: Multiset, dst: int):
        set_field(self, "src", src)
        set_field(self, "objects", objects)
        set_field(self, "dst", dst)


class TissueAntiport(Record):
    """Swap `outbound` (at `src`) for `inbound` (at `dst`)."""

    src: int
    outbound: Multiset
    inbound: Multiset
    dst: int

    def __init__(self, src: int, outbound: Multiset, inbound: Multiset, dst: int):
        set_field(self, "src", src)
        set_field(self, "outbound", outbound)
        set_field(self, "inbound", inbound)
        set_field(self, "dst", dst)


TissueRule = Union[TissueSymport, TissueAntiport]


class InteractionRule(Record):
    """Move object `obj_a` from `src_a` to `dst_a` and `obj_b` from `src_b` to `dst_b`,
    jointly: both objects must be present for the rule to fire."""

    obj_a: str
    src_a: int
    obj_b: str
    src_b: int
    dst_a: int
    dst_b: int

    def __init__(self, obj_a: str, src_a: int, obj_b: str, src_b: int, dst_a: int, dst_b: int):
        set_field(self, "obj_a", obj_a)
        set_field(self, "src_a", src_a)
        set_field(self, "obj_b", obj_b)
        set_field(self, "src_b", src_b)
        set_field(self, "dst_a", dst_a)
        set_field(self, "dst_b", dst_b)

    def swapped(self) -> "InteractionRule":
        """The same rule with the two object roles exchanged."""
        return InteractionRule(
            self.obj_b, self.src_b, self.obj_a, self.src_a, self.dst_b, self.dst_a
        )


class UniportRule(Record):
    """Move a single object from `src` to `dst`, unconditionally."""

    obj: str
    src: int
    dst: int

    def __init__(self, obj: str, src: int, dst: int):
        set_field(self, "obj", obj)
        set_field(self, "src", src)
        set_field(self, "dst", dst)


class _System(Record, frozen=False):
    """What every system kind shares: normalized fields, initial contents, equality.

    Each kind is a mutable record whose second field (a membrane structure
    or a cell count) says where its regions are. Every kind compares its
    rules as a multiset of values, in any order, and never equals a
    system of another kind.
    """

    def __post_init__(self):
        self.alphabet = frozenset(self.alphabet)
        self.init = {label: ms for label, ms in dict(self.init).items() if ms}
        self.env_support = frozenset(self.env_support)
        self.rules = tuple(self.rules)

    def initial_contents(self, label: int) -> Multiset:
        return self.init.get(label, EMPTY)

    def __eq__(self, other: object) -> bool:
        # Rule order carries no meaning. Rules are hashable values, so no
        # rule's text is written, which a count past the digit limit refuses.
        if not isinstance(other, type(self)):
            return NotImplemented
        regions = self._fields[1]
        return (
            self.alphabet == other.alphabet
            and getattr(self, regions) == getattr(other, regions)
            and self.init == other.init
            and self.env_support == other.env_support
            and self.output == other.output
            and Counter(self.rules) == Counter(other.rules)
        )


class CellPSystem(_System):
    alphabet: frozenset[str]
    structure: MembraneStructure
    init: dict[int, Multiset]
    env_support: frozenset[str]
    rules: tuple[CellRule, ...]
    output: int

    def __init__(self, alphabet, structure, init, env_support, rules, output):
        self.alphabet, self.structure, self.init = alphabet, structure, init
        self.env_support, self.rules, self.output = env_support, rules, output
        self.__post_init__()


class TissuePSystem(_System):
    alphabet: frozenset[str]
    n_cells: int
    init: dict[int, Multiset]
    env_support: frozenset[str]
    rules: tuple[TissueRule, ...]
    output: int

    def __init__(self, alphabet, n_cells, init, env_support, rules, output):
        self.alphabet, self.n_cells, self.init = alphabet, n_cells, init
        self.env_support, self.rules, self.output = env_support, rules, output
        self.__post_init__()


class InteractionSystem(_System):
    """Tissue-style system whose rules are interaction and uniport rules."""

    alphabet: frozenset[str]
    n_cells: int
    init: dict[int, Multiset]
    env_support: frozenset[str]
    rules: tuple[Union[InteractionRule, UniportRule], ...]
    output: int


PSystem = Union[CellPSystem, TissuePSystem, InteractionSystem]
Rule = Union[CellRule, TissueRule, InteractionRule, UniportRule]


def cell_rule_text(rule: CellRule) -> str:
    form = rule.form
    if isinstance(form, SymportIn):
        return f"({format_multiset(form.objects)}, in)"
    if isinstance(form, SymportOut):
        return f"({format_multiset(form.objects)}, out)"
    return f"({format_multiset(form.outbound)}, out; {format_multiset(form.inbound)}, in)"


def rule_sides(form: Union[CellRuleForm, TissueRule]) -> tuple[Multiset, ...]:
    """`(outbound, inbound)` for an antiport, `(objects,)` for a symport: the one
    test of whether a cell rule's form or a tissue rule moves one multiset or two."""
    if isinstance(form, (CellAntiport, TissueAntiport)):
        return form.outbound, form.inbound
    return (form.objects,)


def tissue_rule_text(rule: TissueRule) -> str:
    sides = " / ".join(map(format_multiset, rule_sides(rule)))
    return f"({rule.src}, {sides}, {rule.dst})"


def interaction_rule_text(rule: Union[InteractionRule, UniportRule]) -> str:
    if isinstance(rule, UniportRule):
        return f"({rule.obj},{rule.src}) -> ({rule.obj},{rule.dst})"
    return (
        f"({rule.obj_a},{rule.src_a})({rule.obj_b},{rule.src_b})"
        f" -> ({rule.obj_a},{rule.dst_a})({rule.obj_b},{rule.dst_b})"
    )


def rule_text(rule: Rule) -> str:
    """A rule of any kind as text; a cell rule's ends with ` @ <region>`."""
    if isinstance(rule, CellRule):
        return f"{cell_rule_text(rule)} @ {rule.region}"
    if isinstance(rule, (InteractionRule, UniportRule)):
        return interaction_rule_text(rule)
    return tissue_rule_text(rule)


def rule_location(head: str, text: Callable[[Rule], str], rule: Rule) -> str:
    """`"<head> <text(rule)>"`, or `head` alone when the rule holds a count
    with more digits than `str()` will write."""
    try:
        return f"{head} {text(rule)}"
    except ValueError:
        return head


def _check_objects(ms: Multiset, alphabet: frozenset[str], where: str, out: list[Violation]):
    unknown = [name for name, _ in ms.items() if name not in alphabet]  # in name order
    if unknown:
        out.append(Violation(OBJECT_NOT_DECLARED, where, f"undeclared objects: {unknown}"))


# A symport out of node 0 may not draw only on the unlimited supply.
_UNLIMITED_PULL = {
    SymportIn: (
        SKIN_PULLS_UNLIMITED,
        "symport-in at the skin may not draw only on the unlimited environment supply",
    ),
    TissueSymport: (
        ENV_SYMPORT_UNLIMITED,
        "symport out of the environment may not draw only on the unlimited supply",
    ),
}


def _check_move(form, src: Optional[int], sys, where: str, out: list[Violation]):
    """A symport or antiport, cell form or tissue rule, that moves objects out of `src`."""
    for side in rule_sides(form):
        if not side:
            out.append(Violation(EMPTY_RULE_SIDE, where, "rule sides must be non-empty"))
        _check_objects(side, sys.alphabet, where, out)
    pull = _UNLIMITED_PULL.get(type(form)) if src == 0 else None
    if pull and form.objects and all(name in sys.env_support for name in form.objects.support()):
        code, message = pull
        out.append(Violation(code, where, message))


def _validate(sys, shape, regions, output, check_rule, text) -> ValidationReport:
    """Every kind's checks in one order: names, shape, init, rules, output.

    `shape` and `output` are the violations of the region layout and of
    the output label, `regions` the labels init may name, and
    check_rule(rule, out) reports one rule's violations with an empty
    location. The location, `rule_location("rule <n>", text, rule)`, is
    only made for a rule with a violation: most rules have none.
    """
    out = [
        Violation(BAD_OBJECT_NAME, "alphabet", f"invalid object name {name!r}")
        for name in sorted(sys.alphabet)
        if not is_valid_name(name)
    ]
    stray = sorted(set(sys.env_support) - set(sys.alphabet))
    if stray:
        message = f"environment objects not in the alphabet: {stray}"
        out.append(Violation(ENV_NOT_IN_ALPHABET, "environment", message))
    out.extend(shape)
    for label in sorted(sys.init):
        if label in regions:
            _check_objects(sys.init[label], sys.alphabet, f"init {label}", out)
        else:
            message = f"no region labeled {label}"
            out.append(Violation(UNKNOWN_INIT_REGION, f"init {label}", message))
    for idx, rule in enumerate(sys.rules):
        found = len(out)
        check_rule(rule, out)
        if len(out) > found:
            where = rule_location(f"rule {idx + 1}", text, rule)
            out[found:] = [Violation(v.code, where, v.message, v.severity) for v in out[found:]]
    out.extend(output)
    return ValidationReport(tuple(out))


def validate_cell(sys: CellPSystem) -> ValidationReport:
    """Check every structural invariant of a cell system.

    Violations are reported with their location; an empty report means
    the system is well formed and safe to hand to the engine.
    """
    problems = sys.structure.problems()
    tree_ok = not problems
    labels = sys.structure.labels

    def check_rule(rule, out):
        if tree_ok and rule.region not in labels:
            out.append(Violation(NODE_OUT_OF_RANGE, "", f"no membrane labeled {rule.region}"))
        else:
            src = cell_channel(sys.structure, rule)[0] if tree_ok else None
            _check_move(rule.form, src, sys, "", out)

    def text(rule):
        return f"at region {rule.region}"

    output = ()
    if tree_ok and sys.output not in labels:
        output = [Violation(OUTPUT_OUT_OF_RANGE, "output", f"no membrane labeled {sys.output}")]
    elif tree_ok and sys.output not in sys.structure.leaves():
        message = f"membrane {sys.output} contains other membranes"
        output = [Violation(OUTPUT_NOT_ELEMENTARY, "output", message)]
    shape = [Violation(BAD_STRUCTURE, "structure", problem) for problem in problems]
    return _validate(sys, shape, labels, output, check_rule, text)


def _validate_cells(sys, check_rule) -> ValidationReport:
    """The skeleton for tissue and interaction systems: cells 1..n_cells."""
    cells = range(1, sys.n_cells + 1)
    shape = output = ()
    if sys.n_cells < 1:
        message = f"cell count must be positive, got {sys.n_cells}"
        shape = [Violation(BAD_STRUCTURE, "cells", message)]
    if sys.output not in cells:
        output = [Violation(OUTPUT_OUT_OF_RANGE, "output", f"no cell {sys.output}")]
    return _validate(sys, shape, cells, output, check_rule, rule_text)


def _check_nodes(sys, nodes, where: str, out: list[Violation]):
    """Every node a tissue-style rule names is node 0 or one of its cells."""
    for node in nodes:
        if node != 0 and not 1 <= node <= sys.n_cells:
            out.append(Violation(NODE_OUT_OF_RANGE, where, f"no node {node}"))


def validate_tissue(sys: TissuePSystem) -> ValidationReport:
    def check_rule(rule, out):
        _check_nodes(sys, (rule.src, rule.dst), "", out)
        if rule.src == rule.dst:
            out.append(Violation(EQUAL_ENDPOINTS, "", "rule endpoints must differ"))
        _check_move(rule, rule.src, sys, "", out)

    return _validate_cells(sys, check_rule)


def validate_interaction(sys: InteractionSystem) -> ValidationReport:
    def check_rule(rule, out):
        # One object per move: (name, src, dst).
        moves = [(*objects.support(), src, dst) for src, objects, dst in rule_moves(sys, rule)]
        objects, sources, targets = zip(*moves)
        _check_nodes(sys, sources + targets, "", out)
        for name in objects:
            if name not in sys.alphabet:
                out.append(Violation(OBJECT_NOT_DECLARED, "", f"undeclared object {name!r}"))
        if all(src == 0 and name in sys.env_support for name, src, _ in moves):
            message = (
                "rule consumes only unlimited environment objects; its "
                "applicability would have no bound"
            )
            out.append(Violation(UNBOUNDED_RULE, "", message))
        if sources == targets:
            out.append(Violation(INERT_RULE, "", "rule moves nothing", severity="warning"))

    return _validate_cells(sys, check_rule)


def validate(sys: PSystem) -> ValidationReport:
    if isinstance(sys, CellPSystem):
        return validate_cell(sys)
    if isinstance(sys, TissuePSystem):
        return validate_tissue(sys)
    return validate_interaction(sys)


def derive_graph(sys: PSystem) -> frozenset[tuple[int, int]]:
    """Directed communication edges induced by the rule set.

    The (src, dst) pair of every move in `rule_moves`: a symport yields
    one edge src->dst, and an antiport both directions between its
    endpoints.
    """
    return frozenset(
        (src, dst) for rule in sys.rules for src, _, dst in rule_moves(sys, rule)
    )


def rule_moves(sys: PSystem, rule: Rule) -> list[tuple[int, Multiset, int]]:
    """The (src, objects, dst) moves one rule of `sys` makes; the engine lowers them."""
    if isinstance(sys, CellPSystem):
        src, dst = cell_channel(sys.structure, rule)
        form = rule.form
    elif isinstance(sys, TissuePSystem):
        src, dst, form = rule.src, rule.dst, rule
    elif isinstance(rule, UniportRule):
        return [(rule.src, Multiset([rule.obj]), rule.dst)]
    else:
        return [
            (rule.src_a, Multiset([rule.obj_a]), rule.dst_a),
            (rule.src_b, Multiset([rule.obj_b]), rule.dst_b),
        ]
    # A symport or antiport across src -> dst; an antiport's inbound goes back.
    outbound, *inbound = rule_sides(form)
    return [(src, outbound, dst)] + [(dst, side, src) for side in inbound]


def cell_channel(structure: MembraneStructure, rule: CellRule) -> tuple[int, int]:
    """The (src, dst) node pair a cell rule crosses, as a tissue rule would name it.

    Symport-in runs from the outer region into the rule's region;
    symport-out and antiport run from the rule's region out.
    """
    outer = structure.outer(rule.region)
    if isinstance(rule.form, SymportIn):
        return outer, rule.region
    return rule.region, outer


def encode_cell_as_tissue(sys: CellPSystem) -> TissuePSystem:
    """Re-express a cell system as a tissue system with the same behavior.

    Membranes become cells with the same labels, the region outside the
    skin becomes node 0, and each rule is attached to the membrane/outer
    pair it crosses. Rule order is preserved, so rule k of the output
    corresponds to rule k of the input.
    """
    report = validate_cell(sys)
    if not report.ok:
        raise ValueError(f"cannot encode an invalid cell system:\n{report}")
    rules: list[TissueRule] = []
    for rule in sys.rules:
        src, dst = cell_channel(sys.structure, rule)
        sides = rule_sides(rule.form)
        kind = TissueAntiport if len(sides) == 2 else TissueSymport
        rules.append(kind(src, *sides, dst))
    return TissuePSystem(
        alphabet=sys.alphabet,
        n_cells=sys.structure.n,
        init=dict(sys.init),
        env_support=sys.env_support,
        rules=rules,
        output=sys.output,
    )
