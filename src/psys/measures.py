"""Rule-size measures, complexity profiling, and interaction-rule classes.

The two system variants measure antiport rules differently: a cell
antiport counts max(|outbound|, |inbound|), a tissue antiport counts
the sum. A profile therefore records which measure produced its
numbers, and the two are never mixed.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from typing import Union

from .model import (
    CellPSystem,
    CellRule,
    InteractionRule,
    SymportIn,
    SymportOut,
    TissuePSystem,
    TissueRule,
    TissueSymport,
    UniportRule,
)


class RuleClass(enum.Enum):
    """Behavioral classes of minimal interaction rules.

    A rule (a at i, b at j) -> (a to k, b to l) is classified purely by
    the equality pattern of the four positions. The classification is
    stable under swapping the roles of the two objects.
    """

    NOOP = "NoOp"
    UNIPORT = "Uniport"
    CONDITIONAL_UNIPORT_OUT = "ConditionalUniportOut"
    CONDITIONAL_UNIPORT_IN = "ConditionalUniportIn"
    SYMPORT2 = "Symport2"
    ANTIPORT1 = "Antiport1"
    SEPARATION = "Separation"
    JOINING = "Joining"
    PRESENCE_MOVE = "PresenceMove"
    CHAIN = "Chain"
    PARALLEL_SHIFT = "ParallelShift"

    def __str__(self) -> str:
        return self.value


def cell_rule_size(rule: CellRule) -> int:
    form = rule.form
    if isinstance(form, (SymportIn, SymportOut)):
        return form.objects.size
    return max(form.outbound.size, form.inbound.size)


def tissue_rule_size(rule: TissueRule) -> int:
    if isinstance(rule, TissueSymport):
        return rule.objects.size
    return rule.outbound.size + rule.inbound.size


@dataclass(frozen=True)
class ComplexityProfile:
    kind: str  # "cell" or "tissue"
    degree: int
    max_symport_size: int
    max_antiport_size: int
    num_objects: int
    num_rules: int
    antiport_measure: str  # "max" for cell systems, "sum" for tissue

    def as_dict(self) -> dict:
        return asdict(self)


def profile(sys: Union[CellPSystem, TissuePSystem]) -> ComplexityProfile:
    """Descriptional-complexity summary of a system.

    Sizes come out 0 when no rule of the corresponding kind exists.
    """
    cell = isinstance(sys, CellPSystem)
    size = cell_rule_size if cell else tissue_rule_size
    sym = anti = 0
    for rule in sys.rules:
        if isinstance(rule.form if cell else rule, (SymportIn, SymportOut, TissueSymport)):
            sym = max(sym, size(rule))
        else:
            anti = max(anti, size(rule))
    return ComplexityProfile(
        kind="cell" if cell else "tissue",
        degree=sys.structure.n if cell else sys.n_cells,
        max_symport_size=sym,
        max_antiport_size=anti,
        num_objects=len(sys.alphabet),
        num_rules=len(sys.rules),
        antiport_measure="max" if cell else "sum",
    )


def _partition(values: tuple[int, ...]) -> frozenset[frozenset[int]]:
    """Group positions 0..len-1 by equal value."""
    groups: dict[int, set[int]] = {}
    for pos, value in enumerate(values):
        groups.setdefault(value, set()).add(pos)
    return frozenset(frozenset(g) for g in groups.values())


def _p(*groups) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(g) for g in groups)


# Positions: 0 = source of a, 1 = source of b, 2 = target of a, 3 = target of b.
# All 15 partitions of four positions, mapped to what the rule actually does.
# The table is closed under swapping the two object roles (0<->1, 2<->3).
_CLASS_BY_PARTITION: dict[frozenset[frozenset[int]], RuleClass] = {
    _p({0, 1, 2, 3}): RuleClass.NOOP,  # nothing moves
    _p({0, 2}, {1, 3}): RuleClass.NOOP,  # both stay put, separately
    _p({0, 1, 2}, {3}): RuleClass.CONDITIONAL_UNIPORT_OUT,  # b leaves a's node
    _p({0, 1, 3}, {2}): RuleClass.CONDITIONAL_UNIPORT_OUT,  # a leaves b's node
    _p({0, 2, 3}, {1}): RuleClass.CONDITIONAL_UNIPORT_IN,  # b joins a's node
    _p({1, 2, 3}, {0}): RuleClass.CONDITIONAL_UNIPORT_IN,  # a joins b's node
    _p({0, 1}, {2, 3}): RuleClass.SYMPORT2,  # both move together
    _p({0, 3}, {1, 2}): RuleClass.ANTIPORT1,  # the two objects trade places
    _p({0, 1}, {2}, {3}): RuleClass.SEPARATION,  # together, then apart
    _p({2, 3}, {0}, {1}): RuleClass.JOINING,  # apart, then together
    _p({0, 2}, {1}, {3}): RuleClass.PRESENCE_MOVE,  # a sits, b moves elsewhere
    _p({1, 3}, {0}, {2}): RuleClass.PRESENCE_MOVE,  # b sits, a moves elsewhere
    _p({0, 3}, {1}, {2}): RuleClass.CHAIN,  # b fills the node a vacates
    _p({1, 2}, {0}, {3}): RuleClass.CHAIN,  # a fills the node b vacates
    _p({0}, {1}, {2}, {3}): RuleClass.PARALLEL_SHIFT,  # two independent moves
}


def classify(rule: Union[InteractionRule, UniportRule]) -> RuleClass:
    """Class of an interaction rule, determined by its position pattern."""
    if isinstance(rule, UniportRule):
        return RuleClass.NOOP if rule.src == rule.dst else RuleClass.UNIPORT
    pattern = _partition((rule.src_a, rule.src_b, rule.dst_a, rule.dst_b))
    return _CLASS_BY_PARTITION[pattern]
