"""Text formats: `.psys` system files, `.irules` interaction-rule files,
and `.rm` register-machine files.

Parsers are total: any input, including binary garbage, yields located
diagnostics rather than an exception. Parsing only builds values; the
model validators judge them, so a file can parse cleanly and still be
rejected as an invalid system. Printers emit one canonical form, byte
for byte, and parse(print(x)) reconstructs x.

System file shape (directives in any order, one per line, `#` comments):

    @model cell
    @objects a b c
    @env c
    @membranes 1(2 3(4))
    @init 2: a^2 b
    @rules 2: (a, out; b c, in)
    @output 4

Tissue systems use `@cells N` instead of `@membranes`, and node-indexed
rules without a region prefix: `@rules: (1, a / b, 0)`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .model import (
    CellAntiport,
    CellPSystem,
    CellRule,
    InteractionRule,
    MembraneStructure,
    SymportIn,
    SymportOut,
    TissueAntiport,
    TissuePSystem,
    TissueRule,
    TissueSymport,
    UniportRule,
    cell_rule_text,
    interaction_rule_text,
    tissue_rule_text,
)
from .multiset import (
    Multiset,
    MultisetSyntaxError,
    format_multiset,
    is_valid_name,
    parse_multiset,
)
from .rm import Add, Halt, Instruction, RegisterMachine, Sub

UNKNOWN_DIRECTIVE = "D001"
DUPLICATE_DIRECTIVE = "D002"
MISSING_DIRECTIVE = "D003"
BAD_NUMBER = "D004"
BAD_MULTISET = "D005"
BAD_RULE = "D006"
BAD_STRUCTURE_TEXT = "D007"
STRAY_LINE = "D008"
BAD_INTERACTION = "D009"
BAD_MACHINE_LINE = "D010"
INTERNAL_ERROR = "D011"
BAD_PAYLOAD = "D012"


@dataclass(frozen=True)
class SourceDiagnostic:
    line: int
    column: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


class _Collector:
    def __init__(self):
        self.diags: list[SourceDiagnostic] = []

    def add(self, line: int, column: int, code: str, message: str):
        self.diags.append(SourceDiagnostic(line, column, code, message))

    @property
    def failed(self) -> bool:
        return bool(self.diags)


def _logical_lines(text: str):
    """(line_number, content) pairs with comments stripped, 1-based."""
    text = text.lstrip("﻿")
    for number, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if content.strip():
            yield number, content


def _split_with_columns(text: str, sep: str, base: int) -> list[tuple[str, int]]:
    """Split on a separator, keeping each piece's 1-based source column."""
    pieces = []
    pos = 0
    while True:
        idx = text.find(sep, pos)
        if idx == -1:
            pieces.append((text[pos:], base + pos))
            return pieces
        pieces.append((text[pos:idx], base + pos))
        pos = idx + len(sep)


def _parse_ms(
    text: str, line: int, column: int, out: _Collector
) -> Optional[Multiset]:
    stripped = text.strip()
    pad = len(text) - len(text.lstrip())
    if not stripped:
        out.add(line, column + pad, BAD_MULTISET, "expected a multiset literal")
        return None
    try:
        return parse_multiset(stripped)
    except MultisetSyntaxError as err:
        out.add(line, column + pad + err.offset, BAD_MULTISET, str(err))
        return None


_STRUCT_TOKEN = re.compile(r"\d+|[()]|\S")


def parse_structure(
    text: str, line: int = 1, column: int = 1, out: Optional[_Collector] = None
) -> Optional[MembraneStructure]:
    """Parse a parenthesized membrane tree such as `1(2 3(4))`."""
    own = out if out is not None else _Collector()
    parent: dict[int, int] = {}
    seen: list[int] = []
    stack: list[int] = []
    prev: Optional[int] = None
    ok = True
    for tok in _STRUCT_TOKEN.finditer(text):
        at = column + tok.start()
        word = tok.group()
        if word.isdigit():
            label = int(word)
            if label == 0:
                own.add(line, at, BAD_STRUCTURE_TEXT, "membrane labels start at 1")
                ok = False
            elif label in seen:
                own.add(line, at, BAD_STRUCTURE_TEXT, f"membrane {label} appears twice")
                ok = False
            else:
                seen.append(label)
                if stack:
                    parent[label] = stack[-1]
                prev = label
        elif word == "(":
            if prev is None:
                own.add(
                    line, at, BAD_STRUCTURE_TEXT, "'(' must follow a membrane label"
                )
                ok = False
                break
            stack.append(prev)
            prev = None
        elif word == ")":
            if not stack:
                own.add(line, at, BAD_STRUCTURE_TEXT, "unbalanced ')'")
                ok = False
                break
            stack.pop()
            prev = None
        else:
            own.add(line, at, BAD_STRUCTURE_TEXT, f"unexpected {word!r}")
            ok = False
            break
    if ok and stack:
        own.add(line, column, BAD_STRUCTURE_TEXT, "missing ')'")
        ok = False
    if ok and not seen:
        own.add(line, column, BAD_STRUCTURE_TEXT, "empty membrane structure")
        ok = False
    if not ok:
        return None
    return MembraneStructure(len(seen), parent)


def format_structure(structure: MembraneStructure) -> str:
    def render(label: int) -> str:
        children = structure.children(label)
        if not children:
            return str(label)
        return f"{label}({' '.join(render(child) for child in children)})"

    return render(structure.skin)


def _parse_cell_rule_text(
    text: str, line: int, column: int, region: int, out: _Collector
) -> Optional[CellRule]:
    stripped = text.strip()
    pad = len(text) - len(text.lstrip())
    at = column + pad
    if not (stripped.startswith("(") and stripped.endswith(")")):
        out.add(line, at, BAD_RULE, "rules are parenthesized, like (a, out; b, in)")
        return None
    inner, inner_at = stripped[1:-1], at + 1
    sides = _split_with_columns(inner, ";", inner_at)
    if len(sides) > 2:
        out.add(line, at, BAD_RULE, "a rule has at most two sides")
        return None
    parsed = []
    for side, side_at in sides:
        fields = _split_with_columns(side, ",", side_at)
        if len(fields) != 2:
            out.add(line, side_at, BAD_RULE, "each side is written: multiset, direction")
            return None
        (ms_text, ms_at), (dir_text, dir_at) = fields
        direction = dir_text.strip()
        if direction not in ("in", "out"):
            out.add(
                line,
                dir_at + len(dir_text) - len(dir_text.lstrip()),
                BAD_RULE,
                f"direction must be 'in' or 'out', got {direction!r}",
            )
            return None
        objects = _parse_ms(ms_text, line, ms_at, out)
        if objects is None:
            return None
        parsed.append((objects, direction))
    if len(parsed) == 1:
        objects, direction = parsed[0]
        form = SymportIn(objects) if direction == "in" else SymportOut(objects)
        return CellRule(region, form)
    (first, first_dir), (second, second_dir) = parsed
    if (first_dir, second_dir) != ("out", "in"):
        out.add(line, at, BAD_RULE, "an exchange rule is written (y, out; x, in)")
        return None
    return CellRule(region, CellAntiport(first, second))


def _parse_node(text: str, line: int, column: int, out: _Collector) -> Optional[int]:
    stripped = text.strip()
    pad = len(text) - len(text.lstrip())
    if not stripped.isdigit():
        out.add(line, column + pad, BAD_NUMBER, f"expected a node number, got {stripped!r}")
        return None
    return int(stripped)


def _parse_tissue_rule_text(
    text: str, line: int, column: int, out: _Collector
) -> Optional[TissueRule]:
    stripped = text.strip()
    pad = len(text) - len(text.lstrip())
    at = column + pad
    if not (stripped.startswith("(") and stripped.endswith(")")):
        out.add(line, at, BAD_RULE, "rules are parenthesized, like (1, a / b, 0)")
        return None
    inner, inner_at = stripped[1:-1], at + 1
    fields = _split_with_columns(inner, ",", inner_at)
    if len(fields) != 3:
        out.add(line, at, BAD_RULE, "a rule is written (i, x, j) or (i, x / y, j)")
        return None
    (src_text, src_at), (mid_text, mid_at), (dst_text, dst_at) = fields
    src = _parse_node(src_text, line, src_at, out)
    dst = _parse_node(dst_text, line, dst_at, out)
    if src is None or dst is None:
        return None
    if "/" in mid_text:
        halves = _split_with_columns(mid_text, "/", mid_at)
        if len(halves) != 2:
            out.add(line, mid_at, BAD_RULE, "an exchange rule has exactly one '/'")
            return None
        (x_text, x_at), (y_text, y_at) = halves
        outbound = _parse_ms(x_text, line, x_at, out)
        inbound = _parse_ms(y_text, line, y_at, out)
        if outbound is None or inbound is None:
            return None
        return TissueAntiport(src, outbound, inbound, dst)
    objects = _parse_ms(mid_text, line, mid_at, out)
    if objects is None:
        return None
    return TissueSymport(src, objects, dst)


_DIRECTIVE = re.compile(r"\s*@([A-Za-z]+)")
_SINGLETON = ("model", "membranes", "cells", "output")


def parse_system(
    text: str,
) -> tuple[Optional[Union[CellPSystem, TissuePSystem]], list[SourceDiagnostic]]:
    """Parse a `.psys` document. Returns (system, []) or (None, diagnostics)."""
    out = _Collector()
    try:
        return _parse_system_inner(text, out), out.diags
    except Exception as err:  # totality net; reaching this is a parser bug
        out.add(0, 0, INTERNAL_ERROR, f"internal parser error: {err!r}")
        return None, out.diags


def _parse_system_inner(text: str, out: _Collector):
    model: Optional[str] = None
    objects: list[str] = []
    env: list[str] = []
    structure_field: Optional[tuple[str, int, int]] = None
    cells_field: Optional[int] = None
    init: dict[int, Multiset] = {}
    rule_lines: list[tuple[int, int, str]] = []
    output: Optional[int] = None
    seen: set[str] = set()

    for line, content in _logical_lines(text):
        m = _DIRECTIVE.match(content)
        if not m:
            col = len(content) - len(content.lstrip()) + 1
            out.add(line, col, STRAY_LINE, "expected a line starting with @directive")
            continue
        name = m.group(1)
        payload = content[m.end() :]
        payload_col = m.end() + 1
        if name in _SINGLETON:
            if name in seen:
                out.add(line, 1, DUPLICATE_DIRECTIVE, f"@{name} given twice")
                continue
            seen.add(name)
        if name == "model":
            word = payload.strip()
            if word not in ("cell", "tissue"):
                out.add(
                    line, payload_col, BAD_PAYLOAD, "@model must be 'cell' or 'tissue'"
                )
            else:
                model = word
        elif name in ("objects", "env"):
            names = objects if name == "objects" else env
            for tok in re.finditer(r"\S+", payload):
                if is_valid_name(tok.group()):
                    names.append(tok.group())
                else:
                    out.add(
                        line,
                        payload_col + tok.start(),
                        BAD_PAYLOAD,
                        f"invalid object name {tok.group()!r}",
                    )
        elif name == "membranes":
            structure_field = (payload, line, payload_col)
        elif name == "cells":
            word = payload.strip()
            if not word.isdigit() or int(word) < 1:
                out.add(
                    line, payload_col, BAD_NUMBER, "@cells takes a positive cell count"
                )
            else:
                cells_field = int(word)
        elif name == "init":
            m2 = re.match(r"\s*(\d+)\s*:", payload)
            if not m2:
                out.add(
                    line, payload_col, BAD_PAYLOAD, "@init is written: @init LABEL: multiset"
                )
                continue
            label = int(m2.group(1))
            ms = _parse_ms(payload[m2.end() :], line, payload_col + m2.end(), out)
            if ms is not None:
                init[label] = init.get(label, Multiset()) + ms
        elif name == "rules":
            rule_lines.append((line, payload_col, payload))
        elif name == "output":
            word = payload.strip()
            if not word.isdigit():
                out.add(line, payload_col, BAD_NUMBER, "@output takes a region label")
            else:
                output = int(word)
        else:
            out.add(line, 1, UNKNOWN_DIRECTIVE, f"unknown directive @{name}")

    if model is None:
        out.add(0, 0, MISSING_DIRECTIVE, "missing @model (cell or tissue)")
        return None
    if output is None:
        out.add(0, 0, MISSING_DIRECTIVE, "missing @output")
    structure: Optional[MembraneStructure] = None
    if model == "cell":
        if cells_field is not None:
            out.add(0, 0, BAD_PAYLOAD, "@cells belongs to tissue systems; use @membranes")
        if structure_field is None:
            out.add(0, 0, MISSING_DIRECTIVE, "missing @membranes")
        else:
            payload, line, col = structure_field
            structure = parse_structure(payload, line, col, out)
    else:
        if structure_field is not None:
            out.add(0, 0, BAD_PAYLOAD, "@membranes belongs to cell systems; use @cells")
        if cells_field is None:
            out.add(0, 0, MISSING_DIRECTIVE, "missing @cells")

    cell_rules: list[CellRule] = []
    tissue_rules: list[TissueRule] = []
    for line, col, payload in rule_lines:
        if model == "cell":
            m2 = re.match(r"\s*(\d+)\s*:", payload)
            if not m2:
                out.add(
                    line, col, BAD_RULE, "@rules is written: @rules LABEL: (rule)"
                )
                continue
            region = int(m2.group(1))
            rule = _parse_cell_rule_text(
                payload[m2.end() :], line, col + m2.end(), region, out
            )
            if rule is not None:
                cell_rules.append(rule)
        else:
            m2 = re.match(r"\s*:", payload)
            if not m2:
                out.add(line, col, BAD_RULE, "@rules is written: @rules: (i, x, j)")
                continue
            rule = _parse_tissue_rule_text(payload[m2.end() :], line, col + m2.end(), out)
            if rule is not None:
                tissue_rules.append(rule)

    if out.failed:
        return None
    if model == "cell":
        return CellPSystem(
            alphabet=objects,
            structure=structure,
            init=init,
            env_support=env,
            rules=cell_rules,
            output=output,
        )
    return TissuePSystem(
        alphabet=objects,
        n_cells=cells_field,
        init=init,
        env_support=env,
        rules=tissue_rules,
        output=output,
    )


def print_system(sys: Union[CellPSystem, TissuePSystem]) -> str:
    """Canonical text for a system; stable bytes for structurally equal input."""
    lines = []
    is_cell = isinstance(sys, CellPSystem)
    lines.append("@model cell" if is_cell else "@model tissue")
    lines.append("@objects" + "".join(f" {name}" for name in sorted(sys.alphabet)))
    lines.append("@env" + "".join(f" {name}" for name in sorted(sys.env_support)))
    if is_cell:
        lines.append(f"@membranes {format_structure(sys.structure)}")
    else:
        lines.append(f"@cells {sys.n_cells}")
    for label in sorted(sys.init):
        lines.append(f"@init {label}: {format_multiset(sys.init[label])}")
    for rule in sorted(sys.rules, key=sys._rule_key):
        if is_cell:
            lines.append(f"@rules {rule.region}: {cell_rule_text(rule)}")
        else:
            lines.append(f"@rules: {tissue_rule_text(rule)}")
    lines.append(f"@output {sys.output}")
    return "\n".join(lines) + "\n"


_PIECE = re.compile(r"\(\s*([A-Za-z0-9_]+)\s*,\s*(\d+)\s*\)")


def parse_interactions(
    text: str,
) -> tuple[list[Union[InteractionRule, UniportRule]], list[SourceDiagnostic]]:
    """Parse `.irules` lines like `(a,1)(b,2) -> (a,3)(b,1)`."""
    out = _Collector()
    rules: list[Union[InteractionRule, UniportRule]] = []
    try:
        for line, content in _logical_lines(text):
            rule = _parse_interaction_line(content, line, out)
            if rule is not None:
                rules.append(rule)
    except Exception as err:  # totality net; reaching this is a parser bug
        out.add(0, 0, INTERNAL_ERROR, f"internal parser error: {err!r}")
    if out.failed:
        return [], out.diags
    return rules, out.diags


def _side_pieces(
    side: str, line: int, column: int, out: _Collector
) -> Optional[list[tuple[str, int]]]:
    pieces = []
    pos = 0
    while pos < len(side):
        chunk = side[pos:]
        if not chunk.strip():
            break
        m = _PIECE.match(chunk.lstrip())
        if not m:
            at = column + pos + len(chunk) - len(chunk.lstrip())
            out.add(line, at, BAD_INTERACTION, "expected (object, node)")
            return None
        lead = len(chunk) - len(chunk.lstrip())
        name = m.group(1)
        if not is_valid_name(name):
            out.add(
                line, column + pos + lead + 1, BAD_INTERACTION, f"invalid object name {name!r}"
            )
            return None
        pieces.append((name, int(m.group(2))))
        pos += lead + m.end()
    if not 1 <= len(pieces) <= 2:
        out.add(line, column, BAD_INTERACTION, "each side has one or two (object, node) pairs")
        return None
    return pieces


def _parse_interaction_line(
    content: str, line: int, out: _Collector
) -> Optional[Union[InteractionRule, UniportRule]]:
    arrow = content.find("->")
    if arrow == -1:
        col = len(content) - len(content.lstrip()) + 1
        out.add(line, col, BAD_INTERACTION, "expected '->' between the two sides")
        return None
    lhs = _side_pieces(content[:arrow], line, 1, out)
    rhs = _side_pieces(content[arrow + 2 :], line, arrow + 3, out)
    if lhs is None or rhs is None:
        return None
    if len(lhs) != len(rhs):
        out.add(
            line,
            1,
            BAD_INTERACTION,
            f"sides move different object counts ({len(lhs)} vs {len(rhs)})",
        )
        return None
    for (left_name, _), (right_name, _) in zip(lhs, rhs):
        if left_name != right_name:
            out.add(
                line,
                1,
                BAD_INTERACTION,
                f"objects must keep their positions: {left_name!r} vs {right_name!r}",
            )
            return None
    if len(lhs) == 1:
        (name, src), (_, dst) = lhs[0], rhs[0]
        return UniportRule(name, src, dst)
    (name_a, src_a), (name_b, src_b) = lhs
    (_, dst_a), (_, dst_b) = rhs
    return InteractionRule(name_a, src_a, name_b, src_b, dst_a, dst_b)


def print_interactions(rules: Sequence[Union[InteractionRule, UniportRule]]) -> str:
    return "".join(interaction_rule_text(rule) + "\n" for rule in rules)


_RM_REGISTERS = re.compile(r"\s*registers\s+(\d+)\s*$")
_RM_OUTPUT = re.compile(r"\s*output\s+r(\d+)\s*$")
_RM_START = re.compile(r"\s*start\s+([A-Za-z_][A-Za-z0-9_]*)\s*$")
_RM_TWO = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(ADD|SUB)\s+r(\d+)\s*->\s*"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*\|\s*([A-Za-z_][A-Za-z0-9_]*)\s*$",
    re.IGNORECASE,
)
_RM_HALT = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*:\s*HALT\s*$", re.IGNORECASE)


def parse_machine(
    text: str,
) -> tuple[Optional[RegisterMachine], list[SourceDiagnostic]]:
    """Parse a `.rm` register-machine program."""
    out = _Collector()
    registers: Optional[int] = None
    output: Optional[int] = None
    start: Optional[str] = None
    instructions: dict[str, Instruction] = {}
    try:
        for line, content in _logical_lines(text):
            m = _RM_REGISTERS.match(content)
            if m:
                if registers is not None:
                    out.add(line, 1, DUPLICATE_DIRECTIVE, "'registers' given twice")
                registers = int(m.group(1))
                continue
            m = _RM_OUTPUT.match(content)
            if m:
                if output is not None:
                    out.add(line, 1, DUPLICATE_DIRECTIVE, "'output' given twice")
                output = int(m.group(1))
                continue
            m = _RM_START.match(content)
            if m:
                if start is not None:
                    out.add(line, 1, DUPLICATE_DIRECTIVE, "'start' given twice")
                start = m.group(1)
                continue
            m = _RM_TWO.match(content)
            if m:
                label, op, reg, first, second = m.groups()
                if label in instructions:
                    out.add(line, 1, BAD_MACHINE_LINE, f"label {label!r} defined twice")
                    continue
                if op.upper() == "ADD":
                    instructions[label] = Add(int(reg), first, second)
                else:
                    instructions[label] = Sub(int(reg), first, second)
                continue
            m = _RM_HALT.match(content)
            if m:
                label = m.group(1)
                if label in instructions:
                    out.add(line, 1, BAD_MACHINE_LINE, f"label {label!r} defined twice")
                    continue
                instructions[label] = Halt()
                continue
            col = len(content) - len(content.lstrip()) + 1
            out.add(
                line,
                col,
                BAD_MACHINE_LINE,
                "expected 'registers N', 'output rK', 'start L', "
                "'L: ADD rK -> A | B', 'L: SUB rK -> NZ | Z', or 'L: HALT'",
            )
    except Exception as err:  # totality net; reaching this is a parser bug
        out.add(0, 0, INTERNAL_ERROR, f"internal parser error: {err!r}")
        return None, out.diags
    if registers is None:
        out.add(0, 0, MISSING_DIRECTIVE, "missing 'registers N'")
    if output is None:
        out.add(0, 0, MISSING_DIRECTIVE, "missing 'output rK'")
    if start is None:
        out.add(0, 0, MISSING_DIRECTIVE, "missing 'start L'")
    if not instructions:
        out.add(0, 0, MISSING_DIRECTIVE, "no instructions")
    if out.failed:
        return None, out.diags
    return (
        RegisterMachine(
            num_registers=registers,
            output_register=output,
            start=start,
            instructions=instructions,
        ),
        [],
    )


def print_machine(m: RegisterMachine) -> str:
    lines = [
        f"registers {m.num_registers}",
        f"output r{m.output_register}",
        f"start {m.start}",
    ]
    for label in sorted(m.instructions):
        ins = m.instructions[label]
        if isinstance(ins, Add):
            lines.append(f"{label}: ADD r{ins.register} -> {ins.goto_a} | {ins.goto_b}")
        elif isinstance(ins, Sub):
            lines.append(
                f"{label}: SUB r{ins.register} -> {ins.goto_nonzero} | {ins.goto_zero}"
            )
        else:
            lines.append(f"{label}: HALT")
    return "\n".join(lines) + "\n"
