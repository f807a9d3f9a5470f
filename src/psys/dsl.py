"""Text formats: `.psys` system files, `.irules` interaction-rule files,
and `.rm` register-machine files.

Parsers are total: any input, including binary garbage, yields located
diagnostics rather than an exception. All three run inside one net
(`_total`) that turns a parser bug into a D011 diagnostic. Parsing only
builds values; the model validators judge them, so a file can parse
cleanly and still be rejected as an invalid system. Printers are defined
on every value a parser returns, a membrane forest included, except one
that sums counts into a count of more than `sys.get_int_max_str_digits()`
digits (`a^N a^N`): `str()` refuses it and they raise `ValueError`. They
emit one canonical form, byte for byte, and parse(print(x)) reconstructs x.

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
from typing import Optional, Sequence, Union

from ._record import Record
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
    parse_count,
    parse_multiset,
    quoted,
    token_starts,
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


class SourceDiagnostic(Record):
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


def _total(inner, text: str, failed):
    """Run inner(text, out): (value, []) on success, else (failed, diagnostics).

    The totality net: an exception escaping `inner` is a parser bug, and
    it becomes a D011 diagnostic instead of reaching the caller.
    """
    out = _Collector()
    try:
        value = inner(text, out)
    except Exception as err:
        out.add(0, 0, INTERNAL_ERROR, f"internal parser error: {err!r}")
    if out.failed:
        return failed, out.diags
    return value, []


def _lead(text: str) -> int:
    """Width of the leading whitespace."""
    return len(text) - len(text.lstrip())


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
    for piece in text.split(sep):
        pieces.append((piece, base))
        base += len(piece) + len(sep)
    return pieces


def _parse_ms(
    text: str, line: int, column: int, out: _Collector
) -> Optional[Multiset]:
    stripped = text.strip()
    at = column + _lead(text)
    if not stripped:
        out.add(line, at, BAD_MULTISET, "expected a multiset literal")
        return None
    try:
        return parse_multiset(stripped)
    except MultisetSyntaxError as err:
        out.add(line, at + err.offset, BAD_MULTISET, str(err))
        return None


_STRUCT_TOKEN = re.compile(r"\d+|[()]|\S")


def parse_structure(
    text: str, line: int = 1, column: int = 1, out: Optional[_Collector] = None
) -> Optional[MembraneStructure]:
    """Parse a parenthesized membrane tree such as `1(2 3(4))`: N membranes labeled 1..N."""
    own = out if out is not None else _Collector()
    before = len(own.diags)
    parent: dict[int, int] = {}
    seen: dict[int, int] = {}  # label -> its column
    stack: list[int] = []
    prev: Optional[int] = None
    for tok in _STRUCT_TOKEN.finditer(text):
        at = column + tok.start()
        word = tok.group()
        label = parse_count(word)
        if label is not None:
            if label == 0:
                own.add(line, at, BAD_STRUCTURE_TEXT, "membrane labels start at 1")
            elif label in seen:
                own.add(line, at, BAD_STRUCTURE_TEXT, f"membrane {label} appears twice")
            else:
                seen[label] = at
                if stack:
                    parent[label] = stack[-1]
                prev = label
        elif word == "(":
            if prev is None:
                own.add(line, at, BAD_STRUCTURE_TEXT, "'(' must follow a membrane label")
                break
            stack.append(prev)
            prev = None
        elif word == ")":
            if not stack:
                own.add(line, at, BAD_STRUCTURE_TEXT, "unbalanced ')'")
                break
            stack.pop()
            prev = None
        else:
            own.add(line, at, BAD_STRUCTURE_TEXT, f"unexpected {quoted(word)}")
            break
    if len(own.diags) == before:
        if stack:
            own.add(line, column, BAD_STRUCTURE_TEXT, "missing ')'")
        elif not seen:
            own.add(line, column, BAD_STRUCTURE_TEXT, "empty membrane structure")
        for label, at in seen.items():
            if label > len(seen):
                own.add(line, at, BAD_STRUCTURE_TEXT, f"membrane {label} is not in 1..{len(seen)}")
    if len(own.diags) > before:
        return None
    return MembraneStructure(len(seen), parent)


def format_structure(structure: MembraneStructure) -> str:
    """`1(2 3(4))`; a forest prints its roots in label order, space-separated."""
    below: dict[int, list[int]] = {}
    for child, parent in sorted(structure.parent.items()):
        below.setdefault(parent, []).append(child)

    def spaced(labels: list[int]) -> list:
        """`labels` with " " between them, last first, ready to pop."""
        return [piece for label in reversed(labels) for piece in (label, " ")][:-1]

    # A stack instead of recursion, so a tree of any depth prints.
    todo = spaced([label for label in structure.labels if label not in structure.parent])
    pieces = []
    while todo:
        item = todo.pop()
        pieces.append(str(item))
        if item in below:  # a label with children; the text pieces are never keys
            todo += [")", *spaced(below[item]), "("]
    return "".join(pieces)


def _parenthesized(
    text: str, line: int, column: int, example: str, out: _Collector
) -> Optional[tuple[str, int]]:
    """A rule's text inside its parentheses and the column of its '('."""
    stripped = text.strip()
    at = column + _lead(text)
    if not (stripped.startswith("(") and stripped.endswith(")")):
        out.add(line, at, BAD_RULE, f"rules are parenthesized, like {example}")
        return None
    return stripped[1:-1], at


def _parse_cell_rule_text(
    text: str, line: int, column: int, out: _Collector, region: int
) -> Optional[CellRule]:
    found = _parenthesized(text, line, column, "(a, out; b, in)", out)
    if found is None:
        return None
    inner, at = found
    sides = _split_with_columns(inner, ";", at + 1)
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
                dir_at + _lead(dir_text),
                BAD_RULE,
                f"direction must be 'in' or 'out', got {quoted(direction)}",
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
    node = parse_count(stripped)
    if node is None:
        message = f"expected a node number, got {quoted(stripped)}"
        out.add(line, column + _lead(text), BAD_NUMBER, message)
    return node


def _parse_tissue_rule_text(
    text: str, line: int, column: int, out: _Collector
) -> Optional[TissueRule]:
    found = _parenthesized(text, line, column, "(1, a / b, 0)", out)
    if found is None:
        return None
    inner, at = found
    fields = _split_with_columns(inner, ",", at + 1)
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
_LABEL = re.compile(r"\s*(\d+)\s*:")
# Per model: the prefix of a rule line, whose groups become the rule
# reader's trailing int arguments, its usage message, and the reader.
_RULE_SYNTAX = {
    "cell": (_LABEL, "@rules is written: @rules LABEL: (rule)", _parse_cell_rule_text),
    "tissue": (
        re.compile(r"\s*:"),
        "@rules is written: @rules: (i, x, j)",
        _parse_tissue_rule_text,
    ),
}


def parse_system(
    text: str,
) -> tuple[Optional[Union[CellPSystem, TissuePSystem]], list[SourceDiagnostic]]:
    """Parse a `.psys` document. Returns (system, []) or (None, diagnostics)."""
    return _total(_parse_system_inner, text, None)


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
            out.add(
                line, _lead(content) + 1, STRAY_LINE, "expected a line starting with @directive"
            )
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
            if word not in _RULE_SYNTAX:
                out.add(
                    line, payload_col, BAD_PAYLOAD, "@model must be 'cell' or 'tissue'"
                )
            else:
                model = word
        elif name in ("objects", "env"):
            words = payload.split()
            if all(map(is_valid_name, words)):
                (objects if name == "objects" else env).extend(words)
            else:
                for word, start in zip(words, token_starts(payload)):
                    if not is_valid_name(word):
                        at = payload_col + start
                        out.add(line, at, BAD_PAYLOAD, f"invalid object name {quoted(word)}")
        elif name == "membranes":
            structure_field = (payload, line, payload_col)
        elif name == "cells":
            count = parse_count(payload.strip())
            if count is None or count < 1:
                out.add(
                    line, payload_col, BAD_NUMBER, "@cells takes a positive cell count"
                )
            else:
                cells_field = count
        elif name == "init":
            m2 = _LABEL.match(payload)
            label = parse_count(m2.group(1)) if m2 else None
            if label is None:
                out.add(
                    line, payload_col, BAD_PAYLOAD, "@init is written: @init LABEL: multiset"
                )
                continue
            ms = _parse_ms(payload[m2.end() :], line, payload_col + m2.end(), out)
            if ms is not None:
                init[label] = init[label] + ms if label in init else ms
        elif name == "rules":
            rule_lines.append((line, payload_col, payload))
        elif name == "output":
            output = parse_count(payload.strip())
            if output is None:
                out.add(line, payload_col, BAD_NUMBER, "@output takes a region label")
        else:
            out.add(line, 1, UNKNOWN_DIRECTIVE, f"unknown directive @{name}")

    if model is None:
        out.add(0, 0, MISSING_DIRECTIVE, "missing @model (cell or tissue)")
        return None
    if output is None:
        out.add(0, 0, MISSING_DIRECTIVE, "missing @output")
    if model == "cell":
        shape = None
        if cells_field is not None:
            out.add(0, 0, BAD_PAYLOAD, "@cells belongs to tissue systems; use @membranes")
        if structure_field is None:
            out.add(0, 0, MISSING_DIRECTIVE, "missing @membranes")
        else:
            shape = parse_structure(*structure_field, out)
    else:
        shape = cells_field
        if structure_field is not None:
            out.add(0, 0, BAD_PAYLOAD, "@membranes belongs to cell systems; use @cells")
        if cells_field is None:
            out.add(0, 0, MISSING_DIRECTIVE, "missing @cells")

    prefix, usage, read = _RULE_SYNTAX[model]
    rules = []
    for line, col, payload in rule_lines:
        m = prefix.match(payload)
        numbers = [parse_count(group) for group in m.groups()] if m else [None]
        if None in numbers:
            out.add(line, col, BAD_RULE, usage)
            continue
        rule = read(payload[m.end() :], line, col + m.end(), out, *numbers)
        if rule is not None:
            rules.append(rule)

    if out.failed:
        return None
    system = CellPSystem if model == "cell" else TissuePSystem
    return system(objects, shape, init, env, rules, output)


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
    # Rules in (region, text) or (src, dst, text) order; each text is written once.
    if is_cell:
        rules = sorted((rule.region, cell_rule_text(rule)) for rule in sys.rules)
        lines += [f"@rules {region}: {text}" for region, text in rules]
    else:
        rules = sorted((rule.src, rule.dst, tissue_rule_text(rule)) for rule in sys.rules)
        lines += [f"@rules: {text}" for *_, text in rules]
    lines.append(f"@output {sys.output}")
    return "\n".join(lines) + "\n"


_PIECE = re.compile(r"\(\s*([A-Za-z0-9_]+)\s*,\s*(\d+)\s*\)")


def parse_interactions(
    text: str,
) -> tuple[list[Union[InteractionRule, UniportRule]], list[SourceDiagnostic]]:
    """Parse `.irules` lines like `(a,1)(b,2) -> (a,3)(b,1)`."""
    return _total(_parse_interactions_inner, text, [])


def _parse_interactions_inner(text: str, out: _Collector):
    rules = (_parse_interaction_line(content, line, out) for line, content in _logical_lines(text))
    return [rule for rule in rules if rule is not None]


def _side_pieces(
    side: str, line: int, column: int, out: _Collector
) -> Optional[list[tuple[str, int]]]:
    pieces = []
    pos = 0
    while side[pos:].strip():
        pos += _lead(side[pos:])
        m = _PIECE.match(side, pos)
        node = parse_count(m.group(2)) if m else None
        if node is None:
            out.add(line, column + pos, BAD_INTERACTION, "expected (object, node)")
            return None
        name = m.group(1)
        if not is_valid_name(name):
            out.add(line, column + pos + 1, BAD_INTERACTION, f"invalid object name {quoted(name)}")
            return None
        pieces.append((name, node))
        pos = m.end()
    if not 1 <= len(pieces) <= 2:
        out.add(line, column, BAD_INTERACTION, "each side has one or two (object, node) pairs")
        return None
    return pieces


def _parse_interaction_line(
    content: str, line: int, out: _Collector
) -> Optional[Union[InteractionRule, UniportRule]]:
    arrow = content.find("->")
    if arrow == -1:
        out.add(line, _lead(content) + 1, BAD_INTERACTION, "expected '->' between the two sides")
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
                f"objects must keep their positions: {quoted(left_name)} vs {quoted(right_name)}",
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


_RM_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# The header lines of a `.rm` file: (keyword, pattern, value type, usage).
_RM_HEADERS = [
    (key, re.compile(rf"\s*{key}\s+{value}\s*$"), kind, f"'{key} {shape}'")
    for key, value, kind, shape in (
        ("registers", r"(\d+)", parse_count, "N"),
        ("output", r"r(\d+)", parse_count, "rK"),
        ("start", f"({_RM_NAME})", str, "L"),
    )
]
_RM_INSTRUCTION = re.compile(
    rf"\s*({_RM_NAME})\s*:\s*"
    rf"(?:(ADD|SUB)\s+r(\d+)\s*->\s*({_RM_NAME})\s*\|\s*({_RM_NAME})|HALT)\s*$",
    re.IGNORECASE,
)
_RM_USAGE = (
    "expected "
    + "".join(f"{usage}, " for *_, usage in _RM_HEADERS)
    + "'L: ADD rK -> A | B', 'L: SUB rK -> NZ | Z', or 'L: HALT'"
)


def parse_machine(
    text: str,
) -> tuple[Optional[RegisterMachine], list[SourceDiagnostic]]:
    """Parse a `.rm` register-machine program."""
    return _total(_parse_machine_inner, text, None)


def _parse_machine_inner(text: str, out: _Collector):
    headers: dict[str, Union[int, str]] = {}
    instructions: dict[str, Instruction] = {}
    for line, content in _logical_lines(text):
        for key, pattern, kind, _ in _RM_HEADERS:
            m = pattern.match(content)
            value = kind(m.group(1)) if m else None
            if value is not None:
                if key in headers:
                    out.add(line, 1, DUPLICATE_DIRECTIVE, f"'{key}' given twice")
                headers[key] = value
                break
        else:
            m = _RM_INSTRUCTION.match(content)
            label, op, reg, first, second = m.groups() if m else (None,) * 5
            register = None if reg is None else parse_count(reg)
            if not m or (op and register is None):
                out.add(line, _lead(content) + 1, BAD_MACHINE_LINE, _RM_USAGE)
                continue
            if label in instructions:
                out.add(line, 1, BAD_MACHINE_LINE, f"label {quoted(label)} defined twice")
            elif op is None:
                instructions[label] = Halt()
            else:
                jump = Add if op.upper() == "ADD" else Sub
                instructions[label] = jump(register, first, second)
    for key, _, _, usage in _RM_HEADERS:
        if key not in headers:
            out.add(0, 0, MISSING_DIRECTIVE, f"missing {usage}")
    if not instructions:
        out.add(0, 0, MISSING_DIRECTIVE, "no instructions")
    if out.failed:
        return None
    return RegisterMachine(
        num_registers=headers["registers"],
        output_register=headers["output"],
        start=headers["start"],
        instructions=instructions,
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
