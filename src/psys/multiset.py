"""Finite multisets over named objects, plus environment contents.

A multiset maps object names to positive counts; absent means zero.
The environment pairs a set of objects available in unlimited supply
with a finite remainder holding everything else that was expelled
into it. Values are immutable, hashable, and iterate in sorted name
order so downstream enumeration is reproducible.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from typing import Optional, Union

from ._record import Record

NAME_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_TOKEN = re.compile(r"\S+")

EMPTY_WORD = "empty"


class MultisetUnderflow(Exception):
    """Subtraction removed more copies than were present.

    Raised only when an internal caller violates its own contract;
    user input never reaches this path.
    """


class MultisetSyntaxError(ValueError):
    """Bad multiset literal. `offset` is the character position."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message)
        self.offset = offset


def quoted(text: str) -> str:
    """`text` quoted for a diagnostic, cut to its first 40 characters and `…`."""
    return repr(text if len(text) <= 40 else text[:40] + "…")


def is_valid_name(name: str) -> bool:
    """Object names are ASCII identifiers other than `empty`, the empty
    multiset's literal: one object so named would print and parse back as nothing."""
    return name != EMPTY_WORD and bool(NAME_PATTERN.match(name))


class Multiset:
    """Immutable multiset of named objects with positive integer counts."""

    __slots__ = ("_counts", "_items", "_size")

    def __init__(self, counts: Union[Mapping[str, int], Iterable[str]] = ()):
        acc: dict[str, int] = {}
        # dict first: the Mapping ABC's check costs ten times as much.
        if isinstance(counts, (dict, Mapping)):
            for name, k in counts.items():
                if not isinstance(k, int) or isinstance(k, bool):
                    raise TypeError(f"count for {name!r} must be an int, got {k!r}")
                if k < 0:
                    raise ValueError(f"negative count for {name!r}: {k}")
                if k:
                    acc[name] = k
        else:
            for name in counts:
                acc[name] = acc.get(name, 0) + 1
        self._counts = acc
        self._items = tuple(sorted(acc.items()))
        self._size = sum(acc.values())

    @property
    def size(self) -> int:
        """Total number of copies, all objects together."""
        return self._size

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    def items(self) -> tuple[tuple[str, int], ...]:
        """(name, count) pairs in sorted name order."""
        return self._items

    def support(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._items)

    def leq(self, other: "Multiset") -> bool:
        """Componentwise containment: every count here fits in `other`."""
        return all(k <= other.count(name) for name, k in self._items)

    def __add__(self, other: "Multiset") -> "Multiset":
        merged = dict(self._counts)
        for name, k in other._items:
            merged[name] = merged.get(name, 0) + k
        return Multiset(merged)

    def __sub__(self, other: "Multiset") -> "Multiset":
        if not other.leq(self):
            raise MultisetUnderflow(f"cannot remove {other} from {self}")
        reduced = dict(self._counts)
        for name, k in other._items:
            left = reduced[name] - k
            if left:
                reduced[name] = left
            else:
                del reduced[name]
        return Multiset(reduced)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __str__(self) -> str:
        return format_multiset(self)

    def __repr__(self) -> str:
        return f"Multiset({format_multiset(self)!r})"


EMPTY = Multiset()


def parse_count(text: str) -> Optional[int]:
    """`text` as a decimal number, or None when it is not one.

    Every decimal conversion of the text formats goes through here. None
    also covers what `isdigit` passes and `int` refuses: digits such as
    `²`, and more digits than Python's integer-string conversion limit.
    """
    if text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    return None


def parse_multiset(text: str) -> Multiset:
    """Parse a multiset literal.

    Grammar: `empty` or whitespace-separated items `NAME` / `NAME^COUNT`
    with COUNT a positive integer; repeated names accumulate.
    """
    stripped = text.strip()
    if stripped == EMPTY_WORD:
        return Multiset()
    if not stripped:
        raise MultisetSyntaxError("empty multiset literal; write 'empty'", 0)
    counts: dict[str, int] = {}
    for i, token in enumerate(text.split()):
        name, sep, raw_count = token.partition("^")
        k = parse_count(raw_count) if sep else 1
        if not is_valid_name(name):
            problem = f"invalid object name {quoted(name)}"
        elif k is None:
            problem = f"invalid multiplicity {quoted(raw_count)} for {quoted(name)}"
        elif k == 0:
            problem = f"zero multiplicity for {quoted(name)}; omit the item instead"
        else:
            counts[name] = counts.get(name, 0) + k
            continue
        raise MultisetSyntaxError(problem, token_starts(text)[i])
    return Multiset(counts)


def token_starts(text: str) -> list[int]:
    """The offset of each token of `text.split()` in `text`."""
    return [match.start() for match in _TOKEN.finditer(text)]


def format_multiset(m: Multiset) -> str:
    """Canonical literal: sorted items, `^1` omitted, `empty` for the empty multiset."""
    if not m:
        return EMPTY_WORD
    return " ".join(name if k == 1 else f"{name}^{k}" for name, k in m.items())


class EnvContent(Record):
    """Environment contents: an unlimited pool plus a finite remainder.

    Objects in `infinite` are available in arbitrarily many copies and
    are never counted; everything else lives in `finite`. The two parts
    stay disjoint.
    """

    infinite: frozenset[str] = frozenset()
    finite: Multiset = EMPTY

    def __post_init__(self):
        pool = frozenset(self.infinite)
        overlap = [name for name, _ in self.finite.items() if name in pool]
        if overlap:
            raise ValueError(f"finite remainder overlaps the unlimited pool: {overlap}")
        object.__setattr__(self, "infinite", pool)

    def __repr__(self) -> str:
        return f"EnvContent({sorted(self.infinite)!r}, {self.finite!r})"
