"""Universal domain of semantic values.

Sequences produce pairs, repetitions produce lists, predicates and the
empty expression produce the unit value, and actions may map any of
these to an arbitrary user payload.  Parse trees built by the textual
grammar loader are ``TreeNode`` values; a node whose rule name is empty
is a leaf covering the bytes of its span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class Value:
    __slots__ = ()


class Unit(Value):
    """The single inhabitant of the trivial value type."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unit"


UNIT = Unit()


@dataclass(frozen=True, slots=True)
class Char(Value):
    code: int

    def __repr__(self):
        return "Char(%r)" % chr(self.code)


#: Interned Char values, one per byte.
CHAR = tuple(Char(i) for i in range(256))


@dataclass(frozen=True, slots=True)
class Str(Value):
    data: bytes

    def __repr__(self):
        return "Str(%r)" % self.data


@dataclass(frozen=True, slots=True)
class Tup(Value):
    items: tuple

    def __repr__(self):
        return "Tup%r" % (self.items,)


@dataclass(frozen=True, slots=True)
class Lst(Value):
    items: tuple

    def __repr__(self):
        return "Lst%r" % (list(self.items),)


@dataclass(frozen=True, slots=True)
class Opt(Value):
    item: Value | None

    def __repr__(self):
        return "Opt(%r)" % (self.item,)


@dataclass(frozen=True, slots=True)
class TreeNode(Value):
    """Parse-tree node; ``rule == ""`` marks a leaf with no children."""

    rule: str
    start: int
    end: int
    children: tuple

    def is_leaf(self):
        return self.rule == ""

    def __repr__(self):
        if self.is_leaf():
            return "Leaf[%d:%d]" % (self.start, self.end)
        return "TreeNode(%s[%d:%d], %d children)" % (
            self.rule, self.start, self.end, len(self.children))


@dataclass(frozen=True, slots=True)
class User(Value):
    """Opaque payload produced by an embedded semantic action."""

    payload: Any


def tuple_items(v: Value) -> list:
    """Flatten a right-nested pair spine into a flat item list.

    Sequences are binary and associate to the right, so the value of
    ``a b c`` is ``Tup((va, Tup((vb, vc))))``; this returns ``[va, vb, vc]``.
    """
    items = []
    while isinstance(v, Tup):
        head, v = v.items
        items.append(head)
    items.append(v)
    return items


def tree_to_json(node: TreeNode, data: bytes):
    """Convert a parse tree to the documented JSON shape.

    Nodes become ``{"rule", "start", "end", "children"}``; leaves become
    ``{"text", "start", "end"}`` with text sliced from the input bytes
    (decoded as UTF-8, byte offsets kept even when a span splits a
    multi-byte character).
    """
    if node.is_leaf():
        return {
            "text": data[node.start:node.end].decode("utf-8", "replace"),
            "start": node.start,
            "end": node.end,
        }
    return {
        "rule": node.rule,
        "start": node.start,
        "end": node.end,
        "children": [tree_to_json(c, data) for c in node.children],
    }
