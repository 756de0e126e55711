"""Universal domain of semantic values.

Sequences produce pairs, repetitions produce lists, predicates and the
empty expression produce the unit value, and actions may map any of
these to an arbitrary user payload.  Parse trees built by the textual
grammar loader are ``TreeNode`` values; a node whose rule name is empty
is a leaf covering the bytes of its span.  A ``TreeNode`` is one flat
tuple whose positional layout is not API: read it through its named
fields, and note that ``children`` builds a fresh tuple on each access.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any


class Record:
    """Base of the immutable field records: the values below,
    ``interp.ParseOutcome`` and ``meta.GrammarSource``.

    A subclass names its fields in ``__match_args__``, keeps them in
    ``__slots__`` and sets them in ``__init__`` through
    ``object.__setattr__``; assignment and deletion raise
    AttributeError.  Two records are equal when their classes are the
    same and their ``_key`` tuples, by default every field, are equal;
    a record hashes as its key, prints as ``Name(field=value, ...)``,
    and pickles and copies through its fields in order.
    """

    __slots__ = ()
    __match_args__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self.__match_args__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # Every field, whatever a subclass's _key leaves out.
        return type(self), Record._key(self)


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

    def __reduce__(self):
        # By name, so that every protocol unpickles the one instance.
        return "UNIT"


UNIT = Unit()


class Char(Record, Value):
    __slots__ = __match_args__ = ("code",)

    def __init__(self, code: int):
        object.__setattr__(self, "code", code)

    def __repr__(self):
        return "Char(%r)" % chr(self.code)


#: Interned Char values, one per byte.
CHAR = tuple(Char(i) for i in range(256))


class Str(Record, Value):
    __slots__ = __match_args__ = ("data",)

    def __init__(self, data: bytes):
        object.__setattr__(self, "data", data)

    def __repr__(self):
        return "Str(%r)" % self.data


class Tup(Record, Value):
    __slots__ = __match_args__ = ("items",)

    def __init__(self, items: tuple):
        object.__setattr__(self, "items", items)

    def __repr__(self):
        return "Tup%r" % (self.items,)


class Lst(Record, Value):
    __slots__ = __match_args__ = ("items",)

    def __init__(self, items: tuple):
        object.__setattr__(self, "items", items)

    def __repr__(self):
        return "Lst%r" % (list(self.items),)


class Opt(Record, Value):
    __slots__ = __match_args__ = ("item",)

    def __init__(self, item: Value | None):
        object.__setattr__(self, "item", item)

    def __repr__(self):
        return "Opt(%r)" % (self.item,)


class TreeNode(tuple, Value):
    """Parse-tree node; ``rule == ""`` marks a leaf with no children.

    A node is one flat tuple, so that a parse can build hundreds of
    thousands of them cheaply; its positional layout is not API.  Read
    it through ``rule``, ``start``, ``end`` and ``children``; the last
    builds a fresh tuple on each access.  Nodes compare by their
    fields, children included, at any depth; a node hashes by its rule,
    span and number of children only, and never equals a plain tuple.
    Nodes are not ordered: ``<`` and its kin raise ``TypeError``.
    Other tuple operations (``len``, iteration, ``in``, ``+``,
    indexing) work but see the layout, and are not part of the
    interface.
    """

    __slots__ = ()

    def __new__(cls, rule: str, start: int, end: int, children: tuple):
        return tuple.__new__(cls, (rule, start, end, *children))

    rule = property(itemgetter(0))
    start = property(itemgetter(1))
    end = property(itemgetter(2))

    @property
    def children(self) -> tuple:
        return self[3:]

    def __reduce__(self):
        # A flat post-order list of (rule, start, end, child count), so
        # that pickle and copy handle trees of any depth.  Walking the
        # tree node first, children right to left, gives it reversed.
        records = []
        stack = [self]
        while stack:
            node = stack.pop()
            records.append((node[0], node[1], node[2], len(node) - 3))
            stack.extend(node[3:])
        records.reverse()
        return _tree_from_records, (records,)

    def __eq__(self, other):
        if type(other) is not TreeNode:
            # A plain tuple's own comparison would accept a node.
            return False if isinstance(other, tuple) else NotImplemented
        # Iterative, so that trees of any depth compare.  A node with no
        # children holds only its fields, which tuple equality compares.
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if len(a) != len(b):
                return False
            for x, y in zip(a, b):
                if x is y:
                    continue
                if type(x) is TreeNode:
                    if type(y) is not TreeNode:
                        return False
                    if len(x) == 3:
                        if not tuple.__eq__(x, y):
                            return False
                    else:
                        todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        # The node's own fields and child count, not its subtree: equal
        # nodes still hash alike, and a deep tree hashes in O(1).
        return hash((self[0], self[1], self[2], len(self)))

    def _unordered(self, other):
        # NotImplemented would let tuple's reflected comparison order a
        # node against a plain tuple, field by field.
        if isinstance(other, tuple):
            raise TypeError("TreeNode values are not ordered")
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def is_leaf(self):
        return self[0] == ""

    def __repr__(self):
        if self.is_leaf():
            return "Leaf[%d:%d]" % (self.start, self.end)
        return "TreeNode(%s[%d:%d], %d children)" % (
            self.rule, self.start, self.end, len(self) - 3)


def _tree_from_records(records: list) -> TreeNode:
    """Rebuild the tree that ``TreeNode.__reduce__`` flattened."""
    stack = []
    for rule, start, end, count in records:
        children = ()
        if count:
            children = stack[-count:]
            del stack[-count:]
        stack.append(TreeNode(rule, start, end, children))
    return stack[0]


_gc_lock = threading.Lock()
_gc_depth = 0
_gc_was_enabled = False


@contextmanager
def gc_suspended():
    """Suspend Python's cyclic garbage collector for the ``with`` body.

    Only for code that runs no user code and makes no reference cycles,
    such as building a parse tree.  Suspensions may overlap across
    threads: the first one in records whether the collector was on and
    disables it, and the last one out re-enables it only if it was on.
    """
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_was_enabled:
                gc.enable()


class User(Record, Value):
    """Opaque payload produced by an embedded semantic action."""

    __slots__ = __match_args__ = ("payload",)

    def __init__(self, payload: Any):
        object.__setattr__(self, "payload", payload)


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
    multi-byte character).  Trees of any depth convert.  The cyclic
    garbage collector is suspended while the dicts are built, since
    they form no cycles, and the caller's collector state is restored
    afterwards.
    """
    with gc_suspended():
        return _to_json(node, data)


def _to_json(root: TreeNode, data: bytes):
    # Top down with an explicit stack: a node's dict is made, with an
    # empty children list, when its parent's children are visited in
    # order, and its own children fill the list when it is popped.
    # ASCII input is decoded once and sliced as a str, which equals
    # decoding each slice.
    text = data.decode("ascii") if data.isascii() else None
    top = []
    todo = [((root,), top)]
    while todo:
        nodes, out = todo.pop()
        for node in nodes:
            rule = node[0]
            if rule:
                children = []
                out.append({"rule": rule, "start": node[1], "end": node[2],
                            "children": children})
                if len(node) > 3:
                    todo.append((node[3:], children))
            else:
                start = node[1]
                end = node[2]
                out.append({
                    "text": (text[start:end] if text is not None else
                             data[start:end].decode("utf-8", "replace")),
                    "start": start,
                    "end": end,
                })
    return top[0]


def tree_json_text(root: TreeNode, data: bytes) -> str:
    """``json.dumps(tree_to_json(root, data))``, written directly.

    The same text for trees of any depth: the tree is walked with an
    explicit stack, where ``json.dumps`` recurses once per container,
    and no dicts are built.  Strings are escaped as ``json.dumps``
    escapes them by default.
    """
    text = data.decode("ascii") if data.isascii() else None
    out = []
    todo = [root]
    while todo:
        node = todo.pop()
        if type(node) is str:
            out.append(node)
            continue
        rule = node[0]
        start = node[1]
        end = node[2]
        if not rule:
            out.append('{"text": %s, "start": %d, "end": %d}' % (
                encode_basestring_ascii(
                    text[start:end] if text is not None else
                    data[start:end].decode("utf-8", "replace")),
                start, end))
        else:
            out.append('{"rule": %s, "start": %d, "end": %d, "children": ['
                       % (encode_basestring_ascii(rule), start, end))
            # Pushed last to first: the closing brackets, then each
            # child, after a separator unless it is the first.
            todo.append("]}")
            for i in range(len(node) - 1, 2, -1):
                todo.append(node[i])
                if i > 3:
                    todo.append(", ")
    return "".join(out)
