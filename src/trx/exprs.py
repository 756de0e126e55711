"""Parsing-expression algebra, grammars, and canonical text.

The core constructors are Empty, AnyChar, Terminal, Range, NonTerminal,
Seq, Choice, Star, Not and Action, and every expression is built from
them alone.  The derived operators (Literal, Plus, Optional, And,
CharClass, Drop) are functions that return their core expansion.

Expressions are immutable and hash-consed: building a node equal in
structure to a live one returns that node, so equality is identity and
takes constant time at any depth.  An Action node is keyed by its inner
expression and by its ref's label, function and ``span_aware`` flag.

The terminal alphabet is 8-bit bytes; grammar text and parser input are
encoded as UTF-8 and matched byte by byte.
"""

from __future__ import annotations

import threading
import weakref
from types import MappingProxyType
from typing import Callable, Iterable, Iterator

from .values import Lst, Opt as OptV, Str, TreeNode, UNIT, Value, tuple_items


class GrammarError(Exception):
    """Base class for grammar construction errors."""


class DuplicateRule(GrammarError):
    def __init__(self, name):
        super().__init__("duplicate rule %r" % name)
        self.name = name


class UndefinedNonterminal(GrammarError):
    def __init__(self, name, referenced_from):
        super().__init__("rule %r references undefined nonterminal %r"
                         % (referenced_from, name))
        self.name = name
        self.referenced_from = referenced_from


class UnknownStart(GrammarError):
    def __init__(self, name):
        super().__init__("start symbol %r is not a rule" % name)
        self.name = name


class InvalidRange(GrammarError):
    def __init__(self, lo, hi):
        super().__init__("empty range %r-%r" % (chr(lo), chr(hi)))
        self.lo = lo
        self.hi = hi


class EmptyLiteral(GrammarError):
    def __init__(self):
        super().__init__("empty literal (write eps for the empty expression)")


class EmptyClass(GrammarError):
    def __init__(self):
        super().__init__("character class with no items")


def _byte(c) -> int:
    """Coerce a one-character str/bytes or an int to a byte code."""
    if isinstance(c, int):
        if not 0 <= c <= 255:
            raise ValueError("byte code out of range: %r" % c)
        return c
    if isinstance(c, bytes):
        if len(c) != 1:
            raise ValueError("expected a single byte, got %r" % c)
        return c[0]
    if isinstance(c, str):
        b = c.encode("utf-8")
        if len(b) != 1:
            raise ValueError("expected a single one-byte character, got %r" % c)
        return b[0]
    raise TypeError("not a character: %r" % (c,))


#: Label prefix of the tree shapers' node collectors: the collector of
#: rule ``r`` is labelled ``NODE_PREFIX + r``.
NODE_PREFIX = "tree.node:"


class ActionRef:
    """Named value transformer attached to an expression.

    Refs compare by identity.  An Action node is keyed by the label,
    the callable (by identity) and ``span_aware`` of its ref, so refs
    that differ in any of them never share a node.  ``span_aware``
    marks the built-in tree shapers, which receive ``fn(value, start,
    end)``; embedder actions are total ``Value -> Value`` functions.
    """

    __slots__ = ("label", "fn", "span_aware", "__weakref__")

    def __init__(self, label: str, fn: Callable, span_aware: bool = False):
        self.label = label
        self.fn = fn
        self.span_aware = span_aware

    def __repr__(self):
        return "ActionRef(%r)" % self.label


#: Every live expression node, by its class and fields.  Held weakly, so
#: a node goes when the last grammar or expression holding it goes.
#: Nodes are made and entered under INTERN_LOCK, which trx.meta's
#: collector cache shares; a lookup takes no lock, since the table is
#: never iterated and a dead node's entry is dropped atomically.
_NODES = weakref.WeakValueDictionary()
INTERN_LOCK = threading.Lock()


def _intern(cls, fields: tuple, key: tuple):
    """The live node of ``key``, made of ``fields`` if there is none."""
    node = _NODES.get(key)
    if node is None:
        with INTERN_LOCK:
            node = _NODES.get(key)
            if node is None:
                if (len(fields) != len(cls.__slots__)
                        or not all(map(isinstance, fields, cls._kinds))):
                    raise TypeError("bad %s%r" % (cls.__name__, fields))
                node = object.__new__(cls)
                for name, value in zip(cls.__slots__, fields):
                    object.__setattr__(node, name, value)
                _NODES[key] = node
    return node


class Expr:
    """Base class for the core expression nodes.

    Nodes are hash-consed: a constructor returns the live node of the
    same class and fields if there is one, so equal structure is the
    same object and the default identity ``==`` and ``hash`` serve.
    Nodes are immutable, since one node may sit in many grammars.
    """

    __slots__ = ("__weakref__",)
    _kinds = ()  # the type of each field

    def __new__(cls, *fields):
        return _intern(cls, fields, (cls, *fields))

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def __delattr__(self, name):
        raise AttributeError("expressions are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __deepcopy__(self, memo):
        # The node is its own copy; rebuilding through __reduce__ would
        # recurse once per level.
        return self

    def __repr__(self):
        return expr_text(self)


class Empty(Expr):
    __slots__ = ()


class AnyChar(Expr):
    __slots__ = ()


class Terminal(Expr):
    __slots__ = ("code",)
    _kinds = (int,)

    def __new__(cls, c):
        return Expr.__new__(cls, _byte(c))


class Range(Expr):
    __slots__ = ("lo", "hi")
    _kinds = (int, int)

    def __new__(cls, lo, hi):
        lo, hi = _byte(lo), _byte(hi)
        if lo > hi:
            raise InvalidRange(lo, hi)
        return Expr.__new__(cls, lo, hi)


class NonTerminal(Expr):
    __slots__ = ("name",)
    _kinds = (str,)


class Seq(Expr):
    __slots__ = ("left", "right")
    _kinds = (Expr, Expr)


class Choice(Expr):
    __slots__ = ("first", "second")
    _kinds = (Expr, Expr)


class Star(Expr):
    __slots__ = ("inner",)
    _kinds = (Expr,)


class Not(Expr):
    __slots__ = ("inner",)
    _kinds = (Expr,)


class Action(Expr):
    __slots__ = ("inner", "ref")
    _kinds = (Expr, ActionRef)

    def __new__(cls, inner: Expr, ref: ActionRef):
        # The function by identity, so that any callable serves; the
        # node holds it, so its id is not reused while the node lives.
        return _intern(cls, (inner, ref),
                       (cls, inner, ref.label, id(ref.fn), ref.span_aware))


EMPTY = Empty()
ANY = AnyChar()


# ---------------------------------------------------------------------------
# Derived operators: functions that build their core expansion.

def _tuple2str(v: Value) -> Value:
    return Str(bytes(item.code for item in tuple_items(v)))


def _cons(v: Value) -> Value:
    head, tail = v.items
    return Lst((head, *tail.items))


TUPLE2STR = ActionRef("tuple2str", _tuple2str)
CONS = ActionRef("cons", _cons)
SOME = ActionRef("some", lambda v: OptV(v))
NONE = ActionRef("none", lambda v: OptV(None))
DROP = ActionRef("drop", lambda v: UNIT)


def _leaf_fn(v, start, end):
    return TreeNode("", start, end, ())


#: The tree shaper of a terminal, range or any-char: a leaf span.
LEAF = ActionRef("tree.leaf", _leaf_fn, span_aware=True)

# The built-in actions above are recognised by identity, never by label:
# an embedder's ActionRef with one of their labels is an ordinary action.


def _right_nested(parts: list, node) -> Expr:
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = node(part, out)
    return out


def Literal(text) -> Expr:
    """``'text'``: a right-nested chain of terminals under tuple2str.

    ``text`` is a str (encoded as UTF-8), bytes or bytearray; anything
    else raises TypeError.  Raises EmptyLiteral for empty text.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    elif isinstance(text, (bytes, bytearray)):
        text = bytes(text)
    else:
        raise TypeError("a literal is text or bytes, not %r" % (text,))
    if not text:
        raise EmptyLiteral()
    return Action(_right_nested([Terminal(b) for b in text], Seq), TUPLE2STR)


def terminal_chain(e: Expr) -> bytes | None:
    """The bytes of a right-nested Seq spine of terminals, or None."""
    out = []
    while type(e) is Seq and type(e.left) is Terminal:
        out.append(e.left.code)
        e = e.right
    if type(e) is Terminal:
        out.append(e.code)
        return bytes(out)
    return None


def Plus(e: Expr) -> Expr:
    """``e+``: ``e e*`` under cons, one ``e`` object in both places."""
    return Action(Seq(e, Star(e)), CONS)


def Optional(e: Expr) -> Expr:
    """``e?``: ``e / eps`` with Some/None wrapping."""
    return Choice(Action(e, SOME), Action(EMPTY, NONE))


def And(e: Expr) -> Expr:
    """``&e``: ``!!e``."""
    return Not(Not(e))


def CharClass(items: Iterable) -> Expr:
    """A class: a right-nested choice in source order.

    Items are single characters (one Terminal each) or explicit
    (lo, hi) pairs (one Range each, even a degenerate one).  Raises
    EmptyClass for no items and InvalidRange for a pair with lo > hi.
    """
    alts = [Range(*item) if isinstance(item, tuple) else Terminal(item)
            for item in items]
    if not alts:
        raise EmptyClass()
    return _right_nested(alts, Choice)


def Drop(e: Expr) -> Expr:
    """``~e``: discard the value of ``e``, producing Unit."""
    return Action(e, DROP)


def iter_subexprs(e: Expr) -> Iterator[Expr]:
    """Preorder walk over e and its sub-expressions."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        t = type(node)
        if t is Seq:
            stack.append(node.right)
            stack.append(node.left)
        elif t is Choice:
            stack.append(node.second)
            stack.append(node.first)
        elif t in (Star, Not, Action):
            stack.append(node.inner)


class Grammar:
    """A finite nonterminal table with a designated start symbol.

    Immutable after construction; safe to share between threads.  The
    production map is total: every NonTerminal referenced anywhere
    resolves to a rule.

    A tree-shaped grammar (``trx.meta.tree_wrap`` builds them) wraps
    every production in its node collector, and its other actions are
    the built-in tree shapers, or sit under ``!`` or ``~`` where their
    values are discarded; the constructor raises ValueError otherwise.
    The interpreter builds its trees directly and runs no other action
    of such a grammar.
    """

    __slots__ = ("nonterminals", "productions", "start", "tree_shaped")

    def __init__(self, productions: dict, start: str, tree_shaped: bool = False):
        if tree_shaped:
            _check_tree_shaped(productions)
        self.nonterminals = tuple(productions)
        self.productions = MappingProxyType(dict(productions))
        self.start = start
        self.tree_shaped = tree_shaped

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError("Grammar is immutable; %s is set" % name)
        object.__setattr__(self, name, value)

    def body(self, name: str) -> Expr:
        return self.productions[name]

    def __eq__(self, other):
        return (isinstance(other, Grammar)
                and other.start == self.start
                and other.productions == self.productions)

    def __hash__(self):
        return hash((self.start, frozenset(self.productions)))

    def __repr__(self):
        return "Grammar(%d rules, start=%r)" % (len(self.nonterminals), self.start)


def _check_tree_shaped(productions: dict):
    """Raise ValueError unless every rule is wrapped in its own node
    collector and every other action, outside ``!`` and ``~``, is a
    tree shaper: tree mode would silently skip any other action."""
    seen = set()
    for name, body in productions.items():
        # A node named "" would read as a leaf.
        if not (name and type(body) is Action
                and body.ref.label == NODE_PREFIX + name):
            raise ValueError("rule %r of a tree-shaped grammar is not "
                             "wrapped in its node collector" % name)
        stack = [body.inner]
        while stack:
            e = stack.pop()
            if e in seen:
                continue
            seen.add(e)
            t = type(e)
            if t is Seq:
                stack += (e.left, e.right)
            elif t is Choice:
                stack += (e.first, e.second)
            elif t is Star:
                stack.append(e.inner)
            elif t is Action:
                ref = e.ref
                if ref is DROP:
                    continue
                if ref is not LEAF and not ref.label.startswith(NODE_PREFIX):
                    raise ValueError("rule %r of a tree-shaped grammar "
                                     "holds the action %r, which tree mode "
                                     "does not run" % (name, ref.label))
                stack.append(e.inner)


def build_grammar(rules: Iterable, start: str) -> Grammar:
    """Assemble rules into a Grammar, checking totality.

    ``rules`` is an iterable of (name, expression) pairs; the production
    map is keyed in rule order but compares order-independently.
    """
    productions = {}
    for name, body in rules:
        if name in productions:
            raise DuplicateRule(name)
        if not isinstance(body, Expr):
            raise TypeError("not a parsing expression: %r" % (body,))
        productions[name] = body
    for name, body in productions.items():
        for sub in iter_subexprs(body):
            if type(sub) is NonTerminal and sub.name not in productions:
                raise UndefinedNonterminal(sub.name, name)
    if start not in productions:
        raise UnknownStart(start)
    return Grammar(productions, start)


# ---------------------------------------------------------------------------
# Canonical text form (the .peg surface syntax, see the meta-grammar module).

_PREC_CHOICE, _PREC_SEQ, _PREC_PREFIX, _PREC_POSTFIX, _PREC_ATOM = range(5)

_LIT_ESCAPES = {0x0A: "\\n", 0x09: "\\t", 0x0D: "\\r", 0x5C: "\\\\", 0x27: "\\'"}
_CLASS_ESCAPES = {0x0A: "\\n", 0x09: "\\t", 0x0D: "\\r", 0x5C: "\\\\",
                  0x5D: "\\]", 0x2D: "\\-", 0x5B: "\\["}


def _quote_char(code: int, escapes: dict) -> str:
    if code in escapes:
        return escapes[code]
    if 0x20 <= code <= 0x7E:
        return chr(code)
    return "\\x%02x" % code


def _quote_literal(text: bytes) -> str:
    return "'" + "".join(_quote_char(b, _LIT_ESCAPES) for b in text) + "'"


def expr_text(e: Expr, prec: int = _PREC_CHOICE) -> str:
    """Canonical text of an expression in .peg surface syntax.

    Tree-shaping wrappers print as their inner expression; drop prints
    as ``~``; the expansions of literals, ``e+`` and ``e?`` are folded
    back into their textual forms.  Other action labels are not expressible
    in the textual format and print as their inner expression.
    """
    t = type(e)
    if t is Empty:
        return "eps"
    if t is AnyChar:
        return "."
    if t is Terminal:
        # A one-character class reparses to a bare Terminal in every
        # context; a quoted literal would pick up the string-collecting
        # action.
        return "[%s]" % _quote_char(e.code, _CLASS_ESCAPES)
    if t is Range:
        return "[%s-%s]" % (_quote_char(e.lo, _CLASS_ESCAPES),
                            _quote_char(e.hi, _CLASS_ESCAPES))
    if t is NonTerminal:
        return e.name
    if t is Seq:
        s = "%s %s" % (expr_text(e.left, _PREC_PREFIX),
                       expr_text(e.right, _PREC_SEQ))
        return _wrap(s, _PREC_SEQ, prec)
    if t is Choice:
        first, second = e.first, e.second
        if (type(first) is Action and type(second) is Action
                and first.ref.label == "some"
                and second.ref.label == "none"):
            return _wrap("%s?" % expr_text(first.inner, _PREC_ATOM),
                         _PREC_POSTFIX, prec)
        s = "%s / %s" % (expr_text(first, _PREC_SEQ),
                         expr_text(second, _PREC_CHOICE))
        return _wrap(s, _PREC_CHOICE, prec)
    if t is Star:
        return _wrap("%s*" % expr_text(e.inner, _PREC_ATOM), _PREC_POSTFIX, prec)
    if t is Not:
        return _wrap("!%s" % expr_text(e.inner, _PREC_PREFIX), _PREC_PREFIX, prec)
    if t is Action:
        label = e.ref.label
        if label == "drop":
            return _wrap("~%s" % expr_text(e.inner, _PREC_PREFIX),
                         _PREC_PREFIX, prec)
        if label == "tuple2str":
            chain = terminal_chain(e.inner)
            if chain is not None:
                return _quote_literal(chain)
            return expr_text(e.inner, prec)
        if label == "cons":
            inner = e.inner
            if (type(inner) is Seq and type(inner.right) is Star
                    and inner.right.inner is inner.left):
                return _wrap("%s+" % expr_text(inner.left, _PREC_ATOM),
                             _PREC_POSTFIX, prec)
            return expr_text(inner, prec)
        # some/none are handled at the enclosing Choice; tree shapers and
        # embedder actions are transparent in the textual projection.
        return expr_text(e.inner, prec)
    raise TypeError("not a parsing expression: %r" % (e,))


def _wrap(s: str, here: int, outer: int) -> str:
    return "(%s)" % s if here < outer else s
