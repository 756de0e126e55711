"""Parsing-expression algebra, grammars, and canonical text.

The core constructors are Empty, AnyChar, Terminal, Range, NonTerminal,
Seq, Choice, Star, Not and Action, and every expression is built from
them alone.  The derived operators (Literal, Plus, Optional, And,
CharClass, Drop) are functions that return their core expansion.

Expressions are immutable and hash-consed: building a node equal in
structure to a live one returns that node, so equality is identity and
takes constant time at any depth.  An Action node is keyed by its inner
expression and by its ref's label, function and ``span_aware`` flag, or
by its rule for a node collector (NodeRef).

The terminal alphabet is 8-bit bytes; grammar text and parser input are
encoded as UTF-8 and matched byte by byte.
"""

from __future__ import annotations

import threading
from _weakref import _remove_dead_weakref
from types import MappingProxyType
from typing import Callable, Iterable, Iterator
from weakref import KeyedRef

from .values import (Lst, Opt as OptV, Str, TreeNode, Tup, UNIT, Value,
                     tuple_items)


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


class ActionRef:
    """Named value transformer attached to an expression.

    Refs compare by identity.  An Action node is keyed by the label,
    the callable (by identity) and ``span_aware`` of its ref, so refs
    that differ in any of them never share a node.  ``span_aware``
    marks the built-in tree shapers, which receive ``fn(value, start,
    end)``; embedder actions are total ``Value -> Value`` functions.
    A built-in ref pickles by its name here, so it unpickles as itself.
    """

    __slots__ = ("label", "fn", "span_aware", "__weakref__")

    def __init__(self, label: str, fn: Callable, span_aware: bool = False):
        self.label = label
        self.fn = fn
        self.span_aware = span_aware

    def __reduce__(self):
        return _BUILTIN_NAMES.get(self) or (
            ActionRef, (self.label, self.fn, self.span_aware))

    def __repr__(self):
        return "ActionRef(%r)" % self.label


class NodeRef(ActionRef):
    """The node collector of rule ``rule``, a tree shaper.

    Collectors are known by this type and their rule, never by their
    label, which is for display: an Action node over a collector is
    keyed by its rule, so the collectors of one rule over one body are
    one node.  A collector pickles as its rule.  Raises ValueError for
    the rule "", since a node of that name would read as a leaf.
    """

    __slots__ = ("rule",)

    def __init__(self, rule: str):
        if not rule:
            raise ValueError("a node collector needs a rule name")
        self.label = "tree.node:" + rule
        self.span_aware = True
        self.rule = rule

    # The collector is a method, which shadows ActionRef's ``fn`` slot:
    # a collector holds no function object of its own.
    def fn(self, v, start, end):
        """Collect the TreeNode children out of a production's raw value.

        Walks pairs and lists in parse order, keeps nodes, and coalesces
        adjacent leaves; Unit and other scalars carry no tree content.
        One iterative pass.  The oracle runs it, and so does a value-mode
        parse; a tree-mode parse builds the same nodes itself (see
        trx.interp).
        """
        children = []
        stack = [v]
        while stack:
            x = stack.pop()
            t = type(x)
            if t is Tup or t is Lst:
                stack += reversed(x.items)
            elif t is TreeNode:
                if (x.rule == "" and children
                        and (last := children[-1]).rule == ""
                        and last.end == x.start):
                    children[-1] = TreeNode("", last.start, x.end, ())
                else:
                    children.append(x)
        return TreeNode(self.rule, start, end, tuple(children))

    def __reduce__(self):
        return NodeRef, (self.rule,)


#: Every live expression node, by its class and fields: a plain dict of
#: weak references that carry their key, so a node goes when the last
#: grammar or expression holding it goes, and its reference's callback
#: then drops the entry.  A lookup takes no lock.  A new node is made
#: outside the lock and entered under INTERN_LOCK only if no live node
#: of its key has appeared meanwhile.  The callback removes an entry
#: atomically and only while it still holds a dead reference, so it
#: never drops a node entered in its place.
_NODES = {}
INTERN_LOCK = threading.Lock()


def _drop_dead(ref, nodes=_NODES, remove=_remove_dead_weakref):
    remove(nodes, ref.key)


def _intern(cls, fields: tuple, key: tuple):
    """The live node of ``key``, made of ``fields`` if there is none."""
    ref = _NODES.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    if (len(fields) != len(cls.__slots__)
            or not all(map(isinstance, fields, cls._kinds))):
        raise TypeError("bad %s%r" % (cls.__name__, fields))
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(node, name, value)
    with INTERN_LOCK:
        ref = _NODES.get(key)
        live = None if ref is None else ref()
        if live is not None:
            return live
        _NODES[key] = KeyedRef(node, _drop_dead, key)
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
        return _expr_from_table, (_node_table((self,))[0],)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        # The node is its own copy.
        return self

    def __repr__(self):
        return expr_text(self)


def _node_table(roots) -> tuple:
    """A flat post-order table of the nodes under ``roots``, and the index
    of each root in it, so that pickle handles expressions of any depth.
    A record is a node's class and fields, with each child expression
    given by its index in the table; a node held twice is one record."""
    index = {}
    table = []
    stack = list(roots)
    while stack:
        e = stack[-1]
        if e in index:
            stack.pop()
            continue
        fields = [getattr(e, f) for f in e.__slots__]
        kids = [x for x in fields if isinstance(x, Expr) and x not in index]
        if kids:
            stack += kids
            continue
        stack.pop()
        index[e] = len(table)
        table.append((type(e), *[index[x] if isinstance(x, Expr) else x
                                 for x in fields]))
    return table, [index[r] for r in roots]


def _nodes_from_table(table: list) -> list:
    """The nodes of a _node_table, rebuilt bottom up through the intern
    table, so that each is the live node if there is one."""
    nodes = []
    for cls, *fields in table:
        nodes.append(cls(*[nodes[x] if kind is Expr else x
                           for kind, x in zip(cls._kinds, fields)]))
    return nodes


def _expr_from_table(table: list) -> Expr:
    """The expression Expr.__reduce__ wrote: the last node, in post-order."""
    return _nodes_from_table(table)[-1]


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
        # A collector by its rule.  Any other ref by its function's
        # identity, so that any callable serves; the node holds it, so
        # its id is not reused while the node lives.
        return _intern(cls, (inner, ref), (cls, inner, NodeRef, ref.rule)
                       if type(ref) is NodeRef else
                       (cls, inner, ref.label, id(ref.fn), ref.span_aware))


EMPTY = Empty()
ANY = AnyChar()

#: What a tree-shaped grammar's leaves stand directly over.
LEAF_MATCHERS = (Terminal, Range, AnyChar)


# ---------------------------------------------------------------------------
# Derived operators: functions that build their core expansion.

def _tuple2str(v: Value) -> Value:
    return Str(bytes(item.code for item in tuple_items(v)))


def _cons(v: Value) -> Value:
    head, tail = v.items
    return Lst((head, *tail.items))


def _some(v: Value) -> Value:
    return OptV(v)


def _none(v: Value) -> Value:
    return OptV(None)


def _drop(v: Value) -> Value:
    return UNIT


def _leaf_fn(v, start, end):
    return TreeNode("", start, end, ())


TUPLE2STR = ActionRef("tuple2str", _tuple2str)
CONS = ActionRef("cons", _cons)
SOME = ActionRef("some", _some)
NONE = ActionRef("none", _none)
DROP = ActionRef("drop", _drop)
#: The tree shaper of a terminal, range or any-char: a leaf span.
LEAF = ActionRef("tree.leaf", _leaf_fn, span_aware=True)

# The built-in actions above are recognised by identity, and node
# collectors by type, never by label: an embedder's ActionRef with one
# of their labels is an ordinary action.
_BUILTIN_NAMES = {TUPLE2STR: "TUPLE2STR", CONS: "CONS", SOME: "SOME",
                  NONE: "NONE", DROP: "DROP", LEAF: "LEAF"}


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
    """Preorder walk over e and its sub-expressions, each yielded once.

    A node met again (``x+`` holds one ``x`` in two places) is skipped
    with everything under it, which its first visit yielded already.
    """
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
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


def _walk(step, root: Expr, memo: dict):
    """The result of ``step`` for ``root``, each expression's result kept
    in ``memo``.

    ``step(e)`` is a generator: it yields each sub-expression whose
    result it needs, is sent that result, and returns e's own.  Steps
    wait on an explicit stack, so an expression of any depth is walked,
    and a node met again (``x+`` holds one ``x`` twice) is looked up in
    ``memo``, not walked again.
    """
    if root in memo:
        return memo[root]
    gen = step(root)
    stack = []
    out = None
    while True:
        try:
            sub = gen.send(out)
        except StopIteration as done:
            memo[root] = out = done.value
            if not stack:
                return out
            root, gen = stack.pop()
            continue
        if sub in memo:
            out = memo[sub]
        else:
            stack.append((root, gen))
            root, gen, out = sub, step(sub), None


class Grammar:
    """A finite nonterminal table with a designated start symbol.

    Immutable after construction; safe to share between threads.  The
    production map is total: every body is an expression, and every
    NonTerminal referenced anywhere resolves to a rule, and so does the
    start symbol.  The constructor raises TypeError or
    UndefinedNonterminal, in rule order, then UnknownStart, otherwise.

    ``tree_shaped`` is derived from the productions: it is set when
    every rule body is the rule's own node collector (see is_collector)
    and every other action, outside ``!`` and ``~`` where values are
    discarded, is a drop, a collector, or a leaf directly over a
    terminal, range or any-char.  ``trx.meta.tree_wrap`` and the .peg
    loader build such grammars.  The interpreter builds their trees
    directly, and runs no action of theirs; it runs any other grammar
    in value mode, its collectors and leaves as ordinary actions.

    A grammar pickles as its productions and start, and copies as
    itself, as its expressions do.
    """

    __slots__ = ("nonterminals", "productions", "start", "tree_shaped")

    def __init__(self, productions: dict, start: str):
        productions = dict(productions)
        tree_shaped = _check_rules(productions)
        if start not in productions:
            raise UnknownStart(start)
        self.nonterminals = tuple(productions)
        self.productions = MappingProxyType(productions)
        self.start = start
        self.tree_shaped = tree_shaped

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError("Grammar is immutable; %s is set" % name)
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError("Grammar is immutable")

    def body(self, name: str) -> Expr:
        return self.productions[name]

    def __reduce__(self):
        # One node table for all the rule bodies, so that a node several
        # rules hold is written once.
        table, roots = _node_table(self.productions.values())
        return _grammar_from_table, (table, self.nonterminals, roots,
                                     self.start)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __eq__(self, other):
        return (isinstance(other, Grammar)
                and other.start == self.start
                and other.productions == self.productions)

    def __hash__(self):
        return hash((self.start, frozenset(self.productions)))

    def __repr__(self):
        return "Grammar(%d rules, start=%r)" % (len(self.nonterminals), self.start)


def is_collector(body: Expr, name: str) -> bool:
    """Whether ``body`` is rule ``name``'s own node collector."""
    return (type(body) is Action and type(body.ref) is NodeRef
            and body.ref.rule == name)


def _check_rules(productions: dict) -> bool:
    """Whether the grammar is tree-shaped (see Grammar).

    Raise TypeError for a body that is not an expression, and
    UndefinedNonterminal for a reference to a missing rule, the first in
    rule order and in preorder within the rule.  One walk over each body
    does all three; it goes into the insides of ``!`` and ``~``, and
    into everything once the grammar is not tree-shaped, for names only.
    """
    tree_shaped = True
    seen = {}                       # node -> whether its actions were checked
    for name, body in productions.items():
        if not isinstance(body, Expr):
            raise TypeError("not a parsing expression: %r" % (body,))
        tree_shaped = tree_shaped and is_collector(body, name)
        stack = [(body, tree_shaped)]
        while stack:
            e, shaped = stack.pop()
            if e in seen and (seen[e] or not shaped):
                continue
            seen[e] = shaped
            t = type(e)
            if t is NonTerminal:
                if e.name not in productions:
                    raise UndefinedNonterminal(e.name, name)
            elif t is Seq:
                stack += ((e.right, shaped), (e.left, shaped))
            elif t is Choice:
                stack += ((e.second, shaped), (e.first, shaped))
            elif t is Star:
                stack.append((e.inner, shaped))
            elif t is Not:
                stack.append((e.inner, False))
            elif t is Action:
                ref = e.ref
                if shaped and not (ref is DROP or type(ref) is NodeRef
                                   or (ref is LEAF and
                                       type(e.inner) in LEAF_MATCHERS)):
                    tree_shaped = shaped = False
                stack.append((e.inner, shaped and ref is not DROP))
    return tree_shaped


def _grammar_from_table(table: list, names: tuple, roots: list,
                        start: str) -> Grammar:
    """The grammar Grammar.__reduce__ wrote."""
    nodes = _nodes_from_table(table)
    return Grammar({name: nodes[i] for name, i in zip(names, roots)}, start)


def build_grammar(rules: Iterable, start: str) -> Grammar:
    """Assemble rules into a Grammar, checking totality.

    ``rules`` is an iterable of (name, expression) pairs; the production
    map is keyed in rule order but compares order-independently.  Raises
    DuplicateRule for a name met again, then what the Grammar
    constructor raises.
    """
    productions = {}
    for name, body in rules:
        if name in productions:
            raise DuplicateRule(name)
        productions[name] = body
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
    back into their textual forms, and so is ``e e*`` with one ``e``
    node, cons action or not, as ``e+``.  The built-in actions are
    recognised by identity; other actions, embedders' ones with the
    same labels included, are not expressible in the textual format
    and print as their inner expression.  Expressions of any depth
    print: pieces of text and (expression, precedence) pairs still to
    print wait on an explicit stack.
    """
    out = []
    todo = [(e, prec)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, prec = item
        parts, here = _text_parts(e, prec)
        if here < prec:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)


def _text_parts(e: Expr, prec: int) -> tuple:
    """The pieces of e's text, strings and (expression, precedence)
    pairs, and e's own precedence; ``prec`` is the context's, which a
    transparent action passes on."""
    t = type(e)
    if t is Empty:
        return ["eps"], _PREC_ATOM
    if t is AnyChar:
        return ["."], _PREC_ATOM
    if t is Terminal:
        # A one-character class reparses to a bare Terminal in every
        # context; a quoted literal would pick up the string-collecting
        # action.
        return ["[%s]" % _quote_char(e.code, _CLASS_ESCAPES)], _PREC_ATOM
    if t is Range:
        return ["[%s-%s]" % (_quote_char(e.lo, _CLASS_ESCAPES),
                             _quote_char(e.hi, _CLASS_ESCAPES))], _PREC_ATOM
    if t is NonTerminal:
        return [e.name], _PREC_ATOM
    if t is Seq:
        left, right = e.left, e.right
        if type(right) is Star and right.inner is left:
            return [(left, _PREC_ATOM), "+"], _PREC_POSTFIX
        return [(left, _PREC_PREFIX), " ", (right, _PREC_SEQ)], _PREC_SEQ
    if t is Choice:
        first, second = e.first, e.second
        if (type(first) is Action and type(second) is Action
                and first.ref is SOME and second.ref is NONE):
            return [(first.inner, _PREC_ATOM), "?"], _PREC_POSTFIX
        return ([(first, _PREC_SEQ), " / ", (second, _PREC_CHOICE)],
                _PREC_CHOICE)
    if t is Star:
        return [(e.inner, _PREC_ATOM), "*"], _PREC_POSTFIX
    if t is Not:
        return ["!", (e.inner, _PREC_PREFIX)], _PREC_PREFIX
    if t is Action:
        if e.ref is DROP:
            return ["~", (e.inner, _PREC_PREFIX)], _PREC_PREFIX
        if e.ref is TUPLE2STR:
            chain = terminal_chain(e.inner)
            if chain is not None:
                return [_quote_literal(chain)], _PREC_ATOM
        # some/none are handled at the enclosing Choice and cons at its
        # Seq; tree shapers and embedder actions are transparent in the
        # textual projection.
        return [(e.inner, prec)], prec
    raise TypeError("not a parsing expression: %r" % (e,))
