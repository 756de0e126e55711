"""Parsing-expression algebra, grammars, and surface-to-core lowering.

The core constructors are Empty, AnyChar, Terminal, Range, NonTerminal,
Seq, Choice, Star, Not and Action; everything the analyses and the
interpreter touch is built from these.  The surface constructors
(Literal, Plus, Optional, And, CharClass, Drop) are sugar that
``desugar`` rewrites into the core.

Expressions are immutable, compare structurally, and cache their hash
at construction so they can serve as set and table keys.  Equality of
Action nodes looks at the action *label* only, never the function.

The terminal alphabet is 8-bit bytes; grammar text and parser input are
encoded as UTF-8 and matched byte by byte.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Iterator

from .values import Lst, Opt as OptV, Str, UNIT, Value, tuple_items


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

    Identity (equality, hashing, printing) is the label alone; the
    callable never participates.  ``span_aware`` is an internal flag for
    the built-in tree shapers, which receive ``fn(value, start, end)``
    instead of ``fn(value)``; embedder-supplied actions are plain
    ``Value -> Value`` functions that must be total.
    """

    __slots__ = ("label", "fn", "span_aware")

    def __init__(self, label: str, fn: Callable, span_aware: bool = False):
        self.label = label
        self.fn = fn
        self.span_aware = span_aware

    def __eq__(self, other):
        return isinstance(other, ActionRef) and other.label == self.label

    def __hash__(self):
        return hash(("action", self.label))

    def __repr__(self):
        return "ActionRef(%r)" % self.label


class Expr:
    """Base class for all expression nodes (core and surface)."""

    __slots__ = ("_h",)

    def __hash__(self):
        return self._h

    def __repr__(self):
        return expr_text(self)


class Empty(Expr):
    __slots__ = ()

    def __init__(self):
        self._h = hash("pe.empty")

    def __eq__(self, other):
        return isinstance(other, Empty)

    __hash__ = Expr.__hash__


class AnyChar(Expr):
    __slots__ = ()

    def __init__(self):
        self._h = hash("pe.any")

    def __eq__(self, other):
        return isinstance(other, AnyChar)

    __hash__ = Expr.__hash__


class Terminal(Expr):
    __slots__ = ("code",)

    def __init__(self, c):
        self.code = _byte(c)
        self._h = hash(("pe.term", self.code))

    def __eq__(self, other):
        return self is other or (type(other) is Terminal
                                 and other.code == self.code)

    __hash__ = Expr.__hash__


class Range(Expr):
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = _byte(lo)
        self.hi = _byte(hi)
        if self.lo > self.hi:
            raise InvalidRange(self.lo, self.hi)
        self._h = hash(("pe.range", self.lo, self.hi))

    def __eq__(self, other):
        return self is other or (type(other) is Range
                                 and other.lo == self.lo and other.hi == self.hi)

    __hash__ = Expr.__hash__


class NonTerminal(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._h = hash(("pe.nt", name))

    def __eq__(self, other):
        return self is other or (type(other) is NonTerminal
                                 and other.name == self.name)

    __hash__ = Expr.__hash__


class Seq(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._h = hash(("pe.seq", left._h, right._h))

    def __eq__(self, other):
        return self is other or (type(other) is Seq and other._h == self._h
                                 and other.left == self.left
                                 and other.right == self.right)

    __hash__ = Expr.__hash__


class Choice(Expr):
    __slots__ = ("first", "second")

    def __init__(self, first: Expr, second: Expr):
        self.first = first
        self.second = second
        self._h = hash(("pe.choice", first._h, second._h))

    def __eq__(self, other):
        return self is other or (type(other) is Choice and other._h == self._h
                                 and other.first == self.first
                                 and other.second == self.second)

    __hash__ = Expr.__hash__


class Star(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr):
        self.inner = inner
        self._h = hash(("pe.star", inner._h))

    def __eq__(self, other):
        return self is other or (type(other) is Star
                                 and other.inner == self.inner)

    __hash__ = Expr.__hash__


class Not(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr):
        self.inner = inner
        self._h = hash(("pe.not", inner._h))

    def __eq__(self, other):
        return self is other or (type(other) is Not
                                 and other.inner == self.inner)

    __hash__ = Expr.__hash__


class Action(Expr):
    __slots__ = ("inner", "ref")

    def __init__(self, inner: Expr, ref: ActionRef):
        self.inner = inner
        self.ref = ref
        self._h = hash(("pe.act", inner._h, ref.label))

    def __eq__(self, other):
        return self is other or (type(other) is Action and other._h == self._h
                                 and other.ref == self.ref
                                 and other.inner == self.inner)

    __hash__ = Expr.__hash__


# ---------------------------------------------------------------------------
# Surface (derived) constructors.

class Literal(Expr):
    __slots__ = ("text",)

    def __init__(self, text):
        if isinstance(text, str):
            text = text.encode("utf-8")
        self.text = bytes(text)
        self._h = hash(("pe.lit", self.text))

    def __eq__(self, other):
        return self is other or (type(other) is Literal
                                 and other.text == self.text)

    __hash__ = Expr.__hash__


class Plus(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr):
        self.inner = inner
        self._h = hash(("pe.plus", inner._h))

    def __eq__(self, other):
        return self is other or (type(other) is Plus
                                 and other.inner == self.inner)

    __hash__ = Expr.__hash__


class Optional(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr):
        self.inner = inner
        self._h = hash(("pe.opt", inner._h))

    def __eq__(self, other):
        return self is other or (type(other) is Optional
                                 and other.inner == self.inner)

    __hash__ = Expr.__hash__


class And(Expr):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr):
        self.inner = inner
        self._h = hash(("pe.and", inner._h))

    def __eq__(self, other):
        return self is other or (type(other) is And
                                 and other.inner == self.inner)

    __hash__ = Expr.__hash__


class CharClass(Expr):
    """Items are single byte codes (ints) or explicit (lo, hi) ranges.

    The distinction is kept because it survives desugaring: a single
    character becomes a Terminal, an explicit range a Range, even a
    degenerate one.
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable):
        norm = []
        for item in items:
            if isinstance(item, tuple):
                lo, hi = item
                norm.append((_byte(lo), _byte(hi)))
            else:
                norm.append(_byte(item))
        self.items = tuple(norm)
        self._h = hash(("pe.class", self.items))

    def __eq__(self, other):
        return self is other or (type(other) is CharClass
                                 and other.items == self.items)

    __hash__ = Expr.__hash__


class Drop(Expr):
    """Discard the inner value, producing Unit (written ``~e``)."""

    __slots__ = ("inner",)

    def __init__(self, inner: Expr):
        self.inner = inner
        self._h = hash(("pe.drop", inner._h))

    def __eq__(self, other):
        return self is other or (type(other) is Drop
                                 and other.inner == self.inner)

    __hash__ = Expr.__hash__


EMPTY = Empty()
ANY = AnyChar()

CORE_TYPES = (Empty, AnyChar, Terminal, Range, NonTerminal,
              Seq, Choice, Star, Not, Action)


# ---------------------------------------------------------------------------
# Built-in actions used by desugaring.

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


def desugar(e: Expr) -> Expr:
    """Rewrite surface constructors into the core algebra.

    Idempotent on core expressions.  Literals become right-nested
    terminal sequences under a string-collecting action, ``e+`` becomes
    ``e e*`` with a cons action, ``e?`` becomes ``e / eps`` with
    Some/None wrapping, ``&e`` becomes ``!!e``, character classes
    become right-nested choices of ranges and terminals, and ``~e``
    attaches the unit-producing drop action.
    """
    t = type(e)
    if t in (Empty, AnyChar, Terminal, Range, NonTerminal):
        return e
    if t is Seq:
        left, right = desugar(e.left), desugar(e.right)
        return e if left is e.left and right is e.right else Seq(left, right)
    if t is Choice:
        first, second = desugar(e.first), desugar(e.second)
        return e if first is e.first and second is e.second else Choice(first, second)
    if t is Star:
        inner = desugar(e.inner)
        return e if inner is e.inner else Star(inner)
    if t is Not:
        inner = desugar(e.inner)
        return e if inner is e.inner else Not(inner)
    if t is Action:
        inner = desugar(e.inner)
        return e if inner is e.inner else Action(inner, e.ref)
    if t is Literal:
        if not e.text:
            raise EmptyLiteral()
        chain: Expr = Terminal(e.text[-1])
        for b in reversed(e.text[:-1]):
            chain = Seq(Terminal(b), chain)
        return Action(chain, TUPLE2STR)
    if t is Plus:
        inner = desugar(e.inner)
        return Action(Seq(inner, Star(inner)), CONS)
    if t is Optional:
        return Choice(Action(desugar(e.inner), SOME), Action(EMPTY, NONE))
    if t is And:
        return Not(Not(desugar(e.inner)))
    if t is CharClass:
        if not e.items:
            raise EmptyClass()
        alts = [Range(item[0], item[1]) if isinstance(item, tuple)
                else Terminal(item)
                for item in e.items]
        out = alts[-1]
        for alt in reversed(alts[:-1]):
            out = Choice(alt, out)
        return out
    if t is Drop:
        return Action(desugar(e.inner), DROP)
    raise TypeError("not a parsing expression: %r" % (e,))


def iter_subexprs(e: Expr) -> Iterator[Expr]:
    """Preorder walk over e and its sub-expressions (core only)."""
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
    """

    __slots__ = ("nonterminals", "productions", "start", "tree_shaped")

    def __init__(self, productions: dict, start: str, tree_shaped: bool = False):
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


def build_grammar(rules: Iterable, start: str) -> Grammar:
    """Desugar and assemble rules into a Grammar, checking totality.

    ``rules`` is an iterable of (name, expression) pairs; the production
    map is keyed in rule order but compares order-independently.
    """
    productions = {}
    for name, body in rules:
        if name in productions:
            raise DuplicateRule(name)
        productions[name] = desugar(body)
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


def _literal_chain_text(e: Expr) -> bytes | None:
    """Recover the byte string of a right-nested terminal chain, if any."""
    out = []
    while type(e) is Seq and type(e.left) is Terminal:
        out.append(e.left.code)
        e = e.right
    if type(e) is Terminal:
        out.append(e.code)
        return bytes(out)
    return None


def expr_text(e: Expr, prec: int = _PREC_CHOICE) -> str:
    """Canonical text of an expression in .peg surface syntax.

    Tree-shaping wrappers print as their inner expression; drop prints
    as ``~``; the literal / plus / optional desugarings are folded back
    into their surface forms.  Other action labels are not expressible
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
    if t is CharClass:
        parts = []
        for item in e.items:
            if isinstance(item, tuple):
                parts.append("%s-%s" % (_quote_char(item[0], _CLASS_ESCAPES),
                                        _quote_char(item[1], _CLASS_ESCAPES)))
            else:
                parts.append(_quote_char(item, _CLASS_ESCAPES))
        return "[%s]" % "".join(parts)
    if t is Literal:
        return _quote_literal(e.text)
    if t is Seq:
        s = "%s %s" % (expr_text(e.left, _PREC_PREFIX),
                       expr_text(e.right, _PREC_SEQ))
        return _wrap(s, _PREC_SEQ, prec)
    if t is Choice:
        first, second = e.first, e.second
        if (type(first) is Action and first.ref == SOME
                and type(second) is Action and second.ref == NONE):
            return _wrap("%s?" % expr_text(first.inner, _PREC_ATOM),
                         _PREC_POSTFIX, prec)
        s = "%s / %s" % (expr_text(first, _PREC_SEQ),
                         expr_text(second, _PREC_CHOICE))
        return _wrap(s, _PREC_CHOICE, prec)
    if t is Star:
        return _wrap("%s*" % expr_text(e.inner, _PREC_ATOM), _PREC_POSTFIX, prec)
    if t is Plus:
        return _wrap("%s+" % expr_text(e.inner, _PREC_ATOM), _PREC_POSTFIX, prec)
    if t is Optional:
        return _wrap("%s?" % expr_text(e.inner, _PREC_ATOM), _PREC_POSTFIX, prec)
    if t is Not:
        return _wrap("!%s" % expr_text(e.inner, _PREC_PREFIX), _PREC_PREFIX, prec)
    if t is And:
        return _wrap("&%s" % expr_text(e.inner, _PREC_PREFIX), _PREC_PREFIX, prec)
    if t is Drop:
        return _wrap("~%s" % expr_text(e.inner, _PREC_PREFIX), _PREC_PREFIX, prec)
    if t is Action:
        label = e.ref.label
        if label == "drop":
            return _wrap("~%s" % expr_text(e.inner, _PREC_PREFIX),
                         _PREC_PREFIX, prec)
        if label == "tuple2str":
            chain = _literal_chain_text(e.inner)
            if chain is not None:
                return _quote_literal(chain)
            return expr_text(e.inner, prec)
        if label == "cons":
            inner = e.inner
            if (type(inner) is Seq and type(inner.right) is Star
                    and inner.right.inner == inner.left):
                return _wrap("%s+" % expr_text(inner.left, _PREC_ATOM),
                             _PREC_POSTFIX, prec)
            return expr_text(inner, prec)
        # some/none are handled at the enclosing Choice; tree shapers and
        # embedder actions are transparent in the textual projection.
        return expr_text(e.inner, prec)
    raise TypeError("not a parsing expression: %r" % (e,))


def _wrap(s: str, here: int, outer: int) -> str:
    return "(%s)" % s if here < outer else s
