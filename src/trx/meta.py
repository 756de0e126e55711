r"""The textual .peg grammar format, bootstrapped through the engine.

The loader is the interpreter itself: a built-in grammar for the .peg
syntax parses grammar text into a tree, and the tree is lowered
straight to tree-shaped expressions, each node built once, which are
assembled into a tree-shaped Grammar.  The bundled peg.peg file is the
same grammar written in its own notation; loading it must reproduce
the built-in grammar exactly, node for node.

Grammars loaded from text carry only the built-in tree shapers: every
nonterminal produces a TreeNode, terminals/classes/literals contribute
leaf spans (adjacent leaves coalesce), and ``~`` drops a subtree.  The
lowering gives what tree_wrap gives for the value-mode form of the
rules: the value-shaping actions of the derived operators (tuple2str,
cons, some/none) are left out, since the tree collector subsumes
them, except inside ``!``, ``&`` and ``~``, whose values are
discarded and which stay in value mode.  Arbitrary semantic actions
are available only through the embedded API, and tree_wrap shapes
their grammars.

Format summary (see the bundled peg.peg for the authoritative version):
rules ``name <- expr ;``; choice ``/``; sequence by juxtaposition;
postfix ``*`` ``+`` ``?`` bind tightest, then prefix ``!`` ``&`` ``~``,
then sequence, then choice; literals in single or double quotes with
escapes ``\n \t \r \\ \' \" \xHH``; classes ``[a-z0-9_]`` with ``\]``;
``.`` is any char; ``eps`` the empty expression; ``#`` starts a line
comment; the first rule is the start unless ``@start name ;`` appears.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator

from .analysis import Certificate, certify
from .exprs import (ANY, CONS, INTERN_LOCK, LEAF, NONE,
                    NODE_PREFIX as _NODE_PREFIX, SOME, TUPLE2STR, Action,
                    ActionRef, And, AnyChar, CharClass, Choice, Drop, EMPTY,
                    EmptyLiteral, Expr, Grammar, Literal, NonTerminal, Not,
                    Optional, Plus, Range, Seq, Star, Terminal,
                    _right_nested, _walk, build_grammar, expr_text)
from .interp import parse
from .values import Lst, Record, TreeNode, Tup


class PegSyntaxError(Exception):
    """Grammar text rejected by the meta-grammar, with the farthest
    failure position as line:column."""

    def __init__(self, data: bytes, pos: int, path: str | None = None):
        self.pos = max(pos, 0)
        self.path = path
        self.line, self.col = line_col(data, self.pos)
        snippet = _context_line(data, self.pos)
        where = "%s:%d:%d" % (path or "<grammar>", self.line, self.col)
        super().__init__("%s: syntax error\n%s" % (where, snippet))


def line_col(data: bytes, pos: int) -> tuple[int, int]:
    """1-based line and byte column of a byte offset."""
    pos = min(pos, len(data))
    line = data.count(b"\n", 0, pos) + 1
    nl = data.rfind(b"\n", 0, pos)
    return line, pos - nl


def _context_line(data: bytes, pos: int) -> str:
    start = data.rfind(b"\n", 0, pos) + 1
    end = data.find(b"\n", pos)
    if end < 0:
        end = len(data)
    text = data[start:end].decode("utf-8", "replace")
    caret = " " * (pos - start) + "^"
    return "  %s\n  %s" % (text, caret)


# ---------------------------------------------------------------------------
# Tree shaping.

#: The live collector of each rule name, so that every grammar with a
#: rule of that name shares one ref and equal bodies stay one node.
_NODE_ACTIONS = weakref.WeakValueDictionary()


def node_action(rule: str) -> ActionRef:
    """Collect the TreeNode children out of a production's raw value.

    Walks pairs and lists in parse order, keeps nodes, and coalesces
    adjacent leaves; Unit and other scalars carry no tree content.  One
    iterative pass.  The oracle runs it, and so does a value-mode
    evaluation of these expressions; a certified tree-shaped parse
    does not call it, since the interpreter's tree mode builds the same
    nodes from its children list (see trx.interp).
    """
    def fn(v, start, end):
        children = []
        stack = [v]
        while stack:
            x = stack.pop()
            t = type(x)
            if t is Tup or t is Lst:
                items = x.items
                for i in range(len(items) - 1, -1, -1):
                    stack.append(items[i])
            elif t is TreeNode:
                if (x.rule == "" and children
                        and (last := children[-1]).rule == ""
                        and last.end == x.start):
                    children[-1] = TreeNode("", last.start, x.end, ())
                else:
                    children.append(x)
        return TreeNode(rule, start, end, tuple(children))

    with INTERN_LOCK:
        return _NODE_ACTIONS.setdefault(
            rule, ActionRef(_NODE_PREFIX + rule, fn, span_aware=True))


# The value shapers of the derived operators, which the tree collector
# subsumes.
_STRIPPED = (TUPLE2STR, CONS, SOME, NONE)


def _tree_wrap_step(e: Expr):
    """The tree-shaped form of e: a step of trx.exprs._walk."""
    t = type(e)
    if t in (Terminal, Range, AnyChar):
        return Action(e, LEAF)
    if t is Seq:
        return Seq((yield e.left), (yield e.right))
    if t is Choice:
        return Choice((yield e.first), (yield e.second))
    if t is Star:
        return Star((yield e.inner))
    if t is Action and e.ref in _STRIPPED:
        return (yield e.inner)
    # Empty, NonTerminal, Not (lookahead values are discarded, so the
    # inside of a Not is left untouched) and the other actions, which
    # Grammar(tree_shaped=True) accepts only when they are tree shapers
    # or drops.
    return e


def tree_wrap(g: Grammar) -> Grammar:
    """Install the built-in tree shapers on every production (idempotent).

    Raises ValueError, as Grammar(tree_shaped=True) does, when ``g``
    holds an action other than a built-in one outside ``!`` and ``~``.
    """
    productions = {}
    memo = {}
    for name in g.nonterminals:
        body = g.productions[name]
        if (type(body) is Action and body.ref.label == _NODE_PREFIX + name):
            productions[name] = body
        else:
            productions[name] = Action(_walk(_tree_wrap_step, body, memo),
                                       node_action(name))
    return Grammar(productions, g.start, tree_shaped=True)


# ---------------------------------------------------------------------------
# The built-in meta-grammar (hand-built mirror of grammars/peg.peg).

def _seq(*parts: Expr) -> Expr:
    return _right_nested(parts, Seq)


def _ch(*alts: Expr) -> Expr:
    return _right_nested(alts, Choice)


_IDENT_START = CharClass([("a", "z"), ("A", "Z"), "_"])
_IDENT_CONT = CharClass([("a", "z"), ("A", "Z"), ("0", "9"), "_"])
_HEX = CharClass([("0", "9"), ("a", "f"), ("A", "F")])
_ESC_CODES = CharClass(["n", "t", "r", "'", '"', "[", "]", "\\", "-"])
_WS_CHARS = CharClass([" ", "\t", "\r", "\n"])


def _meta_rules():
    spacing = Drop(NonTerminal("spacing"))

    def quoted(q: str) -> Expr:
        return _seq(Drop(Literal(q)),
                    Star(_ch(NonTerminal("escape"),
                             _seq(Not(Literal(q)), Not(Literal("\\")),
                                  ANY))),
                    Drop(Literal(q)), spacing)

    return [
        ("grammar", _seq(spacing, Plus(NonTerminal("definition")),
                         Not(ANY))),
        ("definition", _ch(NonTerminal("pragma"), NonTerminal("rule"))),
        ("pragma", _seq(Drop(Literal("@start")), spacing,
                        NonTerminal("identifier"), Drop(Literal(";")),
                        spacing)),
        ("rule", _seq(NonTerminal("identifier"), Drop(Literal("<-")),
                      spacing, NonTerminal("expression"),
                      Drop(Literal(";")), spacing)),
        ("expression", _seq(NonTerminal("sequence"),
                            Star(_seq(Drop(Literal("/")), spacing,
                                      NonTerminal("sequence"))))),
        ("sequence", Plus(NonTerminal("prefixed"))),
        ("prefixed", _seq(Star(_ch(NonTerminal("notop"),
                                   NonTerminal("andop"),
                                   NonTerminal("dropop"))),
                          NonTerminal("suffixed"))),
        ("suffixed", _seq(NonTerminal("primary"),
                          Star(_ch(NonTerminal("starop"),
                                   NonTerminal("plusop"),
                                   NonTerminal("questionop"))))),
        ("primary", _ch(NonTerminal("epsilon"),
                        _seq(NonTerminal("identifier"), Not(Literal("<-"))),
                        _seq(Drop(Literal("(")), spacing,
                             NonTerminal("expression"),
                             Drop(Literal(")")), spacing),
                        NonTerminal("literal"), NonTerminal("charclass"),
                        NonTerminal("anychar"))),
        ("notop", _seq(Drop(Literal("!")), spacing)),
        ("andop", _seq(Drop(Literal("&")), spacing)),
        ("dropop", _seq(Drop(Literal("~")), spacing)),
        ("starop", _seq(Drop(Literal("*")), spacing)),
        ("plusop", _seq(Drop(Literal("+")), spacing)),
        ("questionop", _seq(Drop(Literal("?")), spacing)),
        ("epsilon", _seq(Drop(Literal("eps")), Not(_IDENT_CONT), spacing)),
        ("anychar", _seq(Drop(Literal(".")), spacing)),
        ("identifier", _seq(_IDENT_START, Star(_IDENT_CONT), spacing)),
        ("literal", _ch(quoted("'"), quoted('"'))),
        ("charclass", _seq(Drop(Literal("[")),
                           Plus(_seq(Not(Literal("]")),
                                     NonTerminal("classitem"))),
                           Drop(Literal("]")), spacing)),
        ("classitem", _ch(_seq(NonTerminal("classchar"), Drop(Literal("-")),
                               NonTerminal("classchar")),
                          NonTerminal("classchar"))),
        ("classchar", _ch(NonTerminal("escape"),
                          _seq(Not(Literal("]")), Not(Literal("\\")),
                               ANY))),
        ("escape", _seq(Literal("\\"), _ch(_seq(Literal("x"), _HEX, _HEX),
                                           _ESC_CODES))),
        ("spacing", Star(_ch(_WS_CHARS, NonTerminal("comment")))),
        ("comment", _seq(Literal("#"), Star(_seq(Not(Literal("\n")), ANY)))),
    ]


_builtin: tuple[Grammar, Certificate] | None = None


def builtin_meta_grammar() -> tuple[Grammar, Certificate]:
    """The hand-built .peg meta-grammar, tree-shaped and certified."""
    global _builtin
    if _builtin is None:
        g = tree_wrap(build_grammar(_meta_rules(), "grammar"))
        _builtin = (g, certify(g))
    return _builtin


# ---------------------------------------------------------------------------
# Lowering parse trees of .peg text to expressions.

_ESCAPE_DECODE = {
    ord("n"): 0x0A, ord("t"): 0x09, ord("r"): 0x0D,
    ord("'"): 0x27, ord('"'): 0x22, ord("["): 0x5B, ord("]"): 0x5D,
    ord("\\"): 0x5C, ord("-"): 0x2D,
}


def _decode_escape(raw: bytes) -> int:
    if raw[1:2] == b"x":
        return int(raw[2:4], 16)
    return _ESCAPE_DECODE[raw[1]]


def _leaf_bytes(node: TreeNode, data: bytes) -> bytes:
    return b"".join(data[c.start:c.end] for c in node.children if c.is_leaf())


def _ident_text(node: TreeNode, data: bytes) -> str:
    return _leaf_bytes(node, data).decode("ascii")


def _lower_literal(node: TreeNode, data: bytes, tree: bool) -> Expr:
    out = bytearray()
    for child in node.children:
        if child.is_leaf():
            out.extend(data[child.start:child.end])
        else:  # escape
            out.append(_decode_escape(data[child.start:child.end]))
    if not tree:
        return Literal(out)
    if not out:
        raise EmptyLiteral()
    return _right_nested([Action(Terminal(b), LEAF) for b in out], Seq)


def _classchar_byte(node: TreeNode, data: bytes) -> int:
    child = node.children[0]
    if child.is_leaf():
        return data[child.start]
    return _decode_escape(data[child.start:child.end])


def _lower_charclass(node: TreeNode, data: bytes, tree: bool) -> Expr:
    items = []
    for item in node.children:  # classitem nodes
        chars = [_classchar_byte(c, data) for c in item.children]
        if len(chars) == 1:
            items.append(chars[0])
        else:
            items.append((chars[0], chars[1]))
    if not tree:
        return CharClass(items)
    return _right_nested([Action(Range(*item) if type(item) is tuple
                                 else Terminal(item), LEAF)
                          for item in items], Choice)


def _lower_primary(node: TreeNode, data: bytes, tree: bool) -> Expr:
    child = node.children[0]
    rule = child.rule
    if rule == "epsilon":
        return EMPTY
    if rule == "identifier":
        return NonTerminal(_ident_text(child, data))
    if rule == "expression":
        return _lower_expression(child, data, tree)
    if rule == "literal":
        return _lower_literal(child, data, tree)
    if rule == "charclass":
        return _lower_charclass(child, data, tree)
    if rule == "anychar":
        return Action(ANY, LEAF) if tree else ANY
    raise AssertionError("unexpected primary %r" % rule)


# The postfix operators in value mode and in tree shape, where the
# value shapers are left out: ``e+`` is ``e e*`` (one ``e`` object in
# both places) and ``e?`` is ``e / eps``.  The prefix operators are one
# table, since ``!``, ``&`` and ``~`` keep their value-mode insides.
_POSTFIX = {"starop": Star, "plusop": Plus, "questionop": Optional}
_TREE_POSTFIX = {"starop": Star,
                 "plusop": lambda e: Seq(e, Star(e)),
                 "questionop": lambda e: Choice(e, EMPTY)}
_PREFIX = {"notop": Not, "andop": And, "dropop": Drop}


def _lower_suffixed(node: TreeNode, data: bytes, tree: bool) -> Expr:
    children = node.children
    e = _lower_primary(children[0], data, tree)
    postfix = _TREE_POSTFIX if tree else _POSTFIX
    for op in children[1:]:
        e = postfix[op.rule](e)
    return e


def _lower_prefixed(node: TreeNode, data: bytes, tree: bool) -> Expr:
    children = node.children
    # Under a prefix operator the value-mode form, as tree_wrap leaves it.
    e = _lower_suffixed(children[-1], data, tree and len(children) == 1)
    for op in reversed(children[:-1]):
        e = _PREFIX[op.rule](e)
    return e


def _lower_sequence(node: TreeNode, data: bytes, tree: bool) -> Expr:
    return _right_nested([_lower_prefixed(c, data, tree)
                          for c in node.children], Seq)


def _lower_expression(node: TreeNode, data: bytes, tree: bool) -> Expr:
    """The expression of a parse-tree node: the tree-shaped form, which
    tree_wrap gives, when ``tree`` is set, else the value-mode form.
    Five calls per parenthesis level."""
    return _right_nested([_lower_sequence(c, data, tree)
                          for c in node.children], Choice)


def _line_cols(data: bytes,
               offsets: Iterable[int]) -> Iterator[tuple[int, int]]:
    """line_col of each of ascending byte offsets, in one forward pass."""
    line, nl, done = 1, -1, 0
    for pos in offsets:
        line += data.count(b"\n", done, pos)
        nl = max(nl, data.rfind(b"\n", done, pos))
        done = pos
        yield line, pos - nl


class GrammarSource(Record):
    """A grammar resolved from text, with source spans for diagnostics.

    ``rule_positions`` maps each rule name to the (line, column) of its
    definition.  It is a dict, so a source has no hash.
    """

    __slots__ = __match_args__ = ("text", "path", "grammar",
                                  "rule_positions")
    __hash__ = None

    def __init__(self, text: bytes, path: str | None, grammar: Grammar,
                 rule_positions: dict):
        put = object.__setattr__
        put(self, "text", text)
        put(self, "path", path)
        put(self, "grammar", grammar)
        put(self, "rule_positions", rule_positions)


def load_grammar_source(text, path: str | None = None) -> GrammarSource:
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    meta, cert = builtin_meta_grammar()
    out = parse(meta, cert, data)
    if not out.ok:
        raise PegSyntaxError(data, out.farthest, path)
    rules = []
    starts = []
    start = None
    for definition in out.value.children:
        node = definition.children[0]
        if node.rule == "pragma":
            start = _ident_text(node.children[0], data)
        else:
            name = _ident_text(node.children[0], data)
            body = _lower_expression(node.children[1], data, True)
            rules.append((name, Action(body, node_action(name))))
            starts.append(node.start)
    if not rules:
        raise PegSyntaxError(data, 0, path)
    grammar = build_grammar(rules, start or rules[0][0], tree_shaped=True)
    # The names are distinct now: build_grammar raises DuplicateRule.
    positions = dict(zip([name for name, _ in rules],
                         _line_cols(data, starts)))
    return GrammarSource(data, path, grammar, positions)


def load_grammar(text) -> Grammar:
    """Parse .peg text into a tree-shaped Grammar.

    Raises PegSyntaxError for malformed text, then the errors of
    building the rules' expressions (bad ranges, empty literals), then
    those of assembling the grammar (duplicate rules, undefined
    references, unknown start).
    """
    return load_grammar_source(text).grammar


def dump_grammar(g: Grammar) -> str:
    """Canonical .peg text for a grammar; reloading yields the same
    structure (modulo the canonical tree shaping that loading applies)."""
    lines = []
    if g.nonterminals and g.start != g.nonterminals[0]:
        lines.append("@start %s ;" % g.start)
    for name in g.nonterminals:
        body = g.productions[name]
        if (type(body) is Action and body.ref.label == _NODE_PREFIX + name):
            body = body.inner
        lines.append("%s <- %s ;" % (name, expr_text(body)))
    return "\n".join(lines) + "\n"
