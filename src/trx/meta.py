r"""The textual .peg grammar format, bootstrapped through the engine.

The loader is the interpreter itself: a built-in grammar for the .peg
syntax parses grammar text into a tree, and the tree is lowered
straight to tree-shaped expressions, each node built once, which are
assembled into a tree-shaped Grammar.  The bundled peg.peg file is the
same grammar written in its own notation; loading it must reproduce
the built-in grammar exactly, node for node.

The tree is flat, so that the parse builds one node per token.  A
rule node holds its identifier and one expression node, and an
expression node holds, in text order, the items of all its
alternatives, with a '/' leaf between two alternatives.  An item is
its prefix operator nodes (notop, andop, dropop), one primary node
(identifier, a parenthesised expression, literal, charclass, epsilon
or anychar) and its postfix operator nodes (starop, plusop,
questionop).  No rule wraps a sequence, an item or a primary, and
identifier is a leaf rule, a call of which pushes no frame: the
spacing after a name is its caller's.

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

from typing import Iterable, Iterator

from .analysis import Certificate, certify
from .exprs import (ANY, CONS, LEAF, LEAF_MATCHERS, NONE, SOME, TUPLE2STR,
                    Action, And, CharClass, Choice, Drop, EMPTY,
                    EmptyLiteral, Expr, Grammar, Literal, NodeRef,
                    NonTerminal, Not, Optional, Plus, Range, Seq, Star,
                    Terminal, _right_nested, _walk, build_grammar, expr_text,
                    is_collector)
from .interp import parse
from .values import Record, TreeNode


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
    return next(_line_cols(data, (min(pos, len(data)),)))


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

#: The node collector of a rule: ``node_action(rule)`` is
#: trx.exprs.NodeRef(rule).
node_action = NodeRef


# The value shapers of the derived operators, which the tree collector
# subsumes.
_STRIPPED = (TUPLE2STR, CONS, SOME, NONE)


def _tree_wrap_step(e: Expr):
    """The tree-shaped form of e: a step of trx.exprs._walk."""
    t = type(e)
    if t in LEAF_MATCHERS:
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
    # leave the result tree-shaped only when they are tree shapers or
    # drops.
    return e


def tree_wrap(g: Grammar) -> Grammar:
    """Install the built-in tree shapers on every production (idempotent):
    wrap each rule body that is not already the rule's own collector in
    it, with the value shapers of the derived operators left out and
    each terminal, range and any-char under a leaf.

    The result is tree-shaped (see Grammar).  Raises ValueError when it
    would not be: when ``g`` holds an action other than a built-in one
    or a node collector outside ``!`` and ``~``, or a rule named "".
    """
    productions = {}
    memo = {}
    for name in g.nonterminals:
        body = g.productions[name]
        productions[name] = (body if is_collector(body, name) else Action(
            _walk(_tree_wrap_step, body, memo), node_action(name)))
    out = Grammar(productions, g.start)
    if not out.tree_shaped:
        raise ValueError("an action tree mode does not run, outside ! and ~")
    return out


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

    def calls(*names: str) -> Expr:
        return _ch(*map(NonTerminal, names))

    # An item of a sequence: its prefix operators, a primary and its
    # postfix operators, all children of the expression node.
    item = _seq(Star(calls("notop", "andop", "dropop")),
                _ch(NonTerminal("epsilon"),
                    _seq(NonTerminal("identifier"), spacing,
                         Not(Literal("<-"))),
                    _seq(Drop(Literal("(")), spacing,
                         NonTerminal("expression"), Drop(Literal(")")),
                         spacing),
                    calls("literal", "charclass", "anychar")),
                Star(calls("starop", "plusop", "questionop")))
    return [
        ("grammar", _seq(spacing, Plus(calls("pragma", "rule")),
                         Not(ANY))),
        ("pragma", _seq(Drop(Literal("@start")), spacing,
                        NonTerminal("identifier"), spacing,
                        Drop(Literal(";")), spacing)),
        ("rule", _seq(NonTerminal("identifier"), spacing,
                      Drop(Literal("<-")), spacing,
                      NonTerminal("expression"), Drop(Literal(";")),
                      spacing)),
        ("expression", _seq(Plus(item),
                            Star(_seq(Literal("/"), spacing, Plus(item))))),
        ("notop", _seq(Drop(Literal("!")), spacing)),
        ("andop", _seq(Drop(Literal("&")), spacing)),
        ("dropop", _seq(Drop(Literal("~")), spacing)),
        ("starop", _seq(Drop(Literal("*")), spacing)),
        ("plusop", _seq(Drop(Literal("+")), spacing)),
        ("questionop", _seq(Drop(Literal("?")), spacing)),
        ("epsilon", _seq(Drop(Literal("eps")), Not(_IDENT_CONT), spacing)),
        ("anychar", _seq(Drop(Literal(".")), spacing)),
        ("identifier", _seq(_IDENT_START, Star(_IDENT_CONT))),
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


# The lowering reads parse-tree nodes by their tuple layout, (rule,
# start, end, *children), which trx.values.TreeNode keeps internal to the
# package: ``children`` builds a fresh tuple on every access, and a leaf
# is a node whose rule is "".  An expression is one flat node: the items
# of all its alternatives, each its prefix operator nodes, a primary
# node and its postfix operator nodes, with a '/' leaf between two
# alternatives.  The recursion shape, five functions and two list
# comprehensions per parenthesis level, is kept on purpose: the
# benchmark's 150-parenthesis grammar and the CI step at 300 pin the
# RecursionError it raises, until the lowering walks on an explicit
# stack and those pins flip to must-succeed together.

def _ident_text(node: TreeNode, data: bytes) -> str:
    # An identifier's span is its name: the spacing after it is its
    # caller's.
    return data[node[1]:node[2]].decode("ascii")


#: The tree-shaped leaf of each byte, ``Action(Terminal(b), LEAF)``, made
#: the first time a literal or class holds the byte: most of the nodes a
#: load builds are these.
_LEAVES = {}


def _leaf(b: int) -> Expr:
    return _LEAVES.get(b) or _LEAVES.setdefault(b, Action(Terminal(b), LEAF))


def _lower_literal(node: TreeNode, data: bytes, tree: bool) -> Expr:
    # The children are leaves and escape nodes.
    out = b"".join([bytes([_decode_escape(data[c[1]:c[2]])]) if c[0]
                    else data[c[1]:c[2]] for c in node[3:]])
    if not tree:
        return Literal(out)
    if not out:
        raise EmptyLiteral()
    return _right_nested([_leaf(b) for b in out], Seq)


def _classchar_byte(node: TreeNode, data: bytes) -> int:
    c = node[3]  # an escape node or a leaf
    return _decode_escape(data[c[1]:c[2]]) if c[0] else data[c[1]]


def _lower_charclass(node: TreeNode, data: bytes, tree: bool) -> Expr:
    # A classitem node holds one classchar node, or two for a range.
    items = [_classchar_byte(item[3], data) if len(item) == 4
             else (_classchar_byte(item[3], data),
                   _classchar_byte(item[4], data)) for item in node[3:]]
    if not tree:
        return CharClass(items)
    return _right_nested([Action(Range(*item), LEAF) if type(item) is tuple
                          else _leaf(item) for item in items], Choice)


def _lower_primary(node: TreeNode, data: bytes, tree: bool) -> Expr:
    rule = node[0]
    if rule == "identifier":
        return NonTerminal(_ident_text(node, data))
    if rule == "literal":
        return _lower_literal(node, data, tree)
    if rule == "expression":
        return _lower_expression(node, data, tree)
    if rule == "charclass":
        return _lower_charclass(node, data, tree)
    if rule == "epsilon":
        return EMPTY
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
_PRIMARIES = frozenset(("identifier", "literal", "expression", "charclass",
                        "epsilon", "anychar"))


def _lower_suffixed(kids: tuple, p: int, data: bytes, tree: bool) -> Expr:
    # The primary node kids[p] and the postfix operator nodes after it.
    e = _lower_primary(kids[p], data, tree)
    postfix = _TREE_POSTFIX if tree else _POSTFIX
    for p in range(p + 1, len(kids)):
        op = postfix.get(kids[p][0])
        if op is None:
            break
        e = op(e)
    return e


def _lower_prefixed(kids: tuple, p: int, data: bytes, tree: bool) -> Expr:
    # The item of the primary node kids[p]: it and the prefix operator
    # nodes before it, the nearest applied first.  Under a prefix
    # operator the value-mode form, as tree_wrap leaves it.
    q = p
    while q and kids[q - 1][0] in _PREFIX:
        q -= 1
    e = _lower_suffixed(kids, p, data, tree and q == p)
    for op in reversed(kids[q:p]):
        e = _PREFIX[op[0]](e)
    return e


def _lower_sequence(kids: tuple, primaries: list, data: bytes,
                    tree: bool) -> Expr:
    return _right_nested([_lower_prefixed(kids, p, data, tree)
                          for p in primaries], Seq)


def _lower_expression(node: TreeNode, data: bytes, tree: bool) -> Expr:
    """The expression of a parse-tree node: the tree-shaped form, which
    tree_wrap gives, when ``tree`` is set, else the value-mode form.
    Five calls per parenthesis level."""
    kids = node[3:]
    # The primary nodes of each alternative, by index: a '/' leaf starts
    # the next alternative.
    alternatives = [[]]
    for i, c in enumerate(kids):
        if c[0] in _PRIMARIES:
            alternatives[-1].append(i)
        elif not c[0]:
            alternatives.append([])
    return _right_nested([_lower_sequence(kids, primaries, data, tree)
                          for primaries in alternatives], Choice)


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
    for node in out.value[3:]:
        if node[0] == "pragma":
            start = _ident_text(node[3], data)
        else:
            name = _ident_text(node[3], data)
            rules.append((name, Action(_lower_expression(node[4], data, True),
                                       node_action(name))))
            starts.append(node[1])
    if not rules:
        raise PegSyntaxError(data, 0, path)
    grammar = build_grammar(rules, start or rules[0][0])
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
        if is_collector(body, name):
            body = body.inner
        lines.append("%s <- %s ;" % (name, expr_text(body)))
    return "\n".join(lines) + "\n"
