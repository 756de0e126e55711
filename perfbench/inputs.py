"""Seeded inputs for the workloads, made without importing trx.

Every generator returns the input together with what the checkers need
to know about it (a value, an expected verdict), computed from the
generator's own construction.  Sizes and shapes are fixed per slot so
that the operation mix is the same for every seed; the seed changes
only the content.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# xml: xmark-lite documents for grammars/xml-lite.peg.

_TAGS = ("item", "entry", "node", "rec", "data", "leaf", "site", "bid")
_ATTRS = ("id", "kind", "ref", "date")
_WORDS = ("lorem", "ipsum", "dolor", "sit", "amet", "consectetur",
          "adipiscing", "elit", "sed", "do", "eiusmod", "tempor")
MAX_DEPTH = 24


def xml_doc(size: int, rng: random.Random) -> bytes:
    """Well-formed nested xml of at least ``size`` bytes, depth <= 24.

    Matched tags, double-quoted attributes, word text between elements
    and self-closing empty elements: the subset xml-lite.peg accepts
    and xml.etree reads identically.  trx.bench.xmark_lite makes the
    same kind of document, but it may repeat an attribute name within
    an element, which xml.etree rejects; so the checks could not read
    its documents.
    """
    out = []
    total = 0

    def emit(s: str):
        nonlocal total
        out.append(s)
        total += len(s)

    def text():
        emit(" ".join(rng.choice(_WORDS) for _ in range(rng.randrange(1, 8))))

    def open_tag(tag: str) -> str:
        attrs = "".join(' %s="%s%d"' % (name, rng.choice(_WORDS),
                                        rng.randrange(1000))
                        for name in rng.sample(_ATTRS, rng.randrange(0, 3)))
        return "<%s%s" % (tag, attrs)

    # Explicit stack of open tags, so generation depth is not bounded
    # by the Python recursion limit either.
    emit("<doc>")
    stack = []
    while total < size or stack:
        if stack and (total >= size or len(stack) >= MAX_DEPTH
                      or rng.random() < 0.3):
            emit("</%s>" % stack.pop())
            continue
        tag = rng.choice(_TAGS)
        r = rng.random()
        if r < 0.2:
            emit(open_tag(tag) + "/>")
        elif r < 0.5:
            emit(open_tag(tag) + ">")
            text()
            emit("</%s>" % tag)
        else:
            emit(open_tag(tag) + ">")
            stack.append(tag)
            text()
    emit("</doc>")
    return "".join(out).encode("ascii")


def deep_doc(depth: int) -> bytes:
    """A fixed document nested ``depth`` elements deep."""
    return (b"<doc>" + b"<e>" * depth + b"x" + b"</e>" * depth
            + b"</doc>")


# ---------------------------------------------------------------------------
# math: expressions for the embedded mathdemo grammar.

def _spaces(rng: random.Random) -> str:
    return rng.choice(("", "", "", " ", "  ", "\t"))


def math_expr(rng: random.Random, nesting: int, operands: int):
    """Return (text, value) for a sum of products with exactly
    ``nesting`` levels of parentheses.

    The value is computed here from the generator's own tree with the
    usual precedence of * over +.
    """
    # One operand carries the nested sub-expression; the others are
    # numbers.
    deep_at = rng.randrange(operands) if nesting else -1
    parts = []
    sums = []
    product = 1
    for i in range(operands):
        if i == deep_at:
            inner, v = math_expr(rng, nesting - 1, rng.randrange(2, 4))
            atom = "%s(%s)%s" % (_spaces(rng), inner, _spaces(rng))
        else:
            v = rng.randrange(0, 1000)
            atom = "%s%d%s" % (_spaces(rng), v, _spaces(rng))
        parts.append(atom)
        product *= v
        if i == operands - 1 or rng.random() < 0.5:
            sums.append(product)
            product = 1
            if i < operands - 1:
                parts.append("+")
        else:
            parts.append("*")
    return "".join(parts), sum(sums)


# ---------------------------------------------------------------------------
# grammar-check: .peg texts with a known verdict.

# Rule shapes of the bundled synth200.peg; {n} is the next rule, {a}..{c}
# are seeded letters.
_CHAIN_SHAPES = (
    "'{a}' {n} / [0-9]+ ws {n} / 'end'",
    "!'{b}' '{c}' {n} / [a-f] {n} ws / 'end'",
    "('{a}' / '{b}')* '{c}' {n} / 'end'",
    "&'{a}' '{a}' {n} / '{b}'? '{c}' {n} / 'end'",
    "~ws ('{a}' / '{b}' / [k-n]) {n} / 'end'",
)
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GrammarCase:
    """A .peg text plus what its construction says about it.

    ``bad`` maps each defective rule to the reason the analysis must
    give for it; ``callers`` are the rules that refer to a defective
    rule and so may be reported as depending on it.
    """

    def __init__(self, name, text, rules, bad=None, callers=()):
        self.name = name
        self.text = text.encode("ascii") if isinstance(text, str) else text
        self.rules = rules
        self.bad = dict(bad or {})
        self.callers = frozenset(callers)

    @property
    def well_formed(self) -> bool:
        return not self.bad


def _chain_bodies(rng: random.Random, n: int) -> list:
    # The shapes cycle in a fixed order, as in synth200.peg, so that the
    # work per grammar does not depend on the seed; the letters do.
    bodies = []
    for i in range(n - 1):
        a, b, c = rng.sample(_LETTERS, 3)
        shape = _CHAIN_SHAPES[i % len(_CHAIN_SHAPES)]
        bodies.append(shape.format(a=a, b=b, c=c, n="r%03d" % (i + 1)))
    bodies.append("[a-z] [a-z0-9_]* ws")
    return bodies


def _render(bodies: list) -> str:
    lines = ["r%03d <- %s ;" % (i, body) for i, body in enumerate(bodies)]
    lines.append("ws   <- (' ' / '\\t')* ;")
    return "\n".join(lines) + "\n"


def chain_grammar(rng: random.Random, n: int) -> GrammarCase:
    """A well-formed forward chain of ``n`` rules plus ``ws``."""
    return GrammarCase("chain%d" % n, _render(_chain_bodies(rng, n)), n + 1)


def ill_grammar(rng: random.Random, n: int, kind: str) -> GrammarCase:
    """A chain of ``n`` rules with one defect at a seeded rule.

    kind "left": the rule calls itself first (direct left recursion);
    "mutual": two consecutive rules call each other first;
    "star": a repetition over a nullable expression.
    """
    bodies = _chain_bodies(rng, n)
    at = rng.randrange(1, n - 2)
    x, y = rng.sample(_LETTERS, 2)
    me, nxt = "r%03d" % at, "r%03d" % (at + 1)
    if kind == "left":
        bodies[at] = "%s '%s' / %s" % (me, x, bodies[at])
        bad = {me: "LeftRecursionSuspected"}
    elif kind == "mutual":
        bodies[at] = "%s '%s' / 'end'" % (nxt, x)
        bodies[at + 1] = "%s '%s' / %s" % (me, y, bodies[at + 1])
        bad = {me: "LeftRecursionSuspected", nxt: "LeftRecursionSuspected"}
    elif kind == "star":
        bodies[at] = "('%s'?)* %s" % (x, bodies[at])
        bad = {me: "NullableStar"}
    else:
        raise ValueError("unknown defect %r" % kind)
    callers = {"r%03d" % i for i, body in enumerate(bodies)
               for name in bad if (" %s " % name) in (" %s " % body)}
    return GrammarCase("%s%d" % (kind, n), _render(bodies), n + 1, bad,
                       callers)


def deep_paren_grammar(depth: int) -> GrammarCase:
    """A fixed one-rule grammar with ``depth`` nested parentheses."""
    return GrammarCase("paren%d" % depth,
                       "a <- %s'x'%s ;\n" % ("(" * depth, ")" * depth), 1)
