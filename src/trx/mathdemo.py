"""Embedded arithmetic grammar: the engine's worked example.

Five rules (ws, number, term, factor, expr) with white space folded
into the grammar and semantic actions that evaluate the expression
during the parse, so ``(1+2) * (3 * 4)`` parses to the integer 36.
Addition and multiplication are right-associative; the left-associative
variant of expr is deliberately left-recursive and must be rejected by
the analysis (left_recursive_math_rules exposes it for tests).

Actions here use the embedded API: plain Value -> Value functions.
Sequence values are right-nested pairs, so projections go through
tuple_items.
"""

from __future__ import annotations

from .analysis import Certificate, certify
from .exprs import (Action, ActionRef, Choice, Drop, Expr, Grammar,
                    NonTerminal, Plus, Range, Seq, Star, Terminal,
                    build_grammar)
from .values import User, tuple_items


def _seq(*parts: Expr) -> Expr:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Seq(p, out)
    return out


def _digits_to_int(v):
    digits = bytes(c.code for c in v.items)
    return User(int(digits))


def _mul(v):
    items = tuple_items(v)
    return User(items[0].payload * items[2].payload)


def _add(v):
    items = tuple_items(v)
    return User(items[0].payload + items[2].payload)


# Module-level refs, so that every call of math_rules builds the same
# nodes (an action node is keyed by its function, see trx.exprs).
PICK1 = ActionRef("math.pick1", lambda v: tuple_items(v)[1])
PICK2 = ActionRef("math.pick2", lambda v: tuple_items(v)[2])
DIG_LIST_TO_INT = ActionRef("math.digListToInt", _digits_to_int)
MUL = ActionRef("math.mul", _mul)
ADD = ActionRef("math.add", _add)

_WS = NonTerminal("ws")
_NUMBER = NonTerminal("number")
_TERM = NonTerminal("term")
_FACTOR = NonTerminal("factor")
_EXPR = NonTerminal("expr")


def math_rules():
    """The Example rules: ws, number, term, factor, expr (start expr)."""
    return [
        ("ws", Drop(Star(Choice(Terminal(" "), Terminal("\t"))))),
        ("number", Action(Plus(Range("0", "9")), DIG_LIST_TO_INT)),
        ("term", Choice(
            Action(_seq(_WS, _NUMBER, _WS), PICK1),
            Action(_seq(_WS, Terminal("("), _EXPR, Terminal(")"), _WS),
                   PICK2))),
        ("factor", Choice(
            Action(_seq(_TERM, Terminal("*"), _FACTOR), MUL),
            _TERM)),
        ("expr", Choice(
            Action(_seq(_FACTOR, Terminal("+"), _EXPR), ADD),
            _FACTOR)),
    ]


def left_recursive_math_rules():
    """Same grammar with the left-associative expr rule; not well-formed."""
    rules = math_rules()
    bad_expr = Choice(
        Action(_seq(_EXPR, Terminal("+"), _FACTOR), ADD),
        _FACTOR)
    return [(n, bad_expr if n == "expr" else b) for n, b in rules]


_cached: tuple[Grammar, Certificate] | None = None


def math_grammar() -> tuple[Grammar, Certificate]:
    global _cached
    if _cached is None:
        g = build_grammar(math_rules(), "expr")
        _cached = (g, certify(g))
    return _cached


def evaluate(text) -> int | None:
    """Parse and evaluate an arithmetic expression; None if rejected or
    there is trailing input.

    Parses in packrat mode: each parenthesis level makes plain mode
    re-parse its inner expression several times over.
    """
    from .interp import parse

    g, cert = math_grammar()
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    out = parse(g, cert, data, mode="packrat")
    if not out.ok or out.pos != len(data):
        return None
    return out.value.payload
