"""Deliberately naive fueled evaluator plus small-case generators.

This is the reference side of every differential check: a direct
recursive transcription of the operational semantics, one clause per
rule, no memoization, no sharing with the main interpreter.  Fuel
bounds the step index of the derivation, so ``EXHAUSTED`` at fuel f is
a proof that no derivation with index <= f exists (loops such as
``(eps)*`` exhaust any fuel).  Exponential behavior is acceptable here;
the module only ever runs on small cases.
"""

from __future__ import annotations

import random
import sys
from typing import Iterator

from .exprs import (Action, AnyChar, CharClass, Choice, Drop, EMPTY, Empty,
                    Expr, Grammar, NonTerminal, Not, Range, Seq, Star,
                    Terminal, build_grammar)
from .interp import ParseOutcome, _input_bytes
from .values import Lst, Tup, UNIT, CHAR


class FuelExhausted:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FuelExhausted"


EXHAUSTED = FuelExhausted()

_FAIL_TRACE = "fail"
_OK_TRACE = "ok"


def oracle_eval(g: Grammar | None, e: Expr, data, pos: int = 0,
                fuel: int = 10_000, trace: list | None = None):
    """Evaluate ``e`` at ``pos`` bounded by ``fuel`` steps.

    Returns a ParseOutcome whose steps are exactly the derivation's step
    index (and <= fuel), or EXHAUSTED if no derivation with index <=
    fuel exists.  ``trace``, if given, accumulates (expr, pos, verdict)
    tuples in rule-application order.  ``data`` is as for the
    interpreter's parse(): a str (encoded as UTF-8), bytes or bytearray
    (copied); anything else raises TypeError.

    Every recursion level consumes at least one unit of fuel, so the
    evaluator's recursion depth is bounded by the fuel.  The call raises
    the recursion limit to 40 000 and restores it on return; when
    probing pathological grammars (self-referential rules, nullable
    stars) keep the fuel within that headroom.
    """
    data = _input_bytes(data)
    limit = sys.getrecursionlimit()
    if limit < 40_000:
        sys.setrecursionlimit(40_000)
    try:
        return _eval(g.productions if g is not None else {}, e, data, pos,
                     fuel, trace)
    finally:
        sys.setrecursionlimit(limit)


def oracle_parse(g: Grammar, data, fuel: int = 10_000,
                 trace: list | None = None):
    """Evaluate the start nonterminal, mirroring the interpreter's parse()."""
    return oracle_eval(g, NonTerminal(g.start), data, 0, fuel, trace)


def _fail(steps: int) -> ParseOutcome:
    return ParseOutcome(False, -1, None, steps)


def _eval(prods, e, data, pos, fuel, trace):
    if fuel <= 0:
        return EXHAUSTED
    t = type(e)

    if t is Empty:
        out = ParseOutcome(True, pos, UNIT, 1)
    elif t is Terminal:
        if pos < len(data) and data[pos] == e.code:
            out = ParseOutcome(True, pos + 1, CHAR[e.code], 1)
        else:
            out = _fail(1)
    elif t is AnyChar:
        if pos < len(data):
            out = ParseOutcome(True, pos + 1, CHAR[data[pos]], 1)
        else:
            out = _fail(1)
    elif t is Range:
        if pos < len(data) and e.lo <= data[pos] <= e.hi:
            out = ParseOutcome(True, pos + 1, CHAR[data[pos]], 1)
        else:
            out = _fail(1)
    elif t is NonTerminal:
        r = _eval(prods, prods[e.name], data, pos, fuel - 1, trace)
        if r is EXHAUSTED:
            return EXHAUSTED
        out = ParseOutcome(r.ok, r.pos, r.value, r.steps + 1)
    elif t is Seq:
        r1 = _eval(prods, e.left, data, pos, fuel - 1, trace)
        if r1 is EXHAUSTED:
            return EXHAUSTED
        if not r1.ok:
            out = _fail(r1.steps + 1)
        else:
            r2 = _eval(prods, e.right, data, r1.pos, fuel - 1 - r1.steps,
                       trace)
            if r2 is EXHAUSTED:
                return EXHAUSTED
            steps = r1.steps + r2.steps + 1
            if r2.ok:
                out = ParseOutcome(True, r2.pos, Tup((r1.value, r2.value)),
                                   steps)
            else:
                out = _fail(steps)
    elif t is Choice:
        r1 = _eval(prods, e.first, data, pos, fuel - 1, trace)
        if r1 is EXHAUSTED:
            return EXHAUSTED
        if r1.ok:
            out = ParseOutcome(True, r1.pos, r1.value, r1.steps + 1)
        else:
            r2 = _eval(prods, e.second, data, pos, fuel - 1 - r1.steps, trace)
            if r2 is EXHAUSTED:
                return EXHAUSTED
            out = ParseOutcome(r2.ok, r2.pos, r2.value,
                               r1.steps + r2.steps + 1)
    elif t is Star:
        r = _eval(prods, e.inner, data, pos, fuel - 1, trace)
        if r is EXHAUSTED:
            return EXHAUSTED
        if not r.ok:
            out = ParseOutcome(True, pos, Lst(()), r.steps + 1)
        else:
            # A nullable success loops here until the fuel runs out,
            # which is faithful: no finite derivation exists.
            rs = _eval(prods, e, data, r.pos, fuel - 1 - r.steps, trace)
            if rs is EXHAUSTED:
                return EXHAUSTED
            out = ParseOutcome(True, rs.pos,
                               Lst((r.value, *rs.value.items)),
                               r.steps + rs.steps + 1)
    elif t is Not:
        r = _eval(prods, e.inner, data, pos, fuel - 1, trace)
        if r is EXHAUSTED:
            return EXHAUSTED
        if r.ok:
            out = _fail(r.steps + 1)
        else:
            out = ParseOutcome(True, pos, UNIT, r.steps + 1)
    elif t is Action:
        r = _eval(prods, e.inner, data, pos, fuel - 1, trace)
        if r is EXHAUSTED:
            return EXHAUSTED
        if r.ok:
            ref = e.ref
            v = ref.fn(r.value, pos, r.pos) if ref.span_aware else ref.fn(r.value)
            out = ParseOutcome(True, r.pos, v, r.steps + 1)
        else:
            out = _fail(r.steps + 1)
    else:
        raise TypeError("not a parsing expression: %r" % (e,))

    if trace is not None:
        trace.append((e, pos, _OK_TRACE if out.ok else _FAIL_TRACE, out.steps))
    if out.steps > fuel:
        # Cannot happen with the budget threading above; keep the
        # invariant loud rather than silently wrong.
        raise AssertionError("oracle produced a derivation beyond its fuel")
    return out


# ---------------------------------------------------------------------------
# Case generators.

_NAMES = ("S", "A", "B", "C")

#: Weights for size-bounded random expression sampling.
CONSTRUCTOR_WEIGHTS = (
    ("terminal", 4),
    ("range", 1),
    ("any", 1),
    ("empty", 1),
    ("nonterminal", 2),
    ("seq", 4),
    ("choice", 4),
    ("star", 2),
    ("not", 1),
    ("drop", 1),
)


def random_expr(rng: random.Random, alphabet: str, names, size: int) -> Expr:
    """Size-bounded weighted sampling over all constructors."""
    leaves = [w for w in CONSTRUCTOR_WEIGHTS
              if w[0] in ("terminal", "range", "any", "empty", "nonterminal")]
    pool = CONSTRUCTOR_WEIGHTS if size > 1 else leaves
    if not names:
        pool = [w for w in pool if w[0] != "nonterminal"]
    kinds = [k for k, w in pool for _ in range(w)]
    k = rng.choice(kinds)
    if k == "terminal":
        return Terminal(rng.choice(alphabet))
    if k == "range":
        lo = rng.randrange(len(alphabet))
        hi = rng.randrange(lo, len(alphabet))
        return Range(alphabet[lo], alphabet[hi])
    if k == "any":
        return AnyChar()
    if k == "empty":
        return EMPTY
    if k == "nonterminal":
        return NonTerminal(rng.choice(list(names)))
    if k == "seq":
        lsize = rng.randrange(1, size)
        return Seq(random_expr(rng, alphabet, names, lsize),
                   random_expr(rng, alphabet, names, size - lsize))
    if k == "choice":
        lsize = rng.randrange(1, size)
        return Choice(random_expr(rng, alphabet, names, lsize),
                      random_expr(rng, alphabet, names, size - lsize))
    if k == "star":
        return Star(random_expr(rng, alphabet, names, size - 1))
    if k == "not":
        return Not(random_expr(rng, alphabet, names, size - 1))
    # drop
    return Drop(random_expr(rng, alphabet, names, size - 1))


def random_grammar(rng: random.Random, alphabet: str = "ab",
                   n_productions: int = 2, body_size: int = 5) -> Grammar:
    names = _NAMES[:n_productions]
    rules = [(name, random_expr(rng, alphabet, names, body_size))
             for name in names]
    return build_grammar(rules, names[0])


def _exhaustive_bodies(alphabet: str, names) -> list[Expr]:
    """A small pool covering every core constructor over tiny operands."""
    a = alphabet[0]
    z = alphabet[-1]
    atoms: list[Expr] = [EMPTY, AnyChar(), Terminal(a)]
    if len(alphabet) > 1:
        atoms.append(Terminal(z))
        atoms.append(Range(a, z))
    atoms.extend(NonTerminal(n) for n in names)
    out = list(atoms)
    for x in atoms:
        out.append(Star(x))
        out.append(Not(x))
        out.append(Drop(x))
    for x in atoms:
        for y in atoms:
            out.append(Seq(x, y))
            out.append(Choice(x, y))
    # A second layer of curated composites exercising nesting.
    t = Terminal(a)
    composites = [
        Star(Seq(Not(Terminal(z)), AnyChar())) if len(alphabet) > 1 else
        Star(Seq(Not(t), AnyChar())),
        Star(Choice(t, Terminal(z))) if len(alphabet) > 1 else Star(t),
        Seq(Star(t), Terminal(z)) if len(alphabet) > 1 else Seq(Star(t), t),
        Not(Star(t)),
        Not(Not(t)),
        Choice(Seq(t, t), t),
        Seq(Drop(t), Star(t)),
        Star(CharClass([(a, z)])) if len(alphabet) > 1 else Star(t),
    ]
    out.extend(composites)
    return out


def small_grammars(alphabet: str = "ab", max_productions: int = 4,
                   seed: int = 0, limit: int | None = None) -> Iterator[Grammar]:
    """Deterministic grammar stream: exhaustive small shapes, then seeded
    random fill up to ``max_productions`` rules."""
    count = 0

    def emit(rules, start):
        try:
            return build_grammar(rules, start)
        except Exception:
            return None

    # Single-production grammars over the full body pool.
    for body in _exhaustive_bodies(alphabet, ("S",)):
        g = emit([("S", body)], "S")
        if g is not None:
            yield g
            count += 1
            if limit is not None and count >= limit:
                return

    # Two-production grammars over a diagonal slice of the pool.
    if max_productions >= 2:
        pool = _exhaustive_bodies(alphabet, ("S", "A"))
        step = 7  # co-prime stride; deterministic variety without the
        for i, body_s in enumerate(pool):  # full cross product
            body_a = pool[(i * step + 3) % len(pool)]
            g = emit([("S", body_s), ("A", body_a)], "S")
            if g is not None:
                yield g
                count += 1
                if limit is not None and count >= limit:
                    return

    # Random grammars with 2..max_productions rules.
    rng = random.Random(seed)
    while True:
        n = rng.randrange(2, max_productions + 1)
        try:
            g = random_grammar(rng, alphabet, n, body_size=rng.randrange(2, 7))
        except Exception:
            continue
        yield g
        count += 1
        if limit is not None and count >= limit:
            return


def all_inputs(alphabet: str, max_len: int) -> list[bytes]:
    """Every string over the alphabet up to max_len, shortest first."""
    out = [b""]
    frontier = [b""]
    abytes = [bytes([b]) for b in alphabet.encode()]
    for _ in range(max_len):
        frontier = [s + c for s in frontier for c in abytes]
        out.extend(frontier)
    return out


def enumerate_small_cases(alphabet: str = "ab", max_productions: int = 4,
                          max_input_len: int = 6, seed: int = 0,
                          max_grammars: int | None = None
                          ) -> Iterator[tuple[Grammar, bytes]]:
    """Deterministic, seedable (grammar, input) stream, grammar-major.

    Covers every core constructor; inputs are exhaustive over the
    alphabet up to ``max_input_len``.
    """
    inputs = all_inputs(alphabet, max_input_len)
    for g in small_grammars(alphabet, max_productions, seed,
                            limit=max_grammars):
        for s in inputs:
            yield g, s
