"""Static grammar analyses and the termination certificate.

Three per-expression flags are inferred to a least fixpoint over the
grammar's expression set: "can succeed without consuming" (0), "can
succeed consuming input" (>0) and "can fail".  Well-formedness is a
second fixpoint over the same set; a grammar whose expressions are all
well-formed is complete, i.e. the interpreter terminates on every
input.  Passing the check yields an unforgeable Certificate that gates
the total parse entry point.

Both fixpoints iterate round-robin sweeps over the expression set until
a sweep changes nothing.  The property fixpoint visits children before
parents, in the reverse of the set's deterministic order (production
order, preorder within each body, first occurrence wins), so a nested
chain closes in a few sweeps, not one per level; a least fixpoint does
not depend on the order.  The well-formedness fixpoint sweeps in that
order itself, and the number of its sweeps is the report's
``iterations``.  Sets only ever grow, so each loop is bounded by the
size of the expression set.
"""

from __future__ import annotations

from typing import NamedTuple

from .exprs import (Action, AnyChar, Choice, Empty, Expr, Grammar,
                    NonTerminal, Not, Range, Seq, Star, Terminal, expr_text,
                    iter_subexprs)
from .interp import _CERT_KEY, Certificate


def expression_set(g: Grammar) -> dict:
    """E(G): all sub-expressions of all production bodies, closed under
    children, as the keys of an insertion-ordered dict (production
    order, preorder within each body, first occurrence wins)."""
    out = {}
    for name in g.nonterminals:
        for sub in iter_subexprs(g.productions[name]):
            out[sub] = None
    return out


class Props(NamedTuple):
    can_succeed_empty: bool
    can_succeed_consuming: bool
    can_fail: bool


class PropertyTable:
    """Monotone flag table over E(G); flags only ever flip False -> True."""

    __slots__ = ("exprs", "_empty", "_consume", "_fail", "sweeps", "simplified")

    def __init__(self, exprs: dict, simplified: bool):
        self.exprs = exprs
        self._empty = dict.fromkeys(exprs, False)
        self._consume = dict.fromkeys(exprs, simplified)
        self._fail = dict.fromkeys(exprs, simplified)
        self.sweeps = 0
        self.simplified = simplified

    def __getitem__(self, e: Expr) -> Props:
        return Props(self._empty[e], self._consume[e], self._fail[e])

    def can_empty(self, e: Expr) -> bool:
        return self._empty[e]

    def can_consume(self, e: Expr) -> bool:
        return self._consume[e]

    def can_fail(self, e: Expr) -> bool:
        return self._fail[e]

    def can_succeed(self, e: Expr) -> bool:
        return self._empty[e] or self._consume[e]


def infer_properties(g: Grammar, *, simplified: bool = False) -> PropertyTable:
    """Least fixpoint of the property derivation rules, from all-false.

    Range mirrors Terminal: ">0" and "can fail" hold outright, "0"
    never.  Actions are transparent: the analysis runs on the untyped
    projection, so an action node carries exactly its inner flags.

    With ``simplified=True`` only the "0" flag is inferred and the other
    two are assumed to hold everywhere, reproducing the coarser one-flag
    variant of the analysis (it rejects e.g. ``A <- !eps A``, which the
    full analysis accepts).
    """
    exprs = expression_set(g)
    table = PropertyTable(exprs, simplified)
    emp, con, fai = table._empty, table._consume, table._fail
    prods = g.productions

    sweeps = 0
    changed = True
    while changed:
        changed = False
        sweeps += 1
        assert sweeps <= 3 * len(exprs) + 1, "property fixpoint failed to close"
        for e in reversed(exprs):
            t = type(e)
            if t is Empty:
                e0, e1, ef = True, False, False
            elif t in (AnyChar, Terminal, Range):
                e0, e1, ef = False, True, True
            elif t is NonTerminal:
                body = prods[e.name]
                e0, e1, ef = emp[body], con[body], fai[body]
            elif t is Seq:
                a, b = e.left, e.right
                e0 = emp[a] and emp[b]
                e1 = ((con[a] and (emp[b] or con[b]))
                      or ((emp[a] or con[a]) and con[b]))
                ef = fai[a] or ((emp[a] or con[a]) and fai[b])
            elif t is Choice:
                a, b = e.first, e.second
                e0 = emp[a] or (fai[a] and emp[b])
                e1 = con[a] or (fai[a] and con[b])
                ef = fai[a] and fai[b]
            elif t is Star:
                i = e.inner
                e0 = fai[i]
                e1 = con[i]
                ef = False
            elif t is Not:
                i = e.inner
                e0 = fai[i]
                e1 = False
                ef = emp[i] or con[i]
            elif t is Action:
                i = e.inner
                e0, e1, ef = emp[i], con[i], fai[i]
            else:
                raise TypeError("not a parsing expression: %r" % (e,))
            if e0 and not emp[e]:
                emp[e] = True
                changed = True
            if not simplified:
                if e1 and not con[e]:
                    con[e] = True
                    changed = True
                if ef and not fai[e]:
                    fai[e] = True
                    changed = True
    table.sweeps = sweeps
    return table


REASON_LEFT_RECURSION = "LeftRecursionSuspected"
REASON_NULLABLE_STAR = "NullableStar"
REASON_DEPENDS = "DependsOnIllFormed"


class Offender(NamedTuple):
    production: str
    expr: Expr
    reason: str

    def describe(self) -> str:
        return "%s: %s  (%s)" % (self.production, expr_text(self.expr),
                                 self.reason)


class NotWellFormed(Exception):
    def __init__(self, report: "WfReport"):
        lines = [o.describe() for o in report.offenders[:8]]
        super().__init__("grammar is not well-formed:\n  " + "\n  ".join(lines))
        self.report = report


class WfReport:
    """Outcome of the well-formedness analysis for one grammar."""

    __slots__ = ("grammar", "wf_set", "is_well_formed", "offenders",
                 "expr_count", "iterations", "simplified", "certificate",
                 "properties")

    def __init__(self, grammar, wf_set, is_well_formed, offenders,
                 iterations, simplified, certificate, properties):
        self.grammar = grammar
        self.wf_set = wf_set
        self.is_well_formed = is_well_formed
        self.offenders = offenders
        self.expr_count = len(properties.exprs)
        self.iterations = iterations
        self.simplified = simplified
        self.certificate = certificate
        self.properties = properties

    def to_json(self) -> dict:
        return {
            "wellFormed": self.is_well_formed,
            "expressionCount": self.expr_count,
            "wellFormedCount": len(self.wf_set),
            "iterations": self.iterations,
            "simplifiedAnalysis": self.simplified,
            "offenders": [
                {"production": o.production,
                 "expression": expr_text(o.expr),
                 "reason": o.reason}
                for o in self.offenders
            ],
        }


def wf_measure(current, g: Grammar) -> int:
    """|E(G)| - |current|; strictly decreases across productive sweeps."""
    exprs = expression_set(g)
    assert all(e in exprs for e in current), "well-formed set escaped E(G)"
    return len(exprs) - len(current)


def _wf_derivable(e: Expr, wf: dict, props: PropertyTable,
                  prods: dict) -> bool:
    t = type(e)
    if t in (Empty, AnyChar, Terminal, Range):
        return True
    if t is NonTerminal:
        return prods[e.name] in wf
    if t is Not:
        return e.inner in wf
    if t is Action:
        return e.inner in wf
    if t is Choice:
        return e.first in wf and e.second in wf
    if t is Seq:
        return (e.left in wf
                and (not props.can_empty(e.left) or e.right in wf))
    if t is Star:
        return e.inner in wf and not props.can_empty(e.inner)
    raise TypeError("not a parsing expression: %r" % (e,))


def check_well_formed(g: Grammar, *, simplified: bool = False) -> WfReport:
    """Well-formedness fixpoint from the empty set; certifies the grammar
    iff the fixpoint covers the whole expression set."""
    props = infer_properties(g, simplified=simplified)
    exprs = props.exprs
    prods = g.productions

    wf = {}
    iterations = 0
    while True:
        iterations += 1
        assert iterations <= len(exprs) + 1, "wf fixpoint failed to close"
        before = len(wf)
        new = wf.copy()
        for e in exprs:
            if e not in new and _wf_derivable(e, new, props, prods):
                new[e] = None
        # Monotonicity invariants of the iteration: the set only grows
        # and never escapes E(G).
        assert wf.keys() <= new.keys()
        assert new.keys() <= exprs.keys()
        if len(new) > before:
            assert (len(exprs) - len(new)) < (len(exprs) - before)
        wf = new
        if len(wf) == before:
            break

    is_wf = len(wf) == len(exprs)
    offenders = [] if is_wf else _offenders(g, exprs, wf, props)
    cert = Certificate(g, _CERT_KEY) if is_wf and not simplified else None
    return WfReport(g, wf, is_wf, offenders, iterations, simplified, cert,
                    props)


def certify(g: Grammar) -> Certificate:
    """check_well_formed, raising NotWellFormed unless a certificate issues."""
    report = check_well_formed(g)
    if not report.is_well_formed:
        raise NotWellFormed(report)
    return report.certificate


def _blockers(e: Expr, wf: dict, props: PropertyTable, prods: dict):
    """Sub-parts whose absence from wf blocks e's derivation."""
    t = type(e)
    if t is NonTerminal:
        body = prods[e.name]
        return [body] if body not in wf else []
    if t in (Not, Action):
        return [e.inner] if e.inner not in wf else []
    if t is Choice:
        return [c for c in (e.first, e.second) if c not in wf]
    if t is Seq:
        out = []
        if e.left not in wf:
            out.append(e.left)
        elif props.can_empty(e.left) and e.right not in wf:
            out.append(e.right)
        return out
    if t is Star:
        return [e.inner] if e.inner not in wf else []
    return []


def _offenders(g, exprs, wf, props):
    prods = g.productions
    ill = {e: None for e in exprs if e not in wf}

    # An ill expression sits on a dependency cycle if it can reach itself
    # through blocker edges; those are the (possibly mutual) left-recursion
    # suspects.  Stars rejected purely by their nullable inner get their
    # own reason; everything else just inherits ill-formedness.
    block = {e: [b for b in _blockers(e, wf, props, prods) if b in ill]
             for e in ill}
    on_cycle = set()
    for root in ill:
        seen = set()
        stack = list(block[root])
        while stack:
            node = stack.pop()
            if node == root:
                on_cycle.add(root)
                break
            if node in seen:
                continue
            seen.add(node)
            stack.extend(block[node])

    def reason(e):
        if (type(e) is Star and e.inner in wf
                and props.can_empty(e.inner)):
            return REASON_NULLABLE_STAR
        if e in on_cycle:
            return REASON_LEFT_RECURSION
        return REASON_DEPENDS

    out = []
    for name in g.nonterminals:
        seen = set()
        for sub in iter_subexprs(prods[name]):
            if sub in ill and sub not in seen:
                seen.add(sub)
                out.append(Offender(name, sub, reason(sub)))
    return out
