"""Static grammar analyses and the termination certificate.

Three per-expression flags are inferred to a least fixpoint over the
grammar's expression set: "can succeed without consuming" (0), "can
succeed consuming input" (>0) and "can fail".  Well-formedness is a
second fixpoint over the same set; a grammar whose expressions are all
well-formed is complete, i.e. the interpreter terminates on every
input.  Passing the check yields an unforgeable Certificate that gates
the total parse entry point.

Each fixpoint is one worklist pass over an index of every expression's
users.  The property worklist evaluates every expression once, children
first, and re-queues an expression's users whenever one of its flags
flips; the rules are monotone, so the least fixpoint does not depend on
the order.  The well-formedness rules live in one premise table
(_premises): an expression enters the well-formed set when the last of
its premises does.

The report's ``iterations`` is the number of round-robin sweeps that
the same fixpoint takes when each sweep checks the expression set in
its deterministic order (production order, preorder within each body,
first occurrence wins) against a set that already holds that sweep's
earlier additions.  So each expression records its entry sweep: 1 with
no premises, else the latest sweep of its premises, plus 1 for a
premise that comes after it in the order.  ``iterations`` is one more
than the latest entry sweep, the sweep that adds nothing.  An
expression enters at most once and its flags flip at most three times,
so both loops are bounded by the size of the set and its user index.
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


def _parts(e: Expr, prods) -> tuple:
    """The expressions e's flags and well-formedness are derived from:
    its children, and a nonterminal's production body."""
    t = type(e)
    if t is Seq:
        return e.left, e.right
    if t is Choice:
        return e.first, e.second
    if t is NonTerminal:
        return (prods[e.name],)
    if t is Star or t is Not or t is Action:
        return (e.inner,)
    if t is Empty or t is AnyChar or t is Terminal or t is Range:
        return ()
    raise TypeError("not a parsing expression: %r" % (e,))


class Props(NamedTuple):
    can_succeed_empty: bool
    can_succeed_consuming: bool
    can_fail: bool


class PropertyTable:
    """Monotone flag table over E(G); flags only ever flip False -> True."""

    __slots__ = ("exprs", "_empty", "_consume", "_fail", "simplified")

    def __init__(self, exprs: dict, simplified: bool):
        self.exprs = exprs
        self._empty = dict.fromkeys(exprs, False)
        self._consume = dict.fromkeys(exprs, simplified)
        self._fail = dict.fromkeys(exprs, simplified)
        self.simplified = simplified

    def __getitem__(self, e: Expr) -> Props:
        return Props(self._empty[e], self._consume[e], self._fail[e])

    def can_empty(self, e: Expr) -> bool:
        return self._empty[e]

    def can_consume(self, e: Expr) -> bool:
        return self._consume[e]

    def can_fail(self, e: Expr) -> bool:
        return self._fail[e]


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
    # A depth-first walk over the parts evaluates every expression once,
    # after its parts, and indexes the users of each.  A part is only
    # evaluated after its user on a cycle through a rule body; a user
    # already evaluated goes back on the stack when a part's flag flips.
    users = {e: [] for e in exprs}
    done = {}                       # False until evaluated
    # Each expression is evaluated once, and again at most once per flip
    # of its parts' flags: two parts at most, three flags each.
    evaluations = 0
    bound = 7 * len(exprs)
    for root in exprs:
        stack = [root]
        while stack:
            e = stack.pop()
            if e not in done:
                done[e] = False
                stack.append(e)
                for q in _parts(e, prods):
                    users[q].append(e)
                    if q not in done:
                        stack.append(q)
                continue
            if done[e]:
                continue
            done[e] = True
            evaluations += 1
            assert evaluations <= bound, "property fixpoint failed to close"
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
                e0, e1, ef = fai[e.inner], con[e.inner], False
            elif t is Not:
                i = e.inner
                e0, e1, ef = fai[i], False, emp[i] or con[i]
            else:  # Action
                i = e.inner
                e0, e1, ef = emp[i], con[i], fai[i]
            flipped = False
            if e0 and not emp[e]:
                emp[e] = flipped = True
            if not simplified:
                if e1 and not con[e]:
                    con[e] = flipped = True
                if ef and not fai[e]:
                    fai[e] = flipped = True
            if flipped:
                for u in users[e]:
                    if done[u]:
                        done[u] = False
                        stack.append(u)
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
    """Outcome of the well-formedness analysis for one grammar.

    ``wf_set`` maps each well-formed expression to its entry sweep (see
    the module docstring)."""

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
    """|E(G)| - |current|; strictly decreases as the well-formed set grows."""
    exprs = expression_set(g)
    assert all(e in exprs for e in current), "well-formed set escaped E(G)"
    return len(exprs) - len(current)


def _premises(e: Expr, props: PropertyTable, prods) -> tuple | None:
    """The expressions that must be well-formed for e to be, each once,
    or None when no rule makes e well-formed.

    Leaves have none; a nonterminal needs its production body; ``!``,
    an action and a repetition their inner expression; a choice both
    alternatives; a sequence its left part, and its right part only
    when the left can succeed empty.  A repetition of an expression
    that can succeed empty is never well-formed.
    """
    t = type(e)
    if t is Star and props.can_empty(e.inner):
        return None
    if t is Seq and not props.can_empty(e.left):
        return (e.left,)
    parts = _parts(e, prods)
    if len(parts) == 2 and parts[0] is parts[1]:
        return parts[:1]
    return parts


def check_well_formed(g: Grammar, *, simplified: bool = False) -> WfReport:
    """Well-formedness fixpoint from the empty set; certifies the grammar
    iff the fixpoint covers the whole expression set."""
    props = infer_properties(g, simplified=simplified)
    exprs = props.exprs
    prods = g.productions

    premises = {}
    users = {e: [] for e in exprs}
    missing = {}                    # premises not yet well-formed
    for e in exprs:
        ps = premises[e] = _premises(e, props, prods)
        if ps is not None:
            missing[e] = len(ps)
            for q in ps:
                users[q].append(e)
    todo = [e for e, n in missing.items() if not n]
    order = dict(zip(exprs, range(len(exprs))))
    wf = {}                         # expression -> its entry sweep
    while todo:
        e = todo.pop()
        # Each expression enters once, so the loop runs at most |E(G)|
        # times.
        assert e not in wf, "well-formed set re-entered"
        at = order[e]
        sweep = 1
        for q in premises[e]:
            s = wf[q] + (order[q] > at)
            if s > sweep:
                sweep = s
        wf[e] = sweep
        for u in users[e]:
            missing[u] -= 1
            if not missing[u]:
                todo.append(u)
    assert wf.keys() <= exprs.keys(), "well-formed set escaped E(G)"
    iterations = 1 + max(wf.values(), default=0)

    is_wf = len(wf) == len(exprs)
    offenders = [] if is_wf else _offenders(g, exprs, wf, premises)
    cert = (Certificate(g, _CERT_KEY, props) if is_wf and not simplified
            else None)
    return WfReport(g, wf, is_wf, offenders, iterations, simplified, cert,
                    props)


def certify(g: Grammar) -> Certificate:
    """check_well_formed, raising NotWellFormed unless a certificate issues."""
    report = check_well_formed(g)
    if not report.is_well_formed:
        raise NotWellFormed(report)
    return report.certificate


def _offenders(g, exprs, wf, premises):
    ill = {e: None for e in exprs if e not in wf}

    # An ill expression is blocked by its ill premises, a sequence only
    # by the first of them, and a repetition of a nullable expression
    # (premises None) by that expression if it is ill.  A leaf has no
    # premises and is never ill.
    def blockers(e):
        out = [q for q in premises[e] or (e.inner,) if q in ill]
        return out[:1] if type(e) is Seq else out

    # An ill expression sits on a dependency cycle if it can reach itself
    # through blocker edges; those are the (possibly mutual) left-recursion
    # suspects.  Stars rejected purely by their nullable inner get their
    # own reason; everything else just inherits ill-formedness.
    on_cycle = _on_cycles({e: blockers(e) for e in ill})

    def reason(e):
        if premises[e] is None and e.inner in wf:
            return REASON_NULLABLE_STAR
        if e in on_cycle:
            return REASON_LEFT_RECURSION
        return REASON_DEPENDS

    return [Offender(name, sub, reason(sub)) for name in g.nonterminals
            for sub in iter_subexprs(g.productions[name]) if sub in ill]


def _on_cycles(edges: dict) -> set:
    """The nodes of the graph ``edges`` (node -> successors) that lie on
    a cycle: those of a strongly connected component with more than one
    node or with an edge to itself.  Tarjan's algorithm, with explicit
    stacks."""
    index = {}                      # node -> its order of discovery
    low = {}                        # lowest index reachable in the DFS
    path = []                       # Tarjan's stack of open nodes
    open_ = set()
    out = set()
    for root in edges:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        path.append(root)
        open_.add(root)
        walk = [(root, iter(edges[root]))]
        while walk:
            v, rest = walk[-1]
            for w in rest:
                if w not in index:
                    index[w] = low[w] = len(index)
                    path.append(w)
                    open_.add(w)
                    walk.append((w, iter(edges[w])))
                    break
                if w in open_ and index[w] < low[v]:
                    low[v] = index[w]
            else:
                walk.pop()
                if walk and low[v] < low[walk[-1][0]]:
                    low[walk[-1][0]] = low[v]
                if low[v] == index[v]:
                    # v roots a component: the nodes above it on path.
                    at = len(path) - 1
                    while path[at] is not v:
                        at -= 1
                    component = path[at:]
                    del path[at:]
                    open_.difference_update(component)
                    if len(component) > 1 or v in edges[v]:
                        out.update(component)
    return out
