"""Step-counted interpreter for certified grammars.

Every outcome carries the exact step index of its derivation: leaves
cost one step, and each composite rule adds one to the sum of its
sub-derivations (sequences and failing choices run both parts, a
succeeding choice only the first).  Plain and packrat modes return
byte-identical outcomes, steps included; packrat memoizes nonterminal
outcomes keyed by (production, position).

Evaluation runs on an explicit heap-allocated frame stack, so input
nesting depth is bounded by memory, not the Python recursion limit;
deeply nested multi-hundred-kilobyte inputs are fine.  Input is an
immutable byte buffer addressed by position; the "remaining string" of
the semantics is represented as the next position.

A byte-local expression is one whose outcome and step count depend
only on the byte under the cursor: a terminal, range or any-char, a
choice of one-byte matchers, the tree-leaf, drop or tuple2str action
on a matcher, a negation guard in front of a matcher, and the
negation of any of these.  The compiler evaluates each one once per
byte into a step table, and the VM runs it, or a repetition of it,
with one table lookup per byte; right-nested terminal chains (literal
runs) get their step arithmetic precomputed too.  The oracle
differential suite pins their equivalence with the plain rule-by-rule
evaluation.

Tree mode.  A program compiled from a tree-shaped grammar (one that
trx.meta.tree_wrap built) builds no value spines: sequences make no
pairs and repetitions no lists.  Like LPeg's capture list, the VM
keeps one flat ``kids`` list of what the tree will hold, in parse
order: rule nodes, and the (start, end) spans of leaves, which leaf
matchers and leaf scans append.  A rule's node collector takes the
slice of ``kids`` from the mark its frame recorded, coalesces adjacent
spans into leaves as trx.meta.node_action coalesces leaves, and
replaces the slice with the node, which is also the rule's value and
memo entry; a memo hit appends it again.  Choice, repetition, negation and
action frames record a mark too, and truncate ``kids`` back to it when
they discard a result: a failed first alternative, a failed repetition
step, every negation and a drop.  Other actions appear in such
grammars only under ``!`` or ``~``, so the VM does not run them.  The
oracle runs the real collector actions, so the differential suites
check this path.  Opcodes choose the mode at compile time; a
value-mode program tests for it only on a leaf value or a memo hit.

Certification compiles the program once and the Certificate carries
it, so parse() runs exactly the grammar that was certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exprs import (NODE_PREFIX as _NODE_PREFIX, Action, AnyChar, Choice,
                    Empty, Expr, Grammar, NonTerminal, Not, Range, Seq, Star,
                    Terminal, terminal_chain)
from .values import CHAR, Char, Lst, Str, TreeNode, Tup, UNIT, Value


class InvariantViolation(AssertionError):
    """A semantic invariant the certificate should rule out was violated.

    Raised, never returned: seeing this on a certified grammar is a bug
    in the engine (or a forged certificate), not a parse failure.
    """


class _CertKey:
    pass


_CERT_KEY = _CertKey()


class Certificate:
    """Proof token that a specific Grammar passed the well-formedness check.

    Only trx.analysis.check_well_formed constructs these; they bind to
    the grammar object identity that was analyzed and carry the VM
    program compiled from it, which is what parse() runs.
    """

    __slots__ = ("grammar", "program")

    def __init__(self, grammar: Grammar, key=None):
        if key is not _CERT_KEY:
            raise TypeError("certificates are issued by check_well_formed()")
        self.grammar = grammar
        self.program = _compile(grammar)[0]

    def __repr__(self):
        return "Certificate(%r)" % (self.grammar,)


class CertificateMismatch(Exception):
    def __init__(self):
        super().__init__("certificate was not issued for this grammar")


@dataclass(frozen=True)
class ParseOutcome:
    """Fail or Ok(next position, value), plus the exact step count.

    ``farthest`` is diagnostic metadata (the rightmost input position at
    which any terminal, range or any-char match was attempted, -1 if
    none) and does not participate in equality.
    """

    ok: bool
    pos: int
    value: Value | None
    steps: int
    farthest: int = field(default=-1, compare=False)

    def __repr__(self):
        if self.ok:
            return "Ok(pos=%d, %r, steps=%d)" % (self.pos, self.value, self.steps)
        return "Fail(steps=%d, farthest=%d)" % (self.steps, self.farthest)


class MemoTable:
    """Per-parse memo of nonterminal body outcomes keyed by (production, pos).

    Entries are written once and never contradicted; hits + misses is
    the number of memoized nonterminal evaluations.
    """

    __slots__ = ("entries", "hits", "misses")

    def __init__(self):
        self.entries = {}
        self.hits = 0
        self.misses = 0


def memo_stats(table: MemoTable) -> dict:
    return {"entries": len(table.entries), "hits": table.hits,
            "misses": table.misses}


# Opcodes.  A composite node's opcode is the state its frame starts in,
# and the numbering groups composites by frame shape: [state, node, pos]
# up to TSEQ, then the repetitions, then the tree frames that also
# record where their children start.  The states in between continue a
# node (2: Seq right, 4: Choice second, 8: tree-mode Seq right), and 0
# returns from a nonterminal.  Tree-mode programs use the _K_T*
# composites, _K_NODE and _K_TACT in place of the value-mode ones.
# Terminals, ranges and any-char always compile to MATCH1; MATCH1,
# PRED, LIT and SCAN are superinstructions.
_K_SEQ, _K_CHOICE, _K_NOT, _K_ACT, _K_TSEQ = 1, 3, 5, 6, 7
_K_STAR, _K_TSTAR, _K_TCHOICE, _K_TNOT, _K_NODE, _K_TACT = range(9, 15)
_K_EMPTY, _K_NT, _K_MATCH1, _K_PRED, _K_LIT, _K_SCAN = range(15, 21)


class _Program:
    """Grammar flattened into parallel per-node arrays for the VM.

    ``extra`` holds a superinstruction's descriptor, a value-mode action
    node's ActionRef, a tree node's rule name, or whether a tree-mode
    action is a leaf.  ``tree`` is set when the program was compiled
    from a tree-shaped grammar.
    """

    __slots__ = ("kind", "a", "b", "extra", "prod_body", "start", "tree")

    def __init__(self):
        self.kind = []
        self.a = []
        self.b = []
        self.extra = []
        self.prod_body = []
        self.start = -1
        self.tree = False


# --- Superinstruction descriptors --------------------------------------
#
# MATCH1 and PRED: (steps, values).  ``steps`` has 257 entries indexed by
#   the byte under the cursor, 256 standing for end of input: t > 0
#   succeeds in t steps, t < 0 fails in -t steps.  A one-byte matcher
#   consumes its byte on success and ``values`` has 256 entries, each
#   the Value of a success on that byte or an int d: a one-byte leaf
#   wrapped in d guard pairs, which depends on the position.  Entries
#   of failing bytes are never read, so equal tables are common and are
#   shared.  A predicate is zero-width, has ``values`` None and yields
#   Unit.
# LIT: (bytes, ok_steps, fail_steps_per_prefix, value) for a fixed byte
#   string (a right-nested terminal chain).
# SCAN: (steps, values, leaf, find) for a repetition of a matcher.
#   In tree mode a rule's node coalesces adjacent leaves, so ``values``
#   is None and a non-empty run of leaves (``leaf``) adds one leaf
#   span covering it to the children list.  Embedded grammars keep the exact
#   items.  ``find`` is (c, item_steps) when c is the only byte that
#   ends the run and every other byte costs the same, so the scan is
#   bytes.find; otherwise None.

_FAILS = (-1,) * 257
_UNITS = (UNIT,) * 256
_LEAVES = (0,) * 256
_STR1 = tuple(Str(bytes([b])) for b in range(256))


def _leaf(pos: int, depth: int) -> Value:
    v = TreeNode("", pos, pos + 1, ())
    for _ in range(depth):
        v = Tup((UNIT, v))
    return v


class _ByteTables:
    """Byte tables of the byte-local expressions of one compile.

    Memoised by expression, since the compiler asks again for every
    sub-expression it visits, and kept per compile, so that every
    compile starts cold.  Equal step tables become one object; value
    tables are shared by construction (module constants, one guarded
    table per inner table).
    """

    __slots__ = ("memo", "steps", "guarded")

    def __init__(self):
        self.memo = {}
        self.steps = {}
        self.guarded = {}

    def __call__(self, e: Expr):
        """(steps, values) of ``e``, or None if it is not byte-local."""
        try:
            return self.memo[e]
        except KeyError:
            pass
        out = self._build(e)
        if out is not None:
            out = (self.steps.setdefault(out[0], out[0]), out[1])
        self.memo[e] = out
        return out

    def _build(self, e: Expr):
        t = type(e)
        if t is Terminal or t is Range or t is AnyChar:
            lo, hi = ((e.code, e.code) if t is Terminal
                      else (e.lo, e.hi) if t is Range else (0, 255))
            return (_FAILS[:lo] + (1,) * (hi - lo + 1) + _FAILS[hi + 1:],
                    CHAR)
        if t is Choice:
            a = self(e.first)
            if a is None or a[1] is None:
                return None
            b = self(e.second)
            if b is None or b[1] is None:
                return None
            (sa, va), (sb, vb) = a, b
            return (tuple([x + 1 if x > 0 else y - x + 1 if y > 0
                           else x + y - 1 for x, y in zip(sa, sb)]),
                    va if va is vb else
                    tuple([u if x > 0 else w for x, u, w in zip(sa, va, vb)]))
        if t is Seq:
            g = self(e.left)
            if g is None or g[1] is not None:
                return None
            m = self(e.right)
            if m is None or m[1] is None:
                return None
            values = self.guarded.get(id(m[1]))
            if values is None:
                values = self.guarded[id(m[1])] = tuple(
                    [v + 1 if type(v) is int else Tup((UNIT, v))
                     for v in m[1]])
            return (tuple([x - 1 if x < 0 else x + y + 1 if y > 0
                           else y - x - 1 for x, y in zip(g[0], m[0])]),
                    values)
        if t is Not:
            i = self(e.inner)
            if i is None:
                return None
            return tuple([-x - 1 if x > 0 else 1 - x for x in i[0]]), None
        if t is Action:
            i = self(e.inner)
            if i is None or i[1] is None:
                return None
            label = e.ref.label
            if label == "tree.leaf":
                values = _LEAVES
            elif label == "drop":
                values = _UNITS
            elif label == "tuple2str" and i[1] is CHAR:
                values = _STR1
            else:
                return None
            return tuple([x + 1 if x > 0 else x - 1 for x in i[0]]), values
        return None


def _scan_descriptor(steps, values, tree_mode: bool):
    """SCAN descriptor for a repetition of a matcher, or None when its
    items need their positions (leaves kept as a list)."""
    ok = [b for b in range(256) if steps[b] > 0]
    leaves = sum(type(values[b]) is int for b in ok)
    if tree_mode and leaves in (0, len(ok)):
        values, leaf = None, leaves > 0
    elif leaves:
        return None
    else:
        leaf = False
    find = None
    if len(ok) == 255 and len({steps[b] for b in ok}) == 1:
        c = next(b for b in range(256) if steps[b] < 0)
        find = (c, steps[ok[0]] + 1)
    return steps, values, leaf, find


def _spine_value(data: bytes):
    out = CHAR[data[-1]]
    for b in reversed(data[:-1]):
        out = Tup((CHAR[b], out))
    return out


def _as_lit(e: Expr):
    if type(e) is Action:
        inner = _as_lit(e.inner)
        if inner is None:
            return None
        data, ok, fails, value = inner
        label = e.ref.label
        if label == "drop":
            value = UNIT
        elif label == "tuple2str" and type(value) in (Tup, Char):
            value = Str(data)
        else:
            return None
        return (data, ok + 1, tuple(f + 1 for f in fails), value)
    data = terminal_chain(e)
    if data is None:
        return None
    k = len(data)
    fails = tuple((1 if j == k - 1 else 2) + 2 * j for j in range(k))
    return (data, 2 * k - 1, fails, _spine_value(data))


def _compile(g: Grammar | None, roots=()) -> tuple[_Program, list[int]]:
    prog = _Program()
    tree_mode = prog.tree = bool(g is not None and g.tree_shaped)
    index = {}
    prod_index = {}
    rule_names = {}
    tables = _ByteTables()

    if g is not None:
        prod_index = {name: i for i, name in enumerate(g.nonterminals)}
        prog.prod_body = [-1] * len(g.nonterminals)
        # A node carries the grammar's own rule-name string, the one its
        # collector action holds, not a new slice of the action label.
        rule_names = {_NODE_PREFIX + name: name for name in g.nonterminals}

    def emit(kind, a=-1, b=-1, extra=None) -> int:
        prog.kind.append(kind)
        prog.a.append(a)
        prog.b.append(b)
        prog.extra.append(extra)
        return len(prog.kind) - 1

    def visit(e: Expr) -> int:
        key = id(e)
        got = index.get(key)
        if got is not None:
            return got
        t = type(e)
        node = None
        if t is Star:
            m = tables(e.inner)
            if m is not None and m[1] is not None:
                scan = _scan_descriptor(m[0], m[1], tree_mode)
                if scan is not None:
                    node = emit(_K_SCAN, extra=scan)
            if node is None:
                node = emit(_K_TSTAR if tree_mode else _K_STAR,
                            visit(e.inner))
        elif t is NonTerminal:
            p = prod_index.get(e.name)
            if p is None:
                raise KeyError("nonterminal %r is not in the grammar" % e.name)
            node = emit(_K_NT, p)
        elif t is Empty:
            node = emit(_K_EMPTY)
        else:
            m = tables(e)
            if m is not None:
                node = emit(_K_PRED if m[1] is None else _K_MATCH1, extra=m)
            else:
                lit = _as_lit(e)
                if lit is not None:
                    node = emit(_K_LIT, extra=lit)
                elif t is Seq:
                    node = emit(_K_TSEQ if tree_mode else _K_SEQ,
                                visit(e.left), visit(e.right))
                elif t is Choice:
                    node = emit(_K_TCHOICE if tree_mode else _K_CHOICE,
                                visit(e.first), visit(e.second))
                elif t is Not:
                    node = emit(_K_TNOT if tree_mode else _K_NOT,
                                visit(e.inner))
                elif t is Action and not tree_mode:
                    node = emit(_K_ACT, visit(e.inner), extra=e.ref)
                elif t is Action:
                    label = e.ref.label
                    if label.startswith(_NODE_PREFIX):
                        rule = rule_names.get(label,
                                              label[len(_NODE_PREFIX):])
                        node = emit(_K_NODE, visit(e.inner), extra=rule)
                    else:
                        node = emit(_K_TACT, visit(e.inner),
                                    extra=label == "tree.leaf")
                else:
                    raise TypeError("not a parsing expression: %r" % (e,))
        index[key] = node
        return node

    if g is not None:
        for i, name in enumerate(g.nonterminals):
            prog.prod_body[i] = visit(g.productions[name])
        prog.start = prog.prod_body[prod_index[g.start]]
    root_ids = [visit(r) for r in roots]
    return prog, root_ids


def _run(prog: _Program, data: bytes, root: int, pos0: int,
         memo: MemoTable | None):
    """Evaluate node ``root`` at ``pos0``; returns (ok, pos, value, steps,
    farthest)."""
    kind = prog.kind
    aa = prog.a
    bb = prog.b
    extra = prog.extra
    prod_body = prog.prod_body
    n = len(data)
    farthest = -1

    memo_entries = memo.entries if memo is not None else None
    # Tree mode: the rule nodes and leaf spans made so far, in order.
    kids = [] if prog.tree else None

    stack = []
    push = stack.append
    pop = stack.pop

    cur = root
    cpos = pos0
    ok = False
    rpos = -1
    val = None
    steps = 0

    while True:
        # Descend until a primitive (or superinstruction) yields a result.
        while True:
            k = kind[cur]
            if k < _K_EMPTY:
                # A composite: push its frame in its first state.
                if k <= _K_TSEQ:
                    push([k, cur, cpos])
                elif k >= _K_TCHOICE:
                    push([k, cur, cpos, len(kids)])
                elif k == _K_STAR:
                    push([k, cur, cpos, [], 0])
                else:
                    push([k, cur, cpos, len(kids), 0])
                cur = aa[cur]
                continue
            if k == _K_NT:
                p = aa[cur]
                if memo_entries is not None:
                    hit = memo_entries.get((p, cpos))
                    if hit is not None:
                        memo.hits += 1
                        ok, rpos, val, steps = hit
                        steps += 1
                        if ok and kids is not None:
                            kids.append(val)
                        break
                    memo.misses += 1
                push([0, p, cpos])
                cur = prod_body[p]
                continue
            if k == _K_MATCH1:
                tab, vals = extra[cur]
                if cpos > farthest:
                    farthest = cpos
                b = data[cpos] if cpos < n else 256
                t = tab[b]
                if t > 0:
                    ok = True
                    rpos = cpos + 1
                    val = vals[b]
                    if type(val) is int:
                        if kids is None:
                            val = _leaf(cpos, val)
                        else:
                            kids.append((cpos, rpos))
                    steps = t
                else:
                    ok = False
                    rpos = -1
                    val = None
                    steps = -t
                break
            if k == _K_SCAN:
                tab, vals, leaf, find = extra[cur]
                if find is not None:
                    c, s_item = find
                    p = data.find(c, cpos)
                    if p < 0:
                        p = n
                    steps = (p - cpos) * s_item + 1 - tab[c if p < n else 256]
                else:
                    p = cpos
                    steps = 1
                    while p < n:
                        t = tab[data[p]]
                        if t < 0:
                            break
                        steps += t + 1
                        p += 1
                    else:
                        t = tab[256]
                    steps -= t
                if p > farthest:
                    farthest = p
                ok = True
                rpos = p
                if vals is not None:
                    val = Lst(tuple([vals[b] for b in data[cpos:p]]))
                elif leaf and p > cpos:
                    kids.append((cpos, p))
                break
            if k == _K_LIT:
                lbytes, ok_steps, fails, lval = extra[cur]
                klen = len(lbytes)
                limit = n - cpos
                if klen < limit:
                    limit = klen
                j = 0
                while j < limit and data[cpos + j] == lbytes[j]:
                    j += 1
                if j == klen:
                    att = cpos + klen - 1
                    if att > farthest:
                        farthest = att
                    ok = True
                    rpos = cpos + klen
                    val = lval
                    steps = ok_steps
                else:
                    att = cpos + j
                    if att > farthest:
                        farthest = att
                    ok = False
                    rpos = -1
                    val = None
                    steps = fails[j]
                break
            if k == _K_PRED:
                tab = extra[cur][0]
                if cpos > farthest:
                    farthest = cpos
                t = tab[data[cpos] if cpos < n else 256]
                if t > 0:
                    ok = True
                    rpos = cpos
                    val = UNIT
                    steps = t
                else:
                    ok = False
                    rpos = -1
                    val = None
                    steps = -t
                break
            # _K_EMPTY
            ok = True
            rpos = cpos
            val = UNIT
            steps = 1
            break

        # Unwind completed results into waiting frames.  Value-mode and
        # tree-mode states are interleaved, most frequent first.  In
        # tree mode values are not built: leaves, scans and memo hits
        # add to ``kids``, a rule's node takes what was added since its
        # mark, and every frame that discards a result truncates
        # ``kids`` back to its mark.
        descend = False
        while True:
            if not stack:
                return ok, rpos, val, steps, farthest
            f = stack[-1]
            st = f[0]
            if st == 1:                      # Seq, left finished
                if ok:
                    f[0] = 2
                    f.append(steps)
                    f.append(val)
                    cur = bb[f[1]]
                    cpos = rpos
                    descend = True
                    break
                steps += 1
                pop()
            elif st == 7:                    # tree Seq, left finished
                if ok:
                    f[0] = 8
                    f.append(steps)
                    cur = bb[f[1]]
                    cpos = rpos
                    descend = True
                    break
                steps += 1
                pop()
            elif st == 8:                    # tree Seq, right finished
                steps += f[3] + 1
                if ok and (rpos < f[2] or rpos > n):
                    raise InvariantViolation("sequence moved backwards")
                pop()
            elif st == 6:                    # Action
                if ok:
                    ref = extra[f[1]]
                    if ref.span_aware:
                        val = ref.fn(val, f[2], rpos)
                    else:
                        val = ref.fn(val)
                steps += 1
                pop()
            elif st == 2:                    # Seq, right finished
                steps += f[3] + 1
                if ok:
                    if rpos < f[2] or rpos > n:
                        raise InvariantViolation("sequence moved backwards")
                    val = Tup((f[4], val))
                pop()
            elif st == 0:                    # NonTerminal return
                if memo_entries is not None:
                    memo_entries[(f[1], f[2])] = (ok, rpos, val, steps)
                steps += 1
                if ok and (rpos < f[2] or rpos > n):
                    raise InvariantViolation("nonterminal moved backwards")
                pop()
            elif st == 13:                   # a rule's node
                if ok:
                    m = f[3]
                    children = []
                    start = end = -1         # the leaf run being coalesced
                    for x in kids[m:]:
                        if type(x) is tuple:
                            if x[0] == end:
                                end = x[1]
                                continue
                            if start >= 0:
                                children.append(TreeNode("", start, end, ()))
                            start, end = x
                        else:
                            if start >= 0:
                                children.append(TreeNode("", start, end, ()))
                                start = end = -1
                            children.append(x)
                    if start >= 0:
                        children.append(TreeNode("", start, end, ()))
                    del kids[m:]
                    val = TreeNode(extra[f[1]], f[2], rpos, tuple(children))
                    kids.append(val)
                steps += 1
                pop()
            elif st == 3:                    # Choice, first finished
                if ok:
                    steps += 1
                    pop()
                else:
                    f[0] = 4
                    f.append(steps)
                    cur = bb[f[1]]
                    cpos = f[2]
                    descend = True
                    break
            elif st == 11:                   # tree Choice, first finished
                if ok:
                    steps += 1
                    pop()
                else:
                    del kids[f[3]:]
                    f[0] = 4
                    f[3] = steps
                    cur = bb[f[1]]
                    cpos = f[2]
                    descend = True
                    break
            elif st == 4:                    # Choice, second finished
                steps += f[3] + 1
                pop()
            elif st == 9 or st == 10:        # Star, one iteration finished
                if ok:
                    if rpos == f[2]:
                        raise InvariantViolation(
                            "repetition body succeeded without consuming "
                            "input on a certified grammar")
                    if rpos < f[2] or rpos > n:
                        raise InvariantViolation("repetition moved backwards")
                    if st == 9:
                        f[3].append(val)
                    else:
                        f[3] = len(kids)
                    f[4] += steps + 1
                    f[2] = rpos
                    cur = aa[f[1]]
                    cpos = rpos
                    descend = True
                    break
                if st == 9:
                    val = Lst(tuple(f[3]))
                else:
                    del kids[f[3]:]
                ok = True
                rpos = f[2]
                steps += f[4] + 1
                pop()
            elif st == 14:                   # tree drop, leaf or other action
                del kids[f[3]:]
                if ok and extra[f[1]]:
                    kids.append((f[2], rpos))
                steps += 1
                pop()
            else:                            # 5 or 12: Not (12 in tree mode)
                if st == 12:
                    del kids[f[3]:]
                if ok:
                    ok = False
                    rpos = -1
                    val = None
                else:
                    ok = True
                    rpos = f[2]
                    val = UNIT
                steps += 1
                pop()
        if descend:
            continue


def parse(g: Grammar, cert: Certificate, data, mode: str = "plain",
          memo: MemoTable | None = None) -> ParseOutcome:
    """Run the start production on the whole input.

    ``cert`` must have been issued for ``g``; that is what makes this
    entry point total.  ``mode`` is "plain" or "packrat"; both return
    identical outcomes, steps included.  Passing a fresh MemoTable in
    ``memo`` exposes the packrat statistics to the caller (in plain mode
    it stays empty).
    """
    if not isinstance(cert, Certificate) or cert.grammar is not g:
        raise CertificateMismatch()
    if isinstance(data, str):
        data = data.encode("utf-8")
    if mode == "packrat":
        if memo is None:
            memo = MemoTable()
        active = memo
    elif mode == "plain":
        active = None
    else:
        raise ValueError("mode must be 'plain' or 'packrat', got %r" % mode)
    prog = cert.program
    ok, rpos, val, steps, far = _run(prog, data, prog.start, 0, active)
    steps += 1  # the start nonterminal's own rule application
    if ok and not 0 <= rpos <= len(data):
        raise InvariantViolation("result position out of bounds")
    return ParseOutcome(ok, rpos if ok else -1, val if ok else None, steps,
                        farthest=far)


def parse_to_tree(g: Grammar, cert: Certificate, data, mode: str = "plain",
                  memo: MemoTable | None = None) -> ParseOutcome:
    """parse(), asserting the grammar is tree-shaped so Ok values are trees."""
    out = parse(g, cert, data, mode=mode, memo=memo)
    if out.ok and not isinstance(out.value, TreeNode):
        raise TypeError("grammar does not carry the built-in tree-shaping "
                        "actions; load it from .peg text")
    return out


def eval_expr(e: Expr, data, pos: int = 0, g: Grammar | None = None,
              mode: str = "plain", memo: MemoTable | None = None) -> ParseOutcome:
    """Evaluate a single expression at a position.

    This is the uncertified internal entry point used by tests;
    nonterminals resolve against ``g``.  Termination is NOT
    guaranteed here unless the caller knows the expression terminates;
    use the fueled oracle for arbitrary expressions.

    When ``g`` is tree-shaped the expression runs in tree mode, where
    only the values of rule applications are built: for any other root
    only ok, pos and steps (and farthest) are meaningful, and the value
    is not the oracle's value spine.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if not 0 <= pos <= len(data):
        raise ValueError("position out of range")
    if mode == "packrat":
        active = memo if memo is not None else MemoTable()
    else:
        active = None
    prog, roots = _compile(g, roots=(e,))
    ok, rpos, val, steps, far = _run(prog, data, roots[0], pos, active)
    return ParseOutcome(ok, rpos if ok else -1, val if ok else None, steps,
                        farthest=far)
