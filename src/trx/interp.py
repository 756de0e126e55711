"""Step-counted interpreter for certified grammars.

Every outcome carries the exact step index of its derivation: leaves
cost one step, and each composite rule adds one to the sum of its
sub-derivations (sequences and failing choices run both parts, a
succeeding choice only the first).  Plain and packrat modes return
byte-identical outcomes, steps included.

Packrat mode memoises the outcomes of rule applications, keyed by
(production, position), but only of the rules a parse can call again
at a position.  Two parts decide which.  The static seed set, computed
on a program's first packrat parse from the nullability flags of the
certificate's analysis, holds every rule that both alternatives of one
choice can call at the choice's own position other than from inside
another seeded rule; it is memoised from the start.  A program
compiled without a certificate (eval_expr) memoises every rule.  Every
other rule carries a per-parse watermark, the highest position a call
of it has run at (past its head, see below): a call at or below it may
be a re-entry, so from that call on the rule is memoised.  So no rule
body runs more than twice at one position, and packrat stays linear
within a factor of two also on re-entries no choice shows, while a
grammar that never re-enters a rule (xml-lite) makes no memo entries at
all.

Evaluation runs on an explicit heap-allocated frame stack, so input
nesting depth is bounded by memory, not the Python recursion limit;
deeply nested multi-hundred-kilobyte inputs are fine.  Input is an
immutable byte buffer addressed by position; the "remaining string" of
the semantics is represented as the next position.

A byte-local expression is one whose outcome and step count depend
only on the byte under the cursor: a terminal, range or any-char, a
choice of one-byte matchers, the built-in drop or tuple2str action on a
matcher and, in tree mode, the built-in tree-leaf (known by its
ActionRef's identity; an embedder's action with the same label runs as
any other), a negation guard in front of a matcher, and the negation
of any of these.  The compiler derives a step table for each one, the
steps of its outcome on each byte, and the VM runs it, or a repetition
of it, with one table lookup per byte; right-nested terminal chains
(literal runs) get their step arithmetic precomputed too.  Like the
head tables below, a step table is derived from its parts' on a
default and its exceptions, so in time proportional to the bytes that
differ from the default, and the VM still reads each table as a tuple
of 257 entries, written out only for the nodes that hold one, with
equal tables kept as one object.
The oracle differential suite pins their equivalence with the plain
rule-by-rule evaluation.

Tree mode.  A program compiled from a tree-shaped grammar (see
trx.exprs.Grammar; trx.meta.tree_wrap and the .peg loader build them)
builds no value spines: sequences make no pairs and repetitions no
lists.  Like LPeg's capture list, the VM
keeps one flat ``kids`` list of what the tree will hold, in parse
order: rule nodes, and the (start, end) spans of leaves, which leaf
matchers, leaf scans and iteration tables append.  A rule's node
collector takes the slice of ``kids`` from the mark its frame
recorded, coalesces adjacent spans into leaves as a trx.exprs.NodeRef
coalesces leaves, and replaces the slice with the node, which is also
the rule's value and memo entry; a memo hit appends it again.  A node
that fails leaves ``kids`` as it found it: a sequence, the one node
that can fail after its items appended, truncates ``kids`` back to the
mark its frame recorded, as a negation and a drop do to discard what
their inside appended.  So a choice and a repetition have nothing to
undo, and choice, negation and repetition are one opcode each for
both modes.  Other actions appear in such grammars only under ``!`` or
``~``, so the VM does not run them.  The oracle runs the real
collector actions, so the differential suites check this path.  Nodes
are built as flat tuples in one call (see trx.values.TreeNode), and
parse() runs a tree-mode program with the cyclic garbage collector
suspended.

Tree mode also pushes fewer frames for the same step index.  A
right-nested chain of n Seqs' items is one node with one frame, which
adds the n - 1 Seq steps itself: all of them on success, j + 1 on a
failure at item j, and n - 1 on a failure at the last item.  ``m x*``,
m a one-byte matcher (``x+`` among them), is one scan, also inside a
longer chain.  Every rule body is its node collector, and a rule call
pushes one frame, that of the collector's inside where it is a chain
or a choice, else the collector's: when the inside finishes, the frame
builds the node, writes the memo entry (the body's steps, the
collector's included) and adds the call's step.  A call of a leaf
rule, whose collector's inside is one primitive (EMPTY, MATCH1, PRED,
LIT or SCAN: xml-lite's name, text, attrvalue, ws and ws1), pushes no
frame, nor does a drop of one (``~ws``): the call runs the primitive
in place, then adds 1 step for the collector, writes the memo entry,
and adds 1 for the call and 1 more for a drop.  The node is (rule,
start, end) with at most the primitive's one leaf; a drop builds it
only when the call is memoised, since a kept call at that position may
hit the entry.  A memo hit adds 1 step, or 2 for a drop, which appends
nothing.  A drop of a call of a rule whose
collector's inside is a repetition (the meta-grammar's ``~spacing``)
runs the repetition's iteration table in place, as a leaf call runs
its primitive, and pushes a frame only where the table meets a byte
its body must run on (a comment).  That frame, and the one a drop of
any other rule pushes at once, adds the collector's, the call's and
the drop's steps on return, truncates ``kids`` and builds no node;
when packrat memoises the call, which then always runs in frames, the
node frame of the rule's collector is pushed as well and builds the
node for the memo entry.

Value mode builds only the values it returns (LPeg builds a capture
only where it is kept).  ``~x*`` and ``x+`` (a cons over ``m x*``, m
sharing x's value table) over one-byte matchers are one scan each,
adding the drop's, or the Seq's and the cons's, steps itself.  A call
of a rule whose body is one primitive, or one action over one
(mathdemo's ws and number), is a leaf call like TLEAF: no frame, and
the action's step and the call's added in place.  Sequences stay
binary (n-ary measured slower); an action over one is the sequence's
node, and a call of a rule whose body is a choice runs in the choice's
frame.

Head tables.  Most probes of a parse fail on the byte under the cursor
(the meta-grammar tries every operator rule at every token), so every
node has a head, which both modes read: 257 entries indexed like a
step table, with its sign convention, of what the node does when
started on that byte (256: end of input) without running.  Entry t > 0
means it succeeds in t steps by consuming the byte through a one-byte
matcher (in tree mode as a leaf span, in value mode with the byte's
entry of the head's value table); t < 0 that it fails in -t steps,
having tried matchers only at that position and added nothing to
``kids``; 0 that it must run.  The entries follow the step arithmetic.
A matcher's head is its step table; a predicate's, and a SCAN's by its
``first`` table, are its failures; a literal fails in its first
prefix's steps on every byte but its first.  A sequence fails in its
first item's steps + 1, or + 2 with an action, and an action or rule
node in its inside's + 1.  A choice folds its alternatives' heads with
the step tables' choice rule, where a first alternative that is a
choice gives only its failures, so that a choice succeeds only through
the matchers of its right-nested chain (and its value table is
theirs).  Repetitions, negations and EMPTY must run.  A rule call
fails in its rule body's steps + 1, and a drop of one + 2 (a tree-mode
body is its node collector, whose head is its inside's + 1).  A call
its head settles fails on its first byte without running its body, and
so does every later call of that rule at that position, so in packrat
mode it moves no watermark and makes no memo lookup or entry.  The VM
reads heads in two ways.  Descending into a composite or a call, it
reads the node's view, 257 entries of what the node's head settles on
each byte (_NO_FAIL, the empty tuple, where it settles none).  An entry
s > 0 is a failure in s steps: the VM sets ``farthest`` to at least the
position and unwinds the failure without pushing a frame (after LPeg's
head-fail tests, but keeping the step index exact).  A negative entry
indexes the tuples that follow the 257, and also sets ``farthest``: a
repetition whose body's head fails in -t steps succeeds empty in
-t + 1; a negation fails in t + 1 steps where its inside's head
succeeds in t, and succeeds empty in -t + 1 where it fails in -t; and
a choice starts at the first alternative of its right-nested chain
whose head does not fail there, in one frame that carries the steps of
the alternatives it passes, their failures and one per level.  Only
the view says so: the head of a repetition or negation is still "must
run", and a choice's is the fold above, so no other node's head, and
no call that packrat mode memoises, changes.  A repetition that is not
a SCAN (Ford's ``([ \\t\\r\\n] / comment)*``, or an operator star
``(a / b / c)*`` of calls) reads its body's head, written out, as its
iteration table (after LPeg's span and test instructions): it loops
over the input while the entries are positive, adding t + 1 steps
each.  On a negative entry the repetition ends without a frame, adding
-t + 1, with ``farthest`` at least the position; on 0 it pushes its
frame with the steps and the span so far and runs the body.  After
each iteration that ran the body, the frame reads the next entry: it
goes back to the table on a positive one, ends on a negative one, and
runs the body again on 0.  A head is built the first
time a parse descends into its node (compiling builds none, so
certification does not pay for them), with those it is made from, with
an explicit stack, and kept on the program with its views; equal
tuples are one object.

Certification compiles the program once and the Certificate carries
it, so parse() runs exactly the grammar that was certified.  The
compiler's walks over an expression, the emitting one and the byte
tables', are steps of trx.exprs._walk, which keeps them on an explicit
stack: a grammar of any depth compiles, so every grammar that loads
gets a verdict.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext

from .exprs import (CONS, DROP, LEAF, TUPLE2STR, Action, AnyChar, Choice,
                    Empty, Expr, Grammar, NodeRef, NonTerminal, Not, Range,
                    Seq, Star, Terminal, _walk, terminal_chain)
from .values import (CHAR, Char, Lst, Record, Str, TreeNode, Tup, UNIT, Value,
                     gc_suspended)


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
    program compiled from it, with the analysis's nullability flags,
    which is what parse() runs.  Neither can be reassigned or deleted
    afterwards.
    """

    __slots__ = ("grammar", "program")

    def __init__(self, grammar: Grammar, key=None, props=None):
        if key is not _CERT_KEY:
            raise TypeError("certificates are issued by check_well_formed()")
        object.__setattr__(self, "grammar", grammar)
        object.__setattr__(self, "program", _compile(grammar, props=props)[0])

    def __setattr__(self, name, value):
        raise AttributeError("certificates are immutable")

    def __delattr__(self, name):
        raise AttributeError("certificates are immutable")

    def __repr__(self):
        return "Certificate(%r)" % (self.grammar,)


class CertificateMismatch(Exception):
    def __init__(self):
        super().__init__("certificate was not issued for this grammar")


class ParseOutcome(Record):
    """Fail or Ok(next position, value), plus the exact step count.

    ``farthest`` is diagnostic metadata (the rightmost input position at
    which any terminal, range or any-char match was attempted, -1 if
    none) and does not participate in equality or hashing.
    """

    __slots__ = __match_args__ = ("ok", "pos", "value", "steps", "farthest")

    def __init__(self, ok: bool, pos: int, value: Value | None, steps: int,
                 farthest: int = -1):
        put = object.__setattr__
        put(self, "ok", ok)
        put(self, "pos", pos)
        put(self, "value", value)
        put(self, "steps", steps)
        put(self, "farthest", farthest)

    def _key(self) -> tuple:
        return self.ok, self.pos, self.value, self.steps

    def __repr__(self):
        if self.ok:
            return "Ok(pos=%d, %r, steps=%d)" % (self.pos, self.value, self.steps)
        return "Fail(steps=%d, farthest=%d)" % (self.steps, self.farthest)


class MemoTable:
    """Per-parse memo of nonterminal body outcomes.

    An entry's key encodes (production, position) as one int, position
    times the number of productions plus the production index, which
    hashes and compares faster than a tuple.  Only memoised calls (see
    the module docstring) look it up: hits + misses is their number,
    and each miss writes one entry, so entries equals misses.  Entries
    are written once and never contradicted.

    Since keys hold no program and no input, a table serves one of
    each: the first packrat parse given the table binds it to the
    parse's program and input, and a packrat parse with another program
    or another input raises ValueError.  Plain mode neither reads nor
    binds it.
    """

    __slots__ = ("entries", "hits", "misses", "program", "data")

    def __init__(self):
        self.entries = {}
        self.hits = 0
        self.misses = 0
        self.program = None
        self.data = None

    def _bind(self, program, data: bytes):
        if self.program is None:
            self.program = program
            self.data = data
        elif self.program is not program or (self.data is not data
                                             and self.data != data):
            raise ValueError("a MemoTable serves one program and one "
                             "input; pass a fresh one")


def memo_stats(table: MemoTable) -> dict:
    return {"entries": len(table.entries), "hits": table.hits,
            "misses": table.misses}


# Opcodes.  A composite node's opcode is the state its frame starts in,
# and the numbering groups composites by frame shape:
#   [state, node, pos]                     SEQ, CHOICE, ACT
#   [state, node, pos, items, steps, tab]  STAR (tab: its iteration table)
#   [state, node, pos, next, steps, mark]  TSEQ (next: the item to run next)
#   [8, node, pos, mark, key]              NODE and TNT
#   [state, node, pos, mark]               NOT, TACT
#   [10, node, pos, mark, add]             TDNT
#   [0, body, pos, key]                    NT
#   [3, node, pos, key]                    CHOICE, run by an NT call
#   [_S_LATER, node, pos, steps]           CHOICE, started by its view
#   [state, node, pos, ..., call, pos, mark, key]
#                                          TSEQ or CHOICE, run by a TNT call
# where ``mark`` is where the node's children start in ``kids`` (None
# for a value-mode NOT), and a value-mode STAR's ``items`` is the list
# of its items' values (None in tree mode).  The states in between
# continue a node (2: Seq right, 4: Choice second), and 0 returns from a
# value-mode call.  A SEQ or CHOICE frame grows by what it keeps while
# its second part runs (the left value and steps, the steps to add when
# the second finishes but one: the first alternative's, or those of the
# alternatives before it in the chain).  A choice's view starts it at a
# later alternative of its right-nested chain in state _S_LATER, running
# the first alternative of ``node``, a level of the chain, with the
# steps of those before it; or in state 4, running the last alternative
# as the second of the last level.  When a later alternative fails, the
# frame turns to state 4 and runs the second of its level.
# ``len(f)`` tells a call's frame from the node's
# own.  A node that fails leaves ``kids`` as it found it, so CHOICE, NOT
# and STAR serve both modes: only a tree-mode sequence, which fails
# after earlier items may have appended, and a NOT or drop, which
# discard what a succeeding inside appended, truncate ``kids`` back to
# their mark.  Tree-mode programs use TSEQ, NODE and TACT in place of
# SEQ and ACT.  A value-mode SEQ whose ``extra`` is an ActionRef is an
# action over the sequence, which SEQ's states apply and count.  A
# value-mode call (NT) of a rule whose body is a CHOICE pushes the
# choice's frame with the memo key, and the choice makes the call's
# return when it finishes, as state 0 does for other bodies.  A
# tree-mode rule call (TNT) pushes the frame of its collector's inside
# where that is a TSEQ or CHOICE, with the call's node, start, mark and
# key after the node's own slots; when the inside finishes, the frame
# turns into the NODE state in place (NODE reads its slots from the
# end), and the unwind loop goes round again.  Otherwise TNT runs the
# collector in its own frame, in the NODE state.  ``key`` is the memo
# key, -1 for a call that is not memoised, or None for a bare collector
# (a parse's start rule, or an eval_expr root).  A drop of a tree-mode
# call is TDNT, whose frame is in TACT's state with ``add`` the steps it
# adds on return (3, or 1 when the call is memoised and a NODE frame for
# its memo entry sits above it).  A call of a leaf rule, one whose
# collector's inside is a single EMPTY, MATCH1, PRED, LIT or SCAN, is
# TLEAF, and a drop of one TDLEAF.  In value mode a call of a rule whose
# body is such a primitive, or one action over it, is LEAF.  It stays
# apart from TLEAF: sharing TLEAF's ``kids`` mark and drop flag costs
# value mode a test and a compare on every leaf call (0.7 % more
# bytecodes run in _run on the math-packrat corpus, and 1.7 % less
# throughput there in 5 of 6 timed pairs).  The six calls are numbered
# next to each other, after the other composites, but the leaf calls
# push no frame: they run that primitive in place, then add the
# collector's or the action's step, write the memo entry and add the
# call's step, and a drop's; so does a TDNT call of a rule whose
# collector's inside is a STAR, unless it is memoised, until the STAR
# needs its frame, when it pushes the TDNT frame below it.  The VM reads
# the view of every opcode below EMPTY, a call's before its memo
# bookkeeping, and STAR's iteration table too (see the module
# docstring); a repetition's frame is pushed only when its body runs,
# and its ``pos`` and ``steps`` start where the table stopped.
# Terminals, ranges and any-char always compile to MATCH1; MATCH1, PRED,
# LIT and SCAN are superinstructions.
_K_SEQ, _K_CHOICE, _K_ACT, _K_STAR = 1, 3, 5, 6
_K_TSEQ, _K_NODE, _K_NOT, _K_TACT = range(7, 11)
_K_TNT, _K_TLEAF, _K_TDLEAF, _K_TDNT, _K_NT, _K_LEAF = range(11, 17)
_K_EMPTY, _K_MATCH1, _K_PRED, _K_LIT, _K_SCAN = range(17, 22)

# The ``extra`` of a LEAF call whose rule body is the primitive itself.
_NO_ACTION = object()


class _Program:
    """Grammar flattened into parallel per-node arrays for the VM.

    ``extra`` holds a superinstruction's descriptor, a value-mode action
    node's or LEAF call's ActionRef (_NO_ACTION for none), the action a
    value-mode sequence carries (None for none), a tree node's
    or tree-mode call's rule name (its NodeRef's), or a tree-mode
    sequence's items; a tree-mode action's is None.  A call's ``a`` is its
    production; a tree-mode call's (TNT, TLEAF, TDLEAF, TDNT) ``b`` is
    the inside of the production's node collector, and a LEAF call's
    the primitive it runs.  A tree-mode sequence's ``a`` is its first
    item.  Every node is reachable from ``prod_body`` (or from the roots
    it was compiled for).  ``tree`` is set when the program was compiled
    from a tree-shaped grammar, and its choices, negations and
    repetitions are those of value mode.  ``null`` holds, per node, the
    analysis's "can succeed without consuming" flag of the expression
    the node was compiled from (an ``m x*`` scan item has m's), or is
    None for a program compiled without a certificate.

    A program is sealed when it is made: the arrays are tuples and no
    attribute can be set or deleted, so a certificate's program stays
    the one compiled from its grammar.  ``marks``, ``heads`` and
    ``shared`` are private caches, each a pure function of the sealed
    arrays, filled as parses need them.  ``marks`` holds the watermarks
    a packrat parse starts from (see _initial_marks); it is computed on
    the program's first packrat parse.  ``heads``, which both modes
    read, is a list of 2n entries for n nodes, made with the program and
    not replaceable; all are None until _head_table builds them.  Entry
    n + i is node i's head, a default and its exceptions with its value
    table (a choice's with its view too, before it is written out), and
    entry i the view the VM reads on descending into node i, a tuple
    (see _view) or _NO_FAIL.  A repetition's own head settles nothing,
    so its entry n + i holds its iteration table instead, its body's
    head written out with the value table.  ``shared`` is the
    pool of tables written out as tuples (see _dense), one copy of each
    distinct table, which the compiler starts with the step tables and
    parses add the heads' to.
    """

    __slots__ = ("kind", "a", "b", "extra", "prod_body", "start", "tree",
                 "null", "marks", "heads", "shared")

    def __init__(self, kind, a, b, extra, prod_body, start, tree, null,
                 shared):
        init = object.__setattr__
        init(self, "kind", tuple(kind))
        init(self, "a", tuple(a))
        init(self, "b", tuple(b))
        init(self, "extra", tuple(extra))
        init(self, "prod_body", tuple(prod_body))
        init(self, "start", start)
        init(self, "tree", tree)
        init(self, "null", null)
        init(self, "marks", None)
        init(self, "heads", [None] * (2 * len(kind)))
        init(self, "shared", shared)

    def __setattr__(self, name, value):
        raise AttributeError("a compiled program is sealed")

    def __delattr__(self, name):
        raise AttributeError("a compiled program is sealed")


# --- Superinstruction descriptors --------------------------------------
#
# MATCH1 and PRED: (steps, values).  ``steps`` has 257 entries indexed by
#   the byte under the cursor, 256 standing for end of input: t > 0
#   succeeds in t steps, t < 0 fails in -t steps.  A one-byte matcher
#   consumes its byte on success and ``values`` has 256 entries: in
#   value mode the Value of a success on that byte, in tree mode _SPAN
#   where the success is a leaf span.  Entries of failing bytes are
#   never read, so equal tables are common and are shared.  A predicate
#   is zero-width, has ``values`` None and yields Unit.
# LIT: (bytes, ok_steps, fail_steps_per_prefix, value) for a fixed byte
#   string (a right-nested terminal chain).
# SCAN: (steps, values, leaf, find, first, base) for a repetition of a
#   matcher.  In tree mode a rule's node coalesces adjacent leaves, so
#   ``values`` is None and a non-empty run of leaves (``leaf``) adds one
#   leaf span covering it to the children list.  Embedded grammars keep
#   the exact items, as a list, except under a drop (``~x*``), whose
#   ``values`` is None and which yields Unit.  ``find`` is
#   (c, item_steps) when c is the only byte that ends the run and every
#   other byte costs the same, so the scan is bytes.find; otherwise
#   None.  ``first`` is None for ``x*``.  For a tree-mode ``m x*``
#   (``x+`` and the like: m a one-byte matcher whose leaves agree with
#   the scan's) it is m's step table with the Seq's step added, which m
#   runs on the first byte; the span then starts at m's byte.  A success
#   adds the step; a failure adds it only when the pair ends its
#   tree-mode sequence, since a failure at an earlier item has the
#   sequence count it (see _run).  For a value-mode ``x+`` (a cons over
#   ``m x*``, m's value table x's) it has the Seq's and the cons's steps
#   added, on success and on failure, and the list holds m's value too.
#   ``base`` is the steps a scan adds to its items': 1 for the
#   repetition, 2 under a drop.
#
# The VM reads every step table, view and iteration table as a
# tuple of 257 entries.  The compiler and _head_table derive tables from
# tables entry by entry, and they do so on a default and its
# exceptions, ``(d, {index: entry})`` with every entry not listed equal
# to d: a terminal's table has one exception, and so has ``.``'s (end
# of input).  So a derivation costs time in proportion to the entries
# that differ from the default, and a table is written out as a tuple
# only where a node holds it for the VM (see _dense).

_UNITS = (UNIT,) * 256
_STR1 = tuple(Str(bytes([b])) for b in range(256))
# The value table of a tree-mode leaf matcher: each entry marks a leaf
# span, which the VM appends to ``kids``.
_SPAN = object()
_SPANS = (_SPAN,) * 256


def _dense(table, pool: dict, tail: tuple = ()) -> tuple:
    # The tuple of ``table``, and ``tail`` after it: ``pool`` keeps equal
    # tuples as one object.  Equal tables that two nodes hold are written
    # twice and kept once: a cache keyed by the default and exceptions
    # saved 4 of 1 187 writes in a grammar-check round and held more
    # memory than the tuples.
    d, exc = table
    out = [d] * 257
    for i, t in exc.items():
        out[i] = t
    if tail:
        out += tail
    out = tuple(out)
    return pool.setdefault(out, out)


def _sparse(t) -> tuple:
    # The default and exceptions of a table written out as a sequence.
    return t[0], {i: x for i, x in enumerate(t) if x != t[0]}


def _map(f, table):
    # The table of f(x) for every entry x of ``table``.
    d, exc = table
    nd = f(d)
    return nd, {i: y for i, x in exc.items() if (y := f(x)) != nd}


def _zip(f, a, b):
    # The table of f(x, y) for the entries x of ``a`` and y of ``b`` at
    # each index.
    (da, ea), (db, eb) = a, b
    d = f(da, db)
    return d, {i: t for i in ea.keys() | eb.keys()
               if (t := f(ea.get(i, da), eb.get(i, db))) != d}


def _byte_table(e: Expr, tree_mode: bool, pool: dict):
    """(steps, values) of ``e``, or None if it is not byte-local: a step
    of trx.exprs._walk, whose memo keeps the tables of one compile, so
    that every compile starts cold.  ``steps`` is a default and its
    exceptions, which _dense writes out into ``pool`` where the program
    holds it (a mixed choice's value table is made from it too).  In
    value mode a value table holds Values; a leaf is not byte-local
    there, since its value depends on the position.  In tree mode,
    where only leaf spans are kept, a leaf's table is _SPANS and a guard
    keeps its matcher's value table.
    """
    t = type(e)
    if t is AnyChar:
        steps, values = (1, {256: -1}), CHAR
    elif t is Terminal or t is Range:
        lo, hi = (e.code, e.code) if t is Terminal else (e.lo, e.hi)
        steps, values = (-1, dict.fromkeys(range(lo, hi + 1), 1)), CHAR
    elif t is Choice:
        a = yield e.first
        b = a and a[1] is not None and (yield e.second)
        if not b or b[1] is None:
            return None
        (sa, va), (sb, vb) = a, b
        steps = _zip(_choice_steps, sa, sb)
        values = (va if va is vb
                  else _choice_values(_dense(sa, pool), va, vb))
    elif t is Seq:
        g = yield e.left
        m = g and g[1] is None and (yield e.right)
        if not m or m[1] is None:
            return None
        steps = _zip(_guarded_steps, g[0], m[0])
        values = m[1] if tree_mode else _guarded_values(m[1])
    elif t is Not:
        i = yield e.inner
        if i is None:
            return None
        steps, values = _map(_not_steps, i[0]), None
    elif t is Action:
        i = yield e.inner
        if i is None or i[1] is None:
            return None
        ref = e.ref
        if ref is LEAF and tree_mode:
            values = _SPANS
        elif ref is DROP:
            values = _UNITS
        elif ref is TUPLE2STR and i[1] is CHAR:
            values = _STR1
        else:
            return None
        steps = _map(_action_steps, i[0])
    else:
        return None
    return steps, values


# The entries of the tables _byte_table derives: of a choice of two
# matchers, of a guard in front of a matcher, of a negation and of an
# action.  A choice also folds heads (see _head_table), whose 0
# entries, which no byte-local table has, mean "must run".

def _choice_steps(x, y):
    return (x + 1 if x > 0 else 0 if not (x and y)
            else y - x + 1 if y > 0 else x + y - 1)


def _choice_values(sa, va, vb):
    return tuple([u if x > 0 else w for x, u, w in zip(sa, va, vb)])


def _guarded_steps(x, y):
    return x - 1 if x < 0 else x + y + 1 if y > 0 else y - x - 1


def _guarded_values(vm):
    return tuple([Tup((UNIT, v)) for v in vm])


def _not_steps(x):
    return -x - 1 if x > 0 else 1 - x


def _action_steps(x):
    return x + 1 if x > 0 else x - 1


def _successes(table, values) -> tuple:
    # How many bytes (not end of input) a tree-mode matcher with the
    # step table ``table`` succeeds on, and on how many of them its value
    # table ``values`` makes a leaf span.
    d, exc = table
    flips = sum([(t > 0) != (d > 0) for i, t in exc.items() if i < 256])
    n = 256 - flips if d > 0 else flips
    return n, (n if values is _SPANS else sum(
        [values[i] is _SPAN for i in range(256) if exc.get(i, d) > 0]))


def _scan_descriptor(table, values, tree_mode: bool, pool: dict,
                     base: int = 1):
    """SCAN descriptor for a repetition of a matcher with the step table
    ``table``, or None when it is a tree-mode matcher that makes a leaf
    span on some bytes only.  ``values`` is None for a value-mode
    repetition under a drop.  ``pool`` is _dense's."""
    leaf = False
    if tree_mode:
        n, leaves = _successes(table, values)
        if 0 < leaves < n:
            return None
        values, leaf = None, leaves > 0
    steps = _dense(table, pool)
    find = None
    # One byte fails, and the others succeed in equal steps.
    head = steps[:256]
    lo, hi = min(head), max(head)
    if lo < 0 < hi and head.count(lo) == 1 and head.count(hi) == 255:
        find = (head.index(lo), hi + 1)
    return steps, values, leaf, find, None, base


def _plus_descriptor(m: Expr, rep: Expr, tables, pool: dict,
                     tree_mode: bool, ok_add: int, fail_add: int):
    """SCAN descriptor of ``m rep`` (see SCAN above), or None when it is
    not an ``m x*`` whose items the scan can make.  ``tables`` gives an
    expression's byte tables and ``pool`` is _dense's.  ``ok_add`` and
    ``fail_add`` are the steps the scan adds to m's success and to its
    failure: the Seq's, and in value mode the cons's."""
    if type(rep) is not Star:
        return None
    mt = tables(m)
    xt = tables(rep.inner)
    if mt is None or mt[1] is None or xt is None or xt[1] is None:
        return None
    scan = _scan_descriptor(xt[0], xt[1], tree_mode, pool)
    if scan is None:
        return None
    steps, values = mt
    if tree_mode:
        # One span covers both parts, so m's successes must be leaves
        # exactly when the scan's are.
        n, leaves = _successes(steps, values)
        if leaves != (n if scan[2] else 0):
            return None
    elif values is not xt[1]:
        # The list is made from x's value table, m's byte included.
        return None
    first = _map(lambda t: t + ok_add if t > 0 else t - fail_add, steps)
    return scan[:4] + (_dense(first, pool), 1)


def _spine_value(data: bytes):
    out = CHAR[data[-1]]
    for b in reversed(data[:-1]):
        out = Tup((CHAR[b], out))
    return out


def _as_lit(e: Expr):
    refs = []
    while type(e) is Action:
        refs.append(e.ref)
        e = e.inner
    data = terminal_chain(e)
    if data is None:
        return None
    value = _spine_value(data)
    for ref in reversed(refs):
        if ref is DROP:
            value = UNIT
        elif ref is TUPLE2STR and type(value) in (Tup, Char):
            value = Str(data)
        else:
            return None
    k, n = len(data), len(refs)
    fails = tuple((1 if j == k - 1 else 2) + 2 * j + n for j in range(k))
    return (data, 2 * k - 1 + n, fails, value)


def _compile(g: Grammar | None, roots=(),
             props=None) -> tuple[_Program, list[int]]:
    """The program of ``g`` and the nodes of ``roots``.  ``props``, the
    PropertyTable of a certified ``g``, gives the program its ``null``.

    Both walks, the emitting one (visit) and the byte tables'
    (_byte_table, with a memo of its own), are steps of trx.exprs._walk,
    so a grammar of any depth compiles.  A node is emitted after the
    nodes it runs."""
    kind, aa, bb, extras, prod_body = [], [], [], [], []
    sources = []                    # the expression each node runs
    start = -1
    tree_mode = bool(g is not None and g.tree_shaped)
    index = {}                      # expression -> its node
    prod_index = {}
    byte_tables, pool = {}, {}      # pool: the tables written out (_dense)

    if g is not None:
        prod_index = {name: i for i, name in enumerate(g.nonterminals)}
        prod_body = [-1] * len(g.nonterminals)

    def table_step(e: Expr):
        return _byte_table(e, tree_mode, pool)

    def tables(e: Expr):
        return _walk(table_step, e, byte_tables)

    def emit(e, k, a=-1, b=-1, extra=None) -> int:
        sources.append(e)
        kind.append(k)
        aa.append(a)
        bb.append(b)
        extras.append(extra)
        return len(kind) - 1

    def seq_items(e: Seq):
        """The compiled items of the right-nested chain ``e`` heads, a
        sub-generator of visit: the chain goes on while the right part
        is a Seq that is not byte-local or a literal.  Items cost what
        they would cost as parts of binary Seqs, so only the Seqs' own
        steps need counting (see _run).  An ``m x*`` pair becomes one
        SCAN."""
        parts = [e.left]
        e = e.right
        while type(e) is Seq and tables(e) is None and _as_lit(e) is None:
            parts.append(e.left)
            e = e.right
        parts.append(e)
        items = []
        i = 0
        while i < len(parts):
            plus = (_plus_descriptor(parts[i], parts[i + 1], tables, pool,
                                     True, 1, i + 2 == len(parts))
                    if i + 1 < len(parts) else None)
            if plus is not None:
                items.append(emit(parts[i], _K_SCAN, extra=plus))
                i += 2
            else:
                items.append((yield parts[i]))
                i += 1
        return tuple(items)

    def production(e: NonTerminal) -> int:
        p = prod_index.get(e.name)
        if p is None:
            raise KeyError("nonterminal %r is not in the grammar" % e.name)
        return p

    def visit(e: Expr):
        """The node of ``e``: a step of trx.exprs._walk over ``index``."""
        t = type(e)
        if t is Star:
            m = tables(e.inner)
            if m is not None and m[1] is not None:
                scan = _scan_descriptor(m[0], m[1], tree_mode, pool)
                if scan is not None:
                    return emit(e, _K_SCAN, extra=scan)
            return emit(e, _K_STAR, (yield e.inner))
        if t is NonTerminal:
            return emit(e, _K_TNT if tree_mode else _K_NT, production(e))
        if t is Empty:
            return emit(e, _K_EMPTY)
        m = tables(e)
        if m is not None:
            return emit(e, _K_PRED if m[1] is None else _K_MATCH1,
                        extra=(_dense(m[0], pool), m[1]))
        lit = _as_lit(e)
        if lit is not None:
            return emit(e, _K_LIT, extra=lit)
        if t is Seq and tree_mode:
            items = yield from seq_items(e)
            return (items[0] if len(items) == 1
                    else emit(e, _K_TSEQ, items[0], extra=items))
        if t is Seq:
            return emit(e, _K_SEQ, (yield e.left), (yield e.right))
        if t is Choice:
            return emit(e, _K_CHOICE, (yield e.first), (yield e.second))
        if t is Not:
            return emit(e, _K_NOT, (yield e.inner))
        if t is not Action:
            raise TypeError("not a parsing expression: %r" % (e,))
        inner = e.inner
        if not tree_mode:
            # ``x+`` and ``~x*`` are one scan each.
            scan = None
            if e.ref is CONS and type(inner) is Seq:
                scan = _plus_descriptor(inner.left, inner.right, tables, pool,
                                        False, 2, 2)
            elif e.ref is DROP and type(inner) is Star:
                x = tables(inner.inner)
                if x is not None and x[1] is not None:
                    scan = _scan_descriptor(x[0], None, False, pool, 2)
            if scan is not None:
                return emit(e, _K_SCAN, extra=scan)
            if type(inner) is Seq and tables(inner) is None \
                    and _as_lit(inner) is None:
                # An action over a sequence is the sequence's node.
                return emit(e, _K_SEQ, (yield inner.left), (yield inner.right),
                            extra=e.ref)
            return emit(e, _K_ACT, (yield inner), extra=e.ref)
        if type(e.ref) is NodeRef:
            return emit(e, _K_NODE, (yield inner), extra=e.ref.rule)
        # In a tree-shaped grammar a drop, or any action inside ! or ~,
        # which discard its value and leaves (a leaf outside them is
        # over one byte, so a MATCH1).
        if type(inner) is NonTerminal:
            # A drop of a call (see the post-pass below).
            return emit(e, _K_TDNT, production(inner))
        return emit(e, _K_TACT, (yield inner))

    if g is not None:
        for i, name in enumerate(g.nonterminals):
            prod_body[i] = _walk(visit, g.productions[name], index)
        start = prod_body[prod_index[g.start]]
    root_ids = [_walk(visit, r, index) for r in roots]
    if tree_mode:
        # A tree-mode call, kept or dropped, runs the inside of its
        # rule's node collector, which every rule body of a tree-shaped
        # grammar is.  When that inside is one primitive the call is a
        # leaf call.
        for i, k in enumerate(kind):
            if k == _K_TNT or k == _K_TDNT:
                collector = prod_body[aa[i]]
                bb[i] = aa[collector]
                extras[i] = extras[collector]
                if kind[bb[i]] >= _K_EMPTY:
                    kind[i] = _K_TLEAF if k == _K_TNT else _K_TDLEAF
    else:
        # A value-mode call of a rule whose body is one primitive, or one
        # action over one primitive, is a leaf call.
        for i, k in enumerate(kind):
            if k == _K_NT:
                body = prod_body[aa[i]]
                if kind[body] >= _K_EMPTY:
                    kind[i], bb[i], extras[i] = _K_LEAF, body, _NO_ACTION
                elif kind[body] == _K_ACT and kind[aa[body]] >= _K_EMPTY:
                    kind[i], bb[i], extras[i] = _K_LEAF, aa[body], extras[body]
    null = None if props is None else tuple(map(props.can_empty, sources))
    return (_Program(kind, aa, bb, extras, prod_body, start, tree_mode, null,
                     pool), root_ids)


# A watermark above every position: the rule is memoised at every call.
_ALWAYS = sys.maxsize


def _initial_marks(prog: _Program) -> list:
    """Per-rule watermarks a packrat parse starts from: _ALWAYS for the
    rules of the static seed set, -1 for the others.

    The seed set holds every rule that both alternatives of one choice
    can call at the choice's own position, so that the second
    alternative may call it where the first already did.  A rule leads
    an expression through prefixes that can succeed empty (the
    certificate's flags, ``prog.null``), negations, repetitions,
    actions and the bodies of leading rules, but not through the body
    of a seeded rule: a seeded rule's second call there is a memo hit,
    which runs no body.  Rule sets are bit masks over production
    indices, and a node's children have lower indices than the node.

    A node's direct leads (not through a called rule's body) take one
    pass in index order.  Then one pass over the rules, callers first,
    decides the seed set: a rule's membership depends only on the rules
    that lead to it, which come before it.  A rule is seeded when the
    first and the second alternative of some choice both lead to it;
    otherwise it passes the choices that lead to it on to the rules it
    leads.  Every lead is a well-formedness premise, so a certified
    program's leading calls form no cycle.  A program compiled without
    a certificate (eval_expr) has no flags and memoises every rule.
    """
    kind, aa, bb, extra, body, null = (prog.kind, prog.a, prog.b, prog.extra,
                                       prog.prod_body, prog.null)
    if null is None:
        return [_ALWAYS] * len(body)
    direct = [0] * len(kind)        # rules called at the node's position
    for i, k in enumerate(kind):
        if _K_TNT <= k <= _K_LEAF:  # a call
            direct[i] = 1 << aa[i]
        elif k == _K_SEQ or k == _K_TSEQ:
            out = 0
            for x in extra[i] if k == _K_TSEQ else (aa[i], bb[i]):
                out |= direct[x]
                if not null[x]:
                    break
            direct[i] = out
        elif k == _K_CHOICE:
            direct[i] = direct[aa[i]] | direct[bb[i]]
        elif k < _K_EMPTY:
            direct[i] = direct[aa[i]]
    callees = [_bits(direct[b]) for b in body]

    # The rules, callees first (depth first, with an explicit stack).
    order = []
    state = [0] * len(body)         # 1: on the stack, 2: ordered
    for root in range(len(body)):
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(callees[root]))]
        while stack:
            p, rest = stack[-1]
            for q in rest:
                if not state[q]:
                    state[q] = 1
                    stack.append((q, iter(callees[q])))
                    break
                if state[q] == 1:
                    raise InvariantViolation(
                        "leading calls form a cycle in a certified program")
            else:
                stack.pop()
                state[p] = 2
                order.append(p)

    # Per rule, bit masks of the choices whose first and whose second
    # alternative lead to it; callers first, each rule then decides.
    first = [0] * len(body)
    second = [0] * len(body)
    bit = 1
    for i, k in enumerate(kind):
        if k == _K_CHOICE and direct[aa[i]] and direct[bb[i]]:
            for p in _bits(direct[aa[i]]):
                first[p] |= bit
            for p in _bits(direct[bb[i]]):
                second[p] |= bit
            bit <<= 1
    marks = [-1] * len(body)
    for p in reversed(order):
        if first[p] & second[p]:
            marks[p] = _ALWAYS
        else:
            for q in callees[p]:
                first[q] |= first[p]
                second[q] |= second[p]
    return marks


def _bits(mask: int) -> list:
    """The indices of the bits set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# The view of a node that settles no byte at its descent.
_NO_FAIL = ()
# The head of a node that settles no byte without running.
_RUNS = (0, {})
# The unwind state of a choice's frame that runs a later alternative of
# its right-nested chain, started there by the choice's view.
_S_LATER = -1


def _failures(x):
    return x if x < 0 else 0


def _view(table, pool: dict) -> tuple:
    """The view ``table``, a default and its exceptions, written out as
    the VM reads it (_NO_FAIL if every entry is 0): 257 entries, where a
    tuple entry (a zero-width success, or a choice's start) stands as a
    negative index into the tail that follows them, which holds each
    distinct tuple once, in the order in which the entries first name
    them.  ``pool`` is _dense's."""
    if table == _RUNS:
        return _NO_FAIL
    d, exc = table
    tail = ()
    if type(d) is tuple or tuple in set(map(type, exc.values())):
        first = {}                  # each tuple's first index
        for i in sorted(exc, reverse=True):
            if type(exc[i]) is tuple:
                first[exc[i]] = i
        if type(d) is tuple:
            first[d] = next(i for i in range(257) if i not in exc)
        tail = tuple(sorted(first, key=first.get))
        at = {t: j - len(tail) for j, t in enumerate(tail)}
        table = _map(lambda t: at[t] if type(t) is tuple else t, table)
    return _dense(table, pool, tail)


def _head_table(prog: _Program, heads: list, root: int):
    """Build the head of node ``root``, and its views, with the heads it
    is made from that ``heads`` does not hold yet (see the module
    docstring and _Program).  A head is a default and its exceptions,
    with the value table of its successes (None in tree mode); a
    choice's also carries its view before it is written out, from which
    the views of the choices whose chains it ends are made.  Only a
    matcher and a choice succeed, a choice only through the matchers of
    its right-nested chain, so that its value table is made of theirs.

    Depth first with an explicit stack.  A head made from one that is
    still being built (a cycle of leading calls, which only an
    uncertified program has) takes that one as _RUNS, which is always
    exact: the node then runs.
    """
    kind, aa, bb, extra, body = (prog.kind, prog.a, prog.b, prog.extra,
                                 prog.prod_body)
    n = len(kind)
    pool = prog.shared
    opened = set()
    todo = [root]
    while todo:
        i = todo[-1]
        if heads[n + i] is not None:
            todo.pop()
            continue
        k = kind[i]
        # The heads this one is made from, and the steps a node adds to
        # a failure of the first of them at its own position.
        if k == _K_SEQ or k == _K_TSEQ or k == _K_ACT or k == _K_TACT \
                or k == _K_NODE:
            # A value-mode sequence that carries an action adds its step.
            parts, add = (aa[i],), 1 + (k == _K_SEQ and extra[i] is not None)
        elif k == _K_CHOICE:
            parts = (aa[i], bb[i])
        elif k == _K_STAR or k == _K_NOT:
            parts = (aa[i],)
        elif k >= _K_TNT and k <= _K_LEAF:
            # A call: its rule body's, and the call's step and a drop's.
            parts = (body[aa[i]],)
            add = 2 if k == _K_TDLEAF or k == _K_TDNT else 1
        else:
            parts = ()
        if i not in opened:
            opened.add(i)
            more = [x for x in parts if heads[n + x] is None and x not in opened]
            if more:
                todo.extend(more)
                continue
        todo.pop()
        # A repetition's own head is _RUNS: its slot holds its iteration
        # table.
        sub = [(_RUNS, None) if heads[n + x] is None or kind[x] == _K_STAR
               else heads[n + x] for x in parts]
        if k == _K_STAR:
            # Where its body fails, it succeeds empty.
            zero = None if prog.tree else Lst(())
            heads[i] = _view(_map(lambda t: (1 - t, zero) if t < 0 else 0,
                                  sub[0][0]), pool)
            heads[n + i] = (_dense(sub[0][0], pool), sub[0][1])
            continue
        if k == _K_NOT:
            # It fails where its inside succeeds, and succeeds empty where
            # its inside fails; its own head is _RUNS, so that it settles
            # nothing but its own descent.
            heads[i] = _view(_map(lambda t: t + 1 if t > 0 else (
                (1 - t, UNIT) if t < 0 else 0), sub[0][0]), pool)
            heads[n + i] = (_RUNS, None)
            continue
        values = None
        if k == _K_MATCH1 or k == _K_PRED:
            t, v = extra[i]
            if k == _K_PRED:
                steps = _map(_failures, _sparse(t))
            elif not prog.tree:
                steps, values = _sparse(t), v
            else:
                # In tree mode only a leaf span is a success here.
                steps = _sparse(t if v is _SPANS else [
                    0 if x > 0 and v[b] is not _SPAN else x
                    for b, x in enumerate(t)])
        elif k == _K_SCAN:
            t = extra[i][4]
            steps = _RUNS if t is None else _map(_failures, _sparse(t))
        elif k == _K_LIT:
            # Every byte but the literal's first fails with its first
            # prefix.
            steps = (-extra[i][2][0], {extra[i][0][0]: 0})
        elif k == _K_CHOICE:
            (sa, va), (sb, vb) = sub[0][:2], sub[1][:2]
            if kind[parts[0]] == _K_CHOICE:
                sa, va = _map(_failures, sa), None
            steps = _zip(_choice_steps, sa, sb)
            values = (vb if va is None else va if vb is None or va is vb
                      else _choice_values(extra[parts[0]][0], va, vb))
            view = _choice_view(prog, heads, i, sa, sb)
            heads[i] = _view(view, pool)
            heads[n + i] = (steps, values, view)
            continue
        elif not parts:
            steps = _RUNS
        else:
            steps = _map(lambda x: x - add if x < 0 else 0, sub[0][0])
        # The view the VM reads at a descent: the head's failures.
        fail = _map(lambda x: -x if x < 0 else 0, steps)
        heads[i] = _dense(fail, pool) if fail != _RUNS else _NO_FAIL
        heads[n + i] = (steps, values)


def _choice_view(prog: _Program, heads: list, i: int, first, second):
    """The view of choice ``i``, given the heads ``first`` and ``second``
    of its alternatives (the first's failures alone if it is a choice):
    0 where its first alternative must run or may succeed; where that
    one fails, the choice's failure if the rest of its right-nested
    chain fails too, else the first alternative of the chain whose head
    does not fail there, as the frame that runs it: (state, level,
    steps, node).  The frame is [_S_LATER, level, pos, steps] running
    the level's first alternative, or [4, level, pos, steps - 1] running
    its second, the chain's last; ``steps`` are the failures of the
    alternatives passed and one per level."""
    # ``later``: where the choice starts when the rest's first
    # alternative runs, with the steps it adds to the first's failure.
    q = prog.b[i]
    if prog.kind[q] == _K_CHOICE:
        rest = heads[len(prog.kind) + q]
        # A rest still being built (an uncertified cycle) runs.
        rest = _RUNS if rest is None else rest[2]
        later = (_S_LATER, q, 0, prog.a[q])
    else:
        rest = _map(lambda t: -t if t < 0 else 0, second)
        later = (4, i, -1, q)

    def entry(f, r):
        # ``r``: the rest's view entry; one > 0 is its failure.
        if f >= 0:
            return 0
        if r and type(r) is not tuple:
            return 1 - f + r
        s, level, add, cur = r or later
        return s, level, add + 1 - f, cur

    return _zip(entry, first, rest)


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

    if memo is not None:
        memo._bind(prog, data)
        memo_entries = memo.entries
        marks = prog.marks
        if marks is None:
            # Parses that overlap here compute equal lists.
            marks = _initial_marks(prog)
            object.__setattr__(prog, "marks", marks)
        # Per rule, the highest position a call of it has run at in this
        # parse, or _ALWAYS once it is memoised.
        mark = marks[:]
        hits = misses = 0            # added to ``memo`` when the run ends
        n_prods = len(prod_body)
    else:
        memo_entries = None
    head = prog.heads
    n_nodes = len(kind)              # where the heads start in ``head``
    # Tree mode: the rule nodes and leaf spans made so far, in order.
    kids = [] if prog.tree else None
    new_tuple = tuple.__new__

    stack = []
    push = stack.append
    pop = stack.pop

    cur = root
    cpos = pos0
    ok = False
    rpos = -1
    val = None
    steps = 0
    # A leaf call whose primitive runs next: its rule name in tree mode,
    # its ActionRef or _NO_ACTION in value mode (None when there is no
    # such call), and its memo key, mark in ``kids`` and whether it
    # drops, in leaf_key, leaf_mark and leaf_drop.
    leaf_rule = None
    # The frame of a repetition whose body has just succeeded, which
    # goes back to its iteration table.
    again = None

    while True:
        # Descend until a primitive (or superinstruction) yields a result.
        while True:
            k = kind[cur]
            if k < _K_EMPTY:
                # A composite or a call.  Its view settles what it does
                # on the byte under the cursor where its head can: a
                # failure in s > 0 steps, or at g[s] with s < 0 a
                # repetition's or negation's empty success, or where in
                # its chain a choice starts.
                g = head[cur]
                if g:
                    s = g[data[cpos] if cpos < n else 256]
                    if s:
                        if cpos > farthest:
                            farthest = cpos
                        if s > 0:
                            ok = False
                            rpos = -1
                            val = None
                            steps = s
                            break
                        if k == _K_CHOICE:
                            st, q, steps, cur = g[s]
                            push([st, q, cpos, steps])
                            continue
                        steps, val = g[s]
                        ok = True
                        rpos = cpos
                        break
                elif g is None:
                    # Not built yet: build it, then read it.
                    _head_table(prog, head, cur)
                    continue
                # Push its frame in its first state (a leaf call pushes
                # none).
                if k <= _K_ACT:
                    push([k, cur, cpos])
                elif k >= _K_TNT:
                    # A rule call: one frame, its body's where that is a
                    # choice or (in tree mode) a sequence, else its own,
                    # and none for a leaf call in either mode.
                    p = aa[cur]
                    key = -1
                    if memo_entries is not None:
                        if cpos > mark[p]:
                            mark[p] = cpos
                        else:
                            key = cpos * n_prods + p
                            hit = memo_entries.get(key)
                            if hit is not None:
                                hits += 1
                                ok, rpos, val, steps = hit
                                if k == _K_TDLEAF or k == _K_TDNT:
                                    steps += 2   # the call's and the drop's
                                else:
                                    steps += 1
                                    if ok and k < _K_NT:
                                        kids.append(val)
                                break
                            # Perhaps called here before: memoise from
                            # now on.  (A hit means it is memoised.)
                            mark[p] = _ALWAYS
                            misses += 1
                    if k >= _K_NT:
                        if k == _K_NT:
                            q = prod_body[p]
                            if kind[q] == _K_CHOICE:
                                push([_K_CHOICE, q, cpos, key])
                                cur = aa[q]
                            else:
                                push([0, q, cpos, key])
                                cur = q
                            continue
                        leaf_rule = extra[cur]
                        leaf_key = key
                        leaf_drop = False
                    elif k == _K_TNT:
                        q = bb[cur]
                        m = len(kids)
                        if kind[q] == _K_TSEQ:
                            push([_K_TSEQ, q, cpos, 1, 0, m,
                                  cur, cpos, m, key])
                            cur = aa[q]
                            continue
                        if kind[q] == _K_CHOICE:
                            push([_K_CHOICE, q, cpos, cur, cpos, m, key])
                            cur = aa[q]
                            continue
                        push([_K_NODE, cur, cpos, m, key])
                    elif k == _K_TDNT and (key >= 0
                                           or kind[bb[cur]] != _K_STAR):
                        # A dropped call is one frame, which builds no
                        # node, unless it is memoised: then the node
                        # frame of its rule's collector builds the
                        # node for the memo entry.  A drop of a rule
                        # whose collector's inside is a repetition
                        # (``~spacing``) runs in place, as a leaf call,
                        # unless it is memoised.
                        if key < 0:
                            push([_K_TACT, cur, cpos, len(kids), 3])
                        else:
                            push([_K_TACT, cur, cpos, len(kids), 1])
                            push([_K_NODE, prod_body[p], cpos, len(kids),
                                  key])
                    else:
                        # TLEAF, TDLEAF, or a TDNT running in place.
                        leaf_rule = extra[cur]
                        leaf_key = key
                        leaf_mark = len(kids)
                        leaf_drop = k > _K_TLEAF
                    cur = bb[cur]
                    continue
                elif k == _K_STAR:
                    # A repetition, new or back from a body that
                    # succeeded (``again``, its frame).  The iteration
                    # table settles what it can, and the frame runs the
                    # body where the entry is 0.
                    tab, vals = head[n_nodes + cur]
                    f = again
                    if f is None:
                        acc = 0
                        items = [] if kids is None else None
                    else:
                        again = None
                        acc = f[4]
                        items = f[3]
                    p = cpos
                    while p < n:
                        t = tab[data[p]]
                        if t <= 0:
                            break
                        acc += t + 1
                        p += 1
                    else:
                        t = tab[256]
                    if p > cpos:
                        if items is None:
                            kids.append((cpos, p))
                        else:
                            items += [vals[b] for b in data[cpos:p]]
                    if t:
                        # The body fails at p: the repetition ends.
                        if p > farthest:
                            farthest = p
                        if f is not None:
                            pop()
                        ok = True
                        rpos = p
                        val = None if items is None else Lst(tuple(items))
                        steps = acc - t + 1
                        break
                    if p > cpos and p > farthest + 1:
                        farthest = p - 1
                    if f is None:
                        if leaf_rule is not None:
                            # A dropped call running this repetition in
                            # place: its body must run, so the call's
                            # frame goes below the repetition's.
                            push([_K_TACT, cur, cpos, leaf_mark, 3])
                            leaf_rule = None
                        push([k, cur, p, items, acc, tab])
                    else:
                        f[2] = p
                        f[4] = acc
                    cpos = p
                elif k == _K_TSEQ:
                    push([k, cur, cpos, 1, 0, len(kids)])
                elif k >= _K_NOT:
                    push([k, cur, cpos, None if kids is None else len(kids)])
                else:                        # NODE
                    push([k, cur, cpos, len(kids), None])
                cur = aa[cur]
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
                    if val is _SPAN:
                        kids.append((cpos, rpos))
                    steps = t
                else:
                    ok = False
                    rpos = -1
                    val = None
                    steps = -t
                break
            if k == _K_SCAN:
                tab, vals, leaf, find, first, steps = extra[cur]
                q = cpos                     # where the repetition starts
                if first is not None:
                    # ``m x*``: m on the first byte, with the Seq's step
                    # (and a cons's).
                    t = first[data[q] if q < n else 256]
                    if t < 0:
                        if q > farthest:
                            farthest = q
                        ok = False
                        rpos = -1
                        val = None
                        steps = -t
                        break
                    q += 1
                    steps += t
                if find is not None:
                    c, s_item = find
                    p = data.find(c, q)
                    if p < 0:
                        p = n
                    steps += (p - q) * s_item - tab[c if p < n else 256]
                else:
                    p = q
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
                if leaf:
                    if p > cpos:
                        kids.append((cpos, p))
                elif vals is not None:
                    val = Lst(tuple([vals[b] for b in data[cpos:p]]))
                else:
                    val = UNIT
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

        if leaf_rule is not None:
            # The end of a leaf call, whose primitive has just run at
            # cpos.  In value mode the rule body's action, if there is
            # one, applies as the ACT state below would apply it.  In tree
            # mode node, memo entry and steps are those of the NODE state
            # below, with the node built directly: the inside adds at
            # most one leaf span to ``kids``, and it is (cpos, rpos).  A
            # drop then appends nothing, and builds the node only for its
            # memo entry, which a kept call of the rule at cpos may hit.
            if kids is None:
                if leaf_rule is not _NO_ACTION:
                    if ok:
                        val = (leaf_rule.fn(val, cpos, rpos)
                               if leaf_rule.span_aware else leaf_rule.fn(val))
                    steps += 1
            else:
                if ok:
                    if len(kids) > leaf_mark:
                        del kids[-1]
                        if leaf_key >= 0 or not leaf_drop:
                            val = new_tuple(TreeNode, (
                                leaf_rule, cpos, rpos,
                                new_tuple(TreeNode, ("", cpos, rpos))))
                    elif leaf_key >= 0 or not leaf_drop:
                        val = new_tuple(TreeNode, (leaf_rule, cpos, rpos))
                    if not leaf_drop:
                        kids.append(val)
                steps += 1
            if leaf_key >= 0:
                memo_entries[leaf_key] = (ok, rpos, val, steps)
            steps += 1 + leaf_drop           # the call's, and the drop's
            if ok and (rpos < cpos or rpos > n):
                raise InvariantViolation("nonterminal moved backwards")
            leaf_rule = None

        # Unwind completed results into waiting frames.  Value-mode and
        # tree-mode states are interleaved, most frequent first.  In
        # tree mode values are not built: leaves, scans and memo hits
        # add to ``kids``, a rule's node takes what was added since its
        # mark, and a node that fails leaves ``kids`` as it found it: a
        # sequence whose item fails, a negation and a drop truncate
        # ``kids`` back to their mark.  A frame that starts a part
        # breaks out to descend into it.  A CHOICE or TSEQ frame that a
        # call pushed makes the call's return when it finishes: in
        # place in value mode, by turning into the NODE state in tree
        # mode, which the loop then meets again.
        while True:
            if not stack:
                if memo is not None:
                    memo.hits += hits
                    memo.misses += misses
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
                    break
                steps += 1 if extra[f[1]] is None else 2  # an action's too
                pop()
            elif st == 7:                    # tree Seq, item next - 1 finished
                if ok:
                    if rpos < f[2] or rpos > n:
                        raise InvariantViolation("sequence moved backwards")
                    items = extra[f[1]]
                    j = f[3]
                    if j < len(items):
                        # Each item but the last brings one Seq's step.
                        f[2] = rpos
                        f[3] = j + 1
                        f[4] += steps + 1
                        cur = items[j]
                        cpos = rpos
                        break
                    steps += f[4]
                else:
                    # So does a failed item, unless it is the last; what
                    # the items before it appended goes.
                    del kids[f[5]:]
                    steps += f[4] + (f[3] < len(extra[f[1]]))
                if len(f) > 6:               # a call's: its node next
                    f[0] = 8
                    continue
                pop()
            elif st == 8:                    # a rule's node, maybe a call
                # Read from the end, as a call's TSEQ or CHOICE frame
                # carries it after its own slots.
                if ok:
                    m = f[-2]
                    # The node's own fields, then its children.
                    children = [extra[f[-4]], f[-3], rpos]
                    start = end = -1         # the leaf run being coalesced
                    for x in kids[m:]:
                        if type(x) is tuple:
                            if x[0] == end:
                                end = x[1]
                                continue
                            if start >= 0:
                                children.append(
                                    new_tuple(TreeNode, ("", start, end)))
                            start, end = x
                        else:
                            if start >= 0:
                                children.append(
                                    new_tuple(TreeNode, ("", start, end)))
                                start = end = -1
                            children.append(x)
                    if start >= 0:
                        children.append(new_tuple(TreeNode, ("", start, end)))
                    del kids[m:]
                    val = new_tuple(TreeNode, children)
                    kids.append(val)
                steps += 1
                key = f[-1]
                if key is not None:          # the return of a rule call
                    if key >= 0:
                        memo_entries[key] = (ok, rpos, val, steps)
                    steps += 1
                    if ok and (rpos < f[-3] or rpos > n):
                        raise InvariantViolation("nonterminal moved backwards")
                pop()
            elif st == 2:                    # Seq, right finished
                steps += f[3] + 1
                if ok:
                    if rpos < f[2] or rpos > n:
                        raise InvariantViolation("sequence moved backwards")
                    val = Tup((f[4], val))
                ref = extra[f[1]]
                if ref is not None:          # its action, as ACT applies one
                    if ok:
                        val = (ref.fn(val, f[2], rpos) if ref.span_aware
                               else ref.fn(val))
                    steps += 1
                pop()
            elif st <= 4:                    # Choice, or 0: a call returns
                if st == 3:                  # the first alternative
                    if not ok:
                        f[0] = 4
                        f.append(steps)
                        cur = bb[f[1]]
                        cpos = f[2]
                        break
                    steps += 1
                elif st:                     # the second, or a later one
                    if not ok and st < 0:
                        # A later alternative of the chain failed, so the
                        # second of its level runs, in this frame.
                        f[0] = 4
                        f[3] += steps
                        cur = bb[f[1]]
                        cpos = f[2]
                        break
                    steps += f.pop() + 1
                if len(f) > 3:               # a call's frame
                    if kids is not None:
                        f[0] = 8             # its node next
                        continue
                    # A value-mode return; f[3] is the memo key.
                    if f[3] >= 0:
                        memo_entries[f[3]] = (ok, rpos, val, steps)
                    steps += 1
                    if ok and (rpos < f[2] or rpos > n):
                        raise InvariantViolation("nonterminal moved backwards")
                pop()
            elif st == 10:                   # tree drop: an action or a call
                del kids[f[3]:]
                if len(f) == 4:              # an action
                    steps += 1
                else:
                    # A dropped call, and in f[4] the steps it adds: the
                    # collector's, the call's and the drop's, or the
                    # drop's alone after the call's node frame.
                    steps += f[4]
                    if ok and (rpos < f[2] or rpos > n):
                        raise InvariantViolation("nonterminal moved backwards")
                pop()
            elif st == 6:                    # Star, one iteration finished
                if ok:
                    if rpos == f[2]:
                        raise InvariantViolation(
                            "repetition body succeeded without consuming "
                            "input on a certified grammar")
                    if rpos < f[2] or rpos > n:
                        raise InvariantViolation("repetition moved backwards")
                    if kids is None:
                        f[3].append(val)
                    f[4] += steps + 1
                    cpos = rpos
                    t = f[5][data[rpos] if rpos < n else 256]
                    if t > 0:
                        # Back to the iteration table.
                        again = f
                        cur = f[1]
                        break
                    if not t:
                        # The body runs again.
                        f[2] = rpos
                        cur = aa[f[1]]
                        break
                    # The body fails at rpos by its head: the end.
                    if rpos > farthest:
                        farthest = rpos
                    steps = -t
                else:
                    rpos = f[2]
                val = None if kids is not None else Lst(tuple(f[3]))
                ok = True
                steps += f[4] + 1
                pop()
            elif st == 5:                    # Action
                if ok:
                    ref = extra[f[1]]
                    val = (ref.fn(val, f[2], rpos) if ref.span_aware
                           else ref.fn(val))
                steps += 1
                pop()
            else:                            # 9: Not
                if kids is not None:
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


def _input_bytes(data) -> bytes:
    """The input as bytes: a str encoded as UTF-8, a bytearray copied (a
    MemoTable keeps the input it is bound to, which the caller must not
    be able to change); anything else raises TypeError."""
    if isinstance(data, str):
        return data.encode("utf-8")
    if isinstance(data, bytearray):
        return bytes(data)
    if not isinstance(data, bytes):
        raise TypeError("the input is str, bytes or bytearray, not %s"
                        % type(data).__name__)
    return data


def parse(g: Grammar, cert: Certificate, data, mode: str = "plain",
          memo: MemoTable | None = None) -> ParseOutcome:
    """Run the start production on the whole input, a str (encoded as
    UTF-8), bytes or bytearray (copied); anything else raises TypeError.

    ``cert`` must have been issued for ``g``; that is what makes this
    entry point total.  ``mode`` is "plain" or "packrat"; both return
    identical outcomes, steps included.  Packrat memoises only the rules
    the parse can re-enter (the static seed set, and any rule from its
    first call at or below its highest earlier position), so no rule
    body runs more than twice at one position.  Passing a fresh
    MemoTable in ``memo`` exposes the packrat statistics to the caller
    (in plain mode it stays empty).  A table serves one grammar and one
    input: passing it to a packrat parse of another grammar or another
    input raises ValueError.

    A tree-mode parse (a grammar loaded from .peg text or built by
    tree_wrap) runs with the cyclic garbage collector suspended: it
    runs no user code and makes no reference cycles, so the
    collector's passes over the growing tree would free nothing, and
    their cost grows faster than the input.  The caller's collector
    state is restored afterwards, also when the parse raises; while
    parses in several threads overlap, it stays suspended until the
    last of them ends (see ``values.gc_suspended``).  A value-mode parse
    keeps the collector, since embedded actions may build cycles.
    """
    if not isinstance(cert, Certificate) or cert.grammar is not g:
        raise CertificateMismatch()
    data = _input_bytes(data)
    if mode == "packrat":
        if memo is None:
            memo = MemoTable()
        active = memo
    elif mode == "plain":
        active = None
    else:
        raise ValueError("mode must be 'plain' or 'packrat', got %r" % mode)
    prog = cert.program
    with gc_suspended() if prog.tree else nullcontext():
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
    """Evaluate a single expression at a position of ``data``, which is
    as for parse().

    This is the uncertified internal entry point used by tests;
    nonterminals resolve against ``g``.  Termination is NOT
    guaranteed here unless the caller knows the expression terminates;
    use the fueled oracle for arbitrary expressions.

    When ``g`` is tree-shaped the expression runs in tree mode, where
    only the values of rule applications are built: for any other root
    only ok, pos and steps (and farthest) are meaningful, and the value
    is not the oracle's value spine.
    """
    data = _input_bytes(data)
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
