"""Properties over random inputs, checked with hypothesis.

The runs are derandomized, so a failure repeats from run to run.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from trx import (EMPTY, Action, ActionRef, AnyChar, Choice, Drop, Literal,
                 MemoTable, NonTerminal, Not, Plus, Range, Seq, Star,
                 Terminal, User, build_grammar, check_well_formed, parse,
                 tree_wrap)
from trx.oracle import EXHAUSTED, oracle_parse

# One-byte matchers, each with its own value table, and two primitives
# that are not one: the empty expression and a literal run.
_MATCHERS = [
    Terminal("a"),
    Terminal("b"),
    Range("a", "b"),
    AnyChar(),
    Choice(Terminal("a"), Drop(Terminal("b"))),
    Seq(Not(Terminal("b")), AnyChar()),
    Literal("a"),
]
_PRIMITIVES = _MATCHERS + [EMPTY, Literal("ab")]
_NAMES = ("S", "A", "L")
_WRAP = ActionRef("prop.wrap", lambda v: User(repr(v)))


def _body(e, wrap):
    return Action(e, _WRAP) if wrap else e


# What the value-mode compiler folds: ``x+`` and ``~x*`` over a matcher.
_FOLDED = st.sampled_from(_MATCHERS).flatmap(
    lambda m: st.sampled_from([Plus(m), Drop(Star(m))]))

_CALLS = st.sampled_from([NonTerminal(n) for n in _NAMES])

# What iteration tables and dropped calls serve: stars of a choice of a
# matcher and a call, in either order, operator stars of calls, and a
# dropped call.
_ITERATED = st.one_of(
    st.tuples(st.sampled_from(_MATCHERS), _CALLS).map(
        lambda p: Star(Choice(*p))),
    st.tuples(_CALLS, st.sampled_from(_MATCHERS)).map(
        lambda p: Star(Choice(*p))),
    st.tuples(_CALLS, _CALLS, _CALLS).map(
        lambda p: Star(Choice(p[0], Choice(p[1], p[2])))),
    _CALLS.map(Drop))

_EXPRS = st.recursive(
    st.one_of(st.sampled_from(_PRIMITIVES), _FOLDED, _ITERATED, _CALLS),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: Seq(*p)),
        st.tuples(inner, inner).map(lambda p: Choice(*p)),
        inner.map(Star), inner.map(Not), inner.map(Drop), inner.map(Plus),
        inner.map(lambda e: Action(e, _WRAP))),
    max_leaves=8)

# A leaf rule's body: one primitive, or one action over one.
_LEAF_BODIES = st.builds(_body, st.one_of(st.sampled_from(_PRIMITIVES),
                                          _FOLDED), st.booleans())


def _farthest(trace):
    return max([pos for e, pos, _, _ in trace
                if type(e) in (Terminal, Range, AnyChar)], default=-1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(start=_EXPRS, other=_EXPRS, leaf=_LEAF_BODIES,
       inputs=st.lists(st.text("ab", max_size=6), min_size=1, max_size=4))
def test_embedded_grammars_agree_with_oracle(start, other, leaf, inputs):
    # Random embedded grammars, with ``x+``, ``~x*``, leaf rule bodies,
    # stars of choices with calls and dropped calls among their parts:
    # where they are well-formed, both modes agree with the oracle on
    # ok, position, the value (by repr), steps and farthest, and so do
    # their tree_wraps where the grammar has no action of its own.
    g = build_grammar([("S", start), ("A", other), ("L", leaf)], "S")
    report = check_well_formed(g)
    assume(report.is_well_formed)
    grammars = [(g, report.certificate)]
    try:
        tree = tree_wrap(g)
    except ValueError:
        pass
    else:
        grammars.append((tree, check_well_formed(tree).certificate))
    for g, cert in grammars:
        for text in inputs:
            data = text.encode()
            trace = []
            want = oracle_parse(g, data, fuel=1_000_000, trace=trace)
            assert want is not EXHAUSTED
            for mode in ("plain", "packrat"):
                out = parse(g, cert, data, mode=mode, memo=MemoTable())
                assert out == want and repr(out.value) == repr(want.value)
                assert out.steps == want.steps
                assert out.farthest == _farthest(trace)
