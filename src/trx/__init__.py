"""trx: a PEG engine with certified termination and step-exact semantics.

Grammars are statically checked for well-formedness (no reachable left
recursion or nullable repetition); passing the check issues a
Certificate that gates the total parse entry point.  The interpreter
follows the step-counted operational semantics exactly, in plain or
packrat mode, and a deliberately naive fueled oracle provides an
independent reference for differential testing.  Grammars can be built
through the embedded API (with arbitrary semantic actions) or loaded
from the bootstrapped .peg textual format (tree-shaping actions only).
"""

from importlib import import_module as _import_module

from .analysis import (Certificate, NotWellFormed, Offender, Props,
                       PropertyTable, WfReport, certify, check_well_formed,
                       expression_set, infer_properties, wf_measure)
from .exprs import (ANY, Action, ActionRef, And, AnyChar, CharClass, Choice,
                    Drop, DuplicateRule, EMPTY, Empty, EmptyClass,
                    EmptyLiteral, Expr, Grammar, GrammarError, InvalidRange,
                    Literal, NodeRef, NonTerminal, Not, Optional, Plus, Range,
                    Seq, Star, Terminal, UndefinedNonterminal, UnknownStart,
                    build_grammar, expr_text, iter_subexprs)
from .interp import (CertificateMismatch, InvariantViolation, MemoTable,
                     ParseOutcome, eval_expr, memo_stats, parse,
                     parse_to_tree)
from .meta import (GrammarSource, PegSyntaxError, builtin_meta_grammar,
                   dump_grammar, load_grammar, load_grammar_source, tree_wrap)
from .values import (CHAR, Char, Lst, Opt, Str, TreeNode, Tup, UNIT, Unit,
                     User, Value, tree_to_json, tuple_items)

__version__ = "0.1.0"

# The oracle is a test reference that no parse runs, so it loads on
# first use of one of its names (PEP 562).
_ORACLE_NAMES = frozenset((
    "EXHAUSTED", "FuelExhausted", "all_inputs", "enumerate_small_cases",
    "oracle_eval", "oracle_parse", "random_grammar", "small_grammars"))

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["oracle", *_ORACLE_NAMES])


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = _import_module(__name__ + ".oracle")
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
