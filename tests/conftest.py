import os

import pytest

from trx import Action, ActionRef, Grammar, check_well_formed, load_grammar

GRAMMAR_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "src", "trx", "grammars")


def grammar_path(name: str) -> str:
    return os.path.abspath(os.path.join(GRAMMAR_DIR, name))


def grammar_text(name: str) -> bytes:
    with open(grammar_path(name), "rb") as fh:
        return fh.read()


def value_twin(g: Grammar) -> Grammar:
    """The rules of a tree-shaped grammar, run in value mode.

    Tree shape is a property of the productions, so the twin wraps each
    rule body in an embedder's action with its node collector's label
    and function instead of the collector: the interpreter runs it as
    any other action, so the collectors run as actions, with the steps
    and values the oracle gives.
    """
    assert g.tree_shaped
    twin = Grammar({name: Action(body.inner, ActionRef(
        body.ref.label, body.ref.fn, span_aware=True))
        for name, body in g.productions.items()}, g.start)
    assert not twin.tree_shaped
    return twin


_cache = {}


def certified(name: str):
    """(grammar, certificate) for a bundled .peg file, cached per session."""
    if name not in _cache:
        g = load_grammar(grammar_text(name))
        report = check_well_formed(g)
        assert report.is_well_formed, name
        _cache[name] = (g, report.certificate)
    return _cache[name]


@pytest.fixture
def xml_lite():
    return certified("xml-lite.peg")


@pytest.fixture
def math_peg():
    return certified("math.peg")
