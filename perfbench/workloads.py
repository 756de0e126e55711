"""The four workloads: their inputs, set-up, operation and checks.

An operation is one user-visible request.  Operations call trx through
module attributes (``mods.interp.parse``, not a name bound at import),
so the traced run can wrap the public functions of each layer from
outside the program.  ``force_compile``, ``cli_dumps`` and
``tree_to_json`` are module attributes here for the same reason; the
last one because values.tree_to_json recurses through its own module
attribute, and only the outer call is a call into the layer.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import types
from pathlib import Path

import checks
import inputs

GRAMMARS = Path(__file__).resolve().parent.parent / "src" / "trx" / "grammars"

# Depths at which two operations fail every time with RecursionError:
# tree_to_json and json.dumps recurse once per tree level, and the
# .peg lowering (meta._lower_*) once per parenthesis.
DEEP_XML_DEPTH = 300
DEEP_PAREN_DEPTH = 150


def cli_dumps(doc, indent=None) -> str:
    """JSON text as the CLI prints it: compact for `trx parse --json`,
    indented by two for `trx check`."""
    return json.dumps(doc, indent=indent)


def tree_to_json(mods, tree, data):
    """values.tree_to_json, called here so that the traced run can time
    the call without timing each of its recursive calls."""
    return mods.values.tree_to_json(tree, data)


def force_compile(mods, g, cert):
    """A public parse of empty input, which compiles the VM program."""
    return mods.interp.parse(g, cert, b"")


def prepare_loader(mods):
    """Build, certify and compile the .peg meta-grammar, which every
    .peg load uses; the first load after an import pays for it."""
    g, cert = mods.meta.builtin_meta_grammar()
    force_compile(mods, g, cert)


def fresh_import(extra=()):
    """Import trx from scratch (dropping any earlier import)."""
    for name in [m for m in sys.modules
                 if m == "trx" or m.startswith("trx.")]:
        del sys.modules[name]
    importlib.import_module("trx")
    for name in extra:
        importlib.import_module(name)
    return types.SimpleNamespace(**{
        name.split(".")[1]: mod for name, mod in sys.modules.items()
        if name.startswith("trx.")})


class Slot:
    """One operation of a round: its input and what to check it against."""

    __slots__ = ("index", "data", "expect", "fault")

    def __init__(self, index, data, expect, fault=None):
        self.index = index
        self.data = data
        self.expect = expect
        # The known fault this input runs into today, if any.
        self.fault = fault


class OpFailed(Exception):
    """The operation did not produce an output (a rejected parse)."""


# ---------------------------------------------------------------------------

# Document sizes of one xml round, in KiB.  Small documents make most of
# the operations and the two largest ones more than half of the bytes;
# two of 128 KiB time steadier than one of 256 KiB.  Sorted, the median
# falls in the middle of the block of 4 KiB documents and the 90th
# percentile inside the block of 16 KiB ones.
XML_SIZES_KIB = (4, 2, 16, 8, 2, 4, 128, 2, 8, 4, 16, 2, 8, 4, 2, 16, 4, 8,
                 2, 16, 128, 4, 8, 2, 4, 16, 2, 4, 8, 2, 4)


class XmlWorkload:
    """xml-lite documents to a tree and to JSON text: `trx parse --json`."""

    extra_modules = ()

    def __init__(self, mode: str):
        self.mode = mode

    def slots(self, seed: int) -> list:
        rng = random.Random(seed)
        out = []
        for i, kib in enumerate(XML_SIZES_KIB):
            data = inputs.xml_doc(kib * 1024, rng)
            out.append(Slot(i, data, checks.etree_elements(data)))
        deep = inputs.deep_doc(DEEP_XML_DEPTH)
        out.append(Slot(len(out), deep, checks.etree_elements(deep),
                        fault="RecursionError"))
        return out

    def setup(self, mods):
        prepare_loader(mods)
        text = (GRAMMARS / "xml-lite.peg").read_bytes()
        src = mods.meta.load_grammar_source(text, path="xml-lite.peg")
        report = mods.analysis.check_well_formed(src.grammar)
        force_compile(mods, src.grammar, report.certificate)
        return src.grammar, report.certificate

    def op(self, mods, ready, slot):
        g, cert = ready
        data = slot.data
        memo = mods.interp.MemoTable()
        out = mods.interp.parse_to_tree(g, cert, data, mode=self.mode,
                                        memo=memo)
        if not out.ok or out.pos != len(data):
            raise OpFailed("document rejected")
        outcome = (out.ok, out.pos, out.steps)
        doc = tree_to_json(mods, out.value, data)
        del out
        return cli_dumps(doc), outcome

    def check(self, slot, result) -> dict:
        text, _ = result
        return checks.check_xml(text, slot.data, slot.expect)

    @staticmethod
    def digest(result):
        return hashlib.blake2b(result[0].encode()).digest(), result[1]

    @staticmethod
    def keep(result):
        return result[1]

    def check_once(self, mods, ready, slot, outcome):
        """Plain and packrat outcomes (ok, pos, steps) are identical."""
        g, cert = ready
        other = "packrat" if self.mode == "plain" else "plain"
        out = mods.interp.parse(g, cert, slot.data, mode=other)
        checks.require((out.ok, out.pos, out.steps) == outcome,
                       "%s and %s outcomes differ on document %d"
                       % (self.mode, other, slot.index))


# ---------------------------------------------------------------------------

MATH_SLOTS = 250


class MathWorkload:
    """Arithmetic through the embedded mathdemo grammar, packrat mode."""

    extra_modules = ("trx.mathdemo",)

    def slots(self, seed: int) -> list:
        rng = random.Random(seed)
        out = []
        for i in range(MATH_SLOTS):
            # Nesting 0-4 and 2-4 operands per level, in a fixed pattern.
            text, value = inputs.math_expr(rng, i % 5, 2 + (i // 5) % 3)
            out.append(Slot(i, text.encode("ascii"), value))
        return out

    def setup(self, mods):
        # As `trx parse math.peg EXPR --eval` does: load the .peg file,
        # check it is the math grammar, then ready the embedded grammar.
        prepare_loader(mods)
        src = mods.meta.load_grammar_source(
            (GRAMMARS / "math.peg").read_bytes(), path="math.peg")
        if set(src.grammar.nonterminals) != {"ws", "number", "term",
                                             "factor", "expr"}:
            raise RuntimeError("math.peg is not the arithmetic grammar")
        g, cert = mods.mathdemo.math_grammar()
        force_compile(mods, g, cert)
        return g, cert

    def op(self, mods, ready, slot):
        g, cert = ready
        data = slot.data
        out = mods.interp.parse(g, cert, data, mode="packrat",
                                memo=mods.interp.MemoTable())
        if not out.ok or out.pos != len(data):
            raise OpFailed("expression rejected")
        return out.value.payload

    def check(self, slot, result) -> dict:
        return checks.check_math(result, slot.expect)

    @staticmethod
    def digest(result):
        return result

    @staticmethod
    def keep(result):
        return None

    def check_once(self, mods, ready, slot, kept):
        pass


# ---------------------------------------------------------------------------

BUNDLED = ("reserved", "math", "dangling", "xml-lite", "peg", "synth200")

# One grammar-check round: the bundled grammars, ten ill-formed chains
# and six well-formed ones.  Sorted by time, the median falls in the
# middle of the eight 20-rule ill-formed grammars and the 90th
# percentile among the three 250-rule chains.


class GrammarWorkload:
    """.peg text to a verdict, as `trx check`; a well-formed grammar goes
    on to a certified parser with its VM program compiled."""

    extra_modules = ()

    def slots(self, seed: int) -> list:
        rng = random.Random(seed)
        cases = []
        for name in BUNDLED:
            text = (GRAMMARS / (name + ".peg")).read_bytes()
            cases.append(inputs.GrammarCase(name, text,
                                            checks.count_rules(text)))
        for kind in ("left", "star"):
            cases.append(inputs.ill_grammar(rng, 10, kind))
        for kind in ("left", "mutual", "star", "left", "mutual", "star",
                     "left", "star"):
            cases.append(inputs.ill_grammar(rng, 20, kind))
        for n in (50, 100, 250, 250, 250, 400):
            cases.append(inputs.chain_grammar(rng, n))
        out = [Slot(i, c.text, c) for i, c in enumerate(cases)]
        deep = inputs.deep_paren_grammar(DEEP_PAREN_DEPTH)
        out.append(Slot(len(out), deep.text, deep, fault="RecursionError"))
        return out

    def setup(self, mods):
        prepare_loader(mods)
        return None

    def op(self, mods, ready, slot):
        src = mods.meta.load_grammar_source(slot.data)
        report = mods.analysis.check_well_formed(src.grammar)
        # The report as `trx check` prints it.
        doc = report.to_json()
        doc["grammar"] = slot.expect.name + ".peg"
        for off in doc["offenders"]:
            pos = src.rule_positions.get(off["production"])
            if pos:
                off["line"], off["column"] = pos
        text = cli_dumps(doc, indent=2)
        outcome = None
        if report.is_well_formed:
            out = force_compile(mods, src.grammar, report.certificate)
            outcome = (out.ok, out.pos, out.steps)
        return text, len(src.grammar.nonterminals), outcome, src.grammar

    def check(self, slot, result) -> dict:
        text, rules, outcome, _ = result
        return checks.check_verdict(text, rules, outcome, slot.expect)

    @staticmethod
    def digest(result):
        return result[:3]

    @staticmethod
    def keep(result):
        return result[3]

    def check_once(self, mods, ready, slot, g):
        """dump_grammar then load_grammar gives an equal grammar."""
        again = mods.meta.load_grammar(mods.meta.dump_grammar(g))
        checks.require(again == g, "dump/load round trip changed %s"
                       % slot.expect.name)


WORKLOADS = {
    "xml-tree": XmlWorkload("plain"),
    "xml-packrat": XmlWorkload("packrat"),
    "math-packrat": MathWorkload(),
    "grammar-check": GrammarWorkload(),
}
