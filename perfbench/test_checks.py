"""The checkers accept trx's real outputs and reject corrupted ones.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return workloads.fresh_import(("trx.mathdemo",))


def _xml_output(mods, data):
    ready = workloads.XmlWorkload("plain").setup(mods)
    return workloads.XmlWorkload("plain").op(mods, ready, workloads.Slot(
        0, data, None))[0]


def test_xml_checker(mods):
    data = inputs.xml_doc(3000, random.Random(7))
    expected = checks.etree_elements(data)
    text = _xml_output(mods, data)
    assert checks.check_xml(text, data, expected)["nodes"] > 0

    doc = json.loads(text)
    leaf = doc
    while "children" in leaf:
        leaf = leaf["children"][-1]
    leaf["start"] += 1                                   # a shifted span
    with pytest.raises(checks.CheckError):
        checks.check_xml(json.dumps(doc), data, expected)

    other = data.replace(b"lorem", b"LOREM", 1)          # other text
    if other != data:
        with pytest.raises(checks.CheckError):
            checks.check_xml(text, other, checks.etree_elements(other))


def test_xml_checker_close_tag(mods):
    data = b"<doc><a>x</a></doc>"
    doc = json.loads(_xml_output(mods, data))
    checks.check_xml(json.dumps(doc), data, checks.etree_elements(data))
    inner = doc["children"][1]["children"][0]           # <a>x</a>
    inner["children"][-1]["children"][0]["text"] = "b"  # </b>
    with pytest.raises(checks.CheckError):
        checks.check_xml(json.dumps(doc), data, checks.etree_elements(data))


def test_math_checker(mods):
    wl = workloads.MathWorkload()
    ready = wl.setup(mods)
    for slot in wl.slots(3)[:25]:
        value = wl.op(mods, ready, slot)
        wl.check(slot, value)
        with pytest.raises(checks.CheckError):
            wl.check(slot, value + 1)                    # a wrong integer


def test_verdict_checker(mods):
    wl = workloads.GrammarWorkload()
    ready = wl.setup(mods)
    slots = wl.slots(5)
    for slot in slots[:-1]:                              # the last one faults
        text, rules, outcome, g = wl.op(mods, ready, slot)
        wl.check(slot, (text, rules, outcome, g))
        wl.check_once(mods, ready, slot, g)
        report = json.loads(text)
        report["wellFormed"] = not report["wellFormed"]  # a flipped verdict
        with pytest.raises(checks.CheckError):
            checks.check_verdict(json.dumps(report), rules, outcome,
                                 slot.expect)
        with pytest.raises(checks.CheckError):
            checks.check_verdict(text, rules + 1, outcome, slot.expect)


def test_verdict_checker_blames_the_constructed_rule(mods):
    wl = workloads.GrammarWorkload()
    ready = wl.setup(mods)
    case = inputs.ill_grammar(random.Random(1), 20, "left")
    slot = workloads.Slot(0, case.text, case)
    text, rules, outcome, _ = wl.op(mods, ready, slot)
    report = json.loads(text)
    for o in report["offenders"]:
        o["production"] = "r019"                         # the wrong rule
    with pytest.raises(checks.CheckError):
        checks.check_verdict(json.dumps(report), rules, outcome, case)


def test_known_faults_fail(mods):
    xml = workloads.XmlWorkload("plain")
    ready = xml.setup(mods)
    deep = xml.slots(1)[-1]
    assert deep.fault == "RecursionError"
    with pytest.raises(RecursionError):
        xml.op(mods, ready, deep)
    gram = workloads.GrammarWorkload()
    deep = gram.slots(1)[-1]
    with pytest.raises(RecursionError):
        gram.op(mods, gram.setup(mods), deep)


def test_only_the_known_fault_counts_as_failed(mods):
    xml = workloads.XmlWorkload("plain")
    ready = xml.setup(mods)
    deep = xml.slots(1)[-1]
    speed = Speed()
    speed.sample()
    loop = run.Run(xml, mods, ready, [deep], speed)
    loop.round()
    assert (loop.attempted, loop.failed) == (1, 1)

    rejected = b"<doc><a>x</a>"                          # a rejected parse
    for fault in (None, "RecursionError"):
        slot = workloads.Slot(0, rejected, None, fault=fault)
        loop = run.Run(xml, mods, ready, [slot], speed)
        with pytest.raises(checks.CheckError):
            loop.round()
