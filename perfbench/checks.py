"""Checkers that hold every operation's output against a computation
made apart from trx.

Each checker raises CheckError on a wrong output and returns counts
the traced run reports (tree nodes, JSON bytes).
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET


class CheckError(AssertionError):
    """An operation's output disagrees with the independent computation."""


def require(cond: bool, what: str):
    if not cond:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# xml: the JSON parse tree against xml.etree.


def etree_elements(data: bytes) -> list:
    """Preorder list of (tag, attributes, content) for every element.

    ``content`` lists the element's direct text runs as strings and its
    child elements as None, in document order.
    """
    out = []
    stack = [ET.fromstring(data)]
    while stack:
        elem = stack.pop()
        content = []
        if elem.text:
            content.append(elem.text)
        for child in elem:
            content.append(None)
            if child.tail:
                content.append(child.tail)
        out.append((elem.tag, tuple(elem.attrib.items()), tuple(content)))
        stack.extend(reversed(list(elem)))
    return out


def _leaf_text(node: dict) -> str:
    return "".join(c["text"] for c in node["children"])


def _check_spans(root: dict, data: bytes) -> int:
    """Spans nest inside their parent and are ordered; leaves carry the
    bytes of their span; the root covers the whole input.  Returns the
    number of tree nodes (leaves included)."""
    require(root.get("start") == 0 and root.get("end") == len(data),
            "root span %r..%r does not cover [0, %d)"
            % (root.get("start"), root.get("end"), len(data)))
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        start, end = node["start"], node["end"]
        require(0 <= start <= end <= len(data), "bad span %d..%d"
                % (start, end))
        if "text" in node:
            require(node["text"] == data[start:end].decode("utf-8"),
                    "leaf text differs from input bytes at %d" % start)
            continue
        prev = start
        for child in node["children"]:
            require(prev <= child["start"] and child["end"] <= end,
                    "child span %d..%d escapes or overlaps in %s %d..%d"
                    % (child["start"], child["end"], node["rule"], start,
                       end))
            prev = child["end"]
            stack.append(child)
    return count


def json_elements(root: dict) -> list:
    """The same preorder list as etree_elements, read off an xml-lite
    parse tree; also checks that every close tag matches its open tag."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        require(node.get("rule") == "element", "expected an element node")
        kids = node["children"]
        tag = _leaf_text(kids[0])
        attrs = []
        content = []
        children = []
        for kid in kids[1:]:
            rule = kid["rule"]
            if rule == "attribute":
                name, value = kid["children"]
                attrs.append((_leaf_text(name), _leaf_text(value)))
            elif rule == "content":
                for item in kid["children"]:
                    if item["rule"] == "text":
                        content.append(_leaf_text(item))
                    else:
                        content.append(None)
                        children.append(item)
            elif rule == "name":
                require(_leaf_text(kid) == tag, "close tag does not match "
                        "<%s> at %d" % (tag, node["start"]))
        out.append((tag, tuple(attrs), tuple(content)))
        stack.extend(reversed(children))
    return out


def _load(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CheckError("output is not JSON: %s" % exc) from None


def check_xml(text: str, data: bytes, expected: list) -> dict:
    """Check `trx parse --json` output for ``data``; ``expected`` is
    etree_elements(data)."""
    root = _load(text)
    try:
        nodes = _check_spans(root, data)
        elements = json_elements(root)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError("tree of unexpected shape: %r" % exc) from None
    require(elements == expected,
            "elements, attributes or text differ from xml.etree")
    return {"nodes": nodes, "json_bytes": len(text)}


# ---------------------------------------------------------------------------
# math: the value against the generator's.


def check_math(value, expected: int) -> dict:
    require(type(value) is int and value == expected,
            "value %r, expected %d" % (value, expected))
    return {}


# ---------------------------------------------------------------------------
# grammar-check: the verdict against the construction.

_RULE_START = re.compile(rb"^[ \t]*([A-Za-z_][A-Za-z0-9_]*)[ \t]*<-", re.M)


def count_rules(text: bytes) -> int:
    """Rules in a .peg text written one rule start per line."""
    return len(_RULE_START.findall(text))


def check_verdict(report_text: str, rules: int, empty_parse, case) -> dict:
    """Check a `trx check` report (JSON text), the grammar's rule count
    and the outcome (ok, pos, steps) of parsing empty input with it
    against a GrammarCase."""
    report = _load(report_text)
    require(isinstance(report, dict)
            and isinstance(report.get("offenders"), list)
            and all(isinstance(o, dict) for o in report["offenders"]),
            "report of unexpected shape")
    require(report.get("wellFormed") is case.well_formed,
            "verdict %r for %s" % (report["wellFormed"], case.name))
    require(rules == case.rules,
            "%d rules, expected %d for %s" % (rules, case.rules, case.name))
    offenders = report["offenders"]
    if case.well_formed:
        require(not offenders, "offenders in a well-formed grammar")
        # Every grammar here needs at least one byte to match.
        require(empty_parse is not None and empty_parse[:2] == (False, -1),
                "empty input accepted by %s" % case.name)
        return {"json_bytes": len(report_text)}
    require(empty_parse is None, "ill-formed grammar was compiled")
    for rule, reason in case.bad.items():
        require(any(o.get("production") == rule
                    and o.get("reason") == reason
                     for o in offenders),
                "%s not reported as %s in %s" % (rule, reason, case.name))
    allowed = set(case.bad) | case.callers
    for o in offenders:
        require(o.get("production") in allowed,
                "%s reported, but only %s are defective or depend on a "
                "defect" % (o.get("production"), sorted(allowed)))
    return {"json_bytes": len(report_text)}
