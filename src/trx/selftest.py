"""Differential and property suites (shared by the CLI and the tests).

Each runner returns a small result object with a ``passed`` flag, a
counter summary, and the first few counterexamples when something
disagrees.  Everything is seeded and deterministic given the same
budget.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .analysis import check_well_formed
from .interp import InvariantViolation, MemoTable, parse
from .meta import tree_wrap
from .oracle import (EXHAUSTED, all_inputs, oracle_eval, oracle_parse,
                     random_grammar, small_grammars)

_DIFF_FUEL = 200_000


@dataclass
class SuiteResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""
    failures: list = field(default_factory=list)

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        out = "%-24s %-4s  %d cases" % (self.name, status, self.cases)
        if self.detail:
            out += "  (%s)" % self.detail
        return out


def _forms(g, report, failures) -> list:
    """(grammar, certificate) of certified ``g`` and of its tree_wrap, the
    tree-mode program; the oracle runs the tree's real node collectors."""
    tree = tree_wrap(g)
    tree_report = check_well_formed(tree)
    if not tree_report.is_well_formed:
        failures.append((tree, b"", "tree_wrap of a certified grammar "
                                     "is not certified"))
        return [(g, report.certificate)]
    return [(g, report.certificate), (tree, tree_report.certificate)]


def differential_suite(alphabet: str = "ab", max_productions: int = 4,
                       max_input_len: int = 6, min_cases: int = 10_000,
                       seed: int = 0, time_budget: float | None = None
                       ) -> SuiteResult:
    """Interpreter vs oracle, exact ParseOutcome equality (steps included)
    on certified small grammars, both plain and packrat modes.  A case
    is one input, run on the grammar and on its tree_wrap."""
    t0 = time.perf_counter()
    inputs = all_inputs(alphabet, max_input_len)
    cases = 0
    grammars = 0
    failures = []
    for g in small_grammars(alphabet, max_productions, seed):
        if cases >= min_cases:
            break
        if time_budget is not None and time.perf_counter() - t0 > time_budget:
            break
        report = check_well_formed(g)
        if not report.is_well_formed:
            continue
        grammars += 1
        forms = _forms(g, report, failures)
        for s in inputs:
            for form, cert in forms:
                expected = oracle_parse(form, s, fuel=_DIFF_FUEL)
                if expected is EXHAUSTED:
                    failures.append((form, s,
                                     "oracle exhausted on certified case"))
                    continue
                for mode in ("plain", "packrat"):
                    got = parse(form, cert, s, mode=mode)
                    if got != expected:
                        failures.append((form, s, "%s %r != oracle %r"
                                         % (mode, got, expected)))
            cases += 1
    return SuiteResult(
        "oracle-differential", not failures, cases,
        "%d grammars, each also tree-wrapped, %.1fs"
        % (grammars, time.perf_counter() - t0),
        failures[:5])


def property_soundness_suite(alphabet: str = "ab", max_productions: int = 3,
                             max_input_len: int = 4, max_grammars: int = 120,
                             seed: int = 0) -> SuiteResult:
    """Observed oracle behavior implies the inferred flag, for every
    sub-expression of every stream grammar (no certificate needed)."""
    inputs = all_inputs(alphabet, max_input_len)
    cases = 0
    failures = []
    checked = 0
    for g in small_grammars(alphabet, max_productions, seed,
                            limit=max_grammars):
        table = check_well_formed(g).properties
        for e in table.exprs:
            for s in inputs:
                out = oracle_eval(g, e, s, 0, fuel=4_000)
                if out is EXHAUSTED:
                    continue
                cases += 1
                if out.ok and out.pos == 0 and not table.can_empty(e):
                    failures.append((g, e, s, "empty success but no 0 flag"))
                if out.ok and out.pos > 0 and not table.can_consume(e):
                    failures.append((g, e, s, "consuming success but no >0"))
                if not out.ok and not table.can_fail(e):
                    failures.append((g, e, s, "failure but no fail flag"))
        checked += 1
    return SuiteResult("property-soundness", not failures, cases,
                       "%d grammars" % checked, failures[:5])


def completeness_suite(n_grammars: int = 40, inputs_per_grammar: int = 1000,
                       max_len: int = 256, seed: int = 1,
                       per_case_ceiling: float = 10.0) -> SuiteResult:
    """Certified random grammars must return an outcome on arbitrary
    inputs: no fuel, no defensive-check firings, no per-case timeouts."""
    rng = random.Random(seed)
    failures = []
    cases = 0
    certified = 0
    attempts = 0
    while certified < n_grammars and attempts < n_grammars * 60:
        attempts += 1
        g = random_grammar(rng, "ab", rng.randrange(1, 5),
                           body_size=rng.randrange(2, 8))
        report = check_well_formed(g)
        if not report.is_well_formed:
            continue
        certified += 1
        cert = report.certificate
        for _ in range(inputs_per_grammar):
            n = rng.randrange(0, max_len + 1)
            s = bytes(rng.choice(b"ab") for _ in range(n))
            t0 = time.perf_counter()
            try:
                parse(g, cert, s)
            except InvariantViolation as exc:
                failures.append((g, s, "defensive check fired: %s" % exc))
            elapsed = time.perf_counter() - t0
            if elapsed > per_case_ceiling:
                failures.append((g, s, "case exceeded %.0fs" % per_case_ceiling))
            cases += 1
    return SuiteResult("wf-completeness", not failures and certified > 0,
                       cases, "%d certified grammars" % certified,
                       failures[:5])


def mode_equivalence_suite(n_cases: int = 1000, seed: int = 2) -> SuiteResult:
    """Plain vs packrat outcomes byte-identical, steps included, on
    random certified grammars and their tree_wraps; a tree's outcomes
    also equal the oracle's where it finishes within its fuel."""
    rng = random.Random(seed)
    failures = []
    cases = 0
    while cases < n_cases:
        g = random_grammar(rng, "ab", rng.randrange(1, 5),
                           body_size=rng.randrange(2, 8))
        report = check_well_formed(g)
        if not report.is_well_formed:
            continue
        forms = _forms(g, report, failures)
        for _ in range(20):
            if cases >= n_cases:
                break
            n = rng.randrange(0, 40)
            s = bytes(rng.choice(b"ab") for _ in range(n))
            for form, cert in forms:
                a = parse(form, cert, s)
                b = parse(form, cert, s, mode="packrat", memo=MemoTable())
                if a != b or a.steps != b.steps:
                    failures.append((form, s,
                                     "plain %r != packrat %r" % (a, b)))
                if form.tree_shaped:
                    want = oracle_parse(form, s, fuel=_DIFF_FUEL)
                    if want is not EXHAUSTED and a != want:
                        failures.append((form, s, "plain %r != oracle %r"
                                         % (a, want)))
            cases += 1
    return SuiteResult("mode-equivalence", not failures, cases, "",
                       failures[:5])


def run_selftest(seed: int = 0, budget: float = 60.0,
                 min_differential_cases: int = 10_000) -> list[SuiteResult]:
    """The full battery, sized to finish within the given budget."""
    t0 = time.perf_counter()
    results = [differential_suite(seed=seed,
                                  min_cases=min_differential_cases,
                                  time_budget=budget * 0.5)]
    results.append(property_soundness_suite(seed=seed,
                                            max_grammars=60))
    remaining = budget - (time.perf_counter() - t0)
    n_grammars = 12 if remaining < budget * 0.4 else 25
    results.append(completeness_suite(n_grammars=n_grammars,
                                      inputs_per_grammar=200,
                                      max_len=128, seed=seed + 1))
    results.append(mode_equivalence_suite(n_cases=600, seed=seed + 2))
    return results
