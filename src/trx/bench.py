"""Desk-scale benchmark harness and the xmark-lite corpus generator.

Absolute wall times are informational; the contract is the scaling
ratio between input sizes (a linear parser doubles its time, within
noise, when the input doubles).  Medians over several repetitions keep
single-run jitter out of the ratios, and the sizes are parsed in
interleaved rounds, so that a slow stretch hits every size alike.
"""

from __future__ import annotations

import random
import statistics
import time

from .analysis import Certificate
from .exprs import Grammar
from .interp import MemoTable, memo_stats, parse

_TAGS = ("item", "entry", "node", "rec", "data", "leaf")
_ATTRS = ("id", "kind", "ref")
_WORDS = ("lorem", "ipsum", "dolor", "sit", "amet", "consectetur",
          "adipiscing", "elit", "sed", "do", "eiusmod", "tempor")


def xmark_lite(size: int, seed: int = 0, max_depth: int = 24) -> bytes:
    """Deterministic nested-XML corpus of roughly ``size`` bytes.

    Output is valid xml-lite: matched tags, quoted attributes, text
    content, and self-closing empty elements.  Depth is capped so plain
    recursive consumers of the output stay shallow; breadth carries the
    volume.
    """
    if size <= 0:
        return b""
    rng = random.Random(seed)
    out = []
    total = 0

    def emit(s: str):
        nonlocal total
        out.append(s)
        total += len(s)

    def text_run():
        words = [rng.choice(_WORDS) for _ in range(rng.randrange(3, 9))]
        emit(" ".join(words))

    def element(depth: int):
        tag = rng.choice(_TAGS)
        attrs = ""
        for _ in range(rng.randrange(0, 3)):
            attrs += ' %s="%s%d"' % (rng.choice(_ATTRS),
                                     rng.choice(_WORDS), rng.randrange(100))
        if depth >= max_depth or rng.random() < 0.25:
            if rng.random() < 0.4:
                emit("<%s%s/>" % (tag, attrs))
                return
            emit("<%s%s>" % (tag, attrs))
            text_run()
            emit("</%s>" % tag)
            return
        emit("<%s%s>" % (tag, attrs))
        for i in range(rng.randrange(1, 4)):
            if i > 0 and total >= size:
                break
            if rng.random() < 0.5:
                text_run()
            else:
                element(depth + 1)
        emit("</%s>" % tag)

    emit("<doc>")
    element(1)
    while total < size:
        element(1)
    emit("</doc>")
    return "".join(out).encode("ascii")


def parse_size(spec: str) -> int:
    spec = spec.strip().upper()
    mult = 1
    if spec.endswith("K"):
        mult, spec = 1024, spec[:-1]
    elif spec.endswith("M"):
        mult, spec = 1024 * 1024, spec[:-1]
    return int(float(spec) * mult)


def run_bench(g: Grammar, cert: Certificate, corpora, mode: str = "plain",
              reps: int = 5) -> list[dict]:
    """Benchmark rows for (label, bytes) corpora, with doubling ratios.

    The corpora are parsed in rounds, one parse of each per round, so
    that a slow stretch of a shared machine slows every corpus alike
    rather than all the repetitions of one; each row's time is the
    median of its ``reps`` parses, and its outcome and memo statistics
    are those of its last parse.  A row reports the median wall time,
    ``medianSeconds``, and the median processor time of this process,
    ``cpuMedianSeconds``, which time spent waiting for a shared
    machine's processor does not inflate.  ``reps`` below 1 raises
    ValueError.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1, got %r" % (reps,))
    times = [[] for _ in corpora]
    cpu_times = [[] for _ in corpora]
    last = [None] * len(corpora)
    for _ in range(reps):
        for i, (_, data) in enumerate(corpora):
            memo = MemoTable()
            c0 = time.process_time()
            t0 = time.perf_counter()
            outcome = parse(g, cert, data, mode=mode, memo=memo)
            times[i].append(time.perf_counter() - t0)
            cpu_times[i].append(time.process_time() - c0)
            last[i] = outcome, memo
    rows = []
    prev = None
    for (label, data), runs, cpu_runs, (outcome, memo) in zip(
            corpora, times, cpu_times, last):
        median = statistics.median(runs)
        row = {
            "label": label,
            "bytes": len(data),
            "medianSeconds": median,
            "cpuMedianSeconds": statistics.median(cpu_runs),
            "runs": reps,
            "mbPerSecond": (len(data) / (1024 * 1024) / median)
            if median > 0 else None,
            "ok": bool(outcome.ok and outcome.pos == len(data)),
            "steps": outcome.steps,
        }
        if mode == "packrat":
            row["memo"] = memo_stats(memo)
        if prev and prev["medianSeconds"] > 0:
            row["ratioToPrevious"] = median / prev["medianSeconds"]
        rows.append(row)
        prev = row
    return rows
