"""Count the work of the VM's parse loop over one seeded benchmark round.

    python3 tools/counts.py [--seed 1] [--workload NAME ...]

Imports trx from the checkout's src/.  For each workload it makes the
inputs of one round of perfbench/run.py (perfbench/workloads.py's slots
for that seed), parses each input once untraced, to build the
program's head caches, and once under ``sys.settrace`` with
``f_trace_opcodes``, and prints one JSON object:
per workload the bytes parsed, the bytecodes ``interp._run`` executed
and the VM frames it pushed, each also per byte, and the VM steps per
byte.  Only ``_run``'s own frame is traced; what it calls (actions,
memo writes, list appends) is not counted.  A frame is one execution of
a ``push(...)`` call of ``_run``, found by its ``LOAD_FAST push``
instruction.

The workloads are those of perfbench/run.py: xml-tree and xml-packrat
parse the xml-lite documents with xml-lite.peg in plain and in packrat
mode, math-packrat the arithmetic expressions with the embedded mathdemo
grammar in packrat mode, and "grammar-check meta parse" the .peg texts
with the built-in meta-grammar in plain mode: the meta parse that
`trx check` makes before lowering.  The counts are deterministic: two
runs print the same numbers.
"""

from __future__ import annotations

import argparse
import dis
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

from trx import interp, mathdemo, meta  # noqa: E402
from trx.analysis import check_well_formed  # noqa: E402

GRAMMARS = ROOT / "src" / "trx" / "grammars"


def _slots(workload: str, seed: int, faulty: bool) -> list:
    return [s.data for s in workloads.WORKLOADS[workload].slots(seed)
            if faulty or s.fault is None]


def _xml(seed: int, mode: str):
    # The deep document's known fault is in the JSON writer, after the
    # parse, so it is counted.
    g = meta.load_grammar((GRAMMARS / "xml-lite.peg").read_bytes())
    cert = check_well_formed(g).certificate
    return g, cert, mode, _slots("xml-tree", seed, True)


def _math(seed: int):
    g, cert = mathdemo.math_grammar()
    return g, cert, "packrat", _slots("math-packrat", seed, False)


def _meta(seed: int):
    # The deep-parenthesis text is left out: its operation fails in the
    # lowering, after the meta parse.
    g, cert = meta.builtin_meta_grammar()
    return g, cert, "plain", _slots("grammar-check", seed, False)


WORKLOADS = {
    "xml-tree": lambda seed: _xml(seed, "plain"),
    "xml-packrat": lambda seed: _xml(seed, "packrat"),
    "math-packrat": _math,
    "grammar-check meta parse": _meta,
}


def _push_offsets(code) -> frozenset:
    """The offsets of the instructions of ``code`` that load ``push``."""
    return frozenset(ins.offset for ins in dis.get_instructions(code)
                     if ins.opname == "LOAD_FAST" and ins.argval == "push")


def count(name: str, seed: int) -> dict:
    g, cert, mode, inputs = WORKLOADS[name](seed)
    run = interp._run.__code__
    pushes = _push_offsets(run)
    tally = [0, 0]                   # bytecodes, frames

    def local(frame, event, arg):
        if event == "opcode":
            tally[0] += 1
            if frame.f_lasti in pushes:
                tally[1] += 1
        return local

    def tracer(frame, event, arg):
        if frame.f_code is run:
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
            return local
        return None

    steps = 0
    for data in inputs:
        interp.parse(g, cert, data, mode=mode)      # warm the head caches
        sys.settrace(tracer)
        try:
            out = interp.parse(g, cert, data, mode=mode)
        finally:
            sys.settrace(None)
        if not out.ok or out.pos != len(data):
            raise RuntimeError("%s: an input was rejected" % name)
        steps += out.steps
    size = sum(len(d) for d in inputs)
    return {"inputs": len(inputs), "bytes": size,
            "bytecodes": tally[0], "frames": tally[1],
            "bytecodes_per_byte": round(tally[0] / size, 2),
            "frames_per_byte": round(tally[1] / size, 4),
            "steps_per_byte": round(steps / size, 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="a workload to count (repeatable; default: all)")
    args = ap.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    out = {"seed": args.seed, "python": sys.version.split()[0],
           "counts": {}}
    for name in names:
        out["counts"][name] = count(name, args.seed)
        print(name, json.dumps(out["counts"][name]), file=sys.stderr,
              flush=True)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
