"""Spans around the public functions of each trx layer, from outside.

The traced run replaces module attributes with timing wrappers; the
untraced run never imports this module.  A span records its duration,
the summed duration of its direct child spans (for self time), the
summed duration of its descendants by name, and a few counts read off
the call's arguments and result.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import statistics
import time

import workloads

MIB = 1024 * 1024


def _parse_info(args, kwargs, out):
    """Input bytes, steps and packrat memo counts of an interp.parse call."""
    memo = kwargs.get("memo")
    entries = hits = misses = 0
    if memo is not None:
        entries, hits, misses = len(memo.entries), memo.hits, memo.misses
    return {"bytes": len(args[2]), "steps": out.steps, "entries": entries,
            "hits": hits, "misses": misses}


def _check_info(args, kwargs, report):
    return {"exprs": report.expr_count, "sweeps": report.iterations}


def targets(mods):
    """(object, attribute, span name, info) for every traced function."""
    out = [
        (mods.meta, "load_grammar_source", "meta.load", None),
        (mods.meta, "parse", "meta.parse", _parse_info),
        (mods.meta, "build_grammar", "exprs.build", None),
        (mods.analysis, "check_well_formed", "analysis.check", _check_info),
        (mods.analysis, "expression_set", "analysis.exprset", None),
        (mods.analysis, "infer_properties", "analysis.props", None),
        (mods.interp, "parse", "interp.parse", _parse_info),
        (workloads, "tree_to_json", "values.tree_to_json", None),
        (workloads, "force_compile", "interp.compile", None),
        (workloads, "prepare_loader", "meta.prepare", None),
        (workloads, "cli_dumps", "cli.dumps", None),
    ]
    if hasattr(mods, "mathdemo"):
        out.append((mods.mathdemo, "build_grammar", "exprs.build", None))
    return out


class Span:
    __slots__ = ("name", "parent", "top", "window", "start", "dur", "direct",
                 "desc", "info", "alloc")

    def __init__(self, name, parent, top, window):
        self.name = name
        self.parent = parent
        self.top = top
        self.window = window
        self.start = 0.0
        self.dur = 0.0
        self.direct = 0.0
        self.desc = {}
        self.info = None
        self.alloc = None


class Tracer:
    def __init__(self, speed):
        self.speed = speed
        self.buckets = {"setup": [], "ops": [], "alloc": []}
        self.bucket = "setup"
        self._stack = []
        self._saved = []
        self._tracemalloc = None

    # -- installing wrappers ------------------------------------------------

    def install(self, mods):
        for obj, attr, name, info in targets(mods):
            fn = getattr(obj, attr)
            self._saved.append((obj, attr, fn))
            setattr(obj, attr, self._wrap(name, fn, info))

    def uninstall(self):
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    def track_alloc(self, tracemalloc):
        """Record tracemalloc's peak over each interp/meta parse call."""
        self._tracemalloc = tracemalloc

    def _wrap(self, name, fn, info):
        stack = self._stack
        speed = self.speed
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack:
                span = Span(name, stack[-1].name, stack[0].name, speed.window)
            else:
                span = Span(name, None, name, speed.window)
            stack.append(span)
            tm = self._tracemalloc if info is _parse_info else None
            if tm is not None:
                tm.reset_peak()
                base = tm.get_traced_memory()[0]
            span.start = t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.dur = clock() - t0
                stack.pop()
            if tm is not None:
                span.alloc = tm.get_traced_memory()[1] - base
            if info is not None:
                span.info = info(args, kwargs, out)
            if stack:
                parent = stack[-1]
                parent.direct += span.dur
                desc = parent.desc
                desc[name] = desc.get(name, 0.0) + span.dur
                for k, v in span.desc.items():
                    desc[k] = desc.get(k, 0.0) + v
            self.buckets[self.bucket].append(span)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- per-layer metrics ---------------------------------------------------

    def _spans(self, names, where=None):
        """Spans with one of ``names`` from the operations, or from set-up
        when the operations made no such call.  Building the meta-grammar
        (once per import) is left out: it is not work on the workload's
        grammars or inputs."""
        for bucket in ("ops", "setup"):
            got = [s for s in self.buckets[bucket] if s.name in names
                   and s.top != "meta.prepare"
                   and (where is None or where(s))]
            if got:
                return got
        return []

    def metrics(self) -> dict:
        def scale(s):
            return self.speed.scale(s.window, s.start, s.start + s.dur)

        def ms(spans, part=lambda s: s.dur):
            """Median of a per-span time, in nominal milliseconds."""
            values = [part(s) * scale(s) * 1000.0 for s in spans]
            return statistics.median(values) if values else 0.0

        def per(num, den):
            return num / den if den else 0.0

        load = self._spans({"meta.load"})
        meta_parse = self._spans({"meta.parse"})
        check = self._spans({"analysis.check"})
        # VM parses doing real work: documents, expressions and the
        # meta-grammar parses of .peg text, not the compile-forcing parse
        # of empty input.
        vm = self._spans({"interp.parse", "meta.parse"},
                         lambda s: s.parent != "interp.compile")
        vm_time = sum(s.dur * scale(s) for s in vm)
        vm_bytes = sum(s.info["bytes"] for s in vm)
        vm_steps = sum(s.info["steps"] for s in vm)
        lookups = sum(s.info["hits"] + s.info["misses"] for s in vm)
        alloc = [s for s in self.buckets["alloc"] if s.alloc is not None
                 and s.parent != "interp.compile"]
        alloc_bytes = sum(s.info["bytes"] for s in alloc)
        counts = [s.info for s in check]

        return {
            "meta.load_ms": ms(load),
            "meta.parse_ms": ms(meta_parse),
            "meta.lower_ms": ms(load, lambda s: s.dur
                                - s.desc.get("meta.parse", 0.0)),
            "meta.steps_per_byte": per(
                sum(s.info["steps"] for s in meta_parse),
                sum(s.info["bytes"] for s in meta_parse)),
            "exprs.build_ms": ms(self._spans({"exprs.build"})),
            "analysis.check_ms": ms(check),
            "analysis.exprset_ms": ms(check, lambda s: s.desc.get(
                "analysis.exprset", 0.0)),
            "analysis.props_ms": ms(check, lambda s: s.desc.get(
                "analysis.props", 0.0)),
            "analysis.wf_ms": ms(check, lambda s: s.dur - s.direct),
            "analysis.exprs": statistics.median(
                [c["exprs"] for c in counts]) if counts else 0,
            "analysis.sweeps": statistics.median(
                [c["sweeps"] for c in counts]) if counts else 0,
            "interp.compile_ms": ms(self._spans({"interp.compile"})),
            "interp.parse_ms": ms(vm),
            "interp.parse_mb_s": per(vm_bytes / MIB, vm_time),
            "interp.steps_per_s": per(vm_steps, vm_time),
            "interp.steps_per_byte": per(vm_steps, vm_bytes),
            "interp.memo_entries_per_kb": per(
                sum(s.info["entries"] for s in vm), vm_bytes / 1024),
            "interp.memo_hit_ratio": per(
                sum(s.info["hits"] for s in vm), lookups),
            "interp.peak_alloc_mb_per_mb": per(
                sum(s.alloc for s in alloc) / MIB, alloc_bytes / MIB),
            "values.tree_to_json_ms": ms(self._spans({"values.tree_to_json"})),
            "cli.dumps_ms": ms(self._spans({"cli.dumps"})),
        }

    def summary(self) -> dict:
        """Span counts and total seconds per name and bucket."""
        out = {}
        for bucket, spans in self.buckets.items():
            agg = out.setdefault(bucket, {})
            for s in spans:
                n, t = agg.get(s.name, (0, 0.0))
                agg[s.name] = (n + 1, t + s.dur)
        return out
