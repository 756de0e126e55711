"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload xml-tree --seed 1 --seconds 20 \
        --trace 0

Runs from the root of a checkout: trx is imported from ./src.  One
process, one thread, one caller in a closed loop: the next operation
starts when the previous one has returned.  The loop repeats whole
rounds of the same operations until the operations have taken
``--seconds`` in total.  Every output is checked against a computation
made apart from trx; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Times are scaled
to a nominal machine speed (see speed.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
rounds with rounds whose calls into each layer are timed, then makes
one round under tracemalloc (inputs up to 16 KiB), and prints the
per-layer metrics together with the tracing overhead; its span totals
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import CAL_EVERY, Speed  # noqa: E402

# Set-ups before the loop, and seconds of operations between two more
# in an untraced run.  The first set-ups of a process run slower than
# later ones, so most of those reported are spread over the run.
SETUP_FIRST = 3
SETUP_EVERY = 1.0

MIB = 1024 * 1024
# The tracemalloc round skips larger inputs: tracing every allocation
# slows a parse several times over, and the large inputs would make
# the traced run take longer than the rest of it.
ALLOC_MAX_BYTES = 16 * 1024


def setup_once(wl, speed, tracer=None):
    """Import trx afresh and ready the workload's grammar; returns the
    nominal seconds it took, the modules and the readied grammar."""
    gc.collect()
    w = speed.window
    t0 = time.perf_counter()
    mods = workloads.fresh_import(wl.extra_modules)
    if tracer is not None:
        tracer.uninstall()
        tracer.install(mods)
    ready = wl.setup(mods)
    t1 = time.perf_counter()
    speed.sample()
    return (t1 - t0) * speed.scale(w, t0, t1), mods, ready


class Run:
    """The measurement loop and its counters."""

    def __init__(self, wl, mods, ready, slots, speed):
        self.wl, self.mods, self.ready = wl, mods, ready
        self.slots, self.speed = slots, speed
        self.attempted = 0
        self.failed = 0
        # Nominal seconds of each slot's operations, one per round.
        self.times = {slot.index: array("d") for slot in slots}
        self.rounds = 0
        self.digests = {}
        self.kept = {}
        self.counts = {}
        self._since = 0.0
        # Called between operations every SETUP_EVERY seconds of them,
        # if set; returns the seconds of one more set-up.
        self.setup = None
        self.setup_times = []
        self._since_setup = 0.0

    def round(self) -> tuple:
        """One round of every slot; returns the seconds its operations
        took, measured and nominal."""
        wl, mods, ready, speed = self.wl, self.mods, self.ready, self.speed
        clock = time.perf_counter
        ops = []                    # (slot index, start, end, window)
        for slot in self.slots:
            self.attempted += 1
            w = speed.window
            t0 = clock()
            try:
                result = wl.op(mods, ready, slot)
            except Exception as exc:
                # Only the known fault of a slot is counted as a failed
                # operation; any other failure is a wrong output.
                if type(exc).__name__ != slot.fault:
                    raise checks.CheckError("operation %d failed: %r"
                                            % (slot.index, exc)) from exc
                self.failed += 1
                self._tick(clock() - t0)
                continue
            t1 = clock()
            ops.append((slot.index, t0, t1, w))
            self._tick(t1 - t0)
            digest = wl.digest(result)
            if slot.index not in self.digests:
                self.counts[slot.index] = wl.check(slot, result)
                self.digests[slot.index] = digest
                self.kept[slot.index] = wl.keep(result)
            elif digest != self.digests[slot.index]:
                raise checks.CheckError("operation %d gave another output "
                                        "than in the first round"
                                        % slot.index)
            del result
        self.rounds += 1
        speed.sample()
        self._since = 0.0
        measured = nominal = 0.0
        for index, t0, t1, w in ops:
            scaled = (t1 - t0) * speed.scale(w, t0, t1)
            self.times[index].append(scaled)
            measured += t1 - t0
            nominal += scaled
        return measured, nominal

    def _tick(self, dt):
        self._since += dt
        if self._since >= CAL_EVERY:
            self.speed.sample()
            self._since = 0.0
        self._since_setup += dt
        if self.setup is not None and self._since_setup >= SETUP_EVERY:
            self.setup_times.append(self.setup())
            gc.collect()            # the dropped modules, outside any op
            self._since_setup = 0.0

    def check_once(self):
        for slot in self.slots:
            if slot.index in self.kept:
                self.wl.check_once(self.mods, self.ready, slot,
                                   self.kept[slot.index])

    def end_to_end(self) -> dict:
        """Metrics of the typical round: each operation at the median of
        its times over the run's rounds.  A stretch in which the machine
        runs slow hits a few rounds of an operation, not its median."""
        typical = {i: statistics.median(t) for i, t in self.times.items()
                   if t}
        lat = list(typical.values())
        ok_bytes = sum(len(self.slots[i].data) for i in typical)
        return {
            "throughput_mb_s": (ok_bytes / MIB) / sum(lat),
            "latency_ms.p50": statistics.median(lat) * 1000.0,
            "latency_ms.p90": statistics.quantiles(
                lat, n=10, method="inclusive")[8] * 1000.0,
        }

    def output_counts(self) -> dict:
        """Tree nodes and JSON bytes per input byte, over one round."""
        def ratio(key, per):
            src = sum(len(s.data) for s in self.slots
                      if key in self.counts.get(s.index, {}))
            out = sum(c.get(key, 0) for c in self.counts.values())
            return out / (src / per) if src else 0.0
        return {"values.nodes_per_kb": ratio("nodes", 1024),
                "cli.json_bytes_per_byte": ratio("json_bytes", 1)}


def run(spec: dict, workload: str, seed: int, seconds: float,
        trace: bool) -> dict:
    """One run; ``spec`` is BENCHMARK.json, which names the metrics."""
    wl = workloads.WORKLOADS[workload]
    slots = wl.slots(seed)
    speed = Speed()

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer(speed)
    speed.sample()
    setups = []
    for _ in range(SETUP_FIRST):
        took, mods, ready = setup_once(wl, speed, tracer)
        setups.append(took)
    if tracer is not None:
        tracer.uninstall()
    gc.collect()

    loop = Run(wl, mods, ready, slots, speed)
    if not trace:
        loop.setup = lambda: setup_once(wl, speed)[0]
    correct = True
    measured = 0.0
    spent = {False: 0.0, True: 0.0}     # nominal seconds, by traced
    speed.sample()
    try:
        # Whole rounds until the operations took ``seconds``; a traced
        # run makes as many traced rounds as untraced ones.
        while loop.rounds < 2 or measured < seconds \
                or (trace and loop.rounds % 2):
            traced = trace and loop.rounds % 2 == 1
            if traced:
                tracer.bucket = "ops"
                tracer.install(mods)
            try:
                took, nominal = loop.round()
            finally:
                if traced:
                    tracer.uninstall()
            measured += took
            spent[traced] += nominal
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        loop.check_once()
    except checks.CheckError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        correct = False

    if not correct:
        metrics = {}
    elif not trace:
        metrics = {"setup_s": statistics.median(setups + loop.setup_times)}
        metrics.update(loop.end_to_end())
        metrics["peak_rss_mb"] = peak_rss_mb
    else:
        import tracemalloc
        tracer.bucket = "alloc"
        tracer.install(mods)
        tracemalloc.start()
        tracer.track_alloc(tracemalloc)
        try:
            for slot in slots:
                if len(slot.data) > ALLOC_MAX_BYTES:
                    continue
                try:
                    wl.op(mods, ready, slot)
                except Exception as exc:  # the known faults, counted above
                    if type(exc).__name__ != slot.fault:
                        raise
        finally:
            tracemalloc.stop()
            tracer.uninstall()
        layer = tracer.metrics()
        layer.update(loop.output_counts())
        layer["trace.overhead_pct"] = (spent[True] / spent[False] - 1) * 100
        layer["machine.reference_ms"] = statistics.median(speed.samples) * 1e3
        metrics = layer
        write_trace(workload, seed, tracer, loop, spent)

    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if correct and set(metrics) != set(units):
        raise RuntimeError("metrics %s differ from BENCHMARK.json"
                           % sorted(set(metrics) ^ set(units)))
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def write_trace(workload, seed, tracer, loop, spent):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed, "rounds": loop.rounds,
           "untraced_s": spent[False], "traced_s": spent[True],
           "spans": tracer.summary()}
    path = out / ("trace-%s-%d.json" % (workload, seed))
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trx" / "__init__.py").is_file():
        print("trx sources not found under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run(spec, args.workload, args.seed, args.seconds,
                 bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
