"""Benchmark of the Ignem reproduction: four workloads, end-to-end and
per-layer metrics, one command.

Run from the repository root::

    python3 perfbench/run.py --workload swim --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with profiling off;
``--trace 1`` runs every instance once untraced and once under
``cProfile`` and reports the per-layer metrics.  Both print a table
(metric, value, unit, sample count) and then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when a fingerprint differs between repeats of one seed or between
the traced and untraced run, or when a read returned wrong bytes; 2 when
the repository sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import signal
import statistics
import sys
import time
from typing import Dict, List, Tuple

from layers import BUCKETS, LayerMap, charge, transport_requests
from speed import PROBE

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
REPRO_DIR = os.path.join(SRC_DIR, "repro")

#: Metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "host_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
    "op_p99_s": "s",
    "ram_read_share": "share",
}

#: Per-layer counts read from public records: name -> (unit, how
#: instances combine: "sum" or "median").
RECORD_COUNTS = {
    "sim.events": ("count", "sum"),
    "sim.time": ("sim_s", "sum"),
    "core.migrations": ("count", "sum"),
    "core.migrated_gb": ("GB", "sum"),
    "core.migration_queue_wait_mean": ("sim_s", "median"),
    "core.migration_transfer_p50": ("sim_s", "median"),
    "core.evictions": ("count", "sum"),
    "core.heat.promotions": ("count", "sum"),
    "core.heat.demotions": ("count", "sum"),
    "core.heat.shed": ("count", "sum"),
    "dfs.block_reads": ("count", "sum"),
    "dfs.ram_block_reads": ("count", "sum"),
    "storage.disk_read_p50": ("sim_s", "median"),
    "storage.ram_read_p50": ("sim_s", "median"),
    "scheduler.lead_time_p50": ("sim_s", "median"),
    "mapreduce.tasks": ("count", "sum"),
    "mapreduce.map_task_p50": ("sim_s", "median"),
}


def per_layer_names() -> Dict[str, str]:
    """Metric name -> unit for ``--trace 1``, in BENCHMARK.json order."""
    names = {}
    for bucket in BUCKETS:
        names[f"{bucket}.self_pct"] = "%"
        names[f"{bucket}.calls"] = "count"
    names.update(
        {
            "trace.self_s": "s",
            "trace.overhead_ratio": "x",
            "machine.calib_s": "s",
            "sim.events_per_host_s": "1/s",
            "transport.requests": "count",
            "transport.codec_ms_per_block": "ms",
            "transport.wire_bytes_per_payload_byte": "ratio",
        }
    )
    names.update({name: unit for name, (unit, _) in RECORD_COUNTS.items()})
    return names


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of three): tells a
    slow machine phase apart from a slow program.  Not gated."""
    def loop():
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        return time.perf_counter() - start

    return statistics.median(loop() for _ in range(3))


def codec_cost() -> Tuple[float, float]:
    """Encode + decode of one 256 KB ``BlockReadReply`` (median ms over
    20) and wire bytes per payload byte."""
    from repro.transport import messages
    from repro.transport.real import BLOCK_SIZE

    payload = bytes(range(256)) * (BLOCK_SIZE // 256)
    reply = messages.BlockReadReply(ok=True, tier="mem", nbytes=float(BLOCK_SIZE), data=payload)
    samples = []
    for _ in range(20):
        start = time.perf_counter()
        wire = messages.encode(reply)
        decoded = messages.decode(wire)
        samples.append((time.perf_counter() - start) * 1000.0)
    if decoded.data != payload:
        raise RuntimeError("codec round trip changed the payload")
    return statistics.median(samples), len(wire) / len(payload)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_extras(outcomes) -> None:
    """Workload-specific figures (median over sub-seeds); informative
    only, they are not in the JSON line."""
    for name, (_, unit) in outcomes[0].extras.items():
        value = statistics.median(o.extras[name][0] for o in outcomes)
        print(f"  {name:<34} {value:>14.6g} {unit:<6} n={len(outcomes)} (not gated)")


def normalise(outcome, factor: float, wall_clock_ops: bool) -> None:
    """Divide the machine's speed out of an instance's wall-clock
    figures: ``factor`` is how much slower than nominal the speed probe
    found the machine during the instance (see ``speed.py``)."""
    outcome.factor = factor
    outcome.wall_s /= factor
    outcome.cpu_s /= factor
    outcome.setup_s = [x / factor for x in outcome.setup_s]
    if wall_clock_ops:
        outcome.op_latencies = [x / factor for x in outcome.op_latencies]
        for name, (value, unit) in outcome.extras.items():
            if unit == "ms":
                outcome.extras[name] = (value / factor, unit)


class Run:
    """One benchmark invocation: a workload, its sub-seeds, the checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.subs = [seed * workload.instances + i for i in range(workload.instances)]
        self.errors: List[str] = []
        self.first: Dict[int, object] = {}
        self.attempted = 0
        self.failed = 0

    def instance(self, sub: int, profiler=None):
        gc.collect()
        mark = PROBE.mark()
        outcome = self.workload.run(sub, profiler)
        normalise(outcome, PROBE.factor(mark), self.workload.wall_clock_ops)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors.extend(outcome.errors[:5])
        reference = self.first.setdefault(sub, outcome)
        if outcome.fingerprint != reference.fingerprint:
            self.errors.append(
                f"fingerprint of sub-seed {sub} changed: "
                f"{reference.fingerprint} -> {outcome.fingerprint}"
            )
        return outcome

    def fingerprints(self) -> Dict[int, object]:
        return {sub: self.first[sub].fingerprint for sub in self.subs}


def end_to_end(run: Run, seconds: float) -> Dict[str, Tuple[float, int]]:
    from suite import quantile

    by_sub: Dict[int, list] = {sub: [] for sub in run.subs}
    # At least one repeat of a sub-seed (fingerprint check), and at least
    # three instances, so a median over instances outvotes one disturbed
    # instance.
    minimum = max(len(run.subs) + 1, 3)
    start = time.perf_counter()
    count = 0
    with PROBE:
        while True:
            sub = run.subs[count % len(run.subs)]
            by_sub[sub].append(run.instance(sub))
            count += 1
            elapsed = time.perf_counter() - start
            if count >= minimum and elapsed * (count + 1) / count > seconds:
                break

    # One pass over the sub-seeds is the unit of work: its host time is
    # the sum over sub-seeds of the median of its repeats, each repeat
    # divided by the machine's speed during it (``normalise``).
    host = sum(statistics.median(o.wall_s for o in outs) for outs in by_sub.values())
    cpu = sum(statistics.median(o.cpu_s for o in outs) for outs in by_sub.values())
    factors = [o.factor for outs in by_sub.values() for o in outs]
    raw = sum(statistics.median(o.wall_s * o.factor for o in outs) for outs in by_sub.values())
    print(f"  host_s.raw {raw:>39.6g} s      n={count} (not divided by the factor; not gated)")
    print(
        f"  machine.speed_factor {statistics.median(factors):>29.6g} x      "
        f"n={PROBE.ticks} ticks (median; min {min(factors):.3g}, max {max(factors):.3g}; not gated)"
    )
    # Set-up of one pass: per sub-seed, the median of its set-ups.
    setup = [[x for o in outs for x in o.setup_s] for outs in by_sub.values()]
    setup_s = sum(statistics.median(samples) for samples in setup)
    if run.workload.wall_clock_ops:
        # Wall-clock latencies, each already divided by its instance's
        # speed factor: the median over instances of each instance's
        # quantiles (1,000 reads, so a p99 has ten beyond it).  Pooling
        # the instances instead lets one instance hit by a burst of slow
        # reads set the run's p99.
        pooled = [o for outs in by_sub.values() for o in outs]
        p50 = statistics.median(quantile(o.op_latencies, 0.5) for o in pooled)
        p99 = statistics.median(quantile(o.op_latencies, 0.99) for o in pooled)
        n_ops = sum(len(o.op_latencies) for o in pooled)
    else:
        # Simulated latencies repeat exactly: pool one instance per sub-seed.
        pooled = list(run.first.values())
        if pooled[0].op_quantiles is not None:
            p50 = statistics.median(o.op_quantiles[0] for o in pooled)
            p99 = statistics.median(o.op_quantiles[1] for o in pooled)
            n_ops = sum(o.attempted for o in pooled)
        else:
            latencies = [x for o in pooled for x in o.op_latencies]
            p50, p99 = quantile(latencies, 0.5), quantile(latencies, 0.99)
            n_ops = len(latencies)
    reads = sum(o.block_reads for o in pooled)
    ram = sum(o.ram_block_reads for o in pooled)
    print_extras(list(run.first.values()))
    return {
        "setup_s": (setup_s, sum(len(samples) for samples in setup)),
        "host_s": (host, count),
        "cpu_s": (cpu, count),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "op_p50_s": (p50, n_ops),
        "op_p99_s": (p99, n_ops),
        "ram_read_share": (ram / reads if reads else 0.0, reads),
    }


def per_layer(run: Run) -> Dict[str, Tuple[float, int]]:
    calib = calibrate()
    untraced = [run.instance(sub) for sub in run.subs]
    profiler = cProfile.Profile()
    traced = [run.instance(sub, profiler) for sub in run.subs]
    stats = pstats.Stats(profiler)
    seconds, calls = charge(stats, LayerMap(REPRO_DIR, BENCH_DIR))
    total = sum(seconds.values())
    untraced_s = sum(o.wall_s for o in untraced)
    traced_s = sum(o.wall_s for o in traced)
    codec_ms, wire_ratio = codec_cost()
    n = len(run.subs)
    out: Dict[str, Tuple[float, int]] = {}
    for bucket in BUCKETS:
        out[f"{bucket}.self_pct"] = (100.0 * seconds[bucket] / total if total else 0.0, n)
        out[f"{bucket}.calls"] = (calls[bucket], n)
    for name, (_, combine) in RECORD_COUNTS.items():
        values = [o.counts.get(name, 0.0) for o in untraced]
        out[name] = (sum(values) if combine == "sum" else statistics.median(values), n)
    out.update(
        {
            "trace.self_s": (total, n),
            "trace.overhead_ratio": (traced_s / untraced_s, n),
            "machine.calib_s": (calib, 3),
            "sim.events_per_host_s": (out["sim.events"][0] / untraced_s, n),
            "transport.requests": (transport_requests(stats), n),
            "transport.codec_ms_per_block": (codec_ms, 20),
            "transport.wire_bytes_per_payload_byte": (wire_ratio, 1),
        }
    )
    print_extras(untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Whatever happens, end well inside three minutes: SIGALRM's default
    # action ends the process with a non-zero status and no result line.
    signal.alarm(170)

    if not os.path.isfile(os.path.join(REPRO_DIR, "__init__.py")):
        print(f"perfbench: no repro package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    from suite import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    run = Run(workload, args.seed)
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
        f"sub-seeds={run.subs} op={workload.op!r}"
    )
    print(
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"{platform.platform()}"
    )
    if args.trace:
        measured = per_layer(run)
        units = per_layer_names()
    else:
        measured = end_to_end(run, args.seconds)
        units = END_TO_END
    for name, (value, samples) in measured.items():
        print(f"{name:<36} {value:>14.6g} {units[name]:<6} n={samples}")
    for sub, fingerprint in run.fingerprints().items():
        print(f"fingerprint sub-seed {sub}: {fingerprint}")
    share = run.failed / run.attempted if run.attempted else 0.0
    print(f"failed_share {share:.6g} ({run.failed} of {run.attempted} attempted)")
    for error in run.errors[:20]:
        print(f"ERROR: {error}")
    correct = not run.errors and run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, (value, _) in measured.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
