"""The four benchmark workloads, each driven through the public API.

Every workload turns the run's ``--seed`` into a fixed list of
sub-seeds (``seed * K + i``), runs one *instance* per sub-seed and can
repeat instances to fill the measured time.  An instance returns an
:class:`Outcome`: its wall and CPU seconds, a fingerprint that must
repeat exactly, the user-visible operation latencies, and the counts the
per-layer table reads from public records.

* ``swim``  — the 200-job SWIM replay in Ignem mode on the 8-node paper
  testbed (``prepare_swim_cluster`` + ``engine.run_workload``).
* ``scale`` — a 1k-node / 10k-job Google-trace replay
  (``run_scale_replay``).
* ``serve`` — a heat-policy serving run (``run_serve``).
* ``real``  — the asyncio localhost services of ``transport/real.py``
  driven over ``AsyncioTransport.request``.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.swim_runs import prepare_swim_cluster
from repro.sim.engine import Environment
from repro.transport.aio import AsyncioTransport
from repro.transport.messages import (
    BlockReadRequest,
    BlockWriteRequest,
    CreateFileRequest,
    LocationsRequest,
    MigrateFilesRequest,
)
from repro.transport.real import (
    BLOCK_SIZE,
    DataNodeService,
    MasterService,
    NameNodeService,
)
from repro.workloads import scale as scale_mod
from repro.workloads import serve as serve_mod
from repro.workloads.google_trace import GoogleTraceGenerator
from speed import PROBE

GB = 1024.0**3


@dataclass
class Outcome:
    """What one workload instance leaves behind."""

    #: Wall and CPU seconds of the measured phase (the simulation run,
    #: or the real workload's timed phases), less the speed probe's ticks.
    wall_s: float
    cpu_s: float
    #: Must be identical for every run of one sub-seed (sim workloads).
    fingerprint: Tuple
    #: User operations attempted and failed (jobs, requests, reads...).
    attempted: int
    failed: int
    #: Latency of each user operation, in seconds (or precomputed
    #: quantiles when the program reports only those).
    op_latencies: List[float] = field(default_factory=list)
    op_quantiles: Optional[Tuple[float, float]] = None
    block_reads: int = 0
    ram_block_reads: int = 0
    #: Per-layer counts read from the public records (layer table).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific extras printed in the tables, not in the JSON.
    extras: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: Set-up seconds before the measured phase, one sample per set-up.
    setup_s: List[float] = field(default_factory=list)
    #: How much slower than nominal the machine ran during the instance;
    #: the times above are already divided by it (``run.normalise``).
    factor: float = 1.0


@contextlib.contextmanager
def _profiled(profiler):
    """Enable ``profiler`` (a ``cProfile.Profile`` or None) for the block."""
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


class _SimClock:
    """Splits one call of a public entry point at its simulation.

    For the duration of the block ``Environment.run`` is wrapped, so the
    time spent inside it (the measured phase) is timed and profiled
    apart from everything the entry point does before it (set-up:
    cluster build, dataset and trace generation).  The speed probe's
    ticks are taken out of both::

        with _SimClock(profiler) as clock:
            run_scale_replay(config)
        clock.setup_s, clock.wall_s, clock.cpu_s
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.wall_s = self.cpu_s = self.setup_s = 0.0

    def __enter__(self) -> "_SimClock":
        original = self.original = Environment.run
        clock = self

        def run(env, *args, **kwargs):
            wall0, cpu0, ticks0 = time.perf_counter(), time.process_time(), PROBE.spent
            try:
                with _profiled(clock.profiler):
                    return original(env, *args, **kwargs)
            finally:
                ticks = PROBE.spent - ticks0
                clock.wall_s += time.perf_counter() - wall0 - ticks
                clock.cpu_s += time.process_time() - cpu0 - ticks

        Environment.run = run
        self.start, self.ticks0 = time.perf_counter(), PROBE.spent
        return self

    def __exit__(self, *exc) -> None:
        Environment.run = self.original
        ticks = PROBE.spent - self.ticks0
        self.setup_s = time.perf_counter() - self.start - ticks - self.wall_s


def quantile(samples: List[float], q: float) -> float:
    """Nearest-rank quantile of ``samples`` (0.0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def _migration_counts(cluster) -> Dict[str, float]:
    """Ignem-core counts from ``MigrationRecord``/``EvictionRecord`` and
    the slaves' queue-wait histogram (command received -> worker picks
    it up; the records' own ``enqueued_at`` is that pick-up time)."""
    collector = cluster.collector
    done = collector.completed_migrations()
    queue_wait = cluster.metrics.histogram("ignem.slave.queue_wait_seconds")
    return {
        "core.migrations": len(done),
        "core.migrated_gb": sum(r.nbytes for r in done) / GB,
        "core.migration_queue_wait_mean": (
            queue_wait.total / queue_wait.count if queue_wait.count else 0.0
        ),
        "core.migration_transfer_p50": quantile([r.end - r.start for r in done], 0.5),
        "core.evictions": len(collector.evictions),
    }


class _Capture:
    """Keeps the cluster a public entry point builds internally, so the
    benchmark can read its ``MetricsCollector`` after the call.

    Used as ``with _Capture(module, "factory") as capture:``; the
    module's factory is wrapped for the duration of the block only, and
    ``on_build`` (if given) sees the cluster before the run starts.
    """

    def __init__(self, module, name: str, on_build=None):
        self.module, self.name = module, name
        self.on_build = on_build
        self.cluster = None

    def __enter__(self) -> "_Capture":
        original = self.original = getattr(self.module, self.name)

        def capturing(*args, **kwargs):
            self.cluster = original(*args, **kwargs)
            if self.on_build is not None:
                self.on_build(self.cluster)
            return self.cluster

        setattr(self.module, self.name, capturing)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.name, self.original)


# -- swim ------------------------------------------------------------------


class Swim:
    name = "swim"
    wall_clock_ops = False
    #: 8 x 200 jobs per pass: p99 of job duration has 16 jobs beyond it,
    #: pooling sub-seeds keeps one seed's draw from moving the figures,
    #: and a 25 s run still repeats each sub-seed about five times.
    instances = 8
    op = "job duration (simulated)"

    def run(self, sub_seed: int, profiler=None) -> Outcome:
        with _SimClock(profiler) as clock:
            cluster, _, specs, arrivals = prepare_swim_cluster("ignem", seed=sub_seed)
            done = cluster.engine.run_workload(specs, arrivals, implicit_eviction=True)
            cluster.run(until=done)
        col = cluster.collector
        reads = col.block_reads
        ram_reads = [r for r in reads if r.source == "ram"]
        disk_reads = [r for r in reads if r.source != "ram"]
        maps = [t for t in col.tasks if t.kind == "map"]
        counts = _migration_counts(cluster)
        counts.update(
            {
                "sim.events": cluster.env._eid,
                "sim.time": cluster.env.now,
                "dfs.block_reads": len(reads),
                "dfs.ram_block_reads": len(ram_reads),
                "storage.disk_read_p50": quantile([r.duration for r in disk_reads], 0.5),
                "storage.ram_read_p50": quantile([r.duration for r in ram_reads], 0.5),
                "scheduler.lead_time_p50": quantile([j.lead_time for j in col.jobs], 0.5),
                "mapreduce.tasks": len(col.tasks),
                "mapreduce.map_task_p50": quantile([t.duration for t in maps], 0.5),
            }
        )
        # A migration was useful when its node later served the block
        # from RAM.
        ram_read_at = {}
        for r in ram_reads:
            key = (r.block_id, r.node)
            ram_read_at[key] = max(ram_read_at.get(key, r.start), r.start)
        done = col.completed_migrations()
        useful = sum(1 for m in done if ram_read_at.get((m.block_id, m.node), -1.0) >= m.end)
        completed = sum(1 for job in cluster.engine.jobs if job.completed.triggered)
        return Outcome(
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s,
            setup_s=[clock.setup_s],
            fingerprint=(
                cluster.env._eid,
                cluster.env.now,
                completed,
                len(done),
                len(ram_reads),
                len(reads),
            ),
            attempted=len(specs),
            failed=len(specs) - completed,
            op_latencies=[j.duration for j in col.jobs],
            block_reads=len(reads),
            ram_block_reads=len(ram_reads),
            counts=counts,
            extras={"core.useful_migration_share": (useful / len(done) if done else 0.0, "share")},
        )


# -- scale -----------------------------------------------------------------


class Scale:
    name = "scale"
    wall_clock_ops = False
    instances = 1
    op = "job read wave: end of its trace queue delay to last block read (simulated)"
    nodes = 1_000
    jobs = 10_000

    def run(self, sub_seed: int, profiler=None) -> Outcome:
        # The replay registers each job with the ResourceManager at its
        # arrival and unregisters it when its read wave is done; those
        # two public calls, less the trace's queue delay (an input, not
        # the system's doing), give each job's read-wave latency.
        config = scale_mod.ScaleConfig(num_nodes=self.nodes, num_jobs=self.jobs, seed=sub_seed)
        queue_delay = {
            f"job-{job.job_id}": job.queue_delay
            for job in GoogleTraceGenerator(sub_seed).generate_jobs(
                config.num_jobs, mean_interarrival=config.mean_interarrival
            )
        }
        arrived: Dict[str, float] = {}
        finished: Dict[str, float] = {}

        def watch_jobs(cluster) -> None:
            rm, env = cluster.rm, cluster.env
            register, unregister = rm.register_job, rm.unregister_job

            def on_register(job_id):
                arrived[job_id] = env.now
                register(job_id)

            def on_unregister(job_id):
                finished[job_id] = env.now
                unregister(job_id)

            rm.register_job, rm.unregister_job = on_register, on_unregister

        with _Capture(scale_mod, "build_scale_cluster", watch_jobs) as capture:
            with _SimClock(profiler) as clock:
                result = scale_mod.run_scale_replay(config)
        done = capture.cluster.collector.completed_migrations()
        counts = _migration_counts(capture.cluster)
        counts.update(
            {
                "sim.events": result.events,
                "sim.time": result.sim_time,
                "dfs.block_reads": result.block_reads,
                "dfs.ram_block_reads": result.ram_block_reads,
            }
        )
        # Every block of a scale job is read exactly once, so each RAM
        # read is one distinct migrated block that arrived in time.
        useful = result.ram_block_reads / len(done) if done else 0.0
        return Outcome(
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s,
            setup_s=[clock.setup_s],
            fingerprint=(
                result.events,
                result.sim_time,
                result.jobs_completed,
                result.migrations_completed,
                result.ram_block_reads,
                result.block_reads,
            ),
            attempted=result.num_jobs,
            failed=result.num_jobs - result.jobs_completed,
            op_latencies=[end - arrived[job] - queue_delay[job] for job, end in finished.items()],
            block_reads=result.block_reads,
            ram_block_reads=result.ram_block_reads,
            counts=counts,
            extras={"core.useful_migration_share": (useful, "share")},
        )


# -- serve -----------------------------------------------------------------


class Serve:
    name = "serve"
    wall_clock_ops = False
    instances = 1
    op = "request latency from its due time (simulated)"
    #: 20k requests at 3 req/s span ~29 periods of the 240 s diurnal curve.
    requests = 20_000

    def run(self, sub_seed: int, profiler=None) -> Outcome:
        config = serve_mod.ServeConfig(policy="heat", num_requests=self.requests, seed=sub_seed)
        with _Capture(serve_mod, "Cluster") as capture:
            with _SimClock(profiler) as clock:
                result = serve_mod.run_serve(config)
        reads = result.ram_block_reads + result.disk_block_reads
        counts = _migration_counts(capture.cluster)
        counts.update(
            {
                "sim.events": result.events,
                "sim.time": result.sim_time,
                "core.heat.promotions": result.promotions,
                "core.heat.demotions": result.demotions,
                "core.heat.shed": result.shed,
                "dfs.block_reads": reads,
                "dfs.ram_block_reads": result.ram_block_reads,
            }
        )
        return Outcome(
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s,
            setup_s=[clock.setup_s],
            fingerprint=repr(sorted(result.to_dict().items())),
            attempted=result.num_requests,
            failed=result.num_requests - result.requests_served,
            op_quantiles=(result.p50, result.p99),
            block_reads=reads,
            ram_block_reads=result.ram_block_reads,
            counts=counts,
            extras={"serve.p999": (result.p999, "sim_s")},
        )


# -- real ------------------------------------------------------------------


class Real:
    name = "real"
    #: Latencies are wall clock: pool every instance, not one per seed.
    wall_clock_ops = True
    instances = 1
    #: A boot takes about 1.5 ms: each instance boots and stops this many
    #: extra clusters before the one it measures, so ``setup_s`` is a
    #: median of many boots (and a first, slower boot on a fresh event
    #: loop does not move it).
    extra_boots = 29
    op = "block read: locations RPC + read RPC (wall clock)"
    datanodes = 3
    replication = 2
    files = 16
    file_blocks = 2
    #: Reads per phase: an instance's p99 has ten reads beyond it.
    reads = 500

    async def _boot(self, seed: int):
        transport = AsyncioTransport()
        names = tuple(f"node{i}" for i in range(self.datanodes))
        namenode = NameNodeService(transport, names, replication=self.replication, seed=seed)
        master = MasterService(transport, seed=seed)
        datanodes = [DataNodeService(name, transport) for name in names]
        await namenode.start()
        await master.start()
        for dn in datanodes:
            await dn.start()
        return transport, datanodes

    @staticmethod
    async def _shutdown(transport, datanodes) -> int:
        """Stop every service; returns how many DataNode stops hung.

        ``DataNodeService.stop`` waits forever when its heartbeat's
        reply lands in the same loop turn as the cancel: Python 3.11's
        ``asyncio.wait_for`` then swallows the cancellation and the
        heartbeat loop keeps running.  Teardown is outside the measured
        phase, so a hung stop is cancelled again until it returns, and
        counted and reported rather than left to hang the benchmark.
        """
        hung = 0
        for dn in datanodes:
            stopping = asyncio.ensure_future(dn.stop())
            done, _ = await asyncio.wait([stopping], timeout=1.0)
            hung += not done
            for _ in range(50):
                if done:
                    break
                stopping.cancel()
                done, _ = await asyncio.wait([stopping], timeout=0.2)
            else:
                raise RuntimeError(f"DataNode {dn.name} cannot be stopped")
        await transport.close()
        if hung:
            print(f"WARNING: {hung} DataNodeService.stop() call(s) hung (heartbeat cancel race)")
        return hung

    def _inputs(self, sub_seed: int):
        """Block payloads and both phases' read sequences (block indexes,
        Zipf-skewed toward the first files, which are the hot half)."""
        rng = random.Random(sub_seed)
        nblocks = self.files * self.file_blocks
        payloads = [rng.randbytes(BLOCK_SIZE) for _ in range(nblocks)]
        cdf, acc = [], 0.0
        for i in range(nblocks):
            acc += 1.0 / (i + 1)
            cdf.append(acc)
        picks = [
            [min(nblocks - 1, bisect_left(cdf, rng.random() * acc)) for _ in range(self.reads)]
            for _ in range(2)
        ]
        return rng, payloads, picks

    def run(self, sub_seed: int, profiler=None) -> Outcome:
        return asyncio.run(self._run(sub_seed, profiler))

    async def _run(self, sub_seed: int, profiler) -> Outcome:
        rng, payloads, picks = self._inputs(sub_seed)
        boots, hung = [], 0
        for extra in range(self.extra_boots + 1):
            start, ticks0 = time.perf_counter(), PROBE.spent
            transport, datanodes = await self._boot(sub_seed)
            boots.append(time.perf_counter() - start - (PROBE.spent - ticks0))
            if extra < self.extra_boots:
                hung += await self._shutdown(transport, datanodes)
        try:
            wall0, cpu0, ticks0 = time.perf_counter(), time.process_time(), PROBE.spent
            with _profiled(profiler):
                outcome, written = await self._phases(transport, rng, payloads, picks)
            ticks = PROBE.spent - ticks0
            outcome.wall_s = time.perf_counter() - wall0 - ticks
            outcome.cpu_s = time.process_time() - cpu0 - ticks
            await self._audit(transport, written, outcome)
        finally:
            hung += await self._shutdown(transport, datanodes)
        outcome.setup_s = boots
        outcome.extras["transport.stop_hangs"] = (hung, "count")
        return outcome

    async def _phases(self, transport, rng, payloads, picks) -> Outcome:
        def clock() -> float:
            """Wall seconds less the speed probe's ticks."""
            return time.perf_counter() - PROBE.spent

        errors: List[str] = []
        attempted = 0
        rpc: Dict[str, List[float]] = {"write": [], "locations": [], "read": []}

        # Writes: create each file, then pipeline-replicate its blocks.
        paths = [f"/bench/file-{i:03d}" for i in range(self.files)]
        blocks = []
        for path in paths:
            created = await transport.request(
                "namenode", CreateFileRequest(path, float(BLOCK_SIZE * self.file_blocks))
            )
            for placement in created.blocks:
                data = payloads[len(blocks)]
                blocks.append((placement, data))
                attempted += 1
                t0 = clock()
                reply = await transport.request(
                    f"datanode/{placement.nodes[0]}",
                    BlockWriteRequest(
                        block_id=placement.block_id,
                        path=path,
                        index=placement.index,
                        data=data,
                        pipeline=placement.nodes[1:],
                    ),
                )
                rpc["write"].append(clock() - t0)
                if set(reply.stored) != set(placement.nodes):
                    errors.append(f"write of {placement.block_id} stored on {reply.stored}")

        async def read_phase(indexes):
            """Closed loop: one read outstanding; returns each read's
            latency and whether RAM served it."""
            latencies, from_ram, ram_hits = [], [], set()
            for index in indexes:
                placement, data = blocks[index]
                t0 = clock()
                where = await transport.request("namenode", LocationsRequest(placement.block_id))
                t1 = clock()
                node = rng.choice(sorted(where.memory_nodes or where.nodes))
                reply = await transport.request(
                    f"datanode/{node}", BlockReadRequest(placement.block_id)
                )
                t2 = clock()
                latencies.append(t2 - t0)
                from_ram.append(reply.ok and reply.tier == "mem")
                rpc["locations"].append(t1 - t0)
                rpc["read"].append(t2 - t1)
                if not reply.ok:
                    errors.append(f"read of {placement.block_id} failed")
                elif reply.data != data:
                    errors.append(f"read of {placement.block_id} corrupt")
                elif reply.tier == "mem":
                    ram_hits.add((placement.block_id, node))
            return latencies, from_ram, ram_hits

        cold, cold_ram, _ = await read_phase(picks[0])
        hot_paths = tuple(paths[: self.files // 2])
        t0 = clock()
        await transport.request("master", MigrateFilesRequest(hot_paths, job_id="bench"))
        migrate_s = clock() - t0
        hot, hot_ram, ram_hits = await read_phase(picks[1])
        attempted += len(cold) + len(hot) + 1

        reads = cold + hot
        ram_reads = sum(cold_ram) + sum(hot_ram)
        ms = 1000.0
        extras = {
            "write_p50_ms": (quantile(rpc["write"], 0.5) * ms, "ms"),
            "cold_read_p50_ms": (quantile(cold, 0.5) * ms, "ms"),
            "cold_read_p99_ms": (quantile(cold, 0.99) * ms, "ms"),
            "hot_read_p50_ms": (quantile(hot, 0.5) * ms, "ms"),
            "hot_read_p99_ms": (quantile(hot, 0.99) * ms, "ms"),
            "transport.locations_rpc_p50_ms": (quantile(rpc["locations"], 0.5) * ms, "ms"),
            "transport.read_rpc_p50_ms": (quantile(rpc["read"], 0.5) * ms, "ms"),
            "transport.write_rpc_p50_ms": (quantile(rpc["write"], 0.5) * ms, "ms"),
            "transport.migrate_rpc_ms": (migrate_s * ms, "ms"),
        }
        outcome = Outcome(
            wall_s=0.0,
            cpu_s=0.0,
            fingerprint=(),
            attempted=attempted,
            failed=0,
            op_latencies=reads,
            block_reads=len(reads),
            ram_block_reads=ram_reads,
            counts={"dfs.block_reads": len(reads), "dfs.ram_block_reads": ram_reads},
            extras=extras,
            errors=errors,
        )
        return outcome, (blocks, hot_paths, ram_hits)

    async def _audit(self, transport, written, outcome: Outcome) -> None:
        """After the timed phases: every replica on disk intact, every
        hot block resident in RAM on one node, with equal bytes."""
        blocks, hot_paths, ram_hits = written
        errors = outcome.errors
        migrated = []
        for placement, data in blocks:
            for node in placement.nodes:
                outcome.attempted += 1
                reply = await transport.request(
                    f"datanode/{node}", BlockReadRequest(placement.block_id, prefer_tier="disk")
                )
                if not reply.ok or reply.data != data:
                    errors.append(f"replica of {placement.block_id} on {node} lost")
                probe = await transport.request(
                    f"datanode/{node}", BlockReadRequest(placement.block_id, prefer_tier="mem")
                )
                if probe.ok:
                    if probe.data != data:
                        errors.append(f"RAM copy of {placement.block_id} on {node} corrupt")
                    migrated.append((placement.block_id, node))
        hot_blocks = sum(1 for placement, _ in blocks if placement.block_id.startswith(hot_paths))
        if len(migrated) != hot_blocks:
            errors.append(f"{len(migrated)} RAM copies for {hot_blocks} hot blocks")
        outcome.failed = len(errors)
        # Wall-clock latencies never repeat; the fingerprint is the part
        # of the run the seed fixes.
        outcome.fingerprint = (
            len(blocks), outcome.block_reads, outcome.ram_block_reads, len(migrated)
        )
        outcome.counts["core.migrations"] = len(migrated)
        outcome.counts["core.migrated_gb"] = len(migrated) * BLOCK_SIZE / GB
        useful = sum(1 for key in migrated if key in ram_hits)
        share = useful / len(migrated) if migrated else 0.0
        outcome.extras["core.useful_migration_share"] = (share, "share")


WORKLOADS = {cls.name: cls for cls in (Swim, Scale, Serve, Real)}
