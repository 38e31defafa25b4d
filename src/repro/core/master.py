"""The Ignem master: determines *what* migrates, hosted in the NameNode.

Clients (job submitters) send the master the list of files a job will
soon read.  The master maps files to blocks via the NameNode, picks ONE
replica per block uniformly at random (paper III-A2 — network bandwidth
is plentiful, so one in-memory copy suffices), and ships per-slave
command batches.  The decisions live in :class:`MasterCore`, which does
no I/O (the Sans-I/O pattern); :class:`IgnemMaster` drives it in the
simulator and :class:`~repro.transport.real.MasterService` over asyncio.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional
from typing import Sequence, Tuple

from ..dfs.blocks import Block
from ..dfs.namenode import NameNode
from ..metrics.collector import MetricsCollector
from ..obs.registry import MetricsRegistry
from ..net.network import NetworkError
from ..sim.engine import Environment
from ..sim.rand import RandomSource
from ..transport.messages import (
    Ack,
    DemoteBlocksRequest,
    EvictFilesRequest,
    EvictMsg,
    FailoverMsg,
    MigrateFilesRequest,
    MigrateMsg,
    PromoteBlocksRequest,
)
from .commands import EvictCommand, MigrateCommand, MigrationWorkItem
from .config import IgnemConfig
from .slave import IgnemSlave


def dispatch_master_message(master, msg):
    """Shared ``"master"`` endpoint dispatch: translate a client-facing
    protocol message into the corresponding request method.  Used by
    both :class:`IgnemMaster` and the HA pair (which routes each request
    to its active member)."""
    if isinstance(msg, MigrateFilesRequest):
        master.request_migration(
            msg.paths,
            msg.job_id,
            implicit_eviction=msg.implicit_eviction,
            dst_tier=msg.dst_tier,
        )
        return Ack(True)
    if isinstance(msg, EvictFilesRequest):
        master.request_eviction(msg.paths, msg.job_id)
        return Ack(True)
    if isinstance(msg, PromoteBlocksRequest):
        master.request_block_migration(
            msg.blocks, msg.owner, dst_tier=msg.dst_tier
        )
        return Ack(True)
    if isinstance(msg, DemoteBlocksRequest):
        master.request_block_eviction(msg.block_ids, msg.owner)
        return Ack(True)
    raise TypeError(f"master cannot handle {type(msg).__name__}")


class MasterCore:
    """The master's decisions, with no clock, NameNode or transport.

    Every request names an *owner*: a job id on the hint path, or a
    heat policy's pseudo job for block promotions.  :meth:`migrate`
    picks the replicas to migrate and remembers them per
    ``(owner, block_id)``; :meth:`evict` routes an owner's eviction to
    exactly those nodes.  Both return one command per node, in the
    order the nodes were first chosen.
    """

    def __init__(self, rng: RandomSource, config: IgnemConfig):
        self.rng = rng
        self.config = config
        #: (owner, block_id) -> nodes chosen for its migration, so
        #: eviction commands go exactly where the block went.
        self.assignments: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    def migrate(
        self,
        owner: str,
        placements: Iterable[Tuple[Block, Sequence[str]]],
        job_input_bytes: float,
        submitted_at: float,
        implicit_eviction: bool = False,
        dst_tier: Optional[str] = None,
    ) -> Dict[str, MigrateCommand]:
        """Choose replicas for ``placements`` — ``(block, usable
        holders)`` pairs in the job's read order — and batch the work.

        ``dst_tier`` names the tier the blocks should land in; ``None``
        uses the configured default (``mem`` — the paper's design).
        """
        config = self.config
        if dst_tier is None:
            dst_tier = config.migration_tier
        elif dst_tier not in config.destination_tiers():
            raise ValueError(
                f"{dst_tier!r} is not a configured migration destination "
                f"(destinations: {', '.join(config.destination_tiers())})"
            )
        replicas = config.replicas_to_migrate
        sample = self.rng.sample
        assignments = self.assignments
        batches: Dict[str, List[MigrationWorkItem]] = {}
        order_hint = 0
        for block, usable in placements:
            if not usable:
                continue
            key = (owner, block.block_id)
            # A duplicate request (client retry) must reuse the earlier
            # replica choice, or the eviction would only reach the
            # latest choice and leak the first.
            chosen = [
                node for node in assignments.get(key, ()) if node in usable
            ] or sample(sorted(usable), min(replicas, len(usable)))
            assignments[key] = tuple(chosen)
            for node in chosen:
                batches.setdefault(node, []).append(
                    MigrationWorkItem(
                        block=block,
                        job_id=owner,
                        job_input_bytes=job_input_bytes,
                        job_submitted_at=submitted_at,
                        implicit_eviction=implicit_eviction,
                        order_hint=order_hint,
                        dst_tier=dst_tier,
                    )
                )
            order_hint += 1
        return {n: MigrateCommand(owner, tuple(v)) for n, v in batches.items()}

    def evict(
        self, owner: str, block_ids: Iterable[str]
    ) -> Dict[str, EvictCommand]:
        """Route ``owner``'s eviction of ``block_ids`` to the nodes its
        migration chose, forgetting the choice."""
        pop = self.assignments.pop
        batches: Dict[str, List[str]] = {}
        for block_id in block_ids:
            for node in pop((owner, block_id), ()):
                batches.setdefault(node, []).append(block_id)
        return {n: EvictCommand(owner, tuple(v)) for n, v in batches.items()}

    def reroute(
        self,
        command: MigrateCommand,
        failed_node: str,
        usable: Iterable[Sequence[str]],
    ) -> Tuple[Dict[str, MigrateCommand], int]:
        """Re-route the items of a command ``failed_node`` never
        accepted (III-A5): each item moves to one random holder from
        its entry in ``usable``.  Returns the new batches and how many
        items had no holder left and were abandoned."""
        owner = command.job_id
        batches: Dict[str, List[MigrationWorkItem]] = {}
        abandoned = 0
        for item, holders in zip(command.items, usable):
            key = (owner, item.block_id)
            kept = tuple(
                n for n in self.assignments.get(key, ()) if n != failed_node
            )
            if holders:
                chosen = self.rng.choice(sorted(holders))
                # Another replica of this block may already be migrating.
                if chosen not in kept:
                    kept += (chosen,)
                    batches.setdefault(chosen, []).append(item)
            else:
                # Crash-safe abandonment: the job reads from disk instead.
                abandoned += 1
            self._assign(key, kept)
        commands = {n: MigrateCommand(owner, tuple(v)) for n, v in batches.items()}
        return commands, abandoned

    def forget_node(self, node: str) -> None:
        """Drop ``node`` from every choice: its slave lost its state."""
        for key, nodes in list(self.assignments.items()):
            if node in nodes:
                self._assign(key, tuple(n for n in nodes if n != node))

    def reset(self) -> None:
        """Forget every choice: the master process died."""
        self.assignments.clear()

    def _assign(self, key: Tuple[str, str], nodes: Tuple[str, ...]) -> None:
        if nodes:
            self.assignments[key] = nodes
        else:
            self.assignments.pop(key, None)


class IgnemMaster:
    """The migration coordinator: :class:`MasterCore`'s simulator driver.

    It looks replica holders up in the NameNode and ships the core's
    batches as acknowledged RPCs with retry and re-routing.  RPC and
    workload tallies live in a :class:`MetricsRegistry` under
    ``ignem.master.*`` (shared with the rest of the cluster when built
    through :class:`~repro.cluster.Cluster`), read via
    ``master.metrics.value("ignem.master.<event>")``.
    """

    def __init__(
        self,
        env: Environment,
        namenode: NameNode,
        rng: Optional[RandomSource] = None,
        config: Optional[IgnemConfig] = None,
        collector: Optional[MetricsCollector] = None,
        registry: Optional[MetricsRegistry] = None,
        transport=None,
    ):
        self.env = env
        self.namenode = namenode
        self.config = config or IgnemConfig()
        self.core = MasterCore(rng or RandomSource(0), self.config)
        self.collector = collector or MetricsCollector()
        self.metrics = registry or MetricsRegistry()
        #: Message transport carrying master→slave commands.  ``None``
        #: falls back to direct method calls (standalone masters in
        #: tests); cluster-built masters always ship commands through
        #: the transport's ``slave/<node>`` endpoints.
        self.transport = transport
        self.alive = True

        self._slaves: Dict[str, IgnemSlave] = {}
        #: Fault hook (set by the fault injector): called with the target
        #: node per delivery attempt; returning ``"lost"`` drops that
        #: attempt.  ``None`` is the zero-overhead clean path.
        self.rpc_fault: Optional[Callable[[str], Optional[str]]] = None
        #: Command-boundary tap (set by the DST differential checker):
        #: called as ``tap(node, kind, command, slave)`` after every
        #: *accepted* delivery, i.e. at the exact boundary where the
        #: slave's synchronous state change (reference-list update, queue
        #: insert) has just happened.  ``None`` is the clean path.
        self.command_tap: Optional[Callable] = None
        #: Slave-state-loss tap (set by the DST differential checker):
        #: called as ``tap(node)`` whenever the master forgets a slave's
        #: routing state (crash, decommission, cold-restart purge) — the
        #: boundary where a later duplicate migrate may legitimately pick
        #: a fresh replica.  ``None`` is the clean path.
        self.failure_tap: Optional[Callable] = None
        #: Observability facade; ``None`` is the zero-overhead clean path.
        self.obs = None

        # The registry counters are shared instruments: an HA pair
        # reporting into one registry naturally sums into cluster-wide
        # totals.
        metrics = self.metrics
        self._c_migration_requests = metrics.counter(
            "ignem.master.migration_requests"
        )
        self._c_eviction_requests = metrics.counter(
            "ignem.master.eviction_requests"
        )
        self._c_promotion_requests = metrics.counter(
            "ignem.master.promotion_requests"
        )
        self._c_demotion_requests = metrics.counter(
            "ignem.master.demotion_requests"
        )
        self._c_sent = metrics.counter("ignem.master.commands_sent")
        self._c_retries = metrics.counter("ignem.master.command_retries")
        self._c_rerouted = metrics.counter("ignem.master.commands_rerouted")
        self._c_abandoned = metrics.counter("ignem.master.commands_abandoned")

    # -- topology -----------------------------------------------------------------

    def attach_slave(self, slave: IgnemSlave) -> None:
        if slave.name in self._slaves:
            raise ValueError(f"duplicate slave {slave.name!r}")
        self._slaves[slave.name] = slave

    def slaves(self) -> List[IgnemSlave]:
        return list(self._slaves.values())

    # -- client API -----------------------------------------------------------------

    def request_migration(
        self,
        paths: Sequence[str],
        job_id: str,
        implicit_eviction: bool = False,
        dst_tier: Optional[str] = None,
    ) -> None:
        """Handle a job submitter's migrate call.

        Requests to a dead master are lost (the client retries against
        the replacement master in a real deployment; the paper accepts
        the temporary performance loss, III-A5).
        """
        if not self.alive:
            return
        namenode = self.namenode
        commands = self.core.migrate(
            job_id,
            self._holders(
                [block for path in paths for block in namenode.file_blocks(path)]
            ),
            job_input_bytes=namenode.total_bytes(paths),
            submitted_at=self.env.now,
            implicit_eviction=implicit_eviction,
            dst_tier=dst_tier,
        )
        self._c_migration_requests.inc()
        self._ship("migrate", commands)

    def request_block_migration(
        self,
        blocks: Sequence[Block],
        owner: str,
        dst_tier: Optional[str] = None,
    ) -> None:
        """Hint-free promotion path: migrate specific hot blocks for the
        popularity policy's pseudo job id ``owner``.  Past the holder
        lookup it is the hint path, so the differential model and fault
        machinery see ordinary commands."""
        if not self.alive:
            return
        is_block = self.namenode.is_block
        commands = self.core.migrate(
            owner,
            # Skip blocks whose file was deleted since the heat sample.
            self._holders([b for b in blocks if is_block(b.block_id)]),
            # The promotion wave is priced like one small job: policies
            # that favor small inputs treat a batch of hot blocks as a unit.
            job_input_bytes=sum(block.nbytes for block in blocks),
            submitted_at=self.env.now,
            dst_tier=dst_tier,
        )
        self._c_promotion_requests.inc()
        self._ship("migrate", commands)

    def request_block_eviction(
        self, block_ids: Sequence[str], owner: str
    ) -> None:
        """Demote specific blocks promoted under ``owner`` (cooled heat)."""
        if not self.alive:
            return
        self._c_demotion_requests.inc()
        self._ship("evict", self.core.evict(owner, block_ids))

    def request_eviction(self, paths: Sequence[str], job_id: str) -> None:
        """Handle a job submitter's evict call (job completed)."""
        if not self.alive:
            return
        self._c_eviction_requests.inc()
        namenode = self.namenode
        block_ids = [
            block.block_id
            for path in paths
            if namenode.exists(path)
            for block in namenode.file_blocks(path)
        ]
        self._ship("evict", self.core.evict(job_id, block_ids))

    def _holders(self, blocks: List[Block]) -> List[Tuple[Block, List[str]]]:
        """Pair each block with its live replica holders that run a slave."""
        locations = self.namenode.get_block_locations
        slaves = self._slaves
        return [
            (block, [n for n in locations(block.block_id) if n in slaves])
            for block in blocks
        ]

    def _ship(self, kind: str, commands: Dict[str, object]) -> None:
        for node, command in commands.items():
            self._send(node, kind, command)

    # -- failure handling -----------------------------------------------------------

    def fail(self) -> None:
        """The master process dies; in-flight state is gone."""
        self.alive = False
        self.core.reset()

    def restart(self) -> None:
        """A replacement master starts with empty state; slaves purge
        their reference lists to stay consistent with it (III-A5)."""
        self.alive = True
        for name, slave in self._slaves.items():
            if self.transport is not None:
                self.transport.send(
                    f"slave/{name}", FailoverMsg(generation=0, active="master")
                )
            else:
                slave.purge_all(reason="failure")
            if self.failure_tap is not None:
                self.failure_tap(name)

    def handle_slave_failure(self, node: str) -> None:
        """Forget routing state for a crashed slave: its queue and
        reference lists died with the process, so eviction commands must
        not target it and a duplicate migrate call may pick a fresh
        replica (crash-safe migration-queue abandonment)."""
        if self.failure_tap is not None:
            self.failure_tap(node)
        self.core.forget_node(node)

    # -- RPC ---------------------------------------------------------------------------

    def _send(
        self,
        node: str,
        kind: str,
        command,
        tried: FrozenSet[str] = frozenset(),
    ) -> None:
        """Ship one batched command with the configured RPC latency.

        Delivery is acknowledged: an unacked command (slave down or
        message lost) is retried with timeout + exponential backoff, and
        after ``command_max_retries`` the failure handler re-routes or
        abandons the work.  ``tried`` carries the nodes already attempted
        for this work so a re-route never bounces between dead slaves.
        """
        self._c_sent.inc()
        if self.obs is not None:
            self.obs.on_master_command("sent", node, kind, command.job_id)
        if self.config.rpc_latency <= 0 and self.rpc_fault is None:
            if not self._deliver(node, kind, command):
                self._command_failed(node, kind, command, tried)
            return
        self.env.process(self._rpc(node, kind, command, tried), name="ignem-rpc")

    def _deliver(self, node: str, kind: str, command) -> bool:
        slave = self._slaves[node]
        if self.transport is not None:
            # The command ships as a protocol message through the slave's
            # transport endpoint.  SimTransport delivers the original
            # command object synchronously, so ordering, acknowledgement
            # semantics, and the tap boundary are exactly the direct call.
            msg = MigrateMsg(command) if kind == "migrate" else EvictMsg(command)
            try:
                accepted = self.transport.request(f"slave/{node}", msg).ok
            except NetworkError:
                accepted = False
        elif kind == "migrate":
            accepted = slave.receive_migrate(command)
        else:
            accepted = slave.receive_evict(command)
        if accepted and self.command_tap is not None:
            self.command_tap(node, kind, command, slave)
        return accepted

    def handle_message(self, msg):
        """The ``"master"`` transport endpoint (client-facing requests)."""
        return dispatch_master_message(self, msg)

    def _rpc(self, node: str, kind: str, command, tried: FrozenSet[str]):
        cfg = self.config
        latency = cfg.rpc_latency
        for attempt in range(cfg.command_max_retries + 1):
            lost = self.rpc_fault is not None and self.rpc_fault(node) == "lost"
            if latency > 0:
                yield self.env.timeout(latency)
            if not lost and self._deliver(node, kind, command):
                return
            if attempt >= cfg.command_max_retries:
                break
            self._c_retries.inc()
            if self.obs is not None:
                self.obs.on_master_command("retry", node, kind, command.job_id)
            yield self.env.timeout(
                cfg.command_timeout
                + cfg.command_backoff * cfg.command_backoff_factor ** attempt
            )
        self._command_failed(node, kind, command, tried)

    def _command_failed(
        self, node: str, kind: str, command, tried: FrozenSet[str]
    ) -> None:
        """All retries exhausted: the slave is down or unreachable."""
        if not self.alive:
            return
        tried = tried | {node}
        if kind == "evict":
            # The dead slave's restart purges its references anyway
            # (III-A5), so the eviction is moot — just drop it.
            self._c_abandoned.inc()
            if self.obs is not None:
                self.obs.on_master_command(
                    "abandoned", node, kind, command.job_id
                )
            return
        self._reroute_migration(node, command, tried)

    def _reroute_migration(
        self, failed_node: str, command, tried: FrozenSet[str]
    ) -> None:
        """Graceful degradation (III-A5): re-route each block's migration
        to another live replica holder; blocks with no live untried
        replica are abandoned and their routing state dropped."""
        locations = self.namenode.get_block_locations
        live = {n for n, slave in self._slaves.items() if slave.alive} - tried
        commands, abandoned = self.core.reroute(
            command,
            failed_node,
            ([n for n in locations(i.block_id) if n in live] for i in command.items),
        )
        for _ in range(abandoned):
            self._c_abandoned.inc()
            if self.obs is not None:
                self.obs.on_master_command(
                    "abandoned", failed_node, "migrate", command.job_id
                )
        for new_node, rerouted in commands.items():
            self._c_rerouted.inc()
            if self.obs is not None:
                self.obs.on_master_command(
                    "rerouted", new_node, "migrate", command.job_id
                )
            self._send(new_node, "migrate", rerouted, tried=tried)
