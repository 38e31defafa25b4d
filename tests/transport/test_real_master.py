"""The master core and its asyncio driver.

``MasterCore`` is driven directly with a plain holders map (no env, no
NameNode, no transport); ``MasterService`` is driven over real sockets
against a small localhost cluster, for each of the four client
requests.
"""

import asyncio
import random

import pytest

from repro.core.config import IgnemConfig
from repro.core.master import MasterCore
from repro.dfs.blocks import Block
from repro.net import NetworkError
from repro.sim.rand import RandomSource
from repro.transport.aio import AsyncioTransport
from repro.transport.messages import (
    BlockWriteRequest,
    CreateFileRequest,
    DemoteBlocksRequest,
    EvictFilesRequest,
    MigrateFilesRequest,
    PromoteBlocksRequest,
)
from repro.transport.real import (
    DataNodeService,
    MasterService,
    NameNodeService,
    block_payload,
)

BLOCK = 4096


def _blocks(*ids):
    return [Block(block_id, "/f", i, 10.0) for i, block_id in enumerate(ids)]


class TestMasterCore:
    HOLDERS = {"b0": ["n2", "n0", "n1"], "b1": [], "b2": ["n1"], "b3": ["n0", "n2"]}

    def _migrate(self, core, owner="j1", blocks=None):
        blocks = blocks or _blocks("b0", "b1", "b2", "b3")
        return core.migrate(
            owner,
            [(block, self.HOLDERS[block.block_id]) for block in blocks],
            job_input_bytes=40.0,
            submitted_at=5.0,
            implicit_eviction=True,
        )

    def test_one_sampled_replica_per_block(self):
        core = MasterCore(RandomSource(0), IgnemConfig())
        commands = self._migrate(core)
        # The draws are one ``sample(sorted(usable), 1)`` per block with
        # holders, in read order; a block without holders draws nothing.
        rng = random.Random(0)
        expected = {
            block_id: rng.sample(sorted(self.HOLDERS[block_id]), 1)[0]
            for block_id in ("b0", "b2", "b3")
        }
        placed = {
            item.block_id: node
            for node, command in commands.items()
            for item in command.items
        }
        assert placed == expected
        items = sorted(
            (item for command in commands.values() for item in command.items),
            key=lambda item: item.order_hint,
        )
        assert [item.order_hint for item in items] == [0, 1, 2]
        assert all(command.job_id == "j1" for command in commands.values())
        assert all(
            item.job_input_bytes == 40.0
            and item.job_submitted_at == 5.0
            and item.implicit_eviction
            and item.dst_tier == "mem"
            for item in items
        )

    def test_duplicate_request_reuses_choice_and_eviction_follows_it(self):
        core = MasterCore(RandomSource(0), IgnemConfig())
        first = self._migrate(core)
        state = core.rng.py.getstate()
        again = self._migrate(core)
        assert core.rng.py.getstate() == state  # no fresh draw
        assert {n: [i.block_id for i in c.items] for n, c in first.items()} == {
            n: [i.block_id for i in c.items] for n, c in again.items()
        }
        evictions = core.evict("j1", ["b0", "b1", "b2", "b3"])
        assert {
            node: set(command.block_ids) for node, command in evictions.items()
        } == {node: {i.block_id for i in c.items} for node, c in first.items()}
        assert core.assignments == {}
        assert core.evict("j1", ["b0"]) == {}

    def test_owners_are_routed_separately(self):
        core = MasterCore(RandomSource(0), IgnemConfig())
        self._migrate(core, owner="j1")
        self._migrate(core, owner="j2")
        core.evict("j1", ["b0", "b2", "b3"])
        assert {key[0] for key in core.assignments} == {"j2"}

    def test_replicas_to_migrate_picks_several_holders(self):
        core = MasterCore(RandomSource(0), IgnemConfig(replicas_to_migrate=2))
        commands = self._migrate(core)
        counts = {}
        for command in commands.values():
            for item in command.items:
                counts[item.block_id] = counts.get(item.block_id, 0) + 1
        assert counts == {"b0": 2, "b2": 1, "b3": 2}

    def test_unknown_destination_rejected_before_any_choice(self):
        core = MasterCore(RandomSource(0), IgnemConfig())
        with pytest.raises(ValueError, match="migration destination"):
            core.migrate("j1", [(_blocks("b0")[0], ["n0"])], 1.0, 0.0, dst_tier="hdd")
        assert core.assignments == {}

    def test_forget_node_and_reset(self):
        core = MasterCore(RandomSource(0), IgnemConfig())
        self._migrate(core)
        chosen = dict(core.assignments)
        node = chosen[("j1", "b2")][0]  # b2's only holder
        core.forget_node(node)
        assert all(node not in nodes for nodes in core.assignments.values())
        assert ("j1", "b2") not in core.assignments
        core.reset()
        assert core.assignments == {}

    def test_reroute_moves_work_or_abandons_it(self):
        core = MasterCore(RandomSource(0), IgnemConfig())
        commands = self._migrate(core)
        failed, command = next(iter(commands.items()))
        usable = [
            [n for n in self.HOLDERS[item.block_id] if n != failed]
            for item in command.items
        ]
        rerouted, abandoned = core.reroute(command, failed, usable)
        assert abandoned == sum(1 for holders in usable if not holders)
        moved = {
            item.block_id: node
            for node, batch in rerouted.items()
            for item in batch.items
        }
        for item, holders in zip(command.items, usable):
            key = ("j1", item.block_id)
            if holders:
                assert moved[item.block_id] in holders
                assert core.assignments[key] == (moved[item.block_id],)
            else:
                assert key not in core.assignments


async def _with_cluster(scenario, files=2):
    """Boot a NameNode, the master and three DataNodes, write ``files``
    two-block files, then run ``scenario(transport, datanodes, placements)``."""
    transport = AsyncioTransport(reply_timeout=10.0)
    names = ("node0", "node1", "node2")
    await NameNodeService(transport, names, block_size=BLOCK).start()
    await MasterService(transport, seed=0).start()
    datanodes = {name: DataNodeService(name, transport) for name in names}
    try:
        for datanode in datanodes.values():
            await datanode.start()
        placements = {}
        for i in range(files):
            path = f"/t/file-{i}"
            created = await transport.request(
                "namenode", CreateFileRequest(path, float(BLOCK * 2))
            )
            for p in created.blocks:
                await transport.request(
                    f"datanode/{p.nodes[0]}",
                    BlockWriteRequest(
                        block_id=p.block_id,
                        path=path,
                        index=p.index,
                        data=block_payload(p.block_id, int(p.nbytes)),
                        pipeline=p.nodes[1:],
                    ),
                )
            placements[path] = created.blocks
        return await scenario(transport, datanodes, placements)
    finally:
        for datanode in datanodes.values():
            await datanode.stop()
        await transport.close()


def _ram_holders(datanodes, block_id):
    return [name for name, dn in datanodes.items() if block_id in dn.tiers["mem"]]


class TestMasterService:
    @staticmethod
    async def _promote_first_file(transport, placements):
        hot = placements["/t/file-0"]
        blocks = tuple(
            Block(p.block_id, "/t/file-0", p.index, p.nbytes) for p in hot
        )
        await transport.request("master", PromoteBlocksRequest(blocks, owner="heat"))
        return hot

    def test_promote_puts_named_blocks_in_ram_on_one_holder(self):
        async def scenario(transport, datanodes, placements):
            for p in await self._promote_first_file(transport, placements):
                holders = _ram_holders(datanodes, p.block_id)
                assert len(holders) == 1 and holders[0] in p.nodes
            for p in placements["/t/file-1"]:
                assert _ram_holders(datanodes, p.block_id) == []

        asyncio.run(_with_cluster(scenario))

    def test_demote_removes_promoted_blocks(self):
        async def scenario(transport, datanodes, placements):
            hot = await self._promote_first_file(transport, placements)
            assert all(_ram_holders(datanodes, p.block_id) for p in hot)
            await transport.request(
                "master",
                DemoteBlocksRequest(tuple(p.block_id for p in hot), owner="heat"),
            )
            for p in hot:
                assert _ram_holders(datanodes, p.block_id) == []

        asyncio.run(_with_cluster(scenario))

    def test_repeated_migrate_reuses_choice_so_one_evict_clears_ram(self):
        async def scenario(transport, datanodes, placements):
            paths = tuple(placements)
            for _ in range(3):
                await transport.request(
                    "master", MigrateFilesRequest(paths, job_id="job")
                )
            blocks = [p for path in paths for p in placements[path]]
            for p in blocks:
                assert len(_ram_holders(datanodes, p.block_id)) == 1
            await transport.request(
                "master", EvictFilesRequest(paths, job_id="job")
            )
            for p in blocks:
                assert _ram_holders(datanodes, p.block_id) == []

        asyncio.run(_with_cluster(scenario, files=3))

    def test_unknown_destination_tier_is_an_error_reply(self):
        async def scenario(transport, datanodes, placements):
            with pytest.raises(NetworkError, match="migration destination"):
                await transport.request(
                    "master",
                    MigrateFilesRequest(
                        tuple(placements), job_id="job", dst_tier="disk"
                    ),
                )
            for path, blocks in placements.items():
                for p in blocks:
                    assert _ram_holders(datanodes, p.block_id) == []

        asyncio.run(_with_cluster(scenario))
