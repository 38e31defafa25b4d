"""The asyncio mini-cluster end-to-end (real sockets, no simulator).

Small configs keep this in CI-smoke territory: three DataNodes, a few
multi-block files, enough reads per phase to exercise the Zipf head.
"""

import asyncio

import pytest

from repro.transport.aio import AsyncioTransport
from repro.transport.messages import (
    BlockReadReply,
    BlockReadRequest,
    BlockWriteRequest,
    CreateFileRequest,
    LocationsReply,
    LocationsRequest,
)
from repro.transport.real import (
    BLOCK_SIZE,
    DataNodeService,
    NameNodeService,
    block_payload,
    run_real_demo,
)


class TestRealDemo:
    def test_demo_completes_with_migration_benefit(self):
        result = run_real_demo(nodes=3, files=4, reads=30, seed=0)
        assert result.ok, result.errors
        assert result.blocks_lost == 0
        assert result.nodes == 3 and result.files == 4
        assert result.blocks == result.files * 2
        # Phase 1 runs all-disk; the migration moves the hot half up.
        assert result.phase1_ram_reads == 0
        assert result.phase2_ram_reads > 0

    def test_demo_is_reproducible_in_shape(self):
        first = run_real_demo(nodes=3, files=3, reads=20, seed=7)
        second = run_real_demo(nodes=3, files=3, reads=20, seed=7)
        # Wall-clock latencies differ; placement and routing must not.
        assert first.ok and second.ok
        assert first.blocks == second.blocks
        assert first.phase2_ram_reads == second.phase2_ram_reads

    def test_replication_pipeline_observed(self):
        result = run_real_demo(nodes=4, files=3, reads=12, seed=1)
        assert result.ok, result.errors
        # Replication 2: every block write crosses one store-and-forward
        # hop, counted on whichever node forwarded it.
        assert sum(result.pipeline_depth) == result.blocks

    def test_summary_mentions_slo_stats(self):
        result = run_real_demo(nodes=3, files=3, reads=16, seed=3)
        text = result.summary()
        assert "p99" in text and "ram_reads" in text
        payload = result.to_dict()
        assert payload["blocks_lost"] == 0
        assert payload["phase2"]["ram_reads"] == result.phase2_ram_reads

    def test_fewer_than_three_nodes_rejected(self):
        with pytest.raises(ValueError, match="3"):
            run_real_demo(nodes=2)


class TestDataNodeStop:
    def test_stop_returns_while_heartbeats_are_in_flight(self):
        """A stop whose cancel lands in the same loop turn as a heartbeat
        reply must still end the heartbeat loop (20 cycles at a zero
        interval, each stop within 1 s)."""

        async def cycles():
            hung = []
            for cycle in range(20):
                transport = AsyncioTransport()
                await NameNodeService(transport, ("node0",)).start()
                datanode = DataNodeService("node0", transport)
                await datanode.start(heartbeat_interval=0)
                await asyncio.sleep(0.01)
                stopping = asyncio.ensure_future(datanode.stop())
                done, _ = await asyncio.wait([stopping], timeout=1.0)
                if not done:
                    hung.append(cycle)
                    for _ in range(50):
                        stopping.cancel()
                        done, _ = await asyncio.wait([stopping], timeout=0.2)
                        if done:
                            break
                await transport.close()
            return hung

        assert asyncio.run(cycles()) == []


class TestBlockPayload:
    def test_payload_is_deterministic(self):
        assert block_payload("blk-1", 64) == block_payload("blk-1", 64)
        assert block_payload("blk-1", 64) != block_payload("blk-2", 64)

    def test_payload_length_matches(self):
        for nbytes in (1, 31, 32, 33, 1000):
            assert len(block_payload("b", nbytes)) == nbytes


class TestFrameBoundaries:
    def test_large_and_small_frames_share_connections(self):
        """Two 256 KB blocks go down a 3-DataNode pipeline; then 50
        concurrent requests share the multiplexed connections: reads from
        every holder interleaved with location lookups.  Each reply must
        be the one for its request (a reply routed to the wrong ``mid``
        shows up as the wrong type or the wrong block) and each read must
        return the exact bytes written."""
        nodes = ("node0", "node1", "node2")

        async def scenario():
            transport = AsyncioTransport()
            await NameNodeService(transport, nodes, replication=3).start()
            datanodes = [DataNodeService(name, transport) for name in nodes]
            for datanode in datanodes:
                await datanode.start(heartbeat_interval=60.0)
            try:
                created = await transport.request(
                    "namenode", CreateFileRequest("/f", float(2 * BLOCK_SIZE))
                )
                written = {}
                for placement in created.blocks:
                    data = block_payload(placement.block_id, BLOCK_SIZE)
                    head, *rest = placement.nodes
                    reply = await transport.request(
                        f"datanode/{head}",
                        BlockWriteRequest(
                            block_id=placement.block_id,
                            path="/f",
                            index=placement.index,
                            data=data,
                            pipeline=tuple(rest),
                        ),
                    )
                    assert sorted(reply.stored) == sorted(nodes)
                    written[placement.block_id] = data
                block_ids = sorted(written) + ["/f#ghost"]
                requests = []
                for i in range(50):
                    block_id = block_ids[i % len(block_ids)]
                    if i % 2:
                        requests.append(("namenode", LocationsRequest(block_id)))
                    else:
                        node = nodes[(i // 2) % len(nodes)]
                        requests.append(
                            (f"datanode/{node}", BlockReadRequest(block_id))
                        )
                replies = await asyncio.gather(
                    *(transport.request(endpoint, msg) for endpoint, msg in requests)
                )
            finally:
                for datanode in datanodes:
                    await datanode.stop()
                await transport.close()
            return written, requests, replies

        written, requests, replies = asyncio.run(scenario())
        assert len(replies) == 50
        for (_, request), reply in zip(requests, replies):
            data = written.get(request.block_id)
            if isinstance(request, LocationsRequest):
                assert isinstance(reply, LocationsReply)
                assert sorted(reply.nodes) == (sorted(nodes) if data else [])
            else:
                assert isinstance(reply, BlockReadReply)
                assert reply.ok == (data is not None)
                assert reply.data == (data or b"")
