"""AsyncioTransport under malformed frames, driven from raw sockets.

A frame that cannot be framed costs exactly one connection: the
endpoint keeps serving, the caller's pending requests fail with
``NetworkError``, and no exception reaches the event loop's exception
handler (which is where an escaped connection-task error would land).
"""

import asyncio
import gc
import json

import pytest

from repro.transport.aio import MAX_FRAME, AsyncioTransport
from repro.transport.base import NetworkError
from repro.transport.messages import (
    FRAME_PREFIX,
    PROTOCOL_VERSION,
    Ack,
    LocationsReply,
    LocationsRequest,
    decode_body,
    decode_header,
    encode_frame,
)


def _run(scenario):
    """Run ``scenario()`` on a fresh loop whose exception handler records
    every report; returns (result, reports)."""
    reports = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reports.append(context)
        )
        return await scenario()

    result = asyncio.run(main())
    gc.collect()  # flush any "exception was never retrieved" report
    return result, reports


def _raw_frame(envelope, payload=b""):
    header = json.dumps(envelope).encode("utf-8")
    return FRAME_PREFIX.pack(len(header), len(payload)) + header + payload


async def _read_raw_frame(reader):
    header_len, payload_len = FRAME_PREFIX.unpack(
        await reader.readexactly(FRAME_PREFIX.size)
    )
    envelope = decode_header(await reader.readexactly(header_len))
    return envelope, await reader.readexactly(payload_len)


async def _hung_up_on(address, data) -> bytes:
    """Send ``data`` on a new raw connection; returns what the server
    sent back before it closed the connection."""
    reader, writer = await asyncio.open_connection(*address)
    writer.write(data)
    try:
        return await asyncio.wait_for(reader.read(), 5.0)
    finally:
        writer.close()


def _locations(msg):
    return LocationsReply(nodes=(msg.block_id,))


@pytest.mark.parametrize(
    "bad",
    [
        FRAME_PREFIX.pack(MAX_FRAME, 1),  # oversized: rejected before reading
        FRAME_PREFIX.pack(5, 0) + b"nojsn",  # header is not JSON
        FRAME_PREFIX.pack(4, 0) + b"\xff\xfe\xfd\xfc",  # nor UTF-8
        _raw_frame([PROTOCOL_VERSION]),  # JSON, but not an object
        FRAME_PREFIX.pack(200_000, 0) + b"[" * 100_000 + b"]" * 100_000,
    ],
    ids=["oversized", "non-json", "non-utf8", "non-object", "too-deep"],
)
def test_unframeable_request_closes_only_its_connection(bad):
    async def scenario():
        transport = AsyncioTransport()
        address = await transport.serve("svc", _locations)
        try:
            # The caller's own connection is up before the bad one arrives.
            first = await transport.request("svc", LocationsRequest("a"))
            eof = await _hung_up_on(address, bad)
            again = await transport.request("svc", LocationsRequest("b"))
        finally:
            await transport.close()
        return first, eof, again

    (first, eof, again), reports = _run(scenario)
    assert eof == b""  # the server hung up on the bad connection
    assert first == LocationsReply(nodes=("a",))
    assert again == LocationsReply(nodes=("b",))
    assert reports == []


@pytest.mark.parametrize(
    "ref, payload, error",
    [
        ([0, 9], b"abc", "outside the payload section"),
        ([0, 2], b"abc", "no field references"),
    ],
)
def test_bad_payload_reference_gets_an_error_reply(ref, payload, error):
    """A well-framed request whose body does not decode is answered with
    an error; the connection stays in step and serves the next frame."""
    bad = _raw_frame(
        {
            "v": PROTOCOL_VERSION,
            "mid": 1,
            "rsvp": True,
            "kind": "BlockWriteRequest",
            "body": {
                "block_id": "b",
                "path": "/p",
                "index": 0,
                "data": {"__b__": ref},
                "pipeline": [],
            },
        },
        payload,
    )
    good = b"".join(encode_frame(LocationsRequest("c"), mid=2, rsvp=True))

    async def scenario():
        transport = AsyncioTransport()
        address = await transport.serve("svc", _locations)
        try:
            reader, writer = await asyncio.open_connection(*address)
            writer.write(bad + good)  # back to back in one segment
            envelope, _ = await asyncio.wait_for(_read_raw_frame(reader), 5.0)
            next_envelope, next_payload = await asyncio.wait_for(
                _read_raw_frame(reader), 5.0
            )
            writer.close()
        finally:
            await transport.close()
        return envelope, decode_body(next_envelope, next_payload), next_envelope

    (envelope, reply, next_envelope), reports = _run(scenario)
    assert envelope["re"] == 1 and error in envelope["err"]
    assert next_envelope["re"] == 2
    assert reply == LocationsReply(nodes=("c",))
    assert reports == []


def test_bad_reply_fails_pending_requests_and_reconnects():
    """The caller side: an unframeable reply fails every request pending
    on that connection; a well-framed but undecodable reply fails just
    its own request; a reply carrying an unhashable id is skipped; the
    next request reconnects and succeeds."""
    actions = ["ack", "garbage", "badref", "odd-id"]

    async def fake_server(reader, writer):
        try:
            while True:
                envelope, _ = await _read_raw_frame(reader)
                action = actions.pop(0)
                mid = envelope["mid"]
                if action == "garbage":
                    writer.write(FRAME_PREFIX.pack(MAX_FRAME + 1, 0))
                    await writer.drain()
                    return
                if action == "badref":
                    writer.write(
                        _raw_frame(
                            {
                                "v": PROTOCOL_VERSION,
                                "re": mid,
                                "kind": "Ack",
                                "body": {"ok": {"__b__": [0, 5]}},
                            }
                        )
                    )
                else:
                    if action == "odd-id":
                        writer.write(b"".join(encode_frame(Ack(False), re=[mid])))
                    writer.write(b"".join(encode_frame(Ack(True), re=mid)))
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    async def scenario():
        server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
        transport = AsyncioTransport()
        # Point the directory at the hand-written server.
        transport._directory["fake"] = server.sockets[0].getsockname()[:2]
        outcomes = []
        try:
            outcomes.append(await transport.request("fake", Ack()))
            outcomes.extend(
                await asyncio.gather(
                    transport.request("fake", Ack()),
                    transport.request("fake", Ack()),
                    return_exceptions=True,
                )
            )
            for _ in range(2):
                try:
                    outcomes.append(await transport.request("fake", Ack()))
                except NetworkError as exc:
                    outcomes.append(exc)
        finally:
            await transport.close()
            server.close()
            await server.wait_closed()
        # Keep no exception (its traceback would keep the dropped
        # connection's task alive past the garbage collection in _run).
        return [
            (type(o).__name__, str(o)) if isinstance(o, Exception) else o
            for o in outcomes
        ]

    outcomes, reports = _run(scenario)
    warmup, lost_a, lost_b, bad_reply, recovered = outcomes
    assert warmup == Ack(True)
    assert lost_a[0] == lost_b[0] == NetworkError.__name__
    assert "lost" in lost_a[1] and "lost" in lost_b[1]
    assert bad_reply[0] == NetworkError.__name__ and "bad reply" in bad_reply[1]
    assert recovered == Ack(True)
    assert reports == []
