"""Property suite for the wire codec: every message type round-trips.

``decode(encode(msg)) == msg`` is the codec's whole contract — the
asyncio backend and the sim/real differential both lean on it.  The
strategies deliberately stress the awkward corners: unicode block ids
and paths, non-ASCII tenant labels, binary block payloads, empty
tuples, nested commands carrying explicit ``seq`` values.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commands import EvictCommand, MigrateCommand, MigrationWorkItem
from repro.dfs.blocks import Block
from repro.transport.messages import (
    FRAME_PREFIX,
    PROTOCOL_VERSION,
    Ack,
    BlockPlacement,
    BlockReadReply,
    BlockReadRequest,
    BlockWriteReply,
    BlockWriteRequest,
    CodecError,
    CreateFileReply,
    CreateFileRequest,
    DemoteBlocksRequest,
    EvictFilesRequest,
    EvictMsg,
    FailoverMsg,
    FileInfoReply,
    FileInfoRequest,
    HeartbeatMsg,
    LocationsReply,
    LocationsRequest,
    MESSAGE_TYPES,
    MigrateFilesRequest,
    MigrateMsg,
    PromoteBlocksRequest,
    ReplicaPipelineMsg,
    decode,
    encode,
)

# -- strategies --------------------------------------------------------------------

#: Identifiers exercise the full unicode plane minus surrogates (JSON
#: cannot carry lone surrogates).
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=24,
)
_tiers = st.sampled_from(["mem", "ssd", "hdd", "disk", "память"])
_tenants = st.one_of(st.just("default"), _text)
_sizes = st.floats(min_value=0.0, max_value=1e15, allow_nan=False)
_times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
_names = st.lists(_text, max_size=4).map(tuple)
_payloads = st.binary(max_size=256)


@st.composite
def blocks(draw):
    return Block(
        block_id=draw(_text),
        path="/" + draw(_text),
        index=draw(st.integers(0, 64)),
        nbytes=draw(_sizes),
    )


@st.composite
def work_items(draw):
    # seq passed explicitly: drawing from the strategy must never
    # consume the global sequence counter (same rule as the decoder).
    return MigrationWorkItem(
        block=draw(blocks()),
        job_id=draw(_text),
        job_input_bytes=draw(_sizes),
        job_submitted_at=draw(_times),
        implicit_eviction=draw(st.booleans()),
        order_hint=draw(st.integers(0, 1000)),
        dst_tier=draw(_tiers),
        src_tier=draw(st.none() | _tiers),
        seq=draw(st.integers(0, 10**9)),
        received_at=draw(_times),
    )


def _placements():
    return st.builds(
        BlockPlacement,
        block_id=_text,
        index=st.integers(0, 64),
        nbytes=_sizes,
        nodes=_names,
    )


#: One strategy per message type; the suite fails if a new message type
#: is added without one (see test_every_message_type_covered).
MESSAGE_STRATEGIES = {
    Ack: st.builds(Ack, ok=st.booleans()),
    MigrateMsg: st.builds(
        MigrateMsg,
        command=st.builds(
            MigrateCommand,
            job_id=_text,
            items=st.lists(work_items(), max_size=3).map(tuple),
        ),
    ),
    EvictMsg: st.builds(
        EvictMsg,
        command=st.builds(
            EvictCommand,
            job_id=_text,
            block_ids=_names,
        ),
    ),
    MigrateFilesRequest: st.builds(
        MigrateFilesRequest,
        paths=_names,
        job_id=_text,
        implicit_eviction=st.booleans(),
        dst_tier=st.none() | _tiers,
    ),
    EvictFilesRequest: st.builds(
        EvictFilesRequest, paths=_names, job_id=_text
    ),
    PromoteBlocksRequest: st.builds(
        PromoteBlocksRequest,
        blocks=st.lists(blocks(), max_size=3).map(tuple),
        owner=_tenants,
        dst_tier=st.none() | _tiers,
    ),
    DemoteBlocksRequest: st.builds(
        DemoteBlocksRequest, block_ids=_names, owner=_tenants
    ),
    HeartbeatMsg: st.builds(
        HeartbeatMsg,
        node=_text,
        seq=st.integers(0, 10**9),
        tier_blocks=st.dictionaries(_tiers, _names, max_size=3),
    ),
    BlockReadRequest: st.builds(
        BlockReadRequest, block_id=_text, prefer_tier=st.none() | _tiers
    ),
    BlockReadReply: st.builds(
        BlockReadReply,
        ok=st.booleans(),
        tier=st.none() | _tiers,
        nbytes=_sizes,
        data=_payloads,
    ),
    BlockWriteRequest: st.builds(
        BlockWriteRequest,
        block_id=_text,
        path=_text,
        index=st.integers(0, 64),
        data=_payloads,
        pipeline=_names,
    ),
    BlockWriteReply: st.builds(
        BlockWriteReply, ok=st.booleans(), stored=_names
    ),
    ReplicaPipelineMsg: st.builds(
        ReplicaPipelineMsg,
        block_id=_text,
        source=_text,
        targets=_names,
        reason=st.sampled_from(["repair", "rebalance", "decommission"]),
    ),
    FailoverMsg: st.builds(
        FailoverMsg, generation=st.integers(0, 100), active=_text
    ),
    CreateFileRequest: st.builds(
        CreateFileRequest,
        path=_text,
        nbytes=_sizes,
        replication=st.none() | st.integers(1, 5),
    ),
    BlockPlacement: _placements(),
    CreateFileReply: st.builds(
        CreateFileReply,
        ok=st.booleans(),
        blocks=st.lists(_placements(), max_size=3).map(tuple),
    ),
    LocationsRequest: st.builds(LocationsRequest, block_id=_text),
    LocationsReply: st.builds(
        LocationsReply, nodes=_names, memory_nodes=_names
    ),
    FileInfoRequest: st.builds(FileInfoRequest, path=_text),
    FileInfoReply: st.builds(
        FileInfoReply,
        exists=st.booleans(),
        blocks=st.lists(_placements(), max_size=3).map(tuple),
    ),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


# -- round-trip properties ---------------------------------------------------------


def test_every_message_type_covered():
    assert set(MESSAGE_STRATEGIES) == set(MESSAGE_TYPES)


@settings(max_examples=200)
@given(any_message)
def test_round_trip_identity(message):
    decoded = decode(encode(message))
    assert type(decoded) is type(message)
    assert decoded == message


def _split(frame):
    """Frame → (header dict, header bytes, payload section)."""
    header_len, payload_len = FRAME_PREFIX.unpack_from(frame)
    header = frame[FRAME_PREFIX.size:FRAME_PREFIX.size + header_len]
    payload = frame[FRAME_PREFIX.size + header_len:]
    assert len(payload) == payload_len
    return json.loads(header.decode("utf-8")), header, payload


def _frame(envelope, payload=b""):
    """A hand-built frame around ``envelope`` (need not be canonical)."""
    header = json.dumps(envelope).encode("utf-8")
    return FRAME_PREFIX.pack(len(header), len(payload)) + header + payload


def _bytes_fields(value):
    """Every ``bytes`` field of a message, in sorted-field-name order."""
    if isinstance(value, bytes):
        return [value]
    if dataclasses.is_dataclass(value):
        return [
            chunk
            for name in sorted(f.name for f in dataclasses.fields(value))
            for chunk in _bytes_fields(getattr(value, name))
        ]
    if isinstance(value, (list, tuple)):
        return [chunk for item in value for chunk in _bytes_fields(item)]
    if isinstance(value, dict):
        return [chunk for key in sorted(value) for chunk in _bytes_fields(value[key])]
    return []


@given(any_message)
def test_wire_form_is_canonical_json(message):
    frame = encode(message)
    envelope, header, payload = _split(frame)
    assert envelope["v"] == PROTOCOL_VERSION
    assert envelope["kind"] == type(message).__name__
    # The header is canonical JSON (sorted keys, compact separators)...
    assert json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode() == header
    # ...the payload section is the raw bytes fields, back to back...
    assert payload == b"".join(_bytes_fields(message))
    # ...and re-encoding the decoded message reproduces the frame.
    assert encode(decode(frame)) == frame


@given(any_message, st.data())
def test_truncated_frame_rejected(message, data):
    frame = encode(message)
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(CodecError, match="truncated"):
        decode(frame[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(CodecError, match="trailing"):
        decode(encode(Ack()) + b"x")


def test_block_reply_wire_overhead_is_one_percent_at_most():
    """A 256 KB block crosses the wire unencoded: at most 1.01 wire
    bytes per payload byte (base64-in-JSON took 1.334)."""
    data = bytes(range(256)) * 1024
    reply = BlockReadReply(ok=True, tier="mem", nbytes=float(len(data)), data=data)
    frame = encode(reply)
    assert len(frame) <= 1.01 * len(data)
    assert frame.endswith(data)


def test_decoded_bytes_do_not_pin_the_frame():
    frame = bytearray(encode(BlockWriteRequest("b", "/p", 0, b"abcdef")))
    decoded = decode(frame)
    assert type(decoded.data) is bytes
    frame[-6:] = b"zzzzzz"  # mutating the frame leaves the message alone
    frame.clear()  # and the frame buffer is free to resize
    assert decoded.data == b"abcdef"


@given(work_items())
def test_work_item_seq_and_timestamps_survive(item):
    """``seq`` is excluded from the priority-order contract only if the
    wire preserves it exactly (``received_at`` is ``compare=False``, so
    ``==`` would not catch a regression — check the fields directly)."""
    msg = MigrateMsg(MigrateCommand(job_id="j", items=(item,)))
    round_tripped = decode(encode(msg)).command.items[0]
    assert round_tripped.seq == item.seq
    assert round_tripped.received_at == item.received_at
    assert round_tripped.dst_tier == item.dst_tier


@given(st.lists(_text, min_size=1, max_size=4).map(tuple))
def test_tuples_stay_tuples(paths):
    decoded = decode(encode(MigrateFilesRequest(paths, "job")))
    assert isinstance(decoded.paths, tuple)
    assert decoded.paths == paths


@given(_payloads)
def test_binary_payloads_survive(data):
    decoded = decode(encode(BlockReadReply(ok=True, data=data)))
    assert decoded.data == data
    assert isinstance(decoded.data, bytes)


# -- malformed input ---------------------------------------------------------------


def test_wrong_protocol_version_rejected():
    envelope, _, payload = _split(encode(BlockReadReply(ok=True, data=b"blk")))
    envelope["v"] = PROTOCOL_VERSION + 1
    with pytest.raises(CodecError, match="protocol version"):
        decode(_frame(envelope, payload))


def test_unknown_kind_rejected():
    frame = _frame({"v": PROTOCOL_VERSION, "kind": "NoSuchMessage", "body": {}})
    with pytest.raises(CodecError, match="malformed envelope"):
        decode(frame)


def test_malformed_body_rejected():
    frame = _frame(
        {
            "v": PROTOCOL_VERSION,
            "kind": "HeartbeatMsg",
            "body": {"node": "n1"},  # missing seq / tier_blocks
        }
    )
    with pytest.raises(CodecError, match="malformed HeartbeatMsg"):
        decode(frame)


def test_non_json_payload_rejected():
    bad_header = b"\xff\xfe not json"
    frame = FRAME_PREFIX.pack(len(bad_header), 0) + bad_header
    with pytest.raises(CodecError, match="undecodable"):
        decode(frame)
    # Valid JSON that is not an object is no header either.
    with pytest.raises(CodecError, match="header must be an object"):
        decode(_frame([PROTOCOL_VERSION]))
    # Nor is JSON nested past the parser's recursion limit.
    deep = b"[" * 100_000 + b"]" * 100_000
    with pytest.raises(CodecError, match="undecodable"):
        decode(FRAME_PREFIX.pack(len(deep), 0) + deep)


def test_deeply_nested_body_rejected():
    # 700 levels parse as JSON but are deeper than decoding can recurse.
    lists = "[" * 700 + "]" * 700
    header = (
        f'{{"v":{PROTOCOL_VERSION},"kind":"HeartbeatMsg",'
        f'"body":{{"node":"n","seq":1,"tier_blocks":{{"mem":{lists}}}}}}}'
    ).encode()
    with pytest.raises(CodecError, match="nested too deeply"):
        decode(FRAME_PREFIX.pack(len(header), 0) + header)


def _read_reply_frame(ref, payload):
    return _frame(
        {
            "v": PROTOCOL_VERSION,
            "kind": "BlockReadReply",
            "body": {"ok": True, "data": {"__b__": ref}},
        },
        payload,
    )


@pytest.mark.parametrize("ref", [[0, 6], [3, 3], [6, 1], [1 << 40, 1]])
def test_out_of_range_reference_rejected(ref):
    with pytest.raises(CodecError, match="outside the payload section"):
        decode(_read_reply_frame(ref, b"abcde"))


@pytest.mark.parametrize("ref", [[-1, 2], [0], [0, "5"], "0,5", [0, True]])
def test_malformed_reference_rejected(ref):
    with pytest.raises(CodecError, match="malformed payload reference"):
        decode(_read_reply_frame(ref, b"abcde"))


def test_unreferenced_payload_bytes_rejected():
    with pytest.raises(CodecError, match="no field references"):
        decode(_read_reply_frame([0, 3], b"abcde"))
    with pytest.raises(CodecError, match="no field references"):
        decode(_frame(_split(encode(Ack()))[0], b"extra"))


def test_reference_out_of_order_rejected():
    # Two fields must tile the section in header order.
    frame = _frame(
        {
            "v": PROTOCOL_VERSION,
            "kind": "HeartbeatMsg",
            "body": {
                "node": "n",
                "seq": 1,
                "tier_blocks": {"a": {"__b__": [2, 2]}, "b": {"__b__": [0, 2]}},
            },
        },
        b"wxyz",
    )
    with pytest.raises(CodecError, match="out of order"):
        decode(frame)


def test_unregistered_type_rejected():
    @dataclasses.dataclass
    class Rogue:
        x: int

    with pytest.raises(CodecError, match="unknown message type"):
        encode(Rogue(1))
