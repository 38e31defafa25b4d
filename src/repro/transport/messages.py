"""Typed protocol messages and the versioned wire codec.

Every cross-node interaction in the system — migrate/evict commands,
file-level migration requests, heartbeats, block reads and writes,
replica-pipeline notices, and failover announcements — is expressed as
one of the dataclasses below.  The message set is derived from
``core/commands.py`` (the Ignem master→slave command surface) and the
NameNode/DataNode call surface; a message is the unit a
:class:`~repro.transport.base.Transport` carries.

The codec turns any message into one frame of three parts::

    prefix    8 bytes: header length, payload length (``>II``)
    header    canonical JSON (sorted keys, compact separators):
              {"v": 2, "kind": "<ClassName>", "body": {...}} plus the
              transport's routing keys (``mid``, ``rsvp``, ``re``, ``err``)
    payload   every ``bytes`` field, raw, back to back

In the header each ``bytes`` field is a reference ``{"__b__": [offset,
length]}`` into the payload section.  References appear in header order
and tile the section exactly, so a frame has one encoding: a reference
outside the section, out of order, or payload bytes no field names are
a :class:`CodecError`.  Nested domain objects
(:class:`~repro.dfs.blocks.Block`,
:class:`~repro.core.commands.MigrationWorkItem`,
:class:`~repro.core.commands.MigrateCommand`,
:class:`~repro.core.commands.EvictCommand`) travel as tagged dicts;
JSON lists decode back to tuples so a decoded message compares equal to
the original.  ``MigrationWorkItem`` is reconstructed with its ``seq``
and ``received_at`` passed explicitly — decoding must never consume the
global sequence counter, or wire round-trips would perturb priority
tie-breaks in the simulator.

:func:`encode` and :func:`decode` are the whole-frame pair.  The
asyncio backend uses their two halves directly: :func:`encode_frame`
returns the frame as chunks, so a block payload reaches the socket as
the very ``bytes`` object the message holds, and
:func:`decode_header` / :func:`decode_body` read a header and payload
that arrive as separate ``readexactly`` results.

The ``SimTransport`` never serialises (it hands the original objects to
the destination, preserving delivery identity); the codec is the wire
format of the asyncio backend and the round-trip property suite.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.commands import EvictCommand, MigrateCommand, MigrationWorkItem
from ..dfs.blocks import Block

#: Bumped on any incompatible change to the message set or encoding.
PROTOCOL_VERSION = 2


class CodecError(Exception):
    """A message could not be encoded or decoded (unknown kind, wrong
    protocol version, malformed body)."""


# -- message types -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Ack:
    """Generic acknowledgement reply.  ``ok=False`` mirrors today's
    unacked-RPC semantics (e.g. a dead slave refusing a command)."""

    ok: bool = True


@dataclass(frozen=True, slots=True)
class MigrateMsg:
    """Master → slave: queue this batch of migration work."""

    command: MigrateCommand


@dataclass(frozen=True, slots=True)
class EvictMsg:
    """Master → slave: drop this job's block references."""

    command: EvictCommand


@dataclass(frozen=True, slots=True)
class MigrateFilesRequest:
    """Client → master: migrate these files' blocks for a job
    (the paper's ``client.migrate`` call, Section III-B3)."""

    paths: Tuple[str, ...]
    job_id: str
    implicit_eviction: bool = False
    dst_tier: Optional[str] = None


@dataclass(frozen=True, slots=True)
class EvictFilesRequest:
    """Client → master: the job is done with these files."""

    paths: Tuple[str, ...]
    job_id: str


@dataclass(frozen=True, slots=True)
class PromoteBlocksRequest:
    """Heat policy → master: promote these hot blocks under ``owner``."""

    blocks: Tuple[Block, ...]
    owner: str
    dst_tier: Optional[str] = None


@dataclass(frozen=True, slots=True)
class DemoteBlocksRequest:
    """Heat policy → master: demote cooled blocks promoted under ``owner``."""

    block_ids: Tuple[str, ...]
    owner: str


@dataclass(frozen=True, slots=True)
class HeartbeatMsg:
    """DataNode → NameNode: liveness plus per-tier block residency."""

    node: str
    seq: int
    tier_blocks: Dict[str, Tuple[str, ...]]


@dataclass(frozen=True, slots=True)
class BlockReadRequest:
    """Reader → DataNode: serve one block (or probe its residency)."""

    block_id: str
    prefer_tier: Optional[str] = None


@dataclass(frozen=True, slots=True)
class BlockReadReply:
    ok: bool
    tier: Optional[str] = None
    nbytes: float = 0.0
    data: bytes = b""


@dataclass(frozen=True, slots=True)
class BlockWriteRequest:
    """Writer → DataNode: store a block and forward it down the replica
    pipeline (store-and-forward, the ClusterDFS ``fwdlist`` scheme)."""

    block_id: str
    path: str
    index: int
    data: bytes
    pipeline: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class BlockWriteReply:
    ok: bool
    stored: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ReplicaPipelineMsg:
    """Repair coordinator → DataNode: a re-replication chain copy is
    pipelining this block through you (one-way bookkeeping notice)."""

    block_id: str
    source: str
    targets: Tuple[str, ...]
    reason: str


@dataclass(frozen=True, slots=True)
class FailoverMsg:
    """HA pair → slaves: the active master changed; purge reference
    state to stay consistent with the new master (paper III-A5)."""

    generation: int
    active: str


@dataclass(frozen=True, slots=True)
class CreateFileRequest:
    """Client → NameNode: create a file and place its blocks."""

    path: str
    nbytes: float
    replication: Optional[int] = None


@dataclass(frozen=True, slots=True)
class BlockPlacement:
    """One placed block inside a :class:`CreateFileReply`."""

    block_id: str
    index: int
    nbytes: float
    nodes: Tuple[str, ...]


@dataclass(frozen=True, slots=True)
class CreateFileReply:
    ok: bool
    blocks: Tuple[BlockPlacement, ...] = ()


@dataclass(frozen=True, slots=True)
class LocationsRequest:
    """Client → NameNode: where does this block live (and which holders
    serve it from memory)?"""

    block_id: str


@dataclass(frozen=True, slots=True)
class LocationsReply:
    nodes: Tuple[str, ...]
    memory_nodes: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class FileInfoRequest:
    path: str


@dataclass(frozen=True, slots=True)
class FileInfoReply:
    exists: bool
    blocks: Tuple[BlockPlacement, ...] = ()


#: Every type the codec can carry — top-level messages plus the nested
#: domain objects they embed.
_WIRE_TYPES = (
    Ack,
    MigrateMsg,
    EvictMsg,
    MigrateFilesRequest,
    EvictFilesRequest,
    PromoteBlocksRequest,
    DemoteBlocksRequest,
    HeartbeatMsg,
    BlockReadRequest,
    BlockReadReply,
    BlockWriteRequest,
    BlockWriteReply,
    ReplicaPipelineMsg,
    FailoverMsg,
    CreateFileRequest,
    BlockPlacement,
    CreateFileReply,
    LocationsRequest,
    LocationsReply,
    FileInfoRequest,
    FileInfoReply,
    Block,
    MigrationWorkItem,
    MigrateCommand,
    EvictCommand,
)

MESSAGE_TYPES = tuple(
    t for t in _WIRE_TYPES
    if t not in (Block, MigrationWorkItem, MigrateCommand, EvictCommand)
)

_BY_KIND = {t.__name__: t for t in _WIRE_TYPES}


# -- codec -------------------------------------------------------------------------

#: Frame prefix: header length, then payload length (big-endian uint32).
FRAME_PREFIX = struct.Struct(">II")

#: Field names per wire type in sorted order: the order the canonical
#: header lists them, and so the order ``bytes`` fields fill the payload.
_FIELDS = {
    t: tuple(sorted(f.name for f in dataclasses.fields(t))) for t in _WIRE_TYPES
}


class _Payload:
    """A frame's payload section: its ``bytes`` fields, in header order.

    Encoding appends each field and returns its ``{"__b__": [offset,
    length]}`` reference; decoding takes the fields back in the same
    order.  Each reference must start where the last one ended, so the
    references tile the section exactly: a frame has one encoding."""

    __slots__ = ("chunks", "data", "size")

    def __init__(self, data=b""):
        self.chunks = []
        self.data = data
        #: Bytes appended (encoding) or taken (decoding) so far.
        self.size = 0

    def put(self, value: bytes) -> dict:
        ref = {"__b__": [self.size, len(value)]}
        self.chunks.append(value)
        self.size += len(value)
        return ref

    def take(self, ref) -> bytes:
        if not (
            isinstance(ref, list)
            and len(ref) == 2
            and all(type(n) is int and n >= 0 for n in ref)
        ):
            raise CodecError(f"malformed payload reference {ref!r}")
        offset, length = ref
        if offset + length > len(self.data):
            raise CodecError(
                f"payload reference {ref!r} outside the payload section "
                f"({len(self.data)} bytes)"
            )
        if offset != self.size:
            raise CodecError(
                f"payload reference {ref!r} out of order (next offset {self.size})"
            )
        self.size += length
        # A copy unless the field is the whole section: never a view
        # that pins the frame buffer.
        return bytes(self.data[offset:self.size])


def _to_jsonable(value, payload: _Payload):
    if isinstance(value, bytes):
        return payload.put(value)
    names = _FIELDS.get(type(value))
    if names is not None:
        body = {"__t__": type(value).__name__}
        for name in names:
            body[name] = _to_jsonable(getattr(value, name), payload)
        return body
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item, payload) for item in value]
    if isinstance(value, dict):
        return {key: _to_jsonable(value[key], payload) for key in sorted(value)}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise CodecError(f"unregistered wire type {type(value).__name__!r}")
    raise CodecError(f"cannot encode {type(value).__name__}: {value!r}")


def _from_jsonable(value, payload: _Payload):
    if isinstance(value, dict):
        if "__b__" in value and len(value) == 1:
            return payload.take(value["__b__"])
        if "__t__" in value:
            kind = value["__t__"]
            cls = _BY_KIND.get(kind)
            if cls is None:
                raise CodecError(f"unknown wire type {kind!r}")
            fields = {
                key: _from_jsonable(item, payload)
                for key, item in value.items()
                if key != "__t__"
            }
            try:
                return cls(**fields)
            except TypeError as exc:
                raise CodecError(f"malformed {kind} body: {exc}") from exc
        return {key: _from_jsonable(item, payload) for key, item in value.items()}
    if isinstance(value, list):
        return tuple(_from_jsonable(item, payload) for item in value)
    return value


def encode_frame(message=None, **envelope) -> List[bytes]:
    """Message → one frame, as the chunks a socket writer sends in order:
    the prefix and header together, then each ``bytes`` field as-is.

    ``envelope`` adds routing keys (``mid``, ``rsvp``, ``re``, ``err``)
    to the header; with ``message=None`` the header carries no ``kind``
    (a reply with no message, or an error)."""
    payload = _Payload()
    if message is not None:
        kind = type(message).__name__
        if kind not in _BY_KIND:
            raise CodecError(f"unknown message type {kind!r}")
        body = _to_jsonable(message, payload)
        del body["__t__"]
        envelope["kind"] = kind
        envelope["body"] = body
    envelope["v"] = PROTOCOL_VERSION
    header = json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return [FRAME_PREFIX.pack(len(header), payload.size) + header, *payload.chunks]


def decode_header(header: bytes) -> dict:
    """Header section → envelope dict (routing keys, ``v``, and ``kind``
    and ``body`` when the frame carries a message)."""
    try:
        envelope = json.loads(header.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
        raise CodecError(f"undecodable header: {exc}") from exc
    if not isinstance(envelope, dict):
        raise CodecError(f"header must be an object, got {type(envelope).__name__}")
    return envelope


def decode_body(envelope: dict, payload):
    """Envelope plus payload section → message, or ``None`` for a frame
    whose header has no ``kind``.  Every decoded ``bytes`` field is its
    own ``bytes`` object."""
    version = envelope.get("v")
    if version != PROTOCOL_VERSION:
        raise CodecError(
            f"unsupported protocol version {version!r} "
            f"(this build speaks {PROTOCOL_VERSION})"
        )
    section = _Payload(payload)
    message = None
    if "kind" in envelope or "body" in envelope:
        kind = envelope.get("kind")
        body = envelope.get("body")
        if kind not in _BY_KIND or not isinstance(body, dict):
            raise CodecError(f"malformed envelope: kind={kind!r}")
        try:
            message = _from_jsonable({**body, "__t__": kind}, section)
        except RecursionError as exc:
            raise CodecError(f"{kind} body nested too deeply") from exc
    if section.size != len(payload):
        raise CodecError(
            f"{len(payload) - section.size} payload bytes no field references"
        )
    return message


def encode(message) -> bytes:
    """Message → frame bytes: prefix, canonical-JSON header, payload."""
    return b"".join(encode_frame(message))


def decode(frame: bytes):
    """Frame bytes → message (inverse of :func:`encode`)."""
    if len(frame) < FRAME_PREFIX.size:
        raise CodecError(f"truncated frame: {len(frame)}-byte prefix")
    header_len, payload_len = FRAME_PREFIX.unpack_from(frame)
    start = FRAME_PREFIX.size + header_len
    if start + payload_len > len(frame):
        raise CodecError(
            f"truncated frame: {len(frame)} of {start + payload_len} bytes"
        )
    if start + payload_len < len(frame):
        raise CodecError(
            f"{len(frame) - start - payload_len} trailing bytes after the frame"
        )
    envelope = decode_header(frame[FRAME_PREFIX.size:start])
    message = decode_body(envelope, memoryview(frame)[start:])
    if message is None:
        raise CodecError("malformed envelope: kind=None")
    return message
