"""AsyncioTransport: the same protocol over real TCP sockets.

Each endpoint is an ``asyncio`` TCP server on ``127.0.0.1`` with an
OS-assigned port, found through an in-process directory (name →
address).  Every frame is the codec's frame
(:func:`~repro.transport.messages.encode_frame`, protocol version 2)::

    >II prefix       header length, payload length
    header           canonical JSON: {"v": 2, "mid": 7, "rsvp": true,
                     "kind": "BlockReadReply", "body": {..., "data":
                     {"__b__": [0, 262144]}}}
    payload          the raw bytes fields, back to back

Replies echo the message id: ``{"v": 2, "re": 7, "kind": ..., "body":
...}`` (or ``{"v": 2, "re": 7, "err": "..."}`` when the handler
raised).  Request/reply matching is by ``mid``, so one persistent
connection per (caller, endpoint) pair multiplexes any number of
in-flight requests.  A block payload goes to the socket as the same
``bytes`` object the message holds, and comes off it with one
``readexactly``: no text encoding and no copy into a frame buffer.

Delivery guarantees:

* **per-connection FIFO** — the server consumes each connection's
  frames sequentially and runs the handler to completion before the
  next frame, so two messages from one caller to one endpoint are
  handled in send order (the same order ``SimTransport`` gives);
* **no cross-endpoint ordering** — messages to different endpoints
  race, exactly like independent sockets;
* **errors surface as** :class:`~repro.net.network.NetworkError` — an
  unknown endpoint, a refused/reset connection, a handler crash, an
  undecodable reply, or a reply timeout all raise it, mirroring the
  sim's failure surface;
* **a bad frame costs one connection** — a frame that cannot be framed
  (oversized, or a header that is not a JSON object) closes the
  connection it came on; the endpoint keeps serving, and the caller's
  pending requests on that connection fail with ``NetworkError``.  A
  well-framed request whose message does not decode gets an error
  reply and the connection stays up.

Handlers may be plain functions or coroutines; replies are codec-encoded
messages, so anything the wire format carries can cross the socket.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, Optional, Tuple

from .base import NetworkError, Transport
from .messages import (
    FRAME_PREFIX,
    CodecError,
    decode_body,
    decode_header,
    encode_frame,
)

__all__ = ["AsyncioTransport", "NetworkError"]

#: Frames beyond this are a protocol error (a block plus its header fits
#: comfortably; this bounds a malformed length prefix).
MAX_FRAME = 64 * 1024 * 1024


async def _read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[dict, bytes]]:
    """Next ``(envelope, payload section)`` off the stream; ``None`` at
    EOF or a reset.  Raises :class:`CodecError` when the stream cannot be
    framed: an oversized length prefix, or a header that is not a JSON
    object."""
    try:
        prefix = await reader.readexactly(FRAME_PREFIX.size)
        header_len, payload_len = FRAME_PREFIX.unpack(prefix)
        if header_len + payload_len > MAX_FRAME:
            raise CodecError(
                f"oversized frame ({header_len} + {payload_len} bytes)"
            )
        header = await reader.readexactly(header_len)
        payload = await reader.readexactly(payload_len)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    return decode_header(header), payload


def _write_frame(writer: asyncio.StreamWriter, chunks) -> None:
    # One write per chunk: ``writelines`` joins them into a new buffer.
    for chunk in chunks:
        writer.write(chunk)


def _expire(future: asyncio.Future, reason: str) -> None:
    if not future.done():
        future.set_exception(NetworkError(reason))


class _Peer:
    """One persistent client connection to a remote endpoint."""

    __slots__ = ("reader", "writer", "pending", "task")

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, asyncio.Future] = {}
        self.task: Optional[asyncio.Task] = None


class AsyncioTransport(Transport):
    """Real sockets on localhost; the ``repro real`` backend."""

    def __init__(self, host: str = "127.0.0.1", reply_timeout: float = 30.0):
        super().__init__()
        self.host = host
        self.reply_timeout = reply_timeout
        self._servers: Dict[str, asyncio.base_events.Server] = {}
        #: Live server-side connection tasks per endpoint.  ``Server.close``
        #: only stops *listening*; established connections must be
        #: cancelled explicitly or they outlive the endpoint.
        self._conn_tasks: Dict[str, set] = {}
        self._directory: Dict[str, Tuple[str, int]] = {}
        self._peers: Dict[str, _Peer] = {}
        self._mids = itertools.count(1)
        self._closed = False

    # -- serving -----------------------------------------------------------------

    async def serve(self, name: str, handler) -> Tuple[str, int]:
        """Start a TCP service for ``name``; returns its address."""
        self.register(name, handler)
        server = await asyncio.start_server(
            lambda r, w: self._serve_connection(name, r, w), self.host, 0
        )
        address = server.sockets[0].getsockname()[:2]
        self._servers[name] = server
        self._directory[name] = (address[0], address[1])
        return self._directory[name]

    async def stop(self, name: str) -> None:
        """Take one endpoint down (its address disappears; in-flight
        connections reset — callers observe :class:`NetworkError`)."""
        self.deregister(name)
        self._directory.pop(name, None)
        server = self._servers.pop(name, None)
        if server is not None:
            server.close()
            await server.wait_closed()
        for task in list(self._conn_tasks.pop(name, ())):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    async def _serve_connection(self, name: str, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.setdefault(name, set()).add(task)
        try:
            while True:
                frame = await _read_frame(reader)
                if frame is None:
                    return
                await self._handle_frame(name, *frame, writer)
                await writer.drain()
        except (ConnectionError, CodecError, asyncio.CancelledError):
            # An unframeable frame leaves the stream out of step: drop
            # this connection only; the endpoint keeps serving.  A cancel
            # (from ``stop``) ends here too: on Python 3.11 the server's
            # done-callback calls ``task.exception()``, which raises on a
            # cancelled task.
            return
        finally:
            if task is not None:
                self._conn_tasks.get(name, set()).discard(task)
            try:
                writer.close()
            except RuntimeError:
                pass  # event loop already torn down

    async def _handle_frame(
        self, name: str, envelope: dict, payload: bytes, writer
    ) -> None:
        mid = envelope.get("mid")
        rsvp = envelope.get("rsvp", False)
        try:
            message = decode_body(envelope, payload)
            if message is None:
                raise CodecError("request frame carries no message")
            reply = self._handler(name)(message)
            if asyncio.iscoroutine(reply):
                reply = await reply
            if rsvp:
                _write_frame(writer, encode_frame(reply, re=mid))
        except Exception as exc:
            if rsvp:
                _write_frame(writer, encode_frame(re=mid, err=f"{exc}"))

    # -- calling -----------------------------------------------------------------

    async def _peer(self, endpoint: str) -> _Peer:
        peer = self._peers.get(endpoint)
        if (
            peer is not None
            and not peer.writer.is_closing()
            # A finished reply-consumer means the remote hung up (EOF);
            # TCP would still accept writes, so check the task, not the
            # socket, and reconnect instead of waiting out the timeout.
            and not (peer.task is not None and peer.task.done())
        ):
            return peer
        address = self._directory.get(endpoint)
        if address is None:
            raise NetworkError(f"endpoint {endpoint!r} is not registered")
        try:
            reader, writer = await asyncio.open_connection(*address)
        except (ConnectionError, OSError) as exc:
            raise NetworkError(f"cannot reach {endpoint!r}: {exc}") from exc
        peer = _Peer(reader, writer)
        peer.task = asyncio.ensure_future(self._consume_replies(endpoint, peer))
        self._peers[endpoint] = peer
        return peer

    async def _consume_replies(self, endpoint: str, peer: _Peer) -> None:
        try:
            while True:
                frame = await _read_frame(peer.reader)
                if frame is None:
                    break
                envelope, payload = frame
                mid = envelope.get("re")  # any JSON value: check before hashing
                future = peer.pending.pop(mid, None) if type(mid) is int else None
                if future is None or future.done():
                    continue
                if "err" in envelope:
                    future.set_exception(
                        NetworkError(
                            f"{endpoint!r} failed: {envelope['err']}"
                        )
                    )
                    continue
                try:
                    future.set_result(decode_body(envelope, payload))
                except CodecError as exc:
                    future.set_exception(
                        NetworkError(f"bad reply from {endpoint!r}: {exc}")
                    )
        except CodecError:
            # The stream is out of step: close it; the next request
            # reconnects and the pending ones fail below.
            peer.writer.close()
        finally:
            failure = NetworkError(f"connection to {endpoint!r} lost")
            for future in peer.pending.values():
                if not future.done():
                    future.set_exception(failure)
            peer.pending.clear()

    async def request(self, endpoint: str, message):
        reply = await self._roundtrip(endpoint, message, rsvp=True)
        self._note(endpoint, message, reply)
        return reply

    async def send(self, endpoint: str, message) -> None:
        await self._roundtrip(endpoint, message, rsvp=False)
        self._note(endpoint, message)

    async def _roundtrip(self, endpoint: str, message, rsvp: bool):
        peer = await self._peer(endpoint)
        mid = next(self._mids)
        chunks = encode_frame(message, mid=mid, rsvp=rsvp)
        future = None
        if rsvp:
            future = asyncio.get_running_loop().create_future()
            peer.pending[mid] = future
        try:
            _write_frame(peer.writer, chunks)
            await peer.writer.drain()
        except (ConnectionError, OSError) as exc:
            peer.pending.pop(mid, None)
            raise NetworkError(f"send to {endpoint!r} failed: {exc}") from exc
        if not rsvp:
            return None
        # Await the bare future under a timer rather than through
        # ``asyncio.wait_for``: on Python < 3.12 that drops a cancel
        # which lands in the same loop turn as the reply, so a cancelled
        # caller (a heartbeat loop being stopped) would run on.
        timer = asyncio.get_running_loop().call_later(
            self.reply_timeout,
            _expire,
            future,
            f"no reply from {endpoint!r} within {self.reply_timeout}s",
        )
        try:
            return await future
        finally:
            timer.cancel()
            peer.pending.pop(mid, None)

    # -- lifecycle ---------------------------------------------------------------

    async def close(self) -> None:
        """Shut every server and client connection down cleanly."""
        if self._closed:
            return
        self._closed = True
        for name in list(self._servers):
            await self.stop(name)
        for peer in self._peers.values():
            if peer.task is not None:
                peer.task.cancel()
            peer.writer.close()
        for peer in self._peers.values():
            if peer.task is not None:
                try:
                    await peer.task
                except (asyncio.CancelledError, Exception):
                    pass
        self._peers.clear()

    @property
    def directory(self) -> Dict[str, Tuple[str, int]]:
        return dict(self._directory)
