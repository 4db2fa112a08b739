"""Wire codec for the live TCP plane: one binary framing.

Every frame is::

    header   ">BBBBI" — magic 0xFB, version 4, type code, flags, body_len
    body     u32 head_len || head JSON ||
             [u16 nblobs || (u32 len || blob bytes)*  when FLAG_BLOBS]
    trailer  32-byte HMAC-SHA256(key, header || body)  when FLAG_SIGNED

With a shared key every frame carries the HMAC trailer — our stand-in
for GSISecureConversation's per-message authentication (the paper
treats security purely as per-message overhead, §4.1).  Signing covers
the transmitted bytes, so neither side canonicalises or re-serialises.

The codec is deliberately socket-free: :func:`encode_message_v4`
returns bytes and :class:`FrameReader` is an incremental push parser,
so the protocol is unit-testable without I/O and reusable over any
byte stream.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import struct
from typing import Any, Iterator, Optional

from repro.errors import ProtocolError, SecurityError
from repro.net.message import CODE_TO_TYPE, PROTOCOL_VERSION, Message, WIRE_CODES

__all__ = [
    "MAX_FRAME_BYTES",
    "V4_MAGIC",
    "encode_message_v4",
    "FrameReader",
]

#: Upper bound on a single frame; a 300-task bundle of sleep tasks is
#: ~60 KB, so 64 MiB leaves ample headroom while bounding memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: First byte of every frame.
V4_MAGIC = 0xFB

#: v4 fixed header: magic, version, message-type code, flags, body length.
_V4_HEADER = struct.Struct(">BBBBI")
_V4_U32 = struct.Struct(">I")
_V4_U16 = struct.Struct(">H")
#: Body carries a trailing raw HMAC-SHA256 over header+body.
_V4_FLAG_SIGNED = 0x01
#: Body carries a blob section after the head (pre-encoded payload values).
_V4_FLAG_BLOBS = 0x02
_V4_KNOWN_FLAGS = _V4_FLAG_SIGNED | _V4_FLAG_BLOBS
_V4_DIGEST_BYTES = 32

_dumps = json.dumps  # hot-path alias; heads are not canonicalised


def encode_message_v4(
    message: Message,
    key: Optional[bytes] = None,
    blobs: Optional[dict[str, Any]] = None,
) -> bytes:
    """Serialise *message* into one binary frame (layout in the module
    docstring).

    The head is ``{"sender", "msg_id", "payload"[, "_blobs"]}``
    — the message type lives only in the header code, and the head is
    *not* canonicalised (no ``sort_keys``): signing covers the
    transmitted bytes directly, so neither side re-serialises.

    *blobs* maps payload keys to pre-encoded JSON values — ``bytes``
    for a scalar value or a ``list[bytes]`` whose entries become a JSON
    array.  Blob keys must be absent from ``message.payload``; the head
    records them as ``"_blobs": [[key, n], ...]`` (``n == -1`` scalar,
    else list length) and the decoder splices the parsed values back
    into the payload.  This is the hot-path escape hatch: a dispatcher
    forwards a task spec it received as a blob without a single
    ``json.dumps``.
    """
    flags = 0
    head: dict[str, Any] = {
        "sender": message.sender,
        "msg_id": message.msg_id,
        "payload": message.payload,
    }
    blob_parts: list[bytes] = []
    if blobs:
        flags |= _V4_FLAG_BLOBS
        markers: list[list[Any]] = []
        for bkey, value in blobs.items():
            if bkey in message.payload:
                raise ProtocolError(f"blob key {bkey!r} collides with payload")
            if isinstance(value, (bytes, bytearray, memoryview)):
                markers.append([bkey, -1])
                blob_parts.append(bytes(value))
            else:
                markers.append([bkey, len(value)])
                blob_parts.extend(bytes(v) for v in value)
        head["_blobs"] = markers
    head_bytes = _dumps(head, separators=(",", ":")).encode()
    body_len = _V4_U32.size + len(head_bytes)
    if blob_parts or flags & _V4_FLAG_BLOBS:
        body_len += _V4_U16.size + sum(_V4_U32.size + len(b) for b in blob_parts)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {body_len} bytes exceeds limit {MAX_FRAME_BYTES}")
    if key is not None:
        flags |= _V4_FLAG_SIGNED
    try:
        code = WIRE_CODES[message.type]
    except KeyError:
        raise ProtocolError(f"message type {message.type!r} has no wire-v4 code") from None
    buf = bytearray(_V4_HEADER.size + body_len)
    _V4_HEADER.pack_into(buf, 0, V4_MAGIC, PROTOCOL_VERSION, code, flags, body_len)
    offset = _V4_HEADER.size
    _V4_U32.pack_into(buf, offset, len(head_bytes))
    offset += _V4_U32.size
    buf[offset : offset + len(head_bytes)] = head_bytes
    offset += len(head_bytes)
    if flags & _V4_FLAG_BLOBS:
        _V4_U16.pack_into(buf, offset, len(blob_parts))
        offset += _V4_U16.size
        for blob in blob_parts:
            _V4_U32.pack_into(buf, offset, len(blob))
            offset += _V4_U32.size
            buf[offset : offset + len(blob)] = blob
            offset += len(blob)
    if key is not None:
        buf += hmac.new(key, bytes(buf), hashlib.sha256).digest()
    return bytes(buf)


def _decode_v4_body(code: int, flags: int, body: memoryview) -> Message:
    """Parse one complete v4 body (signature already checked) into a Message."""
    try:
        msg_type = CODE_TO_TYPE[code]
    except KeyError:
        raise ProtocolError(f"unknown wire-v4 message code {code}") from None
    if len(body) < _V4_U32.size:
        raise ProtocolError("wire-v4 body truncated before head length")
    (head_len,) = _V4_U32.unpack_from(body, 0)
    offset = _V4_U32.size
    if offset + head_len > len(body):
        raise ProtocolError("wire-v4 head overruns body")
    try:
        head = json.loads(bytes(body[offset : offset + head_len]))
    except ValueError as exc:
        raise ProtocolError(f"wire-v4 head is not valid JSON: {exc}") from exc
    if not isinstance(head, dict):
        raise ProtocolError("wire-v4 head is not an object")
    offset += head_len
    payload = head.get("payload")
    if not isinstance(payload, dict):
        raise ProtocolError("wire-v4 head lacks a payload object")
    raw_blobs: Optional[dict[str, Any]] = None
    if flags & _V4_FLAG_BLOBS:
        if offset + _V4_U16.size > len(body):
            raise ProtocolError("wire-v4 body truncated before blob count")
        (nblobs,) = _V4_U16.unpack_from(body, offset)
        offset += _V4_U16.size
        blob_parts: list[bytes] = []
        for _ in range(nblobs):
            if offset + _V4_U32.size > len(body):
                raise ProtocolError("wire-v4 body truncated before blob length")
            (blob_len,) = _V4_U32.unpack_from(body, offset)
            offset += _V4_U32.size
            if offset + blob_len > len(body):
                raise ProtocolError("wire-v4 blob overruns body")
            blob_parts.append(bytes(body[offset : offset + blob_len]))
            offset += blob_len
        markers = head.get("_blobs")
        if not isinstance(markers, list):
            raise ProtocolError("wire-v4 blob frame lacks _blobs markers")
        raw_blobs = {}
        index = 0
        try:
            for bkey, count in markers:
                if count == -1:
                    blob = blob_parts[index]
                    index += 1
                    payload[bkey] = json.loads(blob)
                    raw_blobs[bkey] = blob
                else:
                    group = blob_parts[index : index + count]
                    if len(group) != count:
                        raise ProtocolError("wire-v4 _blobs markers overrun blob list")
                    index += count
                    payload[bkey] = [json.loads(blob) for blob in group]
                    raw_blobs[bkey] = group
        except ProtocolError:
            raise
        except (ValueError, TypeError, IndexError) as exc:
            raise ProtocolError(f"wire-v4 blob section malformed: {exc}") from exc
        if index != len(blob_parts):
            raise ProtocolError("wire-v4 blob section has unclaimed blobs")
    if offset != len(body):
        raise ProtocolError("wire-v4 body has trailing bytes")
    return Message(
        type=msg_type,
        sender=head.get("sender", ""),
        payload=payload,
        msg_id=head.get("msg_id", 0),
        blobs=raw_blobs,
    )


class FrameReader:
    """Incremental frame parser.

    Feed it arbitrary byte chunks; it yields a :class:`Message` for
    each completed frame.  TCP gives no message boundaries, so the
    event loop pushes ``recv()`` chunks through one of these.

    An oversized frame or a corrupt header raises
    :class:`ProtocolError` once, then the reader discards exactly the
    advertised body and resynchronises on the next frame boundary — a
    caller that chooses to keep the stream alive loses only the
    offending frame, never the frames behind it.  Bytes that do not
    start with the frame magic have no boundary to resynchronise on,
    so the buffer is dropped.  (The live plane still
    drops the connection on any ProtocolError; resynchronisation is
    for embedders with their own policy.)
    """

    def __init__(self, key: Optional[bytes] = None) -> None:
        self._key = key
        self._buffer = bytearray()
        self._skip = 0  # bytes of an oversized body still to discard

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer) + self._skip

    def feed(self, chunk: bytes) -> Iterator[Message]:
        """Consume *chunk*; yield every message completed by it."""
        self._buffer.extend(chunk)
        while True:
            if self._skip:
                drop = min(self._skip, len(self._buffer))
                del self._buffer[:drop]
                self._skip -= drop
                if self._skip:
                    return
            if not self._buffer:
                return
            message = self._next()
            if message is None:
                return
            yield message

    def _next(self) -> Optional[Message]:
        """Parse one frame, or ``None`` while it is still incomplete."""
        if self._buffer[0] != V4_MAGIC:
            self._buffer.clear()
            raise ProtocolError("stream is not at a frame boundary (bad magic)")
        if len(self._buffer) < _V4_HEADER.size:
            return None
        _magic, version, code, flags, body_len = _V4_HEADER.unpack_from(self._buffer, 0)
        trailer = _V4_DIGEST_BYTES if flags & _V4_FLAG_SIGNED else 0
        if version != PROTOCOL_VERSION or flags & ~_V4_KNOWN_FLAGS:
            # Resync past the advertised body: a corrupt header from a
            # future or broken peer must not poison the frames behind it.
            del self._buffer[: _V4_HEADER.size]
            self._skip = min(body_len, MAX_FRAME_BYTES) + trailer
            if version != PROTOCOL_VERSION:
                raise ProtocolError(f"unsupported binary wire version {version}")
            raise ProtocolError(f"unknown wire-v4 flags 0x{flags:02x}")
        if body_len > MAX_FRAME_BYTES:
            del self._buffer[: _V4_HEADER.size]
            self._skip = body_len + trailer
            raise ProtocolError(f"advertised frame length {body_len} exceeds limit")
        end = _V4_HEADER.size + body_len + trailer
        if len(self._buffer) < end:
            return None
        frame = bytes(self._buffer[:end])
        del self._buffer[:end]
        if self._key is not None:
            if not trailer:
                raise SecurityError("unsigned wire-v4 frame on a keyed channel")
            signed = frame[: _V4_HEADER.size + body_len]
            digest = hmac.new(self._key, signed, hashlib.sha256).digest()
            if not hmac.compare_digest(digest, frame[-_V4_DIGEST_BYTES:]):
                raise SecurityError("frame signature mismatch")
        elif trailer:
            raise SecurityError("signed wire-v4 frame on an unkeyed channel")
        body = memoryview(frame)[_V4_HEADER.size : _V4_HEADER.size + body_len]
        return _decode_v4_body(code, flags, body)
