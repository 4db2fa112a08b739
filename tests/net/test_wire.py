"""Unit and property tests for the wire codec and message vocabulary."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError, SecurityError
from repro.net import FrameReader, Message, MessageType, encode_message_v4
from repro.net.wire import MAX_FRAME_BYTES, V4_MAGIC

KEY = b"shared-secret"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**31), 2**31) | st.text(max_size=30),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)


def frame(payload, key=None):
    """One SUBMIT frame carrying *payload*."""
    return encode_message_v4(Message(MessageType.SUBMIT, sender="t", payload=payload),
                             key=key)


def decode_one(data, key=None):
    """The payload of the single complete frame in *data*."""
    reader = FrameReader(key=key)
    messages = list(reader.feed(data))
    if len(messages) != 1 or reader.pending_bytes:
        raise ProtocolError(f"expected exactly one complete frame, got {len(messages)}")
    return messages[0].payload


def payloads_of(messages):
    return [m.payload for m in messages]


def test_roundtrip_plain():
    payload = {"type": "submit", "tasks": [1, 2, 3]}
    assert decode_one(frame(payload)) == payload


def test_roundtrip_signed():
    payload = {"hello": "world"}
    assert decode_one(frame(payload, key=KEY), key=KEY) == payload


def test_tampered_signed_frame_rejected():
    data = bytearray(frame({"amount": 1}, key=KEY))
    # Flip a byte inside the head JSON (after the 8-byte header).
    data[12] ^= 0x01
    with pytest.raises((SecurityError, ProtocolError)):
        decode_one(bytes(data), key=KEY)


def test_signed_frame_rejected_without_key():
    with pytest.raises(SecurityError):
        decode_one(frame({"x": 1}, key=KEY))


def test_wrong_key_rejected():
    with pytest.raises(SecurityError):
        decode_one(frame({"x": 1}, key=KEY), key=b"other-key")


def test_missing_envelope_rejected():
    # A keyed reader refuses a frame without its signature trailer.
    with pytest.raises(SecurityError):
        decode_one(frame({"body": 1}), key=KEY)


def test_frame_reader_handles_fragmentation():
    payloads = [{"n": i} for i in range(5)]
    stream = b"".join(frame(p) for p in payloads)
    reader = FrameReader()
    got = []
    # Feed one byte at a time: worst-case TCP fragmentation.
    for i in range(len(stream)):
        got.extend(reader.feed(stream[i : i + 1]))
    assert payloads_of(got) == payloads
    assert reader.pending_bytes == 0


def test_frame_reader_handles_coalescing():
    payloads = [{"n": i} for i in range(10)]
    stream = b"".join(frame(p) for p in payloads)
    reader = FrameReader()
    assert payloads_of(reader.feed(stream)) == payloads


def test_frame_reader_rejects_oversized_header():
    reader = FrameReader()
    with pytest.raises(ProtocolError):
        list(reader.feed(struct.pack(">BBBBI", V4_MAGIC, 4, 4, 0, 2**31)))


def test_frame_reader_rejects_bad_magic():
    reader = FrameReader()
    with pytest.raises(ProtocolError):
        list(reader.feed(struct.pack(">I", 5) + b"hello"))
    # No boundary to resync on: the garbage is dropped, not re-parsed.
    assert reader.pending_bytes == 0
    assert payloads_of(reader.feed(frame({"n": 1}))) == [{"n": 1}]


def test_frame_reader_oversized_frame_does_not_poison_stream():
    before = frame({"n": "before"})
    oversized_len = MAX_FRAME_BYTES + 1
    after = frame({"n": "after"})
    reader = FrameReader()
    assert payloads_of(reader.feed(before)) == [{"n": "before"}]
    with pytest.raises(ProtocolError):
        list(reader.feed(struct.pack(">BBBBI", V4_MAGIC, 4, 4, 0, oversized_len)))
    # Stream the advertised-but-bogus body in chunks, with the next
    # good frame appended mid-way: the reader must discard exactly the
    # oversized body, then resynchronise and parse the good frame.
    junk = b"x" * oversized_len
    got = []
    got.extend(reader.feed(junk[: oversized_len // 2]))
    got.extend(reader.feed(junk[oversized_len // 2 :] + after))
    assert payloads_of(got) == [{"n": "after"}]
    assert reader.pending_bytes == 0


def test_frame_reader_rejects_former_blob_flag_and_resyncs():
    # Flag 0x02 once announced a blob section after the head; the codec
    # no longer has one, so the bit is unknown like any other.
    bad = bytearray(frame({"n": "blob"}))
    bad[3] = 0x02  # the header's flags byte
    reader = FrameReader()
    with pytest.raises(ProtocolError, match="unknown wire-v4 flags 0x02"):
        list(reader.feed(bytes(bad) + frame({"n": "after"})))
    # The reader skipped exactly the advertised body: the next frame,
    # already buffered, parses intact.
    assert payloads_of(reader.feed(b"")) == [{"n": "after"}]
    assert reader.pending_bytes == 0


def test_frame_reader_rejects_bad_json():
    head = b"{not json"
    body = struct.pack(">I", len(head)) + head
    with pytest.raises(ProtocolError):
        list(FrameReader().feed(struct.pack(">BBBBI", V4_MAGIC, 4, 4, 0, len(body)) + body))


def test_decode_frame_rejects_partial():
    data = frame({"a": 1})
    with pytest.raises(ProtocolError):
        decode_one(data[:-1])
    with pytest.raises(ProtocolError):
        decode_one(data + data)


@given(json_values)
def test_roundtrip_property_plain(value):
    assert decode_one(frame({"v": value})) == {"v": value}


@given(json_values)
def test_roundtrip_property_signed(value):
    assert decode_one(frame({"v": value}, key=KEY), key=KEY) == {"v": value}


@given(st.lists(json_values, min_size=1, max_size=8), st.integers(1, 64))
def test_fragmented_stream_property(values, chunk):
    payloads = [{"v": v} for v in values]
    stream = b"".join(frame(p) for p in payloads)
    reader = FrameReader()
    got = []
    for i in range(0, len(stream), chunk):
        got.extend(reader.feed(stream[i : i + chunk]))
    assert payloads_of(got) == payloads


def test_message_roundtrip():
    msg = Message(MessageType.SUBMIT, sender="client-1", payload={"tasks": []})
    [parsed] = FrameReader().feed(encode_message_v4(msg))
    assert parsed.type is MessageType.SUBMIT
    assert parsed.sender == "client-1"
    assert parsed.msg_id == msg.msg_id


def test_message_ids_increase():
    a = Message(MessageType.NOTIFY)
    b = Message(MessageType.NOTIFY)
    assert b.msg_id > a.msg_id


def test_message_rejects_unknown_wire_code():
    data = bytearray(frame({}))
    data[2] = 0xEE  # the header's message-type code
    with pytest.raises(ProtocolError):
        decode_one(bytes(data))
