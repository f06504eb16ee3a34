"""Tests for the binary wire codec and serialized-transport conformance."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Domain, PrismSystem, Relation
from repro.exceptions import ProtocolError
from repro.network.codec import (
    FULL_SPAN,
    MAGIC,
    VERSION,
    WIRE_DTYPES,
    decode,
    decode_frame,
    encode,
    encode_frame,
)


class TestRoundTrips:
    def test_vector(self):
        vec = np.asarray([0, 1, -5, 2**62], dtype=np.int64)
        out = decode(encode(vec))
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, vec)
        assert out.dtype == np.int64

    def test_empty_vector(self):
        out = decode(encode(np.asarray([], dtype=np.int64)))
        assert out.shape == (0,)

    @given(st.integers(-(2**300), 2**300))
    @settings(max_examples=60, deadline=None)
    def test_bigint(self, value):
        assert decode(encode(value)) == value

    def test_none(self):
        assert decode(encode(None)) is None

    def test_string(self):
        assert decode(encode("psi-output-λ")) == "psi-output-λ"

    def test_list_and_tuple(self):
        payload = [1, (2, 3), "x", None]
        out = decode(encode(payload))
        assert out == [1, (2, 3), "x", None]
        assert isinstance(out[1], tuple)

    def test_dict(self):
        payload = {"value": (10, 20), "index": (1, 2), "note": None}
        assert decode(encode(payload)) == payload

    def test_nested_protocol_shapes(self):
        # The announcer's reply shape and an fpos vector.
        announce = {"value": (2**150, 7), "index": (0, 3)}
        assert decode(encode(announce)) == announce
        fpos = [0, 1, 1, 0, 2**90]
        assert decode(encode(fpos)) == fpos

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_int_list_property(self, values):
        assert decode(encode(values)) == values


class TestValidation:
    def test_bad_magic(self):
        blob = bytearray(encode(5))
        blob[0] = MAGIC ^ 0xFF
        with pytest.raises(ProtocolError):
            decode(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(encode(5))
        blob[1] = 99
        with pytest.raises(ProtocolError):
            decode(bytes(blob))

    def test_truncated(self):
        blob = encode(np.arange(10))
        with pytest.raises(ProtocolError):
            decode(blob[:-4])

    def test_trailing_garbage(self):
        with pytest.raises(ProtocolError):
            decode(encode(5) + b"xx")

    def test_too_short(self):
        with pytest.raises(ProtocolError):
            decode(b"\x5a")

    def test_unknown_tag(self):
        import struct
        blob = struct.pack("<BBB", MAGIC, VERSION, 200)
        with pytest.raises(ProtocolError):
            decode(blob)

    def test_matrix_roundtrip(self):
        """2-D batch matrices (fused multi-query streams) are a wire type."""
        matrix = np.arange(12, dtype=np.int64).reshape(3, 4) - 5
        decoded = decode(encode(matrix))
        assert decoded.shape == (3, 4)
        assert np.array_equal(decoded, matrix)

    def test_empty_matrix_roundtrip(self):
        decoded = decode(encode(np.zeros((0, 7), dtype=np.int64)))
        assert decoded.shape == (0, 7)

    def test_truncated_matrix(self):
        blob = encode(np.ones((4, 4), dtype=np.int64))
        with pytest.raises(ProtocolError):
            decode(blob[:-8])

    def test_truncated_matrix_header(self):
        blob = encode(np.ones((2, 2), dtype=np.int64))
        with pytest.raises(ProtocolError):
            decode(blob[:6])

    def test_3d_array_rejected(self):
        with pytest.raises(ProtocolError):
            encode(np.zeros((2, 2, 2), dtype=np.int64))

    def test_bool_roundtrips_as_bool(self):
        # Booleans have a dedicated tag (the RPC kernel flag lists):
        # they must come back as bools, never as 0/1 ints.
        for flag in (True, False):
            out = decode(encode(flag))
            assert out is flag

    def test_int_keyed_map_roundtrips(self):
        # The extrema rounds key share dicts by owner id.
        payload = {0: 2**90, 1: 7, 2: -3}
        out = decode(encode(payload))
        assert out == payload
        assert all(isinstance(k, int) for k in out)

    def test_container_map_key_rejected(self):
        with pytest.raises(ProtocolError):
            encode({(1, 2): 3})

    def test_opaque_object_rejected(self):
        with pytest.raises(ProtocolError):
            encode(object())

    def test_opaque_map_key_rejected(self):
        with pytest.raises(ProtocolError):
            encode({object(): 1})


class TestSerializedTransportConformance:
    """Every protocol must survive a real encode/decode per message."""

    def make(self, **kwargs):
        relations = [
            Relation("a", {"k": [1, 2, 3], "v": [10, 20, 30]}),
            Relation("b", {"k": [2, 3, 4], "v": [1, 2, 3]}),
            Relation("c", {"k": [2, 3, 5], "v": [5, 6, 7]}),
        ]
        return PrismSystem.build(relations, Domain.integer_range("k", 8),
                                 "k", agg_attributes=("v",),
                                 with_verification=True,
                                 serialize_transport=True, seed=3, **kwargs)

    def test_all_protocols_over_wire(self):
        system = self.make()
        assert set(system.psi("k", verify=True).values) == {2, 3}
        assert set(system.psu("k", verify=True).values) == {1, 2, 3, 4, 5}
        assert system.psi_count("k", verify=True).count == 2
        assert system.psi_sum("k", "v", verify=True)["v"].per_value == {
            2: 26, 3: 38}
        assert system.psi_max("k", "v").per_value == {2: 20, 3: 30}
        assert system.psi_median("k", "v").per_value == {2: 5, 3: 6}

    def test_bucketized_over_wire(self):
        system = self.make()
        system.outsource_bucketized("k", fanout=2)
        result, _ = system.bucketized_psi("k")
        assert set(result.values) == {2, 3}

    def test_wire_bytes_match_model(self):
        from repro.analysis import CostModel
        system = self.make()
        system.transport.reset()
        system.psi("k")
        measured = system.transport.stats.summary()["server_to_owner_bytes"]
        # The unified execution path ships every query as a batch of one,
        # so each server's output is a (1, b) uint16 matrix whose wire
        # framing is 20 bytes per message (magic, version, tag, dtype,
        # rows, cols) on top of the model's raw share bytes.
        predicted = CostModel(3, 8).psi()
        assert predicted.server_to_owner_bytes == 2 * 3 * 8 * 2
        messages = 2 * 3  # 2 servers broadcast to 3 owners
        assert measured == predicted.server_to_owner_bytes + 20 * messages


# -- satellite hardening: fuzz/property coverage for every tag ---------------
#
# Frames arrive from real sockets now (the deployment channels), so the
# decoder must turn *any* malformed byte string into a ProtocolError —
# never an unhandled struct/unicode/recursion error — and every tag must
# round-trip exactly.

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=False, allow_infinity=True),
    st.text(max_size=20),
    st.binary(max_size=20),
)

def _arrays_of(dtype, shape):
    info = np.iinfo(dtype)
    return st.lists(st.integers(int(info.min), int(info.max)),
                    min_size=int(np.prod(shape)),
                    max_size=int(np.prod(shape))).map(
        lambda v: np.asarray(v, dtype=dtype).reshape(shape))


#: Every wire dtype tag, narrow share widths first.
wire_dtypes = st.sampled_from(WIRE_DTYPES)

vectors = st.tuples(wire_dtypes, st.integers(0, 16)).flatmap(
    lambda dn: _arrays_of(dn[0], (dn[1],)))

matrices = st.tuples(wire_dtypes, st.integers(0, 4),
                     st.integers(0, 4)).flatmap(
    lambda drc: _arrays_of(drc[0], (drc[1], drc[2])))


def payloads(depth=2):
    if depth == 0:
        return st.one_of(scalars, vectors, matrices)
    inner = payloads(depth - 1)
    return st.one_of(
        scalars,
        vectors,
        matrices,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(st.integers(0, 50), inner, max_size=4),
    )


def assert_payload_equal(left, right):
    if isinstance(left, np.ndarray):
        assert isinstance(right, np.ndarray)
        assert left.shape == right.shape
        assert left.dtype == right.dtype
        assert np.array_equal(left, right)
        return
    assert type(right) is type(left) or (
        isinstance(left, (int, float)) and isinstance(right, (int, float)))
    if isinstance(left, dict):
        assert left.keys() == right.keys()
        for key in left:
            assert_payload_equal(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_payload_equal(a, b)
    else:
        assert left == right


class TestEveryTagRoundTrips:
    @given(payloads())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, payload):
        assert_payload_equal(payload, decode(encode(payload)))

    def test_bytes_tag(self):
        blob = bytes(range(256))
        assert decode(encode(blob)) == blob
        assert decode(encode(bytearray(b"xy"))) == b"xy"

    def test_float_tag(self):
        for value in (0.0, -1.5, 1e300, float("inf"), float("-inf")):
            assert decode(encode(value)) == value
        out = decode(encode(float("nan")))
        assert math.isnan(out)

    def test_numpy_scalars(self):
        assert decode(encode(np.int64(7))) == 7
        assert decode(encode(np.float64(1.25))) == 1.25
        assert decode(encode(np.bool_(True))) is True


class TestDecoderHardening:
    @given(payloads(depth=1), st.integers(0, 400))
    @settings(max_examples=150, deadline=None)
    def test_every_strict_prefix_raises(self, payload, cut):
        blob = encode(payload)
        prefix = blob[:min(cut, len(blob) - 1)]
        with pytest.raises(ProtocolError):
            decode(prefix)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_garbage_never_escapes_protocolerror(self, blob):
        try:
            decode(blob)
        except ProtocolError:
            pass  # the only acceptable failure mode

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_garbage_with_valid_header(self, body):
        try:
            decode(struct.pack("<BB", MAGIC, VERSION) + body)
        except ProtocolError:
            pass

    def test_bad_magic_and_version(self):
        blob = bytearray(encode(5))
        blob[0] ^= 0xFF
        with pytest.raises(ProtocolError):
            decode(bytes(blob))
        blob = bytearray(encode(5))
        blob[1] = 200
        with pytest.raises(ProtocolError):
            decode(bytes(blob))

    def test_unknown_tag_raises(self):
        for tag in (0, 13, 57, 255):
            with pytest.raises(ProtocolError):
                decode(struct.pack("<BBB", MAGIC, VERSION, tag))

    def test_non_utf8_string_raises(self):
        blob = struct.pack("<BBBQ", MAGIC, VERSION, 7, 2) + b"\xff\xfe"
        with pytest.raises(ProtocolError):
            decode(blob)

    def test_depth_bomb_raises_not_recurses(self):
        # 2000 nested single-item lists: must hit the depth cap, not
        # the interpreter's recursion limit.
        bomb = struct.pack("<BB", MAGIC, VERSION)
        bomb += struct.pack("<BQ", 3, 1) * 2000 + struct.pack("<B", 6)
        with pytest.raises(ProtocolError):
            decode(bomb)

    def test_deep_payload_encode_rejected(self):
        payload = None
        for _ in range(100):
            payload = [payload]
        with pytest.raises(ProtocolError):
            encode(payload)

    def test_huge_vector_length_raises(self):
        blob = struct.pack("<BBBBQ", MAGIC, VERSION, 1, 7, 2**60)
        with pytest.raises(ProtocolError):
            decode(blob)

    def test_huge_matrix_header_raises(self):
        blob = struct.pack("<BBBBQQ", MAGIC, VERSION, 8, 7, 2**32, 2**32)
        with pytest.raises(ProtocolError):
            decode(blob)

    def test_bad_bool_byte_raises(self):
        blob = struct.pack("<BBBB", MAGIC, VERSION, 9, 7)
        with pytest.raises(ProtocolError):
            decode(blob)


class TestDtypeTags:
    """Arrays travel at their own width and decode to exactly it."""

    @pytest.mark.parametrize("dtype", WIRE_DTYPES, ids=str)
    def test_every_width_roundtrips_exactly(self, dtype):
        info = np.iinfo(dtype)
        vec = np.asarray([info.min, 0, 1, info.max], dtype=dtype)
        out = decode(encode(vec))
        assert out.dtype == dtype.newbyteorder("=")
        np.testing.assert_array_equal(out, vec)
        matrix = np.tile(vec, (3, 1))
        out = decode(encode(matrix))
        assert out.dtype == dtype.newbyteorder("=")
        np.testing.assert_array_equal(out, matrix)

    def test_uint64_above_int64_is_not_reinterpreted(self):
        vec = np.asarray([2**63 + 5], dtype=np.uint64)
        out = decode(encode(vec))
        assert out.dtype == np.uint64 and int(out[0]) == 2**63 + 5

    def test_narrow_vectors_cost_their_width(self):
        for dtype, itemsize in ((np.uint8, 1), (np.uint16, 2),
                                (np.uint32, 4)):
            vec = np.arange(100, dtype=dtype)
            # magic, version, tag, dtype byte, u64 length, then the body.
            assert len(encode(vec)) == 12 + 100 * itemsize

    def test_big_endian_input_travels_little_endian(self):
        vec = np.asarray([1, 2, 70000], dtype=">u4")
        out = decode(encode(vec))
        assert out.dtype == np.uint32
        np.testing.assert_array_equal(out, [1, 2, 70000])

    @pytest.mark.parametrize("array", [
        np.asarray([0.7, 2.9]),
        np.asarray([0.5], dtype=np.float32),
        np.asarray([True, False]),
        np.asarray([1 + 2j]),
        np.asarray([1, 2], dtype=object),
        np.zeros((2, 2), dtype=np.float64),
    ], ids=["float64", "float32", "bool", "complex", "object", "matrix"])
    def test_non_integer_arrays_are_refused(self, array):
        with pytest.raises(ProtocolError, match="integer"):
            encode(array)
        with pytest.raises(ProtocolError, match="integer"):
            encode_frame("m", 1, FULL_SPAN, {"a": [array]})

    @pytest.mark.parametrize("dtype", WIRE_DTYPES[:3], ids=str)
    def test_truncated_narrow_frames_raise(self, dtype):
        for payload in (np.arange(7, dtype=dtype),
                        np.arange(6, dtype=dtype).reshape(2, 3)):
            blob = encode(payload)
            for cut in range(len(blob)):
                with pytest.raises(ProtocolError):
                    decode(blob[:cut])

    @pytest.mark.parametrize("tag_offset,payload", [
        (3, np.arange(4, dtype=np.uint16)),
        (3, np.arange(6, dtype=np.uint16).reshape(2, 3)),
    ], ids=["vector", "matrix"])
    def test_wrong_dtype_byte_raises(self, tag_offset, payload):
        blob = bytearray(encode(payload))
        for code in (len(WIRE_DTYPES), 57, 255):
            blob[tag_offset] = code
            with pytest.raises(ProtocolError, match="dtype"):
                decode(bytes(blob))
        # A valid code of another width mislabels the body: the decoder
        # comes up short or long, never with a silently re-cut array.
        for code in (0, 2, 3):
            blob[tag_offset] = code
            with pytest.raises(ProtocolError):
                decode(bytes(blob))


class TestFrames:
    def test_roundtrip(self):
        payload = {"a": [np.arange(4, dtype=np.int64), "psi"], "k": {"x": 1}}
        blob = encode_frame("psi_round_batch", 42, (0, 100), payload)
        frame = decode_frame(blob)
        assert frame.kind == "psi_round_batch"
        assert frame.correlation_id == 42
        assert frame.span == (0, 100)
        assert np.array_equal(frame.payload["a"][0], np.arange(4))

    def test_full_span_default(self):
        frame = decode_frame(encode_frame("__ping__", 1, FULL_SPAN, None))
        assert frame.span == FULL_SPAN
        assert frame.payload is None

    @given(st.integers(0, 2**63 - 1), payloads(depth=1))
    @settings(max_examples=60, deadline=None)
    def test_correlation_and_payload_survive(self, correlation_id, payload):
        frame = decode_frame(
            encode_frame("m", correlation_id, (3, 9), payload))
        assert frame.correlation_id == correlation_id
        assert frame.span == (3, 9)
        assert_payload_equal(payload, frame.payload)

    def test_payload_magic_is_not_a_frame(self):
        with pytest.raises(ProtocolError):
            decode_frame(encode(5))

    def test_frame_magic_is_not_a_payload(self):
        with pytest.raises(ProtocolError):
            decode(encode_frame("m", 1, FULL_SPAN, None))

    def test_bad_span_rejected_both_ways(self):
        with pytest.raises(ProtocolError):
            encode_frame("m", 1, (5, 2), None)
        blob = bytearray(encode_frame("m", 1, (2, 5), None))
        # lo=7 > hi=5 in the fixed-offset span slots of the envelope.
        blob[10:18] = struct.pack("<q", 7)
        with pytest.raises(ProtocolError):
            decode_frame(bytes(blob))

    def test_non_string_kind_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame(None, 1, FULL_SPAN, None)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(encode_frame("m", 1, FULL_SPAN, None) + b"z")

    @given(st.binary(min_size=0, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_frame_garbage_never_escapes_protocolerror(self, blob):
        try:
            decode_frame(blob)
        except ProtocolError:
            pass


# -- the reply multiplexer ----------------------------------------------------


def _mux():
    """A socket-free mux connection (protocol half only)."""
    from repro.network.dispatch import _MuxConnection
    return _MuxConnection(None, "test", None)


def _issue(conn, n):
    """Register ``n`` pipelined requests; returns their reply handles."""
    from repro.network.rpc import RpcMessage
    return [conn.request(RpcMessage("psi_round_batch", {"q": i}))
            for i in range(n)]


def _reply_bytes(correlation_id, payload, kind="__result__"):
    blob = encode_frame(kind, correlation_id, FULL_SPAN, payload)
    return struct.pack("<Q", len(blob)) + blob


class TestReplyMultiplexer:
    """Routing invariants of the dispatch-loop connection.

    Property-tested offline: :class:`_MuxConnection`'s protocol half is
    pure byte-stream logic, so out-of-order replies, arbitrary chunk
    boundaries, truncation, and garbage are all drivable without
    sockets — and none of them may ever deliver a frame to the wrong
    future.
    """

    @given(st.permutations(list(range(1, 7))))
    @settings(max_examples=40, deadline=None)
    def test_out_of_order_replies_route_by_correlation_id(self, order):
        conn = _mux()
        pending = _issue(conn, 6)
        for correlation_id in order:
            conn.receive_bytes(_reply_bytes(correlation_id,
                                            {"echo": correlation_id}))
        for index, handle in enumerate(pending):
            reply = handle.result(0)
            assert reply.payload == {"echo": index + 1}
        assert conn.in_flight == 0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_chunk_boundaries_never_misdeliver(self, data):
        conn = _mux()
        count = data.draw(st.integers(2, 5))
        pending = _issue(conn, count)
        stream = b"".join(_reply_bytes(i, {"echo": i})
                          for i in range(1, count + 1))
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(stream)), max_size=8)))
        pieces = [stream[lo:hi]
                  for lo, hi in zip([0] + cuts, cuts + [len(stream)])]
        for piece in pieces:
            conn.receive_bytes(piece)
        for index, handle in enumerate(pending):
            assert handle.result(0).payload == {"echo": index + 1}

    def test_truncated_frame_waits_then_connection_loss_fails_all(self):
        from repro.network.dispatch import ConnectionLost
        conn = _mux()
        first, second = _issue(conn, 2)
        whole = _reply_bytes(1, {"echo": 1})
        truncated = _reply_bytes(2, {"echo": 2})[:-3]
        conn.receive_bytes(whole + truncated)
        assert first.result(0).payload == {"echo": 1}
        # The partial frame must wait for more bytes, not deliver.
        assert conn.in_flight == 1
        conn.connection_lost(ConnectionLost("host died mid-frame"))
        with pytest.raises(ConnectionLost, match="mid-frame"):
            second.result(0)
        # Nothing can land after a loss — the stream is poisoned.
        assert conn.closed

    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_garbage_frames_poison_never_misdeliver(self, junk):
        conn = _mux()
        (handle,) = _issue(conn, 1)
        stream = struct.pack("<Q", len(junk)) + junk
        try:
            conn.receive_bytes(stream)
        except ProtocolError:
            return  # poisoned loudly: the only acceptable failure mode
        # Junk that happens to parse as a frame must still have routed
        # by our correlation id — never to a future we did not issue.
        if handle._future.done():
            frame = decode_frame(handle._future.result())
            assert frame.correlation_id == 1

    def test_unsolicited_correlation_id_is_a_protocol_error(self):
        conn = _mux()
        _issue(conn, 1)
        with pytest.raises(ProtocolError, match="unsolicited"):
            conn.receive_bytes(_reply_bytes(99, None))

    def test_error_frame_with_zero_cid_reaches_oldest_request(self):
        # A host that cannot decode a request never learns its
        # correlation id; it answers cid 0 and serves strictly in
        # order, so the error belongs to the oldest in-flight request.
        conn = _mux()
        oldest, newer = _issue(conn, 2)
        conn.receive_bytes(_reply_bytes(
            0, {"type": "ProtocolError", "message": "undecodable request"},
            kind="__error__"))
        with pytest.raises(ProtocolError, match="undecodable"):
            oldest.result(0)
        assert conn.in_flight == 1
        assert not newer._future.done()

    def test_oversized_length_prefix_rejected(self):
        conn = _mux()
        _issue(conn, 1)
        with pytest.raises(ProtocolError, match="wire cap"):
            conn.receive_bytes(struct.pack("<Q", 1 << 60) + b"x")


# -- zero-copy decode ----------------------------------------------------------


def _buffer_address(buf) -> int:
    return np.frombuffer(buf, dtype=np.uint8).__array_interface__["data"][0]


@pytest.mark.skipif(__import__("sys").byteorder != "little",
                    reason="zero-copy views are little-endian only")
class TestZeroCopyDecode:
    """Decoding a share vector must not copy it (the hot-path fix).

    An immutable ``bytes`` frame backs the returned read-only array
    directly; the regression asserts the array's data pointer lies
    *inside* the frame buffer, so any reintroduced ``.astype``/copy
    fails loudly.
    """

    def test_vector_decode_is_a_view_into_the_frame(self):
        vec = np.arange(4096, dtype=np.int64)
        blob = encode(vec)
        out = decode(blob)
        base, addr = _buffer_address(blob), out.__array_interface__["data"][0]
        assert base <= addr < base + len(blob), "decode copied the vector"
        assert not out.flags.writeable
        np.testing.assert_array_equal(out, vec)

    def test_matrix_decode_is_a_view_into_the_frame(self):
        matrix = np.arange(64 * 32, dtype=np.int64).reshape(64, 32)
        blob = encode(matrix)
        out = decode(blob)
        base, addr = _buffer_address(blob), out.__array_interface__["data"][0]
        assert base <= addr < base + len(blob), "decode copied the matrix"
        np.testing.assert_array_equal(out, matrix)

    def test_framed_vector_decode_is_a_view(self):
        vec = np.arange(2048, dtype=np.int64)
        blob = encode_frame("receive_shares", 7, FULL_SPAN,
                            {"a": [vec], "k": {}})
        out = decode_frame(blob).payload["a"][0]
        base, addr = _buffer_address(blob), out.__array_interface__["data"][0]
        assert base <= addr < base + len(blob), "frame decode copied"

    def test_mutable_buffers_copy_defensively(self):
        # A bytearray is a reused receive window: a view into it would
        # be corrupted by the next read, so the decoder must copy.
        vec = np.arange(512, dtype=np.int64)
        window = bytearray(encode(vec))
        out = decode(window)
        window[-8:] = b"\xff" * 8  # clobber the window post-decode
        np.testing.assert_array_equal(out, vec)


# -- shared-memory frames ------------------------------------------------------


class TestShmFrames:
    def _arena(self, size=1 << 20):
        from repro.network.shm import ShmArena
        return ShmArena(size)

    def test_large_vector_rides_the_arena(self):
        arena = self._arena()
        vec = np.arange(5000, dtype=np.int64)  # 40 KB, above threshold
        blob = encode_frame("receive_shares", 1, FULL_SPAN,
                            {"a": [vec], "k": {}}, arena=arena)
        # The socket frame carries a constant-size reference, not 40 KB.
        assert len(blob) < 256
        frame = decode_frame(blob, arena=arena)
        np.testing.assert_array_equal(frame.payload["a"][0], vec)
        arena.close()

    def test_matrix_rides_the_arena(self):
        arena = self._arena()
        matrix = np.arange(300 * 7, dtype=np.int64).reshape(300, 7)
        blob = encode_frame("m", 2, FULL_SPAN, matrix, arena=arena)
        assert len(blob) < 256
        out = decode_frame(blob, arena=arena).payload
        assert out.shape == (300, 7)
        np.testing.assert_array_equal(out, matrix)
        arena.close()

    def test_small_payload_stays_inline(self):
        arena = self._arena()
        vec = np.arange(16, dtype=np.int64)  # below _SHM_MIN_BYTES
        blob = encode_frame("m", 3, FULL_SPAN, vec, arena=arena)
        # Inline frames need no arena to decode.
        np.testing.assert_array_equal(decode_frame(blob).payload, vec)
        arena.close()

    def test_shm_frame_without_arena_is_a_typed_error(self):
        # An shm reference must never cross a host boundary: decoding
        # one without an arena is a protocol violation, not a crash.
        arena = self._arena()
        vec = np.arange(5000, dtype=np.int64)
        blob = encode_frame("m", 4, FULL_SPAN, vec, arena=arena)
        with pytest.raises(ProtocolError, match="arena"):
            decode_frame(blob)
        arena.close()

    def test_full_arena_falls_back_inline(self):
        arena = self._arena(size=4096)
        vec = np.arange(5000, dtype=np.int64)  # 40 KB > 4 KB arena
        blob = encode_frame("m", 5, FULL_SPAN, vec, arena=arena)
        # Fallback emitted the plain inline tag: decodes with no arena.
        np.testing.assert_array_equal(decode_frame(blob).payload, vec)
        arena.close()

    def test_out_of_bounds_reference_rejected(self):
        arena = self._arena(size=4096)
        u16 = np.dtype("<u2")
        with pytest.raises(ProtocolError, match="arena"):
            arena.read_array(offset=4000, count=100, dtype=u16)
        with pytest.raises(ProtocolError, match="arena"):
            arena.read_array(offset=-8, count=1, dtype=u16)
        # The bound is in bytes: 48 uint16s at 4000 fit, 49 do not.
        assert arena.read_array(offset=4000, count=48, dtype=u16).size == 48
        with pytest.raises(ProtocolError, match="arena"):
            arena.read_array(offset=4000, count=49, dtype=u16)
        arena.close()

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_narrow_arrays_ride_the_arena(self, dtype):
        arena = self._arena()
        vec = (np.arange(6000) % 200).astype(dtype)
        matrix = vec[:4800].reshape(3, 1600)
        for payload in (vec, matrix):
            blob = encode_frame("m", 6, FULL_SPAN, payload, arena=arena)
            assert len(blob) < 256
            out = decode_frame(blob, arena=arena).payload
            assert out.dtype == dtype
            np.testing.assert_array_equal(out, payload)
            arena.reset()
        arena.close()

    def test_narrow_shm_reference_hardening(self):
        arena = self._arena(size=1 << 14)
        vec = np.arange(4096, dtype=np.uint16)
        blob = bytearray(encode_frame("m", 7, FULL_SPAN, vec, arena=arena))
        # Every strict prefix of the reference is a typed error.
        for cut in range(len(blob)):
            with pytest.raises(ProtocolError):
                decode_frame(bytes(blob[:cut]), arena=arena)
        # The dtype byte follows the shm tag: an unknown code is refused,
        # and a wider code pushes the reference past the arena's end.
        # A vector reference closes the frame: tag, dtype, offset, length.
        tag_at = len(blob) - 18
        assert blob[tag_at] == 13  # the shared-memory vector tag
        blob[tag_at + 1] = 200
        with pytest.raises(ProtocolError, match="dtype"):
            decode_frame(bytes(blob), arena=arena)
        blob[tag_at + 1] = WIRE_DTYPES.index(np.dtype("<u8"))
        with pytest.raises(ProtocolError, match="arena"):
            decode_frame(bytes(blob), arena=arena)
        arena.close()

    def test_reset_reuses_the_arena(self):
        arena = self._arena(size=1 << 16)
        vec = np.arange(4096, dtype=np.int64)  # 32 KB, half the arena
        first = arena.write_array(vec)
        assert arena.write_array(vec) != first  # bump allocation
        arena.reset()
        assert arena.write_array(vec) == first  # per-frame scratch
        arena.close()


# -- typed lists and columnar maps ---------------------------------------------

_INT_LIST, _FLOAT_LIST, _COLUMNS = 15, 16, 17


def _tag_of(payload) -> int:
    return encode(payload)[2]


class TestTypedBodies:
    """Int and float lists travel as one packed body; non-string-keyed
    maps as a keys column and a values column."""

    def test_int_list_exact_size(self):
        for n in (1, 2, 100, 2176):
            # magic, version, tag, u64 count, then 8 bytes per item.
            assert len(encode([0] * n)) == 11 + 8 * n
        assert len(encode([])) == 11

    def test_int64_edges_stay_typed(self):
        edges = [2**63 - 1, -(2**63 - 1), -(2**63), 0, -1]
        assert _tag_of(edges) == _INT_LIST
        out = decode(encode(edges))
        assert out == edges
        assert all(type(v) is int for v in out)

    @pytest.mark.parametrize("big", [2**63, -(2**63) - 1, 2**200])
    def test_ints_outside_int64_fall_back(self, big):
        payload = [1, big, -3]
        assert _tag_of(payload) == 3
        out = decode(encode(payload))
        assert out == payload
        assert all(type(v) is int for v in out)

    def test_bools_keep_their_type(self):
        payload = [True, 1]
        assert _tag_of(payload) == 3
        out = decode(encode(payload))
        assert out == [True, 1]
        assert type(out[0]) is bool and type(out[1]) is int
        flags = decode(encode([True, False]))
        assert [type(f) for f in flags] == [bool, bool]

    def test_numpy_ints_decode_to_python_ints(self):
        payload = [np.int64(3), np.uint8(250), np.int32(-7)]
        assert _tag_of(payload) == 3
        out = decode(encode(payload))
        assert out == [3, 250, -7]
        assert all(type(v) is int for v in out)

    def test_mixed_lists_stay_generic(self):
        payload = [1, 2.0, "x", None]
        assert _tag_of(payload) == 3
        out = decode(encode(payload))
        assert out == payload
        assert [type(v) for v in out] == [int, float, str, type(None)]

    def test_float_bits_are_exact(self):
        nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
        payload = [float("inf"), float("-inf"), -0.0, 0.0, nan, 1e-310,
                   1.5]
        assert _tag_of(payload) == _FLOAT_LIST
        assert len(encode(payload)) == 11 + 8 * len(payload)
        out = decode(encode(payload))
        assert all(type(v) is float for v in out)
        assert ([struct.pack("<d", v) for v in out]
                == [struct.pack("<d", v) for v in payload])

    def test_int_keyed_map_is_columnar(self):
        payload = {5: 10, -2: 2**62, 7: 0}
        blob = encode(payload)
        assert blob[2] == _COLUMNS
        # Tag, then two typed lists of three items.
        assert len(blob) == 3 + 2 * (9 + 8 * 3)
        out = decode(blob)
        assert out == payload and list(out) == [5, -2, 7]
        assert all(type(k) is int and type(v) is int
                   for k, v in out.items())

    def test_float_valued_map(self):
        payload = {v: v / 3 for v in range(1, 50)}
        out = decode(encode(payload))
        assert out == payload
        assert all(type(v) is float for v in out.values())

    def test_generic_columns(self):
        payload = {1: [1, 2], 2.5: "x", None: (3, 4), b"k": {"a": 1},
                   True: np.arange(3, dtype=np.uint8)}
        out = decode(encode(payload))
        assert_payload_equal(payload, out)
        assert isinstance(out[None], tuple)

    def test_numpy_int_keys_decode_to_python_ints(self):
        out = decode(encode({np.int64(4): 1, np.uint16(9): 2}))
        assert out == {4: 1, 9: 2}
        assert all(type(k) is int for k in out)

    def test_empty_containers_roundtrip(self):
        for payload in ([], {}, [[]], {1: []}, {"a": {}}):
            out = decode(encode(payload))
            assert out == payload
            assert type(out) is type(payload)

    def test_retired_map_tag_raises(self):
        # Tag 12 was the per-pair scalar-keyed map.
        blob = struct.pack("<BBBQ", MAGIC, VERSION, 12, 0)
        with pytest.raises(ProtocolError, match="unknown wire tag"):
            decode(blob)

    @pytest.mark.parametrize("payload", [
        [1, 2, 3, 2**40],
        [0.5, -1.0, float("nan")],
        {1: 2, 3: 4},
        {1: 0.5, 2: 1.5},
        {1: "a", 2: [3, 4]},
    ])
    def test_every_strict_prefix_raises(self, payload):
        blob = encode(payload)
        for cut in range(len(blob)):
            with pytest.raises(ProtocolError):
                decode(blob[:cut])

    @pytest.mark.parametrize("tag", [_INT_LIST, _FLOAT_LIST])
    def test_huge_count_raises_before_allocating(self, tag):
        import tracemalloc
        blob = struct.pack("<BBBQ", MAGIC, VERSION, tag, 2**60) + bytes(64)
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError):
                decode(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_huge_map_column_raises(self):
        blob = (struct.pack("<BBBBQ", MAGIC, VERSION, _COLUMNS, _INT_LIST,
                            2**60) + bytes(64))
        with pytest.raises(ProtocolError):
            decode(blob)

    def test_unequal_columns_raise(self):
        keys = encode([1, 2, 3])[2:]
        values = encode([10, 20])[2:]
        blob = struct.pack("<BBB", MAGIC, VERSION, _COLUMNS) + keys + values
        with pytest.raises(ProtocolError, match="3 keys but 2 values"):
            decode(blob)

    @pytest.mark.parametrize("bad_key", [[1], (1, 2), {"a": 1},
                                         np.arange(2, dtype=np.uint8)])
    def test_non_scalar_keys_raise(self, bad_key):
        keys = encode([1, bad_key])[2:]
        values = encode([10, 20])[2:]
        blob = struct.pack("<BBB", MAGIC, VERSION, _COLUMNS) + keys + values
        with pytest.raises(ProtocolError, match="scalar keys"):
            decode(blob)

    def test_non_list_column_raises(self):
        keys = encode((1, 2))[2:]  # a tuple is not a map column
        values = encode([10, 20])[2:]
        blob = struct.pack("<BBB", MAGIC, VERSION, _COLUMNS) + keys + values
        with pytest.raises(ProtocolError, match="not a list"):
            decode(blob)

    def test_encoding_a_non_scalar_key_raises(self):
        with pytest.raises(ProtocolError, match="scalar keys"):
            encode({(1, 2): 3})

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1,
                    max_size=40),
           st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_typed_property(self, ints, floats):
        assert _tag_of(ints) == _INT_LIST
        assert _tag_of(floats) == _FLOAT_LIST
        out_ints, out_floats = decode(encode([ints, floats]))
        assert out_ints == ints and out_floats == floats
        assert all(type(v) is int for v in out_ints)
        assert all(type(v) is float for v in out_floats)
