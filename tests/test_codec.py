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

    def test_length_prefix_alone_allocates_nothing_like_it(self):
        """A peer that sends only a header claiming 256 MiB, then
        closes, costs the receiver far less than 256 MiB."""
        import socket
        import tracemalloc

        from repro.network.rpc import recv_frame
        ours, theirs = socket.socketpair()
        theirs.sendall(struct.pack("<Q", 256 << 20))
        theirs.close()
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(ours)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            ours.close()
        assert peak < 16 << 20

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
    return _MuxConnection(None, "test")


def _issue(conn, n):
    """Register ``n`` pipelined requests; returns their reply handles."""
    from repro.network.rpc import RpcMessage
    return [conn.request(RpcMessage("psi_round_batch", {"q": i}))
            for i in range(n)]


def _reply_bytes(correlation_id, payload, kind="__result__"):
    blob = encode_frame(kind, correlation_id, FULL_SPAN, payload)
    return struct.pack("<Q", len(blob)) + blob


class TestReplyMultiplexer:
    """Routing invariants of the multiplexed connection.

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


# -- the leader/follower mux over a socket -------------------------------------


def _echo_host(sock, peer):
    """Serve one connection serially, like an entity host: echo each
    request's payload back; ``sleep`` requests stall first."""
    import time
    from repro.network.rpc import RESULT, recv_frame, send_frame
    peer.close()  # the parent's end, inherited by the fork
    while True:
        blob = recv_frame(sock)
        if blob is None:
            return
        frame = decode_frame(blob)
        if frame.kind == "sleep":
            time.sleep(frame.payload)
        send_frame(sock, encode_frame(RESULT, frame.correlation_id,
                                      FULL_SPAN, frame.payload))


@pytest.fixture
def echo_sock():
    """A socket to a forked echo host; the host is reaped after."""
    import multiprocessing
    import socket
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork")
    ours, theirs = socket.socketpair()
    process = multiprocessing.get_context("fork").Process(
        target=_echo_host, args=(theirs, ours), daemon=True)
    process.start()
    theirs.close()
    try:
        yield ours
    finally:
        ours.close()
        process.join(timeout=1)
        if process.is_alive():  # still in a ``sleep`` request
            process.kill()
            process.join(timeout=10)


@pytest.fixture
def echo_conn(echo_sock):
    """A mux connection to a forked echo host."""
    from repro.network.dispatch import _MuxConnection
    conn = _MuxConnection(echo_sock, "echo")
    try:
        yield conn
    finally:
        conn.close()


class TestLeaderFollowerMux:
    """Callers drive the socket themselves: whoever waits reads, and
    every frame it reads reaches its own future."""

    def test_threads_pipeline_frames_larger_than_the_socket_buffer(
            self, echo_conn):
        import sys
        import threading
        from repro.network.rpc import RpcMessage
        threads_before = threading.active_count()
        count, size = 8, 4 << 20
        start = threading.Barrier(count)
        results, errors = {}, []

        def caller(index):
            try:
                body = np.full(size, index, dtype=np.uint8)
                start.wait(timeout=30)
                reply = echo_conn.request(RpcMessage(
                    "echo", {"who": index, "body": body})).result(60.0)
                results[index] = reply.payload
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(results) == list(range(count))
        for index, payload in results.items():
            assert payload["who"] == index
            assert payload["body"].size == size
            assert (payload["body"] == index).all()
        assert echo_conn.in_flight == 0
        assert threading.active_count() == threads_before

    def test_missed_deadline_poisons_and_fails_followers(self, echo_conn):
        import threading
        from repro.network.dispatch import ConnectionLost, ReplyTimeout
        from repro.network.rpc import RpcMessage
        threads_before = threading.active_count()
        stalled = echo_conn.request(RpcMessage("sleep", 30.0))
        failures = []

        def follower(index):
            pending = echo_conn.request(RpcMessage("echo", index))
            try:
                pending.result(60.0)
            except ConnectionLost as exc:
                failures.append(exc)

        followers = [threading.Thread(target=follower, args=(i,))
                     for i in range(3)]
        for thread in followers:
            thread.start()
        with pytest.raises(ReplyTimeout, match="timed out"):
            stalled.result(0.5)
        for thread in followers:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in followers)
        assert len(failures) == 3
        assert all(type(exc) is ConnectionLost for exc in failures)
        assert echo_conn.closed and echo_conn.in_flight == 0
        with pytest.raises(ConnectionLost, match="closed"):
            echo_conn.request(RpcMessage("echo", 0))
        assert echo_conn.sock.fileno() == -1
        assert threading.active_count() == threads_before


def _meeting_host(sock, peer, barrier):
    """Serve one connection serially, like an entity host; once a
    request has arrived in full, wait for the other host's request to
    have arrived too, and reply whether the two met."""
    import threading
    from repro.network.rpc import RESULT, recv_frame, send_frame
    peer.close()
    while True:
        blob = recv_frame(sock)
        if blob is None:
            return
        frame = decode_frame(blob)
        try:
            barrier.wait(timeout=5)
            met = True
        except threading.BrokenBarrierError:
            met = False
        send_frame(sock, encode_frame(RESULT, frame.correlation_id,
                                      frame.span, {"met": met}))


@pytest.fixture
def meeting_socks():
    """Sockets to two forked hosts that reply only once both hold a
    request; the hosts are reaped after."""
    import multiprocessing
    import socket
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork")
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(2)
    socks, processes = [], []
    for _ in range(2):
        ours, theirs = socket.socketpair()
        process = context.Process(target=_meeting_host,
                                  args=(theirs, ours, barrier), daemon=True)
        process.start()
        theirs.close()
        socks.append(ours)
        processes.append(process)
    try:
        yield socks
    finally:
        for sock in socks:
            sock.close()
        for process in processes:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join(timeout=10)


class TestIssueThenCollect:
    """Issued requests reach every host in full before any reply is
    read, so the hosts compute together."""

    def test_pool_members_start_on_frames_larger_than_the_socket_buffer(
            self, meeting_socks):
        from repro.network.dispatch import PooledChannel, _MuxConnection
        from repro.network.rpc import RpcMessage
        channel = PooledChannel(
            [_MuxConnection(sock, f"host{index}:0")
             for index, sock in enumerate(meeting_socks)],
            request_timeout=60.0)
        body = np.zeros(4 << 20, dtype=np.uint8)
        collects = [channel.issue(RpcMessage("meet", {"body": body}))
                    for _ in range(2)]
        assert [collect().payload for collect in collects] == [
            {"met": True}] * 2
        assert [member["requests"] for member
                in channel.stats["members"]] == [1, 1]

    def test_stream_channels_leave_replies_on_the_wire(self, meeting_socks):
        from repro.network.rpc import RpcMessage, _StreamChannel
        channels = [_StreamChannel(sock) for sock in meeting_socks]
        body = np.zeros(4 << 20, dtype=np.uint8)
        collects = [channel.issue(RpcMessage("meet", {"body": body}))
                    for channel in channels]
        assert [collect().payload for collect in collects] == [
            {"met": True}] * 2

    def test_next_request_reads_an_uncollected_reply(self, echo_sock):
        from repro.network.rpc import RpcMessage, _StreamChannel
        channel = _StreamChannel(echo_sock)
        first = channel.issue(RpcMessage("echo", 1))
        second = channel.issue(RpcMessage("echo", 2))
        assert channel.send(RpcMessage("echo", 3)).payload == 3
        assert [second().payload, first().payload] == [2, 1]
        assert channel.stats["requests"] == 3


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


# -- pinned wire bytes ----------------------------------------------------------


def _wire_corpus() -> dict:
    """Payloads covering every tag, named; their encodings are pinned."""
    corpus = {
        "none": None,
        "true": True,
        "false": False,
        "bool_list": [True, False, True],
        "small_ints": [0, 1, -1, 255, 256, -256],
        "int64_edges": [-(2**63), 2**63 - 1, 0, 7],
        "int64_one_past_max": [2**63, 0],
        "int64_one_past_min": [-(2**63) - 1, 1],
        "negative_int": -12345,
        "zero": 0,
        "wide_ints": [2**64, -(2**64), 2**200 + 3],
        "wide_int": 2**100 - 1,
        "float": 2.5,
        "float_list": [0.5, -1.25, 1e300, float("inf"), -0.0],
        "mixed_list": [1, "a", None, 2.5, True, b"x"],
        "empty_list": [],
        "empty_dict": {},
        "empty_tuple": (),
        "tuple": (1, (2, 3), "z"),
        "nested_dict": {"a": {"b": [1, 2], "c": None},
                        "d": ({"e": 1.5},), "f": [[1], [2.5]]},
        "int_map": {1: 2, 3: 4, -5: 6},
        "int_float_map": {10: 0.25, 20: -3.5},
        "int_str_map": {7: "x", 8: "y"},
        "mixed_key_map": {1: "a", 2.5: None, None: [1], b"k": True},
        "bool_key_map": {True: 1, False: 0},
        "wide_key_map": {2**70: 1, 0: 2},
        "np_key_map": {np.int64(4): np.int64(5), np.uint8(9): 1},
        "np_scalars": [np.int64(-3), np.uint8(200), np.uint64(2**64 - 1),
                       np.float32(1.5), np.float64(-2.25), np.bool_(True),
                       np.bool_(False), np.int32(-7)],
        "str": "hello",
        "long_str": "key-" * 300,
        "long_int_list": list(range(-600, 600, 3)),
        "long_mixed_list": [i if i % 7 else str(i) for i in range(300)],
        "empty_str": "",
        "unicode_str": "ünïcode χ",
        "bytes": b"\x00\xffab",
        "empty_bytes": b"",
        "bytearray": bytearray(b"xyz"),
    }
    for dtype in WIRE_DTYPES:
        name = dtype.name
        corpus[f"vector_{name}"] = np.arange(7, dtype=dtype)
        corpus[f"empty_vector_{name}"] = np.zeros(0, dtype=dtype)
        corpus[f"matrix_{name}"] = np.arange(12, dtype=dtype).reshape(3, 4)
    corpus["matrix_fortran"] = np.asfortranarray(
        np.arange(6, dtype=np.uint16).reshape(2, 3))
    corpus["vector_big_endian"] = np.arange(5, dtype=">u4")
    corpus["vector_strided"] = np.arange(10, dtype=np.uint32)[::2]
    # The gateway session shapes (repro.serving.session).
    timings = {"server": 0.0125, "owner": 0.0031}
    traffic = {"messages": 12, "bytes": 40960}
    corpus["gw_query"] = {
        "dataset": "alpha/fleet",
        "query": {"plan": {"kind": "psi_sum", "attribute": "OK",
                           "agg_attributes": ["DT"], "verify": True,
                           "owner_ids": None, "querier": 0}}}
    corpus["gw_set"] = {
        "type": "SetResult", "values": [3, 17, 42],
        "membership": np.packbits(np.arange(20) % 3 == 0),
        "cells": 20, "timings": timings, "traffic": traffic,
        "verified": True}
    corpus["gw_set_str_values"] = {
        "type": "SetResult", "values": ["Cancer", "Flu"],
        "membership": np.packbits(np.ones(9, dtype=bool)), "cells": 9,
        "timings": {}, "traffic": {}, "verified": False}
    corpus["gw_count"] = {"type": "CountResult", "count": 17,
                          "timings": timings, "traffic": traffic}
    corpus["gw_aggregate"] = {
        "type": "AggregateResult", "per_value": {3: 1400, 17: 2**40},
        "timings": timings, "traffic": traffic, "verified": True}
    corpus["gw_average"] = {
        "type": "AggregateResult", "per_value": {3: 12.5, 17: 0.75},
        "timings": timings, "traffic": traffic, "verified": False}
    corpus["gw_extrema"] = {
        "type": "ExtremaResult", "per_value": {3: 99, 17: 5},
        "holders": {3: [0, 2], 17: [1]}, "timings": timings,
        "traffic": traffic}
    corpus["gw_result_map"] = {
        "type": "ResultMap", "keys": ["SUM(DT)", "COUNT(*)"],
        "items": {"SUM(DT)": corpus["gw_aggregate"],
                  "COUNT(*)": corpus["gw_count"]}}
    corpus["gw_bucketized"] = {
        "type": "Bucketized", "set": corpus["gw_set"],
        "stats": {"levels": 3, "cells_swept": 96}}
    corpus["gw_none"] = {"type": "None"}
    return corpus


def _frame_corpus() -> dict:
    """Framed requests and replies in the shapes the channels send."""
    sweep = {"family": "psi", "columns": ["OK", "vOK"],
             "owner_ids": [0, 1, 2], "permute": [None, "s1"],
             "subtract_m": [True, False]}
    return {
        "indicator_round": ("indicator_round", 7, FULL_SPAN,
                            {"a": [[sweep]], "k": {"num_shards": 2}}),
        "indicator_span": ("indicator_round", 8, (0, 4096),
                           {"a": [[dict(sweep, permute=None)]], "k": {}}),
        "aggregate_round": ("aggregate_round_batch", 9, (4096, 8192),
                            {"a": [["DT", "vDT"],
                                   np.arange(16, dtype=np.uint32)
                                   .reshape(2, 8), None], "k": {}}),
        "result_matrix": ("__result__", 7, FULL_SPAN,
                          [np.arange(24, dtype=np.uint16).reshape(3, 8)]),
        "error": ("__error__", 0, FULL_SPAN,
                  {"type": "ProtocolError", "message": "bad frame"}),
        "ping": ("__ping__", 2**40, FULL_SPAN, None),
        "gw_query": ("gw:query", 3, FULL_SPAN,
                     _wire_corpus()["gw_query"]),
    }


#: SHA-256 of ``encode(payload)`` for every :func:`_wire_corpus` entry.
_PAYLOAD_DIGESTS = {
    "none":
        "cdcd8f09bbf9ec82d4b6cbe2b2fe934b15e0dec4a731737d91e3c2b1636d1b42",
    "true":
        "ffdef588d09a8a8690e9d19f7681be466cb540669a2b6ed70c0c9c0299db765e",
    "false":
        "614613a3beb105501ebeabf583f7ddd8fed33d456fd54d1b07d9b8bd4ab04b95",
    "bool_list":
        "e4e401bea42d82ccd58de99616315b254af7613c82f0d320f5f196dd03423c19",
    "small_ints":
        "14f29825a65dc49d1653c8d39805bfce9cfb8957437f2c58f16a7098e5fb0425",
    "int64_edges":
        "607eb6c8b8bf27f4aaa8cf560944f2762ea44a0466df57a98ea33d30300f5de0",
    "int64_one_past_max":
        "df79fcfce2fc84cef77ccc1eac1463f94369e62bba6dd39623c0141eac77d9db",
    "int64_one_past_min":
        "558f99ff39fd4973a9b09a11d19bfa900b78dd08f093e06b9a6a135af0275d97",
    "negative_int":
        "e9c8add29f563ab1f2ebc9f1a89518de29284299cd41cc328d86b60ab4642f7d",
    "zero":
        "49a8cb0c5fa0efdc3a01a469bbe4ea9ca17297c59ae53239831fc6e59193d81d",
    "wide_ints":
        "076aa4462f91bb71289537d71da7b09be8240ef3f5189885f8aad58901ea1f9a",
    "wide_int":
        "8a34ace718bf20d418499eb60933afdc4fd93a991775f021ca068a3959b927ea",
    "float":
        "d7e1431f2425567be1d4e734f640fd426786a83ea9388d2a15bbe6979ed6f843",
    "float_list":
        "6f8781220320d76f5e032d8f8fcc1d916c35c4897e273589daa67555975423ba",
    "mixed_list":
        "d339a3dac956bd5a189013866e844f27e9cb494b2603db86368239f7c016153e",
    "empty_list":
        "7da8bf0c886509b628f07c2ee0e73094b05a745f3d52549ad6e6c666a8530f96",
    "empty_dict":
        "6ffa1459183e09e0c1f4f02379c7c81ab905d985975806340a4c990a88aa3e0c",
    "empty_tuple":
        "4cdb544ec585c9d43703339994cbbe4314338ede544b2fb2bdea36de5d3d1567",
    "tuple":
        "0c43aa538d9eeb9ca92047892c2a7c2c6258cd0bd79c7d16e84911d283aabd98",
    "nested_dict":
        "c1c5a9cd379c91f357fa3f6b47be0d296dd0f7b394caac44650a930813c3c4be",
    "int_map":
        "2bb51c8c13729c3fd6d74c397f7188f750db44551b32a5ecf37e9a82a0134a90",
    "int_float_map":
        "5c22a57588aa1ea0088ead705ab125ce1f74ed20007387705e4fab04f49797a4",
    "int_str_map":
        "5e7e38b5eacbd9555556e5640a1ddb357c7418445e3d23d660f3fee05bf06bf6",
    "mixed_key_map":
        "ab20e3c51d5d9823e487eb496ac9ef07ee55420dda309a813b2074fa9b81a6df",
    "bool_key_map":
        "f1dd53becd9a7d72dd99c4c184bbfa07a62972fb8f89d4f7635c202e1e6dad69",
    "wide_key_map":
        "001836a518fab5dd05894c3b1ea4d6ab664e33e0a594cfda04986772e52fca59",
    "np_key_map":
        "cccecf06d3be61f993ef3801a36245b1a48a11d0e57da0241cdbd10c4613a390",
    "np_scalars":
        "d1e0fb51ce02ba7720a5fd6ed0a449d3cc7326650931f7b2cecd347446c44ab4",
    "str":
        "f7b0d58ac5585772ae1c41230812c0979a42453799b892a408c747ff2029e39b",
    "long_str":
        "b549882c88cc3df1d161920623e4954a6065dd9b76c8bc4c8b62f93c96187e97",
    "long_int_list":
        "e977b1e905714632ab8b6609453bd22c88b9048bcfcb39d3aa347433e606adb6",
    "long_mixed_list":
        "7fb564b30d30d67dd008fe10579d74d2638eb3dd94a5ccf496a3b3b771c56ba5",
    "empty_str":
        "f4cf83b3d449cf89f6ab28f8d73c2bc3da14298b813cbf687027883a94569023",
    "unicode_str":
        "1e8327cb8247c3ae531d971c847fb162e98435f2ab2008483066d7caa500abf4",
    "bytes":
        "f63673c16475a3322cbda97719816095502f48ec64ab2a4d597ffaa76c92de73",
    "empty_bytes":
        "4a069a94f5845926e3d9537541930b9b03954a18d2da5034119ec17f22a7b404",
    "bytearray":
        "7b10139c99b9391c004cf6eaa285547bacfafcd7bd5503c7c7bc2bd4b8748f18",
    "vector_uint8":
        "03f5cb978e1d8fdaef2563e7a9bf3138cfb21dae904abfcd562caf0514cd206f",
    "empty_vector_uint8":
        "991cffe5efafa929d1e79bbe1040328e601b00a545ff46c4e0194abd95d73819",
    "matrix_uint8":
        "20596b037b5e9fffb482631e4fb2a64dfce129cb9fc9d65cab709bde4284ffa0",
    "vector_uint16":
        "91e6a31dcfc1e6831264b04cad1ddb69b3ed73f9230fa0af6626a9e12e9e4212",
    "empty_vector_uint16":
        "7c9109e07857a0d85a53a6b5e41d90de9c7725710bbbf6ad44cc07cdbf767a1f",
    "matrix_uint16":
        "9fe9864f6ee5e6f9ab7eb009d77ea5f1821130413a3ae5ce838d6a207fabe99b",
    "vector_uint32":
        "0d60fbf60805f07915d79ee1e55f338038b121202a2cdeb5ec473459dbeca81d",
    "empty_vector_uint32":
        "1a4b93c71b826cc55d8ea0104e263360450037df66295819afe4f68157505eb6",
    "matrix_uint32":
        "f62a93add665d6b6d377dca3d5d2e49e9974f7fbfec34a44008ca6506f265912",
    "vector_uint64":
        "d697af4649cdf18d62c47db6043f3c6b006a5ac0879052b4d2841bdf0e268130",
    "empty_vector_uint64":
        "3b0e07db19c1caa7edbf6cbc065b8761b62d5820d8e3ef57c49bd8427ce7b92b",
    "matrix_uint64":
        "18e6f9a1a8d5fb7bfdfdf1e62bc93121caff52284f276756aa3f01c5f757222d",
    "vector_int8":
        "5b1e5d6bfd2888e303ccfb66b565eddfec9b2745f189ebc7fae64484bf1c9a3f",
    "empty_vector_int8":
        "162b5a2cd7491ae1cc2740f83976ddebb17fa1cdef09368adbf2937e8e76f12c",
    "matrix_int8":
        "bf8a96bbdef4ab30fdedc456cc46b485e66dd8d73e7b08018178744c7e67a169",
    "vector_int16":
        "8033fcd88166628020b1320047fcf4d3df599e27cc3316cb0be2e455e82d09ec",
    "empty_vector_int16":
        "8a2cbd7e9b10960815b4ad980fff00a5c2ee7fa74b2e8f2a9f36a7cfcd7ef24e",
    "matrix_int16":
        "cd20abd52fd68be39f3f9ccc431c5c70d6fc3c51664509a9d2e2f66513318b6e",
    "vector_int32":
        "6d374ba7b9a71100d355d10a3849b6be3d802553afc22b2edcd166f1fc0cffad",
    "empty_vector_int32":
        "4eb6437a05f91e0f80fdbc3e4c3c4abc217fdf27a6ecaadde3064a28c9a5cc04",
    "matrix_int32":
        "8fce1dd47894ed070199cccb8940fb33f2f0bfc2329fae5cda428695905bf4be",
    "vector_int64":
        "ca99b2f436d7abb6c252f3f1e774d68deef2d5580e50f3894ebcf37abacb1cba",
    "empty_vector_int64":
        "1e155f53e01c76351ddb09ec03f1324dd9f79874c1887351db2950768d7e46d8",
    "matrix_int64":
        "18a5c9179e24254b284e2f4e779db5c889f333998ac852cbfb02028e46f63f59",
    "matrix_fortran":
        "90ac2372aaa1ff23e22277cc11ec841c77549bd32857c6d0f44211c5e90dbd65",
    "vector_big_endian":
        "3dbea0fc2721c80e778e1e282396a6f33b996cd0ef80fb68caea0f6931bb170e",
    "vector_strided":
        "a535c9b6b6684d028eaaadd43571c70d1fa5b29a101170715738abc351368d79",
    "gw_query":
        "ba25c39914fbe8ca0f32de891c0cf6b3a815299e05b2fc3cfc6606678a62aeee",
    "gw_set":
        "cbf0bcb9e4d67bb69267b3fd7a9f8f349cef88506fb7afbec08ee9da88a46e38",
    "gw_set_str_values":
        "0c8e58cfbbe22067235a457151629f404f8013f23d57ba6a45e0c508546065cc",
    "gw_count":
        "2b7cb7bdddffb5be4bcb3d59f563b0157b6a90e3237d9db23411d566d807c3e5",
    "gw_aggregate":
        "b16866a279010efae7d6a75a52e899c18b4ca81fd0fed01922269032271b2d3c",
    "gw_average":
        "28b9c32aa5beda94036f8934f092815f49580fe753bcda6b838a26b47c066cc7",
    "gw_extrema":
        "0fb72f89f1482831025f574e916e3f00af82685778ce4793e96764070dc308e9",
    "gw_result_map":
        "d4656d55e2afc8eb64667321a97a4d5bf984730d925e944257de8cdbdfa14b1a",
    "gw_bucketized":
        "fe27e349f8da9acc247bf794ce590f380fd9bd2cec5d2617d9b180e614df1e9c",
    "gw_none":
        "09e80d53425cb078fce7922c92b39c8693d151a78b0dd55e638b28e3dac56cae",
}

#: SHA-256 of ``encode_frame(*args)`` for every :func:`_frame_corpus` entry.
_FRAME_DIGESTS = {
    "indicator_round":
        "46073dfdb303539ea28727f2edf61ef50ef256b83fcc2ac34b077d4552a38d77",
    "indicator_span":
        "6a65ed4f7beb809834d5a539da9bf689ce523374c9bcfaac429bee60c3abca44",
    "aggregate_round":
        "83e417464d94494692e19046fe8947cc0870e662f7b696e20630e51f9c9fffe5",
    "result_matrix":
        "bf1de0bb5158f3615856e04e211013eda2e312cb7c52f0a6e6619c4901cff470",
    "error":
        "9ad230e5e4a0286aae79457f8ee606607bd3f6280396cdf1217a3c45b5b6112b",
    "ping":
        "d19b25d49815182b01be6833ebe8419b2bbfadec5fc5ef51177fcd3ebca2095d",
    "gw_query":
        "28bc628e329919d613654622f2ecb15e2fa54eb3a63acc297a9c4b6fea77d173",
}


class TestWireDigests:
    """The wire bytes themselves are pinned, not only round trips.

    A codec rewrite must reproduce every byte: peers and golden
    transcripts depend on the encoding, not on what it decodes to.
    """

    def test_corpus_is_pinned(self):
        assert set(_wire_corpus()) == set(_PAYLOAD_DIGESTS)
        assert set(_frame_corpus()) == set(_FRAME_DIGESTS)

    @pytest.mark.parametrize("name", sorted(_PAYLOAD_DIGESTS))
    def test_payload_bytes(self, name):
        import hashlib
        blob = encode(_wire_corpus()[name])
        assert hashlib.sha256(blob).hexdigest() == _PAYLOAD_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(_FRAME_DIGESTS))
    def test_frame_bytes(self, name):
        import hashlib
        blob = encode_frame(*_frame_corpus()[name])
        assert hashlib.sha256(blob).hexdigest() == _FRAME_DIGESTS[name]
