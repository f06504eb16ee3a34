"""Wire format for Prism messages.

The in-process transport can hand numpy arrays around by reference, but a
deployable system ships bytes.  This codec defines a compact, versioned
binary encoding for every payload type the protocols send:

* integer share vectors (the χ/aggregation streams) and share matrices
  (the fused multi-query batch streams, 2-D), each tagged with its
  dtype so a stream travels at the width of its modulus (uint8 χ
  shares, uint16 group elements, uint32 Shamir shares by default) and
  decodes to exactly that dtype,
* arbitrary-precision integers (extrema shares),
* lists of big ints (announcer arrays, fpos vectors),
* share-pair tuples and string-keyed dicts of any of the above,
* booleans, floats, raw byte strings, and maps with scalar keys (the
  RPC argument surface: kernel flag lists such as ``subtract_m``, and
  the owner-keyed share dicts of the extrema rounds).

Layout: 1 magic byte ``0x5A``, 1 version byte, 1 type tag, then the
type-specific body.  All integers are little-endian.

* An array body starts with a dtype byte (an index into
  :data:`WIRE_DTYPES`) before its shape.
* A list of exact ``int`` items, all within int64, is a *typed list*:
  a u64 count, then one int64 body (tag 15).  A list of exact
  ``float`` items is the same with a float64 body (tag 16).  Both
  decode to a Python ``list`` of Python scalars.  Any other list —
  empty, mixed, bools, numpy scalars, ints outside int64 — is a
  u64 count followed by one tagged item each (tag 3).
* A dict with string keys is a u64 count of tagged key/value pairs
  (tag 4).  Any other dict is a *columnar map* (tag 17): its keys
  list, then its values list, each under the list rule above.  Keys
  must be hashable scalars.  Tag 12, the per-pair map of older
  peers, is retired, so such a peer fails loudly with "unknown wire
  tag" instead of misreading a map.

The transport's
``serialize=True`` mode round-trips every transfer through this codec,
so the accounting becomes the true wire size and any non-serialisable
payload is caught immediately.

Framed request envelope
-----------------------

Deployment channels (:mod:`repro.network.rpc`) do not ship bare
payloads: every request/response travels inside a *frame* — a second
magic byte (``0x5B``), the codec version, a **correlation id** (so a
channel multiplexing concurrent queries can pair responses to
requests), a **shard span** ``(lo, hi)`` (``(-1, -1)`` = the full χ
length; anything else scopes the request to one contiguous shard of
the sweep), then the message *kind* (an entity method name or a
reserved ``__construct__``/``__error__``-style control kind) and the
codec-encoded payload.  :func:`encode_frame` / :func:`decode_frame`
implement the envelope; stream-level length prefixes live in the
channel layer, which is what actually writes sockets.
"""

from __future__ import annotations

import dataclasses
import struct
import sys

import numpy as np

from repro.exceptions import ProtocolError

#: Zero-copy decode is only valid where the wire layout (little-endian)
#: *is* the host layout; big-endian hosts take the byteswapping copy
#: path.
_NATIVE_LE = sys.byteorder == "little"

#: The integer dtypes an array may travel as; an array's dtype byte is
#: its index here.  Non-integer arrays never travel: the codec refuses
#: them instead of truncating floats or reinterpreting bits.
WIRE_DTYPES = tuple(np.dtype(t).newbyteorder("<") for t in (
    np.uint8, np.uint16, np.uint32, np.uint64,
    np.int8, np.int16, np.int32, np.int64))
_DTYPE_CODES = {(dt.kind, dt.itemsize): code
                for code, dt in enumerate(WIRE_DTYPES)}


def _wire_array(payload: np.ndarray) -> tuple[int, np.ndarray]:
    """``(dtype code, little-endian contiguous copy-or-view)`` of an array.

    Raises:
        ProtocolError: for a non-integer dtype.
    """
    code = _DTYPE_CODES.get((payload.dtype.kind, payload.dtype.itemsize))
    if code is None:
        raise ProtocolError(
            f"only integer arrays travel on the wire, not {payload.dtype}")
    return code, np.ascontiguousarray(payload, dtype=WIRE_DTYPES[code])


def _wire_dtype(code: int) -> np.dtype:
    if code >= len(WIRE_DTYPES):
        raise ProtocolError(f"unknown wire dtype byte {code}")
    return WIRE_DTYPES[code]


def _decode_array(blob, offset: int, dtype: np.dtype,
                  count: int) -> np.ndarray:
    """``count`` elements of ``dtype`` at ``offset`` — a zero-copy view
    when possible.

    On little-endian hosts an immutable ``bytes`` blob backs the
    returned (read-only) array directly: decoding a share vector costs
    no copy, and the view keeps the blob alive.  Mutable buffers
    (``bytearray`` receive windows) and big-endian hosts fall back to
    copying — a view into a reused receive buffer would be corrupted by
    the next read.  Consumers that *retain* decoded vectors copy at the
    retention point (:class:`repro.data.storage.StoredColumn`), not here
    on the hot path.
    """
    if _NATIVE_LE and isinstance(blob, bytes):
        return np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return np.frombuffer(
        blob[offset:offset + dtype.itemsize * count],
        dtype=dtype).astype(dtype.newbyteorder("="))

MAGIC = 0x5A
#: Version 2 added the dtype byte to array bodies, so a version-1 peer
#: fails loudly instead of misreading a share stream.
VERSION = 2

#: Frame-envelope magic (distinct from the payload magic so a stray
#: payload blob can never be mistaken for a framed request).
FRAME_MAGIC = 0x5B

#: The shard span meaning "the whole sweep" (no span scoping).
FULL_SPAN = (-1, -1)

#: The session/gateway message namespace.  Frame kinds carrying this
#: prefix are reserved for the multi-tenant serving gateway's session
#: protocol (:mod:`repro.serving`) — hello/register/query/stats/...
#: travel in the same framed envelope as entity RPCs, but an entity
#: host must never dispatch them onto a hosted entity (and the gateway
#: must never forward an un-prefixed kind into its session surface).
GATEWAY_PREFIX = "gw:"


def gateway_kind(name: str) -> str:
    """The namespaced frame kind of one gateway session message."""
    return GATEWAY_PREFIX + name


def is_gateway_kind(kind: str) -> bool:
    """Whether a frame kind belongs to the gateway session namespace."""
    return kind.startswith(GATEWAY_PREFIX)

_TAG_VECTOR = 1
_TAG_BIGINT = 2
_TAG_LIST = 3
_TAG_DICT = 4
_TAG_TUPLE = 5
_TAG_NONE = 6
_TAG_STR = 7
_TAG_MATRIX = 8
_TAG_BOOL = 9
_TAG_FLOAT = 10
_TAG_BYTES = 11
# Tag 12 (per-pair scalar-keyed maps) is retired: see the module docs.
#: Shared-memory references (same-host deployments only): the array
#: body lives in a :class:`repro.network.shm.ShmArena` both sides of
#: the channel mapped before forking; the frame carries ``(offset,
#: shape)``.  Decoding one without an arena is a protocol violation —
#: these tags must never cross a real network boundary.
_TAG_VECTOR_SHM = 13
_TAG_MATRIX_SHM = 14
_TAG_INT_LIST = 15
_TAG_FLOAT_LIST = 16
_TAG_COLUMNS = 17

#: The body dtype of each typed-list tag.
_TYPED_LISTS = {_TAG_INT_LIST: np.dtype("<i8"),
                _TAG_FLOAT_LIST: np.dtype("<f8")}

#: Arrays below this byte size stay inline even with an arena attached:
#: the reference + copy-out machinery only beats the inline path once
#: the memcpy dominates the per-frame overhead.
_SHM_MIN_BYTES = 2048

#: Containers deeper than this are a malformed (or adversarial) message,
#: not a protocol payload; the cap keeps a fuzzed byte string from
#: driving the decoder into a RecursionError instead of a ProtocolError.
_MAX_DEPTH = 32

#: Key types a ``_TAG_COLUMNS`` map may use — hashable scalars only, so a
#: decoded map is always a legal Python dict.
_MAP_KEY_TYPES = (bool, int, str, bytes, float, type(None))


def encode(payload, arena=None) -> bytes:
    """Encode a protocol payload to bytes.

    With ``arena`` (a :class:`repro.network.shm.ShmArena`), large
    arrays land in the shared pages and the returned bytes carry only
    references — same-host channels skip shipping array bodies.

    Raises:
        ProtocolError: for unsupported payload types, including arrays
            of a non-integer dtype.
    """
    return struct.pack("<BB", MAGIC, VERSION) + _encode_body(
        payload, arena=arena)


def _encode_body(payload, depth: int = 0, arena=None) -> bytes:
    if depth > _MAX_DEPTH:
        raise ProtocolError(
            f"payload nesting exceeds the wire depth limit ({_MAX_DEPTH})"
        )
    if payload is None:
        return struct.pack("<B", _TAG_NONE)
    if isinstance(payload, np.ndarray):
        if payload.ndim not in (1, 2):
            raise ProtocolError(
                "only 1-D share vectors and 2-D batch matrices travel on "
                "the wire"
            )
        code, contiguous = _wire_array(payload)
        if arena is not None and contiguous.nbytes >= _SHM_MIN_BYTES:
            shm_offset = arena.write_array(contiguous)
            if shm_offset is not None:
                if payload.ndim == 2:
                    return struct.pack("<BBQQQ", _TAG_MATRIX_SHM, code,
                                       shm_offset, *payload.shape)
                return struct.pack("<BBQQ", _TAG_VECTOR_SHM, code,
                                   shm_offset, payload.shape[0])
        if payload.ndim == 2:
            return struct.pack("<BBQQ", _TAG_MATRIX, code,
                               *payload.shape) + contiguous.tobytes()
        return struct.pack("<BBQ", _TAG_VECTOR, code,
                           payload.shape[0]) + contiguous.tobytes()
    if isinstance(payload, (bool, np.bool_)):
        # A dedicated tag: booleans round-trip as booleans, never as
        # 0/1 ints (the kernel flag list subtract_m is semantically
        # boolean on the RPC surface).
        return struct.pack("<BB", _TAG_BOOL, 1 if payload else 0)
    if isinstance(payload, (int, np.integer)):
        payload = int(payload)
        raw = _int_to_bytes(payload)
        return struct.pack("<BBQ", _TAG_BIGINT, 1 if payload < 0 else 0,
                           len(raw)) + raw
    if isinstance(payload, (float, np.floating)):
        return struct.pack("<Bd", _TAG_FLOAT, float(payload))
    if isinstance(payload, str):
        raw = payload.encode("utf-8")
        return struct.pack("<BQ", _TAG_STR, len(raw)) + raw
    if isinstance(payload, (bytes, bytearray)):
        return struct.pack("<BQ", _TAG_BYTES, len(payload)) + bytes(payload)
    if isinstance(payload, tuple):
        parts = [_encode_body(item, depth + 1, arena) for item in payload]
        return struct.pack("<BQ", _TAG_TUPLE, len(parts)) + b"".join(parts)
    if isinstance(payload, list):
        return _encode_list(payload, depth, arena)
    if isinstance(payload, dict):
        if all(isinstance(key, str) for key in payload):
            parts = []
            for key, value in payload.items():
                parts.append(_encode_body(key, depth + 1, arena))
                parts.append(_encode_body(value, depth + 1, arena))
            return struct.pack("<BQ", _TAG_DICT, len(payload)) + b"".join(parts)
        # Non-string keys (the extrema rounds key share dicts by owner
        # id, results by domain value): columnar, so int keys and
        # int/float values each travel as one typed body.  Keys are
        # restricted to hashable scalars so decoding always yields a
        # legal dict.
        keys = list(payload)
        key_kinds = set(map(type, keys))
        _check_key_kinds(key_kinds, (np.integer,))
        return (struct.pack("<B", _TAG_COLUMNS)
                + _encode_list(keys, depth, arena, key_kinds)
                + _encode_list(list(payload.values()), depth, arena))
    raise ProtocolError(
        f"cannot serialise payload of type {type(payload).__name__}"
    )


def _check_key_kinds(kinds, extra=()) -> None:
    """Raise unless every map key type is a hashable scalar."""
    for kind in kinds:
        if not issubclass(kind, _MAP_KEY_TYPES + extra):
            raise ProtocolError(
                f"wire maps need scalar keys, not {kind.__name__}")


def _encode_list(items: list, depth: int, arena, kinds=None) -> bytes:
    """A list as one typed body when every item is an exact ``int``
    within int64 (or an exact ``float``), else one tagged item each.
    ``kinds`` is the set of item types, when the caller has it."""
    kinds = set(map(type, items)) if kinds is None else kinds
    if kinds == {int}:
        try:
            return struct.pack(f"<BQ{len(items)}q", _TAG_INT_LIST,
                               len(items), *items)
        except struct.error:  # an item outside int64
            pass
    elif kinds == {float}:
        return struct.pack(f"<BQ{len(items)}d", _TAG_FLOAT_LIST, len(items),
                           *items)
    parts = [_encode_body(item, depth + 1, arena) for item in items]
    return struct.pack("<BQ", _TAG_LIST, len(parts)) + b"".join(parts)


def _int_to_bytes(value: int) -> bytes:
    value = abs(value)
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "little")


def decode(blob: bytes, arena=None):
    """Decode bytes produced by :func:`encode`.

    Raises:
        ProtocolError: on a bad magic byte, unknown version/tag, a
            truncated body, or a shared-memory reference without (or
            outside) ``arena``.
    """
    if len(blob) < 2:
        raise ProtocolError("wire message too short for its header")
    magic, version = struct.unpack_from("<BB", blob, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic byte 0x{magic:02x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    payload, offset = _decode_body(blob, 2, arena=arena)
    if offset != len(blob):
        raise ProtocolError(f"{len(blob) - offset} trailing bytes on the wire")
    return payload


def _decode_body(blob: bytes, offset: int, depth: int = 0, arena=None):
    if depth > _MAX_DEPTH:
        raise ProtocolError(
            f"payload nesting exceeds the wire depth limit ({_MAX_DEPTH})"
        )
    try:
        (tag,) = struct.unpack_from("<B", blob, offset)
    except struct.error:
        raise ProtocolError("truncated wire message") from None
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_BOOL:
        try:
            (flag,) = struct.unpack_from("<B", blob, offset)
        except struct.error:
            raise ProtocolError("truncated boolean") from None
        if flag not in (0, 1):
            raise ProtocolError(f"boolean byte must be 0/1, got {flag}")
        return bool(flag), offset + 1
    if tag == _TAG_FLOAT:
        try:
            (value,) = struct.unpack_from("<d", blob, offset)
        except struct.error:
            raise ProtocolError("truncated float") from None
        return value, offset + 8
    if tag in (_TAG_VECTOR, _TAG_MATRIX):
        matrix = tag == _TAG_MATRIX
        try:
            code, *shape = struct.unpack_from("<BQQ" if matrix else "<BQ",
                                              blob, offset)
        except struct.error:
            raise ProtocolError("truncated share-array header") from None
        dtype = _wire_dtype(code)
        offset += 17 if matrix else 9
        count = shape[0] * shape[1] if matrix else shape[0]
        end = offset + dtype.itemsize * count
        if end > len(blob):
            raise ProtocolError("truncated share array")
        return _decode_array(blob, offset, dtype, count).reshape(shape), end
    if tag in (_TAG_VECTOR_SHM, _TAG_MATRIX_SHM):
        if arena is None:
            raise ProtocolError(
                "shared-memory frame decoded without an arena: shm "
                "references must never cross a host boundary")
        matrix = tag == _TAG_MATRIX_SHM
        try:
            code, shm_offset, *shape = struct.unpack_from(
                "<BQQQ" if matrix else "<BQQ", blob, offset)
        except struct.error:
            raise ProtocolError(
                "truncated shared-memory reference") from None
        offset += 25 if matrix else 17
        count = shape[0] * shape[1] if matrix else shape[0]
        array = arena.read_array(shm_offset, count, _wire_dtype(code))
        return array.reshape(shape), offset
    if tag == _TAG_BIGINT:
        try:
            negative, length = struct.unpack_from("<BQ", blob, offset)
        except struct.error:
            raise ProtocolError("truncated integer header") from None
        offset += 9
        end = offset + length
        if end > len(blob):
            raise ProtocolError("truncated integer")
        value = int.from_bytes(blob[offset:end], "little")
        return -value if negative else value, end
    if tag in (_TAG_STR, _TAG_BYTES):
        try:
            (length,) = struct.unpack_from("<Q", blob, offset)
        except struct.error:
            raise ProtocolError("truncated string header") from None
        offset += 8
        end = offset + length
        if end > len(blob):
            raise ProtocolError("truncated string")
        if tag == _TAG_BYTES:
            return blob[offset:end], end
        try:
            return blob[offset:end].decode("utf-8"), end
        except UnicodeDecodeError:
            raise ProtocolError("string is not valid UTF-8") from None
    if tag in _TYPED_LISTS or tag in (_TAG_LIST, _TAG_TUPLE):
        return _decode_items(blob, offset, tag, depth, arena)
    if tag == _TAG_DICT:
        try:
            (count,) = struct.unpack_from("<Q", blob, offset)
        except struct.error:
            raise ProtocolError("truncated container header") from None
        offset += 8
        out = {}
        for _ in range(count):
            key, offset = _decode_body(blob, offset, depth + 1, arena)
            if not isinstance(key, str):
                raise ProtocolError("wire dicts use string keys")
            value, offset = _decode_body(blob, offset, depth + 1, arena)
            out[key] = value
        return out, offset
    if tag == _TAG_COLUMNS:
        keys_start = offset
        keys, offset = _decode_column(blob, offset, depth, arena)
        values, offset = _decode_column(blob, offset, depth, arena)
        if len(keys) != len(values):
            raise ProtocolError(
                f"wire map has {len(keys)} keys but {len(values)} values")
        if blob[keys_start] == _TAG_LIST:  # typed keys are scalars
            _check_key_kinds(set(map(type, keys)))
        return dict(zip(keys, values)), offset
    raise ProtocolError(f"unknown wire tag {tag}")


def _decode_items(blob, offset: int, tag: int, depth: int, arena):
    """The body of a typed list, a tagged-item list or a tuple."""
    try:
        (count,) = struct.unpack_from("<Q", blob, offset)
    except struct.error:
        raise ProtocolError("truncated container header") from None
    offset += 8
    dtype = _TYPED_LISTS.get(tag)
    if dtype is not None:
        end = offset + dtype.itemsize * count
        if end > len(blob):
            raise ProtocolError("truncated typed list")
        return np.frombuffer(blob, dtype=dtype, count=count,
                             offset=offset).tolist(), end
    items = []
    for _ in range(count):
        item, offset = _decode_body(blob, offset, depth + 1, arena)
        items.append(item)
    return (tuple(items) if tag == _TAG_TUPLE else items), offset


def _decode_column(blob, offset: int, depth: int, arena):
    """One column of a map: a typed or tagged-item list."""
    try:
        (tag,) = struct.unpack_from("<B", blob, offset)
    except struct.error:
        raise ProtocolError("truncated wire map") from None
    if tag not in _TYPED_LISTS and tag != _TAG_LIST:
        raise ProtocolError(f"wire map column has tag {tag}, not a list")
    return _decode_items(blob, offset + 1, tag, depth, arena)


# -- the framed request envelope ---------------------------------------------


@dataclasses.dataclass(frozen=True)
class Frame:
    """One decoded request/response envelope.

    Attributes:
        kind: the message kind — an entity method name
            (``"indicator_round"``) or a reserved control kind
            (``"__construct__"``, ``"__result__"``, ``"__error__"``, ...).
        correlation_id: pairs a response to its request on a channel
            that multiplexes concurrent queries (the coalescing
            scheduler and direct callers share one connection).
        span: the contiguous χ shard span ``(lo, hi)`` this message
            covers; :data:`FULL_SPAN` means the whole sweep.
        payload: the codec-decoded message body.
    """

    kind: str
    correlation_id: int
    span: tuple[int, int]
    payload: object


_FRAME_HEADER = struct.Struct("<BBQqq")


def encode_frame(kind: str, correlation_id: int, span, payload,
                 arena=None) -> bytes:
    """Encode one framed message (envelope + codec-encoded payload).

    ``arena`` routes large arrays through shared memory — same-host
    channels only (see :mod:`repro.network.shm`).

    Raises:
        ProtocolError: for a non-string kind, a malformed span, or an
            unencodable payload.
    """
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("frame kind must be a non-empty string")
    try:
        lo, hi = int(span[0]), int(span[1])
    except (TypeError, ValueError, IndexError):
        raise ProtocolError(f"frame span must be (lo, hi), got {span!r}"
                            ) from None
    if (lo, hi) != FULL_SPAN and not 0 <= lo < hi:
        raise ProtocolError(f"frame span ({lo}, {hi}) is not a χ span")
    header = _FRAME_HEADER.pack(FRAME_MAGIC, VERSION,
                                int(correlation_id), lo, hi)
    return header + _encode_body(kind) + _encode_body(payload, arena=arena)


def decode_frame(blob: bytes, arena=None) -> Frame:
    """Decode one framed message produced by :func:`encode_frame`.

    Raises:
        ProtocolError: on a bad frame magic, unknown version, malformed
            kind/span, truncated body, trailing bytes, or a
            shared-memory reference without ``arena``.
    """
    if len(blob) < _FRAME_HEADER.size:
        raise ProtocolError("wire frame too short for its envelope")
    magic, version, correlation_id, lo, hi = _FRAME_HEADER.unpack_from(blob, 0)
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic byte 0x{magic:02x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported frame version {version}")
    if (lo, hi) != FULL_SPAN and not 0 <= lo < hi:
        raise ProtocolError(f"frame span ({lo}, {hi}) is not a χ span")
    kind, offset = _decode_body(blob, _FRAME_HEADER.size)
    if not isinstance(kind, str) or not kind:
        raise ProtocolError("frame kind must be a non-empty string")
    payload, offset = _decode_body(blob, offset, arena=arena)
    if offset != len(blob):
        raise ProtocolError(
            f"{len(blob) - offset} trailing bytes after the frame")
    return Frame(kind=kind, correlation_id=int(correlation_id),
                 span=(lo, hi), payload=payload)
