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

import array
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


# Precompiled layouts, named by their format.
_Q = struct.Struct("<Q")
_d = struct.Struct("<d")
_BQ = struct.Struct("<BQ")
_Bd = struct.Struct("<Bd")
_BBQ = struct.Struct("<BBQ")
_BQQ = struct.Struct("<BQQ")
_BBQQ = struct.Struct("<BBQQ")
_BQQQ = struct.Struct("<BQQQ")
_BBQQQ = struct.Struct("<BBQQQ")

_PAYLOAD_HEADER = bytes([MAGIC, VERSION])
_NONE_BYTES = bytes([_TAG_NONE])
_TRUE_BYTES = bytes([_TAG_BOOL, 1])
_FALSE_BYTES = bytes([_TAG_BOOL, 0])
_COLUMNS_BYTES = bytes([_TAG_COLUMNS])
_STR_TAG_BYTE = bytes([_TAG_STR])

#: ``array`` typecodes of the typed-list bodies (int64 and float64).
_TYPED_LIST_CODES = {_TAG_INT_LIST: "q", _TAG_FLOAT_LIST: "d"}


def _int_to_bytes(value: int) -> bytes:
    value = abs(value)
    length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "little")


def _bigint_bytes(value: int) -> bytes:
    raw = _int_to_bytes(value)
    return _BBQ.pack(_TAG_BIGINT, 1 if value < 0 else 0,
                             len(raw)) + raw


#: Pre-encoded small ints (flags, counts, owner ids, shard counts).
_SMALL_INT_MIN, _SMALL_INT_MAX = -256, 1024
_SMALL_INTS = [_bigint_bytes(value)
               for value in range(_SMALL_INT_MIN, _SMALL_INT_MAX)]

#: Encoded short dict keys and frame kinds, filled on first use and
#: bounded.  Other strings (column names, domain values, tokens) are
#: encoded afresh each time, so no data value outlives its frame here.
_STR_CACHE: dict[str, bytes] = {}
_STR_CACHE_MAX_LEN = 64
_STR_CACHE_MAX_ENTRIES = 4096


def encode(payload, arena=None) -> bytes:
    """Encode a protocol payload to bytes.

    With ``arena`` (a :class:`repro.network.shm.ShmArena`), large
    arrays land in the shared pages and the returned bytes carry only
    references — same-host channels skip shipping array bodies.

    Raises:
        ProtocolError: for unsupported payload types, including arrays
            of a non-integer dtype.
    """
    out = [_PAYLOAD_HEADER]
    _encode_into(payload, out, 0, arena)
    return b"".join(out)


def _encode_into(payload, out: list, depth: int, arena) -> None:
    """Append ``payload``'s tagged body to ``out``.

    Exact types dispatch through :data:`_ENCODERS`; anything else
    (numpy scalars, subclasses) is normalised by :func:`_encode_other`.
    """
    if depth > _MAX_DEPTH:
        _too_deep()
    (_ENCODERS.get(payload.__class__) or _encode_other)(
        payload, out, depth, arena)


def _encode_items(items, out: list, depth: int, arena) -> None:
    """Append each item's tagged body, one nesting level below ``depth``."""
    depth += 1
    if depth > _MAX_DEPTH and items:
        _too_deep()
    get = _ENCODERS.get
    for item in items:
        (get(item.__class__) or _encode_other)(item, out, depth, arena)


def _too_deep():
    raise ProtocolError(
        f"payload nesting exceeds the wire depth limit ({_MAX_DEPTH})")


def _encode_none(payload, out, depth, arena) -> None:
    out.append(_NONE_BYTES)


def _encode_bool(payload, out, depth, arena) -> None:
    # A dedicated tag: booleans round-trip as booleans, never as 0/1
    # ints (the kernel flag list subtract_m is semantically boolean on
    # the RPC surface).
    out.append(_TRUE_BYTES if payload else _FALSE_BYTES)


def _encode_int(payload, out, depth, arena) -> None:
    if _SMALL_INT_MIN <= payload < _SMALL_INT_MAX:
        out.append(_SMALL_INTS[payload - _SMALL_INT_MIN])
    else:
        out.append(_bigint_bytes(payload))


def _encode_float(payload, out, depth, arena) -> None:
    out.append(_Bd.pack(_TAG_FLOAT, payload))


def _encode_str(payload, out, depth, arena) -> None:
    out.append(_str_bytes(payload))


def _str_bytes(payload: str) -> bytes:
    raw = payload.encode("utf-8")
    return _BQ.pack(_TAG_STR, len(raw)) + raw


def _key_bytes(key: str) -> bytes:
    """A dict key's or frame kind's encoding, through the cache."""
    blob = _STR_CACHE.get(key)
    if blob is None:
        blob = _str_bytes(key)
        if (len(key) <= _STR_CACHE_MAX_LEN
                and len(_STR_CACHE) < _STR_CACHE_MAX_ENTRIES):
            _STR_CACHE[key] = blob
    return blob


def _encode_bytes(payload, out, depth, arena) -> None:
    out.append(_BQ.pack(_TAG_BYTES, len(payload)))
    out.append(bytes(payload))


def _encode_tuple(payload, out, depth, arena) -> None:
    out.append(_BQ.pack(_TAG_TUPLE, len(payload)))
    _encode_items(payload, out, depth, arena)


def _encode_list(items, out, depth, arena, kinds=None) -> None:
    """A list as one typed body when every item is an exact ``int``
    within int64 (or an exact ``float``), else one tagged item each.
    ``kinds`` is the set of item types, when the caller has it."""
    kinds = set(map(type, items)) if kinds is None else kinds
    if kinds == {int}:
        try:
            out.append(struct.pack(f"<BQ{len(items)}q", _TAG_INT_LIST,
                                   len(items), *items))
            return
        except struct.error:  # an item outside int64
            pass
    elif kinds == {float}:
        out.append(struct.pack(f"<BQ{len(items)}d", _TAG_FLOAT_LIST,
                               len(items), *items))
        return
    out.append(_BQ.pack(_TAG_LIST, len(items)))
    _encode_items(items, out, depth, arena)


def _encode_dict(payload, out, depth, arena) -> None:
    for key in payload:
        if not isinstance(key, str):
            break
    else:
        out.append(_BQ.pack(_TAG_DICT, len(payload)))
        depth += 1
        if depth > _MAX_DEPTH and payload:
            _too_deep()
        get, strings = _ENCODERS.get, _STR_CACHE.get
        for key, value in payload.items():
            out.append(strings(key) or _key_bytes(key))
            (get(value.__class__) or _encode_other)(value, out, depth, arena)
        return
    # Non-string keys (the extrema rounds key share dicts by owner id,
    # results by domain value): columnar, so int keys and int/float
    # values each travel as one typed body.  Keys are restricted to
    # hashable scalars so decoding always yields a legal dict.
    keys = list(payload)
    key_kinds = set(map(type, keys))
    _check_key_kinds(key_kinds, (np.integer,))
    out.append(_COLUMNS_BYTES)
    _encode_list(keys, out, depth, arena, key_kinds)
    _encode_list(list(payload.values()), out, depth, arena)


def _encode_array(payload, out, depth, arena) -> None:
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
                out.append(_BBQQQ.pack(_TAG_MATRIX_SHM, code, shm_offset,
                                       *payload.shape))
            else:
                out.append(_BBQQ.pack(_TAG_VECTOR_SHM, code, shm_offset,
                                      payload.shape[0]))
            return
    if payload.ndim == 2:
        out.append(_BBQQ.pack(_TAG_MATRIX, code, *payload.shape))
    else:
        out.append(_BBQ.pack(_TAG_VECTOR, code, payload.shape[0]))
    out.append(contiguous.tobytes())


def _encode_other(payload, out, depth, arena) -> None:
    """Normalise numpy scalars and subclasses of the wire types."""
    if isinstance(payload, np.ndarray):
        _encode_array(payload, out, depth, arena)
    elif isinstance(payload, (bool, np.bool_)):
        _encode_bool(payload, out, depth, arena)
    elif isinstance(payload, (int, np.integer)):
        _encode_int(int(payload), out, depth, arena)
    elif isinstance(payload, (float, np.floating)):
        _encode_float(float(payload), out, depth, arena)
    elif isinstance(payload, str):
        raw = payload.encode("utf-8")
        out.append(_BQ.pack(_TAG_STR, len(raw)))
        out.append(raw)
    elif isinstance(payload, (bytes, bytearray)):
        _encode_bytes(payload, out, depth, arena)
    elif isinstance(payload, tuple):
        _encode_tuple(payload, out, depth, arena)
    elif isinstance(payload, list):
        _encode_list(payload, out, depth, arena)
    elif isinstance(payload, dict):
        _encode_dict(payload, out, depth, arena)
    else:
        raise ProtocolError(
            f"cannot serialise payload of type {type(payload).__name__}"
        )


#: Encoders keyed on exact type; every other type takes the fallback.
_ENCODERS = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    tuple: _encode_tuple,
    list: _encode_list,
    dict: _encode_dict,
    np.ndarray: _encode_array,
}


def _check_key_kinds(kinds, extra=()) -> None:
    """Raise unless every map key type is a hashable scalar."""
    for kind in kinds:
        if not issubclass(kind, _MAP_KEY_TYPES + extra):
            raise ProtocolError(
                f"wire maps need scalar keys, not {kind.__name__}")


def decode(blob: bytes, arena=None):
    """Decode bytes produced by :func:`encode`.

    Raises:
        ProtocolError: on a bad magic byte, unknown version/tag, a
            truncated body, or a shared-memory reference without (or
            outside) ``arena``.
    """
    if len(blob) < 2:
        raise ProtocolError("wire message too short for its header")
    magic, version = blob[0], blob[1]
    if magic != MAGIC:
        raise ProtocolError(f"bad magic byte 0x{magic:02x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    payload, offset = _decode_body(blob, 2, arena=arena)
    if offset != len(blob):
        raise ProtocolError(f"{len(blob) - offset} trailing bytes on the wire")
    return payload


def _count_at(blob, offset: int, what: str) -> int:
    try:
        return _Q.unpack_from(blob, offset)[0]
    except struct.error:
        raise ProtocolError(f"truncated {what}") from None


def _decode_body(blob, offset: int, depth: int = 0, arena=None):
    """One tagged body at ``offset``: ``(value, offset past it)``."""
    if depth > _MAX_DEPTH:
        _too_deep()
    try:
        tag = blob[offset]
    except IndexError:
        raise ProtocolError("truncated wire message") from None
    offset += 1
    if tag == _TAG_STR:
        return _decode_str(blob, offset)
    if tag == _TAG_BIGINT:
        try:
            negative, length = _BQ.unpack_from(blob, offset)
        except struct.error:
            raise ProtocolError("truncated integer header") from None
        offset += 9
        end = offset + length
        if end > len(blob):
            raise ProtocolError("truncated integer")
        value = int.from_bytes(blob[offset:end], "little")
        return -value if negative else value, end
    if tag == _TAG_DICT:
        count = _count_at(blob, offset, "container header")
        offset += 8
        depth += 1
        out = {}
        for _ in range(count):
            if blob[offset:offset + 1] == _STR_TAG_BYTE:
                key, offset = _decode_str(blob, offset + 1)
            else:
                key, offset = _decode_body(blob, offset, depth, arena)
                if key.__class__ is not str:
                    raise ProtocolError("wire dicts use string keys")
            out[key], offset = _decode_body(blob, offset, depth, arena)
        return out, offset
    if tag == _TAG_INT_LIST or tag == _TAG_FLOAT_LIST:
        return _decode_typed(blob, offset, tag)
    if tag == _TAG_LIST or tag == _TAG_TUPLE:
        return _decode_tagged(blob, offset, tag, depth, arena)
    if tag == _TAG_FLOAT:
        try:
            return _d.unpack_from(blob, offset)[0], offset + 8
        except struct.error:
            raise ProtocolError("truncated float") from None
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_BOOL:
        try:
            flag = blob[offset]
        except IndexError:
            raise ProtocolError("truncated boolean") from None
        if flag > 1:
            raise ProtocolError(f"boolean byte must be 0/1, got {flag}")
        return flag == 1, offset + 1
    if tag == _TAG_VECTOR or tag == _TAG_MATRIX:
        matrix = tag == _TAG_MATRIX
        try:
            code, *shape = (_BQQ if matrix else _BQ
                            ).unpack_from(blob, offset)
        except struct.error:
            raise ProtocolError("truncated share-array header") from None
        dtype = _wire_dtype(code)
        offset += 17 if matrix else 9
        count = shape[0] * shape[1] if matrix else shape[0]
        end = offset + dtype.itemsize * count
        if end > len(blob):
            raise ProtocolError("truncated share array")
        return _decode_array(blob, offset, dtype, count).reshape(shape), end
    if tag == _TAG_BYTES:
        length = _count_at(blob, offset, "string header")
        offset += 8
        end = offset + length
        if end > len(blob):
            raise ProtocolError("truncated string")
        return blob[offset:end], end
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
    if tag == _TAG_VECTOR_SHM or tag == _TAG_MATRIX_SHM:
        if arena is None:
            raise ProtocolError(
                "shared-memory frame decoded without an arena: shm "
                "references must never cross a host boundary")
        matrix = tag == _TAG_MATRIX_SHM
        try:
            code, shm_offset, *shape = (
                _BQQQ if matrix else _BQQ
            ).unpack_from(blob, offset)
        except struct.error:
            raise ProtocolError(
                "truncated shared-memory reference") from None
        offset += 25 if matrix else 17
        count = shape[0] * shape[1] if matrix else shape[0]
        array_ = arena.read_array(shm_offset, count, _wire_dtype(code))
        return array_.reshape(shape), offset
    raise ProtocolError(f"unknown wire tag {tag}")


def _decode_str(blob, offset: int):
    """A string body (past its tag): ``(str, offset past it)``."""
    try:
        (length,) = _Q.unpack_from(blob, offset)
    except struct.error:
        raise ProtocolError("truncated string header") from None
    offset += 8
    end = offset + length
    if end > len(blob):
        raise ProtocolError("truncated string")
    try:
        return blob[offset:end].decode("utf-8"), end
    except UnicodeDecodeError:
        raise ProtocolError("string is not valid UTF-8") from None


def _decode_typed(blob, offset: int, tag: int):
    """The body of a typed list: a u64 count, then one int64/float64 run."""
    count = _count_at(blob, offset, "container header")
    offset += 8
    end = offset + 8 * count
    if end > len(blob):
        raise ProtocolError("truncated typed list")
    code = _TYPED_LIST_CODES[tag]
    if _NATIVE_LE:
        return memoryview(blob)[offset:end].cast(code).tolist(), end
    body = array.array(code, blob[offset:end])
    body.byteswap()
    return body.tolist(), end


def _decode_tagged(blob, offset: int, tag: int, depth: int, arena):
    """The body of a tagged-item list or a tuple."""
    count = _count_at(blob, offset, "container header")
    offset += 8
    depth += 1
    items = []
    for _ in range(count):
        item, offset = _decode_body(blob, offset, depth, arena)
        items.append(item)
    return (tuple(items) if tag == _TAG_TUPLE else items), offset


def _decode_column(blob, offset: int, depth: int, arena):
    """One column of a map: a typed or tagged-item list."""
    try:
        tag = blob[offset]
    except IndexError:
        raise ProtocolError("truncated wire map") from None
    if tag == _TAG_INT_LIST or tag == _TAG_FLOAT_LIST:
        return _decode_typed(blob, offset + 1, tag)
    if tag != _TAG_LIST:
        raise ProtocolError(f"wire map column has tag {tag}, not a list")
    return _decode_tagged(blob, offset + 1, tag, depth, arena)


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
    out = [_FRAME_HEADER.pack(FRAME_MAGIC, VERSION, int(correlation_id),
                              lo, hi)]
    out.append(_key_bytes(kind))
    _encode_into(payload, out, 0, arena)
    return b"".join(out)


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
