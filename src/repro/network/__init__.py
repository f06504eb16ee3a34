"""The network layer: endpoints, traffic accounting, wire codec, channels.

Beyond the in-process transport simulation, this package carries the
deployment surface: the framed RPC envelope
(:func:`repro.network.codec.encode_frame`), the pluggable
:class:`~repro.network.rpc.Channel` implementations (in-process,
forked subprocess, pools of TCP hosts), and the standalone entity host
(:mod:`repro.network.host`, the ``repro-entity-host`` executable).
"""

from repro.network.codec import Frame, decode, decode_frame, encode, encode_frame
from repro.network.dispatch import (
    ConnectionLost,
    PooledChannel,
)
from repro.network.message import Endpoint, Message, Role, payload_nbytes
from repro.network.rpc import (
    Channel,
    Deployment,
    InProcessChannel,
    RpcMessage,
    SubprocessChannel,
)
from repro.network.transport import LocalTransport, TrafficStats

__all__ = [
    "Channel",
    "ConnectionLost",
    "Deployment",
    "Endpoint",
    "Frame",
    "InProcessChannel",
    "LocalTransport",
    "Message",
    "PooledChannel",
    "RpcMessage",
    "Role",
    "SubprocessChannel",
    "TrafficStats",
    "decode",
    "decode_frame",
    "encode",
    "encode_frame",
    "payload_nbytes",
]
