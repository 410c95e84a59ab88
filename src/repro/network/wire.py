"""Versioned wire codec for the protocol messages.

The serve mode (``repro.serve``) ships the exact
:mod:`repro.network.messages` dataclasses over TCP.  Frames are::

    [4-byte big-endian payload length][payload]
    payload = [magic byte][version byte][compact JSON body]

The JSON body carries the message kind, addressing, ``seq``/``corr``
and the per-type payload fields (``vehicle_info`` as a nested dict).
Every malformed input — truncated frame, bad magic, unknown version,
garbage JSON, unknown kind, missing/extra/badly-typed fields, a
non-finite number (``NaN``, ``Infinity``, an overflowing literal) —
raises :class:`WireError` (never an arbitrary exception), so server
loops can treat one ``except WireError`` as the complete hardening
boundary.

Decoding rebuilds messages with ``cls.__new__`` + ``setattr`` instead
of calling the dataclass constructor: constructing normally would
consume the global message sequence counter, and decode must restore
the *sender's* ``seq`` verbatim.  That property is what makes
:class:`CodecChannel` (every transmission round-tripped through the
codec) bit-identical to the stock :class:`~repro.network.channel.Channel`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type

from repro.network import messages as _messages
from repro.network.channel import Channel
from repro.network.messages import Message

__all__ = [
    "CodecChannel",
    "FrameAssembler",
    "MAX_FRAME",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireError",
    "codec_transport",
    "decode_message",
    "encode_frame",
    "encode_message",
]

#: First payload byte; rejects frames from non-repro peers early.
WIRE_MAGIC = 0xC5
#: Wire format version; bumped on any incompatible change.
WIRE_VERSION = 1
#: Upper bound on a single payload — anything larger is an attack or a
#: corrupted length prefix, not a protocol message.
MAX_FRAME = 1 << 20

_HEADER = struct.Struct(">I")


class WireError(Exception):
    """Typed decode/encode failure: the frame is not a valid message."""


#: Message registry: wire ``kind`` -> dataclass.
_TYPES: Dict[str, Type[Message]] = {
    name: getattr(_messages, name)
    for name in _messages.__all__
    if name != "Message"
}

_ADDRESSING = ("sender", "receiver", "seq", "corr")

#: Per-class payload field specs: (name, kind) where kind is one of
#: "bool" / "int" / "float" / "vinfo".  Inferred once from the
#: dataclass defaults so new message types pick up codec support
#: automatically.
_SPEC_CACHE: Dict[Type[Message], Tuple[Tuple[str, str], ...]] = {}
#: Per-class set of those field names, filled alongside.
_NAME_CACHE: Dict[Type[Message], frozenset] = {}


def _field_specs(cls: Type[Message]) -> Tuple[Tuple[str, str], ...]:
    cached = _SPEC_CACHE.get(cls)
    if cached is not None:
        return cached
    specs = []
    for f in dataclasses.fields(cls):
        if f.name in _ADDRESSING:
            continue
        if f.name == "vehicle_info":
            specs.append((f.name, "vinfo"))
        elif isinstance(f.default, bool):
            specs.append((f.name, "bool"))
        elif isinstance(f.default, int):
            specs.append((f.name, "int"))
        elif isinstance(f.default, float):
            specs.append((f.name, "float"))
        else:  # pragma: no cover - no such field exists today
            raise WireError(
                f"{cls.__name__}.{f.name} has no wire representation"
            )
    result = tuple(specs)
    _SPEC_CACHE[cls] = result
    _NAME_CACHE[cls] = frozenset(name for name, _ in result)
    return result


def _encode_vehicle_info(info: Any) -> Optional[dict]:
    if info is None:
        return None
    try:
        spec = info.spec
        movement = info.movement
        return {
            "vehicle_id": int(info.vehicle_id),
            "buffer": float(info.buffer),
            "spec": {
                "length": float(spec.length),
                "width": float(spec.width),
                "a_max": float(spec.a_max),
                "d_max": float(spec.d_max),
                "v_max": float(spec.v_max),
                "wheelbase": float(spec.wheelbase),
            },
            "movement": {
                "entry": movement.entry.value,
                "turn": movement.turn.value,
            },
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise WireError(f"unencodable vehicle_info: {exc}") from exc


def _decode_vehicle_info(payload: Any) -> Any:
    if payload is None:
        return None
    # network is layer 1; vehicle/geometry classes are imported lazily
    # (the sanctioned escape hatch in tools/check_layers.py).
    from repro.geometry.layout import Approach, Movement, Turn
    from repro.vehicle.spec import VehicleInfo, VehicleSpec

    if not isinstance(payload, dict):
        raise WireError("vehicle_info must be null or an object")
    try:
        spec_d = payload["spec"]
        move_d = payload["movement"]
        spec = VehicleSpec(
            length=float(spec_d["length"]),
            width=float(spec_d["width"]),
            a_max=float(spec_d["a_max"]),
            d_max=float(spec_d["d_max"]),
            v_max=float(spec_d["v_max"]),
            wheelbase=float(spec_d["wheelbase"]),
        )
        movement = Movement(
            entry=Approach(move_d["entry"]),
            turn=Turn(move_d["turn"]),
        )
        return VehicleInfo(
            vehicle_id=int(payload["vehicle_id"]),
            spec=spec,
            movement=movement,
            buffer=float(payload["buffer"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise WireError(f"bad vehicle_info: {exc}") from exc


#: The one encoder and decoder, built once: ``json.dumps``/``json.loads``
#: construct a fresh one (and its scanner) per call when handed
#: non-default arguments.
_ENCODER = json.JSONEncoder(allow_nan=False, separators=(",", ":"), sort_keys=True)
_PREFIX = bytes((WIRE_MAGIC, WIRE_VERSION))
_BODY_KEYS = frozenset(("kind", "sender", "receiver", "seq", "corr", "fields"))


def encode_message(message: Message) -> bytes:
    """Serialise ``message`` to a wire payload (no length prefix)."""
    cls = type(message)
    if _TYPES.get(cls.__name__) is not cls:
        raise WireError(f"not a wire message type: {cls!r}")
    fields: Dict[str, Any] = {}
    for name, kind in _field_specs(cls):
        value = getattr(message, name)
        fields[name] = _encode_vehicle_info(value) if kind == "vinfo" else value
    body = {
        "kind": cls.__name__,
        "sender": message.sender,
        "receiver": message.receiver,
        "seq": message.seq,
        "corr": message.corr,
        "fields": fields,
    }
    try:
        text = _ENCODER.encode(body)
    except (TypeError, ValueError) as exc:
        raise WireError(f"unencodable message: {exc}") from exc
    return _PREFIX + text.encode("utf-8")


def _reject_constant(name: str) -> float:
    # ``json`` accepts NaN and +/-Infinity, which the encoder never
    # emits (``allow_nan=False``) and no message field may carry.
    raise WireError(f"non-finite number {name} in JSON body")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(name: str, kind: str, value: Any) -> Any:
    # Each error text is formatted only on its failing branch.
    if kind == "float":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise WireError(f"field {name!r} must be a number")
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond float range
            value = math.inf
        # A float literal beyond range, such as 1e999, parses to inf.
        if not math.isfinite(value):
            raise WireError(f"field {name!r} must be finite")
        return value
    if kind == "int":
        if not _is_int(value):
            raise WireError(f"field {name!r} must be an int")
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise WireError(f"field {name!r} must be a bool")
        return value
    return _decode_vehicle_info(value)


def decode_message(payload: bytes) -> Message:
    """Parse a wire payload back into its message dataclass.

    Raises :class:`WireError` on any malformed input.  The returned
    object carries the sender's ``seq``/``corr`` verbatim (the global
    sequence counter is not consumed).
    """
    if not isinstance(payload, (bytes, bytearray)):
        raise WireError("payload must be bytes")
    if len(payload) < 3:
        raise WireError("payload truncated")
    if payload[0] != WIRE_MAGIC:
        raise WireError(f"bad magic byte 0x{payload[0]:02x}")
    if payload[1] != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {payload[1]} (speaking {WIRE_VERSION})"
        )
    try:
        text = bytes(payload[2:]).decode("utf-8")
        if text.startswith("\ufeff"):  # as ``json.loads`` refuses it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            )
        body = _DECODER.decode(text)
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireError(f"bad JSON body: {exc}") from exc
    if not isinstance(body, dict):
        raise WireError("body must be an object")
    kind = body.get("kind")
    cls = _TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise WireError(f"unknown message kind {kind!r}")
    if body.keys() != _BODY_KEYS:
        raise WireError("bad body keys")
    sender = body["sender"]
    receiver = body["receiver"]
    if not (isinstance(sender, str) and isinstance(receiver, str)):
        raise WireError("sender/receiver must be strings")
    seq = body["seq"]
    corr = body["corr"]
    if not _is_int(seq):
        raise WireError("seq must be an int")
    if not _is_int(corr):
        raise WireError("corr must be an int")
    raw_fields = body["fields"]
    if not isinstance(raw_fields, dict):
        raise WireError("fields must be an object")
    specs = _field_specs(cls)
    if raw_fields.keys() != _NAME_CACHE[cls]:
        raise WireError(f"bad field set for {cls.__name__}")
    # __new__ + setattr: does not consume the global seq counter.
    message = cls.__new__(cls)
    message.sender = sender
    message.receiver = receiver
    message.seq = seq
    message.corr = corr
    for name, field_kind in specs:
        setattr(message, name, _coerce(name, field_kind, raw_fields[name]))
    return message


def encode_frame(message: Message) -> bytes:
    """Length-prefixed frame ready to write to a stream."""
    payload = encode_message(message)
    if len(payload) > MAX_FRAME:
        raise WireError(f"payload of {len(payload)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(payload)) + payload


class FrameAssembler:
    """Incremental splitter of a byte stream into wire payloads.

    Feed arbitrary chunks; complete payloads come back in order.  A
    declared length outside ``(0, MAX_FRAME]`` raises :class:`WireError`
    — the stream is unrecoverable past a corrupt prefix.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        """Every payload ``data`` completes (raises on a corrupt prefix)."""
        return list(self.split(data))

    def split(self, data: bytes) -> Iterator[bytes]:
        """Like :meth:`feed`, but yields each payload as soon as it is
        complete, so a caller that handles them one by one has handled
        every frame ahead of a corrupt prefix when the error is raised."""
        buffer = self._buffer
        buffer.extend(data)
        while len(buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buffer, 0)
            if length == 0 or length > MAX_FRAME:
                raise WireError(f"frame length {length} out of bounds")
            end = _HEADER.size + length
            if len(buffer) < end:
                return
            payload = bytes(buffer[_HEADER.size:end])
            del buffer[:end]
            yield payload

    def pending(self) -> int:
        """Bytes buffered awaiting a complete frame."""
        return len(self._buffer)


class CodecChannel(Channel):
    """A :class:`Channel` that encode/decodes every transmission.

    The in-process equivalence harness: if the codec is lossless, a
    world running on this transport is bit-identical to the stock
    channel (same RNG draws, same stats, same delivered values).
    """

    def transmit(self, message: Message) -> None:
        super().transmit(decode_message(encode_message(message)))


def codec_transport(
    env,
    delay_model=None,
    loss_probability: float = 0.0,
    rng=None,
    faults=None,
    obs=None,
) -> CodecChannel:
    """Factory with the :func:`~repro.network.transport.default_transport`
    signature, for :class:`~repro.sim.world.World`'s ``transport_factory``
    seam."""
    return CodecChannel(
        env,
        delay_model=delay_model,
        loss_probability=loss_probability,
        rng=rng,
        faults=faults,
        obs=obs,
    )
