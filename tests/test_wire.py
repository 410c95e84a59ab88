"""Wire-format hardening: the versioned codec round-trips every
message type and rejects every malformed input with ``WireError``.

The serve mode's server loop treats ``except WireError`` as its whole
hardening boundary, so the property pinned here — *no* input makes
``decode_message``/``FrameAssembler`` raise anything else — is what
keeps a hostile byte stream from killing the service.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.geometry import Approach, Movement, Turn
from repro.network import messages as M
from repro.network.wire import (
    MAX_FRAME,
    WIRE_MAGIC,
    WIRE_VERSION,
    FrameAssembler,
    WireError,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.vehicle import VehicleSpec
from repro.vehicle.spec import VehicleInfo

ALL_TYPES = [getattr(M, name) for name in M.__all__ if name != "Message"]


def _vehicle_info(rng):
    return VehicleInfo(
        vehicle_id=int(rng.integers(0, 1000)),
        spec=VehicleSpec(
            length=float(rng.uniform(0.3, 1.0)),
            width=float(rng.uniform(0.1, 0.5)),
            a_max=float(rng.uniform(1.0, 5.0)),
            d_max=float(rng.uniform(1.0, 5.0)),
            v_max=float(rng.uniform(1.0, 5.0)),
            wheelbase=0.3,
        ),
        movement=Movement(
            entry=rng.choice(list(Approach)),
            turn=rng.choice(list(Turn)),
        ),
        buffer=float(rng.uniform(0.0, 0.2)),
    )


#: Base messages of the mutation tests: one with a float field, one
#: with a vehicle_info.
SYNC = M.SyncRequest(sender="a", receiver="b")
CROSSING = M.CrossingRequest(
    sender="a", receiver="b", vehicle_info=_vehicle_info(np.random.default_rng(1))
)


def _random_message(cls, rng):
    message = cls(sender=f"V{int(rng.integers(0, 99))}", receiver="IM")
    for f in dataclasses.fields(cls):
        if f.name in ("sender", "receiver", "seq", "corr"):
            continue
        if f.name == "vehicle_info":
            value = _vehicle_info(rng) if rng.random() < 0.8 else None
        elif isinstance(f.default, bool):
            value = bool(rng.random() < 0.5)
        elif isinstance(f.default, int):
            value = int(rng.integers(0, 10_000))
        else:
            value = float(rng.uniform(-1e6, 1e6))
        setattr(message, f.name, value)
    message.corr = int(rng.integers(0, 10_000))
    return message


class TestRoundTrip:
    @pytest.mark.parametrize("cls", ALL_TYPES, ids=lambda c: c.__name__)
    def test_defaults_round_trip(self, cls):
        message = cls(sender="a", receiver="b")
        decoded = decode_message(encode_message(message))
        assert decoded == message
        assert type(decoded) is cls
        assert decoded.seq == message.seq
        assert decoded.corr == message.corr

    @pytest.mark.parametrize("cls", ALL_TYPES, ids=lambda c: c.__name__)
    def test_random_payloads_round_trip(self, cls):
        rng = np.random.default_rng(hash(cls.__name__) % 2**32)
        for _ in range(25):
            message = _random_message(cls, rng)
            assert decode_message(encode_message(message)) == message

    def test_decode_does_not_consume_global_seq(self):
        """Re-constructing via the dataclass would shift every later
        seq — the property the CodecChannel bit-identity rests on."""
        message = M.CrossingRequest(sender="V1", receiver="IM", tt=1.0)
        payload = encode_message(message)
        probe_a = M.Ack(sender="x", receiver="y")
        decode_message(payload)
        decode_message(payload)
        probe_b = M.Ack(sender="x", receiver="y")
        assert probe_b.seq == probe_a.seq + 1

    def test_float_fields_accept_json_integers(self):
        message = M.SyncRequest(sender="a", receiver="b", t0=2.0)
        payload = encode_message(message)
        body = json.loads(payload[2:])
        body["fields"]["t0"] = 2  # ints are valid JSON numbers
        raw = bytes((WIRE_MAGIC, WIRE_VERSION)) + json.dumps(body).encode()
        decoded = decode_message(raw)
        assert decoded.t0 == 2.0 and isinstance(decoded.t0, float)


def _pinned_info():
    return VehicleInfo(
        vehicle_id=17,
        spec=VehicleSpec(length=0.568, width=0.296, a_max=3.0, d_max=4.0,
                         v_max=3.0, wheelbase=0.335),
        movement=Movement(entry=Approach.EAST, turn=Turn.LEFT),
        buffer=0.05,
    )


_INFO_JSON = (
    b'{"buffer":0.05,"movement":{"entry":"E","turn":"left"},'
    b'"spec":{"a_max":3.0,"d_max":4.0,"length":0.568,"v_max":3.0,'
    b'"wheelbase":0.335,"width":0.296},"vehicle_id":17}'
)

#: One fixed instance of every wire type and the exact payload it
#: encodes to: key order, separators, float repr, ASCII escaping.
WIRE_BYTES = [
    (lambda: M.SyncRequest(sender="V17", receiver="IM", t0=1.25), 41,
     b'{"corr":41,"fields":{"t0":1.25},"kind":"SyncRequest",'
     b'"receiver":"IM","sender":"V17","seq":41}'),
    (lambda: M.SyncResponse(sender="IM", receiver="V17", t0=1.25, t1=1.5,
                            t2=1.75), 42,
     b'{"corr":41,"fields":{"t0":1.25,"t1":1.5,"t2":1.75},'
     b'"kind":"SyncResponse","receiver":"V17","sender":"IM","seq":42}'),
    (lambda: M.CrossingRequest(sender="V17", receiver="IM", tt=2.5, dt=6.0,
                               vc=1.875, vehicle_info=_pinned_info()), 43,
     b'{"corr":41,"fields":{"dt":6.0,"tt":2.5,"vc":1.875,"vehicle_info":'
     + _INFO_JSON + b'},"kind":"CrossingRequest","receiver":"IM",'
     b'"sender":"V17","seq":43}'),
    (lambda: M.VelocityCommand(sender="IM", receiver="V17", vt=2.25, toa=4.5,
                               in_reply_to=41), 44,
     b'{"corr":41,"fields":{"in_reply_to":41,"toa":4.5,"vt":2.25},'
     b'"kind":"VelocityCommand","receiver":"V17","sender":"IM","seq":44}'),
    (lambda: M.CrossroadsCommand(sender="IM", receiver="V17", te=2.65,
                                 toa=4.125, vt=2.5, in_reply_to=41), 45,
     b'{"corr":41,"fields":{"in_reply_to":41,"te":2.65,"toa":4.125,'
     b'"vt":2.5},"kind":"CrossroadsCommand","receiver":"V17",'
     b'"sender":"IM","seq":45}'),
    (lambda: M.AimRequest(sender="V17", receiver="IM", toa=3.5, vc=2.0,
                          vehicle_info=_pinned_info(), accelerate=True,
                          standoff=0.25), 46,
     b'{"corr":41,"fields":{"accelerate":true,"standoff":0.25,"toa":3.5,'
     b'"vc":2.0,"vehicle_info":' + _INFO_JSON + b'},"kind":"AimRequest",'
     b'"receiver":"IM","sender":"V17","seq":46}'),
    (lambda: M.AimAccept(sender="IM", receiver="V17", toa=3.5, vc=2.0,
                         in_reply_to=41), 47,
     b'{"corr":41,"fields":{"in_reply_to":41,"toa":3.5,"vc":2.0},'
     b'"kind":"AimAccept","receiver":"V17","sender":"IM","seq":47}'),
    (lambda: M.AimReject(sender="IM", receiver="V17", in_reply_to=41), 48,
     b'{"corr":41,"fields":{"in_reply_to":41},"kind":"AimReject",'
     b'"receiver":"V17","sender":"IM","seq":48}'),
    (lambda: M.CancelReservation(sender="V17", receiver="IM"), 49,
     b'{"corr":41,"fields":{},"kind":"CancelReservation","receiver":"IM",'
     b'"sender":"V17","seq":49}'),
    (lambda: M.ExitNotification(sender="Vé17", receiver="IM",
                                exit_time=7.0625), 50,
     b'{"corr":41,"fields":{"exit_time":7.0625},"kind":"ExitNotification",'
     b'"receiver":"IM","sender":"V\\u00e917","seq":50}'),
    (lambda: M.Ack(sender="IM", receiver="V17", acked_seq=41), 51,
     b'{"corr":41,"fields":{"acked_seq":41},"kind":"Ack","receiver":"V17",'
     b'"sender":"IM","seq":51}'),
]


class TestWireBytes:
    """The encoder's exact output, so a change of key order, separators
    or escaping cannot pass the round-trip tests unnoticed."""

    def test_every_type_pinned_once(self):
        kinds = sorted(type(make()).__name__ for make, _, _ in WIRE_BYTES)
        assert kinds == sorted(cls.__name__ for cls in ALL_TYPES)

    @pytest.mark.parametrize(
        "make,seq,body", WIRE_BYTES,
        ids=[body.split(b'"kind":"')[1].split(b'"')[0].decode()
             for _, _, body in WIRE_BYTES],
    )
    def test_encodes_to_pinned_bytes(self, make, seq, body):
        message = make()
        message.seq = seq
        message.corr = 41
        payload = bytes((WIRE_MAGIC, WIRE_VERSION)) + body
        assert encode_message(message) == payload
        decoded = decode_message(payload)
        assert decoded == message
        assert (decoded.seq, decoded.corr) == (seq, 41)


class TestRejection:
    """Every malformed input raises WireError — nothing else."""

    @pytest.mark.parametrize("junk", [
        b"",
        b"\x00",
        b"\xc5",
        bytes((0x00, WIRE_VERSION)) + b"{}",          # bad magic
        bytes((WIRE_MAGIC, WIRE_VERSION + 1)) + b"{}",  # future version
        bytes((WIRE_MAGIC, WIRE_VERSION)) + b"not json",
        bytes((WIRE_MAGIC, WIRE_VERSION)) + b"[1,2]",   # not an object
        bytes((WIRE_MAGIC, WIRE_VERSION)) + b"\xff\xfe",  # not UTF-8
    ], ids=["empty", "one-byte", "magic-only", "bad-magic", "bad-version",
            "garbage", "non-object", "non-utf8"])
    def test_garbage_rejected(self, junk):
        with pytest.raises(WireError):
            decode_message(junk)

    def test_truncated_valid_payload_rejected(self):
        payload = encode_message(M.Ack(sender="a", receiver="b"))
        for cut in range(2, len(payload) - 1):
            with pytest.raises(WireError):
                decode_message(payload[:cut])

    def test_random_garbage_never_raises_anything_else(self):
        rng = np.random.default_rng(2017)
        for _ in range(300):
            blob = rng.bytes(int(rng.integers(0, 64)))
            try:
                decode_message(blob)
            except WireError:
                pass  # the only allowed outcome for bad input

    def test_mutated_valid_frames_never_raise_anything_else(self):
        rng = np.random.default_rng(7)
        base = encode_message(_random_message(M.CrossingRequest, rng))
        for _ in range(300):
            blob = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                blob[int(rng.integers(0, len(blob)))] = int(
                    rng.integers(0, 256)
                )
            try:
                decode_message(bytes(blob))
            except WireError:
                pass

    @pytest.mark.parametrize("base,mutate", [
        (SYNC, lambda b: b.pop("fields")),
        (SYNC, lambda b: b.__setitem__("kind", "NoSuchMessage")),
        (SYNC, lambda b: b.__setitem__("kind", 7)),
        (SYNC, lambda b: b.__setitem__("seq", "one")),
        (SYNC, lambda b: b.__setitem__("seq", True)),
        (SYNC, lambda b: b.__setitem__("sender", 3)),
        (SYNC, lambda b: b.__setitem__("extra", 1)),
        (SYNC, lambda b: b["fields"].__setitem__("bogus", 1)),
        (SYNC, lambda b: b["fields"].pop("t0")),
        (SYNC, lambda b: b["fields"].__setitem__("t0", "late")),
        (SYNC, lambda b: b["fields"].__setitem__("t0", True)),
        # json.dumps writes these as the NaN / Infinity literals.
        (SYNC, lambda b: b["fields"].__setitem__("t0", math.nan)),
        (SYNC, lambda b: b["fields"].__setitem__("t0", math.inf)),
        (SYNC, lambda b: b["fields"].__setitem__("t0", -math.inf)),
        (CROSSING, lambda b: b["fields"]["vehicle_info"].__setitem__(
            "buffer", math.nan)),
        (CROSSING, lambda b: b["fields"]["vehicle_info"].__setitem__(
            "buffer", math.inf)),
        (CROSSING, lambda b: b["fields"]["vehicle_info"]["spec"].__setitem__(
            "width", math.nan)),
        (CROSSING, lambda b: b["fields"]["vehicle_info"]["spec"].__setitem__(
            "width", math.inf)),
    ], ids=["no-fields", "unknown-kind", "non-str-kind", "str-seq",
            "bool-seq", "int-sender", "extra-key", "extra-field",
            "missing-field", "str-float", "bool-float", "nan-float",
            "inf-float", "neg-inf-float", "nan-buffer", "inf-buffer",
            "nan-width", "inf-width"])
    def test_structural_mutations_rejected(self, base, mutate):
        body = json.loads(encode_message(base)[2:])
        mutate(body)
        raw = bytes((WIRE_MAGIC, WIRE_VERSION)) + json.dumps(body).encode()
        with pytest.raises(WireError):
            decode_message(raw)

    @pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" + "0" * 400],
                             ids=["1e999", "-1e999", "400-digit-int"])
    def test_numbers_beyond_float_range_rejected(self, literal):
        """Literals that overflow a float, in a float field and in a
        vehicle_info field, are refused like NaN and Infinity."""
        for base, mark in (
            (SYNC, lambda b: b["fields"].__setitem__("t0", 4321.5)),
            (CROSSING, lambda b: b["fields"]["vehicle_info"].__setitem__(
                "buffer", 4321.5)),
        ):
            body = json.loads(encode_message(base)[2:])
            mark(body)
            text = json.dumps(body)
            assert text.count("4321.5") == 1
            raw = bytes((WIRE_MAGIC, WIRE_VERSION)) + text.replace(
                "4321.5", literal).encode()
            with pytest.raises(WireError):
                decode_message(raw)

    def test_bad_vehicle_info_rejected(self):
        message = M.CrossingRequest(
            sender="a", receiver="b",
            vehicle_info=_vehicle_info(np.random.default_rng(1)),
        )
        payload = encode_message(message)
        body = json.loads(payload[2:])
        for mutation in [
            lambda v: v.__setitem__("vehicle_id", "x"),
            lambda v: v["spec"].__setitem__("length", -1.0),  # fails validation
            lambda v: v["spec"].pop("width"),
            lambda v: v["movement"].__setitem__("entry", "Q"),
            lambda v: v["movement"].__setitem__("turn", "u-turn"),
        ]:
            mutated = json.loads(json.dumps(body))
            mutation(mutated["fields"]["vehicle_info"])
            raw = bytes((WIRE_MAGIC, WIRE_VERSION)) + json.dumps(
                mutated
            ).encode()
            with pytest.raises(WireError):
                decode_message(raw)

    def test_nan_unencodable(self):
        message = M.SyncRequest(sender="a", receiver="b", t0=float("nan"))
        with pytest.raises(WireError):
            encode_message(message)

    def test_non_wire_object_unencodable(self):
        with pytest.raises(WireError):
            encode_message("not a message")


class TestFraming:
    def test_chunked_reassembly(self):
        rng = np.random.default_rng(5)
        frames = [
            encode_frame(_random_message(cls, rng))
            for cls in ALL_TYPES
            for _ in range(3)
        ]
        stream = b"".join(frames)
        assembler = FrameAssembler()
        payloads = []
        for i in range(0, len(stream), 7):  # deliberately odd chunking
            payloads.extend(assembler.feed(stream[i:i + 7]))
        assert len(payloads) == len(frames)
        assert assembler.pending() == 0
        for payload, frame in zip(payloads, frames):
            assert payload == frame[4:]
            decode_message(payload)  # every reassembled payload parses

    @pytest.mark.parametrize("length", [0, MAX_FRAME + 1, 0xFFFFFFFF])
    def test_out_of_bounds_length_prefix_rejected(self, length):
        assembler = FrameAssembler()
        with pytest.raises(WireError):
            assembler.feed(length.to_bytes(4, "big") + b"xxxx")

    def test_oversize_payload_unencodable(self):
        message = M.SyncRequest(sender="a" * (MAX_FRAME + 16), receiver="b")
        with pytest.raises(WireError):
            encode_frame(message)
