"""Binary and JSON encodings of silo messages.

The binary form is normative and deliberately dull: a 4-byte magic
``FQS1`` followed by little-endian fields,

    u16 silo-id length, silo-id bytes (UTF-8),
    u32 k,
    f64 trim_epsilon,
    u16 group count, then per group
        u16 label length, label bytes (UTF-8),
        u64 count,
        k * f64 sketch values.

Groups are written in sorted label order, so encoding is deterministic and
decode/encode round-trips byte-identically.  The JSON mirror uses the same
field names and exists for eyeballing payloads; it is not the normative
form.  Decoding is strict: wrong magic, truncation, trailing bytes or
unparseable text raise ``malformed-message``; a recognized container whose
sketch content violates the sketch contract raises ``invalid-sketch``; a
future format version raises ``unsupported-version``.
"""

from __future__ import annotations

import json
import struct
from typing import Dict

import numpy as np

from .errors import MalformedInputError, ValidationError
from .serialize import to_canonical_json
from .sketch import GridSpec, QuantileSketch
from .protocol import SiloMessage

__all__ = ["MAGIC", "encode_message", "decode_message", "message_to_json", "message_from_json"]

MAGIC = b"FQS1"


def encode_message(msg: SiloMessage) -> bytes:
    parts = [MAGIC]
    sid = msg.silo_id.encode("utf-8")
    parts.append(struct.pack("<H", len(sid)))
    parts.append(sid)
    parts.append(struct.pack("<Id", msg.grid.k, msg.grid.trim_epsilon))
    parts.append(struct.pack("<H", len(msg.entries)))
    for label in sorted(msg.entries):
        sk = msg.entries[label]
        lab = label.encode("utf-8")
        parts.append(struct.pack("<H", len(lab)))
        parts.append(lab)
        parts.append(struct.pack("<Q", sk.count))
        parts.append(np.ascontiguousarray(sk.values, dtype="<f8").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise MalformedInputError("malformed-message", "message is truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInputError("malformed-message", f"invalid UTF-8: {exc}") from None


def decode_message(data: bytes) -> SiloMessage:
    if not isinstance(data, (bytes, bytearray)):
        raise MalformedInputError("malformed-message", "expected bytes")
    rd = _Reader(bytes(data))
    magic = rd.take(4)
    if magic[:3] != MAGIC[:3]:
        raise MalformedInputError("malformed-message", f"bad magic {magic!r}")
    if magic != MAGIC:
        raise MalformedInputError("unsupported-version", f"unknown format version {magic!r}")
    (sid_len,) = rd.unpack("<H")
    silo_id = rd.text(sid_len)
    k, trim_epsilon = rd.unpack("<Id")
    (n_groups,) = rd.unpack("<H")
    if n_groups == 0:
        raise MalformedInputError("malformed-message", "message carries no groups")
    raw_entries = []
    for _ in range(n_groups):
        (lab_len,) = rd.unpack("<H")
        label = rd.text(lab_len)
        (count,) = rd.unpack("<Q")
        values = np.frombuffer(rd.take(8 * k), dtype="<f8").astype(np.float64)
        raw_entries.append((label, count, values))
    if rd.pos != len(rd.data):
        raise MalformedInputError("malformed-message", f"{len(rd.data) - rd.pos} trailing bytes")
    return _assemble(silo_id, k, trim_epsilon, raw_entries)


def _assemble(silo_id: str, k: int, trim_epsilon: float, raw_entries) -> SiloMessage:
    labels = [label for label, _, _ in raw_entries]
    if len(set(labels)) != len(labels):
        raise MalformedInputError("malformed-message", "duplicate group labels")
    where = f"silo {silo_id!r}"
    try:
        grid = GridSpec(k=int(k), trim_epsilon=float(trim_epsilon))
        entries: Dict[str, QuantileSketch] = {}
        for label, count, values in raw_entries:
            where = f"silo {silo_id!r}, group {label!r}"
            entries[label] = QuantileSketch(grid=grid, values=values, count=int(count))
        where = f"silo {silo_id!r}"
        return SiloMessage(silo_id=silo_id, grid=grid, entries=entries)
    except ValidationError as exc:
        raise MalformedInputError("invalid-sketch", f"{where}: {exc.message}") from None


def message_to_json(msg: SiloMessage) -> str:
    """Debugging mirror of the binary layout, same field names."""
    groups = []
    for label in sorted(msg.entries):
        sk = msg.entries[label]
        groups.append({"label": label, "count": sk.count, "values": list(sk.values)})
    obj = {
        "magic": MAGIC.decode("ascii"),
        "silo_id": msg.silo_id,
        "k": msg.grid.k,
        "trim_epsilon": msg.grid.trim_epsilon,
        "groups": groups,
    }
    return to_canonical_json(obj)


def message_from_json(text: str) -> SiloMessage:
    try:
        obj = json.loads(text)
        magic = obj["magic"].encode("ascii")
        raw_entries = [
            (g["label"], int(g["count"]), np.asarray([float(v) for v in g["values"]], dtype=np.float64))
            for g in obj["groups"]
        ]
        silo_id = obj["silo_id"]
        k = int(obj["k"])
        trim_epsilon = float(obj["trim_epsilon"])
    except MalformedInputError:
        raise
    except Exception as exc:
        raise MalformedInputError("malformed-message", f"cannot parse JSON message: {exc}") from None
    if magic[:3] != MAGIC[:3]:
        raise MalformedInputError("malformed-message", f"bad magic {magic!r}")
    if magic != MAGIC:
        raise MalformedInputError("unsupported-version", f"unknown format version {magic!r}")
    if not isinstance(silo_id, str):
        raise MalformedInputError("malformed-message", "silo_id must be a string")
    for _, _, values in raw_entries:
        if values.size != k:
            raise MalformedInputError("malformed-message", "value array length disagrees with k")
    if len(raw_entries) == 0:
        raise MalformedInputError("malformed-message", "message carries no groups")
    return _assemble(silo_id, k, trim_epsilon, raw_entries)
