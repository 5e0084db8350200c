"""The benchmark's own packer and unpacker for `.fqs` silo messages.

Written from the wire layout in the README, independently of
``fqs.wire``, so that a change to the program can change neither the
benchmark's inputs nor the way its outputs are read back:

    magic "FQS1" | u16 silo-id length | silo id (UTF-8)
    u32 k | f64 trim_epsilon | u16 group count
    per group: u16 label length | label (UTF-8) | u64 count | k f64 values

Little-endian throughout; groups in sorted label order.
"""

from __future__ import annotations

import struct
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

MAGIC = b"FQS1"


class Message(NamedTuple):
    silo_id: str
    k: int
    trim_epsilon: float
    groups: List[Tuple[str, int, np.ndarray]]  # (label, count, k values)


def pack(silo_id: str, k: int, cells: Dict[str, Tuple[int, np.ndarray]]) -> bytes:
    """One message with trim_epsilon 0; ``cells`` maps label -> (count, values)."""
    sid = silo_id.encode("utf-8")
    parts = [MAGIC, struct.pack("<H", len(sid)), sid, struct.pack("<Id", k, 0.0),
             struct.pack("<H", len(cells))]
    for label in sorted(cells):
        count, values = cells[label]
        lab = label.encode("utf-8")
        parts += [struct.pack("<H", len(lab)), lab, struct.pack("<Q", count),
                  np.ascontiguousarray(values, dtype="<f8").tobytes()]
    return b"".join(parts)


def unpack(data: bytes) -> Message:
    """Strict parse; raises ValueError on any departure from the layout."""
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise ValueError("truncated message")
        out = data[pos:pos + n]
        pos += n
        return out

    if take(4) != MAGIC:
        raise ValueError("bad magic")
    (sid_len,) = struct.unpack("<H", take(2))
    silo_id = take(sid_len).decode("utf-8")
    k, trim_epsilon = struct.unpack("<Id", take(12))
    (n_groups,) = struct.unpack("<H", take(2))
    groups = []
    for _ in range(n_groups):
        (lab_len,) = struct.unpack("<H", take(2))
        label = take(lab_len).decode("utf-8")
        (count,) = struct.unpack("<Q", take(8))
        values = np.frombuffer(take(8 * k), dtype="<f8").astype(np.float64)
        groups.append((label, count, values))
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes")
    return Message(silo_id, k, trim_epsilon, groups)
