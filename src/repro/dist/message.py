"""Wire format of the simulated interconnect: CRC32-framed messages.

Every payload that crosses the simulated wire — accepted-move batches,
heartbeats, recovery control — travels inside a :class:`Frame`: a fixed
little-endian header (source rank, destination rank, round index,
per-channel sequence number, message kind) followed by the payload bytes
and a trailing CRC32 over header + payload (the same integrity primitive
as the integrity manager's shadow digests, via
:func:`repro.integrity.digest.crc32_frame`).

Decoding is strict: a frame whose checksum does not match raises
:class:`~repro.errors.FrameCorruptError`, so a ``msg_corrupt`` fault is
*detected* at the receiver instead of silently applied to a blockmodel
replica.  Sequence numbers are per ``(src, dst)`` channel and monotone;
retransmissions reuse the original sequence number so receivers can
dedupe duplicates and reassemble reordered deliveries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import CommError, FrameCorruptError
from ..integrity.digest import crc32_frame

#: message kinds carried by the fabric
MSG_MOVES = "moves"
MSG_HEARTBEAT = "heartbeat"
MSG_KINDS = (MSG_MOVES, MSG_HEARTBEAT)

#: bytes per exchanged move record: (vertex id, from block, to block)
MOVE_RECORD_BYTES = 3 * 8

#: ``<`` little-endian: src, dst, round, seq, kind id, payload length
_HEADER = struct.Struct("<iiqqBi")
_CRC = struct.Struct("<I")

#: fixed framing overhead (header + trailing CRC32), in bytes
FRAME_OVERHEAD = _HEADER.size + _CRC.size


@dataclass(frozen=True)
class Frame:
    """One framed message of the simulated interconnect."""

    src: int
    dst: int
    round_index: int
    seq: int
    kind: str
    payload: bytes

    def encode(self) -> bytes:
        """Serialise to wire bytes with a trailing CRC32."""
        if self.kind not in MSG_KINDS:
            raise CommError(f"unknown message kind {self.kind!r}")
        body = _HEADER.pack(
            self.src, self.dst, self.round_index, self.seq,
            MSG_KINDS.index(self.kind), len(self.payload),
        ) + self.payload
        return body + _CRC.pack(crc32_frame(body))

    @classmethod
    def decode(cls, data: bytes) -> "Frame":
        """Parse wire bytes; raise :class:`FrameCorruptError` on a bad CRC."""
        if len(data) < FRAME_OVERHEAD:
            raise FrameCorruptError(
                f"frame truncated to {len(data)} bytes "
                f"(minimum {FRAME_OVERHEAD})"
            )
        body, crc_bytes = data[:-_CRC.size], data[-_CRC.size:]
        (expected,) = _CRC.unpack(crc_bytes)
        actual = crc32_frame(body)
        if actual != expected:
            raise FrameCorruptError(
                f"frame CRC mismatch: expected {expected:#010x}, "
                f"computed {actual:#010x}"
            )
        src, dst, round_index, seq, kind_id, length = _HEADER.unpack(
            body[:_HEADER.size]
        )
        payload = body[_HEADER.size:]
        if kind_id >= len(MSG_KINDS) or length != len(payload):
            raise FrameCorruptError(
                f"frame header inconsistent (kind id {kind_id}, "
                f"declared {length} payload bytes, got {len(payload)})"
            )
        return cls(
            src=src, dst=dst, round_index=round_index, seq=seq,
            kind=MSG_KINDS[kind_id], payload=payload,
        )


# ----------------------------------------------------------------------
# payload codecs
# ----------------------------------------------------------------------
def pack_moves(moves: Sequence[Tuple[int, int, int]]) -> bytes:
    """Encode accepted moves ``(vertex, from_block, to_block)`` as int64."""
    arr = np.asarray(moves, dtype="<i8").reshape(len(moves), 3)
    return arr.tobytes()


def unpack_moves(payload: bytes) -> List[Tuple[int, int, int]]:
    """Decode a moves payload back into ``(v, r, s)`` tuples."""
    if len(payload) % MOVE_RECORD_BYTES:
        raise FrameCorruptError(
            f"moves payload of {len(payload)} bytes is not a multiple of "
            f"the {MOVE_RECORD_BYTES}-byte record size"
        )
    arr = np.frombuffer(payload, dtype="<i8").reshape(-1, 3)
    return [(int(v), int(r), int(s)) for v, r, s in arr]


#: heartbeat payload: (number of data frames following this round,
#: number of accepted moves being announced)
_HEARTBEAT = struct.Struct("<ii")


def pack_heartbeat(num_frames: int, num_moves: int) -> bytes:
    return _HEARTBEAT.pack(num_frames, num_moves)


def unpack_heartbeat(payload: bytes) -> Tuple[int, int]:
    if len(payload) != _HEARTBEAT.size:
        raise FrameCorruptError(
            f"heartbeat payload is {len(payload)} bytes, "
            f"expected {_HEARTBEAT.size}"
        )
    return _HEARTBEAT.unpack(payload)
