"""Fixed 64-bit message codec for the decoder interconnect.

A message packs the destination node into bits [63:56], a header
byte into [55:48], and leaves the low 48 bits as payload.  The header
byte carries an opcode in its high nibble; boundary-information headers
use the low nibble as the number of edge indices in the payload, three
16-bit indices per message.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DecodingGraph, face_edges

OP_BOUNDARY = 0x3
OP_RESULT = 0x4

_PAYLOAD_BITS = 48
_DEST_BITS = 8


@dataclass(frozen=True)
class Message:
    dest: int
    header: int
    payload: int


def dest_fits(dest: int) -> bool:
    """True when a node id fits the destination field."""
    return 0 <= dest < (1 << _DEST_BITS)


def encode_message(msg: Message) -> int:
    if not dest_fits(msg.dest):
        raise ValueError(f"dest {msg.dest} exceeds {_DEST_BITS} bits")
    if not 0 <= msg.header < (1 << 8):
        raise ValueError(f"header {msg.header} exceeds 8 bits")
    if not 0 <= msg.payload < (1 << _PAYLOAD_BITS):
        raise ValueError(f"payload {msg.payload:#x} exceeds {_PAYLOAD_BITS} bits")
    return (msg.dest << (_PAYLOAD_BITS + 8)) | (msg.header << _PAYLOAD_BITS) | msg.payload


def decode_message(word: int) -> Message:
    if not 0 <= word < (1 << 64):
        raise ValueError(f"word {word:#x} is not a 64-bit value")
    return Message(
        dest=word >> (_PAYLOAD_BITS + 8),
        header=(word >> _PAYLOAD_BITS) & 0xFF,
        payload=word & ((1 << _PAYLOAD_BITS) - 1),
    )


def opcode_of(header: int) -> int:
    return header >> 4


def boundary_header(count: int) -> int:
    if not 0 <= count <= 3:
        raise ValueError(f"boundary message carries 0..3 indices, got {count}")
    return (OP_BOUNDARY << 4) | count


def is_boundary_header(header: int) -> bool:
    return header >> 4 == OP_BOUNDARY


def pack_boundary_indices(vals) -> list:
    """Sorted edge indices as (header, payload) pairs, three per message.

    An empty commit still packs one count=0 message; the downstream
    window blocks until it hears something for every open face.
    """
    if not vals:
        return [(boundary_header(0), 0)]
    out = []
    for i in range(0, len(vals), 3):
        chunk = vals[i : i + 3]
        payload = 0
        for j, v in enumerate(chunk):
            if not 0 <= v < (1 << 16):
                raise ValueError(f"edge index {v} exceeds 16 bits")
            payload |= v << (16 * j)
        out.append((boundary_header(len(chunk)), payload))
    return out


def encode_boundary_info(info, graph: DecodingGraph, dest: int) -> list:
    """Committed face crossings as messages of 16-bit edge indices.

    Edges are named by their position in the face's canonical edge list,
    so both sides only need the shared graph to agree on the meaning.
    """
    edges = face_edges(graph, info.face)
    if len(edges) > (1 << 16):
        raise ValueError(f"face {info.face} has too many edges to index")
    index = {ek: i for i, ek in enumerate(edges)}
    try:
        vals = sorted(index[ek] for ek in info.committed_crossings)
    except KeyError:
        bad = set(info.committed_crossings) - set(index)
        raise ValueError(f"crossings {bad} are not on face {info.face}") from None
    return [Message(dest, h, p) for h, p in pack_boundary_indices(vals)]


def decode_boundary_info(msgs, graph: DecodingGraph, face: tuple) -> frozenset:
    edges = face_edges(graph, face)
    out = set()
    for m in msgs:
        if not is_boundary_header(m.header):
            raise ValueError(f"header {m.header:#x} is not boundary information")
        count = m.header & 0xF
        if count > 3:
            raise ValueError(f"boundary message claims {count} indices")
        for j in range(count):
            idx = (m.payload >> (16 * j)) & 0xFFFF
            if idx >= len(edges):
                raise ValueError(f"edge index {idx} outside face {face}")
            out.add(edges[idx])
    return frozenset(out)
