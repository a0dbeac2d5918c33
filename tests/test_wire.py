import random

import pytest

from surgedec.graph import Layout, face_edges
from surgedec.windows import BoundaryInfo
from surgedec.wire import (
    Message,
    boundary_header,
    decode_boundary_info,
    decode_message,
    encode_boundary_info,
    encode_message,
    is_boundary_header,
    opcode_of,
)


def test_known_word_layout():
    msg = Message(dest=0xAB, header=0xCD, payload=0x123456789ABC)
    word = encode_message(msg)
    assert word == 0xABCD123456789ABC
    assert decode_message(word) == msg


def test_field_boundaries():
    assert encode_message(Message(0xFF, 0, 0)) == 0xFF00000000000000
    assert encode_message(Message(0, 0xFF, 0)) == 0x00FF000000000000
    assert encode_message(Message(0, 0, (1 << 48) - 1)) == 0x0000FFFFFFFFFFFF


def test_round_trip_random_words():
    rng = random.Random(20240811)
    for _ in range(2000):
        msg = Message(
            dest=rng.randrange(1 << 8),
            header=rng.randrange(1 << 8),
            payload=rng.randrange(1 << 48),
        )
        assert decode_message(encode_message(msg)) == msg


def test_out_of_range_fields_rejected():
    with pytest.raises(ValueError):
        encode_message(Message(256, 0, 0))
    with pytest.raises(ValueError):
        encode_message(Message(0, 256, 0))
    with pytest.raises(ValueError):
        encode_message(Message(0, 0, 1 << 48))
    with pytest.raises(ValueError):
        decode_message(1 << 64)


def test_header_nibbles():
    h = boundary_header(2)
    assert is_boundary_header(h)
    assert opcode_of(h) == 0x3
    assert h & 0xF == 2
    with pytest.raises(ValueError):
        boundary_header(4)


def _merged_graph(d=5):
    lay = Layout(d, {0: (0, 0), 1: (0, 1)})
    from surgedec.graph import DecodingGraph, merge_patches

    g = DecodingGraph(lay, rounds=d)
    return merge_patches(g, lay.seams[0], (0, d))


def test_boundary_info_round_trip():
    g = _merged_graph()
    face = ("s", 0, 0)
    edges = face_edges(g, face)
    assert len(edges) == 25
    info = BoundaryInfo(face, frozenset({edges[0], edges[7], edges[24]}))
    msgs = encode_boundary_info(info, g, dest=3)
    assert len(msgs) == 1
    assert msgs[0].header & 0xF == 3
    assert decode_boundary_info(msgs, g, face) == info.committed_crossings


def test_boundary_info_message_count_scales_with_crossings():
    g = _merged_graph()
    face = ("s", 0, 0)
    edges = face_edges(g, face)
    info = BoundaryInfo(face, frozenset(edges))  # all 25 crossings flipped
    msgs = encode_boundary_info(info, g, dest=1)
    assert len(msgs) == 9  # ceil(25 / 3)
    assert [m.header & 0xF for m in msgs] == [3] * 8 + [1]
    assert decode_boundary_info(msgs, g, face) == frozenset(edges)


def test_empty_boundary_info_is_one_message():
    g = _merged_graph()
    face = ("s", 0, 0)
    info = BoundaryInfo(face, frozenset())
    msgs = encode_boundary_info(info, g, dest=2)
    assert msgs == [Message(2, boundary_header(0), 0)]
    assert decode_boundary_info(msgs, g, face) == frozenset()


def test_boundary_info_rejects_foreign_edges():
    g = _merged_graph()
    face = ("s", 0, 0)
    info = BoundaryInfo(face, frozenset({((1, 2), (3, 4))}))
    with pytest.raises(ValueError):
        encode_boundary_info(info, g, dest=0)


def test_decode_rejects_out_of_face_index():
    g = _merged_graph()
    face = ("s", 0, 0)
    bad = [Message(0, boundary_header(1), 0xFFFF)]
    with pytest.raises(ValueError):
        decode_boundary_info(bad, g, face)


def test_all_words_survive_the_codec():
    # every dest and header byte, payload sampled densely
    rng = random.Random(7)
    for dest in range(256):
        word = encode_message(Message(dest, rng.randrange(256), rng.randrange(1 << 48)))
        assert decode_message(word).dest == dest
    for header in range(256):
        word = encode_message(Message(rng.randrange(256), header, rng.randrange(1 << 48)))
        assert decode_message(word).header == header
