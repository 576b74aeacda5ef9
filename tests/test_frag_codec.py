"""Tests for the fragmentation header codec and the fragmentation policies.

Expected header bytes below are frozen from an independent bit-assembly
oracle (_frag1_oracle/_fragn_oracle) that builds each header as one big
integer instead of per-field bytes.
"""

import pytest

from lowpansim.frag_codec import (
    COMP_HEADER_BYTES,
    FRAGN_HEADER_LEN,
    FRAG1_HEADER_LEN,
    HEADER_REGION,
    DecodeError,
    EncodeError,
    Frag1Header,
    FragNHeader,
    Fragment,
    FragmentationError,
    NOT_A_FRAGMENT,
    decode_header,
    encode_header,
    fragment_count,
    fragment_datagram,
    refragment_first,
)
from lowpansim.link_mac import SDU


def _frag1_oracle(size, tag):
    """Assemble a FRAG1 header as a single 32-bit integer."""
    word = (0b11000 << 27) | (size << 16) | tag
    return word.to_bytes(4, "big")


def _fragn_oracle(size, tag, offset_units):
    """Assemble a FRAGN header as a single 40-bit integer."""
    word = (0b11100 << 35) | (size << 24) | (tag << 8) | offset_units
    return word.to_bytes(5, "big")


# --- header encode ---------------------------------------------------------

def test_frag1_encode_frozen_examples():
    assert encode_header(Frag1Header(1280, 0x1234)) == bytes.fromhex("c5001234")
    assert encode_header(Frag1Header(0, 0)) == bytes.fromhex("c0000000")
    assert encode_header(Frag1Header(2047, 0xFFFF)) == bytes.fromhex("c7ffffff")


def test_fragn_encode_frozen_examples():
    assert encode_header(FragNHeader(1280, 0x1234, 12)) == bytes.fromhex("e50012340c")
    assert encode_header(FragNHeader(96, 1, 0)) == bytes.fromhex("e060000100")


def test_encode_matches_bit_oracle_sampled():
    for size in range(0, 2048, 37):
        for tag in (0, 1, 0x00FF, 0x1234, 0xFFFF):
            assert encode_header(Frag1Header(size, tag)) == _frag1_oracle(size, tag)
            for off in (0, 1, 128, 255):
                got = encode_header(FragNHeader(size, tag, off))
                assert got == _fragn_oracle(size, tag, off)


def test_encode_range_errors():
    with pytest.raises(EncodeError):
        encode_header(Frag1Header(2048, 0))
    with pytest.raises(EncodeError):
        encode_header(Frag1Header(-1, 0))
    with pytest.raises(EncodeError):
        encode_header(Frag1Header(0, 0x10000))
    with pytest.raises(EncodeError):
        encode_header(FragNHeader(0, 0, 256))
    with pytest.raises(EncodeError):
        encode_header(FragNHeader(0, 0, -1))


# --- header decode ---------------------------------------------------------

def test_decode_inverse_of_encode_sampled():
    for size in range(0, 2048, 19):
        for tag in (0, 7, 0xABCD, 0xFFFF):
            h1 = Frag1Header(size, tag)
            assert decode_header(encode_header(h1)) == h1
            hn = FragNHeader(size, tag, (size * 7 + tag) % 256)
            assert decode_header(encode_header(hn)) == hn


def test_decode_non_fragment_dispatch():
    # 0x41 is an IPv6 dispatch byte, not a fragmentation dispatch.
    assert decode_header(bytes([0x41, 0, 0, 0])) is NOT_A_FRAGMENT
    assert decode_header(bytes([0x00, 0, 0, 0])) is NOT_A_FRAGMENT
    # 0b11101 shares the FRAGN top three bits but not all five.
    assert decode_header(bytes([0xE8, 0, 0, 0, 0])) is NOT_A_FRAGMENT


def test_decode_truncated_raises():
    with pytest.raises(DecodeError):
        decode_header(bytes([0xC5, 0x00, 0x12]))
    with pytest.raises(DecodeError):
        decode_header(bytes([0xE5, 0x00, 0x12, 0x34]))
    with pytest.raises(DecodeError):
        decode_header(b"")


def test_decode_ignores_trailing_payload():
    raw = bytes.fromhex("c5001234") + b"payload"
    assert decode_header(raw) == Frag1Header(1280, 0x1234)


# --- fragment_datagram -----------------------------------------------------

def _datagram(n):
    """Deterministic position-dependent datagram of n bytes."""
    return bytes((i * 13 + 7) & 0xFF for i in range(n))


def _wire_payload_len(frag):
    """Bytes after the fragment header on the wire: a first or unfragmented
    fragment carries the compressed header in place of the header region."""
    if isinstance(frag.header, FragNHeader):
        return len(frag.payload)
    return COMP_HEADER_BYTES + len(frag.payload) - HEADER_REGION


def reassemble(fragments):
    """Rebuild a datagram from fragments covering it exactly once: the
    oracle the fragmenters are checked against, independent of the
    simulator's reassembly buffer."""
    if len(fragments) == 1 and fragments[0].header is None:
        return fragments[0].payload
    size = fragments[0].header.datagram_size
    buf = bytearray(size)
    covered = 0
    for frag in fragments:
        off = frag.offset
        buf[off:off + len(frag.payload)] = frag.payload
        covered += len(frag.payload)
    assert covered == size, "fragments cover %d of %d bytes" % (covered, size)
    return bytes(buf)


def test_single_frame_when_compressed_fits():
    # 64-byte datagram compresses to 24 + 24 = 48 <= 104: one plain frame.
    dg = _datagram(64)
    frags = fragment_datagram(dg, tag=1, policy="minimal_first")
    assert len(frags) == 1
    assert frags[0].header is None
    assert frags[0].payload == dg
    assert frags[0].content_len == 48


def test_degenerate_empty_payload_single_frame():
    dg = _datagram(48)  # UDP/IPv6 headers only
    for policy in ("minimal_first", "fill_first"):
        frags = fragment_datagram(dg, tag=1, policy=policy)
        assert len(frags) == 1 and frags[0].header is None


# Table-I mapping: UDP payload bytes -> expected fragment count. The modeled
# datagram prepends 48 bytes of UDP/IPv6 headers to the payload.
FRAG_COUNT_TABLE = [
    (16, 1), (80, 2), (176, 3), (272, 4), (368, 5), (464, 6), (560, 7),
    (656, 8), (752, 9), (848, 10), (944, 11), (1040, 12), (1136, 13),
    (1232, 14),
]


@pytest.mark.parametrize("payload,expected", FRAG_COUNT_TABLE)
def test_fragment_counts_match_published_mapping(payload, expected):
    dg = _datagram(payload + 48)
    for policy in ("minimal_first", "fill_first"):
        frags = fragment_datagram(dg, tag=9, policy=policy)
        assert len(frags) == expected, (payload, policy)


def test_minimal_first_carries_no_data_in_first_fragment():
    dg = _datagram(1280)
    frags = fragment_datagram(dg, tag=2, policy="minimal_first")
    first = frags[0]
    assert isinstance(first.header, Frag1Header)
    # Only the header region (covered by the compression header), no payload.
    assert len(first.payload) == HEADER_REGION
    assert _wire_payload_len(first) == 24


def test_fragment_tiling_and_offsets():
    for n in (128, 216, 608, 1280, 1320):
        dg = _datagram(n)
        for policy in ("minimal_first", "fill_first"):
            frags = fragment_datagram(dg, tag=3, policy=policy)
            assert isinstance(frags[0].header, Frag1Header)
            assert frags[0].header.datagram_size == n
            cover = len(frags[0].payload)
            assert cover % 8 == 0
            for f in frags[1:]:
                assert isinstance(f.header, FragNHeader)
                assert f.header.datagram_size == n
                assert f.header.datagram_tag == 3
                assert f.header.offset_units * 8 == cover
                cover += len(f.payload)
            for f in frags[:-1]:
                assert (FRAG1_HEADER_LEN if isinstance(f.header, Frag1Header)
                        else FRAGN_HEADER_LEN)
                assert len(f.payload) % 8 == 0
            assert cover == n
            # Every fragment respects the SDU on the wire.
            for f in frags:
                hdr_len = FRAG1_HEADER_LEN if isinstance(f.header, Frag1Header) else FRAGN_HEADER_LEN
                assert hdr_len + _wire_payload_len(f) <= SDU


def test_reassemble_roundtrip_sweep():
    for n in range(48, 1321, 61):
        dg = _datagram(n)
        for policy in ("minimal_first", "fill_first"):
            frags = fragment_datagram(dg, tag=5, policy=policy)
            assert reassemble(frags) == dg


def test_fragment_count_policy_relation_full_sweep():
    # Equality holds at the published payload sizes (they are aligned so that
    # the remainder after the first fill-first fragment exceeds its data
    # capacity); in general minimal_first needs at most one extra fragment.
    for n in range(48, 1321):
        cf = fragment_count(n, "fill_first")
        cm = fragment_count(n, "minimal_first")
        assert cf <= cm <= cf + 1, n
    for payload, expected in FRAG_COUNT_TABLE:
        n = payload + 48
        assert fragment_count(n, "fill_first") == expected
        assert fragment_count(n, "minimal_first") == expected


def test_fragment_count_matches_fragment_datagram_sweep():
    for n in range(48, 1321, 37):
        for policy in ("minimal_first", "fill_first"):
            frags = fragment_datagram(_datagram(n), tag=1, policy=policy)
            assert len(frags) == fragment_count(n, policy)


def test_fragmentation_errors():
    with pytest.raises(FragmentationError):
        fragment_datagram(_datagram(1321), tag=1, policy="minimal_first")
    with pytest.raises(FragmentationError):
        fragment_datagram(_datagram(200), tag=1, policy="widest_first")
    with pytest.raises(FragmentationError):
        fragment_datagram(_datagram(30), tag=1,
                          policy="minimal_first")  # shorter than header region


# --- refragment_first ------------------------------------------------------

def test_refragment_retags_the_first_fragment():
    # A forwarder sends a first fragment on unchanged but for its own out
    # tag; content_len is that of a fragment built afresh.
    dg = _datagram(1280)
    for policy in ("minimal_first", "fill_first"):
        first = fragment_datagram(dg, tag=7, policy=policy)[0]
        [out] = refragment_first(first, 9)
        assert out.header == Frag1Header(1280, 9)
        assert out.payload == first.payload
        assert type(out.header) is type(first.header) is Frag1Header
        assert out.content_len == first.content_len
        assert out == Fragment(Frag1Header(1280, 9), first.payload)
