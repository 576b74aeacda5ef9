"""6LoWPAN fragmentation header codec and fragmentation policies.

Wire format (RFC 4944): a FRAG1 header is 4 bytes, dispatch 0b11000 in the
top five bits, an 11-bit datagram size, and a 16-bit datagram tag.  A FRAGN
header is 5 bytes: dispatch 0b11100, same size and tag fields, plus one byte
giving the offset of the fragment in units of 8 bytes of the uncompressed
datagram.  Every fragment except the last must cover a multiple of 8 bytes.
A run carries header objects, not bytes: `encode_header`/`decode_header`
are this wire format, checked by acceptance criterion a01.

Datagram model: an IPv6 datagram whose first HEADER_REGION (40) bytes are the
IPv6 header.  Header compression replaces exactly that region on the wire
with an opaque compressed header of COMP_HEADER_BYTES (24) bytes, the same
for every node; everything after it travels verbatim.  A Fragment's
`payload` is the slice of the *uncompressed* datagram it covers: a first or
unfragmented fragment's payload starts with the 40-byte header region, so
only such a fragment carries the compressed header.  In the link SDU of 104
bytes (127-byte frame minus 23 bytes of link-layer overhead) a FRAGN carries
up to 96 payload bytes and a fill-first FRAG1 covers 112 (40 + 72).

Two fragmentation policies:

- fill_first:    the first fragment carries as much payload as fits.
- minimal_first: the first fragment carries only the FRAG1 header and the
  compressed header.  RFC 8930 chooses it so that a forwarder could swap in
  a larger compressed header without re-fragmenting; here every node has
  the same header size, so a forwarder only retags each fragment (`retag`).
"""

from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

from .link_mac import SDU

FRAG1_DISPATCH = 0b11000
FRAGN_DISPATCH = 0b11100
FRAG1_HEADER_LEN = 4
FRAGN_HEADER_LEN = 5

HEADER_REGION = 40        # uncompressed IPv6 header bytes the comp header replaces
COMP_HEADER_BYTES = 24    # the compressed header that replaces them on the wire
MAX_DATAGRAM = 1280       # IPv6 minimum MTU, the IPv6 header included
MAX_DATAGRAM_SIZE_FIELD = 2047   # 11-bit size field
MAX_TAG = 0xFFFF
MAX_OFFSET_UNITS = 255

POLICIES = ("minimal_first", "fill_first")


class EncodeError(ValueError):
    """A header field is out of range for the wire format."""


class DecodeError(ValueError):
    """Raw bytes are too short to hold the indicated header."""


class FragmentationError(ValueError):
    """A datagram cannot be fragmented under the given parameters."""


class _NotAFragment:
    def __repr__(self):
        return "NOT_A_FRAGMENT"


# Returned by decode_header for frames without a fragmentation dispatch.
NOT_A_FRAGMENT = _NotAFragment()


class Frag1Header(NamedTuple):
    datagram_size: int
    datagram_tag: int


class FragNHeader(NamedTuple):
    datagram_size: int
    datagram_tag: int
    offset_units: int


class Fragment(namedtuple("Fragment", "header payload content_len")):
    """One link-layer unit of a datagram.

    header is None for an unfragmented datagram.  payload is the covered
    slice of the uncompressed datagram.  content_len, derived at
    construction, is the total 6LoWPAN content in bytes: fragment header
    plus wire payload.  `_replace` copies it unchanged, so a changed
    fragment is built anew.
    """

    __slots__ = ()

    def __new__(cls, header, payload):
        return tuple.__new__(cls, (header, payload,
                                   _content_len(type(header), len(payload))))

    @property
    def offset(self):
        """Byte offset of this fragment's coverage in the datagram."""
        if isinstance(self.header, FragNHeader):
            return self.header.offset_units * 8
        return 0


def _content_len(kind, payload_len):
    """The 6LoWPAN content in bytes of a fragment with a header of type
    `kind` and `payload_len` payload bytes: its fragment header plus its
    payload on the wire.  A first or unfragmented fragment's payload starts
    with the header region, which the compressed header replaces."""
    if kind is FragNHeader:
        return FRAGN_HEADER_LEN + payload_len
    header_len = FRAG1_HEADER_LEN if kind is Frag1Header else 0
    return header_len + payload_len + COMP_HEADER_BYTES - HEADER_REGION


def _check_common(size, tag):
    if not 0 <= size <= MAX_DATAGRAM_SIZE_FIELD:
        raise EncodeError("datagram_size out of range: %d" % size)
    if not 0 <= tag <= MAX_TAG:
        raise EncodeError("datagram_tag out of range: %d" % tag)


def encode_header(header):
    """Encode a Frag1Header or FragNHeader to wire bytes."""
    if isinstance(header, Frag1Header):
        _check_common(header.datagram_size, header.datagram_tag)
        return bytes((
            (FRAG1_DISPATCH << 3) | (header.datagram_size >> 8),
            header.datagram_size & 0xFF,
            header.datagram_tag >> 8,
            header.datagram_tag & 0xFF,
        ))
    if isinstance(header, FragNHeader):
        _check_common(header.datagram_size, header.datagram_tag)
        if not 0 <= header.offset_units <= MAX_OFFSET_UNITS:
            raise EncodeError("offset_units out of range: %d"
                              % header.offset_units)
        return bytes((
            (FRAGN_DISPATCH << 3) | (header.datagram_size >> 8),
            header.datagram_size & 0xFF,
            header.datagram_tag >> 8,
            header.datagram_tag & 0xFF,
            header.offset_units,
        ))
    raise EncodeError("not a fragmentation header: %r" % (header,))


def decode_header(raw):
    """Decode leading fragmentation header bytes.

    Returns a header, or NOT_A_FRAGMENT when the dispatch byte is not a
    fragmentation dispatch.  Trailing payload bytes are ignored.
    """
    if len(raw) < 1:
        raise DecodeError("empty frame")
    dispatch = raw[0] >> 3
    if dispatch == FRAG1_DISPATCH:
        if len(raw) < FRAG1_HEADER_LEN:
            raise DecodeError("truncated FRAG1 header: %d bytes" % len(raw))
        size = ((raw[0] & 0x07) << 8) | raw[1]
        tag = (raw[2] << 8) | raw[3]
        return Frag1Header(size, tag)
    if dispatch == FRAGN_DISPATCH:
        if len(raw) < FRAGN_HEADER_LEN:
            raise DecodeError("truncated FRAGN header: %d bytes" % len(raw))
        size = ((raw[0] & 0x07) << 8) | raw[1]
        tag = (raw[2] << 8) | raw[3]
        return FragNHeader(size, tag, raw[4])
    return NOT_A_FRAGMENT


def _floor8(n):
    return n & ~7


def _first_coverage(size, policy):
    """Uncompressed bytes covered by the first fragment, or -1 if one frame."""
    if COMP_HEADER_BYTES + (size - HEADER_REGION) <= SDU:
        return -1
    if policy == "minimal_first":
        return HEADER_REGION
    return HEADER_REGION + _floor8(SDU - FRAG1_HEADER_LEN - COMP_HEADER_BYTES)


def _validate(size, policy):
    if policy not in POLICIES:
        raise FragmentationError("unknown policy: %r" % (policy,))
    if size > MAX_DATAGRAM:
        raise FragmentationError("datagram too large: %d bytes" % size)
    if size < HEADER_REGION:
        raise FragmentationError("datagram shorter than its header region: %d"
                                 % size)


def fragment_count(size, policy):
    """Number of frames a datagram of `size` bytes fragments into."""
    return len(fragment_datagram(bytes(size), 0, policy))


@lru_cache(maxsize=64)
def _spans(size, policy):
    """Where a datagram of `size` bytes is cut: None if it travels in one
    frame, else the first fragment's (end, content_len) and each later
    fragment's (offset_units, start, end, content_len), in offset order.
    Validated once per geometry; a run cuts a handful of them."""
    _validate(size, policy)
    first = _first_coverage(size, policy)
    if first < 0:
        return None
    capacity = _floor8(SDU - FRAGN_HEADER_LEN)
    rest = []
    for start in range(first, size, capacity):
        end = min(start + capacity, size)
        rest.append((start // 8, start, end,
                     _content_len(FragNHeader, end - start)))
    return (first, _content_len(Frag1Header, first)), tuple(rest)


def fragment_datagram(datagram, tag, policy):
    """Fragment a datagram; returns a list of Fragment in offset order."""
    size = len(datagram)
    spans = _spans(size, policy)
    if spans is None:
        return [Fragment(None, datagram)]
    (first, n), rest = spans
    new = tuple.__new__     # fields known: skip Fragment.__new__'s sums
    frags = [new(Fragment, (new(Frag1Header, (size, tag)), datagram[:first],
                            n))]
    for units, start, end, n in rest:
        frags.append(new(Fragment, (new(FragNHeader, (size, tag, units)),
                                    datagram[start:end], n)))
    return frags


def retag(frag, tag):
    """`frag` as a forwarder sends it on, under its own datagram `tag`.
    Every node's compressed header has the same size, so only the tag
    changes: the fragment is never split and its content_len carries over."""
    header = frag[0]
    new = tuple.__new__
    return new(Fragment, (new(type(header), (header[0], tag) + header[2:]),
                          frag[1], frag[2]))


def refragment_first(first_frag, tag):
    """A first fragment as a forwarder sends it on, as a list of one."""
    return [retag(first_frag, tag)]
