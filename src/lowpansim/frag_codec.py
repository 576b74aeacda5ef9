"""6LoWPAN fragmentation header codec and fragmentation policies.

Wire format (RFC 4944): a FRAG1 header is 4 bytes, dispatch 0b11000 in the
top five bits, an 11-bit datagram size, and a 16-bit datagram tag.  A FRAGN
header is 5 bytes: dispatch 0b11100, same size and tag fields, plus one byte
giving the offset of the fragment in units of 8 bytes of the uncompressed
datagram.  Every fragment except the last must cover a multiple of 8 bytes.

Datagram model: an IPv6 datagram whose first HEADER_REGION (40) bytes are the
IPv6 header.  Header compression replaces exactly that region on the wire
with an opaque compressed header of CompressionHeader.size_bytes; everything
after it travels verbatim.  A Fragment's `payload` is the slice of the
*uncompressed* datagram it covers (the first fragment's payload therefore
starts with the 40-byte header region); `comp_size` is the on-wire size of
the compressed header when present.  With the default link SDU of 104 bytes
(127-byte frame minus 23 bytes of link-layer overhead) a FRAGN carries up to
96 payload bytes and a fill-first FRAG1 covers 112 (40 + 72).

Two fragmentation policies:

- fill_first:    the first fragment carries as much payload as fits.
- minimal_first: the first fragment carries only the FRAG1 header and the
  compressed header, so a forwarder can swap in a larger compressed header
  without re-fragmenting.
"""

from dataclasses import dataclass, field

FRAG1_DISPATCH = 0b11000
FRAGN_DISPATCH = 0b11100
FRAG1_HEADER_LEN = 4
FRAGN_HEADER_LEN = 5

HEADER_REGION = 40        # uncompressed IPv6 header bytes the comp header replaces
MAX_COMP_HEADER = 40      # no compression scheme grows past the uncompressed size
MAX_DATAGRAM = 1320       # IPv6 minimum MTU (1280) plus the 40-byte header
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


@dataclass(frozen=True, slots=True)
class Frag1Header:
    datagram_size: int
    datagram_tag: int


@dataclass(frozen=True, slots=True)
class FragNHeader:
    datagram_size: int
    datagram_tag: int
    offset_units: int


@dataclass(frozen=True, slots=True)
class CompressionHeader:
    """Opaque stand-in for a compressed IPv6 header; only its size matters."""

    size_bytes: int

    def __post_init__(self):
        if not 0 <= self.size_bytes <= MAX_COMP_HEADER:
            raise ValueError("compression header size out of range: %d"
                             % self.size_bytes)


@dataclass(frozen=True, slots=True)
class Fragment:
    """One link-layer unit of a datagram.

    header is None for an unfragmented datagram.  payload is the covered
    slice of the uncompressed datagram; comp_size is the wire size of the
    compressed header (first fragment and unfragmented frames only).
    content_len, derived at construction, is the total 6LoWPAN content in
    bytes: fragment header plus wire payload.
    """

    header: object
    payload: bytes
    comp_size: object = None
    content_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.payload)
        if self.comp_size is not None:
            n += self.comp_size - HEADER_REGION
        if self.header is not None:
            n += (FRAG1_HEADER_LEN if isinstance(self.header, Frag1Header)
                  else FRAGN_HEADER_LEN)
        object.__setattr__(self, "content_len", n)

    @property
    def offset(self):
        """Byte offset of this fragment's coverage in the datagram."""
        if isinstance(self.header, FragNHeader):
            return self.header.offset_units * 8
        return 0


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


def _first_coverage(size, comp, sdu, policy):
    """Uncompressed bytes covered by the first fragment, or -1 if one frame."""
    if comp.size_bytes + (size - HEADER_REGION) <= sdu:
        return -1
    if policy == "minimal_first":
        return HEADER_REGION
    data = _floor8(sdu - FRAG1_HEADER_LEN - comp.size_bytes)
    return HEADER_REGION + max(data, 0)


def _validate(size, comp, sdu, policy):
    if policy not in POLICIES:
        raise FragmentationError("unknown policy: %r" % (policy,))
    if size > MAX_DATAGRAM:
        raise FragmentationError("datagram too large: %d bytes" % size)
    if size < HEADER_REGION:
        raise FragmentationError("datagram shorter than its header region: %d"
                                 % size)
    if sdu < FRAGN_HEADER_LEN + 8:
        raise FragmentationError("sdu too small to carry fragments: %d" % sdu)
    if FRAG1_HEADER_LEN + comp.size_bytes > sdu:
        raise FragmentationError("compressed header does not fit the sdu")


def fragment_count(size, comp, sdu, policy):
    """Number of frames a datagram of `size` bytes fragments into."""
    _validate(size, comp, sdu, policy)
    first = _first_coverage(size, comp, sdu, policy)
    if first < 0:
        return 1
    capacity = _floor8(sdu - FRAGN_HEADER_LEN)
    rest = size - first
    return 1 + (rest + capacity - 1) // capacity


def fragment_datagram(datagram, comp, tag, sdu, policy):
    """Fragment a datagram; returns a list of Fragment in offset order."""
    size = len(datagram)
    _validate(size, comp, sdu, policy)
    first = _first_coverage(size, comp, sdu, policy)
    if first < 0:
        return [Fragment(None, datagram, comp.size_bytes)]
    frags = [Fragment(Frag1Header(size, tag), datagram[:first],
                      comp.size_bytes)]
    capacity = _floor8(sdu - FRAGN_HEADER_LEN)
    pos = first
    while pos < size:
        take = min(capacity, size - pos)
        if pos // 8 > MAX_OFFSET_UNITS:
            raise FragmentationError("datagram too large for the offset field")
        frags.append(Fragment(FragNHeader(size, tag, pos // 8),
                              datagram[pos:pos + take]))
        pos += take
    return frags


def refragment_first(first_frag, new_comp, sdu):
    """Fit a first fragment under a changed compressed-header size.

    Returns [fragment] when the new header still fits, else splits the
    coverage into a FRAG1 plus one FRAGN, both with the original datagram
    size and tag.
    """
    header = first_frag.header
    if not isinstance(header, Frag1Header):
        raise FragmentationError("not a first fragment: %r" % (header,))
    data_len = len(first_frag.payload) - HEADER_REGION
    if FRAG1_HEADER_LEN + new_comp.size_bytes + data_len <= sdu:
        return [Fragment(header, first_frag.payload, new_comp.size_bytes)]
    keep = _floor8(sdu - FRAG1_HEADER_LEN - new_comp.size_bytes)
    if keep < 0:
        raise FragmentationError("compressed header does not fit the sdu")
    split = HEADER_REGION + keep
    return [
        Fragment(header, first_frag.payload[:split], new_comp.size_bytes),
        Fragment(FragNHeader(header.datagram_size, header.datagram_tag,
                             split // 8),
                 first_frag.payload[split:]),
    ]


def reassemble(fragments):
    """Rebuild a datagram from fragments covering it exactly once.  The
    simulator never calls this: it is the oracle test_frag_codec checks the
    fragmenters against, independent of the reassembly buffer."""
    if len(fragments) == 1 and fragments[0].header is None:
        return fragments[0].payload
    size = fragments[0].header.datagram_size
    buf = bytearray(size)
    covered = 0
    for frag in fragments:
        off = frag.offset
        buf[off:off + len(frag.payload)] = frag.payload
        covered += len(frag.payload)
    if covered != size:
        raise FragmentationError("fragments cover %d of %d bytes"
                                 % (covered, size))
    return bytes(buf)
