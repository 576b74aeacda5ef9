"""Per-node 6LoWPAN stack: traffic, static routing, and forwarding strategies.

Strategies:

- HWR: every forwarder reassembles the whole datagram, then re-fragments it
  toward the next hop under a fresh tag (fill_first fragmentation).
- FF: fragments pass one by one through a virtual reassembly buffer entry
  created when the first fragment arrives; fragments that find no entry
  fall back to HWR-style reassembly for that datagram (FF nodes fragment
  minimal_first).
- FF_QUEUED: like FF, but rewritten fragments wait in the entry's queue and
  leave as one in-order burst once the whole datagram has passed.

The sink always reassembles.  Each received frame costs a fixed processing
delay before the stack acts on it.  Every datagram-losing event is reported
through on_drop with a cause, so a harness can attribute each datagram's
fate to the first thing that went wrong.
"""

from typing import NamedTuple

# CPython's built-in hashes, as `random` takes its sha512: `hashlib` would
# load OpenSSL's libcrypto, megabytes of resident memory, into every run.
try:
    from _sha3 import shake_256
    try:
        from _sha2 import sha256            # 3.12 and later
    except ImportError:
        from _sha256 import sha256          # 3.10 and 3.11
except ImportError:                         # built without them
    from hashlib import sha256, shake_256

from .buffers import DatagramKey, PacketArena, ReassemblyBuffer
from .frag_codec import (HEADER_REGION, Frag1Header, fragment_datagram,
                         refragment_first, retag)
from .link_mac import Frame, Mac
from .metrics import NodeCounters
from .vrb import TagAllocator, VrbTable

HEADER_BYTES = HEADER_REGION + 8    # the IPv6 header, then UDP's 8 bytes


class Strategy(NamedTuple):
    """Everything that differs between the forwarding strategies."""

    policy: str           # fragmentation policy of datagrams a node fragments
    reassemble: bool      # forwarders reassemble every datagram
    queue: bool           # VRB fragments wait until the whole datagram passed


STRATEGIES = {
    "HWR": Strategy("fill_first", reassemble=True, queue=False),
    "FF": Strategy("minimal_first", reassemble=False, queue=False),
    "FF_QUEUED": Strategy("minimal_first", reassemble=False, queue=True),
}


def build_datagram(src, dgram_id, payload_size):
    """Deterministic datagram bytes, so the sink can verify integrity."""
    return shake_256(b"%d:%d" % (src, dgram_id)).digest(
        HEADER_BYTES + payload_size)


class NodeConfig(NamedTuple):
    id: int
    route_next_hop: object          # None exactly at the sink
    strategy: str
    rbuf_entries: int               # table capacities; None = unbounded
    vrb_entries: int


class StackParams(NamedTuple):
    reassembly_timeout_us: int = 10_000_000
    vrb_lifetime_us: int = 10_000_000
    proc_delay_us: int = 2000
    frag_buffer_slots: int = 64        # concurrent jobs; None = unbounded
    arena_bytes: object = 6144         # shared packet pool; None = unbounded


class Node:
    """One network node: MAC, buffers, and the configured strategy."""

    def __init__(self, config, sim, medium, mac_params, stack, on_datagram,
                 on_drop):
        self.config = config
        self.sim = sim
        self.stack = stack
        self.on_datagram = on_datagram
        self.on_drop = on_drop
        self.counters = NodeCounters()
        self.arena = PacketArena(self.stack.arena_bytes)
        self.mac = Mac(config.id, sim, medium, mac_params, self.counters,
                       self.arena, self._on_deliver, self._on_frame_done)
        self.strategy = STRATEGIES[config.strategy]
        self.tags = TagAllocator()
        self.rbuf = ReassemblyBuffer(sim, config.rbuf_entries,
                                     self.stack.reassembly_timeout_us,
                                     self.counters, on_drop, self.arena)
        self.vrb = VrbTable(sim, config.vrb_entries,
                            self.stack.vrb_lifetime_us, self.counters,
                            self.tags, on_drop, self.arena)
        self.jobs = {}       # each live fragmentation's tag -> frames in MAC
        # Fixed for the run, and read for every frame received.
        self._proc_delay = stack.proc_delay_us
        self._process_frame = self._process
        self._ff_forwarder = (config.route_next_hop is not None
                              and not self.strategy.reassemble)

    # -- sending --------------------------------------------------------

    def app_send(self, payload_size, dgram_id):
        """Emit one application datagram toward the sink."""
        self.counters.datagrams_sent += 1
        datagram = build_datagram(self.config.id, dgram_id, payload_size)
        return self._send_fragments(datagram, dgram_id)

    def _send_fragments(self, datagram, dgram_id):
        me, next_hop = self.config.id, self.config.route_next_hop
        slots = self.stack.frag_buffer_slots
        if ((slots is not None and len(self.jobs) >= slots)
                or self.tags.full()):
            self.counters.frag_buf_full += 1
            self.on_drop(dgram_id, "frag_buf_full")
            return False
        tag = self.tags.acquire()
        frags = fragment_datagram(datagram, tag, self.strategy.policy)
        self.jobs[tag] = len(frags)
        send, new = self.mac.send, tuple.__new__
        for frag in frags:
            send(new(Frame, (me, next_hop, frag, dgram_id, tag)))
        return True

    def _on_frame_done(self, frame, cause):
        if cause is not None:
            self.on_drop(frame.dgram_id, cause)
        tag = frame.job
        if tag is not None:
            self.jobs[tag] -= 1
            if not self.jobs[tag]:
                del self.jobs[tag]
                self.tags.release(tag)

    # -- receiving ------------------------------------------------------

    def _on_deliver(self, frame):
        sim = self.sim
        sim.at(sim.now + self._proc_delay, self._process_frame, frame)

    def _process(self, frame):
        src, dst, frag, dgram_id, _ = frame
        header = frag[0]
        if header is None:
            if self.config.route_next_hop is None:
                self._deliver_up(dgram_id, frag.payload)
            else:
                self.counters.datagrams_forwarded += 1
                self.mac.send(Frame(self.config.id,
                                    self.config.route_next_hop,
                                    frag, dgram_id, None))
            return
        key = tuple.__new__(DatagramKey, (src, dst, header[0], header[1]))
        if not self._ff_forwarder:
            self._reassemble_step(key, frag, dgram_id)
        elif type(header) is Frag1Header:
            self._ff_first(key, frag, dgram_id)
        else:
            self._ff_rest(key, frag, dgram_id)

    def _deliver_up(self, dgram_id, datagram):
        self.counters.datagrams_delivered += 1
        self.on_datagram(dgram_id, bytes(datagram))

    def _reassemble_step(self, key, frag, dgram_id):
        datagram = self.rbuf.insert(key, frag.offset, frag.payload, dgram_id)
        if datagram is None:
            return
        if self.config.route_next_hop is None:
            self._deliver_up(dgram_id, datagram)
        else:
            self.counters.datagrams_forwarded += 1
            self._send_fragments(datagram, dgram_id)

    # -- fragment forwarding ---------------------------------------------

    def _ff_first(self, key, frag, dgram_id):
        entry = self.vrb.create(key, dgram_id)
        if entry is None:                # table full: reassemble instead
            self._reassemble_step(key, frag, dgram_id)
            return
        entry.covered_bytes = len(frag.payload)
        out, = refragment_first(frag, entry.out_tag)
        if not self.strategy.queue:
            self.counters.datagrams_forwarded += 1
        self._vrb_emit(entry, out, dgram_id)

    def _ff_rest(self, key, frag, dgram_id):
        entry = self.vrb.lookup(key)
        if entry is None:                # no VRB entry: reassemble instead
            self._reassemble_step(key, frag, dgram_id)
            return
        entry.covered_bytes += len(frag.payload)
        if self._vrb_emit(entry, retag(frag, entry.out_tag), dgram_id):
            if entry.covered_bytes >= key.datagram_size:
                self._vrb_flush(entry)

    def _vrb_emit(self, entry, frag, dgram_id):
        """Send right away (FF) or park in the entry queue (FF_QUEUED)."""
        frame = tuple.__new__(Frame, (self.config.id,
                                      self.config.route_next_hop, frag,
                                      dgram_id, None))
        if not self.strategy.queue:
            self.mac.send(frame)
            return True
        return self.vrb.enqueue(entry, frame, self.mac.wire_size(frame))

    def _vrb_flush(self, entry):
        """The datagram has fully passed; release (and drain) the entry."""
        self.vrb.remove(entry)           # the MAC re-charges each frame
        if entry.queued:
            self.counters.datagrams_forwarded += 1
            for fr in entry.queued:
                self.mac.send(fr)
