"""Per-node 6LoWPAN stack: traffic, static routing, and forwarding strategies.

Strategies:

- HWR: every forwarder reassembles the whole datagram, then re-fragments it
  toward the next hop under a fresh tag (fill_first fragmentation).
- FF: fragments pass one by one through a virtual reassembly buffer entry
  created when the first fragment arrives in order; fragments that find no
  entry fall back to HWR-style reassembly for that datagram (FF nodes
  fragment minimal_first).
- FF_QUEUED: like FF, but rewritten fragments wait in the entry's queue and
  leave as one in-order burst once the whole datagram has passed.

The sink always reassembles.  Each received frame costs a fixed processing
delay before the stack acts on it.  Every datagram-losing event is reported
through on_drop with a cause, so a harness can attribute each datagram's
fate to the first thing that went wrong.
"""

import hashlib
from dataclasses import dataclass, replace

from .buffers import DatagramKey, PacketArena, ReassemblyBuffer
from .frag_codec import (CompressionHeader, Frag1Header, FragNHeader,
                         Fragment, fragment_datagram, refragment_first)
from .link_mac import Frame, Mac
from .metrics import NodeCounters
from .vrb import TagAllocator, VrbTable

HEADER_BYTES = 48    # 40-byte IPv6 header region + 8-byte UDP header


@dataclass(frozen=True, slots=True)
class Strategy:
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
    return hashlib.shake_256(b"%d:%d" % (src, dgram_id)).digest(
        HEADER_BYTES + payload_size)


@dataclass(frozen=True, slots=True)
class NodeConfig:
    id: int
    route_next_hop: object          # None exactly at the sink
    strategy: str
    rbuf_entries: int = 16          # table capacities; harness scenarios
    vrb_entries: int = 16           # write "no limit" as UNBOUNDED_ENTRIES


@dataclass(frozen=True, slots=True)
class StackParams:
    comp_header_bytes: int = 24
    reassembly_timeout_us: int = 10_000_000
    vrb_lifetime_us: int = 10_000_000
    proc_delay_us: int = 2000
    frag_buffer_slots: int = 64        # concurrent fragmentation jobs
    arena_bytes: object = 6144         # shared packet pool; None = unbounded


class _FragJob:
    """One local fragmentation; holds its tag and a fragmentation slot
    until all its frames left the MAC."""

    __slots__ = ("next_hop", "tag", "remaining")

    def __init__(self, next_hop, tag):
        self.next_hop = next_hop
        self.tag = tag
        self.remaining = 0


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
        self.sdu = mac_params.sdu
        self.comp = CompressionHeader(self.stack.comp_header_bytes)
        self.strategy = STRATEGIES[config.strategy]
        self.tags = TagAllocator()
        self.rbuf = ReassemblyBuffer(sim, config.rbuf_entries,
                                     self.stack.reassembly_timeout_us,
                                     self.counters, on_drop, self.arena)
        self.vrb = VrbTable(sim, config.vrb_entries,
                            self.stack.vrb_lifetime_us, self.counters,
                            self.tags, on_drop, self.arena)
        self.frag_jobs = 0               # live local fragmentation jobs

    # -- sending --------------------------------------------------------

    def app_send(self, payload_size, dgram_id):
        """Emit one application datagram toward the sink."""
        self.counters.datagrams_sent += 1
        datagram = build_datagram(self.config.id, dgram_id, payload_size)
        return self._send_fragments(datagram, dgram_id)

    def _send_fragments(self, datagram, dgram_id):
        next_hop = self.config.route_next_hop
        if self.frag_jobs >= self.stack.frag_buffer_slots:
            self.counters.frag_buf_full += 1
            self.on_drop(dgram_id, "frag_buf_full", self.sim.now)
            return False
        self.frag_jobs += 1
        job = _FragJob(next_hop, self.tags.acquire(next_hop))
        frags = fragment_datagram(datagram, self.comp, job.tag, self.sdu,
                                  self.strategy.policy)
        job.remaining = len(frags)
        me = self.config.id
        for frag in frags:
            self.mac.send(Frame(me, next_hop, frag, dgram_id, job))
        return True

    def _on_frame_done(self, frame, ok, cause):
        if not ok:
            self.on_drop(frame.dgram_id, cause, self.sim.now)
        job = frame.job
        if job is not None:
            job.remaining -= 1
            if job.remaining == 0:
                self.frag_jobs -= 1
                self.tags.release(job.next_hop, job.tag)

    # -- receiving ------------------------------------------------------

    def _on_deliver(self, frame, now):
        sim = self.sim
        sim.at(sim.now + self.stack.proc_delay_us, self._process, frame)

    def _process(self, frame):
        now = self.sim.now
        frag = frame.fragment
        header = frag.header
        if header is None:
            if self.config.route_next_hop is None:
                self._deliver_up(frame.dgram_id, frag.payload, now)
            else:
                self.counters.datagrams_forwarded += 1
                self.mac.send(Frame(self.config.id,
                                    self.config.route_next_hop,
                                    frag, frame.dgram_id, None))
            return
        key = DatagramKey(frame.src, frame.dst, header.datagram_size,
                          header.datagram_tag)
        if self.config.route_next_hop is None or self.strategy.reassemble:
            self._reassemble_step(key, frag, frame.dgram_id, now)
        elif isinstance(header, Frag1Header):
            self._ff_first(key, frag, frame.dgram_id, now)
        else:
            self._ff_rest(key, frag, frame.dgram_id, now)

    def _deliver_up(self, dgram_id, datagram, now):
        self.counters.datagrams_delivered += 1
        self.on_datagram(dgram_id, bytes(datagram), now)

    def _reassemble_step(self, key, frag, dgram_id, now):
        datagram = self.rbuf.insert(key, frag.offset, frag.payload, now,
                                    dgram_id)
        if datagram is None:
            return
        if self.config.route_next_hop is None:
            self._deliver_up(dgram_id, datagram, now)
        else:
            self.counters.datagrams_forwarded += 1
            self._send_fragments(datagram, dgram_id)

    # -- fragment forwarding ---------------------------------------------

    def _ff_first(self, key, frag, dgram_id, now):
        if key in self.rbuf.entries:     # already fell back for this datagram
            self._reassemble_step(key, frag, dgram_id, now)
            return
        if self.vrb.lookup(key) is not None:
            self.counters.duplicate_fragments += 1
            return
        entry = self.vrb.create(key, self.config.route_next_hop, now,
                                dgram_id)
        if entry is None:                # table full: reassemble instead
            self._reassemble_step(key, frag, dgram_id, now)
            return
        entry.covered_bytes = len(frag.payload)
        outs = [replace(out, header=replace(out.header,
                                            datagram_tag=entry.out_tag))
                for out in refragment_first(frag, self.comp, self.sdu)]
        if not self.strategy.queue:
            self.counters.datagrams_forwarded += 1
        self._vrb_emit(entry, outs, dgram_id)

    def _ff_rest(self, key, frag, dgram_id, now):
        entry = self.vrb.lookup(key)
        if entry is None:                # first fragment missing or unordered
            self._reassemble_step(key, frag, dgram_id, now)
            return
        header = frag.header
        out = Fragment(FragNHeader(header.datagram_size, entry.out_tag,
                                   header.offset_units), frag.payload)
        entry.covered_bytes += len(frag.payload)
        if self._vrb_emit(entry, [out], dgram_id):
            if entry.covered_bytes >= key.datagram_size:
                self._vrb_flush(entry)

    def _vrb_emit(self, entry, frags, dgram_id):
        """Send right away (FF) or park in the entry queue (FF_QUEUED)."""
        me = self.config.id
        frames = [Frame(me, entry.next_hop, f, dgram_id, None) for f in frags]
        if not self.strategy.queue:
            for fr in frames:
                self.mac.send(fr)
            return True
        return all(self.vrb.enqueue(entry, fr, self.mac.wire_size(fr))
                   for fr in frames)

    def _vrb_flush(self, entry):
        """The datagram has fully passed; release (and drain) the entry."""
        self.vrb.remove(entry.key)       # the MAC re-charges each frame
        if entry.queued:
            self.counters.datagrams_forwarded += 1
            for fr in entry.queued:
                self.mac.send(fr)
