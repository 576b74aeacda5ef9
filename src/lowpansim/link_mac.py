"""Single-transceiver CSMA/CA MAC with acknowledgements and a bounded queue.

Timing constants follow 802.15.4 at 2.4 GHz (O-QPSK, 250 kbit/s, 16 us
symbols): 320 us unit backoff period, 128 us from a clear channel assessment
to transmit, and 32 us per byte of PHY payload plus 6 bytes of preamble/SFD/
length overhead (a full 127-byte frame occupies the air for 4256 us).

One frame is in flight at a time.  Each transmission attempt runs unslotted
CSMA/CA (backoff exponent min_be..max_be, up to max_csma_backoffs + 1 channel
assessments); a CSMA failure or a missing acknowledgement fails the attempt,
and a frame is resent at most max_retransmissions times.  Acknowledgements
are modeled instantaneous, lossless, and free of airtime, so the sender
learns the outcome at transmission end and retries ack_timeout_us later.

Frames handed to a busy transceiver (transmitting, or mid-reception of a
frame addressed to this node) wait in a FIFO queue (overflow drops the
newest frame).  The queue head starts when the transceiver frees, with no
poll: every busy state ends at an event already scheduled, the reception's
end or `_rx_release`.  A re-poll falls at the same instant only when a
reception ends then, and that reception's end event has the lower sequence
number, so it runs first.  A channel that is merely overheard busy does not
queue the frame: that is CCA's job.  Queued and in-flight frames are
charged to the node's packet arena.
"""

from collections import deque
from typing import NamedTuple

MAX_FRAME_BYTES = 127     # PHY payload cap
L2_OVERHEAD = 23          # MAC header + FCS bytes per frame
SDU = MAX_FRAME_BYTES - L2_OVERHEAD   # frame bytes left for 6LoWPAN content
PHY_OVERHEAD_BYTES = 6    # preamble 4 + SFD 1 + length 1
US_PER_BYTE = 32          # 8 bits at 250 kbit/s
UNIT_BACKOFF_US = 320     # 20 symbols
CCA_DUR_US = 128          # 8 symbols


def airtime_us(frame_bytes):
    """Air occupancy of a link frame, PHY overhead included."""
    return (PHY_OVERHEAD_BYTES + frame_bytes) * US_PER_BYTE


class MacParams(NamedTuple):
    max_retransmissions: int = 3    # resends per frame (so 4 attempts total)
    min_be: int = 3
    max_be: int = 5
    max_csma_backoffs: int = 4
    ack_timeout_us: int = 864       # 54 symbols
    queue_capacity: int = 64        # None = unbounded
    # A received frame occupies the transceiver's single buffer until the
    # host reads it out; new frames arriving in that window are lost without
    # acknowledgement, and the window is invisible to other nodes' CCA.
    # Logic-analyzer traces of real hardware put the whole busy stretch near
    # 4 ms for typical fragments: airtime plus roughly this handover time.
    rx_handover_us: int = 1000


class Frame(NamedTuple):
    """One link frame: a fragment between two neighboring nodes."""

    src: int
    dst: int
    fragment: object
    dgram_id: int
    job: object = None    # tag of its local fragmentation job, if any


class Mac:
    """Per-node MAC entity; the medium reaches it through its links.

    `on_deliver(frame)` receives each frame that arrived intact and was
    acked; `on_frame_done(frame, cause)` ends each frame sent, with a cause
    of None when it was delivered.
    The frame buffer is taken by `current_rx` from a frame's start, when
    the medium sets it, to its end, when `reception_ended` clears it; an
    intact frame then holds it by `rx_held` until the `_rx_release` event,
    so an event queued for that instant before the reception ended still
    finds it held."""

    __slots__ = ("node_id", "sim", "medium", "params", "counters", "arena",
                 "on_deliver", "on_frame_done", "queue", "current",
                 "tx_until", "rx_busy_until", "rx_hold_until", "current_rx",
                 "rx_held", "_service_at", "_release")

    def __init__(self, node_id, sim, medium, params, counters, arena,
                 on_deliver, on_frame_done):
        self.node_id = node_id
        self.sim = sim
        self.medium = medium
        self.params = params
        self.counters = counters
        self.arena = arena
        self.on_deliver = on_deliver
        self.on_frame_done = on_frame_done
        self.queue = deque()
        self.current = None
        self.tx_until = 0
        self.rx_busy_until = 0
        self.rx_hold_until = 0
        self.current_rx = None
        self.rx_held = False
        self._service_at = None
        self._release = self._rx_release    # scheduled once per frame

    # -- helpers ------------------------------------------------------------

    def wire_size(self, frame):
        return L2_OVERHEAD + frame.fragment.content_len

    def reception_ended(self, rx):
        """Close the reception `rx` opened here; return whether its frame
        arrived intact, and if so hold the frame buffer for the handover."""
        self.current_rx = None
        if rx.destroyed:
            self.counters.collisions += 1
            return False
        hold = self.params.rx_handover_us
        if hold > 0:
            self.rx_held = True
            self.rx_hold_until = self.sim.now + hold
            self.sim.at(self.rx_hold_until, self._release)
        return True

    def _rx_release(self):
        self.rx_held = False
        if self.queue:
            self._try_service()

    # -- send path ----------------------------------------------------------

    def send(self, frame):
        size = self.wire_size(frame)
        if not self.arena.alloc(size):
            self.counters.pktbuf_full += 1
            self.on_frame_done(frame, "pktbuf_full")
            return
        if (self.current is None and not self.queue
                and self.current_rx is None and not self.rx_held):
            self._start_job(frame)
            return
        cap = self.params.queue_capacity
        if cap is not None and len(self.queue) >= cap:
            self.counters.queue_drops += 1
            self.arena.free(size)
            self.on_frame_done(frame, "queue_drop")
            return
        self.queue.append(frame)
        if self.current is None:
            self._schedule_service()

    # The transceiver is busy while a frame for us arrives (current_rx) or
    # is held (rx_held); overheard carrier is CCA's business.  Only a MAC
    # with no job current, so off the air, tests this.  No reception
    # outlasts rx_busy_until, and no hold rx_hold_until.
    def _schedule_service(self):
        t = max(self.sim.now, self.rx_busy_until, self.rx_hold_until)
        if self._service_at is not None and self._service_at <= t:
            return
        self._service_at = t
        self.sim.at(t, self._service_event)

    def _service_event(self):
        self._service_at = None
        self._try_service()

    def _try_service(self):
        if self.current is not None or not self.queue:
            return
        if self.current_rx is not None or self.rx_held:
            self._schedule_service()
            return
        self._start_job(self.queue.popleft())

    # -- one frame's lifecycle ----------------------------------------------

    def _start_job(self, frame):
        self.current = job = self._job(frame)
        next(job)

    def _job(self, frame):
        """One frame's unslotted CSMA/CA and retransmissions, as the
        coroutine `current` holds.  Each wait is an ordinary event that
        resumes it, `sim.at(t, next, job, None)` and then `yield`; `next`'s
        default lets the finished coroutine's last event end quietly."""
        # What every wait and attempt reads is bound once, per frame.
        sim, params, counters = self.sim, self.params, self.counters
        at, begin_tx = sim.at, self.medium.begin_tx
        job, getrandbits = self.current, sim.rng.getrandbits
        size = self.wire_size(frame)
        airtime = airtime_us(size)
        min_be, max_be = params.min_be, params.max_be
        # Resends wait one ack timeout, after a missing ack or a channel
        # access failure alike, so attempts always advance time.
        for attempt in range(params.max_retransmissions + 1):
            if attempt:
                counters.l2_retransmissions += 1
                at(sim.now + params.ack_timeout_us, next, job, None)
                yield
            be = min_be
            for nb in range(params.max_csma_backoffs + 1):
                # randrange(1 << be) as random.Random draws it: be + 1 bits,
                # redrawn while bit be is set.  Same value, same stream.
                slots = getrandbits(be + 1)
                while slots >> be:
                    slots = getrandbits(be + 1)
                at(sim.now + slots * UNIT_BACKOFF_US, next, job, None)
                yield
                # A frame sitting in the single buffer blocks our own
                # transmit path exactly like an audibly busy channel would.
                if not (self.current_rx is not None or self.rx_held
                        or self.rx_busy_until > sim.now):
                    break
                be = be + 1 if be < max_be else max_be
            else:
                counters.csma_failures += 1
                continue
            at(sim.now + CCA_DUR_US, next, job, None)
            yield
            self.tx_until = t1 = sim.now + airtime
            counters.frames_sent += 1
            if self.current_rx is not None:
                # Committed to transmit during the CCA turnaround while a
                # frame was arriving: reception is aborted.
                self.current_rx.destroyed = True
            opened = begin_tx(self, frame)
            at(t1, next, job, None)
            yield
            if opened is not None:
                dest, rx = opened
                if dest.reception_ended(rx):
                    self._finish_job(frame, size, None)
                    dest.on_deliver(frame)
                    return
        self._finish_job(frame, size, "retrans_exhausted")

    def _finish_job(self, frame, size, cause):
        self.current = None
        self.arena.free(size)
        self.on_frame_done(frame, cause)
        if self.queue:
            self._try_service()
