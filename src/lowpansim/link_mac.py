"""Single-transceiver CSMA/CA MAC with acknowledgements and a bounded queue.

Timing constants follow 802.15.4 at 2.4 GHz (O-QPSK, 250 kbit/s, 16 us
symbols): 320 us unit backoff period, 128 us from a clear channel assessment
to transmit, and 32 us per byte of PHY payload plus 6 bytes of preamble/SFD/
length overhead (a full 127-byte frame occupies the air for 4256 us).

One frame is in flight at a time.  Each transmission attempt runs unslotted
CSMA/CA (backoff exponent min_be..max_be, up to max_csma_backoffs + 1 channel
assessments); a CSMA failure or a missing acknowledgement counts as one
failed attempt and increments the retransmission counter, and the frame drops
after max_retransmissions failed attempts.  Acknowledgements are modeled
instantaneous, lossless, and free of airtime, so the sender learns the
outcome at transmission end and retries ack_timeout_us later.

Frames handed to a busy transceiver (transmitting, or mid-reception of a
frame addressed to this node) wait in a FIFO queue (overflow drops the
newest frame); the queue head is retried as soon as the radio frees and not
later than queue_retry_us after enqueueing.  A channel that is merely
overheard busy does not queue the frame: that is CCA's job.  Queued and
in-flight frames are charged to the node's packet arena.
"""

from collections import deque
from dataclasses import dataclass

MAX_FRAME_BYTES = 127     # PHY payload cap
PHY_OVERHEAD_BYTES = 6    # preamble 4 + SFD 1 + length 1
US_PER_BYTE = 32          # 8 bits at 250 kbit/s
UNIT_BACKOFF_US = 320     # 20 symbols
CCA_DUR_US = 128          # 8 symbols


def airtime_us(frame_bytes):
    """Air occupancy of a link frame, PHY overhead included."""
    return (PHY_OVERHEAD_BYTES + frame_bytes) * US_PER_BYTE


@dataclass(frozen=True, slots=True)
class MacParams:
    max_retransmissions: int = 3    # resends per frame (so 4 attempts total)
    min_be: int = 3
    max_be: int = 5
    max_csma_backoffs: int = 4
    ack_timeout_us: int = 864       # 54 symbols
    queue_retry_us: int = 5000
    queue_capacity: int = 64        # None = unbounded
    l2_overhead: int = 23           # MAC header + FCS bytes per frame
    # A received frame occupies the transceiver's single buffer until the
    # host reads it out; new frames arriving in that window are lost without
    # acknowledgement, and the window is invisible to other nodes' CCA.
    # Logic-analyzer traces of real hardware put the whole busy stretch near
    # 4 ms for typical fragments: airtime plus roughly this handover time.
    rx_handover_us: int = 1000

    @property
    def sdu(self):
        """Link SDU: frame bytes left for 6LoWPAN content."""
        return MAX_FRAME_BYTES - self.l2_overhead


@dataclass(slots=True)
class Frame:
    """One link frame: a fragment between two neighboring nodes."""

    src: int
    dst: int
    fragment: object
    dgram_id: int
    job: object = None    # originating fragmentation job, if any


class _Job:
    """The frame in flight, with its wire size and airtime.

    A job has exactly one pending event at any time, and `Mac.current`
    changes only in `_start_job` (while it is None) and in `_finish_job`,
    which only the job's own event chain reaches; so every event of a job
    finds it still current."""

    __slots__ = ("frame", "size", "airtime", "attempts", "nb", "be")

    def __init__(self, frame, size):
        self.frame = frame
        self.size = size
        self.airtime = airtime_us(size)
        self.attempts = 0
        self.nb = 0
        self.be = 0


class Mac:
    """Per-node MAC entity; registers itself with the medium.

    `on_deliver(frame, now)` receives each frame that arrived intact and
    was acked; `on_frame_done(frame, ok, cause)` ends each frame sent."""

    __slots__ = ("node_id", "sim", "medium", "params", "counters", "arena",
                 "on_deliver", "on_frame_done", "queue", "current",
                 "tx_until", "rx_busy_until", "rx_hold_until", "current_rx",
                 "_service_at")

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
        self._service_at = None
        medium.register(self)

    # -- helpers ------------------------------------------------------------

    def wire_size(self, frame):
        return self.params.l2_overhead + frame.fragment.content_len

    def _transceiver_busy(self, now):
        # Carrier overheard from elsewhere (rx_busy_until with no frame of
        # ours arriving) is not transceiver business; CCA deals with it.
        return self.tx_until > now or self.current_rx is not None

    def _busy_end(self):
        return max(self.tx_until, self.rx_busy_until, self.rx_hold_until)

    def frame_received(self, rx):
        """A reception completed; hold the frame buffer during handover."""
        hold = self.params.rx_handover_us
        if hold <= 0:
            self.current_rx = None
            return
        rx.in_air = False
        self.rx_hold_until = self.sim.now + hold
        self.sim.at(self.rx_hold_until, self._rx_release, rx)

    def _rx_release(self, rx):
        if self.current_rx is rx:
            self.current_rx = None
            self._try_service()

    # -- send path ----------------------------------------------------------

    def send(self, frame):
        now = self.sim.now
        if not self.arena.alloc(self.wire_size(frame)):
            self.counters.pktbuf_full += 1
            self.on_frame_done(frame, False, "pktbuf_full")
            return
        if self.current is None and not self.queue and not self._transceiver_busy(now):
            self._start_job(frame)
            return
        cap = self.params.queue_capacity
        if cap is not None and len(self.queue) >= cap:
            self.counters.queue_drops += 1
            self.arena.free(self.wire_size(frame))
            self.on_frame_done(frame, False, "queue_drop")
            return
        self.queue.append(frame)
        if self.current is None:
            self._schedule_service(now)

    def _schedule_service(self, now):
        t = max(now, min(self._busy_end(), now + self.params.queue_retry_us))
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
        now = self.sim.now
        if self._transceiver_busy(now):
            self._schedule_service(now)
            return
        self._start_job(self.queue.popleft())

    # -- one frame's lifecycle ----------------------------------------------

    def _start_job(self, frame):
        self.current = _Job(frame, self.wire_size(frame))
        self._begin_attempt()

    def _begin_attempt(self):
        job = self.current
        job.attempts += 1
        job.nb = 0
        job.be = self.params.min_be
        self._backoff(job)

    def _backoff(self, job):
        # randrange(1 << be), drawn the way random.Random draws it: be + 1
        # bits, redrawn while bit be is set.  Same value, same stream.
        sim, be = self.sim, job.be
        getrandbits = sim.rng.getrandbits
        slots = getrandbits(be + 1)
        while slots >> be:
            slots = getrandbits(be + 1)
        sim.at(sim.now + slots * UNIT_BACKOFF_US, self._cca, job)

    def _cca(self, job):
        # A frame sitting in the single buffer blocks our own transmit path
        # exactly like an audibly busy channel would.
        if self.current_rx is not None or self.rx_busy_until > self.sim.now:
            job.nb += 1
            job.be = min(job.be + 1, self.params.max_be)
            if job.nb > self.params.max_csma_backoffs:
                self.counters.csma_failures += 1
                self._attempt_failed(job)
            else:
                self._backoff(job)
            return
        self.sim.at(self.sim.now + CCA_DUR_US, self._tx_start, job)

    def _tx_start(self, job):
        now = self.sim.now
        t1 = now + job.airtime
        self.tx_until = t1
        self.counters.frames_sent += 1
        if self.current_rx is not None:
            # Committed to transmit during the CCA turnaround while a frame
            # was arriving: reception is aborted.
            self.current_rx.destroyed = True
        self.medium.begin_tx(self, job.frame, now, t1)
        self.sim.at(t1, self._tx_end, job)

    def _tx_end(self, job):
        delivered, dest = self.medium.finish_tx(self, job.frame)
        if delivered:
            self._finish_job(job, True, None)
            dest.on_deliver(job.frame, self.sim.now)
        else:
            self._attempt_failed(job)

    def _attempt_failed(self, job):
        # max_retransmissions counts resends, so a frame gets one more
        # attempt than that.  Both a missing ack and a channel access
        # failure wait one ack timeout before the next attempt, so attempts
        # always advance time.
        if job.attempts > self.params.max_retransmissions:
            self._finish_job(job, False, "retrans_exhausted")
        else:
            self.counters.l2_retransmissions += 1
            self.sim.at(self.sim.now + self.params.ack_timeout_us,
                        self._begin_attempt)

    def _finish_job(self, job, ok, cause):
        self.current = None
        self.arena.free(job.size)
        self.on_frame_done(job.frame, ok, cause)
        self._try_service()
