"""Per-node counter bag shared by the protocol components.

Every component increments plain integer attributes; the harness reads them
out at the end of a run.  Loss-cause attribution for whole datagrams happens
at the run level (see harness), driven by drop callbacks that carry the
datagram id.
"""

COUNTER_FIELDS = (
    "frames_sent",            # transmission attempts that put energy on the air
    "l2_retransmissions",     # failed attempts (no ACK or CSMA failure)
    "queue_drops",            # MAC queue overflow, newest frame dropped
    "busy_losses",            # frame arrived while the transceiver was busy
    "collisions",             # frame destroyed by an overlapping transmission
    "channel_losses",         # frame lost to the link PDR draw
    "csma_failures",          # CSMA/CA gave up after max backoffs
    "rbuf_full",              # fragment dropped: no free reassembly entry
    "rbuf_timeout",           # reassembly entry expired
    "rbuf_timeout_no_first",  # expired entries that never saw the first fragment
    "vrb_full",               # no free VRB entry, fell back to reassembly
    "vrb_expired",            # VRB entry expired (queued fragments dropped)
    "pktbuf_full",            # packet arena exhausted
    "frag_buf_full",          # no free fragmentation-buffer slot
    "datagrams_sent",         # datagrams originated by this node's flows
    "datagrams_forwarded",    # datagrams this node re-fragmented or piped through
    "datagrams_delivered",    # datagrams completed at this node's socket
)


class NodeCounters:
    """Plain integer counters, one instance per node per run."""

    __slots__ = COUNTER_FIELDS

    def __init__(self):
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in COUNTER_FIELDS}
