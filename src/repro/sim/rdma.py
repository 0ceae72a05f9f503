"""One-sided RDMA verb model.

MIND's data path is built on one-sided RDMA READ/WRITE: compute blades post
verbs against *virtual* addresses, the switch rewrites headers to the right
memory blade, and the memory blade's NIC serves the access with **zero CPU
involvement** (Section 3.2 / 6.2 of the paper).  This module models the verb
cost structure; the switch traversal itself is composed by the data-path
code so that the switch pipeline model stays in one place.

A verb completion here means the payload landed in the registered receive
buffer and the completion queue was polled -- i.e. the point at which the
page-fault handler can populate PTEs and return to the user.

Reliability (Section 4.4): RDMA is lossy under injected faults, so the verb
layer carries timeout/retransmission machinery.  :class:`BackoffPolicy`
defines a deterministic exponential-backoff schedule (optionally jittered
from a seeded generator); the reliable verbs retransmit lost transfers on
that schedule and raise a typed :class:`RdmaTimeoutError` once the retry
budget is exhausted, so a lost transfer is retried -- never silently hung.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from .engine import Engine
from .network import CONTROL_MSG_BYTES, Network, NetworkConfig, Port, wire


class RdmaTimeoutError(RuntimeError):
    """A reliable verb exhausted its retransmission budget."""

    def __init__(self, verb: str, attempts: int):
        super().__init__(f"rdma {verb} timed out after {attempts} attempts")
        self.verb = verb
        self.attempts = attempts


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential-backoff retransmission schedule.

    ``timeout_us(k)`` is the wait after the k-th failed attempt:
    ``base_timeout_us * multiplier**k`` capped at ``max_timeout_us``, with
    optional multiplicative jitter drawn from a caller-supplied seeded rng
    (same seed -> byte-identical schedule).  ``max_retries`` bounds the
    retransmissions; attempt count is therefore ``max_retries + 1``.
    """

    base_timeout_us: float = 50.0
    multiplier: float = 2.0
    max_retries: int = 5
    max_timeout_us: float = 1_600.0
    jitter_frac: float = 0.0

    def timeout_us(self, attempt: int, rng=None) -> float:
        timeout = min(
            self.base_timeout_us * self.multiplier ** attempt, self.max_timeout_us
        )
        if self.jitter_frac and rng is not None:
            timeout *= 1.0 + self.jitter_frac * float(rng.random())
        return timeout

    def schedule(self, rng=None) -> List[float]:
        """The full wait schedule (one entry per allowed retransmission)."""
        return [self.timeout_us(k, rng) for k in range(self.max_retries)]


class RdmaQp:
    """A (virtualized) queue pair between a compute blade and "the memory".

    The compute blade does not know which memory blade it is talking to; the
    switch virtualizes the connection (Section 6.3).  The QP therefore only
    references the local port; destination resolution happens in-network.
    """

    def __init__(
        self,
        engine: Engine,
        network: Network,
        local_port: Port,
        backoff: Optional[BackoffPolicy] = None,
        rng=None,
    ):
        self.engine = engine
        self.network = network
        self.config: NetworkConfig = network.config
        self.local_port = local_port
        self.backoff = backoff or BackoffPolicy()
        self._rng = rng
        self.reads_posted = 0
        self.writes_posted = 0
        self.retransmissions = 0
        self.timeouts = 0

    # The verbs below are *segments* of a full transaction: the switch-side
    # code stitches request segments, pipeline passes and response segments
    # together.  Each returns a process generator.

    def post_request(self, size_bytes: int = CONTROL_MSG_BYTES) -> Generator:
        """Requester -> switch: verb post overhead + uplink transfer."""
        yield self.config.rdma_verb_overhead_us
        yield from wire(self.local_port.to_switch, size_bytes)

    def receive_response(self, size_bytes: int) -> Generator:
        """Switch -> requester: downlink transfer + completion polling."""
        yield from wire(self.local_port.from_switch, size_bytes)
        yield self.config.rdma_verb_overhead_us

    # -- reliable verbs (timeout + exponential-backoff retransmission) ----

    def reliable_post(self, size_bytes: int = CONTROL_MSG_BYTES) -> Generator:
        """Requester -> switch with retransmission.

        Use via ``yield from``.  Returns the number of retransmissions the
        transfer needed (0 when the first attempt lands).  Raises
        :class:`RdmaTimeoutError` once the backoff budget is exhausted --
        the caller sees a typed failure instead of a hung completion queue.
        """
        return (yield from self._reliable(self.local_port.to_switch, size_bytes, "post"))

    def reliable_receive(self, size_bytes: int) -> Generator:
        """Switch -> requester with retransmission (see reliable_post)."""
        return (
            yield from self._reliable(self.local_port.from_switch, size_bytes, "receive")
        )

    def _reliable(self, link, size_bytes: int, verb: str) -> Generator:
        attempts = self.backoff.max_retries + 1
        for attempt in range(attempts):
            yield self.config.rdma_verb_overhead_us
            delivered = yield from wire(link, size_bytes)
            if delivered:
                return attempt
            if attempt < self.backoff.max_retries:
                self.retransmissions += 1
                yield self.backoff.timeout_us(attempt, self._rng)
        self.timeouts += 1
        raise RdmaTimeoutError(verb, attempts)


def one_sided_read(
    config: NetworkConfig,
    memory_port: Port,
    size_bytes: int,
) -> Generator:
    """Switch -> memory blade -> switch leg of a one-sided READ.

    The memory blade NIC DMA-reads ``size_bytes`` from host DRAM and streams
    it back.  No memory-blade CPU is involved, so the only costs are the NIC
    service time, DRAM, and the wire.
    """
    yield from wire(memory_port.from_switch, CONTROL_MSG_BYTES)
    yield config.memory_service_us + config.dram_access_us
    yield from wire(memory_port.to_switch, size_bytes)


def one_sided_write(
    config: NetworkConfig,
    memory_port: Port,
    size_bytes: int,
) -> Generator:
    """Switch -> memory blade leg of a one-sided WRITE (page flush).

    Completion is the memory blade NIC's ACK arriving back at the switch.
    """
    yield from wire(memory_port.from_switch, size_bytes)
    yield config.memory_service_us + config.dram_access_us
    yield from wire(memory_port.to_switch, CONTROL_MSG_BYTES)
