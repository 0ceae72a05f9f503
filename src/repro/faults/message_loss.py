"""Protocol-level message-loss injection for Section 4.4 testing.

This injector drops whole coherence messages (invalidations, ACKs,
fetches) regardless of route, with per-message probabilities drawn from a
seeded generator so failure tests are reproducible.  Scheduled,
link-level fault windows live in :mod:`repro.faults.injector`.

Historically this class lived in :mod:`repro.core.coherence` (first
exported as ``FaultInjector``); import it from :mod:`repro.faults`.
"""

from __future__ import annotations


class MessageLossInjector:
    """Deterministic per-message drop decisions for coherence traffic."""

    def __init__(
        self,
        rng,
        drop_invalidations: float = 0.0,
        drop_acks: float = 0.0,
        drop_fetches: float = 0.0,
    ):
        self._rng = rng
        self.drop_invalidations = drop_invalidations
        self.drop_acks = drop_acks
        self.drop_fetches = drop_fetches
        self.dropped = 0

    def _roll(self, probability: float) -> bool:
        if probability and self._rng.random() < probability:
            self.dropped += 1
            return True
        return False

    def should_drop_invalidation(self) -> bool:
        return self._roll(self.drop_invalidations)

    def should_drop_ack(self) -> bool:
        return self._roll(self.drop_acks)

    def should_drop_fetch(self) -> bool:
        return self._roll(self.drop_fetches)
