"""Compute-blade DRAM page cache.

Under partial disaggregation each compute blade keeps a few GB of local
DRAM used exclusively as a *cache* of remote pages (Section 2.1).  The
implementation mirrors the paper's description of their LegoOS-style cache
with coherence support (Section 6.1): pages are cached at 4 KB granularity
with per-page permissions, the set of writable (potentially dirty) pages is
tracked so a region invalidation can flush exactly the dirty pages it
covers, and capacity misses evict LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..sim.network import PAGE_SIZE
from ..core.vma import align_down


def _immutable(data: bytes) -> bytes:
    """Payloads enter a cache as ``bytes``; a caller's mutable buffer is
    copied so the cache never aliases it."""
    return data if type(data) is bytes else bytes(data)


class CachedPage:
    """One resident page: payload plus permission/dirty metadata.

    ``payload`` is copy-on-write: immutable ``bytes`` (possibly shared with
    other caches and the memory blades) until the first mutation swaps in
    a private ``bytearray``.  A ``bytearray`` payload is never reachable
    from anywhere but this page.  ``None`` means payloads are disabled.
    """

    __slots__ = ("va", "payload", "writable", "dirty")

    def __init__(
        self,
        va: int,
        payload: Optional[bytes],
        writable: bool = False,
        dirty: bool = False,
    ):
        self.va = va
        self.payload: Union[bytes, bytearray, None] = payload
        self.writable = writable
        self.dirty = dirty

    def __repr__(self) -> str:
        return (
            f"CachedPage(va={self.va:#x}, writable={self.writable}, "
            f"dirty={self.dirty})"
        )

    @property
    def data(self) -> Optional[bytearray]:
        """The page's private mutable buffer (made on first access).

        A later hand-out (:meth:`share`) may replace it with an immutable
        snapshot, so re-read this property rather than holding the buffer.
        """
        payload = self.payload
        if payload is None or isinstance(payload, bytearray):
            return payload
        buf = self.payload = bytearray(payload)
        return buf

    def share(self) -> Optional[bytes]:
        """The payload as immutable ``bytes``, safe to hand out of the cache
        (write-back, cache-to-cache serve).  A private buffer is frozen in
        place, so the page and the receiver share one object until the next
        mutation copies it again."""
        payload = self.payload
        if isinstance(payload, bytearray):
            frozen = self.payload = bytes(payload)
            return frozen
        return payload


@dataclass
class InvalidationOutcome:
    """What a region invalidation did to this cache (for the ACK)."""

    flushed: List[CachedPage] = field(default_factory=list)
    dropped: int = 0
    downgraded: int = 0

    @property
    def pages_affected(self) -> int:
        return len(self.flushed) + self.dropped + self.downgraded


class PageCache:
    """LRU page cache with writable-set tracking and region invalidation."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("cache needs at least one page")
        self.capacity_pages = capacity_pages
        self._pages: "OrderedDict[int, CachedPage]" = OrderedDict()
        self._writable: Dict[int, CachedPage] = {}
        self.hits = 0
        self.misses = 0
        self.upgrades = 0

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, va: int) -> bool:
        return align_down(va, PAGE_SIZE) in self._pages

    # -- access path ---------------------------------------------------------

    def lookup(self, va: int, write: bool) -> Optional[CachedPage]:
        """Cache hit check; returns the page only if the access is allowed.

        A write to a resident read-only page is a *permission miss* (counted
        as an upgrade): the caller must fault to run the S->M transition.
        """
        page_va = va - (va % PAGE_SIZE)
        page = self._pages.get(page_va)
        if page is None:
            self.misses += 1
            return None
        if write and not page.writable:
            self.upgrades += 1
            return None
        self.hits += 1
        self._pages.move_to_end(page_va)
        if write:
            page.dirty = True
        return page

    def consume_hit_run(
        self,
        vas,
        writes,
        start: int,
        end: int,
        debt: float,
        debt_limit: float,
        step: float,
    ):
        """Retire a run of consecutive cache hits in one call (batched replay).

        Walks ``vas[start:end]`` applying exactly the per-access hit
        semantics of :meth:`lookup` (hit count, LRU touch, dirty mark on
        writes), accumulating ``step`` microseconds of local-time debt per
        hit.  Stops *without consuming the access* at the first miss or
        permission miss -- the caller re-runs :meth:`lookup` on that access
        so the miss/upgrade is counted exactly once (the terminating probe
        here neither counts nor touches the LRU).  Stops *after consuming
        the access* once ``debt`` reaches ``debt_limit``, matching the
        per-access loop, which pays its debt after the hit that crossed the
        threshold.  Returns ``(next_index, debt)``.
        """
        pages = self._pages
        get = pages.get
        move = pages.move_to_end
        hits = 0
        i = start
        while i < end:
            va = vas[i]
            page_va = va - (va % PAGE_SIZE)
            page = get(page_va)
            if page is None:
                break
            if writes[i]:
                if not page.writable:
                    break
                page.dirty = True
            move(page_va)
            hits += 1
            i += 1
            debt += step
            if debt >= debt_limit:
                break
        self.hits += hits
        return i, debt

    def peek(self, va: int) -> Optional[CachedPage]:
        """Non-mutating lookup (no LRU update, no permission check)."""
        return self._pages.get(align_down(va, PAGE_SIZE))

    # -- fills & eviction ------------------------------------------------------

    def insert(
        self, va: int, data: Optional[bytes], writable: bool
    ) -> List[CachedPage]:
        """Fill a page after a fault; returns evicted pages (dirty ones must
        be flushed by the caller before it reuses the frame)."""
        page_va = align_down(va, PAGE_SIZE)
        existing = self._pages.get(page_va)
        if existing is not None:
            # Permission upgrade re-fill: refresh payload and writability.
            if data is not None:
                existing.payload = _immutable(data)
            existing.writable = existing.writable or writable
            if writable:
                self._writable[page_va] = existing
            self._pages.move_to_end(page_va)
            return []
        evicted: List[CachedPage] = []
        while len(self._pages) >= self.capacity_pages:
            _va, victim = self._pages.popitem(last=False)
            self._writable.pop(victim.va, None)
            evicted.append(victim)
        page = CachedPage(
            page_va, _immutable(data) if data is not None else None, writable
        )
        self._pages[page_va] = page
        if writable:
            self._writable[page_va] = page
        return evicted

    def drop(self, va: int) -> Optional[CachedPage]:
        page_va = align_down(va, PAGE_SIZE)
        page = self._pages.pop(page_va, None)
        if page is not None:
            self._writable.pop(page_va, None)
        return page

    # -- invalidation ------------------------------------------------------------

    def writable_pages_in(self, base: int, size: int) -> List[CachedPage]:
        return [
            p for va, p in self._writable.items() if base <= va < base + size
        ]

    def pages_in(self, base: int, size: int) -> List[CachedPage]:
        return [p for va, p in self._pages.items() if base <= va < base + size]

    def invalidate_region(
        self, base: int, size: int, downgrade_to_shared: bool, keep_dirty: bool = False
    ) -> InvalidationOutcome:
        """Apply a region invalidation (Section 6.1).

        Dirty pages are returned for write-back.  With ``downgrade_to_shared``
        (an M->S transition at the old owner) pages stay resident read-only;
        otherwise every page in the region is dropped.  ``keep_dirty``
        (MOESI's M->O) write-protects but *keeps* pages dirty and unflushed:
        this blade remains the data's only up-to-date holder.
        """
        outcome = InvalidationOutcome()
        for page in self.pages_in(base, size):
            if downgrade_to_shared and keep_dirty:
                page.writable = False
                self._writable.pop(page.va, None)
                outcome.downgraded += 1
                continue
            was_dirty = page.dirty
            if was_dirty:
                outcome.flushed.append(page)
            if downgrade_to_shared:
                page.writable = False
                page.dirty = False
                self._writable.pop(page.va, None)
                if not was_dirty:
                    outcome.downgraded += 1
            else:
                self._pages.pop(page.va, None)
                self._writable.pop(page.va, None)
                if not was_dirty:
                    outcome.dropped += 1
        return outcome

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses + self.upgrades
        return self.hits / total if total else 0.0
