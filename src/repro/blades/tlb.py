"""Compute-blade PTE table and TLB-shootdown accounting.

While MIND hides disaggregation from applications, each compute blade still
runs a local page-table mapping MIND virtual addresses to local DRAM frames
for cached pages (footnote 2 of the paper).  Crucially the local mapping is
*per protection domain*: the blade cache stores permissions for cached
pages (Section 3.2), so a page cached on behalf of one domain is not
implicitly accessible to another -- a different domain's first access must
fault to the switch, where the protection table arbitrates.

An invalidation that unmaps a page or downgrades its permission forces a
*synchronous TLB shootdown*, which the paper measures at several
microseconds and identifies as a main component of invalidation latency
(Fig. 7 right, citing LATR).  PTE presence/writability must mirror the
page cache, an invariant the test suite checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..sim.network import PAGE_SIZE
from ..core.vma import align_down


class PageTableEntry:
    """A local PTE: one domain's mapping of a cached page."""

    __slots__ = ("pdid", "va", "writable")

    def __init__(self, pdid: int, va: int, writable: bool):
        self.pdid = pdid
        self.va = va
        self.writable = writable

    def __repr__(self) -> str:
        return (
            f"PageTableEntry(pdid={self.pdid}, va={self.va:#x}, "
            f"writable={self.writable})"
        )


class PteTable:
    """Per-blade, per-domain page table plus TLB shootdown cost model."""

    #: base cost of one synchronous shootdown (inter-processor interrupts,
    #: waiting for all cores to ACK); matches the "several microseconds"
    #: of Section 7.2.
    SHOOTDOWN_BASE_US = 3.0
    #: incremental cost per additional unmapped page in the same batch.
    SHOOTDOWN_PER_PAGE_US = 0.15

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], PageTableEntry] = {}
        #: page va -> set of domains mapping it (for page-keyed teardown).
        self._by_page: Dict[int, Set[int]] = {}
        self.shootdowns = 0
        self.pages_shot_down = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, va: int) -> bool:
        """True if *any* domain maps the page."""
        return align_down(int(va), PAGE_SIZE) in self._by_page

    def map_page(self, va: int, writable: bool, pdid: int = 0) -> None:
        page_va = align_down(int(va), PAGE_SIZE)
        self._entries[(pdid, page_va)] = PageTableEntry(pdid, page_va, writable)
        self._by_page.setdefault(page_va, set()).add(pdid)

    def entry(self, va: int, pdid: int = 0) -> Optional[PageTableEntry]:
        return self._entries.get((pdid, align_down(int(va), PAGE_SIZE)))

    def unmap_page(self, va: int) -> bool:
        """Remove every domain's mapping of the page (cache drop path)."""
        page_va = align_down(int(va), PAGE_SIZE)
        pdids = self._by_page.pop(page_va, None)
        if not pdids:
            return False
        for pdid in pdids:
            self._entries.pop((pdid, page_va), None)
        return True

    def unmap_domain_range(self, pdid: int, base: int, size: int) -> int:
        """Remove one domain's PTEs in a VA range (permission revocation).

        Other domains' mappings of the same pages are untouched.  Returns
        the number of PTEs removed.
        """
        removed = 0
        for (e_pdid, va) in list(self._entries):
            if e_pdid == pdid and base <= va < base + size:
                del self._entries[(e_pdid, va)]
                holders = self._by_page.get(va)
                if holders is not None:
                    holders.discard(pdid)
                    if not holders:
                        del self._by_page[va]
                removed += 1
        return removed

    def entries_in(self, base: int, size: int) -> List[PageTableEntry]:
        return [
            e for (_pdid, va), e in self._entries.items() if base <= va < base + size
        ]

    def pages_in(self, base: int, size: int) -> List[int]:
        return [va for va in self._by_page if base <= va < base + size]

    def shootdown_region(
        self, base: int, size: int, downgrade_to_shared: bool
    ) -> float:
        """Unmap (or write-protect) the region's PTEs; returns the
        synchronous shootdown cost in microseconds (0 if nothing mapped)."""
        affected = self.entries_in(base, size)
        if not affected:
            return 0.0
        if downgrade_to_shared:
            changed = 0
            for entry in affected:
                if entry.writable:
                    entry.writable = False
                    changed += 1
            if changed == 0:
                return 0.0
            count = changed
        else:
            for page_va in self.pages_in(base, size):
                self.unmap_page(page_va)
            count = len(affected)
        self.shootdowns += 1
        self.pages_shot_down += count
        return self.SHOOTDOWN_BASE_US + self.SHOOTDOWN_PER_PAGE_US * (count - 1)
