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

from typing import Dict, List, Optional, Tuple

from ..sim.network import PAGE_SIZE
from ..core.vma import align_down


class PageTableEntry:
    """A local PTE: one domain's mapping of a cached page.

    Entries of other domains mapping the same page chain through ``next``;
    almost every page is mapped by a single domain, so the chain is short.
    """

    __slots__ = ("pdid", "va", "writable", "next")

    def __init__(self, pdid: int, va: int, writable: bool):
        self.pdid = pdid
        self.va = va
        self.writable = writable
        self.next: Optional[PageTableEntry] = None

    def __repr__(self) -> str:
        return (
            f"PageTableEntry(pdid={self.pdid}, va={self.va:#x}, "
            f"writable={self.writable})"
        )


class PteTable:
    """Per-blade, per-domain page table plus TLB shootdown cost model.

    Keyed by page: ``_pages`` maps a page va to the first domain's entry,
    and further domains' entries of that page hang off its ``next`` chain.
    """

    #: base cost of one synchronous shootdown (inter-processor interrupts,
    #: waiting for all cores to ACK); matches the "several microseconds"
    #: of Section 7.2.
    SHOOTDOWN_BASE_US = 3.0
    #: incremental cost per additional unmapped page in the same batch.
    SHOOTDOWN_PER_PAGE_US = 0.15

    def __init__(self) -> None:
        self._pages: Dict[int, PageTableEntry] = {}
        self._count = 0
        self.shootdowns = 0
        self.pages_shot_down = 0

    def __len__(self) -> int:
        return self._count

    def __contains__(self, va: int) -> bool:
        """True if *any* domain maps the page."""
        return align_down(int(va), PAGE_SIZE) in self._pages

    def map_page(self, va: int, writable: bool, pdid: int = 0) -> None:
        """Map the page for ``pdid``, replacing that domain's old entry."""
        page_va = align_down(int(va), PAGE_SIZE)
        new = PageTableEntry(pdid, page_va, writable)
        prev: Optional[PageTableEntry] = None
        cur = self._pages.get(page_va)
        while cur is not None and cur.pdid != pdid:
            prev, cur = cur, cur.next
        if cur is None:
            self._count += 1
        else:
            new.next = cur.next
        if prev is None:
            self._pages[page_va] = new
        else:
            prev.next = new

    def entry(self, va: int, pdid: int = 0) -> Optional[PageTableEntry]:
        e = self._pages.get(align_down(int(va), PAGE_SIZE))
        while e is not None and e.pdid != pdid:
            e = e.next
        return e

    def unmap_page(self, va: int) -> bool:
        """Remove every domain's mapping of the page (cache drop path)."""
        e = self._pages.pop(align_down(int(va), PAGE_SIZE), None)
        if e is None:
            return False
        while e is not None:
            self._count -= 1
            e = e.next
        return True

    def _heads_in(self, base: int, size: int) -> List[Tuple[int, PageTableEntry]]:
        """``(page va, chain head)`` of every mapped page in the range."""
        return [(va, e) for va, e in self._pages.items() if base <= va < base + size]

    def unmap_domain_range(self, pdid: int, base: int, size: int) -> int:
        """Remove one domain's PTEs in a VA range (permission revocation).

        Other domains' mappings of the same pages are untouched.  Returns
        the number of PTEs removed.
        """
        removed = 0
        for va, head in self._heads_in(base, size):
            prev: Optional[PageTableEntry] = None
            cur: Optional[PageTableEntry] = head
            while cur is not None and cur.pdid != pdid:
                prev, cur = cur, cur.next
            if cur is None:
                continue
            if prev is not None:
                prev.next = cur.next
            elif cur.next is not None:
                self._pages[va] = cur.next
            else:
                del self._pages[va]
            removed += 1
        self._count -= removed
        return removed

    def entries_in(self, base: int, size: int) -> List[PageTableEntry]:
        out = []
        for _va, e in self._heads_in(base, size):
            while e is not None:
                out.append(e)
                e = e.next
        return out

    def pages_in(self, base: int, size: int) -> List[int]:
        return [va for va, _e in self._heads_in(base, size)]

    def shootdown_region(
        self, base: int, size: int, downgrade_to_shared: bool
    ) -> float:
        """Unmap (or write-protect) the region's PTEs; returns the
        synchronous shootdown cost in microseconds (0 if nothing mapped)."""
        count = 0
        if downgrade_to_shared:
            for _va, e in self._heads_in(base, size):
                while e is not None:
                    if e.writable:
                        e.writable = False
                        count += 1
                    e = e.next
        else:
            for va, e in self._heads_in(base, size):
                del self._pages[va]
                while e is not None:
                    count += 1
                    e = e.next
            self._count -= count
        if count == 0:
            return 0.0
        self.shootdowns += 1
        self.pages_shot_down += count
        return self.SHOOTDOWN_BASE_US + self.SHOOTDOWN_PER_PAGE_US * (count - 1)
