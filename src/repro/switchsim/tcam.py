"""Ternary content-addressable memory (TCAM) model.

The Tofino's TCAM gives MIND two primitives it leans on heavily:

- **Longest-prefix match** over a packet field, used for address translation
  with *outlier* entries: the most specific entry wins, so a migrated-page
  entry shadows the blade-level range entry that contains it (Section 4.1).
- **Parallel range matching**, used for the ``<PDID, vma> -> PC`` protection
  table (Section 4.2).  A TCAM entry can only match a power-of-two aligned
  range, so arbitrary vmas are decomposed into at most ``2 * ceil(log2 s)``
  entries by :func:`split_range_to_pow2`, and :meth:`Tcam.coalesce`
  installs each protection domain's entries in one pass.

Capacity is enforced: the paper reports ~45 k match-action rules as the
switch limit; callers configure their table budgets and inserting past a
budget raises :class:`TcamFullError`, which upper layers must handle (that
pressure is what drives the Fig. 8/9 results).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

#: Virtual addresses are 48-bit, as on x86-64.
VA_WIDTH = 48


class TcamFullError(RuntimeError):
    """Raised when inserting into a TCAM table that is at capacity."""


@dataclass(frozen=True)
class TcamEntry:
    """One ternary entry: matches ``key`` iff ``(key & mask) == value``."""

    value: int
    mask: int
    priority: int
    data: Any

    def matches(self, key: int) -> bool:
        return (key & self.mask) == self.value


def prefix_mask(prefix_len: int, width: int = VA_WIDTH) -> int:
    """Mask selecting the top ``prefix_len`` bits of a ``width``-bit field."""
    if not 0 <= prefix_len <= width:
        raise ValueError(f"prefix length {prefix_len} out of range for width {width}")
    if prefix_len == 0:
        return 0
    return ((1 << prefix_len) - 1) << (width - prefix_len)


def split_range_to_pow2(base: int, length: int) -> List[Tuple[int, int]]:
    """Decompose ``[base, base+length)`` into power-of-two aligned blocks.

    This is the classical route-aggregation decomposition: repeatedly take
    the largest power-of-two block that is aligned at the current base and
    fits in the remaining length.  For a range of size ``s`` the result has
    at most ``2 * ceil(log2 s)`` blocks (and exactly one when the range is a
    naturally aligned power of two, which MIND's allocator guarantees for
    its own allocations).
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if base < 0:
        raise ValueError("base must be non-negative")
    blocks: List[Tuple[int, int]] = []
    cur, remaining = base, length
    while remaining > 0:
        align = cur & -cur if cur > 0 else 1 << remaining.bit_length()
        size = min(align, 1 << (remaining.bit_length() - 1))
        blocks.append((cur, size))
        cur += size
        remaining -= size
    return blocks


def block_to_prefix(base: int, size: int, width: int = VA_WIDTH) -> Tuple[int, int]:
    """Convert an aligned power-of-two block into a (value, mask) prefix."""
    if size <= 0 or size & (size - 1):
        raise ValueError(f"size {size} is not a power of two")
    if base % size:
        raise ValueError(f"base {base:#x} is not aligned to size {size:#x}")
    prefix_len = width - (size.bit_length() - 1)
    mask = prefix_mask(prefix_len, width)
    return base & mask, mask


class Tcam:
    """A priority-ordered ternary match table with bounded capacity.

    Lookup returns the matching entry with the highest priority (for prefix
    entries, priority is the prefix length, giving LPM semantics).  Ties are
    broken by most-recent insertion, matching how rule updates shadow stale
    rules in real switches.
    """

    def __init__(self, capacity: int, name: str = "tcam"):
        if capacity < 1:
            raise ValueError("TCAM capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._entries: List[TcamEntry] = []
        self.lookups = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TcamEntry]:
        return iter(self._entries)

    @property
    def free(self) -> int:
        return self.capacity - len(self._entries)

    def insert(self, value: int, mask: int, priority: int, data: Any) -> TcamEntry:
        if len(self._entries) >= self.capacity:
            raise TcamFullError(
                f"{self.name}: capacity {self.capacity} exhausted"
            )
        if value & ~mask:
            raise ValueError("entry value has bits outside its mask")
        entry = TcamEntry(value, mask, priority, data)
        self._entries.append(entry)
        return entry

    def insert_prefix(
        self, base: int, size: int, data: Any, width: int = VA_WIDTH
    ) -> TcamEntry:
        """Insert an aligned power-of-two range as a single prefix entry."""
        value, mask = block_to_prefix(base, size, width)
        prefix_len = width - (size.bit_length() - 1)
        return self.insert(value, mask, prefix_len, data)

    def coalesce(
        self,
        runs: Iterable[Tuple[int, int, Any]],
        replaces: Callable[[TcamEntry], bool],
        width: int = VA_WIDTH,
    ) -> int:
        """Install ``runs`` as coalesced prefix entries in place of the
        entries ``replaces`` selects (Section 4.2).

        ``runs`` are pairwise disjoint ``(base, length, data)`` ranges in
        base order.  Adjacent runs with equal data are joined into maximal
        spans, and each span is installed as its :func:`split_range_to_pow2`
        blocks.  That is the table that merging buddy entries with equal
        data until none are left would reach: the fixpoint is unique (the
        maximal aligned power-of-two blocks inside each same-data span), and
        the greedy split of a span is exactly that set.  So one pass builds
        it, and the table never holds an uncoalesced peak.

        All-or-nothing: if the result does not fit, :class:`TcamFullError`
        is raised and the table is unchanged.  Returns the number of entries
        installed.
        """
        spans: List[List[Any]] = []
        for base, length, data in runs:
            if spans and spans[-1][0] + spans[-1][1] == base and spans[-1][2] == data:
                spans[-1][1] += length
            else:
                spans.append([base, length, data])
        blocks = [
            (block, size, data)
            for base, length, data in spans
            for block, size in split_range_to_pow2(base, length)
        ]
        kept = [e for e in self._entries if not replaces(e)]
        if len(kept) + len(blocks) > self.capacity:
            raise TcamFullError(
                f"{self.name}: needs {len(blocks)} entries, "
                f"{self.capacity - len(kept)} free"
            )
        self._entries = kept
        for block, size, data in blocks:
            self.insert_prefix(block, size, data, width)
        return len(blocks)

    def remove(self, entry: TcamEntry) -> None:
        self._entries.remove(entry)

    def lookup(self, key: int) -> Optional[TcamEntry]:
        """Highest-priority match for ``key`` (LPM for prefix entries)."""
        self.lookups += 1
        best: Optional[TcamEntry] = None
        for entry in self._entries:
            if entry.matches(key) and (best is None or entry.priority >= best.priority):
                best = entry
        return best
