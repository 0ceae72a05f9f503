"""Domain-based memory protection (Section 4.2).

Protection is decoupled from translation: a separate data-plane table maps
``<PDID, vma> -> permission class``, checked in parallel with the rest of
the pipeline via TCAM range matches.  Protection domains (PDIDs) identify
*who* may touch a region -- the PID for unmodified applications, or
finer-grained domains (e.g. one per client session) for capability-style
use.  Because TCAM entries can only match power-of-two ranges, arbitrary
vmas are decomposed into at most ``2 * ceil(log2 s)`` prefix entries, and
adjacent entries with the same ``<PDID, PC>`` are coalesced.

The TCAM key packs the PDID in the high bits above the 48-bit VA so one
ternary match covers both fields, as the switch's parallel range match does.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..switchsim.packets import AccessType, PacketVerdict
from ..switchsim.tcam import Tcam, TcamFullError, VA_WIDTH
from .vma import PermissionClass, Vma

#: Width of the PDID field packed above the VA in the TCAM key.
PDID_WIDTH = 16
KEY_WIDTH = VA_WIDTH + PDID_WIDTH


def pack_key(pdid: int, va: int) -> int:
    """Pack ``(pdid, va)`` into a single TCAM key."""
    pdid, va = int(pdid), int(va)  # tolerate numpy integer inputs
    if not 0 <= pdid < (1 << PDID_WIDTH):
        raise ValueError(f"pdid {pdid} does not fit in {PDID_WIDTH} bits")
    if not 0 <= va < (1 << VA_WIDTH):
        raise ValueError(f"va {va:#x} does not fit in {VA_WIDTH} bits")
    return (pdid << VA_WIDTH) | va


class ProtectionTable:
    """The ``<PDID, vma> -> PC`` table in switch TCAM.

    The control plane keeps the authoritative ``<pdid, vma> -> perm`` map;
    the TCAM holds its compiled form (power-of-two prefixes, buddies with
    equal payloads coalesced).  Rule changes recompile the affected domain,
    which keeps revocation correct even when a coalesced entry spanned
    several vmas.  vma counts are small in practice (Section 7.2), so
    recompiling a domain is a handful of PCIe rule updates.  A change whose
    compiled domain does not fit raises :class:`TcamFullError` and leaves
    the grants and the TCAM as they were.
    """

    def __init__(self, tcam: Tcam):
        self.tcam = tcam
        # (pdid, vma.base) -> (vma, perm): the authoritative grants.
        self._grants: Dict[Tuple[int, int], Tuple[Vma, PermissionClass]] = {}
        self.checks = 0
        self.rejections = 0

    def __len__(self) -> int:
        return len(self.tcam)

    # -- rule management (control plane) -----------------------------------

    def grant(self, pdid: int, vma: Vma, perm: PermissionClass) -> int:
        """Install permission entries for ``<pdid, vma>``.

        Returns the number of TCAM entries now covering this domain.
        """
        key = (pdid, vma.base)
        if key in self._grants:
            raise ValueError(
                f"protection for pdid={pdid} vma@{vma.base:#x} already granted"
            )
        self._grants[key] = (vma, perm)
        try:
            return self._compile(pdid)
        except TcamFullError:
            del self._grants[key]
            raise

    def grants(self) -> List[Tuple[int, Vma, PermissionClass]]:
        """The authoritative grant list, sorted: ``(pdid, vma, perm)``.

        Includes both owner grants (installed by ``mmap``) and
        capability-style domain grants (``grant_domain``) -- this is what
        fail-over must replicate, not just the per-task vma lists.
        """
        return [
            (pdid, vma, perm)
            for (pdid, _base), (vma, perm) in sorted(self._grants.items())
        ]

    def revoke(self, pdid: int, vma_base: int) -> None:
        """Remove the grant for ``<pdid, vma>`` (munmap path)."""
        key = (pdid, vma_base)
        revoked = self._grants.pop(key, None)
        if revoked is None:
            raise KeyError(f"no protection entries for pdid={pdid} @ {vma_base:#x}")
        try:
            self._compile(pdid)
        except TcamFullError:
            # Revoking a page in the middle of a merged block splits it.
            self._grants[key] = revoked
            raise

    def change(self, pdid: int, vma: Vma, perm: PermissionClass) -> None:
        """mprotect: replace the grant with the new permission class."""
        self.revoke(pdid, vma.base)
        self.grant(pdid, vma, perm)

    def _compile(self, pdid: int) -> int:
        """Install one protection domain's compiled entries; returns their count.

        A domain's grants are disjoint, because vmas share one global VA
        space, so in base order they are the disjoint runs
        :meth:`Tcam.coalesce` merges and splits in one pass.  The TCAM key
        carries the PDID above the VA, so a run's key range is contiguous.
        """
        runs = [
            (pack_key(pdid, vma.base), vma.length, (pdid, perm))
            for (g_pdid, _base), (vma, perm) in sorted(self._grants.items())
            if g_pdid == pdid
        ]
        return self.tcam.coalesce(
            runs, lambda e: e.data[0] == pdid, width=KEY_WIDTH
        )

    # -- data-plane check ---------------------------------------------------

    def check(self, pdid: int, va: int, access: AccessType) -> PacketVerdict:
        """The per-request protection check performed in the data plane."""
        self.checks += 1
        entry = self.tcam.lookup(pack_key(pdid, va))
        if entry is None:
            self.rejections += 1
            return PacketVerdict.REJECT_NO_ENTRY
        _pdid, perm = entry.data
        allowed = perm.allows_write() if access.is_write else perm.allows_read()
        if not allowed:
            self.rejections += 1
            return PacketVerdict.REJECT_PERMISSION
        return PacketVerdict.ALLOW
