"""Unit tests for domain-based memory protection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protection import KEY_WIDTH, PDID_WIDTH, ProtectionTable, pack_key
from repro.core.vma import PermissionClass, Vma
from repro.switchsim.packets import AccessType, PacketVerdict
from repro.switchsim.tcam import Tcam, TcamFullError, VA_WIDTH

RW = PermissionClass.READ_WRITE
RO = PermissionClass.READ_ONLY
PAGE = 0x1000


@pytest.fixture
def table():
    return ProtectionTable(Tcam(256))


def grant(table, pdid, base, length, perm=RW):
    return table.grant(pdid, Vma(base, length, pdid, perm), perm)


class TestPackKey:
    def test_pdid_in_high_bits(self):
        key = pack_key(3, 0x1234)
        assert key >> VA_WIDTH == 3
        assert key & ((1 << VA_WIDTH) - 1) == 0x1234

    def test_bounds(self):
        with pytest.raises(ValueError):
            pack_key(1 << PDID_WIDTH, 0)
        with pytest.raises(ValueError):
            pack_key(0, 1 << VA_WIDTH)


class TestGrantCheck:
    def test_allow_within_vma(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        assert table.check(1, 0x10800, AccessType.READ) is PacketVerdict.ALLOW
        assert table.check(1, 0x10800, AccessType.WRITE) is PacketVerdict.ALLOW

    def test_reject_outside_vma(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        assert (
            table.check(1, 0x11000, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )

    def test_reject_other_domain(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        assert (
            table.check(2, 0x10000, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )

    def test_read_only_rejects_write(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000, perm=RO)
        assert table.check(1, 0x10000, AccessType.READ) is PacketVerdict.ALLOW
        assert (
            table.check(1, 0x10000, AccessType.WRITE)
            is PacketVerdict.REJECT_PERMISSION
        )

    def test_none_rejects_everything(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000, perm=PermissionClass.NONE)
        assert (
            table.check(1, 0x10000, AccessType.READ)
            is PacketVerdict.REJECT_PERMISSION
        )

    def test_pow2_vma_is_single_entry(self, table):
        n = grant(table, pdid=1, base=0x10000, length=0x10000)
        assert n == 1

    def test_arbitrary_vma_splits_bounded(self, table):
        import math

        length = 0x7000  # not a power of two
        n = grant(table, pdid=1, base=0x10000, length=length)
        assert n <= 2 * math.ceil(math.log2(length))
        # Every page of the vma is still covered.
        for off in range(0, length, 0x1000):
            assert table.check(1, 0x10000 + off, AccessType.READ) is PacketVerdict.ALLOW

    def test_two_domains_same_region(self, table):
        """Capability-style: one vma shared read-write/read-only."""
        grant(table, pdid=1, base=0x10000, length=0x1000, perm=RW)
        table.grant(2, Vma(0x10000, 0x1000, 2, RO), RO)
        assert table.check(1, 0x10000, AccessType.WRITE) is PacketVerdict.ALLOW
        assert (
            table.check(2, 0x10000, AccessType.WRITE)
            is PacketVerdict.REJECT_PERMISSION
        )
        assert table.check(2, 0x10000, AccessType.READ) is PacketVerdict.ALLOW

    def test_duplicate_grant_rejected(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        with pytest.raises(ValueError):
            grant(table, pdid=1, base=0x10000, length=0x1000)


class TestRevokeChange:
    def test_revoke_removes_access(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        table.revoke(1, 0x10000)
        assert (
            table.check(1, 0x10000, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )
        assert len(table) == 0

    def test_revoke_unknown_rejected(self, table):
        with pytest.raises(KeyError):
            table.revoke(1, 0x999)

    def test_revoke_only_named_domain(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        table.grant(2, Vma(0x10000, 0x1000, 2, RO), RO)
        table.revoke(2, 0x10000)
        assert table.check(1, 0x10000, AccessType.READ) is PacketVerdict.ALLOW
        assert (
            table.check(2, 0x10000, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )

    def test_change_permission(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000, perm=RW)
        table.change(1, Vma(0x10000, 0x1000, 1, RO), RO)
        assert (
            table.check(1, 0x10000, AccessType.WRITE)
            is PacketVerdict.REJECT_PERMISSION
        )


class TestCoalescing:
    def test_adjacent_same_domain_same_perm_coalesce(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        grant(table, pdid=1, base=0x11000, length=0x1000)
        # Buddies with equal <pdid, perm> merge into one entry.
        assert len(table) == 1
        assert table.check(1, 0x11800, AccessType.WRITE) is PacketVerdict.ALLOW

    def test_four_pages_merge_to_one_entry(self, table):
        for page in range(4):
            grant(table, pdid=1, base=page * PAGE, length=PAGE)
        assert len(table) == 1
        assert table.check(1, 4 * PAGE - 1, AccessType.WRITE) is PacketVerdict.ALLOW

    def test_adjacent_non_buddy_pages_stay_two_entries(self, table):
        # Pages 1 and 2 touch, but page 1's buddy is page 0.
        grant(table, pdid=1, base=PAGE, length=PAGE)
        grant(table, pdid=1, base=2 * PAGE, length=PAGE)
        assert len(table) == 2

    def test_different_perms_do_not_coalesce(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000, perm=RW)
        grant(table, pdid=1, base=0x11000, length=0x1000, perm=RO)
        assert len(table) == 2

    def test_different_domains_do_not_coalesce(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        grant(table, pdid=2, base=0x11000, length=0x1000)
        assert len(table) == 2

    def test_revoke_after_coalesce_removes_coverage(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        grant(table, pdid=1, base=0x11000, length=0x1000)
        table.revoke(1, 0x10000)
        # The merged entry covered both grants; revoking the first removes
        # it (the control plane re-grants survivors in practice).
        assert (
            table.check(1, 0x10000, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )


class TestAccounting:
    def test_check_and_rejection_counters(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        table.check(1, 0x10000, AccessType.READ)
        table.check(1, 0x99000, AccessType.READ)
        assert table.checks == 2
        assert table.rejections == 1

    def test_capacity_pressure_raises(self):
        table = ProtectionTable(Tcam(2))
        table.grant(1, Vma(0x0, 0x1000, 1, RW), RW)
        table.grant(2, Vma(0x1000, 0x1000, 2, RW), RW)
        with pytest.raises(TcamFullError):
            table.grant(3, Vma(0x2000, 0x1000, 3, RW), RW)


class TestCapacity:
    """Capacity is judged on the compiled domain, and a change that does not
    fit leaves the grants, the entries and every check as they were."""

    @staticmethod
    def table_with(capacity, pdid2_entries):
        """pdid 1 holds pages 0-3 (one merged entry); pdid 2 holds
        ``pdid2_entries`` separate pages far away."""
        table = ProtectionTable(Tcam(capacity))
        for page in range(4):
            grant(table, 1, page * PAGE, PAGE)
        for i in range(pdid2_entries):
            grant(table, 2, (16 + 2 * i) * PAGE, PAGE)
        assert len(table) == 1 + pdid2_entries
        return table

    @staticmethod
    def state(table):
        verdicts = [
            table.check(pdid, page * PAGE, access)
            for pdid in (1, 2)
            for page in range(24)
            for access in (AccessType.READ, AccessType.WRITE)
        ]
        return table.grants(), list(table.tcam), verdicts

    def test_grant_next_to_merged_block_keeps_coverage(self):
        table = self.table_with(4, pdid2_entries=1)
        assert grant(table, 1, 4 * PAGE, PAGE) == 2
        for page in range(5):
            assert table.check(1, page * PAGE, AccessType.WRITE) is PacketVerdict.ALLOW

    def test_revoke_that_fits_succeeds(self):
        table = self.table_with(4, pdid2_entries=2)
        table.revoke(1, 3 * PAGE)
        assert len(table) == 4
        for page in range(3):
            assert table.check(1, page * PAGE, AccessType.READ) is PacketVerdict.ALLOW
        assert table.check(1, 3 * PAGE, AccessType.READ) is PacketVerdict.REJECT_NO_ENTRY
        for page in (16, 18):
            assert table.check(2, page * PAGE, AccessType.READ) is PacketVerdict.ALLOW

    def test_grant_whose_merged_set_fits_succeeds(self):
        table = ProtectionTable(Tcam(2))
        grant(table, 2, 16 * PAGE, PAGE)
        grant(table, 1, 0, PAGE)
        # Uncoalesced, pages 0 and 1 need two entries and one is free.
        assert grant(table, 1, PAGE, PAGE) == 1
        assert table.check(1, PAGE, AccessType.WRITE) is PacketVerdict.ALLOW

    def test_grant_that_does_not_fit_changes_nothing(self):
        table = self.table_with(4, pdid2_entries=3)
        before = self.state(table)
        with pytest.raises(TcamFullError):
            grant(table, 1, 4 * PAGE, PAGE)
        assert self.state(table) == before

    def test_revoke_that_splits_past_capacity_changes_nothing(self):
        table = self.table_with(4, pdid2_entries=3)
        before = self.state(table)
        with pytest.raises(TcamFullError):
            table.revoke(1, PAGE)
        assert self.state(table) == before


WINDOW = 32  # pages


@st.composite
def domain_grants(draw):
    """Disjoint page runs per domain: ``{pdid: [(first, pages, perm)]}``."""
    grants = {}
    for pdid in range(1, draw(st.integers(1, 3)) + 1):
        cuts = draw(st.sets(st.integers(1, WINDOW - 1), max_size=10))
        edges = [0, *sorted(cuts), WINDOW]
        runs = []
        for first, end in zip(edges, edges[1:]):
            perm = draw(st.sampled_from([None, RW, RO]))
            if perm is not None:
                runs.append((first, end - first, perm))
        grants[pdid] = runs
    return grants


class TestCompileProperty:
    @given(grants=domain_grants(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_compiled_entries_are_the_unique_merge_fixpoint(self, grants, data):
        table = ProtectionTable(Tcam(4096))
        live = {}
        for pdid, runs in grants.items():
            for first, pages, perm in runs:
                grant(table, pdid, first * PAGE, pages * PAGE, perm)
                live[(pdid, first)] = (pages, perm)
        revoked = data.draw(st.sets(st.sampled_from(sorted(live)))) if live else set()
        for pdid, first in sorted(revoked):
            table.revoke(pdid, first * PAGE)
            del live[(pdid, first)]

        covering = {}
        for (pdid, first), (pages, perm) in live.items():
            for page in range(first, first + pages):
                covering[(pdid, page)] = perm
        for pdid in range(1, 4):
            for page in range(WINDOW + 1):
                perm = covering.get((pdid, page))
                va = page * PAGE + 0x800
                read = table.check(pdid, va, AccessType.READ)
                write = table.check(pdid, va, AccessType.WRITE)
                if perm is None:
                    assert read is write is PacketVerdict.REJECT_NO_ENTRY
                else:
                    assert read is PacketVerdict.ALLOW
                    assert write is (
                        PacketVerdict.ALLOW if perm is RW
                        else PacketVerdict.REJECT_PERMISSION
                    )

        full = (1 << KEY_WIDTH) - 1
        for pdid in range(1, 4):
            blocks = sorted(
                (e.value, (~e.mask & full) + 1, e.data)
                for e in table.tcam
                if e.data[0] == pdid
            )
            for (base, size, _), (next_base, _, _) in zip(blocks, blocks[1:]):
                assert base + size <= next_base, "entries overlap"
            present = set(blocks)
            for base, size, payload in blocks:
                assert (base ^ size, size, payload) not in present, "unmerged buddies"
