"""Model-based test: ``PteTable`` against a ``{(pdid, va): writable}`` dict.

Random sequences of maps, remaps, page unmaps, domain revocations and
shootdowns run over a few domains that share a small set of pages, so
ranges both shorter and longer than the table occur and most
pages end up mapped by several domains.  After every step the
table must agree with the reference on lookups, sizes, range queries and
the shootdown accounting.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blades.tlb import PteTable
from repro.sim.network import PAGE_SIZE

DOMAINS = st.integers(0, 2)
PAGES = 6

page_vas = st.integers(0, PAGES - 1).map(lambda p: p * PAGE_SIZE)
#: ranges may start and end mid-page, and may run past the last page.
ranges = st.tuples(
    st.integers(0, PAGES * PAGE_SIZE), st.integers(0, (PAGES + 2) * PAGE_SIZE)
)

maps = st.tuples(st.just("map"), DOMAINS, page_vas, st.booleans())
ops = st.one_of(
    maps,
    maps,
    st.tuples(st.just("unmap"), page_vas.map(lambda va: va + 7)),
    st.tuples(st.just("revoke"), DOMAINS, ranges),
    st.tuples(st.just("shootdown"), ranges, st.booleans()),
)


class Reference:
    """The PTE table as a flat dict, with the same cost model."""

    def __init__(self):
        self.ptes = {}
        self.shootdowns = 0
        self.pages_shot_down = 0

    def keys_in(self, base, size):
        return [k for k in self.ptes if base <= k[1] < base + size]

    def unmap_page(self, va):
        page_va = va - va % PAGE_SIZE
        keys = [k for k in self.ptes if k[1] == page_va]
        for k in keys:
            del self.ptes[k]
        return bool(keys)

    def unmap_domain_range(self, pdid, base, size):
        keys = [k for k in self.keys_in(base, size) if k[0] == pdid]
        for k in keys:
            del self.ptes[k]
        return len(keys)

    def shootdown_region(self, base, size, downgrade):
        keys = self.keys_in(base, size)
        if not keys:
            return 0.0
        if downgrade:
            changed = [k for k in keys if self.ptes[k]]
            if not changed:
                return 0.0
            for k in changed:
                self.ptes[k] = False
            count = len(changed)
        else:
            for k in keys:
                del self.ptes[k]
            count = len(keys)
        self.shootdowns += 1
        self.pages_shot_down += count
        return PteTable.SHOOTDOWN_BASE_US + PteTable.SHOOTDOWN_PER_PAGE_US * (count - 1)


def snapshot(entries):
    return sorted((e.pdid, e.va, e.writable) for e in entries)


def assert_agrees(table, ref, base, size):
    assert len(table) == len(ref.ptes)
    for pdid in range(3):
        for page in range(PAGES):
            va = page * PAGE_SIZE
            entry = table.entry(va + 1, pdid)
            want = ref.ptes.get((pdid, va))
            if want is None:
                assert entry is None
            else:
                assert (entry.pdid, entry.va, entry.writable) == (pdid, va, want)
    for page in range(PAGES):
        va = page * PAGE_SIZE
        assert (va in table) == any(k[1] == va for k in ref.ptes)
    assert snapshot(table.entries_in(base, size)) == sorted(
        (pdid, va, ref.ptes[(pdid, va)]) for pdid, va in ref.keys_in(base, size)
    )
    assert sorted(table.pages_in(base, size)) == sorted(
        {va for _pdid, va in ref.keys_in(base, size)}
    )
    assert table.shootdowns == ref.shootdowns
    assert table.pages_shot_down == ref.pages_shot_down


@given(st.lists(ops, min_size=10, max_size=80), ranges)
@settings(max_examples=200, deadline=None)
def test_pte_table_matches_reference(steps, probe):
    table, ref = PteTable(), Reference()
    for step in steps:
        kind = step[0]
        if kind == "map":
            _, pdid, va, writable = step
            old = table.entry(va, pdid)
            table.map_page(va, writable=writable, pdid=pdid)
            ref.ptes[(pdid, va)] = writable
            # A remap installs a new entry object for that domain.
            assert table.entry(va, pdid) is not old
        elif kind == "unmap":
            assert table.unmap_page(step[1]) == ref.unmap_page(step[1])
        elif kind == "revoke":
            _, pdid, (base, size) = step
            assert table.unmap_domain_range(pdid, base, size) == (
                ref.unmap_domain_range(pdid, base, size)
            )
        else:
            _, (base, size), downgrade = step
            assert table.shootdown_region(base, size, downgrade) == (
                ref.shootdown_region(base, size, downgrade)
            )
        assert_agrees(table, ref, *probe)
