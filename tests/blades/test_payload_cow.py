"""Copy-on-write page payloads in the compute-blade cache.

A cached payload is immutable ``bytes`` -- possibly shared with other
caches and the memory blades -- until the first mutation gives the page a
private ``bytearray``.  These are the unit-level rules; the end-to-end
isolation checks live in ``tests/core/test_payload_cow.py``.
"""

import pytest

from repro.blades.cache import PageCache
from repro.blades.memory import ZERO_PAGE
from repro.sim.network import PAGE_SIZE


@pytest.fixture
def cache():
    return PageCache(capacity_pages=8)


class TestInsert:
    def test_bytes_are_stored_without_a_copy(self, cache):
        buf = b"a" * PAGE_SIZE
        cache.insert(0x1000, buf, writable=False)
        assert cache.peek(0x1000).payload is buf

    def test_mutable_input_is_copied_to_bytes(self, cache):
        buf = bytearray(b"a" * PAGE_SIZE)
        cache.insert(0x1000, buf, writable=True)
        payload = cache.peek(0x1000).payload
        assert type(payload) is bytes
        buf[0] = ord("z")
        assert payload[0] == ord("a")

    def test_refill_replaces_payload_with_shared_bytes(self, cache):
        cache.insert(0x1000, ZERO_PAGE, writable=False)
        fresh = b"b" * PAGE_SIZE
        cache.insert(0x1000, fresh, writable=True)
        assert cache.peek(0x1000).payload is fresh


class TestMaterialise:
    def test_data_copies_once_and_keeps_the_source_intact(self, cache):
        cache.insert(0x1000, ZERO_PAGE, writable=True)
        page = cache.peek(0x1000)
        buf = page.data
        assert type(buf) is bytearray
        assert page.data is buf  # materialised once, then reused
        buf[0] = 1
        assert ZERO_PAGE == bytes(PAGE_SIZE)

    def test_share_freezes_a_private_buffer(self, cache):
        cache.insert(0x1000, ZERO_PAGE, writable=True)
        page = cache.peek(0x1000)
        page.data[0] = 7
        frozen = page.share()
        assert type(frozen) is bytes and frozen[0] == 7
        assert page.payload is frozen
        # The next mutation copies again; the handed-out snapshot stays.
        page.data[0] = 9
        assert frozen[0] == 7

    def test_share_of_an_unmodified_page_is_the_payload_itself(self, cache):
        cache.insert(0x1000, ZERO_PAGE, writable=False)
        assert cache.peek(0x1000).share() is ZERO_PAGE

    def test_disabled_payloads_stay_none(self, cache):
        cache.insert(0x1000, None, writable=True)
        page = cache.peek(0x1000)
        assert page.data is None and page.share() is None


class TestInvalidationCounts:
    def test_downgrade_counts_dirty_and_clean_pages_once(self, cache):
        for i in range(4):
            cache.insert(i * PAGE_SIZE, ZERO_PAGE, writable=True)
        cache.peek(0).dirty = True
        cache.peek(PAGE_SIZE).dirty = True
        outcome = cache.invalidate_region(0, 4 * PAGE_SIZE, True)
        assert [p.va for p in outcome.flushed] == [0, PAGE_SIZE]
        assert outcome.downgraded == 2
        assert outcome.pages_affected == 4
