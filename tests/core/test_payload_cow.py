"""End-to-end copy-on-write isolation of page payloads.

Blades share immutable payload objects (a coalesced fetch hands every
reader the memory blade's page; a never-written page is ``ZERO_PAGE``)
and a store makes the writer's private copy.  Sharing must never let one
blade's write leak into another blade's copy or into memory before the
write-back carries it there.
"""

from repro.blades.memory import ZERO_PAGE
from repro.multirack import MultiRackConfig, MultiRackFabric
from repro.sim.network import PAGE_SIZE

from conftest import small_cluster


def setup_proc(cluster, length=1 << 16):
    ctl = cluster.controller
    task = ctl.sys_exec("t")
    return task.pid, ctl.sys_mmap(task.pid, length)


def memory_page(cluster, va):
    xlate = cluster.mmu.address_space.translate(va)
    blade = cluster.memory_blades[xlate.blade_id]
    return blade, xlate.pa


def coalesced_readers(cluster, pid, va):
    """Both blades read-fault ``va`` at the same instant (one fetch)."""
    for blade in cluster.compute_blades:
        cluster.engine.process(blade.ensure_page(pid, va, write=False))
    cluster.engine.run()
    assert cluster.stats.counter("coalesced_fetches") == 1


class TestSharedFetch:
    PATTERN = bytes(range(256)) * (PAGE_SIZE // 256)

    def make(self):
        cluster = small_cluster(num_compute=2)
        pid, base = setup_proc(cluster)
        mem, pa = memory_page(cluster, base)
        mem.write_page(pa, self.PATTERN)
        coalesced_readers(cluster, pid, base)
        return cluster, pid, base, mem, pa

    def test_coalesced_readers_share_the_memory_page(self):
        cluster, _pid, base, mem, pa = self.make()
        b0, b1 = cluster.compute_blades
        shared = b0.cache.peek(base).payload
        assert b1.cache.peek(base).payload is shared
        assert mem.read_page(pa) is shared

    def test_store_leaves_the_shared_copy_and_memory_unchanged(self):
        cluster, pid, base, mem, pa = self.make()
        b0, b1 = cluster.compute_blades
        shared = b1.cache.peek(base).payload
        cluster.run_process(b0.store_bytes(pid, base + 8, b"written!"))
        assert shared == self.PATTERN
        assert mem.read_page(pa) == self.PATTERN
        mine = b0.cache.peek(base).payload
        assert type(mine) is bytearray and mine[8:16] == b"written!"
        # The other blade's next read is coherent: it sees the write.
        got = cluster.run_process(b1.load_bytes(pid, base + 8, 8))
        assert got == b"written!"

    def test_local_mutation_does_not_reach_the_other_blade(self):
        cluster, pid, base, mem, pa = self.make()
        b0, b1 = cluster.compute_blades
        b0.cache.peek(base).data[:4] = b"\xff\xff\xff\xff"
        assert cluster.run_process(b1.load_bytes(pid, base, 4)) == self.PATTERN[:4]
        assert mem.read_page(pa) == self.PATTERN


class TestZeroPage:
    def test_never_written_page_keeps_zero_page_until_first_store(self):
        cluster = small_cluster(num_compute=1)
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        assert cluster.run_process(blade.load_bytes(pid, base, 16)) == bytes(16)
        assert blade.cache.peek(base).payload is ZERO_PAGE
        # A write fault alone does not copy: only the store's bytes do.
        cluster.run_process(blade.ensure_page(pid, base, write=True))
        assert blade.cache.peek(base).payload is ZERO_PAGE
        cluster.run_process(blade.store_bytes(pid, base, b"x"))
        assert blade.cache.peek(base).payload is not ZERO_PAGE
        assert ZERO_PAGE == bytes(PAGE_SIZE)


class TestWriteBack:
    def test_eviction_write_back_carries_the_written_bytes(self):
        cluster = small_cluster(num_compute=1, cache_pages=2)
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.store_bytes(pid, base + 100, b"dirty data"))
        for i in (1, 2):
            cluster.run_process(blade.ensure_page(pid, base + i * PAGE_SIZE, False))
        cluster.engine.run()
        assert blade.cache.peek(base) is None
        mem, pa = memory_page(cluster, base)
        page = mem.read_page(pa)
        assert page[100:110] == b"dirty data"
        assert page[:100] == bytes(100)

    def test_downgrade_write_back_shares_one_snapshot(self):
        cluster = small_cluster(num_compute=2)
        pid, base = setup_proc(cluster)
        b0, b1 = cluster.compute_blades
        cluster.run_process(b0.store_bytes(pid, base, b"v1"))
        # b1's read downgrades b0 (M->S) and flushes the page.
        assert cluster.run_process(b1.load_bytes(pid, base, 2)) == b"v1"
        cluster.engine.run()
        mem, pa = memory_page(cluster, base)
        snapshot = mem.read_page(pa)
        assert snapshot[:2] == b"v1"
        assert b0.cache.peek(base).payload is snapshot
        # Writing again makes a fresh private copy; memory keeps v1.
        cluster.run_process(b0.store_bytes(pid, base, b"v2"))
        assert snapshot[:2] == b"v1"
        assert mem.read_page(pa)[:2] == b"v1"
        assert cluster.run_process(b1.load_bytes(pid, base, 2)) == b"v2"


def test_multirack_payload_buffers_bounded_by_pages_written():
    """Distinct payload buffers across every cache grow with the pages
    written through the API, not with the pages cached."""
    fabric = MultiRackFabric(
        MultiRackConfig(num_racks=2, compute_blades_per_rack=2)
    )
    pdid = fabric.spawn_process("cow")
    bufs = [fabric.mmap(pdid, 32 * PAGE_SIZE, rack=r) for r in range(2)]
    blades = fabric.compute_blades
    written = set()
    for i, blade in enumerate(blades):
        va = bufs[i % 2] + i * PAGE_SIZE
        fabric.run_process(blade.store_bytes(pdid, va, bytes([i + 1]) * 64))
        written.add(va)
    # Every blade then reads and write-faults every page of both pools.
    for blade in blades:
        for base in bufs:
            for p in range(32):
                va = base + p * PAGE_SIZE
                fabric.run_process(blade.ensure_page(pdid, va, write=p % 3 == 0))
                fabric.run_process(blade.load_bytes(pdid, va, 1))
    fabric.engine.run()
    payloads = [
        page.payload
        for blade in blades
        for page in blade.cache.pages_in(0, 1 << 62)
    ]
    assert len(payloads) > 4 * len(written)
    distinct = {id(p) for p in payloads if p is not ZERO_PAGE}
    assert len(distinct) <= len(written)
