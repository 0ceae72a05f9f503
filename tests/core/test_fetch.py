"""DataPath unit tests: flush/fetch ordering and the async write-back map.

The regression class at the bottom pins the fail-over interaction fixed in
this revision: a ``flush_page_async`` completion callback must not remove
the pending-flush entry while the protocol is gated by ``begin_outage`` --
the fail-over quiesce re-flushes dirty pages and synchronizes on that map.
"""

from repro.core.fetch import ACK_TIMEOUT_US, MAX_RETRIES, backoff_us
from repro.sim.network import PAGE_SIZE

from conftest import small_cluster


def setup_proc(cluster, length=1 << 16):
    ctl = cluster.controller
    task = ctl.sys_exec("t")
    return task.pid, ctl.sys_mmap(task.pid, length)


class TestBackoff:
    def test_schedule_is_exponential_and_capped(self):
        schedule = [backoff_us(k) for k in range(6)]
        assert schedule == [100.0, 200.0, 400.0, 800.0, 800.0, 800.0]
        # DataPath.send counts attempts without bound; the clamp keeps
        # 2.0 ** attempt from ever overflowing.
        assert backoff_us(10_000) == 800.0

    def test_timeout_grows_per_attempt(self):
        assert backoff_us(0) == ACK_TIMEOUT_US
        assert backoff_us(1) == 2 * ACK_TIMEOUT_US
        assert backoff_us(2) == 4 * ACK_TIMEOUT_US
        assert backoff_us(MAX_RETRIES) == 8 * ACK_TIMEOUT_US


class TestFlushFetchOrdering:
    def test_fetch_waits_for_inflight_flush(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        fresh = bytes([7]) * PAGE_SIZE
        coherence.flush_page_async(port0, base, fresh)
        # A read fault racing the flush must be served *after* it lands.
        cluster.run_process(
            cluster.compute_blades[1].ensure_page(pid, base, write=False)
        )
        page = cluster.compute_blades[1].cache.peek(base)
        assert bytes(page.data) == fresh

    def test_entry_cleared_after_landing(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        landed = coherence.flush_page_async(port0, base, b"\0" * PAGE_SIZE)
        assert base in coherence.pending_flushes
        cluster.engine.run()
        assert landed.triggered
        assert base not in coherence.pending_flushes

    def test_drain_writebacks_waits_all(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        events = [
            coherence.flush_page_async(
                port0, base + i * PAGE_SIZE, b"\0" * PAGE_SIZE
            )
            for i in range(3)
        ]
        cluster.run_process(coherence.drain_writebacks())
        assert all(ev.triggered for ev in events)

    def test_drain_writebacks_range_filtered(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        inside = coherence.flush_page_async(port0, base, b"\0" * PAGE_SIZE)
        coherence.flush_page_async(
            port0, base + 64 * PAGE_SIZE, b"\0" * PAGE_SIZE
        )
        cluster.run_process(coherence.drain_writebacks(base, PAGE_SIZE))
        assert inside.triggered


class TestOutageRace:
    """Regression: flush completion racing ``begin_outage``."""

    def test_completion_during_outage_keeps_entry(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        landed = coherence.flush_page_async(port0, base, b"\1" * PAGE_SIZE)
        # The primary crashes while the flush is in flight.
        coherence.begin_outage()
        cluster.engine.run()
        # The payload landed, but the map entry must survive the outage:
        # the fail-over quiesce synchronizes on it.
        assert landed.triggered
        assert coherence.pending_flushes.get(base) is landed

    def test_requiesce_after_outage_clears_entry(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        coherence.flush_page_async(port0, base, b"\1" * PAGE_SIZE)
        coherence.begin_outage()
        cluster.engine.run()
        coherence.end_outage()
        # The recovery path re-flushes against the rebuilt plane; the fresh
        # entry replaces the stale one and clears normally.
        refreshed = coherence.flush_page_async(port0, base, b"\2" * PAGE_SIZE)
        cluster.engine.run()
        assert refreshed.triggered
        assert base not in coherence.pending_flushes

    def test_normal_path_unaffected(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        coherence.flush_page_async(port0, base, b"\1" * PAGE_SIZE)
        cluster.engine.run()
        assert base not in coherence.pending_flushes
