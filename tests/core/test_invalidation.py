"""InvalidationEngine unit tests: builders, transport retries, reset, and
the unicast-cpu ablation's serialization cost."""

from repro.core.directory import CoherenceState

from conftest import arm_packet_loss, packets_dropped, small_cluster

I, S, M = CoherenceState.INVALID, CoherenceState.SHARED, CoherenceState.MODIFIED


def setup_proc(cluster, length=1 << 16):
    ctl = cluster.controller
    task = ctl.sys_exec("t")
    return task.pid, ctl.sys_mmap(task.pid, length)


def touch(cluster, blade_idx, pid, va, write):
    blade = cluster.compute_blades[blade_idx]
    return cluster.run_process(blade.ensure_page(pid, va, write))


class TestBuilders:
    def test_make_inval_aligns_target_page(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        region = cluster.mmu.directory.find(base)

        class Req:
            src_port = 5
            va = base + 123  # unaligned offset into the page

        inval = cluster.mmu.coherence.invalidation.make_inval(
            region, Req, [1, 2], downgrade=True
        )
        assert inval.region_base == region.base
        assert inval.sharers == frozenset({1, 2})
        assert inval.target_va == base  # aligned down to the page
        assert inval.downgrade_to_shared

    def test_make_eviction_inval_marks_collateral(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        region = cluster.mmu.directory.find(base)
        inval = cluster.mmu.coherence.invalidation.make_eviction_inval(region, [1])
        assert inval.requester_port == -1
        assert inval.target_va == -1  # every page is collateral


class TestRetryAndReset:
    """Link-level loss on the invalidation target's port: its
    ``from_switch`` link carries the invalidation, ``to_switch`` the ACK.
    Loss seed 1 drops the first three attempts, short of a reset."""

    def test_dropped_invalidation_retried_to_completion(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        links = arm_packet_loss(cluster, "compute0", "from_switch", 0.5, seed=1)
        touch(cluster, 1, pid, base, write=True)
        assert packets_dropped(links) > 0
        assert cluster.stats.counter("retransmissions") > 0
        # Despite the loss, the write completed with a coherent directory.
        region = cluster.mmu.directory.find(base)
        assert region.state is M
        assert region.owner == cluster.compute_blades[1].port.port_id

    def test_dropped_acks_retried_idempotently(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        links = arm_packet_loss(cluster, "compute0", "to_switch", 0.5, seed=1)
        touch(cluster, 1, pid, base, write=True)
        assert packets_dropped(links) > 0
        assert cluster.stats.counter("retransmissions") > 0
        region = cluster.mmu.directory.find(base)
        assert region.state is M

    def test_persistent_loss_triggers_reset(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        b0, b1 = cluster.compute_blades
        cluster.run_process(b0.store_bytes(pid, base, b"old"))
        # Longer than the 1,500 us the four invalidation attempts wait
        # out; the reset's own legs land once the window closes.
        links = arm_packet_loss(
            cluster, "compute0", "from_switch", 1.0, duration_us=3_000
        )
        cluster.run_process(b1.store_bytes(pid, base, b"new"))
        assert packets_dropped(links) >= 4
        assert cluster.stats.counter("resets") >= 1
        # The reset dropped the region's directory entry mid-transaction;
        # the writer re-issued its fault, so the directory tracks its copy
        # and the other blade reads the new bytes, not a stale page.
        assert cluster.stats.counter("faults_reissued") >= 1
        region = cluster.mmu.directory.find(base)
        assert region.state is M
        assert region.owner == b1.port.port_id
        assert cluster.run_process(b0.load_bytes(pid, base, 3)) == b"new"


class TestUnicastAblation:
    def test_unicast_serializes_on_switch_cpu(self):
        mc = small_cluster(num_compute=3)
        uc = small_cluster(num_compute=3, invalidation_mode="unicast-cpu")
        for cluster in (mc, uc):
            pid, base = setup_proc(cluster)
            touch(cluster, 0, pid, base, write=False)
            touch(cluster, 1, pid, base, write=False)
            touch(cluster, 2, pid, base, write=True)
        assert uc.stats.counter("unicast_invalidations_generated") == 2
        assert mc.stats.counter("unicast_invalidations_generated") == 0
        # Per-packet CPU generation is what makes software fan-out slow.
        assert uc.mmu.control_cpu.busy_us > mc.mmu.control_cpu.busy_us
