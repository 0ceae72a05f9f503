"""FastSwap baseline: swap-based disaggregated memory, single compute blade.

The paper's *non-transparent-elasticity* comparison point (Section 7):
FastSwap [12] exposes remote memory through the kernel swap path.  Page
faults fetch pages from memory blades over RDMA and evictions swap dirty
pages out asynchronously -- but there is **no sharing between compute
blades**: a process is confined to one blade, so FastSwap simply has no
data point beyond 10 threads in Fig. 5.

Without coherence there are no directory lookups, no recirculation and no
invalidations, so the fault path is marginally shorter than MIND's; both
scale near-linearly within a blade thanks to the hardware-MMU fault path.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, Optional, Tuple

from ..blades.cache import PageCache
from ..blades.memory import MemoryBlade
from ..core.vma import align_down
from ..sim.engine import Engine, Event
from ..sim.network import CONTROL_MSG_BYTES, Network, NetworkConfig, PAGE_SIZE, Port, wire
from ..sim.stats import RunResult, StatsCollector
from ..workloads.trace import AccessOrStream, AccessStream, TraceWorkload


class FastSwapSystem:
    """A single compute blade swapping against memory blades."""

    name = "FastSwap"

    def __init__(
        self,
        num_memory_blades: int = 4,
        cache_capacity_pages: int = 32_768,
        network_config: Optional[NetworkConfig] = None,
        memory_blade_capacity: int = 1 << 34,
    ):
        self.engine = Engine()
        self.network = Network(self.engine, network_config or NetworkConfig())
        self.stats = StatsCollector()
        self.port: Port = self.network.attach("fastswap0")
        self.cache = PageCache(cache_capacity_pages)
        self.memory_blades = [
            MemoryBlade(i, self.network, memory_blade_capacity, store_data=False)
            for i in range(num_memory_blades)
        ]
        self._next_base = 0
        self._inflight: Dict[int, Event] = {}

    @property
    def config(self) -> NetworkConfig:
        return self.network.config

    def mmap(self, length: int) -> int:
        base = self._next_base
        pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        self._next_base += pages * PAGE_SIZE
        return base

    def _memory_blade_for(self, page_va: int) -> MemoryBlade:
        return self.memory_blades[(page_va // PAGE_SIZE) % len(self.memory_blades)]

    # -- swap-in / swap-out ------------------------------------------------------

    def _swap_in(self, page_va: int, write: bool) -> Generator:
        """Page fault: one-sided RDMA read of the page, no coherence."""
        while True:
            inflight = self._inflight.get(page_va)
            if inflight is None:
                break
            yield inflight
            if self.cache.lookup(page_va, write) is not None:
                return
        ev = self.engine.event()
        self._inflight[page_va] = ev
        try:
            self.stats.incr("remote_accesses")
            yield self.config.fault_overhead_us
            yield self.config.rdma_verb_overhead_us
            mem = self._memory_blade_for(page_va)
            yield from wire(self.port.to_switch, CONTROL_MSG_BYTES)
            yield self.config.switch_pipeline_us
            yield from wire(mem.port.from_switch, CONTROL_MSG_BYTES)
            yield self.config.memory_service_us + self.config.dram_access_us
            yield from wire(mem.port.to_switch, PAGE_SIZE)
            yield self.config.switch_pipeline_us
            yield from wire(self.port.from_switch, PAGE_SIZE)
            yield self.config.rdma_verb_overhead_us
            for victim in self.cache.insert(page_va, None, writable=True):
                if victim.dirty:
                    self.stats.incr("eviction_flushes")
                    self.engine.process(self._swap_out(victim.va))
            if write:
                self.cache.peek(page_va).dirty = True
        finally:
            del self._inflight[page_va]
            ev.succeed()

    def _swap_out(self, page_va: int) -> Generator:
        """Asynchronous dirty-page write-back to its memory blade."""
        mem = self._memory_blade_for(page_va)
        yield from wire(self.port.to_switch, PAGE_SIZE)
        yield self.config.switch_pipeline_us
        yield from wire(mem.port.from_switch, PAGE_SIZE)
        yield self.config.memory_service_us
        self.stats.incr("pages_written_back")

    # -- replay --------------------------------------------------------------------

    def run_thread(self, accesses: AccessOrStream) -> Generator:
        stream = AccessStream.coerce(accesses)
        vas = stream.vas
        write_flags = stream.writes
        dram_access_us = self.config.dram_access_us
        cache_lookup = self.cache.lookup
        local_debt = 0.0
        count = len(vas)
        for i in range(count):
            va = vas[i]
            is_write = write_flags[i]
            hit = cache_lookup(va, is_write)
            if hit is not None:
                local_debt += dram_access_us
                if local_debt >= 25.0:
                    yield local_debt
                    local_debt = 0.0
                continue
            if local_debt:
                yield local_debt
                local_debt = 0.0
            yield from self._swap_in(align_down(va, PAGE_SIZE), bool(is_write))
        if local_debt:
            yield local_debt
        return count

    def run_workload(self, workload: TraceWorkload) -> RunResult:
        """Replay all threads on the single compute blade."""
        bases = [self.mmap(spec.size_bytes) for spec in workload.region_specs()]
        streams = workload.streams(bases)
        procs = [self.engine.process(self.run_thread(s)) for s in streams]
        barrier = self.engine.all_of(procs)
        self.engine.run_until_complete(barrier)
        total = sum(len(s) for s in streams)
        return RunResult(
            system=self.name,
            workload=workload.name,
            num_blades=1,
            num_threads=workload.num_threads,
            runtime_us=self.engine.now,
            total_accesses=total,
            stats=self.stats,
            kernel_stats=self.engine.kernel_stats(),
        )
