"""Sharing-aware thread placement (Section 8, "Thread management").

The paper notes that an orthogonal way to cut coherence traffic is to
*co-locate threads that share memory*: accesses between threads on the
same compute blade hit the shared local cache and never cross the network.
This module implements that future-work idea:

1. :func:`sharing_affinity` profiles the workload's deterministic traces
   and scores every thread pair by how much write-shared traffic they
   exchange (reads against another thread's writes are what turn into
   invalidations and re-fetches).
2. :func:`affinity_placement` greedily packs threads onto blades to
   maximize intra-blade affinity -- a classic graph-partitioning heuristic
   that is cheap enough for a control plane to run at placement time.
3. :func:`run_with_placement` replays the workload under an explicit
   placement so round-robin and affinity placement can be compared
   (``benchmarks/test_ablation_thread_placement.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cluster import ClusterConfig, MindCluster
from .runner import RunnerConfig, _base_mind, _cache_pages
from .sim.network import PAGE_SIZE, NetworkConfig
from .sim.stats import RunResult
from .workloads.trace import ThreadTrace, TraceWorkload


def _page_profiles(
    traces: Sequence[ThreadTrace],
) -> Tuple[List[Dict[int, int]], List[Dict[int, int]]]:
    """Per-thread page histograms, split into reads and writes."""
    reads: List[Dict[int, int]] = []
    writes: List[Dict[int, int]] = []
    for trace in traces:
        pages = (trace.vas // PAGE_SIZE).astype(np.int64)
        w = trace.writes
        r_pages, r_counts = np.unique(pages[~w], return_counts=True)
        w_pages, w_counts = np.unique(pages[w], return_counts=True)
        reads.append(dict(zip(r_pages.tolist(), r_counts.tolist())))
        writes.append(dict(zip(w_pages.tolist(), w_counts.tolist())))
    return reads, writes


def sharing_affinity(traces: Sequence[ThreadTrace]) -> np.ndarray:
    """Pairwise affinity: traffic that becomes coherence messages when the
    two threads sit on different blades.

    For threads *i, j* and page *p*, separating them costs when one writes
    what the other touches: we score ``min(w_i, r_j + w_j) + min(w_j,
    r_i + w_i)`` summed over shared pages -- read-read sharing is free
    under MSI and contributes nothing.
    """
    n = len(traces)
    reads, writes = _page_profiles(traces)
    affinity = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            score = 0
            for page, wi in writes[i].items():
                other = reads[j].get(page, 0) + writes[j].get(page, 0)
                if other:
                    score += min(wi, other)
            for page, wj in writes[j].items():
                other = reads[i].get(page, 0) + writes[i].get(page, 0)
                if other:
                    score += min(wj, other)
            affinity[i, j] = affinity[j, i] = score
    return affinity


def affinity_placement(
    traces: Sequence[ThreadTrace], num_blades: int, threads_per_blade: int
) -> List[int]:
    """Greedy affinity packing: each blade is seeded with the heaviest
    unplaced thread, then filled with its best-affinity companions.

    Returns ``placement[i] = blade`` for every thread.
    """
    n = len(traces)
    if n > num_blades * threads_per_blade:
        raise ValueError("more threads than placement slots")
    affinity = sharing_affinity(traces)
    placement = [-1] * n
    unplaced = set(range(n))
    for blade in range(num_blades):
        if not unplaced:
            break
        # Seed: the unplaced thread with the most total sharing left.
        seed = max(unplaced, key=lambda t: affinity[t, list(unplaced)].sum())
        group = [seed]
        unplaced.discard(seed)
        while len(group) < threads_per_blade and unplaced:
            best = max(
                unplaced, key=lambda t: sum(affinity[t, g] for g in group)
            )
            group.append(best)
            unplaced.discard(best)
        for t in group:
            placement[t] = blade
    return placement


def round_robin_placement(num_threads: int, num_blades: int) -> List[int]:
    """The paper's default policy (Section 6.1)."""
    return [t % num_blades for t in range(num_threads)]


def cross_blade_share_fraction(
    traces: Sequence[ThreadTrace], placement: Sequence[int]
) -> float:
    """Fraction of pairwise affinity that crosses blades under a placement
    (the quantity affinity placement minimizes)."""
    affinity = sharing_affinity(traces)
    total = affinity.sum()
    if total == 0:
        return 0.0
    cross = sum(
        affinity[i, j]
        for i in range(len(traces))
        for j in range(i + 1, len(traces))
        if placement[i] != placement[j]
    ) * 2
    return cross / total


def run_with_placement(
    workload: TraceWorkload,
    num_blades: int,
    placement: Sequence[int],
    config: Optional[RunnerConfig] = None,
    system_name: str = "MIND",
) -> RunResult:
    """Replay ``workload`` with thread *i* pinned to ``placement[i]``."""
    cfg = config or RunnerConfig()
    cluster = MindCluster(
        ClusterConfig(
            num_compute_blades=num_blades,
            num_memory_blades=cfg.num_memory_blades,
            cache_capacity_pages=_cache_pages(workload, cfg),
            store_data=cfg.store_data,
            mind=cfg.mind or _base_mind(cfg),
            network=cfg.network or NetworkConfig(),
        )
    )
    controller = cluster.controller
    task = controller.sys_exec(workload.name)
    bases = [
        controller.sys_mmap(task.pid, spec.size_bytes)
        for spec in workload.region_specs()
    ]
    streams = workload.streams(bases)
    gens = []
    for thread_id, stream in enumerate(streams):
        blade = cluster.compute_blade(placement[thread_id])
        gens.append(blade.run_thread(task.pid, stream))
    cluster.run_all(gens)
    total = sum(len(s) for s in streams)
    return RunResult(
        system=system_name,
        workload=workload.name,
        num_blades=num_blades,
        num_threads=workload.num_threads,
        runtime_us=cluster.engine.now,
        total_accesses=total,
        stats=cluster.stats,
        kernel_stats=cluster.engine.kernel_stats(),
    )
