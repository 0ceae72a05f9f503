"""Shared fixtures: small, fast cluster configurations for tests."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, MindCluster
from repro.core.mmu import MindConfig
from repro.faults import FaultInjector, FaultPlan
from repro.sim.network import LinkFault
from repro.sim.rng import make_rng


def small_cluster(
    num_compute: int = 2,
    num_memory: int = 1,
    cache_pages: int = 64,
    **mind_kwargs,
) -> MindCluster:
    """A tiny rack that builds in milliseconds for unit-level tests."""
    mind = MindConfig(
        directory_capacity=mind_kwargs.pop("directory_capacity", 256),
        memory_blade_capacity=mind_kwargs.pop("memory_blade_capacity", 1 << 26),
        enable_bounded_splitting=mind_kwargs.pop("enable_bounded_splitting", False),
        **mind_kwargs,
    )
    return MindCluster(
        ClusterConfig(
            num_compute_blades=num_compute,
            num_memory_blades=num_memory,
            cache_capacity_pages=cache_pages,
            mind=mind,
        )
    )


def arm_packet_loss(
    cluster: MindCluster,
    port: str,
    direction: str,
    prob: float,
    duration_us: float = 1e9,
    seed: int = 0,
) -> list:
    """Drop packets on ``port``'s ``direction`` links from now until
    ``duration_us`` later; returns those links (read their drop counts).

    ``FaultPlan`` refuses a drop probability of 1.0, so persistent loss
    installs the same :class:`LinkFault` on the links directly.
    """
    start = cluster.engine.now
    end = start + duration_us
    links = list(cluster.network.links(port_name=port, direction=direction))
    if prob < 1.0:
        plan = FaultPlan(seed=seed).packet_loss(
            start, end, prob, port=port, direction=direction
        )
        FaultInjector(cluster, plan).start()
    else:
        for link in links:
            link.install_fault(
                LinkFault(start, end, drop_prob=1.0, rng=make_rng(seed))
            )
    return links


def packets_dropped(links) -> int:
    return sum(link.packets_dropped for link in links)


@pytest.fixture
def cluster() -> MindCluster:
    return small_cluster()


@pytest.fixture
def big_cache_cluster() -> MindCluster:
    return small_cluster(cache_pages=4096)
