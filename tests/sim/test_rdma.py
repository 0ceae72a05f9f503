"""Unit tests for the one-sided RDMA verb model."""

import pytest

from repro.sim.engine import Engine
from repro.sim.network import CONTROL_MSG_BYTES, Network, NetworkConfig, PAGE_SIZE
from repro.sim.rdma import RdmaQp, one_sided_read, one_sided_write


@pytest.fixture
def rig():
    engine = Engine()
    network = Network(engine)
    compute = network.attach("compute")
    memory = network.attach("memory")
    return engine, network, compute, memory


def test_qp_post_request_charges_verb_and_uplink(rig):
    engine, network, compute, _memory = rig
    qp = RdmaQp(engine, network, compute)
    engine.run_process(qp.post_request())
    cfg = network.config
    expected = (
        cfg.rdma_verb_overhead_us
        + cfg.serialization_us(CONTROL_MSG_BYTES)
        + cfg.link_propagation_us
    )
    assert engine.now == pytest.approx(expected)


def test_qp_receive_response_page(rig):
    engine, network, compute, _memory = rig
    qp = RdmaQp(engine, network, compute)
    engine.run_process(qp.receive_response(PAGE_SIZE))
    cfg = network.config
    expected = (
        cfg.serialization_us(PAGE_SIZE)
        + cfg.link_propagation_us
        + cfg.rdma_verb_overhead_us
    )
    assert engine.now == pytest.approx(expected)


def test_one_sided_read_leg_latency(rig):
    engine, network, _compute, memory = rig
    cfg = network.config
    engine.run_process(one_sided_read(cfg, memory, PAGE_SIZE))
    expected = (
        cfg.serialization_us(CONTROL_MSG_BYTES)
        + cfg.link_propagation_us
        + cfg.memory_service_us
        + cfg.dram_access_us
        + cfg.serialization_us(PAGE_SIZE)
        + cfg.link_propagation_us
    )
    assert engine.now == pytest.approx(expected)


def test_one_sided_write_leg_latency(rig):
    engine, network, _compute, memory = rig
    cfg = network.config
    engine.run_process(one_sided_write(cfg, memory, PAGE_SIZE))
    # The page travels down; only a small ACK comes back.
    expected = (
        cfg.serialization_us(PAGE_SIZE)
        + cfg.link_propagation_us
        + cfg.memory_service_us
        + cfg.dram_access_us
        + cfg.serialization_us(CONTROL_MSG_BYTES)
        + cfg.link_propagation_us
    )
    assert engine.now == pytest.approx(expected)


def test_read_and_write_legs_are_symmetric(rig):
    engine, network, _compute, memory = rig
    cfg = network.config
    e1 = Engine()
    n1 = Network(e1)
    m1 = n1.attach("m")
    e1.run_process(one_sided_read(cfg, m1, PAGE_SIZE))
    e2 = Engine()
    n2 = Network(e2)
    m2 = n2.attach("m")
    e2.run_process(one_sided_write(cfg, m2, PAGE_SIZE))
    assert e1.now == pytest.approx(e2.now)
