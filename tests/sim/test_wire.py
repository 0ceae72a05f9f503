"""``wire()``: every route it takes must be observably one
``engine.process(link.transfer(n))``.

Each case builds the same scene on two engines, carries one payload with
``wire()`` on the first and with a spawned ``Link.transfer`` process on the
twin, and compares the clock, the delivery verdict and every link's bytes,
busy-time integral, grants, queued grants and drops.  A spy on the link
records which route ``wire()`` actually took, so each case pins one path.
"""

import random

import pytest

from repro.sim.engine import Engine
from repro.sim.network import (
    CONTROL_MSG_BYTES,
    PAGE_SIZE,
    CompositePath,
    Link,
    LinkFault,
    NetworkConfig,
    wire,
)


def _spy(link, log):
    """Record which fast path on ``link`` succeeded (instance-level wrap)."""
    for name in ("try_leg", "try_start"):
        real = getattr(link, name)

        def wrapped(size, real=real, name=name):
            got = real(size)
            if got >= 0.0:
                log.append(name)
            return got

        setattr(link, name, wrapped)


def _link_state(link):
    busy, _cap = link.busy_stats()
    res = link._resource
    return (
        link.bytes_carried,
        busy,
        res.grants,
        res.waits,
        link.packets_dropped,
        link.bytes_dropped,
    )


def _carry(build, size, use_wire):
    """Build a scene, carry ``size`` bytes over its path, run to the end."""
    engine = Engine()
    path, links = build(engine)
    routes = []
    for link in links:
        _spy(link, routes)
    result = []

    def sender():
        yield 0.5  # leave the set-up instant before touching the wire
        if use_wire:
            result.append((yield from wire(path, size)))
        else:
            result.append((yield engine.process(path.transfer(size))))

    engine.process(sender())
    engine.run()
    state = (engine.now, result, [_link_state(link) for link in links])
    return state, routes


def _assert_twins(build, size):
    got, routes = _carry(build, size, use_wire=True)
    want, twin_routes = _carry(build, size, use_wire=False)
    assert twin_routes == []  # the twin never probes a fast path
    assert got == want
    return got, routes


def _one_link(engine):
    link = Link(engine, NetworkConfig(), "a->switch")
    return link, [link]


@pytest.mark.parametrize("size", [CONTROL_MSG_BYTES, PAGE_SIZE])
def test_fused_leg_on_an_idle_engine(size):
    (now, result, _), routes = _assert_twins(_one_link, size)
    assert routes == ["try_leg"]
    assert result == [True]
    cfg = NetworkConfig()
    assert now == 0.5 + cfg.serialization_us(size) + cfg.link_propagation_us


def test_claimed_wire_with_a_timer_due_mid_leg():
    def build(engine):
        link, links = _one_link(engine)
        # Due after serialization but before propagation ends: the whole
        # leg cannot be one delay, the claimed wire still can.
        engine.schedule(1.0, lambda: None)
        return link, links

    (_, result, _), routes = _assert_twins(build, PAGE_SIZE)
    assert routes == ["try_start"]
    assert result == [True]


def test_queued_behind_a_held_wire():
    def build(engine):
        link, links = _one_link(engine)
        # Another sender holds the wire when ours arrives at t=0.5.
        engine.process(link.transfer(16 * PAGE_SIZE))
        return link, links

    (_, result, states), routes = _assert_twins(build, PAGE_SIZE)
    assert routes == []
    assert result == [True]
    assert states[0][0] == 17 * PAGE_SIZE
    assert states[0][3] == 1  # our grant queued behind the holder


def test_lossy_link_returns_false_and_counts_the_drop():
    def build(engine):
        link, links = _one_link(engine)
        link.install_fault(
            LinkFault(0.0, 1e9, drop_prob=1.0, rng=random.Random(7))
        )
        return link, links

    (_, result, states), routes = _assert_twins(build, PAGE_SIZE)
    assert routes == []
    assert result == [False]
    assert states[0][4] == 1  # packets_dropped
    assert states[0][0] == PAGE_SIZE  # the wire was still occupied


def test_composite_path_whose_middle_leg_drops():
    def build(engine):
        cfg = NetworkConfig()
        edge = Link(engine, cfg, "a->switch")
        spine = Link(engine, cfg, "rack0->spine")
        down = Link(engine, cfg, "spine->rack1")
        spine.install_fault(
            LinkFault(0.0, 1e9, drop_prob=1.0, rng=random.Random(7))
        )
        path = CompositePath(
            engine,
            "a->rack1",
            [
                (CompositePath.LINK, edge, "edge"),
                (CompositePath.DELAY, 0.45, "edge"),
                (CompositePath.LINK, spine, "spine"),
                (CompositePath.LINK, down, "spine"),
            ],
        )
        return path, [edge, spine, down]

    (_, result, states), routes = _assert_twins(build, PAGE_SIZE)
    assert routes == []
    assert result == [False]
    edge, spine, down = states
    assert edge[0] == PAGE_SIZE and edge[4] == 0
    assert spine[4] == 1
    assert down[0] == 0  # the payload never reached the last leg


@pytest.mark.parametrize("mid_leg_timer", [False, True])
def test_timer_at_the_legs_end_runs_before_the_join(mid_leg_timer):
    # A timer set up before the leg, due exactly when it ends, wakes a
    # waiter.  A spawned transfer's completion queues the sender behind
    # that waiter; the fused routes must too.
    cfg = NetworkConfig()
    end = 0.5 + cfg.serialization_us(PAGE_SIZE) + cfg.link_propagation_us

    def run(use_wire):
        engine = Engine()
        link, _ = _one_link(engine)
        routes = []
        _spy(link, routes)
        order = []
        gate = engine.event()
        if mid_leg_timer:
            engine.schedule(1.0, lambda: None)  # forces the claimed wire
        engine.schedule(end, gate.succeed)

        def waiter():
            yield gate
            order.append(("waiter", engine.now))

        def sender():
            yield 0.5
            if use_wire:
                ok = yield from wire(link, PAGE_SIZE)
            else:
                ok = yield engine.process(link.transfer(PAGE_SIZE))
            order.append(("sender", ok, engine.now))

        engine.process(waiter())
        engine.process(sender())
        engine.run()
        return order, _link_state(link), routes

    got, got_state, routes = run(use_wire=True)
    want, want_state, _ = run(use_wire=False)
    assert routes == (["try_start"] if mid_leg_timer else ["try_leg"])
    assert (got, got_state) == (want, want_state)
    assert got == [("waiter", end), ("sender", True, end)]
