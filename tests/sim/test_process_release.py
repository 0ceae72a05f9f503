"""A finished process releases its generator but keeps its result."""

import gc
import weakref

from repro.sim.engine import Engine


def body(engine, result):
    yield 1.0
    return result


def test_finished_process_drops_its_generator():
    engine = Engine()
    proc = engine.process(body(engine, "done"))
    gen_ref = weakref.ref(proc._gen)
    engine.run()
    assert proc.triggered and proc.value == "done"
    assert proc._gen is None
    gc.collect()
    assert gen_ref() is None


def test_join_after_finish_still_sees_the_value():
    engine = Engine()
    child = engine.process(body(engine, 42))
    engine.run()
    assert child._gen is None

    def joiner():
        value = yield child
        return value + 1

    parent = engine.process(joiner())
    engine.run()
    assert parent.value == 43


def test_join_while_running_still_sees_the_value():
    engine = Engine()
    child = engine.process(body(engine, [1, 2]))

    def joiner():
        return (yield child)

    parent = engine.process(joiner())
    engine.run()
    assert parent.value == [1, 2]
    assert child._gen is None and parent._gen is None
